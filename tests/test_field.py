"""Field contexts, extensions, embeddings, and univariate factorization."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curveinv.errors import (
    CharZeroPthRoot,
    DivisionByZero,
    IncompatibleContexts,
    InternalCheckError,
    NoEmbedding,
    TowerLimitExceeded,
    UnsupportedInput,
)
from curveinv.field import (
    FieldCtx,
    FieldElement,
    _flat_finite_ctx,
    _int_mul_trunc,
    _is_prime,
    _loop_divmod,
    _rp_add,
    _rp_divmod,
    _rp_gcdex,
    _rp_monic,
    _rp_mul,
    _rp_sub,
    _rp_trim,
    embed,
)
from curveinv import unipoly
from curveinv.unipoly import UniPoly, _factor_squarefree, _IntegersMod, _poly_key


def _field_zoo():
    f2 = FieldCtx.prime(2)
    f7 = FieldCtx.prime(7)
    f4 = f2.extend([1, 1, 1])
    f9 = FieldCtx.prime(3).extend([1, 0, 1])
    f343 = _flat_finite_ctx(7, 3)  # computed through log tables
    f16_over_f4 = f4.extend([f4.gen(), f4.one, f4.one])  # x^2+x+a, a tower
    f2_17 = _flat_finite_ctx(2, 17)  # above the log-table cap
    qq = FieldCtx.rationals()
    qq_sqrt2 = qq.extend([-2, 0, 1])
    return [f2, f7, f4, f9, f343, f16_over_f4, f2_17, qq, qq_sqrt2]


def test_field_axioms_random():
    rng = random.Random(20240817)
    for ctx in _field_zoo():
        for _ in range(40):
            a, b, c = (ctx.sample(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + ctx.zero == a
            assert a * ctx.one == a
            assert a - a == ctx.zero
            if not b.is_zero():
                assert (a / b) * b == a
                assert b * b.inverse() == ctx.one


def test_int_mul_trunc_matches_schoolbook():
    # the integer kernel under every F_p and QQ product, which skips zeros in both operands
    rng = random.Random(7)

    def schoolbook(a, b, n):
        return [
            sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
            for k in range(n)
        ]

    def vector(kind, length):
        if kind == "signed":
            return [rng.randint(-9, 9) for _ in range(length)]
        if kind == "zero-heavy":
            return [rng.randint(-5, 5) if rng.random() < 0.2 else 0 for _ in range(length)]
        return [rng.randint(-(2**200), 2**200) for _ in range(length)]  # multi-word

    for kind in ("signed", "zero-heavy", "multi-word"):
        for _ in range(30):
            a, b = vector(kind, rng.randint(0, 25)), vector(kind, rng.randint(0, 25))
            full = len(a) + len(b) - 1
            for n in (0, 1, max(full // 2, 0), max(full, 0), full + 4):
                assert _int_mul_trunc(a, b, n) == schoolbook(a, b, n)
    assert _int_mul_trunc([], [1, 2], 3) == _int_mul_trunc([1, 2], [], 3) == [0, 0, 0]
    assert _int_mul_trunc([], [], 0) == []


def test_prime_field_basics():
    f7 = FieldCtx.prime(7)
    assert f7.from_int(10) == 3
    assert f7.from_int(-1) == 6
    assert (f7.from_int(3) / f7.from_int(5)) * f7.from_int(5) == 3
    assert FieldElement(f7, f7.rfrom_fraction(Fraction(2, 3))) == f7.from_int(2) / f7.from_int(3)
    with pytest.raises(DivisionByZero):
        f7.zero.inverse()
    with pytest.raises(ValueError):
        FieldCtx.prime(6)


def test_contexts_are_interned():
    assert FieldCtx.prime(5) is FieldCtx.prime(5)
    assert FieldCtx.rationals() is FieldCtx.rationals()
    f2, qq = FieldCtx.prime(2), FieldCtx.rationals()
    f4 = f2.extend([1, 1, 1])
    # every way of giving the modulus reaches the same context
    assert f2.extend([1, 1, 1]) is f4
    assert f2.extend([f2.one, f2.one, f2.one]) is f4
    assert f2.extend(UniPoly(f2, [1, 1, 1])) is f4
    assert f2.extend([3, 5, 7]) is f4  # read mod 2
    assert qq.extend([-4, 0, 2]) is qq.extend([-2, 0, 1])  # made monic
    assert qq.extend([-2, 0, 1], "s") is not qq.extend([-2, 0, 1])  # the name is presentation
    assert _flat_finite_ctx(2, 2) is _flat_finite_ctx(2, 2) is f2.extend([1, 1, 1], "a")
    assert f2.extend_with_root(UniPoly(f2, [1, 1, 1])) is _flat_finite_ctx(2, 2)
    assert qq.extend_with_root(UniPoly(qq, [-2, 0, 1])) is qq.extend([-2, 0, 1])
    for p, n in [(2, 12), (2, 17), (7, 3), (67, 2)]:
        flat = _flat_finite_ctx(p, n)
        assert flat is FieldCtx.prime(p).extend(flat.modulus, "a")
    assert _flat_finite_ctx(5, 1) is FieldCtx.prime(5)


def test_contexts_are_built_only_through_the_cache():
    f5 = FieldCtx.prime(5)
    with pytest.raises(TypeError, match="use FieldCtx.prime"):
        FieldCtx(object(), ("prime", 5), char=5)
    with pytest.raises(TypeError, match="use FieldCtx.prime"):
        FieldCtx(None, ("ext", f5._key, (1, 0, 1), "a"), base=f5, modulus=(2, 0, 1), gen_name="a")


# the parent of this module's flat presentations: the first monic irreducible
# in counter order, constant term first; changing any changes every F_q output
_FLAT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1) + (0,) * 8 + (1,),
    (2, 17): (1, 0, 0, 1) + (0,) * 13 + (1,),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 6): (2, 0, 0, 0, 0, 0, 1),
    (13, 2): (2, 0, 1),
    (67, 2): (1, 0, 1),
}


def test_flat_finite_fields_keep_their_moduli():
    for (p, n), modulus in _FLAT_MODULI.items():
        ctx = _flat_finite_ctx(p, n)
        assert ctx.modulus == modulus, (p, n)
        assert (ctx.order, ctx.absdegree, ctx.depth, ctx.gen_name) == (p**n, n, 1, "a")
        assert ctx.rsort_key(ctx.gen().rep) == (0, 1) + (0,) * (n - 2)


def _extend_refusals():
    f5, qq = FieldCtx.prime(5), FieldCtx.rationals()
    deep = qq
    for q in (2, 3, 5, 7):
        deep = deep.extend([deep.from_int(-q), deep.zero, deep.one])
    return {
        "degree 1 over F_p": (lambda: f5.extend([1, 1]), UnsupportedInput),
        "degree 0 over QQ": (lambda: qq.extend([3, 0, 0]), UnsupportedInput),
        "zero modulus": (lambda: qq.extend([0, 0]), UnsupportedInput),
        "reducible over F_p": (lambda: f5.extend([-1, 0, 1]), UnsupportedInput),
        "reducible over QQ": (lambda: qq.extend([-4, 0, 1]), UnsupportedInput),
        "foreign coefficient": (lambda: f5.extend([FieldCtx.prime(7).one, 0, 1]), IncompatibleContexts),
        "foreign polynomial": (lambda: f5.extend(UniPoly(qq, [1, 0, 1])), IncompatibleContexts),
        "non-number coefficient": (lambda: qq.extend(["2", 0, 1]), TypeError),
        "float coefficient": (lambda: qq.extend([2.0, 0, 1]), TypeError),
        "depth past the cap": (lambda: deep.extend([deep.from_int(-11), deep.zero, deep.one]), TowerLimitExceeded),
    }


@pytest.mark.parametrize("case", sorted(_extend_refusals()))
def test_extend_refusals_keep_their_types(case):
    call, expected = _extend_refusals()[case]
    with pytest.raises(expected):
        call()


def test_extend_reads_fraction_coefficients():
    qq, f5 = FieldCtx.rationals(), FieldCtx.prime(5)
    k = qq.extend([Fraction(-1, 2), 0, 1])
    assert k.modulus == (Fraction(-1, 2), Fraction(0), Fraction(1))
    assert k.gen() * k.gen() == Fraction(1, 2)
    assert f5.extend([Fraction(3, 4), 0, 1]) is f5.extend([2, 0, 1])  # 3/4 = 2 in F_5


def test_f4_multiplication_table():
    f4 = FieldCtx.prime(2).extend([1, 1, 1])
    a = f4.gen()
    assert a * a == a + 1
    assert a * (a + 1) == f4.one
    assert str(a * a) == "a+1"
    assert f4.descriptor() == "Fq:2^2"
    assert sorted(str(e) for e in f4.elements()) == ["0", "1", "a", "a+1"]


def test_frobenius_fixes_prime_field_and_permutes():
    for ctx in [FieldCtx.prime(3).extend([1, 0, 1]), FieldCtx.prime(2).extend([1, 1, 1])]:
        q = ctx.order
        for e in ctx.elements():
            assert e**q == e
        p = ctx.char
        images = {e**p for e in ctx.elements()}
        assert len(images) == q


def test_pth_root_inverts_frobenius():
    f9 = FieldCtx.prime(3).extend([1, 0, 1])
    for e in f9.elements():
        assert f9.pth_root(e) ** 3 == e
    with pytest.raises(CharZeroPthRoot):
        FieldCtx.rationals().pth_root(FieldCtx.rationals().one)


def test_incompatible_contexts_rejected():
    a = FieldCtx.prime(5).from_int(2)
    b = FieldCtx.prime(7).from_int(2)
    with pytest.raises(IncompatibleContexts):
        a + b


def test_rationals_render():
    qq = FieldCtx.rationals()
    assert str(FieldElement(qq, qq.rfrom_fraction(Fraction(2, 3)))) == "2/3"
    assert str(qq.from_int(-5)) == "-5"
    assert qq.descriptor() == "QQ"


def test_char_zero_tower_rendering_and_depth_cap():
    qq = FieldCtx.rationals()
    k1 = qq.extend([-2, 0, 1])
    assert k1.descriptor() == "QQ(a)"
    s = k1.gen()
    assert s * s == 2
    assert str(s + 1) == "a+1"
    assert str(s * Fraction(1, 2)) == "1/2*a"
    k2 = k1.extend([k1.from_int(-3), k1.zero, k1.one])
    assert k2.descriptor() == "QQ(a,b)"
    t = k2.gen()
    assert t * t == 3
    ctx = k2
    with pytest.raises(TowerLimitExceeded):
        for q in (7, 11, 13):
            ctx = ctx.extend([ctx.from_int(-q), ctx.zero, ctx.one])


def test_extend_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        FieldCtx.prime(5).extend([-1, 0, 1])  # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(ValueError):
        FieldCtx.rationals().extend([-4, 0, 1])


def _root_in(ctx, g):
    """A root of ``g`` in ``ctx``, found directly."""
    roots = UniPoly(ctx, [embed(c, ctx) for c in g.coeffs]).roots()
    assert roots
    return roots[0]


def test_extend_with_root_f9():
    f3 = FieldCtx.prime(3)
    g = UniPoly(f3, [1, 0, 1])  # t^2 + 1
    ctx = f3.extend_with_root(g)
    assert ctx.order == 9
    root = _root_in(ctx, g)
    assert root * root == embed(f3.from_int(-1), ctx)
    assert f3.extend_with_root(UniPoly(f3, [1, 0, 1])) is ctx


def test_extend_with_root_f25_square_root_of_two():
    f5 = FieldCtx.prime(5)
    g = UniPoly(f5, [-2, 0, 1])
    ctx = f5.extend_with_root(g)
    assert ctx.order == 25
    root = _root_in(ctx, g)
    assert root * root == embed(f5.from_int(2), ctx)


def test_extend_with_root_flattens_towers():
    f2 = FieldCtx.prime(2)
    f4 = f2.extend_with_root(UniPoly(f2, [1, 1, 1]))
    assert f4.order == 4
    # x^3+a has no root in F_4 (nonzero cubes are all 1), hence is irreducible;
    # its root must land in F_64, presented one step above F_2
    x = UniPoly.x(f4)
    g = x**3 + UniPoly(f4, [f4.gen()])
    assert g.is_irreducible()
    big = f4.extend_with_root(g)
    assert big.order == 64
    assert big.base.kind == "prime"
    img = UniPoly(big, [embed(c, big) for c in g.coeffs])
    assert img.eval(_root_in(big, g)).is_zero()


def test_extend_with_root_over_qq_adjoins_the_factor():
    qq = FieldCtx.rationals()
    g = UniPoly(qq, [-2, 0, 1])
    ctx = qq.extend_with_root(g)
    assert ctx.modulus == tuple(c.rep for c in g.coeffs)
    assert ctx.gen() * ctx.gen() == 2
    assert qq.extend_with_root(UniPoly(qq, [-2, 0, 1])) is ctx


def test_extend_with_root_needs_degree_two():
    # the factor comes from blowup.split, which keeps linear factors as roots
    for ctx in (FieldCtx.prime(5), FieldCtx.rationals()):
        for coeffs in ([3, 1], [2]):
            with pytest.raises(InternalCheckError):
                ctx.extend_with_root(UniPoly(ctx, coeffs))


def test_embed_is_homomorphism():
    f2 = FieldCtx.prime(2)
    f4 = f2.extend([1, 1, 1])
    f16 = f2.extend([1, 1, 0, 0, 1])
    rng = random.Random(7)
    for _ in range(25):
        a, b = f4.sample(rng), f4.sample(rng)
        assert embed(a + b, f16) == embed(a, f16) + embed(b, f16)
        assert embed(a * b, f16) == embed(a, f16) * embed(b, f16)
    gen_image = embed(f4.gen(), f16)
    assert gen_image * gen_image + gen_image + 1 == f16.zero
    with pytest.raises(NoEmbedding):
        embed(f4.gen(), FieldCtx.prime(3).extend([1, 0, 1]))


def test_embed_constants_and_tower_stages():
    qq = FieldCtx.rationals()
    k1 = qq.extend([-2, 0, 1])
    k2 = k1.extend([k1.from_int(-3), k1.zero, k1.one])
    half = FieldElement(qq, qq.rfrom_fraction(Fraction(1, 2)))
    assert embed(half, k2) * 2 == k2.one
    s = embed(k1.gen(), k2)
    assert s * s == 2


def test_element_enumeration_and_indexing():
    f9 = FieldCtx.prime(3).extend([1, 0, 1])
    elems = list(f9.elements())
    assert len(elems) == 9
    assert len(set(elems)) == 9
    for i, e in enumerate(elems):
        assert f9.element_at(i) == e
    with pytest.raises(ValueError):
        next(FieldCtx.rationals().elements())


def test_sampling_is_seed_deterministic():
    f49 = FieldCtx.prime(7).extend([1, 0, 1])
    run1 = [f49.sample(random.Random(99)) for _ in range(5)]
    run2 = [f49.sample(random.Random(99)) for _ in range(5)]
    assert run1 == run2


# -- univariate layer ----------------------------------------------------------


def test_unipoly_divmod_roundtrip():
    rng = random.Random(3)
    for ctx in _field_zoo():
        for _ in range(15):
            a = UniPoly(ctx, [ctx.sample(rng) for _ in range(rng.randint(0, 6))])
            b = UniPoly(ctx, [ctx.sample(rng) for _ in range(rng.randint(1, 4))])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree() < b.degree()


def _division_cases(m: int, rng: random.Random):
    """Dividend and divisor rep vectors mod m, trimmed, each divisor with a
    leading coefficient prime to m."""
    units = [c for c in range(1, m) if gcd(c, m) == 1]
    for _ in range(40):
        b = [rng.randrange(m) for _ in range(rng.randint(0, 4))] + [rng.choice(units)]
        a = [rng.randrange(m) for _ in range(rng.randint(0, 9))]
        while a and not a[-1]:
            a.pop()
        yield a, b
        q = [rng.randrange(m) for _ in range(rng.randint(1, 5))] + [rng.choice(units)]
        # an exact division: q*b, by a schoolbook product mod m
        prod = [0] * (len(q) + len(b) - 1)
        for i, qi in enumerate(q):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + qi * bj) % m
        while prod and not prod[-1]:
            prod.pop()
        yield prod, b


@pytest.mark.parametrize("m", [2, 7, 3**4, 2**6])
def test_prime_division_kernel_matches_the_generic_loop(m):
    # F_p and the Z/p^k of Hensel lifting divide on plain ints; the loop that
    # every other context kind runs is the reference
    ctx = FieldCtx.prime(m) if _is_prime(m) else _IntegersMod(m)
    rng = random.Random(m)
    exact = 0
    for a, b in _division_cases(m, rng):
        q, r = _rp_divmod(ctx, a, b)
        assert (q, r) == _loop_divmod(ctx, a, b)
        exact += not r
        assert len(r) < len(b)
        if len(a) < len(b):
            assert (q, r) == ([], a)
    assert exact >= 40
    with pytest.raises(DivisionByZero):
        _rp_divmod(ctx, [1, 2], [])


def _schoolbook_gcd(ctx, a, b):
    """The Euclid every context ran before ``rgcd``: remainders by the
    schoolbook loop, made monic at the end."""
    while b:
        a, b = b, _loop_divmod(ctx, a, b)[1]
    return _rp_monic(ctx, list(a))


def _rep_vectors(ctx):
    """Trimmed rep vectors, empty and constant ones included; over QQ with
    negative numerators, denominators up to 10^12 and scattered zeros."""
    if ctx.kind == "prime":
        coeff = st.integers(0, ctx.char - 1)
    elif ctx.order is not None:  # log codes, 0 for zero
        coeff = st.one_of(st.just(0), st.integers(0, ctx.order - 1))
    else:
        coeff = st.one_of(
            st.just(Fraction(0)),
            st.builds(Fraction, st.integers(-9, 9)),
            st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**12)),
        )
    return st.lists(coeff, max_size=6).map(lambda v: _rp_trim(ctx, v))


_LOG_TABLE_FIELDS = [_flat_finite_ctx(p, n) for p, n in [(2, 2), (7, 3), (11, 2), (2, 12)]]
_LOG_TABLE_IDS = ["F4", "F7^3", "F11^2", "F2^12"]


@pytest.mark.parametrize(
    "ctx",
    [FieldCtx.prime(2), FieldCtx.prime(7), FieldCtx.prime(10007), FieldCtx.rationals(), *_LOG_TABLE_FIELDS],
    ids=["F2", "F7", "F10007", "QQ", *_LOG_TABLE_IDS],
)
def test_euclid_kernels_match_the_schoolbook_loops(ctx):
    vectors = _rep_vectors(ctx)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(vectors, vectors, vectors, st.booleans())
    def check(a, b, c, planted):
        if planted and c:  # a common factor, so the gcd is not 1
            a, b = _rp_mul(ctx, a, c), _rp_mul(ctx, b, c)
        g = ctx.rgcd(a, b)
        assert g == _schoolbook_gcd(ctx, a, b) == ctx.rgcd(b, a)
        if planted and c and a and b:
            assert len(g) >= len(c)
        if b:
            assert ctx.rdivmod(a, b) == _loop_divmod(ctx, a, b)
        if a:
            assert ctx.rdivmod(b, a) == _loop_divmod(ctx, b, a)

    check()
    one = ctx.rone
    assert ctx.rgcd([], []) == []
    assert ctx.rgcd([], [ctx.rfrom_int(3)]) == [one]
    assert ctx.rgcd([ctx.rfrom_int(2), ctx.rfrom_int(5)], []) == _rp_monic(ctx, [ctx.rfrom_int(2), ctx.rfrom_int(5)])
    assert ctx.rdivmod([ctx.rfrom_int(3)], [one, one]) == ([], [ctx.rfrom_int(3)])


@pytest.mark.parametrize("ctx", _LOG_TABLE_FIELDS, ids=_LOG_TABLE_IDS)
def test_log_table_products_match_the_schoolbook_loop(ctx):
    # the kernel adds codes and looks up Zech logarithms inline; the reference
    # makes one radd and one rmul call per pair.  F_4 and F_{2^12} have p = 2,
    # where -1 is g^0, and n runs below and above len(a) + len(b) - 1
    vectors = _rep_vectors(ctx)

    def schoolbook(a, b, n):
        out = [ctx.rzero] * n
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                if i + j < n:
                    out[i + j] = ctx.radd(out[i + j], ctx.rmul(ca, cb))
        return out

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(vectors, vectors, st.integers(0, 13))
    def check(a, b, n):
        assert ctx.rconv(a, b, n) == schoolbook(a, b, n)

    check()
    m = ctx.order - 1
    one, minus_one = ctx.rone, ctx.rneg(ctx.rone)
    assert (minus_one == one) == (ctx.char == 2)
    assert ctx.rconv([one, 0, m], [m, one], 5) == schoolbook([one, 0, m], [m, one], 5)
    assert ctx.rconv([one, one], [one, minus_one], 3) == [one, 0, ctx.rneg(one)]  # (1+t)(1-t)


@pytest.mark.parametrize(
    "ctx",
    [FieldCtx.prime(7), _flat_finite_ctx(7, 3), _flat_finite_ctx(67, 2), FieldCtx.rationals().extend([-2, 0, 1])],
    ids=["F7", "log-table F7^3", "tuple F67^2", "QQ(sqrt2)"],
)
def test_extended_euclid_gives_the_gcd_and_a_reduced_cofactor(ctx):
    rng = random.Random(1901)

    def vector(n):
        return _rp_trim(ctx, [ctx.sample(rng).rep for _ in range(n)])

    planted_gcds = 0
    for trial in range(60):
        a, b = vector(rng.randrange(7)), vector(rng.randrange(1, 7))
        c = vector(rng.randrange(2, 4)) if trial % 2 else []
        if c:  # a common factor, so the gcd is not 1
            a, b = _rp_mul(ctx, a, c), _rp_mul(ctx, b, c)
        if not b:
            continue
        g, s = _rp_gcdex(ctx, a, b)
        assert g == ctx.rgcd(a, b)
        assert len(s) < len(b)
        assert _rp_divmod(ctx, _rp_sub(ctx, _rp_mul(ctx, s, a), g), b)[1] == []
        planted_gcds += bool(c and a and len(g) >= len(c) > 1)
    assert planted_gcds > 10


def test_rational_kernels_build_fractions_of_the_right_size():
    qq = FieldCtx.rationals()
    half, third = Fraction(1, 2), Fraction(-1, 3)
    # (x/2 - 1/3)(x + 1) and (x/2 - 1/3)(x - 5): the monic gcd is x - 2/3
    a = [third, third + half, half]
    b = [-5 * third, third - 5 * half, half]
    assert qq.rgcd(a, b) == [Fraction(-2, 3), Fraction(1)]
    big = Fraction(10**12 + 39, 10**12 + 37)
    q, r = qq.rdivmod([big, 0, 3 * big], [Fraction(7, 10**12 + 37), big])
    assert _rp_add(qq, _rp_mul(qq, q, [Fraction(7, 10**12 + 37), big]), r) == [big, 0, 3 * big]
    assert all(c.denominator > 0 for c in q + r)


def test_the_integer_shadow_divides_exactly_or_not_at_all():
    Z = FieldCtx.rationals().shadow
    assert Z.rdivmod([2, 4, 2], [1, 1]) == ([2, 2], [])
    assert Z.rdivmod([], [3, 1]) == ([], [])
    for a, b in [([1, 2, 1], [2, 2]), ([1, 0, 1], [1, 1]), ([1], [1, 1])]:
        with pytest.raises(InternalCheckError, match="not exact in Z"):
            Z.rdivmod(a, b)
    # the gcd is the primitive generator of the gcd over QQ, leading entry positive
    assert Z.rgcd([-6, 0, 6], [-4, -4]) == [1, 1]
    assert Z.rgcd([2, 4], [3]) == [1]
    assert Z.rgcd([0, -3], []) == [0, 1]


def test_leading_coefficient_of_zero_is_an_internal_error():
    # no input reaches it: a caller asking for it has a defect (exit 2, not 1)
    for ctx in (FieldCtx.prime(7), FieldCtx.rationals()):
        assert UniPoly(ctx, [1, 0, 3]).leading() == ctx.from_int(3)
        with pytest.raises(InternalCheckError):
            UniPoly(ctx, []).leading()


# Coefficient-by-coefficient references on FieldElements for the UniPoly
# operations, which run on rep vectors: lists of elements, zeros trimmed.


def _trimmed(cs: list) -> list:
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _ref_add(ctx, a, b):
    n = max(len(a), len(b))
    a, b = a + [ctx.zero] * (n - len(a)), b + [ctx.zero] * (n - len(b))
    return _trimmed([x + y for x, y in zip(a, b)])


def _ref_mul(ctx, a, b):
    out = [ctx.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trimmed(out)


def _ref_divmod(ctx, a, b):
    r, q, inv = list(a), [ctx.zero] * max(len(a) - len(b) + 1, 0), b[-1].inverse()
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(b) - 1] * inv
        for j, y in enumerate(b):
            r[k + j] = r[k + j] - c * y
    return _trimmed(q), _trimmed(r[: len(b) - 1])


def _ref_eval(ctx, a, x):
    acc = ctx.zero
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _ref_compose(ctx, a, b):
    acc = []
    for c in reversed(a):
        acc = _ref_add(ctx, _ref_mul(ctx, acc, b), [c])
    return acc


_REFERENCE_FIELDS = {
    "F_7": FieldCtx.prime(7),
    "log-table F_7^2": _flat_finite_ctx(7, 2),
    "tuple F_2^13": _flat_finite_ctx(2, 13),
    "QQ": FieldCtx.rationals(),
    "QQ(sqrt 2)": FieldCtx.rationals().extend([-2, 0, 1]),
}


@pytest.mark.parametrize("ctx", _REFERENCE_FIELDS.values(), ids=_REFERENCE_FIELDS.keys())
def test_unipoly_agrees_with_elementwise_arithmetic(ctx):
    assert (ctx._log is not None) == (ctx.descriptor() == "Fq:7^2")
    rng = random.Random(2222)
    for _ in range(30):
        a, b = ([ctx.sample(rng) for _ in range(rng.randint(0, 6))] for _ in range(2))
        c, x = ctx.sample(rng), ctx.sample(rng)
        fa, fb = UniPoly(ctx, a), UniPoly(ctx, b)
        a, b = _trimmed(a), _trimmed(b)
        assert list(fa.coeffs) == a and fa.reps == tuple(e.rep for e in a)
        assert list((fa + fb).coeffs) == _ref_add(ctx, a, b)
        assert list((fa - fb).coeffs) == _ref_add(ctx, a, [-e for e in b])
        assert list((-fa).coeffs) == [-e for e in a]
        assert list(fa.scale(c).coeffs) == _trimmed([c * e for e in a])
        assert list((fa * fb).coeffs) == _ref_mul(ctx, a, b)
        power = [ctx.one]
        for e in range(4):
            assert list((fa**e).coeffs) == power
            power = _ref_mul(ctx, power, a)
        if b:
            q, r = divmod(fa, fb)
            assert (list(q.coeffs), list(r.coeffs)) == _ref_divmod(ctx, a, b)
        assert list(fa.derivative().coeffs) == _trimmed([e * i for i, e in enumerate(a)][1:])
        assert list(fa.compose(fb).coeffs) == _ref_compose(ctx, a, b)
        assert fa.eval(x) == _ref_eval(ctx, a, x)
        assert list(fa.monic().coeffs) == ([e * a[-1].inverse() for e in a] if a else [])


@pytest.mark.parametrize("ctx", list(_REFERENCE_FIELDS.values())[:3], ids=list(_REFERENCE_FIELDS)[:3])
def test_unipoly_pth_root_agrees_with_elementwise_roots(ctx):
    rng, p = random.Random(3333), ctx.char
    for _ in range(20):
        a = [ctx.sample(rng) if i % p == 0 else ctx.zero for i in range(rng.randint(0, 12))]
        root = UniPoly(ctx, a).pth_root()
        assert list(root.coeffs) == _trimmed([ctx.pth_root(e) for e in a[::p]])
        assert root ** p == UniPoly(ctx, a)


def _monic_polys(ctx, n):
    return [[*low, ctx.one] for low in product(list(ctx.elements()), repeat=n)]


@pytest.mark.parametrize(
    "ctx, top", [(FieldCtx.prime(2), 5), (FieldCtx.prime(3), 5), (_flat_finite_ctx(2, 2), 3)]
)
def test_is_irreducible_agrees_with_a_divisor_search(ctx, top):
    divisors = [d for n in range(1, top // 2 + 1) for d in _monic_polys(ctx, n)]
    for n in range(1, top + 1):
        for f in _monic_polys(ctx, n):
            reducible = any(
                not _ref_divmod(ctx, f, d)[1] for d in divisors if 2 * (len(d) - 1) <= n
            )
            assert UniPoly(ctx, f).is_irreducible() is not reducible, f


def test_unipoly_gcd_properties():
    rng = random.Random(4)
    f7 = FieldCtx.prime(7)
    for _ in range(20):
        a = UniPoly(f7, [f7.sample(rng) for _ in range(rng.randint(1, 5))])
        b = UniPoly(f7, [f7.sample(rng) for _ in range(rng.randint(1, 5))])
        c = UniPoly(f7, [f7.sample(rng) for _ in range(rng.randint(1, 3))])
        if a.is_zero() or b.is_zero():
            continue
        g = (a * c).gcd(b * c)
        if c.is_zero():
            assert g.is_zero()
            continue
        assert g.leading() == g.ctx.one
        assert ((a * c) % g).is_zero() and ((b * c) % g).is_zero()
        assert (g % c.monic()).is_zero()


def test_squarefree_decomposition_examples():
    f5 = FieldCtx.prime(5)
    x = UniPoly.x(f5)
    f = x**2 * (x + UniPoly(f5, [1])) ** 3
    dec = f.squarefree_decomposition()
    assert [(str(g), e) for g, e in dec] == [("t", 2), ("t+1", 3)]
    # multiplicity divisible by p forces the derivative to vanish
    g = (x + UniPoly(f5, [2])) ** 5
    assert g.derivative().is_zero()
    assert [(str(h), e) for h, e in g.squarefree_decomposition()] == [("t+2", 5)]


def test_squarefree_decomposition_random_reassembly():
    rng = random.Random(11)
    qq = FieldCtx.rationals()
    for ctx in [FieldCtx.prime(2), FieldCtx.prime(3), qq, qq.extend([-2, 0, 1])]:
        for _ in range(10):
            f = UniPoly(ctx, [1])
            for _ in range(rng.randint(1, 3)):
                g = UniPoly(ctx, [ctx.sample(rng) for _ in range(rng.randint(2, 4))])
                if g.degree() < 1:
                    continue
                f = f * g ** rng.randint(1, 3)
            if f.degree() < 1:
                continue
            rebuilt = UniPoly(ctx, [f.leading()])
            for g, e in f.squarefree_decomposition():
                assert g.gcd(g.derivative()).degree() == 0
                rebuilt = rebuilt * g**e
            assert rebuilt == f


def test_factor_over_finite_fields():
    rng = random.Random(13)
    for ctx in [FieldCtx.prime(2), FieldCtx.prime(7), FieldCtx.prime(3).extend([1, 0, 1])]:
        for _ in range(12):
            coeffs = [ctx.sample(rng) for _ in range(rng.randint(2, 7))]
            f = UniPoly(ctx, coeffs)
            if f.degree() < 1:
                continue
            factors = f.factor()
            rebuilt = UniPoly(ctx, [f.leading()])
            for g, e in factors:
                assert g.leading() == g.ctx.one
                assert g.is_irreducible()
                rebuilt = rebuilt * g**e
            assert rebuilt == f
        for _ in range(4):  # linear inputs come back monic, without factoring
            a, b = ctx.sample(rng), ctx.sample(rng)
            lin = UniPoly(ctx, [b, a if not a.is_zero() else ctx.one])
            assert lin.factor() == [(lin.monic(), 1)]
            assert lin.factor()[0][0].leading() == ctx.one


def test_factor_is_deterministic():
    f7 = FieldCtx.prime(7)
    x = UniPoly.x(f7)
    f = (x**2 + UniPoly(f7, [1])) * (x**2 + UniPoly(f7, [2])) * x * (x + UniPoly(f7, [3]))
    assert [str(g) for g, _ in f.factor()] == [str(g) for g, _ in f.factor()]


def test_factor_over_rationals():
    qq = FieldCtx.rationals()
    x = UniPoly.x(qq)
    f = (x**2 - UniPoly(qq, [2])) * (x - UniPoly(qq, [Fraction(1, 2)])) ** 2
    factors = f.factor()
    assert [(str(g), e) for g, e in factors] == [("t-1/2", 2), ("t^2-2", 1)]


def _monic_factor_strings(f: UniPoly) -> list[str]:
    factors = f.factor()
    assert all(e == 1 for _, e in factors)
    return sorted(str(g) for g, _ in factors)


@st.composite
def _eisenstein(draw):
    """An integer polynomial, Eisenstein at 2 or 3 and so irreducible over QQ."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 6))
    lead = p * draw(st.integers(0, 13)) + draw(st.integers(1, p - 1))
    const = p * (p * draw(st.integers(-10, 10)) + draw(st.integers(1, p - 1)))
    middle = [p * draw(st.integers(-30, 30)) for _ in range(n - 1)]
    return [const, *middle, lead]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    st.lists(_eisenstein(), min_size=1, max_size=2),
    st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=9), max_size=3, unique=True
    ),
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 50)).filter(
        lambda c: c and abs(c) != 1
    ),
)
def test_factor_over_rationals_recovers_eisenstein_and_linear_factors(
    eisenstein, roots, content
):
    qq = FieldCtx.rationals()
    parts = [UniPoly(qq, coeffs) for coeffs in eisenstein]
    parts += [UniPoly(qq, [-r, 1]) for r in roots]
    f = UniPoly(qq, [content])
    for g in parts:
        f = f * g
    assume(f.gcd(f.derivative()).degree() == 0)
    assert _monic_factor_strings(f) == sorted(str(g.monic()) for g in parts)


def test_factor_over_rationals_known_answers():
    qq = FieldCtx.rationals()
    # Swinnerton-Dyer polynomials of sqrt2+sqrt3 and sqrt2+sqrt3+sqrt5: each is
    # irreducible over QQ and splits into factors of degree at most 2 modulo
    # every prime, the most recombination work for its degree
    for coeffs in ([1, 0, -10, 0, 1], [576, 0, -960, 0, 352, 0, -40, 0, 1]):
        f = UniPoly(qq, coeffs)
        assert _monic_factor_strings(f) == [str(f)]
    # a large leading coefficient; the lift must clear it and the bound grows by it
    parts = [
        UniPoly(qq, [2, 0, 0, 10**15]),
        UniPoly(qq, [1, -(10**8), 3]),
        UniPoly(qq, [Fraction(1, 7), 1]),
    ]
    f = UniPoly(qq, [Fraction(5, 3)]) * parts[0] * parts[1] * parts[2]
    assert _monic_factor_strings(f) == sorted(str(g.monic()) for g in parts)
    # the degree-24 Trager norm met by `local analyze --char 0 --poly y^3-2*x^3`
    norm = UniPoly(
        qq,
        [
            2286486719741952, 0, 0, -39569783537664, 0, 0, 1402315628608, 0, 0,
            8606822208, 0, 0, 298764528, 0, 0, 1990496, 0, 0, 27708, 0, 0, -12, 0, 0, 1,
        ],
    )
    assert _monic_factor_strings(norm) == [
        "t^6+140*t^3+8788",
        "t^6+6912",
        "t^6-112*t^3+27436",
        "t^6-40*t^3+1372",
    ]


def test_factor_over_rationals_matches_sympy():
    sympy = pytest.importorskip("sympy")
    qq = FieldCtx.rationals()
    t = sympy.Symbol("t")
    rng = random.Random(31)
    for _ in range(15):
        f = UniPoly(qq, [1])
        for _ in range(rng.randint(1, 4)):
            coeffs = [
                Fraction(rng.randint(-20, 20), rng.randint(1, 4))
                for _ in range(rng.randint(1, 5))
            ]
            f = f * UniPoly(qq, [*coeffs, rng.randint(1, 5)])
        if f.degree() < 1 or f.gcd(f.derivative()).degree() > 0:
            continue
        expr = sympy.Poly(
            [sympy.Rational(c.rep.numerator, c.rep.denominator) for c in reversed(f.coeffs)], t
        )
        expected = sorted(
            str(UniPoly(qq, [Fraction(int(c.p), int(c.q)) for c in g.all_coeffs()[::-1]]).monic())
            for g, _ in expr.factor_list()[1]
        )
        assert _monic_factor_strings(f) == expected


def test_factor_trager_over_quadratic_extension():
    qq = FieldCtx.rationals()
    k = qq.extend([-2, 0, 1])
    x = UniPoly.x(k)
    f = x**2 - UniPoly(k, [2])
    factors = f.factor()
    assert len(factors) == 2
    s = k.gen()
    roots = sorted(f.roots(), key=lambda e: e.sort_key())
    assert set(roots) == {s, -s}
    # x^2 - 3 stays irreducible over QQ(sqrt 2)
    g = x**2 - UniPoly(k, [3])
    assert g.is_irreducible()


def test_factor_over_towers(monkeypatch):
    calls = []

    def counted(f):
        calls.append(str(f))
        return trager(f)

    trager = unipoly._factor_trager
    monkeypatch.setattr(unipoly, "_factor_trager", counted)
    qq = FieldCtx.rationals()
    cbrt2 = qq.extend([-2, 0, 0, 1])
    k = qq.extend([-2, 0, 1])
    k2 = k.extend([k.from_int(-3), k.zero, k.one])
    a78 = qq.extend([Fraction(-7, 8), 0, 1])
    a = k.gen()
    # (t^2 - 2)^2 * t^2 * (t - 1): multiplicities carry over from QQ
    sq = [0, 0, -4, 4, 4, -4, -1, 1]
    # expected factors, and whether Trager's norm descent runs
    cases = [
        (cbrt2, [-2, 0, 0, 1], [("t-a", 1), ("t^2+a*t+a^2", 1)], True),
        (k2, [-6, 0, 1], [("t-a*b", 1), ("t+a*b", 1)], True),
        (
            k2,
            [1, 0, -10, 0, 1],
            [("t-b-a", 1), ("t+b-a", 1), ("t-b+a", 1), ("t+b+a", 1)],
            True,
        ),
        (a78, [7, 0, -8], [("t-a", 1), ("t+a", 1)], False),  # the modulus itself
        (k, [-3, 0, 0, 1], [("t^3-3", 1)], False),  # degree prime to [L:K] = 2
        (k, sq, [("t-1", 1), ("t-a", 2), ("t", 2), ("t+a", 2)], False),
        (k, [a, -a - k.one, k.one], [("t-1", 1), ("t-a", 1)], True),  # a coefficient outside QQ
    ]
    for ctx, coeffs, expected, norms in cases:
        calls.clear()
        f = UniPoly(ctx, coeffs)
        factors = f.factor()
        assert [(str(g), e) for g, e in factors] == expected
        assert bool(calls) == norms, calls
        rebuilt = UniPoly(ctx, [1])
        for g, e in factors:
            assert g.leading() == g.ctx.one
            rebuilt = rebuilt * g**e
        assert rebuilt.scale(f.leading()) == f


def test_descent_agrees_with_the_norm_on_every_factor():
    # products of base polynomials: random ones, the modulus of L = K(a) and
    # the modulus shifted, which splits over L but goes through the norm
    qq = FieldCtx.rationals()
    k = qq.extend([-2, 0, 1])
    towers = [k, qq.extend([-2, 0, 0, 1]), k.extend([k.from_int(-3), k.zero, k.one])]
    rng = random.Random(2021)
    for ctx in towers:
        base, pad = ctx.base, (ctx.base.rzero,) * (ctx.deg_step - 1)
        modulus = UniPoly._from_reps(base, list(ctx.modulus))
        for _ in range(8):
            f = UniPoly(base, [1])
            while True:
                roll = rng.random()
                if roll < 0.6:
                    piece = UniPoly(base, [base.sample(rng) for _ in range(rng.randint(1, 2))] + [1])
                elif roll < 0.8:
                    piece = modulus
                else:
                    piece = modulus.compose(UniPoly(base, [base.sample(rng), 1]))
                if f.degree() + piece.degree() > 5:
                    break
                f = f * piece
            lifted = UniPoly._from_reps(ctx, [(r,) + pad for r in f.reps])
            if lifted.degree() < 2:
                continue
            undescended = sorted(
                ((g, e) for part, e in lifted.squarefree_decomposition() for g in _factor_squarefree(part)),
                key=lambda ge: _poly_key(ge[0]),
            )
            assert lifted.factor() == undescended


def test_descended_factors_must_multiply_back(monkeypatch):
    k = FieldCtx.rationals().extend([-2, 0, 1])
    f = UniPoly(k, [2, 0, -1]) * UniPoly(k, [-1, 1])  # (2 - t^2)(t - 1)
    descend = unipoly._descend
    monkeypatch.setattr(unipoly, "_descend", lambda ctx, down: descend(ctx, down)[1:])
    with pytest.raises(InternalCheckError, match="multiply back"):
        f.factor()


def test_roots_deterministic_and_complete():
    f9 = FieldCtx.prime(3).extend([1, 0, 1])
    x = UniPoly.x(f9)
    f = x**9 - x  # splits: every element of F_9 is a root
    roots = f.roots()
    assert len(roots) == 9
    assert roots == sorted(roots, key=lambda e: e.sort_key())


def test_roots_with_multiplicity():
    qq = FieldCtx.rationals()
    x = UniPoly.x(qq)
    f = (x - UniPoly(qq, [1])) ** 3 * (x + UniPoly(qq, [4]))
    assert [(str(r), m) for r, m in f.roots_with_multiplicity()] == [
        ("-4", 1),
        ("1", 3),
    ]
