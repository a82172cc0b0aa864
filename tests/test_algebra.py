"""Multivariate arithmetic, parsing, resultants, gcd, squarefree structure."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itertools import combinations

from curveinv import algebra
from curveinv.algebra import (
    CERTIFY_POINTS,
    MPoly,
    _from_dense,
    _gcd_dense,
    _points,
    _primitive,
    _subresultants,
    _to_dense,
    embed_poly,
    gcd_bivar,
    is_reduced,
    parse_poly,
    resultant,
    squarefree_decomposition,
    squarefree_part,
)
from curveinv.errors import IncompatibleContexts, InternalCheckError, NotReduced, ParseError, WrongVariables
from curveinv.field import (
    LOG_TABLE_MAX_ORDER,
    FieldCtx,
    FieldElement,
    _flat_finite_ctx,
    _loop_gcd,
    _rp_mul,
    _rp_scale,
    embed,
)
from curveinv.invariants import germ
from curveinv.unipoly import UniPoly

QQ = FieldCtx.rationals()
XY = ("x", "y")


def _random_poly(ctx, rng, max_deg=3, nterms=5, vars=("x", "y")):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, max_deg) for _ in vars)
        terms[e] = ctx.sample(rng)
    return MPoly(ctx, vars, terms)


def test_coefficient_coercion_contract():
    # MPoly and UniPoly coerce coefficients through FieldCtx.rcoerce: an
    # element of the context, an int or a Fraction, and nothing else
    f7, vars = FieldCtx.prime(7), ("x", "y")
    for bad in ("3", 1.5):
        with pytest.raises(TypeError):
            MPoly(f7, vars, {(1, 0): bad})
        with pytest.raises(TypeError):
            UniPoly(f7, [1, bad])
    for foreign in (QQ.one, FieldCtx.prime(5).one, _flat_finite_ctx(7, 2).one):
        with pytest.raises(IncompatibleContexts):
            MPoly(f7, vars, {(1, 0): foreign})
        with pytest.raises(IncompatibleContexts):
            UniPoly(f7, [foreign])
    # a FieldElement operator leaves an unknown type to Python
    assert f7.one.__add__("x") is NotImplemented
    with pytest.raises(TypeError):
        f7.one + "x"
    half = FieldElement(QQ, QQ.rfrom_fraction(Fraction(1, 2)))
    assert MPoly(QQ, vars, {(0, 1): Fraction(1, 2), (1, 0): 0}) == MPoly(QQ, vars, {(0, 1): half})
    assert UniPoly(QQ, [Fraction(1, 2), 0]) == UniPoly(QQ, [half])
    # MPoly * scales by those three kinds on either side; + - * leave any
    # other non-polynomial to Python, and a foreign ring stays incompatible
    f = parse_poly("x^2+3*y", f7)
    for c in (f7.from_int(4), 4, Fraction(1, 2)):
        assert f * c == c * f == f.scale(c) == MPoly(f7, vars, {(2, 0): c, (0, 1): 3 * c})
    assert f * 0 == MPoly.zero(f7, vars)
    for other in (2.5, "x", Fraction(1, 2), 2, f7.one):
        for op in (f.__add__, f.__sub__):
            assert op(other) is NotImplemented
        with pytest.raises(TypeError):
            f + other
        with pytest.raises(TypeError):
            f - other
    for other in (2.5, "x", [1]):
        assert f.__mul__(other) is NotImplemented
        with pytest.raises(TypeError):
            f * other
        with pytest.raises(TypeError):
            other * f
    with pytest.raises(IncompatibleContexts):
        f * FieldCtx.prime(5).one
    for foreign in (parse_poly("x", FieldCtx.prime(5)), parse_poly("x", f7, ("x", "z"))):
        for op in (f.__add__, f.__sub__, f.__mul__):
            with pytest.raises(IncompatibleContexts):
                op(foreign)


def test_parse_simple():
    f = parse_poly("x^3+x^4+y^5", FieldCtx.prime(3))
    assert str(f) == "x^3+x^4+y^5"
    assert f.degree() == 5
    assert f.order() == 3


def test_parse_char2_sign_collapse():
    f2 = FieldCtx.prime(2)
    assert parse_poly("x-y", f2) == parse_poly("x+y", f2)


def test_parse_binomial_expansion_char3():
    f3 = FieldCtx.prime(3)
    g = parse_poly("(x+y)^3+(x+y)^4+y^5", f3)
    s = MPoly.variable(f3, ("x", "y"), "x") + MPoly.variable(f3, ("x", "y"), "y")
    expected = s * s * s
    expected = expected + expected * s
    expected = expected + MPoly(f3, ("x", "y"), {(0, 5): f3.one})
    assert g == expected
    # (x+y)^3 collapses to x^3+y^3, leaving seven monomials
    assert len(g.terms) == 7


def test_parse_rational_and_generator_coefficients():
    from fractions import Fraction

    f = parse_poly("2/3*x+y^2", QQ)
    assert f.terms[(1, 0)] == FieldElement(QQ, QQ.rfrom_fraction(Fraction(2, 3)))
    k = QQ.extend([-2, 0, 1])
    g = parse_poly("a*x+1", k)
    assert g.terms[(1, 0)] == k.gen()


def test_parse_uppercase_aliases_and_projective_vars():
    f5 = FieldCtx.prime(5)
    f = parse_poly("X^2+Y*Z", f5, ("x", "y", "z"))
    assert str(f) == "x^2+y*z"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x^3+", FieldCtx.prime(3))
    assert err.value.pos is not None
    with pytest.raises(WrongVariables):
        parse_poly("x+w^2", FieldCtx.prime(3))
    with pytest.raises(ParseError):
        parse_poly("x/(y+1)", QQ)


def test_parse_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_poly("(" * 400 + "x" + ")" * 400, QQ)
    assert parse_poly("(" * 200 + "x" + ")" * 200, QQ) == parse_poly("x", QQ)


def test_parse_str_roundtrip():
    rng = random.Random(5150)
    for ctx in [QQ, FieldCtx.prime(2), FieldCtx.prime(7), FieldCtx.prime(2).extend([1, 1, 1])]:
        for _ in range(12):
            f = _random_poly(ctx, rng)
            assert parse_poly(str(f), ctx) == f


def test_display_order_is_by_total_degree_then_x():
    f = parse_poly("y^3+x^3+x*y+y^2+x^2+1", QQ)
    assert str(f) == "1+x^2+x*y+y^2+x^3+y^3"


def test_substitute_is_ring_hom():
    rng = random.Random(99)
    f7 = FieldCtx.prime(7)
    xy = ("x", "y")
    for _ in range(8):
        f = _random_poly(f7, rng)
        g = _random_poly(f7, rng)
        imgs = [_random_poly(f7, rng, max_deg=2, nterms=3) for _ in xy]
        assert (f + g).substitute(imgs) == f.substitute(imgs) + g.substitute(imgs)
        assert (f * g).substitute(imgs) == f.substitute(imgs) * g.substitute(imgs)


def test_resultant_frozen_examples():
    f = parse_poly("y^2-x^3", QQ)
    assert str(resultant(f, parse_poly("y", QQ), "y")) == "-x^3"
    r = resultant(parse_poly("y-x", QQ), parse_poly("y+x", QQ), "y")
    assert str(r) == "2*x"
    # common factor means a vanishing resultant
    g = parse_poly("(y^2-x^3)*(y+x)", QQ)
    h = parse_poly("(y^2-x^3)*(y+x^2)", QQ)
    assert resultant(g, h, "y").is_zero()


def test_resultant_symmetry_up_to_sign():
    rng = random.Random(321)
    for ctx in [QQ, FieldCtx.prime(5)]:
        for _ in range(6):
            f = _random_poly(ctx, rng, max_deg=2, nterms=4)
            g = _random_poly(ctx, rng, max_deg=2, nterms=4)
            if f.is_zero() or g.is_zero():
                continue
            a = resultant(f, g, "y")
            b = resultant(g, f, "y")
            # Res(g, f) = (-1)^(mn) Res(f, g), m and n the degrees in y
            assert b == (-a if f.degree_in(1) * g.degree_in(1) % 2 else a)


def test_resultant_eliminates_third_variable():
    # parametrized cusp: x = t^2, y = t^3 gives y^2 - x^3 up to sign
    txy = ("t", "x", "y")
    t = MPoly.variable(QQ, txy, "t")
    x = MPoly.variable(QQ, txy, "x")
    y = MPoly.variable(QQ, txy, "y")
    r = resultant(x - t**2, y - t**3, "t")
    assert r == y**2 - x**3 or r == -(y**2) + x**3


# The kinds of coefficient arithmetic a resultant runs on: F_p ints,
# log-table codes, Fractions, tuples over QQ, and tuples of tuples on a tower.
_QQ_A3 = QQ.extend([-2, 0, 0, 1])  # a^3 = 2
RESULTANT_CONTEXTS = {
    "F7": FieldCtx.prime(7),
    "F13^2": _flat_finite_ctx(13, 2),
    "QQ": QQ,
    "QQ(a)": QQ.extend([-2, 0, 1]),
    "QQ(a,b)": _QQ_A3.extend([_QQ_A3.gen() ** 2, _QQ_A3.gen(), _QQ_A3.one]),  # b^2+ab+a^2
}
assert RESULTANT_CONTEXTS["F13^2"]._exp is not None
assert RESULTANT_CONTEXTS["QQ(a,b)"].absdegree == 6
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


def elements(ctx):
    sampled = st.integers(0, 2**32).map(lambda s: ctx.sample(random.Random(s)))
    return st.one_of(st.just(ctx.zero), sampled)


def polys_in_x(ctx, max_deg=3):
    """Polynomials in x alone, over the alphabet (x, y)."""
    coeffs = st.lists(elements(ctx), max_size=max_deg + 1)
    return coeffs.map(lambda cs: MPoly(ctx, ("x", "y"), {(i, 0): c for i, c in enumerate(cs)}))


def polys(ctx, max_deg=2):
    exps = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    terms = st.dictionaries(exps, elements(ctx), max_size=4)
    return terms.map(lambda d: MPoly(ctx, ("x", "y"), d))


def _product(ctx, factors):
    out = MPoly.constant(ctx, ("x", "y"), ctx.one)
    for h in factors:
        out = out * h
    return out


@pytest.mark.parametrize("name", sorted(RESULTANT_CONTEXTS))
def test_resultant_is_the_product_of_root_differences(name):
    ctx = RESULTANT_CONTEXTS[name]
    y = MPoly.variable(ctx, ("x", "y"), "y")
    roots = st.lists(polys_in_x(ctx), min_size=1, max_size=3)

    @PROPERTY
    @given(roots, roots)
    def check(a, b):
        f = _product(ctx, [y - ai for ai in a])
        g = _product(ctx, [y - bj for bj in b])
        assert resultant(f, g, "y") == _product(ctx, [ai - bj for ai in a for bj in b])

    check()


@pytest.mark.parametrize("name", sorted(RESULTANT_CONTEXTS))
def test_resultant_through_a_zero_pivot(name):
    # f = y^m + a_{m-2} y^{m-2} + ... + a_0 has no y^(m-1) term, so the
    # pseudo-remainder of f by c*y meets a vanishing top term on its second
    # step and must scale by c there too, m times in all, to reach
    # c^m f(x, 0); Res_y(f, c*y) = (-c)^m f(x, 0).
    ctx = RESULTANT_CONTEXTS[name]
    y = MPoly.variable(ctx, ("x", "y"), "y")

    @PROPERTY
    @given(st.integers(2, 4), st.lists(polys_in_x(ctx), min_size=3, max_size=3), st.data())
    def check(m, low, data):
        c = data.draw(polys_in_x(ctx).filter(lambda h: not h.is_zero()))
        f = y**m
        for k, ak in enumerate(low[: m - 1]):
            f = f + ak * y**k
        expected = (-c) ** m * f.subs_const(1, ctx.zero)
        assert resultant(f, c * y, "y") == expected

    check()


@pytest.mark.parametrize("name", sorted(RESULTANT_CONTEXTS))
def test_resultant_of_a_non_normal_sequence(name):
    # f = q*g + r with deg_y r <= deg_y g - 2, so the remainder sequence of g
    # and f drops by two degrees or more; for monic g = prod (y - b_j),
    # Res_y(g, f) = prod f(x, b_j) = prod r(x, b_j).
    ctx = RESULTANT_CONTEXTS[name]
    x, y = (MPoly.variable(ctx, ("x", "y"), v) for v in ("x", "y"))

    @PROPERTY
    @given(st.lists(polys_in_x(ctx), min_size=2, max_size=4), polys(ctx), st.data())
    def check(b, q, data):
        g = _product(ctx, [y - bj for bj in b])
        low = data.draw(st.lists(polys_in_x(ctx), min_size=len(b) - 1, max_size=len(b) - 1))
        r = MPoly.zero(ctx, ("x", "y"))
        for k, rk in enumerate(low):
            r = r + rk * y**k
        expected = _product(ctx, [r.substitute([x, bj]) for bj in b])
        assert resultant(g, q * g + r, "y") == expected

    check()


def _sylvester_det_mod(f: list[int], g: list[int], p: int) -> int:
    """det of the Sylvester matrix of f and g (coefficients lowest first, f's
    rows first) by Gaussian elimination mod p."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)]
    det = 1
    for k in range(m + n):
        pivot = next((i for i in range(k, m + n) if rows[i][k] % p), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det = det * rows[k][k] % p
        inv = pow(rows[k][k], -1, p)
        for row in rows[k + 1 :]:
            c = row[k] * inv % p
            for j in range(k, m + n):
                row[j] = (row[j] - c * rows[k][j]) % p
    return det % p


def test_resultant_specializes_to_the_sylvester_determinant_over_f7():
    # at each x = c where both leading coefficients in y survive, Res_y(f, g)
    # evaluated at c is the Sylvester determinant of f(c, y) and g(c, y)
    f7 = RESULTANT_CONTEXTS["F7"]

    def at(h, c):
        u = h.subs_const(0, f7.from_int(c))
        return [u.terms.get((0, k), f7.zero).rep for k in range(u.degree_in(1) + 1)]

    @PROPERTY
    @given(polys(f7, max_deg=3).filter(lambda h: not h.is_zero()),
           polys(f7, max_deg=3).filter(lambda h: not h.is_zero()))
    def check(f, g):
        res = resultant(f, g, "y")
        for c in range(7):
            fc, gc = at(f, c), at(g, c)
            if len(fc) - 1 == f.degree_in(1) and len(gc) - 1 == g.degree_in(1):
                value = res.subs_const(0, f7.from_int(c)).constant_term().rep
                assert value == _sylvester_det_mod(fc, gc, 7)

    check()


@pytest.mark.parametrize("name", sorted(RESULTANT_CONTEXTS))
def test_resultant_packing_reaches_its_degree_bound(name):
    # Res_t(x - t^m, y - P(t)) has degree deg P = B_x - 1 in x and m = B_y - 1
    # in y, the largest the packing admits, and vanishes on (t^m, P(t)).
    ctx = RESULTANT_CONTEXTS[name]
    txy = ("t", "x", "y")
    t, x, y = (MPoly.variable(ctx, txy, v) for v in txy)

    @PROPERTY
    @given(st.integers(1, 3), st.lists(elements(ctx), min_size=1, max_size=4), elements(ctx))
    def check(m, low, top):
        if top.is_zero():
            top = ctx.one
        d = len(low)
        p = MPoly(ctx, txy, {(k, 0, 0): c for k, c in enumerate(low + [top])})
        r = resultant(x - t**m, y - p, "t")
        assert r.degree_in(0) == 0 and r.degree_in(1) == d and r.degree_in(2) == m
        assert r.substitute([t, t**m, p]).is_zero()

    check()


def test_divexact_roundtrip():
    rng = random.Random(17)
    for ctx in [QQ, FieldCtx.prime(3)]:
        for _ in range(10):
            f = _random_poly(ctx, rng, max_deg=2, nterms=4)
            g = _random_poly(ctx, rng, max_deg=2, nterms=3)
            if f.is_zero() or g.is_zero():
                continue
            assert (f * g).divexact(g) == f


def test_divexact_three_variables_and_late_inexact_remainders():
    # f*g + 1 is never a multiple of a non-constant g, yet its leading terms
    # are those of f*g, so the division only fails after several quotient terms
    rng = random.Random(29)
    xyz = ("x", "y", "z")
    for ctx in [QQ, FieldCtx.prime(5)]:
        for _ in range(8):
            f = _random_poly(ctx, rng, max_deg=3, nterms=6, vars=xyz)
            g = _random_poly(ctx, rng, max_deg=2, nterms=4, vars=xyz)
            if f.is_zero() or g.degree() < 1:
                continue
            assert (f * g).divexact(g) == f
            with pytest.raises(InternalCheckError, match="not exact"):
                (f * g + MPoly.constant(ctx, xyz, 1)).divexact(g)


# Beyond the resultant's four: a flattened F_q too large for log tables, whose
# reps are tuples over F_p, in characteristic 3 so p-th powers occur.
F3_8 = _flat_finite_ctx(3, 8)
assert F3_8._exp is None and F3_8.order > LOG_TABLE_MAX_ORDER
GCD_CONTEXTS = [RESULTANT_CONTEXTS["F13^2"], F3_8, RESULTANT_CONTEXTS["QQ(a)"]]


def test_gcd_bivar_extracts_common_factor():
    rng = random.Random(23)
    for ctx in [QQ, FieldCtx.prime(2), FieldCtx.prime(7), *GCD_CONTEXTS]:
        for _ in range(8):
            c = _random_poly(ctx, rng, max_deg=2, nterms=3)
            f = _random_poly(ctx, rng, max_deg=2, nterms=3)
            g = _random_poly(ctx, rng, max_deg=2, nterms=3)
            if c.degree() < 1 or f.is_zero() or g.is_zero():
                continue
            d = gcd_bivar(f * c, g * c)
            # the gcd divides both products, and c divides the gcd
            (f * c).divexact(d)
            (g * c).divexact(d)
            assert gcd_bivar(d, c).degree() == c.degree()


def test_squarefree_part_examples():
    part, reduced = squarefree_part(parse_poly("x^2*y", QQ))
    assert str(part) == "x*y" and reduced is False

    f5 = FieldCtx.prime(5)
    part, reduced = squarefree_part(parse_poly("(y^2+x^3)^2", f5))
    assert part == parse_poly("y^2+x^3", f5) and reduced is False

    f2 = FieldCtx.prime(2)
    part, reduced = squarefree_part(parse_poly("y^2+x^3", f2))
    assert part == parse_poly("y^2+x^3", f2) and reduced is True


def test_squarefree_decomposition_wild_multiplicity():
    f3 = FieldCtx.prime(3)
    f = parse_poly("(y^2-x^3)^3*(y-x)", f3)
    dec = squarefree_decomposition(f)
    # factors are normalized so the graded-lex leading coefficient is 1
    assert [(str(g), e) for g, e in dec] == [("x+2*y", 1), ("2*y^2+x^3", 3)]


def test_squarefree_decomposition_reassembles():
    rng = random.Random(29)
    for ctx in [QQ, FieldCtx.prime(2), FieldCtx.prime(3), *GCD_CONTEXTS]:
        for _ in range(8):
            f = MPoly.constant(ctx, ("x", "y"), ctx.one)
            for _ in range(rng.randint(1, 2)):
                g = _random_poly(ctx, rng, max_deg=2, nterms=3)
                if g.degree() < 1:
                    continue
                f = f * g ** rng.randint(1, 3)
            if f.degree() < 1:
                continue
            rebuilt = MPoly.constant(ctx, ("x", "y"), ctx.one)
            for g, e in squarefree_decomposition(f):
                rebuilt = rebuilt * g**e
            q = f.divexact(rebuilt)
            assert q.degree() == 0


@pytest.mark.parametrize("name", sorted(RESULTANT_CONTEXTS))
def test_gcd_bivar_of_a_common_factor_times_coprime_polynomials(name):
    # y - a(x) and y - b(x) are coprime when a != b, so the gcd of c*f and
    # c*g is exactly c, normalized
    ctx = RESULTANT_CONTEXTS[name]
    y = MPoly.variable(ctx, ("x", "y"), "y")
    roots = st.lists(polys_in_x(ctx), min_size=2, max_size=4, unique_by=str)

    @PROPERTY
    @given(roots, st.integers(1, 3), polys(ctx).filter(lambda h: not h.is_zero()))
    def check(a, k, c):
        k = min(k, len(a) - 1)
        f = _product(ctx, [y - ai for ai in a[:k]])
        g = _product(ctx, [y - ai for ai in a[k:]])
        assert gcd_bivar(c * f, c * g) == c.normalized()

    check()


@pytest.mark.parametrize("p", [2, 3])
def test_squarefree_decomposition_of_known_factors(p):
    # g1 * g2^2 * g3^p for pairwise coprime squarefree g_i; in characteristic
    # 2 the factors of equal multiplicity g2 and g3 come back as one
    ctx = FieldCtx.prime(p)
    x, y = (MPoly.variable(ctx, ("x", "y"), v) for v in ("x", "y"))
    roots = st.lists(polys_in_x(ctx), min_size=3, max_size=5, unique_by=str)

    @PROPERTY
    @given(roots, st.integers(1, 3), st.booleans())
    def check(a, k, with_x):
        g1, g2, g3 = (_product(ctx, [y - ai for ai in part]) for part in (a[:1], a[1:k], a[k:]))
        if with_x:
            g2 = g2 * x
        by_mult: dict[int, MPoly] = {}
        for g, e in ((g1, 1), (g2, 2), (g3, p)):
            if g.degree() > 0:
                by_mult[e] = by_mult.get(e, MPoly.constant(ctx, ("x", "y"), 1)) * g
        expected = sorted(
            ((g.normalized(), e) for e, g in by_mult.items()),
            key=lambda ge: (ge[0].degree(), ge[0].sort_key()),
        )
        assert squarefree_decomposition(g1 * g2**2 * g3**p) == expected

    check()


def test_gcd_and_squarefree_decomposition_need_two_variables():
    # the dense form has room for two variables; a third must not be dropped
    f = parse_poly("x*y*z+y^2", QQ, ("x", "y", "z"))
    with pytest.raises(InternalCheckError, match="bivariate"):
        gcd_bivar(f, f)
    with pytest.raises(InternalCheckError, match="bivariate"):
        squarefree_decomposition(f)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: f.substitute([f]),
        lambda f: f.to_unipoly(0),
        lambda f: f.pth_root(),
    ],
    ids=["image_count", "other_variables", "pth_root_char_zero"],
)
def test_misuse_of_mpoly_is_an_internal_error(call):
    # none of these is reachable from parsed input, so none is bad input
    with pytest.raises(InternalCheckError):
        call(parse_poly("x*y+x^2", QQ))


def test_homogeneity_and_axis_restrictions():
    f = parse_poly("x^2*z+y^3+x*y*z", QQ, ("x", "y", "z"))
    assert f.is_homogeneous()
    g = parse_poly("y^2-x^3", QQ)
    gx = g.subs_const(1, QQ.zero)
    assert str(gx.to_unipoly(0)) == "-t^3"


def test_pth_root_of_a_non_pth_power_is_an_internal_error():
    # Squarefree decomposition takes p-th roots only after both partials
    # vanish, so a non-p-th power here is a defect, not bad input.
    f3 = FieldCtx.prime(3)
    f = parse_poly("x^3+y^3+x*y", f3)
    with pytest.raises(InternalCheckError, match="not a p-th power"):
        f.pth_root()
    with pytest.raises(InternalCheckError, match="not a p-th power"):
        UniPoly(f3, [0, 1, 0, 1]).pth_root()
    assert str(parse_poly("x^3+2*y^6", f3).pth_root()) == "x+2*y^2"
    assert UniPoly(f3, [1, 0, 0, 2]).pth_root() == UniPoly(f3, [1, 2])


def test_raw_product_and_exact_division_over_a_table_field():
    f9 = FieldCtx.prime(3).extend([1, 0, 1])
    rng = random.Random(5)
    for _ in range(10):
        f, g = _random_poly(f9, rng), _random_poly(f9, rng)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).divexact(g) == f
        assert all(not c.is_zero() and c.ctx is f9 for c in (f * g).terms.values())
    with pytest.raises(InternalCheckError, match="not exact"):
        parse_poly("x^2+y", f9).divexact(parse_poly("x", f9))


# -- reducedness and the one-point coprimality certificate -------------------


def _reducedness_cases():
    f2 = FieldCtx.prime(2)
    monomials = [(i, d - i) for d in range(1, 4) for i in range(d + 1)]
    for k in range(1, len(monomials) + 1):
        for chosen in combinations(monomials, k):
            yield MPoly(f2, ("x", "y"), {e: 1 for e in chosen})
    rng = random.Random(31)
    f4 = f2.extend([1, 1, 1])
    samples = [FieldCtx.prime(3), FieldCtx.prime(5), f4, QQ, QQ.extend([-2, 0, 1])]
    for ctx in samples:
        for _ in range(30):
            yield _random_poly(ctx, rng, max_deg=3, nterms=4)
        for _ in range(5):  # planted squares h^2 * g
            h = _random_poly(ctx, rng, max_deg=2, nterms=2)
            yield h * h * _random_poly(ctx, rng, max_deg=2, nterms=3)
    for p, ctx in [(2, f2), (3, FieldCtx.prime(3)), (2, f4)]:
        yield parse_poly(f"x^{p}+y^{p}", ctx)  # a p-th power
        yield parse_poly(f"(x+y)^{p}*(y-x^2)", ctx)
        yield parse_poly(f"y^{p}+x^{p + 1}", ctx)
    for ctx in [f2, FieldCtx.prime(3), QQ]:
        yield parse_poly("y^2+x^4", ctx)  # f_x = 0 over F_2
        yield parse_poly("y^2+x^4+x^5", ctx)
        yield parse_poly("x^2*(y+x)", ctx)  # a repeated factor in x alone
        yield parse_poly("x*(y+x)", ctx)
        yield parse_poly("x^3", ctx)
        yield parse_poly("y^2", ctx)
        yield parse_poly("1+x", ctx)


def test_is_reduced_agrees_with_the_squarefree_decomposition():
    # before is_reduced, Germ read this same boolean off the decomposition
    seen = {True: 0, False: 0}
    for f in _reducedness_cases():
        if f.is_zero():
            continue
        expected = all(e == 1 for _, e in squarefree_decomposition(f))
        assert is_reduced(f) is expected, str(f)
        seen[expected] += 1
        try:
            germ(f)
        except NotReduced:
            assert not expected, str(f)
        else:
            assert expected, str(f)
    assert min(seen.values()) > 50


def test_is_reduced_of_constants():
    for ctx in [FieldCtx.prime(2), QQ]:
        assert is_reduced(MPoly.zero(ctx, ("x", "y")))
        assert is_reduced(MPoly.constant(ctx, ("x", "y"), 3))


def _gcd_by_the_sequence(ctx, a, b):
    """The gcd from the remainder sequence alone, normalized as _gcd_dense
    normalizes it."""
    if not a or not b:
        return a or b
    ca, a = _primitive(ctx, a)
    cb, b = _primitive(ctx, b)
    a, b, _, _ = _subresultants(ctx, a, b)
    a = [[ctx.rone]] if b else _primitive(ctx, a)[1]
    scale = _rp_scale(ctx, ctx.rinv(a[-1][-1]), _loop_gcd(ctx, ca, cb))
    return [_rp_mul(ctx, c, scale) for c in a]


CERTIFICATE_CONTEXTS = {
    "F2": FieldCtx.prime(2),
    "F3": FieldCtx.prime(3),
    "F7": FieldCtx.prime(7),
    "F2^2": FieldCtx.prime(2).extend([1, 1, 1]),
    "F3^8": F3_8,
    **RESULTANT_CONTEXTS,
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_CONTEXTS))
def test_the_certificate_agrees_with_the_remainder_sequence(name):
    ctx = CERTIFICATE_CONTEXTS[name]
    rng = random.Random(name)
    for i in range(24):
        f = _random_poly(ctx, rng, max_deg=2, nterms=4)
        g = _random_poly(ctx, rng, max_deg=2, nterms=4)
        if i % 3 == 0:  # a planted common factor
            c = _random_poly(ctx, rng, max_deg=2, nterms=3)
            f, g = f * c, g * c
        if i % 4 == 1:  # a common content in x
            c = MPoly(ctx, ("x", "y"), {(rng.randint(0, 2), 0): ctx.sample(rng) for _ in range(2)})
            f, g = f * c, g * c
        a, b = _to_dense(f), _to_dense(g)
        assert _gcd_dense(ctx, a, b) == _gcd_by_the_sequence(ctx, a, b), (str(f), str(g))


def _sequence_calls(monkeypatch) -> list:
    calls = []

    def counted(ctx, a, b):
        calls.append((a, b))
        return _subresultants(ctx, a, b)

    monkeypatch.setattr(algebra, "_subresultants", counted)
    return calls


def test_unlucky_points_fall_back_to_the_sequence(monkeypatch):
    # y and y + x^2 + x are coprime, but x^2 + x vanishes at both points of F_2
    f2 = FieldCtx.prime(2)
    calls = _sequence_calls(monkeypatch)
    assert gcd_bivar(parse_poly("y", f2), parse_poly("y+x^2+x", f2)) == parse_poly("1", f2)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["F3", "F7", "QQ", "QQ(a)"])
def test_a_leading_coefficient_vanishing_at_every_point_falls_back(name, monkeypatch):
    ctx = CERTIFICATE_CONTEXTS[name]
    x, y = (MPoly.variable(ctx, ("x", "y"), v) for v in ("x", "y"))
    lead = _product(ctx, [x - MPoly.constant(ctx, ("x", "y"), FieldElement(ctx, x0)) for x0 in _points(ctx)])
    # primitive and coprime: g's root y = -1/lead leaves f = 1
    one = MPoly.constant(ctx, ("x", "y"), 1)
    f, g = lead * y**2 + y + one, lead * y + one
    calls = _sequence_calls(monkeypatch)
    a, b = _to_dense(f), _to_dense(g)
    assert _gcd_dense(ctx, a, b) == _gcd_by_the_sequence(ctx, a, b) == [[ctx.rone]]
    assert len(calls) == 1


def test_rational_gcds_run_on_integer_polynomials(monkeypatch):
    # planted common factors, coefficients with denominators near 10^12, and
    # pairs whose leading coefficient vanishes at every certificate point
    x, y = (MPoly.variable(QQ, ("x", "y"), v) for v in ("x", "y"))
    one = MPoly.constant(QQ, ("x", "y"), 1)
    lead = _product(QQ, [x - MPoly.constant(QQ, ("x", "y"), k) for k in range(1, CERTIFY_POINTS + 1)])
    tiny = FieldElement(QQ, QQ.rfrom_fraction(Fraction(-7, 10**12 + 39)))
    rings = []

    def spy(ring, a, b):
        rings.append(ring)
        assert all(type(c) is int for row in a + b for c in row)
        return _subresultants(ring, a, b)

    monkeypatch.setattr(algebra, "_subresultants", spy)
    rng = random.Random("QQ on Z")
    undecided = 0
    for i in range(16):
        c = _random_poly(QQ, rng, max_deg=2, nterms=3) + y
        if i % 2:
            f, g = lead * y**2 + y + one, lead * y + one  # coprime, but no point decides
        else:
            f, g = _random_poly(QQ, rng, max_deg=2, nterms=4), _random_poly(QQ, rng, max_deg=2, nterms=4)
        f, g = (f * c).scale(tiny), g * c
        a, b = _to_dense(f), _to_dense(g)
        before = len(rings)
        d = _gcd_dense(QQ, a, b)
        assert d == _gcd_by_the_sequence(QQ, a, b), (str(f), str(g))
        assert _from_dense(f, d).degree_in(1) >= 1
        undecided += i % 2 and len(rings) > before
    assert set(rings) == {QQ.shadow}
    assert undecided == 8


# -- the rep-backed MPoly against a term-by-term FieldElement reference ------

REFERENCE_CONTEXTS = {
    "F7": FieldCtx.prime(7),
    "F7^2": _flat_finite_ctx(7, 2),  # log-table codes
    "F2^13": _flat_finite_ctx(2, 13),  # tuples over F_2
    "QQ": QQ,
    "QQ(sqrt2)": QQ.extend([-2, 0, 1]),
}
assert REFERENCE_CONTEXTS["F7^2"]._exp is not None and REFERENCE_CONTEXTS["F2^13"]._exp is None


def _ref(ctx, pairs) -> dict:
    """Sum FieldElement (exponent, coefficient) pairs into a dict without zeros."""
    out: dict = {}
    for e, c in pairs:
        out[e] = out.get(e, ctx.zero) + c
    return {e: c for e, c in out.items() if not c.is_zero()}


def _ref_mul(ctx, a: dict, b: dict) -> dict:
    return _ref(ctx, [(tuple(i + j for i, j in zip(e1, e2)), c1 * c2)
                      for e1, c1 in a.items() for e2, c2 in b.items()])


def _ref_pow(ctx, a: dict, n: int, nvars: int) -> dict:
    out = {(0,) * nvars: ctx.one}
    for _ in range(n):
        out = _ref_mul(ctx, out, a)
    return out


def _ref_substitute(ctx, f: dict, images: list) -> dict:
    pairs = []
    for e, c in f.items():
        term = {(0,) * len(e): c}
        for img, k in zip(images, e):
            term = _ref_mul(ctx, term, _ref_pow(ctx, img, k, len(e)))
        pairs.extend(term.items())
    return _ref(ctx, pairs)


def _lowered(e, i, k=1):
    return e[:i] + (e[i] - k,) + e[i + 1:]


@pytest.mark.parametrize("name", sorted(REFERENCE_CONTEXTS))
def test_rep_backed_mpoly_matches_a_termwise_reference(name):
    ctx = REFERENCE_CONTEXTS[name]
    rng = random.Random(f"mpoly reference {name}")
    for vars in (("x", "y"), ("x", "y", "z")):
        n = len(vars)
        for _ in range(6):
            f, g = _random_poly(ctx, rng, 3, 5, vars), _random_poly(ctx, rng, 2, 4, vars)
            F, G = f.terms, g.terms
            c, v = ctx.sample(rng), ctx.sample(rng)
            point = [ctx.sample(rng) for _ in vars]
            i = rng.randrange(n)
            assert (f + g).terms == _ref(ctx, [*F.items(), *G.items()])
            assert (f - g).terms == _ref(ctx, [*F.items(), *((e, -a) for e, a in G.items())])
            assert (-f).terms == _ref(ctx, ((e, -a) for e, a in F.items()))
            assert (f * g).terms == _ref_mul(ctx, F, G)
            assert f.scale(c).terms == (f * c).terms == _ref(ctx, ((e, c * a) for e, a in F.items()))
            assert (g**3).terms == _ref_pow(ctx, G, 3, n)
            partial = ((_lowered(e, i), a * e[i]) for e, a in F.items() if e[i])
            assert f.partial(i).terms == _ref(ctx, partial)
            at_v = ((_lowered(e, i, e[i]), a * v ** e[i]) for e, a in F.items())
            assert f.subs_const(i, v).terms == _ref(ctx, at_v)
            images = [_random_poly(ctx, rng, 1, 3, vars) for _ in vars]
            assert f.substitute(images).terms == _ref_substitute(ctx, F, [h.terms for h in images])
            value = ctx.zero
            for e, a in F.items():
                for p, k in zip(point, e):
                    a = a * p**k
                value = value + a
            assert f.eval(point) == value
            if F:
                lead = max(F, key=lambda e: (sum(e), e))
                assert f.normalized().terms == _ref(ctx, ((e, a / F[lead]) for e, a in F.items()))
            if G:
                assert (f * g).divexact(g) == f
                assert MPoly(ctx, vars, _ref_mul(ctx, F, G)).divexact(g).terms == F
            for k, part in enumerate(f.coeff_list(i)):
                assert part.terms == {_lowered(e, i, k): a for e, a in F.items() if e[i] == k}
            u = f
            for j in range(n):
                u = u if j == i else u.subs_const(j, v)
            U, powers = u.terms, (_lowered((0,) * n, i, -k) for k in range(u.degree_in(i) + 1))
            assert u.to_unipoly(i).coeffs == tuple(U.get(e, ctx.zero) for e in powers)
    if ctx.char:
        p, f = ctx.char, _random_poly(ctx, rng, 2, 4)
        powered = MPoly(ctx, f.vars, {tuple(p * k for k in e): a**p for e, a in f.terms.items()})
        assert powered == f**p
        assert powered.pth_root() == f


def test_embed_poly_matches_a_termwise_reference():
    rng = random.Random("embed reference")
    towers = [(FieldCtx.prime(7), _flat_finite_ctx(7, 2)), (QQ, REFERENCE_CONTEXTS["QQ(sqrt2)"]),
              (FieldCtx.prime(2), _flat_finite_ctx(2, 13)),
              (_flat_finite_ctx(2, 2), _flat_finite_ctx(2, 4))]
    for small, big in towers:
        f = _random_poly(small, rng)
        assert embed_poly(f, big).terms == {e: embed(a, big) for e, a in f.terms.items()}
        assert embed_poly(f, big).ctx is big


@pytest.mark.parametrize("name", sorted(REFERENCE_CONTEXTS))
def test_terms_is_a_fresh_view_and_equal_polynomials_hash_equal(name):
    ctx = REFERENCE_CONTEXTS[name]
    f = parse_poly("2*x^2*y+y/3-5", ctx)
    before = dict(f.terms)
    view = f.terms
    view.clear()
    view[(9, 9)] = ctx.one
    assert f.terms == before and f.terms is not f.terms
    third = Fraction(1, 3)
    built = [
        f,
        MPoly(ctx, XY, {(2, 1): 2, (0, 1): third, (0, 0): -5, (1, 1): 0}),
        MPoly(ctx, XY, {(2, 1): Fraction(2), (0, 1): third, (0, 0): Fraction(-5)}),
        MPoly(ctx, XY, {(2, 1): ctx.from_int(2), (0, 1): FieldElement(ctx, ctx.rfrom_fraction(third)),
                        (0, 0): ctx.from_int(-5)}),
        MPoly._from_reps(ctx, XY, {(2, 1): ctx.rfrom_int(2), (0, 1): ctx.rfrom_fraction(third),
                                   (0, 0): ctx.rfrom_int(-5), (3, 0): ctx.rzero}),
    ]
    for g in built:
        assert g == f and hash(g) == hash(f) and g.terms == before
    assert len(set(built)) == 1


def test_the_package_reads_reps_not_the_terms_view():
    # MPoly.terms wraps every coefficient in a FieldElement on each read; the
    # package itself works on reps, and only tests and tools read the view
    import ast
    from pathlib import Path

    import curveinv

    reads = []
    for path in sorted(Path(curveinv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "terms":
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []
    assert isinstance(vars(MPoly)["terms"], property) and vars(MPoly)["terms"].fset is None
    assert MPoly.__slots__ == ("ctx", "vars", "reps")
