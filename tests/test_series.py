"""Truncated series: kernels, pullbacks, Newton-lifted parametrizations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveinv.algebra import MPoly, parse_poly
from curveinv.errors import InternalCheckError
from curveinv.field import FP_PACK_MIN_LEN, FieldCtx, FieldElement, _flat_finite_ctx
from curveinv.hne import branch_decompose
from curveinv.series import Param, _order, _tr_axpy, _tr_eval, _tr_inv, series_order

QQ = FieldCtx.rationals()
XY = ("x", "y")


def rep_terms(g: MPoly) -> list:
    """The ((i, j), rep) pairs of g, as the pullback kernel takes them."""
    return [(e, c.rep) for e, c in g.terms.items()]


def cusp_param(ctx: FieldCtx) -> Param:
    """(t^2, t^3): the leaf x = y^2 solved for x, then the chart x = x, y = x*y."""
    p = Param(parse_poly("x-y^2", ctx), solve_for="x")
    p.push("x", None)
    return p


def test_cusp_parametrization_pulls_back_to_zero():
    f = parse_poly("y^2-x^3", QQ)
    p = cusp_param(QQ)
    assert p.at(5) == ([0, 0, 1, 0, 0], [0, 0, 0, 1, 0])
    assert series_order(f, p, 30) is None


def test_composition_example_with_nonzero_result():
    f2 = parse_poly("y^2+x^3", QQ)
    p = cusp_param(QQ)
    # t^6 + t^6 = 2 t^6
    assert series_order(f2, p, 30) == 6
    xs, ys = p.at(7)
    assert _tr_eval(QQ, rep_terms(f2), xs, ys, 7)[6] == 2


def test_substitution_is_ring_hom_on_random_pairs():
    rng = random.Random(1234)
    n = 30
    for ctx in [QQ, FieldCtx.prime(5)]:
        for _ in range(25):
            f = MPoly(
                ctx, XY, {(rng.randint(0, 3), rng.randint(0, 3)): ctx.sample(rng) for _ in range(4)}
            )
            g = MPoly(
                ctx, XY, {(rng.randint(0, 3), rng.randint(0, 3)): ctx.sample(rng) for _ in range(4)}
            )
            sx = [ctx.sample(rng).rep for _ in range(4)]
            sy = [ctx.sample(rng).rep for _ in range(4)]
            lhs = _tr_eval(ctx, rep_terms(f * g), sx, sy, n)
            rhs = ctx.rconv(_tr_eval(ctx, rep_terms(f), sx, sy, n), _tr_eval(ctx, rep_terms(g), sx, sy, n), n)
            assert lhs == rhs
            lhs2 = _tr_eval(ctx, rep_terms(f + g), sx, sy, n)
            pf, pg = _tr_eval(ctx, rep_terms(f), sx, sy, n), _tr_eval(ctx, rep_terms(g), sx, sy, n)
            assert lhs2 == [ctx.radd(a, b) for a, b in zip(pf, pg)]


def test_coefficients_are_stable_under_further_pulls():
    p = Param(parse_poly("y-x^2-x*y+y^3", QQ))
    early = p.at(5)
    p.at(40)
    assert p.at(5) == early


def test_implicit_series_solves_smooth_branch():
    # y = x^2 + higher terms on y - x^2 - x*y = 0
    f = parse_poly("y-x^2-x*y", QQ)
    p = Param(f)
    assert series_order(f, p, 40) is None
    xs, ys = p.at(3)
    assert xs == [0, 1, 0]
    assert ys[0] == 0 and ys[2] == 1


def test_implicit_series_char_p():
    f2 = FieldCtx.prime(2)
    f = parse_poly("y+x^3+y^2", f2)
    assert series_order(f, Param(f), 40) is None


def test_implicit_series_solve_for_x():
    p = Param(parse_poly("x-y^2", QQ), solve_for="x")
    xs, ys = p.at(3)
    assert xs[2] == 1 and xs[1] == 0
    assert ys == [0, 1, 0]


def test_implicit_series_rejects_bad_input():
    with pytest.raises(InternalCheckError):
        Param(parse_poly("y^2-x^3", QQ))  # derivative not a unit
    with pytest.raises(InternalCheckError):
        Param(parse_poly("y+1", QQ))  # misses the origin
    with pytest.raises(InternalCheckError):
        Param(parse_poly("y-x^2", QQ), solve_for="z")
    with pytest.raises(InternalCheckError):
        series_order(parse_poly("x+y+z", QQ, ("x", "y", "z")), Param(parse_poly("y", QQ)), 4)


def test_series_order_bound_semantics():
    p = Param(parse_poly("y-x^10", QQ))  # (t, t^10)
    y = MPoly.variable(QQ, XY, "y")
    assert series_order(y, p, 9) is None
    assert series_order(y, p, 10) == 10


# ---------------------------------------------------------------------------
# Raw-rep kernels against a FieldElement reference, in every context kind


def _contexts() -> dict[str, FieldCtx]:
    f2, f7 = FieldCtx.prime(2), FieldCtx.prime(7)
    f4 = f2.extend([1, 1, 1])
    f2_17 = _flat_finite_ctx(2, 17)  # above the log-table cap
    return {
        "F2": f2,
        "F7": f7,
        "F7^3": branch_decompose(parse_poly("5*x^3+6*y^3+y^5", f7)).ctx,
        # towers: tuples over log-table F_4, and over F_{2^17}, itself tuples over F_2
        "F4(b)": f4.extend([f4.gen(), f4.one, f4.one]),  # b^2+b+a
        "F2^17(b)": f2_17.extend([f2_17.gen() + 1, f2_17.one, f2_17.one]),  # b^2+b+a+1
        "QQ": QQ,
        "QQ(a)": branch_decompose(parse_poly("y^2-2*x^2", QQ)).ctx,
        "QQ(a,b)": branch_decompose(parse_poly("y^3-2*x^3", QQ)).ctx,  # a^3 = 2, b^2+ab+a^2
    }


CONTEXTS = _contexts()
assert CONTEXTS["F7^3"].order == 7**3 and CONTEXTS["QQ(a)"].absdegree == 2
assert CONTEXTS["F4(b)"].base._exp is not None and CONTEXTS["F2^17(b)"].base._exp is None
assert CONTEXTS["QQ(a,b)"].absdegree == 6 and CONTEXTS["QQ(a,b)"].base.kind == "extension"
TUPLE_CONTEXTS = ["F4(b)", "F2^17(b)", "QQ(a)", "QQ(a,b)"]

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


def elements(ctx: FieldCtx):
    sampled = st.integers(0, 2**32).map(lambda s: ctx.sample(random.Random(s)))
    return st.one_of(st.just(ctx.zero), sampled)


def series(ctx: FieldCtx, max_size: int = 12):
    return st.lists(elements(ctx), max_size=max_size)


def naive_mul(ctx: FieldCtx, a: list, b: list, n: int) -> list:
    out = []
    for k in range(n):
        acc = ctx.zero
        for i in range(k + 1):
            if i < len(a) and k - i < len(b):
                acc = acc + a[i] * b[k - i]
        out.append(acc)
    return out


def naive_inv(ctx: FieldCtx, b: list, n: int) -> list:
    # out solves b*out = 1 coefficient by coefficient
    out = []
    for k in range(n):
        acc = ctx.one if k == 0 else ctx.zero
        for i in range(1, k + 1):
            if i < len(b):
                acc = acc - b[i] * out[k - i]
        out.append(acc / b[0])
    return out


def naive_pullback(ctx: FieldCtx, g: MPoly, xs: list, ys: list, n: int) -> list:
    out = [ctx.zero] * n
    for (i, j), c in g.terms.items():
        term = [ctx.one]
        for _ in range(i):
            term = naive_mul(ctx, term, xs, n)
        for _ in range(j):
            term = naive_mul(ctx, term, ys, n)
        term = term + [ctx.zero] * (n - len(term))
        out = [o + c * u for o, u in zip(out, term)]
    return out


def reps(v: list) -> list:
    return [c.rep for c in v]


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_tr_mul_matches_naive_convolution(name):
    ctx = CONTEXTS[name]

    @PROPERTY
    @given(series(ctx), series(ctx), st.integers(1, 16))
    def check(a, b, n):
        assert ctx.rconv(reps(a), reps(b), n) == reps(naive_mul(ctx, a, b, n))

    check()


@pytest.mark.parametrize("p", [2, 7, 65521, 2**61 - 1])
def test_prime_product_matches_naive_on_both_sides_of_the_packing_cutoff(p):
    # 65521 packs into 8-byte slots (5 bytes would do); 2^61-1 needs slots
    # wider than a machine word, so it keeps the loop past the cutoff
    ctx = FieldCtx.prime(p)
    assert 2 * FP_PACK_MIN_LEN < 80

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 3), st.data())
    def check(la, lb, which, data):
        a, b = (data.draw(st.lists(elements(ctx), min_size=k, max_size=k)) for k in (la, lb))
        full = la + lb - 1
        n = [1, max(full // 2, 1), max(full, 1), full + 3][which]
        assert ctx.rconv(reps(a), reps(b), n) == reps(naive_mul(ctx, a, b, n))

    check()
    # every coefficient p-1 fills each slot of the packed product to its bound
    top = ctx.from_int(-1)
    for k in (FP_PACK_MIN_LEN, FP_PACK_MIN_LEN + 1, 80):
        a = [top] * k
        assert ctx.rconv(reps(a), reps(a), 2 * k) == reps(naive_mul(ctx, a, a, 2 * k))
    # a long operand with one nonzero coefficient keeps the loop
    one = [top] + [ctx.zero] * 79
    assert ctx.rconv(reps(one), reps(a), 160) == reps(naive_mul(ctx, one, a, 160))


@pytest.mark.parametrize("name", TUPLE_CONTEXTS)
def test_flattened_tower_product_matches_naive(name):
    # a tuple extension's rconv is one base product of flattened operands
    ctx = CONTEXTS[name]

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 3), st.data())
    def check(la, lb, which, data):
        a, b = (data.draw(st.lists(elements(ctx), min_size=k, max_size=k)) for k in (la, lb))
        full = la + lb - 1
        n = [0, max(full // 2, 1), max(full, 1), full + 3][which]
        assert ctx.rconv(reps(a), reps(b), n) == reps(naive_mul(ctx, a, b, n))
        assert ctx.rconv([], reps(b), n) == ctx.rconv(reps(a), [], n) == [ctx.rzero] * n
        x, y = data.draw(elements(ctx)), data.draw(elements(ctx))
        assert ctx.rmul(x.rep, y.rep) == ctx.rconv([x.rep], [y.rep], 1)[0]
        if not y.is_zero():  # rinv runs Euclid over the base, independent of the flat product
            assert ctx.rmul(ctx.rmul(x.rep, y.rep), ctx.rinv(y.rep)) == x.rep

    check()


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_tr_inv_matches_naive_reciprocal(name):
    ctx = CONTEXTS[name]
    units = elements(ctx).filter(lambda c: not c.is_zero())

    @PROPERTY
    @given(units, series(ctx), st.integers(1, 16))
    def check(b0, rest, n):
        b = [b0] + rest
        inv = _tr_inv(ctx, reps(b), n, [ctx.rinv(b0.rep)])
        assert inv == reps(naive_inv(ctx, b, n))
        one = [ctx.rone] + [ctx.rzero] * (n - 1)
        assert ctx.rconv(reps(b), inv, n) == one

    check()


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_tr_inv_from_a_correct_prefix_equals_a_fresh_inversion(name):
    ctx = CONTEXTS[name]
    units = elements(ctx).filter(lambda c: not c.is_zero())

    @PROPERTY
    @given(units, series(ctx), st.integers(1, 16), st.integers(1, 20))
    def check(b0, rest, n, k):
        b = reps([b0] + rest)
        fresh = [ctx.rinv(b[0])]
        assert _tr_inv(ctx, b, n, _tr_inv(ctx, b, k, fresh)) == _tr_inv(ctx, b, n, fresh)

    check()


def polys(ctx: FieldCtx):
    mono = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return st.dictionaries(mono, elements(ctx), max_size=6).map(
        lambda terms: MPoly(ctx, XY, {e: c for e, c in terms.items() if not c.is_zero()})
    )


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_pullback_matches_naive_substitution(name):
    ctx = CONTEXTS[name]

    @PROPERTY
    @given(polys(ctx), series(ctx, 8), series(ctx, 8), st.integers(1, 14))
    def check(g, xs, ys, n):
        assert _tr_eval(ctx, rep_terms(g), reps(xs), reps(ys), n) == reps(naive_pullback(ctx, g, xs, ys, n))

    check()


def shaped(ctx: FieldCtx, shape: str, a, rest: list, n: int) -> list:
    """A coordinate series of a given shape: a nonzero, n the precision."""
    zero = ctx.zero
    if shape == "zero":
        return []
    if shape.startswith("t^"):  # a*t^k
        return [zero] * int(shape[2:]) + [a]
    lead = {"dense": 0, "order 2": 2, "late": n}[shape]  # late: zero mod t^n
    return [zero] * lead + [a] + rest


X_SHAPES = ["zero", "t^0", "t^1", "t^2", "t^3", "dense", "order 2", "late"]
Y_SHAPES = ["dense", "order 2", "late"]


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_pullback_matches_naive_substitution_for_every_coordinate_shape(name):
    # monomial x(t) and the table of powers, rows dropped by order, and
    # coordinates (one or both) that vanish below the precision
    ctx = CONTEXTS[name]
    unit = elements(ctx).filter(lambda c: not c.is_zero())

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(polys(ctx), unit, unit, series(ctx, 5), series(ctx, 5), st.integers(1, 10))
    def check(g, a, b, xrest, yrest, n):
        for xshape in X_SHAPES:
            for yshape in Y_SHAPES:
                xs, ys = shaped(ctx, xshape, a, xrest, n), shaped(ctx, yshape, b, yrest, n)
                got = _tr_eval(ctx, rep_terms(g), reps(xs), reps(ys), n)
                assert got == reps(naive_pullback(ctx, g, xs, ys, n)), (xshape, yshape)

    check()


def leaves(ctx: FieldCtx, degree: int = 3, top: bool = False):
    """Curves through the origin with a unit y-partial there; with ``top``,
    also a term x^degree*y^degree."""
    unit = elements(ctx).filter(lambda c: not c.is_zero())

    def build(args):
        c01, terms, *tops = args
        terms = {e: c for e, c in terms.items() if e != (0, 0) and e != (0, 1) and not c.is_zero()}
        terms[(0, 1)] = c01
        for c in tops:
            terms[(degree, degree)] = c
        return MPoly(ctx, XY, terms)

    mono = st.tuples(st.integers(0, degree), st.integers(0, degree))
    parts = [unit, st.dictionaries(mono, elements(ctx), max_size=5)] + [unit] * top
    return st.tuples(*parts).map(build)


def chains(ctx: FieldCtx):
    return st.lists(st.tuples(st.sampled_from(["x", "y"]), elements(ctx)), max_size=3)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_param_precision_is_a_prefix(name):
    ctx = CONTEXTS[name]

    def build(leaf, chain):
        p = Param(leaf)
        for chart, c in chain:
            p.push(chart, c)
        return p

    def check(leaf, chain, n):
        short = build(leaf, chain).at(n)
        long_x, long_y = build(leaf, chain).at(2 * n)
        assert short == (long_x[:n], long_y[:n])
        # lifting on from a capped step (its carried inverse is short) agrees
        grown = build(leaf, chain)
        grown.at(n)
        assert grown.at(2 * n + 1)[0][: 2 * n] == long_x
        # pushing onto a parametrization already known to some precision
        # agrees with replaying the chain from the leaf
        early = Param(leaf)
        early.at(n)
        for chart, c in chain:
            early.push(chart, c)
        assert early.at(n) == short
        assert series_order(leaf, Param(leaf), n) is None

    PROPERTY(given(leaves(ctx), chains(ctx), st.integers(1, 12))(check))()
    # leaves with a term x^8*y^8 lifted past 40 terms: long products (packed
    # over F_p) and several steps of the carried inverse
    big = settings(derandomize=True, max_examples=3, deadline=None)
    big(given(leaves(ctx, 8, top=True), chains(ctx), st.integers(40, 48))(check))()


# ---------------------------------------------------------------------------
# The integer series against the Fraction series they replaced.  The lift and
# the pullback below are the code that ran on field reps (Fractions over QQ)
# before series moved to the integer shadow, kept as the reference.


def ref_tr_eval(ctx: FieldCtx, g: MPoly, xs: list, ys: list, prec: int) -> list:
    """g(x(t), y(t)) mod t^prec on field reps, by Horner in y, dropping the
    terms of order at least prec."""
    ox, oy = _order(ctx, xs, prec), _order(ctx, ys, prec)
    rows: dict[int, list] = {}
    for (i, j), c in g.terms.items():
        if i * ox + j * oy < prec:
            rows.setdefault(j, []).append((i, c.rep))
    if not rows:
        return [ctx.rzero] * prec
    radd, rmul = ctx.radd, ctx.rmul
    monomial = all(map(ctx.ris_zero, xs[ox + 1 : prec]))
    a = xs[ox] if monomial and ox < prec else None
    xpow = [ctx.rone] if monomial else [[ctx.rone]]
    out: list = []
    for j in range(max(rows), -1, -1):
        n = prec - j * oy
        out = ctx.rconv(out, ys, n)
        for i, c in rows.get(j, ()):
            while len(xpow) <= i:
                xpow.append(rmul(xpow[-1], a) if monomial else ctx.rconv(xpow[-1], xs, prec))
            if monomial:
                out[ox * i] = radd(out[ox * i], rmul(c, xpow[i]))
            else:
                out = _tr_axpy(ctx, c, xpow[i], out)
    return out


def ref_param(leaf: MPoly, solve_for: str, chain: list, prec: int) -> tuple[list, list]:
    """(x(t), y(t)) mod t^prec: the Newton lift of the leaf on field reps,
    with the inverse of leaf_y carried from step to step, then the chart maps."""
    ctx = leaf.ctx
    if solve_for == "x":
        leaf = MPoly(ctx, XY, {(j, i): c for (i, j), c in leaf.terms.items()})
    leaf_y = leaf.partial(1)
    t = [ctx.rzero, ctx.rone]
    phi, inv = [ctx.rzero], []
    while len(phi) < prec:
        k = len(phi)
        n = min(2 * k, prec)
        val = ref_tr_eval(ctx, leaf, t, phi, n)
        assert all(map(ctx.ris_zero, val[:k]))
        m = n - k
        deriv = ref_tr_eval(ctx, leaf_y, t, phi, m)
        inv = _tr_inv(ctx, deriv, m, inv[:m] or [ctx.rinv(deriv[0])])
        phi = phi + [ctx.rneg(c) for c in ctx.rconv(val[k:], inv, m)]
    t = [ctx.rzero, ctx.rone][:prec] + [ctx.rzero] * (prec - 2)
    x, y = (phi[:prec], t) if solve_for == "x" else (t, phi[:prec])
    for chart, c in chain:
        if chart == "x":
            y = ctx.rconv(x, [ctx.radd(y[0], c.rep)] + y[1:], prec)
        else:
            x = ctx.rconv(y, [ctx.radd(x[0], c.rep)] + x[1:], prec)
    return x, y


def ref_order(h: MPoly, xs: list, ys: list, bound: int) -> int | None:
    val = ref_tr_eval(h.ctx, h, xs, ys, bound + 1)
    return next((k for k, c in enumerate(val) if not h.ctx.ris_zero(c)), None)


_QQ_a = QQ.extend(
    [FieldElement(QQ, QQ.rfrom_fraction(Fraction(k, n))) for k, n in ((3, 4), (-1, 3))] + [QQ.one]
)
INTEGER_CONTEXTS = {
    "QQ": QQ,
    "QQ(sqrt2)": CONTEXTS["QQ(a)"],  # a^2 = 2
    "QQ(a), a^2-a/3+3/4": _QQ_a,
    "QQ(a,b)": CONTEXTS["QQ(a,b)"],
}
assert CONTEXTS["QQ(a)"].modulus == (Fraction(-2), Fraction(0), Fraction(1))


def nonzero(ctx: FieldCtx):
    sampled = st.integers(0, 2**32).map(lambda s: ctx.sample(random.Random(s)))
    return sampled.filter(lambda c: not c.is_zero())


def rich_leaves(ctx: FieldCtx):
    """A leaf solved for x or y, with a non-unit fractional linear coefficient
    u in the solved variable, a pure term in the other variable, a pure term
    of degree >= 2 in the solved one and a few mixed terms."""
    unit = nonzero(ctx)
    exps = st.tuples(st.integers(1, 3), st.integers(1, 3))

    def build(args):
        solve_for, u, (i0, c0), (j0, cj), mixed = args
        terms = {e: c for e, c in mixed.items() if not c.is_zero()}
        terms.update({(0, 1): u, (i0, 0): c0, (0, j0): cj})
        if solve_for == "x":
            terms = {(j, i): c for (i, j), c in terms.items()}
        return solve_for, MPoly(ctx, XY, terms)

    parts = [
        st.sampled_from(["x", "y"]),
        unit,
        st.tuples(st.integers(1, 3), unit),
        st.tuples(st.integers(2, 3), unit),
        st.dictionaries(exps, elements(ctx), max_size=3),
    ]
    return st.tuples(*parts).map(build)


def pushed_curve(f: MPoly, chart: str, c) -> MPoly:
    """A curve through the image of f under the chart map (x, y) -> (x, x*(y + c))
    (chart "x") or (x, y) -> (y*(x + c), y): own^e * f(own, other/own - c), in
    the chart's own and other variable, e the top degree of f in the other."""
    X, Y = (MPoly.variable(f.ctx, XY, v) for v in XY)
    own, other = (X, Y) if chart == "x" else (Y, X)
    moved = other - own * MPoly.constant(f.ctx, XY, c)
    e = max(exps[chart == "x"] for exps in f.terms)
    out = MPoly(f.ctx, XY, {})
    for (i, j), a in f.terms.items():
        i, j = (i, j) if chart == "x" else (j, i)
        out = out + MPoly.constant(f.ctx, XY, a) * own ** (i + e - j) * moved**j
    return out


@pytest.mark.parametrize("name", sorted(INTEGER_CONTEXTS))
def test_integer_series_equal_the_fraction_reference(name):
    ctx = INTEGER_CONTEXTS[name]

    def check(solved, chain, h, n):
        solve_for, leaf = solved
        p = Param(leaf, solve_for)
        for chart, c in chain:
            p.push(chart, c)
        xs, ys = ref_param(leaf, solve_for, chain, 2 * n + 1)
        assert p.at(n) == (xs[:n], ys[:n])
        assert series_order(h, p, 2 * n) == ref_order(h, xs, ys, 2 * n)
        assert p.at(2 * n + 1) == (xs, ys)
        assert series_order(leaf, Param(leaf, solve_for), n) is None
        # the pushed leaf vanishes on the branch: its pullback cancels exactly
        curve = leaf
        for chart, c in chain:
            curve = pushed_curve(curve, chart, c)
        assert series_order(curve, p, 2 * n) is None

    # centers mostly nonzero, so that chart maps meet unequal denominators
    center = st.one_of(elements(ctx), nonzero(ctx))
    chains = st.lists(st.tuples(st.sampled_from(["x", "y"]), center), max_size=3)
    PROPERTY(given(rich_leaves(ctx), chains, polys(ctx), st.integers(1, 14))(check))()
    # y = x pushed through the centers 1/2, then 1/3: the second center, over
    # 3, is added to a y over 2
    half, third = (FieldElement(ctx, ctx.rfrom_fraction(Fraction(1, k))) for k in (2, 3))
    check(("y", parse_poly("y-x", ctx)), [("x", half), ("x", third)], parse_poly("x+y", ctx), 6)


def test_a_leaf_whose_rescaling_is_not_integral_is_refused(monkeypatch):
    import curveinv.series as series

    leaf = parse_poly("2*y-x/3+y^2", QQ)  # F/u = y - x/6 + y^2/2: alpha = 12, beta = 2
    assert Param(leaf).at(3)[1] == [0, Fraction(1, 6), Fraction(-1, 72)]
    monkeypatch.setattr(series, "_leaf_scale", lambda dens: (6, 1))
    with pytest.raises(InternalCheckError, match="not integral"):
        Param(leaf)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_shadow_split_and_join_round_trip(name):
    ctx = CONTEXTS[name]
    sh = ctx.shadow

    @PROPERTY
    @given(series(ctx))
    def check(v):
        nums, den = sh.split(reps(v))
        assert [sh.join(c, den) for c in nums] == reps(v)
        assert sh.reduce(nums, den) == (nums, den)  # split gives the least denominator

    check()
