"""Branch decomposition: parametrizations, contact orders, pairwise numbers."""

from __future__ import annotations

import json
import random

import pytest

from curveinv.algebra import MPoly, parse_poly, squarefree_part
from curveinv.errors import (
    DegenerateDirection,
    InternalCheckError,
    NotReduced,
    NotSingularAtOrigin,
    UnsupportedInput,
)
from curveinv.field import FieldCtx
from curveinv.hne import MAX_CHAIN, _coordinate_orders, _push_orders, branch_decompose
from curveinv.invariants import tangent_shear
from curveinv.series import Param, series_order

QQ = FieldCtx.rationals()
XY = ("x", "y")


def test_node_branches():
    bs = branch_decompose(parse_poly("x*y", QQ))
    assert bs.r == 2
    assert bs.mt == 2
    axes = {(b.ix, b.iy) for b in bs.branches}
    assert axes == {(1, None), (None, 1)}
    tangents = sorted(tuple(str(c) for c in b.tangent) for b in bs.branches)
    assert tangents == [("0", "1"), ("1", "0")]
    assert bs.pairwise(0, 1) == 1


def test_cusp_branch():
    bs = branch_decompose(parse_poly("y^2-x^3", QQ))
    assert bs.r == 1
    b = bs.branches[0]
    assert (b.ix, b.iy, b.mt, b.delta) == (2, 3, 2, 1)
    assert b.tangent == (QQ.one, QQ.zero)
    xs, ys = b.param(5)
    assert [str(c) for c in xs] == ["0", "0", "1", "0", "0"]
    assert [str(c) for c in ys] == ["0", "0", "0", "1", "0"]
    assert [m for _, m in b.path] == [2, 1]


def test_param_of_zero_precision_is_empty_and_of_negative_is_refused():
    b = branch_decompose(parse_poly("y^2-x^3", QQ)).branches[0]
    b.param(6)
    assert b.param(0) == ([], [])
    # a negative precision would slice from the end of the series
    with pytest.raises(UnsupportedInput, match="prec must be nonnegative"):
        b.param(-3)


def test_char2_cusp():
    f2 = FieldCtx.prime(2)
    bs = branch_decompose(parse_poly("y^2+x^3", f2))
    b = bs.branches[0]
    assert (bs.r, b.ix, b.iy, b.mt) == (1, 2, 3, 2)


def test_higher_cusp_prefers_y_solve():
    # x^3 + y^4: one branch through (t^3 for y), contact orders swap roles
    bs = branch_decompose(parse_poly("x^3+y^4", QQ))
    assert bs.r == 1
    b = bs.branches[0]
    assert (b.ix, b.iy, b.mt, b.delta) == (4, 3, 3, 3)
    assert b.tangent == (QQ.zero, QQ.one)


def test_tangential_smooth_branch():
    bs = branch_decompose(parse_poly("(y-x)^2-x^3", QQ))
    b = bs.branches[0]
    assert (b.ix, b.iy) == (2, 2)
    assert b.tangent == (QQ.one, QQ.one)


def test_tacnode_pair_contact():
    bs = branch_decompose(parse_poly("(y^2-x^3)*(y^2+x^3)", QQ))
    assert bs.r == 2
    assert [b.delta for b in bs.branches] == [1, 1]
    assert bs.pairwise(0, 1) == 6
    assert bs.tree.delta_contribution() == 8


def test_three_line_pencil():
    bs = branch_decompose(parse_poly("x*y*(x+y)", QQ))
    assert bs.r == 3
    assert all(b.mt == 1 for b in bs.branches)
    for i in range(3):
        for j in range(i + 1, 3):
            assert bs.pairwise(i, j) == 1


def test_extension_restart_quadratic():
    bs = branch_decompose(parse_poly("y^2-2*x^2", QQ))
    assert bs.r == 2
    assert bs.ctx.absdegree == 2
    assert bs.pairwise(0, 1) == 1
    # both tangents are (1 : +-sqrt2)
    for b in bs.branches:
        t = b.tangent
        assert t[0] == bs.ctx.one and (t[1] * t[1]) == 2


def test_extension_restart_char2():
    f2 = FieldCtx.prime(2)
    bs = branch_decompose(parse_poly("y^2+x*y+x^2", f2))
    assert bs.r == 2
    assert bs.ctx.order == 4
    assert bs.pairwise(0, 1) == 1


def test_params_annihilate_input():
    rng = random.Random(0x4E3)
    texts = ["y^2-x^3", "x*y*(x+y)", "(y^2-x^3)*(y-x)", "x^3+y^4"]
    for text in texts:
        f = parse_poly(text, QQ)
        bs = branch_decompose(f)
        for b in bs.branches:
            n = rng.randint(20, 30)
            assert series_order(bs.f, b.series, n) is None


def test_multiplicity_sum_on_random_products():
    rng = random.Random(0x4E4)
    done = 0
    while done < 12:
        ctx = rng.choice([QQ, FieldCtx.prime(3), FieldCtx.prime(5)])
        terms = {}
        for _ in range(4):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            if e == (0, 0):
                continue
            terms[e] = ctx.sample(rng)
        f = MPoly(ctx, XY, terms)
        if f.is_zero() or f.order() is None or f.order() < 1 or f.degree() > 5:
            continue
        _, reduced = squarefree_part(f)
        if not reduced:
            continue
        bs = branch_decompose(f)
        assert sum(b.mt for b in bs.branches) == bs.mt
        pairs = sum(bs.pairwise(i, j) for i in range(bs.r) for j in range(i + 1, bs.r))
        assert sum(b.delta for b in bs.branches) + pairs == bs.tree.delta_contribution()
        done += 1


def _series_tangent(bs, b):
    """The tangent as the ratio of the leading coefficients of x(t), y(t)."""
    ctx = bs.ctx
    if b.ix is None or (b.iy is not None and b.ix > b.iy):
        return ctx.zero, ctx.one
    if b.iy is None or b.ix < b.iy:
        return ctx.one, ctx.zero
    xs, ys = b.param(b.ix + 1)
    return ctx.one, ys[b.iy] / xs[b.ix]


def _assert_chart_data_matches_series(bs):
    x, y = (MPoly.variable(bs.ctx, XY, v) for v in XY)
    bound = bs.f.degree() + 1
    for b in bs.branches:
        assert (b.ix, b.iy) == (
            series_order(x, b.series, bound),
            series_order(y, b.series, bound),
        )
        assert b.mt == min(o for o in (b.ix, b.iy) if o is not None) == b.path[0][1]
        assert b.tangent == _series_tangent(bs, b)


def test_chart_orders_match_series_on_random_germs():
    rng = random.Random(0x4E5)
    f3 = FieldCtx.prime(3)
    for ctx in (QQ, f3, FieldCtx.prime(5), f3.extend([1, 0, 1])):
        done = 0
        while done < 6:
            terms = {}
            for _ in range(4):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                if e != (0, 0):
                    terms[e] = ctx.sample(rng)
            f = MPoly(ctx, XY, terms)
            if f.is_zero() or f.degree() > 5 or not squarefree_part(f)[1]:
                continue
            _assert_chart_data_matches_series(branch_decompose(f))
            done += 1


def test_axis_branch_through_chart_x():
    # y = 0 crosses the x-chart at center 0 with y(t) identically zero
    bs = branch_decompose(parse_poly("y*(y^2-x^3)", QQ))
    data = sorted((b.ix or 0, b.iy or 0, b.mt, [m for _, m in b.path]) for b in bs.branches)
    assert data == [(1, 0, 1, [1, 1, 1]), (2, 3, 2, [2, 1, 1])]
    assert [b.tangent for b in bs.branches] == [(QQ.one, QQ.zero)] * 2
    _assert_chart_data_matches_series(bs)


def test_axis_branch_through_chart_y():
    bs = branch_decompose(parse_poly("x*(x^2-y^3)", QQ))
    data = sorted((b.ix or 0, b.iy or 0, b.mt, [m for _, m in b.path]) for b in bs.branches)
    assert data == [(0, 1, 1, [1, 1, 1]), (3, 2, 2, [2, 1, 1])]
    assert [b.tangent for b in bs.branches] == [(QQ.zero, QQ.one)] * 2
    _assert_chart_data_matches_series(bs)


@pytest.mark.parametrize(
    "text, orders, tangent", [("x+y^2", (2, 1), (0, 1)), ("y-3*x+x^2", (1, 1), (1, 3))]
)
def test_smooth_germ_tangent_from_linear_part(text, orders, tangent):
    bs = branch_decompose(parse_poly(text, QQ))
    (b,) = bs.branches
    assert ((b.ix, b.iy), [m for _, m in b.path]) == (orders, [1])
    assert b.tangent == tuple(QQ.from_int(c) for c in tangent)
    _assert_chart_data_matches_series(bs)


@pytest.mark.parametrize(
    "text, orders", [("v^2-u^3", (2, 3)), ("v-u^2", (1, 2)), ("u-v^2", (2, 1))]
)
def test_leaf_solves_in_the_germs_own_variables(text, orders):
    # the alphabet (u, v) plays the part of (x, y), whichever variable is solved
    uv = branch_decompose(parse_poly(text, QQ, ("u", "v")))
    xy = branch_decompose(parse_poly(text.replace("u", "x").replace("v", "y"), QQ))
    assert [(b.ix, b.iy) for b in uv.branches] == [(b.ix, b.iy) for b in xy.branches] == [orders]


def test_push_orders_follows_the_chart_maps():
    assert _push_orders((2, 3), "x", QQ.one) == (2, (2, 2))
    assert _push_orders((2, 3), "x", QQ.zero) == (2, (2, 5))
    assert _push_orders((2, None), "x", QQ.zero) == (2, (2, None))
    assert _push_orders((2, 3), "y", None) == (3, (5, 3))
    assert _push_orders((None, 3), "y", None) == (3, (None, 3))
    # a strict-transform branch never lies on the exceptional line
    with pytest.raises(InternalCheckError):
        _push_orders((None, 1), "x", QQ.zero)
    with pytest.raises(InternalCheckError):
        _push_orders((1, None), "y", None)


def test_a_chain_up_to_the_ceiling_is_built_and_one_past_it_refused():
    # y^2 - x^(2k+1) is a chain of k double points and a smooth end
    bs = branch_decompose(parse_poly(f"y^2-x^{2 * MAX_CHAIN + 1}", QQ), certify=False)
    nodes = list(bs.tree.nodes())
    assert MAX_CHAIN == 256
    assert [n.mult for n in nodes] == [2] * MAX_CHAIN + [1]
    assert all(len(n.children) == (n.mult > 1) for n in nodes)
    assert bs.tree.delta_contribution() == bs.branches[0].delta == MAX_CHAIN
    assert json.loads(json.dumps(bs.tree.to_json(), indent=2)) == bs.tree.to_json()
    with pytest.raises(UnsupportedInput, match="MAX_CHAIN"):
        branch_decompose(parse_poly(f"y^2-x^{2 * MAX_CHAIN + 3}", QQ), certify=False)


def test_pairwise_of_a_branch_with_itself_is_a_defect():
    bs = branch_decompose(parse_poly("x*y", QQ))
    with pytest.raises(InternalCheckError):
        bs.pairwise(1, 1)


def test_shear_aligns_diagonal_tangent():
    f3 = FieldCtx.prime(3)
    f = parse_poly("(x+y)^3+(x+y)^4+y^5", f3)
    bs = branch_decompose(f)
    assert bs.r == 1
    b = bs.branches[0]
    assert b.ix == b.iy == 3
    g = tangent_shear(f.ctx, f.vars, b.tangent).apply(f)
    gs = branch_decompose(g)
    gb = gs.branches[0]
    assert (gb.ix, gb.iy) == (3, 5)


def test_shear_rejects_vertical_tangent():
    with pytest.raises(DegenerateDirection):
        tangent_shear(QQ, XY, (QQ.zero, QQ.one))


def test_not_reduced_and_missing_origin():
    with pytest.raises(NotReduced):
        branch_decompose(parse_poly("(y^2-x^3)^2", QQ))
    with pytest.raises(NotReduced):
        branch_decompose(MPoly.zero(QQ, XY))
    with pytest.raises(NotSingularAtOrigin):
        branch_decompose(parse_poly("1+x+y", QQ))


def test_certificate_rejects_short_annihilation_and_imprimitive_params():
    # y^2 - x^3 has degree 3, so the annihilation bound is (3+1)^2 = 16
    from curveinv.errors import InternalCheckError
    from curveinv.hne import _certify

    f = parse_poly("y^2-x^3", QQ)

    class Fixed:
        """A parametrization given by two integer polynomials in t."""

        ctx = QQ
        support = Param.support

        def __init__(self, xs, ys):
            self.xs, self.ys = xs, ys

        def numerators(self, prec):
            pad = [0] * prec
            return (self.xs[:prec] + pad[len(self.xs) :], 1), (self.ys[:prec] + pad[len(self.ys) :], 1)

    t2 = [0, 0, 1]
    off_at_16 = Fixed(t2, [0, 0, 0, 1] + [0] * 9 + [1])  # y = t^3 + t^13
    with pytest.raises(InternalCheckError, match="order 16"):
        _certify(f, off_at_16, 1, 2)
    _certify(f, Fixed(t2, [0, 0, 0, 1] + [0] * 10 + [1]), 1, 2)  # y = t^3 + t^14
    with pytest.raises(InternalCheckError, match="not primitive"):
        _certify(f, Fixed([0, 0, 0, 0, 1], [0] * 6 + [1]), 1, 2)  # (t^4, t^6)


def test_coordinate_orders_read_the_first_nonzero_numerators():
    class Fixed:
        ctx = QQ

        def __init__(self, xs, ys):
            self.xs, self.ys = xs, ys

        def numerators(self, prec):
            pad = [0] * prec
            return (self.xs[:prec] + pad[len(self.xs) :], 3), (self.ys[:prec] + pad[len(self.ys) :], 5)

    assert _coordinate_orders(Fixed([0, 0, 7], [0, 0, 0, -1]), 4) == (2, 3)
    assert _coordinate_orders(Fixed([0, 0, 7], [0] * 5 + [1]), 5) == (2, 5)
    assert _coordinate_orders(Fixed([0, 0, 7], [0] * 5 + [1]), 4) == (2, None)
    assert _coordinate_orders(Fixed([0, 1], []), 4) == (1, None)


def test_coordinate_orders_of_an_axis_branch():
    f = parse_poly("y*(y^2-x^3)", QQ)
    bs = branch_decompose(f)
    got = {_coordinate_orders(b.series, f.degree() + 1) for b in bs.branches}
    assert got == {(1, None), (2, 3)}
    assert got == {(b.ix, b.iy) for b in bs.branches}


def test_a_restart_builds_the_field_from_the_chosen_factor(monkeypatch):
    # the tangent cone 5 + 6*w^3 has no root over F_7, so the germ restarts
    # over F_{7^3}; extend_with_root neither factors nor looks for roots.  The
    # first request for F_{7^3} in a process factors candidate moduli, so the
    # field is built before the counters go in.
    from curveinv.field import FieldCtx as Ctx
    from curveinv.field import _flat_finite_ctx
    from curveinv.unipoly import UniPoly

    _flat_finite_ctx(7, 3)
    inside, calls = [False], {"extend": 0, "factor": 0, "roots": 0}
    real_extend, real_factor, real_roots = Ctx.extend_with_root, UniPoly.factor, UniPoly.roots

    def extend(self, g):
        calls["extend"] += 1
        inside[0] = True
        try:
            return real_extend(self, g)
        finally:
            inside[0] = False

    def counted(name, real):
        def inner(self):
            calls[name] += inside[0]
            return real(self)
        return inner

    monkeypatch.setattr(Ctx, "extend_with_root", extend)
    monkeypatch.setattr(UniPoly, "factor", counted("factor", real_factor))
    monkeypatch.setattr(UniPoly, "roots", counted("roots", real_roots))
    bs = branch_decompose(parse_poly("5*x^3+6*y^3+y^5", FieldCtx.prime(7)))
    assert bs.ctx.descriptor() == "Fq:7^3"
    assert bs.r == 3
    assert calls == {"extend": 1, "factor": 0, "roots": 0}
