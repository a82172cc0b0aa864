"""Blow-up charts, tangent directions, and the infinitely near tree."""

from __future__ import annotations

import json
import random
from math import comb

import pytest

from curveinv.algebra import MPoly, parse_poly, squarefree_part
from curveinv.blowup import NeedsExtension, split, strict_transform
from curveinv.errors import NotSingularAtOrigin
from curveinv.field import FieldCtx, _flat_finite_ctx
from curveinv.hne import branch_decompose
from curveinv.unipoly import UniPoly

QQ = FieldCtx.rationals()
XY = ("x", "y")


def _random_germ(ctx, rng, max_deg=4, nterms=6):
    while True:
        terms = {}
        for _ in range(nterms):
            e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
            if e == (0, 0):
                continue
            terms[e] = ctx.sample(rng)
        f = MPoly(ctx, XY, terms)
        if f.order() and f.order() >= 1:
            return f


# Every kind of coefficient arithmetic: Fractions, F_p ints, log-table codes,
# tuples over F_2 and tuples over QQ.
CHART_CONTEXTS = (QQ, FieldCtx.prime(5), FieldCtx.prime(2), _flat_finite_ctx(7, 2),
                  _flat_finite_ctx(2, 13), QQ.extend([-2, 0, 1]))


def _planted_germ(ctx, rng):
    """A germ whose tangent cone is a product of distinct rational lines."""
    roots, want = [], min(rng.randint(2, 3), ctx.order or 3)
    while len(roots) < want:
        r = ctx.sample(rng)
        roots += [r] if r not in roots else []
    cone = MPoly.constant(ctx, XY, 1)
    for r in roots:
        cone = cone * MPoly(ctx, XY, {(0, 1): 1, (1, 0): -r})
    if rng.random() < 0.5:
        cone = cone * MPoly.variable(ctx, XY, "x")  # the y-chart point too
    m = cone.degree()
    degrees = (m + 1, m + 2)
    higher = {(i, d - i): ctx.sample(rng) for d in degrees for i in range(d + 1) if rng.random() < 0.5}
    return cone + MPoly(ctx, XY, higher)


def _pullback(f, chart, c) -> dict:
    """f(x, x*(y+c)) or f(y*(x+c), y), expanded term by term on FieldElements."""
    out = {}
    for (i, j), a in f.terms.items():
        k = j if chart == "x" else i  # the power of (y+c), or of (x+c)
        for l in range(k + 1):
            e = (i + j, l) if chart == "x" else (l, i + j)
            out[e] = out.get(e, f.ctx.zero) + a * comb(k, l) * c ** (k - l)
    return {e: v for e, v in out.items() if not v.is_zero()}


def test_chart_identity_is_exact():
    rng = random.Random(0xB10)
    for ctx in CHART_CONTEXTS:
        nonzero_centers = 0
        for n in range(16):
            f = _planted_germ(ctx, rng) if n % 2 else _random_germ(ctx, rng)
            m = f.order()
            try:
                charts = strict_transform(f)
            except NeedsExtension:
                assert n % 2 == 0
                continue
            for ch in charts:
                c = ctx.zero if ch.center is None else ch.center
                nonzero_centers += not c.is_zero()
                # f(x, x(y+c)) = x^m * g in the x-chart, f(y(x+c), y) = y^m * g in the y-chart
                shift = (m, 0) if ch.chart == "x" else (0, m)
                expected = {(i + shift[0], j + shift[1]): v for (i, j), v in ch.local_eq.terms.items()}
                assert _pullback(f, ch.chart, c) == expected, (ctx, str(f), ch.chart, str(c))
                # the new origin lies on the strict transform
                assert ch.local_eq.constant_term().is_zero()
        assert nonzero_centers >= 4, ctx


def test_cusp_tree():
    tree = branch_decompose(parse_poly("y^2-x^3", QQ)).tree
    assert [n.mult for n in tree.nodes()] == [2, 1]
    assert tree.delta_contribution() == 1


def test_node_tree():
    tree = branch_decompose(parse_poly("x*y", QQ)).tree
    assert sorted([n.mult for n in tree.nodes()]) == [1, 1, 2]
    assert tree.delta_contribution() == 1
    assert len(tree.children) == 2


def test_tacnode_pair_tree():
    f = parse_poly("(y^2-x^3)*(y^2+x^3)", QQ)
    tree = branch_decompose(f).tree
    assert sorted([n.mult for n in tree.nodes()]) == [1, 1, 2, 2, 4]
    assert tree.delta_contribution() == 8


def test_chart_preference_gives_same_delta():
    for text, p in [
        ("(y^2-x^3)*(y^2+x^3)", 0),
        ("x^3-y^7", 0),
        ("x*y*(x+y)*(x-y^2)", 0),
        ("y^2+x^3", 2),
        ("(x+y)^3+(x+y)^4+y^5", 3),
    ]:
        ctx = QQ if p == 0 else FieldCtx.prime(p)
        f = parse_poly(text, ctx)
        x = MPoly.variable(ctx, XY, "x")
        y = MPoly.variable(ctx, XY, "y")
        a = branch_decompose(f).tree.delta_contribution()
        b = branch_decompose(f.substitute([y, x])).tree.delta_contribution()
        assert a == b


def test_strict_transform_of_reduced_stays_reduced():
    rng = random.Random(0xB11)
    checked = 0
    for ctx in (QQ, FieldCtx.prime(3)):
        while checked < 6:
            f = _random_germ(ctx, rng)
            part, reduced = squarefree_part(f)
            if not reduced:
                continue
            try:
                charts = strict_transform(f)
            except NeedsExtension:
                continue
            for ch in charts:
                _, child_reduced = squarefree_part(ch.local_eq)
                assert child_reduced
            checked += 1


def test_irrational_direction_forces_extension():
    tree = branch_decompose(parse_poly("y^2-2*x^2", QQ)).tree
    assert sorted([n.mult for n in tree.nodes()]) == [1, 1, 2]
    assert tree.delta_contribution() == 1


def _recursive_preorder(tree):
    out = [tree]
    for _, _, sub in tree.children:
        out += _recursive_preorder(sub)
    return out


def _recursive_json(tree):
    return {
        "mult": tree.mult,
        "children": [
            {"chart": chart, "center": "inf" if center is None else str(center), "tree": _recursive_json(sub)}
            for chart, center, sub in tree.children
        ],
    }


@pytest.mark.parametrize("text", ["y^2-x^3", "(y^2-x^3)*(y^2+x^3)", "x*y*(x-y)*(y^2-x^5)", "y*(x^3-y^4)*(x-2*y^2)"])
def test_the_tree_walks_match_the_recursive_ones(text):
    # nodes() and to_json() keep their own stacks; the recursive walks they
    # replaced are the reference, node for node and key for key
    tree = branch_decompose(parse_poly(text, QQ)).tree
    assert [id(n) for n in tree.nodes()] == [id(n) for n in _recursive_preorder(tree)]
    assert json.dumps(tree.to_json()) == json.dumps(_recursive_json(tree))


def test_missing_origin_rejected():
    with pytest.raises(NotSingularAtOrigin):
        branch_decompose(parse_poly("1+x", QQ))


def test_tree_json_shape():
    data = branch_decompose(parse_poly("y^2-x^3", QQ)).tree.to_json()
    assert data["mult"] == 2
    assert data["children"][0]["chart"] == "x"
    assert data["children"][0]["center"] == "0"
    assert data["children"][0]["tree"] == {"mult": 1, "children": []}


def _enumerated_roots(f):
    """Roots by trying every field element, multiplicities by repeated
    division by (t - e)."""
    ctx = f.ctx
    found = []
    for e in ctx.elements():
        lin = UniPoly(ctx, [-e, ctx.one])
        rest, mult = f, 0
        while True:
            q, r = divmod(rest, lin)
            if not r.is_zero():
                break
            rest, mult = q, mult + 1
        if mult:
            found.append((e, mult))
    found.sort(key=lambda rm: rm[0].sort_key())
    return found


def test_roots_and_split_match_enumeration():
    f2, f3, f5 = FieldCtx.prime(2), FieldCtx.prime(3), FieldCtx.prime(5)
    fields = [
        f2,
        f3,
        f2.extend([1, 1, 1]),
        FieldCtx.prime(7),
        f3.extend([1, 0, 1]),
        f5.extend([2, 0, 1]),
    ]
    rng = random.Random(0x5B1)
    outcomes = set()
    for ctx in fields:
        for _ in range(25):
            nlin = rng.randint(0, 4)
            f = UniPoly(ctx, [ctx.sample(rng) for _ in range(rng.randint(1, 7 - nlin))])
            for _ in range(nlin):
                f = f * UniPoly(ctx, [ctx.sample(rng), ctx.one])
            if f.is_zero():
                continue
            expected = _enumerated_roots(f)
            assert f.roots_with_multiplicity() == expected
            nonlinear = [g for g, _ in f.factor() if g.degree() > 1]
            if not nonlinear:
                outcomes.add("split")
                assert split(f) == expected
                continue
            outcomes.add("extend")
            least = min(
                nonlinear, key=lambda g: (g.degree(), tuple(c.sort_key() for c in g.coeffs))
            )
            with pytest.raises(NeedsExtension) as info:
                split(f)
            assert info.value.poly == least
    assert outcomes == {"split", "extend"}


# Prime fields, log-table F_q, tuple F_{67^2}, QQ and QQ(a).
SPLIT_CONTEXTS = (FieldCtx.prime(2), FieldCtx.prime(7), FieldCtx.prime(17), _flat_finite_ctx(2, 4),
                  _flat_finite_ctx(7, 3), _flat_finite_ctx(67, 2), QQ, QQ.extend([-2, 0, 1]))


def _factored_roots(f):
    """The roots that the linear factors of factor() give."""
    out = [(-g.coefficient(0), m) for g, m in f.factor() if g.degree() == 1]
    out.sort(key=lambda rm: rm[0].sort_key())
    return out


def _split_cases(ctx, rng):
    """Seeded polynomials of degree 0-8 with random leading coefficients:
    random ones, and products of planted roots, repeated or not, with a
    random cofactor; then inseparable and purely repeated ones."""
    def nonzero():
        while (c := ctx.sample(rng)).is_zero():
            pass
        return c

    pool = [ctx.sample(rng) for _ in range(3)]
    for deg in list(range(9)) * 4:
        planted = rng.randint(0, deg)
        f = UniPoly(ctx, [ctx.sample(rng) for _ in range(deg - planted)] + [nonzero()])
        for _ in range(planted):
            f = f * UniPoly(ctx, [-rng.choice(pool), ctx.one])
        yield f
    t, one = UniPoly.x(ctx), UniPoly(ctx, [1])
    # t^2 - c is inseparable over F_{2^k}; over QQ these discriminants are
    # negative, not a square, a square, a square of a fraction and zero
    yield from (t * t - UniPoly(ctx, [c]) for c in pool + [-1, 2, 1])
    yield from (UniPoly(ctx, [-4, 0, 9]), UniPoly(ctx, [-2, 3]) ** 2)
    if ctx.char:
        yield (t - one) ** min(ctx.char, 17)
        yield (t - one) ** 2 * (t * t + t + one) ** 2


@pytest.mark.parametrize("ctx", SPLIT_CONTEXTS, ids=lambda ctx: ctx.descriptor())
def test_split_and_its_memo_agree_with_factor(ctx):
    # asked again, or about a constant multiple, split answers from its memo
    rng = random.Random(0x5B2)
    outcomes = set()
    for f in _split_cases(ctx, rng):
        expected = _factored_roots(f)
        if f.degree() < 1:
            assert split(f) == []
            continue
        for g in (f, f, f * UniPoly(ctx, [5])):
            if sum(m for _, m in expected) == f.degree():
                outcomes.add("split")
                assert split(g) == expected
                continue
            outcomes.add("extend")
            with pytest.raises(NeedsExtension) as info:
                split(g)
            assert info.value.poly == next(h for h, _ in f.factor() if h.degree() > 1)
    assert outcomes == {"split", "extend"}


def test_a_cone_asked_about_again_is_not_factored(monkeypatch):
    from collections import OrderedDict

    from curveinv import blowup

    factored = []
    real = UniPoly.factor
    monkeypatch.setattr(UniPoly, "factor", lambda self: factored.append(str(self)) or real(self))
    monkeypatch.setattr(blowup, "_SPLITS", OrderedDict())
    f7, f73 = FieldCtx.prime(7), _flat_finite_ctx(7, 3)
    a = f73.gen()
    cases = [
        (f7, [(f7.from_int(2), 1), (f7.from_int(5), 3)]),
        (f73, [(a, 2), (a + 1, 1)]),
        (QQ, [(QQ.from_int(-3) / 4, 1), (QQ.from_int(1) / 2, 1)]),
    ]
    for ctx, roots in cases:
        u = UniPoly(ctx, [3])
        for r, m in roots:
            u = u * UniPoly(ctx, [-r, 1]) ** m
        for v in (u, u, u.monic()):
            assert split(v) == sorted(roots, key=lambda rm: rm[0].sort_key())
    assert len(factored) == len(cases)
    # a cone that does not split is factored once too
    for _ in range(2):
        with pytest.raises(NeedsExtension) as info:
            split(UniPoly(f7, [2, 0, 2]))
        assert str(info.value.poly) == "t^2+1"
    assert factored[len(cases):] == ["2*t^2+2"]


def test_the_split_memo_stays_bounded(monkeypatch):
    from collections import OrderedDict

    from curveinv import blowup

    monkeypatch.setattr(blowup, "_SPLITS", OrderedDict())
    for k in range(blowup._SPLIT_MEMO_SIZE + 10):
        u = UniPoly(QQ, [-k, 1]) * UniPoly(QQ, [k, 2])
        roots = [(QQ.from_int(k), 1), (QQ.from_int(-k) / 2, 1)] if k else [(QQ.zero, 2)]
        assert split(u) == sorted(roots, key=lambda rm: rm[0].sort_key())
    assert len(blowup._SPLITS) == blowup._SPLIT_MEMO_SIZE
