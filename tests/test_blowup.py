"""Blow-up charts, tangent directions, and the infinitely near tree."""

from __future__ import annotations

import random

import pytest

from curveinv.algebra import MPoly, parse_poly, squarefree_part
from curveinv.blowup import NeedsExtension, strict_transform
from curveinv.errors import NotSingularAtOrigin
from curveinv.field import FieldCtx
from curveinv.hne import branch_decompose

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


def test_chart_identity_is_exact():
    rng = random.Random(0xB10)
    for ctx in (QQ, FieldCtx.prime(5), FieldCtx.prime(2)):
        x = MPoly.variable(ctx, XY, "x")
        y = MPoly.variable(ctx, XY, "y")
        for _ in range(8):
            f = _random_germ(ctx, rng)
            m = f.order()
            try:
                charts = strict_transform(f)
            except NeedsExtension:
                continue
            for ch in charts:
                c = ctx.zero if ch.center is None else ch.center
                cpoly = MPoly.constant(ctx, XY, c)
                if ch.chart == "x":
                    pulled = f.substitute([x, x * (y + cpoly)])
                    assert pulled == (x**m) * ch.local_eq
                else:
                    pulled = f.substitute([y * (x + cpoly), y])
                    assert pulled == (y**m) * ch.local_eq
                # the new origin lies on the strict transform
                assert ch.local_eq.constant_term().is_zero()


def test_cusp_tree():
    tree = branch_decompose(parse_poly("y^2-x^3", QQ)).tree
    assert tree.multiplicities() == [2, 1]
    assert tree.delta_contribution() == 1


def test_node_tree():
    tree = branch_decompose(parse_poly("x*y", QQ)).tree
    assert sorted(tree.multiplicities()) == [1, 1, 2]
    assert tree.delta_contribution() == 1
    assert len(tree.children) == 2


def test_tacnode_pair_tree():
    f = parse_poly("(y^2-x^3)*(y^2+x^3)", QQ)
    tree = branch_decompose(f).tree
    assert sorted(tree.multiplicities()) == [1, 1, 2, 2, 4]
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
        a = branch_decompose(f, prefer="x_first").tree.delta_contribution()
        b = branch_decompose(f, prefer="y_first").tree.delta_contribution()
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
    assert sorted(tree.multiplicities()) == [1, 1, 2]
    assert tree.delta_contribution() == 1


def test_missing_origin_rejected():
    with pytest.raises(NotSingularAtOrigin):
        branch_decompose(parse_poly("1+x", QQ))


def test_tree_json_shape():
    data = branch_decompose(parse_poly("y^2-x^3", QQ)).tree.to_json()
    assert data["mult"] == 2
    assert data["children"][0]["chart"] == "x"
    assert data["children"][0]["center"] == "0"
    assert data["children"][0]["tree"] == {"mult": 1, "children": []}
