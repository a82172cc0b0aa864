"""Cross-checks: the brute-force oracles against the branch-based invariants."""

from __future__ import annotations

import random

import pytest

import curveinv.oracle as oracle
from curveinv.algebra import MPoly, parse_poly, squarefree_part
from curveinv.cli import main
from curveinv.errors import (
    CurveInvError,
    EliminationDegenerate,
    InternalCheckError,
    NotReduced,
    ShearExhausted,
    UndefinedAtOrigin,
    UnsupportedInput,
)
from curveinv.field import FieldCtx
from curveinv.invariants import INF, ExtNat, delta, germ, intersection_multiplicity
from curveinv.oracle import (
    DUAL_FRAMES,
    _pullback_rows,
    branch_semigroup,
    delta_semigroup,
    dual_degree_elim,
    i_resultant,
)
from curveinv.projective import plucker_analysis

QQ = FieldCtx.rationals()
F3 = FieldCtx.prime(3)
F11, F13, F17, F101 = (FieldCtx.prime(p) for p in (11, 13, 17, 101))
XY = ("x", "y")
XYZ = ("x", "y", "z")


def q(text):
    return parse_poly(text, QQ)


def proj(text, ctx=QQ):
    return parse_poly(text, ctx, XYZ)


# -- intersection numbers -------------------------------------------------------


def test_i_resultant_frozen_values():
    assert i_resultant(q("x"), q("y")) == 1
    assert i_resultant(q("y^2-x^3"), q("y^2+x^3")) == 6
    assert i_resultant(q("x"), q("x*(1+y)")) == INF


def test_i_resultant_edge_conventions():
    assert i_resultant(q("x"), q("1+y")) == 0
    assert i_resultant(q("y^2-x^3"), MPoly.zero(QQ, XY)) == INF
    with pytest.raises(UndefinedAtOrigin) as oracle_err:
        i_resultant(q("1+x"), q("y"))
    with pytest.raises(UndefinedAtOrigin) as main_err:
        intersection_multiplicity(q("1+x"), q("y"))
    assert str(oracle_err.value) == str(main_err.value)


@pytest.mark.parametrize("ctx", [QQ, FieldCtx.prime(2), F3], ids=str)
def test_a_common_factor_off_the_origin_is_divided_out(ctx):
    # 1+x is a unit at the origin, so i(y*(y^2-x^3), x+y^2) = 3 remains
    f = parse_poly("y*(1+x)*(y^2-x^3)", ctx)
    g = parse_poly("(x+y^2)*(1+x)", ctx)
    assert intersection_multiplicity(f, g) == i_resultant(f, g) == ExtNat(3)


def test_i_resultant_tangential_and_tiny_field():
    # tangent smooth branches, and a char-2 pair that forces field enlargement
    assert i_resultant(q("y-x^2"), q("y+x^2")) == 2
    F2 = FieldCtx.prime(2)
    f = parse_poly("y^2+y*x+x^3", F2)
    g = parse_poly("y+x^2", F2)
    assert i_resultant(f, g) == intersection_multiplicity(f, g)


def test_each_field_gets_its_own_shear_retries():
    # no shear of F_3 certifies this pair; F_9 certifies at its 8th draw
    f = parse_poly("x*y+x^3+2*x^2*y+2*x*y^2+2*y^3", F3)
    g = parse_poly("x+2*x*y^2", F3)
    assert i_resultant(f, g, seed=295) == intersection_multiplicity(f, g) == ExtNat(3)
    assert i_resultant(f, g, seed=295, retries=20) == ExtNat(3)
    with pytest.raises(ShearExhausted):  # F_9 has more than 5 elements
        i_resultant(f, g, seed=295, retries=5)


def test_i_resultant_matches_main_on_random_pairs():
    rng = random.Random(0x0AC1E)
    done = 0
    skipped = 0
    while done < 40:
        ctx = rng.choice([QQ, F3, FieldCtx.prime(2), FieldCtx.prime(5)])
        fs = []
        for _ in range(2):
            terms = {}
            for _ in range(4):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                if e != (0, 0):
                    terms[e] = ctx.sample(rng)
            fs.append(MPoly(ctx, XY, terms))
        f, g = fs
        if f.is_zero() or not f.constant_term().is_zero():
            continue
        if not g.constant_term().is_zero():
            continue
        try:
            got = i_resultant(f, g, seed=done)
        except ShearExhausted:
            skipped += 1
            done += 1
            continue
        assert got == intersection_multiplicity(f, g)
        done += 1
    assert skipped <= done // 10


# -- delta by gap counting ------------------------------------------------------


def test_delta_semigroup_frozen_values():
    assert delta_semigroup(q("y^2-x^3")) == 1
    assert delta_semigroup(q("x*y")) == 1
    assert delta_semigroup(q("(y^2-x^3)*(y-x)")) == 3


def test_delta_semigroup_rejects_non_reduced():
    with pytest.raises(NotReduced):
        delta_semigroup(q("x^2"))
    with pytest.raises(NotReduced):
        delta_semigroup(MPoly.zero(QQ, XY))


def test_branch_semigroup_cusp():
    data = branch_semigroup(q("y^2-x^3"))
    assert data.conductor == 2
    assert data.gaps == 1
    assert 1 not in data.values
    assert {0, 2, 3, 4}.issubset(data.values)


def test_branch_semigroup_values_closed_under_addition():
    for text in ("y^2-x^3", "y^3-x^4", "y^2-x^5"):
        data = branch_semigroup(q(text))
        top = max(data.values)
        for v in data.values:
            for w in data.values:
                if v + w <= top:
                    assert v + w in data.values
        # every order past the conductor is realized
        assert all(n in data.values for n in range(data.conductor, top + 1))
        assert data.gaps == len([n for n in range(data.conductor) if n not in data.values])


def test_branch_semigroup_wants_one_branch():
    with pytest.raises(ValueError):
        branch_semigroup(q("x*y"))


def test_delta_semigroup_matches_main_random():
    rng = random.Random(0xDE17A)
    done = 0
    while done < 12:
        ctx = rng.choice([QQ, F3])
        terms = {}
        for _ in range(4):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            if e != (0, 0):
                terms[e] = ctx.sample(rng)
        f = MPoly(ctx, XY, terms)
        if f.is_zero() or f.order() is None or f.order() < 1:
            continue
        if not squarefree_part(f)[1]:
            continue
        assert delta_semigroup(f) == delta(f)
        done += 1


@pytest.mark.parametrize("text, ctx", [
    ("(y^2-x^3)*(y-x)", QQ), ("x*y*(y^2-x^5)", QQ), ("y*(x^3-y^4)*(x-2*y^2)", QQ),
    ("x*(y^3+x^7+x^5*y)", F3), ("(y^2+x^3)*(y+x^2)*y", F3),
])
def test_pullback_rows_match_every_power_product(text, ctx):
    # the rows skip the powers and the products that truncate to zero, and
    # equal the nonzero rows of every power product x(t)^a * y(t)^b, sorted
    # by the least order on a branch
    bs = germ(parse_poly(text, ctx)).branches
    prec = 2 * bs.tree.delta_contribution() + 3
    F, expected = bs.ctx, []
    for a in range(prec):
        for b in range(prec):
            row = []
            for xs, ys in (br.series.at(prec) for br in bs.branches):
                block = [F.rone] + [F.rzero] * (prec - 1)
                for s in [xs] * a + [ys] * b:
                    block = F.rconv(block, s, prec)
                row += block
            orders = [next((k for k, c in enumerate(row[i:i + prec]) if not F.ris_zero(c)), prec)
                      for i in range(0, len(row), prec)]
            if min(orders) < prec:
                expected.append(((min(orders), (a, b)), row))
    expected.sort(key=lambda kr: kr[0])
    assert _pullback_rows(bs, prec) == [row for _, row in expected]


# -- dual degree by elimination -------------------------------------------------


def test_dual_degree_frozen_values_char0():
    assert dual_degree_elim(proj("z*y^2-x^3-x^2*z")) == 4
    assert dual_degree_elim(proj("z*y^2-x^3")) == 3
    assert dual_degree_elim(proj("x^2+y*z")) == 2


def test_dual_degree_frozen_values_char11():
    F11 = FieldCtx.prime(11)
    assert dual_degree_elim(proj("z*y^2-x^3-x^2*z", F11)) == 4
    assert dual_degree_elim(proj("z*y^2-x^3", F11)) == 3
    assert dual_degree_elim(proj("x^2+y*z", F11)) == 2


def test_dual_degree_line_triangle():
    # three concurrent-free lines: every tangent count is swallowed by the nodes
    assert dual_degree_elim(proj("x*y*z")) == 0


def test_dual_degree_matches_plucker_on_quartic():
    # a cusp in the chart and a two-branch contact point at infinity
    F = proj("y^2*z^2-x^4-x^3*z", FieldCtx.prime(101))
    rep = plucker_analysis(F)
    assert rep.product == 5
    assert dual_degree_elim(F) == 5


def test_dual_degree_matches_plucker_on_the_trifolium():
    # three smooth branches with distinct tangents at the origin (delta 3,
    # kappa 6), whose gcds run over the QQ(a,b) the singular-point search reaches
    F = proj("(x^2+y^2)^2-z*(x^3-3*x*y^2)")
    assert plucker_analysis(F).product == dual_degree_elim(F) == 6


def test_dual_degree_preconditions():
    with pytest.raises(ValueError):
        dual_degree_elim(proj("x^5+y^5+x*y^3*z"))
    with pytest.raises(ValueError):
        dual_degree_elim(proj("z*y^2-x^3-x^2*z", F3))
    with pytest.raises(ValueError):
        dual_degree_elim(proj("x+y+z"))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dual_degree_elim(proj("x^5+y^5+x*y^3*z")), "degree at most four"),
        (lambda: dual_degree_elim(proj("x+y+z")), "a line has no dual curve"),
        (lambda: dual_degree_elim(proj("z*y^2-x^3-x^2*z", F3)), "tame characteristic"),
        (lambda: branch_semigroup(q("x*y")), "single branches"),
    ],
    ids=["degree", "line", "wild_characteristic", "several_branches"],
)
def test_oracle_preconditions_are_boundary_errors(call, message):
    # bad input to an oracle, which the CLI reports with exit 1
    with pytest.raises(UnsupportedInput, match=message) as err:
        call()
    assert isinstance(err.value, CurveInvError)


# -- the multiplicity ceiling of the dual recount -------------------------------

TRIFOLIUM = "(x^2+y^2)^2-z*(x^3-3*x*y^2)"
DESK_CUBICS = ("x^2+y^2-z^2", "y^2*z-x^3", "y^2*z-x^3-x^2*z")
DESK_QUARTICS = ("x^4+y^4-x^2*z^2", "y^2*z^2-x^4-x^3*z", "x^3*z+y^4+x*y^2*z", "x^2*y^2+y^2*z^2+z^2*x^2")


def _six_frame_rule(F, seed, monkeypatch):
    """(dual_degree_elim's answer, the answer of the rule without the ceiling).

    The reference draws all DUAL_FRAMES frames from the same seeded rng, on
    the curve and singular points dual_degree_elim handed its first frame,
    and returns the maximum once two frames attain it; None stands for
    EliminationDegenerate on either side.
    """
    real, seen = oracle._one_frame, []

    def record(FT, sing, d, rng):
        seen.append((FT, sing, d))
        return real(FT, sing, d, rng)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_one_frame", record)
        try:
            got = dual_degree_elim(F, seed=seed)
        except EliminationDegenerate:
            got = None
    FT, sing, d = seen[0]
    rng = random.Random(seed)
    values = [v for v in (real(FT, sing, d, rng) for _ in range(DUAL_FRAMES)) if v is not None]
    best = max(values, default=None)
    return got, best if values.count(best) >= 2 else None


def _curve_id(v):
    if isinstance(v, FieldCtx):
        return v.descriptor()
    return "-".join(map(str, v)) if isinstance(v, tuple) else str(v)


@pytest.mark.parametrize(
    "ctx, text, seeds",
    [(ctx, t, (0xD0A1, 0, 1, 7, 42)) for ctx in (QQ, F11) for t in DESK_CUBICS]
    + [(ctx, t, (0xD0A1, 0, 1, 7, 42)) for ctx in (F13, F17) for t in DESK_QUARTICS]
    + [(QQ, TRIFOLIUM, (0xD0A1, 42)), (QQ, "x*y*z", (0xD0A1, 1, 42)),
       (F101, "x*y*z", (0xD0A1, 1, 42)), (F101, "y^2*z^2-x^4-x^3*z", (0xD0A1, 1, 42))],
    ids=_curve_id,
)
def test_the_ceiling_keeps_the_six_frame_answer(ctx, text, seeds, monkeypatch):
    F = proj(text, ctx)
    for seed in seeds:
        got, expected = _six_frame_rule(F, seed, monkeypatch)
        assert got == expected is not None, seed


@pytest.mark.parametrize(
    "ctx, text, frames",
    [
        (QQ, "x^2+y^2-z^2", 2),  # smooth: the ceiling is d(d-1)
        (QQ, "y^2*z-x^3-x^2*z", 2),  # a node
        (F13, "x^3*z+y^4+x*y^2*z", 2),  # an ordinary triple point
        (QQ, "x^2*y^2+y^2*z^2+z^2*x^2", 2),  # three nodes
        (QQ, TRIFOLIUM, 2),  # an ordinary triple point over QQ(a,b)
        (QQ, "x*y*z", 2),  # three nodes, ceiling 0
        (F13, "x^2*y^2+y^2*z^2+z^2*x^2", 3),  # frames 6, 4, 6: one below the ceiling
        (QQ, "y^2*z-x^3", 6),  # a cusp: kappa 3 > m(m-1) = 2
        (F13, "x^4+y^4-x^2*z^2", 6),  # a tacnode: kappa 4 > 2
    ],
    ids=_curve_id,
)
def test_two_frames_at_the_ceiling_end_the_search(ctx, text, frames, monkeypatch):
    real, calls = oracle._one_frame, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "_one_frame", counted)
    dual_degree_elim(proj(text, ctx))
    assert len(calls) == frames


def test_a_frame_past_the_ceiling_is_a_defect(monkeypatch, capsys):
    # the nodal cubic's ceiling is 3*2 - 2*1 = 4, its product; a frame that
    # stripped too little would have become the maximum
    monkeypatch.setattr(oracle, "_one_frame", lambda FT, sing, d, rng: 4)
    assert dual_degree_elim(proj("y^2*z-x^3-x^2*z")) == 4
    monkeypatch.setattr(oracle, "_one_frame", lambda FT, sing, d, rng: 5)
    with pytest.raises(InternalCheckError, match="past the ceiling 4"):
        dual_degree_elim(proj("y^2*z-x^3-x^2*z"))
    # the dual suite starts with that cubic, and a defect exits 2
    assert main(["oracle", "compare", "--suite", "dual", "--char", "0"]) == 2
    assert "past the ceiling 4" in capsys.readouterr().err
