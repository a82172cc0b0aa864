"""Local invariants: intersection numbers, mu, delta, kappa, gammas, relations."""

from __future__ import annotations

import math
import operator
import random
from collections import Counter

import pytest

from curveinv.algebra import MPoly, parse_poly, squarefree_part
from curveinv.errors import IncompatibleContexts, InternalCheckError, NotReduced, UndefinedAtOrigin
from curveinv.field import FieldCtx, _flat_finite_ctx
from curveinv.invariants import (
    GAMMA_SEED,
    INF,
    CoordinateChange,
    ExtNat,
    analyze_local,
    delta,
    gamma,
    gamma_tilde,
    germ,
    intersection_multiplicity,
    kappa,
    milnor,
    swan,
    verify_relations,
)

QQ = FieldCtx.rationals()
F2 = FieldCtx.prime(2)
F3 = FieldCtx.prime(3)
F7 = FieldCtx.prime(7)
XY = ("x", "y")


def q(text):
    return parse_poly(text, QQ)


def test_extnat_arithmetic():
    assert ExtNat(3) + 4 == 7
    assert (INF + 5) == INF
    assert INF > ExtNat(10**9)
    assert ExtNat(7) - 2 == 5
    assert (INF - 3) == INF
    with pytest.raises(InternalCheckError):
        ExtNat(3) - INF
    assert INF.to_json() == "inf"
    assert ExtNat(6).to_json() == 6


def test_extnat_subtracting_infinity_is_a_defect():
    for a in (ExtNat(0), INF):
        with pytest.raises(InternalCheckError):
            a - INF


def test_extnat_int_of_infinity_is_a_defect():
    assert int(ExtNat(4)) == 4
    with pytest.raises(InternalCheckError):
        int(INF)


_ORDERS = (operator.lt, operator.le, operator.gt, operator.ge)


def test_extnat_orders_like_the_extended_naturals():
    def value(a):
        return a if isinstance(a, int) else (math.inf if a.value is None else a.value)

    for a in (ExtNat(0), ExtNat(3), INF):
        for b in (ExtNat(0), ExtNat(3), INF, 0, 3, 5):
            for op in _ORDERS:
                assert op(a, b) is op(value(a), value(b)), (op.__name__, a, b)
                assert op(b, a) is op(value(b), value(a)), (op.__name__, b, a)


def test_extnat_does_not_order_against_other_types():
    for a in (ExtNat(3), INF):
        for other in ("a", 2.5, None):
            for op in _ORDERS:
                with pytest.raises(TypeError):
                    op(a, other)
                with pytest.raises(TypeError):
                    op(other, a)


def test_intersection_basics():
    assert intersection_multiplicity(q("x"), q("y")) == 1
    assert intersection_multiplicity(q("y^2-x^3"), q("y^2+x^3")) == 6
    assert intersection_multiplicity(q("x"), q("x+x*y")) == INF
    assert intersection_multiplicity(q("x*y"), q("x+y")) == 2
    # unit second argument
    assert intersection_multiplicity(q("x"), q("1+y")) == 0
    with pytest.raises(UndefinedAtOrigin):
        intersection_multiplicity(q("1+x"), q("y"))


def test_intersection_rejects_mixed_rings_before_the_edge_rules():
    f5 = FieldCtx.prime(5)
    for g in (parse_poly("1+y", f5), MPoly.zero(f5, XY), parse_poly("y", f5)):
        with pytest.raises(IncompatibleContexts):
            intersection_multiplicity(q("x"), g)


def test_intersection_symmetry_random():
    rng = random.Random(0x15EC)
    pairs = 0
    while pairs < 25:
        ctx = rng.choice([QQ, F3, FieldCtx.prime(5)])
        fs = []
        for _ in range(2):
            terms = {}
            for _ in range(3):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                if e != (0, 0):
                    terms[e] = ctx.sample(rng)
            fs.append(MPoly(ctx, XY, terms))
        f, g = fs
        if f.is_zero() or g.is_zero():
            continue
        if not (f.constant_term().is_zero() and g.constant_term().is_zero()):
            continue
        assert intersection_multiplicity(f, g) == intersection_multiplicity(g, f)
        pairs += 1


def test_intersection_weights_nonreduced_first_argument():
    # i(x^2, y) counts the axis twice
    assert intersection_multiplicity(q("x^2"), q("y")) == 2


def test_milnor_values():
    assert milnor(q("x*y")) == 1
    assert milnor(q("y^2-x^3")) == 2
    assert milnor(parse_poly("y^2+x^3", F2)) == INF
    assert milnor(parse_poly("y^2+x^3", F3)) == INF
    assert milnor(q("y-x^2")) == 0
    with pytest.raises(NotReduced):
        milnor(q("(y-x)^2"))


def test_delta_values():
    assert delta(q("x*y")) == 1
    assert delta(q("y^2-x^3")) == 1
    assert delta(parse_poly("y^2+x^3", F2)) == 1
    assert delta(q("(y^2-x^3)*(y^2+x^3)")) == 8
    assert delta(q("(y^2-x^3)*(y-x)")) == 3


def test_kappa_values():
    assert kappa(q("x*y")) == 2
    assert kappa(parse_poly("y^2+x^3", F2)) == 4
    assert kappa(parse_poly("y^2+x^3", F3)) == 3
    assert kappa(q("y^2-x^3")) == 3


def test_gamma_tilde_axes_and_node():
    assert gamma_tilde(q("x")) == 0
    assert gamma_tilde(q("y")) == 0
    assert gamma_tilde(q("x*y")) == 1


def test_gamma_tilde_values():
    assert gamma_tilde(q("y^2-x^3")) == 2
    assert gamma_tilde(q("x*(y^2-x^3)")) == 5
    assert gamma_tilde(parse_poly("x^3+x^4+y^5", F3)) == 8
    assert gamma_tilde(parse_poly("(x+y)^3+(x+y)^4+y^5", F3)) == 10


def test_gamma_tilde_unit_factor_is_invisible():
    assert gamma_tilde(q("(1+x)*(y^2-x^3)")) == 2
    assert gamma_tilde(q("x*(1+y)")) == 0


def test_swan_values():
    assert swan(q("y^2-x^3")) == 0
    assert swan(parse_poly("x*y", F2)) == 0
    assert swan(parse_poly("y^2+x^3", F2)) is None
    # mu = i(x^3, 2y^4) = 12 while 2*delta - r + 1 = 8: wild, Swan 4
    assert swan(parse_poly("x^3+x^4+y^5", F3)) == 4


def test_goodness_predicates():
    f2c = parse_poly("y^2+x^3", F2)
    assert not germ(f2c).m_good
    assert germ(f2c).im_good
    assert germ(parse_poly("y^2+x^3", F3)).m_good
    assert germ(q("(y^2-x^3)*(y^2+x^3)")).m_good
    assert germ(q("x*y")).im_good
    # ix = 5 alone does not break im-goodness: iy = 3 rescues the branch
    f5 = parse_poly("x^3+x^4+y^5", FieldCtx.prime(5))
    assert germ(f5).im_good
    # single branch (t^4, t^6+t^7): both contact orders even
    wild = parse_poly("y^4+x^6+x^7", F2)
    assert not germ(wild).im_good


def test_gamma_exact_cases():
    g = gamma(q("y^2-x^3"))
    assert g.kind == "exact" and g.value == 2 and g.certified

    g = gamma(parse_poly("x^3+x^4+y^5", F3))
    assert g.kind == "exact" and g.value == 8
    # the certificate determines delta = 4 here
    assert delta(parse_poly("x^3+x^4+y^5", F3)) == 4

    g = gamma(parse_poly("y^2+x^3", F2))
    assert g.kind == "exact" and g.value == 2


def test_gamma_sheared_pair_still_exact():
    # the diagonal form needs a coordinate change before the floor is reached
    f = parse_poly("(x+y)^3+(x+y)^4+y^5", F3)
    assert gamma_tilde(f) == 10
    g = gamma(f)
    assert g.kind == "exact" and g.value == 8
    assert g.witness is not None and g.witness.label != "identity"


# Every candidate gamma tries, as (label, x image, y image), in its order:
# the identity, the swap, 4 random linear changes, a shear per tangent that
# is neither axis, 6 random smooth changes.  The draws are the default seed's.
_LINEAR_DRAWS = [("linear", "x+y", "x"), ("linear", "x", "y"), ("linear", "y", "x"), ("linear", "x+y", "y")]
_SMOOTH_DRAWS = [
    ("smooth", "x", "y"),
    ("smooth", "x+x^2*y", "y"),
    ("smooth", "x", "y+x^2*y"),
    ("smooth", "x+x*y", "y"),
    ("smooth", "x", "y+x*y"),
    ("smooth", "x+x*y", "y"),
]
_SEARCHES = {
    "x^2+y^2+x^3*y": [("identity", "x", "y"), ("swap", "y", "x"), *_LINEAR_DRAWS, ("shear", "x", "x+y"), *_SMOOTH_DRAWS],
    "y^4+x^6+x^7": [("identity", "x", "y"), ("swap", "y", "x"), *_LINEAR_DRAWS, *_SMOOTH_DRAWS],
}


@pytest.mark.parametrize("text", sorted(_SEARCHES))
def test_gamma_tries_its_candidates_in_one_order(monkeypatch, text):
    tried = []
    real = CoordinateChange.truncated_inverse

    def recording(change):
        tried.append((change.label, str(change.x_image), str(change.y_image)))
        return real(change)

    monkeypatch.setattr(CoordinateChange, "truncated_inverse", recording)
    assert gamma(parse_poly(text, F2)).kind == "interval"
    assert tried == _SEARCHES[text]


@pytest.mark.parametrize(
    "text, seed, result, witness",
    [
        ("x^2+y^2+x^3", GAMMA_SEED, {"kind": "exact", "value": 2}, ("linear", "x+y", "x")),
        (
            "x*y^2+y^3+x^5",
            GAMMA_SEED,
            {"kind": "interval", "lower": 8, "upper": 8, "safe_lower": 7},
            ("identity", "x", "y"),
        ),
        ("x*y^2+y^3+x^5", 2, {"kind": "exact", "value": 7}, ("smooth", "x", "y+x^2")),
        (
            "x^2+x^3*y+x^2*y^2+y^4",
            2,
            {"kind": "interval", "lower": 7, "upper": 7, "safe_lower": 6},
            ("smooth", "x+y^2", "y"),
        ),
    ],
)
def test_gamma_results_and_witnesses_are_frozen(text, seed, result, witness):
    g = gamma(parse_poly(text, F2), seed=seed)
    assert g.to_json() == result
    assert (g.witness.label, str(g.witness.x_image), str(g.witness.y_image)) == witness
    assert g.certified == (result["kind"] == "exact")


def test_r10_rechecks_the_swap_with_the_seeded_units(monkeypatch):
    # R10 multiplies f by a unit, then its swap (y, x) by the next unit drawn
    from curveinv import invariants

    checked = []
    real = invariants._germ_if_reduced

    def recording(f):
        checked.append(str(f))
        return real(f)

    monkeypatch.setattr(invariants, "_germ_if_reduced", recording)
    assert verify_relations(parse_poly("y^2+x^3", F7))["R10"] == "pass"
    assert checked == [
        "y^2+x^3+2*x*y^2+2*x^4+4*x^2*y^4+4*x^5*y^2",
        "x^2+x^2*y+y^3+y^4+6*x^3*y^2+6*x*y^5",
    ]


def test_gamma_interval_never_contradicts_floor():
    rng = random.Random(0x9A77A)
    done = 0
    while done < 8:
        ctx = rng.choice([F2, F3])
        terms = {}
        for _ in range(4):
            e = (rng.randint(0, 4), rng.randint(0, 4))
            if e != (0, 0):
                terms[e] = ctx.sample(rng)
        f = MPoly(ctx, XY, terms)
        if f.is_zero() or f.order() is None or f.order() < 2 or f.degree() > 5:
            continue
        if not squarefree_part(f)[1]:
            continue
        res = gamma(f)
        floor = res.safe_lower
        if res.kind == "exact":
            assert res.value == floor
        else:
            assert res.lower == floor + 1
            assert res.upper >= res.lower
            assert gamma_tilde(f) >= res.upper
        done += 1


def test_coordinate_change_inverse_check():
    from curveinv.invariants import CoordinateChange

    x = MPoly.variable(QQ, XY, "x")
    y = MPoly.variable(QQ, XY, "y")
    ch = CoordinateChange(x + y * y, y - x * x, truncation=4)
    u, v = ch.truncated_inverse()
    assert u.terms[(1, 0)] == QQ.one
    with pytest.raises(InternalCheckError):
        CoordinateChange(x + y, x + y, truncation=3)
    with pytest.raises(InternalCheckError):
        CoordinateChange(x + MPoly.constant(QQ, XY, QQ.one), y, truncation=3)


def test_relations_named_curves():
    rels = verify_relations(parse_poly("y^2+x^3", F2))
    assert rels["R4"] == "pass"
    assert rels["R2"] == "pass"
    assert "fail" not in rels.values()

    rels = verify_relations(parse_poly("x^3+x^4+y^5", F3))
    assert "fail" not in rels.values()

    rels = verify_relations(q("(y^2-x^3)*(y^2+x^3)"))
    assert "fail" not in rels.values()
    assert rels["R9"] == "skip"

    rels = verify_relations(q("y^2-x^3"))
    assert rels["R9"] == "pass"
    assert "fail" not in rels.values()


def test_r7_and_r8_fall_back_to_the_line_x_over_f2():
    from curveinv.invariants import _line_not_dividing

    # both lines through the origin rational over F_2 other than x divide f
    f = parse_poly("y*(x+y)", F2)
    assert _line_not_dividing(f) == parse_poly("x", F2)
    rels = verify_relations(f)
    assert (rels["R7"], rels["R8"]) == ("pass", "pass")
    # every line rational over F_2 divides f
    f = parse_poly("x*y*(x+y)", F2)
    assert _line_not_dividing(f) is None
    rels = verify_relations(f)
    assert (rels["R7"], rels["R8"]) == ("skip", "skip")


def test_relations_char0_random():
    rng = random.Random(0xC0)
    done = 0
    while done < 6:
        terms = {}
        for _ in range(4):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            if e != (0, 0):
                terms[e] = QQ.sample(rng)
        f = MPoly(QQ, XY, terms)
        if f.is_zero() or f.order() is None or f.order() < 1 or f.degree() > 5:
            continue
        if not squarefree_part(f)[1]:
            continue
        rels = verify_relations(f)
        assert "fail" not in rels.values()
        done += 1


def test_report_shape_and_values():
    rep = analyze_local(parse_poly("y^2+x^3", F2))
    data = rep.to_json()
    assert list(data.keys()) == [
        "char",
        "field",
        "poly",
        "mt",
        "r",
        "delta",
        "mu",
        "kappa",
        "gamma_tilde",
        "gamma",
        "swan",
        "m_good",
        "im_good",
        "right_im_good",
        "relations",
    ]
    assert data["char"] == 2
    assert data["mu"] == "inf"
    assert data["kappa"] == 4
    assert data["swan"] == "undefined"
    assert data["m_good"] is False
    assert data["right_im_good"] == "yes"


def test_report_char0_baseline():
    rep = analyze_local(q("x*y"))
    assert rep.mu == 1 and rep.delta == 1 and rep.r == 2 and rep.kappa == 2
    assert rep.swan == 0
    assert rep.gamma.kind == "exact" and rep.gamma.value == 1
    assert rep.right_im_good == "yes"


def test_report_smooth_point():
    rep = analyze_local(q("y-x^2"))
    assert rep.mt == 1 and rep.r == 1
    assert rep.mu == 0 and rep.delta == 0 and rep.kappa == 0
    assert rep.swan == 0
    assert rep.gamma_tilde == 0


def test_germ_memo_stays_bounded(monkeypatch):
    from curveinv import invariants

    monkeypatch.setattr(invariants, "_GERMS", type(invariants._GERMS)())
    for k in range(invariants._GERM_MEMO_SIZE + 10):
        assert delta(q(f"y-{k + 1}*x^2")) == 0
    assert len(invariants._GERMS) == invariants._GERM_MEMO_SIZE


def test_kappa_after_delta_reuses_the_branches(monkeypatch):
    from curveinv import invariants

    calls = []
    real = invariants.decompose_reduced

    def counting(f, **kwargs):
        calls.append(f)
        return real(f, **kwargs)

    monkeypatch.setattr(invariants, "_GERMS", type(invariants._GERMS)())
    monkeypatch.setattr(invariants, "decompose_reduced", counting)
    f = q("(y^2-x^3)*(y-x^2)")
    delta(f)
    assert len(calls) == 1
    kappa(f)
    assert len(calls) == 1
    assert germ(f).kappa == kappa(f)


@pytest.mark.parametrize(
    "text",
    [
        "(y^2-x^3)*(y-x^2)",
        "-3/4*x*y^2+4*x^3*y+y^4-2*x^5",
        "7*x^3+3/4*x^4+5/4*x^2*y^3-8*x*y^4",
    ],
)
def test_kappa_and_gamma_tilde_take_each_partial_once(monkeypatch, text):
    # one pair of partials over the branches' field serves both; the last
    # germ is divisible by x, so its gamma_tilde reads the cofactor's germ
    from curveinv import invariants

    taken = Counter()
    real = MPoly.partial

    def counting(f, var_idx):
        taken[(f.ctx.descriptor(), str(f), var_idx)] += 1
        return real(f, var_idx)

    monkeypatch.setattr(invariants, "_GERMS", type(invariants._GERMS)())
    G = germ(q(text))
    G.branches
    monkeypatch.setattr(MPoly, "partial", counting)
    G.kappa
    G.gamma_tilde
    assert taken and set(taken.values()) == {1}, taken


@pytest.mark.parametrize("text", ["x^2-y^3", "3/4*x^2-1/4*y^3"])
def test_relations_decompose_each_curve_once(monkeypatch, text):
    # squarefree pieces come back normalized; a piece that is a constant
    # multiple of f must reuse f's branches instead of decomposing again
    from curveinv import invariants

    curves = []
    real = invariants.decompose_reduced

    def counting(f, **kwargs):
        curves.append(f.normalized())
        return real(f, **kwargs)

    monkeypatch.setattr(invariants, "_GERMS", type(invariants._GERMS)())
    monkeypatch.setattr(invariants, "decompose_reduced", counting)
    verify_relations(q(text))
    assert len(curves) == len(set(curves))


@pytest.mark.parametrize("text, ctx", [("3/4*x^2-1/4*y^3", QQ), ("2*x^3+y^2", F3)])
def test_analyze_decomposes_each_curve_once(monkeypatch, text, ctx):
    # a non-monic f and the normalized copies that gamma and the relations
    # build from it are one germ, decomposed once
    from curveinv import invariants

    curves = []
    real = invariants.decompose_reduced

    def counting(f, **kwargs):
        curves.append(f.normalized())
        return real(f, **kwargs)

    monkeypatch.setattr(invariants, "_GERMS", type(invariants._GERMS)())
    monkeypatch.setattr(invariants, "decompose_reduced", counting)
    analyze_local(parse_poly(text, ctx))
    assert len(curves) == len(set(curves))


def test_germ_of_a_constant_multiple_is_the_same_germ():
    f73 = _flat_finite_ctx(7, 3)
    qa = QQ.extend([-2, 0, 1])
    assert f73._log is not None  # computed through the log tables
    constants = (F3.from_int(2), f73.gen(), QQ.from_int(-5) / 3, qa.gen() + 1)
    for ctx, c in zip((F3, f73, QQ, qa), constants):
        f = parse_poly("y^2-x^3+x*y^3", ctx)
        assert germ(f.scale(c)) is germ(f)


def _unmemoized_report(f: MPoly) -> dict:
    from curveinv import invariants
    from curveinv.cli import _branch_payload

    invariants._GERMS.clear()
    data = analyze_local(f).to_json()
    del data["poly"]
    data["branches"] = _branch_payload(f, 8)
    data["tree"] = germ(f).branches.tree.to_json()
    return data


def test_invariants_do_not_see_a_constant_factor(monkeypatch):
    # the premise of germ's key: every published number and every branch
    # datum of c*f equals that of f, computed from scratch each time
    from curveinv import invariants
    from curveinv.corpus import _branch_built_poly, _nonzero_sample

    monkeypatch.setattr(invariants, "_GERMS", type(invariants._GERMS)())
    rng = random.Random(0xC0F)
    cases = [
        (parse_poly("5*x^3+6*y^3+y^5", F7), "Fq:7^3"),  # branches over F_{7^3}
        (q("y^2-2*x^2+x^3"), "QQ(a)"),
    ]
    for ctx in (F3, F7, QQ):  # F_2 has no constant but 1
        while (f := _branch_built_poly(ctx, rng, 4)) is None:
            pass
        cases.append((f, None))
    for f, field in cases:
        while (c := _nonzero_sample(f.ctx, rng)) == f.ctx.one:
            pass
        expected = _unmemoized_report(f)
        assert _unmemoized_report(f.scale(c)) == expected, (str(f), str(c))
        if field is not None:
            assert expected["branches"]["field"] == field


@pytest.mark.parametrize(
    "text", ["7*x^3+3/4*x^4+5/4*x^2*y^3-8*x*y^4", "-3/4*x*y^2+4*x^3*y+y^4-2*x^5"]
)
def test_tangent_cones_over_qq_a_factor_without_a_norm(text, monkeypatch):
    # both germs restart over QQ(a); every cone they factor there has its
    # coefficients in QQ, so the descent to QQ leaves no norm to take
    from curveinv import invariants, unipoly

    norms = []

    def counted(f):
        norms.append(f"{f} over {f.ctx.descriptor()}")
        return trager(f)

    trager = unipoly._factor_trager
    monkeypatch.setattr(invariants, "_GERMS", type(invariants._GERMS)())
    monkeypatch.setattr(unipoly, "_factor_trager", counted)
    f = q(text)
    assert germ(f).branches.ctx.descriptor() == "QQ(a)"
    for invariant in (milnor, delta, kappa, gamma_tilde, gamma):
        invariant(f)
    assert norms == []
