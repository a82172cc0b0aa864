"""The acceptance gate.

Nine fixed criteria, one test per criterion, named so the -v report reads as
a checklist.  Frozen values are asserted exactly; runtime ceilings are
enforced with perf_counter inside the tests themselves.  Each test also
prints an `[acceptance]` line for humans running with -s.
"""

import json
import math
import random
import time

from curveinv.algebra import parse_poly, squarefree_part
from curveinv.blowup import NeedsExtension, strict_transform
from curveinv.cli import main
from curveinv.corpus import (
    CorpusSpec,
    _branch_built_poly,
    _branch_defining_poly,
    _sparse_poly,
    ctx_for,
    generate,
)
from curveinv.field import FieldCtx
from curveinv.invariants import (
    branch_count,
    char_exceeds,
    delta,
    gamma,
    gamma_tilde,
    germ,
    intersection_multiplicity,
    kappa,
    milnor,
    multiplicity,
    swan,
)
from curveinv.oracle import dual_degree_elim, i_resultant
from curveinv.projective import plucker_analysis

QQ = FieldCtx.rationals()


def _stamp(n: int) -> None:
    print(f"[acceptance] criterion {n}: PASS")


def _germ(text: str, char: int):
    return parse_poly(text, ctx_for(char))


def test_criterion_1_gamma_is_coordinate_dependent():
    start = time.perf_counter()
    f = _germ("x^3+x^4+y^5", 3)
    g = _germ("(x+y)^3+(x+y)^4+y^5", 3)
    assert gamma_tilde(f) == 8
    assert gamma_tilde(g) == 10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _stamp(1)


def test_criterion_2_smooth_and_node_base_cases():
    assert gamma_tilde(_germ("x", 0)) == 0
    assert gamma_tilde(_germ("y", 0)) == 0
    assert gamma_tilde(_germ("x*y", 0)) == 1
    _stamp(2)


def test_criterion_3_wild_cusp_across_characteristics():
    f2 = _germ("y^2+x^3", 2)
    assert kappa(f2) == 4
    assert delta(f2) == 1
    assert branch_count(f2) == 1
    assert multiplicity(f2) == 2
    assert not milnor(f2).is_finite
    # strict polar bound: 4 > 2*delta + mt - r = 3, and indeed not m-good
    assert int(kappa(f2)) > 2 * delta(f2) + multiplicity(f2) - branch_count(f2)

    f3 = _germ("y^2+x^3", 3)
    assert kappa(f3) == 3
    assert int(kappa(f3)) == 2 * delta(f3) + multiplicity(f3) - branch_count(f3)

    # the finite intersection numbers behind those values, recounted by the
    # shear-resultant oracle
    for f, other, expected in (
        (f2, f2.partial(0), 4),
        (f2, parse_poly("x", f2.ctx), 2),
        (f2, parse_poly("y", f2.ctx), 3),
        (f3, f3.partial(1), 3),
    ):
        assert intersection_multiplicity(f, other) == expected
        assert i_resultant(f, other, seed=0xACC3) == expected
    _stamp(3)


def test_criterion_4_char_zero_classical_formulas():
    rng = random.Random(0xACC4)
    checked = 0
    while checked < 100:
        gen = _sparse_poly if checked % 2 == 0 else _branch_built_poly
        f = gen(QQ, rng, 5)
        if f is None:
            continue
        mu = milnor(f)
        dlt = delta(f)
        r = branch_count(f)
        mt = multiplicity(f)
        assert mu.is_finite
        assert int(mu) == 2 * dlt - r + 1
        assert kappa(f) == 2 * dlt - r + mt
        gt = gamma_tilde(f)
        assert gt == int(mu)
        g = gamma(f)
        assert g.kind == "exact" and g.value == gt
        checked += 1
    _stamp(4)


def test_criterion_5_positive_characteristic_corpus_gate(capsys):
    start = time.perf_counter()
    code = main(["corpus", "run", "--seed", "42", "--json"])
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["chars"] == [2, 3, 5, 7]
    assert data["max_degree"] == 5
    assert data["count"] == 200
    assert data["passed"] == 200
    assert data["failed"] == 0
    assert data["failures"] == []
    assert data["oracle_skips"] * 10 < data["count"]
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        _stamp(5)


def test_criterion_6_tame_polar_consequences_on_corpus():
    checked = 0
    for item in generate(CorpusSpec(seed=42)):
        f = _germ(item.poly, item.char)
        kap = kappa(f)
        if not kap.is_finite or not char_exceeds(item.char, int(kap)):
            continue
        mu = milnor(f)
        sw = swan(f)
        assert mu.is_finite
        assert sw is not None and sw == 0
        assert int(kap) == int(mu) + multiplicity(f) - 1
        assert int(kap) == 2 * delta(f) + multiplicity(f) - branch_count(f)
        checked += 1
    assert checked >= 40, f"only {checked} tame items, gate is too weak"
    _stamp(6)


def test_criterion_7_class_degree_desk_checks():
    curves = (("y^2*z-x^3-x^2*z", 4), ("y^2*z-x^3", 3), ("x^2+y^2-z^2", 2))
    for char in (0, 11):
        ctx = ctx_for(char)
        for text, expected in curves:
            start = time.perf_counter()
            F = parse_poly(text, ctx, ("x", "y", "z"))
            assert plucker_analysis(F).product == expected
            assert dual_degree_elim(F, seed=0xACC7) == expected
            elapsed = time.perf_counter() - start
            assert elapsed < 10.0, f"{text} over char {char} took {elapsed:.1f}s"
    _stamp(7)


def _seeded_branches(rng, equal_orders: bool, want: int):
    """Irreducible one-branch germs, classified by axis contact orders."""
    out = []
    while len(out) < want:
        char = rng.choice((0, 2, 3, 5, 7))
        ctx = ctx_for(char)
        m = rng.randint(2, 3)
        k = rng.randint(m + 1, m + 4)
        if equal_orders:
            exps = {m: ctx.one, k: ctx.sample(rng)}
        else:
            exps = {k: ctx.one}
        if math.gcd(m, k) != 1 or (equal_orders and exps[k].is_zero()):
            continue
        f = _branch_defining_poly(ctx, m, exps)
        if not squarefree_part(f)[1]:
            continue
        bs = germ(f).branches
        if bs.r != 1:
            continue
        b = bs.branches[0]
        if equal_orders != (b.ix == b.iy):
            continue
        out.append((f, bs.mt))
    return out


def test_criterion_8_blowup_law_for_gamma():
    rng = random.Random(0xACC8)
    for equal_orders in (False, True):
        checked = 0
        for f, mt in _seeded_branches(rng, equal_orders, 30):
            try:
                charts = strict_transform(f)
            except NeedsExtension:
                continue
            assert len(charts) == 1
            law = mt * mt - mt + gamma_tilde(charts[0].local_eq)
            if equal_orders:
                assert gamma_tilde(f) >= law
            else:
                assert gamma_tilde(f) == law
            checked += 1
        assert checked == 30, f"only {checked} branches reached the law"
    _stamp(8)


def test_criterion_9_byte_identical_reports(capsys):
    def capture(argv):
        code = main(argv)
        assert code == 0
        return capsys.readouterr().out

    analyze = ["local", "analyze", "--char", "3", "--poly", "x^3+x^4+y^5",
               "--emit-branches", "--emit-tree", "--json"]
    assert capture(analyze) == capture(analyze)

    corpus = ["corpus", "run", "--seed", "42", "--count", "20", "--json"]
    assert capture(corpus) == capture(corpus)
    with capsys.disabled():
        _stamp(9)
