"""The four workloads: their inputs, one timed call per item, and the checks.

Every workload draws from a fixed pool of base inputs.  The seed moves each
base germ or curve by a diagonal change of coordinates x -> a*x, y -> b*y
(z -> c*z for curves) and a constant factor, with a, b, c drawn from the seed:
units of F_p in positive characteristic and signs over QQ.  Such a change
keeps every invariant the workloads check (mu, delta, r, mt, kappa, gamma,
the class degree), keeps the field each germ's branches need, and so keeps
an item's cost, while the coefficients the program sees differ from seed to
seed.  That makes runs with different seeds comparable.  Repeated base germs
get the same change within a run, so repeats stay repeats.

This module imports curveinv and is loaded only by the worker processes and
by the cli_local driver, never before a setup timer starts.
"""

from __future__ import annotations

import json
import random

from curveinv.algebra import MPoly, parse_poly
from curveinv.corpus import CATALOG, CorpusItem, CorpusSpec, ctx_for, evaluate_item, generate
from curveinv.errors import EliminationDegenerate
from curveinv.invariants import (
    branch_count,
    delta,
    gamma,
    gamma_tilde,
    kappa,
    milnor,
    multiplicity,
)
from curveinv.oracle import dual_degree_elim
from curveinv.projective import PROJ_VARS, plucker_analysis

DEFAULT_SEED = 42

WHY = {
    "corpus_charp": "the gate corpus (chars 2,3,5,7): F_p and F_{p^k} arithmetic, squarefree and gcd, "
    "both local oracles and the relations; catalog germs repeat, so reuse shows",
    "char0_classical": "criterion-4 germs over QQ: QQ and QQ(a) arithmetic, series certification and "
    "the gamma search, with no finite-field towers, oracles or repeated germs",
    "projective_desk": "desk curves over QQ and F_p: singular-locus search (resultants, roots, "
    "extension fields at points) and elimination, with little series work",
    "cli_local": "one fresh `local analyze` interpreter per germ: what an interactive user pays, "
    "including import and one-time tables, and the gamma search in char p",
}

# The first 60 items of the seed-42 gate corpus, whose catalog germs repeat.
CORPUS_SPEC = CorpusSpec(seed=42, count=60)

# The first 60 germs of the criterion-4 stream (Random(0xACC4), alternating
# _sparse_poly and _branch_built_poly over QQ, degree 5), less the five whose
# tangent cones need towers that take over 8 s each (stream indices 4, 26,
# 32, 42 and 58; index 32 takes 55 s).  Indices 16 and 44 still need QQ(a).
CHAR0_GERMS = (
    '5/4*x', '-3*x*y^3+y^4-81*x^5+27*x^4*y', '1/3*y-4*x^3+3/2*x^3*y',
    '-y^3+125/27*x^4+35/3*x^3*y+343/27*x^5', '-y^2+x^3', '3/4*x^2-1/4*y^3', '-y^2+x^5',
    '-3/2*y^4-9/4*x^4*y', '-9/4*x*y^3+y^4-6561/256*x^5+729/64*x^4*y',
    '-1/4*x-7/2*x^2+3/2*y^2-8/3*y^3+5/4*x^4', '-y^2+81/4*x^3', '3*x-3*x^2+4*x^2*y^2',
    '-y^2+x^3-7/2*x^4+49/16*x^5', 'x*y-1/2*y^2-3*y^5', 'y^3+1/8*x^4',
    '7*x^3+3/4*x^4+5/4*x^2*y^3-8*x*y^4', '-y^3+64/27*x^4+8*x^3*y+8*x^5',
    '-2*x^2+2*x^3*y+5*x*y^4+3*y^5', 'y^3-27*x^4', '7*y+3/2*x*y^2', '-y^3+27/8*x^5',
    '3*x+5/2*y-9/2*x*y+9/4*x^3*y^2', '-3/2*x*y^3+y^4+3/128*x^5-1/64*x^4*y',
    '-5/4*x-5*x*y-3/4*x^5-3/2*x^3*y^2', '-y^3+8/27*x^5', '-y^2+4*x^3',
    '-4*y^2+9*x^2*y+4*y^5', '-y^2-6*x^2*y-9*x^4+x^5', '-9/4*x+3*x*y^3',
    '-y^2+25/16*x^3+15/4*x^4+9/4*x^5', '-y^3-x^5', '-2*y^2+7/3*x^3', '-y^2+4*x^5',
    '-7/2*x*y+5/2*y^2-2*y^4', '-y^2+36*x^3-6*x^4+1/4*x^5', '8*x+9/4*x^3',
    '-y^2+81*x^5', '-y+1/2*y^5', '-y^2+5/2*x^2*y-25/16*x^4+25*x^5', '-y^2+49*x^3',
    '-3/4*x*y^2+4*x^3*y+y^4-2*x^5', '-y^3-27*x^5', '3*x*y-8*x*y^2',
    '-y^2+25/16*x^3-5/2*x^4+x^5', '-2*x-5/4*x*y-2*x^3-6*x^2*y-7*x*y^4',
    '4/3*x*y^3+y^4+1/48*x^5+1/64*x^4*y', '-2/3*y-3*x^4+2*x^3*y-2*y^5',
    '-y^2-x^2*y-1/4*x^4+25/9*x^5', '-1/4*y+9/4*x*y^3', '-y^2+81/16*x^5',
    '9*x^2-y^3+3*x^4+1/2*x^5', '-y^2-4*x^2*y-4*x^4+16*x^5', '3/2*y^3+7/2*x^4-3/4*y^4',
    '-y^2+1/9*x^3', '-x*y^3+y^4-125/8*x^5+125/8*x^4*y',
)

# Criterion-7 curves over QQ and F_11, then quartics over F_13 and F_17 (the
# elimination oracle needs p > d(d-1)).  Quartics over QQ take 4-537 s each.
_CRITERION_7 = ("x^2+y^2-z^2", "y^2*z-x^3", "y^2*z-x^3-x^2*z")
_QUARTICS = (
    "x^4+y^4-x^2*z^2",
    "y^2*z^2-x^4-x^3*z",
    "x^3*z+y^4+x*y^2*z",
    "x^2*y^2+y^2*z^2+z^2*x^2",
)
PROJECTIVE_CURVES = tuple((c, t) for c in (0, 11) for t in _CRITERION_7) + tuple(
    (c, t) for c in (13, 17) for t in _QUARTICS
)

CLI_GERMS = tuple(CATALOG) + ((7, "5*x^3+6*y^3+y^5"), (7, "2*x^5+3*x^2*y^3+3*x*y^4"))
CLI_FLAGS = ("--emit-branches", "--emit-tree", "--json")


def _units(ctx, rng: random.Random, n: int) -> list:
    if ctx.char == 0:
        return [ctx.one if rng.random() < 0.5 else -ctx.one for _ in range(n)]
    return [ctx.element_at(rng.randrange(1, ctx.order)) for _ in range(n)]


def moved(char: int, text: str, seed: int, vars: tuple[str, ...] = ("x", "y")) -> MPoly:
    """The base polynomial under the seed's diagonal change and constant factor."""
    ctx = ctx_for(char)
    f = parse_poly(text, ctx, vars)
    rng = random.Random(f"{seed}:{char}:{text}")
    *scales, factor = _units(ctx, rng, len(vars) + 1)
    terms = {}
    for exps, c in f.terms.items():
        for s, e in zip(scales, exps):
            c = c * s**e
        terms[exps] = c * factor
    return MPoly(ctx, f.vars, terms)


def _item_seed(seed: int, index: int) -> int:
    return (seed * 0x9E3779B1 + index) & 0xFFFFFFFF


class Item:
    """One timed call: `call` runs it on `input`, the seed's move of `base`."""

    def __init__(self, index: int, char: int, base: str, call, input: str):
        self.index = index
        self.char = char
        self.base = base
        self.call = call
        self.input = input


def build(workload: str, seed: int, limit: int | None = None) -> list[Item]:
    """The workload's items for this seed: generation and parsing, untimed by items."""
    if workload == "corpus_charp":
        items = []
        for it in generate(CORPUS_SPEC)[:limit]:
            text = str(moved(it.char, it.poly, seed))
            ci = CorpusItem(it.index, it.char, text, it.source, _item_seed(seed, it.index))
            items.append(Item(it.index, it.char, it.poly, lambda ci=ci: evaluate_item(ci), text))
        return items
    if workload == "char0_classical":
        items = []
        for i, text in enumerate(CHAR0_GERMS[:limit]):
            f = moved(0, text, seed)
            items.append(Item(i, 0, text, lambda f=f: _classical(f), str(f)))
        return items
    if workload == "projective_desk":
        items = []
        for i, (char, text) in enumerate(PROJECTIVE_CURVES[:limit]):
            F = moved(char, text, seed, PROJ_VARS)
            items.append(Item(2 * i, char, text, lambda F=F: plucker_analysis(F).product, str(F)))
            elim_seed = _item_seed(seed, i)
            items.append(
                Item(2 * i + 1, char, text,
                     lambda F=F, s=elim_seed: _elim(F, s), str(F))
            )
        return items
    raise ValueError(f"no in-process workload {workload!r}")


def cli_commands(seed: int, limit: int | None = None) -> list[tuple[int, int, str, str, list[str]]]:
    """(index, char, base germ, germ, argv after `-m curveinv.cli`) per command."""
    out = []
    for i, (char, text) in enumerate(CLI_GERMS[:limit]):
        poly = str(moved(char, text, seed))
        # `--poly=` keeps a leading minus sign from reading as an option
        argv = ["local", "analyze", "--char", str(char), f"--poly={poly}", *CLI_FLAGS]
        out.append((i, char, text, poly, argv))
    return out


def _classical(f: MPoly) -> dict:
    g = gamma(f)
    return {
        "mu": str(milnor(f)),
        "delta": delta(f),
        "r": branch_count(f),
        "mt": multiplicity(f),
        "kappa": str(kappa(f)),
        "gamma_tilde": gamma_tilde(f),
        "gamma": g.to_json(),
    }


def _elim(F: MPoly, seed: int):
    try:
        return dual_degree_elim(F, seed=seed)
    except EliminationDegenerate:
        return "inconclusive"


# ---------------------------------------------------------------------------
# Checks.  Each returns (failed reason or None, inconclusive).

def check_corpus(row, frozen, exact: bool):
    if not isinstance(row, dict):
        return f"unexpected output {row!r}", False
    if row["status"] != "pass":
        return f"status {row['status']}: {row['relations']}", False
    if exact and row != frozen["output"]:
        return "differs from the frozen row", False
    return None, row["oracle_intersection"] == "skip"


def check_classical(out, frozen, exact: bool):
    mu, dlt, r, mt = out["mu"], out["delta"], out["r"], out["mt"]
    if mu == "inf":
        return "mu is infinite in characteristic 0", False
    mu = int(mu)
    if mu != 2 * dlt - r + 1:
        return "mu != 2*delta - r + 1", False
    if out["kappa"] != str(2 * dlt - r + mt):
        return "kappa != 2*delta - r + mt", False
    if out["gamma_tilde"] != mu:
        return "gamma_tilde != mu", False
    if out["gamma"] != {"kind": "exact", "value": mu}:
        return f"gamma not exact and equal to mu: {out['gamma']}", False
    # every value here is invariant under the seed's change of coordinates
    if out != frozen["output"]:
        return "differs from the frozen invariants", False
    return None, False


def check_projective(out, frozen, exact: bool):
    if out == "inconclusive":
        return None, True
    if out != frozen["output"]:
        return f"product {out} != frozen {frozen['output']}", False
    return None, False


# Keys of the `local analyze` report that a diagonal change of coordinates
# keeps, compared on every seed; the whole stdout is compared on the default.
CLI_INVARIANT_KEYS = ("char", "mt", "r", "delta", "mu", "kappa", "swan", "m_good", "im_good")


def check_cli(out, frozen, exact: bool):
    code, stdout = out
    if code == 3:
        return None, True
    if code != 0:
        return f"exit code {code}", False
    data = json.loads(stdout)
    if any(v == "fail" for v in data["relations"].values()):
        return f"relations {data['relations']}", False
    want = json.loads(frozen["output"][1])
    for key in CLI_INVARIANT_KEYS:
        if data[key] != want[key]:
            return f"{key} {data[key]!r} != frozen {want[key]!r}", False
    if data["branches"]["field"] != want["branches"]["field"]:
        return "branch field differs from frozen", False
    if exact and stdout != frozen["output"][1]:
        return "stdout differs from frozen", False
    return None, False


CHECKS = {
    "corpus_charp": check_corpus,
    "char0_classical": check_classical,
    "projective_desk": check_projective,
    "cli_local": check_cli,
}


def branch_field(workload: str, item: Item) -> str:
    """Field the branches of the item's base input end in (used when freezing)."""
    from curveinv.hne import branch_decompose

    ctx = ctx_for(item.char)
    if workload == "projective_desk":
        return plucker_analysis(parse_poly(item.base, ctx, PROJ_VARS)).field
    return branch_decompose(parse_poly(item.base, ctx)).ctx.descriptor()
