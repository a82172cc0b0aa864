"""Deterministic germ corpus: generation, evaluation, and summary assembly.

A corpus is described by a :class:`CorpusSpec` and expands to a list of
items, each a (characteristic, polynomial text) pair with a provenance tag.
Generation is a pure function of the seed; evaluation of one item is a pure
function of the item, so items can be fanned out to worker processes and
merged back by index with no effect on the outcome.

Three generators are mixed.  Sparse polynomials are cheap but their singular
points are usually ordinary; the branch-built generator therefore cooks a
parametrization (t^m, sum c_j t^j) and recovers its defining equation by
eliminating t, which manufactures cusps and higher-contact germs on demand.
The third source is a fixed catalog of small classics, each pinned to the
characteristic where it is interesting.
"""

from __future__ import annotations

import math
import os
import random
import shlex
from dataclasses import dataclass

from .algebra import MPoly, is_reduced, parse_poly, resultant
from .errors import EliminationDegenerate, ShearExhausted, UnsupportedInput
from .field import FieldCtx, _is_prime, ctx_for
from .invariants import delta, intersection_multiplicity, verify_relations
from .oracle import delta_semigroup, i_resultant

__all__ = [
    "CorpusItem",
    "CorpusSpec",
    "ctx_for",
    "evaluate_item",
    "generate",
    "recount",
    "run_corpus",
    "summarize",
]

# (char, germ) pairs worth keeping in every corpus; the characteristic is
# part of the example, so CorpusSpec.chars does not filter these.
CATALOG: tuple[tuple[int, str], ...] = (
    (3, "x^3+x^4+y^5"),
    (3, "(x+y)^3+(x+y)^4+y^5"),
    (2, "y^2+x^3"),
    (3, "y^2+x^3"),
    (0, "x*y"),
    (0, "x"),
    (2, "y^4+x^6+x^7"),
    (0, "(y^2-x^3)*(y^2+x^3)"),
    (5, "y^2-x^5"),
    (7, "y^3-x^5"),
)


@dataclass(frozen=True)
class CorpusItem:
    index: int
    char: int
    poly: str
    source: str
    seed: int


@dataclass(frozen=True)
class CorpusSpec:
    chars: tuple[int, ...] = (2, 3, 5, 7)
    max_degree: int = 5
    count: int = 200
    seed: int = 0
    mix: tuple[int, int, int] = (50, 30, 20)

    def validate(self) -> None:
        if self.count < 0:
            raise UnsupportedInput("count must be nonnegative")
        if self.max_degree < 1:
            raise UnsupportedInput("max degree must be at least one")
        if not self.chars:
            raise UnsupportedInput("at least one characteristic is required")
        for p in self.chars:
            if p != 0 and not _is_prime(p):
                raise UnsupportedInput(f"characteristic {p} is neither 0 nor a prime")
        if len(self.mix) != 3 or any(w < 0 for w in self.mix) or sum(self.mix) == 0:
            raise UnsupportedInput("mix needs three nonnegative weights, not all zero")


def _nonzero_sample(ctx: FieldCtx, rng: random.Random):
    while True:
        c = ctx.sample(rng)
        if not c.is_zero():
            return c


def _sparse_poly(ctx: FieldCtx, rng: random.Random, dmax: int) -> MPoly | None:
    for _ in range(64):
        terms = {}
        for _ in range(rng.randint(3, 5)):
            e = (rng.randint(0, dmax), rng.randint(0, dmax))
            if 1 <= e[0] + e[1] <= dmax:
                terms[e] = ctx.sample(rng)
        f = MPoly(ctx, ("x", "y"), terms)
        if f.is_zero() or f.order() is None or f.order() < 1:
            continue
        if not is_reduced(f):
            continue
        return f
    return None


_T3 = ("t", "x", "y")


def _branch_defining_poly(
    ctx: FieldCtx, m: int, coeffs: dict[int, object]
) -> MPoly:
    """Defining equation of (t^m, sum c_j t^j), by eliminating t.

    x - t^m is monic of degree m in t, so the resultant is the product of
    y - P(t) over the m branches of t = x^(1/m): exactly the defining
    polynomial of the image, with no stray factor.
    """
    one = ctx.one
    a = MPoly(ctx, _T3, {(0, 1, 0): one, (m, 0, 0): -one})
    b_terms: dict[tuple[int, int, int], object] = {(0, 0, 1): one}
    for j, c in coeffs.items():
        b_terms[(j, 0, 0)] = -c
    b = MPoly(ctx, _T3, b_terms)
    r = resultant(a, b, "t")
    return MPoly._from_reps(ctx, ("x", "y"), {(e[1], e[2]): c for e, c in r.reps.items()})


def _one_branch(ctx: FieldCtx, rng: random.Random, dmax: int) -> MPoly | None:
    for _ in range(64):
        m = rng.randint(2, min(3, dmax - 1) if dmax >= 3 else 2)
        picks = rng.sample(range(m + 1, m + 5), rng.randint(1, 2))
        if math.gcd(m, math.gcd(*picks) if len(picks) > 1 else picks[0]) != 1:
            continue
        f = _branch_defining_poly(ctx, m, {j: _nonzero_sample(ctx, rng) for j in picks})
        if 1 <= f.degree() <= dmax and is_reduced(f):
            return f
    return None


def _branch_built_poly(ctx: FieldCtx, rng: random.Random, dmax: int) -> MPoly | None:
    f = _one_branch(ctx, rng, dmax)
    if f is None:
        return None
    if rng.random() < 0.4:
        # a transversal line makes the germ reducible without deepening it
        line = MPoly(
            ctx, ("x", "y"), {(0, 1): ctx.one, (1, 0): -_nonzero_sample(ctx, rng)}
        )
        g = f * line
        if g.degree() <= dmax and is_reduced(g):
            return g
    return f


def generate(spec: CorpusSpec) -> list[CorpusItem]:
    """Expand a spec into items; a pure function of the spec."""
    spec.validate()
    rng = random.Random(spec.seed)
    sources = ("sparse", "branch", "catalog")
    items: list[CorpusItem] = []
    catalog_at = 0
    for index in range(spec.count):
        source = rng.choices(sources, weights=spec.mix)[0]
        item_seed = (spec.seed * 0x9E3779B1 + index) & 0xFFFFFFFF
        if source == "catalog":
            char, text = CATALOG[catalog_at % len(CATALOG)]
            catalog_at += 1
        else:
            char = rng.choice(spec.chars)
            ctx = ctx_for(char)
            gen = _sparse_poly if source == "sparse" else _branch_built_poly
            f = gen(ctx, rng, spec.max_degree)
            if f is None:
                # a starved generator falls back to a catalog entry rather
                # than shrinking the corpus
                source = "catalog"
                char, text = CATALOG[catalog_at % len(CATALOG)]
                catalog_at += 1
            else:
                text = str(f)
        items.append(CorpusItem(index, char, text, source, item_seed))
    return items


def _companion_germ(ctx: FieldCtx, rng: random.Random) -> MPoly:
    while True:
        terms = {}
        for _ in range(3):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            if 1 <= e[0] + e[1]:
                terms[e] = ctx.sample(rng)
        g = MPoly(ctx, ("x", "y"), terms)
        if not g.is_zero():
            return g


def recount(main, oracle) -> tuple:
    """(oracle(), "agree" or "disagree" with main), or ("none", "skip") if the oracle gives up."""
    try:
        got = oracle()
    except (ShearExhausted, EliminationDegenerate):
        return "none", "skip"
    return got, "agree" if got == main else "disagree"


def evaluate_item(item: CorpusItem) -> dict:
    """Relations plus oracle recounts for one item; JSON-safe output."""
    out: dict = {
        "index": item.index,
        "char": item.char,
        "poly": item.poly,
        "source": item.source,
    }
    ctx = ctx_for(item.char)
    try:
        f = parse_poly(item.poly, ctx)
        rels = verify_relations(f)
        failed = sorted(k for k, v in rels.items() if v == "fail")
        out["relations"] = "pass" if not failed else "fail:" + ",".join(failed)
        out["oracle_delta"] = recount(delta(f), lambda: delta_semigroup(f))[1]
        g = _companion_germ(ctx, random.Random(item.seed))
        main = intersection_multiplicity(f, g)
        out["oracle_intersection"] = recount(main, lambda: i_resultant(f, g, seed=item.seed))[1]
    except Exception as exc:
        # any failure, a stray internal exception included, fails this item
        # only; the rest of the corpus still runs
        out["relations"] = f"error:{type(exc).__name__}"
        out["oracle_delta"] = "skip"
        out["oracle_intersection"] = "skip"
    ok = out["relations"] == "pass" and "disagree" not in (
        out["oracle_delta"],
        out["oracle_intersection"],
    )
    out["status"] = "pass" if ok else "fail"
    return out


def run_corpus(items: list[CorpusItem]) -> list[dict]:
    """Evaluate every item; results come back in input order regardless of
    scheduling, so the summary is deterministic."""
    workers = min(4, os.cpu_count() or 1) if len(items) >= 16 else 1
    if workers == 1:
        return [evaluate_item(it) for it in items]
    import multiprocessing  # loaded only here, so `local analyze` does not pay for it

    with multiprocessing.Pool(workers) as pool:
        return list(pool.imap(evaluate_item, items, chunksize=4))


def _repro_command(row: dict) -> str:
    return "curveinv local verify --char {} --poly {}".format(
        row["char"], shlex.quote(row["poly"])
    )


def summarize(spec: CorpusSpec, rows: list[dict]) -> dict:
    failures = [
        {
            "index": row["index"],
            "char": row["char"],
            "poly": row["poly"],
            "source": row["source"],
            "relations": row["relations"],
            "oracle_delta": row["oracle_delta"],
            "oracle_intersection": row["oracle_intersection"],
            "repro": _repro_command(row),
        }
        for row in rows
        if row["status"] != "pass"
    ]
    skips = sum(1 for row in rows if row["oracle_intersection"] == "skip")
    return {
        "seed": spec.seed,
        "chars": list(spec.chars),
        "max_degree": spec.max_degree,
        "mix": list(spec.mix),
        "count": len(rows),
        "passed": sum(1 for row in rows if row["status"] == "pass"),
        "failed": len(failures),
        "oracle_skips": skips,
        "skip_rate": f"{skips}/{len(rows)}" if rows else "0/0",
        "failures": failures,
    }
