"""Command-line front end.

JSON output (``--json``) is the machine interface: insertion-ordered keys,
no timestamps, no floats, byte-identical across runs of the same command
line.  Text output is for people and carries no stability promise.

Exit codes: 0 success, 1 usage or input validation, 2 a structural relation
or oracle comparison failed or an unexpected exception escaped (a library
defect, worth a bug report; stderr carries a one-line repro), 3 the
randomized oracles gave up too often to be conclusive.  ``local verify``
instead exits with the number of failed relations, so 0 still means clean.
A reader that closes stdout early (``| head``) ends the command with exit 0
and nothing on stderr: nothing failed, the rest of the output is dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shlex
import sys

from .algebra import MPoly, parse_poly
from .errors import (
    EliminationDegenerate,
    InternalCheckError,
    NotHomogeneous,
    NotReduced,
    NotSingularAtOrigin,
    ParseError,
    PositiveDimensionalSingularLocus,
    ReducibleCurve,
    ShearExhausted,
    UndefinedAtOrigin,
    UnsupportedInput,
)
from .invariants import (
    GAMMA_SEED,
    analyze_local,
    delta,
    germ,
    intersection_multiplicity,
    verify_relations,
)
from .field import ctx_for

# corpus, oracle and projective are imported by the handlers that use them,
# so a `local` command neither loads nor compiles them

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Rendering


def _emit(data: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(data, indent=2))
    else:
        for line in _text_lines(data):
            print(line)


def _text_lines(data, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_text_lines(value, indent + 1))
        elif isinstance(value, list) and any(isinstance(v, dict) for v in value):
            lines.append(f"{pad}{key}:")
            for entry in value:
                block = _text_lines(entry, indent + 2)
                if block:
                    first = block[0].lstrip()
                    block[0] = "  " * (indent + 1) + "- " + first
                lines.extend(block)
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {', '.join(str(v) for v in value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


# ---------------------------------------------------------------------------
# Shared argument handling


def _local_input(args) -> MPoly:
    ctx = ctx_for(args.char)
    return parse_poly(args.poly, ctx)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UnsupportedInput(f"expected a comma-separated integer list, got {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommands


def _branch_payload(f: MPoly, prec: int) -> dict:
    bs = germ(f).branches
    rows = []
    for b in bs.branches:
        xs, ys = b.param(prec)
        rows.append(
            {
                "ix": "inf" if b.ix is None else b.ix,
                "iy": "inf" if b.iy is None else b.iy,
                "x": [str(c) for c in xs],
                "y": [str(c) for c in ys],
            }
        )
    return {"field": bs.ctx.descriptor(), "branches": rows}


def cmd_local_analyze(args) -> int:
    if args.prec < 0:
        raise UnsupportedInput("prec must be nonnegative")
    f = _local_input(args)
    report = analyze_local(f, seed=args.seed)
    data = report.to_json()
    if args.emit_branches:
        data["branches"] = _branch_payload(f, args.prec)
    if args.emit_tree:
        data["tree"] = germ(f).branches.tree.to_json()
    _emit(data, args.json)
    return 0


def cmd_local_verify(args) -> int:
    f = _local_input(args)
    rels = verify_relations(f)
    failed = sorted(k for k, v in rels.items() if v == "fail")
    data = {
        "char": args.char,
        "poly": args.poly,
        "relations": rels,
        "failed": len(failed),
    }
    _emit(data, args.json)
    return len(failed)


def cmd_projective_analyze(args) -> int:
    from .projective import PROJ_VARS, plucker_analysis

    ctx = ctx_for(args.char)
    F = parse_poly(args.poly, ctx, PROJ_VARS)
    try:
        report = plucker_analysis(F, assume_irreducible=args.assume_irreducible)
    except PositiveDimensionalSingularLocus as exc:
        _emit({"status": "rejected", "reason": str(exc)}, args.json)
        return 0
    _emit(report.to_json(), args.json)
    return 0


def cmd_corpus_run(args) -> int:
    from .corpus import CorpusSpec, generate, run_corpus, summarize

    spec = CorpusSpec(
        chars=_int_list(args.char),
        max_degree=args.max_degree,
        count=args.count,
        seed=args.seed,
        mix=_int_list(args.mix),
    )
    rows = run_corpus(generate(spec))
    data = summarize(spec, rows)
    _emit(data, args.json)
    return _exit_code(data["failed"], data["oracle_skips"], data["count"])


def _exit_code(failed: int, skips: int, count: int) -> int:
    """2 when a check failed, else 3 when oracles gave up on a tenth or more of the items."""
    if failed:
        return 2
    if count and skips * 10 >= count:
        return 3
    return 0


def _compare_intersection(char: int, count: int, seed: int) -> list[dict]:
    from .corpus import _companion_germ, _sparse_poly, recount
    from .oracle import i_resultant

    ctx = ctx_for(char)
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        f = _sparse_poly(ctx, rng, 4)
        if f is None:
            continue
        g = _companion_germ(ctx, rng)
        expected = intersection_multiplicity(f, g)
        got, verdict = recount(expected, lambda: i_resultant(f, g, seed=rng.randrange(2**32)))
        row = {"index": index, "f": str(f), "g": str(g), "main": str(expected)}
        rows.append({**row, "oracle": str(got), "verdict": verdict})
    return rows


def _compare_delta(char: int, count: int, seed: int) -> list[dict]:
    from .corpus import _sparse_poly, recount
    from .oracle import delta_semigroup

    ctx = ctx_for(char)
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        f = _sparse_poly(ctx, rng, 4)
        if f is None:
            continue
        row = {"index": index, "f": str(f), "main": delta(f)}
        row["oracle"], row["verdict"] = recount(row["main"], lambda: delta_semigroup(f))
        rows.append(row)
    return rows


# Desk curves for the dual-degree suite: one node, one cusp, one smooth conic.
_DUAL_CURVES = ("y^2*z-x^3-x^2*z", "y^2*z-x^3", "x^2+y^2-z^2")


def _compare_dual(char: int, seed: int) -> list[dict]:
    from .corpus import recount
    from .oracle import dual_degree_elim
    from .projective import PROJ_VARS, plucker_analysis

    ctx = ctx_for(char)
    rows = []
    for index, text in enumerate(_DUAL_CURVES):
        F = parse_poly(text, ctx, PROJ_VARS)
        row = {"index": index, "F": text, "main": plucker_analysis(F).product}
        row["oracle"], row["verdict"] = recount(row["main"], lambda: dual_degree_elim(F, seed=seed))
        rows.append(row)
    return rows


def cmd_oracle_compare(args) -> int:
    if args.count < 0:
        raise UnsupportedInput("count must be nonnegative")
    if args.suite == "intersection":
        rows = _compare_intersection(args.char, args.count, args.seed)
    elif args.suite == "delta":
        rows = _compare_delta(args.char, args.count, args.seed)
    else:
        rows = _compare_dual(args.char, args.seed)
    verdicts = [row["verdict"] for row in rows]
    data = {
        "suite": args.suite,
        "char": args.char,
        "seed": args.seed,
        "count": len(rows),
        "agreements": verdicts.count("agree"),
        "disagreements": verdicts.count("disagree"),
        "skips": verdicts.count("skip"),
        "rows": rows,
    }
    _emit(data, args.json)
    return _exit_code(data["disagreements"], data["skips"], data["count"])


# ---------------------------------------------------------------------------
# Parser


def _add_poly_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--char", type=int, required=True, help="field characteristic (0 or a prime)")
    p.add_argument("--poly", required=True, help="polynomial text, e.g. 'y^2-x^3'")
    p.add_argument("--json", action="store_true", help="emit the stable JSON report")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveinv",
        description="Invariants of plane curve singularities over exact fields.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    local = top.add_parser("local", help="germs at the origin of the affine plane")
    local_sub = local.add_subparsers(dest="command", required=True)

    an = local_sub.add_parser("analyze", help="full invariant report")
    _add_poly_args(an)
    an.add_argument("--seed", type=int, default=GAMMA_SEED, help="seed for the coordinate search")
    an.add_argument("--prec", type=int, default=8, help="series terms per branch")
    an.add_argument("--emit-branches", action="store_true", help="include branch parametrizations")
    an.add_argument("--emit-tree", action="store_true", help="include the infinitely near tree")
    an.set_defaults(func=cmd_local_analyze)

    ve = local_sub.add_parser("verify", help="check the structural relations")
    _add_poly_args(ve)
    ve.set_defaults(func=cmd_local_verify)

    proj = top.add_parser("projective", help="plane projective curves")
    proj_sub = proj.add_subparsers(dest="command", required=True)
    pa = proj_sub.add_parser("analyze", help="singular points and the class formula")
    _add_poly_args(pa)
    pa.add_argument(
        "--assume-irreducible",
        action="store_true",
        help="skip the irreducibility screen",
    )
    pa.set_defaults(func=cmd_projective_analyze)

    corpus = top.add_parser("corpus", help="randomized regression corpus")
    corpus_sub = corpus.add_subparsers(dest="command", required=True)
    cr = corpus_sub.add_parser("run", help="generate and check a corpus")
    cr.add_argument("--char", default="2,3,5,7", help="comma list of characteristics")
    cr.add_argument("--count", type=int, default=200, help="number of items")
    cr.add_argument("--max-degree", type=int, default=5, help="degree cap for generated germs")
    cr.add_argument("--mix", default="50,30,20", help="sparse,branch,catalog weights")
    cr.add_argument("--seed", type=int, default=0, help="corpus seed")
    cr.add_argument("--json", action="store_true", help="emit the stable JSON summary")
    cr.set_defaults(func=cmd_corpus_run)

    oracle = top.add_parser("oracle", help="independent recounts of the invariants")
    oracle_sub = oracle.add_subparsers(dest="command", required=True)
    oc = oracle_sub.add_parser("compare", help="main implementation vs oracle")
    oc.add_argument(
        "--suite",
        choices=("intersection", "delta", "dual"),
        required=True,
        help="which pair of computations to compare",
    )
    oc.add_argument("--char", type=int, default=0, help="field characteristic")
    oc.add_argument("--count", type=int, default=20, help="random cases to draw")
    oc.add_argument("--seed", type=int, default=0, help="rng seed")
    oc.add_argument("--json", action="store_true", help="emit the stable JSON table")
    oc.set_defaults(func=cmd_oracle_compare)

    return parser


_USAGE_ERRORS = (
    ParseError,
    NotReduced,
    NotSingularAtOrigin,
    NotHomogeneous,
    ReducibleCurve,
    UndefinedAtOrigin,
    UnsupportedInput,
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems; fold the
        # latter into this tool's usage code
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ShearExhausted, EliminationDegenerate) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"relation failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped reading; point stdout at devnull so the final
        # flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        # a stray exception is a defect in this library, not bad input
        argv = sys.argv[1:] if argv is None else argv
        message = " ".join(str(exc).split())
        print(
            f"internal error: {type(exc).__name__}: {message}; "
            f"repro: {shlex.join(['curveinv', *argv])}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
