"""Outside-in tracing of curveinv's layers.

Each traced function is replaced by a wrapper at every binding that holds
it: `from .algebra import squarefree_part` copies the reference into several
modules, so every `curveinv.*` module attribute that `is` the original is
patched, and methods are patched on their class.  The program's own code is
left untouched.

A wrapper records a span (name, start, end, parent) while the collector is
active.  Self time is a span's duration minus that of its child spans; the
spans are kept in memory and written as JSON when the run ends.
"""

from __future__ import annotations

import importlib
import json
import random
import statistics
import sys
import time

# (module, attribute path); a dotted path names a method on a class.  The
# module is the layer, and its name prefixes the span: "algebra.squarefree_part".
TRACED = (
    ("field", "FieldCtx.extend_with_root"),
    ("unipoly", "UniPoly.factor"),
    ("unipoly", "UniPoly.roots"),
    ("algebra", "squarefree_part"),
    ("algebra", "squarefree_decomposition"),
    ("algebra", "gcd_bivar"),
    ("algebra", "resultant"),
    ("algebra", "MPoly.substitute"),
    ("series", "series_order"),
    ("hne", "branch_decompose"),
    ("blowup", "strict_transform"),
    ("invariants", "intersection_multiplicity"),
    ("invariants", "milnor"),
    ("invariants", "kappa"),
    ("invariants", "gamma_tilde"),
    ("invariants", "gamma"),
    ("invariants", "verify_relations"),
    ("invariants", "analyze_local"),
    ("invariants", "CoordinateChange.apply"),
    ("oracle", "i_resultant"),
    ("oracle", "delta_semigroup"),
    ("oracle", "dual_degree_elim"),
    ("projective", "singular_points"),
    ("projective", "plucker_analysis"),
    ("corpus", "evaluate_item"),
    ("cli", "main"),
)

# Functions whose distinct inputs are counted, to expose repeated work.
DISTINCT = {"algebra.squarefree_part", "hne.branch_decompose"}

# Exceptions that mean a give-up rather than a defect, by span name.
GIVE_UPS = {
    "blowup.strict_transform": "NeedsExtension",
    "oracle.i_resultant": "ShearExhausted",
    "oracle.dual_degree_elim": "EliminationDegenerate",
}

# Spans beyond this many are only aggregated, so memory stays bounded.
MAX_SPANS = 200_000


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.split('.')[-1]}"


def _poly_key(f):
    # MPoly terms map exponent tuples to hashable FieldElements
    return (f.ctx.descriptor(), f.vars, frozenset(f.terms.items()))


class Collector:
    """Spans and per-name aggregates of one traced run."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.item = None
        self.top_ns = 0  # time covered by spans that have no parent
        self._stack: list[list] = []  # [span id, children ns]
        self._next_id = 0

    def wrap(self, name: str, fn):
        collector = self
        give_up = GIVE_UPS.get(name)
        distinct = collector.distinct.get(name)

        def traced(*args, **kwargs):
            if not collector.active:
                return fn(*args, **kwargs)
            if distinct is not None:
                # keyed before the span starts: the cost lands in the caller
                distinct.add(_poly_key(args[0]))
            collector._next_id += 1
            sid = collector._next_id
            parent = collector._stack[-1][0] if collector._stack else None
            frame = [sid, 0]
            collector._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == give_up:
                    collector.raised[name] = collector.raised.get(name, 0) + 1
                raise
            finally:
                end = time.perf_counter_ns()
                collector._stack.pop()
                dur = end - start
                collector.calls[name] = collector.calls.get(name, 0) + 1
                collector.total_ns[name] = collector.total_ns.get(name, 0) + dur
                collector.self_ns[name] = (
                    collector.self_ns.get(name, 0) + dur - frame[1]
                )
                if collector._stack:
                    collector._stack[-1][1] += dur
                else:
                    collector.top_ns += dur
                if len(collector.spans) < MAX_SPANS:
                    collector.spans.append(
                        (sid, parent, name, start, end, collector.item)
                    )
                else:
                    collector.dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, also=()) -> None:
        """Patch every binding of every traced function in the loaded curveinv
        modules and in the modules `also` names (callers that imported them)."""
        for module, path in TRACED:
            importlib.import_module(f"curveinv.{module}")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "curveinv" or n.startswith("curveinv."))
        ] + list(also)
        for module, path in TRACED:
            name = span_name(module, path)
            owner = sys.modules[f"curveinv.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                cls_attr = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(name, cls_attr))
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def summary(self) -> dict:
        """Aggregates by span name, with distinct-input and give-up counts."""
        out = {}
        for module, path in TRACED:
            name = span_name(module, path)
            calls = self.calls.get(name, 0)
            row = {
                "calls": calls,
                "self_s": self.self_ns.get(name, 0) / 1e9,
                "total_s": self.total_ns.get(name, 0) / 1e9,
            }
            if name in DISTINCT:
                row["distinct"] = len(self.distinct[name])
            if name == "blowup.strict_transform":
                row["needs_extension"] = self.raised.get(name, 0)
            elif name in GIVE_UPS:
                row["inconclusive"] = self.raised.get(name, 0)
            out[name] = row
        return out

    def dump(self, path: str, extra: dict) -> None:
        data = dict(extra)
        data["layers"] = self.summary()
        data["spans_dropped"] = self.dropped
        data["spans"] = [
            {"id": s[0], "parent": s[1], "name": s[2], "start_ns": s[3],
             "end_ns": s[4], "item": s[5]}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(data, fh)


def field_ns() -> dict:
    """Per-operation cost of the public FieldElement operators, in ns.

    The contexts are the ones branch_decompose ends in for an F_7 germ whose
    tangent cone needs F_{7^3} and for a QQ germ that needs a tower QQ(a, b);
    the decomposition runs uncertified, which yields the same context.
    """
    from curveinv.algebra import parse_poly
    from curveinv.field import FieldCtx
    from curveinv.hne import branch_decompose

    fp = FieldCtx.prime(7)
    qq = FieldCtx.rationals()
    contexts = {
        "Fp": fp,
        "Fq": branch_decompose(parse_poly("5*x^3+6*y^3+y^5", fp), certify=False).ctx,
        "QQ": qq,
        "QQa": branch_decompose(
            parse_poly("-3*x^4-3/4*x^2*y^2-3*x*y^3-3/2*x*y^4", qq), certify=False
        ).ctx,
    }
    ops = {
        "mul": (lambda a, b: a * b, ("Fp", "Fq", "QQ", "QQa")),
        "add": (lambda a, b: a + b, ("Fp", "Fq", "QQ", "QQa")),
        "inv": (lambda a, b: a.inverse(), ("Fq", "QQa")),
    }
    out = {}
    for op, (fn, kinds) in ops.items():
        for kind in kinds:
            ctx = contexts[kind]
            rng = random.Random(0)
            pairs = []
            while len(pairs) < 64:
                a, b = ctx.sample(rng), ctx.sample(rng)
                if not a.is_zero():
                    pairs.append((a, b))
            reps = []
            for _ in range(5):
                done = 0
                start = time.perf_counter_ns()
                while done == 0 or time.perf_counter_ns() - start < 20_000_000:
                    for a, b in pairs:
                        fn(a, b)
                    done += len(pairs)
                reps.append((time.perf_counter_ns() - start) / done)
            out[f"field.{op}_ns.{kind}"] = statistics.median(reps)
    return out
