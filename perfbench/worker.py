"""One pass of an in-process workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--mode setup|pass]
                                [--trace-out FILE] [--limit N] [--freeze]

The worker imports curveinv, builds the pass's inputs and prints `READY`; the
parent's clock from launch to that line is the set-up time.  In `pass` mode
it then times each item in turn, one after the other, and prints one JSON
line with the outputs, the latencies, its peak resident memory and the
reference-speed probes it ran before each item and after the last.  With
`--trace-out` the layers are wrapped first and the trace is written there.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), default="pass")
    ap.add_argument("--trace-out")
    ap.add_argument("--limit", type=int)
    ap.add_argument("--freeze", action="store_true")
    args = ap.parse_args()

    import workloads
    from refspeed import probe

    items = workloads.build(args.workload, args.seed, args.limit)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    collector = None
    if args.trace_out:
        from layertrace import Collector, field_ns

        collector = Collector()
        collector.install(also=[workloads])

    rows = []
    probes = []
    wall = 0.0
    for item in items:
        probes.append(probe())
        if collector is not None:
            collector.item = item.index
            collector.active = True
        error = None
        output = None
        start = time.perf_counter()
        try:
            output = item.call()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - start
        if collector is not None:
            collector.active = False
        wall += latency
        rows.append({
            "index": item.index,
            "char": item.char,
            "base": item.base,
            "input": item.input,
            "latency_s": latency,
            "output": output,
            "error": error,
        })

    probes.append(probe())
    result = {
        "rows": rows,
        "probes": probes,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
    }
    if collector is not None:
        result["layers"] = collector.summary()
        result["wall_s"] = wall
        result["unattributed_s"] = wall - collector.top_ns / 1e9
        collector.dump(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                        "wall_s": wall})
        result["field_ns"] = field_ns()
    if args.freeze:
        for row, item in zip(rows, items):
            row["field"] = workloads.branch_field(args.workload, item)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
