"""curveinv benchmark: four sequential, closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process, each item started only after the previous one
returned.  An item is one timed call into the program; a pass is every item
of the workload once, in a fresh interpreter, so the process-global memos
start empty as they do for a user's `corpus run` or CLI call.  Passes repeat
until at least S seconds of item time and 20 items are measured.  Every
output is checked; see workloads.py for the inputs and the checks.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics, its timings at reference speed (see refspeed.py); with
--trace 1 one untraced and one traced pass run and the result holds the
per-layer metrics.  The lines before it name each metric
with its unit, including fail_frac and inconclusive_frac, the property
shares and the run's metadata, which also go to perfbench/out/.

    --freeze            rewrite perfbench/frozen/NAME.json from one pass at
                        the default seed (42); frozen outputs are compared
                        exactly at that seed
    --limit N           use the first N base inputs only (self-test)
    --frozen-dir DIR    read frozen outputs from DIR (self-test)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refspeed import NOMINAL_S, probe, speed_factor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
FROZEN = BENCH / "frozen"

WORKLOADS = ("corpus_charp", "char0_classical", "projective_desk", "cli_local")
DEFAULT_SEED = 42
MIN_ITEMS = 20
SETUP_SAMPLES = 5
# Stop starting passes after this much wall time, so a run ends within 180 s.
DEADLINE_S = 120.0
CHILD_TIMEOUT_S = 150.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # set and dict orders of strings then repeat from run to run, and so
    # does the path the program takes through them
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_to_one_cpu() -> int:
    """Keep this process and every child on one CPU.

    On a shared two-core machine the cores run at different speeds, and a
    process the scheduler moves between them measured up to 30% apart from
    run to run; on one core the spread roughly halved.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(a * math.log(x) + b * math.log1p(-x)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)) / a
    f, c, d = 1.0, 1.0, 0.0
    for i in range(300):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 / (1.0 + num * d or 1e-300)
        c = 1.0 + num / (c or 1e-300)
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            break
    return front * (f - 1.0)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted mean of all order statistics.  The workloads have a few
    dozen items of very different cost, so a single order statistic jumps
    from one item's cost to its neighbour's when noise swaps two of them;
    the weighted mean moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail_percentile(n_ref: int) -> int:
    """Highest whole percentile with at least ten of n_ref samples beyond it."""
    return max(50, (100 * (n_ref - 10)) // n_ref) if n_ref > 10 else 50


# ---------------------------------------------------------------------------
# Passes


def _worker(workload: str, seed: int, mode: str, *, limit=None, trace_out=None,
            freeze=False) -> tuple[float, dict | None]:
    """Run worker.py; return (launch-to-READY seconds, its JSON result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if freeze:
        cmd.append("--freeze")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} worker timed out")
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed (exit {proc.returncode}):\n{err}")
    if err:
        sys.stderr.write(err)
    return setup, (json.loads(rest.strip().splitlines()[-1]) if mode == "pass" else None)


def _cli_setup() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import curveinv.cli"], cwd=ROOT, env=_env(),
                   check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def _cli_pass(seed: int, limit, trace_dir: Path | None) -> dict:
    import workloads

    rows = []
    probes = []
    layers: dict = {}
    covered = 0.0
    for index, char, base, poly, argv in workloads.cli_commands(seed, limit):
        probes.append(probe())
        if trace_dir is None:
            cmd = [sys.executable, "-m", "curveinv.cli", *argv]
        else:
            out = trace_dir / f"cli-{index}.json"
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(out), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        latency = time.perf_counter() - start
        error = None
        if proc.returncode not in (0, 3):
            error = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        rows.append({"index": index, "char": char, "base": base, "input": poly,
                     "latency_s": latency, "output": [proc.returncode, proc.stdout],
                     "error": error})
        if trace_dir is not None:
            data = json.loads(out.read_text())
            covered += data["top_s"]
            for name, row in data["layers"].items():
                acc = layers.setdefault(name, {})
                for key, value in row.items():
                    acc[key] = acc.get(key, 0) + value
    probes.append(probe())
    result = {
        "rows": rows,
        "probes": probes,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "python": sys.version.split()[0],
    }
    if trace_dir is not None:
        from layertrace import field_ns

        wall = sum(r["latency_s"] for r in rows)
        result.update(layers=layers, wall_s=wall, unattributed_s=wall - covered,
                      field_ns=field_ns())
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool, limit,
               freeze: bool) -> tuple[list[dict], list[tuple[float, float]]]:
    """The run's passes, and its set-up samples as (seconds, speed factor)."""
    began = time.perf_counter()
    passes: list[dict] = []
    setups: list[tuple[float, float]] = []
    cli = workload == "cli_local"

    def one(traced: bool) -> dict:
        trace_dir = None
        if traced:
            trace_dir = OUT / f"trace-{workload}-{seed}"
            trace_dir.mkdir(parents=True, exist_ok=True)
        if cli:
            return _cli_pass(seed, limit, trace_dir)
        out = trace_dir / "spans.json" if trace_dir else None
        return _worker(workload, seed, "pass", limit=limit, trace_out=out, freeze=freeze)[1]

    if trace:
        passes.append(one(False))
        passes.append(one(True))
    elif freeze:
        passes.append(one(False))
    else:
        # set-up samples before and after the passes, so their median spans
        # the run rather than one moment of it
        def setup_one() -> tuple[float, float]:
            before = probe()
            took = _cli_setup() if cli else _worker(workload, seed, "setup", limit=limit)[0]
            return took, speed_factor(before, probe())

        setups += [setup_one() for _ in range(SETUP_SAMPLES // 2)]
        while True:
            passes.append(one(False))
            items = sum(len(p["rows"]) for p in passes)
            timed = sum(r["latency_s"] for p in passes for r in p["rows"])
            if timed >= seconds and items >= MIN_ITEMS:
                break
            if time.perf_counter() - began > DEADLINE_S:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_one())
    return passes, setups


# ---------------------------------------------------------------------------
# Checks and metrics


def load_frozen(workload: str, frozen_dir: Path) -> dict:
    path = frozen_dir / f"{workload}.json"
    if not path.exists():
        return {}
    return {row["index"]: row for row in json.loads(path.read_text())["rows"]}


def check_rows(workload: str, seed: int, rows: list[dict], frozen: dict):
    """(failed reasons, inconclusive count) over every item of the run."""
    import workloads

    check = workloads.CHECKS[workload]
    failures = []
    inconclusive = 0
    for row in rows:
        reason, gave_up = row["error"], False
        if reason is None:
            want = frozen.get(row["index"])
            if want is None or want["base"] != row["base"]:
                reason = "no frozen output for this item"
            else:
                reason, gave_up = check(row["output"], want, seed == DEFAULT_SEED)
        if reason is not None:
            failures.append(f"item {row['index']} ({row['input']}): {reason}")
        inconclusive += gave_up
    return failures, inconclusive


def shares(pass_rows: list[dict], frozen: dict) -> dict:
    """Share of a pass's items with each property an optimisation may target."""
    seen = set()
    repeat = fq = qqa = 0
    for row in pass_rows:
        key = (row["char"], row["base"])
        repeat += key in seen
        seen.add(key)
        field = frozen.get(row["index"], {}).get("field", "")
        fq += field.startswith("Fq:")
        qqa += field.startswith("QQ(")
    n = len(pass_rows) or 1
    return {"repeat": repeat / n, "Fq_k>1": fq / n, "QQ(a)": qqa / n, "of_items": len(pass_rows)}


def _timings(latencies: list[float], setups: list[float], q: int) -> dict:
    return {
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": quantile(latencies, 0.5) * 1e3,
        "item_tail_ms": quantile(latencies, q / 100) * 1e3,
        "setup_s": statistics.median(setups),
    }


def calibrated_latencies(p: dict) -> list[float]:
    """Each item's latency at reference speed, by the probes either side of it."""
    probes = p["probes"]
    return [r["latency_s"] * speed_factor(probes[i], probes[i + 1])
            for i, r in enumerate(p["rows"])]


def e2e_metrics(passes: list[dict], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Metrics at reference speed, plus the measured ones and the context."""
    latencies = [r["latency_s"] for p in passes for r in p["rows"]]
    per_pass = len(passes[0]["rows"])
    n_ref = per_pass * max(1, math.ceil(MIN_ITEMS / max(per_pass, 1)))
    q = tail_percentile(n_ref)
    values = _timings([t for p in passes for t in calibrated_latencies(p)],
                      [took * factor for took, factor in setups], q)
    values["peak_rss_mb"] = max(p["maxrss_mb"] for p in passes)
    measured = _timings(latencies, [took for took, _ in setups], q)
    probe_s = statistics.median(t for p in passes for t in p["probes"])
    return values, {"tail_percentile": q, "samples": len(latencies), "probe_s": probe_s,
                    "measured": measured, "latencies_s": latencies,
                    "probes_s": [p["probes"] for p in passes]}


def layer_metrics(untraced: dict, traced: dict) -> dict:
    out = dict(traced.get("field_ns", {}))
    layers = traced["layers"]
    for name, row in layers.items():
        if name == "invariants.apply":
            # every gamma candidate is one CoordinateChange.apply
            out["invariants.gamma.candidates"] = row["calls"]
            continue
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
        calls = row["calls"] or 1
        if "distinct" in row:
            out[f"{name}.distinct_ratio"] = row["distinct"] / calls
        if "needs_extension" in row:
            out[f"{name}.needs_extension"] = row["needs_extension"]
            # calls that returned charts rather than asking for a larger field
            out[f"{name}.useful_ratio"] = (row["calls"] - row["needs_extension"]) / calls
        if "inconclusive" in row:
            out[f"{name}.inconclusive"] = row["inconclusive"]
    out["trace.unattributed_s"] = traced["unattributed_s"]
    out["trace.wall_s"] = traced["wall_s"]
    # both passes at reference speed, since they ran at different moments
    out["trace.overhead"] = sum(calibrated_latencies(traced)) / sum(
        calibrated_latencies(untraced))
    self_sum = sum(row["self_s"] for row in layers.values())
    out["trace.closure"] = (self_sum + traced["unattributed_s"]) / traced["wall_s"]
    return out


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--freeze", action="store_true")
    ap.add_argument("--limit", type=int)
    ap.add_argument("--frozen-dir", type=Path, default=FROZEN)
    args = ap.parse_args(argv)

    if not (SRC / "curveinv" / "__init__.py").is_file():
        print(f"error: the curveinv sources are missing under {SRC}", file=sys.stderr)
        return 2
    if args.freeze and args.seed != DEFAULT_SEED:
        print(f"error: outputs are frozen at seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cpu = pin_to_one_cpu()
    # workloads.py imports curveinv; only cli_local and the checks load it here
    sys.path.insert(0, str(SRC))

    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.limit, args.freeze)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.freeze:
        rows = [{k: v for k, v in row.items() if k != "latency_s"} for row in passes[0]["rows"]]
        for row in rows:
            if args.workload == "cli_local":
                row["field"] = json.loads(row["output"][1])["branches"]["field"]
        FROZEN.mkdir(exist_ok=True)
        path = FROZEN / f"{args.workload}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "rows": rows}, indent=1) + "\n")
        failures, _ = check_rows(args.workload, args.seed, rows, load_frozen(args.workload, FROZEN))
        for reason in failures:
            print(f"# FAILED {reason}")
        print(f"froze {len(rows)} outputs to {path.relative_to(ROOT)}")
        return 1 if failures else 0

    frozen = load_frozen(args.workload, args.frozen_dir)
    rows = [r for p in passes for r in p["rows"]]
    failures, inconclusive = check_rows(args.workload, args.seed, rows, frozen)
    attempted = len(rows)
    fail_frac = len(failures) / attempted
    inconclusive_frac = inconclusive / attempted

    meta = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git": _git_revision(),
        "python": passes[0]["python"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "passes": len(passes),
    }
    declared = _declared()
    if args.trace:
        values = layer_metrics(passes[0], passes[1])
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        extra = {}
    else:
        values, extra = e2e_metrics(passes, setups)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    prop = shares(passes[0]["rows"], frozen)

    print(f"# {args.workload} seed {args.seed}: {meta['why']}")
    print("# meta " + json.dumps(meta))
    for name, value in values.items():
        unit = units.get(name, "")
        note = ""
        if name in extra.get("measured", {}):
            note = f"  (measured {extra['measured'][name]:.6g})"
        if name == "item_tail_ms":
            note += f"  (p{extra['tail_percentile']} of {extra['samples']} items)"
        print(f"# {name} {value:.6g} {unit}{note}")
    if "probe_s" in extra:
        print(f"# probe_s {extra['probe_s']:.6g} s  (reference {NOMINAL_S} s)")
    print(f"# fail_frac {fail_frac:.6g} ratio  ({len(failures)}/{attempted})")
    print(f"# inconclusive_frac {inconclusive_frac:.6g} ratio  ({inconclusive}/{attempted})")
    print("# shares " + json.dumps(prop))
    for reason in failures[:20]:
        print(f"# FAILED {reason}")

    report = {"meta": meta, "metrics": values, "tail": extra, "fail_frac": fail_frac,
              "inconclusive_frac": inconclusive_frac, "failures": failures,
              "shares": prop, "setups": setups}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    result = {
        "correct": not failures and inconclusive_frac < 0.1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
