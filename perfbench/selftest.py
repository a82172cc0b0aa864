"""Self-test of the benchmark harness at tiny sizes (under a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit, in
the `# name value unit` lines and in the final JSON line, on every workload
and in both modes; that a corrupted frozen output is counted as a failed
item in fail_frac; and that the benchmark exits nonzero without a result
when the program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "selftest"

# Base inputs per workload: enough for a few items, each well under a second.
LIMITS = {"corpus_charp": 3, "char0_classical": 3, "projective_desk": 1, "cli_local": 1}


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "42",
           "--seconds", "0", "--trace", str(trace), "--limit", str(LIMITS[workload]), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_output(workload: str, trace: int, declared: dict) -> None:
    code, lines = run(workload, trace)
    expect(code == 0 and lines, f"{workload} trace {trace} exited {code}")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace {trace}: {result['failed']} of {result['attempted']} failed")
    wanted = declared["per_layer" if trace else "end_to_end"]
    expect(set(result["metrics"]) == {m["name"] for m in wanted},
           f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "#":
            printed[parts[1]] = parts[3] if len(parts) > 3 else ""
    names = [(m["name"], m["unit"]) for m in wanted]
    if not trace:
        names += [("fail_frac", "ratio"), ("inconclusive_frac", "ratio")]
    for name, unit in names:
        expect(printed.get(name) == unit, f"{workload}: {name} not printed with unit {unit}")
        if name in result["metrics"]:
            expect(result["metrics"][name]["unit"] == unit, f"{workload}: {name} unit")


def check_corrupted_frozen() -> None:
    frozen = OUT / "frozen"
    shutil.copytree(BENCH / "frozen", frozen, dirs_exist_ok=True)
    path = frozen / "char0_classical.json"
    data = json.loads(path.read_text())
    data["rows"][1]["output"]["delta"] += 1
    path.write_text(json.dumps(data))
    code, lines = run("char0_classical", 0, "--frozen-dir", str(frozen))
    result = json.loads(lines[-1])
    expect(code == 0 and not result["correct"], "a corrupted frozen output went unnoticed")
    passes = result["attempted"] // LIMITS["char0_classical"]
    expect(result["failed"] == passes, f"expected {passes} failed items, got {result['failed']}")
    frac = [line for line in lines if line.startswith("# fail_frac ")]
    expect(frac and abs(float(frac[0].split()[2]) - passes / result["attempted"]) < 1e-5,
           f"fail_frac line {frac}")


def check_without_sources() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = run("char0_classical", 0, cwd=bare)
    expect(code != 0, "ran without the program's sources")
    expect(not any(line.startswith("{") for line in lines), "printed a result without sources")
    shutil.rmtree(bare)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in LIMITS:
        for trace in (0, 1):
            check_output(workload, trace, declared)
    check_corrupted_frozen()
    check_without_sources()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
