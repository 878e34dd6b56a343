"""Smoke test of the benchmark itself: every workload once, at the smallest size.

    python3 bench/smoke.py        # from the root of a checkout; about 30 s

For each workload it makes one untraced and one traced run and checks that
every metric BENCHMARK.json names is reported with its unit, that error_rate is
0, that the traced run gives a self time for every layer, and that the layers
the workload exercises read above zero.  It also checks that the benchmark
exits non-zero, printing no result, in a directory without coreabacus sources.
It is not part of the test suite, which it would slow down.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
EXERCISED = {
    "cli-session": ("cli", "verification", "enumeration", "constructions"),
    "family-ladder": ("enumeration",),
    "oracle-sweep": ("enumeration", "abacus", "partitions"),
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(bench_dir: Path, cwd: Path, *args: str):
    return subprocess.run([sys.executable, str(bench_dir / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_run(spec, workload, trace) -> list:
    where = f"{workload} --trace {trace}"
    proc = run(BENCH, ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
               "--size", "smoke")
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    line = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads(Path(proc.stderr.split("report: ")[-1].strip()).read_text())
    metrics = line["metrics"]
    declared = spec["per_layer" if trace else "end_to_end"]
    problems = []
    if set(line) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(line)}")
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or type(got.get("value")) not in (int, float):
            problems.append(f"{where}: {m['name']} reported as {got}")
    if not line["correct"] or line["failed"] or report["error_rate"] != 0:
        problems.append(f"{where}: error_rate {report['error_rate']}: {report['mismatches']}")
    if trace:
        for layer in EXERCISED[workload]:
            if not metrics.get(f"{layer}.self_ms", {}).get("value", 0) > 0:
                problems.append(f"{where}: layer {layer} shows no self time")
        problems += [f"{where}: no self time for layer {layer}" for layer in LAYERS
                     if f"{layer}.self_ms" not in metrics]
    return problems


def check_bare_directory(spec) -> list:
    """Only BENCHMARK.json and the benchmark's files: the run must fail without a result."""
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare / "bench", bare, "--workload", "oracle-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for problem in problems:
        print(problem)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
