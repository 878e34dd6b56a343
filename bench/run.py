"""Benchmark of coreabacus: time a workload from outside and check every answer.

    python3 bench/run.py --workload cli-session|family-ladder|oracle-sweep \
        --seed N --seconds S --trace 0|1 [--size full|smoke]

Run from the root of a checkout.  With --trace 0 the run measures set-up time
(fresh interpreters importing `coreabacus.cli` and building its parser), then
runs the workload untraced in a fresh child interpreter and reports the
end-to-end metrics of BENCHMARK.json.  Times are reported at a reference host
speed (see speed.py); the report keeps them as measured.  With --trace 1 it runs one pass untraced
and one pass traced, each in its own child, and reports the per-layer metrics;
their difference in wall time is the tracing overhead.  The last line of stdout
is the result object; a report with the environment, the generated inputs and
(traced) the spans is written under .bench_run/.  A run in which any answer was
wrong prints `"correct": false` and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_START_S
from tracing import LAYERS, summarize

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_run"
SETUP_SAMPLES = 11
SETUP_CODE = "import coreabacus.cli as cli; cli.build_parser()"
DEADLINE_S = 170  # every child is stopped by then
CACHED_COMMANDS = ("cli.verify", "cli.count", "cli.enumerate")
TRACE_PASSES = {"cli-session": 2}  # cold then warm, so cache hits are traced too; others: 1


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("COREABACUS_CACHE", None)
    return env


def run_child(cmd, deadline):
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise ChildFailed(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise ChildFailed(f"exit {proc.returncode}: {' '.join(cmd)}\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(deadline) -> tuple:
    """Median wall time of a fresh interpreter that imports the CLI and builds its parser.

    Returns it as measured and at the reference speed, at which a bare
    interpreter, started between the timed ones, takes REFERENCE_START_S.
    """
    def start(code):
        begin = time.perf_counter()
        run_child([sys.executable, "-c", code], deadline)
        return time.perf_counter() - begin

    start(SETUP_CODE)  # writes the bytecode cache; not timed
    setup, bare = [], []
    for _ in range(SETUP_SAMPLES):
        bare.append(start("pass"))
        setup.append(start(SETUP_CODE))
    measured = statistics.median(setup)
    return measured, measured * REFERENCE_START_S / statistics.median(bare)


def run_workload(args, work, trace, passes, deadline) -> dict:
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size, "--work", str(work)]
    if passes:
        cmd += ["--passes", str(passes)]
    work.mkdir(parents=True)
    try:
        return json.loads(run_child(cmd, deadline).splitlines()[-1])
    finally:
        shutil.rmtree(work / "cache", ignore_errors=True)


def at_reference_speed(result) -> list:
    return [wall * scale for wall, scale in zip(result["walls_s"], result["scales"])]


def end_to_end(workload, result, setup) -> dict:
    """A cli-session pass is cold only once; a library pass starts from the same state every time."""
    walls = at_reference_speed(result)
    wall = walls[0] if workload == "cli-session" else statistics.median(walls)
    return {
        "setup_s": setup[1],
        "wall_s": wall,
        "warm_wall_s": statistics.median(walls[1:]),
        "cores_per_s": result["items"]["cores"] / wall,
        "partitions_per_s": result["items"]["partitions"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(traced, plain, names) -> dict:
    """Per-layer metrics of the traced pass at the reference speed; `<span>_ms` is the span's inclusive time."""
    spans, scale = traced["spans"], traced["scale"]
    inclusive, self_ms = summarize(spans, "cold")
    warm, _ = summarize(spans, "warm")
    unknown = {name for name, *_ in spans} - {n[: -len("_ms")] for n in names}
    if unknown:
        raise ValueError(f"spans without a per-layer metric in BENCHMARK.json: {sorted(unknown)}")
    metrics = {f"{layer}.self_ms": self_ms[layer] * scale for layer in LAYERS}
    metrics["cli.cache_hit_ms"] = sum(warm.get(name, 0.0) for name in CACHED_COMMANDS) * scale
    metrics["trace.overhead_ms"] = (sum(at_reference_speed(traced)) - sum(at_reference_speed(plain))) * 1000
    for name in names:
        if name not in metrics:
            metrics[name] = inclusive.get(name[: -len("_ms")], 0.0) * scale if name.endswith("_ms") \
                else traced["counters"].get(name, 0)
    return metrics


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "coreabacus").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(version) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "coreabacus": version,
        "commit": git_commit(),
        "source_sha256": source_hash(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-session", "family-ladder", "oracle-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "coreabacus" / "__init__.py").is_file():
        print(f"error: {SRC / 'coreabacus'} not found; run from the root of a coreabacus checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}-{os.getpid()}"
    setup = (None, None)
    try:
        if args.trace:
            passes = TRACE_PASSES.get(args.workload, 1)
            plain = run_workload(args, work / "plain", 0, passes, deadline)
            traced = run_workload(args, work / "traced", 1, passes, deadline)
            runs, declared = [plain, traced], spec["per_layer"]
            metrics = per_layer(traced, plain, [m["name"] for m in declared])
        else:
            setup = measure_setup(deadline)
            runs, declared = [run_workload(args, work / "plain", 0, 0, deadline)], spec["end_to_end"]
            metrics = end_to_end(args.workload, runs[0], setup)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    line = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    report = dict(line, error_rate=failed / max(attempted, 1), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, size=args.size,
                  environment=environment(runs[0]["version"]), inputs=runs[0]["inputs"],
                  measured_walls_s=[r["walls_s"] for r in runs], scales=[r["scales"] for r in runs],
                  measured_setup_s=setup[0], items=runs[0]["items"],
                  mismatches=[m for r in runs for m in r["messages"]])
    if args.trace:  # the metrics hold each layer's self time and the tracing overhead
        report.update(span_fields=["name", "start", "end", "parent", "pass"], spans=traced["spans"])
    (work / "report.json").write_text(json.dumps(report, indent=1))
    print(f"report: {work / 'report.json'}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
