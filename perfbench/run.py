"""Run one workload of the qoverlap benchmark and print its metrics.

    python3 perfbench/run.py --workload shot_batch --seed 1 --seconds 30 --trace 0

Passes run one after another, each in a fresh ``worker.py`` process with
BLAS pinned to one thread, until the next pass would end after
``--seconds`` (at least ``MIN_PASSES`` passes).  With ``--trace 0`` every
pass is untraced and the last line holds the end-to-end metrics.  With
``--trace 1`` the passes cycle through untraced, spans-only and
spans-plus-tracemalloc kinds, and the last line holds the per-layer metrics.
Every metric is also printed by name with its unit, after a line recording
the environment (BLAS pin, git HEAD, numpy and Python versions, nproc).
The exit code is 1 when any call failed, and 2 when the benchmark cannot run
at all (for instance outside a checkout of the repository, where there is
no ``src/qoverlap``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_STATS, USEFUL_FRAC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"

WORKLOADS = ("scenario_suite", "device_modes", "shot_batch")
# Set in the workers' environment only.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = 3
# setup_s is a median over at least this many set-ups; set-up-only workers
# make up the number when a run has fewer passes.
MIN_SETUPS = 9
# Pass kinds of a --trace 1 run; see worker.py.
TRACE_CYCLE = ("plain", "spans", "memory")
# A run must end within 180 s; no worker may start after this.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "call_p50_ms": "ms", "call_p90_ms": "ms",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "entries": "count", "bytes": "B", "self_ms": "ms", "peak_mb": "MB",
               "outside_ms": "ms"}


class BenchError(RuntimeError):
    pass


def _git_head() -> str:
    """HEAD of the repository this benchmark sits at the top of, else 'unknown'."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _worker(workload: str, seed: int, kind: str, index: int, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for pass {index} within {RUN_LIMIT_S} s")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), kind,
           str(time.monotonic_ns()), str(WORKDIR / f"{os.getpid()}-{index}")]
    try:
        proc = subprocess.run(cmd, env={**os.environ, **BLAS_ENV}, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not finish within {RUN_LIMIT_S} s of the run")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"pass {index} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["kind"] = kind
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """Closed loop of worker processes, cycling through the pass kinds of the run.

    Returns the passes and the set-up times of every worker.
    """
    cycle = TRACE_CYCLE if trace else ("plain",)
    start = time.monotonic()
    passes: list[dict] = []
    durations: dict[str, list[float]] = {kind: [] for kind in cycle}
    while True:
        kind = cycle[len(passes) % len(cycle)]
        t0 = time.monotonic()
        passes.append(_worker(workload, seed, kind, len(passes), start + RUN_LIMIT_S))
        durations[kind].append(time.monotonic() - t0)
        following = durations[cycle[len(passes) % len(cycle)]]
        expected = statistics.median(following) if following else durations[kind][-1]
        if len(passes) >= max(MIN_PASSES, len(cycle)) and time.monotonic() - start + expected > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(_worker(workload, seed, "setup", len(setups), start + RUN_LIMIT_S)["setup_s"])
    return passes, setups


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """Medians over passes; latency quantiles are taken per pass first.

    Per-pass quantiles keep a quantile that falls between two kinds of call
    (the suite has only 11 calls a pass) on the same side in every pass.
    """
    calls = len(passes[0]["latencies_ms"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": _median_of(passes, "wall_s"),
        "call_p50_ms": statistics.median(statistics.median(p["latencies_ms"]) for p in passes),
        "call_p90_ms": statistics.median(_p90(p["latencies_ms"]) for p in passes),
        "peak_rss_mb": _median_of(passes, "peak_rss_mb"),
    }
    samples = f"{calls} calls a pass, {len(passes)} passes"
    notes = {"setup_s": f"n={len(setups)} set-ups", "call_p50_ms": samples, "call_p90_ms": samples}
    return values, notes


def per_layer(passes: list[dict]) -> tuple[dict, dict]:
    """Counts from the first traced pass, self times and peaks as medians."""
    by_kind = {kind: [p for p in passes if p["kind"] == kind] for kind in TRACE_CYCLE}
    values = {}
    for name in by_kind["spans"][0]["layers"]:
        stat = name.rsplit(".", 1)[-1]
        source = by_kind["memory" if stat == "peak_mb" else "spans"]
        samples = [p["layers"][name] for p in source]
        if stat in COUNT_STATS or name == USEFUL_FRAC:
            if len({p["layers"][name] for p in by_kind["spans"] + by_kind["memory"]}) > 1:
                print(f"warning: {name} differs between traced passes", file=sys.stderr)
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    plain_wall = _median_of(by_kind["plain"], "wall_s")
    values["trace.overhead_frac"] = (_median_of(by_kind["spans"], "wall_s") - plain_wall) / plain_wall
    notes = {"trace.overhead_frac": f"spans-only passes against untraced passes, median wall {plain_wall:.4g} s"}
    return values, notes


def _unit(name: str) -> str:
    return END_TO_END_UNITS.get(name) or LAYER_UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qoverlap" / "__init__.py").is_file():
        print(f"no qoverlap sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    gap, shot_results = passes[0]["coverage_gap"], passes[0]["shot_results"]
    values, notes = per_layer(passes) if args.trace else end_to_end(passes, setups)
    # failed_frac is 0 whenever the program is right and coverage_gap exists
    # on shot_batch only, so neither can carry a bound relative to a median;
    # both are printed on every run and reported with the per-layer metrics.
    checks = {"failed_frac": failed / attempted, "coverage_gap": gap}
    notes.update(failed_frac=f"{failed} of {attempted} calls",
                 coverage_gap=f"n={shot_results} shot-mode results per pass")
    if args.trace:
        values.update(checks)

    env = {"git_head": _git_head(), "numpy": passes[0]["numpy"], "python": passes[0]["python"],
           "nproc": len(os.sched_getaffinity(0)), "blas_env": BLAS_ENV,
           "load": "closed loop, 1 client, 1 call at a time, 1 worker process per pass"}
    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("passes " + " ".join(f"{p['kind']}:{p['setup_s']:.3f}+{p['wall_s']:.3f}s" for p in passes))
    for name, value in {**values, **checks}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:<14.6g} {_unit(name)}{note}")
    for p in passes:
        for message in p["failures"]:
            print(f"failed call: {message}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
