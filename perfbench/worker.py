"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py <workload> <seed> <kind> <spawn monotonic ns> <workdir>

``kind`` is ``plain`` (no tracer), ``spans`` (tracer, for calls and self
times), ``memory`` (tracer and tracemalloc, for allocation peaks; it slows
Python-heavy passes several times over, so its times are not used) or
``setup`` (set-up only, no pass).

``run.py`` starts one worker per pass, so every program cache starts empty
and the pass pays for compiling W, as a user's first call does.  Set-up time
runs from the spawn time given by the parent (CLOCK_MONOTONIC is shared by
all processes) until the inputs are built and numpy is warm.
"""

from __future__ import annotations

import json
import platform
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import qoverlap  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURES_SHOWN = 5


def warm_up() -> None:
    """Warm numpy and LAPACK outside qoverlap: an eigh, a matmul, one large allocation."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    np.linalg.eigh(m + m.conj().T)
    (m @ m).sum()
    np.ones(2**20, dtype=complex).sum()  # 16 MiB


def traced_pass(work: workloads.Workload, memory: bool) -> tuple[workloads.PassResult, dict]:
    """Run one pass with the tracer on; return it and the per-layer numbers."""
    tracer = tracing.Tracer(memory=memory)
    if memory:
        tracemalloc.start()
    tracer.install()
    try:
        result = workloads.run_pass(work, tracer)
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    return result, tracer.metrics()


def main(argv: list[str]) -> int:
    workload, seed, kind, spawn_ns, workdir = argv
    if Path(qoverlap.__file__).resolve().parent != ROOT / "src" / "qoverlap":
        print(f"qoverlap imported from {qoverlap.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = Path(workdir)
    try:
        work = workloads.prepare(workload, int(seed), workdir)
        warm_up()
        setup_s = (time.monotonic_ns() - int(spawn_ns)) / 1e9
        if kind == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if kind == "plain":
            result, layers = workloads.run_pass(work), None
        else:
            result, layers = traced_pass(work, memory=kind == "memory")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [o.failure for o in result.outcomes if o.failure is not None]
    gap, shot_results = workloads.coverage_gap(result.outcomes)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": result.wall_ns / 1e9,
        "latencies_ms": [o.latency_ns / 1e6 for o in result.outcomes],
        "attempted": len(result.outcomes),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "coverage_gap": gap,
        "shot_results": shot_results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
