"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload shot_batch --seeds 1-10 --seconds 30 --trace 0 [--out FILE]

Spread is the distance between the first and third quartiles of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their median,
the figure the bounds in BENCHMARK.json are set against.  With ``--out`` the
runs, the environment line of the first run and the summary are written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="a seed or a range like 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs, env = [], None
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}", file=sys.stderr)
            return 1
        env = env or json.loads(lines[0].removeprefix("env "))
        runs.append({"seed": seed, **json.loads(lines[-1])})
        print(f"seed {seed}: {lines[2]}", file=sys.stderr)

    summary = summarize(runs)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:40s} median {s['median']:<12.6g} {s['unit']:6s} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {spread}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                        "trace": args.trace, "env": env, "summary": summary,
                                        "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
