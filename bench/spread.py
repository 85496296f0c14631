#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric.

Run from the repository root:

    python3 bench/spread.py --workloads er-msweep ba-crawl-cli --seeds 1-10

For each workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median,
next to a third of the metric's bound in BENCHMARK.json.  ``--out`` writes
the same summary, with every run's values, as JSON.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in args.seeds]
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        print(f"{workload}: {len(runs)} runs, {len(bad)} not correct")
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarise(values)
            stats["values"] = values
            metrics[name] = stats
            bound = bounds.get(name) if args.trace == 0 else None
            limit = "" if bound is None else f"  bound/3 {bound / 3:.4f}"
            flag = "" if bound is None or stats["spread"] < bound / 3 else "  WIDE"
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"  {name:32s} median {stats['median']:.6g}  "
                  f"spread {spread}{limit}{flag}")
        summary[workload] = {"seeds": args.seeds, "metrics": metrics}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
