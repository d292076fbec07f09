"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
        [--seconds 10] [--json PATH]

It makes untraced runs (--trace 0), whose end-to-end metrics are the ones
BENCHMARK.json bounds.  For every metric it prints the median of the runs
and the distance between their first and third quartiles
(statistics.quantiles, n=4) as a share of that median, the figure the
bounds are set against.  Runs are sequential, one benchmark process at a
time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results):
    summary = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        stats = quartiles(values)
        summary[name] = {"unit": metric["unit"], "median": stats["median"], "q1": stats["q1"],
                         "q3": stats["q3"], "spread": stats["spread"], "values": values}
    return summary


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--json", help="also write the summary here")
    args = p.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds)
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
        results.append(result)
    summary = summarise(results)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{args.workload:15s} {name:34s} median {s['median']:.6g} {s['unit']:6s} spread {spread}")
    if args.json:
        payload = {"workload": args.workload, "runs": args.runs, "first_seed": args.first_seed,
                   "seconds": args.seconds,
                   "failed": sum(r["failed"] for r in results),
                   "attempted": sum(r["attempted"] for r in results), "metrics": summary}
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
