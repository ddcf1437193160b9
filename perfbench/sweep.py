"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload desk_noisy --seeds 1 2 3 4 5
    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --baseline

For every end-to-end metric it prints the median, the quartiles and the
spread (quartile distance over median) across the seeds, next to the
metric's bound from BENCHMARK.json.  ``--baseline`` adds one traced run per
workload at the first seed and writes everything to ``perfbench/baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    summary = {}
    for workload in args.workload or names:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        summary[workload] = {"seeds": args.seeds,
                             "correct": all(r["correct"] for r in runs), "metrics": {}}
        for metric in benchmark["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry = {"unit": metric["unit"], "median": statistics.median(values), "q1": q1,
                     "q3": q3, "spread": checks.spread(values), "bound": metric["bound"]}
            summary[workload]["metrics"][metric["name"]] = entry
            print(f"  {metric['name']:>14s} median={entry['median']:.5g} {metric['unit']} "
                  f"spread={entry['spread']:.4f} bound={metric['bound']} "
                  f"(third {metric['bound'] / 3:.4f})", flush=True)
    if args.baseline:
        for workload, entry in summary.items():
            traced = run_once(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {"seed": args.seeds[0], "metrics": {
                k: v["value"] for k, v in traced["metrics"].items()}}
        (HERE / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
