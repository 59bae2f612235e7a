"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --workload presets --runs 10 --first-seed 1

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median and the interquartile distance as a share of
the median (statistics.quantiles, n=4), next to the metric's bound. This
is the stability check a benchmark change has to pass: every spread
within its bound, and preferably below a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from metrics import relative_spread  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    ok = all(r["correct"] for r in runs)
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        spread = relative_spread(values)
        flag = "" if spread <= m["bound"] / 3 else (" OVER BOUND/3" if spread <= m["bound"] else " OVER BOUND")
        if spread > m["bound"]:
            ok = False
        print(f"{m['name']:22s} median {statistics.median(values):.6g} {m['unit']:7s} "
              f"spread {spread:.4f} bound {m['bound']}{flag}")
    with open(os.path.join(HERE, "out", f"spread-{args.workload}.json"), "w") as fh:
        json.dump(runs, fh)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
