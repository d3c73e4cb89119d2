"""Run the benchmark once per seed and report each end-to-end metric's
spread: the distance between the first and third quartile of the runs, as
a share of their median, next to the metric's bound.

    python3 bench/steadiness.py --runs 10 --first-seed 1 [--workload soft_leaky ...]

With `--runs 1` it prints every end-to-end metric, with its unit, once for
each workload.

Runs are sequential subprocesses of run.py with BENCHMARK.json's
`run_seconds`. The last line of standard output is a JSON object with
every run's metrics, for comparing two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {}
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            print(done.stderr.strip(), file=sys.stderr)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{done.stderr}", file=sys.stderr)
            runs.setdefault(workload, []).append(
                {name: m["value"] for name, m in result["metrics"].items()}
            )
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}..{seed}")
        header = ("metric", "unit", "median", "q1", "q3", "spread", "bound")
        print("{:<14}{:<7}{:>14}{:>14}{:>14}{:>9}{:>7}".format(*header))
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median
            print(f"{metric['name']:<14}{metric['unit']:<7}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{metric['bound']:>7}")
    print(json.dumps(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
