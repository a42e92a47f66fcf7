"""Run a workload once per seed and report, for each end-to-end metric, the
median and the quartile spread (Q3 - Q1 as a share of the median), the
figure each bound in BENCHMARK.json is compared against.  Each run lasts
``run_seconds`` of BENCHMARK.json.

    python3 bench/spread.py --workload decide --seeds 1-10
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    failed = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
                              capture_output=True, text=True, cwd=HERE.parent, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed.append(f"{result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, failed {' '.join(failed)}")
    for metric in BENCHMARK["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        print(f"  {metric['name']:<22} median {median:10.4f}  spread {(q3 - q1) / median:6.1%}"
              f"  bound {metric['bound']:.0%}  values {' '.join(f'{v:.4g}' for v in vals)}")


if __name__ == "__main__":
    main()
