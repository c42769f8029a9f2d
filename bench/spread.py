"""Run the benchmark on consecutive seeds and report each end-to-end metric's spread.

Usage (from the root of a checkout):

    python3 bench/spread.py --workload cli-dense --runs 10 --first-seed 1

For every end-to-end metric of ``BENCHMARK.json`` it prints the median of
the runs and the distance between their first and third quartile as a
share of that median, next to the metric's bound.  Exits 1 when a run is
incorrect or a spread (set-up time aside) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        cmd[0] = sys.executable
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        for name, series in values.items():
            series.append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)

    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        spread = relative_spread(series)
        within = spread <= metric["bound"] or metric["name"] == "setup_s"
        ok &= within
        print(f"{metric['name']:14s} median {statistics.median(series):12.4f} {metric['unit']:4s} "
              f"spread {spread:.4f} bound {metric['bound']:.2f} ({spread / metric['bound']:.2f} of it)"
              + ("" if within else "  OVER"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
