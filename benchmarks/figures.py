"""Regenerate the reference figures in README.md.

Runs ``run.py`` once per seed on each workload, one process at a time, and
prints for every metric the median over seeds and the spread between the
first and third quartile as a share of the median.  From the repository
root:

    python3 benchmarks/figures.py --seeds 10 --trace 0
    python3 benchmarks/figures.py --seeds 3 --trace 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            shares.add(result["failed"] / result["attempted"])
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: failed share {sorted(shares)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / abs(med):.3f}"
            else:
                spread = "-"
            print(f"  {name:34s} {med:12.5g} {units[name]:12s} spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
