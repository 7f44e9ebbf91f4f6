"""Reference figures: run every workload on ten seeds and print, for each
end-to-end metric, the median and the spread (distance between the first
and third quartile as a share of the median).

    python3 perfbench/figures.py [--seeds 1-10] [--seconds 25] [--workloads a,b]

Run from the root of a checkout; it calls ``run.py`` once per seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--workloads", default=",".join(gen.WORKLOADS))
    args = ap.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(first, last + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add((Fraction(result["failed"], result["attempted"]), result["correct"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: failed share and correct: "
              + ", ".join(f"{share} {correct}" for share, correct in sorted(shares)))
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"  {name:14s} median {med:10.4f}  spread {(q3 - q1) / med:.3f}  "
                  f"min {min(vals):.4f}  max {max(vals):.4f}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
