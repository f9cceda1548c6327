"""Run the benchmark once per seed and report each metric's median and its
quartile spread, (Q3 - Q1) / median, as statistics.quantiles(n=4) gives them.

    python3 perfbench/spread.py --workload distill

Runs are untraced, on workload seeds 0-9, one after another, so the numbers
are not disturbed by the tool itself. The seconds per run and the bounds come
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, bad = {}, 0
    for seed in SEEDS:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        bad += not result["correct"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]
        verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:12s} median {med:.6g}  spread {spread:.4f}  bound {bound}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
