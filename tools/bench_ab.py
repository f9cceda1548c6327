#!/usr/bin/env python3
"""A/B benchmark of two commits of this repository on the same machine.

    python3 tools/bench_ab.py --base REF --label NAME

Checks REF and HEAD out as two `git worktree`s whose paths have the same
length (a checkout's path length moves peak RSS), and copies HEAD's
`perfbench/` and `BENCHMARK.json` into the base tree, so both sides run the
same harness. For every workload of BENCHMARK.json it runs
`perfbench/run.py --seconds 35 --trace 0` on both sides in 10 pairs, pair i
at workload seed i, and swaps which side goes first from one pair to the
next (the second run of a pair tends to read slower). The harness runs only
as a subprocess.

It writes BENCH_<label>.json at the root of the repository: both SHAs, the
harness's `env` line, and for each workload and end-to-end metric of
BENCHMARK.json the two medians, the base's interquartile range, the ratio
head/base, the number of pairs the head won, the bound, a verdict and
`worse_beyond_bound`. The verdict follows the benchmark's rule for a gain:
"faster" when the head's median is better by more than the base IQR and the
head won at least 9 of 10 pairs, "slower" for the same the other way round,
else "unresolved"; it says nothing of the bound. `worse_beyond_bound` is the
rule for a regression: the head's median is worse than the base's by more
than the metric's bound. Every run's values are kept too.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seconds", "35", "--trace", "0"]
SIDES = ("base", "head")
PAIRS = 10


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_side(tree: Path, workload: str, seed: int) -> dict:
    """One harness run: its final JSON line plus the `env:` line it prints."""
    proc = subprocess.run([sys.executable, *RUN, "--workload", workload, "--seed", str(seed)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next(line.split("env: ", 1)[1] for line in lines if line.strip().startswith("env: "))
    result["env"] = json.loads(env)
    return result


def compare(base: list, head: list, better: str, bound: float) -> dict:
    """Medians, the base IQR, head/base, the head's pair wins, a verdict and
    whether the head is worse than the base by more than the bound."""
    q1, _, q3 = statistics.quantiles(base, n=4)
    mb, mh = statistics.median(base), statistics.median(head)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    verdict = "unresolved"
    if abs(mh - mb) > q3 - q1:
        if sign * (mh - mb) < 0 and wins >= 0.9 * len(base):
            verdict = "faster"
        elif sign * (mh - mb) > 0 and losses >= 0.9 * len(base):
            verdict = "slower"
    return {"base_median": mb, "head_median": mh, "base_iqr": q3 - q1,
            "ratio": mh / mb if mb else None, "head_wins": wins, "pairs": len(base),
            "bound": bound, "better": better, "verdict": verdict,
            "worse_beyond_bound": sign * (mh - mb) > bound * abs(mb),
            "base": base, "head": head}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the base commit")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = parser.parse_args(argv)
    sha = {"base": git("rev-parse", f"{args.base}^{{commit}}"), "head": git("rev-parse", "HEAD")}
    bench = json.loads(git("show", f"{sha['head']}:BENCHMARK.json"))

    tmp = Path(tempfile.mkdtemp(prefix="bench_ab-"))
    trees = {side: tmp / side for side in SIDES}  # "base" and "head": equal lengths
    try:
        for side in SIDES:
            git("worktree", "add", "--detach", str(trees[side]), sha[side])
        shutil.rmtree(trees["base"] / "perfbench")
        shutil.copytree(trees["head"] / "perfbench", trees["base"] / "perfbench")
        shutil.copy2(trees["head"] / "BENCHMARK.json", trees["base"] / "BENCHMARK.json")

        out = {"label": args.label, "base_ref": args.base, "base_sha": sha["base"],
               "head_sha": sha["head"], "command": " ".join(RUN), "pairs": PAIRS,
               "env": None, "workloads": {}}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {side: [] for side in SIDES}
            first = []
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first.append(order[0])
                for side in order:
                    runs[side].append(run_side(trees[side], workload, seed=i))
                    print(f"{workload} pair {i} {side}: "
                          + json.dumps({k: round(m["value"], 4)
                                        for k, m in runs[side][-1]["metrics"].items()}),
                          flush=True)
            out["env"] = out["env"] or {k: v for k, v in runs["head"][0]["env"].items()
                                        if not k.startswith(("workload", "program_seed", "seed"))}
            out["workloads"][workload] = {
                "seeds": list(range(PAIRS)), "first": first,
                "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
                "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
                "metrics": {m["name"]: compare(*([r["metrics"][m["name"]]["value"] for r in runs[s]]
                                                 for s in SIDES), m["better"], m["bound"])
                            for m in bench["end_to_end"]},
            }
    finally:
        for side in SIDES:
            subprocess.run(["git", "worktree", "remove", "--force", str(trees[side])], cwd=ROOT,
                           capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        git("worktree", "prune")

    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, w in out["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:9s} {name:11s} {m['base_median']:10.4g} -> {m['head_median']:10.4g}"
                  f"  IQR {m['base_iqr']:.3g}  head won {m['head_wins']}/{m['pairs']}"
                  f"  {m['verdict']}" + ("  worse beyond bound" if m["worse_beyond_bound"] else ""))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
