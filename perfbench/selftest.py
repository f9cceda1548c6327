"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Shows that
1. a corrupted output counts as a failed operation (an edited value in a
   distill metrics CSV, a NaN in it, and a failed entry in a check report);
2. a missing wrapped public function aborts the run with exit code 3 and
   prints no result line;
3. two traced runs with the same seed give identical exact counts.
Exits 0 when every part holds.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy loads

import bench_trace
import bench_verify

FAILURES = []


def expect(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}", flush=True)
    if not ok:
        FAILURES.append(label)


def edit_last_row(path, column: str, new_value) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[-1].split(",")
    i = header.index(column)
    row[i] = new_value(row[i])
    lines[-1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def corrupted_outputs() -> None:
    args = argparse.Namespace(workload="distill", seed=0, seconds=1.0, trace=0)
    ctx = run.Context(args)
    try:
        wl = run.Distill(ctx)
        tracer = bench_trace.Tracer(ctx.pkg)
        tracer.install(full=False)
        try:
            rec = run.run_command(ctx, wl, tracer)
        finally:
            tracer.uninstall()
        expect("clean distill command passes its checks", rec["failed"] == 0, str(rec["problems"]))
        csv_path = wl.out / "phase1_metrics.csv"
        pristine = csv_path.read_text()
        edit_last_row(csv_path, "vel_img", lambda v: repr(float(v) * 1.001))
        attempted, failed, problems = wl.check("")
        expect("edited phase-1 CSV value counts as a failed operation",
               (attempted, failed) == (1, 1), "; ".join(problems))
        csv_path.write_text(pristine)
        edit_last_row(csv_path, "feature_mse", lambda v: "nan")
        attempted, failed, problems = wl.check("")
        expect("NaN in phase-1 CSV counts as a failed operation", failed == 1, "; ".join(problems))
        csv_path.write_text(pristine)
        expect("restored CSV passes again", wl.check("")[1] == 0)

        report = {"passed": True, "total": 65, "failed": [],
                  "checks": [{"name": f"c{i}", "passed": True, "detail": "", "ms": 1.0}
                             for i in range(65)]}
        report["checks"][3]["passed"] = False
        path = ctx.work / "check_report.json"
        path.write_text(json.dumps(report))
        attempted, failed, problems = bench_verify.check_report(path, 65)
        expect("a failed check in the report counts as one failed operation",
               (attempted, failed) == (65, 1), "; ".join(problems))
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def missing_function() -> None:
    rectflow = importlib.import_module("restorect.rectflow")
    saved = rectflow.trajectory_consistency_loss
    del rectflow.trajectory_consistency_loss
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "samplers", "--seed", "0", "--seconds", "1"])
    finally:
        rectflow.trajectory_consistency_loss = saved
    expect("missing rectflow.trajectory_consistency_loss aborts the run",
           code == 3 and not out.getvalue().strip() and "trajectory_consistency_loss" in err.getvalue(),
           f"exit {code}, stderr {err.getvalue().strip()!r}")


def exact_counts() -> None:
    for workload in ("distill", "samplers"):
        counts = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", "1"],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            counts.append({k: metrics[k]["value"] for k in run.EXACT_COUNTS})
        expect(f"exact counts repeat across two traced {workload} runs",
               counts[0] == counts[1],
               ", ".join(f"{k.split('.', 1)[1]}={v}" for k, v in counts[0].items() if v))


def main() -> int:
    run.import_restorect()
    corrupted_outputs()
    missing_function()
    exact_counts()
    print("selftest: " + ("ok" if not FAILURES else f"{len(FAILURES)} failed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
