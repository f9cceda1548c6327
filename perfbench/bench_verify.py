"""Output checks for the benchmark's workloads.

Each check returns a list of problems; an empty list means the command's
outputs are correct. Stored reference values come from reference.json,
written by make_reference.py at the commit that defined the benchmark.

Reference comparisons use REL_TOL = 1e-6 (with ABS_TOL = 1e-12 for values
near zero). Measured on the distill workload at program seed 42: a fused
closed-form softmax moved the compared values by at most 1.9e-16 relative and
an in-place, re-associated Adam update by 1.3e-10, while raising lr_phase2 by
0.1% moved them by 6.5e-4 and lambda_flex by 0.07% by 7.0e-5. The tolerance
sits four orders above the first kind of change and seventy times below the
second.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct

import numpy as np

REL_TOL = 1e-6
ABS_TOL = 1e-12
TOTAL_TOL = 1e-9  # logged total vs recombined components, same run

PHASE1_HEADER = ["iteration", "total", "vel_rex", "vel_img", "kd", "traj",
                 "feature_mse", "frechet", "steps"]
PHASE2_HEADER = ["iteration", "total", "rec", "flex", "vel_rex", "vel_img", "holdout_l1",
                 "gate_frac", "feature_mse", "frechet", "steps"]
SAMPLER_HEADER = ["sampler", "steps", "frechet", "mse"]
CHECKPOINTS = ("ckpt_vel_rex", "ckpt_vel_img", "ckpt_student")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def logged_iterations(iters: int, log_interval: int) -> list:
    return [it for it in range(iters) if it % log_interval == 0 or it == iters - 1]


def _metrics_csv(path, header, iters, log_interval, nan_columns=()):
    """Parse a metrics CSV into dict rows, checking shape and finiteness."""
    problems = []
    got_header, rows = read_csv(path)
    name = os.path.basename(path)
    if got_header != header:
        return [f"{name}: header {got_header}"], []
    expected = logged_iterations(iters, log_interval)
    if [r[0] for r in rows] != [str(it) for it in expected]:
        problems.append(f"{name}: iterations {[r[0] for r in rows]}, expected {expected}")
    parsed = []
    for r in rows:
        if len(r) != len(header):
            problems.append(f"{name}: row {r[0]} has {len(r)} columns")
            continue
        row = {col: float(v) for col, v in zip(header, r)}
        for col, v in row.items():
            if col in nan_columns:
                if not math.isnan(v):
                    problems.append(f"{name}: {col} at iteration {r[0]} is {v}, expected nan")
            elif not math.isfinite(v):
                problems.append(f"{name}: {col} at iteration {r[0]} is not finite")
        parsed.append(row)
    return problems, parsed


def _checkpoint(directory):
    """(param count, element count) of a checkpoint, parsed independently of
    the package: manifest lines name -> file; each file holds a u32 rank,
    u64 dims and float64 data, all finite."""
    with open(os.path.join(directory, "manifest.txt"), encoding="utf-8") as fh:
        entries = [line.split("\t") for line in fh.read().splitlines() if line]
    elems = 0
    for name, fname in entries:
        with open(os.path.join(directory, fname), "rb") as fh:
            blob = fh.read()
        (rank,) = struct.unpack_from("<I", blob, 0)
        dims = struct.unpack_from(f"<{rank}Q", blob, 4)
        count = math.prod(dims)
        if len(blob) != 4 + 8 * rank + 8 * count:
            raise ValueError(f"{directory}/{fname} ({name}): size {len(blob)} does not match dims")
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=4 + 8 * rank)
        if not np.isfinite(values).all():
            raise ValueError(f"{directory}/{fname} ({name}): non-finite values")
        elems += count
    return [len(entries), elems]


def distill_outputs(out_dir, config, dh) -> tuple:
    """Problems with a distill command's outputs, and the values compared
    against the reference."""
    log = config.log_interval
    problems, p1 = _metrics_csv(os.path.join(out_dir, "phase1_metrics.csv"), PHASE1_HEADER,
                                config.phase1_iters, log)
    # phase 2 runs no Frechet probe; the program writes nan in that column
    more, p2 = _metrics_csv(os.path.join(out_dir, "phase2_metrics.csv"), PHASE2_HEADER,
                            config.phase2_iters, log, nan_columns=("frechet",))
    problems += more
    for label, rows, recombine in (("phase1", p1, dh.phase1_loss_total),
                                   ("phase2", p2, dh.phase2_loss_total)):
        for row in rows:
            total = recombine(row, config)
            if abs(total - row["total"]) > TOTAL_TOL * max(1.0, abs(total)):
                problems.append(f"{label}: logged total {row['total']!r} at iteration "
                                f"{int(row['iteration'])} != recombined {total!r}")
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    if p2 and summary.get("final_holdout_l1") != p2[-1]["holdout_l1"]:
        problems.append("summary.json: final_holdout_l1 differs from the last logged row")
    if p2 and summary.get("gate_fraction") != p2[-1]["gate_frac"]:
        problems.append("summary.json: gate_fraction differs from the last logged row")
    values = {}
    if p1 and p2:
        values.update({f"phase1.{k}": v for k, v in p1[-1].items()})
        values.update({f"phase2.{k}": v for k, v in p2[-1].items() if k != "frechet"})
    values.update({f"summary.{k}": float(v) for k, v in summary.items()})
    for name in CHECKPOINTS:
        try:
            values[name] = _checkpoint(os.path.join(out_dir, name))
        except (OSError, ValueError, struct.error) as exc:
            problems.append(f"{name}: {exc}")
    return problems, values


def sampler_outputs(out_dir, steps) -> tuple:
    problems = []
    header, rows = read_csv(os.path.join(out_dir, "samplers.csv"))
    if header != SAMPLER_HEADER:
        return [f"samplers.csv: header {header}"], {}
    values = {}
    for r in rows:
        if len(r) != 4:
            problems.append(f"samplers.csv: row {r} has {len(r)} columns")
            continue
        fd, mse = float(r[2]), float(r[3])
        if not (math.isfinite(fd) and math.isfinite(mse)):
            problems.append(f"samplers.csv: non-finite value in row {r}")
        values[f"{r[0]},{r[1]}"] = [fd, mse]
    expected = {f"{s},{n}" for s in ("rf", "ddim") for n in steps}
    if len(rows) != 2 * len(steps) or set(values) != expected:
        problems.append(f"samplers.csv: rows {sorted(values)}, expected 2x{len(steps)}")
    t_header, t_rows = read_csv(os.path.join(out_dir, "samplers_timing.csv"))
    if len(t_rows) != len(rows) or any(not float(r[-1]) > 0 for r in t_rows):
        problems.append("samplers_timing.csv: missing rows or non-positive wall_ms")
    return problems, values


def compare_reference(label, values: dict, ref: dict) -> list:
    """Compare a command's values with its reference entry, key by key."""
    if ref is None:
        return [f"{label}: no reference stored"]
    out = []
    for key, want in ref.items():
        have = values.get(key)
        if have is None:
            out.append(f"{label}: {key} missing")
        elif isinstance(want, list) and all(isinstance(w, int) for w in want):
            if have != want:
                out.append(f"{label}: {key} = {have}, reference {want}")
        elif isinstance(want, list):
            if not all(close(h, w) for h, w in zip(have, want)):
                out.append(f"{label}: {key} = {have}, reference {want}")
        elif not close(have, want):
            out.append(f"{label}: {key} = {have!r}, reference {want!r}")
    return out


def check_report(path, expected_total: int) -> tuple:
    """(attempted, failed, problems) for a check report: every registered
    check is one operation."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    results = report.get("checks", [])
    failed = [r["name"] for r in results if not r.get("passed")]
    problems = [f"check {name} failed" for name in failed]
    if report.get("total") != expected_total or len(results) != expected_total:
        problems.append(f"check report total {report.get('total')}, expected {expected_total}")
    if report.get("failed") != failed or report.get("passed") != (not failed):
        problems.append("check report summary disagrees with its entries")
    missing = max(expected_total - len(results), 0)
    return expected_total, len(failed) + missing, problems
