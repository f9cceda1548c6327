"""Command-line surface: self-checks, the two training phases, the full
distillation pipeline, the sampler comparison table, and small demos of the
color transform and the diffusion operator.

Exit codes: 0 success, 1 check or experiment failure, 2 usage error. The
--seed flag overrides the config seed. All output files land under --out.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from . import aniso_diffusion as ani
from . import checks
from . import distill_harness as dh
from . import hvi_color as hvi
from . import ndtensor as nd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restorect",
        description="Desk-scale rectified-flow feature distillation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, config=None, steps=False):
        """A subcommand with --out plus only the flags its handler reads;
        `config` is None, "optional" or "required" (the training commands)."""
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", required=config == "required",
                           help="path to a JSON experiment config")
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="directory for all output files")
        if steps:
            p.add_argument("--steps", default=None,
                           help="comma-separated sampler step counts, e.g. 1,2,3,4,5")

    command("check", "run every registered self-check")
    command("grad-check", "run the finite-difference gradient suite")
    command("train-phase1", "train the velocity predictors", config="required")
    command("train-phase2", "train the student against frozen predictors", config="required")
    command("distill", "run phase 1 and phase 2 end to end", config="required")
    command("compare-samplers", "few-step quality table: rectified flow vs DDIM baseline",
            config="optional", steps=True)
    command("demo-hvi", "write a hue-sweep CSV of polarized coordinates")
    command("demo-diffusion", "write a CSV demo of the diffusion operator", config="optional")
    return parser


def resolve_config(args) -> dh.ExperimentConfig:
    if args.config:
        config = dh.load_config(args.config)
    else:
        config = dh.ExperimentConfig()
    if args.seed is not None:
        config.seed = args.seed
    return config


def cmd_check(args, names=None) -> int:
    os.makedirs(args.out, exist_ok=True)
    label = "grad_check" if names is not None else "check"
    path = os.path.join(args.out, f"{label}_report.json")
    t0 = time.perf_counter()
    report = checks.run_checks(names=names, report_path=path)
    status = "ok" if report["passed"] else f"FAILED ({len(report['failed'])})"
    print(f"{label}: {report['total']} checks, {status}, "
          f"{time.perf_counter() - t0:.1f}s, report {path}")
    return 0 if report["passed"] else 1


def cmd_train_phase1(args) -> int:
    config = resolve_config(args)
    nets, rows = dh.train_phase1(dh.Experiment(config))
    dh.save_phase1(args.out, nets, rows)
    print(f"phase1: {config.phase1_iters} iters, velocity loss "
          f"{dh.vel_sum(rows[0]):.3f} -> {dh.vel_sum(rows[-1]):.3f}")
    return 0


def cmd_train_phase2(args) -> int:
    config = resolve_config(args)
    exp = dh.Experiment(config)
    try:
        nets = dh.load_phase1(config, args.out)
    except FileNotFoundError as exc:
        print(f"phase2: missing phase-1 checkpoints under {args.out} ({exc})", file=sys.stderr)
        return 1
    student, rows, summary = dh.train_phase2(exp, nets)
    dh.save_phase2(args.out, student, rows)
    print(f"phase2: {config.phase2_iters} iters, holdout L1 "
          f"{summary['initial_holdout_l1']:.4f} -> {summary['final_holdout_l1']:.4f}, "
          f"gate fraction {summary['gate_fraction']:.3f}")
    return 0


def cmd_distill(args) -> int:
    config = resolve_config(args)
    summary = dh.distill(config, outdir=args.out)
    print(f"phase1: velocity loss {summary['phase1_initial_vel']:.3f} -> "
          f"{summary['phase1_final_vel']:.3f}")
    print(f"phase2: holdout L1 {summary['initial_holdout_l1']:.4f} -> "
          f"{summary['final_holdout_l1']:.4f}, gate fraction "
          f"{summary['gate_fraction']:.3f}")
    return 0


def cmd_compare_samplers(args) -> int:
    config = resolve_config(args)
    if args.steps:
        try:  # replace() re-runs the config's own step-range check
            config = replace(config, sampler_steps=[int(s) for s in args.steps.split(",") if s])
        except ValueError as exc:
            print(f"compare-samplers: bad --steps value '{args.steps}' ({exc})", file=sys.stderr)
            return 2
    os.makedirs(args.out, exist_ok=True)
    exp = dh.Experiment(config)
    try:
        nets = dh.load_phase1(config, args.out)
        print(f"compare-samplers: loaded phase-1 checkpoints from {args.out}")
    except FileNotFoundError:
        print("compare-samplers: no checkpoints found, training the flow predictors")
        nets, _ = dh.train_phase1(exp)
    ddim_net = dh.train_ddim_baseline(exp)
    rows = dh.compare_samplers(
        exp, nets["img"], ddim_net,
        out_csv=os.path.join(args.out, "samplers.csv"),
        timing_csv=os.path.join(args.out, "samplers_timing.csv"))
    for r in rows:
        print(f"{r.sampler:5s} steps={r.steps} frechet={r.frechet:12.4f} mse={r.mse:10.6f}")
    print(f"compare-samplers: {len(rows)} rows -> {os.path.join(args.out, 'samplers.csv')}")
    return 0


def cmd_demo_hvi(args) -> int:
    """Hue sweep at S=1, I=1: polarized coordinates are periodic and continuous
    across the red boundary."""
    os.makedirs(args.out, exist_ok=True)
    hues = np.concatenate([np.linspace(0.0, 5.999, 120), [1e-3, 6.0 - 1e-3]])
    arr = np.array([hvi.hue_rgb(h) for h in hues]).T.reshape(1, 3, 1, -1)
    out = hvi.to_polarized_hvi(ad.constant(arr), hvi.chroma_density())
    path = os.path.join(args.out, "hvi_hue_sweep.csv")
    nd.write_csv(path, ["hue", "h_polar", "v_polar", "i_polar"],
                 zip(hues, *(p.data[0, 0, 0] for p in (out.h_polar, out.v_polar, out.i_polar))))
    gap = math.hypot(
        float(out.h_polar.data[0, 0, 0, -2] - out.h_polar.data[0, 0, 0, -1]),
        float(out.v_polar.data[0, 0, 0, -2] - out.v_polar.data[0, 0, 0, -1]))
    print(f"demo-hvi: {len(hues)} samples -> {path}; red-boundary gap {gap:.2e}")
    return 0


def cmd_demo_diffusion(args) -> int:
    """Diffusion operator response along a 1-d slice of a step edge for a few
    sensitivity values: large gradients are preserved, small ones smoothed."""
    config = resolve_config(args)
    os.makedirs(args.out, exist_ok=True)
    n = 32
    img = np.zeros((1, 1, 8, n))
    img[:, :, :, n // 2:] = 1.0
    img += nd.Rng(config.seed).normal(img.shape, scale=0.02)
    img = np.clip(img, 0.0, 1.0)
    responses = [ani.anisotropic_operator(ad.constant(img), ani.edge_sensitivity(s)).data[0, 0, 4]
                 for s in (0.05, 0.1, 0.5)]
    path = os.path.join(args.out, "diffusion_edge_response.csv")
    nd.write_csv(path, ["x", "input", "response_s0.05", "response_s0.1", "response_s0.5"],
                 zip(range(n), img[0, 0, 4], *responses))
    print(f"demo-diffusion: edge response for s in (0.05, 0.1, 0.5) -> {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": cmd_check,
        "grad-check": lambda a: cmd_check(a, names=checks.gradient_check_names()),
        "train-phase1": cmd_train_phase1,
        "train-phase2": cmd_train_phase2,
        "distill": cmd_distill,
        "compare-samplers": cmd_compare_samplers,
        "demo-hvi": cmd_demo_hvi,
        "demo-diffusion": cmd_demo_diffusion,
    }
    try:
        # the finite guards raise on what overflows; numpy's own warnings
        # would only add stderr lines to the one-line failure message
        with np.errstate(over="ignore", invalid="ignore"):
            return handlers[args.command](args)
    except (dh.TrainingDiverged, FloatingPointError, np.linalg.LinAlgError,
            ValueError, KeyError, OSError) as exc:
        print(f"restorect {args.command}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
