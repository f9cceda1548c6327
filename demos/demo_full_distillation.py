"""End-to-end miniature of the two-phase distillation pipeline on a reduced
configuration (a few seconds instead of minutes), followed by the sampler
comparison table.

Phase 1 trains the two velocity predictors to synthesize the frozen teacher's
feature vectors from noise. Phase 2 freezes them and trains the student
restoration network, whose attention is conditioned on sampled features and
whose block activations are pulled toward a teacher-side reference by the
cross-normalized feature-matching loss.
"""

from restorect import distill_harness as dh


def main():
    config = dh.ExperimentConfig(
        seed=11, phase1_iters=120, phase2_iters=80, dataset_size=24,
        holdout_size=8, batch_size=6, log_interval=30, image_size=8,
        channels=8, compare_count=96, ddim_iters=200,
    )
    print("running distillation with a reduced desk config...")
    summary = dh.distill(config)

    print(f"\nphase 1: velocity loss {summary['phase1_initial_vel']:9.3f} "
          f"-> {summary['phase1_final_vel']:9.3f}")
    print(f"phase 2: holdout L1    {summary['initial_holdout_l1']:9.4f} "
          f"-> {summary['final_holdout_l1']:9.4f}")
    print(f"phase 2: feature-matching gate active on "
          f"{summary['gate_fraction'] * 100:.1f}% of iterations (expected ~40%)")

    print("\nsampler comparison (Gaussian Frechet distance to teacher features):")
    exp = summary["experiment"]
    ddim_net = dh.train_ddim_baseline(exp)
    rows = dh.compare_samplers(exp, summary["nets"]["img"], ddim_net)
    print(f"  {'sampler':8s} {'steps':>5s} {'frechet':>12s} {'mse':>10s}")
    for r in rows:
        print(f"  {r.sampler:8s} {r.steps:5d} {r.frechet:12.4f} {r.mse:10.6f}")

    rf1 = next(r.frechet for r in rows if r.sampler == "rf" and r.steps == 1)
    dd1 = next(r.frechet for r in rows if r.sampler == "ddim" and r.steps == 1)
    print(f"\nat a single step the flow sampler is x{dd1 / rf1:.1f} closer to the "
          f"teacher distribution than the denoising baseline")


if __name__ == "__main__":
    main()
