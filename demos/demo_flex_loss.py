"""Why the feature-matching loss survives conditions that break plain MSE.

Three behaviors, each printed with its plain-MSE counterpart:
1. a teacher running at a wildly different scale no longer explodes the
   gradient once both sides are normalized by the student's statistics;
2. a handful of corrupted positions fall outside the per-channel percentile
   mask instead of dominating the loss;
3. resolution weighting stops high-resolution layers from drowning out
   coarse ones.
"""

import numpy as np

from restorect import autodiff as ad
from restorect import flexloss as fx
from restorect import ndtensor as nd


def grad_norm(loss_fn, param):
    param.zero_grad()
    loss_fn().backward()
    return float(np.linalg.norm(param.grad))


def main():
    t_max = 4
    rng = nd.Rng(0)

    # 1. teacher scale mismatch: heavy-tailed teacher, student outliers at the
    #    same positions (the mask removes exactly the scale carriers)
    n = 100
    teach = np.zeros((1, 2, 10, 10))
    stud_vals = rng.normal((1, 2, 10, 10))
    for ci in range(2):
        pos = rng.permutation(n)[:4]
        teach[:, ci].reshape(n)[pos] = np.array([100.0, -100.0, 100.0, -100.0])
        stud_vals[:, ci].reshape(n)[pos] = np.array([8.0, -8.0, -8.0, 8.0])
    stud = ad.Param(stud_vals, "stud")

    print("teacher scale robustness (gradient norms w.r.t. the student):")
    for scale in (1.0, 1000.0):
        tb = {"l": ad.constant(scale * teach)}
        sb = {"l": stud}
        g_flex = grad_norm(lambda: fx.flex_loss(tb, sb, 0, t_max), stud)
        t_const = ad.constant(scale * teach)
        g_mse = grad_norm(lambda: ad.mean((t_const - stud) * (t_const - stud)), stud)
        print(f"  teacher x{scale:6.0f}: flex grad {g_flex:10.4f}   mse grad {g_mse:10.4f}")

    # 2. corruption: spikes on 4% of one channel's positions
    stud2 = rng.normal((2, 16, 10, 10))
    teach2 = stud2 + 0.3 * rng.normal((2, 16, 10, 10))
    tb = {"l": ad.constant(teach2)}
    sb = {"l": ad.constant(stud2)}
    clean = fx.flex_loss(tb, sb, 0, t_max).item()
    corrupted = stud2.copy()
    hit = np.zeros(200, dtype=bool)
    hit[rng.permutation(200)[:8]] = True
    corrupted[:, 3][hit.reshape(2, 10, 10)] = 1e6
    tb2 = {"l": ad.constant(teach2)}
    sb2 = {"l": ad.constant(corrupted)}
    spiked = fx.flex_loss(tb2, sb2, 0, t_max).item()
    mse_clean = float(((teach2 - stud2) ** 2).mean())
    mse_spiked = float(((teach2 - corrupted) ** 2).mean())
    print("\ncorruption robustness (8 spikes of 1e6 in one channel):")
    print(f"  flex loss: {clean:.4f} -> {spiked:.4f}  ({abs(spiked - clean) / clean * 100:.2f}% change)")
    print(f"  mse  loss: {mse_clean:.4f} -> {mse_spiked:.3e}  (x{mse_spiked / mse_clean:.1e})")

    # 3. resolution weighting
    print("\nper-layer weight of an identical per-element error across scales:")
    for size in (16, 64, 256, 4096):
        print(f"  {size:5d} x {size:<5d} -> w_res = {fx.resolution_weight(size, size):.4f}")

    # SNR gate
    print(f"\nSNR gate over the discrete timestep grid (t_max = {t_max}):")
    stud3 = rng.normal((1, 2, 4, 4))
    tb3 = {"l": ad.constant(stud3 + 1.0)}
    sb3 = {"l": ad.constant(stud3)}
    for t in range(t_max + 1):
        val = fx.flex_loss(tb3, sb3, t, t_max).item()
        state = "active" if val > 0 else "gated off"
        print(f"  t={t} (t/t_max={t / t_max:.2f}): loss={val:8.4f}  [{state}]")


if __name__ == "__main__":
    main()
