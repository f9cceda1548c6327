"""Straight-path sampling in miniature: train a small velocity predictor on a
toy conditional feature distribution, then sample with 1 to 5 Euler steps and
watch the endpoint barely move, because learned straight trajectories do not
need fine integration.
"""

import numpy as np

from restorect import autodiff as ad
from restorect import ndtensor as nd
from restorect import nn_blocks as nn
from restorect import rectflow as rf
from restorect.distill_harness import Adam


def main():
    rng = nd.Rng(0)
    dim = 16

    # toy task: target features are a fixed linear map of the conditioning
    mix = rng.normal((dim, dim)) / np.sqrt(dim)

    def sample_batch(r, n):
        c = r.normal((n, dim))
        f = c @ mix
        z = r.normal((n, dim))
        return z, f, c

    net = nn.VelocityPredictor(rng.derive("net"), feature_dim=dim)
    opt = Adam(net.params(), 2e-3)
    loop = rng.derive("loop")
    for it in range(400):
        z, f, c = sample_batch(loop, 16)
        loss = rf.velocity_matching_loss(
            net, (ad.constant(z), ad.constant(f), ad.constant(c)), loop)
        opt.zero_grad()
        loss.backward()
        opt.step()
        if it % 100 == 0:
            print(f"iter {it:3d}: velocity loss {loss.item():8.4f}")
    net.trained = True

    print("\nendpoint error vs integration steps (same noise, same conditioning):")
    z, f, c = sample_batch(rng.derive("eval"), 64)
    endpoints = {}
    for steps in (1, 2, 3, 4, 5):
        out, traj = rf.euler_sample(net, ad.constant(z), ad.constant(c), steps)
        err = float(((out.data - f) ** 2).mean())
        endpoints[steps] = out.data
        print(f"  steps={steps}: feature mse {err:.4f}  (net called {len(traj)} times)")

    drift = float(np.abs(endpoints[1] - endpoints[4]).max())
    print(f"\nmax endpoint drift between 1-step and 4-step sampling: {drift:.4f}")
    print("(a perfectly straight learned field would make this exactly zero)")

    out, traj = rf.euler_sample(net, ad.constant(z), ad.constant(c), 4)
    l_traj = rf.trajectory_consistency_loss(traj, ad.constant(f))
    print(f"trajectory consistency loss on the 4-step path: {l_traj.item():.4f}")


if __name__ == "__main__":
    main()
