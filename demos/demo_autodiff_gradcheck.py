"""Build a small composite loss and verify every analytic gradient against
central differences.

The same harness backs the package's registered gradient suite; this script
shows how to point it at your own function.
"""

import numpy as np

from restorect import autodiff as ad
from restorect import ndtensor as nd


def main():
    rng = nd.Rng(0)
    w = ad.Param(rng.normal((4, 3)), "w")
    b = ad.Param(np.zeros(3), "b")
    x = ad.constant(rng.normal((8, 4)))
    target = ad.constant(rng.normal((8, 3)))

    def loss():
        h = ad.leaky_relu(ad.matmul(x, w) + b, 0.1)
        y = ad.softmax(h, axis=-1)
        d = y - target
        return ad.mean(d * d) + 0.01 * ad.sum_(ad.abs_(w))

    report = ad.fd_check(loss, [w, b])
    print(report.summary())
    print("all gradients verified" if report.passed else "MISMATCH FOUND")

    # gradients accumulate linearly: grad(L1 + L2) == grad(L1) + grad(L2)
    w.zero_grad()
    loss().backward()
    g_once = w.grad.copy()
    w.zero_grad()
    (loss() + loss()).backward()
    print("linearity holds:", np.allclose(w.grad, 2.0 * g_once))


if __name__ == "__main__":
    main()
