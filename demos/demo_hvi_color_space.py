"""Walk the hue wheel through the polarized color coordinates.

Two things to watch: the trajectory is a closed smooth curve (no jump at the
red boundary, unlike raw hue), and dark pixels collapse toward the origin of
the chroma plane, so near-black colors cannot produce wild chroma gradients.
"""

import numpy as np

from restorect import autodiff as ad
from restorect import hvi_color as hvi


def main():
    k = hvi.chroma_density()

    print("hue sweep at full saturation and intensity:")
    hues = np.linspace(0.0, 5.999, 13)
    arr = np.array([hvi.hue_rgb(h) for h in hues]).T.reshape(1, 3, 1, -1)
    out = hvi.to_polarized_hvi(ad.constant(arr), k)
    for i, h in enumerate(hues):
        print(f"  hue={h:5.3f}  ->  h_polar={out.h_polar.data[0, 0, 0, i]:+.4f}  "
              f"v_polar={out.v_polar.data[0, 0, 0, i]:+.4f}")

    delta = 1e-3
    pair = np.array([hvi.hue_rgb(6.0 - delta), hvi.hue_rgb(delta)]).T.reshape(1, 3, 1, 2)
    out = hvi.to_polarized_hvi(ad.constant(pair), k)
    gap = max(abs(float(p.data[0, 0, 0, 0] - p.data[0, 0, 0, 1])) for p in out.planes())
    print(f"\nred-boundary gap for hues 6-{delta} vs {delta}: {gap:.2e} (continuous)")

    print("\ndark-region collapse (same hue, shrinking intensity):")
    for v in (0.5, 0.1, 0.02, 0.0):
        rgb = np.array(hvi.hue_rgb(0.8)) * v
        out = hvi.to_polarized_hvi(ad.constant(rgb.reshape(1, 3, 1, 1)), k)
        chroma = np.hypot(out.h_polar.data.item(), out.v_polar.data.item())
        print(f"  intensity {v:4.2f}: chroma magnitude {chroma:.5f}")

    loss = hvi.polarized_color_loss(
        ad.constant(np.zeros((1, 3, 2, 2))),
        ad.constant(np.broadcast_to(np.array(hvi.hue_rgb(0.0)).reshape(1, 3, 1, 1),
                                    (1, 3, 2, 2)).copy()),
        k)
    print(f"\ncolor loss black vs pure red: {loss.item():.6f} (one unit per chroma/intensity plane)")


if __name__ == "__main__":
    main()
