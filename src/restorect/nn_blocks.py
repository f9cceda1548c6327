"""Network building blocks: spatial-channel layer norm, QK-normalized
attention with reflectance/illumination conditioning, a shape-preserving
transformer block, the 4-layer decomposition net, a frozen random feature
extractor for perceptual/style losses, the residual-MLP velocity predictor,
and the combined teacher objective.

Checkpoints are written as one binary tensor dump per named param plus a
plain-text manifest mapping param name -> file.
"""

from __future__ import annotations

import glob
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import ndtensor as nd
from .autodiff import Param, Tensor

TAU_BOUNDS = (1e-3, 1e3)  # wide stability clamp; never binds in practice
FFN_EXPANSION = 2.66
HEAD_COUNT = 2  # attention heads, each channels / HEAD_COUNT wide


# -- spatial-channel layer normalization ---------------------------------------

@dataclass
class SclnParams:
    gamma: Param  # per-channel scale, length C

    @staticmethod
    def create(channels: int, name: str = "scln.gamma") -> "SclnParams":
        return SclnParams(gamma=Param(np.ones(channels), name))


def scln(x: Tensor, params: SclnParams) -> Tensor:
    """Normalize each sample by its global mean/variance over (C,H,W), then
    scale per channel by gamma."""
    x = ad.constant(x)
    if x.ndim != 4:
        raise ValueError(f"scln: expected (B,C,H,W), got {x.shape}")
    c = x.shape[1]
    if params.gamma.data.shape != (c,):
        raise ValueError(f"scln: gamma has length {params.gamma.data.shape}, input has C={c}")
    return ad.layer_norm(x, axis=(1, 2, 3)) * ad.reshape(params.gamma, (1, c, 1, 1))


# -- QK-normalized retinex attention --------------------------------------------

class AttentionParams:
    """Projections and temperature for the split-pathway attention.

    The channel axis is split 3C/4 (reflectance) / C/4 (illumination); the
    conditioning vector (cond_dim wide, 256 by default) is split the same way,
    192/64 at 256, and modulates each pathway as x * Linear(cond) + x. Queries
    come from the reflectance pathway, keys and values from the illumination
    pathway.
    """

    def __init__(self, channels: int, rng: nd.Rng, prefix: str = "attn", cond_dim: int = 256):
        if channels % (4 * HEAD_COUNT) != 0:
            raise ValueError(
                f"attention: channels={channels} not divisible by 4*HEAD_COUNT={4 * HEAD_COUNT}"
            )
        self.channels = channels
        self.cond_dim = cond_dim
        c_r = 3 * channels // 4
        c_i = channels // 4
        k_r = 3 * cond_dim // 4

        def w(shape, fan_in, tag):
            return Param(rng.normal(shape) / math.sqrt(fan_in), f"{prefix}.{tag}")

        self.w_cond_r = w((k_r, c_r), k_r, "w_cond_r")
        self.b_cond_r = Param(np.zeros(c_r), f"{prefix}.b_cond_r")
        self.w_cond_i = w((cond_dim - k_r, c_i), cond_dim - k_r, "w_cond_i")
        self.b_cond_i = Param(np.zeros(c_i), f"{prefix}.b_cond_i")
        self.wq = w((c_r, channels), c_r, "wq")
        self.wkv = w((c_i, 2 * channels), c_i, "wkv")
        self.wo = w((channels, channels), channels, "wo")
        self.tau = Param(1.0, f"{prefix}.tau", lo=TAU_BOUNDS[0], hi=TAU_BOUNDS[1])

    def params(self) -> dict:
        out = {}
        for p in (self.w_cond_r, self.b_cond_r, self.w_cond_i, self.b_cond_i,
                  self.wq, self.wkv, self.wo, self.tau):
            out[p.name] = p
        return out


def _to_tokens(x: Tensor):
    b, c, h, w = x.shape
    return ad.transpose(ad.reshape(x, (b, c, h * w)), (0, 2, 1))  # (B, HW, C)


def _from_tokens(t: Tensor, h: int, w: int):
    b, hw, c = t.shape
    return ad.reshape(ad.transpose(t, (0, 2, 1)), (b, c, h, w))


def _split_heads(t: Tensor):
    b, hw, c = t.shape
    return ad.transpose(ad.reshape(t, (b, hw, HEAD_COUNT, c // HEAD_COUNT)), (0, 2, 1, 3))


def qk_normalized_attention(x: Tensor, ipr: Tensor, params: AttentionParams,
                            return_weights: bool = False):
    """Attention over spatial tokens with LayerNorm followed by L2
    normalization on Q and K, so every pre-softmax logit is bounded by
    |tau| / sqrt(d_k)."""
    x = ad.constant(x)
    ipr = ad.constant(ipr)
    if x.ndim != 4 or x.shape[1] != params.channels:
        raise ValueError(f"attention: expected (B,{params.channels},H,W), got {x.shape}")
    if ipr.ndim != 2 or ipr.shape[1] != params.cond_dim or ipr.shape[0] != x.shape[0]:
        raise ValueError(f"attention: conditioning must be (B,{params.cond_dim}), got {ipr.shape}")
    b, c, h, w = x.shape
    c_r = 3 * c // 4
    k_r = 3 * params.cond_dim // 4

    x_r, x_i = x[:, :c_r], x[:, c_r:]
    k_vr = ad.matmul(ipr[:, :k_r], params.w_cond_r) + params.b_cond_r
    k_vi = ad.matmul(ipr[:, k_r:], params.w_cond_i) + params.b_cond_i
    x_r = x_r * ad.reshape(k_vr, (b, c_r, 1, 1)) + x_r
    x_i = x_i * ad.reshape(k_vi, (b, c - c_r, 1, 1)) + x_i

    q = ad.matmul(_to_tokens(x_r), params.wq)  # (B, HW, C)
    kv = ad.matmul(_to_tokens(x_i), params.wkv)  # (B, HW, 2C)
    k, v = kv[:, :, :c], kv[:, :, c:]

    qh, kh, vh = _split_heads(q), _split_heads(k), _split_heads(v)
    d_k = c // HEAD_COUNT
    qn = ad.l2_normalize(ad.layer_norm(qh, axis=-1), axis=-1)
    kn = ad.l2_normalize(ad.layer_norm(kh, axis=-1), axis=-1)

    scale = params.tau * (1.0 / math.sqrt(d_k))
    ctx, weights = ad.attention(qn, kn, vh, scale)  # ctx: (B, heads, HW, d_k)
    merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, h * w, c))
    out = _from_tokens(ad.matmul(merged, params.wo), h, w)
    if return_weights:
        return out, weights
    return out


# -- transformer block ----------------------------------------------------------

class ToyTransformerBlock:
    """Pre-norm residual block: x + Attn(SCLN(x)), then + FFN(SCLN(.)).

    The FFN is a per-token two-layer MLP with expansion factor 2.66. With the
    attention output projection and the second FFN matrix at zero the block
    is exactly the identity.
    """

    def __init__(self, channels: int, rng: nd.Rng, prefix: str = "block", cond_dim: int = 256):
        self.norm1 = SclnParams.create(channels, f"{prefix}.norm1.gamma")
        self.norm2 = SclnParams.create(channels, f"{prefix}.norm2.gamma")
        self.attn = AttentionParams(channels, rng, prefix=f"{prefix}.attn", cond_dim=cond_dim)
        hidden = int(round(FFN_EXPANSION * channels))
        self.w1 = Param(rng.normal((channels, hidden)) / math.sqrt(channels), f"{prefix}.ffn.w1")
        self.b1 = Param(np.zeros(hidden), f"{prefix}.ffn.b1")
        self.w2 = Param(rng.normal((hidden, channels)) / math.sqrt(hidden), f"{prefix}.ffn.w2")
        self.b2 = Param(np.zeros(channels), f"{prefix}.ffn.b2")

    def params(self) -> dict:
        out = {self.norm1.gamma.name: self.norm1.gamma, self.norm2.gamma.name: self.norm2.gamma}
        out.update(self.attn.params())
        for p in (self.w1, self.b1, self.w2, self.b2):
            out[p.name] = p
        return out

    def forward(self, x: Tensor, ipr: Tensor, collect: dict = None) -> Tensor:
        b, c, h, w = x.shape
        y = x + qk_normalized_attention(scln(x, self.norm1), ipr, self.attn)
        if collect is not None:
            collect["attn_res"] = y
        t = _to_tokens(scln(y, self.norm2))
        t = ad.matmul(ad.leaky_relu(ad.matmul(t, self.w1) + self.b1, 0.1), self.w2) + self.b2
        out = y + _from_tokens(t, h, w)
        if collect is not None:
            collect["block_out"] = out
        return out


# -- decomposition network --------------------------------------------------------

class DecompositionNet:
    """Four 3x3 convs (3->32->32->32->4), LeakyReLU(0.2) between and ReLU on
    the output; channels 0..3 are reflectance, channel 3..4 illumination."""

    WIDTHS = (3, 32, 32, 32, 4)

    def __init__(self, rng: nd.Rng, prefix: str = "decomp"):
        self.weights = []
        self.biases = []
        widths = self.WIDTHS
        for i in range(4):
            fan_in = widths[i] * 9
            w = Param(rng.normal((widths[i + 1], widths[i], 3, 3)) * math.sqrt(2.0 / fan_in),
                      f"{prefix}.conv{i}.w")
            # positive last bias keeps the ReLU output layer alive at init
            b_init = np.full(widths[i + 1], 0.5) if i == 3 else np.zeros(widths[i + 1])
            b = Param(b_init, f"{prefix}.conv{i}.b")
            self.weights.append(w)
            self.biases.append(b)

    def params(self) -> dict:
        out = {}
        for w, b in zip(self.weights, self.biases):
            out[w.name] = w
            out[b.name] = b
        return out

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for i in range(4):
            h = ad.conv2d_3x3(h, self.weights[i]) + ad.reshape(self.biases[i], (1, -1, 1, 1))
            h = ad.leaky_relu(h, 0.2) if i < 3 else ad.relu(h)
        return h


def decompose(image: Tensor, net: DecompositionNet):
    """Split an rgb image into non-negative reflectance (B,3,H,W) and
    illumination (B,1,H,W)."""
    image = ad.constant(image)
    if image.ndim != 4 or image.shape[1] != 3:
        raise ValueError(f"decompose: expected (B,3,H,W), got {image.shape}")
    if image.data.min() < 0.0 or image.data.max() > 1.0:
        raise ValueError("decompose: image values must lie in [0,1]")
    out = net.forward(image)
    return out[:, 0:3], out[:, 3:4]


# -- frozen feature extractor and perceptual/style losses --------------------------

class FeatureExtractor:
    """Frozen, seeded 3-layer conv stack standing in for a pretrained
    perceptual backbone. Layers 2 and 3 run at halved resolution via
    space-to-channel rearrangement, so the exposed features are multi-scale.
    Weights are constants; the extractor is never trained.
    """

    def __init__(self, rng: nd.Rng, in_channels: int = 3):
        def w(co, ci):
            return ad.constant(rng.normal((co, ci, 3, 3)) * math.sqrt(2.0 / (ci * 9)))

        self.w1 = w(8, in_channels)
        self.w2 = w(12, 8 * 4)
        self.w3 = w(16, 12 * 4)

    def features(self, x: Tensor) -> list:
        x = ad.constant(x)
        if x.ndim != 4:
            raise ValueError(f"feature extractor: expected (B,C,H,W), got {x.shape}")
        if x.shape[2] % 4 != 0 or x.shape[3] % 4 != 0:
            raise ValueError("feature extractor: H and W must be divisible by 4")
        f1 = ad.leaky_relu(ad.conv2d_3x3(x, self.w1), 0.1)
        f2 = ad.leaky_relu(ad.conv2d_3x3(ad.pixel_unshuffle(f1, 2), self.w2), 0.1)
        f3 = ad.leaky_relu(ad.conv2d_3x3(ad.pixel_unshuffle(f2, 2), self.w3), 0.1)
        return [f1, f2, f3]


def perceptual_loss(pred: Tensor, gt: Tensor, extractor) -> Tensor:
    """Sum over layers of mean squared feature differences."""
    loss = ad.constant(0.0)
    for a, b in zip(extractor.features(pred), extractor.features(gt)):
        d = a - b
        loss = loss + ad.mean(d * d)
    return loss


def gram_matrix(features: Tensor) -> Tensor:
    """(B,C,H,W) -> (B,C,C) co-activation matrix over flattened spatial dims,
    normalized by C*H*W. Invariant to spatial permutations of the features."""
    b, c, h, w = features.shape
    flat = ad.reshape(features, (b, c, h * w))
    return ad.matmul(flat, ad.transpose(flat, (0, 2, 1))) * (1.0 / (c * h * w))


def style_loss(pred: Tensor, gt: Tensor, extractor) -> Tensor:
    """Sum over layers of squared Frobenius distance between Gram matrices,
    averaged over the batch."""
    loss = ad.constant(0.0)
    for a, b in zip(extractor.features(pred), extractor.features(gt)):
        d = gram_matrix(a) - gram_matrix(b)
        loss = loss + ad.mean(ad.sum_(d * d, axes=(1, 2)))
    return loss


# -- velocity predictor --------------------------------------------------------------

class VelocityPredictor:
    """Residual MLP over feature vectors: Linear(513->256), LeakyReLU(0.1),
    five residual blocks (Linear 256->256 + LeakyReLU + skip), linear head.

    Inputs are assembled as [c; t_norm; x_t] with t_norm = t / t_max and t an
    integer timestep in [0, t_max]; the conditioning c is as wide as x_t
    (feature_dim, 256 above).
    """

    N_BLOCKS = 5

    def __init__(self, rng: nd.Rng, feature_dim: int = 256, *, t_max: int, prefix: str = "vel"):
        self.feature_dim = feature_dim
        self.t_max = t_max
        self.trained = False
        in_dim = 2 * feature_dim + 1

        def lin(shape, fan_in, tag, scale=1.0):
            return Param(rng.normal(shape) * (scale * math.sqrt(2.0 / fan_in)), f"{prefix}.{tag}")

        self.w_in = lin((in_dim, feature_dim), in_dim, "w_in")
        self.b_in = Param(np.zeros(feature_dim), f"{prefix}.b_in")
        self.blocks = []
        for i in range(self.N_BLOCKS):
            self.blocks.append(
                (lin((feature_dim, feature_dim), feature_dim, f"res{i}.w"),
                 Param(np.zeros(feature_dim), f"{prefix}.res{i}.b"))
            )
        # small head so the initial velocity guess is near zero
        self.w_out = lin((feature_dim, feature_dim), feature_dim, "w_out", scale=0.05)
        self.b_out = Param(np.zeros(feature_dim), f"{prefix}.b_out")

    def params(self) -> dict:
        out = {self.w_in.name: self.w_in, self.b_in.name: self.b_in}
        for w, b in self.blocks:
            out[w.name] = w
            out[b.name] = b
        out[self.w_out.name] = self.w_out
        out[self.b_out.name] = self.b_out
        return out

    def forward(self, x_t: Tensor, t, c: Tensor) -> Tensor:
        x_t, c = ad.constant(x_t), ad.constant(c)
        if x_t.ndim != 2 or x_t.shape[1] != self.feature_dim:
            raise ValueError(f"velocity predictor: x_t must be (B,{self.feature_dim}), got {x_t.shape}")
        if c.shape != x_t.shape:
            raise ValueError(f"velocity predictor: c must be (B,{self.feature_dim}), got {c.shape}")
        t_arr = np.asarray(t, dtype=np.float64).reshape(-1)
        if t_arr.size == 1:
            t_arr = np.full(x_t.shape[0], t_arr[0])
        if t_arr.shape[0] != x_t.shape[0]:
            raise ValueError(f"velocity predictor: got {t_arr.size} timesteps for batch {x_t.shape[0]}")
        if np.any(t_arr < 0) or np.any(t_arr > self.t_max):
            raise ValueError(f"velocity predictor: timestep out of [0, {self.t_max}]")
        t_norm = ad.constant((t_arr / self.t_max).reshape(-1, 1))
        h = ad.concat([c, t_norm, x_t], axis=1)
        h = ad.leaky_relu(ad.matmul(h, self.w_in) + self.b_in, 0.1)
        for w, b in self.blocks:
            h = h + ad.leaky_relu(ad.matmul(h, w) + b, 0.1)
        return ad.matmul(h, self.w_out) + self.b_out


# -- teacher objective ----------------------------------------------------------------

TEACHER_WEIGHTS = {"rec": 1.0, "vgg": 1.0, "sty": 1.0, "tex": 0.05, "col": 0.05, "lum": 0.2}


def teacher_objective(pred: Tensor, gt: Tensor, r_pred: Tensor, l_pred: Tensor,
                      input_img: Tensor, extractor, hvi_params, diffusion_params):
    """Combined restoration objective:
    L1 + perceptual + style + 0.05*texture + 0.05*color + 0.2*smoothness.

    Returns (total, components) where components holds the unweighted terms;
    the total is their weighted sum (weights in TEACHER_WEIGHTS).
    """
    from . import aniso_diffusion, hvi_color

    pred, gt = ad.constant(pred), ad.constant(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"teacher_objective: pred/gt shape mismatch {pred.shape} vs {gt.shape}")
    components = {
        "rec": ad.mean(ad.abs_(pred - gt)),
        "vgg": perceptual_loss(pred, gt, extractor),
        "sty": style_loss(pred, gt, extractor),
        "tex": aniso_diffusion.texture_loss(input_img, r_pred, diffusion_params),
        "col": hvi_color.polarized_color_loss(pred, gt, hvi_params),
        "lum": aniso_diffusion.illumination_smoothness_loss(l_pred),
    }
    total = ad.constant(0.0)
    for name, term in components.items():
        total = total + TEACHER_WEIGHTS[name] * term
    return total, components


# -- checkpoints ---------------------------------------------------------------------

def save_checkpoint(directory, params: dict) -> None:
    """One binary dump per param plus a manifest of name -> filename. The
    files go into a fresh sibling directory that then replaces `directory` by
    renames, so a failed or interrupted save never mixes old and new files.
    Once the new one is in place, every `<directory>.old-*` is removed: a
    save whose process died between its two renames leaves one behind."""
    directory = os.path.abspath(directory)
    tmp, old = f"{directory}.tmp-{os.getpid()}", f"{directory}.old-{os.getpid()}"
    for stale in (tmp, old):
        shutil.rmtree(stale, ignore_errors=True)
    os.makedirs(tmp)
    try:
        lines = []
        for i, (name, p) in enumerate(sorted(params.items())):
            fname = f"param_{i:04d}.bin"
            nd.save_tensor(os.path.join(tmp, fname), p.data)
            lines.append(f"{name}\t{fname}")
        with open(os.path.join(tmp, "manifest.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        if os.path.isdir(directory):
            os.rename(directory, old)
        os.rename(tmp, directory)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.isdir(old) and not os.path.exists(directory):
            os.rename(old, directory)  # the swap-in failed: put the previous checkpoint back
        raise
    for stale in glob.glob(glob.escape(directory) + ".old-*"):
        shutil.rmtree(stale, ignore_errors=True)


def load_checkpoint(directory) -> dict:
    """The arrays saved at `directory`. Where a save died between its two
    renames there is no `directory`, and a lone `<directory>.old-*` is read."""
    manifest = os.path.join(directory, "manifest.txt")
    if not os.path.exists(manifest):
        previous = glob.glob(glob.escape(os.path.abspath(directory)) + ".old-*/manifest.txt")
        if len(previous) != 1:
            raise FileNotFoundError(f"no checkpoint manifest at {manifest}")
        manifest = previous[0]
        directory = os.path.dirname(manifest)
    out = {}
    with open(manifest, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            name, fname = line.split("\t")
            out[name] = nd.load_tensor(os.path.join(directory, fname))
    return out


def restore_params(params: dict, arrays: dict) -> None:
    """Load checkpoint arrays into an existing param dict, by name; the two
    name sets must be equal."""
    missing = set(params) - set(arrays)
    if missing:
        raise KeyError(f"checkpoint missing params: {sorted(missing)}")
    unknown = set(arrays) - set(params)
    if unknown:
        raise KeyError(f"checkpoint has unknown params: {sorted(unknown)}")
    for name, p in params.items():
        if arrays[name].shape != p.data.shape:
            raise ValueError(f"checkpoint shape mismatch for {name}")
        p.data[...] = arrays[name]
