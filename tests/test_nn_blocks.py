import numpy as np
import pytest

from restorect import autodiff as ad
from restorect import ndtensor as nd
from restorect import nn_blocks as nn
from restorect.distill_harness import Adam, StudentNet, synth_dataset


# -- SCLN ------------------------------------------------------------------------

def test_scln_standardized_input_passthrough():
    rng = nd.Rng(0)
    x = rng.normal((1, 4, 5, 5))
    x = (x - x.mean()) / x.std()
    y = nn.scln(ad.constant(x), ad.Param(np.ones(4), "gamma"))
    # unit-variance input passes through up to the eps inside the root:
    # |y - x| <= |x| * eps / 2 with eps = 1e-5
    np.testing.assert_allclose(y.data, x, atol=np.abs(x).max() * 1e-5)


def test_scln_constant_input_zero():
    y = nn.scln(ad.constant(np.full((2, 3, 4, 4), 1.7)), ad.Param(np.ones(3), "gamma"))
    np.testing.assert_array_equal(y.data, 0.0)


def test_scln_gamma_mismatch():
    with pytest.raises(ValueError):
        nn.scln(ad.constant(np.zeros((1, 4, 2, 2))), ad.Param(np.ones(5), "gamma"))


def test_scln_is_bit_equal_to_the_explicit_composite():
    """scln runs on ad.layer_norm over (C,H,W); pins it, forward and
    backward, to the mean/variance composite it replaced."""
    def composite(x, gamma):
        mu = ad.mean(x, axes=(1, 2, 3), keepdims=True)
        d = x - mu
        var = ad.mean(d * d, axes=(1, 2, 3), keepdims=True)
        y = d / ad.sqrt(var + ad.LAYER_NORM_EPS)
        return y * ad.reshape(gamma, (1, x.shape[1], 1, 1))

    for seed in range(3):
        rng = nd.Rng(400 + seed)
        probe = ad.constant(rng.normal((2, 4, 3, 5)))
        results = []
        for fn in (nn.scln, composite):
            x = ad.Param(rng.derive("x").normal((2, 4, 3, 5)) * 3.0 + 1.0, "x")
            gamma = ad.Param(rng.derive("g").uniform((4,), 0.5, 1.5), "gamma")
            y = fn(x, gamma)
            ad.sum_(y * probe).backward()
            results.append((y.data, x.grad, gamma.grad))
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()


# -- attention -----------------------------------------------------------------------

def manual_v_projection(x, ipr, params):
    """Independent numpy path for single-token attention: output equals the
    output-projected value vector."""
    b, c, _, _ = x.shape
    c_r = 3 * c // 4
    k_vi = ipr[:, 192:] @ params.w_cond_i.data + params.b_cond_i.data
    x_i = x[:, c_r:, 0, 0]
    x_i = x_i * k_vi + x_i
    kv = x_i @ params.wkv.data
    v = kv[:, c:]
    return (v @ params.wo.data).reshape(b, c, 1, 1)


def test_attention_single_token_is_projected_v():
    rng = nd.Rng(3)
    params = nn.AttentionParams(8, rng.derive("p"), cond_dim=256)
    x = rng.normal((2, 8, 1, 1))
    ipr = rng.normal((2, 256))
    out, weights = nn.qk_normalized_attention(ad.constant(x), ad.constant(ipr), params,
                                              return_weights=True)
    np.testing.assert_array_equal(weights, 1.0)
    np.testing.assert_allclose(out.data, manual_v_projection(x, ipr, params), atol=1e-12)


def test_attention_identical_keys_split_evenly():
    rng = nd.Rng(4)
    params = nn.AttentionParams(8, rng.derive("p"), cond_dim=256)
    x = rng.normal((1, 8, 1, 2))
    x[:, 6:, :, :] = 0.37  # illumination channels constant -> identical keys
    ipr = rng.normal((1, 256))
    _, weights = nn.qk_normalized_attention(ad.constant(x), ad.constant(ipr), params,
                                            return_weights=True)
    np.testing.assert_allclose(weights, 0.5, atol=1e-12)


def test_attention_channel_divisibility_error():
    with pytest.raises(ValueError):
        nn.AttentionParams(10, nd.Rng(0), cond_dim=256)


def test_attention_conditioning_shape_error():
    params = nn.AttentionParams(8, nd.Rng(0), cond_dim=256)
    with pytest.raises(ValueError):
        nn.qk_normalized_attention(ad.constant(np.zeros((1, 8, 2, 2))),
                                   ad.constant(np.zeros((1, 128))), params)


# -- transformer block ------------------------------------------------------------------

def test_block_preserves_shape():
    rng = nd.Rng(6)
    block = nn.ToyTransformerBlock(16, rng.derive("b"), cond_dim=256)
    x = rng.normal((1, 16, 8, 8))
    out = block.forward(ad.constant(x), ad.constant(rng.normal((1, 256))))
    assert out.shape == (1, 16, 8, 8)


def test_block_ffn_expansion_factor():
    block = nn.ToyTransformerBlock(16, nd.Rng(0), cond_dim=256)
    assert block.w1.data.shape == (16, int(round(2.66 * 16)))


# -- decomposition network ------------------------------------------------------------------

def test_decompose_rejects_out_of_range():
    net = nn.DecompositionNet(nd.Rng(0))
    with pytest.raises(ValueError):
        nn.decompose(ad.constant(np.full((1, 3, 8, 8), 1.2)), net)


def test_decompose_trained_reconstruction():
    # desk training loop: product of the two outputs should reconstruct the
    # image to better than 0.05 mean L1
    rng = nd.Rng(42)
    net = nn.DecompositionNet(rng.derive("dec"))
    _, gt = synth_dataset(rng.derive("data"), 16, 8)
    opt = Adam(net.params(), 3e-3)
    for it in range(300):
        s = (it % 4) * 4
        batch = ad.constant(gt[s:s + 4])
        r, l = nn.decompose(batch, net)
        loss = ad.mean(ad.abs_(r * l - batch))
        opt.zero_grad()
        loss.backward()
        opt.step()
    r, l = nn.decompose(ad.constant(gt), net)
    assert np.abs((r * l).data - gt).mean() < 0.05


# -- perceptual and style losses ------------------------------------------------------------

def test_perceptual_and_style_zero_on_identical():
    rng = nd.Rng(9)
    ext = nn.FeatureExtractor(rng.derive("e"))
    img = ad.constant(rng.uniform((1, 3, 8, 8)))
    assert nn.perceptual_loss(img, img, ext).item() == 0.0
    assert nn.style_loss(img, img, ext).item() == 0.0


def test_gram_spatial_permutation_invariance():
    rng = nd.Rng(10)
    feats = rng.normal((1, 4, 3, 3))
    perm = rng.permutation(9)
    permuted = feats.reshape(1, 4, 9)[:, :, perm].reshape(1, 4, 3, 3)
    g1 = nn.gram_matrix(ad.constant(feats)).data
    g2 = nn.gram_matrix(ad.constant(permuted)).data
    np.testing.assert_allclose(g1, g2, atol=1e-12)


def test_gram_matches_bruteforce_oracle():
    rng = nd.Rng(11)
    feats = rng.normal((2, 3, 2, 2))
    got = nn.gram_matrix(ad.constant(feats)).data
    b, c, h, w = feats.shape
    for bi in range(b):
        expected = np.zeros((c, c))
        for i in range(c):
            for j in range(c):
                expected[i, j] = (feats[bi, i].ravel() * feats[bi, j].ravel()).sum()
        np.testing.assert_allclose(got[bi], expected / (c * h * w), atol=1e-12)


def test_style_loss_matches_componentwise_oracle():
    rng = nd.Rng(12)
    ext = nn.FeatureExtractor(rng.derive("e"))
    a = ad.constant(rng.uniform((1, 3, 8, 8)))
    b = ad.constant(rng.uniform((1, 3, 8, 8)))
    expected = 0.0
    for fa, fb in zip(ext.features(a), ext.features(b)):
        d = nn.gram_matrix(fa).data - nn.gram_matrix(fb).data
        expected += (d**2).sum(axis=(1, 2)).mean()
    assert nn.style_loss(a, b, ext).item() == pytest.approx(expected, rel=1e-12)


# -- velocity predictor -----------------------------------------------------------------------

def test_velocity_input_assembly_dimension():
    net = nn.VelocityPredictor(nd.Rng(14), feature_dim=256, t_max=4)
    assert net.w_in.data.shape == (513, 256)  # 256 cond + 1 time + 256 state


def test_velocity_zero_weights_zero_output():
    net = nn.VelocityPredictor(nd.Rng(15), feature_dim=256, t_max=4)
    for p in net.params().values():
        p.data[...] = 0.0
    rng = nd.Rng(16)
    out = net.forward(ad.constant(rng.normal((3, 256))), 2, ad.constant(rng.normal((3, 256))))
    np.testing.assert_array_equal(out.data, 0.0)


def test_velocity_timestep_range():
    net = nn.VelocityPredictor(nd.Rng(17), feature_dim=256, t_max=4)
    rng = nd.Rng(18)
    x = ad.constant(rng.normal((1, 256)))
    c = ad.constant(rng.normal((1, 256)))
    for t in range(5):
        assert net.forward(x, t, c).shape == (1, 256)
    with pytest.raises(ValueError):
        net.forward(x, 5, c)
    with pytest.raises(ValueError):
        net.forward(x, -1, c)


# -- teacher objective --------------------------------------------------------------------------

def _objective_inputs(seed):
    from restorect import aniso_diffusion, hvi_color

    rng = nd.Rng(seed)
    ext = nn.FeatureExtractor(rng.derive("e"))
    k = hvi_color.chroma_density()
    s = aniso_diffusion.edge_sensitivity()
    pred = ad.constant(rng.uniform((1, 3, 8, 8), 0.1, 0.9))
    gt = ad.constant(rng.uniform((1, 3, 8, 8), 0.1, 0.9))
    r_pred = ad.constant(rng.uniform((1, 3, 8, 8)))
    l_pred = ad.constant(rng.uniform((1, 1, 8, 8)))
    inp = ad.constant(rng.uniform((1, 3, 8, 8)))
    return pred, gt, r_pred, l_pred, inp, ext, k, s


def test_teacher_objective_stated_weights():
    assert nn.TEACHER_WEIGHTS == {"rec": 1.0, "vgg": 1.0, "sty": 1.0,
                                  "tex": 0.05, "col": 0.05, "lum": 0.2}


def test_teacher_objective_trivial_zero():
    from restorect import aniso_diffusion, hvi_color

    rng = nd.Rng(30)
    ext = nn.FeatureExtractor(rng.derive("e"))
    img = ad.constant(rng.uniform((1, 3, 8, 8)))
    flat_l = ad.constant(np.full((1, 1, 8, 8), 0.5))
    total, comps = nn.teacher_objective(img, img, img, flat_l, img,
                                        ext, hvi_color.chroma_density(),
                                        aniso_diffusion.edge_sensitivity())
    # pred == gt kills rec/vgg/sty/col; r_pred == input kills tex; flat L kills lum
    assert total.item() == 0.0
    assert all(c.item() == 0.0 for c in comps.values())


def test_teacher_objective_component_scaling():
    # doubling only the texture input moves the total by 0.05x that change
    args = list(_objective_inputs(31))
    total1, comps1 = nn.teacher_objective(*args)
    rng = nd.Rng(99)
    args[2] = ad.constant(rng.uniform((1, 3, 8, 8)))  # new r_pred changes only tex
    total2, comps2 = nn.teacher_objective(*args)
    delta_tex = comps2["tex"].item() - comps1["tex"].item()
    assert total2.item() - total1.item() == pytest.approx(0.05 * delta_tex, abs=1e-12)


# -- params() -------------------------------------------------------------------------------------

def _held_params(obj) -> list:
    """Every Param reachable from `obj` through attributes, lists and tuples."""
    if isinstance(obj, ad.Param):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [p for item in obj for p in _held_params(item)]
    if type(obj).__module__.startswith("restorect."):
        return [p for value in vars(obj).values() for p in _held_params(value)]
    return []


NETS = {
    "StudentNet": lambda rng: StudentNet(rng, 8, cond_dim=8),
    "VelocityPredictor": lambda rng: nn.VelocityPredictor(rng, feature_dim=8, t_max=4),
    "ToyTransformerBlock": lambda rng: nn.ToyTransformerBlock(8, rng, cond_dim=8),
    "AttentionParams": lambda rng: nn.AttentionParams(8, rng, cond_dim=8),
    "DecompositionNet": lambda rng: nn.DecompositionNet(rng),
}


@pytest.mark.parametrize("name", NETS)
def test_params_lists_every_param_the_object_holds(name):
    """A Param left out of params() is never trained, saved or fd-checked."""
    net = NETS[name](nd.Rng(0))
    held = _held_params(net)
    listed = net.params()
    assert len({id(p) for p in held}) == len(held) == len(listed)
    assert {id(p) for p in held} == {id(p) for p in listed.values()}
    assert all(listed[p.name] is p for p in held)


def test_params_of_keeps_order_and_takes_params_of_other_parts():
    a, b = ad.Param(1.0, "a"), ad.Param(2.0, "b")

    class Part:
        def params(self):
            return {"c": ad.Param(3.0, "c")}

    assert list(ad.params_of(b, Part(), a)) == ["b", "c", "a"]
    assert ad.params_of(a, b)["a"] is a


def test_params_of_rejects_a_repeated_name():
    # two blocks with the default prefix would otherwise give 14 params, not 28
    rng = nd.Rng(0)
    blocks = [nn.ToyTransformerBlock(8, rng.derive(f"b{i}"), cond_dim=8) for i in range(2)]
    with pytest.raises(ValueError, match="'block.norm1.gamma'"):
        ad.params_of(*blocks)
    with pytest.raises(ValueError, match="'a'"):
        ad.params_of(ad.Param(1.0, "a"), ad.Param(2.0, "a"))


# -- checkpoints ------------------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    rng = nd.Rng(20)
    net = nn.VelocityPredictor(rng.derive("v"), feature_dim=8, t_max=4)
    params = net.params()
    nn.save_checkpoint(tmp_path / "ckpt", params)
    originals = {k: p.data.copy() for k, p in params.items()}
    for p in params.values():
        p.data[...] = 0.0
    nn.restore_params(params, nn.load_checkpoint(tmp_path / "ckpt"))
    for k, p in params.items():
        np.testing.assert_array_equal(p.data, originals[k])


def test_checkpoint_missing_param_error(tmp_path):
    net = nn.VelocityPredictor(nd.Rng(21), feature_dim=8, t_max=4)
    nn.save_checkpoint(tmp_path / "ckpt", {"only.one": net.w_in})
    with pytest.raises(KeyError):
        nn.restore_params(net.params(), nn.load_checkpoint(tmp_path / "ckpt"))


def test_checkpoint_unknown_param_error(tmp_path):
    net = nn.VelocityPredictor(nd.Rng(22), feature_dim=8, t_max=4)
    params = net.params()
    nn.save_checkpoint(tmp_path / "ckpt", {**params, "bogus.extra": ad.constant(np.zeros(3))})
    with pytest.raises(KeyError, match="bogus.extra"):
        nn.restore_params(params, nn.load_checkpoint(tmp_path / "ckpt"))


def test_failed_checkpoint_save_leaves_the_previous_checkpoint_whole(tmp_path, monkeypatch):
    net = nn.VelocityPredictor(nd.Rng(23), feature_dim=8, t_max=4)
    params = net.params()
    nn.save_checkpoint(tmp_path / "ckpt", params)
    before = nn.load_checkpoint(tmp_path / "ckpt")
    for p in params.values():
        p.data[...] += 1.0
    save_tensor, calls = nd.save_tensor, []

    def failing_save(path, x):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        save_tensor(path, x)

    monkeypatch.setattr(nd, "save_tensor", failing_save)
    with pytest.raises(OSError, match="disk full"):
        nn.save_checkpoint(tmp_path / "ckpt", params)
    after = nn.load_checkpoint(tmp_path / "ckpt")
    assert after.keys() == before.keys()
    for name in before:
        assert after[name].tobytes() == before[name].tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
    monkeypatch.undo()  # a save that completes replaces the whole directory
    nn.save_checkpoint(tmp_path / "ckpt", params)
    for name, arr in nn.load_checkpoint(tmp_path / "ckpt").items():
        assert arr.tobytes() == params[name].data.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]


def test_failed_swap_in_puts_the_previous_checkpoint_back(tmp_path, monkeypatch):
    net = nn.VelocityPredictor(nd.Rng(24), feature_dim=8, t_max=4)
    params = net.params()
    nn.save_checkpoint(tmp_path / "ckpt", params)
    before = nn.load_checkpoint(tmp_path / "ckpt")
    for p in params.values():
        p.data[...] += 1.0
    rename, calls = nn.os.rename, []

    def failing_rename(src, dst):
        calls.append(src)
        if len(calls) == 2:  # the temp directory's rename into place
            raise OSError("rename failed")
        rename(src, dst)

    monkeypatch.setattr(nn.os, "rename", failing_rename)
    with pytest.raises(OSError, match="rename failed"):
        nn.save_checkpoint(tmp_path / "ckpt", params)
    monkeypatch.undo()
    after = nn.load_checkpoint(tmp_path / "ckpt")
    assert after.keys() == before.keys()
    for name in before:
        assert after[name].tobytes() == before[name].tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]


def test_crash_between_the_two_renames_loads_and_then_clears_the_previous_checkpoint(tmp_path):
    net = nn.VelocityPredictor(nd.Rng(25), feature_dim=8, t_max=4)
    params = net.params()
    nn.save_checkpoint(tmp_path / "ckpt", params)
    before = nn.load_checkpoint(tmp_path / "ckpt")
    # what a process that dies after its first rename leaves behind
    (tmp_path / "ckpt").rename(tmp_path / "ckpt.old-4242")
    loaded = nn.load_checkpoint(tmp_path / "ckpt")
    assert loaded.keys() == before.keys()
    for name in before:
        assert loaded[name].tobytes() == before[name].tobytes()
    for p in params.values():
        p.data[...] += 1.0
    nn.save_checkpoint(tmp_path / "ckpt", params)
    for name, arr in nn.load_checkpoint(tmp_path / "ckpt").items():
        assert arr.tobytes() == params[name].data.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
