import numpy as np
import pytest

from restorect import autodiff as ad
from restorect import ndtensor as nd
from restorect import nn_blocks as nn
from restorect import rectflow as rf


class ConstantVelocityNet:
    """Oracle net returning a fixed velocity regardless of inputs."""

    t_max = 4

    def __init__(self, v):
        self.v = np.asarray(v, dtype=np.float64)
        self.calls = 0

    def forward(self, x, t, c):
        self.calls += 1
        return ad.constant(np.broadcast_to(self.v, x.shape).copy())


class ExactVelocityNet:
    """Oracle that knows the true straight-path velocity f - z per item."""

    t_max = 4

    def __init__(self, z, f):
        self.v = np.asarray(f) - np.asarray(z)

    def forward(self, x, t, c):
        return ad.constant(self.v)


# -- interpolate / velocity_target ---------------------------------------------------

def test_interpolate_endpoints_and_midpoint():
    z = ad.constant(np.zeros((1, 4)))
    f = ad.constant(np.full((1, 4), 2.0))
    np.testing.assert_array_equal(rf.interpolate(z, f, 0.0).data, z.data)
    np.testing.assert_array_equal(rf.interpolate(z, f, 1.0).data, f.data)
    np.testing.assert_array_equal(rf.interpolate(z, f, 0.5).data, 1.0)


def test_interpolate_rejects_bad_t():
    z = ad.constant(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        rf.interpolate(z, z, 1.5)
    with pytest.raises(ValueError):
        rf.interpolate(z, z, -0.1)


def test_interpolate_affine_in_endpoints():
    rng = nd.Rng(0)
    z = rng.normal((2, 5))
    f = rng.normal((2, 5))
    for t in (0.25, 0.7):
        a = 3.5
        scaled = rf.interpolate(ad.constant(a * z), ad.constant(a * f), t).data
        base = rf.interpolate(ad.constant(z), ad.constant(f), t).data
        np.testing.assert_allclose(scaled, a * base, rtol=1e-12)


def test_interpolate_per_item_column_matches_scalar_rows():
    rng = nd.Rng(20)
    z, f = rng.normal((3, 5)), rng.normal((3, 5))
    t = np.array([[0.0], [0.3], [1.0]])
    got = rf.interpolate(ad.constant(z), ad.constant(f), t).data
    for i in range(3):
        row = rf.interpolate(ad.constant(z[i:i + 1]), ad.constant(f[i:i + 1]), float(t[i, 0]))
        assert got[i:i + 1].tobytes() == row.data.tobytes()


def test_interpolate_rejects_bad_t_column():
    z = ad.constant(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        rf.interpolate(z, z, np.array([[0.5], [1.5]]))
    with pytest.raises(ValueError):
        rf.interpolate(z, z, np.array([0.5, 0.5]))  # a row, not a column


def test_velocity_target_properties():
    rng = nd.Rng(1)
    z = rng.normal((3, 4))
    f = rng.normal((3, 4))
    np.testing.assert_array_equal(rf.velocity_target(ad.constant(f), ad.constant(f)).data, 0.0)
    np.testing.assert_array_equal(
        rf.velocity_target(ad.constant(np.zeros_like(f)), ad.constant(f)).data, f)
    np.testing.assert_array_equal(
        rf.velocity_target(ad.constant(z), ad.constant(f)).data,
        -rf.velocity_target(ad.constant(f), ad.constant(z)).data)
    with pytest.raises(ValueError):
        rf.velocity_target(ad.constant(np.zeros((1, 3))), ad.constant(np.zeros((1, 4))))


# -- velocity matching loss ---------------------------------------------------------------

def test_velocity_loss_zero_for_exact_oracle():
    rng = nd.Rng(2)
    z = rng.normal((4, 6))
    f = rng.normal((4, 6))
    c = rng.normal((4, 6))
    net = ExactVelocityNet(z, f)
    loss = rf.velocity_matching_loss(net, (ad.constant(z), ad.constant(f), ad.constant(c)),
                                     nd.Rng(7))
    assert loss.item() == pytest.approx(0.0, abs=1e-24)


def test_velocity_loss_zero_net_closed_form():
    rng = nd.Rng(3)
    z = rng.normal((5, 8))
    f = rng.normal((5, 8))
    c = rng.normal((5, 8))
    net = ConstantVelocityNet(np.zeros(8))
    loss = rf.velocity_matching_loss(net, (ad.constant(z), ad.constant(f), ad.constant(c)),
                                     nd.Rng(8))
    expected = (((f - z) ** 2).sum(axis=1)).mean()
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_velocity_loss_is_bit_equal_to_the_inline_composite():
    """Pins the rewrite onto interpolate/velocity_target against the loss as
    it was written inline before."""
    def reference(net, batch, rng):
        z, f_teach, c = batch
        t = rng.uniform((z.shape[0],))
        t_col = ad.constant(t.reshape(-1, 1))
        x_t = (1.0 - t_col) * z + t_col * f_teach
        pred = net.forward(x_t, np.rint(t * net.t_max).astype(np.int64), c)
        d = pred - (f_teach - z)
        return ad.mean(ad.sum_(d * d, axes=1))

    rng = nd.Rng(21)
    net = nn.VelocityPredictor(rng.derive("n"), feature_dim=6, t_max=4)
    batch = tuple(ad.constant(rng.normal((4, 6))) for _ in range(3))
    results = []
    for fn in (rf.velocity_matching_loss, reference):
        for p in net.params().values():
            p.zero_grad()
        loss = fn(net, batch, nd.Rng(5))
        loss.backward()
        results.append([loss.data] + [p.grad for p in net.params().values()])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def test_velocity_loss_empty_batch_error():
    net = ConstantVelocityNet(np.zeros(4))
    empty = ad.constant(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        rf.velocity_matching_loss(net, (empty, empty, empty), nd.Rng(0))


def test_velocity_loss_gradient_fd():
    rng = nd.Rng(4)
    net = nn.VelocityPredictor(rng.derive("n"), feature_dim=6, t_max=4)
    z = rng.normal((3, 6))
    f = rng.normal((3, 6))
    c = rng.normal((3, 6))

    def f_loss():
        # fixed rng per evaluation so the sampled t values are constant
        return rf.velocity_matching_loss(net, (ad.constant(z), ad.constant(f), ad.constant(c)),
                                         nd.Rng(99))

    report = ad.fd_check(f_loss, list(net.params().values()), max_entries=8)
    assert report.passed, report.summary()


# -- euler sampling ---------------------------------------------------------------------------

def test_euler_exact_for_constant_field():
    rng = nd.Rng(5)
    z = rng.normal((2, 6))
    f = rng.normal((2, 6))
    for steps in (1, 2, 4):
        net = ExactVelocityNet(z, f)
        out, traj = rf.euler_sample(net, ad.constant(z), ad.constant(np.zeros((2, 6))), steps)
        assert np.abs(out.data - f).max() < 1e-12
        assert len(traj) == steps


def test_euler_step_count_invariance_for_straight_field():
    rng = nd.Rng(6)
    z = rng.normal((1, 4))
    f = rng.normal((1, 4))
    c = ad.constant(np.zeros((1, 4)))
    net = ExactVelocityNet(z, f)
    one = rf.euler_sample(net, ad.constant(z), c, 1)[0].data
    four = rf.euler_sample(net, ad.constant(z), c, 4)[0].data
    assert np.abs(one - four).max() < 1e-12


def test_euler_rejects_wrong_kind():
    # a step count that is not an integer is refused before the net is called
    net = ConstantVelocityNet(np.ones(4))
    for steps in (2.5, "2"):
        with pytest.raises(ValueError):
            rf.euler_sample(net, ad.constant(np.zeros((1, 4))), ad.constant(np.zeros((1, 4))),
                            steps)
    assert net.calls == 0


def test_sampler_config_validation():
    z, c = ad.constant(np.zeros((1, 4))), ad.constant(np.zeros((1, 4)))
    net = ConstantVelocityNet(np.zeros(4))
    for steps in (0, 6):
        with pytest.raises(ValueError):
            rf.euler_sample(net, z, c, steps)
        with pytest.raises(ValueError):
            rf.ddim_baseline_sample(net, z, c, steps)
    assert net.calls == 0


# -- trajectory consistency loss --------------------------------------------------------------

def test_trajectory_loss_zero_when_on_target():
    f = nd.Rng(7).normal((2, 5))
    traj = [ad.constant(f.copy()) for _ in range(3)]
    loss = rf.trajectory_consistency_loss(traj, ad.constant(f))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_trajectory_loss_single_point_doubled_target():
    f = nd.Rng(8).normal((1, 6))
    loss = rf.trajectory_consistency_loss([ad.constant(2.0 * f)], ad.constant(f))
    # parallel point: cosine term 0; transition sum empty; target = ||f||^2
    assert loss.item() == pytest.approx(0.5 * (f**2).sum(), rel=1e-9)


def test_trajectory_loss_transition_coefficient():
    # move one interior point along +f: only the transition term changes,
    # and the loss moves by exactly 0.1x that change
    f = np.abs(nd.Rng(9).normal((1, 4))) + 0.5
    states = [0.5 * f, 1.0 * f, 1.0 * f]
    base = rf.trajectory_consistency_loss([ad.constant(s) for s in states], ad.constant(f))
    states2 = [0.5 * f, 2.0 * f, 1.0 * f]
    moved = rf.trajectory_consistency_loss([ad.constant(s) for s in states2], ad.constant(f))
    trans_base = ((states[1] - states[0]) ** 2).sum() + ((states[2] - states[1]) ** 2).sum()
    trans_moved = ((states2[1] - states2[0]) ** 2).sum() + ((states2[2] - states2[1]) ** 2).sum()
    assert moved.item() - base.item() == pytest.approx(0.1 * (trans_moved - trans_base), rel=1e-9)


def test_trajectory_loss_components_nonnegative():
    rng = nd.Rng(10)
    for _ in range(5):
        traj = [ad.constant(rng.normal((2, 4))) for _ in range(3)]
        f = ad.constant(rng.normal((2, 4)))
        assert rf.trajectory_consistency_loss(traj, f).item() >= 0.0


def test_trajectory_loss_empty_error():
    with pytest.raises(ValueError):
        rf.trajectory_consistency_loss([], ad.constant(np.zeros((1, 3))))


def test_trajectory_loss_gradient_fd():
    rng = nd.Rng(11)
    f = ad.constant(rng.normal((2, 4)))
    p1 = ad.Param(rng.normal((2, 4)), "p1")
    p2 = ad.Param(rng.normal((2, 4)), "p2")

    def loss():
        return rf.trajectory_consistency_loss([p1, p2], f)

    report = ad.fd_check(loss, [p1, p2])
    assert report.passed, report.summary()


# -- DDIM baseline ------------------------------------------------------------------------------

class PerfectEpsOracle:
    """Returns the exact noise consistent with a known clean sample."""

    t_max = len(rf.DDIM_ALPHA_BARS) - 1

    def __init__(self, x0):
        self.x0 = np.asarray(x0)

    def forward(self, x, t, c):
        ab = rf.DDIM_ALPHA_BARS[int(t)]
        return ad.constant((x.data - np.sqrt(ab) * self.x0) / np.sqrt(1.0 - ab))


def test_ddim_perfect_oracle_recovers_sample():
    rng = nd.Rng(12)
    x0 = rng.normal((2, 5))
    z = rng.normal((2, 5))
    oracle = PerfectEpsOracle(x0)
    for steps in (1, 3, 5):
        out = rf.ddim_baseline_sample(oracle, ad.constant(z), ad.constant(np.zeros((2, 5))), steps)
        np.testing.assert_allclose(out.data, x0, atol=1e-9)


def test_ddim_endpoint_finite_for_random_nets():
    for seed in range(5):
        rng = nd.Rng(seed)
        net = nn.VelocityPredictor(rng.derive("d"), feature_dim=6, t_max=49)
        out = rf.ddim_baseline_sample(net, ad.constant(rng.normal((2, 6))),
                                      ad.constant(rng.normal((2, 6))), 3)
        assert np.all(np.isfinite(out.data))


def test_ddim_rejects_wrong_kind():
    # a step count that is not an integer is refused before the net is called
    net = ConstantVelocityNet(np.zeros(4))
    for steps in (2.5, "2"):
        with pytest.raises(ValueError):
            rf.ddim_baseline_sample(net, ad.constant(np.zeros((1, 4))),
                                    ad.constant(np.zeros((1, 4))), steps)
    assert net.calls == 0


def test_cosine_schedule_shape():
    ab = rf.DDIM_ALPHA_BARS
    assert len(ab) == 50
    assert np.all(np.diff(ab) < 0)  # strictly decreasing
    assert 0.0 < ab[-1] < ab[0] < 1.0


def test_ddim_timesteps_strided():
    taus = rf.ddim_timesteps(50, 4)
    assert taus[0] == 49 and taus[-1] == 0
    assert np.all(np.diff(taus) < 0)
