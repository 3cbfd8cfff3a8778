"""Orthogonal init against a Householder QR oracle, the MLP's init gains, and
who owns the arrays of the backward pass and the gradient clip."""

import weakref

import numpy as np
import pytest

from vsloco import actuation as act
from vsloco import networks as nets
from vsloco.ppo import TrainConfig

F32 = np.float32


def householder_orthogonal(rng, shape, gain=1.0):
    """Oracle: LAPACK's Householder QR of the same draw, each column's sign
    flipped so that R has a positive diagonal."""
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a if shape[0] >= shape[1] else a.T)
    q = q * np.sign(np.diag(r))
    if shape[0] < shape[1]:
        q = q.T
    return np.ascontiguousarray(gain * q[: shape[0], : shape[1]], dtype=F32)


def default_net_shapes():
    """Every weight shape of the actor and critic at the default hidden sizes,
    over every grouping: all are tall or wide, none square."""
    hidden = TrainConfig().hidden
    shapes = set()
    for grouping in act.GROUPINGS:
        adim = act.action_dim(grouping)
        obs_dim = 36 + adim
        for sizes in ([obs_dim, *hidden, adim], [45 + obs_dim, *hidden, 1]):
            shapes.update((sizes[k + 1], sizes[k]) for k in range(len(sizes) - 1))
    return sorted(shapes)


def ulp_distance(a, b):
    return np.abs(a.view(np.int32).astype(np.int64) - b.view(np.int32).astype(np.int64))


def test_orthogonal_matches_householder_on_the_default_nets():
    shapes = default_net_shapes()
    assert all(m != n for m, n in shapes)
    differing = 0
    for shape in shapes:
        for seed in range(20):
            w = nets.orthogonal(np.random.default_rng(seed), shape, np.sqrt(2.0))
            ref = householder_orthogonal(np.random.default_rng(seed), shape, np.sqrt(2.0))
            assert w.dtype == F32 and w.shape == shape and w.flags.c_contiguous
            assert np.all(np.sign(w) == np.sign(ref)), (shape, seed)
            assert ulp_distance(w, ref).max() <= 1, (shape, seed)
            differing += int(np.count_nonzero(w != ref))
    # the float64 factors differ by about 1e-14, so float32 rounding parts
    # them only on the rare entry that sits at a rounding boundary
    assert differing <= 20


@pytest.mark.parametrize("shape", [(16, 16), (256, 256), (512, 55), (55, 512), (1, 128),
                                   (128, 1), (256, 512)])
def test_orthogonal_short_side_is_orthonormal_times_gain(shape):
    for seed, gain in enumerate((1.0, np.sqrt(2.0), 0.01)):
        w = nets.orthogonal(np.random.default_rng(seed), shape, gain).astype(np.float64)
        short = w @ w.T if shape[0] <= shape[1] else w.T @ w
        assert np.abs(short - gain**2 * np.eye(min(shape))).max() <= 1e-5 * gain**2, seed


def test_mlp_init_gains_and_zero_biases():
    sizes = [20, 64, 32, 6]
    out_gain = 0.01
    net = nets.MLP(sizes, np.random.default_rng(9), out_gain=out_gain)
    rng = np.random.default_rng(9)
    assert len(net.W) == len(net.b) == len(sizes) - 1
    for k, (W, b) in enumerate(zip(net.W, net.b)):
        gain = np.sqrt(2.0) if k < len(sizes) - 2 else out_gain
        # same draws, in layer order, as orthogonal with this layer's gain
        assert np.array_equal(W, nets.orthogonal(rng, (sizes[k + 1], sizes[k]), gain)), k
        short = W.astype(np.float64) @ W.T if W.shape[0] <= W.shape[1] else W.T @ W
        assert np.abs(short - gain**2 * np.eye(min(W.shape))).max() <= 1e-5 * gain**2, k
        assert b.dtype == F32 and b.shape == (sizes[k + 1],)
        assert not b.any(), k


def test_backward_consumes_and_releases_its_cache():
    rng = np.random.default_rng(4)
    net = nets.MLP([5, 8, 6, 2], rng)
    x = rng.normal(0, 1, (4, 5)).astype(F32)
    x_before = x.copy()
    out, acts = net.forward(x)
    assert acts[0] is x and acts[-1] is out
    hidden = [weakref.ref(a) for a in acts[1:-1]]
    grads = net.backward(acts, np.ones_like(out))
    assert acts == []
    assert all(ref() is None for ref in hidden)  # freed, not kept alive
    assert np.array_equal(x, x_before)  # the input is read, not overwritten
    with pytest.raises(ValueError, match="consumed"):
        net.backward(acts, np.ones_like(out))
    # a fresh forward gives the same gradients: the consumed cache held no state
    again = net.backward(net.forward(x)[1], np.ones_like(out))
    assert all(np.array_equal(g, h) for g, h in zip(grads, again, strict=True))


def test_actor_and_critic_backward_consume_their_caches():
    rng = np.random.default_rng(5)
    actor = nets.GaussianActor(nets.MLP([4, 8, 2], rng, out_gain=0.01), np.zeros(2, dtype=F32))
    critic = nets.MLP([3, 8, 1], rng)
    obs = rng.normal(0, 1, (6, 4)).astype(F32)
    _, _, cache = actor.evaluate(obs, rng.normal(0, 1, (6, 2)).astype(F32))
    actor.backward(cache, np.ones(6, dtype=F32))
    with pytest.raises(ValueError, match="consumed"):
        actor.backward(cache, np.ones(6, dtype=F32))
    _, acts = critic.forward(rng.normal(0, 1, (6, 3)).astype(F32))
    critic.backward(acts, np.ones((6, 1), dtype=F32))
    with pytest.raises(ValueError, match="consumed"):
        critic.backward(acts, np.ones((6, 1), dtype=F32))


def test_clip_grad_norm_scales_the_given_arrays():
    grads = [np.full((3, 2), 4.0, dtype=F32), np.full(2, -3.0, dtype=F32)]
    given = list(grads)
    expected = [g * F32(1.0 / np.sqrt(3 * 2 * 16 + 2 * 9)) for g in grads]
    clipped, norm = nets.clip_grad_norm(grads, 1.0)
    assert norm == np.sqrt(3 * 2 * 16 + 2 * 9)
    assert all(c is g for c, g in zip(clipped, given, strict=True))
    assert all(np.array_equal(c, e) for c, e in zip(clipped, expected, strict=True))
