"""Support checks for every randomization row; the identity of IDENTITY_ROWS; the
counter-based generator's distribution and stream independence."""

import numpy as np
import pytest

from vsloco import randomization as dr
from vsloco.env import EnvConfig, VecLocomotionEnv
from vsloco.model import build_quadruped


def test_samples_inside_supports():
    cfg = dr.DomainRandomizationConfig()
    key = dr.seed_key(123)
    envs = np.arange(2000)
    counter = np.zeros(2000)
    samples = dr.sample_episode(cfg, key, envs, counter)
    samples.update(dr.sample_observation_noise(cfg, key, envs, counter + 1))
    assert set(samples) == set(cfg.rows)
    for name, values in samples.items():
        lo, hi = cfg.rows[name]
        assert np.all(values >= lo) and np.all(values <= hi), name
    # the draws actually cover their supports (not degenerate)
    for name in ("payload_mass", "kp_scale", "noise_joint_vel"):
        lo, hi = cfg.rows[name]
        width = hi - lo
        assert samples[name].min() < lo + 0.1 * width
        assert samples[name].max() > hi - 0.1 * width


def test_identity_rows_draw_exactly_the_identity():
    cfg = dr.DomainRandomizationConfig(dr.IDENTITY_ROWS)
    key, envs = dr.seed_key(0), np.arange(64)
    ep = dr.sample_episode(cfg, key, envs, np.zeros(64))
    for row in ("ground_friction", "kp_scale", "kd_scale", "motor_strength"):
        assert np.all(ep[row] == 1.0), row
    for row in ("payload_mass", "hip_mass", "gravity_offset", "system_delay"):
        assert np.all(ep[row] == 0.0) and not np.signbit(ep[row]).any(), row
    noise = dr.sample_observation_noise(cfg, key, envs, np.ones(64))
    for row, block in noise.items():
        assert np.all(block == 0.0) and not np.signbit(block).any(), row
    # an env off by IDENTITY_ROWS still advances its counters at every draw
    env = VecLocomotionEnv("PLS", n_envs=2, seed=0, config=EnvConfig(randomization=cfg))
    assert np.all(env.draws == 4)  # joint noise, episode, command, pushes
    env.observe()
    assert np.all(env.draws == 5)
    assert np.all(env.kp_scale == 1.0) and not env.mass_deltas.any()


def _env_with_rows(rows, tree=None):
    config = EnvConfig(randomization=dr.DomainRandomizationConfig(rows))
    return VecLocomotionEnv("PLS", n_envs=1, seed=0, tree=tree, config=config)


def test_mass_delta_layout():
    # privileged layout and bodies: the trunk payload, then the four hips
    env = _env_with_rows({"payload_mass": (2.0, 2.0), "hip_mass": (0.1, 0.1)})
    assert np.allclose(env.mass_deltas[0], [2.0, 0.1, 0.1, 0.1, 0.1])
    assert np.allclose(env.observe_privileged()[0, 37:42], [2.0, 0.1, 0.1, 0.1, 0.1])
    added = env.params.masses[0] - env.tree.mass
    expected = np.zeros_like(added)
    expected[[0, 1, 4, 7, 10]] = [2.0, 0.1, 0.1, 0.1, 0.1]
    assert np.allclose(added, expected, atol=1e-12)


def test_delay_quantization():
    tree = build_quadruped()
    for ms, expected in ((0.0, 0), (1.9, 0), (2.0, 1), (15.0, 7), (14.999, 7)):
        env = _env_with_rows({"system_delay": (ms, ms)}, tree)
        assert env.cfg.dt_physics == 0.002
        assert env.delay_substeps[0] == expected


def test_unknown_row_rejected():
    with pytest.raises(ValueError):
        dr.DomainRandomizationConfig({"tail_mass": (0, 1)})


def test_row_override():
    cfg = dr.DomainRandomizationConfig({"payload_mass": (0.0, 1.0)})
    assert cfg.rows["payload_mass"] == (0.0, 1.0)
    assert cfg.rows["hip_mass"] == (-0.5, 0.5)


def _corr(a, b):
    return np.corrcoef(a.ravel(), b.ravel())[0, 1]


def test_uniform_generator_statistics_and_streams():
    key = dr.seed_key(0)
    by_env = dr.uniform(key, np.arange(400), np.zeros(400), 500)  # counter 0 of 400 envs
    by_counter = dr.uniform(key, np.zeros(400), np.arange(400), 500)  # 400 draws of env 0
    for u in (by_env, by_counter):
        assert u.shape == (400, 500) and u.dtype == np.float64
        assert np.all((0.0 <= u) & (u < 1.0))
        n = u.size
        assert abs(u.mean() - 0.5) < 5.0 * np.sqrt(1.0 / 12.0 / n)
        assert abs(u.var() - 1.0 / 12.0) < 5.0 * np.sqrt(1.0 / 180.0 / n)
        assert np.unique(u).size == n  # no two (env, counter, slot) share a number
        assert abs(_corr(u[:-1], u[1:])) < 0.01  # adjacent envs / adjacent counters
        assert abs(_corr(u[:, :-1], u[:, 1:])) < 0.01  # adjacent slots
    # a pure function: a row does not depend on the rest of the call
    assert np.array_equal(dr.uniform(key, [7], [0], 500)[0], by_env[7])
    assert np.array_equal(dr.uniform(key, [0], [9], 500)[0], by_counter[9])
    assert not np.array_equal(dr.uniform(dr.seed_key(1), [7], [0], 500)[0], by_env[7])
