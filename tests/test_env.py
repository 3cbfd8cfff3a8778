"""Environment behaviour: observation layout, termination, schedules,
determinism, and vectorization."""

import numpy as np
import pytest

from vsloco import dynamics as dyn
from vsloco.actuation import action_dim
from vsloco.env import (
    REASON_CODE,
    EnvConfig,
    LocomotionEnv,
    VecLocomotionEnv,
    sample_command,
    schedule_pushes,
)


def quiet_config(**overrides):
    kwargs = dict(
        reset_joint_noise=0.0,
        push_enabled=False,
        command_ranges={"vx": (0.0, 0.0), "vy": (0.0, 0.0), "yaw_rate": (0.0, 0.0)},
    )
    kwargs.update(overrides)
    return EnvConfig(**kwargs)


@pytest.fixture(scope="module")
def quiet_env():
    env = VecLocomotionEnv("PLS", n_envs=1, seed=0, config=quiet_config())
    env.reset_all(randomization_on=False)
    return env


def test_observation_layout_at_rest(quiet_env):
    quiet_env.reset_all(randomization_on=False)
    obs = quiet_env.observe()[0]
    assert obs.shape == (52,)  # 36 + action_dim(PLS)
    assert np.allclose(obs[9:12], [0, 0, -1], atol=1e-12)
    rest = np.concatenate([obs[:9], obs[12:]])
    assert np.allclose(rest, 0.0, atol=1e-12)


def test_observation_dims_per_grouping():
    for grouping in ("FixedP20", "IJS", "PJS", "PLS", "HJLS"):
        env = VecLocomotionEnv(grouping, n_envs=1, seed=1, config=quiet_config())
        assert env.obs_dim == 36 + action_dim(grouping)
        assert env.observe().shape == (1, env.obs_dim)
        assert env.observe_privileged().shape == (1, 45 + env.obs_dim)


def test_privileged_layout_identity_context(quiet_env):
    quiet_env.reset_all(randomization_on=False)
    priv = quiet_env.observe_privileged()[0]
    assert priv.shape == (97,)  # 45 + 52 for PLS
    assert np.allclose(priv[0:24], 1.0)  # kp/kd scales
    assert np.allclose(priv[24:36], 1.0)  # motor strength
    assert abs(priv[36] - 1.0) < 1e-12  # base friction
    assert np.allclose(priv[37:42], 0.0)  # mass deltas
    assert np.allclose(priv[42:45], 0.0)  # F_kick
    assert np.allclose(priv[45:], quiet_env.observe(noisy=False)[0])


def test_observation_noise_support():
    env = VecLocomotionEnv("PLS", n_envs=1, seed=3, config=quiet_config())
    env.reset_all(randomization_on=True)
    clean = env.observe(noisy=False)[0]
    deltas = np.stack([env.observe()[0] - clean for _ in range(3000)])
    blocks = {
        "lin_vel": (3, 6, 0.1),
        "ang_vel": (6, 9, 0.2),
        "gravity": (9, 12, 0.05),
        "joint_vel": (12, 24, 1.5),
        "joint_pos": (24, 36, 0.01),
    }
    for name, (a, b, bound) in blocks.items():
        block = deltas[:, a:b]
        assert np.all(np.abs(block) <= bound + 1e-12), name
        assert np.max(np.abs(block)) > 0.8 * bound, name
    assert np.allclose(deltas[:, :3], 0.0)  # command channel noiseless
    assert np.allclose(deltas[:, 36:], 0.0)  # previous action noiseless


def test_same_seed_same_context():
    cfg = EnvConfig()
    a = VecLocomotionEnv("PLS", n_envs=2, seed=7, config=cfg)
    b = VecLocomotionEnv("PLS", n_envs=2, seed=7, config=cfg)
    for i in range(2):
        ca, cb = a.context_of(i), b.context_of(i)
        assert np.allclose(ca.command, cb.command)
        assert ca.delay_substeps == cb.delay_substeps
        assert np.allclose(ca.randomization.kp_scale, cb.randomization.kp_scale)
        assert len(ca.pushes) == len(cb.pushes)
        for pa, pb in zip(ca.pushes, cb.pushes):
            assert pa.start_time == pb.start_time and np.allclose(pa.force, pb.force)


def test_step_determinism():
    cfg = EnvConfig()
    outs = []
    for _ in range(2):
        env = VecLocomotionEnv("PLS", n_envs=2, seed=11, config=cfg)
        rng = np.random.default_rng(5)
        obs = None
        for _ in range(10):
            acts = rng.uniform(-1, 1, (2, env.action_dim))
            obs, priv, rew, done, info = env.step(acts)
        outs.append((obs.copy(), priv.copy(), rew.copy()))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert np.array_equal(outs[0][2], outs[1][2])


def test_randomized_context_inside_supports():
    env = VecLocomotionEnv("PLS", n_envs=64, seed=17, config=EnvConfig())
    rows = env.cfg.randomization.rows
    for _ in range(20):
        env.reset_all(randomization_on=True)
        for i in range(env.n):
            ctx = env.context_of(i)
            ep = ctx.randomization
            assert rows["payload_mass"][0] <= ep.payload_mass <= rows["payload_mass"][1]
            assert np.all(ep.hip_mass_deltas >= rows["hip_mass"][0])
            assert np.all(ep.hip_mass_deltas <= rows["hip_mass"][1])
            assert rows["ground_friction"][0] <= ep.friction_scale <= rows["ground_friction"][1]
            assert np.all((ep.kp_scale >= 0.8) & (ep.kp_scale <= 1.3))
            assert np.all((ep.kd_scale >= 0.5) & (ep.kd_scale <= 1.5))
            assert np.all((ep.motor_strength >= 0.9) & (ep.motor_strength <= 1.1))
            assert 0 <= ctx.delay_substeps <= 7
            for push in ctx.pushes:
                mag = np.linalg.norm(push.force)
                assert 50.0 - 1e-9 <= mag <= 150.0 + 1e-9
                impulse = mag * push.duration
                assert 8.0 - 1e-9 <= impulse <= 15.0 + 1e-9


def test_reset_identity_when_disabled():
    env = VecLocomotionEnv("PLS", n_envs=4, seed=2, config=EnvConfig())
    env.reset_all(randomization_on=False)
    for i in range(4):
        ep = env.context_of(i).randomization
        assert ep.payload_mass == 0.0
        assert np.all(ep.kp_scale == 1.0)
        assert env.params.friction[i] == env.base_friction
        assert env.params.gravity[i, 2] == -env.base_gravity


def test_command_schedule_four_intervals():
    # hold the default pose stiffly (raw stiffness +1 -> kp 60) so the
    # episode runs the full 20 s; commands must refresh at 5/10/15 s
    env = VecLocomotionEnv(
        "PLS", n_envs=1, seed=9,
        config=EnvConfig(push_enabled=False, reset_joint_noise=0.0),
    )
    env.reset_all(randomization_on=False)
    action = np.zeros((1, env.action_dim))
    action[0, 12:] = 1.0
    seen = [env.command[0].copy()]
    resample_steps = []
    for k in range(env.cfg.max_steps):
        before = env.command[0].copy()
        obs, priv, rew, done, info = env.step(action)
        if bool(done[0]):
            assert info["truncated"][0]
            break
        if not np.allclose(env.command[0], before):
            resample_steps.append(k + 1)
            seen.append(env.command[0].copy())
    # the refresh lands on the control step that begins at t = 5, 10, 15 s
    assert resample_steps == [251, 501, 751]
    assert len(seen) == 4


def test_push_schedule_timing():
    cfg = EnvConfig()
    rng = np.random.default_rng(21)
    for _ in range(200):
        pushes = schedule_pushes(rng, cfg)
        assert len(pushes) == 3
        for k, p in enumerate(pushes):
            assert abs(p.start_time - (k + 1) * 6.0) <= 0.5 + 1e-12
            assert 8.0 / 150.0 - 1e-12 <= p.duration <= 15.0 / 50.0 + 1e-12
            assert p.force[2] == 0.0


def test_zero_command_range_config(quiet_env):
    quiet_env.reset_all(randomization_on=False)
    assert np.allclose(quiet_env.command, 0.0)


def test_sample_command_ranges():
    rng = np.random.default_rng(0)
    ranges = {"vx": (-1.0, 1.0), "vy": (-0.5, 0.5), "yaw_rate": (-2.0, 2.0)}
    cmds = np.stack([sample_command(rng, ranges) for _ in range(1000)])
    assert np.all(np.abs(cmds[:, 0]) <= 1.0)
    assert np.all(np.abs(cmds[:, 1]) <= 0.5)
    assert np.all(np.abs(cmds[:, 2]) <= 2.0)


def test_termination_orientation():
    env = VecLocomotionEnv("PLS", n_envs=1, seed=1, config=quiet_config())
    env.reset_all(randomization_on=False)
    # flip the robot upside-down in mid-air
    env.state.base_pos[0] = (0.0, 0.0, 1.0)
    env.state.base_quat[0] = (0.0, 1.0, 0.0, 0.0)
    env.state.cache = None
    obs, priv, rew, done, info = env.step(np.zeros((1, env.action_dim)))
    assert bool(done[0])
    assert info["reasons"][0] == REASON_CODE["orientation"]
    assert info["breakdown"].terms["termination"][0] == 1.0


def test_termination_illegal_contact():
    env = VecLocomotionEnv("PLS", n_envs=1, seed=1, config=quiet_config())
    env.reset_all(randomization_on=False)
    env.state.base_pos[0, 2] = 0.04  # trunk at the floor
    env.state.cache = None
    obs, priv, rew, done, info = env.step(np.zeros((1, env.action_dim)))
    assert bool(done[0])
    assert info["reasons"][0] in (REASON_CODE["illegal_contact"], REASON_CODE["joint_limit"])


def test_truncation_at_episode_end():
    env = VecLocomotionEnv(
        "PLS", n_envs=1, seed=4,
        config=quiet_config(episode_length_s=0.1),  # 5 control steps
    )
    env.reset_all(randomization_on=False)
    env.auto_reset = False
    done = False
    steps = 0
    while not done and steps < 10:
        obs, priv, rew, dones, info = env.step(np.zeros((1, env.action_dim)))
        done = bool(dones[0])
        steps += 1
    assert steps == 5
    assert bool(info["truncated"][0])
    assert not bool(info["terminated"][0])


def test_standing_stability_under_zero_action():
    # zero action = PD hold at the default pose; the robot must just stand
    env = VecLocomotionEnv("FixedP50", n_envs=1, seed=5, config=quiet_config())
    env.reset_all(randomization_on=False)
    for _ in range(100):  # 2 s
        obs, priv, rew, done, info = env.step(np.zeros((1, env.action_dim)))
        assert not bool(done[0])
    assert env.state.base_pos[0, 2] > 0.25
    assert abs(env.state.base_pos[0, 0]) < 0.1


def test_active_push_reported_in_privileged():
    cfg = quiet_config()
    env = VecLocomotionEnv("PLS", n_envs=1, seed=6, config=cfg)
    env.reset_all(randomization_on=False)
    env.set_push_schedule([0.05], [0.1], [[40.0, 0.0, 0.0]])
    env.step(np.zeros((1, env.action_dim)))  # t=0.02 -> not yet active
    assert np.allclose(env.observe_privileged()[0][42:45], 0.0)
    env.step(np.zeros((1, env.action_dim)))  # t=0.04 -> inside the window
    obs, priv, rew, done, info = env.step(np.zeros((1, env.action_dim)))
    assert np.allclose(info["push_force"][0], [40.0, 0.0, 0.0])
    assert np.allclose(priv[0][42:45], [40.0, 0.0, 0.0])
    # after the window closes F_kick returns to zero
    for _ in range(5):
        obs, priv, rew, done, info = env.step(np.zeros((1, env.action_dim)))
    assert np.allclose(priv[0][42:45], 0.0)


def test_push_impulse_changes_velocity():
    cfg = quiet_config()
    env = VecLocomotionEnv("FixedP50", n_envs=1, seed=8, config=cfg)
    env.reset_all(randomization_on=False)
    env.set_push_schedule([0.1], [0.1], [[120.0, 0.0, 0.0]])
    for _ in range(15):
        env.step(np.zeros((1, env.action_dim)))
    # impulse 12 N s on 18 kg -> order 0.6 m/s; contact friction eats a lot
    assert env.state.base_linvel[0, 0] > 0.1


def test_vector_env_matches_single_env():
    cfg = quiet_config()
    vec = VecLocomotionEnv("PLS", n_envs=3, seed=30, config=cfg)
    vec.reset_all(randomization_on=False)
    single = VecLocomotionEnv("PLS", n_envs=1, seed=30, config=cfg)
    single.reset_all(randomization_on=False)
    rng = np.random.default_rng(1)
    for _ in range(5):
        act = rng.uniform(-1, 1, (1, vec.action_dim))
        acts = np.repeat(act, 3, axis=0)
        ov, _, rv, _, _ = vec.step(acts)
        os_, _, rs, _, _ = single.step(act)
        assert np.allclose(ov[0], os_[0], atol=1e-12)
        assert np.allclose(rv[0], rs[0], atol=1e-12)


def test_single_wrapper_api():
    env = LocomotionEnv("PLS", seed=0, config=quiet_config(), randomization_on=False)
    state, context = env.reset()
    assert isinstance(state, dyn.BatchState)
    assert context.delay_substeps == 0
    obs, priv, rew, done, info = env.step(np.zeros(env.vec.action_dim))
    assert obs.shape == (52,)
    assert isinstance(rew, float)
    assert info["reason"] == "running"


def test_non_finite_state_terminates_as_diverged():
    # a NaN in env 1 ends only env 1; rows 0 and 2 match an uninjected twin
    outs = []
    for inject in (False, True):
        env = VecLocomotionEnv("HJLS", n_envs=3, seed=8)
        if inject:
            env.state.qdot[1, 0] = np.nan
        env.state.cache = None
        outs.append(env.step(np.zeros((3, env.action_dim))))
    (obs0, priv0, rew0, done0, _), (obs, priv, rew, done, info) = outs
    assert info["reasons"][1] == REASON_CODE["diverged"]
    assert done[1] and rew[1] == 0.0
    breakdown = info["breakdown"]
    assert all(breakdown.terms[t][1] == 0.0 and breakdown.weighted[t][1] == 0.0
               for t in breakdown.terms)
    rows = [0, 2]
    for a, b in ((obs0, obs), (priv0, priv), (rew0, rew), (done0, done)):
        assert np.array_equal(a[rows], b[rows])
    assert np.isfinite(obs).all() and np.isfinite(priv).all()
