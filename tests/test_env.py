"""Environment behaviour: observation layout, termination, schedules,
determinism, and vectorization."""

import numpy as np
import pytest

from vsloco import dynamics as dyn
from vsloco import randomization as dr
from vsloco.actuation import action_dim
from vsloco.env import (
    REASON_CODE,
    EnvConfig,
    VecLocomotionEnv,
    sample_command,
    schedule_pushes,
)
from vsloco.rotations import quat_to_matrix


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
    assert np.allclose(a.command, b.command)
    assert np.array_equal(a.delay_substeps, b.delay_substeps)
    assert np.allclose(a.kp_scale, b.kp_scale)
    assert np.array_equal(a.push_start, b.push_start)
    assert np.allclose(a.push_force, b.push_force)


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
        payload, hips = env.mass_deltas[:, 0], env.mass_deltas[:, 1:]
        friction_scale = env.params.friction / env.nominal_params.friction
        assert np.all((rows["payload_mass"][0] <= payload) & (payload <= rows["payload_mass"][1]))
        assert np.all(hips >= rows["hip_mass"][0])
        assert np.all(hips <= rows["hip_mass"][1])
        assert np.all((rows["ground_friction"][0] <= friction_scale)
                      & (friction_scale <= rows["ground_friction"][1]))
        assert np.all((env.kp_scale >= 0.8) & (env.kp_scale <= 1.3))
        assert np.all((env.kd_scale >= 0.5) & (env.kd_scale <= 1.5))
        assert np.all((env.motor_strength >= 0.9) & (env.motor_strength <= 1.1))
        assert np.all((0 <= env.delay_substeps) & (env.delay_substeps <= 7))
        placed = np.isfinite(env.push_start)
        mag = np.linalg.norm(env.push_force[placed], axis=-1)
        assert np.all((50.0 - 1e-9 <= mag) & (mag <= 150.0 + 1e-9))
        impulse = mag * (env.push_end - env.push_start)[placed]
        assert np.all((8.0 - 1e-9 <= impulse) & (impulse <= 15.0 + 1e-9))


def test_reset_identity_when_disabled():
    env = VecLocomotionEnv("PLS", n_envs=4, seed=2, config=EnvConfig())
    env.reset_all(randomization_on=False)
    assert np.all(env.mass_deltas[:, 0] == 0.0)
    assert np.all(env.kp_scale == 1.0)
    assert np.array_equal(env.params.friction, env.nominal_params.friction)
    assert np.array_equal(env.params.gravity, env.nominal_params.gravity)
    assert np.array_equal(env.params.masses, env.nominal_params.masses)
    assert np.all(env.delay_substeps == 0)


def test_command_schedule_four_intervals():
    # hold the default pose stiffly (raw stiffness +1 -> kp 60) so the
    # episode runs the full 20 s; commands must refresh at 5/10/15 s. The
    # refresh rule reads only step_count, so the steps between the windows
    # around each refresh and the episode end are skipped by advancing it.
    env = VecLocomotionEnv(
        "PLS", n_envs=1, seed=9,
        config=EnvConfig(push_enabled=False, reset_joint_noise=0.0),
    )
    env.reset_all(randomization_on=False)
    action = np.zeros((1, env.action_dim))
    action[0, 12:] = 1.0
    seen = [env.command[0].copy()]
    resample_steps = []
    windows = [range(0, 4), range(247, 254), range(497, 504), range(747, 754), range(996, 1001)]
    ended = None
    for window in windows:
        env.step_count[:] = window[0]
        for k in window:
            before = env.command[0].copy()
            obs, priv, rew, done, info = env.step(action)
            if bool(done[0]):
                assert info["truncated"][0]
                ended = k + 1
                break
            if not np.allclose(env.command[0], before):
                resample_steps.append(k + 1)
                seen.append(env.command[0].copy())
    # the refresh lands on the control step that begins at t = 5, 10, 15 s
    assert resample_steps == [251, 501, 751]
    assert len(seen) == 4
    assert ended == env.cfg.max_steps == 1000  # truncated at 20 s


def test_push_schedule_timing():
    cfg = EnvConfig()
    start, end, force = schedule_pushes(dr.seed_key(21), np.arange(200), np.zeros(200), cfg)
    assert start.shape == (200, 3) and np.all(np.isfinite(start))
    assert np.all(np.abs(start - 6.0 * np.arange(1, 4)) <= 0.5 + 1e-12)
    duration = end - start
    assert np.all((8.0 / 150.0 - 1e-12 <= duration) & (duration <= 15.0 / 50.0 + 1e-12))
    assert np.all(force[..., 2] == 0.0)


def test_push_slots_cover_long_episodes():
    # a 60 s episode has a push near every 6 s: at least 9 slots are filled
    env = VecLocomotionEnv("PLS", n_envs=16, seed=22, config=EnvConfig(episode_length_s=60.0))
    placed = np.isfinite(env.push_start)
    assert np.all(placed.sum(axis=1) >= 9)
    k = np.broadcast_to(np.arange(1, env.push_start.shape[1] + 1), placed.shape)
    assert np.all(np.abs(env.push_start[placed] - 6.0 * k[placed]) <= 0.5 + 1e-12)


def test_zero_command_range_config(quiet_env):
    quiet_env.reset_all(randomization_on=False)
    assert np.allclose(quiet_env.command, 0.0)


def test_sample_command_ranges():
    ranges = {"vx": (-1.0, 1.0), "vy": (-0.5, 0.5), "yaw_rate": (-2.0, 2.0)}
    cmds = sample_command(dr.seed_key(0), np.arange(1000), np.zeros(1000), ranges)
    assert np.all(np.abs(cmds[:, 0]) <= 1.0)
    assert np.all(np.abs(cmds[:, 1]) <= 0.5)
    assert np.all(np.abs(cmds[:, 2]) <= 2.0)


def test_termination_orientation():
    env = VecLocomotionEnv("PLS", n_envs=1, seed=1, config=quiet_config())
    env.reset_all(randomization_on=False)
    # flip the robot upside-down in mid-air
    env.state.base_pos[0] = (0.0, 0.0, 1.0)
    env.state.base_quat[0] = (0.0, 1.0, 0.0, 0.0)
    obs, priv, rew, done, info = env.step(np.zeros((1, env.action_dim)))
    assert bool(done[0])
    assert info["reasons"][0] == REASON_CODE["orientation"]
    assert info["breakdown"].terms["termination"][0] == 1.0


def test_termination_illegal_contact():
    env = VecLocomotionEnv("PLS", n_envs=1, seed=1, config=quiet_config())
    env.reset_all(randomization_on=False)
    env.state.base_pos[0, 2] = 0.04  # trunk at the floor
    obs, priv, rew, done, info = env.step(np.zeros((1, env.action_dim)))
    assert bool(done[0])
    assert info["reasons"][0] in (REASON_CODE["illegal_contact"], REASON_CODE["joint_limit"])


def test_joint_limit_clamp_refreshes_kinematics_cache():
    # a knee driven past its limit is stored clamped; the kinematics cache
    # the step leaves behind, which the collision count, the reward and the
    # next substep read, is that of the clamped pose
    env = VecLocomotionEnv("PLS", n_envs=1, seed=1, config=quiet_config())
    env.reset_all(randomization_on=False)
    env.auto_reset = False
    env.state.base_pos[0, 2] = 1.0  # in the air, so no foot contact damps the knee
    env.state.qdot[0, 2] = 300.0  # FR knee, towards its upper limit
    _, _, _, done, info = env.step(np.zeros((1, env.action_dim)))
    assert done[0] and info["reasons"][0] == REASON_CODE["joint_limit"]
    assert env.state.q[0, 2] == env.q_limits[1][2]
    _, fk, vel, _ = env.state.cache
    fresh_fk = dyn._fk(env.tree, env.state)
    fresh_vel = dyn._velocities(env.tree, env.state, fresh_fk)
    for cached, fresh in ((fk, fresh_fk), (vel, fresh_vel)):
        for key in fresh:
            assert np.array_equal(cached[key], fresh[key]), key


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


def test_base_frame_is_the_rotation_of_base_quat():
    # observations express the base velocities and gravity in the frame of
    # quat_to_matrix(base_quat), bit for bit, after steps and resets
    env = VecLocomotionEnv("PJS", n_envs=3, seed=6)

    def expected(env):
        s = env.state
        R0 = quat_to_matrix(s.base_quat)
        v = np.einsum("nji,nj->ni", R0, s.base_linvel)
        w = np.einsum("nji,nj->ni", R0, s.base_angvel)
        return np.concatenate([v, w, -R0[:, 2, :]], axis=1)

    rng = np.random.default_rng(4)
    for k in range(4):
        if k == 2:
            env._reset_envs([1])
        elif k == 3:
            env.reset_all()
        else:
            env.step(rng.uniform(-1, 1, (3, env.action_dim)))
        assert np.array_equal(env.observe(noisy=False)[:, 3:12], expected(env))
        assert np.array_equal(env.observe_privileged()[:, -env.obs_dim:][:, 3:12], expected(env))


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


def test_batch_rows_draw_independent_streams():
    # env 0 of a batch of 3 gets the episode, command, push and noise draws of
    # a lone env at the same seed, while envs 1 and 2 fall and reset at other
    # times; env 0 holds its pose through the command refresh at step 251,
    # then is flipped over so it resets too
    batch = VecLocomotionEnv("PJS", n_envs=3, seed=12, config=EnvConfig())
    single = VecLocomotionEnv("PJS", n_envs=1, seed=12, config=EnvConfig())
    rng = np.random.default_rng(2)
    hold = np.zeros(batch.action_dim)
    hold[12:] = 1.0
    resets = np.zeros(3, dtype=int)
    commands = [single.command[0].copy()]
    for k in range(256):
        if k == 252:
            for env in (batch, single):
                env.state.base_pos[0] = (0.0, 0.0, 1.0)
                env.state.base_quat[0] = (0.0, 1.0, 0.0, 0.0)
        acts = rng.uniform(-1, 1, (3, batch.action_dim))
        acts[0] = hold
        outs_b = batch.step(acts)
        outs_s = single.step(acts[:1])
        resets += outs_b[3]
        for a, b in zip(outs_b[:3], outs_s[:3]):  # obs, priv, reward
            assert np.array_equal(a[0], b[0]), k
        for name in ("command", "push_start", "push_end", "push_force"):
            assert np.array_equal(getattr(batch, name)[0], getattr(single, name)[0]), (k, name)
        if not np.array_equal(single.command[0], commands[-1]):
            commands.append(single.command[0].copy())
    assert resets[0] == 1 and resets[1] >= 1 and resets[2] >= 1
    assert len(commands) == 3  # the refresh at step 251 and the reset's draw


def test_non_finite_state_terminates_as_diverged():
    # a NaN in env 1 ends only env 1; rows 0 and 2 match an uninjected twin
    outs = []
    for inject in (False, True):
        env = VecLocomotionEnv("HJLS", n_envs=3, seed=8)
        if inject:
            env.state.qdot[1, 0] = np.nan
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
