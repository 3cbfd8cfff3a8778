"""Environment behaviour: observation layout, termination, schedules,
determinism, and vectorization."""

import dataclasses

import numpy as np
import pytest

from vsloco import dynamics as dyn
from vsloco import randomization as dr
from vsloco.actuation import action_dim
from vsloco.env import (
    HIP_BODY_INDICES,
    OBS_BLOCKS,
    PUSH_IMPULSE,
    PUSH_MAGNITUDE,
    REASON_CODE,
    TRUNK_BODY,
    EnvConfig,
    VecLocomotionEnv,
    _collision_counts,
    row_layout,
    sample_command,
    schedule_pushes,
)
from vsloco.model import build_quadruped
from vsloco.rewards import FOOT_CLEARANCE_TARGET, FOOT_CONTACT_HEIGHT
from vsloco.rotations import quat_to_matrix


def no_randomization():
    """Every randomization row at its identity: randomization off."""
    return dr.DomainRandomizationConfig(dr.IDENTITY_ROWS)


def quiet_config(**overrides):
    kwargs = dict(
        reset_joint_noise=0.0,
        push_enabled=False,
        command_ranges={"vx": (0.0, 0.0), "vy": (0.0, 0.0), "yaw_rate": (0.0, 0.0)},
    )
    kwargs.update(overrides)
    return EnvConfig(**kwargs)


def bare_config(**overrides):
    """quiet_config with randomization off."""
    return quiet_config(randomization=no_randomization(), **overrides)


@pytest.fixture(scope="module")
def quiet_env():
    env = VecLocomotionEnv("PLS", n_envs=1, seed=0, config=bare_config())
    env.reset_all()
    return env


def test_observation_layout_at_rest(quiet_env):
    quiet_env.reset_all()
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
    quiet_env.reset_all()
    priv = quiet_env.observe_privileged()[0]
    assert priv.shape == (97,)  # 45 + 52 for PLS
    assert np.allclose(priv[0:24], 1.0)  # kp/kd scales
    assert np.allclose(priv[24:36], 1.0)  # motor strength
    assert abs(priv[36] - 1.0) < 1e-12  # base friction
    assert np.allclose(priv[37:42], 0.0)  # mass deltas
    assert np.allclose(priv[42:45], 0.0)  # F_kick
    assert np.allclose(priv[45:], quiet_env.observe(noisy=False)[0])


def test_layout_offsets_of_a_randomized_pushed_env():
    # every block at its offset, with randomization on, a push active and a
    # nonzero previous action, so that no two blocks hold the same values
    env = VecLocomotionEnv("PLS", n_envs=2, seed=9)
    env.set_push_schedule([0.0, 0.0], [1.0, 1.0], [[30.0, -20.0, 0.0], [0.0, 45.0, 0.0]])
    env.step(np.random.default_rng(2).uniform(-1, 1, (2, env.action_dim)))
    obs, priv = env.observe(noisy=False), env.observe_privileged()
    s = env.state
    expected_obs = {(0, 3): env.rows["command"], (12, 24): s.qdot, (24, 36): s.q - env.q_default,
                    (36, 52): env.rows["prev_action"]}
    for (a, b), block in expected_obs.items():
        assert np.array_equal(obs[:, a:b], block), (a, b)
    expected_priv = {(0, 12): env.rows["kp_scale"], (12, 24): env.rows["kd_scale"],
                     (24, 36): env.rows["motor_strength"], (36, 37): env.params.friction[:, None],
                     (37, 42): env.rows["mass_deltas"], (42, 45): env.rows["active_push"],
                     (45, 97): obs}
    for (a, b), block in expected_priv.items():
        assert np.array_equal(priv[:, a:b], block), (a, b)
    assert np.all(np.any(env.rows["active_push"] != 0.0, axis=1))  # both pushes active


def test_observation_noise_support():
    env = VecLocomotionEnv("PLS", n_envs=1, seed=3, config=quiet_config())
    env.reset_all()
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


def test_every_noise_row_pairs_with_an_observation_block_of_its_width():
    widths = {name: width for name, width, _ in OBS_BLOCKS}
    for row, width in dr.NOISE_ROWS.items():
        assert widths[row[len("noise_"):]] == width, row


def test_same_seed_same_context():
    cfg = EnvConfig()
    a = VecLocomotionEnv("PLS", n_envs=2, seed=7, config=cfg)
    b = VecLocomotionEnv("PLS", n_envs=2, seed=7, config=cfg)
    assert np.allclose(a.rows["command"], b.rows["command"])
    assert np.array_equal(a.rows["delay_substeps"], b.rows["delay_substeps"])
    assert np.allclose(a.rows["kp_scale"], b.rows["kp_scale"])
    assert np.array_equal(a.rows["push_start"], b.rows["push_start"])
    assert np.allclose(a.rows["push_force"], b.rows["push_force"])


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
    nominal = dyn.BatchParams.from_tree(env.tree, env.n)
    rows = env.cfg.randomization.rows
    for _ in range(20):
        env.reset_all()
        payload, hips = env.rows["mass_deltas"][:, 0], env.rows["mass_deltas"][:, 1:]
        friction_scale = env.params.friction / nominal.friction
        assert np.all((rows["payload_mass"][0] <= payload) & (payload <= rows["payload_mass"][1]))
        assert np.all(hips >= rows["hip_mass"][0])
        assert np.all(hips <= rows["hip_mass"][1])
        assert np.all((rows["ground_friction"][0] <= friction_scale)
                      & (friction_scale <= rows["ground_friction"][1]))
        assert np.all((env.rows["kp_scale"] >= 0.8) & (env.rows["kp_scale"] <= 1.3))
        assert np.all((env.rows["kd_scale"] >= 0.5) & (env.rows["kd_scale"] <= 1.5))
        assert np.all((env.rows["motor_strength"] >= 0.9) & (env.rows["motor_strength"] <= 1.1))
        assert np.all((0 <= env.rows["delay_substeps"]) & (env.rows["delay_substeps"] <= 7))
        placed = np.isfinite(env.rows["push_start"])
        mag = np.linalg.norm(env.rows["push_force"][placed], axis=-1)
        assert np.all((50.0 - 1e-9 <= mag) & (mag <= 150.0 + 1e-9))
        impulse = mag * (env.rows["push_end"] - env.rows["push_start"])[placed]
        assert np.all((8.0 - 1e-9 <= impulse) & (impulse <= 15.0 + 1e-9))


def test_reset_identity_when_disabled():
    env = VecLocomotionEnv("PLS", n_envs=4, seed=2,
                           config=EnvConfig(randomization=no_randomization()))
    env.reset_all()
    assert np.all(env.rows["mass_deltas"][:, 0] == 0.0)
    assert np.all(env.rows["kp_scale"] == 1.0)
    nominal = dyn.BatchParams.from_tree(env.tree, env.n)
    assert np.array_equal(env.params.friction, nominal.friction)
    assert np.array_equal(env.params.gravity, nominal.gravity)
    assert np.array_equal(env.params.masses, nominal.masses)
    assert np.all(env.rows["delay_substeps"] == 0)


def test_construction_resets_without_observing():
    # the reset draws four streams per env (joint noise, episode, command,
    # pushes); the observation noise is drawn at the first observe
    env = VecLocomotionEnv("PJS", n_envs=5, seed=3,
                           config=EnvConfig(randomization=no_randomization()))
    assert np.all(env.rows["draws"] == 4)
    assert env.cfg.randomization.rows == dr.IDENTITY_ROWS
    assert np.all(env.rows["kp_scale"] == 1.0) and not env.rows["mass_deltas"].any()
    env.reset_all()
    assert np.all(env.rows["draws"] == 9) and env.cfg.randomization.rows == dr.IDENTITY_ROWS
    assert np.all(VecLocomotionEnv("PJS", n_envs=5, seed=3).rows["draws"] == 4)


@pytest.mark.parametrize("randomized", [True, False])
def test_reset_all_in_place_equals_a_fresh_reset_at_the_same_draws(randomized):
    # reset_all rewrites every per-row array in place: after 30 steps (in
    # which one env falls and resets) and a push schedule it leaves what a
    # fresh env of the same seed leaves when it resets from the same draws
    n = 8
    config = EnvConfig() if randomized else EnvConfig(randomization=no_randomization())
    stepped = VecLocomotionEnv("HJLS", n_envs=n, seed=4, config=config)
    rng = np.random.default_rng(3)
    for _ in range(30):
        stepped.step(rng.uniform(-1, 1, (n, stepped.action_dim)))
    stepped.set_push_schedule(np.full(n, 0.02), np.full(n, 0.1), np.tile([60.0, 0.0, 0.0], (n, 1)))
    fresh = VecLocomotionEnv("HJLS", n_envs=n, seed=4, config=config)
    fresh.rows["draws"][:] = stepped.rows["draws"]
    for a, b in zip(stepped.reset_all(), fresh.reset_all(), strict=True):  # obs, priv
        assert np.array_equal(a, b)
    held, fresh_held = stepped.snapshot(), fresh.snapshot()
    assert held.keys() == fresh_held.keys()
    assert {"q", "masses", "kp", "push_start", "draws"} <= held.keys()
    for name, value in held.items():
        assert np.array_equal(value, fresh_held[name]), name
    for k in range(5):
        action = rng.uniform(-1, 1, (n, stepped.action_dim))
        for a, b in zip(stepped.step(action)[:4], fresh.step(action)[:4]):  # obs, priv, rew, done
            assert np.array_equal(a, b), k


def test_command_schedule_four_intervals():
    # hold the default pose stiffly (raw stiffness +1 -> kp 60) so the
    # episode runs the full 20 s; commands must refresh at 5/10/15 s. The
    # refresh rule reads only step_count, so the steps between the windows
    # around each refresh and the episode end are skipped by advancing it.
    env = VecLocomotionEnv(
        "PLS", n_envs=1, seed=9,
        config=EnvConfig(push_enabled=False, reset_joint_noise=0.0,
                         randomization=no_randomization()),
    )
    env.reset_all()
    action = np.zeros((1, env.action_dim))
    action[0, 12:] = 1.0
    seen = [env.rows["command"][0].copy()]
    resample_steps = []
    windows = [range(0, 4), range(247, 254), range(497, 504), range(747, 754), range(996, 1001)]
    ended = None
    for window in windows:
        env.rows["step_count"][:] = window[0]
        for k in window:
            before = env.rows["command"][0].copy()
            obs, priv, rew, done, info = env.step(action)
            if bool(done[0]):
                assert info["truncated"][0]
                ended = k + 1
                break
            if not np.allclose(env.rows["command"][0], before):
                resample_steps.append(k + 1)
                seen.append(env.rows["command"][0].copy())
    # the refresh lands on the control step that begins at t = 5, 10, 15 s
    assert resample_steps == [251, 501, 751]
    assert len(seen) == 4
    assert ended == env.cfg.max_steps == 1000  # truncated at 20 s


@pytest.mark.parametrize("resample_s, refreshed_after", [(0.06, [3, 6, 9]), (0.0, [])])
def test_commands_refresh_every_whole_number_of_control_steps(resample_s, refreshed_after):
    # at control_dt 0.02 s, 0.06 s is every 3 control steps; 0 is off
    env = VecLocomotionEnv("PLS", n_envs=1, seed=9, config=EnvConfig(
        command_resample_s=resample_s, push_enabled=False, reset_joint_noise=0.0,
        randomization=no_randomization()))
    action = np.zeros((1, env.action_dim))
    action[0, 12:] = 1.0  # hold the default pose stiffly
    refreshed = []
    for k in range(11):
        before = env.rows["command"][0].copy()
        assert not env.step(action)[3][0]
        if not np.array_equal(env.rows["command"][0], before):
            refreshed.append(k)  # steps completed before the refresh
    assert refreshed == refreshed_after


@pytest.mark.parametrize("resample_s", [0.03, 0.05, 0.001, -5.0, np.nan, np.inf])
def test_command_resample_must_be_whole_control_steps(resample_s):
    with pytest.raises(ValueError, match="command_resample_s"):
        EnvConfig(command_resample_s=resample_s)


def test_push_schedule_timing():
    cfg = EnvConfig()
    start, end, force = schedule_pushes(dr.seed_key(21), np.arange(200), np.zeros(200), cfg)
    assert start.shape == (200, 3) and np.all(np.isfinite(start))
    assert np.all(np.abs(start - 6.0 * np.arange(1, 4)) <= 0.5 + 1e-12)
    duration = end - start
    assert np.all((8.0 / 150.0 - 1e-12 <= duration) & (duration <= 15.0 / 50.0 + 1e-12))
    assert np.all(force[..., 2] == 0.0)
    # every placed push draws its force and impulse inside their supports
    assert PUSH_MAGNITUDE == (50.0, 150.0) and PUSH_IMPULSE == (8.0, 15.0)
    magnitude = np.linalg.norm(force, axis=-1)
    impulse = magnitude * duration
    for values, (lo, hi) in ((magnitude, PUSH_MAGNITUDE), (impulse, PUSH_IMPULSE)):
        assert np.all((lo * (1 - 1e-12) <= values) & (values <= hi * (1 + 1e-12)))
        assert values.min() < lo + 0.1 * (hi - lo) and values.max() > hi - 0.1 * (hi - lo)


def test_push_slots_cover_long_episodes():
    # a 60 s episode has a push near every 6 s: at least 9 slots are filled
    env = VecLocomotionEnv("PLS", n_envs=16, seed=22, config=EnvConfig(episode_length_s=60.0))
    placed = np.isfinite(env.rows["push_start"])
    assert np.all(placed.sum(axis=1) >= 9)
    k = np.broadcast_to(np.arange(1, env.rows["push_start"].shape[1] + 1), placed.shape)
    assert np.all(np.abs(env.rows["push_start"][placed] - 6.0 * k[placed]) <= 0.5 + 1e-12)


def test_zero_command_range_config(quiet_env):
    quiet_env.reset_all()
    assert np.allclose(quiet_env.rows["command"], 0.0)


@pytest.mark.parametrize("overrides, message", [
    ({"control_dt": 0.0}, "control_dt"),
    ({"control_dt": -0.02}, "control_dt"),
    ({"physics_substeps": 0}, "physics_substeps"),
    ({"physics_substeps": 2.5}, "physics_substeps"),
    ({"control_dt": 0.2, "physics_substeps": 2}, "dt_physics"),  # 0.1 s substeps
    ({"episode_length_s": 0.01}, "episode_length_s"),
    ({"push_interval_s": 0.0}, "push_interval_s"),
    ({"episode_length_s": np.inf}, "episode_length_s"),  # its step count overflowed
])
def test_config_rejects_bad_timing(overrides, message):
    with pytest.raises(ValueError, match=message):
        EnvConfig(**overrides)


_RANGES = {"vx": (-1.0, 1.0), "vy": (-1.0, 1.0), "yaw_rate": (-1.0, 1.0)}


@pytest.mark.parametrize("overrides, message", [
    # each of these used to pass and break every env later: non-finite
    # observations at the first step, a failed constructor, or NaN commands
    ({"reset_joint_noise": np.nan}, "reset_joint_noise"),
    ({"reset_joint_noise": -0.1}, "reset_joint_noise"),
    ({"push_jitter_s": np.nan}, "push_jitter_s"),
    ({"push_jitter_s": -0.5}, "push_jitter_s"),
    ({"command_ranges": {"vx": (-1.0, 1.0), "yaw_rate": (-1.0, 1.0)}}, "command_ranges"),
    ({"command_ranges": {**_RANGES, "vz": (0.0, 0.0)}}, "command_ranges"),
    ({"command_ranges": {**_RANGES, "vy": (np.nan, 1.0)}}, r"command_ranges\['vy'\]"),
    ({"command_ranges": {**_RANGES, "vx": (-1.0, np.inf)}}, r"command_ranges\['vx'\]"),
    ({"command_ranges": {**_RANGES, "yaw_rate": (1.0, -1.0)}}, r"command_ranges\['yaw_rate'\]"),
])
def test_config_rejects_bad_noise_jitter_and_command_ranges(overrides, message):
    with pytest.raises(ValueError, match=message):
        EnvConfig(**overrides)
    EnvConfig(reset_joint_noise=0.0, push_jitter_s=0.0, command_ranges={
        "vx": (0.5, 0.5), "vy": (0.0, 0.0), "yaw_rate": (-0.1, 0.1)})  # the edges pass


@pytest.mark.parametrize("kwargs, message", [
    ({"n_envs": 0}, "n_envs"),
    ({"n_envs": 2.7}, "n_envs"),
    ({"n_envs": "2"}, "n_envs"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": None}, "seed"),
])
def test_env_rejects_bad_n_envs_and_seed(kwargs, message):
    with pytest.raises(ValueError, match=message):
        VecLocomotionEnv("PJS", **kwargs)


def test_config_accepts_the_longest_substep():
    assert EnvConfig(control_dt=0.1, physics_substeps=10).dt_physics == 0.01


def test_sample_command_ranges():
    ranges = {"vx": (-1.0, 1.0), "vy": (-0.5, 0.5), "yaw_rate": (-2.0, 2.0)}
    cmds = sample_command(dr.seed_key(0), np.arange(1000), np.zeros(1000), ranges)
    assert np.all(np.abs(cmds[:, 0]) <= 1.0)
    assert np.all(np.abs(cmds[:, 1]) <= 0.5)
    assert np.all(np.abs(cmds[:, 2]) <= 2.0)


def test_termination_orientation():
    env = VecLocomotionEnv("PLS", n_envs=1, seed=1, config=bare_config())
    env.reset_all()
    # flip the robot upside-down in mid-air
    env.state.base_pos[0] = (0.0, 0.0, 1.0)
    env.state.base_quat[0] = (0.0, 1.0, 0.0, 0.0)
    obs, priv, rew, done, info = env.step(np.zeros((1, env.action_dim)))
    assert bool(done[0])
    assert info["reasons"][0] == REASON_CODE["orientation"]
    assert info["breakdown"].terms["termination"][0] == 1.0


def test_info_kp_is_the_kp_the_step_applied():
    # env 0 ends and resets to the hold gains (kp 40) inside the step; the
    # step applied kp 58 (stiffness action 0.9) to both envs
    env = VecLocomotionEnv("PLS", n_envs=2, seed=1, config=bare_config())
    env.state.base_pos[0] = (0.0, 0.0, 1.0)
    env.state.base_quat[0] = (0.0, 1.0, 0.0, 0.0)
    _, _, _, done, info = env.step(np.full((2, env.action_dim), 0.9))
    assert done.tolist() == [True, False]
    assert np.allclose(info["kp"], 58.0, rtol=0, atol=1e-12)
    assert np.all(env.rows["kp"][0] == 40.0)


def test_termination_illegal_contact():
    env = VecLocomotionEnv("PLS", n_envs=1, seed=1, config=bare_config())
    env.reset_all()
    env.state.base_pos[0, 2] = 0.04  # trunk at the floor
    obs, priv, rew, done, info = env.step(np.zeros((1, env.action_dim)))
    assert bool(done[0])
    assert info["reasons"][0] in (REASON_CODE["illegal_contact"], REASON_CODE["joint_limit"])


def test_joint_limit_clamp_precedes_the_step_kinematics():
    # a knee driven past its limit is stored clamped, and the collision
    # count and the kinematic reward terms of the step are those of the
    # clamped pose, not of the pose the last substep reached
    env = VecLocomotionEnv("PLS", n_envs=1, seed=1, config=bare_config())
    env.reset_all()
    env._reset_envs = lambda idx: None  # keep the terminal state for the checks below
    env.state.base_pos[0, 2] = 1.0  # in the air, so no foot contact damps the knee
    env.state.qdot[0, 2] = 300.0  # FR knee, towards its upper limit
    _, _, _, done, info = env.step(np.zeros((1, env.action_dim)))
    assert done[0] and info["reasons"][0] == REASON_CODE["joint_limit"]
    assert env.state.q[0, 2] == env.q_limits[1][2]
    kin = dyn._kinematics(env.tree, env.state)
    feet, coms, R = kin["foot_pos"][..., 0].T, kin["c"][..., 0].T, kin["R"][..., 0]
    foot_vel_xy = kin["foot_vel"][:2, :, 0].T
    masses = env.params.masses[0]
    com_xy = (masses @ coms / masses.sum())[:2]

    def z(body, point):  # world height of a body-frame point
        return kin["p"][2, body, 0] + R[2, :, body] @ point

    trunk = [z(TRUNK_BODY, off) for off, _ in env.tree.bodies[TRUNK_BODY].collision_spheres]
    hips = [z(b, c) - r for b in HIP_BODY_INDICES for c, r in env.tree.bodies[b].collision_spheres]
    slipping = feet[:, 2] < FOOT_CONTACT_HEIGHT
    expected = {
        "collisions": (min(trunk) <= 0.0) + sum(h <= 0.0 for h in hips),
        "center_of_mass": np.sum((com_xy - feet[:, :2].mean(axis=0)) ** 2),
        "foot_clearance": np.sum((FOOT_CLEARANCE_TARGET - feet[:, 2]) ** 2
                                 * np.linalg.norm(foot_vel_xy, axis=1)),
        "foot_slip": np.sum(np.sum(foot_vel_xy ** 2, axis=1) * slipping),
    }
    terms = info["breakdown"].terms
    for key, value in expected.items():
        assert terms[key][0] == pytest.approx(value, rel=1e-12, abs=1e-15), key
    # nonzero, so the checks above can tell the clamped pose from the unclamped one
    assert expected["center_of_mass"] > 1e-6 and expected["foot_clearance"] > 1e-3


def _airborne_knee_step(tree):
    """One zero-action step of an env in the air with its FR knee moving
    up at 5 rad/s, so that no foot touches the floor and the knee ends
    above its target: the env and the outputs of ``_physics`` it rewards."""
    env = VecLocomotionEnv("PLS", n_envs=1, seed=1, tree=tree, config=bare_config())
    env.reset_all()
    env.state.base_pos[0, 2] = 1.0
    env.state.qdot[0, 2] = 5.0
    outs, rewards = [], env._rewards

    def spy(actions, gains, start_qdot, out, terminated):
        outs.append(out)
        return rewards(actions, gains, start_qdot, out, terminated)

    env._rewards = spy
    done = env.step(np.zeros((1, env.action_dim)))[3]
    assert not done[0]
    return env, outs[0]


def _knee_limited_below(tree, angle):
    """tree with the FR knee's upper limit 5e-10 below angle: inside the
    1e-9 tolerance of the termination test, so the clip moves the knee but
    does not end the episode."""
    joints = list(tree.joints)
    lo = joints[2].position_limit[0]
    joints[2] = dataclasses.replace(joints[2], position_limit=(lo, angle - 5e-10))
    return dataclasses.replace(tree, joints=joints)


def test_clip_inside_the_termination_tolerance_moves_the_step_kinematics():
    # the twin of a free step whose knee limit is just below the angle the
    # knee reaches: the knee is stored clipped, every other joint as in the
    # free step, and the collisions, com and feet the step hands to the
    # rewards are, bit for bit, those of the stored (clipped) state, which
    # differ from those of the free step's
    free, free_out = _airborne_knee_step(build_quadruped())
    knee = free.state.q[0, 2]
    env, out = _airborne_knee_step(_knee_limited_below(free.tree, knee))
    hi = env.q_limits[1][2]
    assert env.state.q[0, 2] == hi and 0.0 < knee - hi < 1e-9
    assert np.array_equal(np.delete(env.state.q, 2), np.delete(free.state.q, 2))
    kin = dyn._kinematics(env.tree, env.state)
    masses = env.params.masses
    com = np.einsum("nb,nbi->ni", masses, kin["c"].T.copy()) / masses.sum(axis=1, keepdims=True)
    assert np.array_equal(out["n_collisions"], _collision_counts(env.tree, kin))
    assert np.array_equal(out["com"], com)
    for key in ("foot_pos", "foot_vel"):
        assert np.array_equal(out[key], kin[key].T), key
    assert not np.array_equal(out["foot_pos"], free_out["foot_pos"])
    assert not np.array_equal(out["com"], free_out["com"])


def test_step_runs_one_kinematics_pass_per_substep_and_one_per_clip(monkeypatch):
    # one pass on the rows before the substeps and one per substep; a clip
    # that moves a joint adds one for the clipped pose
    fill, calls = dyn._fill_kinematics, []

    def counted(tree, st):
        calls.append(st["q"].shape[-1])
        fill(tree, st)

    substeps = quiet_config().physics_substeps
    monkeypatch.setattr(dyn, "_fill_kinematics", counted)
    free = _airborne_knee_step(build_quadruped())[0]
    assert len(calls) == substeps + 1
    tree = _knee_limited_below(free.tree, free.state.q[0, 2])
    calls.clear()
    _airborne_knee_step(tree)
    assert len(calls) == substeps + 2


def test_air_time_accumulates_across_control_steps():
    # dropped from 2 m, no foot lands in the first control steps, so each
    # foot's air time grows by control_dt per step
    env = VecLocomotionEnv("PLS", n_envs=1, seed=1, config=bare_config())
    env.reset_all()
    env.state.base_pos[0, 2] = 2.0
    for k in range(1, 4):
        env.step(np.zeros((1, env.action_dim)))
        assert np.allclose(env.rows["air_time"][0], k * env.cfg.control_dt, rtol=0, atol=1e-12)


def test_truncation_at_episode_end():
    env = VecLocomotionEnv(
        "PLS", n_envs=1, seed=4,
        config=bare_config(episode_length_s=0.1),  # 5 control steps
    )
    env.reset_all()
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
    env = VecLocomotionEnv("FixedP50", n_envs=1, seed=5, config=bare_config())
    env.reset_all()
    for _ in range(100):  # 2 s
        obs, priv, rew, done, info = env.step(np.zeros((1, env.action_dim)))
        assert not bool(done[0])
    assert env.state.base_pos[0, 2] > 0.25
    assert abs(env.state.base_pos[0, 0]) < 0.1


def test_active_push_reported_in_privileged():
    cfg = bare_config()
    env = VecLocomotionEnv("PLS", n_envs=1, seed=6, config=cfg)
    env.reset_all()
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


def test_a_set_push_schedule_lasts_until_the_env_resets():
    # env 0 ends in the first step and its reset draws a training schedule;
    # env 1 runs on and keeps the set one
    env = VecLocomotionEnv("PLS", n_envs=2, seed=6)
    env.set_push_schedule([0.5, 0.5], [0.1, 0.1], [[40.0, 0.0, 0.0], [0.0, 40.0, 0.0]])
    set_schedule = tuple(env.rows[key].copy() for key in ("push_start", "push_end", "push_force"))
    draws = env.rows["draws"].copy()
    env.state.base_pos[0] = (0.0, 0.0, 1.0)
    env.state.base_quat[0] = (0.0, 1.0, 0.0, 0.0)
    _, _, _, done, _ = env.step(np.zeros((2, env.action_dim)))
    assert done.tolist() == [True, False]
    # the reset's fourth draw (after joint noise, episode and command) is the pushes
    sampled = schedule_pushes(env.key, [0], draws[:1] + 3, env.cfg)
    held = env.rows["push_start"], env.rows["push_end"], env.rows["push_force"]
    for now, before, drawn in zip(held, set_schedule, sampled, strict=True):
        assert np.array_equal(now[0], drawn[0])
        assert not np.array_equal(now[0], before[0])
        assert np.array_equal(now[1], before[1])


@pytest.mark.parametrize("starts, durations, forces, message", [
    (0.5, -0.1, [40.0, 0.0, 0.0], "durations"),  # a push that never acts
    (0.5, 0.0, [40.0, 0.0, 0.0], "durations"),
    (np.nan, 0.1, [40.0, 0.0, 0.0], "starts"),
    (np.inf, 0.1, [40.0, 0.0, 0.0], "starts"),
    (0.5, np.nan, [40.0, 0.0, 0.0], "durations"),
    (0.5, 0.1, [np.inf, 0.0, 0.0], "forces"),  # every env diverged at the next step
    ([0.5, 0.5], 0.1, [40.0, 0.0, 0.0], "starts"),  # 2 starts for 3 envs
    (0.5, [0.1] * 4, [40.0, 0.0, 0.0], "durations"),
    (0.5, 0.1, [40.0, 0.0], "forces"),
    (0.5, 0.1, [[40.0, 0.0, 0.0]] * 2, "forces"),
])
def test_set_push_schedule_rejects_bad_input_by_name(starts, durations, forces, message):
    env = VecLocomotionEnv("PLS", n_envs=3, seed=6)
    before = env.snapshot()
    with pytest.raises(ValueError, match=message):
        env.set_push_schedule(starts, durations, forces)
    for name, value in env.snapshot().items():
        assert np.array_equal(value, before[name]), name
    # one value for every env and one per env both pass
    env.set_push_schedule(0.5, [0.1, 0.2, 0.3], [[40.0, 0.0, 0.0]])
    assert np.array_equal(env.rows["push_end"][:, 0], [0.6, 0.7, 0.8])
    assert np.array_equal(env.rows["push_force"][:, 0], np.tile([40.0, 0.0, 0.0], (3, 1)))


def test_push_impulse_changes_velocity():
    cfg = bare_config()
    env = VecLocomotionEnv("FixedP50", n_envs=1, seed=8, config=cfg)
    env.reset_all()
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
    cfg = bare_config()
    vec = VecLocomotionEnv("PLS", n_envs=3, seed=30, config=cfg)
    vec.reset_all()
    single = VecLocomotionEnv("PLS", n_envs=1, seed=30, config=cfg)
    single.reset_all()
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
    commands = [single.rows["command"][0].copy()]
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
            assert np.array_equal(batch.rows[name][0], single.rows[name][0]), (k, name)
        if not np.array_equal(single.rows["command"][0], commands[-1]):
            commands.append(single.rows["command"][0].copy())
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


def test_a_rejected_action_leaves_the_env_unchanged():
    # at step_count 250 a command refresh is due; a non-finite action is
    # rejected before it redraws a command or advances a draw counter
    env = VecLocomotionEnv("PLS", n_envs=2, seed=2)
    env.rows["step_count"][:] = 250
    before = env.snapshot()
    action = np.zeros((2, env.action_dim))
    action[1, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        env.step(action)
    held = env.snapshot()
    assert {"draws", "command", "q", "kp"} <= held.keys()
    for name, value in held.items():
        assert np.array_equal(value, before[name]), name
    env.step(np.zeros((2, env.action_dim)))  # a valid step refreshes the commands
    assert np.all(env.rows["draws"] == before["draws"] + 2)  # commands, observation noise
    assert not np.array_equal(env.rows["command"], before["command"])


def _pushed_env(n, seed=5):
    """A randomized HJLS env with observation noise, whose 0.4 s episodes
    hold up to two pushes, from about 0.2 s."""
    return VecLocomotionEnv("HJLS", n_envs=n, seed=seed, config=EnvConfig(
        episode_length_s=0.4, push_interval_s=0.2, push_jitter_s=0.05))


def _outputs(step):
    """Copies of a step's obs, priv, reward and done and of its info arrays
    and reward terms, by name."""
    obs, priv, reward, done, info = step
    breakdown = info["breakdown"]
    out = {"obs": obs, "priv": priv, "reward": reward, "done": done, "total": breakdown.total}
    out.update({key: a for key, a in info.items() if isinstance(a, np.ndarray)})
    for kind in ("terms", "weighted"):
        out.update({f"{kind} {key}": a for key, a in getattr(breakdown, kind).items()})
    return {key: np.copy(a) for key, a in out.items()}


def test_restore_replays_the_steps_after_its_snapshot_byte_for_byte():
    # 30 steps after a snapshot, with randomization, observation noise, pushes
    # and resets; restored, the same actions give the same bytes
    env, k = _pushed_env(6), 30
    rng = np.random.default_rng(1)
    for _ in range(7):
        env.step(rng.uniform(-1, 1, (6, env.action_dim)))
    snap = env.snapshot()
    actions = rng.uniform(-1, 1, (k, 6, env.action_dim))
    first = [_outputs(env.step(a)) for a in actions]
    assert sum(out["done"].sum() for out in first) >= 6  # every env reset at least once
    assert any(out["push_force"].any() for out in first)
    env.restore(snap)
    for name, value in env.snapshot().items():
        assert np.array_equal(value, snap[name]), name
    for step, (a, out) in enumerate(zip(actions, first, strict=True)):
        again = _outputs(env.step(a))
        assert again.keys() == out.keys()
        for key in out:
            assert out[key].tobytes() == again[key].tobytes(), (step, key)


def test_a_row_restored_into_every_row_of_another_env_steps_like_its_source():
    # row 2 of a 5-env batch, cloned into the 4 rows of a new env of the same
    # seed and config, steps as row 2 does through the resets of its episodes:
    # its stream keys its draws, wherever it sits
    source, clones = _pushed_env(5), _pushed_env(4)
    rng = np.random.default_rng(2)
    for _ in range(5):
        source.step(rng.uniform(-1, 1, (5, source.action_dim)))
    clones.restore(source.snapshot([2]))
    assert np.all(clones.rows["stream"] == 2)
    resets = 0
    for k in range(30):
        actions = rng.uniform(-1, 1, (5, source.action_dim))
        want = _outputs(source.step(actions))
        got = _outputs(clones.step(np.repeat(actions[2:3], 4, axis=0)))
        resets += want["done"][2]
        assert ("final_privileged" in got) == want["done"][2]  # given when an env ends
        for key in got:
            for row in got[key]:
                assert row.tobytes() == want[key][2].tobytes(), (k, key)
    assert resets >= 1


def test_every_per_row_array_of_the_env_is_a_row_of_the_table():
    # nothing with one entry per env is held outside env.rows, which holds
    # the arrays of row_layout, after construction, steps and a reset
    n = 7
    env = _pushed_env(n)
    layout = row_layout(env.tree, env.action_dim, env.cfg)
    assert len(layout) == 34

    def check():
        assert list(env.rows) == list(layout)
        for name, (shape, dtype) in layout.items():
            assert env.rows[name].shape == (n, *shape) and env.rows[name].dtype == dtype, name
        held = {id(a) for a in env.rows.values()}
        for name, value in vars(env).items():
            values = value.values() if isinstance(value, dict) else [value]
            for a in values:
                if isinstance(a, np.ndarray) and a.ndim and len(a) == n:
                    assert id(a) in held, name

    check()
    rng = np.random.default_rng(3)
    for _ in range(3):
        env.step(rng.uniform(-1, 1, (n, env.action_dim)))
        check()
    env.reset_all()
    check()


@pytest.mark.parametrize("edit, name", [
    (lambda snap: snap.pop("stream"), "stream"),  # missing
    (lambda snap: snap.update(push_torque=np.zeros((3, 3))), "push_torque"),  # extra
    (lambda snap: snap.update(q=snap["q"][:, :11]), "q"),  # trailing shape
    (lambda snap: snap.update(command=snap["command"][:2]), "command"),  # 2 rows for 3
    (lambda snap: snap.update(time=np.float64(0.0)), "time"),  # no row axis
    (lambda snap: snap.update(step_count=snap["step_count"].astype(float)), "step_count"),
    (lambda snap: snap.update(draws=snap["draws"].astype(np.int64)), "draws"),  # dtype
])
def test_restore_refuses_a_bad_snapshot_by_name(edit, name):
    env = VecLocomotionEnv("PLS", n_envs=3, seed=4)
    snap = env.snapshot()
    env.step(np.zeros((3, env.action_dim)))
    before = env.snapshot()
    edit(snap)
    with pytest.raises(ValueError, match=f"'{name}'"):
        env.restore(snap)
    for key, value in env.snapshot().items():  # nothing was written
        assert np.array_equal(value, before[key]), key
