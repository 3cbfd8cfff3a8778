"""Velocity-command locomotion task for the variable-stiffness quadruped.

A vectorized environment steps N independent robots: PD/impedance torques at
500 Hz (10 substeps), policy actions at 50 Hz, per-episode domain
randomization, scheduled pushes, the 18-term reward stack, and the
asymmetric actor/critic observation pair. Every environment owns its RNG
stream, so batches are reproducible per-instance regardless of what the
rest of the batch does.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import actuation as act
from . import dynamics as dyn
from . import randomization as dr
from .model import KinematicTree, build_quadruped
from .rewards import (
    HIP_JOINT_INDICES,
    REWARD_TERMS,
    RewardInputs,
    RewardParams,
    RewardWeights,
    compute_reward_terms,
)
from .rotations import quat_to_matrix

TERMINATION_REASONS = ("running", "orientation", "joint_limit", "illegal_contact", "diverged")
REASON_CODE = {name: i for i, name in enumerate(TERMINATION_REASONS)}

TRUNK_BODY = 0
HIP_BODY_INDICES = (1, 4, 7, 10)


@dataclass
class PushEvent:
    start_time: float
    duration: float
    force: np.ndarray

    def __post_init__(self):
        self.force = np.asarray(self.force, dtype=float)


@dataclass
class EnvConfig:
    control_dt: float = 0.02
    physics_substeps: int = 10
    episode_length_s: float = 20.0
    command_resample_s: float = 5.0
    command_ranges: dict = field(
        default_factory=lambda: {"vx": (-1.0, 1.0), "vy": (-1.0, 1.0), "yaw_rate": (-1.0, 1.0)}
    )
    push_enabled: bool = True
    push_interval_s: float = 6.0
    push_jitter_s: float = 0.5
    push_magnitude: tuple = (50.0, 150.0)
    push_impulse: tuple = (8.0, 15.0)
    reset_joint_noise: float = 0.05
    randomization: dr.DomainRandomizationConfig = field(
        default_factory=dr.DomainRandomizationConfig
    )
    reward_weights: RewardWeights = field(default_factory=RewardWeights)
    reward_params: RewardParams = field(default_factory=RewardParams)

    @property
    def dt_physics(self):
        return self.control_dt / self.physics_substeps

    @property
    def max_steps(self):
        return int(round(self.episode_length_s / self.control_dt))


def env_config_from_dict(cfg: dict) -> EnvConfig:
    cfg = dict(cfg or {})
    kwargs = {}
    for key in (
        "control_dt",
        "physics_substeps",
        "episode_length_s",
        "command_resample_s",
        "push_enabled",
        "push_interval_s",
        "push_jitter_s",
        "reset_joint_noise",
    ):
        if key in cfg:
            kwargs[key] = cfg[key]
    if "command_ranges" in cfg:
        kwargs["command_ranges"] = {k: tuple(v) for k, v in cfg["command_ranges"].items()}
    for key in ("push_magnitude", "push_impulse"):
        if key in cfg:
            kwargs[key] = tuple(cfg[key])
    if "randomization" in cfg:
        kwargs["randomization"] = dr.DomainRandomizationConfig(
            {k: tuple(v) for k, v in cfg["randomization"].items()}
        )
    if "reward_weights" in cfg:
        kwargs["reward_weights"] = RewardWeights(dict(cfg["reward_weights"]))
    if "reward_params" in cfg:
        kwargs["reward_params"] = RewardParams(**cfg["reward_params"])
    return EnvConfig(**kwargs)


def sample_command(rng, ranges) -> np.ndarray:
    """Velocity command (vx, vy, yaw rate) uniform over the training ranges."""
    return np.array(
        [
            rng.uniform(*ranges["vx"]),
            rng.uniform(*ranges["vy"]),
            rng.uniform(*ranges["yaw_rate"]),
        ]
    )


def schedule_pushes(rng, cfg: EnvConfig):
    """Training push schedule: one push every interval (with jitter), planar
    direction uniform, magnitude and impulse inside their supports."""
    events = []
    if not cfg.push_enabled:
        return events
    k = 1
    while True:
        start = k * cfg.push_interval_s + rng.uniform(-cfg.push_jitter_s, cfg.push_jitter_s)
        if start >= cfg.episode_length_s:
            break
        magnitude = rng.uniform(*cfg.push_magnitude)
        impulse = rng.uniform(*cfg.push_impulse)
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        force = magnitude * np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
        events.append(PushEvent(start, impulse / magnitude, force))
        k += 1
    return events


@dataclass
class EpisodeContext:
    """Readable view of one environment's episode draw."""

    randomization: dr.EpisodeRandomization
    command: np.ndarray
    pushes: list
    delay_substeps: int
    friction: float


class VecLocomotionEnv:
    """N parallel locomotion tasks over one robot model and one grouping."""

    MAX_PUSHES = 8

    def __init__(
        self,
        grouping: str,
        n_envs: int = 1,
        seed: int = 0,
        tree: KinematicTree = None,
        config: EnvConfig = None,
    ):
        self.grouping = act.validate_grouping(grouping)
        self.n = int(n_envs)
        self.cfg = config or EnvConfig()
        self.tree = tree or build_quadruped()
        self.ct = self.tree.compiled()
        self.action_dim = act.action_dim(grouping)
        self.obs_dim = 36 + self.action_dim
        self.priv_dim = 45 + self.obs_dim
        self.q_default = self.tree.default_pose
        self.q_limits = self.tree.position_limits
        self.torque_limit = self.tree.torque_limits
        self.base_friction = float(self.tree.contact.get("friction", 1.0))
        self.base_gravity = float(self.tree.gravity)
        self.seed = int(seed)
        self.rngs = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.seed, i))))
            for i in range(self.n)
        ]
        # trunk collision corners for the illegal-contact test
        trunk = self.tree.bodies[TRUNK_BODY]
        self._trunk_points = np.stack([off for off, _ in trunk.collision_spheres])
        self._hip_radius = float(self.tree.contact.get("hip_collision_radius", 0.04))
        self._hip_points = np.stack(
            [self.tree.bodies[b].collision_spheres[0][0] for b in HIP_BODY_INDICES]
        )
        self.randomization_on = True
        self.auto_reset = True
        self.hold_commands = False
        self._extra_payload = 0.0
        self.reset_all(randomization_on=True)

    # ------------------------------------------------------------------
    # resets

    def _alloc(self):
        n, adim = self.n, self.action_dim
        self.params = dyn.BatchParams.from_tree(self.ct, n)
        self.command = np.zeros((n, 3))
        self.push_start = np.full((n, self.MAX_PUSHES), np.inf)
        self.push_end = np.full((n, self.MAX_PUSHES), np.inf)
        self.push_force = np.zeros((n, self.MAX_PUSHES, 3))
        self.delay_substeps = np.zeros(n, dtype=int)
        self.kp_scale = np.ones((n, 12))
        self.kd_scale = np.ones((n, 12))
        self.motor_strength = np.ones((n, 12))
        self.mass_deltas = np.zeros((n, 5))
        self.prev_action = np.zeros((n, adim))
        self.prev_qdot = np.zeros((n, 12))
        self.air_time = np.zeros((n, 4))
        self.prev_contact = np.ones((n, 4), dtype=bool)
        self.step_count = np.zeros(n, dtype=int)
        self.episode_return = np.zeros(n)
        zeros_gains = act.decode_action(
            self.grouping, np.zeros((n, adim)), self.q_default, self.q_limits
        )
        self.gains = zeros_gains
        self.prev_gains = act.GainState(
            kp=zeros_gains.kp.copy(),
            kd=zeros_gains.kd.copy(),
            q_target=zeros_gains.q_target.copy(),
        )
        self.last_tau = np.zeros((n, 12))
        self.power_sums = np.zeros((n, 12))  # per-control-step sum of tau*qdot over substeps
        self.active_push = np.zeros((n, 3))

    def reset_all(self, randomization_on=None):
        if randomization_on is not None:
            self.randomization_on = bool(randomization_on)
        self._alloc()
        self.state = None
        self._reset_envs(np.arange(self.n))
        return self.observe(), self.observe_privileged()

    def _reset_envs(self, idx):
        idx = np.asarray(idx, dtype=int)
        if idx.size == 0:
            return
        n_reset = idx.size
        q = np.repeat(self.q_default[None], n_reset, axis=0)
        for row, i in enumerate(idx):
            rng = self.rngs[i]
            q[row] += rng.uniform(-self.cfg.reset_joint_noise, self.cfg.reset_joint_noise, 12)
            ep = dr.sample_episode(self.cfg.randomization, rng, enabled=self.randomization_on)
            masses = self.ct.mass.copy()
            masses[TRUNK_BODY] += ep.payload_mass + self._extra_payload
            for h, b in enumerate(HIP_BODY_INDICES):
                masses[b] += ep.hip_mass_deltas[h]
            self.params.masses[i] = masses
            self.params.gravity[i] = (0.0, 0.0, -self.base_gravity + ep.gravity_offset)
            self.params.friction[i] = self.base_friction * ep.friction_scale
            self.delay_substeps[i] = min(
                ep.delay_substeps(self.cfg.dt_physics), self.cfg.physics_substeps - 1
            )
            self.kp_scale[i] = ep.kp_scale
            self.kd_scale[i] = ep.kd_scale
            self.motor_strength[i] = ep.motor_strength
            self.mass_deltas[i] = ep.mass_deltas
            self.command[i] = sample_command(rng, self.cfg.command_ranges)
            self.push_start[i] = np.inf
            self.push_end[i] = np.inf
            self.push_force[i] = 0.0
            for k, push in enumerate(schedule_pushes(rng, self.cfg)[: self.MAX_PUSHES]):
                self.push_start[i, k] = push.start_time
                self.push_end[i, k] = push.start_time + push.duration
                self.push_force[i, k] = push.force
        if self.state is None:
            self.state = dyn.default_state(self.tree, np.zeros((self.n, 12)))
        # place each reset robot with its lowest foot exactly on the floor
        placed = dyn.standing_state(self.tree, q)
        s = self.state
        s.cache = None
        for name in ("base_pos", "base_quat", "base_linvel", "base_angvel", "q", "qdot", "time",
                     "contact_flags", "contact_forces", "diverged"):
            getattr(s, name)[idx] = getattr(placed, name)
        self.prev_action[idx] = 0.0
        self.prev_qdot[idx] = 0.0
        self.air_time[idx] = 0.0
        self.prev_contact[idx] = True
        self.step_count[idx] = 0
        self.episode_return[idx] = 0.0
        self.active_push[idx] = 0.0
        self.last_tau[idx] = 0.0
        hold = act.decode_action(
            self.grouping, np.zeros((idx.size, self.action_dim)), self.q_default, self.q_limits
        )
        for f in ("kp", "kd", "q_target"):
            getattr(self.gains, f)[idx] = getattr(hold, f)
            getattr(self.prev_gains, f)[idx] = getattr(hold, f)

    def context_of(self, i) -> EpisodeContext:
        ep = dr.EpisodeRandomization(
            payload_mass=self.mass_deltas[i, 0],
            hip_mass_deltas=self.mass_deltas[i, 1:].copy(),
            friction_scale=self.params.friction[i] / self.base_friction,
            gravity_offset=self.params.gravity[i, 2] + self.base_gravity,
            delay_ms=self.delay_substeps[i] * self.cfg.dt_physics * 1000.0,
            kp_scale=self.kp_scale[i].copy(),
            kd_scale=self.kd_scale[i].copy(),
            motor_strength=self.motor_strength[i].copy(),
        )
        pushes = [
            PushEvent(self.push_start[i, k], self.push_end[i, k] - self.push_start[i, k],
                      self.push_force[i, k].copy())
            for k in range(self.MAX_PUSHES)
            if np.isfinite(self.push_start[i, k])
        ]
        return EpisodeContext(
            randomization=ep,
            command=self.command[i].copy(),
            pushes=pushes,
            delay_substeps=int(self.delay_substeps[i]),
            friction=float(self.params.friction[i]),
        )

    # ------------------------------------------------------------------
    # stepping

    def set_commands(self, commands, hold=True):
        self.command[:] = np.asarray(commands, dtype=float)
        self.hold_commands = bool(hold)

    def set_push_schedule(self, starts, durations, forces):
        """Replace every env's push schedule (evaluation protocols)."""
        self.push_start[:] = np.inf
        self.push_end[:] = np.inf
        self.push_force[:] = 0.0
        starts = np.asarray(starts, dtype=float)
        durations = np.asarray(durations, dtype=float)
        forces = np.asarray(forces, dtype=float)
        self.push_start[:, 0] = starts
        self.push_end[:, 0] = starts + durations
        self.push_force[:, 0] = forces

    def set_extra_payload(self, mass_kg):
        """Add/remove a trunk payload mid-episode (evaluation protocols)."""
        delta = float(mass_kg) - self._extra_payload
        self._extra_payload = float(mass_kg)
        self.params.masses[:, TRUNK_BODY] += delta

    def _active_push(self, t):
        active = (self.push_start <= t[:, None]) & (t[:, None] < self.push_end)
        return np.einsum("nk,nki->ni", active.astype(float), self.push_force)

    def step(self, actions):
        cfg = self.cfg
        actions = np.clip(np.asarray(actions, dtype=float), -1.0, 1.0)
        if actions.shape != (self.n, self.action_dim):
            raise ValueError(f"actions must have shape {(self.n, self.action_dim)}")
        if not self.hold_commands and cfg.command_resample_s > 0:
            t_now = self.step_count * cfg.control_dt
            due = (self.step_count > 0) & (
                np.abs(t_now / cfg.command_resample_s - np.round(t_now / cfg.command_resample_s))
                < 1e-9
            )
            for i in np.flatnonzero(due):
                self.command[i] = sample_command(self.rngs[i], cfg.command_ranges)

        for f in ("kp", "kd", "q_target"):
            getattr(self.prev_gains, f)[:] = getattr(self.gains, f)
        new_gains = act.decode_action(self.grouping, actions, self.q_default, self.q_limits)
        self.gains = new_gains

        touchdown_air = np.zeros((self.n, 4))
        self.power_sums[:] = 0.0
        state = self.state
        rand = act.GainRandomization(self.kp_scale, self.kd_scale, self.motor_strength)
        for sub in range(cfg.physics_substeps):
            use_new = (sub >= self.delay_substeps)[:, None]
            kp = np.where(use_new, new_gains.kp, self.prev_gains.kp)
            kd = np.where(use_new, new_gains.kd, self.prev_gains.kd)
            q_tgt = np.where(use_new, new_gains.q_target, self.prev_gains.q_target)
            eff = act.GainState(kp=kp, kd=kd, q_target=q_tgt)
            tau = act.compute_torque_randomized(
                eff, state.q, state.qdot, rand, torque_limit=self.torque_limit
            )
            self.power_sums += tau * state.qdot
            push = self._active_push(state.time)
            ext = [(TRUNK_BODY, state.base_pos, push)] if np.any(push) else None
            state = dyn.step_batch(
                self.ct, state, tau, cfg.dt_physics, ext=ext, params=self.params
            )
            contact = state.contact_flags
            self.air_time[~contact] += cfg.dt_physics
            landing = contact & ~self.prev_contact
            touchdown_air[landing] += self.air_time[landing]
            self.air_time[contact] = 0.0
            self.prev_contact = contact.copy()
        self.last_tau = tau
        self.active_push = self._active_push(state.time)
        self.state = state
        self.step_count += 1

        # joint limits: violation terminates, state is stored clamped
        lo, hi = self.q_limits
        limit_hit = np.any((state.q < lo - 1e-9) | (state.q > hi + 1e-9), axis=1)
        np.clip(state.q, lo, hi, out=state.q)

        n_collisions = self._collision_counts()
        reasons = self._termination_reasons(limit_hit, n_collisions)
        terminated = reasons != REASON_CODE["running"]
        truncated = (self.step_count >= cfg.max_steps) & ~terminated

        breakdown = self._rewards(actions, new_gains, touchdown_air, n_collisions, terminated)
        # a diverged state may be non-finite: its env earns nothing and resets
        for terms in (breakdown.terms, breakdown.weighted):
            for values in terms.values():
                values[state.diverged] = 0.0
        breakdown.total[state.diverged] = 0.0
        reward = breakdown.total
        self.episode_return += reward
        self.prev_action = actions.copy()
        self.prev_qdot = state.qdot.copy()

        done = terminated | truncated
        info = {
            "terminated": terminated,
            "truncated": truncated,
            "reasons": reasons,
            "breakdown": breakdown,
            "kp": new_gains.kp,
            "push_force": self.active_push.copy(),
            "episode_return": np.where(done, self.episode_return, np.nan),
            "episode_length": np.where(done, self.step_count, 0),
        }
        if np.any(done):
            info["final_privileged"] = self.observe_privileged()
            info["final_observation"] = self.observe(noisy=False)
            if self.auto_reset:
                self._reset_envs(np.flatnonzero(done))
        obs = self.observe()
        priv = self.observe_privileged()
        return obs, priv, reward, done, info

    # ------------------------------------------------------------------
    # termination / collisions

    def _fk_cache(self):
        if self.state.cache is None:
            fk = dyn._fk(self.ct, self.state)
            vel = dyn._velocities(self.ct, self.state, fk)
            self.state.cache = (fk, vel)
        return self.state.cache

    def _termination_reasons(self, limit_hit, n_collisions):
        fk, _ = self._fk_cache()
        reasons = np.zeros(self.n, dtype=int)
        g_proj_z = -fk["R"][:, TRUNK_BODY, 2, 2]  # base-frame z of world -z
        reasons[n_collisions > 0] = REASON_CODE["illegal_contact"]
        reasons[limit_hit] = REASON_CODE["joint_limit"]
        reasons[g_proj_z >= 0.0] = REASON_CODE["orientation"]
        reasons[self.state.diverged] = REASON_CODE["diverged"]
        return reasons

    def _collision_counts(self):
        fk, _ = self._fk_cache()
        R0 = fk["R"][:, TRUNK_BODY]
        trunk_z = (
            self.state.base_pos[:, None, 2]
            + np.einsum("nij,pj->npi", R0, self._trunk_points)[..., 2]
        )
        trunk_hit = np.any(trunk_z <= 0.0, axis=1)
        hips = np.asarray(HIP_BODY_INDICES)
        hip_centers = fk["p"][:, hips] + np.einsum(
            "nhij,hj->nhi", fk["R"][:, hips], self._hip_points
        )
        hip_hits = (hip_centers[..., 2] - self._hip_radius) <= 0.0
        return trunk_hit.astype(int) + hip_hits.sum(axis=1)

    # ------------------------------------------------------------------
    # rewards and observations

    def _base_frame(self):
        R0 = quat_to_matrix(self.state.base_quat)
        v_base = np.einsum("nji,nj->ni", R0, self.state.base_linvel)
        w_base = np.einsum("nji,nj->ni", R0, self.state.base_angvel)
        g_proj = -R0[:, 2, :]  # world (0,0,-1) expressed in the base frame
        return v_base, w_base, g_proj

    def _rewards(self, actions, gains, touchdown_air, n_collisions, terminated):
        fk, vel = self._fk_cache()
        v_base, w_base, g_proj = self._base_frame()
        foot_pos, foot_vel = dyn.foot_points(self.ct, fk, vel)
        com = np.einsum("nb,nbi->ni", self.params.masses, fk["c"])
        com /= self.params.masses.sum(axis=1, keepdims=True)
        qdot = self.state.qdot
        inputs = RewardInputs(
            v_cmd_xy=self.command[:, :2],
            omega_cmd=self.command[:, 2],
            v_base=v_base,
            omega_base=w_base,
            proj_gravity=g_proj,
            touchdown_air_times=touchdown_air,
            qddot=(qdot - self.prev_qdot) / self.cfg.control_dt,
            tau=self.last_tau,
            qdot=qdot,
            action=actions,
            prev_action=self.prev_action,
            foot_heights=foot_pos[..., 2],
            foot_vel_xy=foot_vel[..., :2],
            foot_xy=foot_pos[..., :2],
            com_xy=com[:, :2],
            q_target=gains.q_target,
            q_next=self.state.q,
            base_height=self.state.base_pos[:, 2],
            q_hip=self.state.q[:, HIP_JOINT_INDICES],
            q_hip_default=self.q_default[HIP_JOINT_INDICES],
            n_collisions=n_collisions,
            terminated=terminated,
        )
        return compute_reward_terms(
            inputs, self.cfg.reward_weights, self.cfg.control_dt, self.cfg.reward_params
        )

    def observe(self, noisy=True) -> np.ndarray:
        """Actor observation: [cmd, v, w, g, qdot, q - q_default, a_prev]."""
        v_base, w_base, g_proj = self._base_frame()
        qdot = self.state.qdot.copy()
        dq = self.state.q - self.q_default
        v = v_base.copy()
        w = w_base.copy()
        g = g_proj.copy()
        if noisy:
            for i in range(self.n):
                noise = dr.sample_observation_noise(
                    self.cfg.randomization, self.rngs[i], enabled=self.randomization_on
                )
                dq[i] += noise["joint_pos"]
                qdot[i] += noise["joint_vel"]
                v[i] += noise["lin_vel"]
                w[i] += noise["ang_vel"]
                g[i] += noise["gravity"]
        return np.concatenate([self.command, v, w, g, qdot, dq, self.prev_action], axis=1)

    def observe_privileged(self) -> np.ndarray:
        """Critic input: randomization scales, friction, mass deltas, the
        active push force, then the noiseless actor observation."""
        return np.concatenate(
            [
                self.kp_scale,
                self.kd_scale,
                self.motor_strength,
                self.params.friction[:, None],
                self.mass_deltas,
                self.active_push,
                self.observe(noisy=False),
            ],
            axis=1,
        )


class LocomotionEnv:
    """Single-instance convenience wrapper over the vectorized task."""

    def __init__(self, grouping, seed=0, tree=None, config=None, randomization_on=True):
        self.vec = VecLocomotionEnv(grouping, n_envs=1, seed=seed, tree=tree, config=config)
        self.vec.reset_all(randomization_on=randomization_on)

    def reset(self, randomization_on=None):
        obs, priv = self.vec.reset_all(randomization_on=randomization_on)
        return self.state, self.context

    @property
    def state(self) -> dyn.BatchState:
        """The live N = 1 simulator state."""
        return self.vec.state

    @property
    def context(self) -> EpisodeContext:
        return self.vec.context_of(0)

    def observe(self, noisy=True):
        return self.vec.observe(noisy=noisy)[0]

    def observe_privileged(self):
        return self.vec.observe_privileged()[0]

    def step(self, action):
        obs, priv, reward, done, info = self.vec.step(np.asarray(action)[None])
        scalar_info = {
            "terminated": bool(info["terminated"][0]),
            "truncated": bool(info["truncated"][0]),
            "reason": TERMINATION_REASONS[info["reasons"][0]],
            "breakdown": info["breakdown"],
            "kp": info["kp"][0],
            "push_force": info["push_force"][0],
        }
        return obs[0], priv[0], float(reward[0]), bool(done[0]), scalar_info


TRAJECTORY_COLUMNS = (
    ["time"]
    + [f"base_{c}" for c in ("x", "y", "z")]
    + [f"quat_{c}" for c in ("w", "x", "y", "z")]
    + [f"v_{c}" for c in ("x", "y", "z")]
    + [f"w_{c}" for c in ("x", "y", "z")]
    + [f"q_{j}" for j in range(12)]
    + [f"qd_{j}" for j in range(12)]
    + [f"tau_{j}" for j in range(12)]
    + [f"kp_{j}" for j in range(12)]
    + [f"kd_{j}" for j in range(12)]
    + [f"rew_{t}" for t in REWARD_TERMS]
    + ["rew_total"]
    + [f"contact_{leg}" for leg in ("FR", "FL", "RR", "RL")]
    + [f"push_{c}" for c in ("x", "y", "z")]
)


class TrajectoryLogger:
    """CSV log of one environment at control rate; action columns are added
    on first write since their width depends on the grouping."""

    def __init__(self, path, action_dim):
        self.path = path
        self.columns = TRAJECTORY_COLUMNS + [f"a_{k}" for k in range(action_dim)]
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(self.columns)

    def log(self, vec_env: VecLocomotionEnv, action, info, index=0):
        s = vec_env.state
        breakdown = info["breakdown"]
        i = index
        row = (
            [s.time[i]]
            + list(s.base_pos[i])
            + list(s.base_quat[i])
            + list(s.base_linvel[i])
            + list(s.base_angvel[i])
            + list(s.q[i])
            + list(s.qdot[i])
            + list(vec_env.last_tau[i])
            + list(info["kp"][i])
            + list(vec_env.gains.kd[i])
            + [breakdown.weighted[t][i] for t in REWARD_TERMS]
            + [breakdown.total[i]]
            + list(s.contact_flags[i].astype(int))
            + list(info["push_force"][i])
            + list(np.asarray(action)[i])
        )
        self._writer.writerow([repr(float(x)) if isinstance(x, (float, np.floating)) else x
                               for x in row])

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
