"""Velocity-command locomotion task for the variable-stiffness quadruped.

A vectorized environment steps N independent robots: PD/impedance torques at
500 Hz (10 substeps), policy actions at 50 Hz, per-episode domain
randomization, scheduled pushes, the 18-term reward stack, and the
asymmetric actor/critic observation pair. Every random number is a pure
function of (seed, env index, the env's draw counter, slot) from the
counter-based generator ``randomization.uniform``: each draw site (reset,
command refresh, observation noise) is one vectorised call over the envs it
serves and advances only their counters, so env i's episode, commands,
pushes and noise are the same in any batch that starts from the same seed.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import actuation as act
from . import dynamics as dyn
from . import randomization as dr
from .model import KinematicTree, build_quadruped
from .rewards import (
    HIP_JOINT_INDICES,
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
# bodies of the privileged mass-delta layout: trunk payload, then the hips
MASS_DELTA_BODIES = (TRUNK_BODY,) + HIP_BODY_INDICES


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

    @property
    def max_pushes(self):
        """Push slots per env: the most pushes schedule_pushes can place.
        Push k starts no earlier than k * interval - jitter, so k counts
        while that is inside the episode. At least one slot, which
        set_push_schedule writes."""
        last = math.ceil((self.episode_length_s + self.push_jitter_s) / self.push_interval_s)
        return max(1, last - 1)


def sample_command(key, env, counter, ranges) -> np.ndarray:
    """Velocity commands (vx, vy, yaw rate) for the envs ``env``, uniform over
    the training ranges: one draw each, (m, 3)."""
    lo, hi = np.array([ranges["vx"], ranges["vy"], ranges["yaw_rate"]], dtype=float).T
    return dr.between(lo, hi, dr.uniform(key, env, counter, 3))


def schedule_pushes(key, env, counter, cfg: EnvConfig):
    """Training push schedules for the envs ``env``, one draw each: push k
    starts at k * interval plus uniform jitter and is kept when it starts
    inside the episode; planar direction uniform, magnitude and impulse
    inside their supports. Returns start and end times (m, max_pushes), inf
    in unused slots, and forces (m, max_pushes, 3), zero in unused slots."""
    slots = cfg.max_pushes
    u = dr.uniform(key, env, counter, 4 * slots).reshape(-1, slots, 4)
    jitter = dr.between(-cfg.push_jitter_s, cfg.push_jitter_s, u[..., 0])
    start = np.arange(1, slots + 1) * cfg.push_interval_s + jitter
    magnitude = dr.between(*cfg.push_magnitude, u[..., 1])
    impulse = dr.between(*cfg.push_impulse, u[..., 2])
    azimuth = dr.between(0.0, 2.0 * np.pi, u[..., 3])
    placed = cfg.push_enabled & (start < cfg.episode_length_s)
    start = np.where(placed, start, np.inf)
    direction = np.stack([np.cos(azimuth), np.sin(azimuth), np.zeros_like(azimuth)], axis=-1)
    force = np.where(placed[..., None], magnitude[..., None] * direction, 0.0)
    return start, start + impulse / magnitude, force


class VecLocomotionEnv:
    """N parallel locomotion tasks over one robot model and one grouping."""

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
        self.action_dim = act.action_dim(grouping)
        self.obs_dim = 36 + self.action_dim
        self.priv_dim = 45 + self.obs_dim
        self.q_default = self.tree.default_pose
        self.q_limits = self.tree.position_limits
        self.torque_limit = self.tree.torque_limits
        # the tree's masses, gravity and friction, from which resets rebuild rows
        self.nominal_params = dyn.BatchParams.from_tree(self.tree, self.n)
        self.seed = int(seed)
        self.key = dr.seed_key(self.seed)
        self.env_ids = np.arange(self.n)
        self.draws = np.zeros(self.n, dtype=np.uint64)  # draws each env has made
        # trunk collision corners for the illegal-contact test
        trunk = self.tree.bodies[TRUNK_BODY]
        self._trunk_points = np.stack([off for off, _ in trunk.collision_spheres])
        hips = [self.tree.bodies[b].collision_spheres[0] for b in HIP_BODY_INDICES]
        self._hip_points = np.stack([center for center, _ in hips])
        self._hip_radius = np.array([radius for _, radius in hips])
        self.randomization_on = True
        self.auto_reset = True
        self.reset_all(randomization_on=True)

    def _next_draw(self, idx):
        """The counter of the next draw of each env in idx; advances them."""
        counter = self.draws[idx]
        self.draws[idx] += 1
        return counter

    # ------------------------------------------------------------------
    # resets

    def _alloc(self):
        n, adim, slots = self.n, self.action_dim, self.cfg.max_pushes
        self.params = dyn.BatchParams.from_tree(self.tree, n)
        self.command = np.zeros((n, 3))
        self.push_start = np.full((n, slots), np.inf)
        self.push_end = np.full((n, slots), np.inf)
        self.push_force = np.zeros((n, slots, 3))
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
        self.gains = act.decode_action(
            self.grouping, np.zeros((n, adim)), self.q_default, self.q_limits
        )
        self.last_tau = np.zeros((n, 12))
        self.active_push = np.zeros((n, 3))

    def reset_all(self, randomization_on=None):
        if randomization_on is not None:
            self.randomization_on = bool(randomization_on)
        self._alloc()
        self.state = None
        self._reset_envs(self.env_ids)
        return self.observe(), self.observe_privileged()

    def _reset_envs(self, idx):
        idx = np.asarray(idx, dtype=int)
        if idx.size == 0:
            return
        cfg, key = self.cfg, self.key
        noise = dr.uniform(key, idx, self._next_draw(idx), 12)
        q = self.q_default + dr.between(-cfg.reset_joint_noise, cfg.reset_joint_noise, noise)
        ep = dr.sample_episode(
            cfg.randomization, key, idx, self._next_draw(idx), enabled=self.randomization_on
        )
        self.mass_deltas[idx] = np.concatenate([ep["payload_mass"], ep["hip_mass"]], axis=1)
        nominal = self.nominal_params
        masses = nominal.masses[idx]
        masses[:, MASS_DELTA_BODIES] += self.mass_deltas[idx]
        self.params.masses[idx] = masses
        self.params.gravity[idx, 2] = nominal.gravity[idx, 2] + ep["gravity_offset"][:, 0]
        self.params.friction[idx] = nominal.friction[idx] * ep["ground_friction"][:, 0]
        delay = (ep["system_delay"][:, 0] / 1000.0 / cfg.dt_physics).astype(int)
        self.delay_substeps[idx] = np.minimum(delay, cfg.physics_substeps - 1)
        self.kp_scale[idx] = ep["kp_scale"]
        self.kd_scale[idx] = ep["kd_scale"]
        self.motor_strength[idx] = ep["motor_strength"]
        self.command[idx] = sample_command(key, idx, self._next_draw(idx), cfg.command_ranges)
        self.push_start[idx], self.push_end[idx], self.push_force[idx] = schedule_pushes(
            key, idx, self._next_draw(idx), cfg
        )
        if self.state is None:
            self.state = dyn.default_state(self.tree, np.zeros((self.n, 12)))
        # place each reset robot with its lowest foot exactly on the floor
        placed = dyn.standing_state(self.tree, q)
        for f in fields(dyn.BatchState):
            if f.name != "cache":
                getattr(self.state, f.name)[idx] = getattr(placed, f.name)
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

    # ------------------------------------------------------------------
    # stepping

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

    def _active_push(self, t):
        active = (self.push_start <= t[:, None]) & (t[:, None] < self.push_end)
        return np.einsum("nk,nki->ni", active.astype(float), self.push_force)

    def step(self, actions):
        cfg = self.cfg
        actions = np.clip(np.asarray(actions, dtype=float), -1.0, 1.0)
        if actions.shape != (self.n, self.action_dim):
            raise ValueError(f"actions must have shape {(self.n, self.action_dim)}")
        if cfg.command_resample_s > 0:
            t_now = self.step_count * cfg.control_dt
            due = np.flatnonzero((self.step_count > 0) & (
                np.abs(t_now / cfg.command_resample_s - np.round(t_now / cfg.command_resample_s))
                < 1e-9
            ))
            self.command[due] = sample_command(
                self.key, due, self._next_draw(due), cfg.command_ranges
            )

        prev_gains = self.gains  # held for the first delay_substeps substeps
        new_gains = act.decode_action(self.grouping, actions, self.q_default, self.q_limits)
        self.gains = new_gains

        touchdown_air = np.zeros((self.n, 4))
        state = self.state
        rand = act.GainRandomization(self.kp_scale, self.kd_scale, self.motor_strength)
        for sub in range(cfg.physics_substeps):
            use_new = (sub >= self.delay_substeps)[:, None]
            kp = np.where(use_new, new_gains.kp, prev_gains.kp)
            kd = np.where(use_new, new_gains.kd, prev_gains.kd)
            q_tgt = np.where(use_new, new_gains.q_target, prev_gains.q_target)
            eff = act.GainState(kp=kp, kd=kd, q_target=q_tgt)
            tau = act.compute_torque_randomized(
                eff, state.q, state.qdot, rand, torque_limit=self.torque_limit
            )
            state = dyn.step_batch(self.tree, state, tau, cfg.dt_physics,
                                   push=self._active_push(state.time), params=self.params)
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

    def _termination_reasons(self, limit_hit, n_collisions):
        fk = dyn._kinematics(self.tree, self.state)[0]
        reasons = np.zeros(self.n, dtype=int)
        g_proj_z = -fk["R"][:, TRUNK_BODY, 2, 2]  # base-frame z of world -z
        reasons[n_collisions > 0] = REASON_CODE["illegal_contact"]
        reasons[limit_hit] = REASON_CODE["joint_limit"]
        reasons[g_proj_z >= 0.0] = REASON_CODE["orientation"]
        reasons[self.state.diverged] = REASON_CODE["diverged"]
        return reasons

    def _collision_counts(self):
        fk = dyn._kinematics(self.tree, self.state)[0]
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
        fk, _, (foot_pos, foot_vel) = dyn._kinematics(self.tree, self.state)
        v_base, w_base, g_proj = self._base_frame()
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
        blocks = [v_base, w_base, g_proj, self.state.qdot, self.state.q - self.q_default]
        if noisy:
            noise = dr.sample_observation_noise(
                self.cfg.randomization, self.key, self.env_ids, self._next_draw(self.env_ids),
                enabled=self.randomization_on,
            )
            rows = ("noise_lin_vel", "noise_ang_vel", "noise_gravity", "noise_joint_vel",
                    "noise_joint_pos")
            blocks = [block + noise[row] for block, row in zip(blocks, rows)]
        return np.concatenate([self.command, *blocks, self.prev_action], axis=1)

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

