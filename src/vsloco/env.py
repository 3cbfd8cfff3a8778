"""Velocity-command locomotion task for the variable-stiffness quadruped.

A vectorized environment steps N independent robots: PD/impedance torques at
500 Hz (10 substeps), policy actions at 50 Hz, per-episode domain
randomization, scheduled pushes, the 18-term reward stack, and the asymmetric
actor/critic observation pair, laid out once in ``OBS_BLOCKS`` and
``PRIV_BLOCKS``. Every random number is a pure function of (seed, env index,
the env's draw counter, slot) from the counter-based generator
``randomization.uniform``: each draw site (reset, command refresh, observation
noise) is one vectorised call over the envs it serves and advances only their
counters, so env i's episode, commands, pushes and noise are the same in any
batch that starts from the same seed.
"""

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import actuation as act
from . import dynamics as dyn
from . import randomization as dr
from . import shards
from .model import KinematicTree, build_quadruped
from .rewards import HIP_JOINT_INDICES, REWARD_TERMS, RewardInputs, compute_reward_terms
from .rotations import quat_to_matrix

TERMINATION_REASONS = ("running", "orientation", "joint_limit", "illegal_contact", "diverged")
REASON_CODE = {name: i for i, name in enumerate(TERMINATION_REASONS)}

TRUNK_BODY = 0
HIP_BODY_INDICES = (1, 4, 7, 10)
# bodies of the privileged mass-delta layout: trunk payload, then the hips
MASS_DELTA_BODIES = (TRUNK_BODY,) + HIP_BODY_INDICES
# the longest physics substep (s) a config may ask for: at 0.1 s substeps
# every env ended on joint_limit or orientation within 3 control steps
MAX_DT_PHYSICS = 0.01
# the supports of a training push's force magnitude (N) and impulse (N s)
PUSH_MAGNITUDE = (50.0, 150.0)
PUSH_IMPULSE = (8.0, 15.0)

# The actor observation, block by block: (name, width, input scale). A block
# whose name with a "noise_" prefix is a randomization.NOISE_ROWS row gets that
# row's noise. The previous action, as wide as the grouping's action, closes it.
OBS_BLOCKS = (
    ("command", 3, (2.0, 2.0, 0.25)),  # vx, vy, yaw rate
    ("lin_vel", 3, 2.0),  # base frame
    ("ang_vel", 3, 0.25),  # base frame
    ("gravity", 3, 1.0),  # world -z in the base frame
    ("joint_vel", 12, 0.05),
    ("joint_pos", 12, 1.0),  # from the default pose
)
# The critic's context, block by block; the noiseless actor observation follows.
PRIV_BLOCKS = (
    ("kp_scale", 12, 1.0),
    ("kd_scale", 12, 1.0),
    ("motor_strength", 12, 1.0),
    ("friction", 1, 1.0),
    ("mass_deltas", len(MASS_DELTA_BODIES), 0.25),
    ("push_force", 3, 0.01),
)


def observation_layouts(grouping):
    """The actor and critic layouts of a grouping, (name, width, scale) blocks."""
    obs = OBS_BLOCKS + (("prev_action", act.action_dim(grouping), 1.0),)
    return obs, PRIV_BLOCKS + obs


def input_scales(grouping):
    """The float32 per-channel input scales (net conditioning) of the actor and the critic."""
    return tuple(np.concatenate([np.full(width, scale, dtype=np.float32)
                                 for _, width, scale in layout])
                 for layout in observation_layouts(grouping))


@dataclass
class EnvConfig:
    """The task's timing (s), commands, training pushes and randomization.

    Each control_dt is physics_substeps substeps; an episode truncates after
    episode_length_s. Commands are drawn at reset and every command_resample_s
    (whole control steps; 0 is off), uniform over command_ranges: vx and vy in
    m/s, yaw_rate in rad/s. With push_enabled, push k starts at
    k * push_interval_s plus a jitter of at most push_jitter_s, with force and
    impulse from ``PUSH_MAGNITUDE`` and ``PUSH_IMPULSE``. A reset adds up to
    reset_joint_noise (rad) to each joint of the default pose and draws its
    episode from randomization.
    """

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
    reset_joint_noise: float = 0.05
    randomization: dr.DomainRandomizationConfig = field(
        default_factory=dr.DomainRandomizationConfig
    )

    def __post_init__(self):
        substeps = self.physics_substeps
        if not self.control_dt > 0:
            raise ValueError(f"control_dt must be > 0, got {self.control_dt}")
        if not (isinstance(substeps, numbers.Integral) and substeps >= 1):
            raise ValueError(f"physics_substeps must be an integer >= 1, got {substeps!r}")
        if not self.dt_physics <= MAX_DT_PHYSICS:
            raise ValueError(f"dt_physics = control_dt / physics_substeps must be <= "
                             f"{MAX_DT_PHYSICS} s, got {self.dt_physics}")
        if not self.episode_length_s >= self.control_dt:
            raise ValueError(f"episode_length_s must be >= control_dt, got "
                             f"{self.episode_length_s}")
        resample = self.command_resample_s
        if not (math.isfinite(resample) and resample >= 0
                and abs(round(resample / self.control_dt) * self.control_dt - resample) <= 1e-9):
            raise ValueError(f"command_resample_s must be 0 or a whole number of control steps "
                             f"of {self.control_dt} s, got {resample}")
        if not self.push_interval_s > 0:
            raise ValueError(f"push_interval_s must be > 0, got {self.push_interval_s}")

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
    uniform over ``PUSH_MAGNITUDE`` and ``PUSH_IMPULSE``. Returns start and
    end times (m, max_pushes), inf in unused slots, and forces
    (m, max_pushes, 3), zero in unused slots."""
    slots = cfg.max_pushes
    u = dr.uniform(key, env, counter, 4 * slots).reshape(-1, slots, 4)
    jitter = dr.between(-cfg.push_jitter_s, cfg.push_jitter_s, u[..., 0])
    start = np.arange(1, slots + 1) * cfg.push_interval_s + jitter
    magnitude = dr.between(*PUSH_MAGNITUDE, u[..., 1])
    impulse = dr.between(*PUSH_IMPULSE, u[..., 2])
    azimuth = dr.between(0.0, 2.0 * np.pi, u[..., 3])
    placed = cfg.push_enabled & (start < cfg.episode_length_s)
    start = np.where(placed, start, np.inf)
    direction = np.stack([np.cos(azimuth), np.sin(azimuth), np.zeros_like(azimuth)], axis=-1)
    force = np.where(placed[..., None], magnitude[..., None] * direction, 0.0)
    return start, start + impulse / magnitude, force


# the state fields that env.step's physics loop reads and writes (all of a
# BatchState's), and the env's own per-row arrays it reads (see _physics)
_STATE_IN = ("base_pos", "base_quat", "base_linvel", "base_angvel", "q", "qdot", "time",
             "contact_flags", "diverged")
_STATE_OUT = tuple(f.name for f in fields(dyn.BatchState))
_ENV_IN = ("delay_substeps", "kp_scale", "kd_scale", "motor_strength", "push_start", "push_end",
           "push_force", "air_time")


def _active_push(start, end, force, t):
    """The push force (m, 3) at times t (m,) of push schedules (m, slots)."""
    active = (start <= t[:, None]) & (t[:, None] < end)
    return np.einsum("nk,nki->ni", active.astype(float), force)


def _collision_counts(tree, kin):
    """Illegal contacts per env (n,) from env-last kinematics ``kin``: 1 when
    a trunk corner is at or below the floor, plus 1 per hip sphere that
    touches it."""
    R, hips = kin["R"], list(HIP_BODY_INDICES)
    trunk_points = np.stack([off for off, _ in tree.bodies[TRUNK_BODY].collision_spheres])
    hip_points, hip_radius = map(np.array, zip(*(tree.bodies[b].collision_spheres[0]
                                                  for b in hips)))

    def world_z(body, points):  # (P, n) world heights of body-frame points (P, 3)
        return sum(R[2, j, body] * points[:, j, None] for j in range(3))

    trunk_z = kin["base_pos"][2] + world_z(TRUNK_BODY, trunk_points)
    trunk_hit = np.any(trunk_z <= 0.0, axis=0)
    hip_z = kin["p"][2, hips] + world_z(hips, hip_points)
    hip_hits = (hip_z - hip_radius[:, None]) <= 0.0
    return trunk_hit.astype(int) + hip_hits.sum(axis=0)


def _physics(rows, out, tree, cfg):
    """``VecLocomotionEnv.step``'s per-row work over the rows of a batch:
    cfg.physics_substeps substeps of the torque law at the gains of each row
    (the previous ones for its first delay_substeps substeps), its push and
    ``step_batch``, with the feet's air time and touchdowns; then the joint
    clamp and the termination and collision tests at the clamped pose.

    rows holds the env-first arrays of the state (``_STATE_IN``; a foot
    lands when it touches the floor without contact_flags at the substep
    before), the previous and the new gains (prev_kp, ..., kp, kd,
    q_target), the env's own arrays (``_ENV_IN``) and the masses, gravity
    and friction; the substeps step them as one env-last engine state
    (``dynamics.step_batch``), converted once each way. out receives the
    new state's fields (``_STATE_OUT``, q clamped to the joint limits),
    air_time, the air time of the feet that touched down (touchdown_air),
    the last substep's torques (last_tau), the termination reason codes
    (reasons), the illegal contacts (n_collisions), the centre of mass com
    (n, 3), and the feet's world positions and velocities foot_pos and
    foot_vel (n, n_feet, 3). A row's results depend on that row alone, so
    ``shards.run`` may split the rows.
    """
    dt = cfg.dt_physics
    st = dyn._kinematics(tree, dyn.BatchState(**{key: rows[key] for key in _STATE_IN}))
    params = dyn.BatchParams(rows["masses"], rows["gravity"], rows["friction"])
    rand = act.GainRandomization(rows["kp_scale"], rows["kd_scale"], rows["motor_strength"])
    torque_limit = tree.torque_limits
    air_time, touchdown_air, contact = out["air_time"], out["touchdown_air"], rows["contact_flags"]
    air_time[...] = rows["air_time"]
    touchdown_air[...] = 0.0
    for sub in range(cfg.physics_substeps):
        use_new = (sub >= rows["delay_substeps"])[:, None]
        eff = act.GainState(**{key: np.where(use_new, rows[key], rows["prev_" + key])
                               for key in ("kp", "kd", "q_target")})
        tau = act.compute_torque_randomized(eff, st["q"].T, st["qdot"].T, rand, torque_limit)
        push = _active_push(rows["push_start"], rows["push_end"], rows["push_force"], st["time"])
        st = dyn.step_batch(tree, st, tau, dt, push=push, params=params)
        landing = st["contact_flags"].T & ~contact
        contact = st["contact_flags"].T
        air_time[~contact] += dt
        touchdown_air[landing] += air_time[landing]
        air_time[contact] = 0.0
    out["last_tau"][...] = tau

    # joint limits: violation terminates, state is stored clamped, and the
    # kinematics are those of the clamped pose (recomputed if the clip moved q)
    q = st["q"]
    lo, hi = (b[:, None] for b in tree.position_limits)
    limit_hit = np.any((q < lo - 1e-9) | (q > hi + 1e-9), axis=0)
    clipped = np.any((q < lo) | (q > hi))
    np.clip(q, lo, hi, out=q)
    if clipped:
        dyn._fill_kinematics(tree, st)
    out["n_collisions"][...] = n_collisions = _collision_counts(tree, st)

    # each later test overrides the earlier ones, so the precedence is
    # diverged > orientation > joint_limit > illegal_contact
    reasons = out["reasons"]
    reasons[...] = REASON_CODE["running"]
    reasons[n_collisions > 0] = REASON_CODE["illegal_contact"]
    reasons[limit_hit] = REASON_CODE["joint_limit"]
    reasons[-st["R"][2, 2, TRUNK_BODY] >= 0.0] = REASON_CODE["orientation"]  # base z of world -z
    reasons[st["diverged"]] = REASON_CODE["diverged"]

    masses = rows["masses"]  # the einsum reads a C copy: on the transpose it rounds differently
    np.divide(np.einsum("nb,nbi->ni", masses, st["c"].T.copy()),
              masses.sum(axis=1, keepdims=True), out=out["com"])
    for key in _STATE_OUT + ("foot_pos", "foot_vel"):
        out[key][...] = st[key].T


class VecLocomotionEnv:
    """N parallel locomotion tasks over one robot model and one grouping.

    The env is configured once, at construction: its randomization comes from
    ``config.randomization`` (``randomization.IDENTITY_ROWS`` turns it off).
    Construction resets every env but does not observe: the first observations
    come from `observe()` and `observe_privileged()`, or from `reset_all()`,
    which resets every env in place. A finished env resets inside the `step`
    that ends it, which returns its first observations; `info["final_privileged"]`
    holds its last. Resets never rewind the draw counters, so a reset env's
    episode depends only on (seed, env index, draws).
    """

    def __init__(
        self,
        grouping: str,
        n_envs: int = 1,
        seed: int = 0,
        tree: KinematicTree = None,
        config: EnvConfig = None,
    ):
        self.grouping = act.validate_grouping(grouping)
        for name, value, least in (("n_envs", n_envs, 1), ("seed", seed, 0)):
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        self.n = int(n_envs)
        self.cfg = config or EnvConfig()
        self.tree = tree or build_quadruped()
        self.action_dim = act.action_dim(grouping)
        self.obs_layout = observation_layouts(grouping)[0]
        self.obs_dim, self.priv_dim = map(len, input_scales(grouping))
        self.q_default = self.tree.default_pose
        self.q_limits = self.tree.position_limits
        self.seed = int(seed)
        self.key = dr.seed_key(self.seed)
        self.env_ids = np.arange(self.n)
        self.draws = np.zeros(self.n, dtype=np.uint64)  # draws each env has made
        n, adim, slots = self.n, self.action_dim, self.cfg.max_pushes
        # every per-row array, filled by the reset below
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
        self.air_time = np.zeros((n, 4))
        self.step_count = np.zeros(n, dtype=int)
        self.episode_return = np.zeros(n)
        self.gains = act.decode_action(
            self.grouping, np.zeros((n, adim)), self.q_default, self.q_limits
        )
        self.last_tau = np.zeros((n, 12))
        self.active_push = np.zeros((n, 3))
        self.state = dyn.default_state(self.tree, np.zeros((n, 12)))
        self._reset_envs(self.env_ids)

    def _next_draw(self, idx):
        """The counter of the next draw of each env in idx; advances them."""
        counter = self.draws[idx]
        self.draws[idx] += 1
        return counter

    # ------------------------------------------------------------------
    # resets

    def reset_all(self):
        """Reset every env in place, as configured at construction, and return
        its (obs, priv). The draw counters continue, so each new episode depends
        only on (seed, env index, draws). Construction resets alike but does not
        observe, so it draws no observation noise."""
        self._reset_envs(self.env_ids)
        return self.observe(), self.observe_privileged()

    def _reset_envs(self, idx):
        idx = np.asarray(idx, dtype=int)
        if idx.size == 0:
            return
        cfg, key = self.cfg, self.key
        noise = dr.uniform(key, idx, self._next_draw(idx), 12)
        q = self.q_default + dr.between(-cfg.reset_joint_noise, cfg.reset_joint_noise, noise)
        ep = dr.sample_episode(cfg.randomization, key, idx, self._next_draw(idx))
        self.mass_deltas[idx] = np.concatenate([ep["payload_mass"], ep["hip_mass"]], axis=1)
        nominal = dyn.BatchParams.from_tree(self.tree, idx.size)  # the tree's own rows
        nominal.masses[:, MASS_DELTA_BODIES] += self.mass_deltas[idx]
        self.params.masses[idx] = nominal.masses
        self.params.gravity[idx, 2] = nominal.gravity[:, 2] + ep["gravity_offset"][:, 0]
        self.params.friction[idx] = nominal.friction * ep["ground_friction"][:, 0]
        delay = (ep["system_delay"][:, 0] / 1000.0 / cfg.dt_physics).astype(int)
        self.delay_substeps[idx] = np.minimum(delay, cfg.physics_substeps - 1)
        self.kp_scale[idx] = ep["kp_scale"]
        self.kd_scale[idx] = ep["kd_scale"]
        self.motor_strength[idx] = ep["motor_strength"]
        self.command[idx] = sample_command(key, idx, self._next_draw(idx), cfg.command_ranges)
        self.push_start[idx], self.push_end[idx], self.push_force[idx] = schedule_pushes(
            key, idx, self._next_draw(idx), cfg
        )
        # place each reset robot with its lowest foot exactly on the floor
        placed = dyn.standing_state(self.tree, q)
        for f in fields(dyn.BatchState):
            getattr(self.state, f.name)[idx] = getattr(placed, f.name)
        self.prev_action[idx] = 0.0
        self.air_time[idx] = 0.0
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
        """Replace every env's push schedule (evaluation protocols). Each env
        keeps it until its next reset, which draws a training schedule from
        ``schedule_pushes``."""
        self.push_start[:] = np.inf
        self.push_end[:] = np.inf
        self.push_force[:] = 0.0
        starts = np.asarray(starts, dtype=float)
        durations = np.asarray(durations, dtype=float)
        forces = np.asarray(forces, dtype=float)
        self.push_start[:, 0] = starts
        self.push_end[:, 0] = starts + durations
        self.push_force[:, 0] = forces

    def _physics_arrays(self, prev_gains, new_gains):
        """The rows and outputs of ``_physics`` for a step from the previous
        to the new gains."""
        s, n = self.state, self.n
        rows = {key: getattr(s, key) for key in _STATE_IN}
        for gains, prefix in ((prev_gains, "prev_"), (new_gains, "")):
            rows.update({prefix + f.name: getattr(gains, f.name) for f in fields(gains)})
        rows.update({key: getattr(self, key) for key in _ENV_IN})
        rows.update(masses=self.params.masses, gravity=self.params.gravity,
                    friction=self.params.friction)
        out = {key: np.empty_like(getattr(s, key)) for key in _STATE_OUT}
        out.update({key: np.empty_like(getattr(self, key))
                    for key in ("air_time", "last_tau")})
        feet = (n, len(self.tree.foot_body_indices), 3)
        out.update(touchdown_air=np.empty_like(self.air_time), reasons=np.empty(n, dtype=int),
                   n_collisions=np.empty(n, dtype=int), com=np.empty((n, 3)),
                   foot_pos=np.empty(feet), foot_vel=np.empty(feet))
        return rows, out

    def step(self, actions):
        cfg = self.cfg
        actions = np.clip(np.asarray(actions, dtype=float), -1.0, 1.0)
        if actions.shape != (self.n, self.action_dim):
            raise ValueError(f"actions must have shape {(self.n, self.action_dim)}")
        # decoded first: a rejected action leaves the env as it was
        new_gains = act.decode_action(self.grouping, actions, self.q_default, self.q_limits)
        every = round(cfg.command_resample_s / cfg.control_dt)  # whole steps (EnvConfig)
        if every:
            due = np.flatnonzero((self.step_count > 0) & (self.step_count % every == 0))
            self.command[due] = sample_command(
                self.key, due, self._next_draw(due), cfg.command_ranges
            )

        prev_gains = self.gains  # held for the first delay_substeps substeps
        self.gains = new_gains

        rows, out = self._physics_arrays(prev_gains, new_gains)
        shards.run(_physics, rows, out, self.tree, cfg)
        start_qdot = self.state.qdot
        state = self.state = dyn.BatchState(**{key: out[key] for key in _STATE_OUT})
        self.air_time, self.last_tau = out["air_time"], out["last_tau"]
        self.active_push = _active_push(self.push_start, self.push_end, self.push_force,
                                        state.time)
        self.step_count += 1

        reasons = out["reasons"]
        terminated = reasons != REASON_CODE["running"]
        truncated = (self.step_count >= cfg.max_steps) & ~terminated

        breakdown = self._rewards(actions, new_gains, start_qdot, out, terminated)
        # a diverged state may be non-finite: its env earns nothing and resets
        for terms in (breakdown.terms, breakdown.weighted):
            for values in terms.values():
                values[state.diverged] = 0.0
        breakdown.total[state.diverged] = 0.0
        reward = breakdown.total
        self.episode_return += reward
        self.prev_action = actions.copy()

        done = terminated | truncated
        info = {
            "terminated": terminated,
            "truncated": truncated,
            "reasons": reasons,
            "breakdown": breakdown,
            "kp": new_gains.kp.copy(),  # the reset below writes the hold gains
            "push_force": self.active_push.copy(),
            "episode_return": np.where(done, self.episode_return, np.nan),
            "episode_length": np.where(done, self.step_count, 0),
        }
        if np.any(done):
            info["final_privileged"] = self.observe_privileged()
            self._reset_envs(np.flatnonzero(done))
        obs = self.observe()
        priv = self.observe_privileged()
        return obs, priv, reward, done, info

    def step_metrics(self, info):
        """The training log's columns of the step that returned info, as
        {column: (numerator, denominator)} to sum over a rollout: mean kp by joint
        group, mean weighted reward terms, terminations per env-step in all and by
        reason, and the shares of feet in contact and with a saturated friction
        cone in the states the step returned (a reset env's first)."""
        kp, weighted, n = info["kp"], info["breakdown"].weighted, self.n
        ends = np.bincount(info["reasons"], minlength=len(TERMINATION_REASONS))[1:]
        contact, saturated = self.state.contact_flags, self.state.cone_saturated
        return {**{f"mean_kp_{joint}": (kp[:, k::3].mean(), 1)
                   for k, joint in enumerate(("hip", "thigh", "knee"))},
                **{f"rew_{term}": (weighted[term].mean(), 1) for term in REWARD_TERMS},
                "terminations_per_env_step": (ends.sum(), n),
                **{f"term_{reason}_per_env_step": (count, n)
                   for reason, count in zip(TERMINATION_REASONS[1:], ends)},
                "contact_frac": (contact.sum(), contact.size),
                "cone_saturated_frac": (saturated.sum(), contact.size)}

    # ------------------------------------------------------------------
    # rewards and observations

    def _base_frame(self):
        R0 = quat_to_matrix(self.state.base_quat)
        v_base = np.einsum("nji,nj->ni", R0, self.state.base_linvel)
        w_base = np.einsum("nji,nj->ni", R0, self.state.base_angvel)
        g_proj = -R0[:, 2, :]  # world (0,0,-1) expressed in the base frame
        return v_base, w_base, g_proj

    def _rewards(self, actions, gains, start_qdot, out, terminated):
        """The reward terms of a step from ``_physics``' outputs out, whose
        state started at joint rates start_qdot."""
        foot_pos, foot_vel = out["foot_pos"], out["foot_vel"]
        v_base, w_base, g_proj = self._base_frame()
        qdot = self.state.qdot
        inputs = RewardInputs(
            v_cmd_xy=self.command[:, :2],
            omega_cmd=self.command[:, 2],
            v_base=v_base,
            omega_base=w_base,
            proj_gravity=g_proj,
            touchdown_air_times=out["touchdown_air"],
            qddot=(qdot - start_qdot) / self.cfg.control_dt,
            tau=self.last_tau,
            qdot=qdot,
            action=actions,
            prev_action=self.prev_action,
            foot_heights=foot_pos[..., 2],
            foot_vel_xy=foot_vel[..., :2],
            foot_xy=foot_pos[..., :2],
            com_xy=out["com"][:, :2],
            q_target=gains.q_target,
            q_next=self.state.q,
            base_height=self.state.base_pos[:, 2],
            q_hip=self.state.q[:, HIP_JOINT_INDICES],
            q_hip_default=self.q_default[HIP_JOINT_INDICES],
            n_collisions=out["n_collisions"],
            terminated=terminated,
        )
        return compute_reward_terms(inputs, self.cfg.control_dt)

    def observe(self, noisy=True) -> np.ndarray:
        """Actor observation, in the blocks of ``observation_layouts``."""
        v_base, w_base, g_proj = self._base_frame()
        blocks = {"command": self.command, "lin_vel": v_base, "ang_vel": w_base,
                  "gravity": g_proj, "joint_vel": self.state.qdot,
                  "joint_pos": self.state.q - self.q_default, "prev_action": self.prev_action}
        if noisy:
            noise = dr.sample_observation_noise(
                self.cfg.randomization, self.key, self.env_ids, self._next_draw(self.env_ids)
            )
            for name in blocks:
                if "noise_" + name in noise:
                    blocks[name] = blocks[name] + noise["noise_" + name]
        return np.concatenate([blocks[name] for name, _, _ in self.obs_layout], axis=1)

    def observe_privileged(self) -> np.ndarray:
        """Critic input: the blocks of ``PRIV_BLOCKS``, then the noiseless observation."""
        blocks = {"kp_scale": self.kp_scale, "kd_scale": self.kd_scale,
                  "motor_strength": self.motor_strength, "friction": self.params.friction[:, None],
                  "mass_deltas": self.mass_deltas, "push_force": self.active_push}
        return np.concatenate([blocks[name] for name, _, _ in PRIV_BLOCKS]
                              + [self.observe(noisy=False)], axis=1)
