"""Velocity-command locomotion task for the variable-stiffness quadruped.

A vectorized environment steps N independent robots: PD/impedance torques at
500 Hz (10 substeps), policy actions at 50 Hz, per-episode domain
randomization, scheduled pushes, the 18-term reward stack, and the asymmetric
actor/critic observation pair, laid out once in ``OBS_BLOCKS`` and
``PRIV_BLOCKS``. Every per-row array is declared once, in ``row_layout``.
Every random number is a pure function of (seed, the row's stream, its draw
counter, slot) from the counter-based generator ``randomization.uniform``:
each draw site (reset, command refresh, observation noise) is one vectorised
call over the envs it serves and advances only their counters. A row's
stream is its env index unless a restore copied another's, so env i's
episode, commands, pushes and noise are the same in any batch that starts
from the same seed.
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
    ("active_push", 3, 0.01),
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
        if not (math.isfinite(self.episode_length_s) and self.episode_length_s >= self.control_dt):
            raise ValueError(f"episode_length_s must be finite and >= control_dt, got "
                             f"{self.episode_length_s}")
        resample = self.command_resample_s
        if not (math.isfinite(resample) and resample >= 0
                and abs(round(resample / self.control_dt) * self.control_dt - resample) <= 1e-9):
            raise ValueError(f"command_resample_s must be 0 or a whole number of control steps "
                             f"of {self.control_dt} s, got {resample}")
        if not self.push_interval_s > 0:
            raise ValueError(f"push_interval_s must be > 0, got {self.push_interval_s}")
        for name in ("push_jitter_s", "reset_joint_noise"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        ranges = self.command_ranges
        if sorted(ranges) != ["vx", "vy", "yaw_rate"]:
            raise ValueError(f"command_ranges must have the keys vx, vy and yaw_rate, "
                             f"got {sorted(ranges)}")
        for key, (lo, hi) in ranges.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"command_ranges[{key!r}] must be finite with lo <= hi, "
                                 f"got {(lo, hi)}")

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


def row_layout(tree: KinematicTree, action_dim, cfg: EnvConfig):
    """Every per-row array of a ``VecLocomotionEnv``, {name: (shape after the row
    axis, dtype)}, by which the env allocates, resets, steps and snapshots them."""
    nj, feet, slots, f = (tree.n_joints,), (len(tree.foot_body_indices),), cfg.max_pushes, float
    return {  # a dynamics.BatchState
        "base_pos": ((3,), f), "base_quat": ((4,), f), "base_linvel": ((3,), f),
        "base_angvel": ((3,), f), "q": (nj, f), "qdot": (nj, f), "time": ((), f),
        "contact_flags": (feet, bool), "contact_forces": (feet + (3,), f), "diverged": ((), bool),
        "cone_saturated": (feet, bool),
        # an actuation.GainState: the gains of the last step, or a reset's hold gains
        "kp": (nj, f), "kd": (nj, f), "q_target": (nj, f),
        # a dynamics.BatchParams
        "masses": ((tree.n_bodies,), f), "gravity": ((3,), f), "friction": ((), f),
        # the episode's draws
        "kp_scale": (nj, f), "kd_scale": (nj, f), "motor_strength": (nj, f),
        "mass_deltas": ((len(MASS_DELTA_BODIES),), f), "delay_substeps": ((), int),
        "command": ((3,), f), "push_start": ((slots,), f), "push_end": ((slots,), f),
        "push_force": ((slots, 3), f),
        # bookkeeping
        "prev_action": ((action_dim,), f), "air_time": (feet, f), "step_count": ((), int),
        "episode_return": ((), f), "last_tau": (nj, f), "active_push": ((3,), f),
        # the random stream: the draws made, and the stream they are keyed by
        "draws": ((), np.uint64), "stream": ((), int),
    }


def _view(cls, rows):
    """The dataclass cls over the arrays of rows that its fields name."""
    return cls(**{f.name: rows[f.name] for f in fields(cls)})


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

    rows holds the env's rows (``row_layout``; a foot lands when it touches
    the floor without contact_flags at the substep before), with the new
    gains as kp, kd and q_target and the previous ones as prev_kp, prev_kd
    and prev_q_target. The substeps step the state as one env-last engine
    state (``dynamics.step_batch``), converted once each way. out receives
    the engine state's arrays that it names: the new state's fields (q
    clamped to the joint limits) and the feet's world positions and
    velocities foot_pos and foot_vel (n, n_feet, 3); and air_time, the air
    time of the feet that touched down (touchdown_air), the last substep's
    torques (last_tau), the termination reason codes (reasons), the illegal
    contacts (n_collisions) and the centre of mass com (n, 3). A row's
    results depend on that row alone, so ``shards.run`` may split the rows.
    """
    dt = cfg.dt_physics
    st = dyn._kinematics(tree, _view(dyn.BatchState, rows))
    params, rand = _view(dyn.BatchParams, rows), _view(act.GainRandomization, rows)
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
    for key, a in out.items():
        if key in st:
            a[...] = st[key].T


class VecLocomotionEnv:
    """N parallel locomotion tasks over one robot model and one grouping.

    The env is configured once, at construction: its randomization comes from
    ``config.randomization`` (``randomization.IDENTITY_ROWS`` turns it off).
    Construction resets every env but does not observe: the first observations
    come from `observe()` and `observe_privileged()`, or from `reset_all()`,
    which resets every env in place. A finished env resets inside the `step`
    that ends it, which returns its first observations; `info["final_privileged"]`
    holds its last. Resets never rewind the draw counters, so a reset env's
    episode depends only on (seed, stream, draws).

    `rows` is the env's whole state, one array per entry of ``row_layout``;
    `state` and `params` view them as a ``BatchState`` and ``BatchParams``
    (a step replaces the arrays, so a view holds those of its time).
    `snapshot(idx)` copies rows and `restore(snapshot, idx)` writes them into
    rows of this env or of another of the same seed, grouping, tree and
    config, where they step as their source does.
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
        self.rows = {name: np.zeros((self.n,) + shape, dtype)
                     for name, (shape, dtype) in row_layout(self.tree, self.action_dim,
                                                            self.cfg).items()}
        self.rows["stream"][:] = np.arange(self.n)
        self._reset_envs(np.arange(self.n))

    state = property(lambda self: _view(dyn.BatchState, self.rows))
    params = property(lambda self: _view(dyn.BatchParams, self.rows))

    # ------------------------------------------------------------------
    # snapshots and resets

    def snapshot(self, idx=None):
        """Copies of every row array at the rows idx (every row if None)."""
        idx = np.arange(self.n) if idx is None else np.asarray(idx, dtype=int).reshape(-1)
        return {name: a[idx] for name, a in self.rows.items()}

    def restore(self, snapshot, idx=None):
        """Write a snapshot into the rows idx (every row if None): each of its
        arrays has one row per entry of idx, or one row for all of them. A
        missing or extra array, or one of the wrong shape or dtype, is refused
        by name, before anything is written."""
        idx = np.arange(self.n) if idx is None else np.asarray(idx, dtype=int).reshape(-1)
        for name in sorted(snapshot.keys() ^ self.rows.keys()):
            kind = "missing" if name in self.rows else "unknown"
            raise ValueError(f"snapshot row {name!r} is {kind}")
        for name, a in self.rows.items():
            got = np.asarray(snapshot[name])
            if got.shape[:1] not in ((1,), idx.shape) or (got.shape[1:], got.dtype) != (
                    a.shape[1:], a.dtype):
                raise ValueError(f"snapshot row {name!r} must be {a.dtype} ({idx.size} or 1, "
                                 f"*{a.shape[1:]}), got {got.dtype} {got.shape}")
        for name, a in self.rows.items():
            a[idx] = snapshot[name]

    def reset_all(self):
        """Reset every env in place, as configured at construction, and return
        its (obs, priv). The draw counters continue, so each new episode depends
        only on (seed, stream, draws). Construction resets alike but does not
        observe, so it draws no observation noise."""
        self._reset_envs(np.arange(self.n))
        return self.observe(), self.observe_privileged()

    def _reset_envs(self, idx):
        idx = np.asarray(idx, dtype=int)
        if idx.size == 0:
            return
        cfg, key, rows = self.cfg, self.key, self.rows
        for name, a in rows.items():
            if name not in ("draws", "stream"):
                a[idx] = 0
        stream, draw = rows["stream"][idx], rows["draws"][idx]
        rows["draws"][idx] += 4  # joint noise, episode, command, pushes
        noise = dr.uniform(key, stream, draw, 12)
        q = self.q_default + dr.between(-cfg.reset_joint_noise, cfg.reset_joint_noise, noise)
        ep = dr.sample_episode(cfg.randomization, key, stream, draw + 1)
        deltas = np.concatenate([ep["payload_mass"], ep["hip_mass"]], axis=1)
        params = dyn.BatchParams.from_tree(self.tree, idx.size)  # the tree's own rows
        params.masses[:, MASS_DELTA_BODIES] += deltas
        params.gravity[:, 2] += ep["gravity_offset"][:, 0]
        params.friction *= ep["ground_friction"][:, 0]
        delay = (ep["system_delay"][:, 0] / 1000.0 / cfg.dt_physics).astype(int)
        rows["delay_substeps"][idx] = np.minimum(delay, cfg.physics_substeps - 1)
        rows["mass_deltas"][idx] = deltas
        rows["command"][idx] = sample_command(key, stream, draw + 2, cfg.command_ranges)
        rows["push_start"][idx], rows["push_end"][idx], rows["push_force"][idx] = schedule_pushes(
            key, stream, draw + 3, cfg
        )
        # place each reset robot with its lowest foot exactly on the floor
        placed = dyn.standing_state(self.tree, q)
        hold = act.decode_action(
            self.grouping, np.zeros((idx.size, self.action_dim)), self.q_default, self.q_limits
        )
        for part in (params, _view(act.GainRandomization, ep), placed, hold):
            for name, a in vars(part).items():
                rows[name][idx] = a

    # ------------------------------------------------------------------
    # stepping

    def set_push_schedule(self, starts, durations, forces):
        """Replace every env's push schedule (evaluation protocols): starts and
        durations (s) broadcast to (n,), forces (N) to (n, 3); each finite,
        durations > 0. Each env keeps it until its next reset, which draws a
        training schedule from ``schedule_pushes``."""
        args = {}
        for name, value, shape in (("starts", starts, (self.n,)),
                                   ("durations", durations, (self.n,)),
                                   ("forces", forces, (self.n, 3))):
            try:
                args[name] = np.broadcast_to(np.asarray(value, dtype=float), shape)
            except ValueError:
                raise ValueError(f"{name} must broadcast to {shape}, got {value!r}") from None
            if not np.isfinite(args[name]).all():
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not np.all(args["durations"] > 0):
            raise ValueError(f"durations must be > 0, got {durations!r}")
        rows = self.rows
        rows["push_start"][:] = np.inf
        rows["push_end"][:] = np.inf
        rows["push_force"][:] = 0.0
        rows["push_start"][:, 0] = args["starts"]
        rows["push_end"][:, 0] = args["starts"] + args["durations"]
        rows["push_force"][:, 0] = args["forces"]

    def step(self, actions):
        cfg, rows, n = self.cfg, self.rows, self.n
        actions = np.clip(np.asarray(actions, dtype=float), -1.0, 1.0)
        if actions.shape != (n, self.action_dim):
            raise ValueError(f"actions must have shape {(n, self.action_dim)}")
        # decoded first: a rejected action leaves the env as it was
        new_gains = act.decode_action(self.grouping, actions, self.q_default, self.q_limits)
        every = round(cfg.command_resample_s / cfg.control_dt)  # whole steps (EnvConfig)
        if every:
            due = np.flatnonzero((rows["step_count"] > 0) & (rows["step_count"] % every == 0))
            rows["command"][due] = sample_command(
                self.key, rows["stream"][due], rows["draws"][due], cfg.command_ranges
            )
            rows["draws"][due] += 1

        # the previous gains are held for the first delay_substeps substeps
        prev_gains = {"prev_" + name: rows[name] for name in ("kp", "kd", "q_target")}
        rows.update(vars(new_gains))
        out = {key: np.empty_like(rows[key])
               for key in (*vars(self.state), "air_time", "last_tau")}
        feet = (n, len(self.tree.foot_body_indices), 3)
        out.update(touchdown_air=np.empty_like(rows["air_time"]), reasons=np.empty(n, dtype=int),
                   n_collisions=np.empty(n, dtype=int), com=np.empty((n, 3)),
                   foot_pos=np.empty(feet), foot_vel=np.empty(feet))
        shards.run(_physics, {**rows, **prev_gains}, out, self.tree, cfg)
        start_qdot = rows["qdot"]
        rows.update((key, out[key]) for key in out if key in rows)
        rows["active_push"] = _active_push(rows["push_start"], rows["push_end"],
                                           rows["push_force"], rows["time"])
        rows["step_count"] += 1

        reasons = out["reasons"]
        terminated = reasons != REASON_CODE["running"]
        truncated = (rows["step_count"] >= cfg.max_steps) & ~terminated

        breakdown = self._rewards(actions, new_gains, start_qdot, out, terminated)
        # a diverged state may be non-finite: its env earns nothing and resets
        diverged = rows["diverged"]
        for terms in (breakdown.terms, breakdown.weighted):
            for values in terms.values():
                values[diverged] = 0.0
        breakdown.total[diverged] = 0.0
        reward = breakdown.total
        rows["episode_return"] += reward
        rows["prev_action"][...] = actions

        done = terminated | truncated
        info = {
            "terminated": terminated,
            "truncated": truncated,
            "reasons": reasons,
            "breakdown": breakdown,
            "kp": new_gains.kp.copy(),  # the reset below writes the hold gains
            "push_force": rows["active_push"].copy(),
            "episode_return": np.where(done, rows["episode_return"], np.nan),
            "episode_length": np.where(done, rows["step_count"], 0),
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
        contact, saturated = self.rows["contact_flags"], self.rows["cone_saturated"]
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
        R0 = quat_to_matrix(self.rows["base_quat"])
        v_base = np.einsum("nji,nj->ni", R0, self.rows["base_linvel"])
        w_base = np.einsum("nji,nj->ni", R0, self.rows["base_angvel"])
        g_proj = -R0[:, 2, :]  # world (0,0,-1) expressed in the base frame
        return v_base, w_base, g_proj

    def _rewards(self, actions, gains, start_qdot, out, terminated):
        """The reward terms of a step from ``_physics``' outputs out, whose
        state started at joint rates start_qdot."""
        foot_pos, foot_vel = out["foot_pos"], out["foot_vel"]
        v_base, w_base, g_proj = self._base_frame()
        rows = self.rows
        qdot = rows["qdot"]
        inputs = RewardInputs(
            v_cmd_xy=rows["command"][:, :2],
            omega_cmd=rows["command"][:, 2],
            v_base=v_base,
            omega_base=w_base,
            proj_gravity=g_proj,
            touchdown_air_times=out["touchdown_air"],
            qddot=(qdot - start_qdot) / self.cfg.control_dt,
            tau=rows["last_tau"],
            qdot=qdot,
            action=actions,
            prev_action=rows["prev_action"],
            foot_heights=foot_pos[..., 2],
            foot_vel_xy=foot_vel[..., :2],
            foot_xy=foot_pos[..., :2],
            com_xy=out["com"][:, :2],
            q_target=gains.q_target,
            q_next=rows["q"],
            base_height=rows["base_pos"][:, 2],
            q_hip=rows["q"][:, HIP_JOINT_INDICES],
            q_hip_default=self.q_default[HIP_JOINT_INDICES],
            n_collisions=out["n_collisions"],
            terminated=terminated,
        )
        return compute_reward_terms(inputs, self.cfg.control_dt)

    def observe(self, noisy=True) -> np.ndarray:
        """Actor observation, in the blocks of ``observation_layouts``."""
        v_base, w_base, g_proj = self._base_frame()
        rows = self.rows
        blocks = {"command": rows["command"], "lin_vel": v_base, "ang_vel": w_base,
                  "gravity": g_proj, "joint_vel": rows["qdot"],
                  "joint_pos": rows["q"] - self.q_default, "prev_action": rows["prev_action"]}
        if noisy:
            noise = dr.sample_observation_noise(self.cfg.randomization, self.key,
                                                rows["stream"], rows["draws"])
            rows["draws"] += 1
            for name in blocks:
                if "noise_" + name in noise:
                    blocks[name] = blocks[name] + noise["noise_" + name]
        return np.concatenate([blocks[name] for name, _, _ in self.obs_layout], axis=1)

    def observe_privileged(self) -> np.ndarray:
        """Critic input: the rows named by ``PRIV_BLOCKS``, then the noiseless observation."""
        return np.concatenate([self.rows[name].reshape(self.n, width)
                               for name, width, _ in PRIV_BLOCKS]
                              + [self.observe(noisy=False)], axis=1)
