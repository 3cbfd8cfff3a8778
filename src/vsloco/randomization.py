"""Domain randomization: per-episode physical perturbations and per-step
observation noise, one row per entry of the randomization table.
``IDENTITY_ROWS`` puts every row at its operator's identity, which turns
randomization off: ``DomainRandomizationConfig(IDENTITY_ROWS)``.

Every random number comes from ``uniform``, a pure function of
(seed key, env index, draw counter, slot): a counter-based generator after
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC 2011). A
batch of envs draws in one vectorised call, and env i's numbers depend only
on the seed, i and how many draws env i has made, never on the rest of the
batch.
"""

import math
from dataclasses import dataclass, field

import numpy as np

N_JOINTS = 12

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _default_rows():
    # (low, high) supports; operators are fixed per row
    return {
        "payload_mass": (-1.0, 3.0),  # kg, additive on the trunk
        "hip_mass": (-0.5, 0.5),  # kg, additive on each hip
        "ground_friction": (0.3, 1.25),  # multiplicative
        "gravity_offset": (-1.0, 1.0),  # m/s^2, additive on g_z
        "noise_joint_pos": (-0.01, 0.01),  # rad, additive
        "noise_joint_vel": (-1.5, 1.5),  # rad/s, additive
        "noise_lin_vel": (-0.1, 0.1),  # m/s, additive
        "noise_ang_vel": (-0.2, 0.2),  # rad/s, additive
        "noise_gravity": (-0.05, 0.05),  # additive on the projected gravity
        "system_delay": (0.0, 15.0),  # ms, additive
        "kp_scale": (0.8, 1.3),  # multiplicative, per joint
        "kd_scale": (0.5, 1.5),  # multiplicative, per joint
        "motor_strength": (0.9, 1.1),  # multiplicative, per joint
    }


_MULTIPLICATIVE = ("ground_friction", "kp_scale", "kd_scale", "motor_strength")
# every row at its identity, 1 for a multiplicative row and 0 for an additive one
IDENTITY_ROWS = {row: (1.0, 1.0) if row in _MULTIPLICATIVE else (0.0, 0.0)
                 for row in _default_rows()}

# row -> width of one episode draw, in slot order
EPISODE_ROWS = {
    "payload_mass": 1,
    "hip_mass": 4,
    "ground_friction": 1,
    "gravity_offset": 1,
    "system_delay": 1,
    "kp_scale": N_JOINTS,
    "kd_scale": N_JOINTS,
    "motor_strength": N_JOINTS,
}
# row -> width of one observation-noise draw, in slot order
NOISE_ROWS = {
    "noise_joint_pos": N_JOINTS,
    "noise_joint_vel": N_JOINTS,
    "noise_lin_vel": 3,
    "noise_ang_vel": 3,
    "noise_gravity": 3,
}


@dataclass
class DomainRandomizationConfig:
    """The randomization table: the default rows, each overridden by the row of
    the same name in rows. A row is two finite bounds (lo, hi) with lo <= hi,
    and system_delay's lo is >= 0; a row that is not is refused by name."""

    rows: dict = field(default_factory=_default_rows)

    def __post_init__(self):
        merged = _default_rows()
        for name, bounds in self.rows.items():
            if name not in merged:
                raise ValueError(f"unknown randomization row {name!r}")
            try:
                lo, hi = map(float, bounds)
            except (TypeError, ValueError):
                raise ValueError(f"randomization row {name!r} must be two bounds (lo, hi), "
                                 f"got {bounds!r}") from None
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"randomization row {name!r} must be finite with lo <= hi, "
                                 f"got {bounds!r}")
            if name == "system_delay" and lo < 0.0:
                raise ValueError(f"randomization row 'system_delay' must have lo >= 0 ms, "
                                 f"got {bounds!r}")
            merged[name] = (lo, hi)
        self.rows = merged


def seed_key(seed) -> np.uint64:
    """The 64-bit key of every stream of one seed (any int SeedSequence takes)."""
    return np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]


def _mix(x):
    """splitmix64 finaliser: a bijection of uint64 whose every output bit
    depends on every input bit."""
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def uniform(key, env, counter, slots):
    """(m, slots) uniforms in [0, 1) for m envs: entry [r, s] is the top 53
    bits of a 64-bit hash of (key, env[r], counter[r], s)."""
    env = np.asarray(env, dtype=np.uint64).reshape(-1, 1)
    counter = np.asarray(counter, dtype=np.uint64).reshape(-1, 1)
    slot = np.arange(slots, dtype=np.uint64)
    h = _mix(_mix(key + env * _GOLDEN) + counter * _GOLDEN)
    h = _mix(h + slot * _GOLDEN)
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


def between(lo, hi, u):
    """Map uniforms u in [0, 1) onto [lo, hi)."""
    return lo + (hi - lo) * u


def _draw(cfg, widths, key, env, counter):
    """One draw per env split into rows: {row: (m, width)} between the row's bounds."""
    u = uniform(key, env, counter, sum(widths.values()))
    out, col = {}, 0
    for row, w in widths.items():
        out[row] = between(*cfg.rows[row], u[:, col:col + w])
        col += w
    return out


def sample_episode(cfg: DomainRandomizationConfig, key, env, counter):
    """One episode's physical parameters for each env: {row: (m, width)} with
    the widths of EPISODE_ROWS."""
    return _draw(cfg, EPISODE_ROWS, key, env, counter)


def sample_observation_noise(cfg: DomainRandomizationConfig, key, env, counter):
    """Per-step additive noise for the five noisy observation blocks of each
    env: {row: (m, width)} with the widths of NOISE_ROWS."""
    return _draw(cfg, NOISE_ROWS, key, env, counter)
