"""Reward stack: 18 per-step terms aggregated as sum(r_i * w_i * dt).

The weights ``WEIGHTS`` are the paper's reward table, and the targets and
thresholds it leaves symbolic are the module constants below; both are
constants, the same for every grouping. The kernel is a pure function of a
RewardInputs record so every term can be hand-checked on constructed
transitions; the environment assembles the record from simulator state. All
vector "squares" are squared Euclidean norms, matching the printed reward
table.
"""

from dataclasses import dataclass

import numpy as np

REWARD_TERMS = (
    "lin_vel_tracking",
    "ang_vel_tracking",
    "lin_vel_z",
    "ang_vel_xy",
    "orientation",
    "feet_air_time",
    "joint_acc",
    "joint_power",
    "power_distribution",
    "foot_slip",
    "action_rate",
    "foot_clearance",
    "center_of_mass",
    "joint_tracking",
    "base_height",
    "hip",
    "collisions",
    "termination",
)

WEIGHTS = {
    "lin_vel_tracking": 1.5,
    "ang_vel_tracking": 0.8,
    "lin_vel_z": -2.0,
    "ang_vel_xy": -0.05,
    "orientation": -5.0,
    "feet_air_time": 0.2,
    "joint_acc": -2.5e-7,
    "joint_power": -2e-5,
    "power_distribution": -1e-5,
    "foot_slip": -0.1,
    "action_rate": -0.01,
    "foot_clearance": -0.1,
    "center_of_mass": -1.0,
    "joint_tracking": -0.1,
    "base_height": -0.6,
    "hip": 0.05,
    "collisions": -10.0,
    "termination": -10.0,
}

HIP_JOINT_INDICES = np.array([0, 3, 6, 9])

# the targets and thresholds the reward table leaves symbolic
BASE_HEIGHT_TARGET = 0.30  # m, trunk height
FOOT_CLEARANCE_TARGET = 0.08  # m, swing-foot height
AIR_TIME_OFFSET = 0.1  # s, subtracted from each touchdown's air time
COMMAND_DEADBAND = 0.1  # m/s, planar commands at or below it earn no air time
FOOT_CONTACT_HEIGHT = 0.01  # m, a foot below it slips when it moves


@dataclass
class RewardInputs:
    """Everything the 18 terms need, batched over a leading env axis."""

    v_cmd_xy: np.ndarray  # (N, 2)
    omega_cmd: np.ndarray  # (N,)
    v_base: np.ndarray  # (N, 3) base frame
    omega_base: np.ndarray  # (N, 3) base frame
    proj_gravity: np.ndarray  # (N, 3)
    touchdown_air_times: np.ndarray  # (N, 4) air time of feet landing this step
    qddot: np.ndarray  # (N, 12)
    tau: np.ndarray  # (N, 12)
    qdot: np.ndarray  # (N, 12)
    action: np.ndarray  # (N, adim)
    prev_action: np.ndarray
    foot_heights: np.ndarray  # (N, 4)
    foot_vel_xy: np.ndarray  # (N, 4, 2)
    foot_xy: np.ndarray  # (N, 4, 2)
    com_xy: np.ndarray  # (N, 2)
    q_target: np.ndarray  # (N, 12)
    q_next: np.ndarray  # (N, 12)
    base_height: np.ndarray  # (N,)
    q_hip: np.ndarray  # (N, 4)
    q_hip_default: np.ndarray  # (4,) or (N, 4)
    n_collisions: np.ndarray  # (N,)
    terminated: np.ndarray  # (N,) bool


@dataclass
class RewardBreakdown:
    terms: dict  # name -> (N,) unweighted r_i
    weighted: dict  # name -> (N,) w_i * r_i * dt
    total: np.ndarray  # (N,)


def compute_reward_terms(x: RewardInputs, dt: float) -> RewardBreakdown:
    r = {}
    lin_err = np.sum((x.v_cmd_xy - x.v_base[:, :2]) ** 2, axis=-1)
    r["lin_vel_tracking"] = np.exp(-4.0 * lin_err)
    r["ang_vel_tracking"] = np.exp(-4.0 * (x.omega_cmd - x.omega_base[:, 2]) ** 2)
    r["lin_vel_z"] = x.v_base[:, 2] ** 2
    r["ang_vel_xy"] = np.sum(x.omega_base[:, :2] ** 2, axis=-1)
    r["orientation"] = np.sum(x.proj_gravity[:, :2] ** 2, axis=-1)
    moving = np.linalg.norm(x.v_cmd_xy, axis=-1) > COMMAND_DEADBAND
    landed = x.touchdown_air_times > 0.0
    air = np.where(landed, x.touchdown_air_times - AIR_TIME_OFFSET, 0.0)
    r["feet_air_time"] = moving * np.sum(air, axis=-1)
    r["joint_acc"] = np.sum(x.qddot**2, axis=-1)
    power = np.abs(x.tau) * np.abs(x.qdot)
    r["joint_power"] = np.sum(power, axis=-1)
    r["power_distribution"] = np.var(power, axis=-1)
    slipping = x.foot_heights < FOOT_CONTACT_HEIGHT
    r["foot_slip"] = np.sum(np.sum(x.foot_vel_xy**2, axis=-1) * slipping, axis=-1)
    r["action_rate"] = np.sum((x.action - x.prev_action) ** 2, axis=-1)
    foot_speed = np.linalg.norm(x.foot_vel_xy, axis=-1)
    clearance = (FOOT_CLEARANCE_TARGET - x.foot_heights) ** 2
    r["foot_clearance"] = np.sum(clearance * foot_speed, axis=-1)
    centroid = np.mean(x.foot_xy, axis=1)
    r["center_of_mass"] = np.sum((x.com_xy - centroid) ** 2, axis=-1)
    r["joint_tracking"] = np.sum((x.q_target - x.q_next) ** 2, axis=-1)
    r["base_height"] = (BASE_HEIGHT_TARGET - x.base_height) ** 2
    hip_err = np.sum((x.q_hip - x.q_hip_default) ** 2, axis=-1)
    r["hip"] = np.exp(-4.0 * hip_err)
    r["collisions"] = np.asarray(x.n_collisions, dtype=float)
    r["termination"] = np.asarray(x.terminated, dtype=float)

    weighted = {t: r[t] * WEIGHTS[t] * dt for t in REWARD_TERMS}
    total = np.sum(np.stack([weighted[t] for t in REWARD_TERMS], axis=-1), axis=-1)
    return RewardBreakdown(terms=r, weighted=weighted, total=total)
