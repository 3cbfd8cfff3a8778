"""Action decoding and joint impedance control.

Raw policy actions in [-1, 1] become joint position targets plus per-joint
proportional gains under one of six stiffness groupings: the gains are the
dict ``{"kp", "kd", "q_target"}`` that ``decode_action`` returns. The damping
gain is always slaved to the stiffness (kd = 0.2 * sqrt(kp)), and the motor
torque is the spring-damper law about the target with zero desired velocity,
clamped to the joint torque limits.

Joint order is leg-major: (FR, FL, RR, RL) x (hip, thigh, knee).
"""

import numpy as np

N_JOINTS = 12
N_LEGS = 4
N_GROUPS = 3  # hip, thigh, knee

KP_MIN = 20.0
KP_MAX = 60.0
DAMPING_RATIO = 0.2  # kd = 0.2 * sqrt(kp)
POSITION_ACTION_SCALE = 0.5  # rad around the default pose

GROUPINGS = ("FixedP20", "FixedP50", "IJS", "PJS", "PLS", "HJLS")
_FIXED_KP = {"FixedP20": 20.0, "FixedP50": 50.0}
_STIFFNESS_DIMS = {"FixedP20": 0, "FixedP50": 0, "IJS": 12, "PJS": 3, "PLS": 4, "HJLS": 7}

# joint j belongs to leg j // 3 and group j % 3
_LEG_OF_JOINT = np.repeat(np.arange(N_LEGS), N_GROUPS)
_GROUP_OF_JOINT = np.tile(np.arange(N_GROUPS), N_LEGS)


def validate_grouping(grouping: str) -> str:
    if grouping not in GROUPINGS:
        raise ValueError(f"unknown grouping {grouping!r}; valid: {', '.join(GROUPINGS)}")
    return grouping


def action_dim(grouping: str) -> int:
    """Policy action dimensionality: 12 position targets plus the grouping's
    stiffness parameters (none for the fixed-gain baselines)."""
    validate_grouping(grouping)
    return N_JOINTS + _STIFFNESS_DIMS[grouping]


def damping_from_stiffness(kp):
    return DAMPING_RATIO * np.sqrt(kp)


def _affine_to_range(raw, lo, hi):
    return lo + (raw + 1.0) * 0.5 * (hi - lo)


def decode_action(grouping, action, q_default, position_limits=None):
    """Map a raw [-1, 1] action vector to the gains: per-joint stiffness kp,
    damping kd and position targets q_target.

    Position entries offset the default pose by +-0.5 rad (clamped to the
    joint limits when given). Stiffness entries map affinely onto
    [20, 60]; PJS broadcasts its 3 values across legs, PLS its 4 values
    across each leg's joints, and HJLS forms the rank-1 outer product of 4
    leg factors and 3 group factors, each factor living in
    [sqrt(20), sqrt(60)]. The HJLS products land in [20, 60] up to the
    rounding of the square roots: a full action gives 60.00000000000001 and
    -1 gives 20.000000000000004.
    """
    validate_grouping(grouping)
    action = np.asarray(action, dtype=float)
    expected = action_dim(grouping)
    if action.shape[-1] != expected:
        raise ValueError(
            f"action length {action.shape[-1]} does not match {grouping} "
            f"(expected {expected})"
        )
    if not np.all(np.isfinite(action)):
        raise ValueError("action contains non-finite entries")
    raw = np.clip(action, -1.0, 1.0)
    q_target = np.asarray(q_default, dtype=float) + POSITION_ACTION_SCALE * raw[..., :N_JOINTS]
    if position_limits is not None:
        q_target = np.clip(q_target, position_limits[0], position_limits[1])
    stiff = raw[..., N_JOINTS:]
    if grouping in _FIXED_KP:
        kp = np.full(q_target.shape, _FIXED_KP[grouping])
    elif grouping == "IJS":
        kp = _affine_to_range(stiff, KP_MIN, KP_MAX)
    elif grouping == "PJS":
        kp = _affine_to_range(stiff, KP_MIN, KP_MAX)[..., _GROUP_OF_JOINT]
    elif grouping == "PLS":
        kp = _affine_to_range(stiff, KP_MIN, KP_MAX)[..., _LEG_OF_JOINT]
    else:  # HJLS
        lo, hi = np.sqrt(KP_MIN), np.sqrt(KP_MAX)
        k_leg = _affine_to_range(stiff[..., :N_LEGS], lo, hi)
        k_group = _affine_to_range(stiff[..., N_LEGS:], lo, hi)
        kp = k_leg[..., _LEG_OF_JOINT] * k_group[..., _GROUP_OF_JOINT]
    return {"kp": kp, "kd": damping_from_stiffness(kp), "q_target": q_target}


def compute_torque_randomized(gains, q, qdot, rand, torque_limit):
    """The one torque law: tau = kp (q_target - q) - kd qdot of the gains
    (``decode_action``'s keys) with kp and kd scaled by the multiplicative
    actuator randomization rand["kp_scale"] and rand["kd_scale"] (ones for
    nominal gains), clamped to +-torque_limit (the tree's
    ``torque_limits``). rand["motor_strength"] multiplies the raw torque
    before the clamp, so the clamp still bounds the delivered torque."""
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    tau = (gains["kp"] * rand["kp_scale"] * (gains["q_target"] - q)
           - gains["kd"] * rand["kd_scale"] * qdot)
    tau = tau * rand["motor_strength"]
    return np.clip(tau, -np.asarray(torque_limit), np.asarray(torque_limit))
