"""Floating-base articulated rigid-body dynamics with penalty ground contact.

The engine is batched: every quantity carries a leading environment axis N,
and ``BatchState`` is the only state type; a single simulation is a state
with N = 1. The checked entry points at the end of the module (``step``,
``forward_dynamics``, ``contact_forces``, ...) validate their inputs and take
a state of any N; ``step_batch`` is the unchecked hot path. Generalized
velocity layout is [base linear (world), base angular (world), joint rates]
for floating trees and [joint rates] for fixed-base trees. Mass matrix and
bias forces are assembled from per-body Jacobians (world frame, about each
body com), which keeps the whole thing a short chain of einsums over
(N, B, ...) arrays.

Integration is semi-implicit Euler: velocities from forward dynamics, then
positions from the new velocities, base orientation via the quaternion
exponential map.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .model import CompiledTree, KinematicTree
from .rotations import (
    IDENTITY_QUAT,
    quat_exp,
    quat_mul,
    quat_normalize,
    quat_to_matrix,
    rotation_about_axis,
    skew,
)

GRAVITY_DIR = np.array([0.0, 0.0, -1.0])
DIVERGENCE_SPEED = 1.0e4
MAX_DT = 0.01


def _cross(a, b):
    """Component-wise cross product; avoids np.cross's axis plumbing."""
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = ay * bz - az * by
    out[..., 1] = az * bx - ax * bz
    out[..., 2] = ax * by - ay * bx
    return out


@dataclass
class BatchState:
    """Structure-of-arrays state for N parallel simulations."""

    base_pos: np.ndarray  # (N, 3)
    base_quat: np.ndarray  # (N, 4)
    base_linvel: np.ndarray
    base_angvel: np.ndarray
    q: np.ndarray  # (N, nj)
    qdot: np.ndarray
    time: np.ndarray  # (N,)
    contact_flags: np.ndarray = None  # (N, n_feet)
    contact_forces: np.ndarray = None  # (N, n_feet, 3)
    diverged: np.ndarray = None  # (N,)
    # (fk, vel) of the fields above, set and read by step_batch: reset it to
    # None after writing a field in place (the checked entry points ignore it)
    cache: tuple = field(default=None, repr=False, compare=False)

    @property
    def n(self):
        return self.q.shape[0]


@dataclass
class BatchParams:
    """Per-environment physical parameters (domain randomization hooks)."""

    masses: np.ndarray  # (N, B)
    gravity: np.ndarray  # (N, 3) world gravity acceleration vector
    friction: np.ndarray  # (N,)

    @staticmethod
    def from_tree(ct: CompiledTree, n: int) -> "BatchParams":
        mu = float(ct.tree.contact.get("friction", 1.0)) if ct.tree.contact else 1.0
        return BatchParams(
            masses=np.repeat(ct.mass[None], n, axis=0),
            gravity=np.repeat((GRAVITY_DIR * ct.tree.gravity)[None], n, axis=0),
            friction=np.full(n, mu),
        )


def _require_finite(name, arr):
    arr = np.asarray(arr)
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"non-finite value in {name} at index {tuple(bad)}")


# ---------------------------------------------------------------------------
# kinematic passes


def _fk(ct: CompiledTree, bs: BatchState):
    """World rotations/origins/coms of every body, world joint axes/origins.

    Recursions run level-by-level so all bodies at one tree depth (e.g. the
    four hips) are processed in a single vectorized operation.
    """
    N, B, nj = bs.n, ct.n_bodies, ct.n_joints
    R = np.empty((N, B, 3, 3))
    p = np.empty((N, B, 3))
    a_w = np.empty((N, nj, 3))
    o_w = np.empty((N, nj, 3))
    if ct.floating:
        R[:, 0] = quat_to_matrix(bs.base_quat)
        p[:, 0] = bs.base_pos
    for bodies, joints, parents in ct.levels:
        Rj = rotation_about_axis(
            ct.axis_skew[joints], ct.axis_skew_sq[joints], bs.q[:, joints]
        )  # (N, L, 3, 3)
        rooted = parents < 0
        if np.all(rooted):
            o_w[:, joints] = ct.joint_origin[joints]
            a_w[:, joints] = ct.joint_axis[joints]
            R[:, bodies] = Rj
        else:
            Rp = R[:, parents]
            o_w[:, joints] = p[:, parents] + (Rp @ ct.joint_origin[joints][..., None])[..., 0]
            a_w[:, joints] = (Rp @ ct.joint_axis[joints][..., None])[..., 0]
            R[:, bodies] = Rp @ Rj
        p[:, bodies] = o_w[:, joints]
    c = p + (R @ ct.com[..., None])[..., 0]
    return {"R": R, "p": p, "c": c, "a_w": a_w, "o_w": o_w}


def _velocities(ct: CompiledTree, bs: BatchState, fk):
    """Body angular velocities and com/origin linear velocities (world)."""
    N, B = bs.n, ct.n_bodies
    w = np.empty((N, B, 3))
    v_o = np.empty((N, B, 3))
    if ct.floating:
        w[:, 0] = bs.base_angvel
        v_o[:, 0] = bs.base_linvel
    p = fk["p"]
    for bodies, joints, parents in ct.levels:
        if np.all(parents < 0):
            w_p = 0.0
            v_p = 0.0
        else:
            w_p = w[:, parents]
            v_p = v_o[:, parents] + _cross(w_p, p[:, bodies] - p[:, parents])
        w[:, bodies] = w_p + fk["a_w"][:, joints] * bs.qdot[:, joints, None]
        v_o[:, bodies] = v_p
    v_c = v_o + _cross(w, fk["c"] - p)
    return {"w": w, "v_o": v_o, "v_c": v_c}


def _bias_accelerations(ct: CompiledTree, bs: BatchState, fk, vel):
    """Com and angular accelerations at zero generalized acceleration."""
    N, B = bs.n, ct.n_bodies
    alpha = np.zeros((N, B, 3))
    a_o = np.zeros((N, B, 3))
    p, w = fk["p"], vel["w"]
    for bodies, joints, parents in ct.levels:
        if np.all(parents < 0):
            w_p = np.zeros((N, len(bodies), 3))
            al_p = 0.0
        else:
            dp = p[:, bodies] - p[:, parents]
            w_p, al_p = w[:, parents], alpha[:, parents]
            a_o[:, bodies] = (
                a_o[:, parents] + _cross(al_p, dp) + _cross(w_p, _cross(w_p, dp))
            )
        alpha[:, bodies] = al_p + bs.qdot[:, joints, None] * _cross(w_p, fk["a_w"][:, joints])
    rc = fk["c"] - p
    a_c = a_o + _cross(alpha, rc) + _cross(w, _cross(w, rc))
    return {"alpha": alpha, "a_c": a_c}


def _jacobians(ct: CompiledTree, bs: BatchState, fk):
    """World-frame com Jacobians J_v, J_w of shape (N, B, 3, nv)."""
    N, B, nj, nv = bs.n, ct.n_bodies, ct.n_joints, ct.nv
    J_v = np.zeros((N, B, 3, nv))
    J_w = np.zeros((N, B, 3, nv))
    off = 6 if ct.floating else 0
    if ct.floating:
        J_v[:, :, :, 0:3] = np.eye(3)
        r = fk["c"] - bs.base_pos[:, None, :]
        J_v[:, :, :, 3:6] = -skew(r)
        J_w[:, :, :, 3:6] = np.eye(3)
    if nj:
        diff = fk["c"][:, :, None, :] - fk["o_w"][:, None, :, :]  # (N,B,nj,3)
        mask = ct.ancestors[None, :, :, None]
        jv = _cross(fk["a_w"][:, None, :, :], diff) * mask
        jw = np.broadcast_to(fk["a_w"][:, None, :, :], (N, B, nj, 3)) * mask
        J_v[:, :, :, off:] = jv.transpose(0, 1, 3, 2)
        J_w[:, :, :, off:] = jw.transpose(0, 1, 3, 2)
    return J_v, J_w


def _world_inertia(ct: CompiledTree, fk):
    R = fk["R"]
    return R @ ct.inertia @ R.transpose(0, 1, 3, 2)


def _mass_matrix(params: BatchParams, J_v, J_w, I_w):
    # flatten (body, axis) so the contractions are plain batched GEMMs
    N, B, _, nv = J_v.shape
    Jv_flat = J_v.reshape(N, B * 3, nv)
    Jv_weighted = (params.masses[:, :, None, None] * J_v).reshape(N, B * 3, nv)
    M = Jv_flat.transpose(0, 2, 1) @ Jv_weighted
    IJ = (I_w @ J_w).reshape(N, B * 3, nv)
    M += J_w.reshape(N, B * 3, nv).transpose(0, 2, 1) @ IJ
    return M


def _bias_forces(params: BatchParams, vel, bias, I_w, J_v, J_w):
    f = params.masses[:, :, None] * (bias["a_c"] - params.gravity[:, None, :])
    Iw_w = (I_w @ vel["w"][..., None])[..., 0]
    n = (I_w @ bias["alpha"][..., None])[..., 0] + _cross(vel["w"], Iw_w)
    N, B, _, nv = J_v.shape
    out = J_v.reshape(N, B * 3, nv).transpose(0, 2, 1) @ f.reshape(N, B * 3, 1)
    out += J_w.reshape(N, B * 3, nv).transpose(0, 2, 1) @ n.reshape(N, B * 3, 1)
    return out[..., 0]


# ---------------------------------------------------------------------------
# contacts


def foot_points(ct: CompiledTree, fk, vel=None):
    """World positions (and velocities) of the foot contact points."""
    feet = np.asarray(ct.tree.foot_body_indices, dtype=int)
    offs = ct.tree.foot_offsets
    p = fk["p"][:, feet]
    R = fk["R"][:, feet]
    pos = p + (R @ offs[..., None])[..., 0]
    if vel is None:
        return pos, None
    v = vel["v_o"][:, feet] + _cross(vel["w"][:, feet], pos - p)
    return pos, v


def contact_force_law(contact_cfg, friction, pos, vel):
    """Penalty normal + viscous tangent clamped to the Coulomb cone.

    pos/vel are (N, n_feet, 3) world foot states; friction is (N,).
    Returns per-foot world forces (N, n_feet, 3); zero when not penetrating.
    """
    k_n = float(contact_cfg["normal_stiffness"])
    c_n = float(contact_cfg["normal_damping"])
    k_t = float(contact_cfg["tangential_damping"])
    z = pos[..., 2]
    in_contact = z < 0.0
    depth = np.where(in_contact, -z, 0.0)
    normal = k_n * depth + c_n * np.maximum(0.0, -vel[..., 2]) * in_contact
    normal = np.maximum(normal, 0.0) * in_contact
    tangent = -k_t * vel[..., :2] * in_contact[..., None]
    t_norm = np.linalg.norm(tangent, axis=-1)
    limit = friction[:, None] * normal
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(t_norm > limit, limit / np.where(t_norm > 0, t_norm, 1.0), 1.0)
    forces = np.zeros(pos.shape)
    forces[..., :2] = tangent * scale[..., None]
    forces[..., 2] = normal
    return forces


# ---------------------------------------------------------------------------
# forward dynamics and stepping


def _point_jacobian(fk, J_v, J_w, body, point):
    """(N, 3, nv) Jacobian of a world point (N, 3) rigidly attached to body;
    for an array of F bodies with points (N, F, 3) it is (N, F, 3, nv).

    Columns: J_p = J_v - skew(lever) @ J_w  (since w x lever = -lever x w).
    """
    lever = point - fk["c"][:, body]
    return J_v[:, body] - skew(lever) @ J_w[:, body]


def _assemble(ct: CompiledTree, bs: BatchState, tau, ext, params):
    """Common dynamics assembly: M, applied-minus-bias forces (without the
    contact dampers), and per-foot contact context."""
    fk = bs.cache[0] if bs.cache is not None else _fk(ct, bs)
    vel = bs.cache[1] if bs.cache is not None else _velocities(ct, bs, fk)
    bias = _bias_accelerations(ct, bs, fk, vel)
    I_w = _world_inertia(ct, fk)
    J_v, J_w = _jacobians(ct, bs, fk)
    M = _mass_matrix(params, J_v, J_w, I_w)
    h = _bias_forces(params, vel, bias, I_w, J_v, J_w)
    off = 6 if ct.floating else 0
    Q = np.zeros((bs.n, ct.nv))
    if ct.n_joints:
        Q[:, off:] = tau
    for body, point, force in ext or []:
        J_p = _point_jacobian(fk, J_v, J_w, body, point)
        Q += (J_p.transpose(0, 2, 1) @ force[..., None])[..., 0]
    contact = None
    if ct.tree.foot_body_indices:
        pos, v = foot_points(ct, fk, vel)
        feet = np.asarray(ct.tree.foot_body_indices, dtype=int)
        J_p = _point_jacobian(fk, J_v, J_w, feet, pos)  # (N, n_feet, 3, nv)
        contact = {"pos": pos, "vel": v, "J_p": J_p}
    return M, Q - h, contact


def _foot_wrench(J_p, forces):
    """Generalized force of per-foot world forces: sum_f J_p' f."""
    N, F, _, nv = J_p.shape
    return (J_p.reshape(N, F * 3, nv).transpose(0, 2, 1) @ forces.reshape(N, F * 3, 1))[..., 0]


def _implicit_contact_velocity_update(ct, bs, dt, M, rhs, contact, params):
    """Velocity update with the contact dampers integrated implicitly.

    The explicit contact dampers are unconditionally unstable at the model's
    stiffness constants and dt (k_t dt far exceeds the foot's apparent mass),
    so the damper force is evaluated at the end-of-step velocity: the damper
    Jacobian dt * J' D J joins the mass matrix. The Coulomb cone is enforced
    by one active-set pass: feet whose implied tangent force exceeds mu * N
    are re-solved with an explicit saturated sliding force.
    """
    cfg = ct.tree.contact
    k_n = float(cfg["normal_stiffness"])
    c_n = float(cfg["normal_damping"])
    k_t = float(cfg["tangential_damping"])
    pos, v, J_p = contact["pos"], contact["vel"], contact["J_p"]
    in_contact = pos[..., 2] < 0.0  # (N, F)
    depth = np.where(in_contact, -pos[..., 2], 0.0)
    spring_n = k_n * depth  # explicit spring part of the normal force
    approach = in_contact & (v[..., 2] < 0.0)

    spring_force = np.zeros(pos.shape)
    spring_force[..., 2] = spring_n
    v_cur = _generalized_velocity(ct, bs)
    mv = (M @ v_cur[..., None])[..., 0] + dt * (rhs + _foot_wrench(J_p, spring_force))
    N, F, _, nv = J_p.shape
    J_flat = J_p.reshape(N, F * 3, nv)

    def solve(d_tan, d_norm, extra_Q):
        # damping weights per foot/axis -> dt * J' D J added to M
        D = np.zeros(pos.shape)  # (N, F, 3)
        D[..., 0] = d_tan
        D[..., 1] = d_tan
        D[..., 2] = d_norm
        DJ = (D[..., None] * J_p).reshape(N, F * 3, nv)
        A = M + dt * (J_flat.transpose(0, 2, 1) @ DJ)
        return np.linalg.solve(A, (mv + dt * extra_Q)[..., None])[..., 0]

    d_tan = k_t * in_contact
    d_norm = c_n * approach
    v_new = solve(d_tan, d_norm, 0.0)

    # implied contact forces at the new velocity
    v_feet = (J_p @ v_new[:, None, :, None])[..., 0]
    normal = spring_n + d_norm * np.maximum(0.0, -v_feet[..., 2])
    f_tan = -d_tan[..., None] * v_feet[..., :2]
    t_norm = np.linalg.norm(f_tan, axis=-1)
    limit = params.friction[:, None] * normal
    saturated = in_contact & (t_norm > limit + 1e-12)
    if np.any(saturated):
        direction = f_tan / np.where(t_norm[..., None] > 0, t_norm[..., None], 1.0)
        slide = np.zeros(pos.shape)
        slide[..., :2] = direction * limit[..., None] * saturated[..., None]
        v_new = solve(d_tan * ~saturated, d_norm, _foot_wrench(J_p, slide))
    return v_new


def _generalized_velocity(ct, bs):
    parts = []
    if ct.floating:
        parts += [bs.base_linvel, bs.base_angvel]
    if ct.n_joints:
        parts.append(bs.qdot)
    return np.concatenate(parts, axis=1)


def step_batch(ct: CompiledTree, bs: BatchState, tau, dt, ext=None, params=None) -> BatchState:
    """One semi-implicit Euler substep for the whole batch.

    ``ext`` is a list of (body, point (N, 3), force (N, 3)) tuples: world
    forces applied at world points rigidly attached to the bodies.
    """
    if params is None:
        params = BatchParams.from_tree(ct, bs.n)
    M, rhs, contact = _assemble(ct, bs, tau, ext, params)
    if contact is not None:
        v_new = _implicit_contact_velocity_update(ct, bs, dt, M, rhs, contact, params)
    else:
        qacc = np.linalg.solve(M, rhs[..., None])[..., 0]
        v_new = _generalized_velocity(ct, bs) + dt * qacc
    off = 6 if ct.floating else 0
    if ct.floating:
        linvel = v_new[:, 0:3]
        angvel = v_new[:, 3:6]
        base_pos = bs.base_pos + dt * linvel
        base_quat = quat_normalize(quat_mul(quat_exp(dt * angvel), bs.base_quat))
    else:
        linvel, angvel = bs.base_linvel, bs.base_angvel
        base_pos, base_quat = bs.base_pos, bs.base_quat
    qdot = v_new[:, off:] if ct.n_joints else bs.qdot
    q = bs.q + dt * qdot
    # negated so that a non-finite velocity counts as diverged
    diverged = ~(np.abs(v_new).max(axis=1) <= DIVERGENCE_SPEED)
    if bs.diverged is not None:
        diverged = diverged | bs.diverged
    new = BatchState(
        base_pos=base_pos,
        base_quat=base_quat,
        base_linvel=linvel,
        base_angvel=angvel,
        q=q,
        qdot=qdot,
        time=bs.time + dt,
        diverged=diverged,
    )
    fk2 = _fk(ct, new)
    vel2 = _velocities(ct, new, fk2)
    new.cache = (fk2, vel2)
    if ct.tree.foot_body_indices:
        pos, v = foot_points(ct, fk2, vel2)
        new.contact_flags = pos[..., 2] < 0.0
        new.contact_forces = contact_force_law(ct.tree.contact, params.friction, pos, v)
    else:
        n_feet = 1
        new.contact_flags = np.zeros((bs.n, n_feet), dtype=bool)
        new.contact_forces = np.zeros((bs.n, n_feet, 3))
    return new


# ---------------------------------------------------------------------------
# checked entry points: each takes a BatchState of any N (a single
# simulation is N = 1) and returns arrays with the leading N axis. They
# work from the state's fields, never from its cache, so a caller may
# edit a state in place between calls.


def default_state(tree: KinematicTree, q=None, base_pos=(0.0, 0.0, 0.0)) -> BatchState:
    """Upright state at rest in pose q. N is the row count of a 2-D q, else 1."""
    q = np.zeros(tree.n_joints) if q is None else np.asarray(q, dtype=float)
    q = np.atleast_2d(q).copy()
    n = q.shape[0]
    n_feet = max(len(tree.foot_body_indices), 1)
    return BatchState(
        base_pos=np.broadcast_to(np.asarray(base_pos, dtype=float), (n, 3)).copy(),
        base_quat=np.tile(IDENTITY_QUAT, (n, 1)),
        base_linvel=np.zeros((n, 3)),
        base_angvel=np.zeros((n, 3)),
        q=q,
        qdot=np.zeros_like(q),
        time=np.zeros(n),
        contact_flags=np.zeros((n, n_feet), dtype=bool),
        contact_forces=np.zeros((n, n_feet, 3)),
        diverged=np.zeros(n, dtype=bool),
    )


def standing_state(tree: KinematicTree, q=None) -> BatchState:
    """``default_state`` in pose q (the default pose if None) with each base
    placed so that its lowest foot touches the floor exactly (z = 0)."""
    state = default_state(tree, q=tree.default_pose if q is None else q)
    ct = tree.compiled()
    pos, _ = foot_points(ct, _fk(ct, state))
    state.base_pos[:, 2] = -pos[..., 2].min(axis=1)
    return state


def _check_ext(ext):
    """Reject non-finite forces or points in a ``step_batch``-format ``ext``."""
    for _, point, force in ext or []:
        _require_finite("external force", force)
        _require_finite("external force point", point)


def forward_dynamics(tree: KinematicTree, state: BatchState, tau, ext=None):
    """Generalized accelerations (N, nv) under gravity, contacts, tau and ext.

    Contact forces follow the explicit penalty law at the given state.
    """
    tau = np.zeros(tree.n_joints) if tau is None else np.asarray(tau, dtype=float)
    _require_finite("tau", tau)
    _require_finite("q", state.q)
    _require_finite("qdot", state.qdot)
    _require_finite("base_pos", state.base_pos)
    _require_finite("base velocities", np.hstack([state.base_linvel, state.base_angvel]))
    _check_ext(ext)
    ct = tree.compiled()
    params = BatchParams.from_tree(ct, state.n)
    M, rhs, contact = _assemble(ct, replace(state, cache=None), tau, ext, params)
    if contact is not None:
        forces = contact_force_law(ct.tree.contact, params.friction, contact["pos"], contact["vel"])
        rhs = rhs + _foot_wrench(contact["J_p"], forces)
    return np.linalg.solve(M, rhs[..., None])[..., 0]


def contact_forces(tree: KinematicTree, state: BatchState, friction_coefficient):
    """Per-foot world contact forces (N, n_feet, 3) at the given state."""
    if friction_coefficient < 0:
        raise ValueError("friction_coefficient must be >= 0")
    ct = tree.compiled()
    fk = _fk(ct, state)
    pos, v = foot_points(ct, fk, _velocities(ct, state, fk))
    mu = np.full(state.n, float(friction_coefficient))
    return contact_force_law(tree.contact, mu, pos, v)


def step(tree: KinematicTree, state: BatchState, tau, ext=None, dt_physics=0.002) -> BatchState:
    """Advance one substep; raises on out-of-range dt or non-finite input."""
    if not 0.0 < dt_physics <= MAX_DT:
        raise ValueError(f"dt_physics must be in (0, {MAX_DT}], got {dt_physics}")
    tau = np.zeros(tree.n_joints) if tau is None else np.asarray(tau, dtype=float)
    _require_finite("tau", tau)
    _check_ext(ext)
    return step_batch(tree.compiled(), replace(state, cache=None), tau, dt_physics, ext=ext)


def kinematics(tree: KinematicTree, state: BatchState):
    """Foot world positions and velocities, com, and the gravity direction
    in the base frame."""
    ct = tree.compiled()
    fk = _fk(ct, state)
    out = {
        "com_position": np.einsum("b,nbi->ni", ct.mass, fk["c"]) / ct.mass.sum(),
        "projected_gravity": np.einsum("nji,j->ni", quat_to_matrix(state.base_quat), GRAVITY_DIR)
        if tree.floating
        else np.tile(GRAVITY_DIR, (state.n, 1)),
    }
    if tree.foot_body_indices:
        out["foot_positions"], out["foot_velocities"] = foot_points(
            ct, fk, _velocities(ct, state, fk)
        )
    return out


def mass_matrix(tree: KinematicTree, state: BatchState):
    """Joint-space mass matrices (N, nv, nv) at the tree's nominal masses."""
    ct = tree.compiled()
    fk = _fk(ct, state)
    J_v, J_w = _jacobians(ct, state, fk)
    return _mass_matrix(BatchParams.from_tree(ct, state.n), J_v, J_w, _world_inertia(ct, fk))


def total_energy(tree: KinematicTree, state: BatchState):
    """Kinetic + gravitational potential energy (N,), summed body-wise.

    Independent of the mass-matrix assembly, so it doubles as an oracle for
    both the integrator and M itself (via 0.5 v' M v comparisons in tests).
    """
    ct = tree.compiled()
    fk = _fk(ct, state)
    vel = _velocities(ct, state, fk)
    I_w = _world_inertia(ct, fk)
    ke = 0.5 * np.einsum("b,nbi,nbi->n", ct.mass, vel["v_c"], vel["v_c"])
    ke += 0.5 * np.einsum("nbi,nbij,nbj->n", vel["w"], I_w, vel["w"])
    pe = tree.gravity * np.einsum("b,nb->n", ct.mass, fk["c"][..., 2])
    return ke + pe


def total_linear_momentum(tree: KinematicTree, state: BatchState):
    """Total linear momentum (N, 3)."""
    ct = tree.compiled()
    fk = _fk(ct, state)
    return np.einsum("b,nbi->ni", ct.mass, _velocities(ct, state, fk)["v_c"])
