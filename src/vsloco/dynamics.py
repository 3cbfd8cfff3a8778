"""Floating-base articulated rigid-body dynamics with penalty ground contact.

The engine is batched: every quantity carries a leading environment axis N,
and ``BatchState`` is the only state type; a single simulation is a state
with N = 1. The checked entry points at the end of the module (``step``,
``forward_dynamics``, ``contact_forces``, ...) validate their inputs and take
a state of any N; ``step_batch`` is the unchecked hot path. Generalized
velocity layout is [base linear (world), base angular (world), joint rates]
for floating trees and [joint rates] for fixed-base trees.

The tree is a base plus branches of equal size (the quadruped: a trunk and
four 3-DoF legs; a fixed-base chain: one branch and no base block; a free
box: a base and no branch). A branch's joints move only its own bodies and
each foot sits on one branch, so the mass matrix M and the implicit contact
matrix M + dt J' D J are block-arrow: a base block M_bb, one base-branch
block M_bl and one joint block M_ll per branch, nothing between branches.
The engine never forms the dense (N, nv, nv) matrix. ``_mass_blocks``
builds each branch's (nb + d)-square block over [base, branch joints] from
composite rigid-body inertias (Featherstone, "Rigid Body Dynamics
Algorithms", 2008, ch. 6), each foot's contact term adds to its own
branch's block, and ``_solve`` eliminates the joint blocks and solves the
nb x nb Schur complement of the base (Featherstone, "Efficient factorization
of the joint-space inertia matrix for branched kinematic trees", IJRR 2005).
All of it is batched over (N, branch) axes, so the cost per env does not
grow with the number of legs in Python loops.

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
EYE3 = np.eye(3)
MAX_DT = 0.01


def _cross(a, b):
    """Component-wise cross product; avoids np.cross's axis plumbing."""
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    x = ay * bz - az * by
    out = np.empty(x.shape + (3,))
    out[..., 0] = x
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
    # feet whose friction cone the last substep saturated: the active-set
    # pass re-solved them with a sliding force
    cone_saturated: np.ndarray = None  # (N, n_feet)
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
    for bodies, joints, parents, rooted in ct.levels:
        Rj = rotation_about_axis(
            ct.axis_skew[joints], ct.axis_skew_sq[joints], bs.q[:, joints]
        )  # (N, L, 3, 3)
        if rooted:
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
    for bodies, joints, parents, rooted in ct.levels:
        if rooted:
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
    """Com and angular accelerations at zero generalized acceleration.

    The centripetal terms w x (w x r) take w x r from the velocity pass:
    v_o(child) - v_o(parent) for the joint lever, v_c - v_o for the com.
    """
    N, B = bs.n, ct.n_bodies
    alpha = np.zeros((N, B, 3))
    a_o = np.zeros((N, B, 3))
    p, w, v_o = fk["p"], vel["w"], vel["v_o"]
    for bodies, joints, parents, rooted in ct.levels:
        if rooted:  # bodies on the fixed world: both stay zero
            continue
        w_p, al_p = w[:, parents], alpha[:, parents]
        # one cross product call for al_p x dp, w_p x (w_p x dp) and w_p x a
        lever = np.stack([p[:, bodies] - p[:, parents], v_o[:, bodies] - v_o[:, parents],
                          fk["a_w"][:, joints]])
        terms = _cross(np.stack([al_p, w_p, w_p]), lever)
        a_o[:, bodies] = a_o[:, parents] + terms[0] + terms[1]
        alpha[:, bodies] = al_p + bs.qdot[:, joints, None] * terms[2]
    terms = _cross(np.stack([alpha, w]), np.stack([fk["c"] - p, vel["v_c"] - v_o]))
    return {"alpha": alpha, "a_c": a_o + terms[0] + terms[1]}


def _world_inertia(ct: CompiledTree, fk):
    R = fk["R"]
    return R @ ct.inertia @ R.transpose(0, 1, 3, 2)


# ---------------------------------------------------------------------------
# block-arrow assembly and solve


def _per_branch(ct: CompiledTree, x):
    """View (N, n_br, d, ...) of the jointed part of axis 1 of x: its last
    n_br * d entries, which are the branch bodies of a body array, all of a
    joint array, or the joint rates of a generalized vector."""
    n_br, d = ct.n_branches, ct.branch_size
    return x[:, x.shape[1] - n_br * d:].reshape((x.shape[0], n_br, d) + x.shape[2:])


def _local(ct: CompiledTree, v):
    """Generalized vector v (N, nv) in each branch's local coordinates
    [base, branch joints]: (N, n_br, nb + d)."""
    nb = ct.n_base
    base = np.broadcast_to(v[:, None, :nb], (v.shape[0], ct.n_branches, nb))
    return np.concatenate([base, _per_branch(ct, v)], axis=-1)


def _from_local(ct: CompiledTree, y):
    """Generalized force (N, nv) of forces y (N, n_br, nb + d) given in each
    branch's local coordinates: the base parts add up."""
    nb = ct.n_base
    return np.concatenate([y[..., :nb].sum(axis=1), y[..., nb:].reshape(y.shape[0], -1)], axis=1)


def _foot_jacobians(ct: CompiledTree, fk, pos):
    """Linear Jacobians (N, n_br, 3, nb + d) of the foot points pos
    (N, n_br, 3), foot i on branch i, over each branch's local coordinates:
    the nb base velocities, [I, -skew(pos - p0)], then the branch's d
    joints, a_s x (pos - o_s) for the joints that move the foot, else 0."""
    lever = pos[:, :, None] - _per_branch(ct, fk["o_w"])
    cols = _cross(_per_branch(ct, fk["a_w"]), lever) * ct.foot_mask[..., None]
    J = np.empty(pos.shape + (ct.n_base + ct.branch_size,))
    if ct.floating:
        J[..., 0:3] = EYE3
        J[..., 3:6] = -skew(pos - fk["p"][:, :1])
    J[..., ct.n_base:] = cols.swapaxes(-1, -2)
    return J


def _mass_blocks(ct: CompiledTree, params: BatchParams, fk, vel, bias):
    """The mass matrix and the bias forces in block-arrow form, assembled
    from composite rigid bodies.

    Each body's spatial inertia and bias wrench are taken about the base
    origin p0 (the world origin for a fixed base), in the coordinates of the
    base velocity (v_p0, w): Phi = [[m I, -m [r]], [m [r], I_w - m [r]^2]]
    with r = c - p0, and (f, n + r x f) for the body's bias force f and
    moment n. Joint s moves with the twist s_s = [(o_s - p0) x a_s; a_s].
    Summed over the bodies each joint moves, they give the composites Ic_s
    and W_s, and then M_bl[:, s] = Ic_s s_s, M_ll[s, t] = s_s . Ic_t s_t
    for s an ancestor of t (or t itself), and h_s = s_s . W_s.

    Returns T (N, nb, nb), the base body's share of the base-base block;
    K (N, n_br, nb + d, nb + d), each branch's block over its local
    coordinates [base, branch joints], whose base-base part is the branch's
    composite inertia, so that T + sum K_bb = M_bb; and h (N, nv), the
    generalized bias force (gravity and velocity products).
    """
    N, nb, n_br, d = fk["R"].shape[0], ct.n_base, ct.n_branches, ct.branch_size
    m = params.masses[..., None, None]
    I_w = _world_inertia(ct, fk)
    f = params.masses[..., None] * (bias["a_c"] - params.gravity[:, None, :])
    Iw_w = (I_w @ vel["w"][..., None])[..., 0]
    n = (I_w @ bias["alpha"][..., None])[..., 0] + _cross(vel["w"], Iw_w)
    p0 = fk["p"][:, :1] if ct.floating else np.zeros((N, 1, 3))
    S = skew(fk["c"] - p0)
    Phi = np.empty((N, ct.n_bodies, 6, 6))
    Phi[..., :3, :3] = m * EYE3
    Phi[..., :3, 3:] = -m * S
    Phi[..., 3:, :3] = m * S
    Phi[..., 3:, 3:] = I_w - m * (S @ S)
    wrench = np.concatenate([f, n + (S @ f[..., None])[..., 0]], axis=-1)
    twist = _per_branch(ct, np.concatenate([_cross(fk["o_w"] - p0, fk["a_w"]), fk["a_w"]], axis=-1))
    # composites over the bodies each joint moves: mask' sums over bodies
    mask_t = ct.branch_mask.swapaxes(-1, -2)
    Ic = (mask_t @ _per_branch(ct, Phi).reshape(N, n_br, d, 36)).reshape(N, n_br, d, 6, 6)
    Wc = mask_t @ _per_branch(ct, wrench)
    F = (Ic @ twist[..., None])[..., 0]  # (N, n_br, d, 6): Ic_s s_s
    P = twist @ F.swapaxes(-1, -2)  # P[s, t] = s_s . Ic_t s_t
    K = np.empty((N, n_br, nb + d, nb + d))
    K[..., :nb, :nb] = _per_branch(ct, Phi)[..., :nb, :nb].sum(axis=2)
    K[..., :nb, nb:] = F[..., :nb].swapaxes(-1, -2)
    K[..., nb:, :nb] = F[..., :nb]
    # M_ll[s, t] is P[s, t] where s moves t's body, P[t, s] where t strictly
    # moves s's, and 0 between joints on different paths
    K[..., nb:, nb:] = mask_t * P + (ct.branch_mask - np.eye(d)) * P.swapaxes(-1, -2)
    h_joints = (twist * Wc).sum(axis=-1).reshape(N, -1)
    if ct.floating:
        return Phi[:, 0], K, np.concatenate([wrench.sum(axis=1), h_joints], axis=1)
    return np.zeros((N, 0, 0)), K, h_joints


def _add_point_force(ct: CompiledTree, fk, Q, body, x, force):
    """Add to Q (N, nv) the generalized force of world forces (N, 3) applied
    at world points x (N, 3) rigidly attached to ``body``."""
    if ct.floating:
        Q[:, 0:3] += force
        Q[:, 3:6] += _cross(x - fk["p"][:, 0], force)
    branch = ct.body_branch[body]
    if branch >= 0:
        a = _per_branch(ct, fk["a_w"])[:, branch]
        lever = x[:, None] - _per_branch(ct, fk["o_w"])[:, branch]
        torque = (a * _cross(lever, force[:, None])).sum(axis=-1)
        _per_branch(ct, Q)[:, branch] += ct.branch_mask[branch, ct.body_slot[body]] * torque


def _solve(ct: CompiledTree, T, K, r):
    """Solve M x = r for the block-arrow M given by the base block T and the
    branch blocks K (see ``_mass_blocks``).

    Each branch's joint block M_ll is eliminated, the base part solves the
    Schur complement S = M_bb - sum_l M_bl M_ll^-1 M_lb (nb x nb), and the
    joint rates follow by back-substitution.
    """
    nb = ct.n_base
    # M_ll^-1 [M_lb | r_l], (N, n_br, d, nb + 1)
    X = np.linalg.solve(
        K[..., nb:, nb:], np.concatenate([K[..., nb:, :nb], _per_branch(ct, r)[..., None]], axis=-1)
    )
    Y = K[..., :nb, nb:] @ X
    S = T + (K[..., :nb, :nb] - Y[..., :nb]).sum(axis=1)
    x_b = np.linalg.solve(S, r[:, :nb, None] - Y[..., nb:].sum(axis=1))
    x_l = X[..., nb:] - X[..., :nb] @ x_b[:, None]
    return np.concatenate([x_b[..., 0], x_l.reshape(r.shape[0], -1)], axis=1)


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


def _assemble(ct: CompiledTree, bs: BatchState, tau, ext, params):
    """Common dynamics assembly: the mass blocks (T, K), the applied-minus-
    bias generalized force (without contact forces), and the foot context
    with each foot's Jacobian in its branch's local coordinates."""
    fk = bs.cache[0] if bs.cache is not None else _fk(ct, bs)
    vel = bs.cache[1] if bs.cache is not None else _velocities(ct, bs, fk)
    bias = _bias_accelerations(ct, bs, fk, vel)
    T, K, h = _mass_blocks(ct, params, fk, vel, bias)
    rhs = -h
    rhs[:, ct.n_base:] += tau
    for body, point, force in ext or []:
        _add_point_force(ct, fk, rhs, body, point, force)
    contact = None
    if ct.tree.foot_body_indices:
        pos, v = foot_points(ct, fk, vel)  # foot f is on branch f
        J = _foot_jacobians(ct, fk, pos)
        contact = {"pos": pos, "vel": v, "J": J}
    return T, K, rhs, contact


def _foot_force(ct: CompiledTree, J, forces):
    """Generalized force (N, nv) of per-foot world forces (N, n_feet, 3)."""
    return _from_local(ct, (J.swapaxes(-1, -2) @ forces[..., None])[..., 0])


def _implicit_contact_velocity_update(ct, bs, dt, T, K, rhs, contact, params):
    """Velocity update with the contact dampers integrated implicitly.

    The explicit contact dampers are unconditionally unstable at the model's
    stiffness constants and dt (k_t dt far exceeds the foot's apparent mass),
    so the damper force is evaluated at the end-of-step velocity: the damper
    Jacobian dt * J' D J joins the mass matrix, each foot's term in the block
    of its own branch. The velocity change then solves
    (M + dt J' D J) dv = dt (rhs + J' (f_spring - D J v)). The Coulomb cone is
    enforced by one active-set pass: feet whose implied tangent force exceeds
    mu * N are re-solved with an explicit saturated sliding force, in the
    rows (envs) that have such a foot only. Returns the new generalized
    velocity and the (N, n_feet) mask of those feet.
    """
    cfg = ct.tree.contact
    k_n = float(cfg["normal_stiffness"])
    c_n = float(cfg["normal_damping"])
    k_t = float(cfg["tangential_damping"])
    pos, v, J = contact["pos"], contact["vel"], contact["J"]
    in_contact = pos[..., 2] < 0.0  # (N, F)
    depth = np.where(in_contact, -pos[..., 2], 0.0)
    spring_n = k_n * depth  # explicit spring part of the normal force
    approach = in_contact & (v[..., 2] < 0.0)
    v_cur = _generalized_velocity(ct, bs)

    def solve(rows, D, f):
        # D (n, F, 3): damper weights per foot axis; f: explicit foot forces
        J_r = J[rows]
        A = K[rows] + dt * (J_r.swapaxes(-1, -2) @ (D[..., None] * J_r))
        return v_cur[rows] + dt * _solve(ct, T[rows], A, rhs[rows] + _foot_force(ct, J_r, f))

    D = np.empty(pos.shape)
    D[..., 0] = D[..., 1] = d_tan = k_t * in_contact
    D[..., 2] = d_norm = c_n * approach
    f = -D * v
    f[..., 2] += spring_n
    v_new = solve(slice(None), D, f)

    # implied contact forces at the new velocity
    v_feet = (J @ _local(ct, v_new)[..., None])[..., 0]
    normal = spring_n + d_norm * np.maximum(0.0, -v_feet[..., 2])
    f_tan = -d_tan[..., None] * v_feet[..., :2]
    t_norm = np.linalg.norm(f_tan, axis=-1)
    limit = params.friction[:, None] * normal
    saturated = in_contact & (t_norm > limit + 1e-12)
    rows = np.flatnonzero(saturated.any(axis=1))
    if rows.size:
        sat, t_r = saturated[rows, :, None], t_norm[rows, :, None]
        direction = f_tan[rows] / np.where(t_r > 0, t_r, 1.0)
        D_r = D[rows]
        D_r[..., :2] *= ~sat
        f_r = -D_r * v[rows]
        f_r[..., 2] += spring_n[rows]
        f_r[..., :2] += direction * limit[rows, :, None] * sat
        v_new[rows] = solve(rows, D_r, f_r)
    return v_new, saturated


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
    T, K, rhs, contact = _assemble(ct, bs, tau, ext, params)
    if contact is not None:
        v_new, saturated = _implicit_contact_velocity_update(ct, bs, dt, T, K, rhs, contact, params)
    else:
        v_new = _generalized_velocity(ct, bs) + dt * _solve(ct, T, K, rhs)
        saturated = np.zeros((bs.n, 1), dtype=bool)
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
    new.cone_saturated = saturated
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
        cone_saturated=np.zeros((n, n_feet), dtype=bool),
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
    T, K, rhs, contact = _assemble(ct, replace(state, cache=None), tau, ext, params)
    if contact is not None:
        forces = contact_force_law(ct.tree.contact, params.friction, contact["pos"], contact["vel"])
        rhs = rhs + _foot_force(ct, contact["J"], forces)
    return _solve(ct, T, K, rhs)


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
    params = BatchParams.from_tree(ct, state.n)
    T, K, _, _ = _assemble(ct, replace(state, cache=None), 0.0, None, params)
    return _dense_mass_matrix(ct, T, K)


def _dense_mass_matrix(ct: CompiledTree, T, K):
    """Scatter the blocks (T, K) of ``_mass_blocks`` into (N, nv, nv)."""
    nb = ct.n_base
    base = np.arange(nb)
    dofs = _per_branch(ct, np.arange(ct.nv)[None])[0]  # (n_br, d) columns of each branch
    M = np.zeros((T.shape[0], ct.nv, ct.nv))
    M[:, :nb, :nb] = T + K[..., :nb, :nb].sum(axis=1)
    M[:, base[:, None], dofs[:, None, :]] = K[..., :nb, nb:]
    M[:, dofs[..., None], base] = K[..., nb:, :nb]
    M[:, dofs[..., None], dofs[:, None, :]] = K[..., nb:, nb:]
    return M


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
