"""Dense reference dynamics: the test oracle for the block-arrow engine.

Builds full world-frame com Jacobians (N, B, 3, nv) from each body's
ancestor joints, the dense mass matrix J_v' m J_v + J_w' I J_w, the bias
forces J' (f, n), and solves the implicit-contact velocity update as one
(N, nv, nv) LU solve per pass, re-solving the whole batch when any foot
saturates. The kinematic passes (FK, velocities, bias accelerations, world
inertias, foot points) and the contact law are the engine's own; everything
from the Jacobians on is independent of ``vsloco.dynamics``'s block code.
"""

import numpy as np

from vsloco import dynamics as dyn
from vsloco.rotations import quat_exp, quat_mul, quat_normalize, skew


def ancestors(ct):
    """(B, nj) bool: joint j lies on the path root -> body b."""
    anc = np.zeros((ct.n_bodies, ct.n_joints), dtype=bool)
    for b in range(ct.n_bodies):
        cur = b
        while cur >= 0:
            j = ct.joint_of_body(cur)
            if j >= 0:
                anc[b, j] = True
            cur = ct.bodies[cur].parent
    return anc


def jacobians(ct, bs, fk):
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
        mask = ancestors(ct)[None, :, :, None]
        jv = np.cross(fk["a_w"][:, None, :, :], diff) * mask
        jw = np.broadcast_to(fk["a_w"][:, None, :, :], (N, B, nj, 3)) * mask
        J_v[:, :, :, off:] = jv.transpose(0, 1, 3, 2)
        J_w[:, :, :, off:] = jw.transpose(0, 1, 3, 2)
    return J_v, J_w


def mass_matrix(params, J_v, J_w, I_w):
    N, B, _, nv = J_v.shape
    Jv_flat = J_v.reshape(N, B * 3, nv)
    Jv_weighted = (params.masses[:, :, None, None] * J_v).reshape(N, B * 3, nv)
    M = Jv_flat.transpose(0, 2, 1) @ Jv_weighted
    IJ = (I_w @ J_w).reshape(N, B * 3, nv)
    M += J_w.reshape(N, B * 3, nv).transpose(0, 2, 1) @ IJ
    return M


def bias_forces(params, vel, bias, I_w, J_v, J_w):
    f = params.masses[:, :, None] * (bias["a_c"] - params.gravity[:, None, :])
    Iw_w = (I_w @ vel["w"][..., None])[..., 0]
    n = (I_w @ bias["alpha"][..., None])[..., 0] + np.cross(vel["w"], Iw_w)
    N, B, _, nv = J_v.shape
    out = J_v.reshape(N, B * 3, nv).transpose(0, 2, 1) @ f.reshape(N, B * 3, 1)
    out += J_w.reshape(N, B * 3, nv).transpose(0, 2, 1) @ n.reshape(N, B * 3, 1)
    return out[..., 0]


def point_jacobian(fk, J_v, J_w, body, point):
    """(N, 3, nv) Jacobian of a world point (N, 3) rigidly attached to body;
    (N, F, 3, nv) for an array of F bodies with points (N, F, 3)."""
    lever = point - fk["c"][:, body]
    return J_v[:, body] - skew(lever) @ J_w[:, body]


def foot_wrench(J_p, forces):
    N, F, _, nv = J_p.shape
    return (J_p.reshape(N, F * 3, nv).transpose(0, 2, 1) @ forces.reshape(N, F * 3, 1))[..., 0]


def assemble(ct, bs, tau, push, params):
    """Dense M (N, nv, nv), applied-minus-bias force (N, nv), foot context."""
    fk = dyn._fk(ct, bs)
    vel = dyn._velocities(ct, bs, fk)
    bias = dyn._bias_accelerations(ct, bs, fk, vel)
    I_w = dyn._world_inertia(ct, fk)
    J_v, J_w = jacobians(ct, bs, fk)
    M = mass_matrix(params, J_v, J_w, I_w)
    h = bias_forces(params, vel, bias, I_w, J_v, J_w)
    off = 6 if ct.floating else 0
    Q = np.zeros((bs.n, ct.nv))
    if ct.n_joints:
        Q[:, off:] = tau
    if push is not None:  # a world force at the base origin
        J_p = point_jacobian(fk, J_v, J_w, 0, bs.base_pos)
        Q += (J_p.transpose(0, 2, 1) @ push[..., None])[..., 0]
    contact = None
    if ct.foot_body_indices:
        pos, v = dyn.foot_points(ct, fk, vel)
        feet = np.asarray(ct.foot_body_indices, dtype=int)
        contact = {"pos": pos, "vel": v, "J_p": point_jacobian(fk, J_v, J_w, feet, pos)}
    return M, Q - h, contact


def implicit_contact_velocity_update(ct, bs, dt, M, rhs, contact, params):
    """New generalized velocity and the saturated-foot mask (see the engine)."""
    cfg = ct.contact
    k_n = float(cfg["normal_stiffness"])
    c_n = float(cfg["normal_damping"])
    k_t = float(cfg["tangential_damping"])
    pos, v, J_p = contact["pos"], contact["vel"], contact["J_p"]
    in_contact = pos[..., 2] < 0.0
    depth = np.where(in_contact, -pos[..., 2], 0.0)
    spring_n = k_n * depth
    approach = in_contact & (v[..., 2] < 0.0)
    spring_force = np.zeros(pos.shape)
    spring_force[..., 2] = spring_n
    v_cur = generalized_velocity(ct, bs)
    mv = (M @ v_cur[..., None])[..., 0] + dt * (rhs + foot_wrench(J_p, spring_force))
    N, F, _, nv = J_p.shape
    J_flat = J_p.reshape(N, F * 3, nv)

    def solve(d_tan, d_norm, extra_Q):
        D = np.zeros(pos.shape)
        D[..., 0] = d_tan
        D[..., 1] = d_tan
        D[..., 2] = d_norm
        DJ = (D[..., None] * J_p).reshape(N, F * 3, nv)
        A = M + dt * (J_flat.transpose(0, 2, 1) @ DJ)
        return np.linalg.solve(A, (mv + dt * extra_Q)[..., None])[..., 0]

    d_tan = k_t * in_contact
    d_norm = c_n * approach
    v_new = solve(d_tan, d_norm, 0.0)
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
        v_new = solve(d_tan * ~saturated, d_norm, foot_wrench(J_p, slide))
    return v_new, saturated


def generalized_velocity(ct, bs):
    parts = []
    if ct.floating:
        parts += [bs.base_linvel, bs.base_angvel]
    if ct.n_joints:
        parts.append(bs.qdot)
    return np.concatenate(parts, axis=1)


def step_batch(ct, bs, tau, dt, push=None, params=None):
    """One semi-implicit Euler substep; returns the new state's (base_pos,
    base_quat, v_new, q) and the saturated-foot mask (None without feet)."""
    if params is None:
        params = dyn.BatchParams.from_tree(ct, bs.n)
    M, rhs, contact = assemble(ct, bs, tau, push, params)
    saturated = None
    if contact is not None:
        v_new, saturated = implicit_contact_velocity_update(ct, bs, dt, M, rhs, contact, params)
    else:
        v_new = generalized_velocity(ct, bs) + dt * np.linalg.solve(M, rhs[..., None])[..., 0]
    off = 6 if ct.floating else 0
    base_pos, base_quat = bs.base_pos, bs.base_quat
    if ct.floating:
        base_pos = bs.base_pos + dt * v_new[:, 0:3]
        base_quat = quat_normalize(quat_mul(quat_exp(dt * v_new[:, 3:6]), bs.base_quat))
    q = bs.q + dt * v_new[:, off:] if ct.n_joints else bs.q
    return (base_pos, base_quat, v_new, q), saturated


def forward_dynamics(ct, bs, tau, push=None):
    """Generalized accelerations with explicit penalty contact forces."""
    params = dyn.BatchParams.from_tree(ct, bs.n)
    M, rhs, contact = assemble(ct, bs, tau, push, params)
    if contact is not None:
        forces = dyn.contact_force_law(ct.contact, params.friction, contact["pos"], contact["vel"])
        rhs = rhs + foot_wrench(contact["J_p"], forces)
    return np.linalg.solve(M, rhs[..., None])[..., 0]
