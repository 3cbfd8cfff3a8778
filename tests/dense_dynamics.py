"""Dense reference dynamics: the test oracle for the block-arrow engine.

Builds full world-frame com Jacobians (N, B, 3, nv) from each body's
ancestor joints, the dense mass matrix J_v' m J_v + J_w' I J_w, the bias
forces J' (f, n), and solves the implicit-contact velocity update as one
(N, nv, nv) LU solve per pass, re-solving the whole batch when any foot
saturates. The kinematic passes (FK, velocities, bias accelerations, world
inertias, foot points) are the engine's own, read env-first through
``env_first``; everything from the Jacobians on, the contact law included,
is independent of ``vsloco.dynamics``. FK itself is checked against
``reference_fk``, built from the ``JointSpec``s alone.

Besides the oracle, the tests compare against:
- ``blocks_to_dense``: the engine's mass blocks scattered into (N, nv, nv);
- ``total_energy`` and ``total_linear_momentum``: body-wise sums that do not
  use the mass matrix;
- the closed-form test models ``pendulum_tree``, ``double_pendulum_tree``
  (fixed-base chains of point masses) and ``floating_box_tree`` (one free
  rigid body).
"""

import numpy as np

from vsloco import dynamics as dyn
from vsloco.model import Body, JointSpec, KinematicTree, SpatialInertia
from vsloco.rotations import quat_exp, quat_mul, quat_normalize, quat_to_matrix, skew


def pendulum_tree(mass=1.0, length=1.0):
    """Fixed-base point-mass pendulum about y, hanging along -z at q = 0."""
    body = Body(SpatialInertia(mass, [0.0, 0.0, -length], np.eye(3) * 1e-12), parent=-1)
    joint = JointSpec([0.0, 1.0, 0.0], [0.0, 0.0, 0.0], (-100.0, 100.0), 1e6)
    return KinematicTree(bodies=[body], joints=[joint], floating=False)


def double_pendulum_tree(m1=1.0, m2=0.7, l1=0.6, l2=0.4):
    """Fixed-base two-link chain of point masses about y."""
    b1 = Body(SpatialInertia(m1, [0.0, 0.0, -l1], np.eye(3) * 1e-12), parent=-1)
    b2 = Body(SpatialInertia(m2, [0.0, 0.0, -l2], np.eye(3) * 1e-12), parent=0)
    j1 = JointSpec([0.0, 1.0, 0.0], [0.0, 0.0, 0.0], (-100, 100), 1e6)
    j2 = JointSpec([0.0, 1.0, 0.0], [0.0, 0.0, -l1], (-100, 100), 1e6)
    return KinematicTree(bodies=[b1, b2], joints=[j1, j2], floating=False)


def floating_box_tree(gravity=9.81):
    """One free-floating rigid body of 2 kg."""
    body = Body(SpatialInertia(2.0, [0.0, 0.0, 0.0], np.diag([0.02, 0.04, 0.05])), parent=-1)
    return KinematicTree(bodies=[body], joints=[], floating=True, gravity=gravity)


def env_first(a, comps=1):
    """An engine array, its comps component axes first and the env axis
    last, as (N, other axes..., components...)."""
    a = np.moveaxis(a, -1, 0)
    return np.moveaxis(a, range(1, 1 + comps), range(a.ndim - comps, a.ndim))


def engine_kinematics(ct, bs):
    """The engine's kinematics of bs env-first: ``_kinematics``' R
    (N, B, 3, 3), p, c, a_w, w, v_o, v_c and the foot states (N, k, 3),
    the bias accelerations alpha and a_c, and the world inertias I_w."""
    st = dyn._kinematics(ct, bs)
    kin = {key: env_first(a, 2 if key == "R" else 1)
           for key, a in st.items() if key not in vars(bs)}
    kin["alpha"], kin["a_c"] = map(env_first, dyn._bias_accelerations(ct, st))
    kin["I_w"] = env_first(dyn._world_inertia(ct, st["R"]), 2)
    return kin


def engine_step(ct, bs, tau, dt, push=None, params=None):
    """``dyn.step_batch`` of a ``BatchState``: bs as the engine state
    (``_kinematics``), one substep, and the new state's fields env-first."""
    st = dyn.step_batch(ct, dyn._kinematics(ct, bs), tau, dt, push=push, params=params)
    return dyn.BatchState(**{key: st[key].T.copy() for key in vars(bs)})


def reference_fk(ct, bs):
    """World body rotations R (N, B, 3, 3) and origins p (N, B, 3), and
    world joint axes a_w (N, nj, 3), from the bodies' parents and the
    ``JointSpec``s alone: a body is its parent's frame (the world's for a
    fixed root), moved to the joint origin and turned by exp(axis q)."""
    N, B, nj = bs.n, ct.n_bodies, ct.n_joints
    start = 1 if ct.floating else 0
    R, p = np.zeros((N, B, 3, 3)), np.zeros((N, B, 3))
    a_w = np.zeros((N, nj, 3))
    if ct.floating:
        R[:, 0], p[:, 0] = quat_to_matrix(bs.base_quat), bs.base_pos
    for j, joint in enumerate(ct.joints):
        b = j + start
        parent = ct.bodies[b].parent
        R_p, p_p = (R[:, parent], p[:, parent]) if parent >= 0 else (np.eye(3), np.zeros(3))
        a_w[:, j] = R_p @ joint.axis
        R[:, b] = R_p @ quat_to_matrix(quat_exp(joint.axis * bs.q[:, j, None]))
        p[:, b] = p_p + R_p @ joint.origin_in_parent
    return {"R": R, "p": p, "a_w": a_w}


def blocks_to_dense(ct, T, K):
    """Scatter the blocks of the engine's ``_mass_blocks`` (env-last), the
    base block T = M_bb and each branch's joint columns K = [M_bl; M_ll],
    into (N, nv, nv)."""
    T, K = env_first(T, 2), env_first(K, 2)
    nb = ct.n_base
    base = np.arange(nb)
    # (n_br, d) columns of each branch
    dofs = nb + np.arange(ct.n_joints).reshape(ct.n_branches, ct.branch_size)
    M = np.zeros((T.shape[0], ct.nv, ct.nv))
    M[:, :nb, :nb] = T
    M[:, base[:, None], dofs[:, None, :]] = K[..., :nb, :]
    M[:, dofs[..., None], base] = K[..., :nb, :].swapaxes(-1, -2)
    M[:, dofs[..., None], dofs[:, None, :]] = K[..., nb:, :]
    return M


def total_energy(ct, bs):
    """Kinetic + gravitational potential energy (N,), summed body-wise."""
    kin = engine_kinematics(ct, bs)
    ke = 0.5 * np.einsum("b,nbi,nbi->n", ct.mass, kin["v_c"], kin["v_c"])
    ke += 0.5 * np.einsum("nbi,nbij,nbj->n", kin["w"], kin["I_w"], kin["w"])
    pe = ct.gravity * np.einsum("b,nb->n", ct.mass, kin["c"][..., 2])
    return ke + pe


def total_linear_momentum(ct, bs):
    """Total linear momentum (N, 3)."""
    return np.einsum("b,nbi->ni", ct.mass, engine_kinematics(ct, bs)["v_c"])


def ancestors(ct):
    """(B, nj) bool: joint j lies on the path root -> body b."""
    anc = np.zeros((ct.n_bodies, ct.n_joints), dtype=bool)
    for b in range(ct.n_bodies):
        cur = b
        while cur >= 0:
            j = cur - 1 if ct.floating else cur  # the joint driving body cur
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
        o_w = fk["p"][:, B - nj:]  # each joint's origin is its (jointed) body's
        diff = fk["c"][:, :, None, :] - o_w[:, None, :, :]  # (N,B,nj,3)
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


def bias_forces(params, kin, I_w, J_v, J_w):
    f = params.masses[:, :, None] * (kin["a_c"] - params.gravity[:, None, :])
    Iw_w = (I_w @ kin["w"][..., None])[..., 0]
    n = (I_w @ kin["alpha"][..., None])[..., 0] + np.cross(kin["w"], Iw_w)
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
    kin = engine_kinematics(ct, bs)
    I_w = kin["I_w"]
    J_v, J_w = jacobians(ct, bs, kin)
    M = mass_matrix(params, J_v, J_w, I_w)
    h = bias_forces(params, kin, I_w, J_v, J_w)
    off = 6 if ct.floating else 0
    Q = np.zeros((bs.n, ct.nv))
    if ct.n_joints:
        Q[:, off:] = tau
    if push is not None:  # a world force at the base origin
        J_p = point_jacobian(kin, J_v, J_w, 0, bs.base_pos)
        Q += (J_p.transpose(0, 2, 1) @ push[..., None])[..., 0]
    contact = None
    if ct.foot_body_indices:
        pos, v = kin["foot_pos"], kin["foot_vel"]
        feet = np.asarray(ct.foot_body_indices, dtype=int)
        contact = {"pos": pos, "vel": v, "J_p": point_jacobian(kin, J_v, J_w, feet, pos)}
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
