"""Floating-base articulated rigid-body dynamics with penalty ground contact.

The engine is batched: every quantity carries a leading environment axis N,
and ``BatchState`` is the only state type; a single simulation is a state
with N = 1. The checked entry points at the end of the module (``step``,
``forward_dynamics``, ``contact_forces``, ...) validate their inputs and take
a state of any N; ``step_batch`` is the unchecked hot path. Generalized
velocity layout is [base linear (world), base angular (world), joint rates]
for floating trees and [joint rates] for fixed-base trees.

The tree is a base plus branches that are serial chains, a foot at each end
(the quadruped: a trunk and four 3-DoF legs; a fixed-base chain: one branch
and no base block; a free box: a base and no branch; see ``KinematicTree``).
A branch's joints move only its own bodies and each foot sits on one
branch, so the mass matrix M and the implicit contact matrix M + dt J' D J
are block-arrow: a base block M_bb, one base-branch block M_bl and one
joint block M_ll per branch, nothing between branches.
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
exponential map. Besides the joint torques, the one applied load is a push:
a world force at the base origin of a floating tree, which enters the base
rows of the generalized force as it is.

A state keeps its kinematics (``_kinematics``: FK, velocities and foot
points) in ``BatchState.cache`` with a copy of the fields they derive from,
and recomputes them when a field's bits differ from its copy, so a state
may be edited in place between calls.

Ground contact is one penalty law (``_penalty``, ``_cone``): a spring on
penetration depth, viscous dampers and the Coulomb cone. A substep
integrates the dampers implicitly, and ``BatchState.contact_forces`` holds
the foot forces that solve applied. ``contact_force_law`` is the same law,
explicit at a given state.

The rows (envs) of a substep are independent, so ``step_batch`` splits a
large batch into contiguous row shards, one per core, and runs the whole
substep on each in a thread pool: the calling thread takes the first shard
and a module-level pool of cores - 1 threads the others. The results are
stitched in row order and equal those of one shard bit for bit. Threads
pay only where numpy releases the GIL for long enough. Measured on 2 cores
at 512 rows, two threads ran elementwise ufuncs, einsum and most stacked
matmuls 1.3-2.1x faster than one, but LAPACK's stacked solve 0.9-1.0x and
a stacked matmul with a transposed second operand 0.5-1.0x, and calls of a
few microseconds gain nothing. So the d x d joint blocks are solved by an
unrolled elimination instead of LAPACK (4.6x faster serially at 512 rows),
R' in R I R' and F' in the joint-block product are made contiguous, and a
shard has at least MIN_SHARD_ROWS rows. Per substep of a PJS stance (2 cores,
numpy 2.4), one shard against two: 256 rows 9.7-12.2 against 13.0-14.2 ms,
512 rows 21.7-22.4 against 15.0-15.9 ms, 1024 rows 44-47 against 24-26 ms.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .model import KinematicTree
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

# row shards of step_batch: at most one per core, each at least MIN_SHARD_ROWS
# rows; two shards of 128 rows lost to one of 256, two of 256 won (see the
# module docstring)
MIN_SHARD_ROWS = 256
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = None  # ThreadPoolExecutor of _CORES - 1 workers, made on first use


def _cross(a, b):
    """Component-wise cross product; avoids np.cross's axis plumbing. Small
    operands take the gather form, which makes fewer calls; large ones the
    component form, whose ufunc loops run over whole columns. Both make the
    same products in the same order, so they agree bit for bit."""
    if a.size <= _SMALL and b.size <= _SMALL:
        return a.take(_YZX, -1) * b.take(_ZXY, -1) - a.take(_ZXY, -1) * b.take(_YZX, -1)
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    x = ay * bz - az * by
    out = np.empty(x.shape + (3,))
    out[..., 0] = x
    out[..., 1] = az * bx - ax * bz
    out[..., 2] = ax * by - ay * bx
    return out


_SMALL = 256  # operand size up to which _cross gathers
_SKEW = skew(EYE3).reshape(3, 9)  # skew(v) = (v @ _SKEW).reshape(3, 3): skew is linear
_YZX, _ZXY = np.array([1, 2, 0]), np.array([2, 0, 1])


def _stack(*arrays):
    """np.stack(arrays) at a third of its call overhead."""
    return np.concatenate([a[None] for a in arrays])


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
    # the foot forces the last substep applied: the implicit penalty law at
    # its solved velocity, not the law at the new state
    contact_forces: np.ndarray = None  # (N, n_feet, 3)
    diverged: np.ndarray = None  # (N,)
    # feet whose friction cone the last substep saturated: the active-set
    # pass re-solved them with a sliding force
    cone_saturated: np.ndarray = None  # (N, n_feet)
    # (fields, fk, vel, feet): the kinematics of _kinematics and a copy of
    # the fields they derive from, against which it checks itself
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
    def from_tree(tree: KinematicTree, n: int) -> "BatchParams":
        mu = float(tree.contact.get("friction", 1.0))
        return BatchParams(
            masses=np.repeat(tree.mass[None], n, axis=0),
            gravity=np.repeat((GRAVITY_DIR * tree.gravity)[None], n, axis=0),
            friction=np.full(n, mu),
        )


def _require_finite(name, arr):
    arr = np.asarray(arr)
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"non-finite value in {name} at index {tuple(bad)}")


# ---------------------------------------------------------------------------
# kinematic passes


def _fk(ct: KinematicTree, bs: BatchState):
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


def _velocities(ct: KinematicTree, bs: BatchState, fk):
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


def _bias_accelerations(ct: KinematicTree, bs: BatchState, fk, vel):
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
        lever = _stack(p[:, bodies] - p[:, parents], v_o[:, bodies] - v_o[:, parents],
                       fk["a_w"][:, joints])
        terms = _cross(_stack(al_p, w_p, w_p), lever)
        a_o[:, bodies] = a_o[:, parents] + terms[0] + terms[1]
        alpha[:, bodies] = al_p + bs.qdot[:, joints, None] * terms[2]
    terms = _cross(_stack(alpha, w), _stack(fk["c"] - p, vel["v_c"] - v_o))
    return {"alpha": alpha, "a_c": a_o + terms[0] + terms[1]}


def _world_inertia(ct: KinematicTree, fk):
    """Body rotational inertias about their coms in world axes, R I R'.
    (Stacked tiny matmuls are fast on contiguous operands only, hence the
    copy of R'.)"""
    R = fk["R"]
    return R @ (ct.inertia @ np.ascontiguousarray(R.swapaxes(-1, -2)))


# ---------------------------------------------------------------------------
# block-arrow assembly and solve


def _per_branch(ct: KinematicTree, x):
    """View (N, n_br, d, ...) of the jointed part of axis 1 of x: its last
    n_br * d entries, which are the branch bodies of a body array, all of a
    joint array, or the joint rates of a generalized vector."""
    n_br, d = ct.n_branches, ct.branch_size
    return x[:, x.shape[1] - n_br * d:].reshape((x.shape[0], n_br, d) + x.shape[2:])


def _local(ct: KinematicTree, v):
    """Generalized vector v (N, nv) in each branch's local coordinates
    [base, branch joints]: (N, n_br, nb + d)."""
    nb = ct.n_base
    base = np.repeat(v[:, None, :nb], ct.n_branches, axis=1)
    return np.concatenate([base, _per_branch(ct, v)], axis=-1)


def _from_local(ct: KinematicTree, y):
    """Generalized force (N, nv) of forces y (N, n_br, nb + d) given in each
    branch's local coordinates: the base parts add up."""
    nb = ct.n_base
    return np.concatenate([y[..., :nb].sum(axis=1), y[..., nb:].reshape(y.shape[0], -1)], axis=1)


def _foot_jacobians(ct: KinematicTree, fk, pos):
    """Linear Jacobians (N, n_br, 3, nb + d) of the foot points pos
    (N, n_br, 3), foot i on branch i, over each branch's local coordinates:
    the nb base velocities, [I, -skew(pos - p0)], then the branch's d
    joints, a_s x (pos - o_s): the foot is on the chain's last body, so each
    of them moves it."""
    lever = pos[:, :, None] - _per_branch(ct, fk["o_w"])
    cols = _cross(_per_branch(ct, fk["a_w"]), lever)
    J = np.empty(pos.shape + (ct.n_base + ct.branch_size,))
    if ct.floating:
        J[..., 0:3] = EYE3
        J[..., 3:6] = -skew(pos - fk["p"][:, :1])
    J[..., ct.n_base:] = cols.swapaxes(-1, -2)
    return J


def _mass_blocks(ct: KinematicTree, params: BatchParams, fk, vel, bias):
    """The mass matrix and the bias forces in block-arrow form, assembled
    from composite rigid bodies.

    Each body's inertia and bias wrench are taken about the base origin p0
    (the world origin for a fixed base), in the coordinates of the base
    velocity (v_p0, w), as 19 numbers: the mass m, the first moment h = m r,
    the rotational inertia J = I_w + m (|r|^2 1 - r r') with r = c - p0, and
    the wrench (f, n + r x f) of the body's bias force f and moment n. Their
    spatial inertia is [[m 1, -[h]], [[h], J]]. Summed over the bodies each
    joint moves, they give the composite of each joint s, which maps the
    joint's twist s_s = [v; a] = [(o_s - p0) x a_s; a_s] to the wrench
    F_s = [m v - h x a; h x v + J a]. Then M_bl[:, s] = F_s,
    M_ll[s, t] = s_s . F_t for s an ancestor of t (or t itself), and
    h_s = s_s . W_s for the composite wrench W_s.

    Returns T (N, nb, nb), the base body's share of the base-base block;
    K (N, n_br, nb + d, nb + d), each branch's block over its local
    coordinates [base, branch joints], whose base-base part is the branch's
    composite inertia, so that T + sum K_bb = M_bb; and h (N, nv), the
    generalized bias force (gravity and velocity products).
    """
    N, B = fk["R"].shape[:2]
    nb, n_br, d = ct.n_base, ct.n_branches, ct.branch_size
    m = params.masses[..., None]
    p0 = fk["p"][:, :1] if ct.floating else np.zeros((N, 1, 3))
    r = fk["c"] - p0
    I_w = _world_inertia(ct, fk)
    w = vel["w"]
    X = np.empty((N, B, 19))  # per body: m, h (3), J (3 x 3), f (3), n + r x f (3)
    X[..., 0] = params.masses
    h = np.multiply(m, r, out=X[..., 1:4])
    J = np.subtract(I_w, h[..., :, None] * r[..., None, :], out=X[..., 4:13].reshape(N, B, 3, 3))
    J.reshape(N, B, 9)[..., ::4] += (h * r).sum(axis=-1, keepdims=True)
    f = np.multiply(m, bias["a_c"] - params.gravity[:, None], out=X[..., 13:16])
    Iw = I_w @ np.concatenate([w[..., None], bias["alpha"][..., None]], axis=-1)
    t = _cross(_stack(w, r), _stack(Iw[..., 0], f))
    np.add(Iw[..., 1], t[0] + t[1], out=X[..., 16:19])  # I_w alpha + w x I_w w + r x f
    # composites over the bodies each joint moves
    Xb = _per_branch(ct, X)
    Xc = ct.moves @ Xb  # (N, n_br, d, 19)
    a = _per_branch(ct, fk["a_w"])
    v = _cross(_per_branch(ct, fk["o_w"]) - p0[:, None], a)
    hc = Xc[..., 1:4]
    t = _cross(_stack(hc, a), _stack(v, hc))
    twist = np.concatenate([v, a], axis=-1)  # (N, n_br, d, 6)
    Ja = np.einsum("nlsij,nlsj->nlsi", Xc[..., 4:13].reshape(N, n_br, d, 3, 3), a)
    # F' (N, n_br, 6, d): column s is F_s
    Ft = np.concatenate([(Xc[..., :1] * v + t[1]).swapaxes(-1, -2),
                         (t[0] + Ja).swapaxes(-1, -2)], axis=-2)
    P = twist @ Ft  # P[s, t] = s_s . F_t
    K = np.empty((N, n_br, nb + d, nb + d))
    K[..., :nb, nb:] = Ft[..., :nb, :]
    K[..., nb:, :nb] = Ft[..., :nb, :].swapaxes(-1, -2)
    # M_ll[s, t] is P[s, t] where s moves t's body, P[t, s] where t strictly
    # moves s's, and 0 between joints on different paths
    M_ll = np.multiply(ct.moves, P, out=K[..., nb:, nb:])
    M_ll += ct.moved_by * P.swapaxes(-1, -2)
    h_joints = np.einsum("nlsc,nlsc->nls", twist, Xc[..., 13:]).reshape(N, -1)
    if not ct.floating:
        return np.zeros((N, 0, 0)), K, h_joints
    # the spatial inertias of the base body and of each branch's composite,
    # which is that of the branch's first joint: it moves all the branch
    G = np.concatenate([X[:, :1], Xc[:, :, :1].reshape(N, n_br, 19)], axis=1)
    S = np.empty((N, 1 + n_br, 6, 6))
    S[..., :3, :3] = G[..., :1, None] * EYE3
    hx = (G[..., 1:4] @ _SKEW).reshape(N, 1 + n_br, 3, 3)  # [h]
    S[..., 3:, :3] = hx
    S[..., :3, 3:] = -hx
    S[..., 3:, 3:] = G[..., 4:13].reshape(N, 1 + n_br, 3, 3)
    K[..., :nb, :nb] = S[:, 1:]
    return S[:, 0], K, np.concatenate([G[..., 13:].sum(axis=1), h_joints], axis=1)


def _spd_solve(A):
    """Solve M X = B for stacks of small symmetric positive definite M
    (..., d, d), given A = [M | B] (..., d, d + c); returns X (..., d, c).
    An LDL' elimination unrolled over the d rows, each step vectorised over
    the stack: per-matrix LAPACK calls do not pay at d <= 3. Overwrites A."""
    d = A.shape[-2]
    for k in range(d - 1):  # L's column k below the pivot D_k
        below = A[..., k + 1:, k + 1:]
        np.subtract(below, A[..., k + 1:, k, None] / A[..., k, None, k, None]
                    * A[..., k, None, k + 1:], out=below)
    for k in reversed(range(d)):  # back-substitution, one unknown row at a time
        x = A[..., k, d:]
        np.divide(x, A[..., k, k, None], out=x)
        if k:
            above = A[..., :k, d:]
            np.subtract(above, A[..., :k, k, None] * x[..., None, :], out=above)
    return A[..., d:]


def _solve(ct: KinematicTree, T, K, r):
    """Solve M x = r for the block-arrow M given by the base block T and the
    branch blocks K (see ``_mass_blocks``).

    Each branch's joint block M_ll is eliminated, the base part solves the
    Schur complement S = M_bb - sum_l M_bl M_ll^-1 M_lb (nb x nb, LAPACK),
    and the joint rates follow by back-substitution.
    """
    nb = ct.n_base
    # M_ll^-1 [M_lb | r_l], (N, n_br, d, nb + 1)
    X = _spd_solve(np.concatenate(
        [K[..., nb:, nb:], K[..., nb:, :nb], _per_branch(ct, r)[..., None]], axis=-1))
    Y = K[..., :nb, nb:] @ X
    S = T + (K[..., :nb, :nb] - Y[..., :nb]).sum(axis=1)
    x_b = np.linalg.solve(S, r[:, :nb, None] - Y[..., nb:].sum(axis=1))
    x_l = X[..., nb:] - X[..., :nb] @ x_b[:, None]
    return np.concatenate([x_b[..., 0], x_l.reshape(r.shape[0], -1)], axis=1)


# ---------------------------------------------------------------------------
# contacts


def foot_points(ct: KinematicTree, fk, vel=None):
    """World positions (and velocities) of the foot contact points."""
    feet = np.asarray(ct.foot_body_indices, dtype=int)
    offs = ct.foot_offsets
    p = fk["p"][:, feet]
    R = fk["R"][:, feet]
    pos = p + (R @ offs[..., None])[..., 0]
    if vel is None:
        return pos, None
    v = vel["v_o"][:, feet] + _cross(vel["w"][:, feet], pos - p)
    return pos, v


def _penalty(contact_cfg, pos, vel):
    """The penalty law's terms at foot states pos/vel (N, n_feet, 3): the
    contact mask (z < 0), the normal spring force k_n * depth (N, n_feet),
    and the damper weights D (N, n_feet, 3) per foot axis: k_t on the tangent
    axes of feet in contact, c_n on the normal of feet in contact moving down."""
    k_n = float(contact_cfg["normal_stiffness"])
    c_n = float(contact_cfg["normal_damping"])
    k_t = float(contact_cfg["tangential_damping"])
    in_contact = pos[..., 2] < 0.0
    spring = k_n * np.where(in_contact, -pos[..., 2], 0.0)
    D = np.empty(pos.shape)
    D[..., 0] = D[..., 1] = k_t * in_contact
    D[..., 2] = c_n * (in_contact & (vel[..., 2] < 0.0))
    return in_contact, spring, D


def _cone(spring, D, friction, vel):
    """The law's normal force, tangent force (N, n_feet, 2), the tangent's
    norm and the Coulomb limit mu * normal at foot velocities vel, before
    the clamp; friction is (N,)."""
    normal = spring + D[..., 2] * np.maximum(0.0, -vel[..., 2])
    tangent = -D[..., :2] * vel[..., :2]
    t_norm = np.sqrt(tangent[..., 0] * tangent[..., 0] + tangent[..., 1] * tangent[..., 1])
    return normal, tangent, t_norm, friction[:, None] * normal


def contact_force_law(contact_cfg, friction, pos, vel):
    """Penalty normal + viscous tangent clamped to the Coulomb cone, all
    explicit at the given foot states.

    pos/vel are (N, n_feet, 3) world foot states; friction is (N,).
    Returns per-foot world forces (N, n_feet, 3); zero when not penetrating.
    """
    _, spring, D = _penalty(contact_cfg, pos, vel)
    normal, tangent, t_norm, limit = _cone(spring, D, friction, vel)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(t_norm > limit, limit / np.where(t_norm > 0, t_norm, 1.0), 1.0)
    forces = np.empty(pos.shape)
    forces[..., :2] = tangent * scale[..., None]
    forces[..., 2] = normal
    return forces


# ---------------------------------------------------------------------------
# forward dynamics and stepping


_KINEMATIC_FIELDS = ("base_pos", "base_quat", "base_linvel", "base_angvel", "q", "qdot")


def _kinematics(ct: KinematicTree, bs: BatchState):
    """(fk, vel, feet) of the state: ``_fk``, ``_velocities`` and the foot
    (positions, velocities) of ``foot_points``, None for a tree without
    feet. They are kept in ``bs.cache`` with a copy of the fields they
    derive from and recomputed when the bits of any of those fields differ
    from its copy: equal bits give the same kinematics bit for bit, and a
    NaN left alone compares equal, so a diverged row does not force a
    recompute every substep. (At N = 1 on 2 cores, numpy 2.4, comparing
    bytes took 2.5 us and np.array_equal(equal_nan=True) over the six fields
    52 us, against 1.2 ms for a substep.)"""
    now = [getattr(bs, name) for name in _KINEMATIC_FIELDS]
    if bs.cache is None or not all(
            a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(now, bs.cache[0])):
        fk = _fk(ct, bs)
        vel = _velocities(ct, bs, fk)
        feet = foot_points(ct, fk, vel) if ct.foot_body_indices else None
        bs.cache = (tuple(x.copy() for x in now), fk, vel, feet)
    return bs.cache[1:]


def _assemble(ct: KinematicTree, bs: BatchState, tau, push, params):
    """Common dynamics assembly: the mass blocks (T, K), the applied-minus-
    bias generalized force (without contact forces), and the foot context
    with each foot's Jacobian in its branch's local coordinates."""
    fk, vel, feet = _kinematics(ct, bs)
    bias = _bias_accelerations(ct, bs, fk, vel)
    T, K, h = _mass_blocks(ct, params, fk, vel, bias)
    rhs = -h
    rhs[:, ct.n_base:] += tau
    if push is not None:  # a force at the base origin, about which h is taken
        rhs[:, :3] += push
    contact = None
    if feet is not None:
        pos, v = feet  # foot f is on branch f
        contact = {"pos": pos, "vel": v, "J": _foot_jacobians(ct, fk, pos)}
    return T, K, rhs, contact


def _foot_force(ct: KinematicTree, J, forces):
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
    velocity, the (N, n_feet, 3) foot forces the solve applied,
    f_spring (+ f_slide) - D J v_new from each row's final solve, and the
    (N, n_feet) mask of the saturated feet.
    """
    pos, v, J = contact["pos"], contact["vel"], contact["J"]
    in_contact, spring, D = _penalty(ct.contact, pos, v)
    v_cur = _generalized_velocity(ct, bs)

    def solve(rows, D, slide=None):
        # D (n, F, 3): damper weights per foot axis; slide: the explicit
        # sliding force on the tangent axes. Returns the new velocity, the
        # foot velocities and the foot forces at it.
        def force(u):  # spring (+ slide) - D u at foot velocities u
            f = -D * u
            f[..., 2] += spring[rows]
            if slide is not None:
                f[..., :2] += slide
            return f

        J_r = J[rows]
        A = K[rows] + dt * (J_r.swapaxes(-1, -2) @ (D[..., None] * J_r))
        Q = rhs[rows] + _foot_force(ct, J_r, force(v[rows]))
        v_new = v_cur[rows] + dt * _solve(ct, T[rows], A, Q)
        v_feet = (J_r @ _local(ct, v_new)[..., None])[..., 0]
        return v_new, v_feet, force(v_feet)

    v_new, v_feet, applied = solve(slice(None), D)
    # implied contact forces at the new velocity
    _, f_tan, t_norm, limit = _cone(spring, D, params.friction, v_feet)
    saturated = in_contact & (t_norm > limit + 1e-12)
    rows = np.flatnonzero(saturated.any(axis=1))
    if rows.size:
        sat, t_r = saturated[rows, :, None], t_norm[rows, :, None]
        direction = f_tan[rows] / np.where(t_r > 0, t_r, 1.0)
        D_r = D[rows]
        D_r[..., :2] *= ~sat
        v_new[rows], _, applied[rows] = solve(rows, D_r, direction * limit[rows, :, None] * sat)
    return v_new, applied, saturated


def _generalized_velocity(ct, bs):
    parts = []
    if ct.floating:
        parts += [bs.base_linvel, bs.base_angvel]
    if ct.n_joints:
        parts.append(bs.qdot)
    return np.concatenate(parts, axis=1)


def _step_rows(ct: KinematicTree, bs: BatchState, tau, push, params, dt) -> BatchState:
    """``step_batch`` on the rows of bs: the new state with its contact
    flags, applied contact forces, saturated feet and kinematics cache."""
    T, K, rhs, contact = _assemble(ct, bs, tau, push, params)
    if contact is not None:
        v_new, applied, saturated = _implicit_contact_velocity_update(
            ct, bs, dt, T, K, rhs, contact, params)
    else:
        v_new = _generalized_velocity(ct, bs) + dt * _solve(ct, T, K, rhs)
        applied = np.zeros((bs.n, 1, 3))
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
        contact_forces=applied,
        diverged=diverged,
        cone_saturated=saturated,
    )
    feet = _kinematics(ct, new)[2]
    if feet is not None:
        new.contact_flags = feet[0][..., 2] < 0.0
    else:
        new.contact_flags = np.zeros((bs.n, 1), dtype=bool)
    return new


def _map(fn, *trees):
    """fn over the arrays of equally shaped nests of dicts, tuples and None."""
    head = trees[0]
    if head is None:
        return None
    if isinstance(head, dict):
        return {k: _map(fn, *(t[k] for t in trees)) for k in head}
    if isinstance(head, tuple):
        return tuple(_map(fn, *parts) for parts in zip(*trees))
    return fn(*trees)


def _state_fields(bs):
    return {f.name: getattr(bs, f.name) for f in fields(BatchState)}


def _shard(bs, tau, push, params, rows):
    """The inputs of ``_step_rows`` for the env rows ``rows`` (a slice)."""
    def cut(x):  # (N, k) inputs are per env; others broadcast over all rows
        x = np.asarray(x)
        return x[rows] if x.ndim == 2 and len(x) == bs.n else x

    shard = BatchState(**_map(lambda x: x[rows], _state_fields(bs)))
    return shard, cut(tau), None if push is None else cut(push), BatchParams(
        params.masses[rows], params.gravity[rows], params.friction[rows])


def _stitch(parts):
    """One state (and cache) of the row shards ``parts``, in order."""
    return BatchState(**_map(lambda *xs: np.concatenate(xs), *map(_state_fields, parts)))


def _pool():
    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(max_workers=max(1, _CORES - 1),
                                   thread_name_prefix="vsloco-step")
    return _POOL


def step_batch(ct: KinematicTree, bs: BatchState, tau, dt, push=None, params=None) -> BatchState:
    """One semi-implicit Euler substep for the whole batch.

    ``push`` (N, 3), if given, is a world force at the base origin of a
    floating tree. The new state carries the kinematics of its fields in
    its cache, which the next substep reads unless a field was edited in
    the meantime (see ``_kinematics``). Large batches run as row shards on
    the pool (see the module docstring).
    """
    if params is None:
        params = BatchParams.from_tree(ct, bs.n)
    shards = min(_CORES, bs.n // MIN_SHARD_ROWS)
    if shards < 2:
        return _step_rows(ct, bs, tau, push, params, dt)
    bounds = [bs.n * i // shards for i in range(shards + 1)]
    jobs = [_shard(bs, tau, push, params, slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    futures = [_pool().submit(_step_rows, ct, *job, dt=dt) for job in jobs[1:]]
    try:
        head = _step_rows(ct, *jobs[0], dt=dt)
    finally:  # wait for every shard, and raise its error if it failed
        tail = [f.result() for f in futures]
    return _stitch([head] + tail)


# ---------------------------------------------------------------------------
# checked entry points: each takes a BatchState of any N (a single
# simulation is N = 1) and returns arrays with the leading N axis.


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
    pos, _ = foot_points(tree, _fk(tree, state))
    state.base_pos[:, 2] = -pos[..., 2].min(axis=1)
    return state


def _check_push(tree, push):
    """Reject a push on a fixed-base tree or a non-finite one."""
    if push is not None:
        if not tree.floating:
            raise ValueError("a push needs a floating base")
        _require_finite("external force", push)


def forward_dynamics(tree: KinematicTree, state: BatchState, tau, push=None):
    """Generalized accelerations (N, nv) under gravity, contacts, tau and a
    push (a world force at the base origin).

    Contact forces follow the explicit penalty law at the given state.
    """
    tau = np.zeros(tree.n_joints) if tau is None else np.asarray(tau, dtype=float)
    _require_finite("tau", tau)
    _require_finite("q", state.q)
    _require_finite("qdot", state.qdot)
    _require_finite("base_pos", state.base_pos)
    _require_finite("base velocities", np.hstack([state.base_linvel, state.base_angvel]))
    _check_push(tree, push)
    params = BatchParams.from_tree(tree, state.n)
    T, K, rhs, contact = _assemble(tree, state, tau, push, params)
    if contact is not None:
        forces = contact_force_law(tree.contact, params.friction, contact["pos"], contact["vel"])
        rhs = rhs + _foot_force(tree, contact["J"], forces)
    return _solve(tree, T, K, rhs)


def contact_forces(tree: KinematicTree, state: BatchState, friction_coefficient):
    """Per-foot world contact forces (N, n_feet, 3) at the given state."""
    if friction_coefficient < 0:
        raise ValueError("friction_coefficient must be >= 0")
    fk = _fk(tree, state)
    pos, v = foot_points(tree, fk, _velocities(tree, state, fk))
    mu = np.full(state.n, float(friction_coefficient))
    return contact_force_law(tree.contact, mu, pos, v)


def step(tree: KinematicTree, state: BatchState, tau, push=None, dt_physics=0.002) -> BatchState:
    """Advance one substep; raises on out-of-range dt, non-finite input or
    a push on a fixed-base tree."""
    if not 0.0 < dt_physics <= MAX_DT:
        raise ValueError(f"dt_physics must be in (0, {MAX_DT}], got {dt_physics}")
    tau = np.zeros(tree.n_joints) if tau is None else np.asarray(tau, dtype=float)
    _require_finite("tau", tau)
    _check_push(tree, push)
    return step_batch(tree, state, tau, dt_physics, push=push)


def kinematics(tree: KinematicTree, state: BatchState):
    """Foot world positions and velocities, com, and the gravity direction
    in the base frame."""
    fk = _fk(tree, state)
    out = {
        "com_position": np.einsum("b,nbi->ni", tree.mass, fk["c"]) / tree.mass.sum(),
        "projected_gravity": np.einsum("nji,j->ni", quat_to_matrix(state.base_quat), GRAVITY_DIR)
        if tree.floating
        else np.tile(GRAVITY_DIR, (state.n, 1)),
    }
    if tree.foot_body_indices:
        out["foot_positions"], out["foot_velocities"] = foot_points(
            tree, fk, _velocities(tree, state, fk)
        )
    return out


def mass_matrix(tree: KinematicTree, state: BatchState):
    """Joint-space mass matrices (N, nv, nv) at the tree's nominal masses."""
    params = BatchParams.from_tree(tree, state.n)
    T, K, _, _ = _assemble(tree, state, 0.0, None, params)
    return _dense_mass_matrix(tree, T, K)


def _dense_mass_matrix(ct: KinematicTree, T, K):
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
    fk = _fk(tree, state)
    vel = _velocities(tree, state, fk)
    I_w = _world_inertia(tree, fk)
    ke = 0.5 * np.einsum("b,nbi,nbi->n", tree.mass, vel["v_c"], vel["v_c"])
    ke += 0.5 * np.einsum("nbi,nbij,nbj->n", vel["w"], I_w, vel["w"])
    pe = tree.gravity * np.einsum("b,nb->n", tree.mass, fk["c"][..., 2])
    return ke + pe


def total_linear_momentum(tree: KinematicTree, state: BatchState):
    """Total linear momentum (N, 3)."""
    fk = _fk(tree, state)
    return np.einsum("b,nbi->ni", tree.mass, _velocities(tree, state, fk)["v_c"])
