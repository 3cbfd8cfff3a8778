"""Floating-base articulated rigid-body dynamics with penalty ground contact.

The engine is batched over N environments. A state is a dict of the arrays
that ``state_layout`` declares, env axis first; a single simulation is a
state with N = 1. ``step_batch`` is the one entry point and does not check
its inputs (``EnvConfig`` checks the timestep; a diverged row is flagged in
the state's ``diverged``);
``contact_force_law`` is the contact law at a given state. Generalized
velocity layout is [base linear (world), base angular (world), joint rates]
for floating trees and [joint rates] for fixed-base trees.

The tree is a base plus branches that are serial chains, a foot at each end
(the quadruped: a trunk and four 3-DoF legs; a fixed-base chain: one branch
and no base block; a free box: a base and no branch; see ``KinematicTree``).
Every joint turns about a coordinate axis, so ``_fk`` turns two columns of
its parent's rotation in their plane (Featherstone 2008, ch. 4).
A branch's joints move only its own bodies and each foot sits on one
branch, so the mass matrix M and the implicit contact matrix M + dt J' D J
are block-arrow: a base block M_bb, one base-branch block M_bl and one
joint block M_ll per branch, nothing between branches. The engine keeps
them in their smallest form: the whole base block T = M_bb (nb x nb) and
each branch's joint columns K = [M_bl; M_ll] ((nb + d) x d), built by
``_mass_blocks`` from composite rigid-body inertias (Featherstone, "Rigid
Body Dynamics Algorithms", 2008, ch. 6). ``_add_dampers`` adds each foot's
contact term to T and to its branch's K in place, and ``_solve`` eliminates
the joint blocks and solves the nb x nb Schur complement of the base
(Featherstone, "Efficient factorization of the joint-space inertia matrix
for branched kinematic trees", IJRR 2005).

Integration is semi-implicit Euler: velocities from forward dynamics, then
positions from the new velocities, base orientation via the quaternion
exponential map. Besides the joint torques, the one applied load is a push:
a world force at the base origin of a floating tree, which enters the base
rows of the generalized force as it is.

``step_batch`` steps the engine state, a state's fields stored env-last
(field k is ``st[k].T``) and their kinematics (FK, velocities and foot
points; see ``_empty_state``), to the next one; a caller that edits a field
in place reruns ``_fill_kinematics``. ``_kinematics`` converts a state;
``standing_state`` places a robot from FK alone.

Ground contact is one penalty law (``_penalty``, ``_cone``): a spring on
penetration depth, viscous dampers and the Coulomb cone. A substep
integrates the dampers implicitly, and a state's ``contact_forces`` holds
the foot forces that solve applied. ``contact_force_law`` is the same law,
explicit at a given state.

Inside the engine every array is component-major with the env axis last
and contiguous: vectors (3, B, N), rotations and inertias (3, 3, B, N), the
body table of ``_mass_blocks`` (19, B, N), joint columns (nb + d, d, n_br, N)
and generalized vectors (nv, N); the chain bodies
of a body array are viewed as (..., d, n_br, N) by ``_per_branch``. So each
numpy call runs over whole rows of envs: a 3 x 3 product is one
leading-axis einsum or three row-wise multiply-adds, never one tiny matrix
product per env, and the small eliminations of ``_spd_solve`` run row by
row. No call sums over an axis in an order that depends on the batch, so a
row comes out the same bit for bit in any batch. A state, like the env's
rows (``env.row_layout``), keeps the env axis first and the engine state
keeps it last across a control step: ``env._physics`` converts the state's
rows once in before the substeps and once out after them.

A process steps one batch at a time (``step_batch`` is not safe to call
from two threads at once), so its scratch (``_scratch``) is one set of
buffers, sized to its batch and reused by every later substep: a warm
substep maps no fresh memory. The rows of a substep are independent, so a
caller may step a batch in row shards (``vsloco.shards``).
"""

import functools
import itertools
import math

import numpy as np

from .model import KinematicTree
from .rotations import IDENTITY_QUAT, quat_exp, quat_mul, quat_normalize, quat_to_matrix, skew

GRAVITY_DIR = np.array([0.0, 0.0, -1.0])
DIVERGENCE_SPEED = 1.0e4
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# the buffers of _scratch; arrays whose lifetimes do not overlap share one: 0
# holds _mass_blocks' body table, then the damper products and _solve's work;
# 1 the world inertias and joint twists, then the foot Jacobians; 2 the joint
# columns K
_SCRATCH = {}


def _cross(a, b, out=None):
    """a x b over the leading (component) axis."""
    if out is None:
        out = np.empty((3,) + np.broadcast(a[0], b[0]).shape)
    for i, j, k in _CYCLIC:
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
    return out


def _mv(A, x, out=None):
    """Matrices A (i, j, ...) times vectors x (j, ...) over the leading axes."""
    return np.einsum("ij...,j...->i...", A, x, out=out)


def _mm(A, B, out=None):
    """Matrices A (i, j, ...) times matrices B (j, k, ...) over the leading axes."""
    return np.einsum("ij...,jk...->ik...", A, B, out=out)


def _scratch(slot, *shapes):
    """Arrays of the given shapes, one after another in the buffer of the
    slot (see ``_SCRATCH``), which grows to its largest request and is
    reused by every later one; they hold until the slot's next request."""
    sizes = [math.prod(shape) for shape in shapes]
    buffer = _SCRATCH.get(slot)
    if buffer is None or buffer.size < sum(sizes):
        buffer = _SCRATCH[slot] = np.empty(sum(sizes))
    ends = itertools.accumulate(sizes)
    arrays = [buffer[e - size:e].reshape(shape) for shape, size, e in zip(shapes, sizes, ends)]
    return arrays if len(arrays) > 1 else arrays[0]


def state_layout(tree: KinematicTree):
    """The fields of a state, {name: (shape after the env axis, dtype)}. A
    tree without feet has one foot slot, which ``step_batch`` leaves zero."""
    nj, feet, f = (tree.n_joints,), (max(len(tree.foot_body_indices), 1),), float
    return {"base_pos": ((3,), f), "base_quat": ((4,), f), "base_linvel": ((3,), f),
            "base_angvel": ((3,), f), "q": (nj, f), "qdot": (nj, f), "time": ((), f),
            "contact_flags": (feet, bool),
            # the foot forces the last substep applied: the implicit penalty
            # law at its solved velocity, not the law at the new state
            "contact_forces": (feet + (3,), f), "diverged": ((), bool),
            # feet whose friction cone the last substep saturated: the
            # active-set pass re-solved them with a sliding force
            "cone_saturated": (feet, bool)}


def nominal_params(tree: KinematicTree, n):
    """The tree's physical parameters for n envs, env first: masses (n, B),
    world gravity acceleration (n, 3) and ground friction (n,)."""
    return {"masses": np.repeat(tree.mass[None], n, axis=0),
            "gravity": np.repeat((GRAVITY_DIR * tree.gravity)[None], n, axis=0),
            "friction": np.full(n, float(tree.contact.get("friction", 1.0)))}


# ---------------------------------------------------------------------------
# kinematic passes

# the arrays _fk reads (the base pose and q) and writes
_FK_FIELDS = ("base_pos", "base_quat", "q", "R", "p", "c", "a_w")


def _empty_state(ct: KinematicTree, n, keys=None):
    """Env-last arrays of n envs for the engine state (see ``step_batch``),
    or for its arrays named in keys: the fields of ``state_layout``, each
    with its shape reversed, and their kinematics: ``_fk``'s R (3, 3, B, n),
    p and c (3, B, n), a_w (3, nj, n); ``_velocities``' w, v_o and v_c
    (3, B, n); and foot_pos, foot_vel (3, n_feet, n) for a tree with feet."""
    B, nj = ct.n_bodies, ct.n_joints
    shapes = {key: (shape[::-1], dtype) for key, (shape, dtype) in state_layout(ct).items()}
    shapes.update({"R": ((3, 3, B), float), "p": ((3, B), float), "c": ((3, B), float),
                   "a_w": ((3, nj), float), "w": ((3, B), float), "v_o": ((3, B), float),
                   "v_c": ((3, B), float)})
    if ct.foot_body_indices:
        shapes["foot_pos"] = shapes["foot_vel"] = ((3, len(ct.foot_body_indices)), float)
    return {key: np.empty(shape + (n,), dtype) for key, (shape, dtype) in shapes.items()
            if keys is None or key in keys}


def _per_branch(ct: KinematicTree, x):
    """View (..., d, n_br, n) of the jointed part of x (..., k, n): the last
    n_br * d entries of its axis before the env axis, which are the chain
    bodies of a body array, all joints of a joint array or the joint rates
    of a generalized vector. Entry (s, b) is slot s of chain b."""
    n_br, d = ct.n_branches, ct.branch_size
    part = x[..., x.shape[-2] - n_br * d:, :]
    return part.reshape(part.shape[:-2] + (n_br, d, part.shape[-1])).swapaxes(-3, -2)


def _parents(ct: KinematicTree, x):
    """The values of a body array x (..., B, n) at each chain body's parent,
    (..., d, n_br, n): the chain's previous body, and for its first body the
    base, or zero for the fixed world."""
    chain = _per_branch(ct, x)
    out = np.empty(chain.shape)
    out[..., 0, :, :] = x[..., :1, :] if ct.floating else 0.0
    out[..., 1:, :, :] = chain[..., :-1, :, :]
    return out


def _cumulate(x):
    """Sum x (..., d, n_br, n) along its chains in place: slot s becomes the
    sum of slots 0 to s."""
    for s in range(1, x.shape[-3]):
        x[..., s, :, :] += x[..., s - 1, :, :]
    return x


def _fk(ct: KinematicTree, st):
    """World rotations/origins/coms of every body and world joint axes,
    written into st from its fields (a joint's origin is its body's). The
    chains are walked slot by slot, all chains at once; a joint about axis
    k keeps its parent's column k and turns the other two, i and j (cyclic
    after k), by cos q and +-sin q."""
    R, p = st["R"], st["p"]
    if ct.floating:
        R[:, :, 0] = quat_to_matrix(st["base_quat"].T).transpose(1, 2, 0)
        p[:, 0] = st["base_pos"]
    q = _per_branch(ct, st["q"])
    cos, sin = np.cos(q), ct.axis_sign * np.sin(q)
    Rc, pc = _per_branch(ct, R), _per_branch(ct, p)
    a_w = _per_branch(ct, st["a_w"])
    # a chain's first body hangs off the base, or off the fixed world
    Rp, pp = (R[:, :, :1], p[:, :1]) if ct.floating else (np.eye(3)[..., None, None], 0.0)
    for s, k in enumerate(ct.axis_index):
        i, j = (k + 1) % 3, (k + 2) % 3
        Rc[:, k, s] = Rp[:, k]
        Rc[:, i, s] = cos[s] * Rp[:, i] + sin[s] * Rp[:, j]
        Rc[:, j, s] = cos[s] * Rp[:, j] - sin[s] * Rp[:, i]
        np.multiply(ct.axis_sign[s], Rp[:, k], out=a_w[:, s])
        np.add(pp, _mv(Rp, ct.joint_origin[:, s]), out=pc[:, s])
        Rp, pp = Rc[:, :, s], pc[:, s]
    np.add(p, _mv(R, ct.com), out=st["c"])


def _velocities(ct: KinematicTree, st):
    """Body angular velocities and com/origin linear velocities (world),
    written into st. Along a chain, w adds each joint's spin a qdot and v_o
    each lever's w(parent) x (p - p(parent))."""
    w, v_o, p = st["w"], st["v_o"], st["p"]
    if ct.floating:
        w[:, 0] = st["base_angvel"]
        v_o[:, 0] = st["base_linvel"]
    if ct.n_branches:
        wc, vc = _per_branch(ct, w), _per_branch(ct, v_o)
        np.multiply(_per_branch(ct, st["a_w"]), _per_branch(ct, st["qdot"]), out=wc)
        if ct.floating:  # the chains start from the base's velocities
            wc[:, 0] += w[:, :1]
        _cumulate(wc)
        _cross(_parents(ct, w), _per_branch(ct, p) - _parents(ct, p), out=vc)
        if ct.floating:
            vc[:, 0] += v_o[:, :1]
        _cumulate(vc)
    np.add(v_o, _cross(w, st["c"] - p), out=st["v_c"])


def _foot_positions(ct: KinematicTree, st, out=None):
    """World positions (3, n_feet, n) of the foot contact points from st's
    FK: each foot is on the last body of its chain."""
    return np.add(_per_branch(ct, st["p"])[:, -1],
                  _mv(_per_branch(ct, st["R"])[:, :, -1], ct.foot_offsets.T[..., None]), out=out)


def foot_points(ct: KinematicTree, st):
    """World positions and velocities of the foot contact points, written
    into st."""
    pos = _foot_positions(ct, st, out=st["foot_pos"])
    np.add(_per_branch(ct, st["v_o"])[:, -1],
           _cross(_per_branch(ct, st["w"])[:, -1], pos - _per_branch(ct, st["p"])[:, -1]),
           out=st["foot_vel"])


def _fill_kinematics(ct: KinematicTree, st):
    _fk(ct, st)
    _velocities(ct, st)
    if ct.foot_body_indices:
        foot_points(ct, st)


def _bias_accelerations(ct: KinematicTree, st):
    """Angular and com accelerations (alpha, a_c) at zero generalized
    acceleration. Along a chain, alpha adds qdot w(parent) x a and the
    origin acceleration a_o adds alpha(parent) x (p - p(parent)) +
    w(parent) x (v_o - v_o(parent)); the base's are zero.

    The centripetal terms w x (w x r) take w x r from the velocity pass:
    v_o - v_o(parent) for the joint lever, v_c - v_o for the com.
    """
    p, w, v_o = st["p"], st["w"], st["v_o"]
    alpha = np.zeros(p.shape)
    a_o = np.zeros(p.shape)
    if ct.n_branches:
        w_p = _parents(ct, w)
        np.multiply(_per_branch(ct, st["qdot"]), _cross(w_p, _per_branch(ct, st["a_w"])),
                    out=_per_branch(ct, alpha))
        _cumulate(_per_branch(ct, alpha))
        np.add(_cross(_parents(ct, alpha), _per_branch(ct, p) - _parents(ct, p)),
               _cross(w_p, _per_branch(ct, v_o) - _parents(ct, v_o)),
               out=_per_branch(ct, a_o))
        _cumulate(_per_branch(ct, a_o))
    a_c = a_o + _cross(alpha, st["c"] - p) + _cross(w, st["v_c"] - v_o)
    return alpha, a_c


def _world_inertia(ct: KinematicTree, R, out=None, work=None):
    """Body rotational inertias about their coms in world axes, R I R' (R I into work)."""
    return np.einsum("ik...,jk...->ij...", _mm(R, ct.inertia, out=work), R, out=out)


# ---------------------------------------------------------------------------
# block-arrow assembly and solve


def _foot_jacobians(ct: KinematicTree, st):
    """Linear Jacobians (3, nb + d, n_br, n) of the foot points, foot i on
    branch i, over each branch's local coordinates: the nb base velocities,
    [I, -skew(pos - p0)], then the branch's d joints, a_s x (pos - p_s): the
    foot is on the chain's last body, so each of them moves it."""
    nb, n_br, d = ct.n_base, ct.n_branches, ct.branch_size
    pos = st["foot_pos"]
    a = _per_branch(ct, st["a_w"])
    lever = pos[:, None] - _per_branch(ct, st["p"])
    J = _scratch(1, (3, nb + d, n_br, pos.shape[-1]))
    if ct.floating:
        J[:, :3] = np.eye(3)[..., None, None]
        J[:, 3:6] = skew((pos - st["p"][:, :1]).T).T  # -[r], the transpose of [r]
    _cross(a, lever, out=J[:, nb:])
    return J


def _spatial_inertia(g, S):
    """Write the spatial inertia [[m 1, -[h]], [[h], J]] of the body table
    rows g (19, ...) (see ``_mass_blocks``) into S (6, 6, ...)."""
    minus_hx = skew(g[1:4].T).T  # -[h], the transpose of [h]: .T reverses every axis
    S[:3, :3] = 0.0
    for i in range(3):
        S[i, i] = g[0]
    S[:3, 3:] = minus_hx
    S[3:, :3] = minus_hx.swapaxes(0, 1)
    S[3:, 3:] = g[4:13].reshape((3, 3) + g.shape[1:])


def _mass_blocks(ct: KinematicTree, st, masses, gravity, alpha, a_c):
    """The mass matrix and the bias forces in block-arrow form, assembled
    from composite rigid bodies.

    Each body's inertia and bias wrench are taken about the base origin p0
    (the world origin for a fixed base), in the coordinates of the base
    velocity (v_p0, w), as 19 numbers: the mass m, the first moment h = m r,
    the rotational inertia J = I_w + m (|r|^2 1 - r r') with r = c - p0, and
    the wrench (f, n + r x f) of the body's bias force f and moment n. Their
    spatial inertia is [[m 1, -[h]], [[h], J]]. Summed over the bodies each
    joint moves (on a chain: its own body and those after it), they give the
    composite of each joint s, which maps the joint's twist
    s_s = [v; a] = [(p_s - p0) x a_s; a_s] to the wrench
    F_s = [m v - h x a; h x v + J a]. Then M_bl[:, s] = F_s,
    M_ll[s, t] = M_ll[t, s] = s_s . F_t for s an ancestor of t (or t
    itself), and h_s = s_s . W_s for the composite wrench W_s. M_bb is the
    spatial inertia of the base body's row plus each branch's composite,
    which is that of the branch's first joint.

    masses (B, n) and gravity (3, n) are env-last. Returns T = M_bb
    (nb, nb, n); K = [M_bl; M_ll] (nb + d, d, n_br, n), each branch's joint
    columns, in the calling thread's scratch; and h (nv, n), the generalized
    bias force (gravity and velocity products).
    """
    nb, n_br, d = ct.n_base, ct.n_branches, ct.branch_size
    B, n = masses.shape
    p0 = st["p"][:, :1] if ct.floating else np.zeros((3, 1, n))
    r = st["c"] - p0
    X = _scratch(0, (19, B, n))  # per body: m, h (3), J (3 x 3), f (3), n + r x f (3)
    J = X[4:13].reshape(3, 3, B, n)
    I_w = _world_inertia(ct, st["R"], out=_scratch(1, (3, 3, B, n)), work=J)
    X[0] = masses
    h = np.multiply(masses, r, out=X[1:4])
    np.subtract(I_w, np.einsum("i...,j...->ij...", h, r, out=J), out=J)
    hr = np.einsum("i...,i...->...", h, r)
    for i in range(3):
        J[i, i] += hr
    f = np.multiply(masses, np.subtract(a_c, gravity[:, None], out=X[13:16]), out=X[13:16])
    moment = _mv(I_w, alpha, out=X[16:19])
    moment += _cross(st["w"], _mv(I_w, st["w"]))
    moment += _cross(r, f)
    # composites over the bodies each joint moves, in place: the sums from
    # each slot to the end of its chain; branch arrays are (..., d, n_br, n)
    Xc = _per_branch(ct, X)
    for k in reversed(range(d - 1)):
        Xc[:, k] += Xc[:, k + 1]
    twist = _scratch(1, (6, d, n_br, n))  # [v; a] of each joint
    a = _per_branch(ct, st["a_w"])
    v = _cross(_per_branch(ct, st["p"]) - p0[:, None], a, out=twist[:3])
    twist[3:] = a
    hc = Xc[1:4]
    K = _scratch(2, (nb + d, d, n_br, n))
    F = K[:nb] if nb else np.empty((6, d, n_br, n))  # column s is F_s
    np.add(Xc[0] * v, _cross(a, hc), out=F[:3])
    np.add(_cross(hc, v), _mv(Xc[4:13].reshape(3, 3, d, n_br, n), a), out=F[3:])
    M_ll = np.einsum("csbn,ctbn->stbn", twist, F, out=K[nb:])
    for s in range(d):  # s_s . F_t is M_ll[s, t] for s <= t: mirror it
        for t in range(s):
            M_ll[s, t] = M_ll[t, s]
    h_all = np.empty((ct.nv, n))
    np.einsum("csbn,csbn->sbn", twist, Xc[13:], out=_per_branch(ct, h_all))
    if not ct.floating:
        return np.zeros((0, 0, n)), K, h_all
    g = X[:, 0].copy()  # the whole tree's row
    for b in range(n_br):
        g += Xc[:, 0, b]
    T = np.empty((6, 6, n))
    _spatial_inertia(g, T)
    h_all[:nb] = g[13:]
    return T, K, h_all


def _spd_solve(A):
    """Solve M X = B for symmetric positive definite M (d, d, ...), given
    A = [M | B] (d, d + c, ...); returns X (d, c, ...). An LDL' elimination
    unrolled over the d rows, each step a few calls over all trailing axes.
    Overwrites A."""
    d = A.shape[0]
    for k in range(d - 1):  # L's column k below the pivot D_k
        below = A[k + 1:, k + 1:]
        below -= A[k + 1:, k, None] / A[k, k] * A[k, None, k + 1:]
    for k in reversed(range(d)):  # back-substitution, one unknown row at a time
        x = A[k, d:]
        x /= A[k, k]
        if k:
            A[:k, d:] -= A[:k, k, None] * x
    return A[:, d:]


def _solve(ct: KinematicTree, T, K, r):
    """Solve M x = r for the block-arrow M given by the base block T and the
    joint columns K (see ``_mass_blocks``); r and x are (nv, n).

    Each branch's joint block M_ll is eliminated, the base part solves the
    Schur complement S = M_bb - sum_l M_bl M_ll^-1 M_lb (nb x nb), and the
    joint rates follow by back-substitution.
    """
    nb, n_br, d = ct.n_base, ct.n_branches, ct.branch_size
    x, n = np.empty(r.shape), r.shape[-1]
    A, Y = _scratch(0, (d, d + nb + 1, n_br, n), (nb, nb + 1, n_br, n))
    A[:, :d] = K[nb:]
    A[:, d:-1] = K[:nb].swapaxes(0, 1)
    A[:, -1] = _per_branch(ct, r)
    X = _spd_solve(A)  # M_ll^-1 [M_lb | r_l], (d, nb + 1, n_br, n)
    if nb:
        _mm(K[:nb], X, out=Y)  # M_bl M_ll^-1 [M_lb | r_l]
        S = np.concatenate([T, r[:nb, None]], axis=1)  # the Schur complement | its rhs
        for b in range(n_br):
            S -= Y[..., b, :]
        x[:nb] = _spd_solve(S)[:, 0]
        X = X[:, nb] - _mv(X[:, :nb], x[:nb, None])
    else:
        X = X[:, 0]
    _per_branch(ct, x)[...] = X
    return x


# ---------------------------------------------------------------------------
# contacts


def _penalty(contact_cfg, pos, vel):
    """The penalty law's terms at foot states pos/vel (3, n_feet, n): the
    contact mask (z < 0), the normal spring force k_n * depth (n_feet, n),
    and the damper weights D (3, n_feet, n) per foot axis: k_t on the
    tangent axes of feet in contact, c_n on the normal of feet in contact
    moving down."""
    k_n = float(contact_cfg["normal_stiffness"])
    c_n = float(contact_cfg["normal_damping"])
    k_t = float(contact_cfg["tangential_damping"])
    in_contact = pos[2] < 0.0
    spring = k_n * np.where(in_contact, -pos[2], 0.0)
    D = np.empty(pos.shape)
    D[0] = D[1] = k_t * in_contact
    D[2] = c_n * (in_contact & (vel[2] < 0.0))
    return in_contact, spring, D


def _cone(spring, D, friction, vel):
    """The law's normal force, tangent force (2, n_feet, n), the tangent's
    norm and the Coulomb limit mu * normal at foot velocities vel, before
    the clamp; friction is (n,)."""
    normal = spring + D[2] * np.maximum(0.0, -vel[2])
    tangent = -D[:2] * vel[:2]
    t_norm = np.sqrt(tangent[0] * tangent[0] + tangent[1] * tangent[1])
    return normal, tangent, t_norm, friction * normal


def contact_force_law(contact_cfg, friction, pos, vel):
    """Penalty normal + viscous tangent clamped to the Coulomb cone, all
    explicit at the given foot states.

    pos/vel are (N, n_feet, 3) world foot states; friction is (N,).
    Returns per-foot world forces (N, n_feet, 3); zero when not penetrating.
    """
    pos, vel = pos.T, vel.T
    _, spring, D = _penalty(contact_cfg, pos, vel)
    normal, tangent, t_norm, limit = _cone(spring, D, friction, vel)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(t_norm > limit, limit / np.where(t_norm > 0, t_norm, 1.0), 1.0)
    forces = np.empty(pos.shape)
    forces[:2] = tangent * scale
    forces[2] = normal
    return forces.T


# ---------------------------------------------------------------------------
# forward dynamics and stepping


def _kinematics(ct: KinematicTree, state):
    """The engine state (see ``step_batch``) of a mapping that holds every
    field of ``state_layout``, env first: those fields env-last and their
    kinematics."""
    st = _empty_state(ct, len(state["q"]))
    for key in state_layout(ct):
        st[key][...] = state[key].T
    _fill_kinematics(ct, st)
    return st


def _inputs(ct: KinematicTree, n, tau, push, params):
    """Env-last views of step_batch's inputs: tau (nj, n), push (3, n) or
    None, masses (B, n), gravity (3, n) and friction (n,)."""
    return {"tau": np.broadcast_to(tau, (n, ct.n_joints)).T,
            "push": None if push is None else np.broadcast_to(push, (n, 3)).T,
            "masses": params["masses"].T, "gravity": params["gravity"].T,
            "friction": params["friction"]}


def _assemble(ct: KinematicTree, st, inp):
    """Common dynamics assembly: the mass blocks (T, K), the applied-minus-
    bias generalized force (without contact forces), and the foot context
    (positions, velocities, Jacobians in each branch's local coordinates)."""
    alpha, a_c = _bias_accelerations(ct, st)
    T, K, h = _mass_blocks(ct, st, inp["masses"], inp["gravity"], alpha, a_c)
    rhs = -h
    rhs[ct.n_base:] += inp["tau"]
    if inp["push"] is not None:  # a force at the base origin, about which h is taken
        rhs[:3] += inp["push"]
    contact = None
    if ct.foot_body_indices:  # foot f is on branch f
        contact = st["foot_pos"], st["foot_vel"], _foot_jacobians(ct, st)
    return T, K, rhs, contact


def _add_dampers(ct: KinematicTree, T, K, J, E):
    """Add J' E J of the foot Jacobians J (3, nb + d, n_br, n) and damper
    weights E (3, n_feet, n) per foot axis to the blocks (T, K) in place:
    each foot's joint columns to its branch's K, and its base-base part,
    summed over the branches, to T."""
    nb, n_br = ct.n_base, ct.n_branches
    EJ, P = _scratch(0, J.shape, (max(K.size, T.size * n_br),))  # P: each product in turn
    np.multiply(E[:, None], J, out=EJ)
    K += np.einsum("ai...,aj...->ij...", J, EJ[:, nb:], out=P[:K.size].reshape(K.shape))
    P = np.einsum("ai...,aj...->ij...", J[:, :nb], EJ[:, :nb],
                  out=P[:T.size * n_br].reshape((nb, nb) + K.shape[2:]))
    for b in range(n_br):
        T += P[..., b, :]


def _foot_force(ct: KinematicTree, J, forces):
    """Generalized force (nv, n) of per-foot world forces (3, n_feet, n):
    each foot's in its branch's local coordinates, the base parts summed."""
    nb, y = ct.n_base, _mv(J.swapaxes(0, 1), forces)  # (nb + d, n_br, n)
    out = np.empty((ct.nv, y.shape[-1]))
    out[:nb] = y[:nb, 0]
    for b in range(1, ct.n_branches):
        out[:nb] += y[:nb, b]
    _per_branch(ct, out)[...] = y[nb:]
    return out


def _implicit_contact_velocity_update(ct, v_cur, dt, T, K, rhs, contact, friction):
    """Velocity update with the contact dampers integrated implicitly.

    The explicit contact dampers are unconditionally unstable at the model's
    stiffness constants and dt (k_t dt far exceeds the foot's apparent mass),
    so the damper force is evaluated at the end-of-step velocity: the damper
    Jacobian dt * J' D J joins the mass matrix in place (``_add_dampers``).
    The velocity change then solves
    (M + dt J' D J) dv = dt (rhs + J' (f_spring - D J v)). The Coulomb cone is
    enforced by one active-set pass: feet whose implied tangent force exceeds
    mu * N are re-solved with an explicit saturated sliding force, in the
    rows (envs) that have such a foot only. Returns the new generalized
    velocity (nv, n), the (3, n_feet, n) foot forces the solve applied,
    f_spring (+ f_slide) - D J v_new from each row's final solve, and the
    (n_feet, n) mask of the saturated feet.
    """
    nb, (pos, v, J) = ct.n_base, contact
    in_contact, spring, D = _penalty(ct.contact, pos, v)
    _add_dampers(ct, T, K, J, dt * D)  # now the blocks of M + dt J' D J

    def solve(T, K, J, rhs, v_cur, v, spring, D, slide=None):
        # the rows' blocks with the dampers D (3, F, n), foot Jacobians,
        # forces, velocities and springs; slide: the explicit sliding force
        # on the tangent axes. Returns the new velocity, the foot velocities
        # and the foot forces at it.
        def force(u):  # spring (+ slide) - D u at foot velocities u
            f = -D * u
            f[2] += spring
            if slide is not None:
                f[:2] += slide
            return f

        Q = rhs + _foot_force(ct, J, force(v))
        v_new = v_cur + dt * _solve(ct, T, K, Q)
        v_feet = _mv(J[:, :nb], v_new[:nb, None]) + _mv(J[:, nb:], _per_branch(ct, v_new))
        return v_new, v_feet, force(v_feet)

    v_new, v_feet, applied = solve(T, K, J, rhs, v_cur, v, spring, D)
    # implied contact forces at the new velocity
    _, f_tan, t_norm, limit = _cone(spring, D, friction, v_feet)
    saturated = in_contact & (t_norm > limit + 1e-12)
    rows = np.flatnonzero(saturated.any(axis=0))
    if rows.size:
        # env-last copies of the rows: a[..., rows] would lay them out env-first
        take = functools.partial(np.take, indices=rows, axis=-1)
        sat, t_r = take(saturated), take(t_norm)
        direction = take(f_tan) / np.where(t_r > 0, t_r, 1.0)
        D_r = take(D)
        D_r[:2] *= ~sat
        # the rows' blocks without the tangent dampers of the saturated feet
        T_r, K_r, J_r = take(T), take(K), take(J)
        _add_dampers(ct, T_r, K_r, J_r, dt * (D_r - take(D)))
        v_new[:, rows], _, applied[..., rows] = solve(
            T_r, K_r, J_r, take(rhs), take(v_cur), take(v), take(spring), D_r,
            direction * take(limit) * sat)
    return v_new, applied, saturated


def _generalized_velocity(ct, st):
    parts = [st["base_linvel"], st["base_angvel"]] if ct.floating else []
    return np.concatenate(parts + [st["qdot"]])


def step_batch(ct: KinematicTree, st, tau, dt, push=None, params=None):
    """One semi-implicit Euler substep for the whole batch.

    st is the engine state: the fields of a state env-last (field k is
    ``st[k].T``, so time is (n,) and contact_forces (3, n_feet, n)) and the
    kinematics of its fields. ``push`` (N, 3), if given, is a world force at
    the base origin of a floating tree; params holds masses, gravity and
    friction env first (``nominal_params`` if None). Returns the new engine
    state.
    """
    n = st["q"].shape[-1]
    if params is None:
        params = nominal_params(ct, n)
    T, K, rhs, contact = _assemble(ct, st, _inputs(ct, n, tau, push, params))
    v_cur = _generalized_velocity(ct, st)
    nb, new = ct.n_base, _empty_state(ct, n)
    if contact is not None:
        v_new, new["contact_forces"], new["cone_saturated"] = _implicit_contact_velocity_update(
            ct, v_cur, dt, T, K, rhs, contact, params["friction"])
    else:
        v_new = v_cur + dt * _solve(ct, T, K, rhs)
        for key in ("contact_flags", "contact_forces", "cone_saturated"):
            new[key][...] = 0
    if ct.floating:
        new["base_linvel"][...] = v_new[0:3]
        new["base_angvel"][...] = v_new[3:6]
        np.add(st["base_pos"], dt * v_new[0:3], out=new["base_pos"])
        new["base_quat"][...] = quat_normalize(quat_mul(
            quat_exp(dt * v_new[3:6].T), st["base_quat"].T)).T
    else:
        for key in ("base_pos", "base_quat", "base_linvel", "base_angvel"):
            new[key][...] = st[key]
    new["qdot"][...] = v_new[nb:]
    np.add(st["q"], dt * v_new[nb:], out=new["q"])
    _fill_kinematics(ct, new)
    if contact is not None:
        np.less(new["foot_pos"][2], 0.0, out=new["contact_flags"])
    np.add(st["time"], dt, out=new["time"])
    # negated so that a non-finite velocity counts as diverged
    new["diverged"][...] = ~(np.abs(v_new).max(axis=0) <= DIVERGENCE_SPEED) | st["diverged"]
    return new


# ---------------------------------------------------------------------------
# initial states


def default_state(tree: KinematicTree, q=None, base_pos=(0.0, 0.0, 0.0)):
    """Upright state at rest in pose q. N is the row count of a 2-D q, else 1."""
    q = np.atleast_2d(np.zeros(tree.n_joints) if q is None else np.asarray(q, dtype=float))
    state = {key: np.zeros((len(q),) + shape, dtype)
             for key, (shape, dtype) in state_layout(tree).items()}
    state["base_pos"][...] = base_pos
    state["base_quat"][...] = IDENTITY_QUAT
    state["q"][...] = q
    return state


def standing_state(tree: KinematicTree, q=None):
    """``default_state`` in pose q (the default pose if None) with each base
    placed so that its lowest foot touches the floor exactly (z = 0).

    The feet's heights come from FK alone: ``_fk`` of the state with its
    base at the origin, on env-last arrays of only the fields FK reads and
    writes, plus each foot's offset on its chain's last body. The state
    carries no kinematics; the first substep computes them.
    """
    state = default_state(tree, q=tree.default_pose if q is None else q)
    st = _empty_state(tree, len(state["q"]), _FK_FIELDS)
    for key in ("base_pos", "base_quat", "q"):
        st[key][...] = state[key].T
    _fk(tree, st)
    state["base_pos"][:, 2] = -_foot_positions(tree, st)[2].min(axis=0)
    return state
