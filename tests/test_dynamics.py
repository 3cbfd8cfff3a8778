"""Physics-core tests: closed-form oracles, conservation laws, contact law."""

import copy
import dataclasses
import tracemalloc

import dense_dynamics as dense
import numpy as np
import pytest
from dense_dynamics import double_pendulum_tree, floating_box_tree, pendulum_tree

from vsloco import dynamics as dyn
from vsloco.model import Body, JointSpec, KinematicTree, SpatialInertia, build_quadruped
from vsloco.rotations import quat_exp, quat_mul, quat_normalize

G = 9.81


@pytest.fixture(scope="module")
def quad():
    return build_quadruped()


def pendulum_state(tree, q, qdot=0.0):
    s = dyn.default_state(tree)
    s.q[:] = q
    s.qdot[:] = qdot
    return s


def _assembly(tree, s, tau, push=None, params=None):
    """The engine's env-last assembly (T, K, rhs, contact) of state s, at
    the tree's nominal parameters unless params are given."""
    params = dyn.BatchParams.from_tree(tree, s.n) if params is None else params
    inputs = dyn._inputs(tree, s.n, tau, push, params)
    return dyn._assemble(tree, dyn._kinematics(tree, s), inputs)


def _qacc(tree, s, tau):
    """Generalized accelerations (N, nv) of a state with no foot in the
    floor, where the penalty law applies no force: the engine's block solve
    of its assembly at the tree's nominal parameters."""
    T, K, rhs, contact = _assembly(tree, s, tau)
    assert contact is None or np.all(contact[0][2] >= 0.0), "a foot is in the floor"
    return dyn._solve(tree, T, K, rhs).T


def _mass_matrix(tree, s):
    """The engine's mass matrix (N, nv, nv) at the tree's nominal masses."""
    T, K = _assembly(tree, s, 0.0)[:2]
    return dense.blocks_to_dense(tree, T, K)


# ---------------------------------------------------------------------------
# forward dynamics oracles


def test_pendulum_matches_closed_form():
    l = 0.5
    tree = pendulum_tree(mass=1.3, length=l)
    s = pendulum_state(tree, 0.3)
    qacc = _qacc(tree, s, np.zeros(1))
    assert abs(qacc[0, 0] - (-(G / l) * np.sin(0.3))) < 1e-9


def test_pendulum_with_torque():
    # q'' = (tau - m g l sin q) / (m l^2)
    m, l, tau, q0 = 2.0, 0.7, 1.5, -0.4
    tree = pendulum_tree(mass=m, length=l)
    s = pendulum_state(tree, q0)
    qacc = _qacc(tree, s, np.array([tau]))
    expected = (tau - m * G * l * np.sin(q0)) / (m * l * l)
    assert abs(qacc[0, 0] - expected) < 1e-9


def test_free_floating_trunk_free_fall(quad):
    s = dyn.default_state(quad, q=quad.default_pose, base_pos=(0, 0, 2.0))
    qacc = _qacc(quad, s, np.zeros(12))[0]
    assert np.allclose(qacc[0:3], [0, 0, -G], atol=1e-12)
    assert np.allclose(qacc[3:6], 0, atol=1e-12)
    assert np.allclose(qacc[6:], 0, atol=1e-10)


def test_linearity_in_torque(quad):
    rng = np.random.default_rng(3)
    s = dyn.default_state(quad, q=quad.default_pose, base_pos=(0, 0, 1.0))
    s.qdot[:] = rng.normal(0, 1, 12)
    s.base_angvel[:] = rng.normal(0, 1, 3)
    t1 = rng.normal(0, 5, 12)
    t2 = rng.normal(0, 5, 12)
    a0 = _qacc(quad, s, np.zeros(12))
    a1 = _qacc(quad, s, t1)
    a2 = _qacc(quad, s, t2)
    a12 = _qacc(quad, s, t1 + t2)
    assert np.allclose(a12, a1 + a2 - a0, atol=1e-9)


def test_single_joint_torque_sign_flip(quad):
    s = dyn.default_state(quad, q=quad.default_pose, base_pos=(0, 0, 1.0))
    tau = np.zeros(12)
    tau[4] = 3.0
    a_plus = _qacc(quad, s, tau)
    a_minus = _qacc(quad, s, -tau)
    a0 = _qacc(quad, s, np.zeros(12))
    assert np.allclose(a_plus - a0, -(a_minus - a0), atol=1e-9)


def test_two_link_mass_matrix_closed_form():
    # planar 2R chain of point masses: textbook M(q)
    m1, m2, l1, l2 = 1.0, 0.7, 0.6, 0.4
    tree = double_pendulum_tree(m1, m2, l1, l2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        q1, q2 = rng.uniform(-np.pi, np.pi, 2)
        s = dyn.default_state(tree)
        s.q[:] = (q1, q2)
        M = _mass_matrix(tree, s)[0]
        m11 = m1 * l1**2 + m2 * (l1**2 + l2**2 + 2 * l1 * l2 * np.cos(q2))
        m12 = m2 * (l2**2 + l1 * l2 * np.cos(q2))
        m22 = m2 * l2**2
        expected = np.array([[m11, m12], [m12, m22]])
        assert np.allclose(M, expected, atol=1e-9)


def test_kinetic_energy_consistent_with_mass_matrix(quad):
    rng = np.random.default_rng(7)
    s = dyn.default_state(quad, q=quad.default_pose, base_pos=(0, 0, 1.0))
    s.q[:] += rng.normal(0, 0.3, 12)
    s.qdot[:] = rng.normal(0, 2, 12)
    s.base_linvel[:] = rng.normal(0, 1, 3)
    s.base_angvel[:] = rng.normal(0, 1, 3)
    M = _mass_matrix(quad, s)[0]
    v = np.concatenate([s.base_linvel[0], s.base_angvel[0], s.qdot[0]])
    ke_m = 0.5 * v @ M @ v
    kin = dense.engine_kinematics(quad, s)
    ke_b = 0.5 * np.einsum("b,nbi,nbi->", quad.mass, kin["v_c"], kin["v_c"])
    ke_b += 0.5 * np.einsum("nbi,nbij,nbj->", kin["w"], kin["I_w"], kin["w"])
    assert abs(ke_m - ke_b) < 1e-9 * max(1.0, ke_b)


def test_spinning_body_angular_momentum_rate_zero():
    # torque-free rigid body: I_w * alpha + w x I_w w = 0 at the acceleration level
    tree = floating_box_tree(gravity=0.0)
    s = dyn.default_state(tree, base_pos=(0, 0, 1.0))
    s.base_angvel[:] = (2.0, -1.0, 0.5)
    qacc = _qacc(tree, s, np.zeros(0))[0]
    I_w = dense.engine_kinematics(tree, s)["I_w"][0, 0]
    residual = I_w @ qacc[3:6] + np.cross(s.base_angvel[0], I_w @ s.base_angvel[0])
    assert np.allclose(residual, 0, atol=1e-10)
    assert np.allclose(qacc[0:3], 0, atol=1e-12)


def _copy(state, rows=slice(None)):
    """The rows of a state as a new state."""
    return dyn.BatchState(**{key: a[rows].copy() for key, a in vars(state).items()})


def test_entry_points_act_row_by_row(quad):
    # three poses and velocities in one N = 3 state, some feet in the floor:
    # each row is the same bit for bit alone; so is each row of both
    # pendulums and the pushed box. Row shards (vsloco.shards) rely on it.
    rng = np.random.default_rng(11)
    s = dyn.standing_state(quad, quad.default_pose + rng.normal(0, 0.2, (3, 12)))
    s.base_pos[:, 2] -= (0.0, 0.002, 0.004)
    s.base_linvel[:] = rng.normal(0, 0.5, (3, 3))
    s.base_angvel[:] = rng.normal(0, 0.5, (3, 3))
    s.qdot[:] = rng.normal(0, 1, (3, 12))
    cases = [(quad, s, rng.normal(0, 3, (3, 12)), rng.normal(0, 20, (3, 3)))]
    for tree, st in _other_trees(rng, 3):
        cases.append((tree, st, rng.normal(0, 1, (3, tree.n_joints)),
                      rng.normal(0, 3, (3, 3)) if tree.floating else None))
    for tree, s, tau, push in cases:
        batched = dense.engine_step(tree, s, tau, 0.002, push=push)
        if tree is quad:
            assert np.any(batched.contact_forces[..., 2] > 0.0)
        for i in range(3):
            rows = slice(i, i + 1)
            single = dense.engine_step(tree, _copy(s, rows), tau[rows], 0.002,
                                       push=None if push is None else push[rows])
            for key, a in vars(batched).items():
                assert np.array_equal(a[i], getattr(single, key)[0]), key


# ---------------------------------------------------------------------------
# block-arrow engine against the dense oracle (tests/dense_dynamics.py)


def _random_quad_batch(quad, rng, n, speed=1.0):
    """n quadruped states with feet up to 1 cm in the floor, random velocities
    and base pushes of the given scale, randomized body masses, and friction
    between 0.05 and 1."""
    s = dyn.standing_state(quad, quad.default_pose + rng.normal(0, 0.2, (n, 12)))
    s.base_pos[:, 2] -= rng.uniform(0.0, 0.01, n)
    s.base_linvel[:] = rng.normal(0, speed, (n, 3))
    s.base_angvel[:] = rng.normal(0, speed, (n, 3))
    s.qdot[:] = rng.normal(0, 2 * speed, (n, 12))
    params = dyn.BatchParams.from_tree(quad, n)
    params.masses *= rng.uniform(0.8, 1.2, params.masses.shape)
    params.friction[:] = rng.uniform(0.05, 1.0, n)
    return s, params, rng.normal(0, 50 * speed, (n, 3))


def _other_trees(rng, n):
    """(tree, state) pairs for the fixed-base chains and the floating box."""
    out = []
    for tree in (pendulum_tree(), double_pendulum_tree(), floating_box_tree()):
        s = dyn.default_state(tree, q=rng.normal(0, 1, (n, tree.n_joints)), base_pos=(0, 0, 1))
        s.qdot[:] = rng.normal(0, 2, s.qdot.shape)
        s.base_linvel[:] = rng.normal(0, 1, (n, 3))
        s.base_angvel[:] = rng.normal(0, 1, (n, 3))
        out.append((tree, s))
    return out


def _relative(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def test_block_assembly_matches_dense_oracle(quad):
    rng = np.random.default_rng(21)
    s, params, push = _random_quad_batch(quad, rng, 64)
    cases = [(quad, s, params, rng.normal(0, 5, (64, 12)), push)]
    for tree, st in _other_trees(rng, 8):
        tau = rng.normal(0, 1, (8, tree.n_joints))
        cases.append((tree, st, dyn.BatchParams.from_tree(tree, 8), tau,
                      rng.normal(0, 3, (8, 3)) if tree.floating else None))
    for tree, st, prm, tau, push in cases:
        T, K, rhs, _ = _assembly(tree, st, tau, push, prm)
        M_ref, rhs_ref, _ = dense.assemble(tree, st, tau, push, prm)
        assert _relative(dense.blocks_to_dense(tree, T, K), M_ref) <= 1e-12
        assert _relative(rhs.T, rhs_ref) <= 1e-12
        qacc_ref = np.linalg.solve(M_ref, rhs_ref[..., None])[..., 0]
        assert _relative(dyn._solve(tree, T, K, rhs).T, qacc_ref) <= 1e-12


def test_damper_update_matches_dense_oracle(quad):
    # the blocks after the in-place damper update are M + dt J' D J of the
    # dense oracle, with every damper and with the tangent dampers of the
    # feet the substep saturates taken out again, as its re-solve does
    rng = np.random.default_rng(31)
    s, params, push = _random_quad_batch(quad, rng, 64)
    tau = rng.normal(0, 5, (64, 12))
    dt = 0.002
    saturated = dense.engine_step(quad, s, tau, dt, push=push, params=params).cone_saturated.T
    rows = np.flatnonzero(saturated.any(axis=0))
    assert 0 < rows.size < 64
    M, _, contact = dense.assemble(quad, s, tau, push, params)

    def dense_with(D):  # M + dt J' D J for env-last weights D (3, n_feet, N)
        return M + dt * np.einsum("nfai,nfa,nfaj->nij", contact["J_p"], D.T, contact["J_p"])

    T, K, _, (pos, vel, J) = _assembly(quad, s, tau, push, params)
    D = dyn._penalty(quad.contact, pos, vel)[2]
    assert D[:2].any() and D[2].any()
    dyn._add_dampers(quad, T, K, J, dt * D)
    assert _relative(dense.blocks_to_dense(quad, T, K), dense_with(D)) <= 1e-12
    D_r = D.copy()
    D_r[:2] *= ~saturated
    T_r, K_r, J_r = T[..., rows], K[..., rows], J[..., rows]
    dyn._add_dampers(quad, T_r, K_r, J_r, dt * (D_r[..., rows] - D[..., rows]))
    assert _relative(dense.blocks_to_dense(quad, T_r, K_r), dense_with(D_r)[rows]) <= 1e-12


def test_tree_layouts_outside_the_block_form_rejected(quad):
    def link(parent):
        return Body(SpatialInertia(1.0, [0.0, 0.0, -0.1], np.eye(3) * 1e-3), parent=parent)

    def floating(parents, feet=()):
        joint = JointSpec([0.0, 1.0, 0.0], [0.0, 0.0, -0.1], (-3, 3), 10.0)
        return KinematicTree(bodies=[link(-1)] + [link(p) for p in parents],
                             joints=[joint] * len(parents), floating=True,
                             foot_body_indices=feet, foot_offsets=np.zeros((len(feet), 3)))

    assert floating([0, 1, 0, 3], feet=(2, 4)).n_branches == 2
    # branch sizes 1 and 2; branches interleaved; one branch forked after its first body
    for parents in ([0, 0, 2], [0, 0, 1, 2], [0, 1, 1]):
        with pytest.raises(ValueError, match="branch by branch"):
            floating(parents)
    with pytest.raises(ValueError, match="one foot on the last body of each branch"):
        floating([0, 1, 0, 3], feet=(1, 4))  # the first foot mid-chain
    with pytest.raises(ValueError, match="one foot on the last body of each branch"):
        KinematicTree(bodies=quad.bodies, joints=quad.joints, floating=True,
                      foot_body_indices=quad.foot_body_indices[::-1],
                      foot_offsets=quad.foot_offsets, contact=quad.contact)


def test_joint_axes_must_be_coordinate_axes(quad):
    JointSpec([0.0, 0.0, -1.0], [0.0, 0.0, 0.0], (-1, 1), 1.0)
    for axis in ([0.0, 0.6, 0.8], [0.0, 2.0, 0.0], [1.0, 1.0, 0.0]):
        with pytest.raises(ValueError, match="e_x, "):
            JointSpec(axis, [0.0, 0.0, 0.0], (-1, 1), 1.0)
    # the first leg's hip about y, the other legs' about x
    joints = list(quad.joints)
    joints[0] = dataclasses.replace(joints[0], axis=[0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="same axis in every branch"):
        dataclasses.replace(quad, joints=joints)


def _random_poses(quad, rng, n):
    """n quadruped states at random joint angles, base orientations and
    velocities."""
    s = dyn.default_state(quad, q=rng.uniform(-np.pi, np.pi, (n, 12)))
    s.base_pos[:] = rng.normal(0, 1, (n, 3))
    s.base_quat[:] = quat_normalize(rng.normal(0, 1, (n, 4)))
    s.base_linvel[:] = rng.normal(0, 1, (n, 3))
    s.base_angvel[:] = rng.normal(0, 1, (n, 3))
    s.qdot[:] = rng.normal(0, 2, (n, 12))
    return s


def test_fk_matches_the_joint_spec_reference(quad):
    s = _random_poses(quad, np.random.default_rng(21), 64)
    kin, ref = dense.engine_kinematics(quad, s), dense.reference_fk(quad, s)
    for key in ("R", "p", "a_w"):
        assert np.max(np.abs(kin[key] - ref[key])) <= 1e-12, key


def test_body_angular_velocity_is_the_rate_of_fk(quad):
    # w of every body against the central difference of FK's R along the
    # joint rates and the base's world angular velocity: [w] = dR/dt R'
    s, h = _random_poses(quad, np.random.default_rng(22), 64), 1e-5

    def rotations(t):
        moved = _copy(s)
        moved.q += t * s.qdot
        moved.base_quat[:] = quat_mul(quat_exp(t * s.base_angvel), s.base_quat)
        return dense.engine_kinematics(quad, moved)["R"]

    kin = dense.engine_kinematics(quad, s)
    W = (rotations(h) - rotations(-h)) / (2 * h) @ kin["R"].swapaxes(-1, -2)
    w = 0.5 * np.stack([W[..., 2, 1] - W[..., 1, 2], W[..., 0, 2] - W[..., 2, 0],
                        W[..., 1, 0] - W[..., 0, 1]], axis=-1)
    assert np.max(np.abs(w - kin["w"])) <= 1e-7


def test_negated_joint_axes_turn_the_bodies_the_same(quad):
    # sin(-q) * -1 is sin q and cos(-q) is cos q bit for bit, so a robot
    # whose every axis is negated, at -q, -qdot and -tau, moves the same:
    # over 20 substeps with feet in the floor its rotations, its base and
    # its contact forces stay the same bit for bit and its joints mirrored
    mirror = dataclasses.replace(quad, joints=[dataclasses.replace(j, axis=-j.axis)
                                               for j in quad.joints])
    rng = np.random.default_rng(23)
    s, params, push = _random_quad_batch(quad, rng, 16)
    m = _copy(s)
    m.q *= -1.0
    m.qdot *= -1.0
    s, m = dyn._kinematics(quad, s), dyn._kinematics(mirror, m)
    for _ in range(20):
        tau = rng.normal(0, 5, (16, 12))
        s = dyn.step_batch(quad, s, tau, 0.002, push=push, params=params)
        m = dyn.step_batch(mirror, m, -tau, 0.002, push=push, params=params)
        assert np.array_equal(s["R"], m["R"])
        assert np.array_equal(s["q"], -m["q"]) and np.array_equal(s["qdot"], -m["qdot"])
        for f in ("base_pos", "base_quat", "base_linvel", "base_angvel", "contact_forces"):
            assert np.array_equal(s[f], m[f]), f
    assert s["contact_flags"].any()


def _pd_torque(tree, q, qdot, q_ref):
    kp, kd = 150.0, 0.2 * np.sqrt(150.0)
    tau = kp * (q_ref - q) - kd * qdot
    return np.clip(tau, -tree.torque_limits, tree.torque_limits)


def test_step_batch_matches_dense_oracle_over_one_second(quad):
    # 500 substeps of 2 ms: the quadrupeds start from random poses and
    # velocities under a PD hold of the default pose, with feet sliding on
    # low-friction floors and a base push for 0.5 s (the box is pushed too)
    rng = np.random.default_rng(5)
    s, params, push = _random_quad_batch(quad, rng, 16, speed=0.3)
    runs = [(quad, s, params, push, lambda st: _pd_torque(quad, st.q, st.qdot, quad.default_pose))]
    for tree, st in _other_trees(rng, 4):
        runs.append((tree, st, dyn.BatchParams.from_tree(tree, 4),
                     rng.normal(0, 3, (4, 3)) if tree.floating else None,
                     lambda st, nj=tree.n_joints: np.zeros((st.n, nj))))
    for tree, st, prm, push, torque in runs:
        ref = copy.deepcopy(st)
        n_saturated = 0
        for _ in range(500):
            tau = torque(st)
            st = dense.engine_step(tree, st, tau, 0.002, push=push, params=prm)
            (base_pos, base_quat, v, q), saturated = dense.step_batch(
                tree, ref, torque(ref), 0.002, push=push, params=prm)
            ref = dyn.BatchState(base_pos=base_pos, base_quat=base_quat, base_linvel=v[:, 0:3],
                                 base_angvel=v[:, 3:6], q=q, qdot=v[:, tree.n_base:], time=st.time)
            if not tree.floating:
                ref.base_linvel, ref.base_angvel = st.base_linvel, st.base_angvel
            for f in ("base_pos", "base_quat", "base_linvel", "base_angvel", "q", "qdot"):
                assert np.abs(getattr(st, f) - getattr(ref, f)).max(initial=0.0) <= 1e-9, f
            if saturated is not None:
                assert np.array_equal(st.cone_saturated, saturated)
                n_saturated += int(saturated.sum())
            push = push if st.time[0] < 0.5 else None  # the pushes end at 0.5 s
        if tree is quad:
            assert 0 < n_saturated < 500 * 16 * 4


def test_warm_substep_allocates_little(quad):
    # once warm, a 512-row substep of a stance allocates its new state (1.7
    # MB with its kinematics) and small temporaries; its blocks, body table
    # and foot Jacobians are the module's scratch. With them allocated afresh
    # in every substep, the peak on this stance was 6.1 MB.
    st = dyn._kinematics(quad, dyn.standing_state(quad, np.tile(quad.default_pose, (512, 1))))

    def tau():
        return _pd_torque(quad, st["q"].T, st["qdot"].T, quad.default_pose)

    for _ in range(5):
        st = dyn.step_batch(quad, st, tau(), 0.002)
    torque = tau()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dyn.step_batch(quad, st, torque, 0.002)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6


@pytest.mark.parametrize("substeps", [1, 2])
def test_step_returns_the_kinematics_of_its_fields(quad, substeps):
    # the state step_batch returns, the input of the next substep, holds
    # every field of a BatchState env-last and, bit for bit, the kinematics
    # a fresh pass computes from a copy of its fields
    s, params, push = _random_quad_batch(quad, np.random.default_rng(3), 4)
    st = dyn._kinematics(quad, s)
    for _ in range(substeps):
        st = dyn.step_batch(quad, st, np.zeros((4, 12)), 0.002, push=push, params=params)
    fresh = dyn._empty_state(quad, 4)
    for key in vars(s):
        assert st[key].shape == getattr(s, key).T.shape, key
        if key in fresh:
            fresh[key][...] = st[key]
    dyn._fill_kinematics(quad, fresh)
    assert st.keys() == fresh.keys() | vars(s).keys()
    for key in fresh:
        assert np.array_equal(st[key], fresh[key]), key
    assert np.array_equal(st["contact_flags"], fresh["foot_pos"][2] < 0.0)


def test_non_finite_row_steps_to_diverged_quietly(quad):
    # a NaN velocity in one row is flagged diverged after a substep and
    # warns of nothing (RuntimeWarnings are errors in this suite); the
    # other row steps on
    s = dyn.standing_state(quad, np.tile(quad.default_pose, (2, 1)))
    s.qdot[1, 0] = np.nan
    assert dense.engine_step(quad, s, np.zeros(12), 0.002).diverged.tolist() == [False, True]


@pytest.mark.parametrize("substeps", [1, 2])
def test_reported_contact_forces_are_the_applied_ones(quad, substeps):
    # the last substep's generalized force balance on the dense oracle,
    # M (v_new - v) / dt - rhs = sum_f J_f' contact_forces[f], in the rows
    # whose sliding feet were re-solved and in the rows that were not, at
    # the first substep and at a second one
    rng = np.random.default_rng(8)
    new, params, push = _random_quad_batch(quad, rng, 16, speed=0.1)
    tau = rng.normal(0, 5, (16, 12))
    for _ in range(substeps):
        s = new
        M, rhs, contact = dense.assemble(quad, s, tau, push, params)
        new = dense.engine_step(quad, s, tau, 0.002, push=push, params=params)
    sliding = new.cone_saturated.any(axis=1)
    assert sliding.any() and not sliding.all()
    dv = dense.generalized_velocity(quad, new) - dense.generalized_velocity(quad, s)
    balance = (M @ dv[..., None])[..., 0] / 0.002 - rhs
    applied = dense.foot_wrench(contact["J_p"], new.contact_forces)
    for rows in (sliding, ~sliding):
        assert _relative(applied[rows], balance[rows]) <= 1e-9


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unrolled_spd_solve_matches_lapack(d):
    rng = np.random.default_rng(d)
    L = rng.normal(size=(50, 4, d, d))
    M = L @ L.swapaxes(-1, -2) + 0.1 * np.eye(d)
    B = rng.normal(size=(50, 4, d, 7))
    # the engine's layout: the matrix axes first, the stack axes last
    X = dyn._spd_solve(np.concatenate([M, B], axis=-1).transpose(2, 3, 0, 1))
    assert _relative(X.transpose(2, 3, 0, 1), np.linalg.solve(M, B)) <= 1e-12


def test_fixed_base_chains_solve_through_the_joint_blocks():
    # nb = 0: no base block and no Schur complement, only the unrolled
    # joint-block solve of one branch of 1 or 2 joints
    rng = np.random.default_rng(8)
    for tree in (pendulum_tree(), double_pendulum_tree()):
        s = dyn.default_state(tree, q=rng.normal(0, 1, (5, tree.n_joints)))
        s.qdot[:] = rng.normal(0, 2, s.qdot.shape)
        T, K, rhs, _ = _assembly(tree, s, rng.normal(0, 1, (5, tree.n_joints)))
        nj = tree.n_joints
        assert tree.n_base == 0 and T.shape == (0, 0, 5) and K.shape == (nj, nj, 1, 5)
        qacc = np.linalg.solve(dense.blocks_to_dense(tree, T, K), rhs.T[..., None])[..., 0]
        assert _relative(dyn._solve(tree, T, K, rhs).T, qacc) <= 1e-12


def test_cone_saturation_flags(quad):
    assert not dyn.default_state(quad).cone_saturated.any()
    # settled standing on mu = 1: every foot sticks
    kp, kd = 150.0, 0.2 * np.sqrt(150.0)
    s = dyn.standing_state(quad)
    for _ in range(500):
        tau = np.clip(kp * (quad.default_pose - s.q) - kd * s.qdot, -quad.torque_limits,
                      quad.torque_limits)
        s = dense.engine_step(quad, s, tau, 0.002)
    assert s.contact_flags.all()
    assert s.cone_saturated.shape == (1, 4) and not s.cone_saturated.any()
    # base sliding at 1 m/s on mu = 0.05: every foot in contact slides
    s = dyn.standing_state(quad)
    s.base_pos[0, 2] -= 0.002
    s.base_linvel[0] = (1.0, 0.0, 0.0)
    params = dyn.BatchParams.from_tree(quad, 1)
    params.friction[:] = 0.05
    s2 = dense.engine_step(quad, s, np.zeros((1, 12)), 0.002, params=params)
    assert s2.cone_saturated.all()


# ---------------------------------------------------------------------------
# integrator properties


def test_pendulum_energy_drift_below_one_percent():
    tree = pendulum_tree(mass=1.0, length=1.0)
    s = pendulum_state(tree, 0.5)
    e0 = dense.total_energy(tree, s)[0]
    # reference: lowest point of swing sets the energy scale
    e_min = -1.0 * G * 1.0
    scale = e0 - e_min
    worst = 0.0
    for _ in range(5000):
        s = dense.engine_step(tree, s, np.zeros(1), 0.002)
        worst = max(worst, abs(dense.total_energy(tree, s)[0] - e0))
    assert worst < 0.01 * scale


def test_double_pendulum_energy_drift_below_one_percent():
    tree = double_pendulum_tree()
    s = dyn.default_state(tree)
    s.q[:] = (0.6, 0.4)
    e0 = dense.total_energy(tree, s)[0]
    e_min = -(1.0 * 0.6 + 0.7 * 1.0) * G
    scale = e0 - e_min
    worst = 0.0
    for _ in range(5000):
        s = dense.engine_step(tree, s, np.zeros(2), 0.002)
        worst = max(worst, abs(dense.total_energy(tree, s)[0] - e0))
    assert worst < 0.01 * scale


def test_momentum_gains_exactly_gravity_impulse(quad):
    # zero angular/joint rates: velocity-product terms vanish and the
    # per-step momentum change equals m g dt to roundoff
    dt = 0.002
    m_tot = quad.mass.sum()
    s = dyn.default_state(quad, q=quad.default_pose, base_pos=(0, 0, 3.0))
    s.base_linvel[:] = (0.4, -0.2, 0.1)
    for _ in range(5):
        p_before = dense.total_linear_momentum(quad, s)[0]
        s2 = dense.engine_step(quad, s, np.zeros(12), dt)
        p_mid = m_tot * s2.base_linvel[0] + (
            dense.total_linear_momentum(quad, s2)[0] - m_tot * s2.base_linvel[0]
        )
        delta = p_mid - p_before
        assert np.allclose(delta, [0, 0, -m_tot * G * dt], rtol=0, atol=1e-10)
        s = s2


def test_determinism_bit_identical(quad):
    s0 = dyn.standing_state(quad)
    tau = np.linspace(-3, 3, 12)
    a = dense.engine_step(quad, s0, tau, 0.002)
    b = dense.engine_step(quad, copy.deepcopy(s0), tau, 0.002)
    for f in ("base_pos", "base_quat", "base_linvel", "base_angvel", "q", "qdot"):
        assert np.array_equal(getattr(a, f), getattr(b, f))


def test_quaternion_norm_preserved(quad):
    s = dyn.standing_state(quad)
    s.base_angvel[:] = (1.0, 2.0, -0.5)
    for _ in range(100):
        s = dense.engine_step(quad, s, np.zeros(12), 0.002)
        assert abs(np.linalg.norm(s.base_quat[0]) - 1.0) < 1e-9


def test_divergence_flagged():
    # the fast row alone, then beside a slow one
    tree = pendulum_tree()
    s = pendulum_state(tree, 0.0, qdot=2e4)
    s2 = dense.engine_step(tree, s, np.zeros(1), 0.002)
    assert s2.diverged[0]
    s = dyn.default_state(tree, q=np.zeros((2, 1)))
    s.qdot[1] = 2e4
    assert dense.engine_step(tree, s, np.zeros(1), 0.002).diverged.tolist() == [False, True]


def test_quasi_static_stand_drift(quad):
    # settle for 1 s under a stiff PD hold, then drift < 1e-3 m over 1 s
    kp, kd = 150.0, 0.2 * np.sqrt(150.0)
    tau_lim = quad.torque_limits
    s = dyn.standing_state(quad)
    q_ref = quad.default_pose

    def pd_step(state):
        tau = np.clip(kp * (q_ref - state.q) - kd * state.qdot, -tau_lim, tau_lim)
        return dense.engine_step(quad, state, tau, 0.002)

    for _ in range(500):
        s = pd_step(s)
    h_settled = s.base_pos[0, 2]
    for _ in range(500):
        s = pd_step(s)
    assert abs(s.base_pos[0, 2] - h_settled) < 1e-3
    # the settled stance also stays within 2 cm of the nominal height
    assert dyn.standing_state(quad).base_pos[0, 2] - s.base_pos[0, 2] < 0.02


# ---------------------------------------------------------------------------
# contact law


def _law_forces(tree, s, mu):
    """The penalty law's foot forces (N, n_feet, 3), explicit at the state."""
    kin = dyn._kinematics(tree, s)
    return dyn.contact_force_law(tree.contact, np.full(s.n, mu), kin["foot_pos"].T,
                                 kin["foot_vel"].T)


def test_contact_zero_above_floor(quad):
    s = dyn.standing_state(quad)
    s.base_pos[0, 2] += 0.002
    forces = _law_forces(quad, s, 1.0)
    assert np.allclose(forces, 0.0)
    flags = dense.engine_step(quad, s, np.zeros(12), 0.001).contact_flags
    # one substep of free fall from 2 mm cannot reach the floor
    assert not flags.any()


def test_contact_penalty_normal_value(quad):
    # static foot penetrating 1 mm with k_n = 30000 -> 30 N normal force
    s = dyn.standing_state(quad)
    s.base_pos[0, 2] -= 0.001
    forces = _law_forces(quad, s, 1.0)[0]
    assert np.allclose(forces[:, 2], 30.0, atol=1e-9)
    assert np.allclose(forces[:, :2], 0.0, atol=1e-12)


def test_contact_coulomb_clamp():
    # tangential demand 100 N vs mu * N = 25 N -> clamped to 25 N
    pos = np.array([[[0.0, 0.0, -50.0 / 30000.0]]])
    vel = np.array([[[100.0 / 3000.0, 0.0, 0.0]]])
    cfg = {"normal_stiffness": 30000.0, "normal_damping": 300.0, "tangential_damping": 3000.0}
    f = dyn.contact_force_law(cfg, np.array([0.5]), pos, vel)[0, 0]
    assert abs(f[2] - 50.0) < 1e-9
    assert abs(np.linalg.norm(f[:2]) - 25.0) < 1e-9
    assert f[0] < 0  # opposes sliding


def test_contact_normal_damping_only_on_approach():
    cfg = {"normal_stiffness": 30000.0, "normal_damping": 300.0, "tangential_damping": 3000.0}
    pos = np.array([[[0.0, 0.0, -0.001]]])
    approaching = np.array([[[0.0, 0.0, -0.2]]])
    separating = np.array([[[0.0, 0.0, 0.2]]])
    f_app = dyn.contact_force_law(cfg, np.array([1.0]), pos, approaching)[0, 0, 2]
    f_sep = dyn.contact_force_law(cfg, np.array([1.0]), pos, separating)[0, 0, 2]
    assert abs(f_app - (30.0 + 60.0)) < 1e-9
    assert abs(f_sep - 30.0) < 1e-9
    assert f_sep >= 0.0


# ---------------------------------------------------------------------------
# kinematics


def test_projected_gravity_upright_and_rolled(quad):
    def projected_gravity(s):  # world -z in the trunk frame of FK
        return dyn.GRAVITY_DIR @ dyn._kinematics(quad, s)["R"][:, :, 0, 0]

    s = dyn.standing_state(quad)
    g = projected_gravity(s)
    assert np.allclose(g, [0, 0, -1], atol=1e-12)
    s.base_quat[0] = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0, 0.0])  # roll 90 deg
    g = projected_gravity(s)
    assert abs(g[2]) < 1e-12
    assert abs(np.linalg.norm(g) - 1.0) < 1e-12


def test_default_stance_com_over_foot_centroid(quad):
    kin = dyn._kinematics(quad, dyn.standing_state(quad))
    com = kin["c"][..., 0] @ quad.mass / quad.mass.sum()
    centroid = kin["foot_pos"][:2, :, 0].mean(axis=1)
    assert np.allclose(com[:2], centroid, atol=1e-6)


@pytest.mark.parametrize("n", [1, 3, 64])
def test_standing_state_places_the_lowest_foot_from_fk(quad, n):
    # the FK-only placement gives, bit for bit, the height that the whole
    # kinematics pass of the state at z = 0 gives
    q = quad.default_pose + np.random.default_rng(n).normal(0, 0.3, (n, 12))
    at_origin = dyn._kinematics(quad, dyn.default_state(quad, q))["foot_pos"]
    s = dyn.standing_state(quad, q)
    assert np.array_equal(s.base_pos[:, 2], -at_origin[2].min(axis=0))
    assert not s.base_pos[:, :2].any()


def test_standing_state_allocates_little(quad):
    # placing 1024 robots allocates their state and the FK arrays (R, p, c,
    # a_w: about 1.9 MB); the traced peak is 3.0 MB. Through the whole
    # kinematics pass, with its velocities and foot velocities, it was 4.7 MB.
    q = np.tile(quad.default_pose, (1024, 1))
    dyn.standing_state(quad, q)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dyn.standing_state(quad, q)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6


def test_feet_on_floor_in_standing_state(quad):
    s = dyn.standing_state(quad)
    foot_pos = dyn._kinematics(quad, s)["foot_pos"]
    assert np.allclose(foot_pos[2, :, 0], 0.0, atol=1e-12)
    assert abs(s.base_pos[0, 2] - 0.30694) < 5e-4
