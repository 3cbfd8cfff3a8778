"""Physics-core tests: closed-form oracles, conservation laws, contact law."""

import copy
import dataclasses
import sys

import dense_dynamics as dense
import numpy as np
import pytest

from vsloco import dynamics as dyn
from vsloco.model import (
    Body,
    JointSpec,
    KinematicTree,
    SpatialInertia,
    build_quadruped,
    double_pendulum_tree,
    floating_box_tree,
    pendulum_tree,
)

G = 9.81


@pytest.fixture(scope="module")
def quad():
    return build_quadruped()


def pendulum_state(tree, q, qdot=0.0):
    s = dyn.default_state(tree)
    s.q[:] = q
    s.qdot[:] = qdot
    return s


# ---------------------------------------------------------------------------
# forward dynamics oracles


def test_pendulum_matches_closed_form():
    l = 0.5
    tree = pendulum_tree(mass=1.3, length=l)
    s = pendulum_state(tree, 0.3)
    qacc = dyn.forward_dynamics(tree, s, tau=np.zeros(1))
    assert abs(qacc[0, 0] - (-(G / l) * np.sin(0.3))) < 1e-9


def test_pendulum_with_torque():
    # q'' = (tau - m g l sin q) / (m l^2)
    m, l, tau, q0 = 2.0, 0.7, 1.5, -0.4
    tree = pendulum_tree(mass=m, length=l)
    s = pendulum_state(tree, q0)
    qacc = dyn.forward_dynamics(tree, s, tau=np.array([tau]))
    expected = (tau - m * G * l * np.sin(q0)) / (m * l * l)
    assert abs(qacc[0, 0] - expected) < 1e-9


def test_free_floating_trunk_free_fall(quad):
    s = dyn.default_state(quad, q=quad.default_pose, base_pos=(0, 0, 2.0))
    qacc = dyn.forward_dynamics(quad, s, tau=np.zeros(12))[0]
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
    a0 = dyn.forward_dynamics(quad, s, tau=np.zeros(12))
    a1 = dyn.forward_dynamics(quad, s, tau=t1)
    a2 = dyn.forward_dynamics(quad, s, tau=t2)
    a12 = dyn.forward_dynamics(quad, s, tau=t1 + t2)
    assert np.allclose(a12, a1 + a2 - a0, atol=1e-9)


def test_single_joint_torque_sign_flip(quad):
    s = dyn.default_state(quad, q=quad.default_pose, base_pos=(0, 0, 1.0))
    tau = np.zeros(12)
    tau[4] = 3.0
    a_plus = dyn.forward_dynamics(quad, s, tau=tau)
    a_minus = dyn.forward_dynamics(quad, s, tau=-tau)
    a0 = dyn.forward_dynamics(quad, s, tau=np.zeros(12))
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
        M = dyn.mass_matrix(tree, s)[0]
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
    M = dyn.mass_matrix(quad, s)[0]
    v = np.concatenate([s.base_linvel[0], s.base_angvel[0], s.qdot[0]])
    ke_m = 0.5 * v @ M @ v
    fk = dyn._fk(quad, s)
    vel = dyn._velocities(quad, s, fk)
    I_w = dyn._world_inertia(quad, fk)
    ke_b = 0.5 * np.einsum("b,nbi,nbi->", quad.mass, vel["v_c"], vel["v_c"])
    ke_b += 0.5 * np.einsum("nbi,nbij,nbj->", vel["w"], I_w, vel["w"])
    assert abs(ke_m - ke_b) < 1e-9 * max(1.0, ke_b)


def test_spinning_body_angular_momentum_rate_zero():
    # torque-free rigid body: I_w * alpha + w x I_w w = 0 at the acceleration level
    tree = floating_box_tree(gravity=0.0)
    s = dyn.default_state(tree, base_pos=(0, 0, 1.0))
    s.base_angvel[:] = (2.0, -1.0, 0.5)
    qacc = dyn.forward_dynamics(tree, s, tau=np.zeros(0))[0]
    fk = dyn._fk(tree, s)
    I_w = dyn._world_inertia(tree, fk)[0, 0]
    residual = I_w @ qacc[3:6] + np.cross(s.base_angvel[0], I_w @ s.base_angvel[0])
    assert np.allclose(residual, 0, atol=1e-10)
    assert np.allclose(qacc[0:3], 0, atol=1e-12)


def test_rejects_non_finite_input(quad):
    s = dyn.default_state(quad, q=quad.default_pose, base_pos=(0, 0, 1.0))
    tau = np.zeros(12)
    tau[3] = np.nan
    with pytest.raises(ValueError, match="tau"):
        dyn.forward_dynamics(quad, s, tau=tau)
    s.qdot[0, 5] = np.inf
    with pytest.raises(ValueError, match="qdot"):
        dyn.forward_dynamics(quad, s, tau=np.zeros(12))


def test_rejects_non_finite_external_force(quad):
    s = dyn.standing_state(quad)
    bad = np.array([[0.0, np.nan, np.inf]])
    with pytest.raises(ValueError, match="external force"):
        dyn.step(quad, s, tau=np.zeros(12), push=bad)
    with pytest.raises(ValueError, match="external force"):
        dyn.forward_dynamics(quad, s, tau=np.zeros(12), push=bad)


def test_rejects_push_on_fixed_base():
    tree = pendulum_tree()
    s = pendulum_state(tree, 0.3)
    push = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="floating base"):
        dyn.step(tree, s, tau=np.zeros(1), push=push)
    with pytest.raises(ValueError, match="floating base"):
        dyn.forward_dynamics(tree, s, tau=np.zeros(1), push=push)


def _copy(state, rows=slice(None)):
    """The rows of a state as a new state without a kinematics cache."""
    return dyn.BatchState(**{
        f.name: getattr(state, f.name)[rows].copy()
        for f in dataclasses.fields(state)
        if f.name != "cache"
    })


def test_entry_points_act_row_by_row(quad):
    # three poses and velocities in one N = 3 state, some feet in the floor
    rng = np.random.default_rng(11)
    s = dyn.standing_state(quad, quad.default_pose + rng.normal(0, 0.2, (3, 12)))
    s.base_pos[:, 2] -= (0.0, 0.002, 0.004)
    s.base_linvel[:] = rng.normal(0, 0.5, (3, 3))
    s.base_angvel[:] = rng.normal(0, 0.5, (3, 3))
    s.qdot[:] = rng.normal(0, 1, (3, 12))
    tau = rng.normal(0, 3, (3, 12))
    push = rng.normal(0, 20, (3, 3))
    batched = {
        "step": dyn.step(quad, s, tau=tau, push=push),
        "forward_dynamics": dyn.forward_dynamics(quad, s, tau=tau, push=push),
        "total_energy": dyn.total_energy(quad, s),
        "contact_forces": dyn.contact_forces(quad, s, friction_coefficient=0.8),
    }
    assert batched["forward_dynamics"].shape == (3, 18)
    assert batched["total_energy"].shape == (3,)
    assert batched["contact_forces"].shape == (3, 4, 3)
    assert np.any(batched["contact_forces"][..., 2] > 0.0)
    for i in range(3):
        r = _copy(s, slice(i, i + 1))
        single = {
            "step": dyn.step(quad, r, tau=tau[i:i + 1], push=push[i:i + 1]),
            "forward_dynamics": dyn.forward_dynamics(quad, r, tau=tau[i:i + 1],
                                                     push=push[i:i + 1]),
            "total_energy": dyn.total_energy(quad, r),
            "contact_forces": dyn.contact_forces(quad, r, friction_coefficient=0.8),
        }
        for f in ("base_pos", "base_quat", "base_linvel", "base_angvel", "q", "qdot", "time",
                  "contact_flags", "contact_forces", "diverged"):
            assert np.allclose(getattr(batched["step"], f)[i], getattr(single["step"], f)[0],
                               rtol=1e-12, atol=1e-12), f
        for name in ("forward_dynamics", "total_energy", "contact_forces"):
            assert np.allclose(batched[name][i], single[name][0], rtol=1e-12, atol=1e-12), name


def test_entry_points_ignore_cache_of_edited_state(quad):
    s = dyn.step(quad, dyn.standing_state(quad), tau=np.zeros(12))
    s.base_pos[0, 2] -= 0.01  # in place: the kinematics step cached are now stale
    fresh = _copy(s)
    assert np.array_equal(dyn.forward_dynamics(quad, s, tau=np.zeros(12)),
                          dyn.forward_dynamics(quad, fresh, tau=np.zeros(12)))
    assert np.array_equal(dyn.step(quad, s, tau=np.zeros(12)).base_linvel,
                          dyn.step(quad, fresh, tau=np.zeros(12)).base_linvel)


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
        T, K, rhs, _ = dyn._assemble(tree, st, tau, push, prm)
        M_ref, rhs_ref, _ = dense.assemble(tree, st, tau, push, prm)
        M = dyn._dense_mass_matrix(tree, T, K)
        assert _relative(M, M_ref) <= 1e-12
        assert _relative(rhs, rhs_ref) <= 1e-12
        qacc_ref = np.linalg.solve(M_ref, rhs_ref[..., None])[..., 0]
        assert _relative(dyn._solve(tree, T, K, rhs), qacc_ref) <= 1e-12
        M_nominal = dense.assemble(tree, st, tau, None, dyn.BatchParams.from_tree(tree, st.n))[0]
        assert _relative(dyn.mass_matrix(tree, st), M_nominal) <= 1e-12
        assert _relative(dyn.forward_dynamics(tree, st, tau, push=push),
                         dense.forward_dynamics(tree, st, tau, push=push)) <= 1e-12


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


def _pd_torque(tree, state, q_ref):
    kp, kd = 150.0, 0.2 * np.sqrt(150.0)
    tau = kp * (q_ref - state.q) - kd * state.qdot
    return np.clip(tau, -tree.torque_limits, tree.torque_limits)


def test_step_batch_matches_dense_oracle_over_one_second(quad):
    # 500 substeps of 2 ms: the quadrupeds start from random poses and
    # velocities under a PD hold of the default pose, with feet sliding on
    # low-friction floors and a base push for 0.5 s (the box is pushed too)
    rng = np.random.default_rng(5)
    s, params, push = _random_quad_batch(quad, rng, 16, speed=0.3)
    runs = [(quad, s, params, push, lambda st: _pd_torque(quad, st, quad.default_pose))]
    for tree, st in _other_trees(rng, 4):
        runs.append((tree, st, dyn.BatchParams.from_tree(tree, 4),
                     rng.normal(0, 3, (4, 3)) if tree.floating else None,
                     lambda st, nj=tree.n_joints: np.zeros((st.n, nj))))
    for tree, st, prm, push, torque in runs:
        ref = copy.deepcopy(st)
        n_saturated = 0
        for _ in range(500):
            tau = torque(st)
            st = dyn.step_batch(tree, st, tau, 0.002, push=push, params=prm)
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


def _assert_same_state(a, b):
    """Every field of two states and of their kinematics caches, bit for bit."""
    for f in dataclasses.fields(dyn.BatchState):
        if f.name != "cache":
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
    (fields_a, fk_a, vel_a, feet_a), (fields_b, fk_b, vel_b, feet_b) = a.cache, b.cache
    for x, y in ((fk_a, fk_b), (vel_a, vel_b)):
        assert x.keys() == y.keys()
        for key in x:
            assert np.array_equal(x[key], y[key]), key
    for x, y in zip(fields_a + feet_a, fields_b + feet_b):
        assert np.array_equal(x, y)


def _split_rows(monkeypatch, shards):
    """Make step_batch split a batch of at least 2 * shards rows into shards."""
    monkeypatch.setattr(dyn, "MIN_SHARD_ROWS", 2)
    monkeypatch.setattr(dyn, "_CORES", shards)


def test_sharded_step_is_bit_identical(quad, monkeypatch):
    # 7 rows in 1, 2 and 3 row shards (sizes 7; 3 + 4; 2 + 2 + 3) over 5
    # substeps, with feet sliding on low-friction floors and a base push;
    # the threads switch every microsecond, so they interleave finely
    rng = np.random.default_rng(17)
    s, params, _ = _random_quad_batch(quad, rng, 7)
    push = rng.normal(0, 80, (7, 3))
    tau = rng.normal(0, 5, (7, 12))
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for shards in (1, 2, 3):
            _split_rows(monkeypatch, shards)
            st, runs[shards] = s, []
            for _ in range(5):
                st = dyn.step_batch(quad, st, tau, 0.002, push=push, params=params)
                runs[shards].append(st)
    finally:
        sys.setswitchinterval(interval)
    assert any(st.cone_saturated.any() for st in runs[1])
    for shards in (2, 3):
        for a, b in zip(runs[shards], runs[1]):
            _assert_same_state(a, b)


@pytest.mark.parametrize("shards", [1, 2])
def test_step_caches_the_kinematics_of_the_new_state(quad, shards, monkeypatch):
    _split_rows(monkeypatch, shards)
    s, params, push = _random_quad_batch(quad, np.random.default_rng(3), 4)
    new = dyn.step_batch(quad, s, np.zeros((4, 12)), 0.002, push=push, params=params)
    fk = dyn._fk(quad, new)
    vel = dyn._velocities(quad, new, fk)
    pos, v = dyn.foot_points(quad, fk, vel)
    fields, _, _, (cached_pos, cached_v) = new.cache
    for name, copy_ in zip(dyn._KINEMATIC_FIELDS, fields):  # copies of the fields
        assert copy_ is not getattr(new, name) and np.array_equal(copy_, getattr(new, name))
    assert np.array_equal(cached_pos, pos) and np.array_equal(cached_v, v)
    assert np.array_equal(new.contact_flags, pos[..., 2] < 0.0)


def test_step_batch_recomputes_the_kinematics_of_an_edited_state(quad):
    # a state from step_batch, edited in place, steps as its copy without a
    # kinematics cache does
    s, params, push = _random_quad_batch(quad, np.random.default_rng(4), 4)
    tau = np.zeros((4, 12))
    s = dyn.step_batch(quad, s, tau, 0.002, push=push, params=params)
    s.base_pos[:, 2] += 0.003
    s.q[:, 1] -= 0.1
    _assert_same_state(dyn.step_batch(quad, s, tau, 0.002, push=push, params=params),
                       dyn.step_batch(quad, _copy(s), tau, 0.002, push=push, params=params))


def test_kinematics_cache_keeps_non_finite_rows(quad):
    # a NaN left alone compares equal, so a diverged row does not force a
    # recompute; an edit of another field does
    s = dyn.standing_state(quad, np.tile(quad.default_pose, (2, 1)))
    s.qdot[1, 0] = np.nan
    fk = dyn._kinematics(quad, s)[0]
    assert dyn._kinematics(quad, s)[0] is fk
    s.base_angvel[0, 2] = 0.5
    fresh = dyn._kinematics(quad, s)[0]
    assert fresh is not fk and np.array_equal(fresh["R"], fk["R"])


@pytest.mark.parametrize("shards", [1, 2])
def test_reported_contact_forces_are_the_applied_ones(quad, shards, monkeypatch):
    # the substep's generalized force balance on the dense oracle,
    # M (v_new - v) / dt - rhs = sum_f J_f' contact_forces[f], in the rows
    # whose sliding feet were re-solved and in the rows that were not
    rng = np.random.default_rng(8)
    s, params, push = _random_quad_batch(quad, rng, 16, speed=0.1)
    tau = rng.normal(0, 5, (16, 12))
    M, rhs, contact = dense.assemble(quad, s, tau, push, params)
    _split_rows(monkeypatch, shards)
    new = dyn.step_batch(quad, s, tau, 0.002, push=push, params=params)
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
    X = dyn._spd_solve(np.concatenate([M, B], axis=-1))
    assert _relative(X, np.linalg.solve(M, B)) <= 1e-12


def test_fixed_base_chains_solve_through_the_joint_blocks():
    # nb = 0: no base block and no Schur complement, only the unrolled
    # joint-block solve of one branch of 1 or 2 joints
    rng = np.random.default_rng(8)
    for tree in (pendulum_tree(), double_pendulum_tree()):
        s = dyn.default_state(tree, q=rng.normal(0, 1, (5, tree.n_joints)))
        s.qdot[:] = rng.normal(0, 2, s.qdot.shape)
        T, K, rhs, _ = dyn._assemble(tree, s, rng.normal(0, 1, (5, tree.n_joints)), None,
                                     dyn.BatchParams.from_tree(tree, 5))
        nj = tree.n_joints
        assert tree.n_base == 0 and T.shape == (5, 0, 0) and K.shape == (5, 1, nj, nj)
        qacc = np.linalg.solve(dyn._dense_mass_matrix(tree, T, K), rhs[..., None])[..., 0]
        assert _relative(dyn._solve(tree, T, K, rhs), qacc) <= 1e-12


def test_cone_saturation_flags(quad):
    assert not dyn.default_state(quad).cone_saturated.any()
    # settled standing on mu = 1: every foot sticks
    kp, kd = 150.0, 0.2 * np.sqrt(150.0)
    s = dyn.standing_state(quad)
    for _ in range(500):
        tau = np.clip(kp * (quad.default_pose - s.q) - kd * s.qdot, -quad.torque_limits,
                      quad.torque_limits)
        s = dyn.step(quad, s, tau=tau)
    assert s.contact_flags.all()
    assert s.cone_saturated.shape == (1, 4) and not s.cone_saturated.any()
    # base sliding at 1 m/s on mu = 0.05: every foot in contact slides
    s = dyn.standing_state(quad)
    s.base_pos[0, 2] -= 0.002
    s.base_linvel[0] = (1.0, 0.0, 0.0)
    params = dyn.BatchParams.from_tree(quad, 1)
    params.friction[:] = 0.05
    s2 = dyn.step_batch(quad, s, np.zeros((1, 12)), 0.002, params=params)
    assert s2.cone_saturated.all()


# ---------------------------------------------------------------------------
# integrator properties


def test_pendulum_energy_drift_below_one_percent():
    tree = pendulum_tree(mass=1.0, length=1.0)
    s = pendulum_state(tree, 0.5)
    e0 = dyn.total_energy(tree, s)[0]
    # reference: lowest point of swing sets the energy scale
    e_min = -1.0 * G * 1.0
    scale = e0 - e_min
    worst = 0.0
    for _ in range(5000):
        s = dyn.step(tree, s, tau=np.zeros(1), dt_physics=0.002)
        worst = max(worst, abs(dyn.total_energy(tree, s)[0] - e0))
    assert worst < 0.01 * scale


def test_double_pendulum_energy_drift_below_one_percent():
    tree = double_pendulum_tree()
    s = dyn.default_state(tree)
    s.q[:] = (0.6, 0.4)
    e0 = dyn.total_energy(tree, s)[0]
    e_min = -(1.0 * 0.6 + 0.7 * 1.0) * G
    scale = e0 - e_min
    worst = 0.0
    for _ in range(5000):
        s = dyn.step(tree, s, tau=np.zeros(2), dt_physics=0.002)
        worst = max(worst, abs(dyn.total_energy(tree, s)[0] - e0))
    assert worst < 0.01 * scale


def test_momentum_gains_exactly_gravity_impulse(quad):
    # zero angular/joint rates: velocity-product terms vanish and the
    # per-step momentum change equals m g dt to roundoff
    dt = 0.002
    m_tot = quad.mass.sum()
    s = dyn.default_state(quad, q=quad.default_pose, base_pos=(0, 0, 3.0))
    s.base_linvel[:] = (0.4, -0.2, 0.1)
    for _ in range(5):
        p_before = dyn.total_linear_momentum(quad, s)[0]
        s2 = dyn.step(quad, s, tau=np.zeros(12), dt_physics=dt)
        p_mid = m_tot * s2.base_linvel[0] + (
            dyn.total_linear_momentum(quad, s2)[0] - m_tot * s2.base_linvel[0]
        )
        delta = p_mid - p_before
        assert np.allclose(delta, [0, 0, -m_tot * G * dt], rtol=0, atol=1e-10)
        s = s2


def test_determinism_bit_identical(quad):
    s0 = dyn.standing_state(quad)
    tau = np.linspace(-3, 3, 12)
    a = dyn.step(quad, s0, tau=tau, dt_physics=0.002)
    b = dyn.step(quad, copy.deepcopy(s0), tau=tau, dt_physics=0.002)
    for f in ("base_pos", "base_quat", "base_linvel", "base_angvel", "q", "qdot"):
        assert np.array_equal(getattr(a, f), getattr(b, f))


def test_quaternion_norm_preserved(quad):
    s = dyn.standing_state(quad)
    s.base_angvel[:] = (1.0, 2.0, -0.5)
    for _ in range(100):
        s = dyn.step(quad, s, tau=np.zeros(12), dt_physics=0.002)
        assert abs(np.linalg.norm(s.base_quat[0]) - 1.0) < 1e-9


def test_step_rejects_bad_dt(quad):
    s = dyn.standing_state(quad)
    with pytest.raises(ValueError):
        dyn.step(quad, s, tau=np.zeros(12), dt_physics=0.0)
    with pytest.raises(ValueError):
        dyn.step(quad, s, tau=np.zeros(12), dt_physics=0.05)


def test_divergence_flagged():
    tree = pendulum_tree()
    s = pendulum_state(tree, 0.0, qdot=2e4)
    s2 = dyn.step(tree, s, tau=np.zeros(1), dt_physics=0.002)
    assert s2.diverged[0]


def test_quasi_static_stand_drift(quad):
    # settle for 1 s under a stiff PD hold, then drift < 1e-3 m over 1 s
    kp, kd = 150.0, 0.2 * np.sqrt(150.0)
    tau_lim = quad.torque_limits
    s = dyn.standing_state(quad)
    q_ref = quad.default_pose

    def pd_step(state):
        tau = np.clip(kp * (q_ref - state.q) - kd * state.qdot, -tau_lim, tau_lim)
        return dyn.step(quad, state, tau=tau, dt_physics=0.002)

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


def test_contact_zero_above_floor(quad):
    s = dyn.standing_state(quad)
    s.base_pos[0, 2] += 0.002
    forces = dyn.contact_forces(quad, s, friction_coefficient=1.0)
    assert np.allclose(forces, 0.0)
    flags = dyn.step(quad, s, tau=np.zeros(12), dt_physics=0.001).contact_flags
    # one substep of free fall from 2 mm cannot reach the floor
    assert not flags.any()


def test_contact_penalty_normal_value(quad):
    # static foot penetrating 1 mm with k_n = 30000 -> 30 N normal force
    s = dyn.standing_state(quad)
    s.base_pos[0, 2] -= 0.001
    forces = dyn.contact_forces(quad, s, friction_coefficient=1.0)[0]
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
    s = dyn.standing_state(quad)
    g = dyn.kinematics(quad, s)["projected_gravity"][0]
    assert np.allclose(g, [0, 0, -1], atol=1e-12)
    s.base_quat[0] = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0, 0.0])  # roll 90 deg
    g = dyn.kinematics(quad, s)["projected_gravity"][0]
    assert abs(g[2]) < 1e-12
    assert abs(np.linalg.norm(g) - 1.0) < 1e-12


def test_default_stance_com_over_foot_centroid(quad):
    s = dyn.standing_state(quad)
    k = dyn.kinematics(quad, s)
    centroid = k["foot_positions"][0, :, :2].mean(axis=0)
    assert np.allclose(k["com_position"][0, :2], centroid, atol=1e-6)


def test_feet_on_floor_in_standing_state(quad):
    s = dyn.standing_state(quad)
    k = dyn.kinematics(quad, s)
    assert np.allclose(k["foot_positions"][0, :, 2], 0.0, atol=1e-12)
    assert abs(s.base_pos[0, 2] - 0.30694) < 5e-4
