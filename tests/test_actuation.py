"""Action decoding, gain laws, and torque computation."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from vsloco import actuation as act
from vsloco.model import build_quadruped

Q_DEFAULT = np.tile([0.0, 0.8, -1.5], 4)


NOMINAL = {"kp_scale": np.ones(12), "kd_scale": np.ones(12),  # no randomization
           "motor_strength": np.ones(12)}


def random_gains(rng, grouping):
    raw = rng.uniform(-1, 1, act.action_dim(grouping))
    return act.decode_action(grouping, raw, Q_DEFAULT)


def test_action_dims_match_paper():
    assert act.action_dim("IJS") == 24
    assert act.action_dim("PJS") == 15
    assert act.action_dim("PLS") == 16
    assert act.action_dim("HJLS") == 19
    assert act.action_dim("FixedP20") == 12
    assert act.action_dim("FixedP50") == 12


def test_unknown_grouping_rejected():
    with pytest.raises(ValueError, match="PLS"):
        act.action_dim("PQR")


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="expected 16"):
        act.decode_action("PLS", np.zeros(15), Q_DEFAULT)


def test_pls_lower_boundary():
    raw = np.zeros(16)
    raw[12:] = -1.0
    g = act.decode_action("PLS", raw, Q_DEFAULT)
    assert np.allclose(g["kp"], 20.0)
    assert np.allclose(g["kd"], 0.2 * np.sqrt(20.0))
    assert abs(g["kd"][0] - 0.8944271909999159) < 1e-12


def test_hjls_upper_boundary_exact():
    raw = np.zeros(19)
    raw[12:] = 1.0
    g = act.decode_action("HJLS", raw, Q_DEFAULT)
    assert np.allclose(g["kp"], 60.0, atol=1e-12)


def test_hjls_midpoint_hand_value():
    raw = np.zeros(19)
    g = act.decode_action("HJLS", raw, Q_DEFAULT)
    factor = (np.sqrt(20.0) + np.sqrt(60.0)) / 2.0
    assert abs(factor - 6.109051) < 1e-6
    assert np.allclose(g["kp"], factor * factor, atol=1e-12)
    assert abs(g["kp"][0] - 37.32) < 0.005


def test_fixed_p50_identity_pose():
    g = act.decode_action("FixedP50", np.zeros(12), Q_DEFAULT)
    assert np.allclose(g["q_target"], Q_DEFAULT)
    assert np.allclose(g["kp"], 50.0)
    assert np.allclose(g["kd"], 0.2 * np.sqrt(50.0))
    assert abs(g["kd"][0] - 1.4142135623730951) < 1e-12


def test_gain_law_over_random_actions():
    rng = np.random.default_rng(11)
    for grouping in act.GROUPINGS:
        for _ in range(200):
            g = random_gains(rng, grouping)
            assert np.all(g["kp"] >= 20.0 - 1e-12) and np.all(g["kp"] <= 60.0 + 1e-12)
            assert np.allclose(g["kd"], 0.2 * np.sqrt(g["kp"]), atol=1e-12, rtol=0)


TREE = build_quadruped()
TAU_LIMIT = TREE.torque_limits  # the model's, 24 N m at every joint


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_decode_action_properties(data):
    # every grouping, any finite action: gains in range, kd slaved to kp,
    # targets inside the joint limits, and the grouping's sharing pattern
    grouping = data.draw(st.sampled_from(act.GROUPINGS))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    action = np.array(data.draw(st.lists(finite, min_size=act.action_dim(grouping),
                                         max_size=act.action_dim(grouping))))
    lo, hi = TREE.position_limits
    g = act.decode_action(grouping, action, TREE.default_pose, (lo, hi))
    assert np.all(g["kp"] >= 20.0 - 1e-12) and np.all(g["kp"] <= 60.0 + 1e-12)
    assert np.array_equal(g["kd"], 0.2 * np.sqrt(g["kp"]))
    assert np.all((lo <= g["q_target"]) & (g["q_target"] <= hi))
    kp = g["kp"].reshape(4, 3)  # legs x (hip, thigh, knee)
    if grouping in ("FixedP20", "FixedP50"):
        assert np.all(kp == {"FixedP20": 20.0, "FixedP50": 50.0}[grouping])
    elif grouping == "PJS":  # one value per joint type, shared by the legs
        assert np.all(kp == kp[:1, :])
    elif grouping == "PLS":  # one value per leg, shared by its joints
        assert np.all(kp == kp[:, :1])
    elif grouping == "HJLS":  # leg factor times joint-type factor
        cross = np.einsum("ij,kl->ijkl", kp, kp)
        assert np.allclose(cross, cross.transpose(0, 3, 2, 1), rtol=1e-12, atol=0)


def test_hjls_rank_one():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = random_gains(rng, "HJLS")
        mat = g["kp"].reshape(4, 3)
        s = np.linalg.svd(mat, compute_uv=False)
        assert s[1] < 1e-9 * s[0]
        # cross-ratio identity of a rank-1 matrix
        assert abs(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]) < 1e-9


def test_broadcast_structure():
    rng = np.random.default_rng(2)
    g = random_gains(rng, "PLS")
    assert np.allclose(g["kp"].reshape(4, 3), g["kp"].reshape(4, 3)[:, :1])
    g = random_gains(rng, "PJS")
    assert np.allclose(g["kp"].reshape(4, 3), g["kp"].reshape(4, 3)[:1, :])


def test_decode_monotone_in_stiffness_entries():
    rng = np.random.default_rng(8)
    for grouping in ("IJS", "PJS", "PLS", "HJLS"):
        dim = act.action_dim(grouping)
        for _ in range(50):
            raw = rng.uniform(-1, 1, dim)
            base = act.decode_action(grouping, raw, Q_DEFAULT)["kp"]
            k = rng.integers(12, dim)
            bumped = raw.copy()
            bumped[k] = min(1.0, bumped[k] + rng.uniform(0, 0.5))
            kp2 = act.decode_action(grouping, bumped, Q_DEFAULT)["kp"]
            assert np.all(kp2 >= base - 1e-12)


def test_position_targets_scale_and_clamp():
    raw = np.zeros(16)
    raw[0] = 1.0
    raw[1] = -1.0
    g = act.decode_action("PLS", raw, Q_DEFAULT)
    assert abs(g["q_target"][0] - 0.5) < 1e-12
    assert abs(g["q_target"][1] - 0.3) < 1e-12
    limits = (np.full(12, -0.2), np.full(12, 0.2))
    g = act.decode_action("PLS", raw, Q_DEFAULT, position_limits=limits)
    assert abs(g["q_target"][0] - 0.2) < 1e-12


def test_torque_simple_case():
    g = {"kp": np.full(12, 20.0), "kd": np.zeros(12), "q_target": np.full(12, 0.1)}
    tau = act.compute_torque_randomized(g, np.zeros(12), np.zeros(12), NOMINAL, TAU_LIMIT)
    assert np.allclose(tau, 2.0, atol=1e-9)


def test_torque_equilibrium():
    g = {"kp": np.full(12, 35.0), "kd": np.full(12, 1.0), "q_target": Q_DEFAULT}
    tau = act.compute_torque_randomized(g, Q_DEFAULT, np.zeros(12), NOMINAL, TAU_LIMIT)
    assert np.allclose(tau, 0.0)


def test_torque_clamp_hand_value():
    kp = np.full(12, 60.0)
    g = {"kp": kp, "kd": 0.2 * np.sqrt(kp), "q_target": np.ones(12)}
    unclamped = 60.0 - 0.2 * np.sqrt(60.0) * 2.0
    assert abs(unclamped - 56.90161) < 1e-4
    tau = act.compute_torque_randomized(g, np.zeros(12), np.full(12, 2.0), NOMINAL,
                                         torque_limit=24.0)
    assert np.allclose(tau, 24.0, atol=1e-9)


def test_torque_odd_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(50):
        kp = rng.uniform(20, 60, 12)
        g = {"kp": kp, "kd": 0.2 * np.sqrt(kp), "q_target": rng.uniform(-0.3, 0.3, 12)}
        q = np.zeros(12)
        qdot = rng.uniform(-1, 1, 12)
        t1 = act.compute_torque_randomized(g, q, qdot, NOMINAL, torque_limit=1e9)
        g2 = {"kp": kp, "kd": g["kd"], "q_target": -g["q_target"]}
        t2 = act.compute_torque_randomized(g2, q, -qdot, NOMINAL, torque_limit=1e9)
        assert np.allclose(t1, -t2, atol=1e-12)


def test_gain_randomization_identity_and_scaling():
    rng = np.random.default_rng(4)
    g = random_gains(rng, "IJS")
    q = rng.uniform(-0.4, 0.4, 12)
    qdot = rng.uniform(-2, 2, 12)
    # ones change nothing: the impedance law, clamped
    expected = np.clip(g["kp"] * (g["q_target"] - q) - g["kd"] * qdot, -TAU_LIMIT, TAU_LIMIT)
    assert np.array_equal(act.compute_torque_randomized(g, q, qdot, NOMINAL, TAU_LIMIT),
                          expected)
    # motor strength scales the delivered torque before the clamp
    strength = {**NOMINAL, "motor_strength": np.full(12, 0.9)}
    g_simple = {"kp": np.full(12, 20.0), "kd": np.zeros(12), "q_target": np.full(12, 0.5)}
    tau = act.compute_torque_randomized(g_simple, np.zeros(12), np.zeros(12), strength,
                                         TAU_LIMIT)
    assert np.allclose(tau, 9.0, atol=1e-12)
    # kp_scale raises the effective stiffness; the clamp sees only torque
    scaled = {**NOMINAL, "kp_scale": np.full(12, 1.3)}
    g40 = {"kp": np.full(12, 40.0), "kd": np.zeros(12), "q_target": np.full(12, 0.1)}
    tau = act.compute_torque_randomized(g40, np.zeros(12), np.zeros(12), scaled, TAU_LIMIT)
    assert np.allclose(tau, 5.2, atol=1e-12)


def test_torque_clamp_always_bounds():
    rng = np.random.default_rng(14)
    for _ in range(200):
        g = random_gains(rng, "IJS")
        q = rng.uniform(-3, 3, 12)
        qdot = rng.uniform(-40, 40, 12)
        tau = act.compute_torque_randomized(g, q, qdot, NOMINAL, torque_limit=24.0)
        assert np.all(np.abs(tau) <= 24.0 + 1e-12)
