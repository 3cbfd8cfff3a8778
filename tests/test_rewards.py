"""Hand-computed checks of every reward term and the aggregation law."""

import numpy as np

from vsloco.rewards import REWARD_TERMS, WEIGHTS, RewardInputs, compute_reward_terms

DT = 0.02


def make_inputs(**overrides):
    base = dict(
        v_cmd_xy=np.zeros((1, 2)),
        omega_cmd=np.zeros(1),
        v_base=np.zeros((1, 3)),
        omega_base=np.zeros((1, 3)),
        proj_gravity=np.repeat([[0.0, 0.0, -1.0]], 1, axis=0),
        touchdown_air_times=np.zeros((1, 4)),
        qddot=np.zeros((1, 12)),
        tau=np.zeros((1, 12)),
        qdot=np.zeros((1, 12)),
        action=np.zeros((1, 16)),
        prev_action=np.zeros((1, 16)),
        foot_heights=np.full((1, 4), 0.05),
        foot_vel_xy=np.zeros((1, 4, 2)),
        foot_xy=np.array([[[0.13, -0.14], [0.13, 0.14], [-0.17, -0.14], [-0.17, 0.14]]]),
        com_xy=np.array([[-0.02, 0.0]]),
        q_target=np.zeros((1, 12)),
        q_next=np.zeros((1, 12)),
        base_height=np.full(1, 0.30),
        q_hip=np.zeros((1, 4)),
        q_hip_default=np.zeros(4),
        n_collisions=np.zeros(1),
        terminated=np.zeros(1, dtype=bool),
    )
    base.update(overrides)
    return RewardInputs(**base)


def compute(**overrides):
    return compute_reward_terms(make_inputs(**overrides), DT)


def test_weights_bitmatch_table():
    expected = (1.5, 0.8, -2.0, -0.05, -5.0, 0.2, -2.5e-7, -2e-5, -1e-5,
                -0.1, -0.01, -0.1, -1.0, -0.1, -0.6, 0.05, -10.0, -10.0)
    assert tuple(WEIGHTS[t] for t in REWARD_TERMS) == expected


def test_perfect_lin_tracking():
    b = compute(v_cmd_xy=np.array([[0.7, -0.2]]), v_base=np.array([[0.7, -0.2, 0.0]]))
    assert abs(b.terms["lin_vel_tracking"][0] - 1.0) < 1e-12
    assert abs(b.weighted["lin_vel_tracking"][0] - 1.5 * 1.0 * DT) < 1e-12
    assert abs(b.weighted["lin_vel_tracking"][0] - 0.03) < 1e-9


def test_lin_tracking_half_metre_error():
    b = compute(v_cmd_xy=np.array([[0.5, 0.0]]))
    assert abs(b.terms["lin_vel_tracking"][0] - np.exp(-1.0)) < 1e-9
    assert abs(b.terms["lin_vel_tracking"][0] - 0.3679) < 1e-4


def test_ang_tracking():
    b = compute(omega_cmd=np.array([0.5]), omega_base=np.array([[0.0, 0.0, 0.5]]))
    assert abs(b.terms["ang_vel_tracking"][0] - 1.0) < 1e-12
    b = compute(omega_cmd=np.array([1.0]))
    assert abs(b.terms["ang_vel_tracking"][0] - np.exp(-4.0)) < 1e-12


def test_tracking_rewards_bounded():
    rng = np.random.default_rng(0)
    for _ in range(100):
        b = compute(
            v_cmd_xy=rng.uniform(-1, 1, (1, 2)),
            v_base=rng.uniform(-2, 2, (1, 3)),
            omega_cmd=rng.uniform(-1, 1, 1),
            omega_base=rng.uniform(-2, 2, (1, 3)),
        )
        assert 0.0 < b.terms["lin_vel_tracking"][0] <= 1.0
        assert 0.0 < b.terms["ang_vel_tracking"][0] <= 1.0


def test_vertical_velocity_penalty():
    b = compute(v_base=np.array([[0.0, 0.0, 0.3]]))
    assert abs(b.terms["lin_vel_z"][0] - 0.09) < 1e-12
    assert abs(b.weighted["lin_vel_z"][0] - (-2.0 * 0.09 * DT)) < 1e-12


def test_orientation_penalty():
    b = compute()
    assert b.terms["orientation"][0] == 0.0
    b = compute(proj_gravity=np.array([[0.1, 0.0, -0.99]]))
    assert abs(b.terms["orientation"][0] - 0.01) < 1e-12
    assert abs(b.weighted["orientation"][0] - (-5.0 * 0.01 * DT)) < 1e-12


def test_feet_air_time_touchdown_credit():
    # all four feet land together after 0.3 s while commanded to move
    b = compute(
        v_cmd_xy=np.array([[0.5, 0.0]]),
        touchdown_air_times=np.full((1, 4), 0.3),
    )
    assert abs(b.terms["feet_air_time"][0] - 0.8) < 1e-9
    # same landing with a near-zero command earns nothing
    b = compute(v_cmd_xy=np.array([[0.05, 0.0]]), touchdown_air_times=np.full((1, 4), 0.3))
    assert b.terms["feet_air_time"][0] == 0.0
    # short hops are penalized relative to the 0.1 s offset
    b = compute(v_cmd_xy=np.array([[0.5, 0.0]]),
                touchdown_air_times=np.array([[0.05, 0.0, 0.0, 0.0]]))
    assert abs(b.terms["feet_air_time"][0] - (-0.05)) < 1e-12


def test_joint_power_terms():
    b = compute()
    assert b.terms["joint_power"][0] == 0.0
    assert b.terms["power_distribution"][0] == 0.0
    tau = np.zeros((1, 12))
    qdot = np.zeros((1, 12))
    tau[0, :2] = (2.0, -3.0)
    qdot[0, :2] = (-1.0, 2.0)
    b = compute(tau=tau, qdot=qdot)
    assert abs(b.terms["joint_power"][0] - 8.0) < 1e-12
    powers = np.zeros(12)
    powers[:2] = (2.0, 6.0)
    assert abs(b.terms["power_distribution"][0] - np.var(powers)) < 1e-12


def test_foot_slip_gated_by_height():
    vel = np.zeros((1, 4, 2))
    vel[0, 0] = (0.3, -0.4)
    heights = np.full((1, 4), 0.05)
    b = compute(foot_vel_xy=vel, foot_heights=heights)
    assert b.terms["foot_slip"][0] == 0.0
    heights[0, 0] = 0.005
    b = compute(foot_vel_xy=vel, foot_heights=heights)
    assert abs(b.terms["foot_slip"][0] - 0.25) < 1e-12


def test_action_rate():
    a = np.zeros((1, 16))
    a[0, 3] = 0.5
    b = compute(action=a)
    assert abs(b.terms["action_rate"][0] - 0.25) < 1e-12


def test_foot_clearance():
    heights = np.array([[0.08, 0.08, 0.02, 0.08]])
    vel = np.zeros((1, 4, 2))
    vel[0, 2] = (0.3, 0.4)  # speed 0.5
    b = compute(foot_heights=heights, foot_vel_xy=vel)
    assert abs(b.terms["foot_clearance"][0] - (0.06**2) * 0.5) < 1e-12


def test_center_of_mass_zero_over_centroid():
    xy = np.array([[[0.12, -0.1], [0.12, 0.1], [-0.2, -0.1], [-0.2, 0.1]]])
    b = compute(foot_xy=xy, com_xy=xy.mean(axis=1))
    assert b.terms["center_of_mass"][0] == 0.0
    b = compute(foot_xy=xy, com_xy=xy.mean(axis=1) + np.array([[0.1, 0.0]]))
    assert abs(b.terms["center_of_mass"][0] - 0.01) < 1e-12


def test_joint_tracking_and_base_height():
    tgt = np.zeros((1, 12))
    tgt[0, 0] = 0.2
    b = compute(q_target=tgt)
    assert abs(b.terms["joint_tracking"][0] - 0.04) < 1e-12
    b = compute(base_height=np.full(1, 0.25))
    assert abs(b.terms["base_height"][0] - 0.0025) < 1e-12


def test_hip_term():
    b = compute()
    assert abs(b.terms["hip"][0] - 1.0) < 1e-12
    b = compute(q_hip=np.full((1, 4), 0.1))
    assert abs(b.terms["hip"][0] - np.exp(-4.0 * 0.04)) < 1e-12


def test_collision_and_termination_indicators():
    b = compute(n_collisions=np.array([2.0]), terminated=np.array([True]))
    assert b.terms["collisions"][0] == 2.0
    assert b.terms["termination"][0] == 1.0
    assert abs(b.weighted["termination"][0] - (-10.0 * DT)) < 1e-15


def test_total_is_exact_weighted_sum():
    rng = np.random.default_rng(42)
    for _ in range(50):
        b = compute(
            v_cmd_xy=rng.uniform(-1, 1, (1, 2)),
            v_base=rng.normal(0, 1, (1, 3)),
            omega_base=rng.normal(0, 1, (1, 3)),
            tau=rng.normal(0, 5, (1, 12)),
            qdot=rng.normal(0, 3, (1, 12)),
            qddot=rng.normal(0, 50, (1, 12)),
            action=rng.uniform(-1, 1, (1, 16)),
            base_height=rng.uniform(0.1, 0.4, 1),
        )
        w = np.array([WEIGHTS[t] for t in REWARD_TERMS])
        r = np.array([b.terms[t][0] for t in REWARD_TERMS])
        expected = np.sum(r * w * DT)
        assert b.total[0] == expected  # bit-exact Eq. (5) additivity


def test_term_registry_complete():
    assert len(REWARD_TERMS) == 18
    assert set(WEIGHTS) == set(REWARD_TERMS)
