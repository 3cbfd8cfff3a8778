"""GAE against a brute-force oracle, exact gradients, PPO behaviour, and the
learner on toy tasks through the library rollout."""

import copy
import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from vsloco import networks as nets
from vsloco import ppo
from vsloco.actuation import action_dim
from vsloco.env import VecLocomotionEnv, input_scales
from vsloco.ppo import (
    PPOAgent,
    RolloutBuffer,
    TrainConfig,
    UpdateStats,
    allocate_buffer,
    compute_gae,
    normalize_advantages,
    rollout,
    train,
)
from vsloco.randomization import DomainRandomizationConfig

F32 = np.float32


def brute_force_gae(buffer, gamma, lam):
    """O(T^2) evaluation of the discounted-sum definition of GAE."""
    T, n = buffer.horizon, buffer.n_envs
    adv = np.zeros((T, n))
    for env in range(n):
        for t in range(T):
            total = 0.0
            for l in range(T - t):
                k = t + l
                term = buffer.terminations[k, env]
                trunc = buffer.truncations[k, env]
                next_v = (
                    buffer.truncation_values[k, env] if trunc else buffer.values[k + 1, env]
                )
                delta = (
                    buffer.rewards[k, env]
                    + gamma * next_v * (not term)
                    - buffer.values[k, env]
                )
                total += (gamma * lam) ** l * delta
                if term or trunc:
                    break
            adv[t, env] = total
    return adv


def random_buffer(rng, T=50, n=4, p_term=0.08, p_trunc=0.05):
    buf = allocate_buffer(T, n, 1, 1, 1)
    buf.rewards = rng.normal(0, 1, (T, n))
    buf.values = rng.normal(0, 1, (T + 1, n))
    buf.terminations = rng.random((T, n)) < p_term
    buf.truncations = (rng.random((T, n)) < p_trunc) & ~buf.terminations
    buf.truncation_values = rng.normal(0, 1, (T, n)) * buf.truncations
    return buf


def test_gae_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        buf = random_buffer(rng)
        adv, ret = compute_gae(buf, 0.99, 0.95)
        oracle = brute_force_gae(buf, 0.99, 0.95)
        assert np.allclose(adv, oracle, atol=1e-9, rtol=0)
        assert np.allclose(ret, adv + buf.values[:-1], atol=0)

    # any done mask (terminations exclusive of truncations, as the env
    # reports them), horizon, batch, discount and lambda
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        T = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(1, 3))
        gamma = data.draw(st.floats(0.0, 1.0))
        lam = data.draw(st.floats(0.0, 1.0))
        terminated = data.draw(hnp.arrays(bool, (T, n)))
        truncated = data.draw(hnp.arrays(bool, (T, n))) & ~terminated
        values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        buf = allocate_buffer(T, n, 1, 1, 1)
        buf.rewards = values.normal(0, 1, (T, n))
        buf.values = values.normal(0, 1, (T + 1, n))
        buf.terminations = terminated
        buf.truncations = truncated
        buf.truncation_values = values.normal(0, 1, (T, n)) * truncated
        adv, ret = compute_gae(buf, gamma, lam)
        assert np.allclose(adv, brute_force_gae(buf, gamma, lam), atol=1e-9, rtol=0)
        assert np.allclose(ret, adv + buf.values[:-1], atol=0)

    check()


def test_gae_hand_example():
    # rewards [1,1], values [0.5,0.5], bootstrap 0.5, gamma .99, lam .95
    buf = allocate_buffer(2, 1, 1, 1, 1)
    buf.rewards[:, 0] = 1.0
    buf.values[:, 0] = 0.5
    adv, ret = compute_gae(buf, 0.99, 0.95)
    assert abs(adv[1, 0] - 0.995) < 1e-12
    assert abs(adv[0, 0] - (0.995 + 0.99 * 0.95 * 0.995)) < 1e-12
    assert abs(adv[0, 0] - 1.93080) < 5e-6  # the printed 5-decimal value


def test_gae_lambda_zero_is_one_step():
    rng = np.random.default_rng(3)
    buf = random_buffer(rng, T=20)
    adv, _ = compute_gae(buf, 0.99, 1e-12)  # lam ~ 0 (0 excluded by config, fine here)
    for t in range(20):
        next_v = np.where(buf.truncations[t], buf.truncation_values[t], buf.values[t + 1])
        delta = buf.rewards[t] + 0.99 * next_v * ~buf.terminations[t] - buf.values[t]
        assert np.allclose(adv[t], delta, atol=1e-9)


def test_gae_cuts_at_done():
    rng = np.random.default_rng(4)
    buf = random_buffer(rng, T=30, p_term=0.0, p_trunc=0.0)
    buf.terminations[10, :] = True
    adv1, _ = compute_gae(buf, 0.99, 0.95)
    buf.rewards[11:] += 100.0  # anything after the cut must not matter
    buf.values[12:] -= 50.0
    adv2, _ = compute_gae(buf, 0.99, 0.95)
    assert np.allclose(adv1[: 11], adv2[: 11], atol=0)


def test_advantage_normalization():
    rng = np.random.default_rng(5)
    adv = rng.normal(3.0, 7.0, (24, 64))
    out = normalize_advantages(adv)
    assert abs(out.mean()) < 1e-9
    assert abs(out.std() - 1.0) < 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ValueError):
        TrainConfig(clip_ratio=0.0)
    with pytest.raises(TypeError, match="warp"):
        TrainConfig(**{"gamma": 0.99, "warp": 1})
    # each would break training only later: a NaN log-stddev floor, an
    # infinite or NaN initial log-stddev, a layer of no or fractional width
    for bad in ({"init_std": 0.0}, {"init_std": -1.0}, {"init_std": float("nan")},
                {"min_std": -0.1}, {"min_std": float("nan")},
                {"hidden": [0, 16]}, {"hidden": [16.5]}, {"hidden": [16, -4]}):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            TrainConfig(**bad)
    # each would fail only inside train: a fractional count (a TypeError), an
    # empty minibatch ("Mean of empty slice"), a negative seed, or a negative
    # period that would checkpoint every iteration
    for bad in ({"epochs": 1.5}, {"n_envs": 2.0}, {"n_iterations": 0}, {"steps_per_rollout": 0},
                {"minibatches": 0}, {"minibatches": 2.0}, {"checkpoint_every": -1},
                {"checkpoint_every": 1.0}, {"seed": -1}, {"seed": 0.5},
                {"n_envs": 2, "steps_per_rollout": 4, "minibatches": 9}):
        name = "minibatches" if "minibatches" in bad else next(iter(bad))
        with pytest.raises(ValueError, match=name):
            TrainConfig(**bad)
    assert TrainConfig(n_envs=2, steps_per_rollout=4, minibatches=8).minibatches == 8
    # numpy integers are stored as ints, which the checkpoint's JSON header takes
    cfg = TrainConfig(min_std=0.0, hidden=[np.int64(8)], n_envs=np.int64(8), seed=np.uint8(3))
    assert cfg.hidden == [8] and cfg.n_envs == 8 and cfg.seed == 3
    assert all(type(v) is int for v in (cfg.hidden[0], cfg.n_envs, cfg.seed))
    cfg = TrainConfig(**{"n_envs": 8, "n_iterations": 2})
    assert cfg.n_envs == 8 and cfg.gamma == 0.99


class _FirstStep(Exception):
    pass


def test_train_resets_each_env_once_before_the_first_step(monkeypatch, tmp_path):
    reset_rows = []
    reset_envs = VecLocomotionEnv._reset_envs

    def counted_reset(env, idx):
        reset_rows.append(len(idx))
        reset_envs(env, idx)

    def first_step(env, actions):
        # one reset (joint noise, episode, command, pushes) and one noisy
        # observation: five draws per env
        assert np.all(env.draws == 5)
        assert env.cfg.randomization == DomainRandomizationConfig()
        assert not np.all(env.kp_scale == 1.0)
        raise _FirstStep

    monkeypatch.setattr(VecLocomotionEnv, "_reset_envs", counted_reset)
    monkeypatch.setattr(VecLocomotionEnv, "step", first_step)
    cfg = TrainConfig(n_envs=8, n_iterations=1, steps_per_rollout=2, hidden=[8],
                      checkpoint_every=0)
    with pytest.raises(_FirstStep):
        train("HJLS", cfg, str(tmp_path))
    assert reset_rows == [8]


def test_train_keeps_the_benchmarks_hook_points(monkeypatch, tmp_path):
    # bench/run.py times and stops ppo.train through these calls: the module's
    # allocate_buffer once, after the env and the agent and before the first
    # step; VecLocomotionEnv.step through the class; one update per iteration,
    # right after its rollout
    calls = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for owner, attr, name in ((VecLocomotionEnv, "__init__", "env"),
                              (PPOAgent, "__init__", "agent"),
                              (ppo, "allocate_buffer", "allocate"),
                              (VecLocomotionEnv, "step", "step"),
                              (PPOAgent, "update", "update")):
        monkeypatch.setattr(owner, attr, recorded(name, getattr(owner, attr)))
    cfg = TrainConfig(n_envs=4, n_iterations=2, steps_per_rollout=3, hidden=[8],
                      checkpoint_every=0)
    train("HJLS", cfg, str(tmp_path))
    assert calls == ["env", "agent", "allocate"] + (["step"] * 3 + ["update"]) * 2


class Integrator:
    """n points p in the plane under the clipped action a: dp/dt = 2a at order
    1, d2p/dt2 = 2a at order 2, with the reward -|p|^2 dt per step of dt =
    0.05 s. Every env starts its episode at once, from p uniform in [-1, 1]^2
    at rest, and is truncated after 100 steps. Both inputs are p, and at
    order 2 dp/dt."""

    DT, GAIN, STEPS = 0.05, 2.0, 100

    def __init__(self, n, seed, order=1):
        self.n, self.order = n, order
        self.rng = np.random.default_rng(seed)
        self._reset()

    def _reset(self):
        self.x = np.zeros((self.n, 2 * self.order))
        self.x[:, :2] = self.rng.uniform(-1.0, 1.0, (self.n, 2))
        self.t, self.episode_return = 0, np.zeros(self.n)

    def observe(self):
        return self.x.copy()

    observe_privileged = observe

    def step(self, actions):
        rate = self.GAIN * np.clip(actions, -1.0, 1.0)
        if self.order == 2:
            self.x[:, 2:] += rate * self.DT
            rate = self.x[:, 2:]
        self.x[:, :2] += rate * self.DT
        reward = -self.DT * np.sum(self.x[:, :2] ** 2, axis=1)
        self.episode_return += reward
        self.t += 1
        done = np.full(self.n, self.t == self.STEPS)
        info = {"terminated": np.zeros(self.n, dtype=bool), "truncated": done,
                "episode_return": self.episode_return.copy(),
                "episode_length": np.full(self.n, self.t)}
        if self.t == self.STEPS:
            info["final_privileged"] = self.observe_privileged()
            self._reset()
        return self.observe(), self.observe_privileged(), reward, done, info


def integrator_cost(policy, order=1, n=256, seed=12345):
    """Minus the mean reward per step of one Integrator episode of n envs under
    policy, a map from inputs to actions."""
    env = Integrator(n, seed, order)
    obs, cost = env.observe(), 0.0
    for _ in range(env.STEPS):
        obs, _, reward, _, _ = env.step(policy(obs))
        cost -= reward.mean() / env.STEPS
    return cost


def train_on_integrator(cfg, order=1):
    """An agent trained on an Integrator of cfg.n_envs envs by the library
    rollout and PPOAgent.update, at unit input scales."""
    rng, dim = np.random.default_rng(cfg.seed), 2 * order
    agent = PPOAgent("integrator", np.ones(dim), np.ones(dim), 2, cfg, rng)
    env = Integrator(cfg.n_envs, cfg.seed + 1000, order)
    buf = allocate_buffer(cfg.steps_per_rollout, cfg.n_envs, dim, dim, 2)
    obs, priv = env.observe(), env.observe_privileged()
    for _ in range(cfg.n_iterations):
        obs, priv = rollout(env, agent.bundle, buf, obs, priv, rng)
        agent.update(buf, rng)
    return agent


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ppo_learns_the_first_order_regulator(seed):
    # The deadbeat controller a = clip(-p / (2 dt)) is optimal here: the cost
    # of each axis grows with |p|, and it closes |p| as fast as the clip
    # allows. It costs 0.00067 per step, the zero action 0.033. The learned
    # policies cost 1.07-1.34 times the optimum after 30 iterations, about
    # 0.8 s per seed on 2 vCPUs; the bound is twice the optimum.
    cfg = TrainConfig(n_envs=64, n_iterations=30, hidden=[64, 64], seed=seed)
    agent = train_on_integrator(cfg)
    optimum = integrator_cost(lambda p: np.clip(-p / (Integrator.GAIN * Integrator.DT), -1, 1))
    assert 40 * optimum < integrator_cost(np.zeros_like)  # the bound discriminates
    assert integrator_cost(agent.bundle.act_deterministic) < 2.0 * optimum


def _mlp_forward64(mlp, x):
    """Float64 reference forward pass (oracle for the finite differences)."""
    h = np.asarray(x, dtype=np.float64)
    last = len(mlp.W) - 1
    for k, (W, b) in enumerate(zip(mlp.W, mlp.b)):
        h = h @ W.astype(np.float64).T + b.astype(np.float64)
        if k < last:
            h = np.tanh(h)
    return h


def _numeric_grad(f, param, eps=1e-5):
    g = np.zeros(param.shape, dtype=np.float64)
    flat = param.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        gf[i] = (hi - lo) / (2 * eps)
    return g


def test_actor_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    actor = nets.GaussianActor(nets.MLP([4, 8, 2], rng, out_gain=0.01),
                               np.full(2, np.log(0.7), dtype=F32))
    obs = rng.normal(0, 1, (6, 4)).astype(F32)
    actions = rng.normal(0, 1, (6, 2)).astype(F32)
    weights = rng.normal(0, 1, 6).astype(F32)

    def loss64():
        mean = _mlp_forward64(actor.mlp, obs)
        log_std = actor.log_std.astype(np.float64)
        z = (actions.astype(np.float64) - mean) / np.exp(log_std)
        logp = (-0.5 * z**2 - log_std - 0.5 * np.log(2 * np.pi)).sum(axis=-1)
        return float(np.sum(weights.astype(np.float64) * logp))

    logp, _, cache = actor.evaluate(obs, actions)
    grads = actor.backward(cache, weights)
    # finite differences on a float64 twin of the same computation; the
    # float32 analytic grads must agree to f32 accumulation accuracy
    for p, g in zip(actor.params, grads):
        numeric = _numeric_grad(loss64, p)
        assert np.allclose(g, numeric, atol=5e-3, rtol=2e-3), p.shape


def test_critic_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    critic = nets.MLP([3, 8, 1], rng)
    x = rng.normal(0, 1, (5, 3)).astype(F32)
    target = rng.normal(0, 1, 5).astype(F32)

    def loss64():
        v = _mlp_forward64(critic, x)[:, 0]
        return float(np.mean((v - target.astype(np.float64)) ** 2))

    v, cache = critic.forward(x)
    grads = critic.backward(cache, (2.0 * (v[:, 0] - target) / 5).astype(F32)[:, None])
    for p, g in zip(critic.params, grads):
        numeric = _numeric_grad(loss64, p)
        assert np.allclose(g, numeric, atol=5e-4, rtol=1e-3)


def test_grad_norm_clip():
    grads = [np.full((3, 3), 10.0, dtype=F32), np.full(3, -10.0, dtype=F32)]
    clipped, norm = nets.clip_grad_norm(grads, 1.0)
    total = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in clipped))
    assert norm > 1.0
    assert abs(total - 1.0) < 1e-5
    small = [np.full(2, 0.1, dtype=F32)]
    kept, _ = nets.clip_grad_norm(small, 1.0)
    assert np.array_equal(kept[0], small[0])


def make_bandit_agent(cfg, seed=0):
    rng = np.random.default_rng(seed)
    agent = PPOAgent("bandit", np.ones(1), np.ones(1), 1, cfg, rng)
    return agent, rng


class BanditEnv:
    """n one-step episodes: a zero input, reward -(a - 0.3)^2 for the action a."""

    def __init__(self, n):
        self.n = n

    def observe(self):
        return np.zeros((self.n, 1))

    observe_privileged = observe

    def step(self, actions):
        reward = -((actions[:, 0] - 0.3) ** 2)
        done = np.ones(self.n, dtype=bool)
        info = {"terminated": done, "truncated": ~done, "episode_return": reward,
                "episode_length": np.ones(self.n, dtype=int)}
        return self.observe(), self.observe(), reward, done, info


def bandit_rollout(agent, rng, n=256):
    env, buf = BanditEnv(n), allocate_buffer(1, n, 1, 1, 1)
    rollout(env, agent.bundle, buf, env.observe(), env.observe_privileged(), rng)
    return buf


class ScriptedTruncations:
    """n envs whose episodes end on a fixed clock: env k's after k + 2 steps,
    a truncation for all but the last env, which terminates. The input is
    (steps into the episode, env index), so the state an episode ends in
    differs from the one it resets to."""

    def __init__(self, n):
        self.n, self.lengths, self.clock = n, np.arange(2, n + 2), np.zeros(n)

    def observe(self):
        return np.stack([self.clock, np.arange(self.n)], axis=1)

    observe_privileged = observe

    def step(self, actions):
        self.clock += 1
        done = self.clock == self.lengths
        terminated = done & (np.arange(self.n) == self.n - 1)
        info = {"terminated": terminated, "truncated": done & ~terminated}
        if done.any():
            info["final_privileged"] = self.observe_privileged()
            self.clock[done] = 0
        return self.observe(), self.observe_privileged(), np.zeros(self.n), done, info


def test_rollout_bootstraps_truncations_from_the_states_they_ended_in():
    n, T = 5, 12
    env, rng = ScriptedTruncations(n), np.random.default_rng(0)
    agent = PPOAgent("scripted", np.ones(2), np.full(2, 0.5), 1, TrainConfig(hidden=[8]), rng)
    buf, infos = allocate_buffer(T, n, 2, 2, 1), []
    rollout(env, agent.bundle, buf, env.observe(), env.observe_privileged(), rng, infos.append)
    assert buf.truncations.sum() == 15 and buf.terminations.sum() == 2
    reset_v = agent.bundle.value(np.stack([np.zeros(n), np.arange(n)], axis=1))
    for t, info in enumerate(infos):
        truncated = info["truncated"]
        final_v = agent.bundle.value(info["final_privileged"]) if truncated.any() else 0.0
        assert np.array_equal(buf.truncation_values[t], np.where(truncated, final_v, 0.0)), t
        assert not np.any((final_v == reset_v)[truncated]), t  # a post-reset read would show


def test_ratio_identity_at_unchanged_params():
    cfg = TrainConfig(n_envs=32, n_iterations=1, hidden=[16, 16])
    agent, rng = make_bandit_agent(cfg)
    buf = bandit_rollout(agent, rng, n=64)
    logp, _, _ = agent.bundle.actor.evaluate(
        buf.obs[0] * agent.bundle.obs_scale, buf.actions[0]
    )
    ratio = np.exp(logp - buf.log_probs[0])
    assert np.all(np.abs(ratio - 1.0) < 1e-12)


def test_rollout_log_probs_are_the_updates(monkeypatch, tmp_path):
    # the rollout's log-probs of real (float64) env observations equal, bit
    # for bit, those the update computes from the buffer's float32 rows, so
    # the PPO ratio at unchanged parameters is exactly 1
    checked = []
    update = PPOAgent.update

    def checking_update(agent, buffer, rng):
        B = buffer.horizon * buffer.n_envs
        obs = buffer.obs.reshape(B, -1) * agent.bundle.obs_scale
        logp, _, _ = agent.bundle.actor.evaluate(obs, buffer.actions.reshape(B, -1))
        checked.append(logp.tobytes() == buffer.log_probs.reshape(B).tobytes())
        return update(agent, buffer, rng)

    monkeypatch.setattr(PPOAgent, "update", checking_update)
    cfg = TrainConfig(n_envs=64, n_iterations=1, steps_per_rollout=4, hidden=[64, 32],
                      checkpoint_every=0)
    train("HJLS", cfg, str(tmp_path))
    assert checked == [True]


def test_zero_advantage_keeps_policy_mean():
    cfg = TrainConfig(n_envs=64, n_iterations=1, hidden=[16, 16], entropy_coef=1e-8,
                      learning_rate=1e-3)
    agent, rng = make_bandit_agent(cfg)
    buf = bandit_rollout(agent, rng, n=64)
    buf.rewards[0] = 1.0  # constant reward -> advantages constant
    mean_before = agent.bundle.actor.mean_action(np.zeros((1, 1), dtype=F32)).copy()
    agent.update(buf, rng)
    mean_after = agent.bundle.actor.mean_action(np.zeros((1, 1), dtype=F32))
    # constant advantages normalize to ~0, so the policy mean barely moves
    assert np.all(np.abs(mean_after - mean_before) < 5e-3)


def test_bandit_converges_to_optimum():
    cfg = TrainConfig(
        n_envs=256, n_iterations=200, hidden=[32, 32], learning_rate=1e-2,
        entropy_coef=0.005, min_std=0.05, seed=0,
    )
    agent, rng = make_bandit_agent(cfg, seed=0)
    for _ in range(200):
        buf = bandit_rollout(agent, rng, n=256)
        agent.update(buf, rng)
    mean = float(agent.bundle.actor.mean_action(np.zeros((1, 1), dtype=F32))[0, 0])
    assert abs(mean - 0.3) < 0.05


def test_update_aborts_on_non_finite_loss():
    cfg = TrainConfig(n_envs=16, n_iterations=1, hidden=[8])
    agent, rng = make_bandit_agent(cfg)
    buf = bandit_rollout(agent, rng, n=16)
    buf.rewards[0, 0] = np.nan
    with pytest.raises((RuntimeError, ValueError)):
        agent.update(buf, rng)


def _reference_forward(mlp, x):
    """The MLP forward pass as first written: a fresh array per operation."""
    acts = [x]
    h = x
    last = len(mlp.W) - 1
    for k, (W, b) in enumerate(zip(mlp.W, mlp.b)):
        h = h @ W.T + b
        if k < last:
            h = np.tanh(h)
        acts.append(h)
    return h, acts


def _reference_backward(mlp, acts, g):
    gW = [None] * len(mlp.W)
    gb = [None] * len(mlp.b)
    for k in range(len(mlp.W) - 1, -1, -1):
        gW[k] = g.T @ acts[k]
        gb[k] = g.sum(axis=0)
        if k > 0:
            g = g @ mlp.W[k]
            g = g * (1.0 - acts[k] ** 2)
    return gW + gb


def reference_update(agent, buffer, rng):
    """Oracle: the PPO update as first written, out of place. Scaled float32
    copies of the whole rollout, both nets' caches alive at once, tanh' as
    g * (1 - a**2) and the clip as new arrays."""
    cfg = agent.cfg
    actor, critic = agent.bundle.actor, agent.bundle.critic
    advantages, returns = compute_gae(buffer, cfg.gamma, cfg.lam)
    advantages = normalize_advantages(advantages)
    B = buffer.horizon * buffer.n_envs
    obs = (buffer.obs.reshape(B, -1) * agent.bundle.obs_scale).astype(F32)
    priv = (buffer.priv.reshape(B, -1) * agent.bundle.priv_scale).astype(F32)
    actions = buffer.actions.reshape(B, -1)
    logp_old = buffer.log_probs.reshape(B)
    adv = advantages.reshape(B).astype(F32)
    ret = returns.reshape(B).astype(F32)
    totals = np.zeros(6)
    count = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(B)
        for mb in np.array_split(perm, cfg.minibatches):
            m = mb.size
            mean, acts_a = _reference_forward(actor.mlp, obs[mb])
            logp, z = actor.log_prob_of(mean, actions[mb])
            std = np.exp(actor.log_std)
            entropy = float(actor.log_std.sum() + 0.5 * actor.log_std.size * (nets.LOG_2PI + 1.0))
            ratio = np.exp(logp - logp_old[mb])
            surr1 = ratio * adv[mb]
            surr2 = np.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio) * adv[mb]
            policy_loss = -np.minimum(surr1, surr2).mean()
            v_out, acts_c = _reference_forward(critic, priv[mb])
            v_err = v_out[:, 0] - ret[mb]
            value_loss = float(np.mean(v_err.astype(np.float64) ** 2))
            picked = surr1 <= surr2
            dlogp = (-(adv[mb] * ratio * picked) / m).astype(F32)
            dmean = dlogp[:, None] * (z / std)
            dlogstd = (dlogp[:, None] * (z**2 - 1.0)).sum(axis=0) - cfg.entropy_coef
            actor_grads = _reference_backward(actor.mlp, acts_a, dmean) + [dlogstd.astype(F32)]
            dv = (2.0 * cfg.value_coef * v_err / m).astype(F32)
            critic_grads = _reference_backward(critic, acts_c, dv[:, None])
            grads = actor_grads + critic_grads
            norm = np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads))
            if norm > cfg.max_grad_norm and norm > 0:
                scale = F32(cfg.max_grad_norm / norm)
                grads = [g * scale for g in grads]
            agent.optimizer.step(agent.params, grads)
            np.maximum(actor.log_std, np.log(cfg.min_std), out=actor.log_std, dtype=F32,
                       casting="unsafe")
            totals += (policy_loss, value_loss, entropy, float(np.mean(logp_old[mb] - logp)),
                       float(np.mean(np.abs(ratio - 1.0) > cfg.clip_ratio)), norm)
            count += 1
    return UpdateStats(*(totals / count))


def grouping_rollout(cfg, grouping="HJLS", seed=0):
    """An agent of the grouping's real input and action widths and an
    on-policy buffer of random inputs, with terminations and truncations."""
    rng = np.random.default_rng(seed)
    obs_scale, priv_scale = input_scales(grouping)
    obs_dim, priv_dim = len(obs_scale), len(priv_scale)
    agent = PPOAgent(grouping, obs_scale, priv_scale, action_dim(grouping), cfg, rng)
    T, n = cfg.steps_per_rollout, cfg.n_envs
    buf = allocate_buffer(T, n, obs_dim, priv_dim, action_dim(grouping))
    buf.obs[:] = rng.normal(0, 1, buf.obs.shape)
    buf.priv[:] = rng.normal(0, 1, buf.priv.shape)
    for t in range(T):
        buf.actions[t], buf.log_probs[t] = agent.bundle.act_sampled(buf.obs[t], rng)
        buf.values[t] = agent.bundle.value(buf.priv[t])
    buf.values[T] = agent.bundle.value(buf.priv[-1])
    buf.rewards[:] = rng.normal(0, 1, buf.rewards.shape)
    buf.terminations[:] = rng.random((T, n)) < 0.05
    buf.truncations[:] = (rng.random((T, n)) < 0.05) & ~buf.terminations
    buf.truncation_values[:] = rng.normal(0, 1, (T, n)) * buf.truncations
    return agent, buf, rng


def agent_state(agent):
    opt = agent.optimizer
    return [p.copy() for p in agent.params + opt.m + opt.v], opt.t


def assert_same_state(a, b):
    (arrays_a, t_a), (arrays_b, t_b) = a, b
    assert t_a == t_b
    assert all(np.array_equal(x, y) for x, y in zip(arrays_a, arrays_b, strict=True))


@pytest.mark.parametrize("below_floor", [False, True])
def test_update_is_bit_identical_to_the_out_of_place_oracle(below_floor):
    cfg = TrainConfig(n_envs=32, steps_per_rollout=8, hidden=[64, 32], learning_rate=3e-3)
    agent, buf, rng = grouping_rollout(cfg)
    floor = F32(np.log(cfg.min_std))
    if below_floor:  # the log-stddev floor clamps every other entry
        agent.bundle.actor.log_std[::2] = floor - 1.0
    ref_agent, ref_rng = copy.deepcopy(agent), copy.deepcopy(rng)
    for _ in range(2):
        stats = agent.update(buf, rng)
        ref_stats = reference_update(ref_agent, buf, ref_rng)
        assert stats == ref_stats
        assert_same_state(agent_state(agent), agent_state(ref_agent))
    assert stats.grad_norm > cfg.max_grad_norm  # the clip ran
    # Adam moves a log-stddev by about the learning rate per step, so entries
    # started 1 below the floor reach it only through the clamp
    assert np.all(agent.bundle.actor.log_std >= floor)
    assert stats.clip_fraction > 0.0
    assert np.array_equal(rng.random(4), ref_rng.random(4))


def test_update_without_std_floor_neither_warns_nor_clamps():
    cfg = TrainConfig(n_envs=32, steps_per_rollout=4, hidden=[16], min_std=0.0)
    agent, buf, rng = grouping_rollout(cfg)
    agent.bundle.actor.log_std[:] = np.log(0.01)  # below the default floor
    # a floor that never binds: the same update, unclamped
    twin = copy.deepcopy(agent)
    twin.cfg = TrainConfig(n_envs=32, steps_per_rollout=4, hidden=[16], min_std=1e-30)
    twin_rng = copy.deepcopy(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        agent.update(buf, rng)
    twin.update(buf, twin_rng)
    assert np.all(agent.bundle.actor.log_std < np.log(TrainConfig().min_std))
    assert_same_state(agent_state(agent), agent_state(twin))


def test_update_peak_memory_is_one_nets_minibatch():
    cfg = TrainConfig(n_envs=64, steps_per_rollout=8, hidden=[64, 32])
    agent, buf, rng = grouping_rollout(cfg)
    agent.update(buf, rng)  # first-call allocations out of the way
    B = cfg.n_envs * cfg.steps_per_rollout
    m = -(-B // cfg.minibatches)
    f32 = np.dtype(F32).itemsize
    nets_sizes = [agent.bundle.actor.mlp.sizes, agent.bundle.critic.sizes]
    activations = max(m * sum(sizes) * f32 for sizes in nets_sizes)
    backward_grads = 2 * m * max(cfg.hidden) * f32  # g before and after one layer
    params = sum(p.nbytes for p in agent.params)  # gradients, Adam's temporaries
    per_row = 8 * B * np.dtype(np.float64).itemsize  # advantages, returns, permutation
    bound = activations + backward_grads + 3 * params + per_row
    tracemalloc.start()
    try:
        agent.update(buf, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("field, term", [("obs", "policy"), ("priv", "value")])
@pytest.mark.parametrize("minibatch", [0, 2])
def test_update_raises_on_non_finite_loss_before_any_step(field, term, minibatch):
    cfg = TrainConfig(n_envs=16, steps_per_rollout=4, hidden=[16])
    agent, buf, rng = grouping_rollout(cfg)
    B = cfg.n_envs * cfg.steps_per_rollout
    perm = copy.deepcopy(rng).permutation(B)  # the update's first-epoch order
    row = np.array_split(perm, cfg.minibatches)[minibatch][0]
    getattr(buf, field).reshape(B, -1)[row, 3] = np.nan
    stepped = [agent_state(agent)]
    step = agent.optimizer.step

    def recorded_step(params, grads):
        step(params, grads)
        stepped.append(agent_state(agent))

    agent.optimizer.step = recorded_step
    with pytest.raises(RuntimeError, match=f"non-finite {term} loss in epoch 0 minibatch {minibatch}"):
        agent.update(buf, rng)
    assert len(stepped) == minibatch + 1
    assert agent.optimizer.t == minibatch
    # the failing minibatch moved no parameter and no moment
    assert_same_state(agent_state(agent), stepped[-1])
