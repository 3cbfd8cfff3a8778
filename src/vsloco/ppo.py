"""PPO with GAE over a vectorized task behind a small env interface.

Asymmetric actor-critic: the actor consumes the noisy deployable
observation, the critic the privileged simulator state; the critic is
dropped at inference. All math is seeded numpy, so two runs with the same
config produce bit-identical metrics but for the wall-time columns.

``rollout`` sees an env of n tasks through ``observe()``,
``observe_privileged()`` and ``step(actions) -> (obs, priv, reward, done,
info)``; a done env resets inside that step. info holds the (n,) bool arrays
``terminated`` and ``truncated``, the done envs' ``episode_return`` and
``episode_length`` and, if some env truncated, the critic inputs of the states
they ended in, ``final_privileged``. ``train_loop`` also logs the columns of
one env hook, ``step_metrics(info)``; ``train`` runs it on ``VecLocomotionEnv``.

The update holds one net's activations for one minibatch at a time, so its
memory peak grows with the minibatch rows (n_envs * steps_per_rollout /
minibatches), not with the rollout. With 256 HJLS envs x 24 steps (1536-row
minibatches) and [512, 256, 128] nets, one update's numpy heap peaks at
10.3 MB under tracemalloc, about 6 MB of it one net's activations.
"""

import csv
import numbers
import os
import time
from collections import deque
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import networks as nets
from .checkpoint import PolicyBundle, save_checkpoint
from .env import VecLocomotionEnv, input_scales

F32 = np.float32


@dataclass
class TrainConfig:
    n_envs: int = 4096
    n_iterations: int = 2000
    steps_per_rollout: int = 24
    gamma: float = 0.99
    lam: float = 0.95
    clip_ratio: float = 0.2
    learning_rate: float = 3e-4
    epochs: int = 5
    minibatches: int = 4
    entropy_coef: float = 0.005
    value_coef: float = 1.0
    max_grad_norm: float = 1.0
    hidden: list = field(default_factory=lambda: [512, 256, 128])
    init_std: float = 1.0
    min_std: float = 0.05  # exploration floor; premature collapse strands the mean
    checkpoint_every: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("n_envs", "n_iterations", "steps_per_rollout", "epochs", "minibatches",
                     "checkpoint_every", "seed"):  # a float fails in train, a numpy int in JSON
            value, least = getattr(self, name), 0 if name in ("checkpoint_every", "seed") else 1
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            setattr(self, name, int(value))
        if not (0.0 < self.gamma <= 1.0 and 0.0 < self.lam <= 1.0):
            raise ValueError("gamma and lam must lie in (0, 1]")
        if not 0.0 < self.clip_ratio < 1.0:
            raise ValueError("clip_ratio must lie in (0, 1)")
        for name in ("learning_rate", "entropy_coef", "value_coef", "max_grad_norm", "init_std"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.min_std >= 0.0:
            raise ValueError("min_std must not be negative")
        if not all(isinstance(h, numbers.Integral) and h > 0 for h in self.hidden):
            raise ValueError(f"hidden sizes must be positive integers, got {self.hidden!r}")
        self.hidden = [int(h) for h in self.hidden]
        if self.minibatches > self.n_envs * self.steps_per_rollout:  # else one is empty
            raise ValueError(f"minibatches must be at most n_envs * steps_per_rollout = "
                             f"{self.n_envs * self.steps_per_rollout}, got {self.minibatches}")


@dataclass
class RolloutBuffer:
    """Rectangular (steps x envs) on-policy storage."""

    obs: np.ndarray  # (T, N, obs_dim)
    priv: np.ndarray  # (T, N, priv_dim)
    actions: np.ndarray  # (T, N, adim) raw Gaussian samples
    log_probs: np.ndarray  # (T, N)
    rewards: np.ndarray  # (T, N)
    values: np.ndarray  # (T + 1, N); last row bootstraps the rollout tail
    terminations: np.ndarray  # (T, N) bool: env terminated (no bootstrap)
    truncations: np.ndarray  # (T, N) bool: env truncated (bootstrap kept)
    truncation_values: np.ndarray  # (T, N) critic value of the truncated final state

    @property
    def horizon(self):
        return self.rewards.shape[0]

    @property
    def n_envs(self):
        return self.rewards.shape[1]


def allocate_buffer(T, n, obs_dim, priv_dim, adim) -> RolloutBuffer:
    return RolloutBuffer(
        obs=np.zeros((T, n, obs_dim), dtype=F32),
        priv=np.zeros((T, n, priv_dim), dtype=F32),
        actions=np.zeros((T, n, adim), dtype=F32),
        log_probs=np.zeros((T, n)),  # f64: ratios at unchanged params must be exactly 1
        rewards=np.zeros((T, n)),
        values=np.zeros((T + 1, n)),
        terminations=np.zeros((T, n), dtype=bool),
        truncations=np.zeros((T, n), dtype=bool),
        truncation_values=np.zeros((T, n)),
    )


def compute_gae(buffer: RolloutBuffer, gamma: float, lam: float):
    """Advantages and returns; terminations suppress the bootstrap value,
    truncations keep it (using the stored value of the truncated state)."""
    T, n = buffer.horizon, buffer.n_envs
    if not np.all(np.isfinite(buffer.rewards)):
        raise ValueError("rewards contain non-finite entries")
    advantages = np.zeros((T, n))
    gae = np.zeros(n)
    for t in range(T - 1, -1, -1):
        done = buffer.terminations[t] | buffer.truncations[t]
        next_value = np.where(buffer.truncations[t], buffer.truncation_values[t],
                              buffer.values[t + 1])
        delta = buffer.rewards[t] + gamma * next_value * ~buffer.terminations[t] - buffer.values[t]
        gae = delta + gamma * lam * ~done * gae
        advantages[t] = gae
    returns = advantages + buffer.values[:T]
    return advantages, returns


def normalize_advantages(advantages):
    mean = advantages.mean()
    std = advantages.std()
    return (advantages - mean) / (std + 1e-8)


@dataclass
class UpdateStats:
    policy_loss: float
    value_loss: float
    entropy: float
    approx_kl: float
    clip_fraction: float
    grad_norm: float


class PPOAgent:
    """Policy bundle plus one Adam over every parameter. The nets' input widths
    are those of their per-channel input scales, obs_scale and priv_scale."""

    def __init__(self, grouping, obs_scale, priv_scale, action_dim, config: TrainConfig, rng):
        actor = nets.GaussianActor(
            nets.MLP([len(obs_scale), *config.hidden, action_dim], rng, out_gain=0.01),
            np.full(action_dim, np.log(config.init_std), dtype=F32),
        )
        critic = nets.MLP([len(priv_scale), *config.hidden, 1], rng)
        self.bundle = PolicyBundle(grouping, actor, critic, obs_scale, priv_scale)
        self.cfg = config
        self.params = actor.params + critic.params
        self.optimizer = nets.Adam(self.params, lr=config.learning_rate)

    def update(self, buffer: RolloutBuffer, rng) -> UpdateStats:
        cfg = self.cfg
        advantages, returns = compute_gae(buffer, cfg.gamma, cfg.lam)
        advantages = normalize_advantages(advantages)
        B = buffer.horizon * buffer.n_envs
        rows = (buffer.obs.reshape(B, -1), buffer.priv.reshape(B, -1),
                buffer.actions.reshape(B, -1), buffer.log_probs.reshape(B),
                advantages.reshape(B).astype(F32), returns.reshape(B).astype(F32))
        # min_std = 0 turns the floor off; log(0) would warn
        log_std_floor = np.log(cfg.min_std) if cfg.min_std > 0 else -np.inf
        totals = np.zeros(6)
        for epoch in range(cfg.epochs):
            perm = rng.permutation(B)
            for k, mb in enumerate(np.array_split(perm, cfg.minibatches)):
                totals += self._minibatch_step(rows, mb, log_std_floor, epoch, k)
        return UpdateStats(*(totals / (cfg.epochs * cfg.minibatches)))

    def _minibatch_step(self, rows, mb, log_std_floor, epoch, k):
        """One Adam step on the buffer rows mb; returns the UpdateStats terms.

        Holds one net's activations for one minibatch at a time: the rows are
        gathered and scaled here, the actor's forward, loss and backward run
        before the critic's, each backward consumes its cache, and the
        gradients die when this returns.
        """
        cfg, bundle = self.cfg, self.bundle
        actor, critic = bundle.actor, bundle.critic
        obs, priv, actions, logp_old, adv, ret = rows
        m = mb.size
        logp_old, adv = logp_old[mb], adv[mb]
        logp, entropy, cache = actor.evaluate(obs[mb] * bundle.obs_scale, actions[mb])
        ratio = np.exp(logp - logp_old)
        surr1 = ratio * adv
        surr2 = np.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio) * adv
        policy_loss = -np.minimum(surr1, surr2).mean()
        _require_finite(epoch, k, policy=policy_loss, entropy=entropy)
        # d(-min(surr1, surr2))/d ratio is -A on the unclipped branch
        dlogp = (-(adv * ratio * (surr1 <= surr2)) / m).astype(F32)
        grads = actor.backward(cache, dlogp, dlogstd_extra=-cfg.entropy_coef)
        v, acts = critic.forward(priv[mb] * bundle.priv_scale)
        v_err = v[:, 0] - ret[mb]
        value_loss = float(np.mean(v_err.astype(np.float64) ** 2))
        _require_finite(epoch, k, value=value_loss)
        grads += critic.backward(acts, (2.0 * cfg.value_coef * v_err / m).astype(F32)[:, None])
        grads, norm = nets.clip_grad_norm(grads, cfg.max_grad_norm)
        self.optimizer.step(self.params, grads)
        np.maximum(actor.log_std, log_std_floor, out=actor.log_std, dtype=F32, casting="unsafe")
        return (policy_loss, value_loss, entropy, float(np.mean(logp_old - logp)),
                float(np.mean(np.abs(ratio - 1.0) > cfg.clip_ratio)), norm)


def _require_finite(epoch, k, **terms):
    """Raise before any parameter moves if a loss term is not finite."""
    bad = [name for name, x in terms.items() if not np.isfinite(x)]
    if bad:
        values = " ".join(f"{name}={x}" for name, x in terms.items())
        raise RuntimeError(
            f"non-finite {' and '.join(bad)} loss in epoch {epoch} minibatch {k}: {values}"
        )


WALL_TIME_COLUMNS = ("rollout_s", "update_s", "env_steps_per_s")
LEARNER_COLUMNS = ("iteration", "env_steps", "mean_episode_return", "mean_episode_length",
                   *(f.name for f in fields(UpdateStats)), "action_std")


def rollout(env, bundle, buffer, obs, priv, rng, on_step=None):
    """Fill buffer with one rollout of bundle's sampled policy on env, from the
    env's observations (obs, priv), and return the next ones. Calls
    on_step(info) after each env step."""
    for t in range(buffer.horizon):
        action, logp = bundle.act_sampled(obs, rng)
        buffer.values[t] = bundle.value(priv)
        buffer.obs[t] = obs
        buffer.priv[t] = priv
        buffer.actions[t] = action
        buffer.log_probs[t] = logp
        obs, priv, reward, done, info = env.step(action)
        buffer.rewards[t] = reward
        buffer.terminations[t] = info["terminated"]
        truncated = buffer.truncations[t] = info["truncated"]
        buffer.truncation_values[t] = 0.0
        if np.any(truncated):  # the critic's value of the states they ended in
            final_v = bundle.value(info["final_privileged"])
            buffer.truncation_values[t] = np.where(truncated, final_v, 0.0)
        if on_step is not None:
            on_step(info)
    buffer.values[-1] = bundle.value(priv)
    return obs, priv


def train_loop(env, agent, buffer, obs, priv, rng, config: TrainConfig, out_dir):
    """config.n_iterations PPO iterations of agent on env from its observations
    (obs, priv), each a rollout into buffer and an update, with a metrics CSV
    row each, a checkpoint every config.checkpoint_every (never at 0) and one
    at the end. Returns (bundle, metrics_path, checkpoint_path)."""
    cfg, bundle = config, agent.bundle
    recent, sums = deque(maxlen=100), {}  # the last 100 episodes' (return, length)

    def on_step(info):
        done = info["terminated"] | info["truncated"]
        recent.extend(zip(info["episode_return"][done], info["episode_length"][done]))
        for column, pair in env.step_metrics(info).items():
            sums[column] = sums.get(column, 0.0) + np.asarray(pair, dtype=float)

    metrics_path = os.path.join(out_dir, "metrics.csv")
    ckpt_prefix = os.path.join(out_dir, f"policy_{bundle.grouping}")
    rollout_env_steps = buffer.horizon * buffer.n_envs
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for it in range(cfg.n_iterations):
            sums.clear()
            started = time.perf_counter()
            obs, priv = rollout(env, bundle, buffer, obs, priv, rng, on_step)
            rollout_s = time.perf_counter() - started
            stats = agent.update(buffer, rng)
            update_s = time.perf_counter() - started - rollout_s
            returns, lengths = zip(*recent) if recent else ((0.0,), (0.0,))
            if it == 0:
                writer.writerow((*LEARNER_COLUMNS, *sums, *WALL_TIME_COLUMNS))
            cells = ([np.mean(returns), np.mean(lengths), *astuple(stats),
                      np.exp(bundle.actor.log_std).mean()]
                     + [num / den for num, den in sums.values()]
                     + [rollout_s, update_s, rollout_env_steps / rollout_s])
            writer.writerow([it, (it + 1) * rollout_env_steps] + [repr(float(x)) for x in cells])
            if not all(np.isfinite(cells)):
                raise RuntimeError(f"non-finite metric at iteration {it}")
            if cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(f"{ckpt_prefix}_it{it + 1:06d}.ckpt", bundle,
                                config={"iteration": it + 1, "train": cfg.__dict__.copy()})
    save_checkpoint(f"{ckpt_prefix}.ckpt", bundle, config={"train": cfg.__dict__.copy()})
    return bundle, metrics_path, f"{ckpt_prefix}.ckpt"


def train(grouping, config: TrainConfig, out_dir):
    """Train a grouping's policy on ``VecLocomotionEnv`` by ``train_loop`` and
    return its result. Keeps the hook points of ``bench/run.py``: one call of
    the module's ``allocate_buffer``, after the env, its first observations and
    the agent exist and before the first ``env.step``; ``agent.update(buffer,
    rng)`` once per iteration, right after its rollout; ``env.step`` called
    through the class."""
    cfg = config
    os.makedirs(out_dir, exist_ok=True)
    env = VecLocomotionEnv(grouping, n_envs=cfg.n_envs, seed=cfg.seed)
    obs, priv = env.observe(), env.observe_privileged()
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xA11CE)))
    agent = PPOAgent(grouping, *input_scales(grouping), env.action_dim, cfg, rng)
    buffer = allocate_buffer(cfg.steps_per_rollout, cfg.n_envs, env.obs_dim, env.priv_dim,
                             env.action_dim)
    return train_loop(env, agent, buffer, obs, priv, rng, cfg, out_dir)
