"""PPO with GAE over the vectorized locomotion task.

Asymmetric actor-critic: the actor consumes the noisy deployable
observation, the critic the privileged simulator state; the critic is
dropped at inference. All math is seeded numpy, so two runs with the same
config produce bit-identical metrics but for the wall-time columns.

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
from dataclasses import dataclass, field

import numpy as np

from . import networks as nets
from .checkpoint import PolicyBundle, save_checkpoint
from .env import TERMINATION_REASONS, VecLocomotionEnv, input_scales
from .rewards import REWARD_TERMS

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
    randomization_on: bool = True

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0 and 0.0 < self.lam <= 1.0):
            raise ValueError("gamma and lam must lie in (0, 1]")
        if not 0.0 < self.clip_ratio < 1.0:
            raise ValueError("clip_ratio must lie in (0, 1)")
        for name in ("n_envs", "n_iterations", "steps_per_rollout", "learning_rate",
                     "epochs", "minibatches", "entropy_coef", "value_coef", "max_grad_norm",
                     "init_std"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.min_std >= 0.0:
            raise ValueError("min_std must not be negative")
        if not all(isinstance(h, numbers.Integral) and h > 0 for h in self.hidden):
            raise ValueError(f"hidden sizes must be positive integers, got {self.hidden!r}")


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
        next_value = np.where(
            buffer.truncations[t], buffer.truncation_values[t], buffer.values[t + 1]
        )
        delta = (
            buffer.rewards[t]
            + gamma * next_value * ~buffer.terminations[t]
            - buffer.values[t]
        )
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
    """Policy bundle plus one Adam over every parameter."""

    def __init__(self, grouping, obs_dim, priv_dim, action_dim, config: TrainConfig, rng):
        actor = nets.GaussianActor(
            obs_dim, action_dim, config.hidden, rng, init_std=config.init_std
        )
        critic = nets.Critic(priv_dim, config.hidden, rng)
        self.bundle = PolicyBundle(grouping, actor, critic, *input_scales(grouping))
        self.cfg = config
        self.params = actor.params + critic.params
        self.optimizer = nets.Adam(self.params, lr=config.learning_rate)

    def update(self, buffer: RolloutBuffer, rng) -> UpdateStats:
        cfg = self.cfg
        advantages, returns = compute_gae(buffer, cfg.gamma, cfg.lam)
        advantages = normalize_advantages(advantages)
        B = buffer.horizon * buffer.n_envs
        rows = (
            buffer.obs.reshape(B, -1),
            buffer.priv.reshape(B, -1),
            buffer.actions.reshape(B, -1),
            buffer.log_probs.reshape(B),
            advantages.reshape(B).astype(F32),
            returns.reshape(B).astype(F32),
        )
        # min_std = 0 turns the floor off; log(0) would warn
        log_std_floor = np.log(cfg.min_std) if cfg.min_std > 0 else -np.inf
        totals = np.zeros(6)
        count = 0
        for epoch in range(cfg.epochs):
            perm = rng.permutation(B)
            for k, mb in enumerate(np.array_split(perm, cfg.minibatches)):
                totals += self._minibatch_step(rows, mb, log_std_floor, epoch, k)
                count += 1
        stats = totals / count
        return UpdateStats(*stats)

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
        v, acts = critic.evaluate(priv[mb] * bundle.priv_scale)
        v_err = v - ret[mb]
        value_loss = float(np.mean(v_err.astype(np.float64) ** 2))
        _require_finite(epoch, k, value=value_loss)
        grads += critic.backward(acts, (2.0 * cfg.value_coef * v_err / m).astype(F32))
        grads, norm = nets.clip_grad_norm(grads, cfg.max_grad_norm)
        self.optimizer.step(self.params, grads)
        np.maximum(
            actor.log_std, log_std_floor, out=actor.log_std, dtype=F32, casting="unsafe"
        )
        return (
            policy_loss,
            value_loss,
            entropy,
            float(np.mean(logp_old - logp)),
            float(np.mean(np.abs(ratio - 1.0) > cfg.clip_ratio)),
            norm,
        )


def _require_finite(epoch, k, **terms):
    """Raise before any parameter moves if a loss term is not finite."""
    bad = [name for name, x in terms.items() if not np.isfinite(x)]
    if bad:
        values = " ".join(f"{name}={x}" for name, x in terms.items())
        raise RuntimeError(
            f"non-finite {' and '.join(bad)} loss in epoch {epoch} minibatch {k}: {values}"
        )


def _float_cell(x):
    return repr(float(x))


WALL_TIME_COLUMNS = ("rollout_s", "update_s", "env_steps_per_s")
METRIC_COLUMNS = (
    ["iteration", "env_steps", "mean_episode_return", "mean_episode_length",
     "policy_loss", "value_loss", "entropy", "approx_kl", "clip_fraction",
     "grad_norm", "action_std", "mean_kp_hip", "mean_kp_thigh", "mean_kp_knee"]
    + [f"rew_{t}" for t in REWARD_TERMS]
    # terminated envs per env-step, in all and by reason; the reasons sum to the total
    + ["terminations_per_env_step"]
    + [f"term_{reason}_per_env_step" for reason in TERMINATION_REASONS[1:]]
    # shares of the rollout's foot-steps in contact and with a saturated friction cone
    + ["contact_frac", "cone_saturated_frac"]
    # wall time of the rollout and of the update, the rollout's env-steps per second
    + list(WALL_TIME_COLUMNS)
)


def train(grouping, config: TrainConfig, out_dir):
    """Full training loop; writes checkpoints and a metrics CSV to out_dir.

    Returns (bundle, metrics_path, checkpoint_path).
    """
    cfg = config
    os.makedirs(out_dir, exist_ok=True)
    env = VecLocomotionEnv(
        grouping, n_envs=cfg.n_envs, seed=cfg.seed, randomization_on=cfg.randomization_on
    )
    obs, priv = env.observe(), env.observe_privileged()
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xA11CE)))
    agent = PPOAgent(grouping, env.obs_dim, env.priv_dim, env.action_dim, cfg, rng)
    bundle = agent.bundle
    buffer = allocate_buffer(
        cfg.steps_per_rollout, cfg.n_envs, env.obs_dim, env.priv_dim, env.action_dim
    )
    recent_returns = deque(maxlen=100)
    recent_lengths = deque(maxlen=100)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    ckpt_path = os.path.join(out_dir, f"policy_{grouping}.ckpt")
    rollout_env_steps = cfg.n_envs * cfg.steps_per_rollout
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for it in range(cfg.n_iterations):
            kp_sum = np.zeros(3)
            rew_sums = np.zeros(len(REWARD_TERMS))
            reason_counts = np.zeros(len(TERMINATION_REASONS), dtype=int)
            foot_counts = np.zeros(2, dtype=int)  # feet in contact, feet saturated
            started = time.perf_counter()
            for t in range(cfg.steps_per_rollout):
                action, logp = bundle.act_sampled(obs, rng)
                value = bundle.value(priv)
                buffer.obs[t] = obs
                buffer.priv[t] = priv
                buffer.actions[t] = action
                buffer.log_probs[t] = logp
                buffer.values[t] = value
                obs, priv, reward, done, info = env.step(action)
                buffer.rewards[t] = reward
                buffer.terminations[t] = info["terminated"]
                buffer.truncations[t] = info["truncated"]
                if np.any(info["truncated"]):
                    final_v = bundle.value(info["final_privileged"])
                    buffer.truncation_values[t] = np.where(info["truncated"], final_v, 0.0)
                else:
                    buffer.truncation_values[t] = 0.0
                finished = np.isfinite(info["episode_return"])
                for i in np.flatnonzero(finished):
                    recent_returns.append(info["episode_return"][i])
                    recent_lengths.append(info["episode_length"][i])
                kp = info["kp"]
                kp_sum += (kp[:, 0::3].mean(), kp[:, 1::3].mean(), kp[:, 2::3].mean())
                weighted = info["breakdown"].weighted
                rew_sums += [weighted[term].mean() for term in REWARD_TERMS]
                reason_counts += np.bincount(info["reasons"], minlength=len(TERMINATION_REASONS))
                foot_counts += (env.state.contact_flags.sum(), env.state.cone_saturated.sum())
            buffer.values[-1] = bundle.value(priv)
            rollout_s = time.perf_counter() - started
            stats = agent.update(buffer, rng)
            update_s = time.perf_counter() - started - rollout_s
            mean_ret = float(np.mean(recent_returns)) if recent_returns else 0.0
            mean_len = float(np.mean(recent_lengths)) if recent_lengths else 0.0
            row = (
                [it, (it + 1) * rollout_env_steps,
                 _float_cell(mean_ret), _float_cell(mean_len),
                 _float_cell(stats.policy_loss), _float_cell(stats.value_loss),
                 _float_cell(stats.entropy), _float_cell(stats.approx_kl),
                 _float_cell(stats.clip_fraction), _float_cell(stats.grad_norm),
                 _float_cell(np.exp(bundle.actor.log_std).mean())]
                + [_float_cell(v / cfg.steps_per_rollout) for v in kp_sum]
                + [_float_cell(v / cfg.steps_per_rollout) for v in rew_sums]
                + [_float_cell(c / rollout_env_steps)
                   for c in (reason_counts[1:].sum(), *reason_counts[1:])]
                + [_float_cell(c / (rollout_env_steps * env.state.contact_flags.shape[1]))
                   for c in foot_counts]
                + [_float_cell(x) for x in (rollout_s, update_s, rollout_env_steps / rollout_s)]
            )
            writer.writerow(row)
            if not all(np.isfinite(float(x)) for x in row[2:]):
                raise RuntimeError(f"non-finite metric at iteration {it}")
            if cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(
                    os.path.join(out_dir, f"policy_{grouping}_it{it + 1:06d}.ckpt"),
                    bundle,
                    extra_config={"iteration": it + 1, "train": cfg.__dict__.copy()},
                )
    save_checkpoint(ckpt_path, bundle, extra_config={"train": cfg.__dict__.copy()})
    return bundle, metrics_path, ckpt_path
