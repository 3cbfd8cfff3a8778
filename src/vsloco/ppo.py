"""PPO with GAE over the vectorized locomotion task.

Asymmetric actor-critic: the actor consumes the noisy deployable
observation, the critic the privileged simulator state; the critic is
dropped at inference. All math is seeded numpy, so two runs with the same
config produce bit-identical metrics.
"""

import csv
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import networks as nets
from .checkpoint import PolicyBundle, obs_scale_vector, priv_scale_vector, save_checkpoint
from .env import VecLocomotionEnv
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
                     "epochs", "minibatches", "entropy_coef", "value_coef", "max_grad_norm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def train_config_from_dict(cfg: dict) -> TrainConfig:
    known = set(TrainConfig.__dataclass_fields__)
    unknown = set(cfg) - known
    if unknown:
        raise ValueError(f"unknown training config keys: {sorted(unknown)}")
    return TrainConfig(**cfg)


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
        self.bundle = PolicyBundle(
            grouping, actor, critic, obs_scale_vector(grouping), priv_scale_vector(grouping)
        )
        self.cfg = config
        self.params = actor.params + critic.params
        self.optimizer = nets.Adam(self.params, lr=config.learning_rate)

    def update(self, buffer: RolloutBuffer, rng) -> UpdateStats:
        cfg = self.cfg
        actor, critic = self.bundle.actor, self.bundle.critic
        advantages, returns = compute_gae(buffer, cfg.gamma, cfg.lam)
        advantages = normalize_advantages(advantages)
        B = buffer.horizon * buffer.n_envs
        obs = (buffer.obs.reshape(B, -1) * self.bundle.obs_scale).astype(F32)
        priv = (buffer.priv.reshape(B, -1) * self.bundle.priv_scale).astype(F32)
        actions = buffer.actions.reshape(B, -1)
        logp_old = buffer.log_probs.reshape(B)
        adv = advantages.reshape(B).astype(F32)
        ret = returns.reshape(B).astype(F32)

        n_actor = len(actor.params)
        totals = np.zeros(6)
        count = 0
        for epoch in range(cfg.epochs):
            perm = rng.permutation(B)
            for k, mb in enumerate(np.array_split(perm, cfg.minibatches)):
                m = mb.size
                logp, entropy, cache_a = actor.evaluate(obs[mb], actions[mb])
                ratio = np.exp(logp - logp_old[mb])
                surr1 = ratio * adv[mb]
                surr2 = np.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio) * adv[mb]
                policy_loss = -np.minimum(surr1, surr2).mean()
                v, cache_c = critic.evaluate(priv[mb])
                v_err = v - ret[mb]
                value_loss = float(np.mean(v_err.astype(np.float64) ** 2))
                loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss in epoch {epoch} minibatch {k}: "
                        f"policy={policy_loss} value={value_loss} entropy={entropy}"
                    )
                # d(-min(surr1, surr2))/d ratio is -A on the unclipped branch
                picked = surr1 <= surr2
                dlogp = (-(adv[mb] * ratio * picked) / m).astype(F32)
                actor_grads = actor.backward(cache_a, dlogp, dlogstd_extra=-cfg.entropy_coef)
                dv = (2.0 * cfg.value_coef * v_err / m).astype(F32)
                critic_grads = critic.backward(cache_c, dv)
                grads, norm = nets.clip_grad_norm(
                    actor_grads + critic_grads, cfg.max_grad_norm
                )
                self.optimizer.step(self.params, grads)
                np.maximum(
                    actor.log_std, np.log(cfg.min_std), out=actor.log_std, dtype=F32,
                    casting="unsafe",
                )
                totals += (
                    policy_loss,
                    value_loss,
                    entropy,
                    float(np.mean(logp_old[mb] - logp)),
                    float(np.mean(np.abs(ratio - 1.0) > cfg.clip_ratio)),
                    norm,
                )
                count += 1
        stats = totals / count
        return UpdateStats(*stats)


def _float_cell(x):
    return repr(float(x))


METRIC_COLUMNS = (
    ["iteration", "env_steps", "mean_episode_return", "mean_episode_length",
     "policy_loss", "value_loss", "entropy", "approx_kl", "clip_fraction",
     "grad_norm", "action_std", "mean_kp_hip", "mean_kp_thigh", "mean_kp_knee"]
    + [f"rew_{t}" for t in REWARD_TERMS]
)


def train(grouping, config: TrainConfig, out_dir):
    """Full training loop; writes checkpoints and a metrics CSV to out_dir.

    Returns (bundle, metrics_path, checkpoint_path).
    """
    cfg = config
    os.makedirs(out_dir, exist_ok=True)
    env = VecLocomotionEnv(grouping, n_envs=cfg.n_envs, seed=cfg.seed)
    obs, priv = env.reset_all(randomization_on=cfg.randomization_on)
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
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for it in range(cfg.n_iterations):
            kp_sum = np.zeros(3)
            rew_sums = np.zeros(len(REWARD_TERMS))
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
            buffer.values[-1] = bundle.value(priv)
            stats = agent.update(buffer, rng)
            mean_ret = float(np.mean(recent_returns)) if recent_returns else 0.0
            mean_len = float(np.mean(recent_lengths)) if recent_lengths else 0.0
            row = (
                [it, (it + 1) * cfg.n_envs * cfg.steps_per_rollout,
                 _float_cell(mean_ret), _float_cell(mean_len),
                 _float_cell(stats.policy_loss), _float_cell(stats.value_loss),
                 _float_cell(stats.entropy), _float_cell(stats.approx_kl),
                 _float_cell(stats.clip_fraction), _float_cell(stats.grad_norm),
                 _float_cell(np.exp(bundle.actor.log_std).mean())]
                + [_float_cell(v / cfg.steps_per_rollout) for v in kp_sum]
                + [_float_cell(v / cfg.steps_per_rollout) for v in rew_sums]
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
