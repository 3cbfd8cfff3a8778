"""Small float32 MLP stack with hand-written backprop and Adam.

Keeping the networks in numpy makes training bit-deterministic for a fixed
seed and lets checkpoints be plain little-endian float32 blobs. Gradients
are exact; a finite-difference oracle in the tests pins them down.
"""

import numpy as np

F32 = np.float32


def orthogonal(rng, shape, gain=1.0):
    """Orthogonal init (same convention RL actor-critics usually use)."""
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a if shape[0] >= shape[1] else a.T)
    q = q * np.sign(np.diag(r))
    if shape[0] < shape[1]:
        q = q.T
    return np.ascontiguousarray(gain * q[: shape[0], : shape[1]], dtype=F32)


class MLP:
    """Fully connected net, tanh hidden activations, linear output."""

    def __init__(self, sizes, rng, out_gain=1.0):
        self.sizes = list(sizes)
        self.W = []
        self.b = []
        for k in range(len(sizes) - 1):
            gain = np.sqrt(2.0) if k < len(sizes) - 2 else out_gain
            self.W.append(orthogonal(rng, (sizes[k + 1], sizes[k]), gain))
            self.b.append(np.zeros(sizes[k + 1], dtype=F32))

    @property
    def params(self):
        return self.W + self.b

    def forward(self, x):
        x = np.asarray(x, dtype=F32)
        acts = [x]
        h = x
        last = len(self.W) - 1
        for k, (W, b) in enumerate(zip(self.W, self.b)):
            h = h @ W.T + b
            if k < last:
                h = np.tanh(h)
            acts.append(h)
        return h, acts

    def backward(self, acts, grad_out):
        """Gradients of sum(grad_out * output) w.r.t. params and input."""
        gW = [None] * len(self.W)
        gb = [None] * len(self.b)
        g = np.asarray(grad_out, dtype=F32)
        last = len(self.W) - 1
        for k in range(last, -1, -1):
            gW[k] = g.T @ acts[k]
            gb[k] = g.sum(axis=0)
            if k > 0:
                g = g @ self.W[k]
                g = g * (1.0 - acts[k] ** 2)  # tanh'
        return gW + gb, g


class Adam:
    def __init__(self, params, lr=3e-4, betas=(0.9, 0.999), eps=1e-8):
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= (self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)).astype(p.dtype)


def clip_grad_norm(grads, max_norm):
    total = np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads))
    if total > max_norm and total > 0:
        scale = F32(max_norm / total)
        grads = [g * scale for g in grads]
    return grads, total


LOG_2PI = np.log(2.0 * np.pi)


class GaussianActor:
    """Diagonal Gaussian policy: MLP mean, state-independent log-stddev."""

    def __init__(self, obs_dim, action_dim, hidden, rng, init_std=1.0, out_gain=0.01):
        self.mlp = MLP([obs_dim] + list(hidden) + [action_dim], rng, out_gain=out_gain)
        self.log_std = np.full(action_dim, np.log(init_std), dtype=F32)

    @property
    def params(self):
        return self.mlp.params + [self.log_std]

    def sample(self, obs, rng):
        mean, _ = self.mlp.forward(obs)
        std = np.exp(self.log_std)
        noise = rng.standard_normal(mean.shape).astype(F32)
        action = mean + std * noise
        logp, _ = self.log_prob_of(mean, action)
        return action, logp

    def mean_action(self, obs):
        return self.mlp.forward(obs)[0]

    def log_prob_of(self, mean, action):
        """Log-density of action under the policy with this mean, and the
        standardized action z = (action - mean) / std."""
        z = (action - mean) / np.exp(self.log_std)
        return (-0.5 * (z**2) - self.log_std - 0.5 * LOG_2PI).sum(axis=-1), z

    def evaluate(self, obs, action):
        """Log-probs, entropy and the caches needed for the backward pass."""
        mean, acts = self.mlp.forward(obs)
        std = np.exp(self.log_std)
        logp, z = self.log_prob_of(mean, action)
        entropy = float(self.log_std.sum() + 0.5 * self.log_std.size * (LOG_2PI + 1.0))
        return logp, entropy, {"acts": acts, "z": z, "std": std}

    def backward(self, cache, dlogp, dlogstd_extra=0.0):
        """Gradients of sum(dlogp * logp) (+ entropy terms via dlogstd_extra)."""
        z, std = cache["z"], cache["std"]
        dmean = dlogp[:, None] * (z / std)  # d logp / d mean
        dlogstd = (dlogp[:, None] * (z**2 - 1.0)).sum(axis=0) + dlogstd_extra
        mlp_grads, _ = self.mlp.backward(cache["acts"], dmean)
        return mlp_grads + [dlogstd.astype(F32)]


class Critic:
    def __init__(self, in_dim, hidden, rng):
        self.mlp = MLP([in_dim] + list(hidden) + [1], rng, out_gain=1.0)

    @property
    def params(self):
        return self.mlp.params

    def value(self, x):
        return self.mlp.forward(x)[0][:, 0]

    def evaluate(self, x):
        v, acts = self.mlp.forward(x)
        return v[:, 0], acts

    def backward(self, acts, dv):
        grads, _ = self.mlp.backward(acts, dv[:, None])
        return grads
