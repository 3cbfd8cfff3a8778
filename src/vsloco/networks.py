"""Small float32 MLP stack with hand-written backprop and Adam.

A policy is a ``GaussianActor`` (an ``MLP`` mean and a log-stddev vector) and
a critic that is a plain ``MLP`` with one output, the value. Keeping the
networks in numpy makes training bit-deterministic for a fixed seed and lets
checkpoints be plain little-endian float32 blobs. Gradients are exact; a
finite-difference oracle in the tests pins them down.
"""

import numpy as np

F32 = np.float32


def orthogonal(rng, shape, gain=1.0):
    """Orthogonal init (Saxe et al., ICLR 2014): gain times the orthonormal
    factor of a standard normal draw of the given shape, so the rows of a
    wide matrix and the columns of a tall one are orthonormal.

    The factor comes by Cholesky QR (Fukaya et al., 2014) of the draw's tall
    orientation t (m x k, m >= k): R = cholesky(tᵀt)ᵀ, Q = t R⁻¹. R is upper
    triangular with a positive diagonal, and a full-rank t has exactly one QR
    factorization with such an R, so Q is the Householder Q with each column's
    sign flipped to make diag(R) positive. One Gram product, a k x k Cholesky
    and inverse, and one product cost less than LAPACK's Householder QR.

    Error: in float64, Q's distance from that exact factor and from
    orthonormality grows as κ(t)²·2⁻⁵³ (Householder's as 2⁻⁵³). A Gaussian draw
    at the default nets' tall and wide shapes has κ(t) of about 6 at most, so
    the float32 weights equal the rounded Householder ones except, rarely, for
    an entry 1 ulp away. A square n x n draw has κ(t) of order n with a heavy
    tail, so a few entries, mostly tiny ones, differ by several ulp (up to 11
    over 20 draws at 256 x 256), while the rows stay orthonormal to float32
    rounding. The Cholesky raises LinAlgError only for κ(t) near 2²⁶, which a
    Gaussian draw of these sizes almost never has.
    """
    a = rng.standard_normal(shape)
    t = a if shape[0] >= shape[1] else a.T
    q = t @ np.linalg.inv(np.linalg.cholesky(t.T @ t).T)
    if shape[0] < shape[1]:
        q = q.T
    return np.ascontiguousarray(gain * q, dtype=F32)


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

    @classmethod
    def from_arrays(cls, W, b):
        """The net with weights W and biases b as given, layer by layer (no init)."""
        net = cls.__new__(cls)
        net.W, net.b = list(W), list(b)
        net.sizes = [net.W[0].shape[1]] + [w.shape[0] for w in net.W]
        return net

    @property
    def params(self):
        return self.W + self.b

    def forward(self, x):
        """Output and the activation cache [input, hidden..., output]."""
        x = np.asarray(x, dtype=F32)
        acts = [x]
        h = x
        last = len(self.W) - 1
        for k, (W, b) in enumerate(zip(self.W, self.b)):
            h = h @ W.T
            h += b
            if k < last:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def backward(self, acts, grad_out):
        """Gradients of sum(grad_out * output) w.r.t. params, in the order of
        `params`: the weights, then the biases.

        Consumes `acts`, the cache of one `forward`: each hidden activation is
        overwritten by its tanh' = 1 - a² and every entry is popped once used,
        so the list comes back empty and a second call on it raises.
        """
        if len(acts) != len(self.W) + 1:
            raise ValueError("activation cache is consumed or not from this net")
        gW = [None] * len(self.W)
        gb = [None] * len(self.b)
        g = np.asarray(grad_out, dtype=F32)
        acts.pop()  # the output
        for k in range(len(self.W) - 1, -1, -1):
            a = acts.pop()
            gW[k] = g.T @ a
            gb[k] = g.sum(axis=0)
            if k > 0:
                g = g @ self.W[k]
                a *= a
                np.subtract(1.0, a, out=a)
                g *= a  # tanh'
        return gW + gb


# Adam's moment decay rates and denominator guard: Kingma & Ba's (ICLR 2015) defaults
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam at learning rate lr over the arrays params, which ``step`` updates in place."""

    def __init__(self, params, lr):
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= (self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)).astype(p.dtype)


def clip_grad_norm(grads, max_norm):
    """Scale the arrays in `grads` in place to a global norm of at most
    max_norm; returns them and their norm before clipping."""
    total = np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads))
    if total > max_norm and total > 0:
        scale = F32(max_norm / total)
        for g in grads:
            g *= scale
    return grads, total


LOG_2PI = np.log(2.0 * np.pi)


class GaussianActor:
    """Diagonal Gaussian policy: an MLP's output is the mean, a state-independent
    float32 vector the log-stddev."""

    def __init__(self, mlp, log_std):
        self.mlp = mlp
        self.log_std = log_std

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
        """Gradients of sum(dlogp * logp) (+ entropy terms via dlogstd_extra).
        Consumes cache["acts"] (see `MLP.backward`)."""
        z, std = cache["z"], cache["std"]
        dmean = dlogp[:, None] * (z / std)  # d logp / d mean
        dlogstd = (dlogp[:, None] * (z**2 - 1.0)).sum(axis=0) + dlogstd_extra
        return self.mlp.backward(cache["acts"], dmean) + [dlogstd.astype(F32)]

