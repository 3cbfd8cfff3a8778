"""Soft-margin RBF-kernel SVM trained by sequential minimal optimization
with the maximal-violating-pair working set, with Platt sigmoid calibration
of decision scores.

Used to fit the push-recovery boundary: features are the Cartesian push
force components, labels are recovery success. Small, dense, and fully
deterministic; the tests pin it against an exhaustive dual grid search and
a projected-gradient solve.
"""

from dataclasses import dataclass, field

import numpy as np


def rbf_kernel(a, b, width):
    """exp(-|a - b|^2 / (2 width^2)) for row sets a (n,d), b (m,d)."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    return np.exp(-d2 / (2.0 * width**2))


def median_pairwise_width(x):
    """Median of the nonzero pairwise distances (duplicates contribute zero
    distances, which would otherwise shrink the heuristic)."""
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    d = np.sqrt(d2[np.triu_indices(len(x), k=1)])
    d = d[d > 0]
    if d.size == 0:
        return 1.0
    return float(np.median(d))


@dataclass
class SVMModel:
    """Fitted dual state plus feature standardization and calibration."""

    support_vectors: np.ndarray  # standardized features (n, d)
    dual_coefs: np.ndarray  # alpha_i * y_i, all training points
    bias: float
    kernel_width: float
    feature_mean: np.ndarray
    feature_std: np.ndarray
    calibration: tuple = (1.0, 0.0)  # sigmoid (A, B): P = 1/(1+exp(A f + B))
    alphas: np.ndarray = None
    labels: np.ndarray = None
    C: float = 10.0

    def _standardize(self, x):
        return (np.atleast_2d(x) - self.feature_mean) / self.feature_std

    def decision_function(self, x):
        k = rbf_kernel(self._standardize(x), self.support_vectors, self.kernel_width)
        return k @ self.dual_coefs + self.bias

    def predict(self, x):
        return np.where(self.decision_function(x) >= 0.0, 1, -1)

    def probability(self, x):
        a, b = self.calibration
        return 1.0 / (1.0 + np.exp(a * self.decision_function(x) + b))


def _smo(K, y, C, tol, max_iter=500_000):
    """SMO on the dual of the soft-margin SVM, min 0.5 a'Qa - sum(a) with
    Q = (y y') * K, by the maximal-violating-pair rule (Keerthi et al. 2001;
    Fan, Chen & Lin 2005).

    Each step takes the pair that most violates the KKT conditions: i, the
    argmax of -y G over the points whose alpha can move up along y, and j,
    the argmin over those that can move down, G = Qa - 1 being the gradient
    (ties go to the lowest index). It stops when their gap is below tol, or
    after max_iter steps. Otherwise it moves alpha_i by y_i t and alpha_j by
    -y_j t, t the gap over the pair's curvature, cut to the box. b is the
    mean of -y G over the free alphas, or the middle of the last gap when
    none is free: every b in that interval satisfies the KKT conditions.
    """
    alpha = np.zeros(len(y))
    G = -np.ones(len(y))
    pos = y > 0
    for step in range(max_iter + 1):
        score = -y * G
        up = np.where(np.where(pos, alpha < C, alpha > 0), score, -np.inf)
        low = np.where(np.where(pos, alpha > 0, alpha < C), score, np.inf)
        i, j = int(np.argmax(up)), int(np.argmin(low))
        gap = up[i] - low[j]
        if gap < tol or step == max_iter:
            break
        # room before alpha_i reaches C (y_i = 1) or 0, and alpha_j 0 (y_j = 1) or C
        room_i = C - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(gap / max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12), room_i, room_j)
        alpha[i] = (C if pos[i] else 0.0) if t == room_i else alpha[i] + y[i] * t
        alpha[j] = (0.0 if pos[j] else C) if t == room_j else alpha[j] - y[j] * t
        G += t * y * (K[:, i] - K[:, j])
    free = (alpha > 0.0) & (alpha < C)
    b = score[free].mean() if free.any() else 0.5 * (up[i] + low[j])
    return alpha, float(b)


def platt_calibration(scores, labels, max_iter=200):
    """Sigmoid fit P(y=1 | f) = 1 / (1 + exp(A f + B)) by Newton descent on
    the regularized log-loss (Lin-Weng-Platt targets)."""
    scores = np.asarray(scores, dtype=float)
    pos = labels > 0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    t = np.where(pos, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    A, B = 0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))
    for _ in range(max_iter):
        z = A * scores + B
        p = 1.0 / (1.0 + np.exp(z))
        # gradient of sum(-t log p - (1-t) log(1-p)) w.r.t. (A, B)
        d = p - t  # note: dp/dz = -p(1-p); d loss/dz = (p - t) * ... sign folded below
        g_a = np.sum(-(d) * scores)
        g_b = np.sum(-(d))
        w = p * (1.0 - p)
        h_aa = np.sum(w * scores * scores) + 1e-12
        h_ab = np.sum(w * scores)
        h_bb = np.sum(w) + 1e-12
        det = h_aa * h_bb - h_ab * h_ab
        if abs(det) < 1e-18:
            break
        dA = (h_bb * g_a - h_ab * g_b) / det
        dB = (h_aa * g_b - h_ab * g_a) / det
        A -= dA
        B -= dB
        if abs(dA) < 1e-12 and abs(dB) < 1e-12:
            break
    return float(A), float(B)


def fit_svm(features, labels, C=10.0, kernel_width=None, tol=1e-8) -> SVMModel:
    """Standardize, run SMO, calibrate. labels are +-1 (or booleans)."""
    x = np.asarray(features, dtype=float)
    y = np.where(np.asarray(labels) > 0, 1.0, -1.0)
    if np.all(y > 0) or np.all(y < 0):
        raise ValueError("SVM training needs both outcome classes present")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    xs = (x - mean) / std
    width = float(kernel_width) if kernel_width is not None else median_pairwise_width(xs)
    K = rbf_kernel(xs, xs, width)
    alpha, b = _smo(K, y, C, tol)
    scores = K @ (alpha * y) + b
    A, B = platt_calibration(scores, y)
    return SVMModel(
        support_vectors=xs,
        dual_coefs=alpha * y,
        bias=float(b),
        kernel_width=width,
        feature_mean=mean,
        feature_std=std,
        calibration=(A, B),
        alphas=alpha,
        labels=y,
        C=C,
    )


def dual_objective(K, y, alpha):
    return float(alpha.sum() - 0.5 * (alpha * y) @ K @ (alpha * y))


def kkt_residuals(model: SVMModel):
    """Max violation of the dual KKT system: box constraints, the equality
    constraint, and the complementary-slackness margins."""
    alpha, y, C = model.alphas, model.labels, model.C
    K = rbf_kernel(model.support_vectors, model.support_vectors, model.kernel_width)
    margins = y * (K @ model.dual_coefs + model.bias)
    box = max(float(np.max(-alpha, initial=0.0)), float(np.max(alpha - C, initial=0.0)))
    equality = abs(float(alpha @ y))
    free = (alpha > 1e-9 * C) & (alpha < C * (1 - 1e-9))
    viol = 0.0
    if np.any(alpha <= 1e-9 * C):
        viol = max(viol, float(np.max(1.0 - margins[alpha <= 1e-9 * C], initial=0.0)))
    if np.any(free):
        viol = max(viol, float(np.max(np.abs(margins[free] - 1.0), initial=0.0)))
    if np.any(alpha >= C * (1 - 1e-9)):
        viol = max(viol, float(np.max(margins[alpha >= C * (1 - 1e-9)] - 1.0, initial=0.0)))
    return {"box": box, "equality": equality, "stationarity": viol}
