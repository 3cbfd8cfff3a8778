"""SMO-trained RBF SVM against independent dual solvers and KKT checks."""

import itertools

import numpy as np
import pytest

from vsloco.svm import (
    dual_objective,
    fit_svm,
    kkt_residuals,
    median_pairwise_width,
    platt_calibration,
    rbf_kernel,
)


def separable_blobs(rng, n=12, gap=3.0):
    a = rng.normal(0, 0.4, (n // 2, 2)) + (gap, 0.0)
    b = rng.normal(0, 0.4, (n // 2, 2)) - (gap, 0.0)
    x = np.vstack([a, b])
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    return x, y


def grid_search_dual(K, y, C, steps=9):
    """Exhaustive grid over the dual box, keeping equality-feasible points.
    Only viable for tiny sets; this is the independent optimum bound."""
    n = len(y)
    grid = np.linspace(0.0, C, steps)
    best = -np.inf
    best_alpha = None
    for combo in itertools.product(grid, repeat=n):
        alpha = np.asarray(combo)
        if abs(alpha @ y) > 1e-12:
            continue
        obj = dual_objective(K, y, alpha)
        if obj > best:
            best = obj
            best_alpha = alpha
    return best, best_alpha


def project_dual_feasible(v, y, C):
    """Euclidean projection of v onto {0 <= alpha <= C, alpha @ y = 0}.

    The projection is clip(v - mu * y, 0, C), where mu is the root of the
    piecewise-linear, non-increasing g(mu) = clip(v - mu * y, 0, C) @ y
    (Pardalos & Kovoor, Math. Programming 46, 1990). g is linear between
    its 2n breakpoints, so the root is interpolated exactly on the segment
    where g changes sign. Needs both labels present.
    """
    breaks = np.sort(np.concatenate([y * v, y * (v - C)]))
    g = np.clip(v[None, :] - breaks[:, None] * y[None, :], 0.0, C) @ y
    k = np.argmax(g <= 0.0)  # g[0] = C * n_pos > 0 and g[-1] = -C * n_neg < 0
    lo, hi = breaks[k - 1], breaks[k]
    mu = lo + g[k - 1] * (hi - lo) / (g[k - 1] - g[k])
    return np.clip(v - mu * y, 0.0, C)


def projected_gradient_step(alpha, Q, y, C, lr):
    return project_dual_feasible(alpha + lr * (1.0 - Q @ alpha), y, C)


def projected_gradient_dual(K, y, C, iters=40_000, lr=0.05):
    """Projected gradient ascent on the dual (independent of SMO)."""
    n = len(y)
    alpha = np.full(n, 0.01)
    Q = (y[:, None] * y[None, :]) * K
    for _ in range(iters):
        # exact projection: alternating clip/shift ends at a feasible point, not the nearest
        alpha = projected_gradient_step(alpha, Q, y, C, lr)
    return alpha


def test_separable_set_perfect_accuracy_and_kkt():
    rng = np.random.default_rng(0)
    for seed in range(5):
        x, y = separable_blobs(np.random.default_rng(seed), n=14)
        model = fit_svm(x, y, C=10.0)
        assert np.all(model.predict(x) == y)
        res = kkt_residuals(model)
        assert res["box"] < 1e-9
        assert res["equality"] < 1e-6
        assert res["stationarity"] < 1e-6


def test_overlapping_labels_at_large_c_reach_the_kkt_point():
    # labels that no boundary separates, at C = 100: some alphas end at C,
    # and a working set chosen by heuristics can stall short of the optimum
    rng = np.random.default_rng(198)
    n = int(rng.integers(12, 30))
    x = rng.normal(0, 1, (n, 2))
    y = np.where(x[:, 0] + rng.normal(0, 1, n) > 0, 1, -1)
    res = kkt_residuals(fit_svm(x, y, C=100.0))
    assert res["stationarity"] < 1e-6
    assert res["equality"] < 1e-6
    assert res["box"] < 1e-9


def test_smo_beats_exhaustive_grid():
    # <= 6-point sets: the grid optimum lower-bounds the true dual optimum
    rng = np.random.default_rng(3)
    for trial in range(4):
        x = rng.normal(0, 1.0, (6, 2))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        xs = (x - x.mean(0)) / x.std(0)
        width = median_pairwise_width(xs)
        K = rbf_kernel(xs, xs, width)
        model = fit_svm(x, y, C=4.0, kernel_width=width)
        smo_obj = dual_objective(K, y, model.alphas)
        grid_obj, _ = grid_search_dual(K, y, 4.0, steps=9)
        assert smo_obj >= grid_obj - 1e-9


def test_smo_agrees_with_projected_gradient():
    rng = np.random.default_rng(9)
    x, y = separable_blobs(rng, n=10, gap=1.2)
    xs = (x - x.mean(0)) / x.std(0)
    width = median_pairwise_width(xs)
    K = rbf_kernel(xs, xs, width)
    model = fit_svm(x, y, C=10.0, kernel_width=width)
    alpha_pg = projected_gradient_dual(K, y, 10.0)
    # the oracle is feasible and a fixed point of its own step before it is trusted
    assert np.all((alpha_pg >= 0.0) & (alpha_pg <= 10.0))
    assert abs(alpha_pg @ y) < 1e-12
    Q = (y[:, None] * y[None, :]) * K
    step = projected_gradient_step(alpha_pg, Q, y, 10.0, lr=0.05)
    assert np.max(np.abs(step - alpha_pg)) < 1e-9
    smo_obj = dual_objective(K, y, model.alphas)
    pg_obj = dual_objective(K, y, alpha_pg)
    assert smo_obj >= pg_obj - 1e-6
    # decision functions agree on the training points
    f_smo = K @ (model.alphas * y) + model.bias
    free = (alpha_pg > 1e-6) & (alpha_pg < 10.0 - 1e-6)
    b_pg = np.mean(y[free] - (K @ (alpha_pg * y))[free])
    f_pg = K @ (alpha_pg * y) + b_pg
    assert np.allclose(f_smo, f_pg, atol=5e-3)


def random_feasible_move(rng, p, y, C):
    """p moved a random distance along a random two-coordinate direction d
    with d @ y = 0, as far as the box allows. Such moves generate every
    feasible direction at p, so they probe the variational inequality where
    it is tight; points drawn from the whole set rarely do."""
    i, j = rng.choice(len(y), 2, replace=False)
    d = np.zeros(len(y))
    d[i] = rng.choice([-1.0, 1.0])
    d[j] = -d[i] * y[i] * y[j]
    room = np.where(d > 0, C - p, p)[[i, j]].min()
    return p + rng.uniform(0.0, room) * d


def test_dual_projection_is_feasible_and_nearest():
    rng = np.random.default_rng(11)
    n, C = 10, 2.0
    for _ in range(6):
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        v = rng.normal(0.0, 3.0, n)
        p = project_dual_feasible(v, y, C)
        assert np.all((p >= 0.0) & (p <= C))
        assert abs(p @ y) < 1e-12
        # variational inequality of the projection onto a convex set
        for _ in range(50):
            z = random_feasible_move(rng, p, y, C)
            assert np.all((z >= 0.0) & (z <= C)) and abs(z @ y) < 1e-12
            assert (v - p) @ (z - p) <= 1e-9


def test_symmetric_one_dimensional_boundary_near_zero():
    mags = np.array([0.5, 1.0, 1.5, 2.0])
    x = np.concatenate([-mags, mags])[:, None]
    y = np.concatenate([np.ones(4), -np.ones(4)])  # success on the negative side
    model = fit_svm(x, y, C=10.0)
    lo, hi = -0.5, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if model.decision_function([[mid]])[0] > 0:
            lo = mid
        else:
            hi = mid
    boundary = 0.5 * (lo + hi)
    assert abs(boundary) < 0.05


def test_duplicated_dataset_same_decision_function():
    rng = np.random.default_rng(4)
    x, y = separable_blobs(rng, n=10, gap=1.0)
    width = 1.3  # pinned: the width heuristic itself is not duplication-invariant
    m1 = fit_svm(x, y, C=10.0, kernel_width=width)
    m2 = fit_svm(np.vstack([x, x]), np.concatenate([y, y]), C=10.0, kernel_width=width)
    probes = rng.normal(0, 2.0, (40, 2))
    f1 = m1.decision_function(probes)
    f2 = m2.decision_function(probes)
    assert np.allclose(f1, f2, atol=1e-6)


def test_single_class_rejected():
    x = np.random.default_rng(0).normal(0, 1, (8, 2))
    with pytest.raises(ValueError, match="both outcome classes"):
        fit_svm(x, np.ones(8))


def test_calibration_is_monotone_and_bounded():
    rng = np.random.default_rng(5)
    scores = np.concatenate([rng.normal(2.0, 0.5, 50), rng.normal(-2.0, 0.5, 50)])
    labels = np.concatenate([np.ones(50), -np.ones(50)])
    A, B = platt_calibration(scores, labels)
    assert A < 0  # higher score -> higher success probability
    p_hi = 1.0 / (1.0 + np.exp(A * 3.0 + B))
    p_lo = 1.0 / (1.0 + np.exp(A * -3.0 + B))
    assert p_hi > 0.9 and p_lo < 0.1


def test_probability_pipeline():
    rng = np.random.default_rng(6)
    x, y = separable_blobs(rng, n=16, gap=2.0)
    model = fit_svm(x, y, C=10.0)
    p = model.probability(x)
    assert np.all((p > 0.5) == (y > 0))
    assert np.all((0.0 < p) & (p < 1.0))


def test_width_heuristic_ignores_duplicate_zeros():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w1 = median_pairwise_width(x)
    w2 = median_pairwise_width(np.vstack([x, x]))
    assert w1 > 0
    assert abs(w1 - w2) < 1e-12