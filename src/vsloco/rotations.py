"""Batched quaternion and rotation helpers.

Quaternions are scalar-first (w, x, y, z). All functions accept a leading
batch dimension: quaternions are (..., 4), vectors (..., 3), matrices
(..., 3, 3). Everything is float64 numpy.
"""

import numpy as np

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def _norm(x):
    """np.linalg.norm(x, axis=-1, keepdims=True), the same sums without
    its dispatch overhead."""
    return np.sqrt((x * x).sum(axis=-1, keepdims=True))


def quat_normalize(q):
    return q / _norm(q)


def quat_mul(a, b):
    """Hamilton product a ⊗ b."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def quat_to_matrix(q):
    """Rotation matrix R such that R @ v_body = v_world."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (yy + zz)
    R[..., 0, 1] = 2 * (xy - wz)
    R[..., 0, 2] = 2 * (xz + wy)
    R[..., 1, 0] = 2 * (xy + wz)
    R[..., 1, 1] = 1 - 2 * (xx + zz)
    R[..., 1, 2] = 2 * (yz - wx)
    R[..., 2, 0] = 2 * (xz - wy)
    R[..., 2, 1] = 2 * (yz + wx)
    R[..., 2, 2] = 1 - 2 * (xx + yy)
    return R


def quat_exp(phi):
    """Exponential map: rotation vector (..., 3) -> unit quaternion.

    Uses the Taylor expansion of sinc near zero so tiny angular steps stay
    exact to machine precision.
    """
    angle = _norm(phi)
    half = 0.5 * angle
    small = angle < 1e-8
    # sin(half)/angle, guarded at angle -> 0 where it tends to 1/2
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(small, 0.5 - angle * angle / 48.0, np.sin(half) / np.where(small, 1.0, angle))
    w = np.cos(half)
    xyz = phi * s
    return np.concatenate([w, xyz], axis=-1)


def skew(v):
    """Cross-product matrix: skew(v) @ u == v x u. Batched."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out
