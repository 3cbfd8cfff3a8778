"""Batched quaternion and rotation helpers.

Quaternions are scalar-first (w, x, y, z). All functions accept a leading
batch dimension: quaternions are (..., 4), vectors (..., 3), matrices
(..., 3, 3). Everything is float64 numpy.
"""

import numpy as np

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])
_EYE3 = np.eye(3)


def quat_normalize(q):
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_mul(a, b):
    """Hamilton product a ⊗ b."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_to_matrix(q):
    """Rotation matrix R such that R @ v_body = v_world."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    row0 = np.stack([1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy)], axis=-1)
    row1 = np.stack([2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx)], axis=-1)
    row2 = np.stack([2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def quat_exp(phi):
    """Exponential map: rotation vector (..., 3) -> unit quaternion.

    Uses the Taylor expansion of sinc near zero so tiny angular steps stay
    exact to machine precision.
    """
    angle = np.linalg.norm(phi, axis=-1, keepdims=True)
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


def rotation_about_axis(axis_skew, axis_skew_sq, angle):
    """Rodrigues rotation about a fixed axis for a batch of angles.

    axis_skew / axis_skew_sq are the constant (3, 3) skew matrix and its
    square for the unit axis; angle is (...,). Returns (..., 3, 3).
    """
    s = np.sin(angle)[..., None, None]
    c = (1.0 - np.cos(angle))[..., None, None]
    return _EYE3 + s * axis_skew + c * axis_skew_sq
