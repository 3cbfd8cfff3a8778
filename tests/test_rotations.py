"""Quaternion identities over arbitrary unit quaternions and rotation vectors."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume, given, settings

from vsloco.rotations import quat_exp, quat_mul, quat_to_matrix

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
coords = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)


def unit(raw):
    q = np.array(raw)
    norm = np.linalg.norm(q)
    assume(norm > 1e-3)
    return q / norm


@PROPERTY
@given(coords)
def test_matrix_is_a_rotation(raw):
    R = quat_to_matrix(unit(raw))
    assert np.allclose(R @ R.T, np.eye(3), rtol=0, atol=1e-12)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


@PROPERTY
@given(coords, coords)
def test_product_composes_rotations(raw_a, raw_b):
    a, b = unit(raw_a), unit(raw_b)
    assert np.allclose(quat_to_matrix(quat_mul(a, b)), quat_to_matrix(a) @ quat_to_matrix(b),
                       rtol=0, atol=1e-12)


@PROPERTY
@given(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
def test_exponential_has_unit_norm(phi):
    assert abs(np.linalg.norm(quat_exp(np.array(phi))) - 1.0) < 1e-12
