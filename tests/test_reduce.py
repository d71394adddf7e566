"""Dimensionality reduction: SVD factorization and schedule projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoneplan.diversity import distance_matrix
from zoneplan.reduce import (
    ReducedOccupants,
    project,
    state_matrix,
    svd_decompose,
)


def random_matrix(rows, cols, seed=0):
    return np.random.default_rng(seed).normal(size=(rows, cols))


# ---------------------------------------------------------------- factorization


def test_identity_has_unit_singular_values():
    f = svd_decompose(np.eye(3))
    np.testing.assert_allclose(f.sigma, np.ones(3), rtol=0, atol=1e-14)
    assert f.rank == 3


def test_rank_one_matrix():
    f = svd_decompose(np.array([[1.0, 2.0], [2.0, 4.0]]))
    np.testing.assert_allclose(np.sort(f.sigma), [0.0, 5.0], atol=1e-12)
    assert f.rank == 1


def test_reconstruction_error_tiny():
    m = random_matrix(200, 10)
    f = svd_decompose(m)
    assert np.max(np.abs((f.u * f.sigma) @ f.v.T - m)) < 1e-8


def test_sign_convention_deterministic():
    m = random_matrix(50, 6, seed=3)
    a, b = svd_decompose(m), svd_decompose(m.copy())
    np.testing.assert_array_equal(a.u, b.u)
    np.testing.assert_array_equal(a.v, b.v)
    # largest-magnitude entry of each left vector is non-negative
    for k in range(a.sigma.size):
        col = a.u[:, k]
        assert col[np.argmax(np.abs(col))] >= 0


def test_wide_matrix_rejected():
    with pytest.raises(ValueError):
        svd_decompose(random_matrix(3, 5))


def test_non_finite_rejected():
    m = random_matrix(4, 2)
    m[0, 0] = np.nan
    with pytest.raises(ValueError):
        svd_decompose(m)


# ---------------------------------------------------------------- truncation


def test_truncation_error_matches_frobenius():
    m = random_matrix(60, 8, seed=4)
    f = svd_decompose(m)
    for d in range(1, f.sigma.size + 1):
        approx = (f.u[:, :d] * f.sigma[:d]) @ f.v[:, :d].T
        direct = np.linalg.norm(m - approx)
        assert f.truncation_error(d) == pytest.approx(direct, abs=1e-8)


def test_truncation_error_monotone_non_increasing():
    f = svd_decompose(random_matrix(40, 6, seed=5))
    errs = [f.truncation_error(d) for d in range(1, 7)]
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------- projection


def test_full_rank_projection_preserves_distances():
    m = random_matrix(30, 7, seed=6)
    occupants = [f"o{i}" for i in range(7)]
    f = svd_decompose(m)
    red = project(m, f, f.rank, occupants)
    orig = distance_matrix(m.T)
    proj = distance_matrix(red.matrix.T)
    np.testing.assert_allclose(proj, orig, rtol=1e-6, atol=1e-9)


def test_rank_one_matrix_projects_exactly_at_d1():
    u = np.linspace(1, 3, 20)[:, None]
    v = np.array([[2.0, -1.0, 0.5]])
    m = u @ v
    f = svd_decompose(m)
    red = project(m, f, 1, ["a", "b", "c"])
    orig = distance_matrix(m.T)
    proj = distance_matrix(red.matrix.T)
    np.testing.assert_allclose(proj, orig, atol=1e-8)


def test_identical_columns_identical_rows():
    col = np.random.default_rng(7).normal(size=30)
    m = np.column_stack([col, col, col * 2])
    f = svd_decompose(m)
    red = project(m, f, f.rank, ["a", "b", "c"])
    np.testing.assert_allclose(red.vectors()["a"], red.vectors()["b"], atol=1e-10)


def test_projection_dimension_bounds():
    m = random_matrix(10, 4, seed=8)
    f = svd_decompose(m)
    with pytest.raises(ValueError):
        project(m, f, 0, list("abcd"))
    with pytest.raises(ValueError):
        project(m, f, f.rank + 1, list("abcd"))


def test_state_matrix_orientation(pop8):
    m, occupants = state_matrix(pop8)
    assert occupants == pop8.occupants
    assert m.shape == (pop8.n_steps, len(occupants))
    np.testing.assert_array_equal(m[:, 0], pop8.states[0].astype(float))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=999))
def test_projection_never_expands_distances(cols, seed):
    # singular projections are contractions, so distances cannot grow
    m = random_matrix(20, cols, seed=seed)
    f = svd_decompose(m)
    for d in range(1, f.rank + 1):
        red = project(m, f, d, [str(i) for i in range(cols)])
        orig = distance_matrix(m.T)
        proj = distance_matrix(red.matrix.T)
        assert np.all(proj <= orig + 1e-9)

