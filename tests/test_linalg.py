import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcert.errors import ConvergenceError
from opcert.linalg import as_mat, spectral_norm


def test_vec_mat_validation():
    with pytest.raises(ValueError):
        as_mat([1.0, 2.0])
    with pytest.raises(ValueError):
        as_mat([[np.inf]])


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-12)


def test_spectral_norm_matches_svd_oracle():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6))
    expected = np.linalg.svd(m, compute_uv=False)[0]
    assert spectral_norm(m) == pytest.approx(expected, rel=1e-8)


def test_spectral_norm_rectangular():
    rng = np.random.default_rng(5)
    for shape in [(3, 7), (7, 3)]:
        m = rng.normal(size=shape)
        expected = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(expected, rel=1e-8)


def test_spectral_norm_rejects_zero_matrix():
    with pytest.raises(ValueError, match="nonzero"):
        spectral_norm(np.zeros((3, 3)))


def test_spectral_norm_nonconvergence_carries_estimate():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(5, 5))
    with pytest.raises(ConvergenceError) as exc:
        spectral_norm(m, tol=1e-15, max_iter=1)
    assert exc.value.last_estimate is not None


@pytest.mark.parametrize("power", [-600, 600])
def test_spectral_norm_exact_under_power_of_two_scaling(power):
    # Entries of 2^600 M overflow a squared norm and those of 2^-600 M
    # fall under the null-space threshold unless M is rescaled first.
    m = np.random.default_rng(13).normal(size=(6, 6))
    scale = 2.0 ** power
    assert spectral_norm(scale * m) == scale * spectral_norm(m)
    estimates = []
    for a in (m, scale * m):
        with pytest.raises(ConvergenceError) as exc:
            spectral_norm(a, tol=1e-15, max_iter=2)
        estimates.append(exc.value.last_estimate)
    assert estimates[1] == scale * estimates[0]


def test_spectral_norm_start_vector_null_space_fallback():
    # all-ones start is annihilated; the canonical fallback must recover
    m = np.array([[1.0, -1.0], [-1.0, 1.0]])
    expected = np.linalg.svd(m, compute_uv=False)[0]
    assert spectral_norm(m) == pytest.approx(expected, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(min_value=-100.0, max_value=100.0).filter(lambda x: abs(x) > 1e-6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_spectral_norm_absolute_homogeneity(c, seed):
    m = np.random.default_rng(seed).normal(size=(4, 4))
    assert spectral_norm(c * m) == pytest.approx(abs(c) * spectral_norm(m), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_spectral_norm_below_frobenius(seed):
    m = np.random.default_rng(seed).normal(size=(5, 3))
    assert spectral_norm(m) <= np.linalg.norm(m, "fro") * (1 + 1e-12)


def test_operator_norm_bounds_matvec():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(6, 6))
    sigma = spectral_norm(m)
    vs = rng.normal(size=(1000, 6))
    lhs = np.linalg.norm(vs @ m.T, axis=1)
    rhs = sigma * np.linalg.norm(vs, axis=1)
    assert np.all(lhs <= rhs * (1 + 1e-10))
