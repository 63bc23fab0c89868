import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("power", [-600, 600])
def test_spectral_norm_exact_under_power_of_two_scaling(power):
    # Entries of 2^600 M overflow a squared norm and those of 2^-600 M
    # underflow one unless M is rescaled first.
    m = np.random.default_rng(13).normal(size=(6, 6))
    scale = 2.0 ** power
    assert spectral_norm(scale * m) == scale * spectral_norm(m)


def test_spectral_norm_bounds_svd_on_near_degenerate_spectra():
    # Top two singular values 1 and 1 - delta, delta log-uniform in
    # [1e-8, 1e-3]: the family on which power iteration stalled or
    # stopped below sigma_1.
    rng = np.random.default_rng(29)
    n = 32
    for delta in 10.0 ** rng.uniform(-8.0, -3.0, size=100):
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        s = np.concatenate([[1.0, 1.0 - delta], rng.uniform(0.0, 0.9, n - 2)])
        m = (q1 * s) @ q2.T
        oracle = np.linalg.svd(m, compute_uv=False)[0]
        assert oracle <= spectral_norm(m) <= oracle * (1 + 1e-12)


def test_spectral_norm_falls_back_to_frobenius(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    m = np.random.default_rng(31).normal(size=(5, 4))
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    fro = np.linalg.norm(m)
    assert fro <= spectral_norm(m) <= fro * (1 + 1e-13)


def test_spectral_norm_overflow_is_infinite():
    m = np.full((2, 2), np.finfo(np.float64).max)
    assert spectral_norm(m) == np.inf


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
