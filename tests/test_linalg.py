import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opcert.linalg import as_mat, norm_at_most, spectral_norm


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


def test_spectral_norm_of_zero_matrix_is_zero():
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    assert spectral_norm(np.zeros((1, 5))) == 0.0


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


def _svd_oracle(m):
    # numpy's top singular value, computed at the exact power-of-two scale
    # that keeps 1e+-300 entries away from overflow and underflow.
    exp = int(np.frexp(np.max(np.abs(m)))[1])
    return math.ldexp(float(np.linalg.svd(np.ldexp(m, -exp), compute_uv=False)[0]), exp)


def _adversarial_matrix(family, n, rng):
    if family == "near_degenerate":
        # Top two singular values 1 and 1 - delta, delta down to 1e-12.
        delta = 10.0 ** rng.uniform(-12.0, -3.0)
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        s = np.concatenate([[1.0, 1.0 - delta], rng.uniform(0.0, 0.9, n)])[:n]
        return (q1 * s) @ q2.T
    if family == "rank_one":
        return np.outer(rng.normal(size=n), rng.normal(size=n + 3))
    if family == "vector":
        return rng.normal(size=(1, n))
    return rng.normal(size=(n, n + 5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["near_degenerate", "rank_one", "vector", "gaussian"]),
    n=st.sampled_from([1, 2, 256]),
    wide=st.booleans(),
    log10_scale=st.integers(min_value=-300, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_norm_at_most_is_sound_against_the_svd_oracle(family, n, wide, log10_scale, seed):
    m = _adversarial_matrix(family, n, np.random.default_rng(seed))
    m = 10.0 ** log10_scale * (m if wide else m.T)
    sigma = _svd_oracle(m)
    # 1e-12 is above the SVD's own relative error for n <= 256, so each
    # t below is under the true sigma_1.
    for t in (sigma * (1.0 - 1e-12), sigma * 0.5, 0.0, -sigma):
        assert not norm_at_most(m, t), t
    assert norm_at_most(m, sigma * (1.0 + 1e-8))
    assert norm_at_most(m, np.inf)


def _exactly_known_matrix(kind, n, rng):
    """A matrix and its exact sigma_1^2 as a fraction."""
    if kind == "outer":
        # Small integers: every entry, and every entry of the Gram matrix,
        # is exact, so only the Cholesky's rounding is left to cover.
        u = rng.integers(1, 1025, size=n) * rng.choice([-1, 1], size=n)
        v = rng.integers(1, 1025, size=n + 3) * rng.choice([-1, 1], size=n + 3)
        norm2 = sum(int(x) ** 2 for x in u) * sum(int(x) ** 2 for x in v)
        return np.outer(u, v).astype(np.float64), Fraction(norm2)
    # A wide range of magnitudes makes the sum of squares round the most.
    v = rng.normal(size=n) * np.exp(3.0 * rng.normal(size=n))
    m = v[:, None] if kind == "column" else v[None, :]
    return m, sum(Fraction(float(x)) ** 2 for x in v)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["row", "column", "outer"]),
    n=st.sampled_from([1, 2, 256]),
    log2_scale=st.integers(min_value=-996, max_value=996),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# Vectors on which norm_at_most with its shift c set to 0 accepted
# t < sigma_1 (OpenBLAS 0.3.31, x86-64).
@example(kind="row", n=256, log2_scale=0, seed=206)
@example(kind="column", n=256, log2_scale=0, seed=206)
@example(kind="row", n=256, log2_scale=0, seed=353)
@example(kind="column", n=256, log2_scale=0, seed=353)
def test_norm_at_most_refuses_the_float_just_below_an_exact_norm(kind, n, log2_scale, seed):
    # t is the largest float with t^2 < sigma_1^2; 2^+-996 is about 1e+-300.
    m, exact2 = _exactly_known_matrix(kind, n, np.random.default_rng(seed))
    m = np.ldexp(m, log2_scale)
    exact2 *= Fraction(2) ** (2 * log2_scale)
    t = _svd_oracle(m)
    while Fraction(t) ** 2 >= exact2:
        t = math.nextafter(t, 0.0)
    while Fraction(math.nextafter(t, math.inf)) ** 2 < exact2:
        t = math.nextafter(t, math.inf)
    assert not norm_at_most(m, t)
    assert norm_at_most(m, t * (1.0 + 1e-8))


def test_norm_at_most_of_zero_matrix():
    for shape in [(1, 1), (2, 2), (1, 256), (256, 1)]:
        assert norm_at_most(np.zeros(shape), 0.0)
        assert not norm_at_most(np.zeros(shape), -1e-300)
        assert not norm_at_most(np.zeros(shape), np.nan)
