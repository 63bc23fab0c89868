"""Minimal dense linear algebra: a validated matrix and its spectral norm.

Matrices are plain ``numpy`` float64 arrays; ``as_mat`` coerces and
validates (finite entries, sane shape).  The one non-trivial routine is
``spectral_norm``, an SVD-based upper bound on the largest singular value.
"""

from __future__ import annotations

import numpy as np

# Multiplier c of LAPACK's backward-error bound for computed singular
# values, |s_i - sigma_i| <= p(m, n) eps sigma_1 with p(m, n) = c max(m, n)
# (LAPACK Users' Guide, section 4.9).
_SVD_MARGIN_C = 4


def as_mat(values) -> np.ndarray:
    """Coerce to a 2-d float64 array and validate finiteness."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("matrix must be two-dimensional with positive shape")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def spectral_norm(m) -> float:
    """Upper bound on the largest singular value sigma_1 of ``m``.

    Computes the top singular value s of M times the power of two that
    brings its largest entry into [0.5, 1) (exact barring underflow, so
    matrices near the overflow or underflow limits are handled too), and
    certifies s (1 + c max(m, n) eps) with c = 4, LAPACK's backward-error
    margin for singular values.  If LAPACK fails to converge, the
    Frobenius norm, which bounds sigma_1 too, takes the place of s.  The
    bound is scaled back and rounded up one ulp, so it is never below
    sigma_1; it is ``inf`` when it overflows and exactly 0 for a zero matrix.
    """
    m = as_mat(m)
    if not np.any(m):
        return 0.0
    exp = int(np.frexp(np.max(np.abs(m)))[1])
    m = np.ldexp(m, -exp)
    try:
        sigma = np.linalg.svd(m, compute_uv=False)[0]
    except np.linalg.LinAlgError:
        sigma = np.linalg.norm(m)
    sigma *= 1.0 + _SVD_MARGIN_C * max(m.shape) * np.finfo(np.float64).eps
    with np.errstate(over="ignore"):
        return float(np.nextafter(np.ldexp(sigma, exp), np.inf))
