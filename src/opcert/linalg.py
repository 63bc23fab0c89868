"""Minimal dense linear algebra: a validated matrix and its spectral norm.

Matrices are plain ``numpy`` float64 arrays; ``as_mat`` coerces and
validates (finite entries, sane shape).  Two routines bound the largest
singular value sigma_1: ``spectral_norm``, an SVD-based upper bound, and
``norm_at_most``, a Cholesky-based proof that sigma_1 is at most a given
number, which is several times cheaper than an SVD.
"""

from __future__ import annotations

import numpy as np

# Multiplier c of LAPACK's backward-error bound for computed singular
# values, |s_i - sigma_i| <= p(m, n) eps sigma_1 with p(m, n) = c max(m, n)
# (LAPACK Users' Guide, section 4.9).
_SVD_MARGIN_C = 4

_U = 2.0 ** -53  # unit roundoff


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


def norm_at_most(m, t) -> bool:
    """True only if sigma_1(m) <= t is proven; False means "not proven".

    The proof is a Cholesky factorization that completes (Rump 2006,
    *Verification of positive definiteness*, BIT 46).  M (r x c) and t are
    scaled by the power of two that brings M's largest entry into [0.5, 1),
    exactly, as in ``spectral_norm``; then 0.5 <= sigma_1 < sqrt(rc), which
    settles t < 0.5 and t >= rc at once.  With k = max(r, c), n = min(r, c),
    G the n x n Gram matrix and g_j = j u / (1 - j u):
    1. Any-order sums of k products give |G^ - G| <= g_k |M|^T |M|, so
       ||G^ - G||_2 <= g_k ||M||_F^2 (Higham 2002, section 3.5), and
       ||M||_F^2 <= fl(trace G^) / ((1 - g_k)(1 - g_n)).
    2. A = (t2 - c) I - G^ - D is factored: t2 is t^2 rounded down, D >= 0
       because t2 - c and each diagonal difference are rounded down, and
       trace A <= n t2.
    3. If the factorization of A completes with finite R, then R^T R = A + E
       >= 0 with ||E||_2 <= g_{n+1} / (1 - g_{n+1}) trace A, for any order
       of evaluation (Rump 2006, Thm 2.3).
    So t^2 I - G >= (c - ||E||_2 - ||G^ - G||_2) I >= 0 when c is the sum of
    the two bounds, plus n (n + k + 2)(2 + t2) 2^-1074 for operations that
    underflow, all times 1 + 2^-20 for the rounding of c itself (the extra
    factor 16 on 2^-1074 covers that term's subnormal rounding).  At
    n = k = 64, c ~ 6e-13 t^2: a proof needs sigma_1 < t (1 - 3e-13).  A
    diagonal of G^ at or above t2 - c is refused before factoring.
    """
    m = as_mat(m)
    t = float(t)
    if not t >= 0.0:
        return False
    if not np.any(m):
        return True
    exp = int(np.frexp(np.max(np.abs(m)))[1])
    m = np.ldexp(m, -exp)
    with np.errstate(over="ignore", under="ignore"):
        t = float(np.ldexp(t, -exp))
    if t < 0.5 or t >= m.size:
        return t >= 0.5
    gram = m.T @ m if m.shape[1] <= m.shape[0] else m @ m.T
    n, k = gram.shape[0], max(m.shape)
    g_n, g_k, g_chol = ((j * _U / (1.0 - j * _U)) for j in (n, k, n + 1))
    diag = np.diagonal(gram)
    t2 = float(np.nextafter(t * t, -np.inf))
    frob2 = float(np.sum(diag)) / ((1.0 - g_k) * (1.0 - g_n))
    shift = (g_chol / (1.0 - g_chol) * n * t2 + g_k * frob2
             + n * (n + k + 2) * (2.0 + t2) * 2.0 ** -1070) * (1.0 + 2.0 ** -20)
    top = float(np.nextafter(t2 - shift, -np.inf))
    if np.max(diag) >= top:
        return False
    a = -gram
    a[np.diag_indices(n)] = np.nextafter(top - diag, -np.inf)
    try:
        return bool(np.all(np.isfinite(np.linalg.cholesky(a))))
    except np.linalg.LinAlgError:
        return False
