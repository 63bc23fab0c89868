"""Truncated Fourier/wavelet approximation under a coefficient budget.

Both dictionaries are orthonormal on the grid (Fourier coefficients are the
FFT scaled by 1/sqrt(N); wavelet coefficients come from the orthonormal
DWT), so truncation error in the signal domain equals the energy of the
discarded coefficients.

Selection within one dictionary is greedy by coefficient magnitude, with
conjugate Fourier pairs kept or dropped together so reconstructions stay
real.  The combined strategy splits the budget between the two
dictionaries: for a split the Fourier part is fit first and the wavelet part
is fit on the residual.  Every split is scored in wavelet-coefficient space:
because the DWT is linear, the residual coefficients of a Fourier prefix are
DWT(f) minus the running sum of the DWTs of its units, and the split's error
is the energy of the residual coefficients the wavelet budget does not keep.
The splits whose score is within rounding of the best are then evaluated
exactly, along with the two single-basis splits, and the first strict
improvement in ascending split order wins.  Scoring every split makes the
combined error never worse than either single-basis strategy at the same
budget and makes the error-versus-budget curve monotone, neither of which a
one-shot global magnitude ranking can guarantee over a redundant pair of
dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transforms import dwt, fft, idwt, inverse_fft, max_wavelet_levels

STRATEGIES = ("fourier", "wavelet", "combined")


@dataclass(frozen=True)
class MultiScalePlan:
    """Dictionary limits: Fourier modes |k| <= K, wavelet detail levels
    J0..J (1 = finest; the level-J approximation band is always a
    candidate), and the total coefficient budget."""

    K: int
    J0: int
    J: int
    budget: int

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("K must be >= 0")
        if not 1 <= self.J0 <= self.J:
            raise ValueError("need 1 <= J0 <= J")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")


def full_plan(n: int, budget: int, family: str = "haar") -> MultiScalePlan:
    """Plan with both dictionaries complete for an n-point grid."""
    return MultiScalePlan(K=n // 2, J0=1, J=max_wavelet_levels(n, family), budget=budget)


@dataclass(frozen=True)
class ApproxReport:
    l2_error: float
    fourier_terms: int
    wavelet_terms: int
    decay_exponent_fourier: float


def decay_exponent(magnitudes) -> float:
    """Power-law exponent s from |c_k| ~ C / k^s on an ordered spectrum.

    ``magnitudes[i]`` is the coefficient magnitude at mode ``k = i + 1``;
    the least-squares fit runs over modes 2..K (the first mode carries no
    leverage in log space), skipping exact zeros.  Needs at least eight
    nonzero magnitudes.
    """
    mags = np.asarray(magnitudes, dtype=np.float64)
    if mags.ndim != 1:
        raise ValueError("expected a 1-d magnitude list")
    if np.count_nonzero(mags) < 8:
        raise ValueError("need at least 8 nonzero magnitudes for a decay fit")
    modes = np.arange(1, mags.shape[0] + 1)
    keep = (modes >= 2) & (mags > 0.0)
    slope = np.polyfit(np.log(modes[keep]), np.log(mags[keep]), 1)[0]
    return float(-slope)


def _fourier_units(n: int, k_max: int):
    """Selection units as (head bins, weights): DC, conjugate pairs
    (k, n - k) under head k, then Nyquist."""
    heads = np.arange(max(min(k_max, n // 2 - 1), 0) + 1)
    weights = np.where(heads > 0, 2, 1)
    if n >= 2 and k_max >= n // 2:
        heads = np.append(heads, n // 2)
        weights = np.append(weights, 1)
    return heads, weights


class _FourierBasis:
    """Precomputed greedy ordering of Fourier units for one signal."""

    def __init__(self, f: np.ndarray, k_max: int):
        n = f.shape[0]
        self.n = n
        self.coeffs = fft(f) / np.sqrt(n)
        heads, weights = _fourier_units(n, k_max)
        order = np.lexsort((heads, -np.abs(self.coeffs[heads])))
        self.heads = heads[order]
        self.weights = weights[order]
        # used[p]: budget taken by the first p units
        self.used = np.concatenate(([0], np.cumsum(self.weights)))

    def prefix_length(self, budget):
        """Number of units in the greedy prefix under each budget."""
        return np.searchsorted(self.used, budget, side="right") - 1

    def select(self, budget: int):
        """Greedy prefix under the weight budget; returns (bins, used)."""
        p = int(self.prefix_length(budget))
        heads = self.heads[:p]
        bins = np.concatenate((heads, self.n - heads[self.weights[:p] == 2]))
        return bins, int(self.used[p])

    def reconstruct(self, bins) -> np.ndarray:
        sel = np.zeros(self.n, dtype=np.complex128)
        sel[bins] = self.coeffs[bins]
        return inverse_fft(sel * np.sqrt(self.n)).real

    def unit_signals(self, start: int, stop: int, cos: np.ndarray, sin: np.ndarray):
        """Rows of the grid signals of units start..stop-1.

        Unit k contributes (w/sqrt(N)) (Re c cos - Im c sin) at phase
        2*pi*k*t/N, read from one period of ``cos``/``sin`` at (k*t) mod N.
        """
        heads = self.heads[start:stop]
        c = self.coeffs[heads][:, None]
        phase = np.outer(heads, np.arange(self.n)) % self.n
        scale = self.weights[start:stop, None] / np.sqrt(self.n)
        return scale * (c.real * cos[phase] - c.imag * sin[phase])


def _wavelet_fit(residual, family, j0, j_levels, budget):
    """Keep the ``budget`` largest candidate wavelet coefficients of the
    residual; returns (reconstruction, kept count, discarded energy)."""
    decomp = dwt(residual, family, j_levels)
    flat = decomp.flatten()
    # Candidates: the approximation band (level J) and details J0..J.
    candidates = decomp.slot_levels() >= j0
    mags = np.where(candidates, np.abs(flat), -1.0)
    kept = np.zeros(flat.shape[0], dtype=bool)
    if budget > 0:
        order = np.argsort(-mags, kind="stable")[:budget]
        kept[order[mags[order] >= 0.0]] = True
    recon = idwt(decomp.unflatten(np.where(kept, flat, 0.0)))
    discarded = float(np.sum(flat[~kept] ** 2))
    return recon, int(np.count_nonzero(kept)), discarded


_SEARCH_CHUNK = 8  # Fourier prefixes scored per batched DWT


def _split_errors(f, fourier: _FourierBasis, plan: MultiScalePlan, family: str):
    """Error of every budget split m = 0..budget, scored from coefficients.

    Split m keeps the greedy Fourier prefix under budget m and the
    ``budget - m`` largest candidate wavelet coefficients of the residual.
    The residual coefficients of a prefix are DWT(f) minus the running sum
    of the DWTs of its units; the discarded candidates are summed from the
    small end so step signals keep their ~1e-14 errors.
    """
    n = f.shape[0]
    splits = np.arange(plan.budget + 1)
    prefix = fourier.prefix_length(splits)
    decomp = dwt(f, family, plan.J)
    candidate = decomp.slot_levels() >= plan.J0
    dropped = np.maximum(np.count_nonzero(candidate) - (plan.budget - splits), 0)
    err2 = np.empty(splits.shape[0])

    def score(first, rows):
        # rows[j] holds the residual coefficients of prefix first + j
        sq = rows ** 2
        outside = np.sum(sq[:, ~candidate], axis=1)
        inside = np.cumsum(np.sort(sq[:, candidate], axis=1), axis=1)
        inside = np.concatenate((np.zeros((rows.shape[0], 1)), inside), axis=1)
        hit = (prefix >= first) & (prefix < first + rows.shape[0])
        p = prefix[hit] - first
        err2[hit] = outside[p] + inside[p, dropped[hit]]

    theta = 2.0 * np.pi * np.arange(n) / n
    cos, sin = np.cos(theta), np.sin(theta)
    rows = decomp.flatten()[None, :]
    score(0, rows)
    for lo in range(0, int(prefix[-1]), _SEARCH_CHUNK):
        hi = min(lo + _SEARCH_CHUNK, int(prefix[-1]))
        units = dwt(fourier.unit_signals(lo, hi, cos, sin), family, plan.J).flatten()
        rows = rows[-1] - np.cumsum(units, axis=0)
        score(lo + 1, rows)
    return np.sqrt(err2)


def approximate(f, plan: MultiScalePlan, strategy: str, family: str = "haar"):
    """Budgeted reconstruction of ``f``; returns (approximation, report)."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 1:
        raise ValueError("expected a 1-d grid function")
    n = f.shape[0]
    if n & (n - 1):
        raise ValueError("grid length must be a power of two")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if plan.budget > n:
        raise ValueError(f"budget {plan.budget} exceeds grid size {n}")
    if plan.J > max_wavelet_levels(n, family):
        raise ValueError(f"J={plan.J} too deep for {family} on {n} points")

    fourier = _FourierBasis(f, plan.K)

    def evaluate(fourier_budget, wavelet_budget):
        bins, used = fourier.select(fourier_budget)
        part = fourier.reconstruct(bins) if used else np.zeros(n)
        residual = f - part
        if wavelet_budget > 0:
            wpart, kept, _ = _wavelet_fit(residual, family, plan.J0, plan.J,
                                          wavelet_budget)
        else:
            wpart, kept = np.zeros(n), 0
        recon = part + wpart
        err = float(np.linalg.norm(f - recon))
        return err, recon, used, kept

    if strategy == "fourier":
        splits = [plan.budget]
    elif strategy == "wavelet":
        splits = [0]
    else:
        # Exact re-evaluation of every split within rounding of the scored
        # minimum, plus both single-basis splits, keeps the choice of the
        # exhaustive scan and keeps dominance by construction.
        errors = _split_errors(f, fourier, plan, family)
        near = errors <= errors.min() + 1e-12 * max(1.0, float(np.linalg.norm(f)))
        near[[0, -1]] = True
        splits = np.flatnonzero(near).tolist()
    best = None
    for m in splits:
        cand = evaluate(m, plan.budget - m)
        if best is None or cand[0] < best[0] - 1e-15:
            best = cand

    err, recon, fourier_terms, wavelet_terms = best
    report = ApproxReport(
        l2_error=err,
        fourier_terms=fourier_terms,
        wavelet_terms=wavelet_terms,
        decay_exponent_fourier=_safe_fourier_exponent(fourier, plan.K),
    )
    return recon, report


def _safe_fourier_exponent(fourier: _FourierBasis, k_max: int) -> float:
    top = min(k_max, fourier.n // 2)
    mags = np.abs(fourier.coeffs[1:top + 1])
    try:
        return decay_exponent(mags)
    except ValueError:
        return float("nan")


def error_vs_budget_curve(f, budgets, strategy: str, family: str = "haar"):
    """(budget, error) pairs over ascending budgets with full dictionaries."""
    budgets = [int(b) for b in budgets]
    if budgets != sorted(budgets):
        raise ValueError("budgets must be ascending")
    f = np.asarray(f, dtype=np.float64)
    out = []
    for b in budgets:
        _, report = approximate(f, full_plan(f.shape[0], b, family), strategy, family)
        out.append((b, report.l2_error))
    return out
