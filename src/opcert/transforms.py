"""FFT, circular convolution, and orthonormal discrete wavelet transforms.

Conventions:

* Forward DFT is unnormalized, ``X_k = sum_n x_n exp(-2*pi*i*k*n/N)``; the
  inverse carries the ``1/N`` factor.
* ``fft`` is an iterative radix-2 transform over bit-reversed input order;
  it requires power-of-two lengths and operates along the last axis, so
  batches of signals transform in one call.
* Wavelet filter banks use circular (periodic) boundary handling and
  orthonormal filters, so multi-level analysis/synthesis is an isometry and
  reconstruction is exact to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT2 = np.sqrt(2.0)
_S3 = np.sqrt(3.0)

# Orthonormal scaling (low-pass) filters; high-pass mates come from the
# quadrature-mirror relation g[m] = (-1)^m h[taps-1-m].
WAVELET_FILTERS = {
    "haar": np.array([1.0, 1.0]) / _SQRT2,
    "db4": np.array([1.0 + _S3, 3.0 + _S3, 3.0 - _S3, 1.0 - _S3]) / (4.0 * _SQRT2),
}

# (low-pass, high-pass) analysis filters per family.
_QMF_PAIRS = {
    family: (h, h[::-1] * (-1.0) ** np.arange(len(h)))
    for family, h in WAVELET_FILTERS.items()
}

_BIT_REVERSAL_CACHE: dict[int, np.ndarray] = {}
_TWIDDLE_CACHE: dict[int, np.ndarray] = {}
_ANALYSIS_INDEX_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _bit_reversal_indices(n: int) -> np.ndarray:
    perm = _BIT_REVERSAL_CACHE.get(n)
    if perm is None:
        perm = np.zeros(n, dtype=np.intp)
        for i in range(1, n):
            perm[i] = (perm[i >> 1] >> 1) | ((i & 1) * (n >> 1))
        _BIT_REVERSAL_CACHE[n] = perm
    return perm


def _stage_twiddles(m: int) -> np.ndarray:
    """Twiddles exp(-2*pi*i*j/m), j < m/2, of the radix-2 stage of size m."""
    twiddle = _TWIDDLE_CACHE.get(m)
    if twiddle is None:
        twiddle = np.exp(-2j * np.pi * np.arange(m // 2) / m)
        twiddle.flags.writeable = False
        _TWIDDLE_CACHE[m] = twiddle
    return twiddle


def dft_naive(x) -> np.ndarray:
    """Direct O(N^2) evaluation of the DFT sum; the oracle for ``fft``."""
    a = np.asarray(x, dtype=np.complex128)
    n = a.shape[-1]
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return a @ w.T


def fft(x) -> np.ndarray:
    """Radix-2 decimation-in-time FFT (bit-reversal input ordering).

    Accepts real or complex input of power-of-two length along the last
    axis and returns complex coefficients equal to ``dft_naive``.
    """
    a = np.array(x, dtype=np.complex128)
    n = a.shape[-1]
    if not _is_power_of_two(n):
        raise ValueError(f"fft length must be a power of two, got {n}")
    a = a[..., _bit_reversal_indices(n)]
    m = 2
    while m <= n:
        half = m // 2
        b = a.reshape(a.shape[:-1] + (n // m, m))
        t = b[..., half:] * _stage_twiddles(m)
        hi = b[..., :half] - t
        b[..., :half] += t
        b[..., half:] = hi
        m *= 2
    return a


def inverse_fft(x) -> np.ndarray:
    """Inverse of ``fft``; carries the 1/N normalization."""
    a = np.asarray(x, dtype=np.complex128)
    n = a.shape[-1]
    return np.conj(fft(np.conj(a))) / n


def circular_conv_direct(x, h) -> np.ndarray:
    """Direct O(N^2) circular convolution (x*h)_n = sum_m x_m h_{(n-m) mod N}.

    Evaluated blockwise as dense matrix-vector products so the quadratic
    work is real arithmetic rather than interpreter overhead.
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if x.ndim != 1 or h.ndim != 1 or x.shape != h.shape:
        raise ValueError("circular convolution requires equal-length 1-d inputs")
    n = x.shape[0]
    # Row n of the circulant is h[(n-m) mod N], m = 0..N-1; with hh the
    # doubled filter that row is hh[n+1 : n+1+N] read against reversed x.
    hh = np.concatenate([h, h])
    xr = np.ascontiguousarray(x[::-1])
    y = np.empty(n)
    block = 512
    for s in range(0, n, block):
        e = min(s + block, n)
        rows = np.empty((e - s, n))
        for j, i in enumerate(range(s, e)):
            rows[j] = hh[i + 1:i + 1 + n]
        y[s:e] = rows @ xr
    return y


def circular_conv_fft(x, h) -> np.ndarray:
    """Circular convolution via iFFT(FFT(x) * FFT(h)); needs power-of-two N."""
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if x.ndim != 1 or h.ndim != 1 or x.shape != h.shape:
        raise ValueError("circular convolution requires equal-length 1-d inputs")
    if not _is_power_of_two(x.shape[0]):
        raise ValueError("circular_conv_fft requires power-of-two length")
    return inverse_fft(fft(x) * fft(h)).real


@dataclass(frozen=True)
class WaveletDecomp:
    """Multi-level wavelet coefficients: details finest-first, plus approx."""

    levels: int
    approx: np.ndarray
    details: list[np.ndarray]
    family: str

    @property
    def input_length(self) -> int:
        return self.approx.shape[-1] + sum(d.shape[-1] for d in self.details)

    def _band_lengths(self) -> list[int]:
        """Lengths of the bands in ``flatten`` order."""
        return [self.approx.shape[-1]] + [d.shape[-1] for d in reversed(self.details)]

    def flatten(self) -> np.ndarray:
        """Concatenate coefficients along the last axis as
        [approx, coarsest detail, ..., finest]."""
        return np.concatenate([self.approx] + list(reversed(self.details)), axis=-1)

    def unflatten(self, flat) -> "WaveletDecomp":
        """Inverse of ``flatten``: ``flat``'s last axis split into this layout."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim == 0 or flat.shape[-1] != self.input_length:
            raise ValueError(f"expected {self.input_length} coefficients along the last axis")
        ends = np.cumsum(self._band_lengths()).tolist()
        bands = [flat[..., start:end] for start, end in zip([0] + ends, ends)]
        return WaveletDecomp(self.levels, bands[0], bands[:0:-1], self.family)

    def slot_levels(self) -> np.ndarray:
        """Level of each ``flatten`` slot: j for detail level j (1 = finest),
        and ``levels`` for the approximation band."""
        levels = [self.levels] + list(range(self.levels, 0, -1))
        return np.repeat(levels, self._band_lengths())


def _qmf_pair(family: str) -> tuple[np.ndarray, np.ndarray]:
    if family not in _QMF_PAIRS:
        raise ValueError(f"unknown wavelet family {family!r}")
    return _QMF_PAIRS[family]


def _analysis_index(n: int, taps: int) -> np.ndarray:
    """Circular read positions (2i - m) mod n, i < n/2, m < taps."""
    idx = _ANALYSIS_INDEX_CACHE.get((n, taps))
    if idx is None:
        idx = (2 * np.arange(n // 2)[:, None] - np.arange(taps)[None, :]) % n
        idx.flags.writeable = False
        _ANALYSIS_INDEX_CACHE[(n, taps)] = idx
    return idx


def _analysis_step(a: np.ndarray, h: np.ndarray, g: np.ndarray):
    """One level of the periodic analysis bank: y[n] = sum_m f[m] a[(2n-m) % N]."""
    n = a.shape[-1]
    taps = len(h)
    seg = a[..., _analysis_index(n, taps)]
    if n > 2:
        # Each row of a batch must round exactly as it does alone: numpy
        # rounds a multi-row 2-d product the same at any row count, and a
        # one-row block (n == 2) takes its dot-product path either way.
        seg = seg.reshape(-1, taps)
    shape = a.shape[:-1] + (n // 2,)
    return (seg @ h).reshape(shape), (seg @ g).reshape(shape)


def _synthesis_step(approx: np.ndarray, detail: np.ndarray, h: np.ndarray, g: np.ndarray):
    """Adjoint of ``_analysis_step``: x[k] = sum_n a[n] h[2n-k] + d[n] g[2n-k]."""
    half = approx.shape[-1]
    n = 2 * half
    out = np.zeros(approx.shape[:-1] + (n,))
    pos = 2 * np.arange(half)
    for m in range(len(h)):
        # For fixed m the targets (2n - m) % N are distinct, so a buffered
        # fancy-index accumulate is safe.
        out[..., (pos - m) % n] += h[m] * approx + g[m] * detail
    return out


def _validate_levels(n: int, family: str, levels: int) -> None:
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if not _is_power_of_two(n):
        raise ValueError(f"wavelet transform requires power-of-two length, got {n}")
    if n % (2 ** levels) != 0:
        raise ValueError(f"length {n} is not divisible by 2^{levels}")
    taps = len(WAVELET_FILTERS[family])
    # Keep every analyzed block at least one filter long so circular rows
    # stay orthonormal.
    if n // 2 ** (levels - 1) < taps:
        raise ValueError(
            f"{family} with {levels} levels needs length >= {taps * 2 ** (levels - 1)}"
        )


def max_wavelet_levels(n: int, family: str = "haar") -> int:
    """Deepest decomposition ``dwt`` accepts for this length and family."""
    if not _is_power_of_two(n):
        raise ValueError(f"wavelet transform requires power-of-two length, got {n}")
    taps = len(WAVELET_FILTERS[family])
    levels = 0
    while n >= taps and n >= 2:
        levels += 1
        n //= 2
    return levels


def dwt(x, family: str = "haar", levels: int = 1) -> WaveletDecomp:
    """Multi-level orthonormal analysis with periodic boundary handling.

    Transforms along the last axis, so a batch of signals transforms in one
    call; each row's coefficients equal those of transforming it alone.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("dwt expects a signal, not a scalar")
    h, g = _qmf_pair(family)
    _validate_levels(x.shape[-1], family, levels)
    approx = x
    details = []
    for _ in range(levels):
        approx, d = _analysis_step(approx, h, g)
        details.append(d)
    return WaveletDecomp(levels=levels, approx=approx, details=details, family=family)


def idwt(decomp: WaveletDecomp) -> np.ndarray:
    """Perfect-reconstruction synthesis along the last axis; inverse of ``dwt``."""
    h, g = _qmf_pair(decomp.family)
    if decomp.levels != len(decomp.details):
        raise ValueError("levels field does not match number of detail bands")
    a = np.asarray(decomp.approx, dtype=np.float64)
    for d in reversed(decomp.details):
        d = np.asarray(d, dtype=np.float64)
        if d.shape != a.shape:
            raise ValueError("inconsistent coefficient lengths in decomposition")
        a = _synthesis_step(a, d, h, g)
    return a
