"""Amdahl's-law model and a measured worker-pool benchmark.

The measured study runs FFT-based circular convolutions over a batch
partitioned statically across a process pool (item ``i`` goes to worker
``i mod w``).  Wall times are medians over repeated runs on a monotonic
clock, with one discarded warm-up pass per pool, and results are checked
bit-identical against the single-worker run after index restore.

Pools never exceed the machine's CPU count: Amdahl's ``N`` counts
processors, and oversubscribed pools only add scheduling overhead.  Each
record carries both the requested and the effective worker count, and
requests that collapse to the same effective pool share one measurement.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import statistics
import time
import timeit
from dataclasses import dataclass

import numpy as np

from .errors import WorkerResultMismatch
from .transforms import circular_conv_direct, circular_conv_fft

UNBOUNDED_SPEEDUP = math.inf  # sentinel returned by amdahl_limit at P = 1

# Scaling-study timing: shortest timed loop, and the warm-up's agreement
# tolerance and retry cap.
_MIN_LOOP_S = 0.02
_WARMUP_AGREE = 0.2
_WARMUP_CAP = 10


@dataclass(frozen=True)
class AmdahlModel:
    """Parallel fraction P and processor count N."""

    parallel_fraction: float
    processors: int

    def __post_init__(self):
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ValueError("parallel fraction must lie in [0, 1]")
        if self.processors < 1:
            raise ValueError("processor count must be >= 1")


def amdahl_speedup(model: AmdahlModel) -> float:
    """S = 1 / ((1 - P) + P / N)."""
    p, n = model.parallel_fraction, model.processors
    return 1.0 / ((1.0 - p) + p / n)


def amdahl_limit(parallel_fraction: float) -> float:
    """Asymptotic speedup 1 / (1 - P); returns the inf sentinel at P = 1."""
    if not 0.0 <= parallel_fraction <= 1.0:
        raise ValueError("parallel fraction must lie in [0, 1]")
    if parallel_fraction == 1.0:
        return UNBOUNDED_SPEEDUP
    return 1.0 / (1.0 - parallel_fraction)


def fit_parallel_fraction(workers, speedups) -> float:
    """Least-squares Amdahl fit in inverse-speedup space.

    1/S = 1 - P (1 - 1/N) is linear in P, giving a closed-form estimate
    from all measurements with N > 1.  The result is clamped to [0, 1].
    """
    num = den = 0.0
    for n, s in zip(workers, speedups):
        if n <= 1 or s <= 0:
            continue
        a = 1.0 - 1.0 / n
        num += a * (1.0 - 1.0 / s)
        den += a * a
    if den == 0.0:
        return 0.0
    return float(min(1.0, max(0.0, num / den)))


@dataclass(frozen=True)
class SpeedupRecord:
    workers: int
    effective_workers: int
    wall_time: float
    speedup_measured: float
    speedup_predicted: float
    fitted_P: float


@dataclass(frozen=True)
class ScalingRecord:
    n: int
    t_direct: float
    t_fft: float


_POOL_BATCH = None
_POOL_FILT = None


def _pool_init(batch, filt):
    global _POOL_BATCH, _POOL_FILT
    _POOL_BATCH, _POOL_FILT = batch, filt


def _pool_work(indices):
    out = np.empty((len(indices), _POOL_BATCH.shape[1]))
    for j, i in enumerate(indices):
        out[j] = circular_conv_fft(_POOL_BATCH[i], _POOL_FILT)
    return out


def _run_partitioned(pool, n_workers, batch_size, grid):
    """One timed pass: dispatch static partitions, join, restore order."""
    parts = [list(range(w, batch_size, n_workers)) for w in range(n_workers)]
    start = time.perf_counter()
    chunks = pool.map(_pool_work, parts)
    result = np.empty((batch_size, grid))
    for part, chunk in zip(parts, chunks):
        result[part] = chunk
    elapsed = time.perf_counter() - start
    return elapsed, result


def bench_batched_conv(batch, filt, workers, repeats: int = 5):
    """Measure batched-convolution speedups for each requested worker count.

    Requirements: ``repeats >= 5`` and ``len(batch) >= 4 * max(workers)``.
    Raises ``WorkerResultMismatch`` if any worker count produces results
    that are not bit-identical to the single-worker reference.
    """
    batch = np.asarray(batch, dtype=np.float64)
    filt = np.asarray(filt, dtype=np.float64)
    if batch.ndim != 2 or filt.ndim != 1 or batch.shape[1] != filt.shape[0]:
        raise ValueError("batch must be (items, grid) with a matching filter")
    workers = [int(w) for w in workers]
    if not workers or any(w < 1 for w in workers):
        raise ValueError("worker counts must be positive")
    if repeats < 5:
        raise ValueError("repeats must be >= 5")
    if batch.shape[0] < 4 * max(workers):
        raise ValueError("batch must hold at least 4 items per worker")

    cpu = os.cpu_count() or 1
    effective = {w: min(w, cpu) for w in workers}
    # The serial baseline is always measured: it defines the speedups and
    # serves as the bit-identity reference.
    eff_counts = sorted(set(effective.values()) | {1})
    ctx = multiprocessing.get_context()
    pools = {
        w: ctx.Pool(w, initializer=_pool_init, initargs=(batch, filt))
        for w in eff_counts
    }
    try:
        results = {}
        for w in eff_counts:  # discarded warm-up pass per pool
            _, results[w] = _run_partitioned(pools[w], w, batch.shape[0], batch.shape[1])
        times = {w: [] for w in eff_counts}
        # Interleave repeats across pool sizes so drift hits all of them alike.
        for _ in range(repeats):
            for w in eff_counts:
                t, res = _run_partitioned(pools[w], w, batch.shape[0], batch.shape[1])
                times[w].append(t)
                results[w] = res
        for w in eff_counts:
            if not np.array_equal(results[w], results[1]):
                raise WorkerResultMismatch(
                    f"worker count {w} produced results differing from the serial run"
                )
    finally:
        for pool in pools.values():
            pool.close()
            pool.join()

    medians = {w: statistics.median(ts) for w, ts in times.items()}
    speedups = {w: medians[1] / medians[w] for w in eff_counts}
    fitted = fit_parallel_fraction(eff_counts, [speedups[w] for w in eff_counts])
    records = []
    for w in workers:
        eff = effective[w]
        records.append(SpeedupRecord(
            workers=w,
            effective_workers=eff,
            wall_time=medians[eff],
            speedup_measured=speedups[eff],
            speedup_predicted=amdahl_speedup(AmdahlModel(fitted, eff)),
            fitted_P=fitted,
        ))
    return records


def _autorange(timer):
    """Loop count, doubled until one loop takes _MIN_LOOP_S, and its per-call time."""
    loops = 1
    while True:
        elapsed = timer.timeit(loops)
        if elapsed >= _MIN_LOOP_S:
            return loops, elapsed / loops
        loops *= 2


def scaling_study(sizes, repeats: int = 3):
    """Median per-call runtimes of direct vs FFT circular convolution per size.

    Each timing is a loop of at least ``_MIN_LOOP_S``, so a sub-millisecond
    call is not one clock pair.  The smallest size is retimed until two
    consecutive timings agree within ``_WARMUP_AGREE`` (at most
    ``_WARMUP_CAP`` times), because a process's first timings run slow.
    Repeats are interleaved across sizes so drift hits all of them alike.
    """
    sizes = [int(n) for n in sizes]
    if sizes != sorted(sizes) or any(n & (n - 1) or n < 2 for n in sizes):
        raise ValueError("sizes must be ascending powers of two")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rng = np.random.default_rng(20240901)
    timers = []
    for n in sizes:
        x = rng.normal(size=n)
        h = rng.normal(size=n)
        timers.append([timeit.Timer(functools.partial(conv, x, h))
                       for conv in (circular_conv_direct, circular_conv_fft)])
    prev = None
    for _ in range(_WARMUP_CAP):
        cur = [_autorange(timer)[1] for timer in timers[0]]
        if prev and all(abs(c - p) <= _WARMUP_AGREE * p for c, p in zip(cur, prev)):
            break
        prev = cur
    loops = [[_autorange(timer)[0] for timer in pair] for pair in timers]
    samples = [([], []) for _ in sizes]
    for _ in range(repeats):
        for pair, counts, out in zip(timers, loops, samples):
            for timer, k, ts in zip(pair, counts, out):
                ts.append(timer.timeit(k) / k)
    return [ScalingRecord(n, statistics.median(td), statistics.median(tf))
            for n, (td, tf) in zip(sizes, samples)]


def loglog_slope(ns, ts) -> float:
    """Least-squares slope of log(t) against log(n)."""
    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.asarray(ts, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])
