"""Amdahl's-law model and a measured worker-pool benchmark.

The measured study runs FFT-based circular convolutions over a batch
partitioned statically across a process pool (item ``i`` goes to worker
``i mod w``).  Both studies time with one routine: each call is looped
for at least ``_MIN_LOOP_S``, loops are interleaved across the timed calls,
and each call's fastest loop is kept.  Each pool runs one untimed pass
first; its results are checked bit-identical against the single-worker
run after index restore.

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
import timeit
from dataclasses import dataclass

import numpy as np

from .errors import WorkerResultMismatch
from .transforms import circular_conv_direct, circular_conv_fft

# Shortest timed loop, so a sub-millisecond call is not one clock pair.
_MIN_LOOP_S = 0.02


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
    """Asymptotic speedup 1 / (1 - P); ``math.inf`` at P = 1."""
    if not 0.0 <= parallel_fraction <= 1.0:
        raise ValueError("parallel fraction must lie in [0, 1]")
    if parallel_fraction == 1.0:
        return math.inf
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
    """One pass: dispatch static partitions, join, restore order."""
    parts = [list(range(w, batch_size, n_workers)) for w in range(n_workers)]
    chunks = pool.map(_pool_work, parts)
    result = np.empty((batch_size, grid))
    for part, chunk in zip(parts, chunks):
        result[part] = chunk
    return result


def bench_batched_conv(batch, filt, workers, repeats: int = 5):
    """Measure batched-convolution speedups for each requested worker count.

    A record's ``wall_time`` is the fastest of ``repeats`` interleaved
    timed passes of its pool (see ``_fastest_call_times``).
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
        passes = {w: functools.partial(_run_partitioned, pools[w], w, *batch.shape)
                  for w in eff_counts}
        # The untimed pass warms each pool and supplies its checked result.
        results = {w: run() for w, run in passes.items()}
        for w in eff_counts:
            if not np.array_equal(results[w], results[1]):
                raise WorkerResultMismatch(
                    f"worker count {w} produced results differing from the serial run"
                )
        times = dict(zip(eff_counts, _fastest_call_times(passes.values(), repeats)))
    finally:
        for pool in pools.values():
            pool.close()
            pool.join()

    speedups = {w: times[1] / times[w] for w in eff_counts}
    fitted = fit_parallel_fraction(eff_counts, [speedups[w] for w in eff_counts])
    records = []
    for w in workers:
        eff = effective[w]
        records.append(SpeedupRecord(
            workers=w,
            effective_workers=eff,
            wall_time=times[eff],
            speedup_measured=speedups[eff],
            speedup_predicted=amdahl_speedup(AmdahlModel(fitted, eff)),
            fitted_P=fitted,
        ))
    return records


def _autorange(timer):
    """Loop count, doubled until one loop takes ``_MIN_LOOP_S``."""
    loops = 1
    while timer.timeit(loops) < _MIN_LOOP_S:
        loops *= 2
    return loops


def _fastest_call_times(calls, repeats):
    """Fastest per-call time of each callable over ``repeats`` interleaved loops.

    Each callable's loop count is autoranged first; then every round times
    one loop of each callable in turn, so drift hits all of them alike.
    The minimum is kept because contention only ever adds time: it
    estimates the uncontended cost that Amdahl's model and the scaling
    slopes describe, where a median still carries what the neighbours did.
    """
    timers = [timeit.Timer(call) for call in calls]
    loops = [_autorange(timer) for timer in timers]
    best = [math.inf] * len(timers)
    for _ in range(repeats):
        for i, (timer, k) in enumerate(zip(timers, loops)):
            best[i] = min(best[i], timer.timeit(k) / k)
    return best


def scaling_study(sizes, repeats: int = 3):
    """Per-call runtimes of direct vs FFT circular convolution per size.

    Each runtime is the fastest of ``repeats`` loops interleaved across all
    sizes and both methods (see ``_fastest_call_times``), so a process's
    slow first timings and passing contention drop out.
    """
    sizes = [int(n) for n in sizes]
    if sizes != sorted(sizes) or any(n & (n - 1) or n < 2 for n in sizes):
        raise ValueError("sizes must be ascending powers of two")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rng = np.random.default_rng(20240901)
    calls = []
    for n in sizes:
        x = rng.normal(size=n)
        h = rng.normal(size=n)
        calls += [functools.partial(conv, x, h)
                  for conv in (circular_conv_direct, circular_conv_fft)]
    times = _fastest_call_times(calls, repeats)
    return [ScalingRecord(n, td, tf)
            for n, td, tf in zip(sizes, times[::2], times[1::2])]


def loglog_slope(ns, ts) -> float:
    """Least-squares slope of log(t) against log(n)."""
    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.asarray(ts, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])
