import tracemalloc

import numpy as np
import pytest

from opcert.multiscale import (
    ApproxReport,
    MultiScalePlan,
    approximate,
    decay_exponent,
    error_vs_budget_curve,
    full_plan,
)
from opcert.transforms import dwt, fft, max_wavelet_levels


def _grid(n):
    return np.arange(n) / n


def _smooth_spike(n, center, width_cells=4.0):
    x = _grid(n)
    return np.sin(2 * np.pi * x) + np.exp(-((x - center) ** 2) / (2 * (width_cells / n) ** 2))


def test_pure_sinusoid_fourier_exact():
    n = 1024
    f = np.sin(2 * np.pi * _grid(n))
    _, report = approximate(f, MultiScalePlan(K=1, J0=1, J=5, budget=3), "fourier")
    assert report.l2_error <= 1e-10
    assert report.wavelet_terms == 0


def test_haar_step_wavelet_exact():
    n = 1024
    f = np.where(_grid(n) < 0.5, 1.0, -1.0)
    _, report = approximate(f, full_plan(n, n), "wavelet")
    assert report.l2_error <= 1e-10
    assert report.fourier_terms == 0


def test_combined_beats_single_bases_on_spike_family():
    n = 1024
    rng = np.random.default_rng(0)
    for _ in range(3):
        f = _smooth_spike(n, rng.uniform(0.2, 0.8))
        errs = {}
        for strategy in ("fourier", "wavelet", "combined"):
            _, report = approximate(f, full_plan(n, 32), strategy)
            errs[strategy] = report.l2_error
        assert errs["combined"] <= min(errs["fourier"], errs["wavelet"]) + 1e-12
        assert errs["combined"] < errs["fourier"]
        assert errs["combined"] < errs["wavelet"]


def _oracle_signals(n):
    x = _grid(n)
    return {
        "smooth": np.exp(np.sin(2 * np.pi * x)),
        "step": np.where(x < 0.5, 1.0, -1.0),
        "spike": _smooth_spike(n, 0.4375),
        "random": np.random.default_rng(n).normal(size=n),
    }


def _exhaustive_split(f, plan, family):
    # oracle: brute-force scan over every budget split, fitting Fourier
    # first and wavelets on the residual, keeping the first strict
    # improvement in ascending split order
    from opcert.multiscale import _FourierBasis, _wavelet_fit
    n = f.shape[0]
    basis = _FourierBasis(f, plan.K)
    best = None
    for m in range(plan.budget + 1):
        bins, used = basis.select(m)
        part = basis.reconstruct(bins) if used else np.zeros(n)
        w_budget = plan.budget - m
        if w_budget > 0:
            wpart, kept, _ = _wavelet_fit(f - part, family, plan.J0, plan.J, w_budget)
        else:
            wpart, kept = np.zeros(n), 0
        recon = part + wpart
        err = float(np.linalg.norm(f - recon))
        if best is None or err < best[0] - 1e-15:
            best = (err, recon, used, kept)
    return best


def test_combined_matches_exhaustive_split_oracle():
    cases = [("haar", 2), ("haar", 8), ("haar", 256), ("haar", 1024),
             ("db4", 8), ("db4", 256), ("db4", 1024)]
    for family, n in cases:
        levels = max_wavelet_levels(n, family)
        odd = 2 * int(np.sqrt(n)) + 1
        budgets = sorted({0, 1, 2, 3, odd, n} & set(range(n + 1)))
        for name, f in _oracle_signals(n).items():
            for budget in budgets:
                plans = [full_plan(n, budget, family),
                         MultiScalePlan(K=budget // 4, J0=min(2, levels), J=levels,
                                        budget=budget)]
                if n == 1024 and budget == n:
                    # each exhaustive scan here takes ~1 s; the step signal
                    # is where most splits tie at rounding level
                    if name != "step":
                        continue
                    plans = plans[:1]
                for plan in plans:
                    recon, report = approximate(f, plan, "combined", family)
                    err, oracle_recon, used, kept = _exhaustive_split(f, plan, family)
                    where = (family, name, plan)
                    assert report.l2_error == err, where
                    assert report.fourier_terms == used, where
                    assert report.wavelet_terms == kept, where
                    assert np.array_equal(recon, oracle_recon), where


def test_combined_search_memory_is_bounded():
    n = 1024
    f = _smooth_spike(n, 0.4375)
    plan = full_plan(n, 256)
    approximate(f, plan, "combined")  # fill the transform caches first
    tracemalloc.start()
    try:
        approximate(f, plan, "combined")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_error_identity_equals_discarded_energy():
    n = 512
    f = _smooth_spike(n, 0.31)
    recon, report = approximate(f, full_plan(n, 24), "fourier")
    resid_coeffs = fft(f - recon) / np.sqrt(n)
    assert report.l2_error ** 2 == pytest.approx(
        float(np.sum(np.abs(resid_coeffs) ** 2)), rel=1e-9)

    recon_w, report_w = approximate(f, full_plan(n, 24), "wavelet")
    tail = dwt(f - recon_w, "haar", full_plan(n, 24).J).flatten()
    # kept slots have zero residual coefficients, so the whole residual
    # energy is the discarded-coefficient energy
    assert report_w.l2_error ** 2 == pytest.approx(float(np.sum(tail ** 2)), rel=1e-9)


def test_budget_validation():
    n = 64
    f = np.ones(n)
    with pytest.raises(ValueError, match="budget"):
        approximate(f, full_plan(n, n + 1), "fourier")
    with pytest.raises(ValueError, match="power of two"):
        approximate(np.ones(48), MultiScalePlan(K=4, J0=1, J=2, budget=8), "fourier")
    with pytest.raises(ValueError, match="strategy"):
        approximate(f, full_plan(n, 8), "greedy")


def test_plan_validation():
    with pytest.raises(ValueError):
        MultiScalePlan(K=-1, J0=1, J=2, budget=4)
    with pytest.raises(ValueError):
        MultiScalePlan(K=4, J0=3, J=2, budget=4)
    with pytest.raises(ValueError):
        MultiScalePlan(K=4, J0=1, J=2, budget=-1)


def test_decay_exponent_planted_power_laws():
    ks = np.arange(1, 65, dtype=float)
    assert decay_exponent(1.0 / ks) == pytest.approx(1.0, abs=1e-6)
    assert decay_exponent(1.0 / ks**2) == pytest.approx(2.0, abs=1e-6)


def test_decay_exponent_smoothed_sawtooth_spectrum():
    n = 1024
    x = _grid(n)
    f = sum(np.cos(2 * np.pi * k * x) / k**2 for k in range(1, 200))
    mags = np.abs(fft(f) / np.sqrt(n))[1:65]
    assert decay_exponent(mags) >= 1.5


def test_decay_exponent_rejects_degenerate_input():
    with pytest.raises(ValueError, match="nonzero"):
        decay_exponent(np.zeros(32))
    with pytest.raises(ValueError, match="nonzero"):
        decay_exponent(np.array([1.0, 0.5, 0.25]))


def test_error_curve_monotone_and_complete():
    n = 512
    f = _smooth_spike(n, 0.55)
    budgets = [4, 8, 16, 32, 64, n]
    for strategy in ("fourier", "wavelet", "combined"):
        curve = error_vs_budget_curve(f, budgets, strategy)
        errors = [e for _, e in curve]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-9


def test_error_curve_smooth_signal_log_linear_decay():
    n = 512
    f = np.exp(np.sin(2 * np.pi * _grid(n)))
    curve = error_vs_budget_curve(f, [4, 8, 16, 32], "fourier")
    errors = np.array([e for _, e in curve])
    # each budget doubling should cut the error at least e-fold
    assert np.all(errors[1:] <= errors[:-1] * np.exp(-1.0))


def test_combined_dominates_fourier_at_each_budget():
    n = 512
    f = _smooth_spike(n, 0.62)
    budgets = [8, 16, 32, 64]
    fourier = dict(error_vs_budget_curve(f, budgets, "fourier"))
    combined = dict(error_vs_budget_curve(f, budgets, "combined"))
    for b in budgets:
        assert combined[b] <= fourier[b] + 1e-12


def test_budgets_must_ascend():
    with pytest.raises(ValueError, match="ascending"):
        error_vs_budget_curve(np.ones(64), [8, 4], "fourier")


def test_report_fields_well_formed():
    n = 256
    f = _smooth_spike(n, 0.5)
    _, report = approximate(f, full_plan(n, 16), "combined")
    assert isinstance(report, ApproxReport)
    assert report.l2_error >= 0
    assert report.fourier_terms >= 0 and report.wavelet_terms >= 0
    assert report.fourier_terms + report.wavelet_terms <= 16
