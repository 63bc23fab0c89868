"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import numpy as np
import pytest

from conftest import grads_to_vector, params_to_vector, vector_to_net
from opcert.capacity import (
    count_regions_1d,
    count_regions_grid,
    montufar_lower_bound,
    perturbed_net,
    sawtooth_net_1d,
)
from opcert.fixed_point import (
    iterate_to_fixed_point,
    predict_iterations,
    verify_exponential_bound,
)
from opcert.multiscale import approximate, decay_exponent, error_vs_budget_curve, full_plan
from opcert.operator_net import (
    IDENTITY,
    RELU,
    SIGMOID,
    TANH,
    DenseLayer,
    OperatorNet,
    SpectralLayer,
    WaveletGainLayer,
    certify_lipschitz,
    forward,
    forward_batch,
    normalize_to_contraction,
    stability_envelope,
)
from opcert.parallel_bench import (
    AmdahlModel,
    amdahl_speedup,
    bench_batched_conv,
    loglog_slope,
    scaling_study,
)
from opcert.training import (
    GenBoundInput,
    TrainConfig,
    apply_dropout,
    generalization_bound,
    grad,
    loss_total,
    make_antiderivative_dataset,
    run_experiment,
)
from opcert.transforms import (
    circular_conv_direct,
    circular_conv_fft,
    dft_naive,
    dwt,
    fft,
    idwt,
)

_CYCLE_ACTS = (RELU, TANH, SIGMOID)


def _verdict(number, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def _random_net(seed):
    """Random net: depth 1-5, power-of-two grid width <= 64, mixed layers."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([8, 16, 32, 64]))
    depth = int(rng.integers(1, 6))
    act = _CYCLE_ACTS[seed % 3]
    layers = []
    for i in range(depth):
        kind = rng.integers(0, 10)
        if kind < 6:
            layers.append(DenseLayer(
                rng.normal(size=(n, n)) / np.sqrt(n), rng.normal(size=n), act))
        elif kind < 8:
            filt = (rng.normal(size=n // 2 + 1)
                    + 1j * rng.normal(size=n // 2 + 1)) / 4
            layers.append(SpectralLayer(
                rng.normal(size=(n, n)) / (2 * np.sqrt(n)), filt, act))
        else:
            layers.append(WaveletGainLayer(rng.normal(size=2), "haar", act))
    return OperatorNet(tuple(layers)), n


def _max_quotient(net, n, rng, pairs=10000):
    u = rng.normal(size=(pairs, n))
    v = u + rng.normal(size=(pairs, n)) * 10.0 ** rng.uniform(-3, 1, size=(pairs, 1))
    num = np.linalg.norm(forward_batch(net, u) - forward_batch(net, v), axis=1)
    den = np.linalg.norm(u - v, axis=1)
    keep = den > 0
    return num[keep], den[keep]


def test_criterion_1_contraction_certification_soundness():
    worst_raw = worst_capped = -np.inf
    for seed in range(50):
        net, n = _random_net(seed)
        rng = np.random.default_rng(1000 + seed)
        bound = certify_lipschitz(net).bound
        num, den = _max_quotient(net, n, rng)
        worst_raw = max(worst_raw, float(np.max(num - bound * den)))

        capped = normalize_to_contraction(net, 0.8)
        num, den = _max_quotient(capped, n, rng)
        worst_capped = max(worst_capped, float(np.max(num - 0.8 * den)))
    ok = worst_raw <= 1e-9 and worst_capped <= 1e-9
    _verdict(1, ok,
             "sampled Lipschitz quotients never exceed the certificate "
             f"(worst slack raw {worst_raw:.2e}, capped {worst_capped:.2e})")


def test_criterion_2_exponential_convergence():
    assert predict_iterations(1.0, 1e-3, 0.5) == 10
    qs = [0.5, 0.8, 0.95]
    bound_ok = predictor_ok = True
    for seed in range(20):
        q = qs[seed % 3]
        rng = np.random.default_rng(2000 + seed)
        raw = OperatorNet(tuple(
            DenseLayer(rng.normal(size=(12, 12)), rng.normal(size=12), TANH)
            for _ in range(3)
        ))
        net = normalize_to_contraction(raw, q)
        cert = certify_lipschitz(net)
        u0 = rng.normal(size=12)
        report = iterate_to_fixed_point(net, u0, 1e-9, max_iter=20000,
                                        certificate=cert)
        bound_ok &= verify_exponential_bound(report, q, report.error_trace[0])

        u_star = report.fixed_point
        for eps in (1e-3, 1e-6):
            e0 = float(np.linalg.norm(u0 - u_star))
            if e0 <= eps:
                continue
            steps = predict_iterations(e0, eps, q)
            u = u0
            for _ in range(steps):
                u = forward(net, u)
            predictor_ok &= float(np.linalg.norm(u - u_star)) <= eps
    _verdict(2, bound_ok and predictor_ok,
             "error traces stay under q^n and the iteration predictor is "
             "sufficient for eps in {1e-3, 1e-6}")


def test_criterion_3_transform_oracles():
    rng = np.random.default_rng(3)
    fft_ok = conv_ok = True
    n = 2
    while n <= 1024:
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = dft_naive(x)
        fft_ok &= bool(np.linalg.norm(fft(x) - ref)
                       <= 1e-9 * max(np.linalg.norm(ref), 1.0))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        direct = circular_conv_direct(a, b)
        conv_ok &= bool(np.linalg.norm(circular_conv_fft(a, b) - direct)
                        <= 1e-9 * max(np.linalg.norm(direct), 1.0))
        n *= 2

    recon_ok = parseval_ok = True
    for family, levels in (("haar", 6), ("db4", 5)):
        x = rng.normal(size=64)
        d = dwt(x, family, levels)
        recon_ok &= bool(np.linalg.norm(idwt(d) - x) <= 1e-10 * np.linalg.norm(x))
        energy = np.sum(d.approx ** 2) + sum(np.sum(b ** 2) for b in d.details)
        parseval_ok &= bool(abs(energy - np.sum(x * x)) <= 1e-9 * np.sum(x * x))
    for _ in range(20):
        x = rng.normal(size=256)
        parseval_ok &= bool(abs(np.sum(x * x) - np.sum(np.abs(fft(x)) ** 2) / 256)
                            <= 1e-9 * np.sum(x * x))

    records = scaling_study([2 ** p for p in range(10, 15)], repeats=3)
    slope_direct = loglog_slope([r.n for r in records], [r.t_direct for r in records])
    slope_fft = loglog_slope([r.n for r in records], [r.t_fft for r in records])
    slopes_ok = slope_direct >= 1.7 and slope_fft <= 1.4
    # direct/fft advantage must widen with size (checked on spaced sizes)
    ratios = [records[i].t_direct / records[i].t_fft for i in (0, 2, 4)]
    ratio_ok = ratios[0] < ratios[1] < ratios[2]

    ok = fft_ok and conv_ok and recon_ok and parseval_ok and slopes_ok and ratio_ok
    _verdict(3, ok,
             f"fft/conv oracles and Parseval hold; runtime slopes direct "
             f"{slope_direct:.2f} (>=1.7), fft {slope_fft:.2f} (<=1.4); "
             f"direct/fft ratios {[f'{r:.1f}' for r in ratios]} (rising)")


def test_criterion_4_multiscale_dominance():
    n = 1024
    x = np.arange(n) / n
    rng = np.random.default_rng(4)
    dominance_ok = True
    for _ in range(10):
        center = rng.uniform(0.2, 0.8)
        f = np.sin(2 * np.pi * x) + np.exp(-((x - center) ** 2) / (2 * (4.0 / n) ** 2))
        for budget in (8, 16, 32, 64):
            errs = {}
            for strategy in ("fourier", "wavelet", "combined"):
                _, rep = approximate(f, full_plan(n, budget), strategy)
                errs[strategy] = rep.l2_error
            dominance_ok &= errs["combined"] <= min(errs["fourier"],
                                                    errs["wavelet"]) + 1e-12

    smooth = np.exp(np.sin(2 * np.pi * x))
    errors = np.array([e for _, e in error_vs_budget_curve(
        smooth, [4, 8, 16, 32], "fourier")])
    log_linear_ok = bool(np.all(errors[1:] <= errors[:-1] * np.exp(-1.0)))

    ks = np.arange(1, 65, dtype=float)
    decay_ok = (abs(decay_exponent(1.0 / ks) - 1.0) <= 0.05
                and abs(decay_exponent(1.0 / ks ** 2) - 2.0) <= 0.05)

    ok = dominance_ok and log_linear_ok and decay_ok
    _verdict(4, ok,
             "combined basis dominates at every budget, smooth-signal error "
             "decays log-linearly, planted decay exponents recovered")


def test_criterion_5_capacity_bounds():
    sweep_ok = True
    for width in range(1, 7):
        for depth in range(1, 5):
            bound = montufar_lower_bound(1, width, depth)
            for seed in range(10):
                net = perturbed_net(sawtooth_net_1d(width, depth), 1e-6, seed)
                count = count_regions_1d(net, (0.0, 1.0)).count
                sweep_ok &= count >= bound

    w = np.array([[1.0, 0.3], [-0.4, 1.0], [0.8, -1.1]])
    b = np.array([-0.55, -0.35, 0.12])
    net2d = OperatorNet((DenseLayer(w, b, RELU),
                         DenseLayer(np.ones((1, 3)), np.zeros(1), IDENTITY)))
    counts = [count_regions_grid(net2d, ((0, 1), (0, 1)), m).count
              for m in (64, 128, 256, 512)]
    arrangement = 1 + 3 + 3
    grid_ok = (abs(counts[-1] - arrangement) <= 1
               and all(a <= b_ for a, b_ in zip(counts, counts[1:])))

    ok = sweep_ok and grid_ok
    _verdict(5, ok,
             "exact 1-d counts meet the capacity bound over the sweep; 2-d "
             f"grid estimate reaches {counts[-1]} vs arrangement {arrangement}")


def test_criterion_6_training_and_regularization():
    # gradients vs central finite differences
    grad_ok = True
    for seed in range(10):
        rng = np.random.default_rng(600 + seed)
        n = 8
        layers = [
            DenseLayer(rng.normal(size=(n, n)) / 3, rng.normal(size=n), TANH),
        ]
        if seed % 2:
            filt = (rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)) / 3
            layers.append(SpectralLayer(rng.normal(size=(n, n)) / 3, filt, SIGMOID))
        layers.append(DenseLayer(rng.normal(size=(n, n)) / 3, np.zeros(n), IDENTITY))
        net = OperatorNet(tuple(layers))
        batch = (rng.normal(size=(4, n)), rng.normal(size=(4, n)))
        lam = 1e-3 if seed % 3 else 0.0
        g = grads_to_vector(net, grad(net, batch, lam))
        p0 = params_to_vector(net)
        fd = np.empty_like(p0)
        h = 1e-5
        for i in range(p0.size):
            pp, pm = p0.copy(), p0.copy()
            pp[i] += h
            pm[i] -= h
            fd[i] = (loss_total(vector_to_net(net, pp), batch, lam)
                     - loss_total(vector_to_net(net, pm), batch, lam)) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-6)
        grad_ok &= float(np.max(np.abs(g - fd) / denom)) <= 1e-4

    # inverted dropout expectation within 1%
    rng = np.random.default_rng(61)
    h = rng.normal(size=16) + 2.0
    dropout_ok = True
    for p in (0.1, 0.5):
        masks = (rng.random((100000, 16)) >= p) / (1.0 - p)
        mean = (masks * h).mean(axis=0)
        dropout_ok &= bool(np.max(np.abs(mean - h) / np.abs(h)) <= 0.01)

    # paired-seed regularization experiments on the antiderivative task
    gaps = {"plain": [], "decay": [], "dropout": []}
    for seed in range(20):
        ds = make_antiderivative_dataset(seed=seed)
        for label, lam, p in (("plain", 0.0, 0.0), ("decay", 1e-3, 0.0),
                              ("dropout", 0.0, 0.2)):
            cfg = TrainConfig(epochs=300, learning_rate=0.5, lambda_wd=lam,
                              dropout_p=p, seed=seed)
            gaps[label].append(run_experiment(ds, cfg).final_gap)
    decay_wins = float(np.median(gaps["decay"])) < float(np.median(gaps["plain"]))
    dropout_wins = float(np.median(gaps["dropout"])) < float(np.median(gaps["plain"]))

    bound_gap = generalization_bound(GenBoundInput(1.0, 0.05, 100, 0.0))
    bound_ok = abs(bound_gap - 0.12238) <= 1e-4

    ok = grad_ok and dropout_ok and decay_wins and dropout_wins and bound_ok
    _verdict(6, ok,
             f"gradcheck <=1e-4, dropout mean within 1%, median gaps "
             f"(plain {np.median(gaps['plain']):.4f} > decay "
             f"{np.median(gaps['decay']):.4f}, dropout "
             f"{np.median(gaps['dropout']):.4f}), bound gap {bound_gap:.5f}")


def test_criterion_7_amdahl_validation():
    exact_ok = all(amdahl_speedup(AmdahlModel(1.0, n)) == float(n)
                   for n in (1, 2, 4, 32, 1000))
    value_ok = abs(amdahl_speedup(AmdahlModel(0.9, 10)) - 5.2632) <= 1e-4

    rng = np.random.default_rng(7)
    batch = rng.normal(size=(96, 4096))
    filt = rng.normal(size=4096)
    records = bench_batched_conv(batch, filt, [1, 2, 4], repeats=7)
    speedups = [r.speedup_measured for r in records]
    monotone_ok = all(a <= b + 1e-12 for a, b in zip(speedups, speedups[1:]))
    fit_ok = all(
        abs(r.speedup_predicted - r.speedup_measured) <= 0.3 * r.speedup_measured
        for r in records
    )
    # bit-identity across worker counts is enforced inside the harness
    # (WorkerResultMismatch would have been raised otherwise)

    ok = exact_ok and value_ok and monotone_ok and fit_ok
    broken = [name for name, part_ok in (("model values", exact_ok and value_ok),
                                         ("monotonicity", monotone_ok),
                                         ("Amdahl fit", fit_ok)) if not part_ok]
    _verdict(7, ok,
             f"model values exact; measured speedups {[f'{s:.2f}' for s in speedups]} "
             "monotone, bit-identical outputs, Amdahl fit within 30%"
             + (f"; failed: {', '.join(broken)}" if broken else ""))


def test_criterion_8_stability_envelope():
    ok = True
    worst_eq = 0.0
    for seed in range(20):
        rng = np.random.default_rng(800 + seed)
        net, n = _random_net(seed)
        cert = certify_lipschitz(net)
        for _ in range(100):
            u = rng.normal(size=n) * 10 ** rng.uniform(-2, 2)
            lhs, rhs = stability_envelope(net, u, cert)
            ok &= lhs <= rhs + 1e-9
        lhs0, rhs0 = stability_envelope(net, np.zeros(n), cert)
        worst_eq = max(worst_eq, abs(lhs0 - rhs0))
    ok = ok and worst_eq <= 1e-12
    _verdict(8, ok,
             f"envelope holds on 20 nets x 100 inputs; worst |lhs-rhs| at "
             f"u=0 is {worst_eq:.2e}")
