from functools import partial

import numpy as np
import pytest

from conftest import random_mixed_net
from opcert.errors import TrainingDiverged
from opcert.operator_net import (
    IDENTITY,
    TANH,
    DenseLayer,
    OperatorNet,
    SpectralLayer,
    certify_lipschitz,
)
from opcert.training import (
    GenBoundInput,
    TrainConfig,
    apply_dropout,
    generalization_bound,
    grad,
    grads_to_vector,
    loss_total,
    make_antiderivative_dataset,
    params_to_vector,
    run_experiment,
    vector_to_net,
    weight_penalty,
)


def test_loss_reduces_to_data_term_without_decay(rng):
    net = random_mixed_net(rng, 16)
    x = rng.normal(size=(8, 16))
    y = rng.normal(size=(8, 16))
    from opcert.operator_net import forward_batch
    expected = float(np.mean((forward_batch(net, x) - y) ** 2))
    assert loss_total(net, (x, y), 0.0) == pytest.approx(expected, abs=1e-15)


def test_loss_on_perfect_fit_is_pure_penalty(rng):
    net = OperatorNet((DenseLayer(np.eye(4), np.zeros(4), IDENTITY),))
    x = rng.normal(size=(5, 4))
    lam = 0.01
    assert loss_total(net, (x, x.copy()), lam) == pytest.approx(lam * 4.0, abs=1e-14)


def test_loss_matches_two_term_oracle(rng):
    net = random_mixed_net(rng, 16)
    x = rng.normal(size=(6, 16))
    y = rng.normal(size=(6, 16))
    lam = 3e-3
    from opcert.operator_net import forward_batch
    data = float(np.mean((forward_batch(net, x) - y) ** 2))
    penalty = sum(
        float(np.sum(l.weight ** 2)) for l in net.layers if hasattr(l, "weight")
    )
    assert loss_total(net, (x, y), lam) == pytest.approx(data + lam * penalty, rel=1e-12)


def _short_filter_net(rng):
    # Filter length 3 < 8 // 2 + 1, so the filter has no Nyquist term.
    filt = (rng.normal(size=3) + 1j * rng.normal(size=3)) / 3
    return OperatorNet((
        SpectralLayer(rng.normal(size=(8, 8)) / 4, filt, TANH),
        DenseLayer(rng.normal(size=(8, 8)) / 3, rng.normal(size=8), IDENTITY),
    ))


def test_gradients_match_central_finite_differences():
    h = 1e-5
    cases = [(seed, partial(random_mixed_net, n=8, depth=2 + seed % 2)) for seed in range(10)]
    # seed 11 gives depth 3, so its last layer is a db4 wavelet-gain layer
    cases += [(11, partial(random_mixed_net, n=8, depth=3, family="db4")),
              (12, _short_filter_net)]
    for seed, make_net in cases:
        rng = np.random.default_rng(seed)
        net = make_net(rng)
        batch = (rng.normal(size=(4, 8)), rng.normal(size=(4, 8)))
        lam = 1e-3 if seed % 2 else 0.0
        g = grads_to_vector(net, grad(net, batch, lam))
        p0 = params_to_vector(net)
        fd = np.empty_like(p0)
        for i in range(p0.size):
            pp, pm = p0.copy(), p0.copy()
            pp[i] += h
            pm[i] -= h
            fd[i] = (loss_total(vector_to_net(net, pp), batch, lam)
                     - loss_total(vector_to_net(net, pm), batch, lam)) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-6)
        assert np.max(np.abs(g - fd) / denom) <= 1e-4, seed


def test_zero_residual_zero_decay_gives_zero_gradient(rng):
    net = OperatorNet((DenseLayer(np.eye(4), np.zeros(4), IDENTITY),))
    x = rng.normal(size=(5, 4))
    g = grad(net, (x, x.copy()), 0.0)
    assert np.allclose(g[0]["weight"], 0.0, atol=1e-12)
    assert np.allclose(g[0]["bias"], 0.0, atol=1e-12)


def test_zero_residual_decay_gradient_is_2_lambda_w(rng):
    w = np.diag([1.0, -2.0, 0.5])
    net = OperatorNet((DenseLayer(w, np.zeros(3), IDENTITY),))
    x = rng.normal(size=(6, 3))
    y = x @ w.T
    lam = 0.37
    g = grad(net, (x, y), lam)
    assert np.allclose(g[0]["weight"], 2 * lam * w, atol=1e-12)


def test_dropout_p_zero_is_identity(rng):
    h = rng.normal(size=32)
    out, mask = apply_dropout(h, 0.0, rng)
    assert np.array_equal(out, h)
    assert np.all(mask == 1.0)


def test_dropout_expectation_matches_input():
    rng = np.random.default_rng(0)
    h = rng.normal(size=16) + 2.0
    for p in (0.1, 0.5):
        draws = np.array([apply_dropout(h, p, rng)[0] for _ in range(100000)])
        mean = draws.mean(axis=0)
        assert np.max(np.abs(mean - h) / np.abs(h)) <= 0.01, p


def test_dropout_reproducible_for_fixed_seed():
    h = np.arange(1.0, 9.0)
    a = apply_dropout(h, 0.5, np.random.default_rng(42))
    b = apply_dropout(h, 0.5, np.random.default_rng(42))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_dropout_rejects_bad_p(rng):
    with pytest.raises(ValueError):
        apply_dropout(np.ones(4), 1.0, rng)
    with pytest.raises(ValueError):
        apply_dropout(np.ones(4), -0.1, rng)


def test_generalization_bound_values():
    assert generalization_bound(GenBoundInput(1.0, np.exp(-2.0), 1, 0.5)) \
        == pytest.approx(1.5, abs=1e-12)
    assert generalization_bound(GenBoundInput(0.0, 0.1, 10, 0.3)) == pytest.approx(0.3)
    gap = generalization_bound(GenBoundInput(1.0, 0.05, 100, 0.0))
    assert gap == pytest.approx(0.12238734153404082, abs=1e-9)


def test_generalization_bound_monotonicity():
    base = GenBoundInput(1.0, 0.1, 100, 0.0)
    b0 = generalization_bound(base)
    assert generalization_bound(GenBoundInput(2.0, 0.1, 100, 0.0)) > b0
    assert generalization_bound(GenBoundInput(1.0, 0.01, 100, 0.0)) > b0
    assert generalization_bound(GenBoundInput(1.0, 0.1, 400, 0.0)) < b0


def test_weight_decay_pull_shrinks_weights(rng):
    w = np.diag([1.0, -2.0])
    net = OperatorNet((DenseLayer(w, np.zeros(2), IDENTITY),))
    x = rng.normal(size=(8, 2))
    y = x @ w.T  # zero data gradient
    lam = 0.1
    g = grad(net, (x, y), lam)
    stepped = w - 0.1 * g[0]["weight"]
    assert np.linalg.norm(stepped, "fro") < np.linalg.norm(w, "fro")
    assert weight_penalty(OperatorNet((DenseLayer(stepped, np.zeros(2), IDENTITY),))) \
        < weight_penalty(net)


def test_dataset_antiderivative_is_closed_form():
    ds = make_antiderivative_dataset(n_grid=64, n_train=4, n_test=4,
                                     noise_std=0.0, seed=1)
    # targets must differentiate back to the inputs (spectral differentiation)
    from opcert.transforms import fft, inverse_fft
    k = np.fft.fftfreq(64, d=1.0 / 64)
    for u, v in zip(ds.train_x, ds.train_y):
        dv = inverse_fft(fft(v) * (2j * np.pi * k)).real
        assert np.linalg.norm(dv - u) <= 1e-8 * np.linalg.norm(u)


def test_experiment_curves_have_epoch_entries():
    ds = make_antiderivative_dataset(n_train=30, n_test=30, seed=0)
    cfg = TrainConfig(epochs=7, learning_rate=0.3, seed=0)
    report = run_experiment(ds, cfg)
    assert len(report.train_loss_curve) == 7
    assert len(report.test_loss_curve) == 7
    assert report.final_gap == pytest.approx(
        report.test_loss_curve[-1] - report.train_loss_curve[-1])


def test_experiment_reproducible_for_fixed_seed():
    ds = make_antiderivative_dataset(n_train=20, n_test=20, seed=3)
    cfg = TrainConfig(epochs=5, learning_rate=0.3, dropout_p=0.2, batch_size=8, seed=3)
    a = run_experiment(ds, cfg)
    b = run_experiment(ds, cfg)
    assert np.array_equal(a.train_loss_curve, b.train_loss_curve)
    assert np.array_equal(a.test_loss_curve, b.test_loss_curve)


def test_experiment_training_actually_learns():
    ds = make_antiderivative_dataset(n_train=100, n_test=100, noise_std=0.0, seed=0)
    cfg = TrainConfig(epochs=60, learning_rate=0.5, seed=0)
    report = run_experiment(ds, cfg)
    assert report.train_loss_curve[-1] < 0.1 * report.train_loss_curve[0]


def test_renormalization_keeps_bound_capped():
    ds = make_antiderivative_dataset(n_grid=16, n_train=20, n_test=20, seed=0)
    cfg = TrainConfig(epochs=5, learning_rate=0.3, seed=0, renormalize_q=0.9)
    report = run_experiment(ds, cfg)
    assert report.cert_bounds is not None
    assert np.all(report.cert_bounds <= 0.9 + 1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_partial_report():
    ds = make_antiderivative_dataset(n_grid=16, n_train=20, n_test=20, seed=0)
    cfg = TrainConfig(epochs=50, learning_rate=1e9, seed=0)
    with pytest.raises(TrainingDiverged) as exc:
        run_experiment(ds, cfg)
    assert exc.value.partial_report is not None


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lambda_wd=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(dropout_p=1.0)
