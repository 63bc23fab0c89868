"""Gradient training with weight decay and inverted dropout.

The objective is mean squared error plus ``lambda_wd * sum_i ||W_i||_F^2``
over the weight matrices (never the biases, frequency filters, or wavelet
gains), so the decay term contributes ``2 * lambda_wd * W`` to each weight
gradient.  Dropout masks hidden activations during training and rescales by
``1/(1-p)`` so expected activations match the deterministic forward pass;
inference is untouched.

Runs are bitwise reproducible for a fixed seed: every random draw flows
from the config seed through one ``numpy`` generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDiverged
from .operator_net import (
    IDENTITY,
    TANH,
    DenseLayer,
    OperatorNet,
    certify_lipschitz,
    forward_batch,
    normalize_to_contraction,
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 0.05
    lambda_wd: float = 0.0
    dropout_p: float = 0.0
    batch_size: int = 0  # 0 or >= n_train means full batch
    seed: int = 0
    renormalize_q: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.lambda_wd < 0:
            raise ValueError("lambda_wd must be >= 0")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must lie in [0, 1)")


@dataclass(frozen=True)
class GenBoundInput:
    lipschitz_L: float
    delta: float
    n_samples: int
    empirical_risk: float

    def __post_init__(self):
        if self.lipschitz_L < 0 or self.empirical_risk < 0:
            raise ValueError("lipschitz_L and empirical_risk must be >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass(frozen=True)
class TrainReport:
    train_loss_curve: np.ndarray
    test_loss_curve: np.ndarray
    final_gap: float
    cert_bounds: np.ndarray | None = None


@dataclass(frozen=True)
class OperatorDataset:
    """Input/target grid-function pairs, already split train/test."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    name: str = "dataset"

    @property
    def grid_size(self) -> int:
        return self.train_x.shape[1]


def make_antiderivative_dataset(n_grid=64, n_train=200, n_test=200, max_mode=4,
                                noise_std=0.1, seed=0) -> OperatorDataset:
    """Learnable task: zero-mean antiderivative of random low-mode sinusoids.

    Inputs are sums of modes 1..max_mode with seeded Gaussian amplitudes;
    targets come from the closed-form antiderivative plus Gaussian
    observation noise (``noise_std``) on both splits.  The train/test gap
    then measures how much observation noise the model memorizes.
    """
    rng = np.random.default_rng(seed)
    x = np.arange(n_grid) / n_grid

    def draw(count):
        u = np.zeros((count, n_grid))
        v = np.zeros((count, n_grid))
        for k in range(1, max_mode + 1):
            a = rng.normal(size=(count, 1)) / k
            b = rng.normal(size=(count, 1)) / k
            c, s = np.cos(2 * np.pi * k * x), np.sin(2 * np.pi * k * x)
            u += a * c + b * s
            v += (a * s - b * c) / (2 * np.pi * k)
        if noise_std > 0:
            v = v + noise_std * rng.normal(size=v.shape)
        return u, v

    train_x, train_y = draw(n_train)
    test_x, test_y = draw(n_test)
    return OperatorDataset(train_x, train_y, test_x, test_y, "antiderivative")


def default_net(n_grid: int, width: int | None = None, seed: int = 0) -> OperatorNet:
    """Two dense layers (tanh then identity) with seeded Gaussian init."""
    width = n_grid if width is None else width
    rng = np.random.default_rng(seed)
    w1 = rng.normal(size=(width, n_grid)) / np.sqrt(n_grid)
    w2 = rng.normal(size=(n_grid, width)) / np.sqrt(width)
    return OperatorNet((
        DenseLayer(w1, np.zeros(width), TANH),
        DenseLayer(w2, np.zeros(n_grid), IDENTITY),
    ))


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    diff = pred - target
    return float(np.mean(diff * diff))


def weight_penalty(net: OperatorNet) -> float:
    """Sum of squared Frobenius norms of the weight matrices."""
    total = 0.0
    for layer in net.layers:
        w = getattr(layer, "weight", None)
        if w is not None:
            total += float(np.sum(w * w))
    return total


def loss_total(net: OperatorNet, batch, lambda_wd: float) -> float:
    """Data MSE plus the weight-decay penalty."""
    x, y = batch
    if len(x) == 0:
        raise ValueError("batch must be nonempty")
    return mse(forward_batch(net, x), y) + lambda_wd * weight_penalty(net)


def apply_dropout(h, p: float, rng: np.random.Generator):
    """Inverted dropout: zero entries w.p. p, scale survivors by 1/(1-p).

    Returns ``(output, mask)``; the expectation of the output equals ``h``
    exactly.  Training-mode only -- inference uses the plain forward pass.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must lie in [0, 1)")
    h = np.asarray(h, dtype=np.float64)
    if p == 0.0:
        return h.copy(), np.ones_like(h)
    mask = (rng.random(h.shape) >= p).astype(float)
    return h * mask / (1.0 - p), mask


def _forward_backward(net, x, y, lambda_wd, dropout_p=0.0, rng=None):
    """Loss and per-layer parameter gradients; dropout masks hidden layers."""
    batch, n_out = x.shape[0], y.shape[1]
    activations = [x]
    preacts = []
    masks = []
    h = x
    for i, layer in enumerate(net.layers):
        z = layer.preactivation(h)
        h = layer.activation(z)
        if dropout_p > 0.0 and i < len(net.layers) - 1:
            h, mask = apply_dropout(h, dropout_p, rng)
            masks.append(mask / (1.0 - dropout_p))
        else:
            masks.append(None)
        preacts.append(z)
        activations.append(h)

    resid = activations[-1] - y
    loss = float(np.mean(resid * resid)) + lambda_wd * weight_penalty(net)

    grad_h = 2.0 * resid / (batch * n_out)
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if masks[i] is not None:
            grad_h = grad_h * masks[i]
        delta = grad_h * layer.activation.derivative(preacts[i])
        grad_h, layer_grads = layer.backward_linear(activations[i], delta)
        if lambda_wd > 0.0 and "weight" in layer_grads:
            layer_grads["weight"] = layer_grads["weight"] + 2.0 * lambda_wd * layer.weight
        grads[i] = layer_grads
    return loss, grads


def grad(net: OperatorNet, batch, lambda_wd: float):
    """Reverse-mode gradients of ``loss_total`` for every layer parameter."""
    x, y = batch
    if len(x) == 0:
        raise ValueError("batch must be nonempty")
    _, grads = _forward_backward(net, np.asarray(x, dtype=float),
                                 np.asarray(y, dtype=float), lambda_wd)
    return grads


def generalization_bound(inp: GenBoundInput) -> float:
    """empirical_risk + L * sqrt(ln(1/delta) / (2 N))."""
    return inp.empirical_risk + inp.lipschitz_L * math.sqrt(
        math.log(1.0 / inp.delta) / (2.0 * inp.n_samples)
    )


def run_experiment(dataset: OperatorDataset, cfg: TrainConfig,
                   net: OperatorNet | None = None) -> TrainReport:
    """Mini-batch gradient descent; records per-epoch train/test data loss.

    With ``renormalize_q`` set, the contraction projection is re-applied
    after every parameter update and the certificate bound is recorded per
    epoch.  Raises ``TrainingDiverged`` (with the partial report) if the
    loss stops being finite.
    """
    rng = np.random.default_rng(cfg.seed)
    if net is None:
        net = default_net(dataset.grid_size, seed=cfg.seed)
    if cfg.renormalize_q is not None:
        net = normalize_to_contraction(net, cfg.renormalize_q)

    n_train = dataset.train_x.shape[0]
    bs = cfg.batch_size if 0 < cfg.batch_size < n_train else n_train
    train_curve, test_curve, bounds = [], [], []

    def record():
        train_curve.append(mse(forward_batch(net, dataset.train_x), dataset.train_y))
        test_curve.append(mse(forward_batch(net, dataset.test_x), dataset.test_y))
        if cfg.renormalize_q is not None:
            bounds.append(certify_lipschitz(net).bound)

    for _ in range(cfg.epochs):
        order = rng.permutation(n_train) if bs < n_train else np.arange(n_train)
        for start in range(0, n_train, bs):
            idx = order[start:start + bs]
            loss, grads = _forward_backward(
                net, dataset.train_x[idx], dataset.train_y[idx],
                cfg.lambda_wd, cfg.dropout_p, rng,
            )
            if not math.isfinite(loss):
                report = _partial_report(train_curve, test_curve, bounds, cfg)
                raise TrainingDiverged("training loss is not finite", report)
            new_params = []
            for layer, g in zip(net.layers, grads):
                p = layer.params()
                new_params.append({k: p[k] - cfg.learning_rate * g[k] for k in p})
            net = net.with_layer_params(new_params)
            if cfg.renormalize_q is not None:
                net = normalize_to_contraction(net, cfg.renormalize_q)
        record()

    report = TrainReport(
        train_loss_curve=np.array(train_curve),
        test_loss_curve=np.array(test_curve),
        final_gap=float(test_curve[-1] - train_curve[-1]),
        cert_bounds=np.array(bounds) if bounds else None,
    )
    if not (math.isfinite(report.train_loss_curve[-1])
            and math.isfinite(report.test_loss_curve[-1])):
        raise TrainingDiverged("training loss is not finite", report)
    return report


def _partial_report(train_curve, test_curve, bounds, cfg):
    gap = (test_curve[-1] - train_curve[-1]) if train_curve else float("nan")
    return TrainReport(
        train_loss_curve=np.array(train_curve),
        test_loss_curve=np.array(test_curve),
        final_gap=float(gap),
        cert_bounds=np.array(bounds) if bounds else None,
    )
