"""The benchmark's three workloads, each driven through opcert's public API.

A workload turns ``(seed, i)`` into the inputs of op ``i`` (``case``), runs
one op (``run``, the only timed call), checks the op's outputs against an
independent oracle (``check``), and collects the samples behind its
``cert_ratio`` (``note``).  Everything but ``run`` happens outside the timed
window.  Op ``i`` of a run with seed ``s`` uses seed ``s + i``.  A run with
``--seconds t`` has ``round(OPS_PER_SECOND * t)`` distinct ops.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np
from opcert import fixed_point, multiscale, operator_net, training, transforms


def sampled_lipschitz(net, inputs, rng) -> float:
    """Largest quotient ||G(u) - G(v)|| / ||u - v|| over seeded pairs.

    Each ``u`` is paired with a perturbation of it at a log-uniform scale,
    so both local and long-range quotients are sampled.
    """
    u = np.asarray(inputs, dtype=np.float64)
    scale = 10.0 ** rng.uniform(-3.0, 0.0, size=(u.shape[0], 1))
    step = rng.normal(size=u.shape)
    step *= scale * np.linalg.norm(u, axis=1, keepdims=True) / np.linalg.norm(
        step, axis=1, keepdims=True)
    v = u + step
    gu = operator_net.forward_batch(net, u)
    gv = operator_net.forward_batch(net, v)
    return float(np.max(np.linalg.norm(gu - gv, axis=1) / np.linalg.norm(u - v, axis=1)))


def linear_map_norm(layer, n: int) -> float:
    """Dense-SVD norm of the linear part of a layer, read off its action."""
    matrix = layer.preactivation(np.eye(n)) - layer.preactivation(np.zeros((1, n)))
    return float(np.linalg.norm(matrix, 2))


class Workload:
    name = ""
    # Prefixes of the failures that are known defects of the seed library.
    # Power iteration, its norm routine, raises ConvergenceError or returns
    # below the top singular value when the top two nearly coincide.  The
    # near-degenerate nets provoke this; a Gaussian draw or a training step
    # occasionally does too.  Such failures count, but leave ``correct`` true.
    KNOWN_DEFECTS: tuple[str, ...] = ()
    # Matrix size of the yardstick that scales this workload's times.
    YARDSTICK_N = 64
    # Distinct ops per second of --seconds: just under the seed commit's
    # rate at nominal speed, so that on that code one pass over them fills
    # nearly the whole run and each run samples as many inputs as it can.
    OPS_PER_SECOND: float

    def __init__(self):
        self.samples: list = []

    def expected_failure(self, problems) -> bool:
        return all(p.startswith(self.KNOWN_DEFECTS) for p in problems)

    def fixed_point_report(self, out):
        return None

    def cert_ratio(self) -> float:
        return statistics.median(self.samples)

    def summary_lines(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# train_renorm


@dataclass(frozen=True)
class TrainCase:
    dataset: training.OperatorDataset
    cfg: training.TrainConfig
    kind: str = "default_net"


class TrainRenorm(Workload):
    """``opcert train`` with renormalization: the CLI's default 2-layer net."""

    name = "train_renorm"
    KNOWN_DEFECTS = ("raised ConvergenceError",)
    OPS_PER_SECOND = 21.0
    Q = 0.9
    PAIRS = 32

    def __init__(self):
        super().__init__()
        self._trained = None
        # run_experiment returns no network.  Its last certify_lipschitz call
        # is on the trained net, so keep a reference to that argument.
        certify = training.certify_lipschitz

        def keep_net(net, *args, **kwargs):
            self._trained = net
            return certify(net, *args, **kwargs)

        training.certify_lipschitz = keep_net

    def case(self, seed, i):
        dataset = training.make_antiderivative_dataset(
            n_grid=64, n_train=200, n_test=200, seed=seed)
        # One epoch (10 steps) per op: op cost is heavy-tailed across seeds
        # (power iteration on random spectra), so a steady run needs hundreds
        # of ops; 100-epoch ops gave four per run.
        cfg = training.TrainConfig(epochs=1, learning_rate=0.5, lambda_wd=1e-3,
                                   batch_size=20, seed=seed, renormalize_q=self.Q)
        return TrainCase(dataset, cfg)

    def run(self, case):
        self._trained = None
        return training.run_experiment(case.dataset, case.cfg)

    def check(self, case, report):
        problems = []
        curves = np.concatenate([report.train_loss_curve, report.test_loss_curve])
        if not np.all(np.isfinite(curves)):
            problems.append("non-finite loss")
        bounds = report.cert_bounds
        if bounds is None or len(bounds) != case.cfg.epochs:
            problems.append("missing certificate bounds")
        elif np.max(bounds) > self.Q:
            problems.append(f"certified bound {np.max(bounds)!r} above q={self.Q}")
        return problems

    def note(self, case, report):
        rng = np.random.default_rng([case.cfg.seed, 1])
        quotient = sampled_lipschitz(self._trained, case.dataset.test_x[:self.PAIRS], rng)
        self.samples.append(report.cert_bounds[-1] / quotient)


# ---------------------------------------------------------------------------
# fixpoint_solve


@dataclass(frozen=True)
class FixpointCase:
    seed: int
    net: operator_net.OperatorNet
    u0: np.ndarray
    kind: str


@dataclass(frozen=True)
class Solve:
    net: operator_net.OperatorNet
    cert: operator_net.ContractionCertificate
    report: fixed_point.FixedPointReport


_GOLDEN = (5 ** 0.5 - 1) / 2


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


class FixpointSolve(Workload):
    """``opcert fixpoint`` on a Spectral -> WaveletGain -> Dense tanh net."""

    name = "fixpoint_solve"
    KNOWN_DEFECTS = ("raised ConvergenceError", "undercertified DenseLayer")
    YARDSTICK_N = 256
    OPS_PER_SECOND = 13.0
    N = 256
    Q = 0.95
    EPS = 1e-10
    MAX_ITER = 10000
    PAIRS = 64
    # Rotation of the dense layer's spectrum over i mod 8.
    KINDS = ("gaussian", "dominant", "gaussian", "dominant",
             "gaussian", "dominant", "gaussian", "near_degenerate")
    # ||G(u*) - u*|| allowed, relative to max(1, ||u*||).
    RESIDUAL_TOL = 1e-9

    def case(self, seed, i):
        n = self.N
        rng = np.random.default_rng(seed)
        # Each layer's certified norm sits just inside the per-layer cap, so
        # any sound certificate leaves the operator unchanged.
        target = self.Q ** (1.0 / 3.0) * (1.0 - 1e-6)

        w = rng.normal(size=(n, n))
        w *= 0.6 * target / np.linalg.svd(w, compute_uv=False)[0]
        filt = rng.normal(size=n // 4) + 1j * rng.normal(size=n // 4)
        filt *= 0.4 * target / np.max(np.abs(filt))
        spectral = operator_net.SpectralLayer(w, filt, operator_net.TANH)

        gains = rng.uniform(0.3, 1.0, size=4)
        gains *= target / np.max(gains)
        wavelet = operator_net.WaveletGainLayer(gains, "db4", operator_net.TANH)

        kind = self.KINDS[i % len(self.KINDS)]
        if kind == "gaussian":
            d = rng.normal(size=(n, n))
        else:
            if kind == "dominant":
                s = np.concatenate([[1.0], rng.uniform(0.0, 0.3, n - 1)])
            else:
                # Log-uniform in [1e-8, 1e-3] across op seeds, on a golden-ratio
                # sequence so that every run samples the whole range evenly.
                delta = 10.0 ** (-8.0 + 5.0 * ((seed * _GOLDEN) % 1.0))
                s = np.concatenate([[1.0, 1.0 - delta], rng.uniform(0.0, 0.9, n - 2)])
            d = (_orthogonal(rng, n) * s) @ _orthogonal(rng, n).T
        d *= target / np.linalg.svd(d, compute_uv=False)[0]
        dense = operator_net.DenseLayer(d, 0.1 * rng.normal(size=n), operator_net.TANH)

        net = operator_net.OperatorNet((spectral, wavelet, dense))
        return FixpointCase(seed, net, rng.normal(size=n), kind)

    def run(self, case):
        net = operator_net.normalize_to_contraction(case.net, self.Q)
        cert = operator_net.certify_lipschitz(net, target_q=self.Q)
        report = fixed_point.iterate_to_fixed_point(net, case.u0, self.EPS,
                                                    self.MAX_ITER, cert)
        return Solve(net, cert, report)

    def check(self, case, out):
        report, cert = out.report, out.cert
        problems = []
        if not fixed_point.verify_exponential_bound(report, cert.bound,
                                                    report.error_trace[0]):
            problems.append("exponential bound violated")
        u = report.fixed_point
        residual = np.linalg.norm(operator_net.forward(out.net, u) - u)
        if residual > self.RESIDUAL_TOL * max(1.0, np.linalg.norm(u)):
            problems.append(f"residual {residual!r}")
        if report.iterations_run > report.predicted_n:
            problems.append(f"{report.iterations_run} iterations > predicted "
                            f"{report.predicted_n}")
        for layer, certified in zip(out.net.layers, cert.per_layer_lipschitz):
            oracle = linear_map_norm(layer, self.N)
            if certified < oracle * (1.0 - 1e-9):
                problems.append(f"undercertified {type(layer).__name__}: "
                                f"{certified!r} < SVD {oracle!r}")
        return problems

    def fixed_point_report(self, out):
        return out.report

    def note(self, case, out):
        rng = np.random.default_rng([case.seed, 1])
        starts = np.vstack([case.u0, rng.normal(size=(self.PAIRS - 1, self.N))])
        self.samples.append(out.cert.bound / sampled_lipschitz(out.net, starts, rng))


# ---------------------------------------------------------------------------
# approx_study


@dataclass(frozen=True)
class ApproxCase:
    signal: np.ndarray
    kind: str
    budget: int


class ApproxStudy(Workload):
    """One row triple of ``opcert approx``: all strategies at one budget."""

    name = "approx_study"
    OPS_PER_SECOND = 15.0
    N = 1024
    BUDGETS = (16, 64, 256)
    FAMILY = "haar"

    def __init__(self):
        super().__init__()
        self.combined_ms: dict[int, list[float]] = {b: [] for b in self.BUDGETS}

    def case(self, seed, i):
        n = self.N
        x = np.arange(n) / n
        if i % 2 == 0:
            center = np.random.default_rng(seed).uniform(0.2, 0.8)
            spike = np.exp(-((x - center) ** 2) / (2 * (4.0 / n) ** 2))
            signal, kind = np.sin(2 * np.pi * x) + spike, "smooth-spike"
        else:
            signal, kind = np.where(x < 0.5, 1.0, -1.0), "step"
        return ApproxCase(signal, kind, self.BUDGETS[i % len(self.BUDGETS)])

    def run(self, case):
        plan = multiscale.full_plan(self.N, case.budget, self.FAMILY)
        results = {}
        for strategy in multiscale.STRATEGIES:
            start = time.perf_counter()
            recon, report = multiscale.approximate(case.signal, plan, strategy,
                                                   self.FAMILY)
            results[strategy] = (recon, report, time.perf_counter() - start)
        return results

    def check(self, case, results):
        f = case.signal
        problems = []
        err = {s: rep.l2_error for s, (_, rep, _) in results.items()}
        if err["combined"] > min(err["fourier"], err["wavelet"]) + 1e-12:
            problems.append(f"combined {err['combined']!r} above single bases {err!r}")
        for strategy, (recon, report, _) in results.items():
            oracle = float(np.linalg.norm(f - recon))
            if abs(report.l2_error - oracle) > 1e-12 * max(1.0, np.linalg.norm(f)):
                problems.append(f"{strategy} l2_error {report.l2_error!r} != {oracle!r}")
        reference = np.fft.fft(f)
        gap = np.max(np.abs(transforms.fft(f) - reference))
        if gap > 1e-9 * max(1.0, np.max(np.abs(reference))):
            problems.append(f"fft differs from numpy by {gap!r}")
        return problems

    def note(self, case, results):
        err = {s: rep.l2_error for s, (_, rep, _) in results.items()}
        self.samples.append((err["combined"], min(err["fourier"], err["wavelet"])))
        self.combined_ms[case.budget].append(results["combined"][2] * 1e3)

    def cert_ratio(self) -> float:
        # Combined error over its guaranteed ceiling, the best single basis,
        # pooled over ops: step signals reach ~1e-14 error at larger budgets,
        # where per-op ratios are rounding noise.
        return math.fsum(c for c, _ in self.samples) / math.fsum(b for _, b in self.samples)

    def summary_lines(self):
        return [f"combined p50 at N={self.N}, budget {b}: wall "
                f"{statistics.median(ms):.2f} ms (n={len(ms)})"
                for b, ms in self.combined_ms.items() if ms]


WORKLOADS = {w.name: w for w in (TrainRenorm, FixpointSolve, ApproxStudy)}
