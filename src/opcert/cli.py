"""Command-line entry point: certify, fixpoint, approx, regions, train, amdahl, bench.

Every run writes header-first CSV files plus a single ``manifest.json``
(resolved configuration, package and interpreter versions, timestamp) into
the output directory.  Exit codes: 0 success, 1 invalid input or
configuration, 2 numerical or convergence failure.  The invariant checks
against independent oracles live in the test suite;
``pytest tests/test_acceptance.py -s`` prints one verdict per criterion.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    FixedPointDivergence,
    RegionBudgetExceeded,
    TrainingDiverged,
    WorkerResultMismatch,
)
from . import multiscale, training
from .capacity import (
    count_regions_1d,
    montufar_lower_bound,
    perturbed_net,
    sawtooth_net_1d,
)
from .fixed_point import iterate_to_fixed_point, verify_exponential_bound
from .operator_net import (
    LAYER_VARIANTS,
    certify_lipschitz,
    load_net,
    normalize_to_contraction,
)
from .parallel_bench import (
    AmdahlModel,
    amdahl_limit,
    amdahl_speedup,
    bench_batched_conv,
    loglog_slope,
    scaling_study,
)
from .training import TrainConfig, make_antiderivative_dataset, run_experiment

_NUMERICAL_ERRORS = (
    FixedPointDivergence,
    TrainingDiverged,
    RegionBudgetExceeded,
    WorkerResultMismatch,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(out_dir, command, config, seed):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def _int_list(text):
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from exc


def _make_signal(kind, n, seed):
    x = np.arange(n) / n
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        return np.exp(np.sin(2 * np.pi * x))
    if kind == "step":
        return np.where(x < 0.5, 1.0, -1.0)
    if kind == "smooth-spike":
        center = rng.uniform(0.2, 0.8)
        spike = np.exp(-((x - center) ** 2) / (2 * (4.0 / n) ** 2))
        return np.sin(2 * np.pi * x) + spike
    raise ValueError(f"unknown signal {kind!r}")


# --------------------------------------------------------------------------
# subcommands

def _cmd_certify(args, out_dir):
    net = load_net(args.net)
    cert = certify_lipschitz(net)
    rows = []
    for i, layer in enumerate(net.layers):
        rows.append((
            i,
            LAYER_VARIANTS[type(layer)],
            f"{cert.per_layer_lipschitz[i]:.17g}",
            layer.activation.kind,
            f"{cert.activation_lipschitz[i]:.17g}",
        ))
    _write_csv(os.path.join(out_dir, "certificate.csv"),
               ["layer", "variant", "lipschitz", "activation", "activation_lipschitz"],
               rows)
    for row in rows:
        print(f"layer {row[0]} ({row[1]}): lipschitz {row[2]}, "
              f"{row[3]} (L={row[4]})")
    print(f"certified bound: {cert.bound:.17g}")
    return {"bound": cert.bound}


def _write_trace(out_dir, report, q):
    e0 = report.error_trace[0]
    rows = [(n, f"{err:.17g}", f"{q ** n * e0:.17g}")
            for n, err in enumerate(report.error_trace)]
    _write_csv(os.path.join(out_dir, "trace.csv"),
               ["n", "error", "q_pow_n_bound"], rows)


def _cmd_fixpoint(args, out_dir):
    net = load_net(args.net)
    grid = net.in_dim
    if grid is None:
        raise ValueError("network has no fixed input size; cannot build a start vector")
    net = normalize_to_contraction(net, args.q)
    cert = certify_lipschitz(net, target_q=args.q)
    rng = np.random.default_rng(args.seed)
    u0 = np.zeros(grid) if args.u0 == "zeros" else rng.normal(size=grid)
    try:
        report = iterate_to_fixed_point(net, u0, args.eps, args.max_iter, cert)
    except FixedPointDivergence as exc:
        _write_trace(out_dir, exc.partial_report, cert.bound)
        raise
    _write_trace(out_dir, report, cert.bound)
    ok = verify_exponential_bound(report, cert.bound, report.error_trace[0])
    print(f"certified q: {cert.bound:.6g}")
    print(f"predicted iterations: {report.predicted_n}, actual: {report.iterations_run}")
    print(f"exponential bound holds: {ok}")
    return {
        "bound": cert.bound,
        "predicted_n": report.predicted_n,
        "iterations_run": report.iterations_run,
        "empirical_q": report.empirical_q,
    }


def _cmd_approx(args, out_dir):
    f = _make_signal(args.signal, args.n, args.seed)
    strategies = list(multiscale.STRATEGIES) if args.strategy == "all" else [args.strategy]
    budgets = _int_list(args.budgets)
    rows = []
    for strategy in strategies:
        for budget in budgets:
            plan = multiscale.full_plan(args.n, budget, args.family)
            _, report = multiscale.approximate(f, plan, strategy, args.family)
            rows.append((budget, strategy, f"{report.l2_error:.17g}",
                         f"{report.decay_exponent_fourier:.17g}"))
            print(f"budget {budget:5d} {strategy:9s} error {report.l2_error:.6e}")
    _write_csv(os.path.join(out_dir, "error_vs_budget.csv"),
               ["budget", "strategy", "l2_error", "decay_exponent"], rows)
    return {"signal": args.signal, "n": args.n}


def _cmd_regions(args, out_dir):
    rows = []
    for width in range(1, args.max_width + 1):
        for depth in range(1, args.max_depth + 1):
            base = sawtooth_net_1d(width, depth)
            bound = montufar_lower_bound(1, width, depth)
            for seed in range(args.seeds):
                net = perturbed_net(base, args.perturb, seed + args.seed)
                rc = count_regions_1d(net, (0.0, 1.0))
                rows.append((1, width, depth, seed + args.seed, rc.count, bound))
    _write_csv(os.path.join(out_dir, "regions.csv"),
               ["input_dim", "width", "depth", "seed", "count", "montufar_bound"],
               rows)
    violations = sum(1 for r in rows if r[4] < r[5])
    print(f"{len(rows)} sweep rows, {violations} below the capacity bound")
    return {"rows": len(rows), "violations": violations}


_TRAIN_CONFIG_KEYS = {
    "task": "antiderivative",
    "n_grid": 64,
    "n_train": 200,
    "n_test": 200,
    "max_mode": 4,
    "noise_std": 0.1,
    "width": None,
    "epochs": 300,
    "learning_rate": 0.5,
    "lambda_wd": 0.0,
    "dropout_p": 0.0,
    "batch_size": 0,
    "seeds": [0],
    "renormalize_q": None,
}


def _load_train_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}:1: config must be a JSON object")
    unknown = sorted(set(doc) - set(_TRAIN_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    config = dict(_TRAIN_CONFIG_KEYS)
    config.update(doc)
    if config["task"] != "antiderivative":
        raise ValueError(f"{path}: unknown task {config['task']!r}")
    return config


def _cmd_train(args, out_dir):
    config = _load_train_config(args.config)
    summary_rows = []
    for seed in config["seeds"]:
        dataset = make_antiderivative_dataset(
            n_grid=config["n_grid"], n_train=config["n_train"],
            n_test=config["n_test"], max_mode=config["max_mode"],
            noise_std=config["noise_std"], seed=seed,
        )
        cfg = TrainConfig(
            epochs=config["epochs"], learning_rate=config["learning_rate"],
            lambda_wd=config["lambda_wd"], dropout_p=config["dropout_p"],
            batch_size=config["batch_size"], seed=seed,
            renormalize_q=config["renormalize_q"],
        )
        net = None
        if config["width"] is not None:
            net = training.default_net(dataset.grid_size, config["width"], seed)
        report = run_experiment(dataset, cfg, net)
        rows = []
        for epoch in range(cfg.epochs):
            bound = ("" if report.cert_bounds is None
                     else f"{report.cert_bounds[epoch]:.17g}")
            rows.append((epoch, f"{report.train_loss_curve[epoch]:.17g}",
                         f"{report.test_loss_curve[epoch]:.17g}", bound))
        _write_csv(os.path.join(out_dir, f"train_seed{seed}.csv"),
                   ["epoch", "train_loss", "test_loss", "cert_bound"], rows)
        summary_rows.append((seed, f"{report.train_loss_curve[-1]:.17g}",
                             f"{report.test_loss_curve[-1]:.17g}",
                             f"{report.final_gap:.17g}"))
        print(f"seed {seed}: train {report.train_loss_curve[-1]:.6e} "
              f"test {report.test_loss_curve[-1]:.6e} gap {report.final_gap:+.6e}")
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["seed", "final_train_loss", "final_test_loss", "final_gap"],
               summary_rows)
    return {"config": config}


def _cmd_amdahl(args, out_dir):
    rows = []
    for w in _int_list(args.workers):
        s = amdahl_speedup(AmdahlModel(args.p, w))
        rows.append((f"{args.p:.17g}", w, f"{s:.17g}"))
        print(f"P={args.p} N={w}: speedup {s:.4f}")
    limit = amdahl_limit(args.p)
    print(f"asymptotic limit: {limit if math.isfinite(limit) else 'unbounded'}")
    _write_csv(os.path.join(out_dir, "amdahl.csv"),
               ["parallel_fraction", "workers", "speedup_predicted"], rows)
    return {"limit": None if math.isinf(limit) else limit}


def _cmd_bench(args, out_dir):
    info = {}
    if args.study in ("speedup", "both"):
        rng = np.random.default_rng(args.seed)
        batch = rng.normal(size=(args.batch, args.size))
        filt = rng.normal(size=args.size)
        records = bench_batched_conv(batch, filt, _int_list(args.workers),
                                     args.repeats)
        rows = [
            (r.workers, r.effective_workers, f"{r.wall_time:.6g}",
             f"{r.speedup_measured:.6g}", f"{r.speedup_predicted:.6g}",
             f"{r.fitted_P:.6g}")
            for r in records
        ]
        _write_csv(os.path.join(out_dir, "speedup.csv"),
                   ["workers", "effective_workers", "wall_time_s",
                    "speedup_measured", "speedup_predicted", "fitted_P"],
                   rows)
        for r in records:
            print(f"workers {r.workers} (effective {r.effective_workers}): "
                  f"{r.wall_time * 1e3:.1f} ms, speedup {r.speedup_measured:.3f} "
                  f"(model {r.speedup_predicted:.3f})")
        info["fitted_P"] = records[0].fitted_P
    if args.study in ("scaling", "both"):
        sizes = [2 ** p for p in range(args.min_pow, args.max_pow + 1)]
        records = scaling_study(sizes, repeats=args.repeats_scaling)
        rows = [(r.n, f"{r.t_direct:.6g}", f"{r.t_fft:.6g}") for r in records]
        _write_csv(os.path.join(out_dir, "scaling.csv"),
                   ["n", "t_direct_s", "t_fft_s"], rows)
        ns = [r.n for r in records]
        slope_direct = loglog_slope(ns, [r.t_direct for r in records])
        slope_fft = loglog_slope(ns, [r.t_fft for r in records])
        print(f"log-log slopes: direct {slope_direct:.2f}, fft {slope_fft:.2f}")
        info["slope_direct"] = slope_direct
        info["slope_fft"] = slope_fft
    return info


# --------------------------------------------------------------------------

def _build_parser():
    parser = _Parser(prog="opcert", description=__doc__)
    parser.add_argument("--out", default=None, help="output directory (default runs/<command>)")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="print and record a Lipschitz certificate")
    p.add_argument("--net", required=True, help="network JSON file")

    p = sub.add_parser("fixpoint", help="run the contraction fixed-point iteration")
    p.add_argument("--net", required=True)
    p.add_argument("--q", type=float, default=0.8)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--u0", choices=["zeros", "random"], default="random")

    p = sub.add_parser("approx", help="error-vs-budget study for truncated bases")
    p.add_argument("--signal", choices=["smooth", "step", "smooth-spike"],
                   default="smooth-spike")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--budgets", default="8,16,32,64")
    p.add_argument("--strategy", choices=["fourier", "wavelet", "combined", "all"],
                   default="all")
    p.add_argument("--family", choices=["haar", "db4"], default="haar")

    p = sub.add_parser("regions", help="linear-region sweep against the capacity bound")
    p.add_argument("--max-width", type=int, default=6)
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--perturb", type=float, default=1e-6)

    p = sub.add_parser("train", help="train on the synthetic operator task")
    p.add_argument("--config", required=True, help="JSON config file")

    p = sub.add_parser("amdahl", help="pure speedup-model table")
    p.add_argument("--p", type=float, default=0.9)
    p.add_argument("--workers", default="1,2,4,8,16")

    p = sub.add_parser("bench", help="measured parallel and scaling study")
    p.add_argument("--study", choices=["speedup", "scaling", "both"], default="speedup")
    p.add_argument("--batch", type=int, default=96)
    p.add_argument("--size", type=int, default=4096)
    p.add_argument("--workers", default="1,2,4")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--min-pow", type=int, default=10)
    p.add_argument("--max-pow", type=int, default=14)
    p.add_argument("--repeats-scaling", type=int, default=3)

    return parser


_HANDLERS = {
    "certify": _cmd_certify,
    "fixpoint": _cmd_fixpoint,
    "approx": _cmd_approx,
    "regions": _cmd_regions,
    "train": _cmd_train,
    "amdahl": _cmd_amdahl,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out_dir = args.out or os.path.join("runs", args.command)
        os.makedirs(out_dir, exist_ok=True)
        config = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
        try:
            extra = _HANDLERS[args.command](args, out_dir)
        except _NUMERICAL_ERRORS as exc:
            config["failure"] = f"{type(exc).__name__}: {exc}"
            _write_manifest(out_dir, args.command, config, args.seed)
            raise
        if extra:
            config["result"] = extra
        _write_manifest(out_dir, args.command, config, args.seed)
        return 0
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
