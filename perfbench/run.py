"""Outside-in benchmark for opcert.

Run from the root of an opcert checkout:

    python3 perfbench/run.py --workload fixpoint_solve --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single caller: the
next op starts when the previous one has returned.  A run has a fixed number
of distinct ops, set by the workload and ``--seconds`` alone, so the same
seed attempts the same ops and fails the same ones on every run.  It runs
each op once, then runs them again in order until the summed latency of all
executions reaches ``--seconds``.  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it runs the same ops again with
every public opcert function wrapped and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object;
the lines before it are the same numbers for people.  ``perfbench/README.md``
defines every metric.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine has two cores and nothing else may compete.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 150


def import_opcert():
    """Import opcert from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "opcert", "__init__.py")):
        sys.exit("perfbench: no src/opcert here; run from the root of an opcert checkout")
    sys.path.insert(0, SRC)
    import opcert
    if not os.path.abspath(opcert.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported opcert from {opcert.__file__}, not from {SRC}")


class Yardstick:
    """Fixed numpy work, timed after every op, that takes out the machine's speed.

    On a shared 2-vCPU host the same work runs up to ~2x slower for
    seconds at a time, which moves a 20 s run's wall-clock figures by ~20%.
    ``scale`` converts a wall time to seconds at the host's undisturbed
    speed: it multiplies by ``NOMINAL_S`` over the mean of the yardstick
    readings taken just before and just after the timed work.  The work is
    a power iteration on an ``n`` x ``n`` matrix; each workload picks the
    ``n`` of its own hot loop, because contention slows an L1-resident
    64 x 64 matrix and an L2-resident 256 x 256 one by different factors.
    No opcert code runs in the yardstick, so a change to opcert cannot
    move it.
    """

    # Steps per reading, chosen so that an undisturbed reading on a 2-vCPU
    # Intel Xeon (numpy 2.4, OpenBLAS 0.3.31) takes about NOMINAL_S.
    STEPS = {64: 500, 256: 130}
    NOMINAL_S = 1.5e-3

    def __init__(self, n: int):
        self._matrix = np.random.default_rng(0).normal(size=(n, n)) / np.sqrt(n)
        self._steps = self.STEPS[n]
        self.readings: list[float] = []
        self._last = self._read()

    def _read(self) -> float:
        n = self._matrix.shape[0]
        v = np.full(n, 1.0 / np.sqrt(n))
        start = time.perf_counter()
        for _ in range(self._steps):
            v = self._matrix @ v
            v /= np.linalg.norm(v)
        reading = time.perf_counter() - start
        self.readings.append(reading)
        return reading

    def scale(self, wall_s: float) -> float:
        """Seconds at nominal speed for work that ended just now."""
        before, self._last = self._last, self._read()
        return wall_s * self.NOMINAL_S / (0.5 * (before + self._last))

    def slowdown(self) -> float:
        return statistics.median(self.readings) / self.NOMINAL_S


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for index in sorted(os.listdir(cache_dir)):
            fields = {}
            for key in ("level", "type", "size"):
                try:
                    with open(os.path.join(cache_dir, index, key), encoding="ascii") as fh:
                        fields[key] = fh.read().strip()
                except OSError:
                    break
            else:
                caches[f"L{fields['level']} {fields['type']}"] = fields["size"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "caches": caches,
    }


def time_setups(args, yardstick) -> list[float]:
    """Scaled wall time of fresh processes that import, build inputs and run one op.

    Set-up ``k`` runs op ``k``, so that the median does not rest on one op.
    """
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-op", str(k)]
        start = time.perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=SETUP_TIMEOUT_S, check=False)
        times.append(yardstick.scale(time.perf_counter() - start))
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up process failed:\n{done.stderr}")
    return times


class Pass:
    """Outcome of the executions of ops 0..K-1; times are scaled by the yardstick."""

    def __init__(self, attempted: int):
        self.attempted = attempted  # distinct ops
        self.executions = 0
        self.latencies: list[float] = []  # of successful executions
        self.timed_s = 0.0  # summed latency of every execution, failed ones too
        self.first_pass_s = 0.0  # the part of timed_s spent on each op's first execution
        self.wall_latencies: list[float] = []  # unscaled, of successful executions
        self.wall_s = 0.0
        self.failed: set[int] = set()  # ops with a failed execution
        self.failures: dict[str, int] = {}  # failed ops by kind
        self.unexpected: list[str] = []


def run_op(workload, case):
    """Time one op; return (wall latency, output or None, exception or None)."""
    start = time.perf_counter()
    try:
        out = workload.run(case)
    except Exception as exc:  # an op that raises is a counted failure
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, out, None


def measure(workload, seed, ops, seconds, yardstick):
    """Run and check ops 0..ops-1, then repeat them in order until the scaled
    latencies of all executions sum to ``seconds``.

    Every execution is checked; an op fails if any of its executions fails.
    """
    result = Pass(ops)
    while result.executions < ops or result.timed_s < seconds:
        i = result.executions % ops
        case = workload.case(seed + i, i)
        wall, out, exc = run_op(workload, case)
        latency = yardstick.scale(wall)
        result.timed_s += latency
        result.wall_s += wall
        if result.executions < ops:
            result.first_pass_s += latency
        if exc is not None:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            problems = workload.check(case, out)
        if not problems:
            result.latencies.append(latency)
            result.wall_latencies.append(wall)
            if result.executions < ops:
                workload.note(case, out)
        elif i not in result.failed:
            result.failed.add(i)
            key = f"{problems[0].split(':')[0]} [{case.kind}]"
            result.failures[key] = result.failures.get(key, 0) + 1
            if not workload.expected_failure(problems):
                detail = ("".join(traceback.format_exception(exc)) if exc is not None
                          else "; ".join(problems))
                result.unexpected.append(f"op {i} (seed {seed + i}): {detail}")
        result.executions += 1
    return result


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, run, setups):
    ok = run.latencies
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ok) / run.timed_s, "1/s"),
        "op_p50_ms": (statistics.median(ok) * 1e3, "ms"),
        "op_p90_ms": (percentile(ok, 90) * 1e3, "ms"),
        "success_rate": (1.0 - len(run.failed) / run.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cert_ratio": (workload.cert_ratio(), "ratio"),
    }


LAYER_FUNCTIONS = ("normalize_to_contraction", "certify_lipschitz", "forward", "forward_batch")
LAYER_CLASSES = ("DenseLayer", "SpectralLayer", "WaveletGainLayer")
LAYER_METHODS = ("preactivation", "backward_linear", "lipschitz_upper")
TRANSFORMS = ("fft", "inverse_fft", "dwt", "idwt")


def per_layer(tracer, ops, time_scale, solves, iterations, polish, overhead_s):
    """Per-op layer metrics; self times are scaled like the op latencies."""
    def stat(name):
        return tracer.stats.get(name, [0, 0.0, 0.0, 0])

    metrics = {}

    def calls_and_self(name):
        calls, _, self_s, _ = stat(name)
        metrics[f"{name}.calls"] = (calls / ops, "count/op")
        metrics[f"{name}.self_s"] = (self_s * time_scale / ops, "s/op")

    calls_and_self("linalg.spectral_norm")
    norm_calls, _, _, norm_raised = stat("linalg.spectral_norm")
    metrics["linalg.spectral_norm.failures"] = (norm_raised / ops, "count/op")
    metrics["linalg.spectral_norm.distinct_ratio"] = (
        len(tracer.norm_digests) / norm_calls if norm_calls else 0.0, "ratio")
    for fn in LAYER_FUNCTIONS:
        calls_and_self(f"operator_net.{fn}")
    for cls in LAYER_CLASSES:
        for method in LAYER_METHODS:
            name = f"operator_net.{cls}.{method}"
            metrics[f"{name}.self_s"] = (stat(name)[2] * time_scale / ops, "s/op")
    for fn in TRANSFORMS:
        calls_and_self(f"transforms.{fn}")
    metrics["transforms.fft.points"] = (tracer.fft_points / ops, "count/op")
    calls_and_self("multiscale.approximate")
    calls_and_self("fixed_point.iterate_to_fixed_point")
    metrics["fixed_point.iterations"] = (iterations / solves if solves else 0.0, "count/solve")
    metrics["fixed_point.polish_steps"] = (polish / solves if solves else 0.0, "count/solve")
    metrics["training.run_experiment.self_s"] = (
        stat("training.run_experiment")[2] * time_scale / ops, "s/op")
    metrics["tracing.overhead_s"] = (overhead_s, "s/op")
    return metrics


def traced_pass(workload, seed, ops, tracer, yardstick):
    """Re-run ops 0..ops-1 with every public function wrapped.

    Returns (scaled seconds, wall seconds, fixed-point solves, iterations,
    polish steps).
    """
    solves = iterations = polish = 0
    timed = wall_total = 0.0
    tracer.install()
    try:
        for i in range(ops):
            case = workload.case(seed + i, i)
            forwards = tracer.calls("operator_net.forward")
            wall, out, _ = run_op(workload, case)
            timed += yardstick.scale(wall)
            wall_total += wall
            report = workload.fixed_point_report(out) if out is not None else None
            if report is not None:
                solves += 1
                iterations += report.iterations_run
                polish += (tracer.calls("operator_net.forward") - forwards
                           - report.iterations_run - 1)
    finally:
        tracer.uninstall()
    return timed, wall_total, solves, iterations, polish


def declared_metrics(trace):
    """Metric names and units that BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_table(metrics, counts):
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        extra = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name:<{width}}  {value:14.6g} {unit}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-op", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_opcert()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_op is not None:
        run_op(workload, workload.case(args.seed + args.setup_op, args.setup_op))
        return 0

    declared = declared_metrics(args.trace)
    print("env " + json.dumps(environment(), sort_keys=True))
    yardstick = Yardstick(workload.YARDSTICK_N)
    setups = [] if args.trace else time_setups(args, yardstick)
    run_op(workload, workload.case(args.seed, 0))  # warm-up
    ops = max(1, round(workload.OPS_PER_SECOND * args.seconds))
    run = measure(workload, args.seed, ops, args.seconds, yardstick)
    ok = run.latencies
    print(f"workload {args.workload}: seed {args.seed}, {run.attempted} ops attempted, "
          f"{len(run.failed)} failed; {run.executions} executions, {len(ok)} succeeded; "
          f"{run.timed_s:.3f} s of op time at nominal speed, {run.wall_s:.3f} s wall")
    if run.failures:
        print("failures: " + json.dumps(run.failures, sort_keys=True))
    for problem in run.unexpected:
        print(f"perfbench: unexpected failure: {problem}", file=sys.stderr)
    if not ok:
        print("perfbench: no op succeeded", file=sys.stderr)
        return 1

    if args.trace:
        tracer = tracing.Tracer()
        traced_s, traced_wall, solves, iterations, polish = traced_pass(
            workload, args.seed, run.attempted, tracer, yardstick)
        overhead = (traced_s - run.first_pass_s) / run.attempted
        metrics = per_layer(tracer, run.attempted, traced_s / traced_wall,
                            solves, iterations, polish, overhead)
        print(f"traced {run.attempted} ops: {traced_s:.3f} s at nominal speed "
              f"({traced_wall:.3f} s wall), untraced {run.first_pass_s:.3f} s: "
              f"overhead {traced_s / run.first_pass_s - 1.0:+.1%}")
        print("  share of traced wall time, by self time:")
        for name, (calls, wall, self_s, raised) in sorted(tracer.stats.items(),
                                                           key=lambda kv: -kv[1][2]):
            print(f"  {name:<52} calls {calls:8d}  self {self_s / traced_wall:6.1%}"
                  f"  with nested {wall / traced_wall:6.1%}  raised {raised}")
        print_table(metrics, {})
    else:
        metrics = end_to_end(workload, run, setups)
        wall_ok = run.wall_latencies
        print(f"error_rate {len(run.failed) / run.attempted:.6g} "
              f"({len(run.failed)} of {run.attempted} ops failed)")
        print(f"unscaled wall clock: ops_per_s {len(ok) / run.wall_s:.6g}, "
              f"op_p50_ms {statistics.median(wall_ok) * 1e3:.6g}, "
              f"op_p90_ms {percentile(wall_ok, 90) * 1e3:.6g}; "
              f"host ran {yardstick.slowdown():.3f}x slower than nominal (median)")
        print_table(metrics, {"setup_s": len(setups), "op_p50_ms": len(ok),
                              "op_p90_ms": len(ok), "cert_ratio": len(workload.samples)})
        for line in workload.summary_lines():
            print(line)

    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        print(f"perfbench: metrics differ from BENCHMARK.json: {produced} != {declared}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
