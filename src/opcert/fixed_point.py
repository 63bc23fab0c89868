"""Banach fixed-point iteration for certified contractions.

The iteration stops on the a-posteriori test ``||u_{n+1} - u_n|| <=
eps*(1-q)/q``, with the tolerance rounded toward zero, which guarantees
the accepted iterate is within ``eps`` of the true fixed point.  After
acceptance the iterate is polished further (at negligible cost) so the
reported error trace measures distances to an essentially exact fixed
point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import FixedPointDivergence
from .operator_net import OperatorNet, certify_lipschitz, forward

# Relative accuracy of the polished fixed point used for the error trace.
_POLISH_REL = 1e-13
# Integer ratios inside this window snap to the integer before ceil(), so
# analytically exact cases are not bumped by float representation.
_CEIL_SNAP = 1e-9


def predict_iterations(initial_error: float, eps: float, q: float) -> int:
    """Iterations sufficient for q^n * initial_error <= eps (Banach rate)."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if eps <= 0.0 or initial_error <= 0.0:
        raise ValueError("eps and initial_error must be positive")
    if initial_error <= eps:
        return 0
    ratio = math.log(initial_error / eps) / math.log(1.0 / q)
    nearest = round(ratio)
    if abs(ratio - nearest) <= _CEIL_SNAP * max(1.0, abs(ratio)):
        ratio = nearest
    return int(math.ceil(ratio))


def _step_tolerance(eps: float, q: float) -> float:
    """eps (1 - q) / q rounded toward zero, for 0 < q < 1."""
    if not math.isfinite(eps):
        return eps * (1.0 - q) / q
    exact = min(Fraction(eps) * (1 - Fraction(q)) / Fraction(q),
                Fraction(sys.float_info.max))
    tau = float(exact)  # rounded to nearest
    return math.nextafter(tau, 0.0) if Fraction(tau) > exact else tau


@dataclass(frozen=True)
class FixedPointReport:
    """Trace of one fixed-point run.

    ``error_trace[n]`` is the distance of the n-th iterate (n = 0 is the
    start) from the polished fixed point; ``empirical_q`` is the largest
    consecutive error ratio above the float-noise plateau.
    """

    iterations_run: int
    error_trace: np.ndarray
    empirical_q: float
    predicted_n: int
    fixed_point: np.ndarray


def _build_report(iterates, u_star, iterations_run, eps, q):
    u_star = np.asarray(u_star)
    trace = np.array([float(np.linalg.norm(it - u_star)) for it in iterates])
    plateau = 1e-12 * float(np.linalg.norm(u_star))
    ratios = [
        trace[i + 1] / trace[i]
        for i in range(len(trace) - 1)
        if trace[i] > plateau and trace[i + 1] > plateau and trace[i] > 0.0
    ]
    empirical_q = max(ratios) if ratios else 0.0
    predicted = predict_iterations(trace[0], eps, q) if trace[0] > 0 else 0
    return FixedPointReport(
        iterations_run=iterations_run,
        error_trace=trace,
        empirical_q=float(empirical_q),
        predicted_n=predicted,
        fixed_point=u_star,
    )


def iterate_to_fixed_point(net: OperatorNet, u0, eps: float, max_iter: int = 10000,
                           certificate=None) -> FixedPointReport:
    """Iterate u <- G(u) until the accepted iterate is within eps of u*.

    ``net`` must certify as a contraction (bound < 1).  Raises
    ``FixedPointDivergence`` carrying a partial report if ``max_iter`` is
    exhausted, which signals a violated certificate or an ``eps`` below
    float resolution.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    cert = certificate if certificate is not None else certify_lipschitz(net)
    q = cert.bound
    if not q < 1.0:
        raise ValueError(f"certificate bound {q} is not a contraction")

    tau = math.inf if q == 0.0 else _step_tolerance(eps, q)
    u = np.asarray(u0, dtype=np.float64)
    iterates = [u]
    n = 0
    while True:
        v = forward(net, u)
        iterates.append(v)
        d = float(np.linalg.norm(v - u))
        if d <= tau:
            break
        u = v
        n += 1
        if n >= max_iter:
            report = _build_report(iterates, v, n, eps, max(q, 1e-300))
            raise FixedPointDivergence(
                f"no convergence within {max_iter} iterations "
                f"(last step size {d:.3e}, tolerance {tau:.3e})",
                partial_report=report,
            )

    accepted = iterates[-1]
    # Polish towards the exact fixed point for an accurate error trace.
    u_star = accepted
    if q > 0.0:
        scale = max(1.0, float(np.linalg.norm(accepted)))
        polish_tau = _POLISH_REL * scale * (1.0 - q) / q
        extra = 0
        w = accepted
        while extra < max_iter:
            w_next = forward(net, w)
            if float(np.linalg.norm(w_next - w)) <= polish_tau:
                w = w_next
                break
            w = w_next
            extra += 1
        u_star = w

    return _build_report(iterates, u_star, n, eps, q)


def verify_exponential_bound(report: FixedPointReport, q: float,
                             initial_error: float) -> bool:
    """True iff error_trace[n] <= q^n * initial_error + 1e-9 for all n."""
    n = np.arange(len(report.error_trace))
    return bool(np.all(report.error_trace <= q ** n * initial_error + 1e-9))
