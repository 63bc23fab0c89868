import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dense_net
from opcert.errors import FixedPointDivergence
from opcert.fixed_point import (
    FixedPointReport,
    _step_tolerance,
    iterate_to_fixed_point,
    predict_iterations,
    verify_exponential_bound,
)
from opcert.operator_net import (
    IDENTITY,
    DenseLayer,
    OperatorNet,
    certify_lipschitz,
    forward,
    normalize_to_contraction,
)


def _affine_half_plus_one():
    # G(u) = 0.5 u + 1 with fixed point u* = 2
    return OperatorNet((DenseLayer(np.array([[0.5]]), np.array([1.0]), IDENTITY),))


def test_predict_iterations_closed_form():
    assert predict_iterations(1.0, 1e-3, 0.5) == 10
    assert predict_iterations(1.0, 1e-6, 0.1) == 6


def test_predict_iterations_already_converged():
    assert predict_iterations(1e-9, 1e-3, 0.5) == 0


def test_predict_iterations_rejects_bad_inputs():
    for q in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            predict_iterations(1.0, 1e-3, q)
    with pytest.raises(ValueError):
        predict_iterations(0.0, 1e-3, 0.5)
    with pytest.raises(ValueError):
        predict_iterations(1.0, 0.0, 0.5)


def test_predict_iterations_monotone_in_q():
    qs = np.linspace(0.05, 0.95, 19)
    preds = [predict_iterations(1.0, 1e-6, q) for q in qs]
    assert all(a <= b for a, b in zip(preds, preds[1:]))


def test_affine_map_errors_halve_exactly():
    report = iterate_to_fixed_point(_affine_half_plus_one(), np.array([0.0]), 1e-6)
    assert report.fixed_point[0] == pytest.approx(2.0, abs=1e-9)
    trace = report.error_trace
    assert trace[0] == pytest.approx(2.0, abs=1e-12)
    ratios = trace[1:8] / trace[:7]
    assert np.allclose(ratios, 0.5, atol=1e-12)
    assert report.empirical_q == pytest.approx(0.5, abs=1e-9)


def test_start_at_fixed_point_runs_zero_iterations():
    report = iterate_to_fixed_point(_affine_half_plus_one(), np.array([2.0]), 1e-6)
    assert report.iterations_run == 0
    assert report.fixed_point[0] == pytest.approx(2.0, abs=1e-12)


def test_iterations_within_prediction_for_certified_net(rng):
    for seed in range(5):
        local = np.random.default_rng(seed)
        net = normalize_to_contraction(
            random_dense_net(local, (12, 12, 12), weight_scale=4.0, last_identity=False),
            0.8,
        )
        cert = certify_lipschitz(net)
        u0 = local.normal(size=12)
        report = iterate_to_fixed_point(net, u0, 1e-6, certificate=cert)
        assert report.iterations_run <= report.predicted_n


def test_predictor_is_sufficient(rng):
    net = normalize_to_contraction(
        random_dense_net(rng, (10, 10, 10), weight_scale=4.0, last_identity=False), 0.8)
    cert = certify_lipschitz(net)
    long_run = iterate_to_fixed_point(net, rng.normal(size=10), 1e-10, certificate=cert)
    u_star = long_run.fixed_point
    for eps in (1e-3, 1e-6):
        u = rng.normal(size=10)
        e0 = float(np.linalg.norm(u - u_star))
        steps = predict_iterations(e0, eps, cert.bound)
        for _ in range(steps):
            u = forward(net, u)
        assert np.linalg.norm(u - u_star) <= eps


def test_empirical_q_below_certificate(rng):
    net = normalize_to_contraction(
        random_dense_net(rng, (8, 8, 8), weight_scale=4.0, last_identity=False), 0.9)
    cert = certify_lipschitz(net)
    report = iterate_to_fixed_point(net, rng.normal(size=8), 1e-8, certificate=cert)
    assert report.empirical_q <= cert.bound + 1e-9


def test_uniqueness_different_starts(rng):
    net = normalize_to_contraction(
        random_dense_net(rng, (8, 8, 8), weight_scale=4.0, last_identity=False), 0.8)
    eps = 1e-8
    a = iterate_to_fixed_point(net, rng.normal(size=8), eps)
    b = iterate_to_fixed_point(net, 100.0 * rng.normal(size=8), eps)
    assert np.linalg.norm(a.fixed_point - b.fixed_point) <= 2 * eps


def test_verify_exponential_bound_on_contraction():
    report = iterate_to_fixed_point(_affine_half_plus_one(), np.array([0.0]), 1e-8)
    assert verify_exponential_bound(report, 0.5, report.error_trace[0])


def test_verify_exponential_bound_negative_control():
    # expansion disguised with a claimed q = 0.5 must fail the check
    fake = FixedPointReport(
        iterations_run=4,
        error_trace=np.array([1.0, 1.5, 2.25, 3.375]),
        empirical_q=1.5,
        predicted_n=0,
        fixed_point=np.zeros(1),
    )
    assert not verify_exponential_bound(fake, 0.5, fake.error_trace[0])


def test_non_contractive_certificate_rejected(rng):
    net = random_dense_net(rng, (6, 6), weight_scale=10.0, last_identity=False)
    if certify_lipschitz(net).bound < 1.0:  # pragma: no cover - scale makes this huge
        pytest.skip("unexpectedly contractive")
    with pytest.raises(ValueError, match="contraction"):
        iterate_to_fixed_point(net, rng.normal(size=6), 1e-6)


def test_max_iter_exhaustion_carries_partial_report(rng):
    net = normalize_to_contraction(
        random_dense_net(rng, (8, 8, 8), weight_scale=4.0, last_identity=False), 0.99)
    with pytest.raises(FixedPointDivergence) as exc:
        iterate_to_fixed_point(net, 100 + rng.normal(size=8), 1e-12, max_iter=3)
    partial = exc.value.partial_report
    assert partial is not None
    assert partial.iterations_run == 3
    assert len(partial.error_trace) == 4


@settings(max_examples=200, deadline=None, derandomize=True)
@given(eps=st.floats(min_value=1e-300, max_value=1e300),
       q=st.floats(min_value=1e-300, max_value=1.0, exclude_max=True))
def test_step_tolerance_is_the_largest_float_not_above_the_exact_one(eps, q):
    # The acceptance test d <= tau proves "within eps" only if tau is not
    # above eps (1 - q) / q; round-to-nearest gives a larger float for
    # about half of all inputs, and three roundings can also land more
    # than one float below.
    exact = Fraction(eps) * (1 - Fraction(q)) / Fraction(q)
    tau = _step_tolerance(eps, q)
    assert Fraction(tau) <= exact
    largest = np.finfo(np.float64).max
    assert tau == largest or exact < Fraction(math.nextafter(tau, math.inf))
