import numpy as np
import pytest

from opcert.capacity import (
    count_regions_1d,
    count_regions_grid,
    montufar_lower_bound,
    perturbed_net,
    sawtooth_net_1d,
)
from opcert.errors import RegionBudgetExceeded
from opcert.operator_net import IDENTITY, RELU, TANH, DenseLayer, OperatorNet


def _one_hidden_1d(kinks):
    """Single hidden layer whose neurons kink at the given locations."""
    n = len(kinks)
    w1 = np.ones((n, 1))
    b1 = -np.asarray(kinks, dtype=float)
    w2 = np.arange(1.0, n + 1.0)[None, :]
    return OperatorNet((DenseLayer(w1, b1, RELU), DenseLayer(w2, np.zeros(1), IDENTITY)))


def test_montufar_formula_values():
    assert montufar_lower_bound(1, 2, 2) == 4
    assert montufar_lower_bound(2, 4, 2) == 64
    assert montufar_lower_bound(1, 1, 3) == 1


def test_montufar_depth_one_reduction():
    for n0, n in [(1, 3), (2, 5), (3, 7)]:
        assert montufar_lower_bound(n0, n, 1) == int((n / n0) ** n0)


def test_montufar_rejects_narrow_networks():
    with pytest.raises(ValueError, match="width"):
        montufar_lower_bound(3, 2, 2)
    with pytest.raises(ValueError):
        montufar_lower_bound(0, 2, 2)


def test_single_neuron_two_regions():
    net = OperatorNet((
        DenseLayer(np.array([[1.0]]), np.zeros(1), RELU),
        DenseLayer(np.array([[1.0]]), np.zeros(1), IDENTITY),
    ))
    result = count_regions_1d(net, (-1.0, 1.0))
    assert result.count == 2
    assert result.exact_or_lower == "exact"


def test_one_hidden_layer_kinks_plus_one():
    for kinks in ([0.0], [-0.5, 0.25], [-0.7, -0.1, 0.3, 0.8]):
        net = _one_hidden_1d(kinks)
        assert count_regions_1d(net, (-1.0, 1.0)).count == len(kinks) + 1


def test_out_of_domain_kinks_do_not_count():
    net = _one_hidden_1d([-5.0, 0.0, 5.0])
    assert count_regions_1d(net, (-1.0, 1.0)).count == 2


def test_sawtooth_depth2_width2_meets_bound():
    result = count_regions_1d(sawtooth_net_1d(2, 2), (0.0, 1.0))
    assert result.count == 4
    assert result.montufar_bound == 4
    assert result.count >= result.montufar_bound


def test_sawtooth_counts_are_width_to_depth():
    for width, depth in [(2, 3), (3, 2), (4, 2), (5, 1)]:
        result = count_regions_1d(sawtooth_net_1d(width, depth), (0.0, 1.0))
        assert result.count == width ** depth, (width, depth)


def test_perturbed_sawtooth_sweep_meets_bound():
    for width in range(1, 5):
        for depth in range(1, 4):
            bound = montufar_lower_bound(1, width, depth)
            for seed in range(3):
                net = perturbed_net(sawtooth_net_1d(width, depth), 1e-6, seed)
                assert count_regions_1d(net, (0.0, 1.0)).count >= bound


def test_count_requires_relu_dense():
    tanh_net = OperatorNet((
        DenseLayer(np.ones((2, 1)), np.zeros(2), TANH),
        DenseLayer(np.ones((1, 2)), np.zeros(1), IDENTITY),
    ))
    with pytest.raises(ValueError, match="ReLU"):
        count_regions_1d(tanh_net)


def test_breakpoint_cap_raises():
    net = perturbed_net(sawtooth_net_1d(5, 4), 1e-6, 0)
    with pytest.raises(RegionBudgetExceeded):
        count_regions_1d(net, (0.0, 1.0), max_breakpoints=100)


def test_grid_linear_net_single_region():
    net = OperatorNet((
        DenseLayer(np.array([[1.0, 2.0], [0.5, -1.0]]), np.zeros(2), RELU),
        DenseLayer(np.ones((1, 2)), np.zeros(1), IDENTITY),
    ))
    # push biases so both neurons stay active over the whole square
    net = OperatorNet((
        DenseLayer(net.layers[0].weight, np.array([10.0, 10.0]), RELU),
        net.layers[1],
    ))
    assert count_regions_grid(net, ((0, 1), (0, 1)), 64).count == 1


def test_grid_one_hidden_layer_matches_arrangement_formula():
    # three lines in general position crossing inside the unit square:
    # 1 + n + C(n, 2) = 7 regions
    w = np.array([[1.0, 0.3], [-0.4, 1.0], [0.8, -1.1]])
    b = np.array([-0.55, -0.35, 0.12])
    net = OperatorNet((DenseLayer(w, b, RELU),
                       DenseLayer(np.ones((1, 3)), np.zeros(1), IDENTITY)))
    counts = [count_regions_grid(net, ((0, 1), (0, 1)), m).count for m in (64, 128, 256, 512)]
    assert counts[1] == counts[-1] == 7  # resolution 128 already finds all seven
    assert all(a <= b_ for a, b_ in zip(counts, counts[1:]))


def test_grid_estimate_monotone_in_resolution():
    rng = np.random.default_rng(3)
    net = OperatorNet((
        DenseLayer(rng.normal(size=(4, 2)), rng.normal(size=4) * 0.3, RELU),
        DenseLayer(rng.normal(size=(4, 4)), rng.normal(size=4) * 0.3, RELU),
        DenseLayer(np.ones((1, 4)), np.zeros(1), IDENTITY),
    ))
    counts = [count_regions_grid(net, ((-1, 1), (-1, 1)), m).count for m in (32, 64, 128)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert count_regions_grid(net, ((-1, 1), (-1, 1)), 32).exact_or_lower == "lower"


def test_grid_requires_2d_input():
    net = OperatorNet((
        DenseLayer(np.ones((2, 1)), np.zeros(2), RELU),
        DenseLayer(np.ones((1, 2)), np.zeros(1), IDENTITY),
    ))
    with pytest.raises(ValueError, match="2-d"):
        count_regions_grid(net)
