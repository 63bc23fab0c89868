"""Linear-region counting for small ReLU networks.

Scalar-input networks get an exact count by propagating the breakpoint set
of the piecewise-linear iterate through every layer; 2-d inputs get a lower
estimate from distinct activation patterns over a sample grid.  The module
also provides the classic width-n sawtooth composition, which meets the
capacity lower bound ``(n/n0)^{n0} * n^{(L-1) n0}`` with equality in one
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegionBudgetExceeded
from .operator_net import IDENTITY, RELU, DenseLayer, OperatorNet

# Breakpoints closer than this merge into one (degenerate coincidences).
_BREAKPOINT_MERGE = 1e-12
# Adjacent pieces whose affine maps agree within this tolerance merge.
_PIECE_MERGE = 1e-10


@dataclass(frozen=True)
class RegionCount:
    """A region count together with the matching capacity lower bound."""

    exact_or_lower: str  # "exact" | "lower"
    count: int
    montufar_bound: int


def montufar_lower_bound(n0: int, n: int, depth: int) -> int:
    """Floor of (n/n0)^n0 * n^((L-1)*n0) for width-n depth-L ReLU nets."""
    if n0 < 1 or depth < 1:
        raise ValueError("need n0 >= 1 and depth >= 1")
    if n < n0:
        raise ValueError("bound requires width n >= input dimension n0")
    return (n ** (depth * n0)) // (n0 ** n0)


def _check_relu_dense(net: OperatorNet):
    for layer in net.layers[:-1]:
        if not isinstance(layer, DenseLayer) or layer.activation.kind != "relu":
            raise ValueError("region counting expects dense ReLU hidden layers")
    last = net.layers[-1]
    if not isinstance(last, DenseLayer) or last.activation.kind != "identity":
        raise ValueError("region counting expects an identity output layer")


def _merge_close(values: np.ndarray) -> np.ndarray:
    if values.size == 0:
        return values
    values = np.sort(values)
    keep = np.concatenate([[True], np.diff(values) > _BREAKPOINT_MERGE])
    return values[keep]


def count_regions_1d(net: OperatorNet, domain=(-1.0, 1.0),
                     max_breakpoints: int = 100000) -> RegionCount:
    """Exact linear-region count of a scalar-input ReLU network on [a, b].

    Tracks the piecewise-affine iterate as (breakpoints, per-piece slope and
    intercept vectors); every neuron adds breakpoints where its
    pre-activation crosses zero, and adjacent pieces with identical output
    maps are merged at the end.
    """
    _check_relu_dense(net)
    if net.in_dim != 1:
        raise ValueError("count_regions_1d needs a scalar-input network")
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise ValueError("domain must satisfy a < b")

    bps = np.empty(0)          # interior breakpoints, sorted
    slopes = np.array([[1.0]])  # (pieces, dim) slope of the iterate
    offsets = np.array([[0.0]])

    for layer_index, layer in enumerate(net.layers):
        w, bias = layer.weight, layer.bias
        slopes = slopes @ w.T
        offsets = offsets @ w.T + bias
        if layer.activation.kind != "relu":
            continue

        prev_bps = bps
        edges = np.concatenate([[a], prev_bps, [b]])
        crossings = [prev_bps]
        for p in range(slopes.shape[0]):
            s, c = slopes[p], offsets[p]
            active = np.abs(s) > 0.0
            roots = -c[active] / s[active]
            lo, hi = edges[p], edges[p + 1]
            crossings.append(roots[(roots > lo + _BREAKPOINT_MERGE)
                                   & (roots < hi - _BREAKPOINT_MERGE)])
        bps = _merge_close(np.concatenate(crossings))
        if bps.size > max_breakpoints:
            raise RegionBudgetExceeded(
                f"breakpoint count {bps.size} exceeds cap {max_breakpoints} "
                f"after layer {layer_index}"
            )

        # Map each refined interval to the pre-refinement piece covering it,
        # then zero the inactive neurons there.
        refined_edges = np.concatenate([[a], bps, [b]])
        mids = 0.5 * (refined_edges[:-1] + refined_edges[1:])
        covering = np.searchsorted(prev_bps, mids)
        z = slopes[covering] * mids[:, None] + offsets[covering]
        mask = (z > 0).astype(float)
        slopes = slopes[covering] * mask
        offsets = offsets[covering] * mask

    # Merge adjacent intervals whose final affine maps coincide.
    count = 1
    for i in range(1, slopes.shape[0]):
        if (np.max(np.abs(slopes[i] - slopes[i - 1])) > _PIECE_MERGE
                or np.max(np.abs(offsets[i] - offsets[i - 1])) > _PIECE_MERGE):
            count += 1

    widths = tuple(layer.out_dim for layer in net.layers[:-1])
    n_min = min(widths) if widths else 1
    bound = montufar_lower_bound(1, n_min, len(widths)) if (widths and n_min >= 1) else 1
    return RegionCount("exact", count, bound)


def count_regions_grid(net: OperatorNet, domain=((0.0, 1.0), (0.0, 1.0)),
                       grid_m: int = 128) -> RegionCount:
    """Lower estimate: distinct hidden activation patterns over an m x m grid."""
    _check_relu_dense(net)
    if net.in_dim != 2:
        raise ValueError("count_regions_grid needs a 2-d-input network")
    (x0, x1), (y0, y1) = domain
    xs = np.linspace(x0, x1, grid_m)
    ys = np.linspace(y0, y1, grid_m)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])

    bits = []
    h = pts
    for layer in net.layers[:-1]:
        z = h @ layer.weight.T + layer.bias
        bits.append(z > 0)
        h = np.maximum(z, 0.0)
    patterns = np.packbits(np.concatenate(bits, axis=1), axis=1)
    count = np.unique(patterns, axis=0).shape[0]

    widths = tuple(layer.out_dim for layer in net.layers[:-1])
    n_min = min(widths)
    bound = montufar_lower_bound(2, n_min, len(widths)) if n_min >= 2 else 1
    return RegionCount("lower", int(count), bound)


def sawtooth_net_1d(width: int, depth: int) -> OperatorNet:
    """Width-n sawtooth composition on [0, 1] realizing n^depth regions.

    Each hidden layer folds [0, 1] onto itself n times with the n-piece
    triangular map t(y) = sum_j c_j relu(y - j/n); composing L folds yields
    a zigzag with exactly n^L linear pieces.
    """
    if width < 1 or depth < 1:
        raise ValueError("need width >= 1 and depth >= 1")
    n = width
    thresholds = np.arange(n) / n
    readout = np.empty(n)
    readout[0] = n
    if n > 1:
        readout[1:] = 2.0 * n * (-1.0) ** np.arange(1, n)

    layers = [DenseLayer(np.ones((n, 1)), -thresholds, RELU)]
    for _ in range(depth - 1):
        layers.append(DenseLayer(np.tile(readout, (n, 1)), -thresholds, RELU))
    layers.append(DenseLayer(readout[None, :], np.zeros(1), IDENTITY))
    return OperatorNet(tuple(layers))


def perturbed_net(net: OperatorNet, scale: float, seed: int) -> OperatorNet:
    """Multiplicative weight noise and additive bias noise, seeded."""
    rng = np.random.default_rng(seed)
    layers = []
    for layer in net.layers:
        w = layer.weight * (1.0 + scale * rng.standard_normal(layer.weight.shape))
        b = layer.bias + scale * rng.standard_normal(layer.bias.shape)
        layers.append(DenseLayer(w, b, layer.activation))
    return OperatorNet(tuple(layers))
