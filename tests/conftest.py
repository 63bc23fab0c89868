import numpy as np
import pytest

from opcert.operator_net import (
    IDENTITY,
    RELU,
    SIGMOID,
    TANH,
    DenseLayer,
    OperatorNet,
    SpectralLayer,
    WaveletGainLayer,
)

ACTIVATIONS = (RELU, TANH, SIGMOID, IDENTITY)


def random_dense_net(rng, dims, activation=TANH, weight_scale=1.0, last_identity=True):
    """Dense stack with Gaussian weights; dims = (in, hidden..., out)."""
    layers = []
    for i in range(len(dims) - 1):
        w = weight_scale * rng.normal(size=(dims[i + 1], dims[i])) / np.sqrt(dims[i])
        b = rng.normal(size=dims[i + 1])
        act = IDENTITY if (last_identity and i == len(dims) - 2) else activation
        layers.append(DenseLayer(w, b, act))
    return OperatorNet(tuple(layers))


def random_mixed_net(rng, n, depth=3, activation=TANH, family="haar"):
    """Mix of dense / spectral / wavelet-gain layers on an n-point grid."""
    layers = []
    for i in range(depth):
        kind = i % 3
        if kind == 0:
            layers.append(DenseLayer(rng.normal(size=(n, n)) / np.sqrt(n),
                                     rng.normal(size=n), activation))
        elif kind == 1:
            filt = (rng.normal(size=n // 2 + 1)
                    + 1j * rng.normal(size=n // 2 + 1)) / 3
            layers.append(SpectralLayer(rng.normal(size=(n, n)) / (2 * np.sqrt(n)),
                                        filt, activation))
        else:
            layers.append(WaveletGainLayer(rng.normal(size=2), family, activation))
    return OperatorNet(tuple(layers))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
