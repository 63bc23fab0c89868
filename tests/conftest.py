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


# Flat parameter vectors for finite-difference gradient checks.

def params_to_vector(net):
    chunks = []
    for layer in net.layers:
        for key in sorted(layer.params()):
            chunks.append(layer.params()[key].ravel())
    return np.concatenate(chunks)


def vector_to_net(net, vec):
    all_params = []
    pos = 0
    for layer in net.layers:
        p = {}
        for key in sorted(layer.params()):
            ref = layer.params()[key]
            p[key] = vec[pos:pos + ref.size].reshape(ref.shape)
            pos += ref.size
        all_params.append(p)
    if pos != vec.size:
        raise ValueError("parameter vector length mismatch")
    return net.with_layer_params(all_params)


def grads_to_vector(net, grads):
    chunks = []
    for layer, g in zip(net.layers, grads):
        for key in sorted(layer.params()):
            chunks.append(np.asarray(g[key], dtype=float).ravel())
    return np.concatenate(chunks)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
