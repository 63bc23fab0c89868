"""Layered operator networks with certified Lipschitz bounds.

A network is an immutable sequence of layers, each an affine-style transform
followed by an elementwise activation.  Three layer variants are supported:

* ``DenseLayer``         -- W u + b
* ``SpectralLayer``      -- (W + C_F) u, C_F circulant: a learned low-mode
                            frequency filter embedded with conjugate symmetry
                            so real inputs map to real outputs
* ``WaveletGainLayer``   -- orthonormal DWT, per-level gains, inverse DWT

The certificate multiplies per-layer norms (``spectral_norm`` of the one
matrix a dense or spectral layer applies, ``max |gain|`` for wavelet gains)
with the activation Lipschitz constants; ``normalize_to_contraction``
rescales layers so the certified product is at most a target ``q < 1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import spectral_norm
from .transforms import WAVELET_FILTERS, WaveletDecomp, dwt, fft, idwt, inverse_fft

ACTIVATION_LIPSCHITZ = {"relu": 1.0, "tanh": 1.0, "sigmoid": 0.25, "identity": 1.0}

# Layer norms within this relative margin of the cap are left untouched by
# normalization, which keeps repeated normalization parameter-exact.
_CAP_SLACK = 1e-10
_CAP_SHAVE = 1e-12


@dataclass(frozen=True)
class Activation:
    """Elementwise nonlinearity with a known Lipschitz constant."""

    kind: str

    def __post_init__(self):
        if self.kind not in ACTIVATION_LIPSCHITZ:
            raise ValueError(f"unknown activation {self.kind!r}")

    @property
    def lipschitz(self) -> float:
        return ACTIVATION_LIPSCHITZ[self.kind]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        if self.kind == "tanh":
            return np.tanh(z)
        if self.kind == "sigmoid":
            return 0.5 * (1.0 + np.tanh(0.5 * z))
        return z

    def derivative(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return (z > 0).astype(float)
        if self.kind == "tanh":
            t = np.tanh(z)
            return 1.0 - t * t
        if self.kind == "sigmoid":
            s = self(z)
            return s * (1.0 - s)
        return np.ones_like(z)


RELU = Activation("relu")
TANH = Activation("tanh")
SIGMOID = Activation("sigmoid")
IDENTITY = Activation("identity")


def _frozen_array(obj, name, value, dtype=np.float64, ndim=None):
    arr = np.array(value, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional")
    if not np.all(np.isfinite(arr.view(np.float64) if dtype == np.complex128 else arr)):
        raise ValueError(f"{name} entries must be finite")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class DenseLayer:
    """Affine map u -> W u + b followed by the activation."""

    weight: np.ndarray
    bias: np.ndarray
    activation: Activation = IDENTITY

    def __post_init__(self):
        w = _frozen_array(self, "weight", self.weight, ndim=2)
        b = _frozen_array(self, "bias", self.bias, ndim=1)
        if b.shape[0] != w.shape[0]:
            raise ValueError("bias length must match weight rows")

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]

    def preactivation(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.T + self.bias

    def lipschitz_upper(self) -> float:
        return spectral_norm(self.weight)

    def scaled(self, factor: float) -> "DenseLayer":
        # Biases do not enter the Lipschitz constant and stay untouched.
        return DenseLayer(self.weight * factor, self.bias, self.activation)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def with_params(self, p) -> "DenseLayer":
        return DenseLayer(p["weight"], p["bias"], self.activation)

    def backward_linear(self, x, delta):
        """Adjoint pass: from d(loss)/d(preactivation) to input/param grads."""
        grads = {"weight": delta.T @ x, "bias": delta.sum(axis=0)}
        return delta @ self.weight, grads


@dataclass(frozen=True)
class SpectralLayer:
    """Pointwise linear term plus a low-mode Fourier multiplier.

    ``filt`` holds modes 0..K-1; negative frequencies take the conjugate so
    the multiplier maps real signals to real signals, and retained modes
    beyond the filter length pass with gain zero.  The imaginary parts of
    the DC (and Nyquist, when present) entries are inert.  The multiplier is
    C_F[i, j] = c[(i - j) mod n] with c = iFFT(F), so ``matrix`` = W + C_F.
    """

    weight: np.ndarray
    filt: np.ndarray
    activation: Activation = IDENTITY

    def __post_init__(self):
        w = _frozen_array(self, "weight", self.weight, ndim=2)
        f = _frozen_array(self, "filt", self.filt, dtype=np.complex128, ndim=1)
        if w.shape[0] != w.shape[1]:
            raise ValueError("spectral layer weight must be square")
        n = w.shape[0]
        if n < 1 or n & (n - 1):
            raise ValueError("spectral layer grid size must be a power of two")
        if not 1 <= f.shape[0] <= n // 2 + 1:
            raise ValueError(f"filter length must be in [1, {n // 2 + 1}] for grid {n}")

    @property
    def in_dim(self):
        return self.weight.shape[0]

    out_dim = in_dim  # square

    def _full_filter(self) -> np.ndarray:
        n = self.weight.shape[0]
        k = self.filt.shape[0]
        full = np.zeros(n, dtype=np.complex128)
        full[0] = self.filt[0].real
        top = min(k - 1, n // 2 - 1)
        if top >= 1:
            full[1:top + 1] = self.filt[1:top + 1]
            full[n - top:] = np.conj(self.filt[1:top + 1][::-1])
        if k == n // 2 + 1 and n >= 2:
            full[n // 2] = self.filt[n // 2].real
        return full

    def _diagonals(self) -> np.ndarray:
        n = self.weight.shape[0]
        return (np.arange(n)[:, None] - np.arange(n)) % n

    @cached_property
    def matrix(self) -> np.ndarray:
        kernel = inverse_fft(self._full_filter()).real
        m = self.weight + kernel[self._diagonals()]
        m.setflags(write=False)
        return m

    def preactivation(self, x: np.ndarray) -> np.ndarray:
        return x @ self.matrix.T

    def lipschitz_upper(self) -> float:
        return spectral_norm(self.matrix)

    def scaled(self, factor: float) -> "SpectralLayer":
        return SpectralLayer(self.weight * factor, self.filt * factor, self.activation)

    def params(self):
        return {
            "weight": self.weight,
            "filter_re": self.filt.real.copy(),
            "filter_im": self.filt.imag.copy(),
        }

    def with_params(self, p) -> "SpectralLayer":
        return SpectralLayer(p["weight"], p["filter_re"] + 1j * p["filter_im"], self.activation)

    def backward_linear(self, x, delta):
        n = self.weight.shape[0]
        k = self.filt.shape[0]
        g = delta.T @ x
        # d(loss)/d(filter): r sums G along circulant diagonals; s_k pairs each
        # retained mode with its conjugate twin, giving factor 2 off DC/Nyquist.
        r = np.bincount(self._diagonals().ravel(), weights=g.ravel(), minlength=n)
        s = np.conj(fft(r))[:k]
        g_re = 2.0 * s.real / n
        g_im = -2.0 * s.imag / n
        g_re[0] = s[0].real / n
        g_im[0] = 0.0
        if k == n // 2 + 1 and n >= 2:
            g_re[-1] = s[-1].real / n
            g_im[-1] = 0.0
        grads = {"weight": g, "filter_re": g_re, "filter_im": g_im}
        return delta @ self.matrix, grads


@dataclass(frozen=True)
class WaveletGainLayer:
    """Scale wavelet bands of the input: iDWT(g . DWT(u)).

    One gain per decomposition level, applied to that level's detail band;
    the coarsest approximation band shares the last (coarsest) gain, so the
    layer's operator norm is exactly ``max |gain|`` (the DWT is an
    isometry).  The transforms are ``transforms.dwt``/``idwt``, so the
    input length must be one ``dwt`` accepts for ``len(gains)`` levels of
    ``family``; other lengths raise ``ValueError``.
    """

    gains: np.ndarray
    family: str = "haar"
    activation: Activation = IDENTITY

    def __post_init__(self):
        g = _frozen_array(self, "gains", self.gains, ndim=1)
        if g.shape[0] < 1:
            raise ValueError("need at least one gain")
        if self.family not in WAVELET_FILTERS:
            raise ValueError(f"unknown wavelet family {self.family!r}")

    @property
    def levels(self):
        return self.gains.shape[0]

    @property
    def in_dim(self):
        return None  # any compatible power-of-two length

    @property
    def out_dim(self):
        return None

    def preactivation(self, x: np.ndarray) -> np.ndarray:
        bands = dwt(x, self.family, self.levels)
        scaled = [gain * d for gain, d in zip(self.gains, bands.details)]
        return idwt(WaveletDecomp(self.levels, self.gains[-1] * bands.approx,
                                  scaled, self.family))

    def lipschitz_upper(self) -> float:
        return float(np.max(np.abs(self.gains)))

    def scaled(self, factor: float) -> "WaveletGainLayer":
        return WaveletGainLayer(self.gains * factor, self.family, self.activation)

    def params(self):
        return {"gains": self.gains}

    def with_params(self, p) -> "WaveletGainLayer":
        return WaveletGainLayer(p["gains"], self.family, self.activation)

    def backward_linear(self, x, delta):
        # The band-scaling operator is symmetric, so the input gradient is
        # the same transform applied to delta.
        grad_in = self.preactivation(delta)
        xb = dwt(x, self.family, self.levels)
        db = dwt(delta, self.family, self.levels)
        g = np.array([np.sum(xd * dd) for xd, dd in zip(xb.details, db.details)])
        g[-1] += np.sum(xb.approx * db.approx)
        return grad_in, {"gains": g}


LAYER_VARIANTS = {
    DenseLayer: "dense",
    SpectralLayer: "spectral",
    WaveletGainLayer: "wavelet_gain",
}


@dataclass(frozen=True)
class OperatorNet:
    """Composition of layers; an immutable value."""

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        dim = None
        for i, layer in enumerate(layers):
            if layer.in_dim is not None and dim is not None and layer.in_dim != dim:
                raise ValueError(
                    f"layer {i} expects input dim {layer.in_dim}, got {dim}"
                )
            dim = layer.out_dim if layer.out_dim is not None else dim
        object.__setattr__(self, "layers", layers)

    @property
    def in_dim(self):
        for layer in self.layers:
            if layer.in_dim is not None:
                return layer.in_dim
        return None

    @property
    def out_dim(self):
        for layer in reversed(self.layers):
            if layer.out_dim is not None:
                return layer.out_dim
        return None

    def with_layer_params(self, all_params) -> "OperatorNet":
        return OperatorNet(tuple(
            layer.with_params(p) for layer, p in zip(self.layers, all_params)
        ))


@dataclass(frozen=True)
class ContractionCertificate:
    """Per-layer norms and the composed Lipschitz bound (their product)."""

    per_layer_lipschitz: tuple
    activation_lipschitz: tuple
    bound: float
    target_q: float | None = None


def forward_batch(net: OperatorNet, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a (batch, grid) array of inputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("forward_batch expects a 2-d (batch, grid) array")
    if net.in_dim is not None and x.shape[1] != net.in_dim:
        raise ValueError(f"input dim {x.shape[1]} does not match network ({net.in_dim})")
    for layer in net.layers:
        x = layer.activation(layer.preactivation(x))
    return x


def forward(net: OperatorNet, u) -> np.ndarray:
    """Evaluate the network on a single grid function."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError("forward expects a 1-d grid function")
    if not np.all(np.isfinite(u)):
        raise ValueError("input entries must be finite")
    return forward_batch(net, u[None, :])[0]


def certify_lipschitz(net: OperatorNet, target_q=None) -> ContractionCertificate:
    """Product certificate: bound = prod(layer norms) * prod(activation constants).

    Each multiply of two positive factors is rounded up one ulp, so the
    bound is never below the exact product and a positive product never
    certifies as 0.
    """
    per_layer = tuple(layer.lipschitz_upper() for layer in net.layers)
    act = tuple(layer.activation.lipschitz for layer in net.layers)
    bound = 1.0
    for value in per_layer + act:
        if bound > 0.0 and value > 0.0:
            bound = np.nextafter(bound * value, np.inf)
        else:
            bound *= value
    return ContractionCertificate(per_layer, act, float(bound), target_q)


def normalize_to_contraction(net: OperatorNet, q: float) -> OperatorNet:
    """Rescale each layer so its certified constant is at most q^(1/N).

    Layers already under the cap are returned unchanged (the operation is
    idempotent parameter-wise).  Requires every activation to be
    1-Lipschitz or better.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    for layer in net.layers:
        if layer.activation.lipschitz > 1.0:
            raise ValueError(
                f"activation {layer.activation.kind!r} has Lipschitz constant > 1; "
                "contraction by per-layer caps is not achievable"
            )
    cap = q ** (1.0 / len(net.layers))
    new_layers = []
    for layer in net.layers:
        norm = layer.lipschitz_upper()
        if norm > cap * (1.0 + _CAP_SLACK):
            layer = layer.scaled(cap * (1.0 - _CAP_SHAVE) / norm)
        new_layers.append(layer)
    return OperatorNet(tuple(new_layers))


def stability_envelope(net: OperatorNet, u, certificate=None):
    """Return (||G(u)||, bound * ||u|| + ||G(0)||); lhs <= rhs is guaranteed."""
    u = np.asarray(u, dtype=np.float64)
    cert = certificate if certificate is not None else certify_lipschitz(net)
    lhs = float(np.linalg.norm(forward(net, u)))
    offset = float(np.linalg.norm(forward(net, np.zeros_like(u))))
    rhs = cert.bound * float(np.linalg.norm(u)) + offset
    return lhs, rhs


# ---------------------------------------------------------------------------
# JSON serialization

FORMAT_NAME = "opcert-net"
FORMAT_VERSION = 1


def _layer_to_json(layer):
    entry = {"variant": LAYER_VARIANTS[type(layer)], "activation": layer.activation.kind}
    if isinstance(layer, DenseLayer):
        entry["weight"] = layer.weight.tolist()
        entry["bias"] = layer.bias.tolist()
    elif isinstance(layer, SpectralLayer):
        entry["weight"] = layer.weight.tolist()
        entry["filter_re"] = layer.filt.real.tolist()
        entry["filter_im"] = layer.filt.imag.tolist()
    else:
        entry["gains"] = layer.gains.tolist()
        entry["family"] = layer.family
    return entry


def _layer_from_json(entry):
    act = Activation(entry["activation"])
    variant = entry["variant"]
    if variant == "dense":
        return DenseLayer(entry["weight"], entry["bias"], act)
    if variant == "spectral":
        filt = np.asarray(entry["filter_re"]) + 1j * np.asarray(entry["filter_im"])
        return SpectralLayer(entry["weight"], filt, act)
    if variant == "wavelet_gain":
        return WaveletGainLayer(entry["gains"], entry.get("family", "haar"), act)
    raise ValueError(f"unknown layer variant {variant!r}")


def net_to_json(net: OperatorNet) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "layers": [_layer_to_json(layer) for layer in net.layers],
    }


def net_from_json(doc: dict) -> OperatorNet:
    if doc.get("format") != FORMAT_NAME:
        raise ValueError("not a network document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported network format version {doc.get('version')!r}")
    return OperatorNet(tuple(_layer_from_json(e) for e in doc["layers"]))


def save_net(net: OperatorNet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(net_to_json(net), fh)


def load_net(path) -> OperatorNet:
    with open(path, "r", encoding="utf-8") as fh:
        return net_from_json(json.load(fh))
