import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_dense_net, random_mixed_net
from opcert import operator_net
from opcert.operator_net import (
    IDENTITY,
    RELU,
    TANH,
    Activation,
    DenseLayer,
    OperatorNet,
    SpectralLayer,
    WaveletGainLayer,
    certify_lipschitz,
    forward,
    forward_batch,
    load_net,
    net_from_json,
    net_to_json,
    normalize_to_contraction,
    save_net,
    stability_envelope,
)
from opcert.training import grad
from opcert.transforms import fft, inverse_fft


def test_activation_lipschitz_constants():
    assert Activation("relu").lipschitz == 1.0
    assert Activation("tanh").lipschitz == 1.0
    assert Activation("sigmoid").lipschitz == 0.25
    assert Activation("identity").lipschitz == 1.0
    with pytest.raises(ValueError):
        Activation("softplus")


def test_identity_dense_forward():
    net = OperatorNet((DenseLayer(np.eye(3), np.zeros(3), IDENTITY),))
    u = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(forward(net, u), u)


def test_spectral_full_pass_is_identity(rng):
    n = 32
    layer = SpectralLayer(np.zeros((n, n)), np.ones(n // 2 + 1, dtype=complex), IDENTITY)
    u = rng.normal(size=n)
    out = forward(OperatorNet((layer,)), u)
    assert np.linalg.norm(out - u) <= 1e-10 * np.linalg.norm(u)


def test_two_layer_relu_manual_composition():
    w1 = np.array([[1.0, 0.0, -1.0], [2.0, 1.0, 0.0]])
    b1 = np.array([-0.5, 1.0])
    w2 = np.array([[1.0, -1.0]])
    b2 = np.array([0.25])
    net = OperatorNet((DenseLayer(w1, b1, RELU), DenseLayer(w2, b2, IDENTITY)))
    u = np.array([1.0, -2.0, 0.5])
    h = np.maximum(w1 @ u + b1, 0.0)
    expected = w2 @ h + b2
    assert np.allclose(forward(net, u), expected, atol=1e-14)


def test_forward_rejects_dimension_mismatch():
    net = OperatorNet((DenseLayer(np.eye(3), np.zeros(3), IDENTITY),))
    with pytest.raises(ValueError, match="dim"):
        forward(net, np.ones(4))


def test_net_rejects_incompatible_layers():
    with pytest.raises(ValueError, match="dim"):
        OperatorNet((
            DenseLayer(np.ones((2, 3)), np.zeros(2), RELU),
            DenseLayer(np.ones((2, 3)), np.zeros(2), IDENTITY),
        ))


def test_certificate_product_of_halves():
    half = DenseLayer(0.5 * np.eye(4), np.zeros(4), RELU)
    cert = certify_lipschitz(OperatorNet((half, half)))
    assert cert.bound == pytest.approx(0.25, abs=1e-12)
    assert cert.per_layer_lipschitz == pytest.approx((0.5, 0.5), abs=1e-12)


def test_certificate_zero_layer_gives_zero_bound():
    net = OperatorNet((
        DenseLayer(np.zeros((3, 3)), np.ones(3), RELU),
        DenseLayer(np.eye(3), np.zeros(3), IDENTITY),
    ))
    assert certify_lipschitz(net).bound == 0.0


def test_certificate_recomputable_from_parts(rng):
    net = random_mixed_net(rng, 16)
    cert = certify_lipschitz(net)
    prod = 1.0
    for a, b in zip(cert.per_layer_lipschitz, cert.activation_lipschitz):
        prod *= a * b
    assert cert.bound == pytest.approx(prod, abs=1e-12)


def test_certified_bound_sound_on_sampled_pairs(rng):
    net = random_mixed_net(rng, 16, depth=3)
    bound = certify_lipschitz(net).bound
    u = rng.normal(size=(10000, 16))
    v = rng.normal(size=(10000, 16))
    num = np.linalg.norm(forward_batch(net, u) - forward_batch(net, v), axis=1)
    den = np.linalg.norm(u - v, axis=1)
    assert np.all(num <= bound * den + 1e-9)


def test_normalize_per_layer_cap_value(rng):
    net = random_dense_net(rng, (8, 8, 8, 8), weight_scale=5.0, last_identity=False)
    capped = normalize_to_contraction(net, 0.5)
    cert = certify_lipschitz(capped)
    cap = 0.5 ** (1.0 / 3.0)
    assert cap == pytest.approx(0.7937005259840998, abs=1e-12)
    for value in cert.per_layer_lipschitz:
        assert value <= cap * (1 + 1e-9)
    assert cert.bound <= 0.5 + 1e-9


def _gaussian_dense_net(scale):
    w = scale * np.random.default_rng(1).normal(size=(16, 16))
    return OperatorNet((DenseLayer(w, np.zeros(16), TANH),))


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-40, 1e300])
def test_certificate_at_extreme_weight_scales(scale):
    net = _gaussian_dense_net(scale)
    bound = certify_lipschitz(net).bound
    svd = np.linalg.svd(net.layers[0].weight, compute_uv=False)[0]
    assert svd <= bound <= svd * (1 + 1e-12)
    capped = normalize_to_contraction(net, 0.5)
    assert np.linalg.svd(capped.layers[0].weight, compute_uv=False)[0] <= 0.5


def test_certificate_of_tiny_layers_stays_positive():
    # The exact product is 1e-400, below the smallest subnormal.
    tiny = DenseLayer(1e-100 * np.eye(3), np.zeros(3), IDENTITY)
    assert certify_lipschitz(OperatorNet((tiny,) * 4)).bound > 0.0


def test_normalize_caps_huge_layer():
    capped = normalize_to_contraction(_gaussian_dense_net(1e300), 0.5)
    assert np.linalg.svd(capped.layers[0].weight, compute_uv=False)[0] <= 0.5 * (1 + 1e-8)


def test_normalize_leaves_satisfying_net_unchanged():
    net = OperatorNet((
        DenseLayer(0.1 * np.eye(4), np.ones(4), RELU),
        DenseLayer(0.2 * np.eye(4), np.zeros(4), IDENTITY),
    ))
    out = normalize_to_contraction(net, 0.9)
    for a, b in zip(net.layers, out.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)


def test_normalize_idempotent_parameterwise(rng):
    for seed in range(5):
        local = np.random.default_rng(seed)
        net = random_mixed_net(local, 16, depth=4)
        once = normalize_to_contraction(net, 0.8)
        twice = normalize_to_contraction(once, 0.8)
        for a, b in zip(once.layers, twice.layers):
            for key, value in a.params().items():
                assert np.array_equal(value, b.params()[key]), key


def test_normalize_attenuates_perturbations(rng):
    net = normalize_to_contraction(random_dense_net(rng, (12, 12, 12), TANH, 4.0), 0.8)
    u = rng.normal(size=12)
    base = forward(net, u)
    for _ in range(50):
        du = rng.normal(size=12) * 10 ** rng.uniform(-3, 1)
        diff = np.linalg.norm(forward(net, u + du) - base)
        assert diff <= 0.8 * np.linalg.norm(du) + 1e-9


def test_normalize_rejects_bad_q(rng):
    net = random_dense_net(rng, (4, 4))
    for q in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            normalize_to_contraction(net, q)


def test_scaling_covariance_dense_identity(rng):
    dims = (6, 6, 6, 6)
    net = random_dense_net(rng, dims, IDENTITY, last_identity=False)
    base = certify_lipschitz(net).bound
    c = 1.7
    scaled = OperatorNet(tuple(
        DenseLayer(c * l.weight, l.bias, l.activation) for l in net.layers
    ))
    expected = c ** len(dims[:-1]) * base
    assert certify_lipschitz(scaled).bound == pytest.approx(expected, rel=1e-10)


def test_stability_envelope_zero_input_equality(rng):
    net = random_dense_net(rng, (8, 8, 8))
    lhs, rhs = stability_envelope(net, np.zeros(8))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_stability_envelope_identity_net():
    net = OperatorNet((DenseLayer(np.eye(5), np.zeros(5), IDENTITY),))
    u = np.arange(1.0, 6.0)
    lhs, rhs = stability_envelope(net, u)
    assert lhs == pytest.approx(np.linalg.norm(u), abs=1e-12)
    assert rhs == pytest.approx(np.linalg.norm(u), rel=1e-10)


def test_stability_envelope_holds_on_random_inputs(rng):
    net = random_mixed_net(rng, 16)
    cert = certify_lipschitz(net)
    for _ in range(100):
        u = rng.normal(size=16) * 10 ** rng.uniform(-2, 2)
        lhs, rhs = stability_envelope(net, u, cert)
        assert lhs <= rhs + 1e-9


def test_wavelet_gain_layer_norm_is_max_gain(rng):
    layer = WaveletGainLayer(np.array([0.3, -1.7, 0.2]), "haar", IDENTITY)
    assert layer.lipschitz_upper() == pytest.approx(1.7)
    # the bound is attained: feed a signal concentrated in the level-2 band
    net = OperatorNet((layer,))
    u = rng.normal(size=32)
    out = forward(net, u)
    assert np.linalg.norm(out) <= 1.7 * np.linalg.norm(u) + 1e-12


def test_wavelet_gain_layer_rejects_unanalysable_length():
    # db4 needs 4 * 2^(levels - 1) points; haar needs a power of two.
    for layer, n in [(WaveletGainLayer(np.ones(3), "db4"), 8),
                     (WaveletGainLayer(np.ones(3), "haar"), 4),
                     (WaveletGainLayer(np.ones(1), "haar"), 12)]:
        with pytest.raises(ValueError):
            forward(OperatorNet((layer,)), np.ones(n))


def _hermitian_filter(filt, n):
    """Modes 0..n-1 of a filter whose negative modes mirror its positive ones."""
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[:filt.size] = filt
    half[0] = half[0].real
    if n >= 2:
        half[n // 2] = half[n // 2].real
    return np.concatenate([half, np.conj(half[1:n - n // 2][::-1])])


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_spectral_layer_matrix_matches_fft_multiplier(n):
    rng = np.random.default_rng(n)
    w = rng.normal(size=(n, n)) / np.sqrt(n)
    x = rng.normal(size=(5, n))
    for k in sorted({1, max(n // 4, 1), n // 2 + 1}):
        filt = rng.normal(size=k) + 1j * rng.normal(size=k)
        filt[0] = filt[0].real + 0.5j
        if k == n // 2 + 1:
            filt[-1] = filt[-1].real - 0.5j
        layer = SpectralLayer(w, filt, IDENTITY)
        oracle = x @ w.T + inverse_fft(fft(x) * _hermitian_filter(filt, n)).real
        out = layer.preactivation(x)
        assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle), k
        assert not layer.matrix.flags.writeable
        with pytest.raises(ValueError):
            layer.matrix[0, 0] = 1.0
        svd = np.linalg.svd(layer.matrix, compute_uv=False)[0]
        certified = layer.lipschitz_upper()
        assert svd <= certified <= svd * (1 + 1e-12), k
        triangle = np.linalg.svd(w, compute_uv=False)[0] + np.max(np.abs(filt))
        assert certified <= triangle, k


def test_spectral_certificate_covers_tiny_weight_beside_unit_filter():
    # ||W|| + max|F_k| = 1 + 1e-20 rounds to exactly 1.0.
    layer = SpectralLayer(1e-20 * np.eye(4), np.ones(1, dtype=complex), IDENTITY)
    assert layer.lipschitz_upper() > 1.0


_SCALES = st.one_of(st.just(0.0), st.integers(-300, 300).map(lambda e: 10.0 ** e))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(log2_n=st.integers(0, 6), k_seed=st.integers(0, 32),
       w_scale=_SCALES, f_scale=_SCALES, seed=st.integers(0, 2**32 - 1))
@example(log2_n=2, k_seed=0, w_scale=1e-20, f_scale=1.0, seed=0)
@example(log2_n=6, k_seed=32, w_scale=0.0, f_scale=1.0, seed=1)
@example(log2_n=6, k_seed=32, w_scale=1.0, f_scale=0.0, seed=2)
@example(log2_n=6, k_seed=32, w_scale=1e300, f_scale=1e-300, seed=3)
@example(log2_n=6, k_seed=32, w_scale=1e-300, f_scale=1e300, seed=4)
@example(log2_n=6, k_seed=32, w_scale=1e300, f_scale=1e300, seed=5)
def test_spectral_certificate_sound_at_adversarial_scales(log2_n, k_seed, w_scale, f_scale, seed):
    n = 2 ** log2_n
    k = 1 + k_seed % (n // 2 + 1)
    rng = np.random.default_rng(seed)
    w = w_scale * rng.normal(size=(n, n))
    filt = f_scale * (rng.normal(size=k) + 1j * rng.normal(size=k))
    net = OperatorNet((SpectralLayer(w, filt, TANH),))
    certified = certify_lipschitz(net).per_layer_lipschitz[0]
    svd = np.linalg.svd(net.layers[0].matrix, compute_uv=False)[0]
    assert np.isfinite(certified)
    assert svd <= certified
    capped = normalize_to_contraction(net, 0.5).layers[0]
    assert np.linalg.svd(capped.matrix, compute_uv=False)[0] <= 0.5


def test_spectral_layer_validates_filter_length():
    with pytest.raises(ValueError, match="filter length"):
        SpectralLayer(np.eye(8), np.ones(6, dtype=complex), IDENTITY)


def test_serialization_round_trip_exact(rng):
    net = random_mixed_net(rng, 16, depth=3)
    back = net_from_json(net_to_json(net))
    for a, b in zip(net.layers, back.layers):
        assert type(a) is type(b)
        assert a.activation.kind == b.activation.kind
        for key, value in a.params().items():
            assert np.array_equal(value, b.params()[key])


def test_serialization_file_round_trip(tmp_path, rng):
    net = random_dense_net(rng, (6, 6, 6))
    path = tmp_path / "net.json"
    save_net(net, path)
    back = load_net(path)
    u = rng.normal(size=6)
    assert np.array_equal(forward(net, u), forward(back, u))


def test_serialization_rejects_wrong_format():
    with pytest.raises(ValueError, match="network document"):
        net_from_json({"format": "something-else", "version": 1, "layers": []})
    with pytest.raises(ValueError, match="version"):
        net_from_json({"format": "opcert-net", "version": 99, "layers": []})


def _assert_same_params(a, b):
    for layer_a, layer_b in zip(a.layers, b.layers):
        for key, value in layer_a.params().items():
            assert np.array_equal(value, layer_b.params()[key]), key


def _normalize_both_ways(net, q, monkeypatch):
    with_proof = normalize_to_contraction(net, q)
    with monkeypatch.context() as patch:
        patch.setattr(operator_net, "norm_at_most", lambda m, t: False)
        svd_only = normalize_to_contraction(net, q)
    return with_proof, svd_only


def test_norm_proof_never_changes_normalization_of_trained_nets(rng, monkeypatch):
    # Renormalized gradient steps on a mixed net, as in training: each
    # step's normalization must not depend on whether the proof succeeds.
    net = random_mixed_net(rng, 32, depth=4)
    x, y = rng.normal(size=(20, 32)), rng.normal(size=(20, 32))
    for _ in range(6):
        net, svd_only = _normalize_both_ways(net, 0.9, monkeypatch)
        _assert_same_params(net, svd_only)
        grads = grad(net, (x, y), 1e-3)
        net = net.with_layer_params([
            {k: v - 0.5 * g[k] for k, v in layer.params().items()}
            for layer, g in zip(net.layers, grads)
        ])


@pytest.mark.parametrize("rel", [-1e-6, -1e-11, 1e-11, 1e-6])
def test_norm_proof_never_changes_normalization_near_the_cap(rel, rng, monkeypatch):
    # Every matrix layer's sigma_1 is cap (1 + rel): inside and outside
    # both the proof's reach and _CAP_SLACK.
    q = 0.7
    cap = q ** (1.0 / 3.0)
    filt = rng.normal(size=5) + 1j * rng.normal(size=5)
    layers = (
        DenseLayer(rng.normal(size=(64, 64)), rng.normal(size=64), TANH),
        SpectralLayer(rng.normal(size=(64, 64)), filt, TANH),
        DenseLayer(rng.normal(size=(48, 64)), rng.normal(size=48), IDENTITY),
    )
    net = OperatorNet(tuple(
        layer.scaled(cap * (1.0 + rel) / np.linalg.svd(layer.matrix, compute_uv=False)[0])
        for layer in layers
    ))
    with_proof, svd_only = _normalize_both_ways(net, q, monkeypatch)
    _assert_same_params(with_proof, svd_only)
