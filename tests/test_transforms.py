import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcert.transforms import (
    WaveletDecomp,
    circular_conv_direct,
    circular_conv_fft,
    dft_naive,
    dwt,
    fft,
    idwt,
    inverse_fft,
    max_wavelet_levels,
)


def test_dft_delta_is_constant():
    assert np.allclose(dft_naive([1.0, 0.0, 0.0, 0.0]), np.ones(4), atol=1e-12)


def test_dft_constant_is_delta():
    c = 2.5
    out = dft_naive([c, c, c, c])
    assert out[0] == pytest.approx(4 * c, abs=1e-12)
    assert np.allclose(out[1:], 0.0, atol=1e-12)


def test_fft_delta():
    assert np.allclose(fft([1.0, 0.0, 0.0, 0.0]), np.ones(4), atol=1e-12)


def test_fft_matches_naive_dft_all_sizes():
    rng = np.random.default_rng(0)
    n = 2
    while n <= 1024:
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        a, b = fft(x), dft_naive(x)
        assert np.linalg.norm(a - b) <= 1e-9 * max(np.linalg.norm(b), 1.0), n
        n *= 2


def test_fft_round_trip():
    rng = np.random.default_rng(1)
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    assert np.linalg.norm(inverse_fft(fft(x)) - x) <= 1e-10 * np.linalg.norm(x)


def test_fft_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        fft(np.ones(12))


def test_fft_batched_matches_loop():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(5, 32))
    batched = fft(xs)
    for i in range(5):
        assert np.allclose(batched[i], fft(xs[i]), atol=1e-12)


def test_fft_parseval():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = 2 ** rng.integers(1, 9)
        x = rng.normal(size=n)
        lhs = np.sum(x * x)
        rhs = np.sum(np.abs(fft(x)) ** 2) / n
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_conv_direct_identity_element():
    rng = np.random.default_rng(4)
    x = rng.normal(size=16)
    delta = np.zeros(16)
    delta[0] = 1.0
    assert np.allclose(circular_conv_direct(x, delta), x, atol=1e-12)


def test_conv_direct_hand_example():
    assert np.allclose(circular_conv_direct([1.0, 1.0], [1.0, 1.0]), [2.0, 2.0], atol=1e-14)


def test_conv_fft_identity_element():
    rng = np.random.default_rng(5)
    x = rng.normal(size=32)
    delta = np.zeros(32)
    delta[0] = 1.0
    assert np.linalg.norm(circular_conv_fft(x, delta) - x) <= 1e-10 * np.linalg.norm(x)


def test_conv_fft_matches_direct_all_sizes():
    rng = np.random.default_rng(6)
    n = 2
    while n <= 512:
        x = rng.normal(size=n)
        h = rng.normal(size=n)
        a = circular_conv_fft(x, h)
        b = circular_conv_direct(x, h)
        assert np.linalg.norm(a - b) <= 1e-9 * max(np.linalg.norm(b), 1.0), n
        n *= 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_conv_commutativity(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=64)
    h = rng.normal(size=64)
    a = circular_conv_fft(x, h)
    b = circular_conv_fft(h, x)
    assert np.linalg.norm(a - b) <= 1e-10 * max(np.linalg.norm(a), 1.0)


def test_conv_rejects_length_mismatch():
    with pytest.raises(ValueError, match="equal-length"):
        circular_conv_direct(np.ones(4), np.ones(8))
    with pytest.raises(ValueError, match="equal-length"):
        circular_conv_fft(np.ones(4), np.ones(8))


def test_haar_hand_computed_single_level():
    d = dwt([1.0, 1.0, 1.0, 1.0], "haar", 1)
    assert np.allclose(d.approx, [np.sqrt(2.0), np.sqrt(2.0)], atol=1e-14)
    assert np.allclose(d.details[0], [0.0, 0.0], atol=1e-14)


def test_haar_constant_has_no_detail():
    d = dwt(np.full(32, 3.7), "haar", 4)
    for band in d.details:
        assert np.allclose(band, 0.0, atol=1e-12)


def test_haar_round_trip():
    rng = np.random.default_rng(7)
    x = rng.normal(size=64)
    d = dwt(x, "haar", 5)
    assert np.linalg.norm(idwt(d) - x) <= 1e-12 * np.linalg.norm(x)


def test_db4_round_trip():
    rng = np.random.default_rng(8)
    x = rng.normal(size=32)
    d = dwt(x, "db4", 3)
    assert np.linalg.norm(idwt(d) - x) <= 1e-10 * np.linalg.norm(x)


def test_reconstruct_constant_exactly():
    x = np.full(16, 2.0)
    assert np.allclose(idwt(dwt(x, "haar", 4)), x, atol=1e-12)


def test_energy_preservation():
    rng = np.random.default_rng(9)
    for family, levels in [("haar", 5), ("db4", 4)]:
        x = rng.normal(size=64)
        d = dwt(x, family, levels)
        cands = np.sum(d.approx**2) + sum(np.sum(b**2) for b in d.details)
        assert cands == pytest.approx(np.sum(x * x), rel=1e-10)


def test_coefficient_counts():
    x = np.zeros(64)
    d = dwt(x, "haar", 3)
    assert d.input_length == 64
    assert [b.shape[0] for b in d.details] == [32, 16, 8]
    assert d.approx.shape[0] == 8
    assert d.flatten().shape[0] == 64


@pytest.mark.parametrize("family", ["haar", "db4"])
def test_analysis_matrix_is_orthonormal(family):
    for n in (8, 16):
        levels = max_wavelet_levels(n, family)
        q = np.column_stack([dwt(e, family, levels).flatten() for e in np.eye(n)])
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10


@pytest.mark.parametrize("family", ["haar", "db4"])
def test_batched_dwt_rows_equal_single_signals(family):
    x = np.random.default_rng(4).normal(size=(2, 3, 64))
    levels = max_wavelet_levels(64, family)
    batch = dwt(x, family, levels)
    synth = idwt(batch)
    assert batch.input_length == 64
    for idx in np.ndindex(x.shape[:-1]):
        single = dwt(x[idx], family, levels)
        assert np.array_equal(batch.flatten()[idx], single.flatten())
        assert np.array_equal(synth[idx], idwt(single))


@pytest.mark.parametrize("family", ["haar", "db4"])
def test_flatten_unflatten_round_trips_a_batch(family):
    x = np.random.default_rng(5).normal(size=(2, 3, 32))
    decomp = dwt(x, family, max_wavelet_levels(32, family))
    flat = decomp.flatten()
    back = decomp.unflatten(flat)
    assert np.array_equal(back.approx, decomp.approx)
    assert all(np.array_equal(a, b) for a, b in zip(back.details, decomp.details))
    assert np.array_equal(back.flatten(), flat)
    # slot j of the flattened layout belongs to the band whose level it reports
    levels = decomp.slot_levels()
    assert np.array_equal(flat[..., levels == 1], decomp.details[0])
    assert np.array_equal(flat[..., levels == decomp.levels],
                          np.concatenate((decomp.approx, decomp.details[-1]), axis=-1))
    with pytest.raises(ValueError):
        decomp.unflatten(flat[..., 1:])


def test_dwt_rejects_bad_level_length():
    with pytest.raises(ValueError):
        dwt(np.ones(8), "haar", 4)  # 8 / 2^4 not integral
    with pytest.raises(ValueError):
        dwt(np.ones(12), "haar", 1)  # not a power of two
    with pytest.raises(ValueError):
        dwt(np.ones(8), "db4", 3)  # block shorter than the filter
    with pytest.raises(ValueError):
        dwt(np.ones(8), "sym9", 1)  # unknown family
    with pytest.raises(ValueError):
        dwt(1.0, "haar", 1)  # a scalar is not a signal


def test_idwt_rejects_inconsistent_lengths():
    bad = WaveletDecomp(levels=1, approx=np.ones(4), details=[np.ones(3)], family="haar")
    with pytest.raises(ValueError, match="inconsistent"):
        idwt(bad)


def test_max_levels():
    assert max_wavelet_levels(64, "haar") == 6
    assert max_wavelet_levels(64, "db4") == 5
