import numpy as np
import pytest
from numpy.testing import assert_allclose

from rtsn.dsp import (
    POWER_FLOOR,
    ComplexSpectrogram,
    StftConfig,
    Waveform,
    compose,
    consistency_error,
    decompose,
    istft,
    lps_from_magnitude,
    magnitude_from_lps,
    stft,
)

from helpers import hann_by_formula, naive_stft, synth_voice

TINY = StftConfig(frame_len=16, hop=8, fft_size=16)


def test_window_matches_formula():
    cfg = StftConfig()
    assert_allclose(cfg.window_values, hann_by_formula(200), rtol=0, atol=1e-15)
    # frozen spot checks of 0.5*(1 - cos(2*pi*k/200))
    assert_allclose(cfg.window_values[10], 0.024471741852423234, rtol=0, atol=1e-15)
    assert_allclose(cfg.window_values[90], 0.9755282581475768, rtol=0, atol=1e-15)
    assert_allclose(cfg.window_values[170], 0.20610737385376354, rtol=0, atol=1e-15)
    assert cfg.window_values[0] == 0.0


def test_stft_matches_naive_dft_tiny():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(100)
    got = stft(Waveform(x), TINY).coeffs
    want = naive_stft(x, 16, 8, 16)
    assert got.shape == want.shape
    assert_allclose(got, want, rtol=0, atol=1e-10)


def test_stft_matches_naive_dft_default():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(400)
    got = stft(Waveform(x), StftConfig()).coeffs
    want = naive_stft(x, 200, 80, 256)
    assert got.shape == want.shape
    assert_allclose(got, want, rtol=0, atol=1e-9)


def test_impulse_frame_magnitudes():
    # impulse at sample 150 sits at padded position 250: inside frames 1..3
    # at in-frame offsets 170, 90, 10, so each frame's magnitudes are flat
    # at the window value for that offset
    x = np.zeros(400)
    x[150] = 1.0
    mags = np.abs(stft(Waveform(x), StftConfig()).coeffs)
    assert_allclose(mags[0], 0.0, rtol=0, atol=1e-15)
    assert_allclose(mags[1], 0.20610737385376354, rtol=1e-12, atol=0)
    assert_allclose(mags[2], 0.9755282581475768, rtol=1e-12, atol=0)
    assert_allclose(mags[3], 0.024471741852423234, rtol=1e-12, atol=0)


def test_frame_count():
    cfg = StftConfig()
    assert stft(Waveform(np.ones(8000)), cfg).num_frames == 101
    for n in (101, 160, 999, 8000):
        spec = stft(Waveform(np.ones(n)), cfg)
        assert spec.num_frames == 1 + (n + 2 * 100 - 200) // 80
        assert spec.num_frames == cfg.num_frames(n)


@pytest.mark.parametrize("n", [101, 200, 437, 8000])
def test_round_trip_exact(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    y = istft(stft(Waveform(x), StftConfig())).samples
    assert y.shape == x.shape
    assert np.max(np.abs(y - x)) < 1e-12


def test_round_trip_tiny_config():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(77)
    y = istft(stft(Waveform(x), TINY)).samples
    assert np.max(np.abs(y - x)) < 1e-12


def test_stft_input_validation():
    cfg = StftConfig()
    with pytest.raises(ValueError, match="empty"):
        stft(Waveform(np.zeros(0)), cfg)
    with pytest.raises(ValueError, match="sample rate"):
        stft(Waveform(np.zeros(500), sample_rate_hz=16000), cfg)
    with pytest.raises(ValueError, match="non-finite"):
        stft(Waveform(np.array([0.0, np.nan, 0.0] * 100)), cfg)
    with pytest.raises(ValueError, match="too short"):
        stft(Waveform(np.zeros(100)), cfg)  # need pad+1 = 101


def test_config_validation():
    with pytest.raises(ValueError, match="hop"):
        StftConfig(hop=0)
    with pytest.raises(ValueError, match="hop <= frame_len <= fft_size"):
        StftConfig(frame_len=200, hop=201)
    with pytest.raises(ValueError, match="hop <= frame_len <= fft_size"):
        StftConfig(frame_len=300, hop=80, fft_size=256)
    with pytest.raises(ValueError, match="power of two"):
        StftConfig(frame_len=200, hop=80, fft_size=300)


def test_istft_zero_normalization_raises():
    # hop == frame_len with a periodic Hann leaves w^2 sums of zero at the
    # frame joins
    cfg = StftConfig(frame_len=200, hop=200, fft_size=256)
    spec = stft(Waveform(np.ones(600)), cfg)
    with pytest.raises(ValueError, match="normalization is zero"):
        istft(spec)


def test_spectrogram_shape_validation():
    cfg = StftConfig()
    with pytest.raises(ValueError, match="bins"):
        ComplexSpectrogram(np.zeros((5, 100), dtype=complex), cfg, 400)
    with pytest.raises(ValueError, match="frames"):
        ComplexSpectrogram(np.zeros((5, 129), dtype=complex), cfg, 400)


def test_compose_decompose_round_trip():
    rng = np.random.default_rng(2)
    x = synth_voice(2)
    spec = stft(Waveform(x), StftConfig())
    mag, phase = decompose(spec)
    assert mag.min() >= 0.0
    assert np.all(np.abs(phase) <= np.pi)
    again = compose(mag, phase, spec.config, spec.orig_len)
    assert_allclose(again.coeffs, spec.coeffs, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="negative magnitude"):
        compose(-mag, phase, spec.config, spec.orig_len)
    with pytest.raises(ValueError, match="shape"):
        compose(mag[:, :-1], phase, spec.config, spec.orig_len)


def test_lps_floor_and_inverse():
    zero = lps_from_magnitude(np.zeros((3, 4)))
    assert_allclose(zero.values, np.log(POWER_FLOOR), rtol=0, atol=1e-15)
    rng = np.random.default_rng(9)
    mag = rng.uniform(0.1, 2.0, size=(6, 9))
    back = magnitude_from_lps(lps_from_magnitude(mag))
    assert_allclose(back, mag, rtol=1e-8, atol=0)
    with pytest.raises(ValueError, match="negative magnitude"):
        lps_from_magnitude(-mag)


def test_consistency_error():
    x = synth_voice(3)
    spec = stft(Waveform(x), StftConfig())
    assert consistency_error(spec) < 1e-14

    zero = ComplexSpectrogram(
        np.zeros_like(spec.coeffs), spec.config, spec.orig_len
    )
    assert consistency_error(zero) == 0.0

    rng = np.random.default_rng(4)
    garbage = ComplexSpectrogram(
        rng.standard_normal(spec.coeffs.shape)
        + 1j * rng.standard_normal(spec.coeffs.shape),
        spec.config,
        spec.orig_len,
    )
    assert consistency_error(garbage) > 0.1
