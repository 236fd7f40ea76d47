import numpy as np
import pytest
from numpy.testing import assert_allclose

from rtsn.dsp import LpsSequence, StftConfig, Waveform
from rtsn.evalkit import (
    emit_spectrogram_image,
    global_snr,
    log_spectral_distance,
    segmental_snr,
    spectrogram_image_bytes,
)

from helpers import hann_by_formula, naive_stft, synth_voice

TINY = StftConfig(frame_len=16, hop=8, fft_size=16)


# ---------------------------------------------------------------------------
# SNR
# ---------------------------------------------------------------------------


def test_global_snr_hand_case():
    # ref power 8, error power 0.02 -> 10*log10(400) frozen
    ref = Waveform(np.array([2.0, 2.0]))
    deg = Waveform(np.array([2.1, 2.1]))
    assert_allclose(global_snr(ref, deg), 26.020599913279625, rtol=0, atol=1e-12)


def test_global_snr_caps_and_errors():
    x = Waveform(synth_voice(1, 500))
    assert global_snr(x, x) == 99.0
    loud = Waveform(x.samples * (1.0 + 1e-11))
    assert global_snr(x, loud) == 99.0
    with pytest.raises(ValueError, match="silent reference"):
        global_snr(Waveform(np.zeros(10)), Waveform(np.ones(10)))
    with pytest.raises(ValueError, match="length mismatch"):
        global_snr(x, Waveform(np.ones(10)))


def test_global_snr_matches_frozen_random_case():
    rng = np.random.default_rng(42)
    ref = rng.standard_normal(360) * 0.3
    deg = ref + rng.standard_normal(360) * 0.05
    got = global_snr(Waveform(ref), Waveform(deg))
    assert_allclose(got, 14.929179175660078, rtol=0, atol=1e-12)


def test_segmental_snr_matches_frozen_random_case():
    # three 200-sample frames at hop 80 over 360 samples; value frozen from
    # an explicit per-frame loop
    rng = np.random.default_rng(42)
    ref = rng.standard_normal(360) * 0.3
    deg = ref + rng.standard_normal(360) * 0.05
    got = segmental_snr(Waveform(ref), Waveform(deg))
    assert_allclose(got, 15.035824484195716, rtol=0, atol=1e-12)


def test_segmental_snr_clamps_per_frame():
    rng = np.random.default_rng(7)
    ref = rng.standard_normal(280)
    assert segmental_snr(Waveform(ref), Waveform(ref)) == 35.0
    junk = Waveform(ref + rng.standard_normal(280) * 100.0)
    assert segmental_snr(Waveform(ref), junk) == -10.0


def test_segmental_snr_skips_silent_frames():
    # reference is silent except inside one frame
    ref = np.zeros(360)
    ref[200:240] = 0.5
    deg = ref + 0.05
    got = segmental_snr(Waveform(ref), Waveform(deg))
    # only frames overlapping the burst count; value must be finite and
    # insensitive to the silent-frame error
    assert np.isfinite(got)
    with pytest.raises(ValueError, match="above threshold"):
        segmental_snr(Waveform(np.full(360, 1e-8)), Waveform(np.zeros(360)))


def test_segmental_snr_names_a_signal_shorter_than_one_frame():
    ref = np.random.default_rng(8).standard_normal(199)
    with pytest.raises(ValueError, match="^199 samples, shorter than one 200-sample"):
        segmental_snr(Waveform(ref), Waveform(ref))
    assert segmental_snr(Waveform(ref[:1].repeat(200)), Waveform(ref[:1].repeat(200))) == 35.0


# ---------------------------------------------------------------------------
# LSD
# ---------------------------------------------------------------------------


def test_lsd_zero_for_identical():
    rng = np.random.default_rng(3)
    l = LpsSequence(rng.standard_normal((5, 9)))
    assert log_spectral_distance(l, l) == 0.0


def test_lsd_constant_gap_hand_case():
    # constant natural-log gap d over every bin -> (10/ln 10)*|d| frozen
    base = LpsSequence(np.zeros((4, 6)))
    shifted = LpsSequence(np.full((4, 6), 0.7))
    assert_allclose(log_spectral_distance(base, shifted),
                    3.040061373322762, rtol=0, atol=1e-12)
    assert_allclose(log_spectral_distance(shifted, base),
                    3.040061373322762, rtol=0, atol=1e-12)


def test_lsd_matches_per_frame_oracle():
    rng = np.random.default_rng(4)
    r = rng.standard_normal((7, 5))
    d = rng.standard_normal((7, 5))
    per_frame = [
        np.sqrt(np.mean(((10.0 / np.log(10.0)) * (r[t] - d[t])) ** 2))
        for t in range(7)
    ]
    got = log_spectral_distance(LpsSequence(r), LpsSequence(d))
    assert_allclose(got, np.mean(per_frame), rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="shape"):
        log_spectral_distance(LpsSequence(r), LpsSequence(d[:-1]))


# ---------------------------------------------------------------------------
# spectrogram images
# ---------------------------------------------------------------------------


def parse_pgm(data: bytes):
    magic, dims, maxval, rest = data.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    assert magic == b"P5" and maxval == b"255"
    pixels = np.frombuffer(rest, dtype=np.uint8).reshape(h, w)
    return w, h, pixels


def test_spectrogram_image_matches_independent_mapping():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(90)
    got = spectrogram_image_bytes(Waveform(x), TINY)

    mags = np.abs(naive_stft(x, 16, 8, 16))
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mags)
    lo = db.max() - 80.0
    scaled = np.clip((db - lo) / 80.0, 0.0, 1.0) * 255.0
    pixels = np.rint(scaled).astype(np.uint8).T[::-1]
    header = f"P5\n{mags.shape[0]} {mags.shape[1]}\n255\n".encode()
    assert got == header + pixels.tobytes()


def test_spectrogram_image_geometry():
    x = synth_voice(6, 960)
    w, h, pixels = parse_pgm(spectrogram_image_bytes(Waveform(x), TINY))
    assert (w, h) == (TINY.num_frames(960), 9)
    assert pixels.max() == 255  # the maximum always maps to full scale


def test_spectrogram_tone_brightest_at_tone_row():
    # 2 kHz tone at fs 8000 under a 16-point DFT lands in bin 4; with the
    # top row being the highest frequency (bin 8), that is image row 4
    t = np.arange(800) / 8000.0
    x = 0.5 * np.sin(2 * np.pi * 2000.0 * t)
    _, h, pixels = parse_pgm(spectrogram_image_bytes(Waveform(x), TINY))
    row_energy = pixels.astype(int).sum(axis=1)
    assert int(np.argmax(row_energy)) == 4


def test_spectrogram_all_zero_signal():
    _, _, pixels = parse_pgm(spectrogram_image_bytes(Waveform(np.zeros(200)), TINY))
    assert pixels.max() == 0


def test_emit_spectrogram_image(tmp_path):
    x = synth_voice(7, 800)
    p = tmp_path / "spec.pgm"
    emit_spectrogram_image(Waveform(x), p, TINY)
    assert p.read_bytes() == spectrogram_image_bytes(Waveform(x), TINY)
