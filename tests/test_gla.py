import numpy as np
import pytest
from numpy.testing import assert_allclose

from rtsn.corpus import mix_with_reference
from rtsn.dsp import StftConfig, Waveform, decompose, istft, stft
from rtsn.gla import GlaConfig, griffin_lim

from helpers import synth_noise, synth_voice

CFG = GlaConfig(iterations=5, stft=StftConfig())


def clean_mag_noisy_phase(seed, snr_db):
    """Oracle clean magnitude and mixture phase for one synthetic case."""
    clean = Waveform(synth_voice(seed, 4000))
    noise = Waveform(synth_noise(seed + 100, 9000))
    noisy, clean_ref = mix_with_reference(clean, noise, snr_db, seed)
    magnitude = decompose(stft(clean_ref, CFG.stft))[0]
    phase = decompose(stft(noisy, CFG.stft))[1]
    return magnitude, phase, noisy, clean_ref


def test_zero_iterations_equals_one():
    magnitude, phase, noisy, _ = clean_mag_noisy_phase(1, 0.0)
    zero = griffin_lim(magnitude, phase, GlaConfig(0, CFG.stft), len(noisy))
    one = griffin_lim(magnitude, phase, GlaConfig(1, CFG.stft), len(noisy))
    assert_allclose(zero.samples, one.samples, rtol=0, atol=0)


def test_zero_iterations_run_one_iterate():
    magnitude, phase, noisy, _ = clean_mag_noisy_phase(1, 0.0)
    seen = []
    out = griffin_lim(magnitude, phase, GlaConfig(0, CFG.stft), len(noisy),
                      callback=lambda i, w: seen.append((i, w.samples.copy())))
    assert [i for i, _ in seen] == [1]
    assert_allclose(out.samples, seen[0][1], rtol=0, atol=0)


def test_callback_sees_every_iterate():
    magnitude, phase, noisy, _ = clean_mag_noisy_phase(2, 5.0)
    seen = []
    out = griffin_lim(magnitude, phase, CFG, len(noisy),
                      callback=lambda i, w: seen.append((i, w.samples.copy())))
    assert [i for i, _ in seen] == [1, 2, 3, 4, 5]
    assert_allclose(out.samples, seen[-1][1], rtol=0, atol=0)


def test_iterates_move_toward_target_magnitude():
    magnitude, phase, noisy, _ = clean_mag_noisy_phase(3, 0.0)
    dists = []

    def track(i, w):
        got = np.abs(stft(w, CFG.stft).coeffs)
        dists.append(np.linalg.norm(got - magnitude))

    griffin_lim(magnitude, phase, GlaConfig(8, CFG.stft), len(noisy), callback=track)
    assert len(dists) == 8
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-9
    assert dists[-1] < dists[0]


def test_exact_phase_is_a_fixed_point():
    x = Waveform(synth_voice(4, 2000))
    magnitude, phase = decompose(stft(x, CFG.stft))
    out = griffin_lim(magnitude, phase, CFG, len(x))
    assert np.max(np.abs(out.samples - x.samples)) < 1e-10


def test_noisy_phase_init_beats_zero_phase_here():
    magnitude, phase, noisy, _ = clean_mag_noisy_phase(5, 0.0)

    def final_distance(init_phase):
        dist = []

        def track(i, w):
            if i == 5:
                got = np.abs(stft(w, CFG.stft).coeffs)
                dist.append(np.linalg.norm(got - magnitude))

        griffin_lim(magnitude, init_phase, CFG, len(noisy), callback=track)
        return dist[0]

    assert final_distance(phase) <= final_distance(np.zeros_like(phase)) + 1e-9


def test_iteration_count_validation():
    with pytest.raises(ValueError, match="iterations"):
        GlaConfig(iterations=-1)


def test_double_precision_pipeline():
    magnitude, phase, noisy, _ = clean_mag_noisy_phase(6, 10.0)
    out = griffin_lim(magnitude.astype(np.float32), phase.astype(np.float32),
                      CFG, len(noisy))
    assert out.samples.dtype == np.float64
