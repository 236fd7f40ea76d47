"""Acceptance gate: eleven numbered end-to-end guarantees.

Each test prints one pass/fail line on the real terminal (capture disabled
for that line only), so a plain pytest run yields a criterion scoreboard.
Runtime budgets are asserted where a guarantee includes one.
"""
import time

import numpy as np
import pytest

from rtsn import neural as nn
from rtsn import cli
from rtsn.corpus import (
    compute_norm_stats,
    mix_with_reference,
    normalize,
    write_wav,
)
from rtsn.dsp import StftConfig, Waveform, decompose, istft, lps_from_magnitude, stft
from rtsn.evalkit import global_snr, log_spectral_distance
from rtsn.gla import GlaConfig, griffin_lim
from rtsn.model import (
    ChunkData,
    RtsnConfig,
    count_parameters,
    enhance_utterance,
    forward_chunk,
    init_params,
)
from rtsn.trainer import TrainConfig, UtteranceData, train

from helpers import evaluate_pri, gather_mbps, rel_err, synth_noise, synth_voice, unit_stats

RATE = 8000
DEFAULT_STFT = StftConfig()
TINY_STFT = StftConfig(frame_len=16, hop=8, fft_size=16)
TINY = RtsnConfig(lookahead=1, n_bins=9, lstm_units=8, lstm_layers=2,
                  conv_kernel=3, conv_channels=(4, 3, 2, 1), gla_iters=3)


def report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


# ---------------------------------------------------------------------------
# 1. analysis-synthesis round trip
# ---------------------------------------------------------------------------


def test_01_stft_round_trip(capsys):
    x = np.random.default_rng(0).standard_normal(RATE)
    t0 = time.perf_counter()
    rec = istft(stft(Waveform(x), DEFAULT_STFT))
    elapsed = time.perf_counter() - t0
    pad = DEFAULT_STFT.frame_len
    err = float(np.max(np.abs(rec.samples[pad:-pad] - x[pad:-pad])))
    report(capsys, 1, "analysis-synthesis round trip",
           err < 1e-10 and elapsed < 1.0,
           f"interior err {err:.3e}, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. analytic gradients match finite differences on the whole model
# ---------------------------------------------------------------------------


def random_chunk(cfg, batch, steps, seed):
    rng = np.random.default_rng(seed)
    shape = (batch, steps, cfg.stack_rows, cfg.n_bins)
    return ChunkData(rng.standard_normal(shape), rng.standard_normal(shape),
                     np.full(batch, steps))


def test_02_gradient_suite(capsys):
    t0 = time.perf_counter()
    eps = 1e-5
    worst = 0.0
    for seed in (0, 1, 2):
        params = init_params(TINY, TINY_STFT, unit_stats(9), seed=seed, dtype=np.float64)
        data = random_chunk(TINY, 1, 4, seed=100 + seed)
        names = list(params.tensors.items())
        loss = forward_chunk(params, data).loss.total
        analytic = nn.grads_for(loss, [t for _, t in names])

        def loss_value():
            return float(forward_chunk(params, data).loss.total.data)

        for (name, tensor), grad in zip(names, analytic):
            flat = tensor.data.reshape(-1)
            gflat = grad.reshape(-1)
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + eps
                hi = loss_value()
                flat[j] = keep - eps
                lo = loss_value()
                flat[j] = keep
                numeric = (hi - lo) / (2 * eps)
                worst = max(worst, rel_err(gflat[j], numeric))
    elapsed = time.perf_counter() - t0
    report(capsys, 2, "gradients match central differences, all tensors, 3 seeds",
           worst < 1e-4 and elapsed < 30.0,
           f"worst rel err {worst:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. base-prediction gathering matches an exhaustive scan
# ---------------------------------------------------------------------------


def test_03_base_prediction_gather(capsys):
    steps, tau = 12, 2
    rows = 2 * tau + 1
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((steps, rows, 5))
    ok = True
    for t in range(steps):
        got = gather_mbps(stack, t)
        ok = ok and got.shape == (rows, 5)
        for m in range(-tau, tau + 1):
            # scan every (step, offset) pair for emissions aimed at frame t;
            # off-range targets fall back to the nearest emitted step
            hits = [stack[s, m + tau] for s in range(steps) if s + m == t]
            expect = hits[0] if hits else stack[min(max(t - m, 0), steps - 1), m + tau]
            ok = ok and np.array_equal(got[m + tau], expect)
    report(capsys, 3, "gathered base predictions equal exhaustive scan", ok)


# ---------------------------------------------------------------------------
# 4. aggregation input channel count
# ---------------------------------------------------------------------------


def test_04_posterior_channel_count(capsys):
    c1 = RtsnConfig(lookahead=1).posterior_channels
    c4 = RtsnConfig(lookahead=4).posterior_channels
    report(capsys, 4, "aggregation channels: 12 at lookahead 1, 90 at 4",
           (c1, c4) == (12, 90), f"got {c1}, {c4}")


# ---------------------------------------------------------------------------
# 5. default model size
# ---------------------------------------------------------------------------


def test_05_parameter_count(capsys):
    n = count_parameters(init_params(RtsnConfig(), DEFAULT_STFT, unit_stats(129)))
    ok = abs(n - 5.12e6) <= 0.1 * 5.12e6
    report(capsys, 5, "default parameter count within 10% of 5.12e6",
           ok, f"count {n}")


# ---------------------------------------------------------------------------
# 6. mixture gain accuracy
# ---------------------------------------------------------------------------


def test_06_mixing_accuracy(capsys):
    rng = np.random.default_rng(6)
    worst = 0.0
    for i in range(100):
        target = -5.0 if i == 0 else 20.0 if i == 1 else rng.uniform(-5.0, 20.0)
        speech = Waveform(synth_voice(i, int(rng.integers(2000, 6000))))
        noise = Waveform(synth_noise(1000 + i, int(rng.integers(7000, 12000))))
        mix, clean = mix_with_reference(speech, noise, target, i)
        err = mix.samples - clean.samples
        measured = 10.0 * np.log10(np.sum(clean.samples**2) / np.sum(err**2))
        worst = max(worst, abs(measured - target))
    report(capsys, 6, "measured mixture SNR within 1e-6 dB of target, 100 cases",
           worst < 1e-6, f"worst {worst:.3e} dB")


# ---------------------------------------------------------------------------
# 7 + 8. phase reconstruction behavior
# ---------------------------------------------------------------------------


def oracle_case(seed, snr_db):
    """Clean magnitude with mixture phase at a given mixing level."""
    clean = Waveform(synth_voice(seed, RATE))
    noise = Waveform(synth_noise(seed + 100, 12000))
    noisy, clean_ref = mix_with_reference(clean, noise, snr_db, seed)
    magnitude = decompose(stft(clean_ref, DEFAULT_STFT))[0]
    phase = decompose(stft(noisy, DEFAULT_STFT))[1]
    return magnitude, phase, clean_ref


def distance_track(magnitude, phase, iters, orig_len):
    dists = []

    def cb(_i, w):
        m = decompose(stft(w, DEFAULT_STFT))[0]
        dists.append(float(np.linalg.norm(m - magnitude)))

    griffin_lim(magnitude, phase, GlaConfig(iters, DEFAULT_STFT), orig_len, cb)
    return dists


def test_07_phase_reconstruction_monotone(capsys):
    ok = True
    detail = []
    for seed, snr in zip((11, 12, 13, 14, 15), (-5.0, 0.0, 5.0, 10.0, 0.0)):
        magnitude, phase, clean_ref = oracle_case(seed, snr)
        n = clean_ref.samples.size
        d = distance_track(magnitude, phase, 5, n)
        mono = all(b <= a + 1e-9 for a, b in zip(d, d[1:]))
        dz = distance_track(magnitude, np.zeros_like(phase), 5, n)
        init_ok = d[-1] <= dz[-1] + 1e-9
        ok = ok and mono and init_ok
        detail.append(f"snr {snr}: mono={mono} noisy d5 {d[-1]:.3f} zero d5 {dz[-1]:.3f}")
    report(capsys, 7, "iterates approach target magnitude; noisy phase start wins",
           ok, "; ".join(detail))


def test_08_phase_iterations_raise_snr(capsys):
    wins = 0
    detail = []
    for seed in (21, 22, 23, 24, 25):
        magnitude, phase, clean_ref = oracle_case(seed, 0.0)
        n = clean_ref.samples.size
        k1 = griffin_lim(magnitude, phase, GlaConfig(1, DEFAULT_STFT), n)
        k5 = griffin_lim(magnitude, phase, GlaConfig(5, DEFAULT_STFT), n)
        s1, s5 = global_snr(clean_ref, k1), global_snr(clean_ref, k5)
        wins += s5 > s1
        detail.append(f"{s1:.2f}->{s5:.2f} dB")
    report(capsys, 8, "5 phase iterations beat 1 on at least 4 of 5 cases",
           wins >= 4, "; ".join(detail))


# ---------------------------------------------------------------------------
# 9 + 10. toy training set
# ---------------------------------------------------------------------------


def tone_complex(seed, num_samples):
    """Steady tone complex on analysis-bin centers inside 500..3000 Hz."""
    rng = np.random.default_rng(seed)
    bins = rng.choice(np.arange(1, 7), size=int(rng.integers(2, 5)), replace=False)
    t = np.arange(num_samples) / RATE
    x = np.zeros(num_samples)
    for k in bins:
        x += rng.uniform(0.4, 1.0) * np.sin(
            2 * np.pi * (500.0 * k) * t + rng.uniform(0, 2 * np.pi)
        )
    return 0.5 * x / np.max(np.abs(x))


def lps_of(w):
    return lps_from_magnitude(decompose(stft(w, TINY_STFT))[0])


def toy_setup(num_samples, seed):
    """Ten 0 dB mixtures, shared input statistics, prepared training rows."""
    raw = []
    for i in range(10):
        clean = Waveform(tone_complex(i, num_samples))
        noise = Waveform(synth_noise(60 + i, num_samples + 3000))
        raw.append(mix_with_reference(clean, noise, 0.0, i))
    stats = compute_norm_stats(lps_of(noisy) for noisy, _ in raw)
    utts = [
        UtteranceData(normalize(lps_of(noisy), stats).values,
                      normalize(lps_of(clean), stats).values)
        for noisy, clean in raw
    ]
    return raw, stats, utts


def toy_train(prior_weight, seed, num_samples, epochs, lr=3e-3):
    raw, stats, utts = toy_setup(num_samples, seed)
    config = RtsnConfig(
        lookahead=TINY.lookahead, prior_weight=prior_weight, n_bins=TINY.n_bins,
        lstm_units=TINY.lstm_units, lstm_layers=TINY.lstm_layers,
        conv_kernel=TINY.conv_kernel, conv_channels=TINY.conv_channels,
        gla_iters=TINY.gla_iters,
    )
    params = init_params(config, TINY_STFT, stats, seed=seed, dtype=np.float64)
    train_config = TrainConfig(unroll_steps=64, utterances_per_batch=4,
                               learning_rate=lr, max_epochs=epochs,
                               patience=epochs, seed=seed)
    return raw, utts, train(params, (utts, utts), train_config)


@pytest.mark.slow
def test_09_toy_training_converges(capsys):
    t0 = time.perf_counter()
    raw, _, result = toy_train(prior_weight=10.0, seed=0, num_samples=3200,
                               epochs=150)
    # Convergence is judged on the returned snapshot: the best validation
    # loss (every validation utterance evaluated whole) over epoch 1's.  The
    # last epoch's lane-sampled train loss swings several-fold from epoch
    # to epoch, so its ratio would turn on summation order.
    val = [e.val_loss for e in result.log]
    ratio = min(val) / val[0]
    lsd_noisy, lsd_enh = [], []
    for noisy, clean in raw:
        enhanced, _ = enhance_utterance(result.params, noisy)
        lsd_enh.append(log_spectral_distance(lps_of(clean), lps_of(enhanced)))
        lsd_noisy.append(log_spectral_distance(lps_of(clean), lps_of(noisy)))
    elapsed = time.perf_counter() - t0
    ok = (len(result.log) <= 200 and ratio < 0.1 and elapsed < 600.0
          and np.mean(lsd_enh) < np.mean(lsd_noisy))
    report(capsys, 9, "toy training: best validation loss below 10% of epoch 1, "
           "distortion drops",
           ok,
           f"ratio {ratio:.4f}, epochs {len(result.log)}, {elapsed:.0f}s, "
           f"LSD {np.mean(lsd_noisy):.2f} -> {np.mean(lsd_enh):.2f}")


@pytest.mark.slow
def test_10_prior_weight_ablation(capsys):
    ok = True
    detail = []
    for seed in (0, 1, 2):
        _, utts, with_prior = toy_train(prior_weight=10.0, seed=seed,
                                        num_samples=1600, epochs=60)
        _, _, without = toy_train(prior_weight=0.0, seed=seed,
                                  num_samples=1600, epochs=60)
        a = evaluate_pri(with_prior.params, utts)
        b = evaluate_pri(without.params, utts)
        ok = ok and a < b
        detail.append(f"seed {seed}: {a:.1f} vs {b:.1f}")
    report(capsys, 10, "prior branch error lower when its loss term is on, 3 seeds",
           ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 11. bit-identical reruns
# ---------------------------------------------------------------------------


PIPELINE_CFG = """\
frame_len = 16
hop = 8
fft_size = 16
lookahead = 1
lstm_units = 8
conv_kernel = 3
conv_channels = 4,3,2,1
gla_iters = 3
learning_rate = 0.003
max_epochs = 2
unroll_steps = 16
utterances_per_batch = 4
"""


def run_pipeline(root, capsys):
    """Every command once with fixed seeds; returns artifact bytes + stdout."""
    for i in range(3):
        write_wav(root / f"sp{i}.wav", Waveform(synth_voice(40 + i, 2400)))
    write_wav(root / "noise.wav", Waveform(synth_noise(41, RATE)))
    lines = [f"sp{i}.wav,noise.wav,{snr},{i * 3 + int(snr)},mix_{i}_{int(snr)}.wav"
             for i in range(3) for snr in (0, 5)]
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    (root / "train.cfg").write_text(PIPELINE_CFG)

    # statistics for the default analysis setup land in their own directory
    # so training under the tiny setup builds its own 9-bin statistics
    (root / "bc").mkdir()
    text = []
    for argv in (
        ["mix", "--speech", root / "sp0.wav", "--noise", root / "noise.wav",
         "--snr", "5", "--seed", "7", "--out", root / "extra.wav"],
        ["build-corpus", "--manifest", root / "manifest.csv", "--seed", "0",
         "--out-dir", root / "bc"],
        ["train", "--manifest", root / "manifest.csv", "--config",
         root / "train.cfg", "--out", root / "model.ckpt", "--seed", "0"],
        ["enhance", "--model", root / "model.ckpt", "--in", root / "mix_0_0.wav",
         "--out", root / "enh.wav"],
        ["eval", "--ref", root / "mix_0_0_clean.wav", "--deg", root / "enh.wav"],
        ["spectrogram", "--in", root / "enh.wav", "--out", root / "enh.pgm"],
    ):
        assert cli.main([str(a) for a in argv]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        text.append(out.replace(str(root), "<root>"))

    names = sorted(str(p.relative_to(root)) for p in root.rglob("*")
                   if p.suffix in (".wav", ".txt", ".csv", ".ckpt", ".pgm"))
    blobs = {n: (root / n).read_bytes() for n in names}
    return blobs, text


def test_11_reruns_are_bit_identical(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    blobs_a, text_a = run_pipeline(tmp_path / "a", capsys)
    blobs_b, text_b = run_pipeline(tmp_path / "b", capsys)
    same_names = set(blobs_a) == set(blobs_b)
    diff = [n for n in blobs_a if same_names and blobs_a[n] != blobs_b[n]]
    ok = same_names and not diff and text_a == text_b
    report(capsys, 11, "commands rerun with one seed give identical bytes",
           ok, f"differing artifacts: {diff}")
