import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rtsn.corpus import NormStats, compute_norm_stats, normalize
from rtsn.dsp import StftConfig, Waveform, decompose, lps_from_magnitude, stft
from rtsn.model import ChunkData, RtsnConfig, forward_chunk, gather_index, init_params
from rtsn.trainer import (
    Chunk,
    EarlyStopper,
    TrainConfig,
    UtteranceData,
    evaluate,
    make_chunks,
    prepare_utterance,
    sequence_loss,
    train,
)

from helpers import evaluate_pri, synth_noise, synth_voice

TINY_STFT = StftConfig(frame_len=16, hop=8, fft_size=16)
TINY = RtsnConfig(lookahead=1, n_bins=9, lstm_layers=2, lstm_units=8,
                  conv_kernel=3, conv_channels=(4, 3, 2, 1), gla_iters=3)


def tiny_params(seed=0):
    return init_params(TINY, TINY_STFT, NormStats(np.zeros(9), np.ones(9)),
                       seed=seed, dtype=np.float64)


def lps_of(samples):
    spec = stft(Waveform(samples), TINY_STFT)
    return lps_from_magnitude(decompose(spec)[0])


def make_utts(n, num_samples=1200, seed0=0, dtype=np.float64):
    """Tiny normalized (noisy, clean) utterances for loop tests."""
    cleans = [synth_voice(seed0 + i, num_samples) for i in range(n)]
    noisys = [c + synth_noise(seed0 + 50 + i, num_samples) for i, c in enumerate(cleans)]
    stats = compute_norm_stats(lps_of(x) for x in noisys)
    out = []
    for c, x in zip(cleans, noisys):
        out.append(prepare_utterance(
            normalize(lps_of(x), stats).values,
            normalize(lps_of(c), stats).values,
            TINY.lookahead, dtype,
        ))
    return out


# ---------------------------------------------------------------------------
# chunking and stopping
# ---------------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError, match="unroll_steps"):
        TrainConfig(unroll_steps=0)
    with pytest.raises(ValueError, match="utterances_per_batch"):
        TrainConfig(utterances_per_batch=0)
    with pytest.raises(ValueError, match="patience"):
        TrainConfig(patience=0)
    with pytest.raises(ValueError, match="max_epochs"):
        TrainConfig(max_epochs=0)
    for bad in (-1e-4, math.inf, math.nan):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=bad)


def test_make_chunks():
    assert make_chunks(130, 64) == [
        Chunk(0, 64, 64), Chunk(64, 64, 64), Chunk(128, 64, 2),
    ]
    assert make_chunks(64, 64) == [Chunk(0, 64, 64)]
    assert make_chunks(1, 64) == [Chunk(0, 64, 1)]
    with pytest.raises(ValueError, match="num_frames"):
        make_chunks(0, 64)


def test_early_stopper_scripted():
    s = EarlyStopper(patience=3)
    assert s.update(5.0) == (True, False)
    assert s.update(4.0) == (True, False)
    assert s.update(4.0) == (False, False)   # ties are not improvements
    assert s.update(4.5) == (False, False)
    assert s.update(3.9) == (True, False)
    assert s.update(4.0) == (False, False)
    assert s.update(4.0) == (False, False)
    assert s.update(4.0) == (False, True)


# ---------------------------------------------------------------------------
# utterance preparation
# ---------------------------------------------------------------------------


def test_prepare_utterance_shapes():
    rng = np.random.default_rng(0)
    noisy = rng.standard_normal((12, 9))
    clean = rng.standard_normal((12, 9))
    utt = prepare_utterance(noisy, clean, lookahead=1, dtype=np.float64)
    assert utt.windows.shape == (12, 18)
    assert utt.noisy_ctx.shape == (12, 3, 9)
    assert utt.clean_frame.shape == (12, 9)
    assert utt.clean_stack.shape == (12, 3, 9)
    assert utt.num_frames == 12
    with pytest.raises(ValueError, match="shapes differ"):
        prepare_utterance(noisy, clean[:-1], 1)


def test_padded_chunk_loss_ignores_padding_contents():
    # once the gather index is clamped to the valid region and the mask is
    # zero beyond it, the loss cannot depend on what sits in padded steps
    params = tiny_params()
    rng = np.random.default_rng(1)
    size, valid, n = 6, 2, 9
    r = TINY.stack_rows

    def data_with_padding(filler):
        windows = rng.standard_normal((1, size, TINY.pri_input_dim))
        ctx = rng.standard_normal((1, size, r, n))
        frame = rng.standard_normal((1, size, n))
        stack = rng.standard_normal((1, size, r, n))
        for arr in (windows, ctx, frame, stack):
            arr[:, valid:] = filler(arr[:, valid:].shape)
        mask = np.zeros((1, size))
        mask[:, :valid] = 1.0
        return ChunkData(
            windows=windows, noisy_ctx=ctx,
            gather_idx=gather_index(size, TINY.lookahead, valid=valid)[None],
            clean_frame=frame, clean_stack=stack, mask=mask,
        )

    rng = np.random.default_rng(1)
    a = data_with_padding(lambda s: np.zeros(s))
    rng = np.random.default_rng(1)
    b = data_with_padding(lambda s: np.full(s, 1e9))
    la = forward_chunk(params, a).loss.total.item()
    lb = forward_chunk(params, b).loss.total.item()
    assert la == lb


def test_evaluate_is_frame_weighted():
    params = tiny_params()
    utts = make_utts(2, 800) + make_utts(1, 2000, seed0=7)
    losses = [sequence_loss(params, u) for u in utts]
    want = sum(l * n for l, n in losses) / sum(n for _, n in losses)
    assert_allclose(evaluate(params, utts), want, rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="no frames"):
        evaluate(params, [])


def test_evaluate_pri_is_unweighted_stack_error():
    # prior_weight must not scale the reported prior error
    params = tiny_params()
    utts = make_utts(1, 900)
    heavier = init_params(
        RtsnConfig(lookahead=1, prior_weight=99.0, n_bins=9, lstm_layers=2,
                   lstm_units=8, conv_kernel=3, conv_channels=(4, 3, 2, 1),
                   gla_iters=3),
        TINY_STFT, NormStats(np.zeros(9), np.ones(9)), seed=0, dtype=np.float64,
    )
    assert_allclose(evaluate_pri(params, utts), evaluate_pri(heavier, utts),
                    rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_learns_and_is_deterministic():
    cfg = TrainConfig(unroll_steps=16, utterances_per_batch=4,
                      learning_rate=3e-3, max_epochs=4, patience=5, seed=0)

    def run():
        params = tiny_params()
        utts = make_utts(4, 1200)
        return train(params, (utts[:3], utts[3:]), cfg)

    a = run()
    b = run()
    assert [r.train_loss for r in a.log] == [r.train_loss for r in b.log]
    assert [r.val_loss for r in a.log] == [r.val_loss for r in b.log]
    assert a.log[-1].train_loss < a.log[0].train_loss
    assert a.best_epoch >= 1
    for (_, x), (_, y) in zip(a.params.named_tensors(), b.params.named_tensors()):
        assert np.array_equal(x.data, y.data)


def test_train_returns_best_epoch_snapshot():
    cfg = TrainConfig(unroll_steps=16, utterances_per_batch=4,
                      learning_rate=3e-3, max_epochs=3, patience=5, seed=1)
    params = tiny_params()
    utts = make_utts(4, 1200, seed0=20)
    result = train(params, (utts[:3], utts[3:]), cfg)
    vals = [r.val_loss for r in result.log]
    assert result.best_epoch == int(np.argmin(vals)) + 1
    # the snapshot reproduces the recorded best validation loss exactly
    assert evaluate(result.params, utts[3:]) == vals[result.best_epoch - 1]


def test_train_early_stops_when_flat():
    # zero learning rate never improves after epoch 1, so training stops
    # after exactly patience extra epochs
    cfg = TrainConfig(unroll_steps=16, utterances_per_batch=2,
                      learning_rate=0.0, max_epochs=50, patience=2, seed=0)
    params = tiny_params()
    utts = make_utts(3, 800)
    result = train(params, (utts[:2], utts[2:]), cfg)
    assert len(result.log) == 3
    assert result.best_epoch == 1


def test_train_rejects_empty_sets():
    cfg = TrainConfig(max_epochs=1)
    params = tiny_params()
    utts = make_utts(2, 800)
    with pytest.raises(ValueError, match="at least one"):
        train(params, (utts, []), cfg)
    with pytest.raises(ValueError, match="at least one"):
        train(params, ([], utts), cfg)


def test_train_rejects_non_finite_inputs():
    cfg = TrainConfig(unroll_steps=16, utterances_per_batch=2, max_epochs=1)
    utts = make_utts(2, 800)
    utts[0].windows[3, 0] = np.nan
    with pytest.raises(FloatingPointError,
                       match="^epoch 1 step 1: non-finite values in tensor windows$"):
        train(tiny_params(), (utts[:1], utts[1:]), cfg)
    with pytest.raises(FloatingPointError,
                       match="^epoch 1 validation: non-finite values in tensor windows$"):
        train(tiny_params(), (utts[1:], utts[:1]), cfg)
    utts[0].windows[3, 0] = 0.0
    utts[0].noisy_ctx[3, 0, 0] = np.inf
    with pytest.raises(FloatingPointError, match="^epoch 1 step 1: .* tensor noisy_ctx$"):
        train(tiny_params(), (utts[:1], utts[1:]), cfg)


def test_train_from_corpus(tmp_path):
    from rtsn.corpus import build_corpus, write_wav

    for i in range(3):
        write_wav(tmp_path / f"sp{i}.wav", Waveform(synth_voice(30 + i, 2000)))
    write_wav(tmp_path / "noise.wav", Waveform(synth_noise(31, 6000)))
    lines = [f"sp{i}.wav,noise.wav,{snr},{i},mix{i}_{int(snr)}.wav"
             for i in range(3) for snr in (0.0, 5.0)]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    corpus = build_corpus(manifest, TINY_STFT, seed=0, out_dir=tmp_path)

    params = init_params(TINY, TINY_STFT, corpus.stats, seed=0, dtype=np.float64)
    cfg = TrainConfig(unroll_steps=16, utterances_per_batch=4,
                      learning_rate=3e-3, max_epochs=2, patience=5, seed=0)
    result = train(params, corpus, cfg)
    assert len(result.log) == 2
    assert all(np.isfinite(r.val_loss) for r in result.log)
    assert result.log[1].train_loss < result.log[0].train_loss
