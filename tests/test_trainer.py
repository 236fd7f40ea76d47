import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rtsn.corpus import NormStats, compute_norm_stats, normalize, read_wav, write_wav
from rtsn.dsp import StftConfig, Waveform, decompose, lps_from_magnitude, stft
from rtsn.model import ChunkData, RtsnConfig, chunk_from_frames, forward_chunk, init_params
import rtsn.neural as nn
from rtsn import trainer
from rtsn.trainer import (
    EarlyStopper,
    TrainConfig,
    UtteranceData,
    evaluate,
    load_utterances,
    sequence_loss,
    train,
)

from helpers import (evaluate_pri, frame_stack, stacked_chunk, synth_noise, synth_voice,
                     unit_stats)

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
        out.append(UtteranceData(normalize(lps_of(x), stats).values.astype(dtype),
                                 normalize(lps_of(c), stats).values.astype(dtype)))
    return out


# ---------------------------------------------------------------------------
# configuration and stopping
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


def write_pair(root, noisy_samples=1200, clean_samples=1200, seed=0):
    """A noisy and a clean WAV under root: their (noisy, clean) paths."""
    clean = synth_voice(seed, max(noisy_samples, clean_samples))
    paths = (str(root / f"noisy{seed}.wav"), str(root / f"clean{seed}.wav"))
    write_wav(paths[0], Waveform((clean + synth_noise(seed + 50, clean.size))[:noisy_samples]))
    write_wav(paths[1], Waveform(clean[:clean_samples]))
    return paths


def test_prepare_utterance_shapes(tmp_path):
    # an utterance holds its normalized frames in the asked dtype
    stats = NormStats(np.full(9, -2.0), np.full(9, 3.0))
    pair = write_pair(tmp_path)
    for dtype in (np.float64, np.float32):
        (utt,) = load_utterances([pair], TINY_STFT, stats, TINY.lookahead, dtype)
        assert utt.num_frames == TINY_STFT.num_frames(1200)
        for got, path in zip((utt.noisy, utt.clean), pair):
            want = normalize(lps_of(read_wav(path).samples), stats).values.astype(dtype)
            assert got.dtype == dtype and np.array_equal(got, want)
    uneven = write_pair(tmp_path, 1200, 1272, seed=2)
    with pytest.raises(ValueError, match=r"frame shapes differ: \(151, 9\) vs \(160, 9\)$"):
        load_utterances([uneven], TINY_STFT, stats, TINY.lookahead)


def test_load_utterances_holds_two_frame_arrays(tmp_path):
    # no stacks: at most 2 T N itemsize bytes per utterance, where storing
    # both frame stacks held 2 (2 lookahead + 1) times that
    stats = NormStats(np.zeros(9), np.ones(9))
    pairs = [write_pair(tmp_path, n, n, seed=i) for i, n in enumerate((800, 1200, 2000))]
    for dtype in (np.float32, np.float64):
        utts = load_utterances(pairs, TINY_STFT, stats, 4, dtype)
        for utt in utts:
            held = sum(v.nbytes for v in vars(utt).values() if isinstance(v, np.ndarray))
            assert held <= 2 * utt.num_frames * 9 * np.dtype(dtype).itemsize


@pytest.mark.parametrize("noisy_samples, clean_samples, message", [
    (5, 1200, "{noisy}: signal too short to reflect-pad: 5 < 9 samples"),
    (1200, 7, "{clean}: signal too short to reflect-pad: 7 < 9 samples"),
    (1200, 1280, "{noisy}, {clean}: noisy/clean frame shapes differ: (151, 9) vs (161, 9)"),
], ids=["short_noisy", "short_clean", "frames_differ"])
def test_load_utterances_names_the_file(tmp_path, noisy_samples, clean_samples, message):
    noisy, clean = write_pair(tmp_path, noisy_samples, clean_samples)
    stats = NormStats(np.zeros(9), np.ones(9))
    with pytest.raises(ValueError) as err:
        load_utterances([write_pair(tmp_path, seed=1), (noisy, clean)], TINY_STFT,
                        stats, TINY.lookahead)
    assert str(err.value) == message.format(noisy=noisy, clean=clean)


def test_padded_chunk_loss_ignores_padding_contents():
    # once the gather index is clamped to the valid region and the mask is
    # zero beyond it, the loss cannot depend on what sits in padded steps
    params = tiny_params()
    rng = np.random.default_rng(1)
    size, valid, n = 6, 2, 9
    r = TINY.stack_rows

    def data_with_padding(filler):
        ctx = rng.standard_normal((1, size, r, n))
        stack = rng.standard_normal((1, size, r, n))
        for arr in (ctx, stack):
            arr[:, valid:] = filler(arr[:, valid:].shape)
        return ChunkData(ctx, stack, np.array([valid]))

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


@pytest.mark.parametrize("frames", [1, 4, 150])
def test_validation_chunk_matches_stacked_layout(monkeypatch, frames):
    # sequence_loss runs the stored-stack layout's whole-utterance chunk,
    # and its loss is byte-equal to a forward over the stacks with every
    # step valid, as validation ran before chunk_from_frames.
    cfg = replace(TINY, lookahead=4)
    params = init_params(cfg, TINY_STFT, unit_stats(9), seed=1, dtype=np.float32)
    rng = np.random.default_rng(frames)
    utt = UtteranceData(*rng.standard_normal((2, frames, 9)).astype(np.float32))
    seen = []
    real = trainer.forward_chunk

    def spy(params, data, state=None):
        seen.append(data)
        return real(params, data, state)

    monkeypatch.setattr(trainer, "forward_chunk", spy)
    loss, count = sequence_loss(params, utt)
    (data,) = seen
    want = stacked_chunk([utt.noisy], [utt.clean], [0], frames, cfg.lookahead)
    assert np.array_equal(data.noisy_ctx, want.noisy_ctx)
    assert np.array_equal(data.clean_stack, want.clean_stack)
    assert np.array_equal(data.valid, want.valid)
    stored = ChunkData(frame_stack(utt.noisy, cfg.lookahead)[None],
                       frame_stack(utt.clean, cfg.lookahead)[None], np.full(1, frames))
    assert (loss, count) == (real(params.frozen(), stored).loss.total.item(), frames)


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
    for x, y in zip(a.params.tensors.values(), b.params.tensors.values()):
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_rejects_non_finite_inputs():
    # frames are checked once, as they enter, before any step
    cfg = TrainConfig(unroll_steps=16, utterances_per_batch=2, max_epochs=1)
    utts = make_utts(3, 800)
    utts[0].noisy[3, 0] = np.nan
    utts[2].clean[5, 1] = -np.inf
    with pytest.raises(ValueError, match="^training utterance 0 has non-finite frames$"):
        train(tiny_params(), (utts[:2], utts[1:2]), cfg)
    with pytest.raises(ValueError, match="^validation utterance 1 has non-finite frames$"):
        train(tiny_params(), (utts[1:2], utts[1:]), cfg)
    # a chunk whose context alone is non-finite makes the loss non-finite,
    # and grads_for names the op that reads the context
    utts[0].noisy[3, 0] = 0.0
    data = chunk_from_frames([utts[0].noisy], [utts[0].clean], [0], 16, TINY.lookahead)
    data.noisy_ctx[0, 3, 0, 0] = np.inf  # frame 2 in step 3's context only
    params = tiny_params()
    loss = forward_chunk(params, data).loss.total
    with pytest.raises(FloatingPointError,
                       match="^non-finite values in tensor gather_steps$"):
        nn.grads_for(loss, list(params.tensors.values()))


def test_train_names_the_step_of_a_non_finite_gradient_or_validation_loss(monkeypatch):
    cfg = TrainConfig(unroll_steps=16, utterances_per_batch=2, max_epochs=2)
    utts = make_utts(2, 800)
    with monkeypatch.context() as m:
        m.setattr(trainer, "evaluate", lambda params, val: math.nan)
        with pytest.raises(FloatingPointError,
                           match="^epoch 1 validation: non-finite loss$"):
            train(tiny_params(), (utts[:1], utts[1:]), cfg)
    real = nn.grads_for

    def poisoned(loss, params):
        grads = real(loss, params)
        grads[3] = grads[3] * np.nan
        return grads

    monkeypatch.setattr(nn, "grads_for", poisoned)
    with pytest.raises(FloatingPointError, match="^epoch 1 step 1: non-finite gradient "
                                                 "for parameter lstm1.w_in$"):
        train(tiny_params(), (utts[:1], utts[1:]), cfg)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("weight, op", [(1e30, "stack_loss"), (1e38, "linear")])
def test_default_step_names_the_op_that_overflowed(weight, op):
    # a default-sized step: 1e38 projection weights overflow the projection
    # itself, 1e30 ones only the squared error in the loss
    rng = np.random.default_rng(0)
    params = init_params(RtsnConfig(), StftConfig(), NormStats(np.zeros(129), np.ones(129)))
    params.tensors["proj.weight"].data[...] = weight
    utts = [UtteranceData(*rng.standard_normal((2, 64, 129)).astype(np.float32))
            for _ in range(17)]
    with pytest.raises(FloatingPointError,
                       match=f"^epoch 1 step 1: non-finite values in tensor {op}$"):
        train(params, (utts[1:], utts[:1]), TrainConfig(max_epochs=1))


def test_lane_walks_its_utterance_by_start_frame(monkeypatch):
    # one lane over one utterance for two epochs: each step's valid count,
    # the frame its chunk starts at (found from the chunk's first step's
    # own frame) and whether the lane's LSTM state entered the step zeroed
    seen = []
    real = trainer.forward_chunk

    def spy(params, data, state=None):
        if state is not None:  # a training step, not validation
            first = data.noisy_ctx[0, 0, TINY.lookahead]
            start = [t for t in range(utt.num_frames) if np.array_equal(utt.noisy[t], first)]
            zeroed = not any(arr[0].any() for arr in state[0] + state[1])
            seen.append((int(data.valid[0]), start, zeroed))
        return real(params, data, state)

    monkeypatch.setattr(trainer, "forward_chunk", spy)
    cfg = TrainConfig(unroll_steps=64, utterances_per_batch=1, max_epochs=2, patience=5)
    rng = np.random.default_rng(5)
    for frames, valid, starts in [(130, [64, 64, 2], [0, 64, 128]), (1, [1], [0])]:
        utt = UtteranceData(rng.standard_normal((frames, 9)),
                            rng.standard_normal((frames, 9)))
        seen.clear()
        train(tiny_params(), ([utt], [utt]), cfg)
        walk = [(v, [s], s == 0) for v, s in zip(valid, starts)]
        assert seen == 2 * walk, frames


def test_train_rejects_zero_frame_utterances():
    cfg = TrainConfig(unroll_steps=16, utterances_per_batch=2, max_epochs=1)
    utts = make_utts(2, 800)
    empty = UtteranceData(np.zeros((0, 9)), np.zeros((0, 9)))
    with pytest.raises(ValueError, match="^training utterance 1 has no frames$"):
        train(tiny_params(), ([utts[0], empty], utts[1:]), cfg)
    with pytest.raises(ValueError, match="^validation utterance 0 has no frames$"):
        train(tiny_params(), (utts[:1], [empty, utts[1]]), cfg)


def test_train_step_graph_dies_before_the_next_step():
    # A step's graph and gradients must be gone before the next step's
    # forward, so a 3-step epoch peaks no higher than a 1-step one; holding
    # the previous step's graph adds a whole training graph (a third or
    # more of the 1-step peak here).
    # Slack: 5 % of the 1-step peak, for Python-level allocations.
    config = replace(TINY, conv_channels=(16, 8, 4, 1))
    unroll, lanes = 64, 8
    cfg = TrainConfig(unroll_steps=unroll, utterances_per_batch=lanes, max_epochs=1)

    def epoch_peak(steps):
        # every lane exhausts its utterance in one chunk, so steps * lanes
        # utterances of unroll frames make an epoch of `steps` steps
        rng = np.random.default_rng(0)
        utts = [UtteranceData(rng.standard_normal((unroll, 9)),
                              rng.standard_normal((unroll, 9)))
                for _ in range(steps * lanes + 1)]
        params = init_params(config, TINY_STFT, NormStats(np.zeros(9), np.ones(9)),
                             seed=0, dtype=np.float64)
        tracemalloc.start()
        try:
            train(params, (utts[1:], utts[:1]), cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = epoch_peak(1), epoch_peak(3)
    assert three <= 1.05 * one, f"3-step peak {three} vs 1-step peak {one}"


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
