import hashlib
import inspect
import math
import re
import struct
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import rtsn.model
import rtsn.neural as nn
import rtsn.neural.layers as layers
from rtsn.neural.engine import _topo_order
from rtsn.corpus import NormStats
from rtsn.dsp import LpsSequence, StftConfig, Waveform
from rtsn.model import (
    POST_BLOCK_FRAMES,
    POST_BLOCK_STEPS,
    ChunkData,
    RtsnConfig,
    _prior,
    chunk_from_frames,
    count_parameters,
    enhance_lps,
    enhance_utterance,
    forward_chunk,
    init_params,
    load_checkpoint,
    save_checkpoint,
    stack_index,
    zero_state,
)
from rtsn.settings import format_settings

from helpers import (
    assemble_posterior_input,
    byte_edits,
    assemble_pri_input,
    enhance_one_block,
    frame_errors,
    frame_stack,
    gather_mbps,
    mutate,
    post_forward,
    pri_forward,
    rel_err,
    stacked_chunk,
    synth_voice,
    unit_stats,
    whole_chunk_forward,
)

TINY_STFT = StftConfig(frame_len=16, hop=8, fft_size=16)
TINY = RtsnConfig(lookahead=1, n_bins=9, lstm_layers=2, lstm_units=8,
                  conv_kernel=3, conv_channels=(4, 3, 2, 1), gla_iters=3)


def tiny_params(seed=0, dtype=np.float64):
    return init_params(TINY, TINY_STFT, unit_stats(9), seed=seed, dtype=dtype)


def random_chunk(cfg, batch, steps, seed, valid=None):
    rng = np.random.default_rng(seed)
    shape = (batch, steps, cfg.stack_rows, cfg.n_bins)
    return ChunkData(
        noisy_ctx=rng.standard_normal(shape),
        clean_stack=rng.standard_normal(shape),
        valid=np.full(batch, steps) if valid is None else np.asarray(valid),
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="lookahead"):
        RtsnConfig(lookahead=0)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="prior_weight must be finite"):
            RtsnConfig(prior_weight=bad)
    with pytest.raises(ValueError, match="conv_kernel"):
        RtsnConfig(conv_kernel=4)
    with pytest.raises(ValueError, match="end in 1"):
        RtsnConfig(conv_channels=(8, 4))
    with pytest.raises(ValueError, match="gla_iters"):
        RtsnConfig(gla_iters=-1)


def test_posterior_channel_counts():
    assert RtsnConfig(lookahead=1).posterior_channels == 12
    assert RtsnConfig(lookahead=4).posterior_channels == 90
    assert RtsnConfig(lookahead=4).stack_rows == 9
    assert RtsnConfig(lookahead=4).pri_input_dim == 5 * 129


def test_parameter_count_default_config():
    params = init_params(RtsnConfig(), StftConfig(), unit_stats(129), seed=0)
    assert count_parameters(params) == 5387146


def test_parameter_count_matches_hand_formula():
    # tiny config counted out by hand: per LSTM layer 4H*(D+H)+4H, shared
    # head (R*N)*(H+1), per conv ch_out*(ch_in*k+1)
    params = tiny_params()
    expect = (4 * 8 * (18 + 8) + 32) + (4 * 8 * (8 + 8) + 32) \
        + (3 * 9) * (8 + 1) \
        + 4 * (12 * 3 + 1) + 3 * (4 * 3 + 1) + 2 * (3 * 3 + 1) + 1 * (2 * 3 + 1)
    assert count_parameters(params) == expect == 1865


def test_init_properties():
    params = tiny_params(seed=3)
    h = TINY.lstm_units
    p = {name: t.data for name, t in params.tensors.items()}
    for i in range(TINY.lstm_layers):
        b = p[f"lstm{i}.bias"]
        assert_allclose(b[h : 2 * h], 1.0, rtol=0, atol=0)
        assert_allclose(b[:h], 0.0, rtol=0, atol=0)
        assert_allclose(b[2 * h :], 0.0, rtol=0, atol=0)
        d = p[f"lstm{i}.w_in"].shape[1]
        assert np.max(np.abs(p[f"lstm{i}.w_in"])) <= 1.0 / np.sqrt(d)
        assert np.max(np.abs(p[f"lstm{i}.w_rec"])) <= 1.0 / np.sqrt(h)
    assert_allclose(p["proj.bias"], 0.0, rtol=0, atol=0)
    assert np.max(np.abs(p["proj.weight"])) <= 1.0 / np.sqrt(h)

    again = tiny_params(seed=3)
    for a, b in zip(params.tensors.values(), again.tensors.values()):
        assert np.array_equal(a.data, b.data)
    other = tiny_params(seed=4)
    assert not np.array_equal(p["proj.weight"], other.tensors["proj.weight"].data)


def test_init_default_dtype_is_float32():
    params = init_params(TINY, TINY_STFT, unit_stats(9), seed=0)
    assert params.dtype == np.float32


def test_init_bins_mismatch():
    with pytest.raises(ValueError, match="bins"):
        init_params(RtsnConfig(n_bins=64), TINY_STFT, unit_stats(64))


def test_init_rejects_statistics_of_another_bin_count():
    # the framing fits the config, the statistics do not; nor do copies
    # of a model whose statistics were swapped after it was built
    with pytest.raises(ValueError, match=re.escape("statistics have 129 bins, "
                                                   "config n_bins is 9")):
        init_params(TINY, TINY_STFT, unit_stats(129))
    params = tiny_params()
    params.norm = unit_stats(8)
    for rebuild in (params.copy, params.frozen):
        with pytest.raises(ValueError, match="statistics have 8 bins"):
            rebuild()


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_prior_input_oracle(monkeypatch):
    # forward_chunk feeds the prior frames t..t+lookahead of every step,
    # read from the noisy stacks, to one lstm_cell call over both layers
    cfg = RtsnConfig(lookahead=2, n_bins=9, lstm_layers=2, lstm_units=4,
                     conv_kernel=3, conv_channels=(2, 1))
    params = init_params(cfg, TINY_STFT, unit_stats(9), seed=0, dtype=np.float64)
    values = np.random.default_rng(0).standard_normal((7, 9))
    seen = []
    lstm_cell = nn.lstm_cell

    def spy(x, stack, **kwargs):
        seen.append((x.data, [t.name for layer in stack for t in layer[:3]]))
        return lstm_cell(x, stack, **kwargs)

    monkeypatch.setattr(nn, "lstm_cell", spy)
    forward_chunk(params, ChunkData(frame_stack(values, 2)[None], None, np.full(1, 7)))
    ((got, names),) = seen
    assert names == [f"lstm{i}.{k}" for i in range(2) for k in ("w_in", "w_rec", "bias")]
    assert got.shape == (1, 7, 27)
    for t in range(7):
        want = np.concatenate([values[min(t + k, 6)] for k in range(3)])
        assert_allclose(got[0, t], want, rtol=0, atol=0)
        assert_allclose(assemble_pri_input(values, t, 2), want, rtol=0, atol=0)
    with pytest.raises(IndexError):
        assemble_pri_input(values, 7, 2)


def test_frame_stack_oracle():
    # a whole utterance's chunk, and the stored-stack oracle, against
    # explicit indexing
    rng = np.random.default_rng(1)
    values = rng.standard_normal((6, 4))
    chunk = chunk_from_frames([values], None, [0], 6, 2)
    assert chunk.clean_stack is None and np.array_equal(chunk.valid, [6])
    for got in (chunk.noisy_ctx[0], frame_stack(values, 2)):
        assert got.shape == (6, 5, 4)
        for t in range(6):
            for j, off in enumerate(range(-2, 3)):
                src = min(max(t + off, 0), 5)
                assert_allclose(got[t, j], values[src], rtol=0, atol=0)


# (frame counts, lane starts) for a 64-step chunk at lookahead 4: T = 1,
# T = lookahead and T past two chunks, at starts whose steps run past the
# last frame, alone and side by side in one batch
CHUNK_LANES = [
    ([1], [0]), ([4], [0]), ([4], [3]), ([150], [0]), ([150], [64]), ([150], [128]),
    ([150], [149]), ([1, 4, 150, 150, 70], [0, 2, 128, 37, 64]),
]


@pytest.mark.parametrize("frames, starts", CHUNK_LANES, ids=[
    "T1", "T4", "T4_from3", "T150", "T150_from64", "T150_from128", "T150_from149", "batch"])
def test_chunk_from_frames_matches_stacked_layout(frames, starts):
    # Every byte of a chunk equals the stored-stack layout's: the whole
    # utterance's frame stacks sliced at rows clamped to the last frame.
    # Clamping the rows after adding the offsets, not before, changes
    # the stacks of the steps past the end.
    rng = np.random.default_rng(sum(frames) + sum(starts))
    noisy = [rng.standard_normal((t, 9)).astype(np.float32) for t in frames]
    clean = [rng.standard_normal((t, 9)).astype(np.float32) for t in frames]
    got = chunk_from_frames(noisy, clean, starts, 64, 4)
    want = stacked_chunk(noisy, clean, starts, 64, 4)
    assert got.noisy_ctx.dtype == got.clean_stack.dtype == np.float32
    assert np.array_equal(got.noisy_ctx, want.noisy_ctx)
    assert np.array_equal(got.clean_stack, want.clean_stack)
    assert np.array_equal(got.valid, want.valid)
    assert got.valid.dtype == want.valid.dtype
    # an inference chunk (a view over the frames when no row is clamped)
    inference = chunk_from_frames(noisy, None, starts, 64, 4)
    assert np.array_equal(inference.noisy_ctx, want.noisy_ctx)
    assert np.array_equal(inference.valid, want.valid)
    if len(frames) == 1 and got.valid[0] == 64:
        # one unclamped lane: its clean stacks too are read-only windows
        assert got.clean_stack.base is not None and not got.clean_stack.flags.writeable


def test_gather_mbps_exhaustive_oracle():
    # every (frame, offset) pair checked by explicit indexing, T=12, tau=2
    rng = np.random.default_rng(2)
    total, lookahead, bins = 12, 2, 5
    rows = 2 * lookahead + 1
    pri = rng.standard_normal((total, rows, bins))
    for t in range(total):
        got = gather_mbps(pri, t)
        assert got.shape == (rows, bins)
        for m in range(-lookahead, lookahead + 1):
            step = min(max(t - m, 0), total - 1)
            row = m + lookahead
            assert np.array_equal(got[row], pri[step, row])
    with pytest.raises(IndexError):
        gather_mbps(pri, 12)


def test_posterior_input_layout_and_mbp_containment():
    rng = np.random.default_rng(3)
    total, lookahead, bins = 10, 2, 4
    rows = 2 * lookahead + 1
    pri = rng.standard_normal((total, rows, bins))
    noisy = rng.standard_normal((total, bins))
    for t in range(total):
        v = assemble_posterior_input(pri, noisy, t)
        assert v.shape == (rows * rows + rows, bins)
        # stacks step-major then noisy frames, everything edge-replicated
        for j, off in enumerate(range(-lookahead, lookahead + 1)):
            step = min(max(t + off, 0), total - 1)
            for r in range(rows):
                assert np.array_equal(v[j * rows + r], pri[step, r])
            assert np.array_equal(v[rows * rows + j], noisy[step])
        # all base predictions of frame t are among the channels
        mbps = gather_mbps(pri, t)
        for m in range(-lookahead, lookahead + 1):
            if 0 <= t - m < total:
                j = lookahead - m
                assert np.array_equal(v[j * rows + (m + lookahead)], mbps[m + lookahead])


def test_gather_index_clamps_to_valid():
    # the posterior's gather index: every step's stack of steps, clamped to
    # the lane's valid steps
    idx = stack_index(np.arange(6), 2, 5)
    assert idx.shape == (6, 5)
    assert idx.min() == 0 and idx.max() == 5
    short = stack_index(np.arange(6), 2, 3 - 1)
    assert short.max() == 2
    assert np.array_equal(short, np.clip(idx, 0, 2))
    lanes = stack_index(np.arange(6), 2, np.array([6, 3])[:, None, None] - 1)
    assert lanes.shape == (2, 6, 5)
    assert np.array_equal(lanes[0], idx) and np.array_equal(lanes[1], short)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_mol_loss_frozen_single_frame():
    # one frame, two bins: frame error [1, 2] -> 5; stack of ones 3x2 -> 6;
    # weight 10 -> 5 + 60 = 65
    errors = frame_errors(np.array([[[1.0, 2.0]]]), np.zeros((1, 1, 2)),
                          np.ones((1, 1, 3, 2)), np.zeros((1, 1, 3, 2)))
    total, post, pri, count = nn.stack_loss(errors, 10.0, np.ones((1, 1)))
    assert float(total.data) == 65.0
    assert (post, pri, count) == (5.0, 6.0, 1.0)


def test_mol_loss_matches_numpy_oracle():
    rng = np.random.default_rng(4)
    b, u, r, n = 2, 5, 3, 4
    pf, tf = rng.standard_normal((2, b, u, n))
    ps, ts = rng.standard_normal((2, b, u, r, n))
    lam = 7.5
    total = nn.stack_loss(frame_errors(pf, tf, ps, ts), lam, np.ones((b, u)))[0]
    per_frame = ((pf - tf) ** 2).sum(-1) + lam * ((ps - ts) ** 2).sum((-2, -1))
    assert_allclose(float(total.data), per_frame.mean(), rtol=1e-12, atol=0)


def test_mol_loss_mask_drops_padded_frames():
    rng = np.random.default_rng(5)
    b, u, r, n = 1, 4, 3, 2
    pf, tf = rng.standard_normal((2, b, u, n))
    ps, ts = rng.standard_normal((2, b, u, r, n))
    mask = np.array([[1.0, 1.0, 0.0, 0.0]])
    total = nn.stack_loss(frame_errors(pf, tf, ps, ts), 2.0, mask)[0]

    garbage = pf.copy()
    garbage[:, 2:] = 1e6
    total2 = nn.stack_loss(frame_errors(garbage, tf, ps, ts), 2.0, mask)[0]
    assert float(total.data) == float(total2.data)

    per_frame = ((pf - tf) ** 2).sum(-1) + 2.0 * ((ps - ts) ** 2).sum((-2, -1))
    assert_allclose(float(total.data), per_frame[0, :2].mean(), rtol=1e-12, atol=0)

    with pytest.raises(ValueError, match="mask excludes"):
        nn.stack_loss(frame_errors(pf, tf, ps, ts), 2.0, np.zeros((b, u)))


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def test_forward_chunk_shapes_and_determinism():
    params = tiny_params()
    data = random_chunk(TINY, 2, 6, seed=8)
    a = forward_chunk(params, data)
    b = forward_chunk(params, data)
    assert a.x_hat.shape == (2, 6, 9)
    assert a.loss.total._parents[1].shape == (2 * 6, 3 * 9)  # the flat stacks
    assert np.array_equal(a.x_hat.data, b.x_hat.data)
    assert float(a.loss.total.data) == float(b.loss.total.data)
    assert np.isfinite(a.loss.total.data)


def test_forward_chunk_state_carry_matches_full_run():
    params = tiny_params()
    rng = np.random.default_rng(9)
    values = rng.standard_normal((10, 9))
    ctx = frame_stack(values, TINY.lookahead)[None]

    full_state = zero_state(params, 1)
    full = forward_chunk(params, ChunkData(ctx, None, np.full(1, 10)), full_state)

    # same stacks split in two; the one state object carries across
    state = zero_state(params, 1)
    first = forward_chunk(params, ChunkData(ctx[:, :6], None, np.full(1, 6)), state)
    second = forward_chunk(params, ChunkData(ctx[:, 6:], None, np.full(1, 4)), state)
    # prior outputs agree everywhere; posterior outputs agree away from the
    # split where the gather window stays inside one chunk
    windows = ctx[:, :, TINY.lookahead:].reshape(1, 10, -1)
    prior_state = zero_state(params, 1)
    both = np.concatenate([_prior(params, windows[:, :6], prior_state).data,
                           _prior(params, windows[:, 6:], prior_state).data])
    whole = _prior(params, windows, zero_state(params, 1)).data
    assert_allclose(both, whole, rtol=1e-12, atol=1e-12)
    assert_allclose(first.x_hat.data[:, :5], full.x_hat.data[:, :5],
                    rtol=1e-12, atol=1e-12)
    assert_allclose(second.x_hat.data[:, 1:], full.x_hat.data[:, 7:],
                    rtol=1e-12, atol=1e-12)
    for carried, whole in zip(state[0] + state[1], full_state[0] + full_state[1]):
        assert_allclose(carried, whole, rtol=1e-12, atol=1e-12)


def test_forward_chunk_loss_matches_frame_oracle():
    # The posterior's target is each step's own clean frame and the steps
    # past a lane's valid count drop out of both terms: the loss equals
    # per-frame sums over the real steps, taken against the clean frames.
    params = tiny_params(seed=6)
    rng = np.random.default_rng(15)
    steps, valid = 7, np.array([7, 4])
    noisy, clean = rng.standard_normal((2, 2, steps, 9))
    stacks = [np.stack([frame_stack(v, TINY.lookahead) for v in x])
              for x in (noisy, clean)]
    out = forward_chunk(params, ChunkData(*stacks, valid))
    real = np.arange(steps) < valid[:, None]
    post = ((out.x_hat.data - clean) ** 2).sum(-1)[real].mean()
    predicted = out.loss.total._parents[1].data.reshape(stacks[1].shape)  # flat stacks
    pri = ((predicted - stacks[1]) ** 2).sum((-2, -1))[real].mean()
    assert out.loss.frames == 11
    assert_allclose(out.loss.post, post, rtol=1e-12, atol=0)
    assert_allclose(out.loss.pri, pri, rtol=1e-12, atol=0)
    assert_allclose(out.loss.total.item(), post + TINY.prior_weight * pri,
                    rtol=1e-12, atol=0)


def test_forward_chunk_rejects_inconsistent_chunks():
    params = tiny_params()
    ctx, stack = random_chunk(TINY, 2, 5, seed=16).noisy_ctx, np.zeros((2, 5, 3, 9))
    full = np.full(2, 5)
    cases = [
        (ChunkData(ctx[0], None, full), "noisy_ctx shape"),
        (ChunkData(ctx[:, :, :2], None, full), "noisy_ctx shape"),
        (ChunkData(ctx[..., :8], None, full), "noisy_ctx shape"),
        (ChunkData(ctx, stack[:, :4], full), "clean_stack shape"),
        (ChunkData(ctx, stack, None), "valid must be"),
        (ChunkData(ctx, stack, np.array([5])), "valid must be"),
        (ChunkData(ctx, stack, np.array([5, 0])), "valid must be"),
        (ChunkData(ctx, stack, np.array([5, 6])), "valid must be"),
        (ChunkData(ctx, stack, np.array([5.0, 2.0])), "valid must be"),
    ]
    for data, match in cases:
        with pytest.raises(ValueError, match=match):
            forward_chunk(params, data)


def test_prior_records_one_node_for_the_lstm_stack():
    # the graph of a training chunk does not grow with its steps: the LSTM
    # stack is one node over the whole chunk, the windows and every layer's
    # weights its parents (both sizes fit one posterior block)
    params = tiny_params()
    sizes = []
    for steps in (3, 12):
        loss = forward_chunk(params, random_chunk(TINY, 2, steps, seed=steps)).loss
        order = _topo_order(loss.total)
        (stack,) = [t for t in order if t.name == "lstm_cell"]
        assert [t.name for t in stack._parents] == ["windows"] + [
            f"lstm{i}.{k}" for i in range(TINY.lstm_layers)
            for k in ("w_in", "w_rec", "bias")]
        sizes.append(len(order))
    assert sizes[0] == sizes[1]


def test_training_chunk_graph_holds_only_layers():
    # A chunk of the default training shape, 16 lanes x 64 steps (four
    # posterior blocks), over TINY, which has the default's layer counts:
    # the node count depends only on those.  Every interior node is a layer
    # or a layout op.  59 nodes: 16 parameters and the input windows, the
    # LSTM stack, the projection and the reshapes around it, per block
    # the image, four convs, three SELUs and a reshape, then the concat
    # and the loss.
    default = RtsnConfig()
    assert (TINY.lstm_layers, len(TINY.conv_channels)) == (
        default.lstm_layers, len(default.conv_channels))
    params = tiny_params(dtype=np.float32)
    valid = np.full(16, 64)
    valid[5] = 23
    loss = forward_chunk(params, random_chunk(TINY, 16, 64, seed=4, valid=valid)).loss
    order = _topo_order(loss.total)
    interior = {t.name for t in order if t._backward is not None}
    assert interior == {"lstm_cell", "reshape", "linear", "gather_steps",
                        "conv1d_freq", "selu", "concat", "stack_loss"}
    assert len(order) <= 59
    assert sum(t.name == "gather_steps" for t in order) == 4


def test_whole_model_gradient_spot_check():
    # full-coordinate sweep lives in the acceptance suite; here a handful of
    # coordinates per tensor against central differences
    params = tiny_params(seed=1)
    data = random_chunk(TINY, 1, 4, seed=10)

    loss = forward_chunk(params, data).loss.total
    names = list(params.tensors.items())
    analytic = nn.grads_for(loss, [t for _, t in names])

    def loss_value():
        return float(forward_chunk(params, data).loss.total.data)

    eps = 1e-5
    rng = np.random.default_rng(11)
    for (name, tensor), grad in zip(names, analytic):
        flat = tensor.data.reshape(-1)
        picks = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        for j in picks:
            keep = flat[j]
            flat[j] = keep + eps
            hi = loss_value()
            flat[j] = keep - eps
            lo = loss_value()
            flat[j] = keep
            numeric = (hi - lo) / (2 * eps)
            err = rel_err(grad.reshape(-1)[j], numeric)
            assert err < 1e-6, f"{name}[{j}]: rel err {err}"


def test_training_step_sums_gradients_in_block_order(monkeypatch):
    # The projection's input gradient of a float32 training step, rebuilt by
    # calling the node closures in hand: each block's gather gradient, summed
    # into x_bar in block order, then the stack error's gradient added at the
    # flat projection output.  With one step per block every step is read
    # by three blocks, and float32 sums round differently in another order,
    # so the weight and bias gradients pin that order bit for bit.  A prior
    # weight of 1 keeps the stack gradient from rounding the block sums'
    # last bits away.
    monkeypatch.setattr(rtsn.model, "POST_BLOCK_FRAMES", 2)
    cfg = replace(TINY, prior_weight=1.0)
    params = init_params(cfg, TINY_STFT, unit_stats(9), seed=0)
    result = forward_chunk(params, random_chunk(cfg, 2, 5, seed=12, valid=[5, 4]))
    weight, bias = params.tensors["proj.weight"], params.tensors["proj.bias"]
    got = nn.grads_for(result.loss.total, [weight, bias])

    x_hat = result.loss.total._parents[0]
    g_frames, g_stacks = result.loss.total._backward(np.ones((), np.float32))
    x_bar, x_bar_grad = None, None
    for node, g in zip(x_hat._parents, x_hat._backward(g_frames), strict=True):
        while node.name != "gather_steps":  # reshape, convs and SELUs
            g, node = node._backward(g)[0], node._parents[0]
        # the gather reads the stacks x_bar, the projection's output reshaped
        assert x_bar is None or node._parents[0] is x_bar
        x_bar, g = node._parents[0], node._backward(g)[0]
        x_bar_grad = g if x_bar_grad is None else x_bar_grad + g
    assert len(x_hat._parents) == 5
    (flat,) = x_bar._backward(x_bar_grad)
    (proj,) = x_bar._parents
    _, want_weight, want_bias = proj._backward(g_stacks.reshape(flat.shape) + flat)
    assert got[0].dtype == np.float32
    assert np.array_equal(got[0], want_weight)
    assert np.array_equal(got[1], want_bias)


def test_worker_split_changes_no_byte(monkeypatch, use_workers):
    # The split conv (bias added inside each row block), its split bias
    # gradient, the in-place SELU, the split gather and the LSTM stack's
    # layer wavefront (fast path) against the one-worker loop (slow path):
    # enhance_lps output and every parameter gradient of a float32 training
    # step are array_equal at 1, 2 and 3 workers.  Blocks are made small
    # enough that each conv runs one row block per frame, each SELU splits
    # into one span per worker, the gather into one span per step and the
    # LSTM runs over several blocks of 8 rows, and the dispatches are
    # counted so the test cannot pass without exercising the split.
    monkeypatch.setattr(layers, "_COLS_BLOCK", 1)
    monkeypatch.setattr(layers, "_ELEMENTWISE_BLOCK", 16)
    monkeypatch.setattr(layers, "_LSTM_BLOCK_ROWS", 8)
    dispatched = []
    run_shares = layers._run_shares

    def counted(task, items):
        items = list(items)
        dispatched.append((task.__qualname__.split(".")[0], len(items)))
        run_shares(task, items)

    monkeypatch.setattr(layers, "_run_shares", counted)
    params = tiny_params(dtype=np.float32)
    tensors = list(params.tensors.values())
    values = np.random.default_rng(5).standard_normal((40, 9)).astype(np.float32)
    chunk = random_chunk(TINY, 2, 8, seed=6, valid=[8, 5])
    chunk = ChunkData(chunk.noisy_ctx.astype(np.float32),
                      chunk.clean_stack.astype(np.float32), chunk.valid)
    results = {}
    for workers in (1, 2, 3):
        use_workers(workers)
        dispatched.clear()
        enhanced = enhance_lps(params, values)
        assert dispatched.count(("_correlate", 40)) == 4  # a block per frame
        assert [n for task, n in dispatched if task == "selu"] == [workers] * 3
        assert dispatched.count(("gather_steps", 40)) == 1  # a span per step
        # two layers over five blocks of 8 steps, six anti-diagonals, at
        # every worker count
        assert [n for task, n in dispatched if task == "lstm_cell"] == [1, 2, 2, 2, 2, 1]
        dispatched.clear()
        result = forward_chunk(params, chunk, zero_state(params, 2))
        grads = nn.grads_for(result.loss.total, tensors)
        # two blocks of 4 steps at batch 2
        assert [n for task, n in dispatched if task == "lstm_cell"] == [1, 2, 1]
        assert [n for task, n in dispatched if task == "gather_steps"] == [8]
        # four forwards and four input gradients, conv0's to the gather
        assert [n for task, n in dispatched if task == "_correlate"] == [16] * 8
        assert [n for task, n in dispatched if task == "selu"] == [workers] * 6
        products = [n for task, n in dispatched if task == "_kernel_grad"]
        assert sum(products) == 4 * 16 and max(products) == workers
        results[workers] = [enhanced] + grads
    assert results[1][1].dtype == np.float32
    for workers in (2, 3):
        for want, got in zip(results[1], results[workers], strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_public_layers_run_only_on_the_calling_thread(monkeypatch, use_workers):
    # The worker pool runs shares of a layer's work, never a layer: every
    # public layer of rtsn.neural.layers, and the backward closure of each
    # node it returns, is entered only from the thread that called into the
    # model, over an enhance_lps call and a training step at 3 workers with
    # blocks small enough that the pool gets work.  The bench tracer keeps
    # one span stack for all threads and relies on this.
    monkeypatch.setattr(layers, "_COLS_BLOCK", 1)
    monkeypatch.setattr(layers, "_ELEMENTWISE_BLOCK", 16)
    monkeypatch.setattr(layers, "_LSTM_BLOCK_ROWS", 4)
    use_workers(3)
    public = {fn: name for name, fn in vars(layers).items()
              if inspect.isfunction(fn) and fn.__module__ == layers.__name__
              and not name.startswith("_")}
    assert set(public.values()) == {"selu", "linear", "lstm_cell", "conv1d_freq",
                                    "gather_steps", "stack_loss"}
    entered, shares = {}, set()

    def wrap(fn, name):
        def layer(*args, **kwargs):
            entered.setdefault(name, set()).add(threading.get_ident())
            out = fn(*args, **kwargs)
            node = out[0] if isinstance(out, tuple) else out
            if node._backward is not None:
                closure = node._backward

                def backward(g):
                    entered.setdefault(name + ".bwd", set()).add(threading.get_ident())
                    return closure(g)

                node._backward = backward
            return out

        return layer

    run_shares = layers._run_shares

    def spread(task, items):
        def share(item):
            shares.add(threading.get_ident())
            task(item)

        run_shares(share, items)

    monkeypatch.setattr(layers, "_run_shares", spread)
    wrapped = {fn: wrap(fn, name) for fn, name in public.items()}
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "rtsn" or n.startswith("rtsn."))]
    for module in modules:
        for key, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                monkeypatch.setattr(module, key, wrapped[value])

    params = tiny_params(dtype=np.float32)
    enhance_lps(params, np.random.default_rng(7).standard_normal((40, 9)).astype(np.float32))
    chunk = random_chunk(TINY, 2, 8, seed=6, valid=[8, 5])
    chunk = ChunkData(chunk.noisy_ctx.astype(np.float32),
                      chunk.clean_stack.astype(np.float32), chunk.valid)
    nn.grads_for(forward_chunk(params, chunk).loss.total, list(params.tensors.values()))
    me = threading.get_ident()
    names = set(public.values())
    assert set(entered) == names | {name + ".bwd" for name in names}
    assert all(threads == {me} for threads in entered.values()), entered
    assert len(shares) > 1  # the pool did take shares


def test_training_graph_holds_one_array_per_conv_and_selu():
    # Every SELU writes over the conv output it follows, so the distinct
    # arrays a float32 training graph holds (parameters aside) add up to one
    # per node that makes a new array, with a conv+SELU pair counted once.
    batch, steps = 16, 64
    params = tiny_params(dtype=np.float32)
    chunk = random_chunk(TINY, batch, steps, seed=8)
    chunk = ChunkData(chunk.noisy_ctx.astype(np.float32),
                      chunk.clean_stack.astype(np.float32), chunk.valid)
    loss = forward_chunk(params, chunk).loss.total
    nodes = _topo_order(loss)
    selus = [node for node in nodes if node.name == "selu"]
    blocks = -(-steps // (POST_BLOCK_FRAMES // batch))
    assert len(selus) == 3 * blocks
    for node in selus:
        (conv,) = node._parents
        assert conv.name == "conv1d_freq" and np.shares_memory(node.data, conv.data)

    params_held = {id(t) for t in params.tensors.values()}
    held = {}
    for node in nodes:
        if id(node) not in params_held:
            base = node.data
            while base.base is not None:
                base = base.base
            held[id(base)] = base.nbytes
    frames, n, h = batch * steps, TINY.n_bins, TINY.lstm_units
    want = 4 * (frames * (TINY.lookahead + 1) * n  # the prior's input windows
                # the LSTM stack's top hidden states, the initial one
                # included (the layers below live in its backward closure)
                + (steps + 1) * batch * h
                + frames * h  # the projection's batch-major input
                + frames * TINY.stack_rows * n  # the stacks
                # the posterior image, then one array per conv (and its SELU)
                + frames * n * (TINY.posterior_channels + sum(TINY.conv_channels))
                + frames * n)  # x_hat
    assert sum(held.values()) == want + 8  # and the float64 loss


def test_pri_post_routes_match_full_forward():
    # the vectorized full-sequence forward must equal the per-frame assembly
    # route built from pri_forward + assemble_posterior_input + post_forward
    params = tiny_params(seed=2)
    rng = np.random.default_rng(12)
    values = rng.standard_normal((9, 9))

    fast = enhance_lps(params, values)
    stacks = pri_forward(params, values)
    for t in range(9):
        v = assemble_posterior_input(stacks, values, t)
        slow = post_forward(params, v)
        assert_allclose(fast[t], slow, rtol=1e-10, atol=1e-12)


def test_post_forward_shape_validation():
    params = tiny_params()
    with pytest.raises(ValueError, match="posterior input shape"):
        post_forward(params, np.zeros((5, 9)))


def test_enhance_utterance_identity_network(monkeypatch):
    params = tiny_params()
    noisy = Waveform(synth_voice(20, 600))
    monkeypatch.setattr(rtsn.model, "enhance_lps", lambda params, values: values)
    out, lps = enhance_utterance(params, noisy, gla_iters=0)
    # identity network and zero GLA iterations reproduce the input up to the
    # log-power floor
    assert out.samples.shape == noisy.samples.shape
    assert np.max(np.abs(out.samples - noisy.samples)) < 1e-3
    assert lps.values.shape == (TINY_STFT.num_frames(600), 9)


def test_params_copy_is_deep():
    params = tiny_params()
    dup = params.copy()
    dup.tensors["proj.weight"].data[0, 0] += 1.0
    assert params.tensors["proj.weight"].data[0, 0] != dup.tensors["proj.weight"].data[0, 0]
    assert dup.norm is params.norm
    assert list(dup.tensors) == list(params.tensors)


def test_frozen_params_share_arrays_as_named_constants():
    params = tiny_params()
    frozen = params.frozen()
    assert frozen.config is params.config and frozen.norm is params.norm
    for (name, t), (fname, f) in zip(params.tensors.items(), frozen.tensors.items()):
        assert fname == name and f.name == name
        assert f.data is t.data and not f.requires_grad


# 256 steps: four posterior blocks of POST_BLOCK_STEPS at batch 1 and 2,
# so each size below ends in a partial block.
BLOCK = POST_BLOCK_FRAMES


@pytest.mark.parametrize("batch,steps", [
    (1, 3 * BLOCK - 1), (1, 3 * BLOCK + 1), (2, 3 * (BLOCK // 2) + 1),
])
def test_frozen_forward_agrees_with_graph_forward(batch, steps):
    # At least three posterior blocks, the last one partial.  Both runs do
    # the same arithmetic on the same arrays and differ only in what they
    # record, so they must agree bit for bit.
    params = tiny_params(seed=3, dtype=np.float32)
    data = random_chunk(TINY, batch, steps, seed=13, valid=np.full(batch, steps - 5))
    graph = forward_chunk(params, data)
    frozen = forward_chunk(params.frozen(), data)
    assert graph.x_hat.requires_grad and graph.x_hat._parents
    assert not frozen.x_hat.requires_grad and not frozen.x_hat._parents
    assert np.array_equal(frozen.x_hat.data, graph.x_hat.data)
    windows = np.ascontiguousarray(data.noisy_ctx[:, :, TINY.lookahead:].astype(np.float32))
    windows = windows.reshape(batch, steps, -1)
    assert np.array_equal(_prior(params.frozen(), windows, zero_state(params, batch)).data,
                          _prior(params, windows, zero_state(params, batch)).data)
    assert float(frozen.loss.total.data) == float(graph.loss.total.data)
    assert (frozen.loss.post, frozen.loss.pri) == (graph.loss.post, graph.loss.pri)


@pytest.mark.parametrize("frames", [3 * BLOCK - 1, 3 * BLOCK + 1])
def test_enhance_lps_matches_one_block_oracle(frames):
    # Splitting the posterior into blocks changes only how many frames one
    # GEMM covers, which may reorder each output's length-K reduction
    # (K = in channels x taps): at most about K float32 roundings apart.
    params = tiny_params(seed=4, dtype=np.float32)
    k = max(t.shape[1] * t.shape[2] for name, t in params.tensors.items()
            if name.endswith(".weight") and name.startswith("conv"))
    tol = k * np.finfo(np.float32).eps
    values = np.random.default_rng(14).standard_normal((frames, 9))
    got = enhance_lps(params, values)
    assert got.shape == (frames, 9) and got.dtype == np.float32
    assert_allclose(got, enhance_one_block(params, values), rtol=tol, atol=tol)


@pytest.mark.parametrize("frames", [1, 4, 2 * BLOCK + 3])
def test_enhance_lps_chunk_matches_stacked_layout(monkeypatch, frames):
    # The enhancement chunk is the stored-stack layout's whole-utterance
    # chunk, and the output is byte-equal to a forward over the stacks
    # with no valid counts, as enhancement ran before chunk_from_frames.
    cfg = replace(TINY, lookahead=4)
    params = init_params(cfg, TINY_STFT, unit_stats(9), seed=2)
    values = np.random.default_rng(frames).standard_normal((frames, 9)).astype(np.float32)
    seen = []
    real = rtsn.model.forward_chunk

    def spy(params, data, state=None):
        seen.append(data)
        return real(params, data, state)

    monkeypatch.setattr(rtsn.model, "forward_chunk", spy)
    got = enhance_lps(params, values)
    (data,) = seen
    want = stacked_chunk([values], None, [0], frames, cfg.lookahead)
    assert data.clean_stack is None
    assert np.array_equal(data.noisy_ctx, want.noisy_ctx)
    assert np.array_equal(data.valid, want.valid)
    stored = real(params.frozen(), ChunkData(frame_stack(values, cfg.lookahead)[None], None,
                                             np.full(1, frames)))
    assert np.array_equal(got, stored.x_hat.data[0])


# Frame counts at batch 1 that straddle the edges of the prior's segments
# (256 steps), its LSTM blocks (128) and the posterior's blocks (64).
SEGMENT_EDGES = [1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513, 2001]


def _one_call_enhance(params, values):
    """enhance_lps by whole_chunk_forward over the stored-stack layout."""
    data = ChunkData(frame_stack(values, params.config.lookahead)[None], None,
                     np.full(1, len(values)))
    return whole_chunk_forward(params.frozen(), data)[0][0]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_enhance_lps_equals_whole_chunk_forward_across_segment_edges(use_workers, workers):
    # The segmented prior, its carried wavefront and the posterior's halo
    # of stacks change no byte: enhance_lps is array_equal to the forward
    # that ran the prior over the whole utterance in one lstm_cell call,
    # for two and three LSTM layers.
    use_workers(workers)
    for cfg in (TINY, replace(TINY, lstm_layers=3)):
        params = init_params(cfg, TINY_STFT, unit_stats(9), seed=7)
        for frames in SEGMENT_EDGES:
            values = np.random.default_rng(frames).standard_normal((frames, 9))
            values = values.astype(np.float32)
            got = enhance_lps(params, values)
            assert np.array_equal(got, _one_call_enhance(params, values)), (cfg, frames)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_default_enhance_lps_equals_whole_chunk_forward(use_workers, workers):
    # The same at the default config, whose GEMMs take the shapes the
    # byte equality of a block of rows was measured at.
    use_workers(workers)
    params = init_params(RtsnConfig(), StftConfig(), unit_stats(129), seed=0)
    for frames in (2, 257, 513):
        values = np.random.default_rng(frames).standard_normal((frames, 129))
        values = values.astype(np.float32)
        assert np.array_equal(enhance_lps(params, values),
                              _one_call_enhance(params, values)), frames


# Frame counts at batch 1 whose loss spans one or several lstm_cell calls
# (128 steps) and posterior blocks (64), the last at the default config.
@pytest.mark.parametrize("frames", [5, 127, 128, 129, 255, 256, 257, 513, 700, 2001])
def test_validation_loss_equals_whole_chunk_forward(use_workers, frames):
    # A frozen forward with a loss runs the prior one LSTM block per call
    # and forms each frame's errors as its stack and output exist: the loss
    # of an utterance's validation chunk equals, float for float, that of
    # the one-call forward with the errors taken over whole predictions, at
    # every worker count.
    if frames == 2001:
        params = init_params(RtsnConfig(), StftConfig(), unit_stats(129), seed=0)
    else:
        params = tiny_params(seed=8, dtype=np.float32)
    rng = np.random.default_rng(frames)
    noisy, clean = rng.standard_normal((2, frames, params.config.n_bins)).astype(np.float32)
    data = chunk_from_frames([noisy], [clean], [0], frames, params.config.lookahead)
    x_hat, want = whole_chunk_forward(params.frozen(), data)
    for workers in (1, 2, 3):
        use_workers(workers)
        got = forward_chunk(params.frozen(), data)
        assert np.array_equal(got.x_hat.data, x_hat), workers
        assert float(got.loss.total.data) == float(want.total.data), workers
        assert (got.loss.post, got.loss.pri, got.loss.frames) == (want.post, want.pri,
                                                                     want.frames), workers


def test_frozen_forward_keeps_the_stacks_a_short_lane_reads():
    # Two lanes over five segments, the second valid for 37 steps only:
    # every later block of that lane reads its stack at step 36, so the
    # halo must keep it.  Bytes and loss equal the one-call forward's.
    params = tiny_params(seed=9, dtype=np.float32)
    chunk = random_chunk(TINY, 2, 600, seed=10, valid=[600, 37])
    chunk = ChunkData(chunk.noisy_ctx.astype(np.float32),
                      chunk.clean_stack.astype(np.float32), chunk.valid)
    got = forward_chunk(params.frozen(), chunk)
    x_hat, want = whole_chunk_forward(params.frozen(), chunk)
    assert np.array_equal(got.x_hat.data, x_hat)
    assert float(got.loss.total.data) == float(want.total.data)


def test_loss_free_forward_keeps_the_stacks_a_short_lane_reads():
    # With no loss the frozen forward runs the prior one LSTM block per
    # call (nine over 600 steps of two lanes) and holds only a halo of
    # stacks; a lane valid for 37 steps reads its stack at step 36 in
    # every later block, so the halo must keep it.
    params = tiny_params(seed=9, dtype=np.float32)
    chunk = random_chunk(TINY, 2, 600, seed=10, valid=[600, 37])
    chunk = ChunkData(chunk.noisy_ctx.astype(np.float32), None, chunk.valid)
    assert len(layers._lstm_blocks(2, 600)) == 9
    got = forward_chunk(params.frozen(), chunk)
    assert got.loss is None
    assert np.array_equal(got.x_hat.data, whole_chunk_forward(params.frozen(), chunk)[0])


def test_layer_spans_nest_directly_under_forward_and_backward(monkeypatch):
    # The bench tracer takes forward_chunk's self time as its span minus
    # the layer forwards, and grads_for's as its span minus the layer
    # backward closures.  Bound the way it binds them (every rtsn module's
    # name for the function), each layer forward must run directly under
    # forward_chunk and each backward closure directly under grads_for:
    # over a batch-1 enhance_lps, one lstm_cell call per LSTM block, and a
    # training step.
    targets = {layers.conv1d_freq, layers.selu, layers.lstm_cell, layers.linear,
               layers.gather_steps, rtsn.model.forward_chunk, nn.grads_for}
    stack, seen = [], []

    def traced(fn):
        name = fn.__name__

        def wrapper(*args, **kwargs):
            seen.append((name, stack[-1] if stack else None))
            stack.append(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
            if fn.__module__ == layers.__name__ and out._backward is not None:
                closure = out._backward

                def backward(g):
                    seen.append((name + ".bwd", stack[-1] if stack else None))
                    stack.append(name + ".bwd")
                    try:
                        return closure(g)
                    finally:
                        stack.pop()

                out._backward = backward
            return out

        return wrapper

    wrapped = {fn: traced(fn) for fn in targets}
    for module in [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rtsn" or n.startswith("rtsn."))]:
        for key, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                monkeypatch.setattr(module, key, wrapped[value])
    params = tiny_params(dtype=np.float32)
    enhance_lps(params, np.random.default_rng(3).standard_normal((700, 9)))
    assert sum(name == "lstm_cell" for name, _ in seen) == len(layers._lstm_blocks(1, 700))
    chunk = random_chunk(TINY, 2, 8, seed=6)
    loss = rtsn.model.forward_chunk(params, chunk).loss.total
    nn.grads_for(loss, list(params.tensors.values()))
    names = {name for name, _ in seen}
    assert names == {fn.__name__ for fn in targets} | {
        fn.__name__ + ".bwd" for fn in targets if fn.__module__ == layers.__name__}
    for name, parent in seen:
        if name.endswith(".bwd"):
            assert parent == "grads_for", (name, parent)
        elif name not in ("forward_chunk", "grads_for"):
            assert parent == "forward_chunk", (name, parent)


def test_enhance_memory_does_not_grow_with_length():
    # Traced allocation peaks of enhance_lps over 8 and 128 LSTM blocks,
    # one lstm_cell call each (1024 and 16384 frames).  The only
    # whole-utterance arrays left are the frames in and out: the
    # edge-padded copy of the input that the
    # chunk views, the block outputs and their concatenation.  Past them
    # the peak may grow by a fixed slack only.  A forward that held every
    # stack, prior output or gather index, or kept a graph, grows by more.
    stft_config = StftConfig(frame_len=128, hop=64, fft_size=128)
    cfg = RtsnConfig(lookahead=2, n_bins=65, lstm_layers=1, lstm_units=8,
                     conv_kernel=3, conv_channels=(32, 16, 1))
    params = init_params(cfg, stft_config, unit_stats(65), seed=0)

    def peak(frames):
        values = np.random.default_rng(frames).standard_normal(
            (frames, cfg.n_bins)).astype(params.dtype)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            enhance_lps(params, values)
            return tracemalloc.get_traced_memory()[1] - base, values.nbytes
        finally:
            tracemalloc.stop()

    short_peak, short_frames = peak(4 * POST_BLOCK_FRAMES)
    long_peak, long_frames = peak(64 * POST_BLOCK_FRAMES)
    slack = 2 * 2**20
    assert long_peak - short_peak <= 3 * (long_frames - short_frames) + slack


def test_enhance_blocks_of_64_steps_cut_the_traced_peak(monkeypatch):
    # At batch 1 one posterior block's activations are the transient that
    # sets enhance_lps's peak: at the default config conv0's output alone
    # is 132 KB a frame.  Over 600 frames, blocks of POST_BLOCK_STEPS (64)
    # steps must peak at least 30 MiB below blocks of 256 frames.
    params = init_params(RtsnConfig(), StftConfig(), unit_stats(129), seed=0)
    values = np.random.default_rng(23).standard_normal((600, 129)).astype(np.float32)

    def peak():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            enhance_lps(params, values)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert POST_BLOCK_STEPS == 64
    small = peak()
    monkeypatch.setattr(rtsn.model, "POST_BLOCK_STEPS", 256)
    assert peak() - small >= 30 * 2**20


def test_enhance_checks_finiteness_once_whatever_the_length(monkeypatch):
    # no per-node scan: the np.isfinite calls of an enhancement (the model's
    # tensors as frozen() assembles them, then the result) do not grow with
    # the number of posterior blocks (2 at 300 frames, 8 at 2001)
    params = tiny_params(dtype=np.float32)
    calls = []
    real = np.isfinite

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    counts = []
    for frames in (300, 2001):
        calls.clear()
        enhance_lps(params, np.random.default_rng(frames).standard_normal((frames, 9)))
        counts.append(len(calls))
    assert counts[0] == counts[1] == len(params.tensors) + 1, counts


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_enhance_rejects_non_finite_output():
    # finite weights whose projection overflows at the default config
    params = init_params(RtsnConfig(), StftConfig(), unit_stats(129))
    params.tensors["proj.weight"].data[...] = 1e38
    with pytest.raises(FloatingPointError, match="^non-finite values in the enhanced frames$"):
        enhance_lps(params, np.random.default_rng(0).standard_normal((20, 129)))


def test_enhance_rejects_an_empty_utterance():
    with pytest.raises(ValueError, match="valid must be 1 integer step counts in 1..0"):
        enhance_lps(tiny_params(), np.zeros((0, 9)))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    params = init_params(
        TINY, TINY_STFT,
        NormStats(rng.standard_normal(9), rng.uniform(0.5, 2.0, 9)),
        seed=5, dtype=np.float32,
    )
    p = tmp_path / "model.ckpt"
    save_checkpoint(params, p)
    loaded = load_checkpoint(p)
    assert loaded.config == params.config
    assert loaded.stft == params.stft
    for (na, a), (nb, b) in zip(params.tensors.items(), loaded.tensors.items()):
        assert na == nb
        assert np.array_equal(a.data, b.data), na
    assert_allclose(loaded.norm.mean, params.norm.mean.astype(np.float32),
                    rtol=0, atol=0)
    assert_allclose(loaded.norm.std, params.norm.std.astype(np.float32),
                    rtol=0, atol=0)

    save_checkpoint(params, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == p.read_bytes()


def test_seeded_checkpoint_bytes_are_pinned(tmp_path):
    # A change in the init draw order, a fan-in, a parameter name or shape,
    # or the checkpoint format changes these bytes.
    params = init_params(TINY, TINY_STFT, NormStats(np.zeros(9), np.ones(9)), seed=0)
    save_checkpoint(params, tmp_path / "seeded.ckpt")
    digest = hashlib.sha256((tmp_path / "seeded.ckpt").read_bytes()).hexdigest()
    assert digest == "d33e2db95a015c3763420c1425602ae1b6c2d77e1ef2555566428ee18d98b092"


def _saved_blob(tmp_path):
    params = init_params(TINY, TINY_STFT, NormStats(np.zeros(9), np.ones(9)),
                         seed=0, dtype=np.float32)
    p = tmp_path / "m.ckpt"
    save_checkpoint(params, p)
    return p, bytearray(p.read_bytes())


def _header(blob) -> str:
    size = struct.unpack_from("<I", blob, 12)[0]
    return bytes(blob[16 : 16 + size]).decode("utf-8")


def _write_with_header(p, blob, text: str) -> None:
    size = struct.unpack_from("<I", blob, 12)[0]
    new = text.encode("utf-8")
    p.write_bytes(bytes(blob[:12]) + struct.pack("<I", len(new)) + new
                  + bytes(blob[16 + size :]))


def test_checkpoint_header_format_is_stable(tmp_path):
    # key order and value formatting are part of the file format
    _, blob = _saved_blob(tmp_path)
    assert _header(blob) == (
        "lookahead=1\nprior_weight=10.0\nn_bins=9\nlstm_layers=2\n"
        "lstm_units=8\nconv_kernel=3\nconv_channels=4,3,2,1\ngla_iters=3\n"
        "frame_len=16\nhop=8\nfft_size=16"
    )


def test_checkpoint_header_bad_value_named(tmp_path):
    p, blob = _saved_blob(tmp_path)
    _write_with_header(p, blob, _header(blob).replace("lookahead=1", "lookahead=x"))
    with pytest.raises(ValueError, match=re.escape(
            f"{p} line 1: bad value 'x' for key 'lookahead'")):
        load_checkpoint(p)


def test_checkpoint_header_duplicate_key_rejected(tmp_path):
    p, blob = _saved_blob(tmp_path)
    _write_with_header(p, blob, _header(blob) + "\nhop=8")
    with pytest.raises(ValueError, match=re.escape(f"{p} line 12: duplicate key 'hop'")):
        load_checkpoint(p)


@st.composite
def model_configs(draw):
    fft_size = draw(st.sampled_from([2, 4, 8, 16, 32]))
    hop = draw(st.integers(1, fft_size))
    stft_config = StftConfig(frame_len=draw(st.integers(hop, fft_size)), hop=hop,
                             fft_size=fft_size)
    config = RtsnConfig(
        lookahead=draw(st.integers(1, 3)),
        prior_weight=draw(st.floats(min_value=0.0, allow_nan=False,
                                    allow_infinity=False)),
        n_bins=stft_config.n_bins,
        lstm_layers=draw(st.integers(1, 3)),
        lstm_units=draw(st.integers(1, 4)),
        conv_kernel=draw(st.sampled_from([1, 3, 5])),
        conv_channels=tuple(draw(st.lists(st.integers(1, 4), max_size=3))) + (1,),
        gla_iters=draw(st.integers(0, 100)),
    )
    return config, stft_config


@settings(max_examples=40, deadline=None)
@given(model_configs())
def test_checkpoint_config_round_trip_property(configs):
    config, stft_config = configs
    n = stft_config.n_bins
    params = init_params(config, stft_config, NormStats(np.zeros(n), np.ones(n)))
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.ckpt"
        save_checkpoint(params, p)
        blob = p.read_bytes()
        loaded = load_checkpoint(p)
    assert _header(blob) == format_settings(config, stft_config)
    assert loaded.config == config
    assert loaded.stft == stft_config


def test_checkpoint_corruption_errors(tmp_path):
    p, blob = _saved_blob(tmp_path)

    bad = bytearray(blob)
    bad[:8] = b"NOTACKPT"
    p.write_bytes(bad)
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(p)

    bad = bytearray(blob)
    bad[8] = 9
    p.write_bytes(bad)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(p)

    p.write_bytes(blob[:-3])
    with pytest.raises(ValueError, match="unexpected end"):
        load_checkpoint(p)

    p.write_bytes(bytes(blob) + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(p)

    # the config text starts after the magic, version and length words
    bad = bytearray(blob)
    bad[16] = 0xFF
    p.write_bytes(bad)
    with pytest.raises(ValueError, match=re.escape(f"{p} line 1: not valid UTF-8")):
        load_checkpoint(p)
    bad = bytearray(blob)
    bad[bytes(blob).index(b"proj.bias")] = 0xFF
    p.write_bytes(bad)
    with pytest.raises(ValueError, match=re.escape(f"{p} tensor name line 1: not valid")):
        load_checkpoint(p)

    # norm.std is the last tensor in the file
    p.write_bytes(bytes(blob[:-4]) + np.array([np.nan], dtype="<f4").tobytes())
    with pytest.raises(ValueError, match="norm tensors: non-finite mean/std"):
        load_checkpoint(p)

    # a second proj.bias entry (27 values of 7.0) after the last tensor,
    # the tensor count raised by one: the table names proj.bias twice
    at = 16 + struct.unpack_from("<I", blob, 12)[0]
    bad = bytearray(blob)
    struct.pack_into("<I", bad, at, struct.unpack_from("<I", blob, at)[0] + 1)
    p.write_bytes(bytes(bad) + struct.pack("<H", 9) + b"proj.bias" + struct.pack("<BI", 1, 27)
                  + np.full(27, 7.0, dtype="<f4").tobytes())
    with pytest.raises(ValueError, match=re.escape(f"{p}: tensor proj.bias appears twice")):
        load_checkpoint(p)


def test_checkpoint_missing_tensor_named(tmp_path):
    p, blob = _saved_blob(tmp_path)
    i = bytes(blob).index(b"proj.bias")
    blob[i : i + 9] = b"proj.bjas"
    p.write_bytes(blob)
    with pytest.raises(ValueError, match="missing tensor proj.bias"):
        load_checkpoint(p)
    p, blob = _saved_blob(tmp_path)
    i = bytes(blob).index(b"norm.mean")
    blob[i : i + 9] = b"norm.mxan"
    p.write_bytes(blob)
    with pytest.raises(ValueError, match=re.escape(f"{p}: missing tensor norm.mean")):
        load_checkpoint(p)


def test_checkpoint_bin_count_mismatch_named(tmp_path):
    p, blob = _saved_blob(tmp_path)
    _write_with_header(p, blob, _header(blob).replace("n_bins=9", "n_bins=8"))
    with pytest.raises(ValueError, match=re.escape(
            f"{p}: config n_bins 8 does not match fft_size 16")):
        load_checkpoint(p)


def test_checkpoint_shape_mismatch_named(tmp_path):
    p, blob = _saved_blob(tmp_path)
    # transpose the recorded dims of conv0.weight (4, 12, 3) -> (4, 3, 12);
    # same byte count, wrong shape
    i = bytes(blob).index(b"conv0.weight") + len(b"conv0.weight") + 1
    d0, d1, d2 = struct.unpack_from("<III", blob, i)
    assert (d0, d1, d2) == (4, 12, 3)
    struct.pack_into("<III", blob, i, 4, 3, 12)
    p.write_bytes(blob)
    with pytest.raises(ValueError, match="conv0.weight has shape"):
        load_checkpoint(p)


def test_checkpoint_surplus_tensor_rejected(tmp_path):
    p, blob = _saved_blob(tmp_path)
    name = b"rogue"
    extra = struct.pack("<H", len(name)) + name + struct.pack("<B", 1)
    extra += struct.pack("<I", 2) + np.zeros(2, dtype="<f4").tobytes()
    config_len = struct.unpack_from("<I", blob, 12)[0]
    count_at = 16 + config_len
    count = struct.unpack_from("<I", blob, count_at)[0]
    struct.pack_into("<I", blob, count_at, count + 1)
    p.write_bytes(bytes(blob) + extra)
    with pytest.raises(ValueError, match="unexpected tensors.*rogue"):
        load_checkpoint(p)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_weight_named(tmp_path, value):
    # weights enter through _assemble, which names the tensor; the
    # checkpoint reader adds the path
    p, blob = _saved_blob(tmp_path)
    at = bytes(blob).index(b"lstm0.w_in") + len(b"lstm0.w_in") + 1 + 8  # rank, 2 dims
    blob[at + 20 : at + 24] = np.float32(value).tobytes()
    p.write_bytes(blob)
    with pytest.raises(ValueError, match=re.escape(
            f"{p}: non-finite values in tensor lstm0.w_in")):
        load_checkpoint(p)
    params = tiny_params(dtype=np.float32)
    params.tensors["conv2.bias"].data[1] = value
    for make in (params.copy, params.frozen):
        with pytest.raises(ValueError, match="^non-finite values in tensor conv2.bias$"):
            make()


@pytest.mark.parametrize("rank", [4, 91, 255])
def test_checkpoint_rank_beyond_every_tensor_named(tmp_path, rank):
    p, blob = _saved_blob(tmp_path)
    blob[bytes(blob).index(b"conv0.weight") + len(b"conv0.weight")] = rank
    p.write_bytes(blob)
    with pytest.raises(ValueError, match=re.escape(
            f"{p}: tensor conv0.weight has rank {rank}, more than 3")):
        load_checkpoint(p)


def _tiny_checkpoint_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        return _saved_blob(Path(d))[1]


_CKPT = bytes(_tiny_checkpoint_bytes())
_NON_FINITE = st.sampled_from([np.inf, -np.inf, np.nan]).map(lambda v: np.float32(v).tobytes())


@settings(max_examples=300, deadline=None)
@given(byte_edits(hot=512, extra=st.tuples(st.just("put"), st.integers(0, 1 << 20),
                                           _NON_FINITE)))
def test_checkpoint_reader_byte_mutations(edits):
    # every truncation, byte set, bit flip or non-finite float32 written
    # into a checkpoint either loads as a model or raises a ValueError
    # naming the file
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.ckpt"
        p.write_bytes(mutate(_CKPT, edits))
        try:
            params = load_checkpoint(p)
        except ValueError as e:
            assert str(e).startswith(str(p)), str(e)
            return
    assert all(np.isfinite(t.data).all() for t in params.tensors.values())
