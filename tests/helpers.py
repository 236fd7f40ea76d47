"""Shared test oracles.

The signal oracles are reimplemented independently of the package; the
per-frame model oracles route single frames through its public layers,
the prior through the LSTM oracle, which steps the gate equations one
frame at a time; the SELU, conv and gather oracles are the straightforward
layer implementations the fast ones replaced, and so is the LSTM backward
oracle; the one-layer LSTM node is the layer-by-layer run that the stack
node replaced; the posterior image oracle is the gather, transpose and concat
that gather_steps fuses; frame_stack and stacked_chunk are the layout
that stored every utterance's stacks, which chunk_from_frames replaced;
whole_chunk_forward is the forward that ran the prior over the whole chunk
in one call, which the segmented prior replaced;
matmul, mul, weighted_sum and tmean are graph primitives that only the
tests compose with; byte_edits and mutate make the mutants that the binary
readers' property tests feed them; run_cli runs the CLI as its own process.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import rtsn
import rtsn.neural as nn
from rtsn.corpus import NormStats
from rtsn.dsp import LpsSequence
import rtsn.model
from rtsn.model import (
    ChunkData,
    _conv_stack,
    _prior,
    chunk_from_frames,
    forward_chunk,
    mol_loss,
    stack_index,
    zero_state,
)
from rtsn.neural.engine import _node
from rtsn.neural.layers import SELU_ALPHA, SELU_SCALE

SAMPLE_RATE = 8000


def hann_by_formula(n: int) -> np.ndarray:
    k = np.arange(n, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def reflect_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Reflect padding without the edge sample repeated, by explicit indexing."""
    left = [x[pad - i] for i in range(pad)]
    right = [x[x.size - 2 - j] for j in range(pad)]
    return np.concatenate([left, x, right])


def naive_dft(frame: np.ndarray, fft_size: int) -> np.ndarray:
    """O(n^2) real-input DFT, one explicit sum per output bin."""
    n_bins = fft_size // 2 + 1
    padded = np.zeros(fft_size, dtype=np.float64)
    padded[: frame.size] = frame
    out = np.zeros(n_bins, dtype=np.complex128)
    for k in range(n_bins):
        acc = 0.0 + 0.0j
        for n in range(fft_size):
            acc += padded[n] * np.exp(-2j * np.pi * k * n / fft_size)
        out[k] = acc
    return out


def naive_stft(x: np.ndarray, frame_len: int, hop: int, fft_size: int) -> np.ndarray:
    padded = reflect_pad(np.asarray(x, dtype=np.float64), frame_len // 2)
    window = hann_by_formula(frame_len)
    num_frames = 1 + (padded.size - frame_len) // hop
    out = np.zeros((num_frames, fft_size // 2 + 1), dtype=np.complex128)
    for t in range(num_frames):
        out[t] = naive_dft(padded[t * hop : t * hop + frame_len] * window, fft_size)
    return out


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


def fd_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x, element by element."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = f(x)
        flat[i] = keep - eps
        lo = f(x)
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def matmul(a, b) -> nn.Tensor:
    """a @ b as a graph node; the package's layers fuse their own products."""
    a, b = nn.as_tensor(a), nn.as_tensor(b)

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _node(a.data @ b.data, (a, b), backward, "matmul")


def mul(a, b) -> nn.Tensor:
    """a * b elementwise as a graph node; b has a's shape or is a constant
    that broadcasts against it."""
    a, b = nn.as_tensor(a), nn.as_tensor(b)

    def backward(g):
        return g * b.data, g * a.data

    return _node(a.data * b.data, (a, b), backward, "mul")


def weighted_sum(tensors, weights=None) -> nn.Tensor:
    """sum(t * w) over the tensors and their constant weights (1 when
    None) as one graph node.  A tensor may appear more than once, and each
    gets the read-only broadcast g * w per appearance."""
    tensors = [nn.as_tensor(t) for t in tensors]
    weights = [1.0] * len(tensors) if weights is None else list(weights)

    def backward(g):
        return [np.broadcast_to(g * w, t.data.shape) for t, w in zip(tensors, weights)]

    total = sum(float(np.sum(t.data * w)) for t, w in zip(tensors, weights))
    return _node(np.asarray(total), tuple(tensors), backward, "weighted_sum")


def tmean(a) -> nn.Tensor:
    """Mean of every element as a graph node."""
    a = nn.as_tensor(a)
    n = a.data.size

    def backward(g):
        return (np.broadcast_to(g / n, a.data.shape),)

    return _node(a.data.mean(), (a,), backward, "tmean")


def selu_where(x) -> nn.Tensor:
    """nn.selu with both np.where branches: scale*x for x > 0, else
    scale*alpha*(exp(x) - 1), and the slope from the saved exp."""
    x = nn.as_tensor(x)
    expneg = np.exp(np.minimum(x.data, 0.0))
    out = np.where(x.data > 0, SELU_SCALE * x.data,
                   SELU_SCALE * SELU_ALPHA * (expneg - 1.0))

    def backward(g):
        return (g * np.where(x.data > 0, SELU_SCALE, SELU_SCALE * SELU_ALPHA * expneg),)

    return _node(out.astype(x.data.dtype, copy=False), (x,), backward, "selu_where")


def conv1d_einsum(x, kernels, bias) -> nn.Tensor:
    """nn.conv1d_freq channel-first, by einsum over sliding windows: x is
    (batch, in_channels, n) and the output (batch, out_channels, n).  The
    backward forms the input gradient from a materialized (B, C, N, k)
    contribution scattered tap by tap into a padded buffer."""
    x, kernels, bias = nn.as_tensor(x), nn.as_tensor(kernels), nn.as_tensor(bias)
    k = kernels.data.shape[2]
    half = (k - 1) // 2
    n = x.data.shape[2]
    padded = np.pad(x.data, ((0, 0), (0, 0), (half, half)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=2)
    out = np.einsum("bcnj,ocj->bon", windows, kernels.data, optimize=True)
    out = out + bias.data[None, :, None]

    def backward(g):
        gx = None
        if x.requires_grad:
            gpad = np.zeros_like(padded)
            contrib = np.einsum("bon,ocj->bcnj", g, kernels.data, optimize=True)
            for j in range(k):
                gpad[:, :, j : j + n] += contrib[:, :, :, j]
            gx = gpad[:, :, half : half + n]
        return (gx, np.einsum("bon,bcnj->ocj", g, windows, optimize=True),
                g.sum(axis=(0, 2)))

    return _node(out.astype(x.data.dtype, copy=False), (x, kernels, bias), backward,
                 "conv1d_einsum")


def posterior_image(x: np.ndarray, idx: np.ndarray, context: np.ndarray) -> np.ndarray:
    """nn.gather_steps' image by its parts: the gathered (B, U, M*R, N) rows
    and the (B, U, C, N) context, each transposed channel-last, then
    concatenated along channels and flattened to (B*U, N, M*R + C)."""
    b, _, r, n = x.shape
    u, m = idx.shape[1:]
    gathered = x[np.arange(b)[:, None, None], idx].reshape(b, u, m * r, n)
    image = np.concatenate([gathered.transpose(0, 1, 3, 2),
                            context.transpose(0, 1, 3, 2)], axis=3)
    return image.reshape(b * u, n, -1)


def gather_steps_grad(x_shape, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of nn.gather_steps by np.add.at: every gathered (R, N) slab
    of the image gradient g added back onto the step it was read from."""
    b, _, r, n = x_shape
    gx = np.zeros(x_shape, dtype=g.dtype)
    u, m = idx.shape[1:]
    slabs = g[..., : m * r].reshape(b, u, n, m, r).transpose(0, 1, 3, 4, 2)
    np.add.at(gx, (np.arange(b)[:, None, None], idx), slabs)
    return gx


def lstm_step(x, h, c, w_in, w_rec, bias):
    """One LSTM step by the gate equations (input, forget, cell, output):
    (h', c') for a (B, D) input and (B, H) state."""
    hidden = h.shape[1]
    z = x @ w_in.T + h @ w_rec.T + bias

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    gi = sigmoid(z[:, :hidden])
    gf = sigmoid(z[:, hidden : 2 * hidden])
    gg = np.tanh(z[:, 2 * hidden : 3 * hidden])
    go = sigmoid(z[:, 3 * hidden :])
    c_new = gf * c + gi * gg
    return go * np.tanh(c_new), c_new


def lstm_oracle(x, w_in, w_rec, bias, h, c):
    """One layer of nn.lstm_cell one step at a time: (hidden states (B, T,
    H), h, c)."""
    outs = []
    for t in range(x.shape[1]):
        h, c = lstm_step(x[:, t], h, c, w_in, w_rec, bias)
        outs.append(h)
    return np.stack(outs, axis=1), h, c


def lstm_layer(x, w_in, w_rec, bias, h: np.ndarray, c: np.ndarray) -> nn.Tensor:
    """One LSTM layer over a whole chunk as one node, x (B, T, D) -> hidden
    states (B, T, H), the way nn.lstm_cell ran layer by layer before it took
    the whole stack: the input products of every step as one (T*B, D) GEMM,
    then the recurrence, the halved sigmoid columns and the out= scratch of
    nn.lstm_cell; h and c advance in place.  The backward is the same
    reverse loop and whole-chunk GEMMs.  A chain of these, each layer's
    input the node below, is the byte oracle of the stack node."""
    x, w_in, w_rec, bias = (nn.as_tensor(t) for t in (x, w_in, w_rec, bias))
    hidden = h.shape[1]
    sigmoid_cols = (slice(0, 2 * hidden), slice(3 * hidden, 4 * hidden))  # i, f and o
    x_tm = np.ascontiguousarray(x.data.swapaxes(0, 1))  # (T, B, D): steps contiguous
    steps, batch, dim = x_tm.shape
    acts = x_tm.reshape(-1, dim) @ w_in.data.T + bias.data
    w = w_rec.data.T.copy()  # (H, 4H), ours to scale
    for cols in sigmoid_cols:
        for m in (acts[:, cols], w[:, cols]):
            m *= 0.5
    acts = acts.reshape(steps, batch, 4 * hidden)  # overwritten by gates i, f, g, o
    hs = np.empty((steps + 1,) + h.shape, dtype=acts.dtype)  # hs[t + 1]: after step t
    cs = np.empty_like(hs)
    hs[0], cs[0] = h, c
    rec = np.empty((batch, 4 * hidden), dtype=acts.dtype)
    tmp = np.empty((batch, hidden), dtype=acts.dtype)
    for t in range(steps):
        a = acts[t]
        np.matmul(hs[t], w, out=rec)
        a += rec
        np.tanh(a, out=a)
        for cols in sigmoid_cols:
            gates = a[:, cols]
            gates *= 0.5
            gates += 0.5
        gi, gf, gg, go = (a[:, k * hidden : (k + 1) * hidden] for k in range(4))
        np.multiply(gf, cs[t], out=cs[t + 1])
        cs[t + 1] += np.multiply(gi, gg, out=tmp)
        np.multiply(go, np.tanh(cs[t + 1], out=tmp), out=hs[t + 1])

    def backward(g):
        dz = np.empty(x.data.shape[:2] + (4 * hidden,), dtype=acts.dtype)  # (B, T, 4H)
        dh_next, dc_next, dh, dc, tc, t1, t2 = np.zeros((7,) + h.shape, dtype=acts.dtype)
        for t in reversed(range(steps)):
            gi, gf, gg, go = (acts[t][:, k * hidden : (k + 1) * hidden] for k in range(4))
            di, df, dg, do = (dz[:, t, k * hidden : (k + 1) * hidden] for k in range(4))
            np.tanh(cs[t + 1], out=tc)
            np.add(g[:, t], dh_next, out=dh)
            np.multiply(dh, go, out=t1)
            np.multiply(tc, tc, out=t2)
            np.subtract(1.0, t2, out=t2)
            t1 *= t2
            np.add(dc_next, t1, out=dc)
            np.multiply(dc, gg, out=di)
            di *= gi
            di *= np.subtract(1.0, gi, out=t1)
            np.multiply(dc, cs[t], out=df)
            df *= gf
            df *= np.subtract(1.0, gf, out=t1)
            np.multiply(dc, gi, out=dg)
            np.multiply(gg, gg, out=t1)
            dg *= np.subtract(1.0, t1, out=t1)
            np.multiply(dh, tc, out=do)
            do *= go
            do *= np.subtract(1.0, go, out=t1)
            np.matmul(dz[:, t], w_rec.data, out=dh_next)
            np.multiply(dc, gf, out=dc_next)
        dz_flat = dz.reshape(-1, 4 * hidden)
        return ((dz_flat @ w_in.data).reshape(x.data.shape) if x.requires_grad else None,
                dz_flat.T @ x.data.reshape(len(dz_flat), -1),
                dz_flat.T @ hs[:-1].swapaxes(0, 1).reshape(len(dz_flat), -1),
                dz_flat.sum(axis=0))

    out = _node(hs[1:].swapaxes(0, 1), (x, w_in, w_rec, bias), backward, "lstm_layer")
    h[...], c[...] = hs[-1], cs[-1]
    return out


def lstm_backward_oracle(g, x, w_in, w_rec, acts, hs, cs):
    """One layer of nn.lstm_cell's backward in plain allocating numpy
    expressions: (dx, dw_in, dw_rec, dbias) for the gradient g of its hidden
    states, from its batch-major input x (B, T, D), its weights and the
    gates acts (T, B, 4H) and states hs, cs (T + 1, B, H) of its forward."""
    hidden = acts.shape[2] // 4
    dz = np.empty(x.shape[:2] + (4 * hidden,), dtype=acts.dtype)  # (B, T, 4H)
    dh_next = dc_next = 0.0
    for t in reversed(range(len(acts))):
        gi, gf, gg, go = np.split(acts[t], 4, axis=1)
        tc = np.tanh(cs[t + 1])
        dh = g[:, t] + dh_next
        dc = dc_next + dh * go * (1.0 - tc * tc)
        dz[:, t, :hidden] = dc * gg * gi * (1.0 - gi)
        dz[:, t, hidden : 2 * hidden] = dc * cs[t] * gf * (1.0 - gf)
        dz[:, t, 2 * hidden : 3 * hidden] = dc * gi * (1.0 - gg * gg)
        dz[:, t, 3 * hidden :] = dh * tc * go * (1.0 - go)
        dh_next = dz[:, t] @ w_rec
        dc_next = dc * gf
    dz_flat = dz.reshape(-1, 4 * hidden)
    return (
        (dz_flat @ w_in).reshape(x.shape),
        dz_flat.T @ x.reshape(len(dz_flat), -1),
        dz_flat.T @ hs[:-1].swapaxes(0, 1).reshape(len(dz_flat), -1),
        dz_flat.sum(axis=0),
    )


def unit_stats(n_bins: int) -> NormStats:
    """Statistics of n_bins bins that leave frames as they are (mean 0,
    std 1), for a model whose tests feed it normalized values directly."""
    return NormStats(np.zeros(n_bins), np.ones(n_bins))


def synth_voice(seed: int, num_samples: int = SAMPLE_RATE,
                rate: int = SAMPLE_RATE) -> np.ndarray:
    """Speech-like test signal: a few modulated tones over a faint noise bed.

    The noise bed keeps every frequency bin away from the log-power floor so
    z-scored features stay well conditioned.  Peak amplitude 0.5.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(num_samples) / rate
    x = np.zeros(num_samples)
    for _ in range(int(rng.integers(3, 8))):
        freq = float(rng.uniform(150.0, 3400.0))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        am_rate = float(rng.uniform(1.0, 6.0))
        am = 0.55 + 0.45 * np.sin(2.0 * np.pi * am_rate * t + float(rng.uniform(0, 7)))
        x += float(rng.uniform(0.3, 1.0)) * am * np.sin(2.0 * np.pi * freq * t + phase)
    x += 0.01 * rng.standard_normal(num_samples)
    return 0.5 * x / np.max(np.abs(x))


def synth_noise(seed: int, num_samples: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(num_samples)
    return 0.35 * x / np.max(np.abs(x))


# ---------------------------------------------------------------------------
# per-frame model oracles: the whole-utterance forward must agree with these
# ---------------------------------------------------------------------------


def frame_stack(values: np.ndarray, lookahead: int) -> np.ndarray:
    """Frames t-lookahead..t+lookahead per step, edge-replicated: (T, R, N)."""
    t = values.shape[0]
    idx = np.arange(t)[:, None] + np.arange(-lookahead, lookahead + 1)[None, :]
    idx = np.clip(idx, 0, t - 1)
    return values[idx]


def stacked_chunk(noisy, clean, starts, steps: int, lookahead: int) -> ChunkData:
    """chunk_from_frames by the stored-stack layout: each utterance's whole
    frame_stack first, then its rows start..start+steps-1 clamped to the
    last frame, and valid = min(steps, T - start) per lane."""
    def lanes(frames):
        return np.stack([frame_stack(f, lookahead)[np.minimum(
            np.arange(start, start + steps), f.shape[0] - 1)]
            for f, start in zip(frames, starts)])

    valid = np.array([min(steps, f.shape[0] - start) for f, start in zip(noisy, starts)])
    return ChunkData(lanes(noisy), None if clean is None else lanes(clean), valid)


def _values(lps) -> np.ndarray:
    return lps.values if isinstance(lps, LpsSequence) else np.asarray(lps)


def assemble_pri_input(lps, t: int, lookahead: int) -> np.ndarray:
    """Prior-network input vector for step t: frames t..t+lookahead."""
    values = _values(lps)
    if not 0 <= t < values.shape[0]:
        raise IndexError(f"frame {t} out of range for {values.shape[0]} frames")
    idx = np.clip(np.arange(t, t + lookahead + 1), 0, values.shape[0] - 1)
    return values[idx].reshape(-1)


def gather_mbps(pri_outputs: np.ndarray, t: int) -> np.ndarray:
    """All base predictions of frame t, ordered by offset ascending.

    The offset-m prediction of frame t lives in the stack emitted at step
    t-m (row m+lookahead); steps outside the sequence are edge-replicated.
    """
    pri_outputs = np.asarray(pri_outputs)
    total, rows, _ = pri_outputs.shape
    if not 0 <= t < total:
        raise IndexError(f"frame {t} out of range for {total} frames")
    lookahead = (rows - 1) // 2
    offsets = np.arange(-lookahead, lookahead + 1)
    steps = np.clip(t - offsets, 0, total - 1)
    return pri_outputs[steps, np.arange(rows)]


def assemble_posterior_input(pri_outputs: np.ndarray, noisy, t: int) -> np.ndarray:
    """Posterior channel stack for frame t.

    Channels are every row of the stacks emitted at steps t-lookahead..
    t+lookahead (step ascending, row ascending within a step) followed by
    the noisy frames t-lookahead..t+lookahead; all indices edge-replicated.
    """
    pri_outputs = np.asarray(pri_outputs)
    noisy_values = _values(noisy)
    total, rows, bins = pri_outputs.shape
    if noisy_values.shape != (total, bins):
        raise ValueError(
            f"noisy shape {noisy_values.shape} incompatible with "
            f"prior outputs {pri_outputs.shape}"
        )
    if not 0 <= t < total:
        raise IndexError(f"frame {t} out of range for {total} frames")
    lookahead = (rows - 1) // 2
    offsets = np.arange(-lookahead, lookahead + 1)
    steps = np.clip(t + offsets, 0, total - 1)
    stacks = pri_outputs[steps].reshape(rows * rows, bins)
    return np.concatenate([stacks, noisy_values[steps]], axis=0)


def pri_forward(params, lps) -> np.ndarray:
    """Prior-stage output stacks for a whole utterance, (T, R, N): every
    step's assemble_pri_input through the stepwise LSTM oracle from a zero
    state, then the stack projection."""
    values = _values(lps).astype(params.dtype, copy=False)
    cfg = params.config
    x = np.stack([assemble_pri_input(values, t, cfg.lookahead)
                  for t in range(len(values))])[None]
    zeros = np.zeros((1, cfg.lstm_units), params.dtype)
    p = {name: t.data for name, t in params.tensors.items()}
    for i in range(cfg.lstm_layers):
        x = lstm_oracle(x, p[f"lstm{i}.w_in"], p[f"lstm{i}.w_rec"], p[f"lstm{i}.bias"],
                        zeros, zeros)[0]
    stacks = x[0] @ p["proj.weight"].T + p["proj.bias"]
    return stacks.reshape(len(values), cfg.stack_rows, cfg.n_bins)


def _posterior_convs(params, v: np.ndarray) -> np.ndarray:
    """Conv stack over a batch of channel stacks (F, C, N) in one call: (F, N)."""
    v = np.asarray(v, dtype=params.dtype)
    out = nn.Tensor(np.ascontiguousarray(v.transpose(0, 2, 1)))
    layers = len(params.config.conv_channels)
    for i in range(layers):
        out = nn.conv1d_freq(out, params.tensors[f"conv{i}.weight"],
                             params.tensors[f"conv{i}.bias"])
        if i < layers - 1:
            out = nn.selu(out)
    return out.data[:, :, 0]


def post_forward(params, v: np.ndarray) -> np.ndarray:
    """Posterior-stage output for one assembled channel stack: (N,)."""
    v = np.asarray(v, dtype=params.dtype)
    expected = (params.config.posterior_channels, params.config.n_bins)
    if v.shape != expected:
        raise ValueError(f"posterior input shape {v.shape}, expected {expected}")
    return _posterior_convs(params, v[None])[0]


def enhance_one_block(params, lps) -> np.ndarray:
    """enhance_lps with the whole utterance in one posterior block: every
    frame's assemble_posterior_input stack, over the model's own prior
    outputs, through the conv stack at once."""
    values = _values(lps).astype(params.dtype, copy=False)
    cfg = params.config
    windows = frame_stack(values, cfg.lookahead)[:, cfg.lookahead:].reshape(1, len(values), -1)
    stacks = _prior(params.frozen(), windows, zero_state(params, 1)).data.reshape(
        len(values), cfg.stack_rows, cfg.n_bins)
    v = np.stack([assemble_posterior_input(stacks, values, t)
                  for t in range(values.shape[0])])
    return _posterior_convs(params, v)


def whole_chunk_forward(params, data: ChunkData):
    """forward_chunk as it ran before the prior was segmented: one
    lstm_cell call and one projection over the whole chunk, every stack
    held, then the posterior blocks over them: (x_hat (B, U, N) as an
    array, LossOut or None)."""
    cfg = params.config
    lookahead, n_bins = cfg.lookahead, cfg.n_bins
    noisy_ctx = data.noisy_ctx.astype(params.dtype, copy=False)
    batch, steps = noisy_ctx.shape[:2]
    flat = _prior(params, np.ascontiguousarray(noisy_ctx[:, :, lookahead:])
                  .reshape(batch, steps, -1), zero_state(params, batch))
    x_bar = nn.reshape(flat, (batch, steps, cfg.stack_rows, n_bins))
    gather_idx = stack_index(np.arange(steps), lookahead, data.valid[:, None, None] - 1)
    block = min(rtsn.model.POST_BLOCK_STEPS, max(1, rtsn.model.POST_BLOCK_FRAMES // batch))
    blocks = []
    for start in range(0, steps, block):
        rows = slice(start, start + block)
        image = nn.gather_steps(x_bar, gather_idx[:, rows], noisy_ctx[:, rows])
        blocks.append(nn.reshape(_conv_stack(params, image), (batch, -1, n_bins)))
    x_hat = nn.concat(blocks, axis=1)
    loss = None
    if data.clean_stack is not None:
        mask = np.arange(steps) < data.valid[:, None]
        loss = mol_loss(x_hat, data.clean_stack[:, :, lookahead], flat, data.clean_stack,
                        cfg.prior_weight, mask)
    return x_hat.data, loss


def evaluate_pri(params, utterances) -> float:
    """Frame-weighted mean unweighted prior-stack error over utterances."""
    total = 0.0
    frames = 0
    for utt in utterances:
        data = chunk_from_frames([utt.noisy], [utt.clean], [0], utt.num_frames,
                                 params.config.lookahead)
        total += forward_chunk(params, data).loss.pri * utt.num_frames
        frames += utt.num_frames
    return total / frames


def byte_edits(hot: int, extra=st.nothing()):
    """Up to three edits of a file's bytes, for mutate: ("cut", n) keeps the
    first n bytes, ("set", i, v) sets byte i to v, ("flip", i, b) flips bit
    b of byte i, and extra draws more.  Offsets wrap at the file's length
    and half of them fall in its first hot bytes, where the headers are."""
    at = st.integers(0, hot - 1) | st.integers(0, 1 << 20)
    edit = (st.tuples(st.just("cut"), at) | st.tuples(st.just("set"), at, st.integers(0, 255))
            | st.tuples(st.just("flip"), at, st.integers(0, 7)) | extra)
    return st.lists(edit, min_size=1, max_size=3)


def mutate(data: bytes, edits) -> bytes:
    """data with edits (see byte_edits) applied in order; ("put", i, raw)
    writes the bytes raw from offset i."""
    out = bytearray(data)
    for how, i, *arg in edits:
        i %= max(1, len(out))
        if how == "cut":
            del out[i:]
        elif how == "put":
            out[i : i + len(arg[0])] = arg[0]
        elif out:
            out[i] = arg[0] if how == "set" else out[i] ^ (1 << arg[0])
    return bytes(out)


def run_cli(argv, env=None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of python -m rtsn.cli argv in a process
    of its own, with this rtsn first on its path and env's variables set
    over this process's.  Unlike an in-process run, whose warnings pytest
    captures, it sees everything the command writes."""
    src = str(Path(rtsn.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rtsn.cli"] + [str(a) for a in argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})})
    return proc.returncode, proc.stdout, proc.stderr
