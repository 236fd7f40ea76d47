"""Differentiable layers: SELU, dense, LSTM layer, frequency 1-D convolution.

Each layer is a single fused graph node with a handwritten backward pass;
finite-difference tests in the suite check every one of them.
"""
from __future__ import annotations

import numpy as np

from .engine import Tensor, _accum, _node, as_tensor

SELU_ALPHA = 1.6732632423543772
SELU_SCALE = 1.0507009873554805


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (np.tanh(0.5 * z) + 1.0)


def selu(x) -> Tensor:
    """Self-normalizing exponential-linear activation."""
    x = as_tensor(x)
    neg = np.minimum(x.data, 0.0)
    expneg = np.exp(neg)
    out = np.where(x.data > 0,
                   SELU_SCALE * x.data,
                   SELU_SCALE * SELU_ALPHA * (expneg - 1.0))

    def backward(g):
        local = np.where(x.data > 0, SELU_SCALE, SELU_SCALE * SELU_ALPHA * expneg)
        _accum(x, g * local)

    return _node(out.astype(x.data.dtype, copy=False), (x,), backward, "selu")


def linear(x, weight, bias=None) -> Tensor:
    """y = x @ weight.T (+ bias); weight is (out, in)."""
    x, weight = as_tensor(x), as_tensor(weight)
    out = x.data @ weight.data.T
    parents = (x, weight)
    if bias is not None:
        bias = as_tensor(bias)
        out = out + bias.data
        parents = (x, weight, bias)

    def backward(g):
        _accum(x, g @ weight.data)
        _accum(weight, g.T @ x.data)
        if bias is not None:
            _accum(bias, g.sum(axis=0))

    return _node(out, parents, backward, "linear")


def lstm_cell(x, w_in, w_rec, bias, h: np.ndarray, c: np.ndarray) -> Tensor:
    """One LSTM layer over a whole chunk: x (B, T, D) -> hidden states (B, T, H).

    Gate order inside the packed 4H dimension is input, forget, cell, output;
    w_in is (4H, D) and w_rec is (4H, H).  The input products of every step
    are one GEMM before the recurrence, which keeps only h @ w_rec.T.  The
    state arrays h and c (B, H) enter as constants and are advanced in place
    to the state after the last step.  The backward runs one reverse loop,
    then forms the weight, bias and input gradients as whole-chunk GEMMs.
    """
    x, w_in, w_rec, bias = (as_tensor(t) for t in (x, w_in, w_rec, bias))
    hidden = h.shape[1]
    x_tm = np.ascontiguousarray(x.data.swapaxes(0, 1))  # (T, B, D): steps contiguous
    acts = x_tm @ w_in.data.T + bias.data  # (T, B, 4H), overwritten by gates i, f, g, o
    steps = acts.shape[0]
    hs = np.empty((steps + 1,) + h.shape, dtype=acts.dtype)  # hs[t + 1]: after step t
    cs = np.empty_like(hs)
    hs[0], cs[0] = h, c
    for t in range(steps):
        a = acts[t]
        a += hs[t] @ w_rec.data.T
        a[:, : 2 * hidden] = _sigmoid(a[:, : 2 * hidden])
        a[:, 2 * hidden : 3 * hidden] = np.tanh(a[:, 2 * hidden : 3 * hidden])
        a[:, 3 * hidden :] = _sigmoid(a[:, 3 * hidden :])
        gi, gf, gg, go = np.split(a, 4, axis=1)
        cs[t + 1] = gf * cs[t] + gi * gg
        hs[t + 1] = go * np.tanh(cs[t + 1])

    def backward(g):
        dz = np.empty(x.data.shape[:2] + (4 * hidden,), dtype=acts.dtype)  # (B, T, 4H)
        dh_next = dc_next = 0.0
        for t in reversed(range(steps)):
            gi, gf, gg, go = np.split(acts[t], 4, axis=1)
            tc = np.tanh(cs[t + 1])
            dh = g[:, t] + dh_next
            dc = dc_next + dh * go * (1.0 - tc * tc)
            dz[:, t, :hidden] = dc * gg * gi * (1.0 - gi)
            dz[:, t, hidden : 2 * hidden] = dc * cs[t] * gf * (1.0 - gf)
            dz[:, t, 2 * hidden : 3 * hidden] = dc * gi * (1.0 - gg * gg)
            dz[:, t, 3 * hidden :] = dh * tc * go * (1.0 - go)
            dh_next = dz[:, t] @ w_rec.data
            dc_next = dc * gf
        dz_flat = dz.reshape(-1, 4 * hidden)
        _accum(w_in, dz_flat.T @ x.data.reshape(len(dz_flat), -1))
        _accum(w_rec, dz_flat.T @ hs[:-1].swapaxes(0, 1).reshape(len(dz_flat), -1))
        _accum(bias, dz_flat.sum(axis=0))
        if x.requires_grad:
            _accum(x, dz @ w_in.data)

    out = _node(hs[1:].swapaxes(0, 1), (x, w_in, w_rec, bias), backward, "lstm_cell")
    h[...], c[...] = hs[-1], cs[-1]
    return out


def conv1d_freq(x, kernels, bias) -> Tensor:
    """Cross-correlation along the last axis with zero padding (k-1)/2.

    x is (batch, in_channels, n), kernels (out_channels, in_channels, k)
    with odd k; output keeps length n.
    """
    x, kernels, bias = as_tensor(x), as_tensor(kernels), as_tensor(bias)
    c_out, c_in, k = kernels.data.shape
    if k % 2 != 1:
        raise ValueError(f"kernel width must be odd, got {k}")
    if x.data.shape[1] != c_in:
        raise ValueError(
            f"input has {x.data.shape[1]} channels, kernels expect {c_in}"
        )
    half = (k - 1) // 2
    n = x.data.shape[2]
    padded = np.pad(x.data, ((0, 0), (0, 0), (half, half)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=2)
    out = np.einsum("bcnj,ocj->bon", windows, kernels.data, optimize=True)
    out = out + bias.data[None, :, None]

    def backward(g):
        _accum(kernels, np.einsum("bon,bcnj->ocj", g, windows, optimize=True))
        _accum(bias, g.sum(axis=(0, 2)))
        if x.requires_grad:
            gpad = np.zeros_like(padded)
            contrib = np.einsum("bon,ocj->bcnj", g, kernels.data, optimize=True)
            for j in range(k):
                gpad[:, :, j : j + n] += contrib[:, :, :, j]
            _accum(x, gpad[:, :, half : half + n] if half else gpad)

    return _node(out.astype(x.data.dtype, copy=False), (x, kernels, bias), backward,
                 "conv1d_freq")


def gather_steps(x, idx: np.ndarray) -> Tensor:
    """Gather whole rows of a (B, T, R, N) tensor along the step axis.

    idx is an integer array (B, U, M) of step indices into x for any U, so
    one call can serve a block of U output rows; the result is
    (B, U, M*R, N) with out[b, u, m*R + r] = x[b, idx[b, u, m], r].
    """
    x = as_tensor(x)
    b, t, r, n = x.data.shape
    idx = np.asarray(idx)
    if idx.ndim != 3 or idx.shape[0] != b:
        raise ValueError(f"idx shape {idx.shape} incompatible with {x.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= t):
        raise ValueError("gather index out of range")
    u, m = idx.shape[1:]
    b_idx = np.arange(b)[:, None, None]
    out = x.data[b_idx, idx]  # (B, U, M, R, N)

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, (b_idx, idx), g.reshape(b, u, m, r, n))
            _accum(x, gx)

    return _node(out.reshape(b, u, m * r, n), (x,), backward, "gather_steps")
