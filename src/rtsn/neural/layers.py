"""Differentiable layers: SELU, dense, LSTM cell, frequency 1-D convolution.

Each layer is a single fused graph node with a handwritten backward pass;
finite-difference tests in the suite check every one of them.
"""
from __future__ import annotations

import numpy as np

from .engine import Tensor, _accum, _node, as_tensor

SELU_ALPHA = 1.6732632423543772
SELU_SCALE = 1.0507009873554805


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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


def lstm_cell(x, h, c, w_in, w_rec, bias) -> Tensor:
    """One LSTM step; returns hstack(h', c') of shape (batch, 2H).

    Gate order inside the packed 4H dimension is input, forget, cell, output.
    w_in is (4H, D), w_rec is (4H, H).  Slice the result with [:, :H] for the
    new hidden state and [:, H:] for the new cell state.
    """
    x, h, c = as_tensor(x), as_tensor(h), as_tensor(c)
    w_in, w_rec, bias = as_tensor(w_in), as_tensor(w_rec), as_tensor(bias)
    hidden = h.data.shape[1]
    z = x.data @ w_in.data.T + h.data @ w_rec.data.T + bias.data
    gi = _sigmoid(z[:, :hidden])
    gf = _sigmoid(z[:, hidden : 2 * hidden])
    gg = np.tanh(z[:, 2 * hidden : 3 * hidden])
    go = _sigmoid(z[:, 3 * hidden :])
    c_new = gf * c.data + gi * gg
    tc = np.tanh(c_new)
    h_new = go * tc

    def backward(g):
        dh = g[:, :hidden]
        dc = g[:, hidden:] + dh * go * (1.0 - tc * tc)
        dz = np.concatenate(
            [
                dc * gg * gi * (1.0 - gi),
                dc * c.data * gf * (1.0 - gf),
                dc * gi * (1.0 - gg * gg),
                dh * tc * go * (1.0 - go),
            ],
            axis=1,
        )
        _accum(x, dz @ w_in.data)
        _accum(h, dz @ w_rec.data)
        _accum(c, dc * gf)
        _accum(w_in, dz.T @ x.data)
        _accum(w_rec, dz.T @ h.data)
        _accum(bias, dz.sum(axis=0))

    out = np.concatenate([h_new, c_new], axis=1)
    return _node(out, (x, h, c, w_in, w_rec, bias), backward, "lstm_cell")


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
