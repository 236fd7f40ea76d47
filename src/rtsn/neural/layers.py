"""Differentiable layers: SELU, dense, LSTM layer, frequency 1-D convolution,
the posterior's input image and the training loss.

Each layer is a single fused graph node with a handwritten backward
closure that returns its parents' gradients in parent order, None for a
constant input it skips; the engine's grads_for sums them.  Finite-difference
tests in the suite check every one of them.
"""
from __future__ import annotations

import numpy as np

from .engine import Tensor, _node, as_tensor

SELU_ALPHA = 1.6732632423543772
SELU_SCALE = 1.0507009873554805


# Values per block of an elementwise layer: 256 KB in float32, so the
# several passes over one block run in cache.
_ELEMENTWISE_BLOCK = 1 << 16


def _flat_blocks(*arrays):
    """Matching slices of contiguous same-size arrays, one block at a time."""
    flats = [a.reshape(-1) for a in arrays]
    for lo in range(0, flats[0].size, _ELEMENTWISE_BLOCK):
        yield [f[lo : lo + _ELEMENTWISE_BLOCK] for f in flats]


def selu(x) -> Tensor:
    """Self-normalizing exponential-linear activation, elementwise.

    Computed branch-free as SCALE * (max(x, 0) + ALPHA * expm1(min(x, 0)))
    in cache-sized blocks, with block-sized scratch only.  The backward
    reads only the output y: the slope is SCALE where y > 0 and SCALE *
    ALPHA * exp(x) = y + SCALE * ALPHA elsewhere, that is min(y, 0) +
    SCALE * ALPHA - (SCALE * ALPHA - SCALE) * [y > 0].
    """
    x = as_tensor(x)
    out = np.empty(x.data.shape, dtype=x.data.dtype)
    block = min(out.size, _ELEMENTWISE_BLOCK)
    # numpy's min/max/compare run several times faster against an array
    # than against a broadcast scalar
    zero = np.zeros(block, dtype=out.dtype)
    temp = np.empty(block, dtype=out.dtype)
    for xb, ob in _flat_blocks(np.ascontiguousarray(x.data), out):
        z, t = zero[: xb.size], temp[: xb.size]
        np.minimum(xb, z, out=ob)
        np.expm1(ob, out=ob)
        ob *= SELU_ALPHA
        ob += np.maximum(xb, z, out=t)
        ob *= SELU_SCALE

    def backward(g):
        gx = np.empty_like(out)
        for yb, gb, ob in _flat_blocks(out, g, gx):
            z, t = zero[: yb.size], temp[: yb.size]
            np.greater(yb, z, out=t)
            t *= SELU_SCALE * SELU_ALPHA - SELU_SCALE
            np.minimum(yb, z, out=ob)
            ob += SELU_SCALE * SELU_ALPHA
            ob -= t
            ob *= gb
        return (gx,)

    return _node(out, (x,), backward, "selu")


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
        grads = (g @ weight.data, g.T @ x.data)
        return grads if bias is None else grads + (g.sum(axis=0),)

    return _node(out, parents, backward, "linear")


def lstm_cell(x, w_in, w_rec, bias, h: np.ndarray, c: np.ndarray) -> Tensor:
    """One LSTM layer over a whole chunk: x (B, T, D) -> hidden states (B, T, H).

    Gate order inside the packed 4H dimension is input, forget, cell, output;
    w_in is (4H, D) and w_rec is (4H, H).  The input products of every step
    are one 2-D GEMM, (T*B, D) @ w_in.T, before the recurrence, which keeps
    only h @ w_rec.T.  The state arrays h and c (B, H) enter as constants and
    are advanced in place to the state after the last step.

    Each sigmoid is taken as 0.5 * tanh(0.5 * z) + 0.5, so a step runs one
    tanh over all four gates.  The i, f and o columns of the input products
    and of a private contiguous copy of w_rec.T are halved once up front:
    scaling by a power of two is exact, so every gate sees the same 0.5 * z
    as if it were halved after the sum.  The copy is always taken, never a
    view, because the halving writes into it.  A step is then the recurrent
    GEMV plus elementwise work into preallocated arrays.

    The backward runs one reverse loop over the stored gate values, into
    preallocated (B, H) scratch by out=, then forms the weight, bias and
    input gradients as whole-chunk GEMMs over the batch-major (B, T, 4H) dz.
    """
    x, w_in, w_rec, bias = (as_tensor(t) for t in (x, w_in, w_rec, bias))
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
        # (B, H) scratch: the carried dh/dc, this step's dh/dc, tanh(c), two temps
        dh_next, dc_next, dh, dc, tc, t1, t2 = np.zeros((7,) + h.shape, dtype=acts.dtype)
        for t in reversed(range(steps)):
            gi, gf, gg, go = (acts[t][:, k * hidden : (k + 1) * hidden] for k in range(4))
            di, df, dg, do = (dz[:, t, k * hidden : (k + 1) * hidden] for k in range(4))
            np.tanh(cs[t + 1], out=tc)
            np.add(g[:, t], dh_next, out=dh)
            # each product runs left to right as the formula beside it reads,
            # so the rounding is that of the plain numpy expression
            np.multiply(dh, go, out=t1)  # dc = dc_next + dh * go * (1 - tc * tc)
            np.multiply(tc, tc, out=t2)
            np.subtract(1.0, t2, out=t2)
            t1 *= t2
            np.add(dc_next, t1, out=dc)
            np.multiply(dc, gg, out=di)  # dc * gg * gi * (1 - gi)
            di *= gi
            di *= np.subtract(1.0, gi, out=t1)
            np.multiply(dc, cs[t], out=df)  # dc * c_prev * gf * (1 - gf)
            df *= gf
            df *= np.subtract(1.0, gf, out=t1)
            np.multiply(dc, gi, out=dg)  # dc * gi * (1 - gg * gg)
            np.multiply(gg, gg, out=t1)
            dg *= np.subtract(1.0, t1, out=t1)
            np.multiply(dh, tc, out=do)  # dh * tc * go * (1 - go)
            do *= go
            do *= np.subtract(1.0, go, out=t1)
            np.matmul(dz[:, t], w_rec.data, out=dh_next)
            np.multiply(dc, gf, out=dc_next)
        dz_flat = dz.reshape(-1, 4 * hidden)
        return ((dz_flat @ w_in.data).reshape(x.data.shape) if x.requires_grad else None,
                dz_flat.T @ x.data.reshape(len(dz_flat), -1),
                dz_flat.T @ hs[:-1].swapaxes(0, 1).reshape(len(dz_flat), -1),
                dz_flat.sum(axis=0))

    out = _node(hs[1:].swapaxes(0, 1), (x, w_in, w_rec, bias), backward, "lstm_cell")
    h[...], c[...] = hs[-1], cs[-1]
    return out


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Columns (B*N, k*C) of a channel-last (B, N, C) array: row (b, n) is
    x[b, n-h .. n+h] flattened tap-major, zero outside, h = (k-1)/2.

    In the padded array that row is one contiguous run of k*C values, so a
    strided view holds every row and reshaping it makes the one copy.
    """
    b, n, c = x.shape
    half = (k - 1) // 2
    padded = np.empty((b, n + 2 * half, c), dtype=x.dtype)
    padded[:, :half] = 0
    padded[:, half + n :] = 0
    padded[:, half : half + n] = x
    windows = np.lib.stride_tricks.as_strided(padded, (b, n, k * c), padded.strides,
                                              writeable=False)
    return windows.reshape(b * n, k * c)


# Most values one im2col block holds: 4 MB in float32, so a block is still
# in cache when its GEMM reads it, and it is reused from the heap where the
# whole (frames*bins, k*C) matrix, up to 169 MB, would be mapped fresh and
# page-faulted on every call.
_COLS_BLOCK = 1 << 20


def _col_blocks(x: np.ndarray, k: int):
    """(row slice, im2col columns) over consecutive blocks of x's frames."""
    b, n, c = x.shape
    frames = max(1, _COLS_BLOCK // (n * k * c))
    for start in range(0, b, frames):
        rows = slice(start * n, min(b, start + frames) * n)
        yield rows, _im2col(x[start : start + frames], k)


def _correlate(x: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """im2col(x) @ w for x (B, N, C) and w (k*C, O): (B*N, O)."""
    out = np.empty((x.shape[0] * x.shape[1], w.shape[1]), dtype=x.dtype)
    for rows, cols in _col_blocks(x, k):
        np.matmul(cols, w, out=out[rows])
    return out


def conv1d_freq(x, kernels, bias) -> Tensor:
    """Cross-correlation along frequency with zero padding h = (k-1)/2.

    Channel-last: x is (frames, bins, in_channels), kernels (out_channels,
    in_channels, k) with odd k, and the output (frames, bins, out_channels)
    keeps the bin count.  The forward is the GEMM im2col(x) @ W, with
    W[j*C + c, o] = kernels[o, c, j]; the columns are built a few frames at
    a time and dropped after use, never kept for the backward.  With g the
    output gradient, the backward rebuilds them from x and computes
      dW = im2col(x).T @ g,  dbias = sum of g over frames and bins,
      dx = im2col(g) @ W',  W'[j*O + o, c] = kernels[o, c, k-1-j],
    that is the forward again on g with the kernels flipped and transposed.
    """
    x, kernels, bias = as_tensor(x), as_tensor(kernels), as_tensor(bias)
    c_out, c_in, k = kernels.data.shape
    if k % 2 != 1:
        raise ValueError(f"kernel width must be odd, got {k}")
    if x.data.shape[2] != c_in:
        raise ValueError(
            f"input has {x.data.shape[2]} channels, kernels expect {c_in}"
        )
    frames, n, _ = x.data.shape
    w = kernels.data.transpose(2, 1, 0).reshape(k * c_in, c_out)
    out = _correlate(x.data, w, k)
    out += bias.data

    def backward(g):
        g = g.reshape(-1, c_out)
        gw = np.zeros((k * c_in, c_out), dtype=g.dtype)
        for rows, cols in _col_blocks(x.data, k):
            gw += cols.T @ g[rows]
        gx = None
        if x.requires_grad:
            flipped = kernels.data[:, :, ::-1].transpose(2, 0, 1).reshape(k * c_out, c_in)
            gx = _correlate(g.reshape(frames, n, c_out), flipped, k).reshape(frames, n, c_in)
        return gx, gw.reshape(k, c_in, c_out).transpose(2, 1, 0), g.sum(axis=0)

    return _node(out.reshape(frames, n, c_out), (x, kernels, bias), backward,
                 "conv1d_freq")


def gather_steps(x, idx: np.ndarray, context: np.ndarray) -> Tensor:
    """The posterior's channel-last input image: whole (R, N) rows of a
    (B, T, R, N) tensor gathered along the step axis, then a constant
    context, as one (B*U, N, M*R + C) array.

    idx is an integer array (B, U, M) of step indices into x for any U, so
    one call can serve a block of U output frames, and context is (B, U, C,
    N).  With f = b*U + u,
      out[f, n, m*R + r] = x[b, idx[b, u, m], r, n],
      out[f, n, M*R + c] = context[b, u, c, n].
    Only x gets a gradient: the gathered channels' gradient is scattered
    back onto the steps they were read from.
    """
    x = as_tensor(x)
    b, t, r, n = x.data.shape
    idx = np.asarray(idx)
    if idx.ndim != 3 or idx.shape[0] != b:
        raise ValueError(f"idx shape {idx.shape} incompatible with {x.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= t):
        raise ValueError("gather index out of range")
    u, m = idx.shape[1:]
    context = np.asarray(context)
    if context.ndim != 4 or context.shape[:2] != (b, u) or context.shape[3] != n:
        raise ValueError(f"context shape {context.shape} does not match "
                         f"({b}, {u}, channels, {n})")
    b_idx = np.arange(b)[:, None, None]
    mr = m * r
    image = np.empty((b, u, n, mr + context.shape[2]), dtype=x.data.dtype)
    image[..., :mr] = x.data[b_idx, idx].reshape(b, u, mr, n).swapaxes(2, 3)
    image[..., mr:] = context.swapaxes(2, 3)

    def backward(g):
        # Scatter-add each gathered (R, N) slab back onto its step.  A stable
        # sort by (batch, step) ranks the repeats of every index in read
        # order; each rank's indices are distinct, so one buffered add per
        # rank sums the repeats in np.add.at's order.
        keys = (b_idx * t + idx).reshape(-1)
        order = np.argsort(keys, kind="stable")
        first = np.flatnonzero(np.diff(keys[order], prepend=-1))
        rank = np.arange(keys.size) - np.repeat(first, np.diff(first, append=keys.size))
        rows = g[..., :mr].reshape(b * u, n, m, r).transpose(0, 2, 3, 1).reshape(-1, r * n)
        gx = np.zeros((b * t, r * n), dtype=g.dtype)
        for level in range(rank.max(initial=-1) + 1):
            sel = order[rank == level]
            gx[keys[sel]] += rows[sel]
        return (gx.reshape(x.data.shape),)

    return _node(image.reshape(b * u, n, -1), (x,), backward, "gather_steps")


def stack_loss(frames, target_frames, stacks, target_stacks, prior_weight: float,
               mask: np.ndarray | None = None):
    """The training objective as one node: (total, post_sum, pri_sum, count).

    frames (..., N) and stacks (..., R, N) are the predictions, stacks in
    any shape of target_stacks' size (read in its shape); the targets and
    the mask (...) of 0/1 frame weights, all ones when None, are constants.
    With count = sum(mask) and per frame the squared errors
      post = |frames - target_frames|^2,  pri = |stacks - target_stacks|^2,
    post_sum and pri_sum are the masked sums of post and pri in the
    predictions' dtype, and total = (post_sum + prior_weight * pri_sum) /
    count in float64.  The backward is closed form: frames get
    2 (frames - target_frames) mask / count and stacks prior_weight times
    the same of theirs, each scale rounded to the predictions' dtype before
    it meets the mask.
    """
    frames, stacks = as_tensor(frames), as_tensor(stacks)
    dtype = frames.dtype
    m = (np.ones(frames.shape[:-1], dtype=dtype) if mask is None
         else np.asarray(mask, dtype=dtype))
    count = float(m.sum())
    if count <= 0:
        raise ValueError("mask excludes every frame")
    diff_frames = frames.data - np.asarray(target_frames, dtype=dtype)
    target_stacks = np.asarray(target_stacks, dtype=dtype)
    diff_stacks = stacks.data.reshape(target_stacks.shape) - target_stacks
    post_sum = ((diff_frames * diff_frames).sum(axis=-1) * m).sum()
    pri_sum = ((diff_stacks * diff_stacks).sum(axis=(-2, -1)) * m).sum()
    weight = np.asarray(prior_weight, dtype=np.float64)
    scale = np.asarray(1.0 / count)
    total = (post_sum + pri_sum * weight) * scale

    def backward(g):
        g_post = g * scale
        g_pri = (g_post * weight).astype(dtype)
        g_post = g_post.astype(dtype)
        return ((g_post * m)[..., None] * (2.0 * diff_frames),
                ((g_pri * m)[..., None, None] * (2.0 * diff_stacks)).reshape(stacks.shape))

    return (_node(total, (frames, stacks), backward, "stack_loss"),
            float(post_sum), float(pri_sum), count)
