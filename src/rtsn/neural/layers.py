"""Differentiable layers: SELU, dense, the LSTM stack, frequency 1-D
convolution, the posterior's input image and the training loss.

Each layer is a single fused graph node with a handwritten backward
closure that returns its parents' gradients in parent order, None for a
constant input it skips; the engine's grads_for sums them.  Finite-difference
tests in the suite check every one of them.

conv1d_freq runs as Winograd's minimal filtering along the bins for
kernel widths 3, 5 and 7 when both sides of the product have at least 64
channels: its forward and input gradient as F(9 - k, k), its kernel
gradient as F(k, 9 - k) over the same tiles; im2col GEMMs run the rest.
In float32 their errors against a float64 oracle are about 4 and 6 times
im2col's, within the bounds that _correlate and _kernel_grad state.

The heavy loops, the conv GEMMs, the SELU passes, the posterior image's
copies and the LSTM stack's blocks, run on a small pool of worker threads
without changing a byte (see the worker pool section below); everything
else runs on the calling thread.  A pool thread only ever runs a share of
one layer's work, never a layer itself, so every public layer and every
backward closure is entered on the calling thread.

Aliasing: a node's value may share memory with its parent's only where no
backward reads what was overwritten.  selu(x, out=x.data) writes over its
input, so a conv followed by a SELU holds one array: the SELU backward
reads only its output, and the conv backward reads its input and kernels,
never its own output.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .engine import Tensor, _node, as_tensor

SELU_ALPHA = 1.6732632423543772
SELU_SCALE = 1.0507009873554805


# ---------------------------------------------------------------------------
# worker pool
# ---------------------------------------------------------------------------
#
# The conv GEMMs, the SELU passes and the posterior image's copies are split
# across worker threads; numpy drops the GIL inside them.  Each worker runs
# exactly the BLAS call or the elementwise block that the one-thread loop
# runs, on the same operands, and every sum is formed in the same order, so
# the output bytes do not depend on the worker count.  The LSTM stack runs
# as a layer wavefront: its (layer, block of steps) tasks go to the pool
# one anti-diagonal at a time, layer i on block k beside layer i + 1 on
# block k - 1, each task the GEMM and steps of a one-layer run over the
# same rows (see lstm_cell for the tail rule that keeps the bytes).  BLAS
# itself must stay at one thread per caller (the CLI pins it): a
# multi-threaded GEMM splits its sums and changes the bytes.

# (workers, pool of workers - 1 threads or None), made on first use
_POOL: tuple[int, ThreadPoolExecutor | None] | None = None
_POOL_LOCK = threading.Lock()


def _worker_count() -> int:
    """The worker count RTSN_THREADS asks for, a positive integer, clamped
    to the CPUs this process may run on; that many when it is unset."""
    cpus = len(os.sched_getaffinity(0))
    value = os.environ.get("RTSN_THREADS")
    if value is None:
        return cpus
    if not (value.isascii() and value.isdigit()) or int(value) < 1:
        raise ValueError(f"RTSN_THREADS must be a positive integer, got {value!r}")
    return min(int(value), cpus)


def _workers() -> tuple[int, ThreadPoolExecutor | None]:
    """(worker count, pool), the pool started on the first call."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            n = _worker_count()
            _POOL = (n, ThreadPoolExecutor(n - 1, thread_name_prefix="rtsn-layers")
                     if n > 1 else None)
        return _POOL


def _run_shares(task, items) -> None:
    """task(item) for every item, each once, in any order: the calling
    thread and the pool threads take the next item until none is left.
    Returns when all are done, re-raising a failure."""
    workers, pool = _workers()
    items = list(items)
    if pool is None or len(items) < 2:
        for item in items:
            task(item)
        return
    lock = threading.Lock()
    todo = iter(items)

    def drain():
        while True:
            with lock:
                item = next(todo, None)
            if item is None:
                return
            task(item)

    helpers = [pool.submit(drain) for _ in range(min(workers, len(items)) - 1)]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.result()


# Values per block of an elementwise layer: 256 KB in float32, so the
# several passes over one block run in cache.
_ELEMENTWISE_BLOCK = 1 << 16


def _spans(size: int) -> list[slice]:
    """Contiguous ranges of size values, at most one per worker, each
    starting on an elementwise block boundary."""
    blocks = -(-size // _ELEMENTWISE_BLOCK)
    step = max(1, -(-blocks // _workers()[0])) * _ELEMENTWISE_BLOCK
    return [slice(lo, min(size, lo + step)) for lo in range(0, size, step)]


def _span_blocks(span: slice, *flats):
    """Matching slices of same-size flat arrays over span, one elementwise
    block at a time, each followed by a zero block and a scratch block of
    its size: numpy's min/max/compare run several times faster against an
    array than against a broadcast scalar."""
    zero = np.zeros(min(span.stop - span.start, _ELEMENTWISE_BLOCK), dtype=flats[0].dtype)
    temp = np.empty_like(zero)
    for lo in range(span.start, span.stop, _ELEMENTWISE_BLOCK):
        hi = min(span.stop, lo + _ELEMENTWISE_BLOCK)
        yield [f[lo:hi] for f in flats] + [zero[: hi - lo], temp[: hi - lo]]


def selu(x, out: np.ndarray | None = None) -> Tensor:
    """Self-normalizing exponential-linear activation, elementwise.

    Computed branch-free as SCALE * (max(x, 0) + ALPHA * expm1(min(x, 0)))
    in cache-sized blocks, with block-sized scratch only.  The backward
    reads only the output y: the slope is SCALE where y > 0 and SCALE *
    ALPHA * exp(x) = y + SCALE * ALPHA elsewhere, that is min(y, 0) +
    SCALE * ALPHA - (SCALE * ALPHA - SCALE) * [y > 0].

    out, as in numpy, is the array y is written to, a fresh one when None.
    It must be a writeable C-contiguous array of x's shape and dtype, and
    either x's own array or memory x does not touch; anything else raises
    a ValueError.  Passing x's array computes y in place: each block takes
    max(x, 0) into scratch before min(x, 0) overwrites x, so the bytes are
    those of a fresh output.  The input's node then holds y, which is safe
    only when no backward reads that node's value (conv1d_freq's does not).

    Both directions split the values into one contiguous span per worker,
    each a run of whole blocks with scratch of its own; the blocks and their
    arithmetic are those of a one-thread pass, so the bytes are too.
    """
    x = as_tensor(x)
    if out is None:
        out = np.empty(x.data.shape, dtype=x.data.dtype)
    elif not (isinstance(out, np.ndarray) and out.shape == x.data.shape
              and out.dtype == x.data.dtype and out.flags.c_contiguous
              and out.flags.writeable):
        raise ValueError(f"selu: out must be a writeable C-contiguous "
                         f"{x.data.dtype} array of shape {x.data.shape}")
    elif np.may_share_memory(out, x.data) and not (
            x.data.flags.c_contiguous and out.ctypes.data == x.data.ctypes.data):
        raise ValueError("selu: out overlaps x without being x's own array")
    x_flat, out_flat = np.ascontiguousarray(x.data).reshape(-1), out.reshape(-1)
    spans = _spans(out.size)

    def forward(span):
        for xb, ob, z, t in _span_blocks(span, x_flat, out_flat):
            np.maximum(xb, z, out=t)  # before ob, which may be xb, is written
            np.minimum(xb, z, out=ob)
            np.expm1(ob, out=ob)
            ob *= SELU_ALPHA
            ob += t
            ob *= SELU_SCALE

    _run_shares(forward, spans)

    def backward(g):
        gx = np.empty_like(out)
        g_flat, gx_flat = g.reshape(-1), gx.reshape(-1)

        def span_grad(span):
            for yb, gb, ob, z, t in _span_blocks(span, out_flat, g_flat, gx_flat):
                np.greater(yb, z, out=t)
                t *= SELU_SCALE * SELU_ALPHA - SELU_SCALE
                np.minimum(yb, z, out=ob)
                ob += SELU_SCALE * SELU_ALPHA
                ob -= t
                ob *= gb

        _run_shares(span_grad, spans)
        return (gx,)

    return _node(out, (x,), backward, "selu")


def linear(x, weight, bias) -> Tensor:
    """y = x @ weight.T + bias; weight is (out, in)."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)

    def backward(g):
        return g @ weight.data, g.T @ x.data, g.sum(axis=0)

    return _node(x.data @ weight.data.T + bias.data, (x, weight, bias), backward, "linear")


# Rows (batch x steps) per block of the LSTM stack's wavefront.  A block is
# a layer's unit of work: its input GEMM and its run of recurrent steps.
# 128 and 256 ran the default prior equally fast at batch 1 on 2 workers;
# 128 gives a training chunk of 16 x 64 steps eight blocks to overlap.
_LSTM_BLOCK_ROWS = 128


def _lstm_blocks(batch: int, steps: int) -> list[slice]:
    """The wavefront's blocks of steps, _LSTM_BLOCK_ROWS rows each.  A tail
    shorter than half a block joins the block before it, so no block is a
    single row unless the whole chunk is (see lstm_cell)."""
    size = max(1, _LSTM_BLOCK_ROWS // batch)
    starts = list(range(0, steps, size))
    if len(starts) > 1 and 2 * (steps - starts[-1]) < size:
        del starts[-1]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [steps])]


def _sigmoid_cols(hidden: int) -> tuple[slice, slice]:
    """The i and f gates' columns and the o gate's, of a packed 4H axis."""
    return slice(0, 2 * hidden), slice(3 * hidden, 4 * hidden)


class _LstmRun(NamedTuple):
    """One layer of an lstm_cell call: the time-major (n, B, D) input of each
    of its blocks this call, their offsets into its steps (rows[k] to
    rows[k + 1]), w_in, w_rec.T with its i, f and o columns halved, the
    bias, its gates (every step's, or one block's when no backward will
    read them), its hidden and cell states (n + 1, B, H), the state after
    step t in [t + 1], and the anti-diagonal its first block runs on."""

    feed: list
    rows: list
    w_in: np.ndarray
    w: np.ndarray
    bias: np.ndarray
    acts: np.ndarray
    hs: np.ndarray
    cs: np.ndarray
    lag: int


def _lstm_steps(acts: np.ndarray, hs: np.ndarray, cs: np.ndarray, w: np.ndarray) -> None:
    """The recurrence over a run of steps: acts (n, B, 4H) holds each step's
    input products, their i, f and o columns halved, and is overwritten by
    the gates i, f, g, o; hs and cs (n + 1, B, H) enter holding the state
    in [0] and leave holding the state after step t in [t + 1].  w is
    w_rec.T with its i, f and o columns halved."""
    hidden = hs.shape[2]
    rec = np.empty(acts.shape[1:], dtype=acts.dtype)
    tmp = np.empty(hs.shape[1:], dtype=acts.dtype)
    for t, a in enumerate(acts):
        np.matmul(hs[t], w, out=rec)
        a += rec
        np.tanh(a, out=a)
        for cols in _sigmoid_cols(hidden):
            gates = a[:, cols]
            gates *= 0.5
            gates += 0.5
        gi, gf, gg, go = (a[:, k * hidden : (k + 1) * hidden] for k in range(4))
        np.multiply(gf, cs[t], out=cs[t + 1])
        cs[t + 1] += np.multiply(gi, gg, out=tmp)
        np.multiply(go, np.tanh(cs[t + 1], out=tmp), out=hs[t + 1])


def _lstm_layer_grads(g, x, w_in, w_rec, acts, hs, cs, need_dx: bool):
    """(dx or None, dw_in, dw_rec, dbias) of one layer for the gradient g
    (B, T, H) of its hidden states, from its batch-major input x (B, T, D),
    its weights and the whole-chunk gates acts and states hs, cs that its
    forward left.  One reverse loop over the stored gates, into
    preallocated (B, H) scratch by out=, then whole-chunk GEMMs over the
    batch-major (B, T, 4H) dz."""
    steps, batch, width = acts.shape
    hidden = width // 4
    dz = np.empty((batch, steps, width), dtype=acts.dtype)
    # (B, H) scratch: the carried dh/dc, this step's dh/dc, tanh(c), two temps
    dh_next, dc_next, dh, dc, tc, t1, t2 = np.zeros((7, batch, hidden), dtype=acts.dtype)
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
        np.matmul(dz[:, t], w_rec, out=dh_next)
        np.multiply(dc, gf, out=dc_next)
    dz_flat = dz.reshape(-1, width)
    return ((dz_flat @ w_in).reshape(x.shape) if need_dx else None,
            dz_flat.T @ x.reshape(len(dz_flat), -1),
            dz_flat.T @ hs[:-1].swapaxes(0, 1).reshape(len(dz_flat), -1),
            dz_flat.sum(axis=0))


def lstm_cell(x, layers, carry: list | None = None, last: bool = True) -> Tensor:
    """The LSTM stack over a chunk, one node: x (B, T, D) -> the top
    layer's hidden states (B, T, H).

    layers holds one (w_in, w_rec, bias, h, c) per layer, bottom first.
    Gate order inside the packed 4H dimension is input, forget, cell,
    output; w_in is (4H, D) for the bottom layer and (4H, H) above it, and
    w_rec is (4H, H).  The state arrays h and c (B, H) enter as constants
    and are advanced in place to the state after the last step the layer
    ran.

    Each sigmoid is taken as 0.5 * tanh(0.5 * z) + 0.5, so a step runs one
    tanh over all four gates.  The i, f and o columns of the input products
    and of a private contiguous copy of w_rec.T are halved: scaling by a
    power of two is exact, so every gate sees the same 0.5 * z as if it
    were halved after the sum.  The copy is always taken, never a view,
    because the halving writes into it.  A step is then the recurrent GEMV
    plus elementwise work into preallocated arrays.

    The steps are cut into blocks of _LSTM_BLOCK_ROWS rows (batch x steps),
    a tail shorter than half a block joined to the block before it.
    Layer i on block k is one task: the block's input GEMM, rows of the
    layer's input times w_in.T, then its steps.  It needs layer i on block
    k - 1, for the state, and layer i - 1 on block k, for its input, so the
    tasks run one anti-diagonal i + k at a time on the worker pool: layer i
    on block k beside layer i + 1 on block k - 1.  Each task writes its own
    steps of the layer's hidden and cell states, which carry the state from
    block to block, and of its gates when a backward will read them;
    without one, a layer's gates live in one block's scratch.

    A chunk may also run as consecutive segments, one call each, over
    frozen inputs (no graph): carry is then a list with one entry per
    layer, all None before the first segment, and last is True only for
    the chunk's last segment.  A segment is a run of whole blocks of the
    chunk (one block, in forward_chunk).  The wavefront carries across
    the calls: each layer i > 0 keeps the hidden states of the last block
    that layer i - 1 ran in carry[i], as its next call's first input
    block, so every call runs the anti-diagonals the one whole-chunk call
    would run, and layer i stays i blocks behind layer 0.  carry[i] also
    keeps the layer's halved w_rec.T, so the weights must not change
    between the calls of one chunk.  A call returns the top layer's hidden
    states of the steps it ran, which start where the previous call's
    ended; the last call drains every carried block and leaves carry all
    None.  A forward that records a graph runs the whole chunk in one
    call, because its backward reads every step.

    The bytes are those of running the layers one after another over the
    whole chunk, at every worker count and however the chunk is segmented.
    A step is the same arithmetic on the same operands.  The input GEMM of
    a block forms each of its rows as the whole-chunk GEMM does, measured
    for the default prior's shapes, as long as the block has two rows or
    more; a 1-row product goes down another BLAS path and rounds
    differently, which the tail rule keeps from happening unless the whole
    chunk is one row.

    The backward runs each layer's reverse loop and whole-chunk GEMMs, top
    layer first, each layer's input gradient the gradient of the layer
    below, as the engine chained one node per layer.
    """
    x = as_tensor(x)
    layers = [tuple(as_tensor(t) for t in layer[:3]) + tuple(layer[3:]) for layer in layers]
    parents = (x,) + tuple(t for layer in layers for t in layer[:3])
    keep = any(p.requires_grad for p in parents)  # the backward reads every gate
    if carry is None:
        carry = [None] * len(layers)
    if keep and not (last and all(c is None for c in carry)):
        raise ValueError("lstm_cell: a forward that records a graph runs the whole chunk")
    batch, steps = x.data.shape[:2]
    inputs = np.ascontiguousarray(x.data.swapaxes(0, 1))  # (T, B, D): steps contiguous
    feed = [inputs[span] for span in _lstm_blocks(batch, steps)]
    dtype, lag, runs = x.data.dtype, 0, []
    for i, (w_in, w_rec, bias, h, c) in enumerate(layers):
        pending, w = carry[i] or (None, None)
        if i:  # the block carried from the last call, then those the layer below ran
            if pending is None:
                lag += 1
            else:
                feed = [pending] + feed
            pending = None if last or not feed else feed.pop()
        hidden = h.shape[1]
        dtype = np.result_type(dtype, w_in.data, bias.data)
        if w is None:
            w = w_rec.data.T.copy()  # (H, 4H), ours to scale
            for cols in _sigmoid_cols(hidden):
                w[:, cols] *= 0.5
        carry[i] = None if last else (pending, w)
        rows = np.cumsum([0] + [len(block) for block in feed]).tolist()
        hs = np.empty((rows[-1] + 1, batch, hidden), dtype=dtype)  # hs[t + 1]: after step t
        cs = np.empty_like(hs)
        hs[0], cs[0] = h, c
        gate_steps = rows[-1] if keep else max(map(len, feed), default=0)
        runs.append(_LstmRun(feed, rows, w_in.data, w, bias.data,
                             np.empty((gate_steps, batch, 4 * hidden), dtype=dtype),
                             hs, cs, lag))
        feed = [hs[lo + 1 : hi + 1] for lo, hi in zip(rows, rows[1:])]

    def task(item):
        run, k = runs[item[0]], item[1]
        lo, hi = run.rows[k], run.rows[k + 1]
        acts = run.acts[lo:hi] if keep else run.acts[: hi - lo]
        rows = acts.reshape(-1, acts.shape[2])
        np.matmul(run.feed[k].reshape(len(rows), -1), run.w_in.T, out=rows)
        rows += run.bias
        for cols in _sigmoid_cols(run.hs.shape[2]):
            rows[:, cols] *= 0.5
        _lstm_steps(acts, run.hs[lo : hi + 1], run.cs[lo : hi + 1], run.w)

    for diagonal in range(max((run.lag + len(run.feed) for run in runs if run.feed),
                              default=0)):
        _run_shares(task, [(i, diagonal - run.lag) for i, run in enumerate(runs)
                           if 0 <= diagonal - run.lag < len(run.feed)])
    for (*_, h, c), run in zip(layers, runs):
        h[...], c[...] = run.hs[-1], run.cs[-1]
    # what the backward reads of each layer: not the time-major input copy
    # or the halved weights, which die here (a graph call carries nothing)
    kept = [(run.acts, run.hs, run.cs) for run in runs]

    def backward(g):
        grads = []
        for i in reversed(range(len(kept))):
            below = x.data if i == 0 else kept[i - 1][1][1:].swapaxes(0, 1)
            w_in, w_rec = layers[i][0].data, layers[i][1].data
            g, *weights = _lstm_layer_grads(g, below, w_in, w_rec, *kept[i],
                                            i > 0 or x.requires_grad)
            grads = weights + grads
        return [g] + grads

    return _node(kept[-1][1][1:].swapaxes(0, 1), parents, backward, "lstm_cell")


def _pad_bins(x: np.ndarray, before: int, size: int) -> np.ndarray:
    """A (B, size, C) copy of channel-last x (B, N, C) with its bins from
    before on, zero elsewhere."""
    n = x.shape[1]
    padded = np.empty((x.shape[0], size, x.shape[2]), dtype=x.dtype)
    padded[:, :before] = 0
    padded[:, before + n :] = 0
    padded[:, before : before + n] = x
    return padded


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Columns (B*N, k*C) of a channel-last (B, N, C) array: row (b, n) is
    x[b, n-h .. n+h] flattened tap-major, zero outside, h = (k-1)/2.

    In the padded array that row is one contiguous run of k*C values, so a
    strided view holds every row and reshaping it makes the one copy.
    """
    b, n, c = x.shape
    padded = _pad_bins(x, (k - 1) // 2, n + k - 1)
    windows = np.lib.stride_tricks.as_strided(padded, (b, n, k * c), padded.strides,
                                              writeable=False)
    return windows.reshape(b * n, k * c)


# Most values one im2col block, or one Winograd block's two transform
# buffers, hold: 4 MB in float32, so a block is still in cache when its
# GEMMs read it, and it is reused from the heap where the whole (frames*bins,
# k*C) matrix, up to 169 MB, would be mapped fresh and page-faulted on every
# call.
_COLS_BLOCK = 1 << 20


def _block_frames(x: np.ndarray, k: int) -> int:
    """Frames of x per im2col row block."""
    _, n, c = x.shape
    return max(1, _COLS_BLOCK // (n * k * c))


# Toom-Cook points of the Winograd transforms, then infinity: eight in all,
# so one tile of eight bins serves F(6, 3), F(4, 5) and F(2, 7), and the
# kernel gradient's F(3, 6), F(5, 4) and F(7, 2).  Every
# point is a small dyadic number, so the input and output transforms hold
# exact binary fractions.
_WINOGRAD_POINTS = (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5)
_TILE = len(_WINOGRAD_POINTS) + 1


def _toom_cook(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A^T (m, 8), G (8, r), B^T (8, 8)) in float64 for Winograd's minimal
    filtering F(m, r), m = 9 - r: the correlation y[i] = sum_j g[j] d[i + j]
    of a tile d of eight values with a filter g of r taps is
    A^T ((G g) * (B^T d)), from eight products where the direct sum takes
    m * r (Lavin & Gray, arXiv 1509.09308).

    With V_n the (8, n) Vandermonde matrix of the points, whose row for
    infinity picks a polynomial's leading coefficient, the transposed
    Toom-Cook product gives A^T = V_m^T, G = V_r and B^T = V_8^-T, whose
    row i holds the coefficients of point i's Lagrange polynomial (for
    infinity, of the product of every (x - p)).  Each Lagrange row's scale
    1 / prod(p_i - p_j) moves into G, which only the float64 kernel
    transform applies, so B^T holds the polynomials' dyadic coefficients.
    """
    points = np.array(_WINOGRAD_POINTS)

    def vandermonde(cols):
        v = np.zeros((_TILE, cols))
        v[:-1] = points[:, None] ** np.arange(cols)
        v[-1, -1] = 1.0
        return v

    a_t, g = vandermonde(_TILE - r + 1).T, vandermonde(r)
    b_t = np.empty((_TILE, _TILE))
    for i, p in enumerate(points):
        others = np.delete(points, i)
        b_t[i] = np.append(np.poly(others)[::-1], 0.0)
        g[i] /= np.prod(p - others)
    b_t[-1] = np.poly(points)[::-1]
    return a_t, g, b_t


# Kernel widths whose correlation runs as Winograd's F(9 - k, k), and the
# fewest channels it needs on either side.  Timed against im2col with as
# many channels in as out, 64-128 frames, one BLAS thread: from 64
# channels every width ran faster, x1.11-1.86 over 17 and 129 bins, and
# about even over 9 (x0.85-1.11); at 32-48 channels k = 7 was slower
# (x0.86-1.09), and at 8-24 every width was (down to x0.28).
_WINOGRAD = {k: _toom_cook(k) for k in (3, 5, 7)}
_WINOGRAD_MIN_CHANNELS = 64
# The kernel gradient's transforms by kernel width k: F(k, 9 - k), its
# filter the 9 - k output-gradient bins of a tile.
_WINOGRAD_GRAD = {k: _toom_cook(_TILE + 1 - k) for k in _WINOGRAD}


def _winograd_frames(k: int, n: int, c: int, o: int) -> int | None:
    """Frames per row block of a correlation over n bins, C channels on one
    side and O on the other, that runs as Winograd; None for im2col.  A
    block holds as many frames as keep its two transform buffers,
    (8, frames*tiles, C) and (8, frames*tiles, O), within _COLS_BLOCK
    values."""
    if k not in _WINOGRAD or min(c, o) < _WINOGRAD_MIN_CHANNELS:
        return None
    tiles = -(-n // (_TILE - k + 1))
    return max(1, _COLS_BLOCK // (_TILE * tiles * (c + o)))


def _input_tiles(x: np.ndarray, k: int, b_t: np.ndarray) -> np.ndarray:
    """(8, f*tiles, C): B^T times every tile of x (f, N, C) zero padded by
    h = (k-1)/2, eight padded bins at stride m = 9 - k.  One stacked
    product over a strided view of the padded block, written a-major."""
    m = _TILE - k + 1
    f, n, c = x.shape
    tiles = -(-n // m)
    padded = _pad_bins(x, (k - 1) // 2, tiles * m + k - 1)
    s = padded.strides
    view = np.lib.stride_tricks.as_strided(padded, (f, tiles, _TILE, c),
                                           (s[0], m * s[1], s[1], s[2]), writeable=False)
    v = np.empty((_TILE, f * tiles, c), dtype=x.dtype)
    np.matmul(b_t, view, out=v.reshape(_TILE, f, tiles, c).transpose(1, 2, 0, 3))
    return v


def _winograd_block(x: np.ndarray, u: np.ndarray, a_t: np.ndarray, b_t: np.ndarray,
                    out: np.ndarray) -> None:
    """out (f, N, O) = x (f, N, C) correlated with the kernels whose
    transform is u (8, C, O), zero padded by h = (k-1)/2 each side.

    The input tiles (_input_tiles), then one GEMM (f*tiles, C) @ (C, O)
    per tile position, and the output transform straight into out, the
    last tile cut to the bins that are left.
    """
    m, k = a_t.shape[0], _TILE - a_t.shape[0] + 1
    (f, n, _), o = x.shape, u.shape[2]
    tiles, whole = -(-n // m), n // m
    products = np.matmul(_input_tiles(x, k, b_t), u).reshape(_TILE, f, tiles, o)
    products = products.transpose(1, 2, 0, 3)
    np.matmul(a_t, products[:, :whole], out=out[:, : whole * m].reshape(f, whole, m, o))
    if whole < tiles:
        np.matmul(a_t[: n - whole * m], products[:, whole], out=out[:, whole * m :])


def _winograd_grad_block(x: np.ndarray, g: np.ndarray, k: int, g_t: np.ndarray,
                         b_t: np.ndarray) -> np.ndarray:
    """(8, C, O): the kernel gradient of x (f, N, C) against the output
    gradient g (f, N, O), before its output transform.  Per tile position
    p, V[p].T @ U[p], with V the forward's input tiles and U the transform
    G of g's tiles of m = 9 - k bins, the last zero padded."""
    m = _TILE - k + 1
    f, n, o = g.shape
    tiles = -(-n // m)
    u = np.empty((_TILE, f * tiles, o), dtype=g.dtype)
    np.matmul(g_t, _pad_bins(g, 0, tiles * m).reshape(f, tiles, m, o),
              out=u.reshape(_TILE, f, tiles, o).transpose(1, 2, 0, 3))
    return np.matmul(_input_tiles(x, k, b_t).transpose(0, 2, 1), u)


def _correlate(x: np.ndarray, w: np.ndarray, k: int,
               bias: np.ndarray | None = None) -> np.ndarray:
    """im2col(x) @ w (+ bias) for x (B, N, C) and w (k*C, O): (B*N, O).

    The frames go in row blocks, each block's rows formed and the bias
    added to them while they are in cache; the blocks are shared out among
    the workers, each writing its own rows of the output, so their shapes
    and operands, and so the bytes, are those of a one-thread loop.

    Kernel widths 3, 5 and 7 run as Winograd's F(9 - k, k) along the bins
    (_winograd_block), the kernels transformed once in float64, when C and
    O are both at least _WINOGRAD_MIN_CHANNELS.  So conv3 (one output
    channel, about 2 % of the convs' time) stays im2col, and so does its
    input gradient, whose one input channel makes the eight GEMMs GEMVs
    that ran x0.1-0.2 of im2col's speed (_winograd_frames).

    To first order in the unit roundoff eps, the Winograd error is within
    (C + 17) eps times the same correlation of |x| and |w| through the
    transforms' absolute values: one rounding of the kernel transform, 8
    terms in each of the input and output transforms and C in each GEMM.
    In float32 at the default sizes it reads about 1e-5 absolute against a
    float64 oracle, 4 times im2col's 3e-6.  Other widths and shapes are
    one GEMM per block of a few frames, each block's im2col columns built
    just before it.
    """
    b, n, c = x.shape
    out = np.empty((b * n, w.shape[1]), dtype=x.dtype)
    frames = _winograd_frames(k, n, c, w.shape[1])
    winograd = frames is not None
    if winograd:
        a_t, g, b_t = _WINOGRAD[k]
        u = (g @ w.reshape(k, -1)).reshape(_TILE, c, -1).astype(x.dtype)
        a_t, b_t = a_t.astype(x.dtype), b_t.astype(x.dtype)
    else:
        frames = _block_frames(x, k)

    def block(start):
        stop = min(b, start + frames)
        rows = slice(start * n, stop * n)
        if winograd:
            _winograd_block(x[start:stop], u, a_t, b_t, out[rows].reshape(stop - start, n, -1))
        else:
            np.matmul(_im2col(x[start:stop], k), w, out=out[rows])
        if bias is not None:
            out[rows] += bias

    _run_shares(block, range(0, b, frames))
    return out


def _kernel_grad(x: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """im2col(x).T @ g, (k*C, O), for x (B, N, C) and g (B*N, O), summed
    over row blocks in block order.  The workers form the products of a
    run of as many blocks as there are workers, then they are added in
    order, so at most that many are held and the sum is the one-thread
    loop's.

    Where the forward runs as Winograd (_winograd_frames), so does this:
    dW[j] = sum over frames and bins n of xpad[n + j] g[n] is, per tile of
    m = 9 - k bins, the correlation of the tile's eight padded input bins
    with its m gradient bins, F(k, m).  Each row block gives the products
    V[p].T @ U[p] (_winograd_grad_block), summed in the transformed
    domain; A^T is applied once, to the sum.

    To first order in eps, the Winograd error is within (S + m + 17) eps
    times the same sum over |x| and |g| through the transforms' absolute
    values, S = frames x tiles: one rounding of G and m terms in its
    product, 8 terms in each of B^T and A^T, and S in the transformed sum.
    In float32 at conv0-2's shapes it reads 2-3e-6 of max |dW| against a
    float64 oracle, about 6 times im2col's.
    """
    b, n, c = x.shape
    o = g.shape[1]
    frames = _winograd_frames(k, n, c, o)
    winograd = frames is not None
    if winograd:
        a_t, g_t, b_t = (t.astype(x.dtype) for t in _WINOGRAD_GRAD[k])
        gw = np.zeros((_TILE, c, o), dtype=g.dtype)
    else:
        frames = _block_frames(x, k)
        gw = np.zeros((k * c, o), dtype=g.dtype)
    starts = range(0, b, frames)
    wave = _workers()[0]
    products = {}

    def product(start):
        stop = min(b, start + frames)
        rows = g[start * n : stop * n]
        if winograd:
            products[start] = _winograd_grad_block(
                x[start:stop], rows.reshape(stop - start, n, o), k, g_t, b_t)
        else:
            products[start] = _im2col(x[start:stop], k).T @ rows

    for i in range(0, len(starts), wave):
        _run_shares(product, starts[i : i + wave])
        for start in starts[i : i + wave]:
            gw += products.pop(start)
    if winograd:
        return (a_t @ gw.reshape(_TILE, -1)).reshape(k * c, o)
    return gw


def conv1d_freq(x, kernels, bias) -> Tensor:
    """Cross-correlation along frequency with zero padding h = (k-1)/2.

    Channel-last: x is (frames, bins, in_channels), kernels (out_channels,
    in_channels, k) with odd k, and the output (frames, bins, out_channels)
    keeps the bin count.  The forward is im2col(x) @ W + bias, with
    W[j*C + c, o] = kernels[o, c, j], formed a few frames at a time with
    nothing kept for the backward.  With g the output gradient, the
    backward computes
      dW = im2col(x).T @ g,  dbias = sum of g over frames and bins,
      dx = im2col(g) @ W',  W'[j*O + o, c] = kernels[o, c, k-1-j],
    that is the forward again on g with the kernels flipped and transposed.

    For k = 3, 5 and 7 over at least 64 channels a side, all three run as
    Winograd's minimal filtering along the bins: the forward and dx as
    F(9 - k, k) (see _correlate), dW as F(k, 9 - k) over the same tiles
    (see _kernel_grad), each stating its error bound.  8 GEMMs per tile of
    9 - k bins where im2col's GEMM does k taps per bin, 0.41 times the
    FLOPs at k = 5 over 129 bins.

    The row blocks of both correlations (each adding the bias to its own
    rows) and of dW are shared out among the worker threads (RTSN_THREADS),
    dW's products added in block order, so the bytes are the same at every
    worker count.

    The backward never reads the output, so a following selu may write
    over it (selu's out=): the node's value is then the SELU's output.
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
    out = _correlate(x.data, w, k, bias.data)

    def backward(g):
        g = g.reshape(-1, c_out)
        gw = _kernel_grad(x.data, g, k)
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

    The image is filled in spans of output steps, at most _COLS_BLOCK
    values each, shared out among the workers: each span copies into its
    own part of the image, through a gathered temporary no bigger than an
    im2col block.
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

    def fill(steps):
        gathered = x.data[b_idx, idx[:, steps]].reshape(b, -1, mr, n)
        image[:, steps, :, :mr] = gathered.swapaxes(2, 3)
        image[:, steps, :, mr:] = context[:, steps].swapaxes(2, 3)

    span = max(1, _COLS_BLOCK // (b * n * image.shape[3]))
    _run_shares(fill, [slice(lo, lo + span) for lo in range(0, u, span)])

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
               mask: np.ndarray):
    """The training objective as one node: (total, post_sum, pri_sum, count).

    frames (..., N) and stacks (..., R, N) are the predictions, stacks in
    any shape of target_stacks' size (read in its shape); the targets and
    the mask (...) of 0/1 frame weights are constants.
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
    m = np.asarray(mask, dtype=dtype)
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
