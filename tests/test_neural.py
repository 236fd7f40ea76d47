import math
import os
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rtsn.neural as nn
import rtsn.neural.adam as adam
import rtsn.neural.layers as layers

from helpers import (
    conv1d_einsum,
    fd_gradient,
    frame_errors,
    gather_steps_grad,
    lstm_backward_oracle,
    lstm_layer,
    lstm_oracle,
    matmul,
    mul,
    posterior_image,
    rel_err,
    selu_where,
    tmean,
    unit_stats,
    weighted_sum,
)
from rtsn.dsp import StftConfig
from rtsn.model import RtsnConfig, init_params, stack_index
from rtsn.neural.engine import _node
from rtsn.neural.layers import SELU_ALPHA, SELU_SCALE, _worker_count

FD_TOL = 1e-6


def check_grads(build, arrays, tol=FD_TOL, eps=1e-5):
    """Compare grads_for gradients of build(*tensors) against central FD."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    params = [nn.parameter(a.copy(), f"p{i}") for i, a in enumerate(arrays)]
    loss = build(*params)
    analytic = nn.grads_for(loss, params)
    for i in range(len(arrays)):
        def scalar(v, i=i):
            args = [nn.Tensor(a) for a in arrays]
            args[i] = nn.Tensor(v)
            return float(build(*args).data)

        numeric = fd_gradient(scalar, arrays[i], eps)
        err = rel_err(analytic[i], numeric)
        assert err < tol, f"arg {i}: rel err {err}"


def _proj(t, seed):
    """Random fixed projection to a scalar so gradients are non-uniform."""
    rng = np.random.default_rng(seed)
    return weighted_sum([t], [rng.standard_normal(t.shape)])


# ---------------------------------------------------------------------------
# tensor basics
# ---------------------------------------------------------------------------


def test_grads_for_names_a_nonfinite_constant():
    # a Tensor holds any value; grads_for names the first non-finite node
    # in topological order, here a constant the loss reads
    w = nn.parameter(np.ones(2), "w")
    for value, name in ((np.inf, "myname"), (np.nan, None)):
        c = nn.Tensor(np.array([1.0, value]), name=name)
        assert np.array_equal(c.data, [1.0, value], equal_nan=True)
        with pytest.raises(FloatingPointError,
                           match=f"^non-finite values in tensor {name or '<unnamed>'}$"):
            nn.grads_for(weighted_sum([mul(w, c)]), [w])


def test_nonfinite_op_output_names_the_op():
    # every input is finite: the first non-finite node is the op whose
    # arithmetic overflowed, not the ops after it or the loss
    big = nn.parameter(np.full((1, 2), 1e30, dtype=np.float32), "big")
    with np.errstate(over="ignore", invalid="ignore"):
        out = nn.linear(big, big, np.zeros(1, dtype=np.float32))
        with pytest.raises(FloatingPointError, match="^non-finite values in tensor linear$"):
            nn.grads_for(tmean(mul(out, out)), [big])
        with pytest.raises(FloatingPointError, match="^non-finite values in tensor mul$"):
            nn.grads_for(tmean(nn.reshape(mul(big, big), (2,))), [big])


def test_tensor_dtypes():
    assert nn.Tensor(np.arange(3)).dtype == np.float64
    assert nn.Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32
    assert nn.Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64


@pytest.mark.parametrize("value", ["0", "-2", "1.5", "abc", "", "+2", " 2"])
def test_rtsn_threads_must_be_a_positive_integer(monkeypatch, value):
    # parsed only: no pool of any size is started
    monkeypatch.setenv("RTSN_THREADS", value)
    message = f"RTSN_THREADS must be a positive integer, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        _worker_count()


def test_rtsn_threads_sets_the_worker_count_up_to_the_cpus(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    monkeypatch.setenv("RTSN_THREADS", "100000")
    assert _worker_count() == cpus
    monkeypatch.setenv("RTSN_THREADS", "1")
    assert _worker_count() == 1
    monkeypatch.delenv("RTSN_THREADS")
    assert _worker_count() == cpus


def test_worker_pool_runs_every_item_once_and_reraises(use_workers):
    # more workers than cores and a short switch interval, so the threads
    # interleave as often as they can; a lost or doubled hand-out shows
    use_workers(4)
    taken, failures = [], []

    def run():
        try:
            layers._run_shares(taken.append, range(5000))
        except Exception as e:  # reported by the assertion below
            failures.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and not failures
    assert sorted(taken) == list(range(5000))

    def fail_on_7(item):
        if item == 7:
            raise KeyError(item)

    with pytest.raises(KeyError):
        layers._run_shares(fail_on_7, range(20))


def test_backward_requires_scalar():
    p = nn.parameter(np.ones((2, 2)), "p")
    with pytest.raises(ValueError, match="scalar"):
        nn.grads_for(mul(p, p), [p])


# ---------------------------------------------------------------------------
# primitive gradients
# ---------------------------------------------------------------------------


def test_matmul_gradient():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((5, 4))
    check_grads(lambda x, y: _proj(matmul(x, y), 4), [a, b])


def test_mean_gradient():
    rng = np.random.default_rng(7)
    check_grads(lambda x: tmean(mul(x, x)), [rng.standard_normal((3, 5))])


def test_reshape_gradient():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 6))
    check_grads(lambda x: _proj(nn.reshape(x, (3, 4)), 8), [a])
    check_grads(lambda x: _proj(nn.reshape(x, (12,)), 9), [a])


def test_concat_gradient():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 5))
    check_grads(lambda x, y: _proj(nn.concat([x, y], axis=1), 12), [a, b])
    c = rng.standard_normal((4, 3))
    check_grads(lambda x, y: _proj(nn.concat([x, y], axis=0), 13), [a, c])


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def test_selu_values():
    # frozen from scale*x (x>0) and scale*alpha*(exp(x)-1) (x<=0)
    x = nn.Tensor(np.array([-1.0, 0.0, 2.0]))
    got = nn.selu(x).data
    assert_allclose(got[0], -1.1113307378125625, rtol=0, atol=1e-15)
    assert got[1] == 0.0
    assert_allclose(got[2], 2.101401974710961, rtol=0, atol=1e-15)


def test_selu_gradient():
    rng = np.random.default_rng(11)
    # keep away from the kink at 0 where FD is one-sided
    a = rng.standard_normal((3, 4))
    a[np.abs(a) < 0.05] = 0.5
    check_grads(lambda x: _proj(nn.selu(x), 14), [a])


def test_linear_value_and_gradient():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 5))
    w = rng.standard_normal((3, 5))
    b = rng.standard_normal(3)
    got = nn.linear(nn.Tensor(x), nn.Tensor(w), nn.Tensor(b)).data
    assert_allclose(got, x @ w.T + b, rtol=1e-12, atol=1e-12)
    check_grads(lambda *t: _proj(nn.linear(*t), 15), [x, w, b])


def _lstm_arrays(rng, b, t, d, hdim):
    """x, w_in, w_rec, bias and a nonzero initial (h, c) for one LSTM layer."""
    return (
        rng.standard_normal((b, t, d)),
        rng.standard_normal((4 * hdim, d)) * 0.5,
        rng.standard_normal((4 * hdim, hdim)) * 0.5,
        rng.standard_normal(4 * hdim) * 0.5,
        np.tanh(rng.standard_normal((b, hdim))),
        rng.standard_normal((b, hdim)),
    )


def _lstm(x, w_in, w_rec, bias, h, c):
    """nn.lstm_cell over a one-layer stack."""
    return nn.lstm_cell(x, [(w_in, w_rec, bias, h, c)])


def test_lstm_cell_scalar_oracle():
    # all weights and biases 0.5, x=1, zero state; values frozen from the
    # gate equations computed by hand: z=1 for every gate, i=f=o=sigmoid(1),
    # g=tanh(1), c'=i*g, h'=o*tanh(c'), then one more step with h'=0.3696...
    one = np.full((4, 1), 0.5)
    x = nn.Tensor(np.ones((1, 2, 1)))
    h, c = np.zeros((1, 1)), np.zeros((1, 1))
    w_in, w_rec, bias = nn.Tensor(one), nn.Tensor(one), nn.Tensor(np.full(4, 0.5))
    out = _lstm(x, w_in, w_rec, bias, h, c)
    assert out.shape == (1, 2, 1)
    assert_allclose(out.data[0, 0, 0], 0.36960635293570576, rtol=0, atol=1e-15)
    assert_allclose(out.data[0, 1, 0], 0.6020227660613723, rtol=0, atol=1e-14)
    assert_allclose(h[0, 0], 0.6020227660613723, rtol=0, atol=1e-14)
    assert_allclose(c[0, 0], 1.0612064236791456, rtol=0, atol=1e-14)
    # the cell state after the first step, from a one-step chunk
    h, c = np.zeros((1, 1)), np.zeros((1, 1))
    _lstm(nn.Tensor(np.ones((1, 1, 1))), w_in, w_rec, bias, h, c)
    assert_allclose(c[0, 0], 0.5567699411459397, rtol=0, atol=1e-15)


def test_lstm_cell_matches_step_oracle():
    # a two-layer stack against the step oracle applied layer by layer
    rng = np.random.default_rng(19)
    x, w_in, w_rec, bias, h0, c0 = _lstm_arrays(rng, b=3, t=5, d=4, hdim=6)
    _, w_in2, w_rec2, bias2, h1, c1 = _lstm_arrays(rng, b=3, t=5, d=6, hdim=6)
    low, want_h0, want_c0 = lstm_oracle(x, w_in, w_rec, bias, h0, c0)
    want, want_h1, want_c1 = lstm_oracle(low, w_in2, w_rec2, bias2, h1, c1)
    states = [a.copy() for a in (h0, c0, h1, c1)]
    out = nn.lstm_cell(nn.Tensor(x), [(w_in, w_rec, bias, *states[:2]),
                                      (w_in2, w_rec2, bias2, *states[2:])])
    assert out.shape == (3, 5, 6)
    assert_allclose(out.data, want, rtol=0, atol=1e-12)
    for got, want_state in zip(states, (want_h0, want_c0, want_h1, want_c1)):
        assert_allclose(got, want_state, rtol=0, atol=1e-12)


def test_lstm_cell_gradients():
    rng = np.random.default_rng(13)
    *arrays, h0, c0 = _lstm_arrays(rng, b=3, t=4, d=4, hdim=5)

    def layer(x, w_in, w_rec, bias):
        return _proj(_lstm(x, w_in, w_rec, bias, h0.copy(), c0.copy()), 17)

    check_grads(layer, arrays)


def test_lstm_cell_chained_gradient():
    # two stacked layers in one node, so the upper layer's input gradient
    # reaches the lower layer's weights and the input; the initial states
    # are constants
    rng = np.random.default_rng(14)
    b, t, d, hdim = 2, 4, 3, 4
    x, w_in, w_rec, bias, h0, c0 = _lstm_arrays(rng, b, t, d, hdim)
    _, w_in2, w_rec2, bias2, h1, c1 = _lstm_arrays(rng, b, t, hdim, hdim)

    def two_layers(x, w_in, w_rec, bias, w_in2, w_rec2, bias2):
        top = nn.lstm_cell(x, [(w_in, w_rec, bias, h0.copy(), c0.copy()),
                               (w_in2, w_rec2, bias2, h1.copy(), c1.copy())])
        return _proj(top, 18)

    check_grads(two_layers, [x, w_in, w_rec, bias, w_in2, w_rec2, bias2])


def test_lstm_stack_gradients_across_blocks(monkeypatch, use_workers):
    # A two-layer stack over three wavefront blocks, the last with a 1-step
    # tail joined to it (6 rows, 3 steps at batch 2, per block), every
    # gradient against central differences, the input's included
    monkeypatch.setattr(layers, "_LSTM_BLOCK_ROWS", 6)
    use_workers(2)
    rng = np.random.default_rng(41)
    b, t, d, hdim = 2, 10, 3, 4
    x, w_in, w_rec, bias, h0, c0 = _lstm_arrays(rng, b, t, d, hdim)
    _, w_in2, w_rec2, bias2, h1, c1 = _lstm_arrays(rng, b, t, hdim, hdim)
    assert layers._lstm_blocks(b, t) == [slice(0, 3), slice(3, 6), slice(6, 10)]

    def two_layers(x, w_in, w_rec, bias, w_in2, w_rec2, bias2):
        top = nn.lstm_cell(x, [(w_in, w_rec, bias, h0.copy(), c0.copy()),
                               (w_in2, w_rec2, bias2, h1.copy(), c1.copy())])
        return _proj(top, 42)

    check_grads(two_layers, [x, w_in, w_rec, bias, w_in2, w_rec2, bias2])


@pytest.mark.parametrize("batch", [1, 2, 3, 16, 200])
def test_lstm_blocks_cover_the_steps_without_a_one_row_block(monkeypatch, use_workers,
                                                             batch):
    # At every length up to a few blocks the blocks run in order over every
    # step, each a whole block of steps but the last, which is at least half
    # a block (or the whole chunk); no block is a single row unless the
    # chunk is.  One worker takes the same blocks as two.
    monkeypatch.setattr(layers, "_LSTM_BLOCK_ROWS", 8)
    size = max(1, 8 // batch)
    use_workers(2)
    for steps in range(1, 4 * size + 2):
        blocks = layers._lstm_blocks(batch, steps)
        assert blocks[0].start == 0 and blocks[-1].stop == steps
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(blk.stop - blk.start == size for blk in blocks[:-1])
        last = blocks[-1].stop - blocks[-1].start
        assert 2 * last >= size or len(blocks) == 1
        assert batch * last >= 2 or batch * steps == 1
    use_workers(1)
    assert layers._lstm_blocks(batch, 4 * size + 1) == blocks


def test_lstm_inference_holds_one_block_of_gates_on_one_worker(use_workers):
    # A two-layer stack over 4096 steps at batch 1 that records no graph,
    # on one worker: the traced peak is each layer's hidden and cell states
    # and the input's time-major copy, plus one block of gates per layer,
    # well under a quarter of one layer's gates over every step (4 MiB).
    use_workers(1)
    rng = np.random.default_rng(3)
    b, t, d, h = 1, 4096, 16, 64
    x = nn.Tensor(rng.standard_normal((b, t, d)).astype(np.float32))
    stack = [(nn.Tensor(rng.standard_normal((4 * h, d if i == 0 else h)).astype(np.float32)),
              nn.Tensor(rng.standard_normal((4 * h, h)).astype(np.float32)),
              nn.Tensor(np.zeros(4 * h, np.float32)),
              np.zeros((b, h), np.float32), np.zeros((b, h), np.float32)) for i in range(2)]
    tracemalloc.start()
    try:
        nn.lstm_cell(x, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states = 2 * 2 * (t + 1) * b * h * 4
    gates = t * b * 4 * h * 4
    assert peak <= states + x.data.nbytes + gates / 4, f"peak {peak / 2**20:.2f} MiB"


def _stack_oracle(x, stack):
    """The stack layer by layer: one helpers.lstm_layer node per layer,
    each fed the node below, as the engine chained them."""
    for w_in, w_rec, bias, h, c in stack:
        x = lstm_layer(x, w_in, w_rec, bias, h, c)
    return x


# Lengths of 4-step blocks (4 rows per step block at batch 1, 64 at batch 16):
# one step, a chunk shorter than a block, one block, a 1-step tail joined to
# it, then two whole blocks and every tail after them from 1 to a block.
_SWEEP = [1, 3, 4, 5, 9, 10, 11, 12]


@pytest.mark.parametrize("batch, rows, lengths", [
    (1, 4, _SWEEP),
    (16, 64, _SWEEP),
    (1, None, [257]),  # the module's own block size, a 1-step tail
])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_lstm_stack_matches_layer_by_layer(monkeypatch, use_workers, batch, rows,
                                           lengths, workers):
    # The default prior's two layers (645 -> 512 -> 512) in float32 over
    # several wavefront blocks: the stack node's output, carried states and
    # every gradient, the input's included, are array_equal to the layer-by-
    # layer whole-chunk run, and so are the output and states of a run that
    # records no graph (its gates held one block at a time).
    if rows is not None:
        monkeypatch.setattr(layers, "_LSTM_BLOCK_ROWS", rows)
    use_workers(workers)
    cfg = RtsnConfig()
    params = init_params(cfg, StftConfig(), unit_stats(129), seed=5)
    p = {name: t.data for name, t in params.tensors.items()}
    weights = [tuple(p[f"lstm{i}.{k}"] for k in ("w_in", "w_rec", "bias"))
               for i in range(cfg.lstm_layers)]
    rng = np.random.default_rng(batch)
    for steps in lengths:
        x = rng.standard_normal((batch, steps, cfg.pri_input_dim)).astype(np.float32)
        states = rng.standard_normal((cfg.lstm_layers, 2, batch, cfg.lstm_units))
        states = states.astype(np.float32)
        g = rng.standard_normal((batch, steps, cfg.lstm_units)).astype(np.float32)
        runs = {}
        for how in ("stack", "oracle", "frozen"):
            carried = states.copy()
            tensors = [nn.Tensor(a) if how == "frozen" else nn.parameter(a, f"p{i}")
                       for i, a in enumerate([x] + [w for ws in weights for w in ws])]
            stack = [(*tensors[1 + 3 * i : 4 + 3 * i], *carried[i])
                     for i in range(cfg.lstm_layers)]
            out = (_stack_oracle if how == "oracle" else nn.lstm_cell)(tensors[0], stack)
            grads = [] if how == "frozen" else nn.grads_for(weighted_sum([out], [g]),
                                                            tensors)
            runs[how] = [out.data, carried] + grads
        assert len(layers._lstm_blocks(batch, steps)) > 1 or steps < 8
        for how in ("stack", "frozen"):
            for i, (got, want) in enumerate(zip(runs[how], runs["oracle"])):
                assert got.dtype == np.float32
                assert np.array_equal(got, want), f"{how}, T={steps}, array {i}"


@pytest.mark.parametrize("b", [1, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_cell_backward_matches_allocating_oracle(monkeypatch, use_workers, b, dtype):
    # The backward runs into preallocated scratch by out=, in the operation
    # order of the oracle's plain expressions: every gradient of a two-layer
    # stack over several blocks is bit-identical to the oracle's, applied
    # top layer first to the gates and states the node's forward left, at
    # batch 1 and at a training batch.
    monkeypatch.setattr(layers, "_LSTM_BLOCK_ROWS", 3 * b)
    use_workers(2)
    rng = np.random.default_rng(37 + b)
    x, *low, h0, c0 = (a.astype(dtype) for a in _lstm_arrays(rng, b, 10, 24, 32))
    *high, h1, c1 = (a.astype(dtype) for a in _lstm_arrays(rng, b, 10, 32, 32)[1:])
    params = [nn.parameter(a, f"p{i}") for i, a in enumerate([x] + low + high)]
    out = nn.lstm_cell(params[0], [(*params[1:4], h0, c0), (*params[4:], h1, c1)])
    g = rng.standard_normal(out.shape).astype(dtype)
    grads = out._backward(g)
    saved = dict(zip(out._backward.__code__.co_freevars,
                     (cell.cell_contents for cell in out._backward.__closure__)))
    (acts0, hs0, cs0), layer1 = saved["kept"]  # each layer's gates and states
    below = hs0[1:].swapaxes(0, 1)  # layer 0's hidden states, batch-major
    dx1, *want1 = lstm_backward_oracle(g, below, high[0], high[1], *layer1)
    want = list(lstm_backward_oracle(dx1, x, low[0], low[1], acts0, hs0, cs0)) + want1
    assert len(grads) == len(want) == 7
    for i, (grad, w) in enumerate(zip(grads, want, strict=True)):
        assert grad.dtype == dtype
        assert np.array_equal(grad, w), f"gradient {i}"


F32_EPS = float(np.finfo(np.float32).eps)


def _lstm_arrays_f32(rng, b, t, d, hdim):
    """_lstm_arrays rounded to float32, and the same values in float64 for
    the oracle, so only the arithmetic differs."""
    arrays32 = [a.astype(np.float32) for a in _lstm_arrays(rng, b, t, d, hdim)]
    return arrays32, [a.astype(np.float64) for a in arrays32]


def _assert_within(got, want, tol, what):
    err = float(np.max(np.abs(got - want)))
    bound = tol * max(1.0, float(np.max(np.abs(want))))
    assert err <= bound, f"{what}: max error {err:.3g} > {bound:.3g}"


def test_lstm_cell_float32_long_batch1_matches_oracle():
    # The batch-1 inference case over many steps, in float32, against the
    # float64 step oracle.  Bound, fixed before running: K * eps with
    # K = 8 (D + H), the length of one gate's dot product with room for the
    # error each step hands on through the recurrence.
    rng = np.random.default_rng(23)
    b, t, d, hdim = 1, 300, 20, 16
    (x, w_in, w_rec, bias, h, c), ref = _lstm_arrays_f32(rng, b, t, d, hdim)
    want, want_h, want_c = lstm_oracle(*ref)
    out = _lstm(nn.Tensor(x), nn.Tensor(w_in), nn.Tensor(w_rec), nn.Tensor(bias), h, c)
    assert out.data.dtype == h.dtype == c.dtype == np.float32
    tol = 8 * (d + hdim) * F32_EPS
    _assert_within(out.data, want, tol, "hidden states")
    _assert_within(h, want_h, tol, "carried h")
    _assert_within(c, want_c, tol, "carried c")


def test_lstm_cell_float32_batch_gradients_match_oracle():
    # B > 1 in float32: output, carried state and all four gradients against
    # the float64 step oracle, its gradients by central differences.  Bound,
    # fixed before running: K * eps with K = 8 (D + H + B T), the longest
    # reduction (a weight gradient sums over every step of every lane).
    rng = np.random.default_rng(29)
    b, t, d, hdim = 3, 6, 4, 5
    (*arrays32, h, c), (*ref, h0, c0) = _lstm_arrays_f32(rng, b, t, d, hdim)
    proj = rng.standard_normal((b, t, hdim)).astype(np.float32)
    params = [nn.parameter(a, f"p{i}") for i, a in enumerate(arrays32)]
    out = _lstm(*params, h, c)
    grads = nn.grads_for(weighted_sum([out], [proj]), params)
    want, want_h, want_c = lstm_oracle(*ref, h0, c0)
    tol = 8 * (d + hdim + b * t) * F32_EPS
    _assert_within(out.data, want, tol, "hidden states")
    _assert_within(h, want_h, tol, "carried h")
    _assert_within(c, want_c, tol, "carried c")
    for i, grad in enumerate(grads):
        def loss(v, i=i):
            args = list(ref)
            args[i] = v
            return float(np.sum(lstm_oracle(*args, h0, c0)[0] * proj))

        assert grad.dtype == np.float32
        _assert_within(grad, fd_gradient(loss, ref[i]), tol, f"gradient {i}")


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_lstm_cell_carried_over_segments_equals_one_call(monkeypatch, use_workers,
                                                         batch, depth):
    # A chunk run as consecutive segments of 1, 2 or 3 of its blocks, the
    # wavefront carried from call to call, against one whole-chunk call at
    # 2 workers: the concatenated outputs and the final states are
    # array_equal, every call runs the anti-diagonals the one call runs, and
    # the last call leaves nothing carried.
    monkeypatch.setattr(layers, "_LSTM_BLOCK_ROWS", 4)
    use_workers(2)
    dispatched = []
    run_shares = layers._run_shares

    def counted(task, items):
        items = list(items)
        dispatched.append(sorted(items))
        run_shares(task, items)

    monkeypatch.setattr(layers, "_run_shares", counted)
    rng = np.random.default_rng(depth)
    d, h = 12, 16
    weights = [(nn.Tensor(rng.standard_normal((4 * h, d if i == 0 else h)).astype(np.float32)),
                nn.Tensor(rng.standard_normal((4 * h, h)).astype(np.float32) * 0.3),
                nn.Tensor(rng.standard_normal(4 * h).astype(np.float32)))
               for i in range(depth)]
    for steps in (1, 2, 5, 9, 22, 37):
        x = rng.standard_normal((batch, steps, d)).astype(np.float32)
        start = rng.standard_normal((depth, 2, batch, h)).astype(np.float32)
        whole = start.copy()
        dispatched.clear()
        one = nn.lstm_cell(x, [(*w, *s) for w, s in zip(weights, whole)])
        diagonals = [len(items) for items in dispatched]
        blocks = layers._lstm_blocks(batch, steps)
        for per in (1, 2, 3):
            cuts = [b.start for b in blocks[::per]] + [steps]
            carried, carry, outs = start.copy(), [None] * depth, []
            dispatched.clear()
            for lo, hi in zip(cuts, cuts[1:]):
                out = nn.lstm_cell(x[:, lo:hi], [(*w, *s) for w, s in zip(weights, carried)],
                                   carry=carry, last=hi == steps)
                outs.append(out.data)
            assert carry == [None] * depth
            assert [len(items) for items in dispatched] == diagonals
            assert np.array_equal(np.concatenate(outs, axis=1), one.data), (steps, per)
            assert np.array_equal(carried, whole)


def test_lstm_cell_graph_call_runs_the_whole_chunk():
    rng = np.random.default_rng(4)
    x, w_in, w_rec, bias, h0, c0 = _lstm_arrays(rng, b=1, t=3, d=2, hdim=3)
    carry = [None]
    nn.lstm_cell(x[:, :2], [(w_in, w_rec, bias, h0, c0)], carry=carry, last=False)
    stack = [(nn.parameter(w_in, "w_in"), w_rec, bias, h0, c0)]
    for carry, last in (([None], False), (carry, True)):
        with pytest.raises(ValueError, match="records a graph runs the whole chunk"):
            nn.lstm_cell(x, stack, carry=carry, last=last)
    assert nn.lstm_cell(x, stack, carry=[None], last=True).requires_grad


@pytest.mark.parametrize("d, hdim, shared", [(1, 1, True), (3, 3, True), (4, 5, False)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_cell_leaves_weights_untouched(d, hdim, shared, dtype):
    # lstm_cell scales a copy of w_rec in place; the weights themselves,
    # including one array passed as both w_in and w_rec, must come back
    # byte-identical from the forward and the backward
    rng = np.random.default_rng(31)
    x, w_in, w_rec, bias, h, c = (a.astype(dtype) for a in
                                  _lstm_arrays(rng, 2, 3, d, hdim))
    if shared:
        w_in = w_rec = rng.standard_normal((4 * hdim, hdim)).astype(dtype)
    weights = (w_in, w_rec, bias)
    before = [a.tobytes() for a in weights]
    params = [nn.parameter(a, f"p{i}") for i, a in enumerate(weights)]
    out = _lstm(nn.Tensor(x), *params, h, c)
    nn.grads_for(weighted_sum([out]), params)
    assert [a.tobytes() for a in weights] == before


def conv_loop_oracle(x, kernels, bias):
    """Direct nested-loop cross-correlation with zero padding."""
    bn, c_in, n = x.shape
    c_out, _, k = kernels.shape
    half = (k - 1) // 2
    out = np.zeros((bn, c_out, n))
    for bi in range(bn):
        for o in range(c_out):
            for pos in range(n):
                acc = 0.0
                for ci in range(c_in):
                    for j in range(k):
                        src = pos + j - half
                        if 0 <= src < n:
                            acc += x[bi, ci, src] * kernels[o, ci, j]
                out[bi, o, pos] = acc + bias[o]
    return out


def test_conv1d_matches_loop_oracle():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((2, 3, 7))
    kernels = rng.standard_normal((4, 3, 5))
    bias = rng.standard_normal(4)
    # conv1d_freq is channel-last: (batch, n, channels) in and out
    got = nn.conv1d_freq(nn.Tensor(x.transpose(0, 2, 1)), nn.Tensor(kernels),
                         nn.Tensor(bias)).data
    assert_allclose(got, conv_loop_oracle(x, kernels, bias).transpose(0, 2, 1),
                    rtol=1e-12, atol=1e-12)


def test_conv1d_gradients():
    rng = np.random.default_rng(16)
    arrays = [
        np.ascontiguousarray(rng.standard_normal((2, 3, 6)).transpose(0, 2, 1)),
        rng.standard_normal((4, 3, 3)),
        rng.standard_normal(4),
    ]
    check_grads(lambda *t: _proj(nn.conv1d_freq(*t), 19), arrays)


@pytest.mark.parametrize("c_out, k", [(2, 1), (2, 3), (2, 5), (1, 5)])
def test_conv1d_gradients_shapes(c_out, k):
    # kernel widths 1, 3 and 5, and one output channel as in the posterior's
    # last layer, where every GEMM has one column on the output side
    rng = np.random.default_rng(30 + 10 * c_out + k)
    arrays = [
        rng.standard_normal((3, 7, 4)),
        rng.standard_normal((c_out, 4, k)),
        rng.standard_normal(c_out),
    ]
    check_grads(lambda *t: _proj(nn.conv1d_freq(*t), 31), arrays)


def test_conv1d_gradients_constant_input():
    # a constant input, as the posterior input is for frozen parameters:
    # the kernel and bias gradients hold and no input gradient is formed
    rng = np.random.default_rng(36)
    x = nn.Tensor(rng.standard_normal((2, 6, 3)))
    arrays = [rng.standard_normal((2, 3, 3)), rng.standard_normal(2)]
    check_grads(lambda kk, bb: _proj(nn.conv1d_freq(x, kk, bb), 37), arrays)
    out = nn.conv1d_freq(x, *(nn.parameter(a, f"p{i}") for i, a in enumerate(arrays)))
    assert out._backward(np.ones(out.shape))[0] is None


def test_conv1d_validation():
    x = nn.Tensor(np.zeros((1, 5, 2)))
    with pytest.raises(ValueError, match="odd"):
        nn.conv1d_freq(x, nn.Tensor(np.zeros((1, 2, 4))), nn.Tensor(np.zeros(1)))
    with pytest.raises(ValueError, match="channels"):
        nn.conv1d_freq(x, nn.Tensor(np.zeros((1, 3, 3))), nn.Tensor(np.zeros(1)))


def _value_and_grads(layer, arrays, weights):
    """layer(*arrays) and the gradient of sum(layer * weights) for every array."""
    params = [nn.parameter(np.array(a), f"p{i}") for i, a in enumerate(arrays)]
    out = layer(*params)
    loss = weighted_sum([out], [weights])
    return [out.data] + nn.grads_for(loss, params)


def assert_close_to_scale(got, want, tol, what):
    """Largest difference within tol of the oracle's largest magnitude."""
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= tol, f"{what}: {err:.3g} > {tol:.3g}"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("c_in, c_out", [(90, 256), (256, 128), (128, 64), (64, 1)])
def test_conv1d_matches_einsum_oracle(c_in, c_out, dtype):
    # The default posterior layers (k = 5 over 129 bins, a few frames):
    # the output and all three gradients agree with the einsum oracle, to
    # 1e-10 in float64 and to K float32 roundings, K = in channels x taps.
    rng = np.random.default_rng(c_in + c_out)
    frames, bins, k = 3, 129, 5
    x = rng.standard_normal((frames, c_in, bins)).astype(dtype)
    kernels = (rng.standard_normal((c_out, c_in, k)) / np.sqrt(c_in * k)).astype(dtype)
    bias = rng.standard_normal(c_out).astype(dtype)
    weights = rng.standard_normal((frames, c_out, bins)).astype(dtype)
    want = _value_and_grads(conv1d_einsum, (x, kernels, bias), weights)
    got = _value_and_grads(nn.conv1d_freq, (x.transpose(0, 2, 1), kernels, bias),
                           weights.transpose(0, 2, 1))
    got[0], got[1] = got[0].transpose(0, 2, 1), got[1].transpose(0, 2, 1)
    tol = 1e-10 if dtype == np.float64 else c_in * k * np.finfo(np.float32).eps
    for what, a, b in zip(("output", "x grad", "kernel grad", "bias grad"), got, want):
        assert a.dtype == dtype
        assert_close_to_scale(a, b, tol, what)


def correlate_taps(x, w, k):
    """im2col(x) @ w in float64, tap by tap: x (B, N, C), w (k*C, O), the
    output (B, N, O) is sum over taps j of x shifted by j - h, zero filled,
    times w's rows for tap j."""
    b, n, c = x.shape
    half = (k - 1) // 2
    padded = np.zeros((b, n + k - 1, c))
    padded[:, half : half + n] = x
    return sum(padded[:, j : j + n] @ w[j * c : (j + 1) * c].astype(np.float64)
               for j in range(k))


def winograd_magnitude(x, w, k):
    """The Winograd correlation of |x| and |w| with every transform taken by
    absolute value, in float64: (B, N, O), the scale its rounding errors
    grow with."""
    a_t, g, b_t = (np.abs(t) for t in layers._WINOGRAD[k])
    m, (b, n, c) = a_t.shape[0], x.shape
    tiles, half = -(-n // m), (k - 1) // 2
    padded = np.zeros((b, tiles * m + k - 1, c))
    padded[:, half : half + n] = np.abs(x)
    d = np.lib.stride_tricks.sliding_window_view(padded, 8, axis=1)[:, ::m]  # (B, T, C, 8)
    v = (d @ b_t.T).transpose(3, 0, 1, 2).reshape(8, b * tiles, c)
    u = (g @ np.abs(w).astype(np.float64).reshape(k, -1)).reshape(8, c, -1)
    y = np.einsum("ia,aro->rio", a_t, v @ u)  # (B*T, m, O)
    return y.reshape(b, tiles * m, -1)[:, :n]


# (k, in channels, out channels): a few channels at every Winograd width,
# and the default posterior's conv0-2 at k = 5 (their forwards; conv0's
# input gradient is the (256, 90) product)
WINOGRAD_SHAPES = [(3, 6, 5), (5, 6, 5), (7, 6, 5), (5, 90, 256), (5, 256, 128), (5, 128, 64),
                   (5, 256, 90)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k, c_in, c_out", WINOGRAD_SHAPES)
def test_winograd_correlate_matches_im2col_and_oracle(monkeypatch, k, c_in, c_out, dtype):
    # The Winograd path of _correlate (fast) against the im2col product
    # (slow) and a float64 tap-by-tap oracle, over 1-13 bins (tails of
    # every length, inputs shorter than a tile) and 129, at 1, 3 and 8
    # frames; the path is taken at every size here.  The bound, fixed
    # before measuring, is first order in the dtype's unit roundoff eps:
    # one rounding of the float64 kernel transform, 8 terms in each input
    # and output transform and C in each GEMM give (C + 17) eps times the
    # Winograd sum of absolute values, plus the oracle's own float64 error,
    # C k eps64 times sum |x| |w|.  im2col's product is held to its own
    # C k eps bound.
    monkeypatch.setattr(layers, "_WINOGRAD_MIN_CHANNELS", 1)
    calls = []
    block = layers._winograd_block
    monkeypatch.setattr(layers, "_winograd_block",
                        lambda *a: calls.append(a[0].shape) or block(*a))
    rng = np.random.default_rng(100 * k + c_in + c_out)
    eps, eps64 = np.finfo(dtype).eps, np.finfo(np.float64).eps
    w = (rng.standard_normal((k * c_in, c_out)) / np.sqrt(k * c_in)).astype(dtype)
    for bins in list(range(1, 14)) + [129]:
        for frames in (1, 3, 8):
            x = rng.standard_normal((frames, bins, c_in)).astype(dtype)
            calls.clear()
            got = layers._correlate(x, w, k).reshape(frames, bins, c_out)
            assert got.dtype == dtype and calls
            slow = layers._im2col(x, k) @ w
            want = correlate_taps(x, w, k)
            scale = correlate_taps(np.abs(x), np.abs(w), k)
            bound = (c_in + 17) * eps * winograd_magnitude(x, w, k) + c_in * k * eps64 * scale
            assert np.all(np.abs(got - want) <= bound), (bins, frames)
            slow_bound = c_in * k * (eps + eps64) * scale
            assert np.all(np.abs(slow.reshape(got.shape) - want) <= slow_bound), (bins, frames)


def kernel_grad_taps(x, g, k):
    """im2col(x).T @ g in float64, tap by tap: x (B, N, C), g (B*N, O), the
    (k*C, O) result's rows j*C.. the product of x shifted by j - h, zero
    filled, with g."""
    b, n, c = x.shape
    half = (k - 1) // 2
    padded = np.zeros((b, n + k - 1, c))
    padded[:, half : half + n] = x
    return np.concatenate([padded[:, j : j + n].reshape(-1, c).T @ g.astype(np.float64)
                           for j in range(k)])


def kernel_grad_magnitude(x, g, k):
    """The Winograd kernel gradient of |x| and |g| with every transform
    taken by absolute value, in float64: (k*C, O), the scale its rounding
    errors grow with."""
    a_t, g_t, b_t = (np.abs(t) for t in layers._WINOGRAD_GRAD[k])
    m, (b, n, c), o = g_t.shape[1], x.shape, g.shape[1]
    tiles, half = -(-n // m), (k - 1) // 2
    padded = np.zeros((b, tiles * m + k - 1, c))
    padded[:, half : half + n] = np.abs(x)
    d = np.lib.stride_tricks.sliding_window_view(padded, 8, axis=1)[:, ::m]  # (B, T, C, 8)
    v = (d @ b_t.T).transpose(3, 0, 1, 2).reshape(8, b * tiles, c)
    g_tiles = np.zeros((b, tiles * m, o))
    g_tiles[:, :n] = np.abs(g).reshape(b, n, o)
    u = (g_tiles.reshape(b, tiles, m, o).swapaxes(2, 3) @ g_t.T)  # (B, T, O, 8)
    u = u.transpose(3, 0, 1, 2).reshape(8, b * tiles, o)
    return (a_t @ (v.swapaxes(1, 2) @ u).reshape(8, -1)).reshape(k * c, o)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k, c_in, c_out", WINOGRAD_SHAPES)
def test_winograd_kernel_grad_matches_oracle(monkeypatch, k, c_in, c_out, dtype):
    # The Winograd path of _kernel_grad, F(k, 9 - k), against a float64
    # tap-by-tap oracle, over 1-13 bins and 129, at 1, 3 and 8 frames; the
    # path is taken at every size here.  The bound, fixed before measuring,
    # is first order in the dtype's unit roundoff eps: one rounding of G
    # and m terms in its product, 8 terms in each of B^T and A^T, and
    # S = frames x tiles terms in the transformed sum give (S + m + 17) eps
    # times the Winograd sum of absolute values, plus the oracle's own
    # float64 error, frames x bins x eps64 times sum |x| |g|.  im2col's
    # product is held to its own frames x bins bound.
    monkeypatch.setattr(layers, "_WINOGRAD_MIN_CHANNELS", 1)
    calls = []
    block = layers._winograd_grad_block
    monkeypatch.setattr(layers, "_winograd_grad_block",
                        lambda *a: calls.append(a[0].shape) or block(*a))
    rng = np.random.default_rng(200 * k + c_in + c_out)
    eps, eps64 = np.finfo(dtype).eps, np.finfo(np.float64).eps
    m = 9 - k
    for bins in list(range(1, 14)) + [129]:
        for frames in (1, 3, 8):
            x = rng.standard_normal((frames, bins, c_in)).astype(dtype)
            g = rng.standard_normal((frames * bins, c_out)).astype(dtype)
            calls.clear()
            got = layers._kernel_grad(x, g, k)
            assert got.shape == (k * c_in, c_out) and got.dtype == dtype and calls
            want = kernel_grad_taps(x, g, k)
            scale = kernel_grad_taps(np.abs(x), np.abs(g), k)
            terms = frames * -(-bins // m)
            bound = ((terms + m + 17) * eps * kernel_grad_magnitude(x, g, k)
                     + frames * bins * eps64 * scale)
            assert np.all(np.abs(got - want) <= bound), (bins, frames)
            slow = layers._im2col(x, k).T @ g
            slow_bound = frames * bins * (eps + eps64) * scale
            assert np.all(np.abs(slow - want) <= slow_bound), (bins, frames)


@pytest.mark.parametrize("k, c_in, c_out, bins, winograd", [
    (5, 90, 256, 129, True), (5, 256, 90, 129, True), (3, 64, 64, 9, True),
    (7, 128, 64, 129, True), (5, 64, 1, 129, False), (5, 1, 64, 129, False),
    (5, 63, 64, 129, False), (5, 64, 63, 129, False), (1, 64, 64, 129, False),
    (9, 64, 64, 129, False)])
def test_correlate_takes_winograd_by_shape(monkeypatch, k, c_in, c_out, bins, winograd):
    # Winograd for widths 3, 5 and 7 over at least 64 channels on each
    # side, at any bin count; im2col for conv3's one output channel and its
    # input gradient's one input channel, fewer channels, and other widths.
    # The kernel gradient of x against an output of c_out channels follows
    # the same rule.
    calls = []
    for name in ("_winograd_block", "_winograd_grad_block"):
        block = getattr(layers, name)
        monkeypatch.setattr(layers, name, lambda *a, name=name, block=block:
                            calls.append(name) or block(*a))
    x = np.ones((2, bins, c_in), dtype=np.float32)
    layers._correlate(x, np.ones((k * c_in, c_out), dtype=np.float32), k)
    layers._kernel_grad(x, np.ones((2 * bins, c_out), dtype=np.float32), k)
    assert calls == (["_winograd_block", "_winograd_grad_block"] if winograd else [])


def test_winograd_correlate_bytes_equal_at_every_worker_count(monkeypatch, use_workers):
    # One row block per frame, shared out among 1, 2 and 3 workers: the
    # Winograd forward with its bias, the input gradient and the kernel
    # gradient, float32 at conv1's shapes, are array_equal.
    monkeypatch.setattr(layers, "_COLS_BLOCK", 1)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((7, 129, 256)).astype(np.float32)
    kernels = (rng.standard_normal((128, 256, 5)) / 30).astype(np.float32)
    bias = rng.standard_normal(128).astype(np.float32)
    g = rng.standard_normal((7, 129, 128)).astype(np.float32)
    results = {}
    for workers in (1, 2, 3):
        use_workers(workers)
        out = nn.conv1d_freq(nn.parameter(x, "x"), nn.Tensor(kernels), nn.Tensor(bias))
        results[workers] = (out.data.copy(), *out._backward(g)[:2])
    for workers in (2, 3):
        for want, got in zip(results[1], results[workers], strict=True):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_selu_matches_where_oracle(dtype):
    # Into a fresh output and in place (out= the input's own array): in
    # place the input array ends up holding y, and y and its gradient are
    # the bytes of the fresh output.
    rng = np.random.default_rng(27)
    x = (3.0 * rng.standard_normal((4, 129, 8))).astype(dtype)
    x[0, 0, :4] = 0.0  # the kink: slope scale*alpha, as exp(0) gives
    weights = rng.standard_normal(x.shape).astype(dtype)
    want = _value_and_grads(selu_where, (x,), weights)
    fresh = _value_and_grads(nn.selu, (x,), weights)
    tol = 1e-14 if dtype == np.float64 else 4 * np.finfo(np.float32).eps
    for what, a, b in zip(("output", "x grad"), fresh, want):
        assert a.dtype == dtype
        assert_close_to_scale(a, b, tol, what)
    assert_allclose(fresh[1][0, 0, :4], SELU_SCALE * SELU_ALPHA * weights[0, 0, :4],
                    rtol=4 * np.finfo(dtype).eps)
    inputs = []

    def in_place(p):
        inputs.append(p.data)
        return nn.selu(p, out=p.data)

    got = _value_and_grads(in_place, (x,), weights)
    assert got[0] is inputs[0]
    for a, b in zip(got, fresh, strict=True):
        assert a.dtype == dtype and np.array_equal(a, b)


@pytest.mark.parametrize("case", ["shape", "dtype", "strided", "fortran",
                                  "read-only", "list", "overlap"])
def test_selu_rejects_an_unusable_out(case):
    # An out selu cannot write y into as one flat run of x's layout would
    # lose y or corrupt x silently.
    buf = np.random.default_rng(3).standard_normal(13)
    x = buf[:12].reshape(3, 4)
    out = {"shape": lambda: np.empty((4, 3)),
           "dtype": lambda: np.empty((3, 4), np.float32),
           "strided": lambda: np.empty((3, 8))[:, ::2],
           "fortran": lambda: np.empty((3, 4), order="F"),
           "read-only": lambda: np.lib.stride_tricks.as_strided(
               np.empty((3, 4)), writeable=False),
           "list": lambda: [[0.0] * 4] * 3,
           "overlap": lambda: buf[1:].reshape(3, 4)}[case]()
    keep = buf.copy()
    with pytest.raises(ValueError, match="^selu: out "):
        nn.selu(nn.Tensor(x), out=out)
    assert np.array_equal(buf, keep)


@pytest.mark.parametrize("frames", [1, 3, 8, 13])
def test_conv0_forms_the_gathered_channels_gradient_only(frames):
    # At the default sizes (81 gathered and 9 context channels, 256 kernels
    # of width 5, float32), conv0's gradients over a gather_steps image are
    # array_equal to those over a plain parameter holding the same image,
    # and the gather reads only the gathered channels of its gradient: the
    # context channels' gradient, which goes nowhere, does not move it.
    # The frame counts give GEMMs of 129 to 774 rows.
    cfg = RtsnConfig()
    p = init_params(cfg, StftConfig(), unit_stats(129), seed=2).tensors
    rng = np.random.default_rng(frames)
    shape = (1, frames, cfg.stack_rows, cfg.n_bins)
    x_bar = nn.parameter(rng.standard_normal(shape).astype(np.float32), "x_bar")
    context = rng.standard_normal(shape).astype(np.float32)
    idx = stack_index(np.arange(frames), cfg.lookahead, frames - 1)
    image = nn.gather_steps(x_bar, idx[None], context)
    gathered = cfg.stack_rows ** 2
    assert image.shape[2] == cfg.posterior_channels
    conv = (p["conv0.weight"], p["conv0.bias"])
    g = rng.standard_normal((frames, cfg.n_bins, cfg.conv_channels[0])).astype(np.float32)
    through = nn.conv1d_freq(image, *conv)._backward(g)
    plain = nn.conv1d_freq(nn.parameter(image.data, "image"), *conv)._backward(g)
    assert through[0].shape == (frames, cfg.n_bins, cfg.posterior_channels)
    for got, want in zip(through, plain, strict=True):
        assert np.array_equal(got, want)
    gx = image._backward(through[0])[0]
    moved = through[0].copy()
    moved[..., gathered:] = rng.standard_normal(moved[..., gathered:].shape)
    assert np.array_equal(image._backward(moved)[0], gx)
    assert np.array_equal(image._backward(through[0][..., :gathered])[0], gx)


def _context(idx, n, channels=2, seed=0):
    """A random (B, U, channels, N) context for gather_steps over idx."""
    b, u, _ = idx.shape
    return np.random.default_rng(seed).standard_normal((b, u, channels, n))


def assert_gather_matches_loop(x, idx):
    b, u, m = idx.shape
    r, n = x.shape[2:]
    ctx = _context(idx, n)
    got = nn.gather_steps(nn.Tensor(x), idx, ctx).data
    assert got.shape == (b * u, n, m * r + ctx.shape[2])
    for bi in range(b):
        for ui in range(u):
            for mi in range(m):
                for ri in range(r):
                    assert_allclose(
                        got[bi * u + ui, :, mi * r + ri],
                        x[bi, idx[bi, ui, mi], ri],
                        rtol=0, atol=0,
                    )
            for ci in range(ctx.shape[2]):
                assert_allclose(got[bi * u + ui, :, m * r + ci], ctx[bi, ui, ci],
                                rtol=0, atol=0)


def test_gather_steps_matches_loop():
    rng = np.random.default_rng(17)
    b, t, r, n, m = 2, 5, 3, 4, 3
    x = rng.standard_normal((b, t, r, n))
    assert_gather_matches_loop(x, rng.integers(0, t, size=(b, t, m)))


def test_gather_steps_block_rows_match_loop():
    # a block of u output rows may gather from any of the t steps
    rng = np.random.default_rng(22)
    b, t, r, n, m = 2, 7, 3, 4, 3
    x = rng.standard_normal((b, t, r, n))
    for u in (1, 3, 9):
        assert_gather_matches_loop(x, rng.integers(0, t, size=(b, u, m)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("channels", [0, 1, 5])
def test_gather_steps_matches_composition_oracle(dtype, channels):
    # the image is the gathered rows and the context, each transposed
    # channel-last, concatenated and flattened to frames: the same values
    rng = np.random.default_rng(40 + channels)
    b, t, r, n, lookahead = 3, 8, 5, 6, 2
    x = rng.standard_normal((b, t, r, n)).astype(dtype)
    idx = np.broadcast_to(stack_index(np.arange(2, 7), lookahead, t - 1),
                          (b, 5, 2 * lookahead + 1))
    ctx = _context(idx, n, channels, seed=channels).astype(dtype)
    got = nn.gather_steps(nn.Tensor(x), idx, ctx)
    assert got.dtype == dtype
    assert np.array_equal(got.data, posterior_image(x, idx, ctx))


def test_gather_steps_gradient_with_repeats():
    rng = np.random.default_rng(18)
    b, t, r, n, m = 2, 4, 2, 3, 3
    x = rng.standard_normal((b, t, r, n))
    idx = rng.integers(0, t, size=(b, t, m))
    idx[0, 0, :] = 1  # repeated index exercises gradient accumulation
    ctx = _context(idx, n)
    check_grads(lambda xx: _proj(nn.gather_steps(xx, idx, ctx), 20), [x])


def test_gather_steps_block_rows_gradient():
    # two blocks of rows gathering from one tensor, as the posterior does:
    # gradients from both accumulate into it, steps no row reads get zero
    rng = np.random.default_rng(23)
    b, t, r, n, m = 2, 6, 2, 3, 3
    x = rng.standard_normal((b, t, r, n))
    first = rng.integers(0, 4, size=(b, 2, m))
    second = rng.integers(2, 4, size=(b, 3, m))
    second[1, 0, :] = 3  # repeated index inside a block

    def build(xx):
        return weighted_sum([_proj(nn.gather_steps(xx, first, _context(first, n)), 24),
                             _proj(nn.gather_steps(xx, second, _context(second, n)), 25)])

    check_grads(build, [x])
    p = nn.parameter(x.copy(), "x")
    (g,) = nn.grads_for(build(p), [p])
    assert not np.any(g[:, 4:])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gather_steps_gradient_matches_add_at_oracle(dtype):
    # Clamped edge indices as the posterior gathers them (lane 0, whole
    # chunk and a block of rows), and random ones with repeats inside and
    # across rows (lane 1): the scatter sums repeats in np.add.at's order.
    rng = np.random.default_rng(26)
    b, t, r, n, lookahead = 2, 7, 3, 4, 2
    x = rng.standard_normal((b, t, r, n)).astype(dtype)
    m = 2 * lookahead + 1
    for rows in (slice(0, t), slice(2, 5)):
        idx = np.stack([stack_index(np.arange(t)[rows], lookahead, t - 1),
                        rng.integers(0, t, size=(rows.stop - rows.start, m))])
        idx[1, 0] = 3
        p = nn.parameter(x.copy(), "x")
        out = nn.gather_steps(p, idx, _context(idx, n).astype(dtype))
        g = rng.standard_normal(out.shape).astype(dtype)
        (got,) = nn.grads_for(weighted_sum([out], [g]), [p])
        assert got.dtype == dtype
        assert np.array_equal(got, gather_steps_grad(x.shape, idx, g))


def test_gather_steps_index_validation():
    x = nn.Tensor(np.zeros((1, 3, 2, 2)))
    ctx = np.zeros((1, 3, 1, 2))
    with pytest.raises(ValueError, match="out of range"):
        nn.gather_steps(x, np.array([[[3], [0], [0]]]), ctx)
    with pytest.raises(ValueError, match="incompatible"):
        nn.gather_steps(x, np.zeros((2, 3, 1), dtype=int), ctx)


@pytest.mark.parametrize("shape", [(1, 2, 1, 2), (2, 3, 1, 2), (1, 3, 1, 3), (1, 3, 2)])
def test_gather_steps_rejects_mismatched_context(shape):
    # the context must be (B, U, channels, N) for x (B, T, R, N) and idx (B, U, M)
    x = nn.Tensor(np.zeros((1, 4, 2, 2)))
    idx = np.zeros((1, 3, 1), dtype=int)
    match = r"context shape .* does not match \(1, 3, channels, 2\)"
    with pytest.raises(ValueError, match=match):
        nn.gather_steps(x, idx, np.zeros(shape))


@pytest.mark.parametrize("prior_weight", [0.0, 2.5])
def test_stack_loss_gradients_with_partial_mask(prior_weight):
    # Both predictions' gradients in float64 with a partial mask, against
    # central differences and against the closed form 2 (x - target) mask /
    # count, times prior_weight for the stacks.  The stacks may come in any
    # shape of their size, the flat projection among them.
    rng = np.random.default_rng(41)
    b, u, r, n = 2, 4, 3, 5
    frames, target_frames = rng.standard_normal((2, b, u, n))
    stacks, target_stacks = rng.standard_normal((2, b, u, r, n))
    mask = np.array([[1, 1, 0, 1], [0, 1, 0, 0]], dtype=bool)

    def loss(f, s):
        errors = frame_errors(f.data, target_frames, s.data, target_stacks)
        return nn.stack_loss(errors, prior_weight, mask,
                             [(f, target_frames), (s, target_stacks)])[0]

    check_grads(loss, [frames, stacks])
    params = [nn.parameter(frames.copy(), "f"), nn.parameter(stacks.copy(), "s")]
    got_frames, got_stacks = nn.grads_for(loss(*params), params)
    scale = 2.0 * mask / mask.sum()
    assert_allclose(got_frames, scale[..., None] * (frames - target_frames),
                    rtol=1e-14, atol=1e-15)
    assert_allclose(got_stacks,
                    prior_weight * scale[..., None, None] * (stacks - target_stacks),
                    rtol=1e-14, atol=1e-15)
    flat = [params[0], nn.parameter(stacks.reshape(b * u, r * n), "flat")]
    got_flat = nn.grads_for(loss(*flat), flat)[1]
    assert np.array_equal(got_flat, got_stacks.reshape(b * u, r * n))


def test_stack_loss_returns_masked_sums_and_count():
    # one masked frame out of three; errors 1 and 4 on the frames kept
    errors = frame_errors(np.array([[[1.0], [2.0], [9.0]]]), np.zeros((1, 3, 1)),
                          np.ones((1, 3, 1, 1)), np.zeros((1, 3, 1, 1)))
    total, post_sum, pri_sum, count = nn.stack_loss(errors, 3.0, np.array([[1, 1, 0]]))
    assert (post_sum, pri_sum, count) == (5.0, 2.0, 2.0)
    assert total.dtype == np.float64 and float(total.data) == (5.0 + 3.0 * 2.0) / 2.0
    with pytest.raises(ValueError, match="mask excludes every frame"):
        nn.stack_loss(errors, 3.0, np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# graph behavior
# ---------------------------------------------------------------------------


def test_grads_for_detached_param_raises():
    p = nn.parameter(np.ones(3), "attached")
    q = nn.parameter(np.ones(3), "detached")
    loss = weighted_sum([mul(p, p)])
    with pytest.raises(ValueError, match="detached is not part of the loss graph"):
        nn.grads_for(loss, [p, q])


def test_in_graph_but_zero_influence_gets_zero_grad():
    p = nn.parameter(np.ones(3), "p")
    q = nn.parameter(np.ones(3), "q")
    loss = weighted_sum([mul(q, 0.0), mul(p, p)])
    gp, gq = nn.grads_for(loss, [p, q])
    assert_allclose(gp, 2.0, rtol=0, atol=0)
    assert_allclose(gq, 0.0, rtol=0, atol=0)


def test_backward_deterministic():
    def run():
        rng = np.random.default_rng(19)
        p = nn.parameter(rng.standard_normal((8, 8)), "p")
        x = nn.Tensor(rng.standard_normal((8, 8)))
        y = matmul(nn.selu(mul(p, x)), p)
        loss = weighted_sum([mul(y, y)])
        (g,) = nn.grads_for(loss, [p])
        return g

    assert np.array_equal(run(), run())


@pytest.mark.parametrize("depth", [4, 16])
def test_backward_holds_only_the_live_gradients(depth):
    # A chain of selu nodes over a 1 M-value float64 parameter: a node's
    # gradient is created by its first accumulation and dropped once its
    # closure has run, so backward holds about two chain-sized arrays
    # whatever the depth, not one per node.
    p = nn.parameter(np.linspace(-2.0, 2.0, 1 << 20), "p")
    y = p
    for _ in range(depth):
        y = nn.selu(y)
    loss = weighted_sum([y])
    tracemalloc.start()
    try:
        (g,) = nn.grads_for(loss, [p])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.shape == p.shape
    assert peak <= 3 * p.data.nbytes, f"peak {peak / p.data.nbytes:.1f}x the input"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adopted_broadcast_gradient_accumulates_out_of_place(dtype):
    # The sum's backward hands p a read-only broadcast view for its first
    # appearance, which p adopts; the second accumulation must sum out of
    # place, not into it.
    p = nn.parameter(np.arange(6, dtype=dtype).reshape(2, 3), "p")
    (g,) = nn.grads_for(weighted_sum([p, p]), [p])
    assert g.shape == p.shape and g.dtype == dtype
    assert np.array_equal(g, np.full((2, 3), 2.0))


def test_backward_keeps_leaf_gradients_and_drops_interior_ones():
    # Every gradient handed to an interior node is dead once the closure
    # that consumes it has run; the leaves' gradients are returned, and
    # asking for the constant x, in the graph, is an error.
    p = nn.parameter(np.array([1.0, -2.0]), "p")
    q = nn.parameter(np.array([0.5, 3.0]), "q")
    x = nn.Tensor(np.array([2.0, 1.0]))
    prod = mul(p, q)
    act = nn.selu(mul(prod, x))
    loss = weighted_sum([mul(act, act)])
    interior = [t for t in nn.engine._topo_order(loss) if t._backward is not None]
    assert len(interior) == 5 and prod in interior
    handed = []

    def spy(closure):
        def backward(g):
            assert all(ref() is None for ref in handed), "a consumed gradient is live"
            handed.append(weakref.ref(g))
            return closure(g)
        return backward

    for t in interior:
        t._backward = spy(t._backward)
    with pytest.raises(ValueError, match="tensor <unnamed> is a constant, not a parameter"):
        nn.grads_for(loss, [p, q, x])
    gp, gq = nn.grads_for(loss, [p, q])
    assert len(handed) == 5
    assert all(ref() is None for ref in handed)
    assert isinstance(gp, np.ndarray) and isinstance(gq, np.ndarray)
    # a second backward starts afresh rather than adding to the first
    first = gp.copy()
    assert np.array_equal(nn.grads_for(loss, [p])[0], first)


def test_grads_for_rejects_a_constant_in_params():
    # A frozen (named constant) weight beside a parameter: a zero gradient
    # for it would let a trainer step without learning, so it is an error.
    x = nn.parameter(np.array([[1.0, 2.0]]), "x")
    w = nn.Tensor(np.array([[0.5, -1.0]]), name="w")
    loss = weighted_sum([nn.linear(x, w, nn.Tensor(np.zeros(1), name="b"))])
    with pytest.raises(ValueError, match="tensor w is a constant, not a parameter"):
        nn.grads_for(loss, [x, w])
    (gx,) = nn.grads_for(loss, [x])
    assert np.array_equal(gx, w.data)


def test_node_no_gradient_reaches_is_skipped():
    # An op whose backward routes nothing to its input: the square node
    # below it never gets a gradient, so its closure is skipped, and p, in
    # the graph but unreached, still gets an exact zero gradient.
    p = nn.parameter(np.array([1.0, -2.0]), "p")
    sq = mul(p, p)
    blocked = _node(sq.data.copy(), (sq,), lambda g: (None,), "block")
    (g,) = nn.grads_for(weighted_sum([blocked]), [p])
    assert g.dtype == p.dtype and np.array_equal(g, np.zeros(2))


def test_reused_node_accumulates_once_per_path():
    # y = p*p contributes through two paths when summed with itself
    p = nn.parameter(np.array([3.0]), "p")
    y = mul(p, p)
    loss = weighted_sum([y, y])
    (g,) = nn.grads_for(loss, [p])
    assert_allclose(g, 12.0, rtol=0, atol=0)  # d/dp of 2*p^2


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_matches_scripted_oracle():
    rng = np.random.default_rng(20)
    p0 = rng.standard_normal(6)
    grads = [rng.standard_normal(6) for _ in range(5)]

    p = nn.parameter(p0.copy(), "w")
    state = nn.AdamState(learning_rate=0.01)
    for g in grads:
        nn.adam_update(state, [p], [g])

    # independent reimplementation of the update rule
    ref = p0.copy()
    m = np.zeros(6)
    v = np.zeros(6)
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        ref -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)

    assert_allclose(p.data, ref, rtol=1e-12, atol=1e-14)


def test_adam_first_step_is_signed_learning_rate():
    p = nn.parameter(np.array([1.0, 1.0]), "w")
    state = nn.AdamState(learning_rate=0.05)
    nn.adam_update(state, [p], [np.array([10.0, -0.3])])
    step = p.data - 1.0
    assert_allclose(step, [-0.05, 0.05], rtol=1e-6, atol=0)


def test_adam_moment_buffers_follow_names():
    rng = np.random.default_rng(21)
    a0, b0 = rng.standard_normal(3), rng.standard_normal(3)
    ga, gb = rng.standard_normal(3), rng.standard_normal(3)

    def run(swap_second_call):
        a = nn.parameter(a0.copy(), "a")
        b = nn.parameter(b0.copy(), "b")
        st = nn.AdamState(learning_rate=0.1)
        nn.adam_update(st, [a, b], [ga, gb])
        if swap_second_call:
            nn.adam_update(st, [b, a], [gb, ga])
        else:
            nn.adam_update(st, [a, b], [ga, gb])
        return a.data, b.data

    for x, y in zip(run(False), run(True)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("shape", [(15,), (16,), (17,), (40,), (3, 7)])
def test_adam_blocks_match_the_plain_expressions(monkeypatch, shape):
    # Blocks of 16 values, so the sizes fall on either side of a block
    # boundary: three float32 steps of the in-place block update leave the
    # parameter and both moments array_equal to the whole-array expressions.
    monkeypatch.setattr(adam, "_BLOCK", 16)
    rng = np.random.default_rng(sum(shape))
    p0 = rng.standard_normal(shape).astype(np.float32)
    p = nn.parameter(p0.copy(), "w")
    state = nn.AdamState(learning_rate=0.01)
    want, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
    for t in range(1, 4):
        g = rng.standard_normal(shape).astype(np.float32)
        nn.adam_update(state, [p], [g])
        m += (1.0 - 0.9) * (g - m)
        v += (1.0 - 0.999) * (g * g - v)
        want -= 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
    assert np.array_equal(p.data, want)
    assert np.array_equal(state.m["w"], m) and np.array_equal(state.v["w"], v)


def test_adam_checks_every_gradient_before_moving_anything():
    # A NaN in the last gradient raises before any parameter, moment or
    # the step count moves.
    rng = np.random.default_rng(22)
    params = [nn.parameter(rng.standard_normal(shape).astype(np.float32), f"p{i}")
              for i, shape in enumerate([(3, 4), (5,), (2, 2)])]
    state = nn.AdamState(learning_rate=0.1)
    nn.adam_update(state, params, [rng.standard_normal(p.shape).astype(np.float32)
                                   for p in params])
    before = ([p.data.copy() for p in params], {k: a.copy() for k, a in state.m.items()},
              {k: a.copy() for k, a in state.v.items()})
    grads = [rng.standard_normal(p.shape).astype(np.float32) for p in params]
    grads[-1][1, 0] = np.nan
    with pytest.raises(FloatingPointError, match="parameter p2"):
        nn.adam_update(state, params, grads)
    assert state.step == 1
    assert all(np.array_equal(p.data, a) for p, a in zip(params, before[0], strict=True))
    for moments, kept in zip((state.m, state.v), before[1:]):
        assert all(np.array_equal(moments[k], a) for k, a in kept.items())


def test_adam_error_cases():
    p = nn.parameter(np.ones(2), "w")
    state = nn.AdamState()
    with pytest.raises(FloatingPointError, match="parameter w"):
        nn.adam_update(state, [p], [np.array([np.nan, 0.0])])
    with pytest.raises(ValueError, match="shape"):
        nn.adam_update(state, [p], [np.ones(3)])
    with pytest.raises(ValueError, match="named"):
        nn.adam_update(state, [nn.Tensor(np.ones(2), requires_grad=True)], [np.ones(2)])
    with pytest.raises(ValueError, match="params but"):
        nn.adam_update(state, [p], [])
    with pytest.raises(ValueError, match="parameter w is not C-contiguous"):
        nn.adam_update(state, [nn.parameter(np.ones((2, 3)).T, "w")], [np.ones((3, 2))])
