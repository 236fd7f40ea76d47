"""Recurrent two-stage enhancement network.

Stage one (the prior network) runs a unidirectional LSTM over windows of
noisy log-power frames and emits, per step, a stack of 2*lookahead+1 base
predictions covering frames t-lookahead..t+lookahead.  Each LSTM layer is
one graph node over the whole chunk, and its (h, c) state arrays advance
in place from one chunk to the next.  Stage two (the posterior network)
collects every stack overlapping frame t together with the noisy frames
themselves into a channel image and reduces it to one enhanced frame with
1-D convolutions over frequency and SELU between them.  One gather_steps
node writes that image channel-last, (frames, bins, channels), gathered
stacks first and noisy context after, so every convolution runs as im2col
GEMMs over the contiguous channels of each bin with no transposes in
between.  Training minimizes the posterior error plus prior_weight times
the stack error, one stack_loss node.

Every per-step input and target comes from one layout, the frame stack:
frames t-lookahead..t+lookahead of step t, edge-replicated (frame_stack).
A chunk carries the noisy and clean stacks only.  The prior's input is the
noisy stack's rows lookahead.. (frames t..t+lookahead), the posterior's
noisy context is the whole noisy stack, the prior's target is the clean
stack and the posterior's target its row lookahead (frame t).

There is one forward, forward_chunk, for training, validation and
enhancement.  Training runs it over parameters that record an autodiff
graph; validation and enhancement run it over params.frozen(), constants
sharing the same arrays, so no graph is kept.  The posterior runs over
blocks of at most POST_BLOCK_FRAMES frames, so enhancement memory stays
bounded apart from the O(frames) stacks, prior outputs and result.

_expected_shapes is the one table of parameter names and shapes: it fixes
the initialization draw order, the checkpoint tensor order and the
tensors an RtsnParams holds.  The forward reads each tensor from
params.tensors by its name in that table (lstm{i}.w_in, proj.weight,
conv{i}.bias, ...); there are no per-layer parameter objects.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import neural as nn
from .corpus import NormStats, _atomic_write, denormalize, normalize
from .dsp import (
    LpsSequence,
    StftConfig,
    Waveform,
    decompose,
    lps_from_magnitude,
    magnitude_from_lps,
    stft,
)
from .gla import GlaConfig, griffin_lim
from .settings import build, decode_utf8, format_settings, parse_settings, schema

CHECKPOINT_MAGIC = b"RTSNCKPT"
CHECKPOINT_VERSION = 1
# Most frames (batch x steps) the posterior convolves at once.  The im2col
# columns are built a few frames at a time (at most 4 MB, layers._COLS_BLOCK),
# so a block's largest buffer is an activation: conv0's output and the SELU
# after it, each 256 frames x 129 bins x 256 ch x 4 B = 34 MB at the
# default config.
POST_BLOCK_FRAMES = 256

# ---------------------------------------------------------------------------
# configuration and parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RtsnConfig:
    lookahead: int = 4
    prior_weight: float = 10.0
    n_bins: int = 129
    lstm_layers: int = 2
    lstm_units: int = 512
    conv_kernel: int = 5
    conv_channels: tuple[int, ...] = (256, 128, 64, 1)
    gla_iters: int = 5

    def __post_init__(self) -> None:
        if self.lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {self.lookahead}")
        if not (math.isfinite(self.prior_weight) and self.prior_weight >= 0):
            raise ValueError(
                f"prior_weight must be finite and >= 0, got {self.prior_weight}"
            )
        if self.n_bins < 1 or self.lstm_layers < 1 or self.lstm_units < 1:
            raise ValueError("n_bins, lstm_layers, lstm_units must be positive")
        if self.conv_kernel % 2 != 1:
            raise ValueError(f"conv_kernel must be odd, got {self.conv_kernel}")
        if not self.conv_channels or self.conv_channels[-1] != 1:
            raise ValueError(
                f"conv_channels must end in 1, got {self.conv_channels}"
            )
        if self.gla_iters < 0:
            raise ValueError(f"gla_iters must be >= 0, got {self.gla_iters}")

    @property
    def stack_rows(self) -> int:
        return 2 * self.lookahead + 1

    @property
    def pri_input_dim(self) -> int:
        return (self.lookahead + 1) * self.n_bins

    @property
    def posterior_channels(self) -> int:
        r = self.stack_rows
        return r * r + r


def _expected_shapes(config: RtsnConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in initialization and checkpoint
    order: the one place the parameter layout is written out."""
    shapes: dict[str, tuple[int, ...]] = {}
    h = config.lstm_units
    d = config.pri_input_dim
    for i in range(config.lstm_layers):
        shapes[f"lstm{i}.w_in"] = (4 * h, d if i == 0 else h)
        shapes[f"lstm{i}.w_rec"] = (4 * h, h)
        shapes[f"lstm{i}.bias"] = (4 * h,)
    out_dim = config.stack_rows * config.n_bins
    shapes["proj.weight"] = (out_dim, h)
    shapes["proj.bias"] = (out_dim,)
    prev = config.posterior_channels
    for i, ch in enumerate(config.conv_channels):
        shapes[f"conv{i}.weight"] = (ch, prev, config.conv_kernel)
        shapes[f"conv{i}.bias"] = (ch,)
        prev = ch
    return shapes


@dataclass
class RtsnParams:
    """Model parameters: tensors maps each name of _expected_shapes, in its
    order, to a tensor of that shape, and the forward looks each one up by
    that name (lstm0.w_in, conv2.bias, ...)."""

    config: RtsnConfig
    stft: StftConfig
    tensors: dict[str, nn.Tensor]
    norm: NormStats | None = None

    @property
    def dtype(self):
        return self.tensors["proj.weight"].dtype

    def _map(self, make) -> "RtsnParams":
        arrays = {name: t.data for name, t in self.tensors.items()}
        return _assemble(self.config, self.stft, arrays, self.norm, make)

    def copy(self) -> "RtsnParams":
        return self._map(lambda a, name: nn.parameter(a.copy(), name))

    def frozen(self) -> "RtsnParams":
        """The same arrays as named constants, not copied: a forward over
        them records no graph, so it holds no intermediate it no longer
        needs."""
        return self._map(lambda a, name: nn.Tensor(a, name=name))


def _assemble(config: RtsnConfig, stft_config: StftConfig,
              arrays: dict[str, np.ndarray], norm: NormStats | None,
              make=nn.parameter) -> RtsnParams:
    """RtsnParams holding make(arrays[name], name) for every name of
    _expected_shapes, in its order; other entries of arrays are ignored."""
    return RtsnParams(config, stft_config,
                      {name: make(arrays[name], name) for name in _expected_shapes(config)},
                      norm)


def init_params(
    config: RtsnConfig,
    stft_config: StftConfig | None = None,
    norm: NormStats | None = None,
    seed: int = 0,
    dtype=np.float32,
) -> RtsnParams:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization.

    Weights are drawn in _expected_shapes order with fan_in the product of
    all but their first dimension.  Biases start at zero except the LSTM
    forget gates, which start at one.
    """
    stft_config = stft_config or StftConfig()
    if config.n_bins != stft_config.n_bins:
        raise ValueError(
            f"model expects {config.n_bins} bins but stft yields "
            f"{stft_config.n_bins}"
        )
    rng = np.random.default_rng(seed)
    h = config.lstm_units
    arrays = {}
    for name, shape in _expected_shapes(config).items():
        if len(shape) > 1:
            bound = 1.0 / np.sqrt(math.prod(shape[1:]))
            arrays[name] = rng.uniform(-bound, bound, shape).astype(dtype)
        else:
            arrays[name] = np.zeros(shape, dtype=dtype)
            if name.startswith("lstm"):
                arrays[name][h : 2 * h] = 1.0
    return _assemble(config, stft_config, arrays, norm)


def count_parameters(params: RtsnParams) -> int:
    return sum(int(t.data.size) for t in params.tensors.values())


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------


def frame_stack(values: np.ndarray, lookahead: int) -> np.ndarray:
    """Frames t-lookahead..t+lookahead per step, edge-replicated: (T, R, N)."""
    t = values.shape[0]
    idx = np.arange(t)[:, None] + np.arange(-lookahead, lookahead + 1)[None, :]
    idx = np.clip(idx, 0, t - 1)
    return values[idx]


def gather_index(num_steps: int, lookahead: int,
                 valid: int | np.ndarray | None = None) -> np.ndarray:
    """Clamped step indices feeding the posterior gather: (num_steps, R).

    valid, an int or an array broadcasting against (num_steps, R) such as
    (B, 1, 1) lane lengths, caps the indices at valid - 1 (default
    num_steps), so padded steps are never read.
    """
    top = (valid if valid is not None else num_steps) - 1
    idx = np.arange(num_steps)[:, None] + np.arange(-lookahead, lookahead + 1)
    return np.clip(idx, 0, top)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def zero_state(params: RtsnParams, batch: int) -> tuple[list, list]:
    shape = (batch, params.config.lstm_units)
    layers = range(params.config.lstm_layers)
    return ([np.zeros(shape, params.dtype) for _ in layers],
            [np.zeros(shape, params.dtype) for _ in layers])


@dataclass
class LossOut:
    total: nn.Tensor
    post: float
    pri: float
    frames: float


@dataclass
class ChunkData:
    """Numpy inputs for one batched chunk of B lanes by U steps.

    noisy_ctx: (B, U, R, N) noisy frames t-lookahead..t+lookahead of each
        step t, edge-replicated as frame_stack builds them.  Rows
        lookahead.. (frames t..t+lookahead) are the prior's input; the
        whole stack is the posterior's noisy context.
    clean_stack: (B, U, R, N) clean frame stacks, the prior's targets; row
        lookahead (frame t) is the posterior's target.  None for inference.
    valid: (B,) number of real leading steps per lane, or None when every
        step is real.  The posterior gather never reads past them and the
        loss masks the steps after them.
    """

    noisy_ctx: np.ndarray
    clean_stack: np.ndarray | None = None
    valid: np.ndarray | None = None


@dataclass
class ChunkResult:
    x_hat: nn.Tensor
    x_bar: nn.Tensor
    loss: LossOut | None


def _prior(params: RtsnParams, windows: np.ndarray,
           state: tuple[list, list]) -> nn.Tensor:
    """LSTM stack then projection from (B, U, (lookahead+1)*N) inputs:
    the stacks flat, (B*U, R*N), one node per layer."""
    batch, steps, _ = windows.shape
    p = params.tensors
    hs, cs = state
    x = nn.Tensor(windows, name="windows")
    for i in range(params.config.lstm_layers):
        x = nn.lstm_cell(x, p[f"lstm{i}.w_in"], p[f"lstm{i}.w_rec"],
                         p[f"lstm{i}.bias"], hs[i], cs[i])
    flat = nn.reshape(x, (batch * steps, -1))
    return nn.linear(flat, p["proj.weight"], p["proj.bias"])


def _conv_stack(params: RtsnParams, v: nn.Tensor) -> nn.Tensor:
    p = params.tensors
    last = len(params.config.conv_channels) - 1
    for i in range(last + 1):
        v = nn.conv1d_freq(v, p[f"conv{i}.weight"], p[f"conv{i}.bias"])
        if i < last:
            v = nn.selu(v)
    return v


def forward_chunk(params: RtsnParams, data: ChunkData,
                  state: tuple[list, list] | None = None) -> ChunkResult:
    """Run both stages over one batched chunk, with the loss when data
    carries clean stacks.  Every input, target, gather index and mask is
    derived from data's frame stacks and valid counts (see ChunkData),
    whose shapes are checked first.

    state is the per-layer LSTM (h, c) arrays from zero_state; lstm_cell
    advances them in place to the state after the chunk, so passing the
    same state to the next chunk carries it on (None starts from zero and
    discards it).  The prior runs over the whole chunk, one graph node per
    LSTM layer; the posterior (a gather_steps image, then the conv stack)
    runs over consecutive blocks of steps holding at most POST_BLOCK_FRAMES
    frames (batch x steps; one step per block when the batch alone is
    larger), and the block outputs are concatenated into x_hat.  With
    params.frozen() nothing is recorded, so a block's intermediates are
    freed before the next block starts and the memory beyond the O(steps)
    inputs and outputs does not grow with the chunk.
    """
    dtype = params.dtype
    lookahead = params.config.lookahead
    noisy_ctx = data.noisy_ctx.astype(dtype, copy=False)
    batch, steps = _check_chunk(params.config, data)
    if state is None:
        state = zero_state(params, batch)
    # frames t..t+lookahead of each step, the stacks' last rows, in one
    # contiguous copy that lstm_cell reads in place at batch 1
    stacks = _prior(params, np.ascontiguousarray(noisy_ctx[:, :, lookahead:])
                    .reshape(batch, steps, -1), state)
    n_bins = params.config.n_bins
    x_bar = nn.reshape(stacks, (batch, steps, params.config.stack_rows, n_bins))
    valid = None if data.valid is None else data.valid[:, None, None]
    gather_idx = np.broadcast_to(gather_index(steps, lookahead, valid),
                                 (batch, steps, params.config.stack_rows))
    # the posterior's context enters as a named constant, as the prior's
    # windows do, so a non-finite value in it is reported by that name
    context = nn.Tensor(noisy_ctx, name="noisy_ctx").data
    block = max(1, POST_BLOCK_FRAMES // batch)
    blocks = []
    for start in range(0, steps, block):
        rows = slice(start, start + block)
        image = nn.gather_steps(x_bar, gather_idx[:, rows], context[:, rows])
        blocks.append(nn.reshape(_conv_stack(params, image), (batch, -1, n_bins)))
    x_hat = nn.concat(blocks, axis=1)
    loss = None
    if data.clean_stack is not None:
        mask = None if data.valid is None else np.arange(steps) < data.valid[:, None]
        # The loss reads the flat stacks, not x_bar: the blocks' gather
        # gradients sum in block order into x_bar, and the stack error's
        # gradient is added to that whole sum at the projection.
        loss = mol_loss(x_hat, data.clean_stack[:, :, lookahead], stacks,
                        data.clean_stack, params.config.prior_weight, mask)
    return ChunkResult(x_hat, x_bar, loss)


def _check_chunk(config: RtsnConfig, data: ChunkData) -> tuple[int, int]:
    """(B, U) of a chunk whose arrays agree with each other and the config."""
    shape = data.noisy_ctx.shape
    if len(shape) != 4 or shape[2:] != (config.stack_rows, config.n_bins):
        raise ValueError(f"noisy_ctx shape {shape}, expected "
                         f"(lanes, steps, {config.stack_rows}, {config.n_bins})")
    if data.clean_stack is not None and data.clean_stack.shape != shape:
        raise ValueError(
            f"clean_stack shape {data.clean_stack.shape} differs from "
            f"noisy_ctx shape {shape}")
    batch, steps = shape[:2]
    valid = data.valid
    if valid is not None and not (
            valid.shape == (batch,) and np.issubdtype(valid.dtype, np.integer)
            and np.all((valid >= 1) & (valid <= steps))):
        raise ValueError(
            f"valid must be {batch} integer step counts in 1..{steps}, got {valid!r}")
    return batch, steps


def mol_loss(pred_frames, target_frames, pred_stacks, target_stacks,
             prior_weight: float, mask: np.ndarray | None = None) -> LossOut:
    """Mean over frames of posterior error plus weighted stack error.

    Per frame: squared distance between the enhanced and clean frame, plus
    prior_weight times the squared Frobenius distance between the emitted
    stack and the clean frame stack.  A mask of zeros drops padded frames
    from both terms.  The total is one nn.stack_loss node over the two
    predictions.
    """
    total, post_sum, pri_sum, count = nn.stack_loss(
        pred_frames, target_frames, pred_stacks, target_stacks, prior_weight, mask)
    return LossOut(total=total, post=post_sum / count, pri=pri_sum / count, frames=count)


def enhance_lps(params: RtsnParams, norm_values: np.ndarray) -> np.ndarray:
    """Full-sequence two-stage forward on normalized LPS values.

    Graph-free over frozen parameters and block-bounded in the posterior,
    so memory beyond the O(frames) arrays does not grow with length.
    """
    values = np.asarray(norm_values, dtype=params.dtype)
    data = ChunkData(frame_stack(values, params.config.lookahead)[None])
    return forward_chunk(params.frozen(), data).x_hat.data[0]


def enhance_utterance(
    params: RtsnParams,
    noisy: Waveform,
    gla_iters: int | None = None,
) -> tuple[Waveform, LpsSequence]:
    """Enhance a noisy waveform; returns (waveform, enhanced LPS).

    gla_iters overrides the configured iteration count; 0 keeps the noisy
    phase as-is.
    """
    if params.norm is None:
        raise ValueError("model has no normalization statistics")
    spec = stft(noisy, params.stft)
    magnitude, phase = decompose(spec)
    noisy_lps = lps_from_magnitude(magnitude)
    norm_values = normalize(noisy_lps, params.norm).values
    enhanced_norm = enhance_lps(params, norm_values).astype(np.float64)
    enhanced = denormalize(LpsSequence(enhanced_norm), params.norm)
    mag_hat = magnitude_from_lps(enhanced)
    iters = params.config.gla_iters if gla_iters is None else gla_iters
    wav = griffin_lim(mag_hat, phase, GlaConfig(iters, params.stft), len(noisy))
    return wav, enhanced


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------


def save_checkpoint(params: RtsnParams, path) -> None:
    """Binary checkpoint: magic, version, config text, named f32 tensors."""
    if params.norm is None:
        raise ValueError("cannot save a checkpoint without normalization statistics")
    arrays = [(name, t.data) for name, t in params.tensors.items()]
    arrays += [("norm.mean", params.norm.mean), ("norm.std", params.norm.std)]
    config_bytes = format_settings(params.config, params.stft).encode("utf-8")
    chunks = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", len(config_bytes)),
        config_bytes,
        struct.pack("<I", len(arrays)),
    ]
    for name, array in arrays:
        name_bytes = name.encode("utf-8")
        data = np.ascontiguousarray(array, dtype="<f4")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<B", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    _atomic_write(path, b"".join(chunks))


def load_checkpoint(path) -> RtsnParams:
    blob = Path(path).read_bytes()
    view = memoryview(blob)
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise ValueError(f"{path}: unexpected end of {what}")
        piece = view[pos : pos + n]
        pos += n
        return piece

    if bytes(take(8, "header")) != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", take(4, "header"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (config_len,) = struct.unpack("<I", take(4, "header"))
    keys = schema(RtsnConfig, StftConfig)
    values = parse_settings(decode_utf8(bytes(take(config_len, "config text")), path),
                            keys, path)
    missing = [k for k in keys if k not in values]
    if missing:
        raise ValueError(f"{path}: checkpoint config missing keys {missing}")
    config, stft_config = build(RtsnConfig, values), build(StftConfig, values)
    if config.n_bins != stft_config.n_bins:
        raise ValueError(
            f"{path}: config n_bins {config.n_bins} does not match "
            f"fft_size {stft_config.fft_size}"
        )
    (count,) = struct.unpack("<I", take(4, "tensor table"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "tensor header"))
        name = decode_utf8(bytes(take(name_len, "tensor header")), f"{path} tensor name")
        (rank,) = struct.unpack("<B", take(1, "tensor header"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "tensor header"))
        size = int(np.prod(dims, dtype=np.int64)) if rank else 1
        raw = take(4 * size, "tensor data")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    if pos != len(view):
        raise ValueError(f"{path}: {len(view) - pos} trailing bytes")

    expected = _expected_shapes(config) | {
        "norm.mean": (config.n_bins,), "norm.std": (config.n_bins,)}
    for name, shape in expected.items():
        if name not in tensors:
            raise ValueError(f"{path}: checkpoint missing tensor {name}")
        if tensors[name].shape != shape:
            raise ValueError(
                f"{path}: tensor {name} has shape {tensors[name].shape}, "
                f"expected {shape}"
            )
    surplus = sorted(set(tensors) - set(expected))
    if surplus:
        raise ValueError(f"{path}: unexpected tensors {surplus}")

    try:
        norm = NormStats(tensors["norm.mean"].astype(np.float64),
                         tensors["norm.std"].astype(np.float64))
    except ValueError as e:
        raise ValueError(f"{path}: norm tensors: {e}") from None
    return _assemble(config, stft_config, tensors, norm)
