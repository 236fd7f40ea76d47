"""Recurrent two-stage enhancement network.

Stage one (the prior network) runs a unidirectional LSTM over windows of
noisy log-power frames and emits, per step, a stack of 2*lookahead+1 base
predictions covering frames t-lookahead..t+lookahead.  The whole LSTM
stack is one graph node over the whole chunk, which runs its layers as a
wavefront over blocks of steps on the worker pool, and each layer's (h, c)
state arrays advance in place from one chunk to the next.  Stage two (the
posterior network) collects every stack overlapping frame t together with
the noisy frames themselves into a channel image and reduces it to one
enhanced frame with 1-D convolutions over frequency and SELU between them.
One gather_steps node writes that image channel-last, (frames, bins,
channels), gathered stacks first and noisy context after, so every
convolution runs as im2col GEMMs over the contiguous channels of each bin
with no transposes in between.  Training minimizes the posterior error
plus prior_weight times the stack error, one stack_loss node.

Every per-step input and target comes from one layout, the frame stack:
frames t-lookahead..t+lookahead of step t, clamped (chunk_from_frames).
A chunk carries the noisy and clean stacks only.  The prior's input is the
noisy stack's rows lookahead.. (frames t..t+lookahead), the posterior's
noisy context is the whole noisy stack, the prior's target is the clean
stack and the posterior's target its row lookahead (frame t).

There is one forward, forward_chunk, for training, validation and
enhancement.  Training runs it over parameters that record an autodiff
graph; validation and enhancement run it over params.frozen(), constants
sharing the same arrays, so no graph is kept.  The posterior runs over
blocks of at most POST_BLOCK_STEPS steps and POST_BLOCK_FRAMES frames, so
enhancement memory stays bounded apart from the O(frames) stacks, prior
outputs and result.  A frame's convs read only its own image: the blocks
change a frame's output only by the rounding of the GEMM rows it shares.

_expected_shapes is the one table of parameter names and shapes: it fixes
the initialization draw order, the checkpoint tensor order and the
tensors an RtsnParams holds.  The forward reads each tensor from
params.tensors by its name in that table (lstm{i}.w_in, proj.weight,
conv{i}.bias, ...); there are no per-layer parameter objects.  _assemble
builds every RtsnParams, and checks its framing, statistics and tensors.
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
# Most frames (batch x steps) and most steps the posterior convolves at
# once.  The convs' im2col columns or Winograd transforms are built a few
# frames at a time (layers._COLS_BLOCK), so a block's largest buffer is
# conv0's output, which the SELU after it overwrites: 132 KB a frame at the
# default config.  At batch 1 that is the transient that sets enhance's
# peak, which 64-step blocks cut from 177 to 128 MB on a 20 s file (32 went
# no lower and ran slower).  A 16-lane training chunk keeps 256-frame
# blocks: 64-frame blocks trained slower, one 1024-frame block took more.
POST_BLOCK_FRAMES = 256
POST_BLOCK_STEPS = 64

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
        if self.conv_kernel < 1 or self.conv_kernel % 2 != 1:
            raise ValueError(f"conv_kernel must be odd and >= 1, got {self.conv_kernel}")
        if not self.conv_channels or self.conv_channels[-1] != 1 \
                or min(self.conv_channels) < 1:
            raise ValueError(
                f"conv_channels must be >= 1 and end in 1, got {self.conv_channels}"
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
    """A whole model: its config, the STFT framing and the per-bin
    normalization statistics it works in, and tensors, which maps each name
    of _expected_shapes, in its order, to a tensor of that shape.  The
    forward looks each one up by that name (lstm0.w_in, conv2.bias, ...).
    Only _assemble builds one, so every model is checked."""

    config: RtsnConfig
    stft: StftConfig
    tensors: dict[str, nn.Tensor]
    norm: NormStats

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
              arrays: dict[str, np.ndarray], norm: NormStats,
              make=nn.parameter) -> RtsnParams:
    """The one check of a model: RtsnParams holding make(arrays[name], name)
    for every name of _expected_shapes, in its order.  Framing or
    statistics whose bin count is not config.n_bins, and a missing,
    misshapen, non-finite or unknown entry of arrays, each raise a named
    ValueError."""
    if config.n_bins != stft_config.n_bins:
        raise ValueError(f"config n_bins {config.n_bins} does not match "
                         f"fft_size {stft_config.fft_size}")
    if norm.mean.shape != (config.n_bins,):
        raise ValueError(f"statistics have {norm.mean.size} bins, "
                         f"config n_bins is {config.n_bins}")
    shapes = _expected_shapes(config)
    for name, shape in shapes.items():
        if name not in arrays:
            raise ValueError(f"missing tensor {name}")
        if arrays[name].shape != shape:
            raise ValueError(f"tensor {name} has shape {arrays[name].shape}, "
                             f"expected {shape}")
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"non-finite values in tensor {name}")
    surplus = sorted(set(arrays) - set(shapes))
    if surplus:
        raise ValueError(f"unexpected tensors {surplus}")
    return RtsnParams(config, stft_config,
                      {name: make(arrays[name], name) for name in shapes}, norm)


def init_params(config: RtsnConfig, stft_config: StftConfig, norm: NormStats,
                seed: int = 0, dtype=np.float32) -> RtsnParams:
    """A model of config over stft_config's framing and norm's statistics,
    with seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights.

    Weights are drawn in _expected_shapes order with fan_in the product of
    all but their first dimension.  Biases start at zero except the LSTM
    forget gates, which start at one.
    """
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


def stack_index(rows: np.ndarray, lookahead: int, top) -> np.ndarray:
    """row - lookahead..row + lookahead per row, clamped to 0..top (an int
    or e.g. (B, 1, 1) lane bounds): the one clamp of every frame stack."""
    return np.clip(rows[..., None] + np.arange(-lookahead, lookahead + 1), 0, top)


def chunk_from_frames(noisy: list[np.ndarray], clean: list[np.ndarray] | None,
                      starts: list[int], steps: int, lookahead: int) -> ChunkData:
    """The chunk of each lane's (T, N) frames from its start on: rows
    start..start + steps - 1 clamped to the last frame, then each row's
    stack (stack_index), with valid counting the real rows.  clean None
    leaves clean_stack None, for inference."""
    tops = [frames.shape[0] - 1 for frames in noisy]
    index = [stack_index(np.minimum(np.arange(start, start + steps), top), lookahead, top)
             for start, top in zip(starts, tops)]

    def stacks(lanes):
        # one lane's gather is the whole chunk: stacking would copy it
        gathered = [frames[idx] for frames, idx in zip(lanes, index)]
        return gathered[0][None] if len(gathered) == 1 else np.stack(gathered)

    valid = np.array([min(steps, top + 1 - start) for start, top in zip(starts, tops)])
    return ChunkData(stacks(noisy), None if clean is None else stacks(clean), valid)


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
        step t, clamped to the utterance (chunk_from_frames builds them).
        Rows lookahead.. (frames t..t+lookahead) are the prior's input; the
        whole stack is the posterior's noisy context.
    clean_stack: (B, U, R, N) clean frame stacks, the prior's targets; row
        lookahead (frame t) is the posterior's target.  None for inference.
    valid: (B,) number of real leading steps per lane, U when every step
        is real.  The posterior gather never reads past them and the loss
        masks the steps after them.
    """

    noisy_ctx: np.ndarray
    clean_stack: np.ndarray | None
    valid: np.ndarray


@dataclass
class ChunkResult:
    x_hat: nn.Tensor
    x_bar: nn.Tensor
    loss: LossOut | None


def _prior(params: RtsnParams, windows: np.ndarray,
           state: tuple[list, list]) -> nn.Tensor:
    """LSTM stack then projection from (B, U, (lookahead+1)*N) inputs:
    the stacks flat, (B*U, R*N).  The whole stack is one lstm_cell node."""
    batch, steps, _ = windows.shape
    p = params.tensors
    hs, cs = state
    x = nn.lstm_cell(nn.Tensor(windows, name="windows"),
                     [(p[f"lstm{i}.w_in"], p[f"lstm{i}.w_rec"], p[f"lstm{i}.bias"],
                       hs[i], cs[i]) for i in range(params.config.lstm_layers)])
    flat = nn.reshape(x, (batch * steps, -1))
    return nn.linear(flat, p["proj.weight"], p["proj.bias"])


def _conv_stack(params: RtsnParams, v: nn.Tensor) -> nn.Tensor:
    """The posterior convs over a channel-last image, SELU between them.
    Each SELU writes over the conv output it follows (selu's out=), so a
    conv+SELU pair holds one array, graph or no graph (see layers.py)."""
    p = params.tensors
    last = len(params.config.conv_channels) - 1
    for i in range(last + 1):
        v = nn.conv1d_freq(v, p[f"conv{i}.weight"], p[f"conv{i}.bias"])
        if i < last:
            v = nn.selu(v, out=v.data)
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
    discards it).  The prior runs over the whole chunk, one lstm_cell node
    for the whole stack, its layers overlapped block by block; the
    posterior (a gather_steps image, then the conv stack) runs over
    consecutive blocks of at most POST_BLOCK_STEPS steps holding at most
    POST_BLOCK_FRAMES frames (batch x steps; one step per block when the
    batch alone is larger), and the block outputs are concatenated into
    x_hat.  The blocks follow from the batch alone, so a frozen forward
    and a graph forward run the same blocks and give the same bytes.  With
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
    # (B, U, R): each lane's stacks clamped to its valid steps
    gather_idx = stack_index(np.arange(steps), lookahead, data.valid[:, None, None] - 1)
    block = min(POST_BLOCK_STEPS, max(1, POST_BLOCK_FRAMES // batch))
    blocks = []
    for start in range(0, steps, block):
        rows = slice(start, start + block)
        image = nn.gather_steps(x_bar, gather_idx[:, rows], noisy_ctx[:, rows])
        blocks.append(nn.reshape(_conv_stack(params, image), (batch, -1, n_bins)))
    x_hat = nn.concat(blocks, axis=1)
    loss = None
    if data.clean_stack is not None:
        mask = np.arange(steps) < data.valid[:, None]
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
    if not (isinstance(valid, np.ndarray) and valid.shape == (batch,)
            and np.issubdtype(valid.dtype, np.integer)
            and np.all((valid >= 1) & (valid <= steps))):
        raise ValueError(
            f"valid must be {batch} integer step counts in 1..{steps}, got {valid!r}")
    return batch, steps


def mol_loss(pred_frames, target_frames, pred_stacks, target_stacks,
             prior_weight: float, mask: np.ndarray) -> LossOut:
    """Mean over frames of posterior error plus weighted stack error.

    Per frame: squared distance between the enhanced and clean frame, plus
    prior_weight times the squared Frobenius distance between the emitted
    stack and the clean frame stack.  mask (...) holds each frame's 0/1
    weight: a zero drops a padded frame from both terms.  The total is one
    nn.stack_loss node over the two predictions.
    """
    total, post_sum, pri_sum, count = nn.stack_loss(
        pred_frames, target_frames, pred_stacks, target_stacks, prior_weight, mask)
    return LossOut(total=total, post=post_sum / count, pri=pri_sum / count, frames=count)


def enhance_lps(params: RtsnParams, norm_values: np.ndarray) -> np.ndarray:
    """Full-sequence two-stage forward on normalized LPS values.

    Graph-free over frozen parameters and block-bounded in the posterior,
    so memory beyond the O(frames) arrays does not grow with length.  The
    result alone is checked: a non-finite value raises FloatingPointError.
    """
    values = np.asarray(norm_values, dtype=params.dtype)
    data = chunk_from_frames([values], None, [0], len(values), params.config.lookahead)
    x_hat = forward_chunk(params.frozen(), data).x_hat.data[0]
    if not np.isfinite(x_hat).all():
        raise FloatingPointError("non-finite values in the enhanced frames")
    return x_hat


def enhance_utterance(
    params: RtsnParams,
    noisy: Waveform,
    gla_iters: int | None = None,
) -> tuple[Waveform, LpsSequence]:
    """Enhance a noisy waveform; returns (waveform, enhanced LPS).

    gla_iters overrides the configured iteration count; 0 keeps the noisy
    phase as-is.  Enhanced frames finite but too large for their
    magnitudes raise FloatingPointError before phase reconstruction.
    """
    spec = stft(noisy, params.stft)
    magnitude, phase = decompose(spec)
    noisy_lps = lps_from_magnitude(magnitude)
    norm_values = normalize(noisy_lps, params.norm).values
    enhanced_norm = enhance_lps(params, norm_values).astype(np.float64)
    enhanced = denormalize(LpsSequence(enhanced_norm), params.norm)
    mag_hat = magnitude_from_lps(enhanced)
    if not np.isfinite(mag_hat).all():
        raise FloatingPointError("magnitude_from_lps overflowed: the enhanced "
                                 "log-power spectra are too large")
    iters = params.config.gla_iters if gla_iters is None else gla_iters
    wav = griffin_lim(mag_hat, phase, GlaConfig(iters, params.stft), len(noisy))
    return wav, enhanced


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------


def save_checkpoint(params: RtsnParams, path) -> None:
    """Binary checkpoint: magic, version, config text, named f32 tensors."""
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
    values = parse_settings(decode_utf8(bytes(take(config_len, "config text")), path),
                            schema(RtsnConfig, StftConfig), path, required=True)
    (count,) = struct.unpack("<I", take(4, "tensor table"))
    max_rank = max(map(len, _expected_shapes(RtsnConfig()).values()))  # any config's
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "tensor header"))
        name = decode_utf8(bytes(take(name_len, "tensor header")), f"{path} tensor name")
        (rank,) = struct.unpack("<B", take(1, "tensor header"))
        if rank > max_rank:
            raise ValueError(f"{path}: tensor {name} has rank {rank}, more than {max_rank}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "tensor header"))
        raw = take(4 * math.prod(dims), "tensor data")
        if name in tensors:
            raise ValueError(f"{path}: tensor {name} appears twice")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    if pos != len(view):
        raise ValueError(f"{path}: {len(view) - pos} trailing bytes")
    try:
        config, stft_config = build(RtsnConfig, values), build(StftConfig, values)
        for name in ("norm.mean", "norm.std"):
            if name not in tensors:
                raise ValueError(f"missing tensor {name}")
        try:
            norm = NormStats(tensors.pop("norm.mean").astype(np.float64),
                             tensors.pop("norm.std").astype(np.float64))
        except ValueError as e:
            raise ValueError(f"norm tensors: {e}") from None
        return _assemble(config, stft_config, tensors, norm)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
