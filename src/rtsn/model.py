"""Recurrent two-stage enhancement network.

Stage one (the prior network) runs a unidirectional LSTM over windows of
noisy log-power frames and emits, per step, a stack of 2*lookahead+1 base
predictions covering frames t-lookahead..t+lookahead.  Each LSTM layer is
one graph node over the whole chunk, and its (h, c) state arrays advance
in place from one chunk to the next.  Stage two (the posterior network)
collects every stack overlapping frame t together with the noisy frames
themselves into a channel image and reduces it to one enhanced frame with
1-D convolutions over frequency and SELU between them.  The image is
built channel-last, (frames, bins, channels), by the one copy that
assembles it, so every convolution runs as im2col GEMMs over the
contiguous channels of each bin with no transposes in between.  Training
minimizes the posterior error plus prior_weight times the stack error.

There is one forward, forward_chunk, for training, validation and
enhancement.  Training runs it over parameters that record an autodiff
graph; validation and enhancement run it over params.frozen(), constants
sharing the same arrays, so no graph is kept.  The posterior runs over
blocks of at most POST_BLOCK_FRAMES frames, so enhancement memory stays
bounded apart from the O(frames) inputs, prior outputs and result.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import neural as nn
from .corpus import NormStats, denormalize, normalize
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
from .settings import build, format_settings, parse_settings, schema

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


@dataclass
class LstmLayerParams:
    w_in: nn.Tensor   # (4H, D)
    w_rec: nn.Tensor  # (4H, H)
    bias: nn.Tensor   # (4H,)


@dataclass
class Conv1dParams:
    kernels: nn.Tensor  # (out, in, k)
    bias: nn.Tensor     # (out,)


@dataclass
class RtsnParams:
    config: RtsnConfig
    stft: StftConfig
    lstm: list[LstmLayerParams]
    proj_w: nn.Tensor
    proj_b: nn.Tensor
    convs: list[Conv1dParams]
    norm: NormStats | None = None

    @property
    def dtype(self):
        return self.proj_w.dtype

    def named_tensors(self) -> list[tuple[str, nn.Tensor]]:
        out = []
        for i, layer in enumerate(self.lstm):
            out.append((f"lstm{i}.w_in", layer.w_in))
            out.append((f"lstm{i}.w_rec", layer.w_rec))
            out.append((f"lstm{i}.bias", layer.bias))
        out.append(("proj.weight", self.proj_w))
        out.append(("proj.bias", self.proj_b))
        for i, conv in enumerate(self.convs):
            out.append((f"conv{i}.weight", conv.kernels))
            out.append((f"conv{i}.bias", conv.bias))
        return out

    def _map(self, fn) -> "RtsnParams":
        return RtsnParams(
            config=self.config,
            stft=self.stft,
            lstm=[
                LstmLayerParams(fn(l.w_in), fn(l.w_rec), fn(l.bias))
                for l in self.lstm
            ],
            proj_w=fn(self.proj_w),
            proj_b=fn(self.proj_b),
            convs=[Conv1dParams(fn(c.kernels), fn(c.bias)) for c in self.convs],
            norm=self.norm,
        )

    def copy(self) -> "RtsnParams":
        return self._map(lambda t: nn.parameter(t.data.copy(), t.name))

    def frozen(self) -> "RtsnParams":
        """The same arrays as named constants, not copied: a forward over
        them records no graph, so it holds no intermediate it no longer
        needs."""
        return self._map(lambda t: nn.Tensor(t.data, name=t.name))


def _expected_shapes(config: RtsnConfig) -> dict[str, tuple[int, ...]]:
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


def init_params(
    config: RtsnConfig,
    stft_config: StftConfig | None = None,
    norm: NormStats | None = None,
    seed: int = 0,
    dtype=np.float32,
) -> RtsnParams:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization.

    Biases start at zero except the LSTM forget gates, which start at one.
    """
    stft_config = stft_config or StftConfig()
    if config.n_bins != stft_config.n_bins:
        raise ValueError(
            f"model expects {config.n_bins} bins but stft yields "
            f"{stft_config.n_bins}"
        )
    rng = np.random.default_rng(seed)

    def uniform(name: str, shape: tuple[int, ...], fan_in: int) -> nn.Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        return nn.parameter(rng.uniform(-bound, bound, shape).astype(dtype), name)

    h = config.lstm_units
    lstm = []
    for i in range(config.lstm_layers):
        d = config.pri_input_dim if i == 0 else h
        bias = np.zeros(4 * h, dtype=dtype)
        bias[h : 2 * h] = 1.0
        lstm.append(
            LstmLayerParams(
                w_in=uniform(f"lstm{i}.w_in", (4 * h, d), d),
                w_rec=uniform(f"lstm{i}.w_rec", (4 * h, h), h),
                bias=nn.parameter(bias, f"lstm{i}.bias"),
            )
        )
    out_dim = config.stack_rows * config.n_bins
    proj_w = uniform("proj.weight", (out_dim, h), h)
    proj_b = nn.parameter(np.zeros(out_dim, dtype=dtype), "proj.bias")
    convs = []
    prev = config.posterior_channels
    for i, ch in enumerate(config.conv_channels):
        convs.append(
            Conv1dParams(
                kernels=uniform(
                    f"conv{i}.weight", (ch, prev, config.conv_kernel),
                    prev * config.conv_kernel,
                ),
                bias=nn.parameter(np.zeros(ch, dtype=dtype), f"conv{i}.bias"),
            )
        )
        prev = ch
    return RtsnParams(config, stft_config, lstm, proj_w, proj_b, convs, norm)


def count_parameters(params: RtsnParams) -> int:
    return sum(int(t.data.size) for _, t in params.named_tensors())


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------


def input_windows(values: np.ndarray, lookahead: int) -> np.ndarray:
    """Per-step prior input: frames t..t+lookahead flattened, edge-replicated."""
    t = values.shape[0]
    idx = np.arange(t)[:, None] + np.arange(lookahead + 1)[None, :]
    idx = np.clip(idx, 0, t - 1)
    return values[idx].reshape(t, -1)


def frame_stack(values: np.ndarray, lookahead: int) -> np.ndarray:
    """Frames t-lookahead..t+lookahead per step, edge-replicated: (T, R, N)."""
    t = values.shape[0]
    idx = np.arange(t)[:, None] + np.arange(-lookahead, lookahead + 1)[None, :]
    idx = np.clip(idx, 0, t - 1)
    return values[idx]


def gather_index(num_steps: int, lookahead: int, valid: int | None = None) -> np.ndarray:
    """Clamped step indices feeding the posterior gather: (num_steps, R)."""
    top = (valid if valid is not None else num_steps) - 1
    idx = np.arange(num_steps)[:, None] + np.arange(-lookahead, lookahead + 1)
    return np.clip(idx, 0, top)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def zero_state(params: RtsnParams, batch: int) -> tuple[list, list]:
    shape = (batch, params.config.lstm_units)
    return ([np.zeros(shape, params.dtype) for _ in params.lstm],
            [np.zeros(shape, params.dtype) for _ in params.lstm])


@dataclass
class LossOut:
    total: nn.Tensor
    post: float
    pri: float
    frames: float


@dataclass
class ChunkData:
    """Numpy inputs for one batched chunk.

    windows: (B, U, (lookahead+1)*N) prior inputs per step.
    noisy_ctx: (B, U, R, N) noisy frames around each step.
    gather_idx: (B, U, R) clamped local step indices for the posterior.
    clean_frame/clean_stack/mask: training targets, or None for inference.
    """

    windows: np.ndarray
    noisy_ctx: np.ndarray
    gather_idx: np.ndarray
    clean_frame: np.ndarray | None = None
    clean_stack: np.ndarray | None = None
    mask: np.ndarray | None = None


def utterance_chunk(lookahead: int, windows: np.ndarray, noisy_ctx: np.ndarray,
                    clean_frame: np.ndarray | None = None,
                    clean_stack: np.ndarray | None = None) -> ChunkData:
    """One whole utterance as a batch-of-one chunk; targets are optional."""
    return ChunkData(
        windows=windows[None],
        noisy_ctx=noisy_ctx[None],
        gather_idx=gather_index(windows.shape[0], lookahead)[None],
        clean_frame=None if clean_frame is None else clean_frame[None],
        clean_stack=None if clean_stack is None else clean_stack[None],
    )


@dataclass
class ChunkResult:
    x_hat: nn.Tensor
    x_bar: nn.Tensor
    loss: LossOut | None


def _prior(params: RtsnParams, windows: np.ndarray,
           state: tuple[list, list]) -> nn.Tensor:
    """LSTM stack then projection: (B, U, R, N) stacks, one node per layer."""
    batch, steps, _ = windows.shape
    x = nn.Tensor(windows, name="windows")
    for layer, h, c in zip(params.lstm, *state):
        x = nn.lstm_cell(x, layer.w_in, layer.w_rec, layer.bias, h, c)
    flat = nn.reshape(x, (batch * steps, -1))
    proj = nn.linear(flat, params.proj_w, params.proj_b)
    rows = params.config.stack_rows
    return nn.reshape(proj, (batch, steps, rows, params.config.n_bins))


def _conv_stack(params: RtsnParams, v: nn.Tensor) -> nn.Tensor:
    out = v
    last = len(params.convs) - 1
    for i, conv in enumerate(params.convs):
        out = nn.conv1d_freq(out, conv.kernels, conv.bias)
        if i < last:
            out = nn.selu(out)
    return out


def forward_chunk(params: RtsnParams, data: ChunkData,
                  state: tuple[list, list] | None = None) -> ChunkResult:
    """Run both stages over one batched chunk, optionally with the loss.

    state is the per-layer LSTM (h, c) arrays from zero_state; lstm_cell
    advances them in place to the state after the chunk, so passing the
    same state to the next chunk carries it on (None starts from zero and
    discards it).  The prior runs over the whole chunk, one graph node per
    LSTM layer; the posterior (gather, concat, conv stack) then runs over
    consecutive blocks of steps holding at most POST_BLOCK_FRAMES frames
    (batch x steps; one step per block when the batch alone is larger), and
    the block outputs are concatenated into x_hat.  With params.frozen()
    nothing is recorded, so a block's intermediates are freed before the
    next block starts and the memory beyond the O(steps) inputs and outputs
    does not grow with the chunk.
    """
    dtype = params.dtype
    windows = data.windows.astype(dtype, copy=False)
    batch, steps, _ = windows.shape
    if state is None:
        state = zero_state(params, batch)
    x_bar = _prior(params, windows, state)
    channels = params.config.posterior_channels
    n_bins = params.config.n_bins
    block = max(1, POST_BLOCK_FRAMES // batch)
    blocks = []
    for start in range(0, steps, block):
        rows = slice(start, start + block)
        gathered = nn.gather_steps(x_bar, data.gather_idx[:, rows])
        ctx = nn.Tensor(
            data.noisy_ctx[:, rows].swapaxes(2, 3).astype(dtype, copy=False),
            name="noisy_ctx")
        # the one copy into the channel-last (frames, bins, channels) layout
        v = nn.concat([nn.transpose(gathered, (0, 1, 3, 2)), ctx], axis=3)
        size = v.shape[1]
        flat = nn.reshape(v, (batch * size, n_bins, channels))
        blocks.append(nn.reshape(_conv_stack(params, flat), (batch, size, n_bins)))
    x_hat = nn.concat(blocks, axis=1)
    loss = None
    if data.clean_frame is not None:
        loss = mol_loss(x_hat, data.clean_frame, x_bar, data.clean_stack,
                        params.config.prior_weight, data.mask)
    return ChunkResult(x_hat, x_bar, loss)


def mol_loss(pred_frames, target_frames, pred_stacks, target_stacks,
             prior_weight: float, mask: np.ndarray | None = None) -> LossOut:
    """Mean over frames of posterior error plus weighted stack error.

    Per frame: squared distance between the enhanced and clean frame, plus
    prior_weight times the squared Frobenius distance between the emitted
    stack and the clean frame stack.  A mask of zeros drops padded frames
    from both terms.
    """
    pred_frames = nn.as_tensor(pred_frames)
    pred_stacks = nn.as_tensor(pred_stacks)
    dtype = pred_frames.dtype
    target_frames = nn.as_tensor(target_frames, dtype=dtype)
    target_stacks = nn.as_tensor(target_stacks, dtype=dtype)
    post = nn.tsum(nn.square(nn.sub(pred_frames, target_frames)), axis=-1)
    pri = nn.tsum(nn.square(nn.sub(pred_stacks, target_stacks)), axis=(-2, -1))
    if mask is not None:
        m = np.asarray(mask, dtype=dtype)
        count = float(m.sum())
        if count <= 0:
            raise ValueError("mask excludes every frame")
        post = nn.mul(post, nn.Tensor(m))
        pri = nn.mul(pri, nn.Tensor(m))
    else:
        count = float(np.prod(post.shape)) if post.shape else 1.0
    post_sum = nn.tsum(post)
    pri_sum = nn.tsum(pri)
    total = nn.mul(nn.add(post_sum, nn.mul(pri_sum, prior_weight)), 1.0 / count)
    return LossOut(
        total=total,
        post=float(post_sum.data) / count,
        pri=float(pri_sum.data) / count,
        frames=count,
    )


def enhance_lps(params: RtsnParams, norm_values: np.ndarray) -> np.ndarray:
    """Full-sequence two-stage forward on normalized LPS values.

    Graph-free over frozen parameters and block-bounded in the posterior,
    so memory beyond the O(frames) arrays does not grow with length.
    """
    values = np.asarray(norm_values, dtype=params.dtype)
    lookahead = params.config.lookahead
    data = utterance_chunk(lookahead, input_windows(values, lookahead),
                           frame_stack(values, lookahead))
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
    tensors = params.named_tensors() + [
        ("norm.mean", nn.Tensor(params.norm.mean.astype(np.float32))),
        ("norm.std", nn.Tensor(params.norm.std.astype(np.float32))),
    ]
    config_bytes = format_settings(params.config, params.stft).encode("utf-8")
    chunks = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", len(config_bytes)),
        config_bytes,
        struct.pack("<I", len(tensors)),
    ]
    for name, tensor in tensors:
        name_bytes = name.encode("utf-8")
        data = np.ascontiguousarray(tensor.data, dtype="<f4")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<B", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    from .corpus import _atomic_write

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
    values = parse_settings(bytes(take(config_len, "config text")).decode("utf-8"),
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
        name = bytes(take(name_len, "tensor header")).decode("utf-8")
        (rank,) = struct.unpack("<B", take(1, "tensor header"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "tensor header"))
        size = int(np.prod(dims, dtype=np.int64)) if rank else 1
        raw = take(4 * size, "tensor data")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    if pos != len(view):
        raise ValueError(f"{path}: {len(view) - pos} trailing bytes")

    expected = _expected_shapes(config)
    for extra in ("norm.mean", "norm.std"):
        expected[extra] = (config.n_bins,)
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

    def grab(name: str) -> nn.Tensor:
        return nn.parameter(tensors[name], name)

    lstm = [
        LstmLayerParams(
            grab(f"lstm{i}.w_in"), grab(f"lstm{i}.w_rec"), grab(f"lstm{i}.bias")
        )
        for i in range(config.lstm_layers)
    ]
    convs = [
        Conv1dParams(grab(f"conv{i}.weight"), grab(f"conv{i}.bias"))
        for i in range(len(config.conv_channels))
    ]
    try:
        norm = NormStats(tensors["norm.mean"].astype(np.float64),
                         tensors["norm.std"].astype(np.float64))
    except ValueError as e:
        raise ValueError(f"{path}: norm tensors: {e}") from None
    return RtsnParams(config, stft_config, lstm, grab("proj.weight"),
                      grab("proj.bias"), convs, norm)
