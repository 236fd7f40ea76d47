"""Truncated-BPTT training loop with lockstep utterance lanes.

Each optimizer step advances a batch of utterance lanes by one fixed-length
chunk.  LSTM state carries across chunks within an utterance but enters
each chunk as a constant, so gradients never cross chunk boundaries.
Exhausted lanes resample a fresh utterance (seeded) with zeroed state.
Early stopping tracks validation loss and returns the best-epoch snapshot.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import neural as nn
from .corpus import Corpus, NormStats, normalize
from .dsp import StftConfig, decompose, lps_from_magnitude, stft
from .model import (
    ChunkData,
    RtsnParams,
    forward_chunk,
    frame_stack,
    gather_index,
    input_windows,
    utterance_chunk,
    zero_state,
)


@dataclass(frozen=True)
class TrainConfig:
    unroll_steps: int = 64
    utterances_per_batch: int = 16
    learning_rate: float = 1e-4
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.unroll_steps < 1:
            raise ValueError(f"unroll_steps must be >= 1, got {self.unroll_steps}")
        if self.utterances_per_batch < 1:
            raise ValueError(
                f"utterances_per_batch must be >= 1, got {self.utterances_per_batch}"
            )
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )


@dataclass(frozen=True)
class Chunk:
    start: int
    size: int
    valid: int


def make_chunks(num_frames: int, unroll_steps: int) -> list[Chunk]:
    """Consecutive fixed-size chunks; the last one is padded with a mask."""
    if num_frames < 1:
        raise ValueError(f"num_frames must be >= 1, got {num_frames}")
    chunks = []
    for start in range(0, num_frames, unroll_steps):
        chunks.append(Chunk(start, unroll_steps, min(unroll_steps, num_frames - start)))
    return chunks


class EarlyStopper:
    """Stop after `patience` consecutive epochs without improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.strikes = 0

    def update(self, val_loss: float) -> tuple[bool, bool]:
        """Returns (improved, should_stop)."""
        if val_loss < self.best:
            self.best = val_loss
            self.strikes = 0
            return True, False
        self.strikes += 1
        return False, self.strikes >= self.patience


# ---------------------------------------------------------------------------
# utterance preparation
# ---------------------------------------------------------------------------


@dataclass
class UtteranceData:
    """Precomputed per-utterance model inputs and targets."""

    windows: np.ndarray      # (T, (lookahead+1)*N)
    noisy_ctx: np.ndarray    # (T, R, N)
    clean_frame: np.ndarray  # (T, N)
    clean_stack: np.ndarray  # (T, R, N)
    num_frames: int


def _wav_to_norm_lps(path: str, stft_config: StftConfig, stats: NormStats) -> np.ndarray:
    from .corpus import read_wav

    spec = stft(read_wav(path), stft_config)
    return normalize(lps_from_magnitude(decompose(spec)[0]), stats).values


def prepare_utterance(noisy_norm: np.ndarray, clean_norm: np.ndarray,
                      lookahead: int, dtype=np.float32) -> UtteranceData:
    if noisy_norm.shape != clean_norm.shape:
        raise ValueError(
            f"noisy/clean frame shapes differ: {noisy_norm.shape} vs "
            f"{clean_norm.shape}"
        )
    noisy_norm = noisy_norm.astype(dtype)
    clean_norm = clean_norm.astype(dtype)
    return UtteranceData(
        windows=input_windows(noisy_norm, lookahead),
        noisy_ctx=frame_stack(noisy_norm, lookahead),
        clean_frame=clean_norm,
        clean_stack=frame_stack(clean_norm, lookahead),
        num_frames=noisy_norm.shape[0],
    )


def load_utterances(pairs: list[tuple[str, str]], stft_config: StftConfig,
                    stats: NormStats, lookahead: int,
                    dtype=np.float32) -> list[UtteranceData]:
    out = []
    for noisy_path, clean_path in pairs:
        noisy = _wav_to_norm_lps(noisy_path, stft_config, stats)
        clean = _wav_to_norm_lps(clean_path, stft_config, stats)
        out.append(prepare_utterance(noisy, clean, lookahead, dtype))
    return out


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class TrainResult:
    params: RtsnParams
    log: list[EpochLog]
    best_epoch: int


def sequence_loss(params: RtsnParams, utt: UtteranceData) -> tuple[float, int]:
    """Full-sequence loss for one utterance: (mean loss, frame count)."""
    data = utterance_chunk(params.config.lookahead, utt.windows, utt.noisy_ctx,
                           utt.clean_frame, utt.clean_stack)
    return forward_chunk(params.frozen(), data).loss.total.item(), utt.num_frames


def evaluate(params: RtsnParams, utterances: list[UtteranceData]) -> float:
    """Frame-weighted mean loss over a set of utterances."""
    total = 0.0
    frames = 0
    for utt in utterances:
        loss, count = sequence_loss(params, utt)
        total += loss * count
        frames += count
    if frames == 0:
        raise ValueError("no frames to evaluate")
    return total / frames


class _Lane:
    __slots__ = ("utt", "chunks", "cursor")

    def __init__(self):
        self.utt: UtteranceData | None = None
        self.chunks: list[Chunk] = []
        self.cursor = 0

    def exhausted(self) -> bool:
        return self.utt is None or self.cursor >= len(self.chunks)


def _chunk_rows(utt: UtteranceData, chunk: Chunk, lookahead: int):
    idx = np.clip(np.arange(chunk.start, chunk.start + chunk.size),
                  0, utt.num_frames - 1)
    mask = (np.arange(chunk.start, chunk.start + chunk.size)
            < utt.num_frames).astype(utt.windows.dtype)
    gather = gather_index(chunk.size, lookahead, valid=chunk.valid)
    return (utt.windows[idx], utt.noisy_ctx[idx], utt.clean_frame[idx],
            utt.clean_stack[idx], mask, gather)


def train(params: RtsnParams, corpus_or_utts, cfg: TrainConfig) -> TrainResult:
    """Train in place; returns the best-validation snapshot and the log."""
    if isinstance(corpus_or_utts, Corpus):
        if params.norm is None:
            raise ValueError("params need normalization statistics before training")
        lookahead = params.config.lookahead
        train_utts = load_utterances(corpus_or_utts.train_pairs, params.stft,
                                     params.norm, lookahead, params.dtype)
        val_utts = load_utterances(corpus_or_utts.val_pairs, params.stft,
                                   params.norm, lookahead, params.dtype)
    else:
        train_utts, val_utts = corpus_or_utts
    if not train_utts or not val_utts:
        raise ValueError("need at least one training and one validation utterance")

    lookahead = params.config.lookahead
    lanes = [_Lane() for _ in range(cfg.utterances_per_batch)]
    tensors = [t for _, t in params.named_tensors()]
    adam = nn.AdamState(learning_rate=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    state = zero_state(params, cfg.utterances_per_batch)

    total_frames = sum(u.num_frames for u in train_utts)
    steps_per_epoch = max(
        1, math.ceil(total_frames / (cfg.unroll_steps * cfg.utterances_per_batch))
    )

    stopper = EarlyStopper(cfg.patience)
    best_params = params.copy()
    best_epoch = 0
    log: list[EpochLog] = []

    for epoch in range(1, cfg.max_epochs + 1):
        tick = time.perf_counter()
        loss_sum = 0.0
        frame_sum = 0.0
        for step in range(1, steps_per_epoch + 1):
            for b, lane in enumerate(lanes):
                if lane.exhausted():
                    lane.utt = train_utts[int(rng.integers(len(train_utts)))]
                    lane.chunks = make_chunks(lane.utt.num_frames, cfg.unroll_steps)
                    lane.cursor = 0
                    for arr in state[0] + state[1]:
                        arr[b] = 0.0
            parts = [
                _chunk_rows(lane.utt, lane.chunks[lane.cursor], lookahead)
                for lane in lanes
            ]
            data = ChunkData(
                windows=np.stack([p[0] for p in parts]),
                noisy_ctx=np.stack([p[1] for p in parts]),
                gather_idx=np.stack([p[5] for p in parts]),
                clean_frame=np.stack([p[2] for p in parts]),
                clean_stack=np.stack([p[3] for p in parts]),
                mask=np.stack([p[4] for p in parts]),
            )
            try:
                result = forward_chunk(params, data, state)
            except FloatingPointError as e:
                raise FloatingPointError(f"epoch {epoch} step {step}: {e}") from None
            loss_value = result.loss.total.item()
            grads = nn.grads_for(result.loss.total, tensors)
            nn.adam_update(adam, tensors, grads)
            loss_sum += loss_value * result.loss.frames
            frame_sum += result.loss.frames
            for lane in lanes:
                lane.cursor += 1
        train_loss = loss_sum / frame_sum
        try:
            val_loss = evaluate(params, val_utts)
        except FloatingPointError as e:
            raise FloatingPointError(f"epoch {epoch} validation: {e}") from None
        seconds = time.perf_counter() - tick
        log.append(EpochLog(epoch, train_loss, val_loss, seconds))
        improved, stop = stopper.update(val_loss)
        if improved:
            best_params = params.copy()
            best_epoch = epoch
        if stop:
            break
    return TrainResult(best_params, log, best_epoch)
