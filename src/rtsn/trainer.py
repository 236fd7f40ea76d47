"""Truncated-BPTT training loop with lockstep utterance lanes.

Utterances hold (T, N) frames; chunk_from_frames stacks them per chunk.
A lane is an utterance plus the frame its next chunk starts at.  Each
optimizer step advances every lane by one chunk of unroll_steps frames:
frames start..start+unroll_steps-1, the utterance's last frame repeated
where they run past its end, with only the real ones counted as valid.
LSTM state carries across chunks within an utterance but enters each chunk
as a constant, so gradients never cross chunk boundaries.  A lane whose
start has reached its utterance's frame count resamples a fresh utterance
(seeded) with zeroed state.  Early stopping tracks validation loss and
returns the best-epoch snapshot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import neural as nn
from .corpus import Corpus, NormStats, normalize, read_signal
from .dsp import StftConfig, decompose, lps_from_magnitude, stft
from .model import RtsnParams, chunk_from_frames, forward_chunk, zero_state


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
    """One utterance's normalized noisy and clean frames, (T, N) each."""

    noisy: np.ndarray
    clean: np.ndarray

    @property
    def num_frames(self) -> int:
        return self.noisy.shape[0]


def _wav_to_norm_lps(path: str, stft_config: StftConfig, stats: NormStats) -> np.ndarray:
    spec = stft(read_signal(path, stft_config), stft_config)  # errors name the file
    return normalize(lps_from_magnitude(decompose(spec)[0]), stats).values


def load_utterances(pairs: list[tuple[str, str]], stft_config: StftConfig,
                    stats: NormStats, lookahead: int,
                    dtype=np.float32) -> list[UtteranceData]:
    """Each (noisy, clean) WAV pair's normalized frames in dtype, errors
    naming the files.  lookahead is unused: chunks stack the frames."""
    out = []
    for noisy_path, clean_path in pairs:
        noisy = _wav_to_norm_lps(noisy_path, stft_config, stats).astype(dtype)
        clean = _wav_to_norm_lps(clean_path, stft_config, stats).astype(dtype)
        if noisy.shape != clean.shape:
            raise ValueError(f"{noisy_path}, {clean_path}: noisy/clean frame shapes "
                             f"differ: {noisy.shape} vs {clean.shape}")
        out.append(UtteranceData(noisy, clean))
    return out


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class TrainResult:
    params: RtsnParams
    log: list[EpochLog]
    best_epoch: int


def sequence_loss(params: RtsnParams, utt: UtteranceData) -> tuple[float, int]:
    """Full-sequence loss for one utterance: (mean loss, frame count)."""
    data = chunk_from_frames([utt.noisy], [utt.clean], [0], utt.num_frames,
                             params.config.lookahead)
    return forward_chunk(params.frozen(), data).loss.total.item(), utt.num_frames


def evaluate(params: RtsnParams, utterances: list[UtteranceData]) -> float:
    """Frame-weighted mean loss over a set of utterances."""
    total, frames = 0.0, 0
    for utt in utterances:
        loss, count = sequence_loss(params, utt)
        total += loss * count
        frames += count
    if frames == 0:
        raise ValueError("no frames to evaluate")
    return total / frames


def train(params: RtsnParams, corpus_or_utts, cfg: TrainConfig) -> TrainResult:
    """Train in place; returns the best-validation snapshot and the log."""
    lookahead = params.config.lookahead
    if isinstance(corpus_or_utts, Corpus):
        train_utts, val_utts = (
            load_utterances(pairs, params.stft, params.norm, lookahead, params.dtype)
            for pairs in (corpus_or_utts.train_pairs, corpus_or_utts.val_pairs))
    else:
        train_utts, val_utts = corpus_or_utts
    if not train_utts or not val_utts:
        raise ValueError("need at least one training and one validation utterance")
    for kind, utts in (("training", train_utts), ("validation", val_utts)):
        for i, utt in enumerate(utts):
            if utt.num_frames < 1:
                raise ValueError(f"{kind} utterance {i} has no frames")
            if not (np.isfinite(utt.noisy).all() and np.isfinite(utt.clean).all()):
                raise ValueError(f"{kind} utterance {i} has non-finite frames")

    unroll = cfg.unroll_steps
    # each lane's utterance (None until its first draw) and next start frame
    lanes: list[tuple[UtteranceData | None, int]] = [(None, 0)] * cfg.utterances_per_batch
    tensors = list(params.tensors.values())
    adam = nn.AdamState(learning_rate=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    state = zero_state(params, cfg.utterances_per_batch)

    total_frames = sum(u.num_frames for u in train_utts)
    steps_per_epoch = max(1, math.ceil(total_frames / (unroll * cfg.utterances_per_batch)))

    stopper = EarlyStopper(cfg.patience)
    # epoch 1 always improves on the stopper's inf (a non-finite loss raises
    # before it), so the snapshot returned is always one taken below
    best_params, best_epoch = None, 0
    log: list[EpochLog] = []

    for epoch in range(1, cfg.max_epochs + 1):
        loss_sum = 0.0
        frame_sum = 0.0
        for step in range(1, steps_per_epoch + 1):
            for b, (utt, start) in enumerate(lanes):
                if utt is None or start >= utt.num_frames:
                    lanes[b] = (train_utts[int(rng.integers(len(train_utts)))], 0)
                    for arr in state[0] + state[1]:
                        arr[b] = 0.0
            data = chunk_from_frames([utt.noisy for utt, _ in lanes],
                                     [utt.clean for utt, _ in lanes],
                                     [start for _, start in lanes], unroll, lookahead)
            try:
                result = forward_chunk(params, data, state)
                grads = nn.grads_for(result.loss.total, tensors)
                nn.adam_update(adam, tensors, grads)
            except FloatingPointError as e:
                raise FloatingPointError(f"epoch {epoch} step {step}: {e}") from None
            loss_sum += result.loss.total.item() * result.loss.frames
            frame_sum += result.loss.frames
            # the step's graph dies here, not during the next forward
            del result, grads
            lanes = [(utt, start + unroll) for utt, start in lanes]
        train_loss = loss_sum / frame_sum
        val_loss = evaluate(params, val_utts)
        if not math.isfinite(val_loss):
            raise FloatingPointError(f"epoch {epoch} validation: non-finite loss")
        log.append(EpochLog(epoch, train_loss, val_loss))
        improved, stop = stopper.update(val_loss)
        if improved:
            best_params = params.copy()
            best_epoch = epoch
        if stop:
            break
    return TrainResult(best_params, log, best_epoch)
