"""Windowed STFT analysis/synthesis and log-power spectral features.

All transforms operate on mono 8 kHz waveforms.  Analysis uses a periodic
Hann window over reflect-padded input (half a frame at each end); synthesis
is least-squares overlap-add (windowed frames divided by the summed squared
window), truncated back to the source length.  Forward transforms are
unnormalized, inverses carry the 1/fft_size factor.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

REQUIRED_SAMPLE_RATE = 8000
POWER_FLOOR = 1e-10  # added to squared magnitude before the log

# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _hann_periodic(n: int) -> np.ndarray:
    k = np.arange(n)
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters for the analysis/synthesis pair."""

    frame_len: int = 200
    hop: int = 80
    fft_size: int = 256

    def __post_init__(self) -> None:
        if self.hop < 1:
            raise ValueError(f"hop must be >= 1, got {self.hop}")
        if not (self.hop <= self.frame_len <= self.fft_size):
            raise ValueError(
                f"need hop <= frame_len <= fft_size, got "
                f"{self.hop}/{self.frame_len}/{self.fft_size}"
            )
        if self.fft_size & (self.fft_size - 1) != 0:
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    @property
    def pad(self) -> int:
        return self.frame_len // 2

    @property
    def window_values(self) -> np.ndarray:
        return _hann_periodic(self.frame_len)

    def num_frames(self, num_samples: int) -> int:
        padded = num_samples + 2 * self.pad
        return 1 + (padded - self.frame_len) // self.hop


@dataclass
class Waveform:
    """Mono audio signal with samples in [-1, 1] after PCM normalization."""

    samples: np.ndarray
    sample_rate_hz: int = REQUIRED_SAMPLE_RATE

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass
class ComplexSpectrogram:
    """Frames-by-bins complex STFT coefficients plus framing metadata."""

    coeffs: np.ndarray
    config: StftConfig
    orig_len: int

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.ndim != 2:
            raise ValueError(f"coeffs must be 2-D, got shape {self.coeffs.shape}")
        if self.coeffs.shape[1] != self.config.n_bins:
            raise ValueError(
                f"expected {self.config.n_bins} bins, got {self.coeffs.shape[1]}"
            )
        expected = self.config.num_frames(self.orig_len)
        if self.coeffs.shape[0] != expected:
            raise ValueError(
                f"expected {expected} frames for {self.orig_len} samples, "
                f"got {self.coeffs.shape[0]}"
            )

    @property
    def num_frames(self) -> int:
        return self.coeffs.shape[0]


@dataclass
class LpsSequence:
    """Log-power spectra, one row per frame."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def check_signal(w: Waveform, config: StftConfig) -> None:
    """Raise a ValueError unless stft can analyze w under config."""
    if w.sample_rate_hz != REQUIRED_SAMPLE_RATE:
        raise ValueError(f"sample rate {w.sample_rate_hz} unsupported (need 8000 Hz)")
    x = w.samples
    if x.size == 0:
        raise ValueError("empty signal")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite samples")
    if x.size < config.pad + 1:
        raise ValueError(
            f"signal too short to reflect-pad: {x.size} < {config.pad + 1} samples"
        )


def stft(w: Waveform, config: StftConfig | None = None) -> ComplexSpectrogram:
    """Analyze a waveform into overlapping windowed DFT frames."""
    config = config or StftConfig()
    check_signal(w, config)
    padded = np.pad(w.samples, config.pad, mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(padded, config.frame_len)
    frames = frames[:: config.hop]
    windowed = frames * config.window_values
    coeffs = np.fft.rfft(windowed, n=config.fft_size, axis=1)
    return ComplexSpectrogram(coeffs, config, w.samples.size)


def istft(s: ComplexSpectrogram) -> Waveform:
    """Least-squares overlap-add inverse of :func:`stft`."""
    cfg = s.config
    win = cfg.window_values
    frames = np.fft.irfft(s.coeffs, n=cfg.fft_size, axis=1)[:, : cfg.frame_len]
    padded_len = s.orig_len + 2 * cfg.pad
    acc = np.zeros(padded_len)
    wsum = np.zeros(padded_len)
    wsq = win * win
    for t in range(s.num_frames):
        start = t * cfg.hop
        acc[start : start + cfg.frame_len] += frames[t] * win
        wsum[start : start + cfg.frame_len] += wsq
    out = slice(cfg.pad, cfg.pad + s.orig_len)
    if wsum[out].min() < 1e-12:
        bad = cfg.pad + int(np.argmin(wsum[out]))
        raise ValueError(
            f"overlap-add window normalization is zero at sample {bad}; "
            f"check hop/frame_len"
        )
    y = acc[out] / wsum[out]
    return Waveform(y, REQUIRED_SAMPLE_RATE)


def decompose(s: ComplexSpectrogram) -> tuple[np.ndarray, np.ndarray]:
    """Split coefficients into (magnitude, phase); zero bins get phase 0."""
    return np.abs(s.coeffs), np.angle(s.coeffs)


def compose(
    magnitude: np.ndarray,
    phase: np.ndarray,
    config: StftConfig,
    orig_len: int,
) -> ComplexSpectrogram:
    """Rebuild complex coefficients as magnitude * exp(j*phase)."""
    magnitude = np.asarray(magnitude, dtype=np.float64)
    phase = np.asarray(phase, dtype=np.float64)
    if magnitude.shape != phase.shape:
        raise ValueError(
            f"magnitude shape {magnitude.shape} != phase shape {phase.shape}"
        )
    if magnitude.size and magnitude.min() < 0:
        raise ValueError("negative magnitude")
    return ComplexSpectrogram(magnitude * np.exp(1j * phase), config, orig_len)


def lps_from_magnitude(magnitude: np.ndarray) -> LpsSequence:
    """Natural-log power spectra: ln(magnitude^2 + floor)."""
    magnitude = np.asarray(magnitude, dtype=np.float64)
    if magnitude.size and magnitude.min() < 0:
        raise ValueError("negative magnitude")
    return LpsSequence(np.log(magnitude * magnitude + POWER_FLOOR))


def magnitude_from_lps(l: LpsSequence) -> np.ndarray:
    """Inverse of :func:`lps_from_magnitude` up to the power floor."""
    return np.exp(l.values / 2.0)


def consistency_error(s: ComplexSpectrogram) -> float:
    """Relative Frobenius distance between s and stft(istft(s)).

    Zero exactly when s is a realizable spectrogram; by convention zero for
    an all-zero input.
    """
    norm = np.linalg.norm(s.coeffs)
    if norm == 0.0:
        return 0.0
    again = stft(istft(s), s.config)
    return float(np.linalg.norm(again.coeffs - s.coeffs) / norm)
