"""Objective proxy metrics and spectrogram image emission.

Global SNR, segmental SNR, and log-spectral distance stand in for
listening-test metrics; images are plain binary PGM so they need no
image toolkit to inspect.
"""
from __future__ import annotations

import os

import numpy as np

from .corpus import _atomic_write
from .dsp import LpsSequence, StftConfig, Waveform, stft

SNR_CAP_DB = 99.0
SEG_FRAME = 200
SEG_HOP = 80
SEG_FLOOR_DB = -10.0
SEG_CEIL_DB = 35.0
SEG_ENERGY_MIN = 1e-8
IMAGE_RANGE_DB = 80.0


def _check_pair(ref: Waveform, deg: Waveform) -> tuple[np.ndarray, np.ndarray]:
    if len(ref) != len(deg):
        raise ValueError(f"length mismatch: ref {len(ref)} vs deg {len(deg)}")
    return ref.samples, deg.samples


def global_snr(ref: Waveform, deg: Waveform) -> float:
    """10*log10 of reference power over error power, capped at 99 dB."""
    r, d = _check_pair(ref, deg)
    ref_power = float(np.sum(r * r))
    if ref_power == 0.0:
        raise ValueError("silent reference")
    err_power = float(np.sum((d - r) ** 2))
    if err_power == 0.0:
        return SNR_CAP_DB
    return min(10.0 * np.log10(ref_power / err_power), SNR_CAP_DB)


def segmental_snr(ref: Waveform, deg: Waveform) -> float:
    """Mean per-frame SNR, clamped to [-10, 35] dB per frame.

    Frames are 200 samples at hop 80; frames whose reference energy is at
    or below 1e-8 are skipped.  A signal shorter than one frame raises a
    ValueError naming its length.
    """
    r, d = _check_pair(ref, deg)
    if len(r) < SEG_FRAME:
        raise ValueError(f"{len(r)} samples, shorter than one {SEG_FRAME}-sample "
                         "segmental SNR frame")
    if float(np.sum(r * r)) == 0.0:
        raise ValueError("silent reference")
    scores = []
    for start in range(0, len(r) - SEG_FRAME + 1, SEG_HOP):
        rf = r[start : start + SEG_FRAME]
        ef = d[start : start + SEG_FRAME] - rf
        ref_energy = float(np.sum(rf * rf))
        if ref_energy <= SEG_ENERGY_MIN:
            continue
        err_energy = float(np.sum(ef * ef))
        if err_energy == 0.0:
            snr = SEG_CEIL_DB
        else:
            snr = 10.0 * np.log10(ref_energy / err_energy)
        scores.append(min(max(snr, SEG_FLOOR_DB), SEG_CEIL_DB))
    if not scores:
        raise ValueError("no frames with reference energy above threshold")
    return float(np.mean(scores))


def log_spectral_distance(ref_lps: LpsSequence, deg_lps: LpsSequence) -> float:
    """Mean over frames of the per-frame RMS power difference in dB."""
    r, d = ref_lps.values, deg_lps.values
    if r.shape != d.shape:
        raise ValueError(f"shape mismatch: {r.shape} vs {d.shape}")
    diff_db = (10.0 / np.log(10.0)) * (r - d)
    return float(np.mean(np.sqrt(np.mean(diff_db * diff_db, axis=1))))


def spectrogram_image_bytes(w: Waveform, config: StftConfig | None = None) -> bytes:
    """Binary PGM (P5) of the power spectrogram, highest frequency on top.

    Pixel values map the top 80 dB below the image maximum linearly onto
    [0, 255]; anything at or below the bottom of that range floors to 0.
    An all-zero signal yields an all-zero image.
    """
    config = config or StftConfig()
    spec = stft(w, config)
    magnitude = np.abs(spec.coeffs)
    with np.errstate(divide="ignore"):
        power_db = 20.0 * np.log10(magnitude)
    vmax = power_db.max()
    if not np.isfinite(vmax):
        pixels = np.zeros(power_db.shape, dtype=np.uint8)
    else:
        scaled = (power_db - (vmax - IMAGE_RANGE_DB)) / IMAGE_RANGE_DB
        pixels = np.rint(np.clip(scaled, 0.0, 1.0) * 255.0).astype(np.uint8)
    image = pixels.T[::-1]  # rows = bins, top row = highest frequency
    width, height = spec.num_frames, config.n_bins
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + image.tobytes()


def emit_spectrogram_image(w: Waveform, path: str | os.PathLike,
                           config: StftConfig | None = None) -> None:
    _atomic_write(path, spectrogram_image_bytes(w, config))
