"""Griffin-Lim phase reconstruction seeded from a supplied phase.

The loop alternates least-squares resynthesis with magnitude replacement:
K inverse transforms bracket K-1 projections back onto the target
magnitude.  Seeding with the noisy phase instead of zeros is what lets a
handful of iterations suffice.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dsp import StftConfig, Waveform, compose, istft, stft


@dataclass(frozen=True)
class GlaConfig:
    iterations: int = 5
    stft: StftConfig = StftConfig()

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")


def griffin_lim(
    magnitude: np.ndarray,
    phase: np.ndarray,
    config: GlaConfig,
    orig_len: int,
    callback: Callable[[int, Waveform], None] | None = None,
) -> Waveform:
    """Reconstruct a waveform from a target magnitude and an initial phase.

    All spectrogram arithmetic runs in double precision.  At least one
    iterate is taken: iterations=0 runs as iterations=1 does, a plain
    inverse transform of magnitude * exp(j*phase), and the callback then
    sees iterate 1.  The optional callback receives (iteration, waveform)
    for each iterate.
    """
    spec = compose(magnitude, phase, config.stft, orig_len)
    for i in range(1, max(1, config.iterations) + 1):
        if i > 1:
            spec = compose(magnitude, np.angle(stft(x, config.stft).coeffs),
                           config.stft, orig_len)
        x = istft(spec)
        if callback is not None:
            callback(i, x)
    return x
