"""Recurrent two-stage speech enhancement in plain numpy.

A stack of LSTM layers predicts several magnitude-spectrum candidates per
frame from a short lookahead window of noisy features; a frequency
convolution fuses the candidates with noisy context into one enhanced frame.
Phase comes from iterated spectrogram projection started at the noisy phase.
"""
from .corpus import (
    Corpus,
    MixtureSpec,
    NormStats,
    build_corpus,
    compute_norm_stats,
    load_corpus,
    mix_with_reference,
    normalize,
    parse_manifest,
    read_wav,
    write_wav,
)
from .dsp import (
    ComplexSpectrogram,
    LpsSequence,
    StftConfig,
    Waveform,
    compose,
    consistency_error,
    decompose,
    istft,
    lps_from_magnitude,
    magnitude_from_lps,
    stft,
)
from .evalkit import (
    emit_spectrogram_image,
    global_snr,
    log_spectral_distance,
    segmental_snr,
    spectrogram_image_bytes,
)
from .gla import GlaConfig, griffin_lim
from .model import (
    RtsnConfig,
    RtsnParams,
    count_parameters,
    enhance_utterance,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .trainer import TrainConfig, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "ComplexSpectrogram",
    "Corpus",
    "GlaConfig",
    "LpsSequence",
    "MixtureSpec",
    "NormStats",
    "RtsnConfig",
    "RtsnParams",
    "StftConfig",
    "TrainConfig",
    "TrainResult",
    "Waveform",
    "build_corpus",
    "compose",
    "compute_norm_stats",
    "consistency_error",
    "count_parameters",
    "decompose",
    "emit_spectrogram_image",
    "enhance_utterance",
    "global_snr",
    "griffin_lim",
    "init_params",
    "istft",
    "load_checkpoint",
    "load_corpus",
    "log_spectral_distance",
    "lps_from_magnitude",
    "magnitude_from_lps",
    "mix_with_reference",
    "normalize",
    "parse_manifest",
    "read_wav",
    "save_checkpoint",
    "segmental_snr",
    "spectrogram_image_bytes",
    "stft",
    "train",
    "write_wav",
]
