"""Corpus synthesis: WAV I/O, SNR mixing, normalization statistics.

Mixtures are materialized from a manifest of (speech, noise, snr_db, seed,
output) lines.  Per-bin normalization statistics come from the training
noisy log-power spectra only, so a validation file change never moves them.
The statistics file records what they were taken from: the framing, the
split seed and a digest of the manifest rows.
"""
from __future__ import annotations

import csv
import io
import math
import os
import tempfile
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .dsp import (
    LpsSequence,
    StftConfig,
    Waveform,
    check_signal,
    decompose,
    lps_from_magnitude,
    stft,
)
from .settings import (build, decode_utf8, finite_floats, format_settings, parse_settings,
                       schema)

PCM_SCALE = 32768.0
STD_FLOOR = 1e-5
PEAK_TARGET = 0.999

# ---------------------------------------------------------------------------
# WAV I/O (16-bit PCM mono only)
# ---------------------------------------------------------------------------


def read_wav(path: str | os.PathLike) -> Waveform:
    """Read a 16-bit PCM mono WAV file into floats in [-1, 1)."""
    try:
        with wave.open(str(path), "rb") as f:
            channels = f.getnchannels()
            width = f.getsampwidth()
            rate = f.getframerate()
            declared = f.getnframes()
            raw = f.readframes(declared)
    except wave.Error as e:
        raise ValueError(f"{path}: unsupported wav encoding ({e})") from e
    except (EOFError, RuntimeError):  # RuntimeError: a chunk runs past the end
        raise ValueError(f"{path}: empty or truncated wav header") from None
    if channels != 1:
        raise ValueError(f"{path}: channels={channels} unsupported (need mono)")
    if width != 2:
        raise ValueError(
            f"{path}: sample width {8 * width} bits unsupported (need 16-bit PCM)"
        )
    if len(raw) % width:
        raise ValueError(f"{path}: data chunk ends inside a sample ({len(raw)} bytes)")
    if len(raw) < declared * width:
        raise ValueError(f"{path}: data chunk holds {len(raw) // width} of "
                         f"{declared} declared samples")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_SCALE
    return Waveform(samples, rate)


def read_signal(path: str | os.PathLike, config: StftConfig) -> Waveform:
    """read_wav, then the checks stft makes (check_signal), every error
    naming the file."""
    w = read_wav(path)
    try:
        check_signal(w, config)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return w


def write_wav(path: str | os.PathLike, w: Waveform) -> None:
    """Write 16-bit PCM mono, rounding half away from zero and clipping.

    The file appears atomically: a temp file in the same directory is
    renamed over the target only after a complete write.  Non-finite
    samples raise a ValueError naming path, and nothing is written.
    """
    if not np.isfinite(w.samples).all():
        raise ValueError(f"{path}: non-finite samples")
    x = w.samples * PCM_SCALE
    q = np.trunc(x + np.copysign(0.5, x))
    q = np.clip(q, -32768, 32767).astype("<i2")
    _atomic_write(path, _encode_wav(q, w.sample_rate_hz))


def _encode_wav(pcm: np.ndarray, rate: int) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(pcm.tobytes())
    return buf.getvalue()


def _atomic_write(path: str | os.PathLike, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# SNR mixing
# ---------------------------------------------------------------------------


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x)))


def mix_with_reference(
    speech: Waveform, noise: Waveform, snr_db: float, seed: int
) -> tuple[Waveform, Waveform]:
    """Mix noise into speech at a target SNR; return (mixture, clean ref).

    The seed fully determines the noise segment offset (wrapping when the
    noise is shorter than the speech).  If the raw sum peaks above 1, both
    the mixture and the clean reference are rescaled by the same factor so
    the mixture peaks at 0.999; the pair therefore stays at the target SNR.
    An SNR so low that the noise gain overflows, or that the rescaled clean
    reference underflows to silence, is a ValueError.
    """
    if not math.isfinite(snr_db):
        raise ValueError(f"non-finite snr_db {snr_db}")
    if speech.sample_rate_hz != noise.sample_rate_hz:
        raise ValueError(
            f"sample rate mismatch: speech {speech.sample_rate_hz}, "
            f"noise {noise.sample_rate_hz}"
        )
    s = speech.samples
    if s.size == 0:
        raise ValueError("empty speech signal")
    if noise.samples.size == 0:
        raise ValueError("empty noise signal")
    speech_rms = _rms(s)
    if speech_rms == 0.0:
        raise ValueError("silent speech (RMS = 0)")
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(0, noise.samples.size))
    idx = (offset + np.arange(s.size)) % noise.samples.size
    segment = noise.samples[idx]
    seg_rms = _rms(segment)
    if seg_rms == 0.0:
        raise ValueError("silent noise segment (RMS = 0)")
    try:
        gain = (speech_rms / seg_rms) * 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        gain = math.inf
    if not math.isfinite(gain):
        raise ValueError(f"snr_db {snr_db} is out of range: the noise gain overflows")
    mixture = s + gain * segment
    clean = s.copy()
    peak = float(np.max(np.abs(mixture)))
    if peak > 1.0:
        factor = PEAK_TARGET / peak
        mixture = mixture * factor
        clean = clean * factor
        if _rms(clean) == 0.0:
            raise ValueError(f"snr_db {snr_db} is out of range: "
                             "the rescaled clean reference is silent")
    rate = speech.sample_rate_hz
    return Waveform(mixture, rate), Waveform(clean, rate)


# ---------------------------------------------------------------------------
# normalization statistics
# ---------------------------------------------------------------------------


@dataclass
class NormStats:
    """Per-bin mean and (floored) population standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError(
                f"mean/std must be equal-length vectors, got "
                f"{self.mean.shape} and {self.std.shape}"
            )
        if self.mean.size == 0:
            raise ValueError("mean/std have no bins")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise ValueError("non-finite mean/std")
        if self.std.min() <= 0:
            raise ValueError("non-positive std")


def compute_norm_stats(sequences: Iterable[LpsSequence]) -> NormStats:
    """Streaming per-bin mean/std over all frames of all sequences."""
    count = 0
    total = None
    total_sq = None
    for seq in sequences:
        v = seq.values
        if total is None:
            total = np.zeros(v.shape[1])
            total_sq = np.zeros(v.shape[1])
        elif v.shape[1] != total.shape[0]:
            raise ValueError(
                f"bin count mismatch: {v.shape[1]} vs {total.shape[0]}"
            )
        count += v.shape[0]
        total += v.sum(axis=0)
        total_sq += (v * v).sum(axis=0)
    if count == 0:
        raise ValueError("no frames to compute statistics from")
    mean = total / count
    var = np.maximum(total_sq / count - mean * mean, 0.0)
    std = np.maximum(np.sqrt(var), STD_FLOOR)
    return NormStats(mean, std)


def normalize(l: LpsSequence, stats: NormStats) -> LpsSequence:
    if l.values.shape[1] != stats.mean.shape[0]:
        raise ValueError(
            f"bin count mismatch: {l.values.shape[1]} vs {stats.mean.shape[0]}"
        )
    return LpsSequence((l.values - stats.mean) / stats.std)


def denormalize(l: LpsSequence, stats: NormStats) -> LpsSequence:
    if l.values.shape[1] != stats.mean.shape[0]:
        raise ValueError(
            f"bin count mismatch: {l.values.shape[1]} vs {stats.mean.shape[0]}"
        )
    return LpsSequence(l.values * stats.std + stats.mean)


def _save_norm_stats(path: str | os.PathLike, stats: NormStats, stft_config: StftConfig,
                     seed: int, manifest_sha256: str) -> None:
    """Statistics as settings text: the framing, split seed and manifest
    digest they were taken from, then the per-bin means and standard
    deviations as repr(float) lists, which read back bit-exactly."""
    text = format_settings(stft_config, {"seed": seed, "manifest_sha256": manifest_sha256,
                                         "mean": stats.mean.tolist(),
                                         "std": stats.std.tolist()})
    _atomic_write(path, (text + "\n").encode("utf-8"))


def _load_norm_stats(path: str | os.PathLike) -> tuple[NormStats, StftConfig, int, str]:
    """(statistics, framing, split seed, manifest digest) of a file
    _save_norm_stats wrote; every defect raises a ValueError naming path."""
    keys = schema(StftConfig) | {"seed": int, "manifest_sha256": str,
                                 "mean": finite_floats, "std": finite_floats}
    values = parse_settings(decode_utf8(Path(path).read_bytes(), path), keys, path,
                            required=True)
    try:
        stft_config = build(StftConfig, values)
        stats = NormStats(values["mean"], values["std"])
        if stats.mean.size != stft_config.n_bins:
            raise ValueError(f"statistics have {stats.mean.size} bins, fft_size "
                             f"{stft_config.fft_size} gives {stft_config.n_bins}")
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return stats, stft_config, values["seed"], values["manifest_sha256"]


# ---------------------------------------------------------------------------
# manifest and corpus build
# ---------------------------------------------------------------------------


@dataclass
class MixtureSpec:
    speech_path: str
    noise_path: str
    snr_db: float
    seed: int
    output_path: str
    line: int = 0  # 1-based manifest line, for diagnostics


def clean_path_for(output_path: str) -> str:
    """Clean-reference path paired with a mixture output path."""
    if output_path.endswith(".wav"):
        return output_path[:-4] + "_clean.wav"
    return output_path + "_clean.wav"


def parse_manifest(path: str | os.PathLike) -> list[MixtureSpec]:
    """Parse manifest lines speech,noise,snr_db,seed,output; skip blank and # lines."""
    specs = []
    with io.StringIO(decode_utf8(Path(path).read_bytes(), path), newline="") as f:
        for ln, line in enumerate(f, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            row = next(csv.reader([line]))
            if len(row) != 5:
                raise ValueError(
                    f"manifest line {ln}: expected 5 fields, got {len(row)}"
                )
            speech, noise, snr, seed, out = (c.strip() for c in row)
            try:
                snr_db = float(snr)
            except ValueError:
                snr_db = math.nan
            if not math.isfinite(snr_db):
                raise ValueError(f"manifest line {ln}: bad snr_db {snr!r}")
            if not seed.isdecimal():
                raise ValueError(f"manifest line {ln}: bad seed {seed!r}")
            if not speech or not noise or not out:
                raise ValueError(f"manifest line {ln}: empty path field")
            specs.append(MixtureSpec(speech, noise, snr_db, int(seed), out, ln))
    if not specs:
        raise ValueError(f"{path}: empty manifest")
    return specs


@dataclass
class Corpus:
    """Materialized corpus: (noisy, clean) path pairs plus stats, and the
    framing and split seed the stats and the split were made with."""

    train_pairs: list[tuple[str, str]]
    val_pairs: list[tuple[str, str]]
    stats: NormStats
    stats_path: str
    stft: StftConfig
    seed: int


def _manifest_digest(specs: list[MixtureSpec]) -> str:
    """sha256 of the parsed manifest rows: comments, blank lines and
    spelling (`5` or `5.0`) do not count."""
    import hashlib  # maps OpenSSL, 3.5 MB resident that enhancing never needs
    rows = "\n".join(repr((s.speech_path, s.noise_path, s.snr_db, s.seed, s.output_path))
                     for s in specs)
    return hashlib.sha256(rows.encode("utf-8")).hexdigest()


def _resolve(base: Path, p: str) -> str:
    q = Path(p)
    return str(q if q.is_absolute() else base / q)


def _check_outputs(base: Path, specs: list[MixtureSpec]) -> None:
    """Reject, before any file is written, a row whose mixture or clean
    output (resolved against base) is another row's output or clean output,
    or any row's speech or noise input: the error names both lines."""
    owner = {}  # real path -> (its role, manifest line)
    for spec in specs:
        for role, path in (("speech input", spec.speech_path),
                           ("noise input", spec.noise_path)):
            owner.setdefault(os.path.realpath(_resolve(base, path)), (role, spec.line))
    for spec in specs:
        for role, path in (("output", spec.output_path),
                           ("clean output", clean_path_for(spec.output_path))):
            key = os.path.realpath(_resolve(base, path))
            if key in owner:
                other, line = owner[key]
                raise ValueError(f"manifest line {spec.line}: {role} {path} "
                                 f"is the {other} of line {line}")
            owner[key] = (role, spec.line)


def split_indices(n: int, seed: int) -> tuple[list[int], list[int]]:
    """Seeded 90/10 train/validation split; validation gets at least one."""
    if n < 2:
        raise ValueError(f"need at least 2 manifest entries for a split, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = max(1, n // 10)
    val = sorted(int(i) for i in perm[:n_val])
    train = sorted(int(i) for i in perm[n_val:])
    return train, val


def build_corpus(
    manifest_path: str | os.PathLike,
    stft_config: StftConfig | None = None,
    seed: int = 0,
    out_dir: str | os.PathLike | None = None,
) -> Corpus:
    """Materialize mixtures, write the split and training-set statistics."""
    stft_config = stft_config or StftConfig()
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    out_dir = Path(out_dir) if out_dir is not None else base
    specs = parse_manifest(manifest_path)
    _check_outputs(base, specs)
    train_idx, val_idx = split_indices(len(specs), seed)

    pairs = []
    for spec in specs:
        try:
            speech = read_wav(_resolve(base, spec.speech_path))
            noise = read_wav(_resolve(base, spec.noise_path))
            mixture, clean = mix_with_reference(speech, noise, spec.snr_db, spec.seed)
        except (OSError, ValueError) as e:
            raise ValueError(f"manifest line {spec.line}: {e}") from e
        noisy_path = _resolve(base, spec.output_path)
        clean_path = clean_path_for(noisy_path)
        write_wav(noisy_path, mixture)
        write_wav(clean_path, clean)
        pairs.append((noisy_path, clean_path))

    def train_lps() -> Iterator[LpsSequence]:
        for i in train_idx:
            try:
                spec = stft(read_wav(pairs[i][0]), stft_config)
            except ValueError as e:
                raise ValueError(f"manifest line {specs[i].line}: {e}") from e
            yield lps_from_magnitude(decompose(spec)[0])

    stats = compute_norm_stats(train_lps())
    stats_path = out_dir / "stats.txt"
    _save_norm_stats(stats_path, stats, stft_config, seed, _manifest_digest(specs))

    val = set(val_idx)
    split = "".join(f"{spec.output_path},{'val' if i in val else 'train'}\n"
                    for i, spec in enumerate(specs))
    _atomic_write(out_dir / "split.csv", split.encode("utf-8"))
    return Corpus([pairs[i] for i in train_idx], [pairs[i] for i in val_idx], stats,
                  str(stats_path), stft_config, seed)


def load_corpus(
    manifest_path: str | os.PathLike, out_dir: str | os.PathLike | None = None
) -> Corpus | None:
    """Reload the corpus build_corpus made from this manifest's rows, split
    at the recorded seed; None if a mixture or the statistics are missing or
    were made from other rows.  The framing and seed are not checked."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    stats_path = Path(out_dir if out_dir is not None else base) / "stats.txt"
    if not stats_path.exists():
        return None
    specs = parse_manifest(manifest_path)
    stats, stft_config, seed, digest = _load_norm_stats(stats_path)
    if digest != _manifest_digest(specs):
        return None
    pairs = []
    for spec in specs:
        noisy = _resolve(base, spec.output_path)
        clean = clean_path_for(noisy)
        if not os.path.exists(noisy) or not os.path.exists(clean):
            return None
        pairs.append((noisy, clean))
    train_idx, val_idx = split_indices(len(specs), seed)
    return Corpus([pairs[i] for i in train_idx], [pairs[i] for i in val_idx], stats,
                  str(stats_path), stft_config, seed)
