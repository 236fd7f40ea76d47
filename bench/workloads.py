"""The benchmark workloads: seeded inputs, set-up, timed rounds, checks.

Every workload drives rtsn through the same public calls the command line
makes (`rtsn train`, `rtsn enhance`, `rtsn build-corpus`, `rtsn eval`,
`rtsn spectrogram`).  Inputs are synthesized here from the workload seed and
written with the standard library, so the program only ever sees WAV files,
a manifest and a checkpoint.  Program functions are always reached through
their module attribute (``corpus.read_wav``, not a name bound at import), so
the tracer in ``tracing.py`` sees every call.

A workload has four parts:

* ``make_inputs`` writes the seeded inputs at paths fixed by the
  constructor (benchmark work, never timed, run in a process of its own so
  it leaves no allocator state behind in the measuring process);
* ``setup`` makes the program calls that ready the timed phase and returns
  their outputs (timed as ``setup_s``);
* ``run_round`` makes one fixed unit of timed work and returns its wall time
  and the work units done; checks run outside the timed calls;
* ``canary`` runs a small fixed-seed case whose outputs ``check_canary``
  compares with ``reference.json`` to a stated tolerance.
"""
from __future__ import annotations

import csv
import functools
import json
import math
import statistics
import time
import wave
from pathlib import Path

import numpy as np

from rtsn import corpus, dsp, evalkit, model, trainer

RATE = 8000
HOP = 80
PCM_SCALE = 32767.0
CANARY_SEED = 20200124
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Tolerances for outputs compared with reference.json.  They absorb float32
# reordering (a faster GEMM or fused kernel) but not a changed formula.
# Computing every conv as a per-tap sum in reverse order and every linear
# layer as a transposed product moved the canaries by at most 2.4e-8
# (relative loss), 6e-8 (waveform) and 5e-8 (LPS means); scaling SELU by
# 1.001 moved the waveform by 1.3e-4 and the LPS means by 3e-4.
TOLERANCES = {
    "train.loss_rel": 1e-5,
    "enhance.wave_abs": 1e-5,
    "enhance.lps_abs": 1e-4,
    "corpus.stats_abs": 1e-9,
    "eval.metric_abs": 1e-6,
    "eval.image_abs": 0.05,
}
# The SNR of a built mixture against its clean reference must match the
# manifest SNR; 16-bit quantization moves it by far less than this.
SNR_TOLERANCE_DB = 0.05


class Ops:
    """Attempted and failed operation counts plus the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def median_rate(rounds: list[dict], seconds: str = "wall_s") -> float:
    """Median over rounds of work units per second of the given phase."""
    return statistics.median(r["units"] / r[seconds] for r in rounds)


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a, dtype=np.float64))))


# ---------------------------------------------------------------------------
# synthetic audio (independent of the program)
# ---------------------------------------------------------------------------


def synth_speech(rng: np.random.Generator, n: int) -> np.ndarray:
    """Voiced-speech stand-in: a harmonic series under two formant bumps,
    a wandering pitch and a syllable-rate envelope, over a faint noise bed
    that keeps every bin off the log-power floor.  Peak 0.5."""
    t = np.arange(n) / RATE
    f0_mean = rng.uniform(90.0, 240.0)
    wobble = 1.0 + 0.08 * np.sin(2 * np.pi * rng.uniform(0.5, 2.0) * t
                                 + rng.uniform(0, 2 * np.pi))
    phase = 2 * np.pi * np.cumsum(f0_mean * wobble) / RATE
    formants = rng.uniform((300.0, 900.0), (900.0, 2500.0))
    x = np.zeros(n)
    for k in range(1, int(3600.0 / (f0_mean * 1.1)) + 1):
        f = k * f0_mean
        amp = sum(np.exp(-0.5 * ((f - fc) / 150.0) ** 2) for fc in formants) + 0.02
        x += amp * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    rate = rng.uniform(2.5, 5.5)
    x *= 0.2 + 0.8 * (0.5 + 0.5 * np.sin(2 * np.pi * rate * t
                                         + rng.uniform(0, 2 * np.pi))) ** 2
    x += 0.01 * np.max(np.abs(x)) * rng.standard_normal(n)
    return 0.5 * x / np.max(np.abs(x))


def synth_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """White, low-passed or babble noise, chosen by the generator.  Peak 0.35."""
    kind = int(rng.integers(3))
    if kind == 0:
        x = rng.standard_normal(n)
    elif kind == 1:
        x = rng.standard_normal(n)
        for i in range(1, n):  # one-pole low-pass
            x[i] += 0.9 * x[i - 1]
    else:
        x = sum(synth_speech(rng, n) for _ in range(4))
    return 0.35 * x / np.max(np.abs(x))


def read_pcm16(path: str | Path) -> np.ndarray:
    with wave.open(str(path), "rb") as f:
        return np.frombuffer(f.readframes(f.getnframes()), dtype="<i2") / 32768.0


def write_pcm16(path: Path, x: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    pcm = np.clip(np.rint(x * PCM_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(RATE)
        f.writeframes(pcm.tobytes())


def make_mixture_inputs(base: Path, rng: np.random.Generator,
                        speech_samples: list[int], noise_samples: list[int],
                        entries: int, snrs: tuple[float, ...]) -> Path:
    """Speech and noise sources plus a manifest pairing them at mixed SNRs."""
    for i, n in enumerate(speech_samples):
        write_pcm16(base / "src" / f"speech{i}.wav", synth_speech(rng, n))
    for j, n in enumerate(noise_samples):
        write_pcm16(base / "src" / f"noise{j}.wav", synth_noise(rng, n))
    rows = []
    for k in range(entries):
        rows.append((
            f"src/speech{k % len(speech_samples)}.wav",
            f"src/noise{int(rng.integers(len(noise_samples)))}.wav",
            float(rng.choice(snrs)),
            int(rng.integers(1 << 30)),
            f"mix/m{k:04d}.wav",
        ))
    manifest = base / "manifest.csv"
    manifest.write_text("".join(f"{s},{n},{snr},{seed},{out}\n"
                                for s, n, snr, seed, out in rows))
    return manifest


def mixture_snr(noisy_path: str, clean_path: str) -> float:
    """SNR of a written mixture against its clean reference, from the files."""
    clean = read_pcm16(clean_path)
    return float(10.0 * np.log10(np.sum(clean**2)
                                 / np.sum((read_pcm16(noisy_path) - clean) ** 2)))


def score_pair(deg_path: str | Path, ref_path: str | Path) -> dict:
    """What `rtsn eval --ref REF --deg DEG` and `rtsn spectrogram` compute."""
    ref = corpus.read_wav(ref_path)
    deg = corpus.read_wav(deg_path)
    ref_lps = dsp.lps_from_magnitude(dsp.decompose(dsp.stft(ref))[0])
    deg_lps = dsp.lps_from_magnitude(dsp.decompose(dsp.stft(deg))[0])
    return {
        "snr": evalkit.global_snr(ref, deg),
        "seg_snr": evalkit.segmental_snr(ref, deg),
        "lsd": evalkit.log_spectral_distance(ref_lps, deg_lps),
        "image": evalkit.spectrogram_image_bytes(deg),
        "frames": dsp.StftConfig().num_frames(len(deg)),
    }


def image_pixels(image: bytes, frames: int) -> np.ndarray | None:
    """The PGM's pixels as (bins, frames), or None if header or size is wrong."""
    bins = dsp.StftConfig().n_bins
    header = f"P5\n{frames} {bins}\n255\n".encode("ascii")
    if not image.startswith(header) or len(image) != len(header) + frames * bins:
        return None
    return np.frombuffer(image[len(header):], dtype=np.uint8).reshape(bins, frames)


def _same_corpus(a: corpus.Corpus, b: corpus.Corpus | None) -> bool:
    return (b is not None and a.train_pairs == b.train_pairs
            and a.val_pairs == b.val_pairs
            and np.array_equal(a.stats.mean, b.stats.mean)
            and np.array_equal(a.stats.std, b.stats.std))


# ---------------------------------------------------------------------------
# train_default
# ---------------------------------------------------------------------------


class TrainDefault:
    """One `trainer.train` epoch per round at the default configuration.

    17 utterances split 16/1.  Each is exactly one unroll window (64 frames)
    long, so every step fills all 16 lanes with unmasked frames and an epoch
    is one optimizer step plus validation: a steady, equal unit of work.
    Set-up builds and reloads the corpus as `rtsn train` does, so the corpus
    layer is measured here too.
    """

    name = "train_default"
    unit = "unmasked training frames"
    UTTERANCES = 17
    FRAMES = trainer.TrainConfig().unroll_steps

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.train_cfg = trainer.TrainConfig(max_epochs=1, seed=seed)
        self.manifest = work / "manifest.csv"

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        samples = (self.FRAMES - 1) * HOP  # stft yields 1 + samples // hop frames
        make_mixture_inputs(self.work, rng, [samples] * self.UTTERANCES, [2 * RATE],
                            self.UTTERANCES, (0.0, 5.0, 10.0, 15.0))

    @functools.cached_property
    def snr(self) -> dict[str, float]:
        """Manifest SNR of every mixture, keyed by its file name."""
        with open(self.manifest, newline="") as f:
            return {Path(row[4]).name: float(row[2]) for row in csv.reader(f)}

    def setup(self):
        built = corpus.build_corpus(self.manifest, dsp.StftConfig(), seed=self.seed)
        reloaded = corpus.load_corpus(self.manifest)
        params = model.init_params(model.RtsnConfig(), dsp.StftConfig(),
                                   built.stats, seed=self.seed)
        look = params.config.lookahead
        train_utts = trainer.load_utterances(built.train_pairs, params.stft,
                                             params.norm, look, params.dtype)
        val_utts = trainer.load_utterances(built.val_pairs, params.stft,
                                           params.norm, look, params.dtype)
        return built, reloaded, params, train_utts, val_utts

    def check_setup(self, state, ops: Ops) -> None:
        built, reloaded, params, train_utts, val_utts = state
        pairs = built.train_pairs + built.val_pairs
        ops.record(_same_corpus(built, reloaded)
                   and _finite(built.stats.mean) and _finite(built.stats.std)
                   and all(abs(mixture_snr(n, c) - self.snr[Path(n).name])
                           <= SNR_TOLERANCE_DB for n, c in pairs)
                   and model.count_parameters(params) == 5_387_146
                   and len(train_utts) == 16 and len(val_utts) == 1
                   and all(u.num_frames == self.FRAMES
                           for u in train_utts + val_utts),
                   "train set-up: corpus reload, stats, mixture SNR, parameter "
                   "count or utterance frames")

    def run_round(self, state, ops: Ops) -> dict:
        _, _, params, train_utts, val_utts = state
        tick = time.perf_counter()
        result = trainer.train(params, (train_utts, val_utts), self.train_cfg)
        wall = time.perf_counter() - tick
        log = result.log
        ops.record(len(log) == 1 and _finite([log[0].train_loss, log[0].val_loss]),
                   f"train epoch: log {log!r}")
        cfg = self.train_cfg
        return {"wall_s": wall, "units": cfg.utterances_per_batch * cfg.unroll_steps}

    @staticmethod
    def headline(rounds: list[dict]) -> dict:
        """Unmasked training frames per second of the timed epochs,
        validation time included."""
        return {"train_frames_per_s": (median_rate(rounds), "frames/s")}

    @staticmethod
    def canary(work: Path) -> dict:
        """Two epochs at 2 lanes x 16 frames over 24-frame utterances, so the
        second chunk of every utterance is partly masked."""
        rng = np.random.default_rng(CANARY_SEED)
        manifest = make_mixture_inputs(work, rng, [23 * HOP] * 4, [RATE], 4, (5.0,))
        built = corpus.build_corpus(manifest, dsp.StftConfig(), seed=0)
        reloaded = corpus.load_corpus(manifest)
        params = model.init_params(model.RtsnConfig(), dsp.StftConfig(),
                                   built.stats, seed=0)
        cfg = trainer.TrainConfig(unroll_steps=16, utterances_per_batch=2,
                                  max_epochs=2, seed=0)
        log = trainer.train(params, reloaded, cfg).log
        return {"split": [Path(p).name for p, _ in reloaded.train_pairs]
                + ["val:" + Path(p).name for p, _ in reloaded.val_pairs],
                "stats_mean": reloaded.stats.mean.tolist(),
                "stats_std": reloaded.stats.std.tolist(),
                "train_loss": [r.train_loss for r in log],
                "val_loss": [r.val_loss for r in log]}

    @staticmethod
    def compare(out: dict, ref: dict) -> list[str]:
        bad = [] if out["split"] == ref["split"] else [
            f"train canary split {out['split']} vs {ref['split']}"]
        bad += _compare_abs(out, ref, (("stats_mean", "corpus.stats_abs"),
                                       ("stats_std", "corpus.stats_abs")))
        tol = TOLERANCES["train.loss_rel"]
        return bad + [f"train canary {key}: {out[key]} vs reference {ref[key]}"
                      for key in ("train_loss", "val_loss")
                      if len(out[key]) != len(ref[key])
                      or not np.allclose(out[key], ref[key], rtol=tol, atol=0.0)]


class EnhanceMixed:
    """One pass over a fixed list of noisy files per round.  Each goes
    through read_wav -> enhance_utterance (5 GLA iterations) -> write_wav,
    as `rtsn enhance` does, and then is scored against its clean reference
    as `rtsn eval` and `rtsn spectrogram` do.  A random-weight default
    checkpoint is loaded in set-up.

    The lengths run from 1 s to 20 s: the forward graph grows with length,
    so the longest file sets peak RSS (about 2.9 GB at 20 s).
    """

    name = "enhance_mixed"
    unit = "audio seconds"
    SECONDS = (1.0, 2.0, 3.5, 5.5, 8.0, 20.0)
    GLA_ITERS = 5

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.ckpt, self.noisy, self.clean = self._paths(work, len(self.SECONDS))

    @staticmethod
    def _paths(work: Path, files: int) -> tuple[Path, list[Path], list[Path]]:
        return (work / "model.ckpt", [work / "in" / f"noisy{i}.wav" for i in range(files)],
                [work / "in" / f"clean{i}.wav" for i in range(files)])

    @classmethod
    def _write_inputs(cls, work: Path, seed: int, lengths) -> tuple[Path, Path, Path]:
        rng = np.random.default_rng(seed)
        ckpt, noisy_paths, clean_paths = cls._paths(work, len(lengths))
        for noisy_path, clean_path, sec in zip(noisy_paths, clean_paths, lengths):
            n = int(round(sec * RATE))
            speech, noise = synth_speech(rng, n), synth_noise(rng, n)
            gain = np.sqrt(np.mean(speech**2) / np.mean(noise**2)) \
                * 10.0 ** (-rng.uniform(0.0, 15.0) / 20.0)
            noisy = speech + gain * noise
            scale = 0.9 / np.max(np.abs(noisy))
            write_pcm16(noisy_path, scale * noisy)
            write_pcm16(clean_path, scale * speech)
        stats = corpus.compute_norm_stats(
            dsp.lps_from_magnitude(dsp.decompose(dsp.stft(corpus.read_wav(p)))[0])
            for p in noisy_paths)
        params = model.init_params(model.RtsnConfig(), dsp.StftConfig(), stats, seed=seed)
        model.save_checkpoint(params, ckpt)
        return ckpt, noisy_paths[0], clean_paths[0]

    def make_inputs(self) -> None:
        self._write_inputs(self.work, self.seed, self.SECONDS)

    def setup(self):
        return model.load_checkpoint(self.ckpt)

    def check_setup(self, params, ops: Ops) -> None:
        ops.record(model.count_parameters(params) == 5_387_146 and params.norm is not None,
                   "enhance set-up: checkpoint parameter count or statistics")

    def run_round(self, params, ops: Ops) -> dict:
        enhance_s = eval_s = audio = 0.0
        for i, (noisy_path, clean_path) in enumerate(zip(self.noisy, self.clean)):
            out_path = self.work / "out" / f"enhanced{i}.wav"
            tick = time.perf_counter()
            noisy = corpus.read_wav(noisy_path)
            enhanced, lps = model.enhance_utterance(params, noisy, gla_iters=self.GLA_ITERS)
            corpus.write_wav(out_path, enhanced)
            tock = time.perf_counter()
            score = score_pair(out_path, clean_path)
            enhance_s += tock - tick
            eval_s += time.perf_counter() - tock
            audio += len(noisy) / RATE
            frames = params.stft.num_frames(len(noisy))
            ops.record(len(enhanced) == len(noisy) and _finite(enhanced.samples)
                       and lps.values.shape == (frames, params.config.n_bins)
                       and _finite(lps.values),
                       f"enhance {noisy_path.name}: length, shape or non-finite output")
            ops.record(_finite([score["snr"], score["seg_snr"], score["lsd"]])
                       and image_pixels(score["image"], frames) is not None,
                       f"eval {out_path.name}: non-finite metric or bad image")
        return {"wall_s": enhance_s + eval_s, "units": audio,
                "enhance_s": enhance_s, "eval_s": eval_s, "files": len(self.noisy)}

    @staticmethod
    def headline(rounds: list[dict]) -> dict:
        """Enhance wall seconds per audio second (real-time factor), and
        files scored per second."""
        return {"enhance_rtf": (statistics.median(r["enhance_s"] / r["units"]
                                                  for r in rounds), "s/s"),
                "eval_files_per_s": (statistics.median(r["files"] / r["eval_s"]
                                                       for r in rounds), "files/s")}

    @classmethod
    def canary(cls, work: Path) -> dict:
        """A 0.5 s file enhanced, and the noisy input scored against its
        clean reference (so the eval figures do not depend on the network)."""
        ckpt, noisy_path, clean_path = cls._write_inputs(work, CANARY_SEED, (0.5,))
        params = model.load_checkpoint(ckpt)
        enhanced, lps = model.enhance_utterance(params, corpus.read_wav(noisy_path),
                                                gla_iters=cls.GLA_ITERS)
        score = score_pair(noisy_path, clean_path)
        return {"wave_every4": enhanced.samples[::4].tolist(),
                "lps_frame_mean": lps.values.mean(axis=1).tolist(),
                "lps_bin_mean": lps.values.mean(axis=0).tolist(),
                "snr": [score["snr"]],
                "seg_snr": [score["seg_snr"]],
                "lsd": [score["lsd"]],
                "image_row_mean": image_pixels(score["image"], score["frames"])
                .mean(axis=1).tolist()}

    @staticmethod
    def compare(out: dict, ref: dict) -> list[str]:
        return _compare_abs(out, ref, (
            ("wave_every4", "enhance.wave_abs"), ("lps_frame_mean", "enhance.lps_abs"),
            ("lps_bin_mean", "enhance.lps_abs"), ("snr", "eval.metric_abs"),
            ("seg_snr", "eval.metric_abs"), ("lsd", "eval.metric_abs"),
            ("image_row_mean", "eval.image_abs")))


def _compare_abs(out: dict, ref: dict, keys) -> list[str]:
    """Canary values further than their absolute tolerance from the reference."""
    bad = []
    for key, tol_name in keys:
        a, b, tol = np.asarray(out[key]), np.asarray(ref[key]), TOLERANCES[tol_name]
        if a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=tol):
            err = float(np.max(np.abs(a - b))) if a.shape == b.shape else math.inf
            bad.append(f"canary {key}: max error {err:.3g} > {tol}")
    return bad


WORKLOADS = {w.name: w for w in (TrainDefault, EnhanceMixed)}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_canary(workload, work: Path, ops: Ops) -> None:
    """Run the workload's fixed-seed canary and compare it with the reference."""
    problems = workload.compare(workload.canary(work), load_reference()[workload.name])
    ops.record(not problems, "; ".join(problems))
