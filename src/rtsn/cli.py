"""Command-line front end: mix, build-corpus, train, enhance, eval, spectrogram.

Every command exits 0 on success and nonzero with a one-line diagnostic on
standard error otherwise.  Output files are written to a temp file and
renamed, so failures leave no partial artifacts.

RTSN_THREADS sets how many worker threads share the posterior's conv and
SELU work (default: every CPU the process may use, and never more).  The
numeric libraries' own thread pools are pinned to one thread unless their
variables are set, because a multi-threaded GEMM changes the output bytes;
the worker split does not, so output is the same at every worker count.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import evalkit
from .dsp import StftConfig, decompose, lps_from_magnitude, stft
from .model import (
    RtsnConfig,
    enhance_utterance,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .neural.layers import _worker_count
from .settings import build, decode_utf8, parse_settings, schema
from .trainer import TrainConfig, train

# A config file sets every config field except n_bins, which follows from
# fft_size, and seed, which is the --seed flag.
CONFIG_KEYS = schema(StftConfig, RtsnConfig, TrainConfig, skip=("n_bins", "seed"))


def load_train_setup(path: str, seed: int) -> tuple[RtsnConfig, StftConfig, TrainConfig]:
    values = parse_settings(decode_utf8(Path(path).read_bytes(), path), CONFIG_KEYS, path)
    stft_config = build(StftConfig, values)
    model_config = build(RtsnConfig, values, n_bins=stft_config.n_bins)
    return model_config, stft_config, build(TrainConfig, values, seed=seed)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_mix(args: argparse.Namespace) -> int:
    speech = corpus_mod.read_wav(args.speech)
    noise = corpus_mod.read_wav(args.noise)
    mixture, clean = corpus_mod.mix_with_reference(speech, noise, args.snr, args.seed)
    err = mixture.samples - clean.samples
    snr_db = 10.0 * np.log10(np.sum(clean.samples**2) / np.sum(err**2))
    corpus_mod.write_wav(args.out, mixture)
    print(f"snr_db={snr_db:.6f}")
    return 0


def cmd_build_corpus(args: argparse.Namespace) -> int:
    built = corpus_mod.build_corpus(
        args.manifest,
        StftConfig(),
        seed=args.seed,
        out_dir=args.out_dir,
    )
    print(f"train={len(built.train_pairs)}")
    print(f"val={len(built.val_pairs)}")
    print(f"stats={built.stats_path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    model_config, stft_config, train_config = load_train_setup(args.config, args.seed)
    corpus = corpus_mod.load_corpus(args.manifest)
    if corpus is None or (corpus.stft, corpus.seed) != (stft_config, args.seed):
        corpus = corpus_mod.build_corpus(args.manifest, stft_config, seed=args.seed)
    params = init_params(model_config, stft_config, corpus.stats, seed=args.seed)
    result = train(params, corpus, train_config)
    save_checkpoint(result.params, args.out)
    log_lines = ["epoch,train_loss,val_loss"]
    for row in result.log:
        log_lines.append(f"{row.epoch},{row.train_loss:.8f},{row.val_loss:.8f}")
    corpus_mod._atomic_write(str(args.out) + ".log.csv",
                             ("\n".join(log_lines) + "\n").encode("utf-8"))
    print(f"epochs={len(result.log)}")
    print(f"best_epoch={result.best_epoch}")
    print(f"best_val_loss={result.log[result.best_epoch - 1].val_loss!r}")
    return 0


def cmd_enhance(args: argparse.Namespace) -> int:
    params = load_checkpoint(args.model)
    noisy = corpus_mod.read_signal(args.infile, params.stft)
    enhanced, _ = enhance_utterance(params, noisy, gla_iters=args.gla)
    corpus_mod.write_wav(args.out, enhanced)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = StftConfig()
    ref = corpus_mod.read_signal(args.ref, cfg)
    deg = corpus_mod.read_signal(args.deg, cfg)
    ref_lps = lps_from_magnitude(decompose(stft(ref, cfg))[0])
    deg_lps = lps_from_magnitude(decompose(stft(deg, cfg))[0])
    # every metric before any line, so a failing one prints nothing but its error
    scores = [("snr", evalkit.global_snr(ref, deg)),
              ("seg_snr", evalkit.segmental_snr(ref, deg)),
              ("lsd", evalkit.log_spectral_distance(ref_lps, deg_lps))]
    for name, value in scores:
        print(f"{name}={float(value)!r}")
    return 0


def cmd_spectrogram(args: argparse.Namespace) -> int:
    w = corpus_mod.read_signal(args.infile, StftConfig())
    evalkit.emit_spectrogram_image(w, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtsn", description="Recurrent two-stage speech enhancement toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mix", help="mix speech and noise at a target SNR")
    p.add_argument("--speech", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("build-corpus", help="materialize mixtures from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_build_corpus)

    p = sub.add_parser("train", help="train a model from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="enhance a noisy wav with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gla", type=int, default=None,
                   help="Griffin-Lim iterations (default: model config)")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("eval", help="objective metrics between two wavs")
    p.add_argument("--ref", required=True)
    p.add_argument("--deg", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("spectrogram", help="write a PGM spectrogram image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrogram)

    return parser


def main(argv: list[str] | None = None) -> int:
    # numpy's RuntimeWarnings (overflow, invalid value) would precede the
    # one-line error of a failing run; every non-finite value they warn of
    # is checked and named where it matters.  The filter is process-wide,
    # so it reaches the worker threads, which an np.errstate does not.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            _worker_count()  # a bad RTSN_THREADS fails before any work starts
            args = build_parser().parse_args(argv)
            for flag in ("seed", "gla"):
                value = getattr(args, flag, None)
                if value is not None and value < 0:
                    raise ValueError(f"--{flag} must be >= 0, got {value}")
            return args.func(args)
        except (ValueError, OSError, FloatingPointError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
