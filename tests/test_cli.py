import math
import re
import tempfile
from dataclasses import field, fields, make_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtsn import cli
from rtsn.corpus import compute_norm_stats, load_corpus, read_wav, split_indices, write_wav
from rtsn.dsp import StftConfig, Waveform, decompose, lps_from_magnitude, stft
from rtsn.model import RtsnConfig, enhance_lps, init_params, load_checkpoint, save_checkpoint
from rtsn.settings import format_settings, parse_settings, schema
from rtsn.trainer import TrainConfig

from helpers import run_cli, synth_noise, synth_voice, unit_stats

TINY_CFG = """\
# tiny setup for fast tests
frame_len = 16
hop = 8
fft_size = 16
lookahead = 1
lstm_units = 16
conv_kernel = 3
conv_channels = 8,6,4,1
gla_iters = 3
learning_rate = 0.003
max_epochs = 2
unroll_steps = 16
utterances_per_batch = 4
"""


def make_inputs(root, n_speech=3):
    for i in range(n_speech):
        write_wav(root / f"sp{i}.wav", Waveform(synth_voice(40 + i, 2400)))
    write_wav(root / "noise.wav", Waveform(synth_noise(41, 8000)))
    lines = [f"sp{i}.wav,noise.wav,{snr},{i * 3 + int(snr)},mix_{i}_{int(snr)}.wav"
             for i in range(n_speech) for snr in (0, 5)]
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    (root / "tiny.cfg").write_text(TINY_CFG)


def run(argv, capsys):
    rc = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return rc, out, err


# ---------------------------------------------------------------------------
# mix
# ---------------------------------------------------------------------------


def test_mix_prints_measured_snr(tmp_path, capsys):
    make_inputs(tmp_path)
    out_wav = tmp_path / "m.wav"
    rc, out, err = run(["mix", "--speech", tmp_path / "sp0.wav",
                        "--noise", tmp_path / "noise.wav",
                        "--snr", "5", "--seed", "3", "--out", out_wav], capsys)
    assert rc == 0 and err == ""
    assert out.startswith("snr_db=")
    assert abs(float(out.split("=")[1]) - 5.0) < 1e-6
    assert out_wav.exists()


def test_mix_seed_changes_output(tmp_path, capsys):
    make_inputs(tmp_path)
    args = ["mix", "--speech", tmp_path / "sp0.wav", "--noise",
            tmp_path / "noise.wav", "--snr", "0", "--out"]
    run(args + [tmp_path / "a.wav", "--seed", "1"], capsys)
    run(args + [tmp_path / "b.wav", "--seed", "1"], capsys)
    run(args + [tmp_path / "c.wav", "--seed", "2"], capsys)
    a = (tmp_path / "a.wav").read_bytes()
    assert a == (tmp_path / "b.wav").read_bytes()
    assert a != (tmp_path / "c.wav").read_bytes()


def test_mix_missing_input_fails_cleanly(tmp_path, capsys):
    make_inputs(tmp_path)
    rc, out, err = run(["mix", "--speech", tmp_path / "ghost.wav",
                        "--noise", tmp_path / "noise.wav",
                        "--snr", "0", "--out", tmp_path / "x.wav"], capsys)
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "x.wav").exists()


@pytest.mark.parametrize("snr", ["-7000", "-6150"])
def test_mix_snr_beyond_float_range_fails_cleanly(tmp_path, capsys, snr):
    make_inputs(tmp_path)
    rc, out, err = run(["mix", "--speech", tmp_path / "sp0.wav",
                        "--noise", tmp_path / "noise.wav",
                        "--snr", snr, "--out", tmp_path / "x.wav"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith(f"error: snr_db {float(snr)} is out of range")
    assert err.count("\n") == 1
    assert not (tmp_path / "x.wav").exists()


def test_build_corpus_snr_beyond_float_range_fails_cleanly(tmp_path, capsys):
    make_inputs(tmp_path)
    (tmp_path / "manifest.csv").write_text("sp0.wav,noise.wav,0,1,a.wav\n"
                                           "sp1.wav,noise.wav,-7000,1,b.wav\n")
    rc, out, err = run(["build-corpus", "--manifest", tmp_path / "manifest.csv",
                        "--seed", "0"], capsys)
    assert rc == 1
    assert err == ("error: manifest line 2: snr_db -7000.0 is out of range: "
                   "the noise gain overflows\n")


# ---------------------------------------------------------------------------
# build-corpus
# ---------------------------------------------------------------------------


def test_build_corpus_command(tmp_path, capsys):
    make_inputs(tmp_path)
    rc, out, err = run(["build-corpus", "--manifest", tmp_path / "manifest.csv",
                        "--seed", "0"], capsys)
    assert rc == 0 and err == ""
    assert "train=5" in out and "val=1" in out
    assert (tmp_path / "stats.txt").exists()
    assert (tmp_path / "split.csv").exists()
    assert (tmp_path / "mix_0_0.wav").exists()
    assert (tmp_path / "mix_0_0_clean.wav").exists()


def test_build_corpus_bad_manifest(tmp_path, capsys):
    make_inputs(tmp_path)
    (tmp_path / "manifest.csv").write_text("only,four,fields,here\n")
    rc, out, err = run(["build-corpus", "--manifest", tmp_path / "manifest.csv"],
                       capsys)
    assert rc == 1
    assert "line 1" in err
    (tmp_path / "manifest.csv").write_bytes(b"sp0.wav,noise.wav,0,1,m\xff.wav\n")
    rc, out, err = run(["build-corpus", "--manifest", tmp_path / "manifest.csv"],
                       capsys)
    assert rc == 1
    assert err == f"error: {tmp_path / 'manifest.csv'} line 1: not valid UTF-8 (b'\\xff')\n"


@pytest.mark.parametrize("keep, message", [
    (0, "empty or truncated wav header"),
    (4, "empty or truncated wav header"),
    (-1, "data chunk ends inside a sample (4799 bytes)"),
    (-2, "data chunk holds 2399 of 2400 declared samples"),
], ids=["empty", "header_cut", "data_cut", "samples_cut"])
def test_wav_cut_short_fails_cleanly(tmp_path, capsys, keep, message):
    # an empty WAV, one cut inside its header (b"RIFF"), one cut inside a
    # sample and one short of a whole sample, read by spectrogram and by
    # build-corpus: exit 1 and one stderr line naming the file
    make_inputs(tmp_path)
    bad = tmp_path / "sp1.wav"
    bad.write_bytes(bad.read_bytes()[:keep])
    rc, out, err = run(["spectrogram", "--in", bad, "--out", tmp_path / "s.pgm"], capsys)
    assert (rc, err) == (1, f"error: {bad}: {message}\n")
    rc, out, err = run(["build-corpus", "--manifest", tmp_path / "manifest.csv"], capsys)
    assert rc == 1
    assert err.count("\n") == 1 and f"{bad}: {message}" in err


@pytest.mark.parametrize("command", ["spectrogram", "eval_ref", "eval_deg", "enhance"])
def test_wav_too_short_to_analyze_names_the_file(tmp_path, capsys, command):
    # a 60-sample WAV reads fine but is shorter than the STFT's reflect pad
    # (101 samples at the defaults): each command that analyzes it exits 1
    # with one stderr line naming it, and writes nothing
    make_inputs(tmp_path)
    short, ok, out = tmp_path / "short.wav", tmp_path / "sp0.wav", tmp_path / "out"
    write_wav(short, Waveform(synth_voice(101, 60)))
    model = tmp_path / "model.ckpt"
    save_checkpoint(init_params(RtsnConfig(), StftConfig(), unit_stats(129)), model)
    argv = {"spectrogram": ["spectrogram", "--in", short, "--out", out],
            "eval_ref": ["eval", "--ref", short, "--deg", ok],
            "eval_deg": ["eval", "--ref", ok, "--deg", short],
            "enhance": ["enhance", "--model", model, "--in", short, "--out", out]}[command]
    assert run(argv, capsys) == (
        1, "", f"error: {short}: signal too short to reflect-pad: 60 < 101 samples\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# train / enhance / eval / spectrogram pipeline
# ---------------------------------------------------------------------------


def train_once(root, capsys, seed="0"):
    return run(["train", "--manifest", root / "manifest.csv",
                "--config", root / "tiny.cfg",
                "--out", root / "model.ckpt", "--seed", seed], capsys)


def test_full_pipeline(tmp_path, capsys):
    make_inputs(tmp_path)
    rc, out, err = train_once(tmp_path, capsys)
    assert rc == 0, err
    assert (tmp_path / "model.ckpt").exists()
    log = (tmp_path / "model.ckpt.log.csv").read_text().splitlines()
    assert log[0] == "epoch,train_loss,val_loss"
    assert len(log) == 3  # header + 2 epochs
    assert "best_epoch=" in out

    rc, out, err = run(["enhance", "--model", tmp_path / "model.ckpt",
                        "--in", tmp_path / "mix_0_0.wav",
                        "--out", tmp_path / "enh.wav"], capsys)
    assert rc == 0, err
    enhanced = read_wav(tmp_path / "enh.wav")
    noisy = read_wav(tmp_path / "mix_0_0.wav")
    assert enhanced.samples.shape == noisy.samples.shape

    rc, out, err = run(["eval", "--ref", tmp_path / "mix_0_0_clean.wav",
                        "--deg", tmp_path / "enh.wav"], capsys)
    assert rc == 0, err
    lines = dict(l.split("=") for l in out.strip().splitlines())
    assert set(lines) == {"snr", "seg_snr", "lsd"}
    for v in lines.values():
        assert np.isfinite(float(v))

    rc, out, err = run(["spectrogram", "--in", tmp_path / "enh.wav",
                        "--out", tmp_path / "enh.pgm"], capsys)
    assert rc == 0, err
    assert (tmp_path / "enh.pgm").read_bytes().startswith(b"P5\n")


def test_eval_identical_files(tmp_path, capsys):
    make_inputs(tmp_path)
    rc, out, err = run(["eval", "--ref", tmp_path / "sp0.wav",
                        "--deg", tmp_path / "sp0.wav"], capsys)
    assert rc == 0
    assert "snr=99.0" in out
    assert "lsd=0.0" in out


def test_eval_shorter_than_one_segment_fails_cleanly(tmp_path):
    # 150 samples hold no 200-sample segmental SNR frame: no metric is
    # printed, only the error naming the length, once.
    write_wav(tmp_path / "short.wav", Waveform(synth_voice(7, 150)))
    rc, out, err = run_cli(["eval", "--ref", tmp_path / "short.wav",
                            "--deg", tmp_path / "short.wav"])
    assert rc == 1
    assert out == ""
    assert err == "error: 150 samples, shorter than one 200-sample segmental SNR frame\n"


def test_train_rerun_bit_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        make_inputs(d)
        rc, _, err = train_once(d, capsys)
        assert rc == 0, err
    for name in ("model.ckpt", "model.ckpt.log.csv", "stats.txt", "split.csv",
                 "mix_0_0.wav", "mix_0_0_clean.wav"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_enhance_gla_override(tmp_path, capsys):
    make_inputs(tmp_path)
    rc, _, err = train_once(tmp_path, capsys)
    assert rc == 0, err
    base = ["enhance", "--model", tmp_path / "model.ckpt",
            "--in", tmp_path / "mix_0_0.wav", "--out"]
    run(base + [tmp_path / "g0.wav", "--gla", "0"], capsys)
    run(base + [tmp_path / "g5.wav", "--gla", "5"], capsys)
    run(base + [tmp_path / "gd.wav"], capsys)  # default: config gla_iters=3
    g0 = read_wav(tmp_path / "g0.wav").samples
    g5 = read_wav(tmp_path / "g5.wav").samples
    gd = read_wav(tmp_path / "gd.wav").samples
    assert not np.array_equal(g0, g5)
    assert not np.array_equal(gd, g0) and not np.array_equal(gd, g5)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def read_config(path):
    return parse_settings(path.read_text(), cli.CONFIG_KEYS, path)


def test_config_keys_match_readme_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("## Config file", 1)[1].split("\n## ", 1)[0]
    keys = [k for k in re.findall(r"^\| (\w+) \|", table, re.M) if k != "key"]
    assert len(keys) == 15
    assert sorted(keys) == sorted(cli.CONFIG_KEYS)


def test_readme_exports_exist():
    # every name README lists as a root export is in rtsn.__all__, and every
    # dotted rtsn.module.name it gives resolves
    import importlib

    import rtsn

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"Lower-level pieces \((.*?)\) are exported from the package root",
                       readme, re.S)
    names = re.findall(r"`(\w+)`", listed.group(1))
    assert len(names) >= 4
    assert [n for n in names if n not in rtsn.__all__] == []
    dotted = re.findall(r"`rtsn\.(\w+)\.(\w+)`", readme)
    assert dotted
    for module, name in dotted:
        assert hasattr(importlib.import_module(f"rtsn.{module}"), name), (module, name)


def test_config_parser_accepts_comments_and_spacing(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# heading\n  lookahead = 2  # trailing comment\n\nhop=8\n")
    assert read_config(p) == {"lookahead": 2, "hop": 8}


def test_config_parser_errors_name_lines(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("lookahead = 2\nwhatever = 3\n")
    with pytest.raises(ValueError, match="line 2: unknown key 'whatever'"):
        read_config(p)
    p.write_text("lookahead\n")
    with pytest.raises(ValueError, match="line 1"):
        read_config(p)
    p.write_text("hop = 8\nhop = 9\n")
    with pytest.raises(ValueError, match="line 2: duplicate"):
        read_config(p)


def test_config_parser_rejects_non_finite_floats(tmp_path):
    p = tmp_path / "c.cfg"
    for value in ("nan", "inf", "-Infinity", "1e999"):
        p.write_text(f"learning_rate = {value}\n")
        with pytest.raises(ValueError, match="line 1: bad value .* 'learning_rate'"):
            read_config(p)


def _unvalidated(values, cls):
    """cls's fields filled from values over its defaults, as a dataclass
    without cls's range checks: the reader types values, the configs check
    their ranges."""
    twin = make_dataclass(cls.__name__, [(f.name, f.type, field(default=f.default))
                                         for f in fields(cls)])
    return twin(**{k: v for k, v in values.items() if k in twin.__dataclass_fields__})


_CLASSES = (StftConfig, RtsnConfig, TrainConfig)
_DEFAULTS = {f.name: f.default for cls in _CLASSES for f in fields(cls)}
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
_OF_TYPE = {
    int: st.integers(-10**6, 10**6).map(str),
    float: st.floats().map(repr),
    tuple: st.lists(st.integers(-999, 999), min_size=1, max_size=4).map(
        lambda v: ",".join(map(str, v))),
}
_ODD = _TEXT | st.sampled_from(
    ["nan", "-inf", "1e999", "1_0", "0x10", "1,", ",2", "3 4", "٣"])
_SEP = st.sampled_from(["=", " = ", "= "])
_KEYED = st.sampled_from(sorted(cli.CONFIG_KEYS)).flatmap(
    lambda k: st.tuples(st.just(k), _SEP,
                        _OF_TYPE[type(_DEFAULTS[k])] | _OF_TYPE[int] | _ODD).map("".join))
_LINES = st.one_of(
    _KEYED, _KEYED, _KEYED,  # mostly known keys, so many files parse
    st.tuples(_TEXT, _SEP, _ODD).map("".join),
    _TEXT,  # blank, comment-only or malformed
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=6))
def test_config_reader_fuzz(lines):
    # Random `key = value` lines either fail at their first bad line with a
    # ValueError naming the source, that line and its key (or the whole
    # line when it has no `=`), or give typed values that come back
    # unchanged when written by format_settings and read again.
    text = "\n".join(lines)
    try:
        values = parse_settings(text, cli.CONFIG_KEYS, "fuzz.cfg")
    except ValueError as e:
        msg = str(e)
        where = re.match(r"fuzz\.cfg line (\d+): ", msg)
        assert where, msg
        ln = int(where.group(1))
        parse_settings("\n".join(lines[: ln - 1]), cli.CONFIG_KEYS, "fuzz.cfg")
        bad = lines[ln - 1]
        key = bad.split("#", 1)[0].partition("=")[0].strip()
        assert repr(key) in msg or repr(bad) in msg, msg
        return
    for key, value in values.items():
        assert type(value) is type(_DEFAULTS[key])
        if isinstance(value, tuple):
            assert all(type(v) is int for v in value)
        else:
            assert math.isfinite(value)
    written = format_settings(*(_unvalidated(values, cls) for cls in _CLASSES))
    again = parse_settings(written, schema(*_CLASSES), "written")
    assert {k: again[k] for k in values} == values


def test_train_bad_config_value(tmp_path, capsys):
    make_inputs(tmp_path)
    (tmp_path / "tiny.cfg").write_text("lstm_units = soup\n")
    rc, out, err = run(["train", "--manifest", tmp_path / "manifest.csv",
                        "--config", tmp_path / "tiny.cfg",
                        "--out", tmp_path / "m.ckpt"], capsys)
    assert rc == 1
    assert "lstm_units" in err
    (tmp_path / "tiny.cfg").write_bytes(b"lookahead = 1\n# \xe9t\xe9\n")
    rc, out, err = run(["train", "--manifest", tmp_path / "manifest.csv",
                        "--config", tmp_path / "tiny.cfg",
                        "--out", tmp_path / "m.ckpt"], capsys)
    assert rc == 1
    assert err == f"error: {tmp_path / 'tiny.cfg'} line 2: not valid UTF-8 (b'\\xe9')\n"
    # sizes no model can have fail in the config, named, before any corpus
    # is built
    for line, key in (("conv_kernel = -1", "conv_kernel"),
                      ("conv_channels = 0,1", "conv_channels"),
                      ("conv_channels = 64,-3,1", "conv_channels")):
        (tmp_path / "tiny.cfg").write_text(TINY_CFG.replace("conv_kernel = 3", "")
                                           .replace("conv_channels = 8,6,4,1", "") + line)
        rc, out, err = run(["train", "--manifest", tmp_path / "manifest.csv",
                            "--config", tmp_path / "tiny.cfg",
                            "--out", tmp_path / "m.ckpt"], capsys)
        assert (rc, out) == (1, ""), line
        assert err.startswith(f"error: {key} must be") and err.count("\n") == 1, err
    assert not (tmp_path / "stats.txt").exists()


def test_train_over_statistics_of_another_framing_rebuilds_them(tmp_path, capsys):
    # a corpus built at the default framing (129 bins) and a config whose
    # framing gives 65: train rebuilds the statistics at the config's
    # framing and trains over them
    make_inputs(tmp_path)
    rc, _, err = run(["build-corpus", "--manifest", tmp_path / "manifest.csv"], capsys)
    assert rc == 0, err
    (tmp_path / "tiny.cfg").write_text(TINY_CFG.replace("frame_len = 16", "frame_len = 128")
                                       .replace("fft_size = 16", "fft_size = 128"))
    rc, out, err = run(["train", "--manifest", tmp_path / "manifest.csv",
                        "--config", tmp_path / "tiny.cfg",
                        "--out", tmp_path / "m.ckpt"], capsys)
    assert (rc, err) == (0, ""), err
    assert load_checkpoint(tmp_path / "m.ckpt").norm.mean.shape == (65,)
    assert load_corpus(tmp_path / "manifest.csv").stft == StftConfig(128, 8, 128)


def _file_ids(root):
    """(inode, mtime) of every corpus artifact under root: a rewrite, which
    renames a new file over the old, changes both."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in root.iterdir()
            if p.name.startswith("mix_") or p.name in ("stats.txt", "split.csv")}


def test_train_reuses_a_matching_corpus(tmp_path, capsys):
    make_inputs(tmp_path)
    rc, _, err = train_once(tmp_path, capsys)
    assert rc == 0, err
    before = _file_ids(tmp_path)
    assert len(before) == 14
    rc, _, err = train_once(tmp_path, capsys)
    assert rc == 0, err
    assert _file_ids(tmp_path) == before


def test_train_rebuilds_the_statistics_at_a_changed_hop(tmp_path, capsys):
    # hop 8 then hop 4 over the same manifest: the model's statistics are
    # those of the training mixtures at hop 4, not the reused hop-8 ones
    make_inputs(tmp_path)
    rc, _, err = train_once(tmp_path, capsys)
    assert rc == 0, err
    (tmp_path / "tiny.cfg").write_text(TINY_CFG.replace("hop = 8", "hop = 4"))
    rc, _, err = train_once(tmp_path, capsys)
    assert rc == 0, err
    framing = StftConfig(16, 4, 16)
    corpus = load_corpus(tmp_path / "manifest.csv")
    want = compute_norm_stats(lps_from_magnitude(decompose(stft(read_wav(noisy), framing))[0])
                              for noisy, _ in corpus.train_pairs)
    norm = load_checkpoint(tmp_path / "model.ckpt").norm
    for got, oracle in ((norm.mean, want.mean), (norm.std, want.std)):
        assert np.array_equal(got, oracle.astype(np.float32))
    assert corpus.stft == framing


def test_train_rebuilds_the_split_at_a_changed_seed(tmp_path, capsys):
    make_inputs(tmp_path)
    names = [f"mix_{i}_{snr}.wav" for i in range(3) for snr in (0, 5)]
    for seed in (0, 1):
        rc, _, err = train_once(tmp_path, capsys, seed=str(seed))
        assert rc == 0, err
        _, val = split_indices(6, seed)
        want = "".join(f"{n},{'val' if i in val else 'train'}\n" for i, n in enumerate(names))
        assert (tmp_path / "split.csv").read_text() == want, seed


def test_train_remixes_after_a_manifest_snr_change(tmp_path, capsys):
    # the SNR of three rows goes from 5 to -5 dB, the output paths stay:
    # train mixes them again
    make_inputs(tmp_path)
    rc, _, err = train_once(tmp_path, capsys)
    assert rc == 0, err
    before = {i: (tmp_path / f"mix_{i}_5.wav").read_bytes() for i in range(3)}
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(manifest.read_text().replace("noise.wav,5,", "noise.wav,-5,"))
    rc, _, err = train_once(tmp_path, capsys)
    assert rc == 0, err
    for i, data in before.items():
        assert (tmp_path / f"mix_{i}_5.wav").read_bytes() != data, i


# A small model's config file, every key set.  Each example overrides a
# few keys with small values, in range or not.
_SMALL_CFG = {"frame_len": "4", "hop": "2", "fft_size": "4", "lookahead": "1",
              "prior_weight": "1.0", "lstm_layers": "1", "lstm_units": "2",
              "conv_kernel": "3", "conv_channels": "2,1", "gla_iters": "0",
              "unroll_steps": "2", "utterances_per_batch": "1", "learning_rate": "0.5",
              "max_epochs": "1", "patience": "1"}
_SMALL = {int: st.integers(-2, 6).map(str),
          float: st.floats(-2, 6).map(repr),
          tuple: st.lists(st.integers(-1, 4), min_size=1, max_size=4).map(
              lambda v: ",".join(map(str, v)))}
_OVERRIDES = st.lists(st.sampled_from(sorted(cli.CONFIG_KEYS)).flatmap(
    lambda k: st.tuples(st.just(k), _SMALL[type(_DEFAULTS[k])])), max_size=4)


@settings(max_examples=200, deadline=None)
@given(_OVERRIDES)
def test_every_small_config_gives_a_model_or_a_named_error(overrides):
    # A config file that sets every key to a small value either gives a
    # model that enhances, over statistics of its bin count, or fails with
    # a ValueError; no other exception gets out.  The values stay small, so
    # each model takes a few KB.
    values = _SMALL_CFG | dict(overrides)
    assert sorted(values) == sorted(cli.CONFIG_KEYS)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        try:
            config, stft_config, _ = cli.load_train_setup(path, seed=0)
            params = init_params(config, stft_config, unit_stats(stft_config.n_bins))
        except ValueError:
            return
    n = stft_config.n_bins
    assert enhance_lps(params, np.zeros((3, n), np.float32)).shape == (3, n)


# ---------------------------------------------------------------------------
# process-level entry point
# ---------------------------------------------------------------------------


def test_bad_rtsn_threads_fails_cleanly(monkeypatch, capsys):
    monkeypatch.setenv("RTSN_THREADS", "abc")
    rc, out, err = run(["--help"], capsys)
    assert (rc, out, err) == (1, "", "error: RTSN_THREADS must be a positive integer, "
                                     "got 'abc'\n")


@pytest.mark.parametrize("command", ["mix", "build-corpus", "train"])
def test_negative_seed_names_the_flag(tmp_path, capsys, command):
    make_inputs(tmp_path)
    argv = {"mix": ["mix", "--speech", tmp_path / "sp0.wav", "--noise", tmp_path / "noise.wav",
                    "--snr", "5", "--out", tmp_path / "m.wav"],
            "build-corpus": ["build-corpus", "--manifest", tmp_path / "manifest.csv"],
            "train": ["train", "--manifest", tmp_path / "manifest.csv", "--config",
                      tmp_path / "tiny.cfg", "--out", tmp_path / "model.ckpt"]}[command]
    assert run(argv + ["--seed", "-1"], capsys) == (
        1, "", "error: --seed must be >= 0, got -1\n")
    assert not (tmp_path / "m.wav").exists() and not (tmp_path / "stats.txt").exists()


def test_negative_gla_names_the_flag(tmp_path, capsys):
    model, wav = tmp_path / "model.ckpt", tmp_path / "in.wav"
    save_checkpoint(init_params(RtsnConfig(), StftConfig(), unit_stats(129)), model)
    write_wav(wav, Waveform(synth_voice(8, 1600)))
    rc, out, err = run(["enhance", "--model", model, "--in", wav,
                        "--out", tmp_path / "out.wav", "--gla", "-1"], capsys)
    assert (rc, out, err) == (1, "", "error: --gla must be >= 0, got -1\n")
    assert not (tmp_path / "out.wav").exists()


def test_build_corpus_overwriting_a_source_fails_cleanly(tmp_path, capsys):
    # row 3 names row 1's speech input as its output: nothing is written,
    # so the source keeps its bytes
    make_inputs(tmp_path)
    (tmp_path / "manifest.csv").write_text("sp0.wav,noise.wav,5,1,a.wav\n"
                                           "sp1.wav,noise.wav,0,2,b.wav\n"
                                           "sp2.wav,noise.wav,5,3,sp0.wav\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    rc, out, err = run(["build-corpus", "--manifest", tmp_path / "manifest.csv"], capsys)
    assert (rc, out, err) == (
        1, "", "error: manifest line 3: output sp0.wav is the speech input of line 1\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_malformed_wav_fails_cleanly(tmp_path, capsys):
    # a fmt chunk that claims 16 + 2**24 bytes (byte 19 set to 1)
    bad = tmp_path / "bad.wav"
    write_wav(bad, Waveform(synth_voice(7, 400)))
    data = bytearray(bad.read_bytes())
    data[19] = 1
    bad.write_bytes(data)
    rc, out, err = run(["spectrogram", "--in", bad, "--out", tmp_path / "s.pgm"], capsys)
    assert (rc, out, err) == (
        1, "", f"error: {bad}: empty or truncated wav header\n")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("weight, message", [
    (np.inf, "{model}: non-finite values in tensor lstm0.w_in"),
    (1e38, "non-finite values in the enhanced frames"),
], ids=["inf_weight", "overflowing_projection"])
def test_enhance_with_non_finite_values_fails_cleanly(tmp_path, capsys, weight, message):
    # a non-finite weight is named as the checkpoint is read; finite weights
    # whose projection overflows are caught in the enhanced frames
    model, wav = _model_with_weight(tmp_path, weight)
    rc, out, err = run(["enhance", "--model", model, "--in", wav,
                        "--out", tmp_path / "out.wav"], capsys)
    assert (rc, out, err) == (1, "", f"error: {message.format(model=model)}\n")
    assert not (tmp_path / "out.wav").exists()


def _model_with_weight(tmp_path, weight):
    """(checkpoint, wav) paths: a default model whose lstm0.w_in (for an
    infinite weight) or proj.weight is weight everywhere, and a short
    voice to enhance."""
    model, wav = tmp_path / "model.ckpt", tmp_path / "in.wav"
    params = init_params(RtsnConfig(), StftConfig(), unit_stats(129))
    save_checkpoint(params, model)
    name = "lstm0.w_in" if np.isinf(weight) else "proj.weight"
    blob = bytearray(model.read_bytes())
    at = blob.index(name.encode()) + len(name) + 1 + 8  # rank byte, two dims
    size = params.tensors[name].data.nbytes
    blob[at : at + size] = np.full(size // 4, weight, dtype="<f4").tobytes()
    model.write_bytes(blob)
    write_wav(wav, Waveform(synth_voice(8, 1600)))
    return model, wav


@pytest.mark.parametrize("weight, gla, message", [
    (1e30, 0, "magnitude_from_lps overflowed: the enhanced log-power spectra are too large"),
    (1e30, 1, "magnitude_from_lps overflowed: the enhanced log-power spectra are too large"),
    (1e30, 5, "magnitude_from_lps overflowed: the enhanced log-power spectra are too large"),
    (1e38, 5, "non-finite values in the enhanced frames"),
])
def test_enhance_overflow_prints_one_stderr_line_and_no_file(tmp_path, weight, gla, message):
    # Run as its own process, so numpy's RuntimeWarnings, raised on the
    # pool threads too, would reach stderr.  Projection weights of 1e30
    # give finite enhanced frames whose magnitudes overflow: at 0 or 1
    # Griffin-Lim iterations that wrote an all-zero WAV with exit 0, at 5
    # it failed inside Griffin-Lim.  1e38 overflows the frames themselves.
    model, wav = _model_with_weight(tmp_path, weight)
    rc, out, err = run_cli(["enhance", "--model", model, "--in", wav,
                            "--out", tmp_path / "out.wav", "--gla", gla])
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "out.wav").exists()


def test_train_and_enhance_bytes_equal_at_one_and_two_workers(tmp_path):
    # the worker split changes no byte of a checkpoint or an enhanced WAV
    for threads in ("1", "2"):
        root = tmp_path / threads
        root.mkdir()
        make_inputs(root)
        for argv in (["train", "--manifest", root / "manifest.csv", "--config",
                      root / "tiny.cfg", "--out", root / "model.ckpt"],
                     ["enhance", "--model", root / "model.ckpt",
                      "--in", root / "mix_0_0.wav", "--out", root / "enh.wav"]):
            rc, _, err = run_cli(argv, {"RTSN_THREADS": threads})
            assert (rc, err) == (0, ""), argv[0]
    for name in ("model.ckpt", "enh.wav"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_module_entry_point_subprocess(tmp_path):
    make_inputs(tmp_path)
    rc, out, err = run_cli(["mix", "--speech", tmp_path / "sp0.wav",
                            "--noise", tmp_path / "noise.wav",
                            "--snr", "10", "--out", tmp_path / "m.wav"],
                           {"RTSN_THREADS": "2"})
    assert rc == 0, err
    assert out.startswith("snr_db=10.000000")
    assert (tmp_path / "m.wav").exists()
