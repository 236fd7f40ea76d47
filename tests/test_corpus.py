import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from rtsn.corpus import (
    STD_FLOOR,
    NormStats,
    _load_norm_stats,
    _save_norm_stats,
    build_corpus,
    clean_path_for,
    compute_norm_stats,
    denormalize,
    load_corpus,
    mix_with_reference,
    normalize,
    parse_manifest,
    read_wav,
    split_indices,
    write_wav,
)
from rtsn.dsp import LpsSequence, StftConfig, Waveform, decompose, lps_from_magnitude, stft

from helpers import byte_edits, mutate, synth_noise, synth_voice

TINY = StftConfig(frame_len=16, hop=8, fft_size=16)


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------


def test_wav_round_trip_quantization(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.9, 0.9, size=500)
    p = tmp_path / "a.wav"
    write_wav(p, Waveform(x))
    y = read_wav(p)
    assert y.sample_rate_hz == 8000
    assert y.samples.shape == x.shape
    # quantizer is round-half-away at a 1/32768 step
    assert np.max(np.abs(y.samples - x)) <= 0.5 / 32768 + 1e-12


def test_wav_rounding_half_away_from_zero(tmp_path):
    x = np.array([0.5, -0.5, 1.5, -1.5, 2.49, -2.49]) / 32768.0
    p = tmp_path / "r.wav"
    write_wav(p, Waveform(x))
    got = read_wav(p).samples * 32768.0
    assert_allclose(got, [1.0, -1.0, 2.0, -2.0, 2.0, -2.0], rtol=0, atol=0)


def test_wav_clipping(tmp_path):
    p = tmp_path / "c.wav"
    write_wav(p, Waveform(np.array([1.5, -1.5, 1.0, -1.0])))
    got = read_wav(p).samples * 32768.0
    assert_allclose(got, [32767.0, -32768.0, 32767.0, -32768.0], rtol=0, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wav_write_rejects_non_finite_samples(tmp_path, bad):
    # A NaN would cast to a silent 0; the error names the path and nothing
    # is written.
    p = tmp_path / "bad.wav"
    with pytest.raises(ValueError, match=re.escape(f"{p}: non-finite samples")):
        write_wav(p, Waveform(np.array([0.1, bad, -0.1])))
    assert list(tmp_path.iterdir()) == []


def test_wav_rejects_stereo_and_wrong_width(tmp_path):
    import wave

    p = tmp_path / "stereo.wav"
    with wave.open(str(p), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(8000)
        f.writeframes(b"\x00" * 40)
    with pytest.raises(ValueError, match="need mono"):
        read_wav(p)

    q = tmp_path / "wide.wav"
    with wave.open(str(q), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(4)
        f.setframerate(8000)
        f.writeframes(b"\x00" * 40)
    with pytest.raises(ValueError, match="need 16-bit"):
        read_wav(q)


def test_wav_empty_or_cut_short_raises_naming_the_file(tmp_path):
    # Every prefix of a valid file either reads all of the samples its
    # header declares or raises a ValueError naming it: an empty file, a
    # header cut short, a data chunk that ends inside a sample and one cut
    # short by whole samples among them.
    blob = tmp_path / "full.wav"
    write_wav(blob, Waveform(np.linspace(-0.5, 0.5, 5)))
    data = blob.read_bytes()
    p = tmp_path / "cut.wav"
    failed = []
    for n in range(len(data) + 1):
        p.write_bytes(data[:n])
        try:
            samples = read_wav(p).samples
        except ValueError as e:
            assert str(p) in str(e), (n, str(e))
            failed.append(n)
        else:
            assert len(samples) == 5, (n, len(samples))
    assert {0, 4, 20, len(data) - 2, len(data) - 1} <= set(failed)
    p.write_bytes(b"")
    with pytest.raises(ValueError, match="empty or truncated wav header"):
        read_wav(p)
    p.write_bytes(data[:-1])
    with pytest.raises(ValueError, match="data chunk ends inside a sample"):
        read_wav(p)
    p.write_bytes(data[:-4])
    with pytest.raises(ValueError, match="data chunk holds 3 of 5 declared samples"):
        read_wav(p)


def test_wav_chunk_past_the_end_names_the_file(tmp_path):
    # byte 19 set to 1 makes the fmt chunk claim 16 + 2**24 bytes, and
    # wave's seek past its end raises a bare RuntimeError
    p = tmp_path / "w.wav"
    write_wav(p, Waveform(synth_voice(3, 400)))
    data = bytearray(p.read_bytes())
    data[19] = 1
    p.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(
            f"{p}: empty or truncated wav header")):
        read_wav(p)


def _small_wav_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "w.wav"
        write_wav(p, Waveform(synth_voice(3, 400)))
        return p.read_bytes()


_WAV = _small_wav_bytes()


@settings(max_examples=400, deadline=None)
@given(byte_edits(hot=64))
@example([("set", 19, 1)])
@example([("cut", 43)])
def test_wav_reader_byte_mutations(edits):
    # every truncation, byte set or bit flip of a 400-sample WAV either
    # reads as a mono 16-bit signal or raises a ValueError naming the file
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.wav"
        p.write_bytes(mutate(_WAV, edits))
        try:
            w = read_wav(p)
        except ValueError as e:
            assert str(e).startswith(f"{p}: "), str(e)
            return
    assert w.samples.ndim == 1 and np.all(np.abs(w.samples) <= 1.0)


def test_wav_write_is_deterministic(tmp_path):
    x = synth_voice(1, 777)
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(a, Waveform(x))
    write_wav(b, Waveform(x))
    assert a.read_bytes() == b.read_bytes()


def test_wav_write_failure_leaves_no_file(tmp_path, monkeypatch):
    import rtsn.corpus as cm

    def boom(fd, data):
        raise OSError("disk full")

    p = tmp_path / "fail.wav"
    real_fdopen = cm.os.fdopen

    class Exploder:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *a):
            self.f.close()

        def write(self, data):
            raise OSError("disk full")

    monkeypatch.setattr(cm.os, "fdopen", lambda fd, mode: Exploder(real_fdopen(fd, mode)))
    with pytest.raises(OSError):
        write_wav(p, Waveform(np.zeros(10)))
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------


def test_mix_matches_hand_computed_gain():
    # frozen from the gain formula: g = rms(speech)/rms(segment) * 10^(-snr/20)
    # with seed 5 over an 8-sample noise buffer the offset comes out as 5
    speech = Waveform(np.array([0.1, -0.2, 0.3, -0.1]))
    noise = Waveform(np.array([0.05, -0.03, 0.02, 0.07, -0.06, 0.01, -0.02, 0.04]))
    mixture, clean = mix_with_reference(speech, noise, 3.0, seed=5)
    assert_allclose(clean.samples, speech.samples, rtol=0, atol=0)
    expected = [
        0.1404265531131541,
        -0.2808531062263082,
        0.46170621245261645,
        0.10213276556577058,
    ]
    assert_allclose(mixture.samples, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("snr", [-5.0, 0.0, 5.0, 10.0])
def test_mix_hits_requested_snr(snr):
    speech = Waveform(synth_voice(3))
    noise = Waveform(synth_noise(4, 12000))
    mixture, clean = mix_with_reference(speech, noise, snr, seed=9)
    err = mixture.samples - clean.samples
    measured = 10.0 * np.log10(np.sum(clean.samples**2) / np.sum(err**2))
    assert abs(measured - snr) < 1e-9


def test_mix_wraps_short_noise():
    speech = Waveform(synth_voice(5, 4000))
    noise = Waveform(synth_noise(6, 300))
    mixture, clean = mix_with_reference(speech, noise, 0.0, seed=2)
    err = mixture.samples - clean.samples
    measured = 10.0 * np.log10(np.sum(clean.samples**2) / np.sum(err**2))
    assert abs(measured) < 1e-9


def test_mix_peak_rescale_preserves_snr():
    speech = Waveform(0.9 * np.sin(2 * np.pi * 440 * np.arange(2000) / 8000))
    noise = Waveform(synth_noise(7, 5000))
    mixture, clean = mix_with_reference(speech, noise, -5.0, seed=1)
    peak = np.max(np.abs(mixture.samples))
    assert peak <= 0.999 + 1e-12
    err = mixture.samples - clean.samples
    measured = 10.0 * np.log10(np.sum(clean.samples**2) / np.sum(err**2))
    assert abs(measured - (-5.0)) < 1e-9
    # rescale actually happened: clean no longer matches the input speech
    assert np.max(np.abs(clean.samples - speech.samples)) > 1e-4


def test_mix_seed_determinism():
    speech = Waveform(synth_voice(8, 2000))
    noise = Waveform(synth_noise(9, 6000))
    a = mix_with_reference(speech, noise, 5.0, seed=3)[0]
    b = mix_with_reference(speech, noise, 5.0, seed=3)[0]
    c = mix_with_reference(speech, noise, 5.0, seed=4)[0]
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_mix_input_validation():
    speech = Waveform(synth_voice(1, 500))
    with pytest.raises(ValueError, match="silent speech"):
        mix_with_reference(Waveform(np.zeros(100)), speech, 0.0, 0)
    with pytest.raises(ValueError, match="empty"):
        mix_with_reference(Waveform(np.zeros(0)), speech, 0.0, 0)
    with pytest.raises(ValueError, match="sample rate"):
        mix_with_reference(speech, Waveform(np.ones(10), sample_rate_hz=16000), 0.0, 0)
    for snr in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite snr_db"):
            mix_with_reference(speech, speech, snr, 0)


@pytest.mark.parametrize("snr, why", [
    (-7000.0, "the noise gain overflows"),
    (-6150.0, "the rescaled clean reference is silent"),
])
def test_mix_rejects_snr_beyond_float_range(snr, why):
    # 10 ** 350 overflows a float; at -6150 dB the gain is finite but the
    # peak rescale takes the clean reference below the smallest float power
    speech = Waveform(synth_voice(1, 500))
    noise = Waveform(synth_noise(2, 800))
    with pytest.raises(ValueError, match=f"snr_db {snr} is out of range: {why}"):
        mix_with_reference(speech, noise, snr, 0)


# ---------------------------------------------------------------------------
# normalization statistics
# ---------------------------------------------------------------------------


def test_norm_stats_match_two_pass_oracle():
    rng = np.random.default_rng(13)
    chunks = [rng.standard_normal((n, 9)) * 3.0 + 1.5 for n in (7, 12, 5)]
    got = compute_norm_stats(LpsSequence(c) for c in chunks)
    stacked = np.concatenate(chunks, axis=0)
    # independent two-pass computation
    mean = stacked.sum(axis=0) / stacked.shape[0]
    var = ((stacked - mean) ** 2).sum(axis=0) / stacked.shape[0]
    assert_allclose(got.mean, mean, rtol=1e-12, atol=1e-12)
    assert_allclose(got.std, np.sqrt(var), rtol=1e-10, atol=1e-12)


def test_norm_stats_std_floor():
    const = LpsSequence(np.full((20, 4), 2.5))
    stats = compute_norm_stats([const])
    assert_allclose(stats.mean, 2.5, rtol=0, atol=1e-12)
    assert_allclose(stats.std, STD_FLOOR, rtol=0, atol=0)


def test_norm_stats_validation():
    with pytest.raises(ValueError, match="no frames"):
        compute_norm_stats([])
    with pytest.raises(ValueError, match="bin count"):
        compute_norm_stats([LpsSequence(np.zeros((2, 4))),
                            LpsSequence(np.zeros((2, 5)))])
    with pytest.raises(ValueError, match="non-positive std"):
        NormStats(np.zeros(3), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="no bins"):
        NormStats(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError, match="non-finite mean/std"):
        NormStats(np.array([0.0, np.nan]), np.ones(2))
    with pytest.raises(ValueError, match="non-finite mean/std"):
        NormStats(np.zeros(2), np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="non-finite mean/std"):
        NormStats(np.zeros(2), np.array([1.0, np.inf]))


def test_normalize_round_trip():
    rng = np.random.default_rng(21)
    stats = NormStats(rng.standard_normal(6), rng.uniform(0.5, 2.0, 6))
    seq = LpsSequence(rng.standard_normal((11, 6)))
    z = normalize(seq, stats)
    assert abs(z.values.mean()) < 5.0  # sanity, not a statistical claim
    back = denormalize(z, stats)
    assert_allclose(back.values, seq.values, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="bin count"):
        normalize(LpsSequence(np.zeros((3, 5))), stats)


# Doubles whose text must read back bit-exactly: a signed zero, the least
# subnormal, the least normal, the largest finite and a non-dyadic fraction.
EDGE_DOUBLES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1]
DIGEST = "ab" * 32


def test_stats_file_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    mean = np.concatenate([EDGE_DOUBLES, rng.standard_normal(124)])
    std = np.concatenate([np.abs(EDGE_DOUBLES[1:]), rng.uniform(0.1, 3.0, 125)])
    p = tmp_path / "stats.txt"
    _save_norm_stats(p, NormStats(mean, std), StftConfig(), 3, DIGEST)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert [line.split("=")[0] for line in lines] == [
        "frame_len", "hop", "fft_size", "seed", "manifest_sha256", "mean", "std"]
    assert lines[:5] == ["frame_len=200", "hop=80", "fft_size=256", "seed=3",
                         f"manifest_sha256={DIGEST}"]
    assert "np.float64" not in lines[5]
    stats, stft_config, seed, digest = _load_norm_stats(p)
    assert np.array_equal(stats.mean, mean) and np.array_equal(stats.std, std)
    assert np.array_equal(np.signbit(stats.mean), np.signbit(mean))
    assert (stft_config, seed, digest) == (StftConfig(), 3, DIGEST)


def _stats_text(mean="0.5,-1.0", std="1.0,2.0", fft_size="2", **extra):
    """A statistics file's text at 2 bins (frame_len 2, hop 1), any value
    replaced by a keyword; a keyword set to None leaves its line out."""
    values = {"frame_len": "2", "hop": "1", "fft_size": fft_size, "seed": "0",
              "manifest_sha256": DIGEST, "mean": mean, "std": std} | extra
    return "".join(f"{k} = {v}\n" for k, v in values.items() if v is not None)


def test_stats_file_errors(tmp_path):
    # every defect raises a ValueError that names the file, and the line
    # and key where there is one
    p = tmp_path / "stats.txt"
    p.write_text(_stats_text())
    stats, stft_config, _, _ = _load_norm_stats(p)
    assert stats.mean.tolist() == [0.5, -1.0] and stft_config.n_bins == 2
    cases = [
        (_stats_text().encode() + b"# \xff\n", r" line 8: not valid UTF-8"),
        (_stats_text(hop=None), r": missing keys \['hop'\]"),
        (_stats_text(std=None, seed=None), r": missing keys \['seed', 'std'\]"),
        (_stats_text() + "seed = 1\n", r" line 8: duplicate key 'seed'"),
        (_stats_text() + "window = 2\n", r" line 8: unknown key 'window'"),
        (_stats_text(mean="0.5,x"), r" line 6: bad value '0.5,x' for key 'mean'"),
        (_stats_text(mean="0.5,"), r" line 6: bad value '0.5,' for key 'mean'"),
        (_stats_text(std="nan,1.0"), r" line 7: bad value 'nan,1.0' for key 'std'"),
        (_stats_text(mean="0.5,-inf"), r" line 6: bad value '0.5,-inf' for key 'mean'"),
        (_stats_text(std="1.0,1e999"), r" line 7: bad value '1.0,1e999' for key 'std'"),
        (_stats_text(seed="one"), r" line 4: bad value 'one' for key 'seed'"),
        (_stats_text(std="1.0,0.0"), r": non-positive std"),
        (_stats_text(std="1.0,-2.0"), r": non-positive std"),
        (_stats_text(std="1.0,2.0,3.0"), r": mean/std must be equal-length vectors"),
        (_stats_text(fft_size="4"), r": statistics have 2 bins, fft_size 4 gives 3"),
        (_stats_text(hop="3"), r": need hop <= frame_len <= fft_size"),
    ]
    for text, message in cases:
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValueError, match="^" + re.escape(str(p)) + message):
            _load_norm_stats(p)


# ---------------------------------------------------------------------------
# manifest, split, corpus build
# ---------------------------------------------------------------------------


def test_parse_manifest_line_numbers(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a.wav,n.wav,5,1,out1.wav\n\na.wav,n.wav,bad,2,out2.wav\n")
    with pytest.raises(ValueError, match="line 3: bad snr_db"):
        parse_manifest(p)
    p.write_text("a.wav,n.wav,5,1\n")
    with pytest.raises(ValueError, match="line 1: expected 5 fields"):
        parse_manifest(p)
    p.write_text("a.wav,n.wav,5,x,out.wav\n")
    with pytest.raises(ValueError, match="line 1: bad seed"):
        parse_manifest(p)
    for snr in ("nan", "inf", "-Infinity"):
        p.write_text(f"# header\na.wav,n.wav,{snr},1,out.wav\n")
        with pytest.raises(ValueError, match=f"line 2: bad snr_db '{snr}'"):
            parse_manifest(p)
    p.write_text("a.wav,n.wav,5,-1,out.wav\n")
    with pytest.raises(ValueError, match="line 1: bad seed '-1'"):
        parse_manifest(p)
    p.write_text("# speech,noise,snr,seed,out\n  # note\n\na.wav,n.wav,5,1,o.wav\n"
                 "a.wav,n.wav,5\n")
    with pytest.raises(ValueError, match="line 5: expected 5 fields"):
        parse_manifest(p)
    p.write_text("# speech,noise,snr,seed,out\n  # note\n\na.wav,n.wav,5,1,o.wav\n")
    (spec,) = parse_manifest(p)
    assert (spec.speech_path, spec.line) == ("a.wav", 4)
    p.write_text("# only a comment\n\n")
    with pytest.raises(ValueError, match="empty manifest"):
        parse_manifest(p)
    p.write_bytes(b"a.wav,n.wav,5,1,o.wav\nb\xff.wav,n.wav,5,1,o2.wav\n")
    with pytest.raises(ValueError, match=r"m\.csv line 2: not valid UTF-8"):
        parse_manifest(p)


def test_parse_manifest_fields(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("sp.wav, noise.wav ,-5.5,42,mix.wav\n")
    (spec,) = parse_manifest(p)
    assert spec.speech_path == "sp.wav"
    assert spec.noise_path == "noise.wav"
    assert spec.snr_db == -5.5
    assert spec.seed == 42
    assert spec.output_path == "mix.wav"
    assert spec.line == 1


NUMBERISH = st.sampled_from(["0", "5", "-5.5", "1e3", "1e400", "-1e400", "nan",
                             "-NaN", "inf", "-Infinity", "-1", "0x10", "1_0", " 7 ",
                             "", "#3"])
FIELDS = st.one_of(NUMBERISH, st.text(alphabet=' ab.,#"\'\t\r\x00-5n', max_size=6))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.lists(FIELDS, min_size=0, max_size=6),
                          st.builds(lambda *f: list(f), FIELDS, FIELDS, NUMBERISH,
                                    NUMBERISH, FIELDS)),
                max_size=5))
@example([["# c"], ["a", "n", "5", "1", "o"], ["a", "n", "nan", "1", "o"]])
@example([["a", "n", "inf", "0", "o"]])
@example([["a", "n", "-3", "0", "o"], [" # x", "y"], ["b", "n", "1e1", "2", "p"]])
def test_manifest_rows_property(rows):
    # every manifest either parses to finite, well-formed specs or raises a
    # ValueError that names the line (or the empty file)
    text = "".join(",".join(r) + "\n" for r in rows)
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.csv"
        p.write_text(text, encoding="utf-8")
        try:
            specs = parse_manifest(p)
        except ValueError as e:
            assert re.match(r"manifest line \d+: |.*: empty manifest$", str(e)), str(e)
            return
    lines = text.splitlines()
    for spec in specs:
        assert math.isfinite(spec.snr_db)
        assert isinstance(spec.seed, int) and spec.seed >= 0
        assert spec.speech_path and spec.noise_path and spec.output_path
        assert not lines[spec.line - 1].lstrip().startswith("#")
    assert [s.line for s in specs] == sorted({s.line for s in specs})


_STATS_LINES = _stats_text().splitlines()
_ODD = st.sampled_from(["nan", "-inf", "1e999", "0", "-0.0", "-1", "x", "", "1,", ",2",
                        "1_0", "0x10", "5e-324", "1,2,3", "0.5", "4", "٣", "-0.0,5e-324",
                        "1e308,0.1"]) | st.text(max_size=6)
_EDITS = st.lists(st.tuples(st.integers(0, len(_STATS_LINES) - 1),
                            st.sampled_from(["drop", "twice", "value", "key"])), max_size=3)


@st.composite
def _edited_stats(draw):
    """A valid statistics file with up to three of its lines dropped,
    written twice, given an odd value or an odd key; sometimes with a stray
    non-UTF-8 byte."""
    lines = [[line] for line in _STATS_LINES]
    for i, how in draw(_EDITS):
        key, _, value = _STATS_LINES[i].partition(" = ")
        lines[i] = {"drop": [], "twice": lines[i] * 2, "value": [f"{key} = {draw(_ODD)}"],
                    "key": [f"{draw(_ODD)} = {value}"]}[how]
    data = "\n".join(line for group in lines for line in group).encode("utf-8")
    return data + b"\xff" if draw(st.integers(0, 9)) == 0 else data


@settings(max_examples=300, deadline=None)
@given(_edited_stats())
@example(_stats_text().encode())
@example(_stats_text(std="1.0,0.0").encode())
@example(_stats_text(fft_size="4").encode())
def test_stats_reader_property(blob):
    # every statistics file either loads finite, positive, equal-length
    # per-bin values of its framing's bin count, or raises a ValueError
    # that names the file
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "stats.txt"
        p.write_bytes(blob)
        try:
            stats, stft_config, seed, digest = _load_norm_stats(p)
        except ValueError as e:
            assert re.match(re.escape(str(p)) + r"( line \d+)?: ", str(e)), str(e)
            return
    assert stats.mean.shape == stats.std.shape == (stft_config.n_bins,)
    assert np.all(np.isfinite(stats.mean)) and np.all(np.isfinite(stats.std))
    assert np.all(stats.std > 0)
    assert isinstance(seed, int) and isinstance(digest, str) and digest


def test_clean_path_for():
    assert clean_path_for("out/mix.wav") == "out/mix_clean.wav"
    assert clean_path_for("plain") == "plain_clean.wav"


def test_split_indices():
    train, val = split_indices(2, seed=0)
    assert len(val) == 1 and len(train) == 1
    train, val = split_indices(25, seed=3)
    assert len(val) == 2 and len(train) == 23
    assert sorted(train + val) == list(range(25))
    assert split_indices(25, seed=3) == (train, val)
    assert split_indices(25, seed=4) != (train, val)
    with pytest.raises(ValueError, match="at least 2"):
        split_indices(1, seed=0)


def _make_corpus_inputs(root, n_speech=3, snrs=(0.0, 5.0)):
    for i in range(n_speech):
        write_wav(root / f"sp{i}.wav", Waveform(synth_voice(100 + i, 4000)))
    write_wav(root / "noise.wav", Waveform(synth_noise(50, 9000)))
    lines = []
    for i in range(n_speech):
        for snr in snrs:
            lines.append(f"sp{i}.wav,noise.wav,{snr},{i * 7 + int(snr)},mix_{i}_{int(snr)}.wav")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def test_build_corpus(tmp_path):
    manifest = _make_corpus_inputs(tmp_path)
    corpus = build_corpus(manifest, TINY, seed=0, out_dir=tmp_path)
    assert len(corpus.train_pairs) == 5
    assert len(corpus.val_pairs) == 1
    for noisy, clean in corpus.train_pairs + corpus.val_pairs:
        assert noisy.endswith(".wav")
        assert clean.endswith("_clean.wav")
        assert read_wav(noisy).samples.size == 4000
        assert read_wav(clean).samples.size == 4000

    # stats must equal the two-pass oracle over the written train noisy files
    rows = []
    for noisy, _ in corpus.train_pairs:
        spec = stft(read_wav(noisy), TINY)
        rows.append(lps_from_magnitude(decompose(spec)[0]).values)
    stacked = np.concatenate(rows, axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), STD_FLOOR)
    assert_allclose(corpus.stats.mean, mean, rtol=1e-12, atol=1e-12)
    assert_allclose(corpus.stats.std, std, rtol=1e-10, atol=1e-12)

    roles = dict(
        line.split(",") for line in
        (tmp_path / "split.csv").read_text().strip().splitlines()
    )
    assert sorted(roles.values()).count("val") == 1
    assert len(roles) == 6


def test_build_corpus_rerun_identical(tmp_path):
    manifest = _make_corpus_inputs(tmp_path)
    build_corpus(manifest, TINY, seed=0, out_dir=tmp_path)
    snap = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix != ".csv"}
    snap["split.csv"] = (tmp_path / "split.csv").read_bytes()
    build_corpus(manifest, TINY, seed=0, out_dir=tmp_path)
    for name, data in snap.items():
        assert (tmp_path / name).read_bytes() == data, name


def test_build_corpus_missing_file_names_line(tmp_path):
    manifest = _make_corpus_inputs(tmp_path)
    text = manifest.read_text().splitlines()
    text[2] = "ghost.wav,noise.wav,0,1,mix_x.wav"
    manifest.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match="manifest line 3"):
        build_corpus(manifest, TINY, seed=0, out_dir=tmp_path)


def test_build_corpus_short_source_names_line(tmp_path):
    # a 60-sample speech source mixes fine, then fails the statistics pass
    # over the training mixtures at the default framing (101 samples)
    manifest = _make_corpus_inputs(tmp_path)
    write_wav(tmp_path / "sp1.wav", Waveform(synth_voice(101, 60)))
    train_idx, _ = split_indices(6, seed=0)
    line = 1 + next(i for i in train_idx if i in (2, 3))  # sp1's lines
    with pytest.raises(ValueError, match=(
            rf"^manifest line {line}: signal too short to reflect-pad: 60 < 101 samples$")):
        build_corpus(manifest, StftConfig(), seed=0, out_dir=tmp_path)


@pytest.mark.parametrize("rows, message", [
    # row 2 replaces row 1's mixture, row 3 a source that row 4 then reads
    (["sp0.wav,noise.wav,5,1,a.wav", "sp1.wav,noise.wav,0,2,a.wav",
      "sp2.wav,noise.wav,5,3,sp0.wav", "sp0.wav,noise.wav,5,4,c.wav"],
     "manifest line 2: output a.wav is the output of line 1"),
    (["sp0.wav,noise.wav,5,1,a.wav", "sp2.wav,noise.wav,5,3,sp0.wav",
      "sp0.wav,noise.wav,5,4,c.wav"],
     "manifest line 2: output sp0.wav is the speech input of line 1"),
    # a row's own input, and an input named only on a later line
    (["sp0.wav,noise.wav,5,1,a.wav", "sp1.wav,noise.wav,0,2,noise.wav"],
     "manifest line 2: output noise.wav is the noise input of line 1"),
    (["sp0.wav,noise.wav,5,1,a.wav", "a_clean.wav,noise.wav,0,2,b.wav"],
     "manifest line 1: clean output a_clean.wav is the speech input of line 2"),
    # paths are compared resolved against the manifest directory
    (["sp0.wav,noise.wav,5,1,a.wav", "sp1.wav,noise.wav,0,2,./a_clean.wav"],
     "manifest line 2: output ./a_clean.wav is the clean output of line 1"),
    (["sp0.wav,noise.wav,5,1,a_clean.wav", "sp1.wav,noise.wav,0,2,sub/../a.wav"],
     "manifest line 2: clean output sub/../a_clean.wav is the output of line 1"),
    # the files build_corpus reads or writes itself
    (["sp0.wav,noise.wav,5,1,a.wav", "sp1.wav,noise.wav,0,2,split.csv",
      "sp2.wav,noise.wav,0,3,c.wav"],
     "manifest line 2: output split.csv is the split file"),
    (["sp0.wav,noise.wav,5,1,a.wav", "sp1.wav,noise.wav,0,2,./stats.txt",
      "sp2.wav,noise.wav,0,3,c.wav"],
     "manifest line 2: output ./stats.txt is the statistics file"),
    (["sp0.wav,noise.wav,5,1,a.wav", "sp1.wav,noise.wav,0,2,manifest.csv",
      "sp2.wav,noise.wav,0,3,c.wav"],
     "manifest line 2: output manifest.csv is the manifest"),
    (["sp0.wav,noise.wav,5,1,a.wav", "sp1.wav,split.csv,0,2,b.wav"],
     "manifest line 2: noise input split.csv is the split file"),
], ids=["repeated_output", "output_is_speech", "output_is_noise", "clean_is_speech",
        "output_is_clean", "clean_is_output", "output_is_split", "output_is_stats",
        "output_is_manifest", "input_is_split"])
def test_build_corpus_rejects_an_output_that_overwrites(tmp_path, rows, message):
    manifest = _make_corpus_inputs(tmp_path)
    (tmp_path / "sub").mkdir()
    manifest.write_text("\n".join(rows) + "\n")
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    with pytest.raises(ValueError) as err:
        build_corpus(manifest, TINY, seed=0, out_dir=tmp_path)
    assert str(err.value) == message
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_load_corpus_round_trip(tmp_path):
    manifest = _make_corpus_inputs(tmp_path)
    built = build_corpus(manifest, TINY, seed=5, out_dir=tmp_path)
    loaded = load_corpus(manifest, tmp_path)
    assert loaded is not None
    assert loaded.train_pairs == built.train_pairs
    assert loaded.val_pairs == built.val_pairs
    assert np.array_equal(loaded.stats.mean, built.stats.mean)
    assert np.array_equal(loaded.stats.std, built.stats.std)
    assert (loaded.stft, loaded.seed) == (built.stft, built.seed) == (TINY, 5)

    # the manifest's rows count, not its comments, blank lines or spelling
    rows = manifest.read_text()
    manifest.write_text("# speech,noise,snr_db,seed,output\n\n"
                        + rows.replace(",5.0,", ",5,"))
    assert load_corpus(manifest, tmp_path).train_pairs == built.train_pairs
    manifest.write_text(rows.replace(",5.0,", ",-5.0,"))
    assert load_corpus(manifest, tmp_path) is None
    manifest.write_text(rows)

    (tmp_path / "stats.txt").write_bytes(b"seed = 5\n\xff\n")
    with pytest.raises(ValueError, match=r"stats\.txt line 2: not valid UTF-8"):
        load_corpus(manifest, tmp_path)
    (tmp_path / "stats.txt").unlink()
    assert load_corpus(manifest, tmp_path) is None
    build_corpus(manifest, TINY, seed=5, out_dir=tmp_path)
    Path(built.val_pairs[0][1]).unlink()
    assert load_corpus(manifest, tmp_path) is None
