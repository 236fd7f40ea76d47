"""Self-checks of the benchmark itself (outside the main `tests/` suite).

    python3 -m pytest -q bench/

Traced runs of each workload at the shortest length check that every traced
function is reached exactly where it should be, that spans nest the way the
self-time arithmetic assumes, and that the output matches BENCHMARK.json.
About two minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

LAYER_SPANS = {f"layers.{layer}.{d}" for d in ("fwd", "bwd")
               for layer in ("conv0", "conv1", "conv2", "conv3", "selu",
                             "lstm_cell", "linear", "gather_steps")}
FORWARD_SPANS = {s for s in LAYER_SPANS if s.endswith(".fwd")}
CORPUS_BUILD = {"corpus.read_wav", "corpus.write_wav", "corpus.mix",
                "corpus.compute_norm_stats", "corpus.build_corpus",
                "corpus.load_corpus", "dsp.stft"}
EVALKIT = {"evalkit.global_snr", "evalkit.segmental_snr",
           "evalkit.log_spectral_distance", "evalkit.spectrogram"}
# Training reaches every layer both ways and builds its corpus in set-up;
# enhancing never reaches a backward span, the optimizer or the trainer.
REACHED = {
    "train_default": LAYER_SPANS | CORPUS_BUILD | {
        "engine.grads_for", "adam.update", "model.forward_chunk", "trainer.train",
        "trainer.load_utterances", "trainer.evaluate"},
    "enhance_mixed": FORWARD_SPANS | EVALKIT | {
        "model.forward_chunk", "model.enhance_lps", "model.load_checkpoint",
        "dsp.stft", "dsp.istft", "gla.griffin_lim", "corpus.read_wav",
        "corpus.write_wav"},
}


@pytest.fixture(scope="module", params=sorted(REACHED))
def traced(request):
    return run.run_child(request.param, seed=7, seconds=1, trace=1)


def test_traced_run_reaches_exactly_the_expected_functions(traced):
    spans = traced["spans"]
    reached = {name for phase in spans.values() for name in phase}
    assert reached == REACHED[traced["workload"]]


def test_spans_nest_and_self_times_add_up(traced):
    assert traced["nesting_problems"] == []
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    layer_fwd = sum(m[f"{s.replace('.fwd', '.fwd_ms')}"] for s in FORWARD_SPANS)
    layer_bwd = sum(m[f"{s.replace('.bwd', '.bwd_ms')}"]
                    for s in LAYER_SPANS - FORWARD_SPANS)
    assert m["model.forward_chunk_ms"] == pytest.approx(
        m["model.forward_self_ms"] + layer_fwd, rel=1e-9, abs=1e-9)
    assert m["engine.grads_for_ms"] == pytest.approx(
        m["engine.backward_self_ms"] + layer_bwd, rel=1e-9, abs=1e-9)
    assert all(m[k] >= 0 for k in ("model.forward_self_ms", "engine.backward_self_ms",
                                    "trainer.self_ms"))


def test_traced_output_names_every_per_layer_metric(traced):
    assert traced["failed"] == 0, traced["failures"]
    got = {k: v["unit"] for k, v in traced["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_untraced_run_ends_with_the_result_line():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_default", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    out = subprocess.run(SPEC["command"] + ["--workload", "train_default", "--seed", "1",
                                            "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_install_patches_every_from_import_binding_and_restores():
    import rtsn.dsp
    import rtsn.gla
    import rtsn.model

    original = rtsn.dsp.stft
    restore = tracing.install(tracing.Tracer())
    try:
        for module in (rtsn.dsp, rtsn.gla, rtsn.model):
            assert module.stft is not original
            assert module.stft.__wrapped__ is original
    finally:
        restore()
    assert rtsn.gla.stft is original and rtsn.model.stft is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_canary_tolerance_accepts_reordering_and_rejects_changes(name):
    wl = workloads.WORKLOADS[name]
    ref = workloads.load_reference()[name]
    assert wl.compare(ref, ref) == []

    def shifted(scale):
        out = json.loads(json.dumps(ref))
        for key, value in out.items():
            if key != "split":
                arr = [x * (1 + scale) for x in value] if not isinstance(value[0], list) \
                    else [[x * (1 + scale) for x in row] for row in value]
                out[key] = arr
        return out

    assert wl.compare(shifted(1e-12), ref) == []
    assert wl.compare(shifted(0.05), ref) != []
