"""Spans around calls into rtsn's public functions, recorded from outside.

``install(tracer)`` replaces each traced function with a timing wrapper in
every loaded ``rtsn`` module that holds it, because many are bound by
``from ... import`` into other modules (``stft`` into ``model``, ``gla``,
``corpus``, ``evalkit``, ``trainer`` and ``cli``); patching only the
defining module would silently read zero.  The returned callable puts the
originals back.

Layer functions in ``rtsn.neural.layers`` return one graph node with a
handwritten backward closure.  Their wrapper also replaces that node's
closure with a timed one, so backward time is attributed per layer without
touching the engine.  Spans nest: a span's parent is the span open when it
started, and a span's self time is its duration minus its direct children.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

perf_counter = time.perf_counter


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def timed(self, name: str | Callable, fn: Callable, after: Callable | None = None):
        """Wrap fn in a span; name may be a callable of the call's arguments.
        after(label, out, args) runs once the span has closed."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            idx = len(spans)
            spans.append([label, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if after is not None:
                after(label, out, args)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), kids in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - kids
        return out

    def nesting_problems(self) -> list[str]:
        """Spans whose children outlast them, or nested in a span of their
        own name (a function wrapped twice)."""
        problems = []
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                p = self.spans[parent]
                child_time[parent] += end - start
                if p[0] == name:
                    problems.append(f"{name} nested in itself")
                if start < p[1] or end > p[2]:
                    problems.append(f"{name} outside its parent {p[0]}")
        for (name, start, end, _), kids in zip(self.spans, child_time):
            if kids > (end - start) * (1 + 1e-9):
                problems.append(f"children of {name} outlast it")
        return sorted(set(problems))


def graph_size(root) -> int:
    """Nodes reachable from an autodiff tensor through its parents."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------


def _conv_name(x, kernels, bias) -> str:
    """conv0..3 from the kernel tensor's parameter name ("conv2.weight")."""
    label = getattr(kernels, "name", None) or "conv"
    return f"layers.{label.split('.')[0]}.fwd"


def _layer_hook(tracer: Tracer):
    """After a layer's forward: time its backward closure, count conv FLOPs.

    FLOPs are computed from shapes: a conv forward is one multiply-add per
    (batch, out channel, in channel, tap, bin); its backward does that once
    for the kernel gradient and once more for the input gradient when the
    input needs one.
    """

    def after(label, out, args):
        base = label[: -len(".fwd")]
        flops = 0.0
        if base.startswith("layers.conv"):
            (b, c_in, n), (c_out, _, k) = args[0].shape, args[1].shape
            flops = 2.0 * b * c_out * c_in * k * n
            tracer.counters[f"{base}.fwd_flops"] += flops
        if out._backward is None:
            return
        closure = out._backward
        bwd_flops = flops * (2.0 if out._parents[0].requires_grad else 1.0)

        def counted(g):
            tracer.counters[f"{base}.bwd_flops"] += bwd_flops
            return closure(g)

        out._backward = tracer.timed(f"{base}.bwd", counted)

    return after


def _targets(tracer: Tracer) -> list[tuple[str, str, object, Callable | None]]:
    """(defining module, function, span name, after-hook) for every span."""
    c = tracer.counters

    def count_train_graph(label, out, args):
        c["engine.graph_nodes"] += graph_size(args[0])
        c["engine.graphs"] += 1

    def count_enhance_graph(label, result, args):
        if tracer.current() == "model.enhance_lps":
            c["engine.graph_nodes"] += graph_size(result.x_hat)
            c["engine.graphs"] += 1

    def count_gla(label, out, args):
        c["gla.iterations"] += args[2].iterations

    layer = _layer_hook(tracer)
    return [
        ("rtsn.neural.layers", "conv1d_freq", _conv_name, layer),
        ("rtsn.neural.layers", "selu", "layers.selu.fwd", layer),
        ("rtsn.neural.layers", "lstm_cell", "layers.lstm_cell.fwd", layer),
        ("rtsn.neural.layers", "linear", "layers.linear.fwd", layer),
        ("rtsn.neural.layers", "gather_steps", "layers.gather_steps.fwd", layer),
        ("rtsn.neural.engine", "grads_for", "engine.grads_for", count_train_graph),
        ("rtsn.neural.adam", "adam_update", "adam.update", None),
        ("rtsn.model", "forward_chunk", "model.forward_chunk", count_enhance_graph),
        ("rtsn.model", "enhance_lps", "model.enhance_lps", None),
        ("rtsn.model", "load_checkpoint", "model.load_checkpoint", None),
        ("rtsn.trainer", "train", "trainer.train", None),
        ("rtsn.trainer", "load_utterances", "trainer.load_utterances", None),
        ("rtsn.trainer", "evaluate", "trainer.evaluate", None),
        ("rtsn.dsp", "stft", "dsp.stft", None),
        ("rtsn.dsp", "istft", "dsp.istft", None),
        ("rtsn.gla", "griffin_lim", "gla.griffin_lim", count_gla),
        ("rtsn.corpus", "read_wav", "corpus.read_wav", None),
        ("rtsn.corpus", "write_wav", "corpus.write_wav", None),
        ("rtsn.corpus", "mix_with_reference", "corpus.mix", None),
        ("rtsn.corpus", "compute_norm_stats", "corpus.compute_norm_stats", None),
        ("rtsn.corpus", "build_corpus", "corpus.build_corpus", None),
        ("rtsn.corpus", "load_corpus", "corpus.load_corpus", None),
        ("rtsn.evalkit", "global_snr", "evalkit.global_snr", None),
        ("rtsn.evalkit", "segmental_snr", "evalkit.segmental_snr", None),
        ("rtsn.evalkit", "log_spectral_distance", "evalkit.log_spectral_distance", None),
        ("rtsn.evalkit", "spectrogram_image_bytes", "evalkit.spectrogram", None),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every binding of every traced function; return the undo."""
    for module in ("rtsn", "rtsn.cli"):
        importlib.import_module(module)
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "rtsn" or n.startswith("rtsn."))]
    undo = []
    for module_name, attr, name, after in _targets(tracer):
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.timed(name, original, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                    undo.append((m, key, original))

    def restore() -> None:
        for m, key, original in reversed(undo):
            setattr(m, key, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CONVS = 4  # conv_channels = (256, 128, 64, 1) at the default config
LAYERS = ("selu", "lstm_cell", "linear", "gather_steps")
SPAN_MS = (
    ("engine.grads_for_ms", "engine.grads_for"),
    ("adam.update_ms", "adam.update"),
    ("model.forward_chunk_ms", "model.forward_chunk"),
    ("model.enhance_lps_ms", "model.enhance_lps"),
    ("model.load_checkpoint_ms", "model.load_checkpoint"),
    ("trainer.load_utterances_ms", "trainer.load_utterances"),
    ("trainer.evaluate_ms", "trainer.evaluate"),
    ("dsp.stft_ms", "dsp.stft"),
    ("dsp.istft_ms", "dsp.istft"),
    ("gla.griffin_lim_ms", "gla.griffin_lim"),
    ("corpus.read_wav_ms", "corpus.read_wav"),
    ("corpus.write_wav_ms", "corpus.write_wav"),
    ("corpus.mix_ms", "corpus.mix"),
    ("corpus.compute_norm_stats_ms", "corpus.compute_norm_stats"),
    ("corpus.build_corpus_ms", "corpus.build_corpus"),
    ("corpus.load_corpus_ms", "corpus.load_corpus"),
    ("evalkit.global_snr_ms", "evalkit.global_snr"),
    ("evalkit.segmental_snr_ms", "evalkit.segmental_snr"),
    ("evalkit.log_spectral_distance_ms", "evalkit.log_spectral_distance"),
    ("evalkit.spectrogram_ms", "evalkit.spectrogram"),
)
SELF_MS = (
    ("engine.backward_self_ms", "engine.grads_for"),
    ("model.forward_self_ms", "model.forward_chunk"),
    ("trainer.self_ms", "trainer.train"),
)


def per_layer_metrics(phases, sgemm_peak_gflops: float,
                      overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    phases is a list of (summary, counters, weight).  Times and counts are
    for one set-up plus one timed round: the set-up phase has weight 1 and
    the rounds phase 1/rounds.  Percent of peak divides computed FLOPs by
    span time and by the sgemm peak measured in the same run.
    """
    total, own, calls, count = (defaultdict(float) for _ in range(4))
    for summary, counters, weight in phases:
        for name, row in summary.items():
            total[name] += row["total_s"] * weight
            own[name] += row["self_s"] * weight
            calls[name] += row["calls"] * weight
        for name, value in counters.items():
            count[name] += value * weight

    def pct(flops: float, seconds: float) -> float:
        return 100.0 * flops / seconds / 1e9 / sgemm_peak_gflops if seconds > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    for i in range(CONVS):
        base = f"layers.conv{i}"
        for d in ("fwd", "bwd"):
            m[f"{base}.{d}_ms"] = (1e3 * total[f"{base}.{d}"], "ms")
        for d in ("fwd", "bwd"):
            m[f"{base}.{d}_pct_peak"] = (pct(count[f"{base}.{d}_flops"],
                                             total[f"{base}.{d}"]), "%")
    for layer in LAYERS:
        for d in ("fwd", "bwd"):
            m[f"layers.{layer}.{d}_ms"] = (1e3 * total[f"layers.{layer}.{d}"], "ms")
    m["layers.lstm_cell.calls"] = (calls["layers.lstm_cell.fwd"], "count")
    for metric, span in SPAN_MS:
        m[metric] = (1e3 * total[span], "ms")
    for metric, span in SELF_MS:
        m[metric] = (1e3 * own[span], "ms")
    graphs = count["engine.graphs"]
    m["engine.graph_nodes"] = (count["engine.graph_nodes"] / graphs if graphs else 0.0,
                               "count")
    m["dsp.stft_calls"] = (calls["dsp.stft"], "count")
    m["gla.iterations"] = (count["gla.iterations"], "count")
    m["machine.sgemm_peak_gflops"] = (sgemm_peak_gflops, "GFLOP/s")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
