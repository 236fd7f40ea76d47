"""Run one benchmark workload in this process and write its result as JSON.

``run.py`` starts this as a fresh child process per run, so each workload's
peak RSS is its own.  BLAS thread pools are pinned to one thread before
numpy is imported, as ``rtsn.cli`` does by default, because one thread is
what keeps reruns bit-identical.

    python3 bench/worker.py --workload NAME --seed N --work DIR --make-inputs
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --work DIR --out FILE

The first form writes the seeded inputs and exits; ``run.py`` runs it in a
process of its own, so the measuring process starts with a clean heap
whatever the seed generated.

Untraced (``--trace 0``): set up SETUP_REPS times and report the median,
then run timed rounds for the given seconds and report the median round.
Traced (``--trace 1``): set up once under the tracer, run rounds untraced
for half the seconds, then traced for the other half; the per-layer
metrics come from the traced phases and the ratio of the two round rates
gives the tracing overhead.  Both modes finish with the canary check and a
single-thread float32 sgemm peak measurement.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
SETUP_REPS = 7
ROOT = Path(__file__).resolve().parent.parent


def run_rounds(workload, state, seconds: float, ops) -> list[dict]:
    """Timed rounds, at least one; another starts only if a round as long
    as the last one would still end within the time budget."""
    rounds: list[dict] = []
    spent = 0.0
    while True:
        r = workload.run_round(state, ops)
        rounds.append(r)
        spent += r["wall_s"]
        if spent + r["wall_s"] > seconds:
            return rounds


def sgemm_peak_gflops(n: int = 2048, reps: int = 3) -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b
    best = float("inf")
    for _ in range(reps):
        tick = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - tick)
    return 2.0 * n**3 / best / 1e9


def machine_info(peak: float) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "sgemm_peak_gflops": peak,
    }


def execute(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import rtsn
    import tracing
    from workloads import WORKLOADS, Ops, check_canary, median_rate

    src = ROOT / "src"
    if Path(rtsn.__file__).resolve().parent.parent != src:
        raise ImportError(f"rtsn imported from {rtsn.__file__}, not from {src}")
    workload = WORKLOADS[name](work / "run", seed)
    ops = Ops()
    out: dict = {}
    if trace:
        setup_tracer = tracing.Tracer()
        restore = tracing.install(setup_tracer)
        try:
            state = workload.setup()
        finally:
            restore()
        workload.check_setup(state, ops)
        untraced = run_rounds(workload, state, seconds / 2, ops)
        round_tracer = tracing.Tracer()
        restore = tracing.install(round_tracer)
        try:
            traced = run_rounds(workload, state, seconds / 2, ops)
        finally:
            restore()
        state = None
        out["round_walls"] = [r["wall_s"] for r in untraced + traced]
        out["spans"] = {"setup": setup_tracer.summary(), "rounds": round_tracer.summary()}
        out["nesting_problems"] = (setup_tracer.nesting_problems()
                                   + round_tracer.nesting_problems())
        phases = [(out["spans"]["setup"], setup_tracer.counters, 1.0),
                  (out["spans"]["rounds"], round_tracer.counters, 1.0 / len(traced))]
        out["setup_walls"] = []
        overhead_pct = 100.0 * (median_rate(untraced) / median_rate(traced) - 1.0)
    else:
        setup_s = []
        for _ in range(SETUP_REPS):
            state = None  # release the previous set-up before timing the next
            tick = time.perf_counter()
            state = workload.setup()
            setup_s.append(time.perf_counter() - tick)
            workload.check_setup(state, ops)
        rounds = run_rounds(workload, state, seconds, ops)
        out["setup_walls"] = setup_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        state = None
        out["round_walls"] = [r["wall_s"] for r in rounds]
        out["headline"] = workload.headline(rounds)
        metrics = {
            "throughput": (median_rate(rounds), "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    check_canary(workload, work / "canary", ops)
    peak = sgemm_peak_gflops()
    if trace:
        metrics = tracing.per_layer_metrics(phases, peak, overhead_pct)
    out.update(
        workload=name, seed=seed, trace=int(trace), unit=workload.unit,
        attempted=ops.attempted, failed=ops.failed, failures=ops.failures,
        machine=machine_info(peak),
        metrics={k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--make-inputs", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.make_inputs:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.work / "run", args.seed).make_inputs()
        return 0
    if args.seconds is None or args.trace is None or args.out is None:
        parser.error("--seconds, --trace and --out are required unless --make-inputs")
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace), args.work)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
