"""rtsn benchmark: one workload per run, in a fresh single-BLAS-thread child.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that holds ``src/rtsn``; inputs are
generated from the seed into a temporary directory under ``bench/.work``
and removed afterwards.  Workloads: train_default and enhance_mixed (see
workloads.py and NOTES.md for why each exists).

With ``--trace 0`` the end-to-end metrics are reported: ``throughput`` (work
units per second: unmasked training frames, or audio seconds enhanced and
scored), ``setup_s`` and ``peak_rss_mb``.  With
``--trace 1`` the per-layer metrics are reported instead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import BLAS_THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = BENCH / ".work"
WORKLOADS = ("train_default", "enhance_mixed")
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate the inputs in one fresh child process, measure in another,
    and return the measuring child's result."""
    if not (ROOT / "src" / "rtsn" / "__init__.py").is_file():
        raise BenchError(f"no rtsn sources under {ROOT / 'src'}")
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        common = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                  "--seed", str(seed), "--work", str(work)]
        _run(common + ["--make-inputs"], deadline)
        _run(common + ["--seconds", str(seconds), "--trace", str(trace),
                       "--out", str(work / "result.json")], deadline)
        return json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


def _run(cmd: list[str], deadline: float) -> None:
    """Run a worker with BLAS pinned to one thread; it ends before we return."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {CHILD_TIMEOUT_S} s: {cmd[3:]}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {cmd[3:]}")


def report(result: dict) -> str:
    """Human-readable lines, then the one-line JSON result."""
    lines = [
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}; "
        f"unit = {result['unit']}",
        "round seconds " + " ".join(f"{w:.4f}" for w in result["round_walls"]),
    ]
    if result["setup_walls"]:
        lines.append("set-up seconds " + " ".join(f"{w:.4f}" for w in result["setup_walls"]))
    lines.append("machine " + json.dumps(result["machine"], sort_keys=True))
    for name, (value, unit) in result.get("headline", {}).items():
        lines.append(f"{name} {value:.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"ops_failed_ratio {failed / attempted:.6g} "
                 f"({failed} of {attempted} operations failed)")
    lines += [f"failure: {msg}" for msg in result["failures"]]
    for name, m in result["metrics"].items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in result.get("nesting_problems", []):
        lines.append(f"trace nesting problem: {problem}")
    lines.append(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_child(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
