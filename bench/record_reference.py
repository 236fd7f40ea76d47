"""Record the canary outputs of every workload into reference.json.

    python3 bench/record_reference.py

Run it only when a change is meant to alter the program's outputs; a change
that only reorders floating-point arithmetic must pass against the existing
reference within the tolerances in workloads.py.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import WORK_ROOT
from worker import BLAS_THREAD_VARS, ROOT

if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import REFERENCE_PATH, WORKLOADS

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK_ROOT))
    try:
        reference = {name: wl.canary(work / name) for name, wl in WORKLOADS.items()}
    finally:
        shutil.rmtree(work)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
