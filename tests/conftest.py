import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

# single-threaded numeric libraries for bit-identical reruns
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def use_workers(monkeypatch):
    """use_workers(n) runs the layers on n workers from then on, whatever
    the CPU count; the pools are shut down after the test."""
    import rtsn.neural.layers as layers

    pools = []

    def use(n):
        pools.append(ThreadPoolExecutor(n - 1) if n > 1 else None)
        monkeypatch.setattr(layers, "_POOL", (n, pools[-1]))

    yield use
    for pool in pools:
        if pool is not None:
            pool.shutdown()
