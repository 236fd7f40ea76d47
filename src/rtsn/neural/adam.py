"""Adam optimizer with bias-corrected first and second moments."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# Values per block of an update: 128 KB in float32, so a block of the
# parameter, its gradient and moments and the two scratch blocks stay in a
# core's L2 across the update's passes.
_BLOCK = 1 << 15


@dataclass
class AdamState:
    learning_rate: float = 1e-4
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_update(state: AdamState, params: list[Tensor],
                grads: list[np.ndarray]) -> None:
    """Apply one Adam step in place.

    Parameter tensors are matched to moment buffers by name, so the same
    state can be reused across calls regardless of list order.  Every
    parameter and gradient is checked first (a name, a C-contiguous
    parameter, the parameter's shape, finite values), so an update that
    raises moves no parameter, moment or step count.

    Each parameter is updated in place, _BLOCK values at a time, through
    two block-sized scratch arrays, with gradients taken in the
    parameter's dtype.  Every expression keeps the operation order of
      m += (1 - BETA1) * (g - m),  v += (1 - BETA2) * (g * g - v),
      p -= lr * (m / correct1) / (sqrt(v / correct2) + EPS),
    so the bytes are those of the whole-array expressions.
    """
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params but {len(grads)} grads")
    checked = []
    for p, g in zip(params, grads):
        if p.name is None:
            raise ValueError("adam_update needs named parameters")
        if not p.data.flags.c_contiguous:
            raise ValueError(f"parameter {p.name} is not C-contiguous")
        g = np.asarray(g)
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} != parameter {p.name} shape {p.data.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {p.name}")
        checked.append((p, g))
    state.step += 1
    t = state.step
    correct1 = 1.0 - BETA1 ** t
    correct2 = 1.0 - BETA2 ** t
    for p, g in checked:
        dtype = p.data.dtype
        m = state.m.setdefault(p.name, np.zeros(p.data.shape, dtype))
        v = state.v.setdefault(p.name, np.zeros(p.data.shape, dtype))
        flats = [a.reshape(-1) for a in (p.data, np.ascontiguousarray(g, dtype), m, v)]
        scratch = np.empty((2, min(_BLOCK, p.data.size)), dtype)
        for lo in range(0, p.data.size, _BLOCK):
            pb, gb, mb, vb = (f[lo : lo + _BLOCK] for f in flats)
            a, b = scratch[:, : len(pb)]
            np.subtract(gb, mb, out=a)
            a *= 1.0 - BETA1
            mb += a
            np.multiply(gb, gb, out=a)
            a -= vb
            a *= 1.0 - BETA2
            vb += a
            np.divide(vb, correct2, out=b)
            np.sqrt(b, out=b)
            b += EPS
            np.divide(mb, correct1, out=a)
            a *= state.learning_rate
            a /= b
            pb -= a
