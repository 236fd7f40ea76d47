"""Adam optimizer with bias-corrected first and second moments."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


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
    state can be reused across calls regardless of list order.
    """
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params but {len(grads)} grads")
    state.step += 1
    t = state.step
    correct1 = 1.0 - BETA1 ** t
    correct2 = 1.0 - BETA2 ** t
    for p, g in zip(params, grads):
        if p.name is None:
            raise ValueError("adam_update needs named parameters")
        g = np.asarray(g)
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} != parameter {p.name} shape {p.data.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {p.name}")
        m = state.m.setdefault(p.name, np.zeros_like(p.data))
        v = state.v.setdefault(p.name, np.zeros_like(p.data))
        m += (1.0 - BETA1) * (g - m)
        v += (1.0 - BETA2) * (g * g - v)
        m_hat = m / correct1
        v_hat = v / correct2
        p.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
