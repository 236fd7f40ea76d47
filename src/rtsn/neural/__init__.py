"""Minimal differentiable numeric core used by the enhancement network."""

from .adam import AdamState, adam_update
from .engine import (
    Tensor,
    as_tensor,
    backward,
    concat,
    grads_for,
    parameter,
    reshape,
)
from .layers import (
    conv1d_freq,
    gather_steps,
    linear,
    lstm_cell,
    selu,
    stack_loss,
)

__all__ = [
    "AdamState",
    "Tensor",
    "adam_update",
    "as_tensor",
    "backward",
    "concat",
    "conv1d_freq",
    "gather_steps",
    "grads_for",
    "linear",
    "lstm_cell",
    "parameter",
    "reshape",
    "selu",
    "stack_loss",
]
