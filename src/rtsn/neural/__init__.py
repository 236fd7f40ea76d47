"""Minimal differentiable numeric core used by the enhancement network."""

from .adam import AdamState, adam_update
from .engine import (
    Tensor,
    add,
    as_tensor,
    backward,
    concat,
    grads_for,
    mul,
    parameter,
    reshape,
    square,
    sub,
    transpose,
    tsum,
)
from .layers import (
    SELU_ALPHA,
    SELU_SCALE,
    conv1d_freq,
    gather_steps,
    linear,
    lstm_cell,
    selu,
)

__all__ = [
    "AdamState",
    "SELU_ALPHA",
    "SELU_SCALE",
    "Tensor",
    "adam_update",
    "add",
    "as_tensor",
    "backward",
    "concat",
    "conv1d_freq",
    "gather_steps",
    "grads_for",
    "linear",
    "lstm_cell",
    "mul",
    "parameter",
    "reshape",
    "selu",
    "square",
    "sub",
    "transpose",
    "tsum",
]
