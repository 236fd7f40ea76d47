"""The `key = value` settings schema shared by config files and checkpoints.

A key is a field name of a config dataclass (RtsnConfig, StftConfig,
TrainConfig) and its type is the type of the field's default: int, a
finite float, or a tuple of ints written comma-separated.  One writer and
one reader serve both the `rtsn train --config` file and the checkpoint
header.
"""
from __future__ import annotations

import math
from dataclasses import fields
from typing import Callable


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


_PARSERS = {tuple: _int_tuple, float: _finite_float}


def schema(*classes: type, skip: tuple[str, ...] = ()) -> dict[str, Callable[[str], object]]:
    """Key -> value parser for every field of the given config dataclasses."""
    return {
        f.name: _PARSERS.get(type(f.default), type(f.default))
        for cls in classes
        for f in fields(cls)
        if f.name not in skip
    }


def format_settings(*configs) -> str:
    """One `key=value` line per field, in declaration order."""
    lines = []
    for config in configs:
        for f in fields(config):
            value = getattr(config, f.name)
            if isinstance(f.default, tuple):
                value = ",".join(str(x) for x in value)
            lines.append(f"{f.name}={value}")
    return "\n".join(lines)


def parse_settings(text: str, keys: dict[str, Callable[[str], object]],
                   source) -> dict[str, object]:
    """Typed values of `key = value` lines; `#` starts a comment.

    A malformed line, an unknown or repeated key, and a value its key's
    parser rejects each raise a ValueError naming source, line and key.
    """
    values: dict[str, object] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        where = f"{source} line {ln}"
        if not sep or not key or not value:
            raise ValueError(f"{where}: expected `key = value`, got {raw!r}")
        if key not in keys:
            raise ValueError(f"{where}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = keys[key](value)
        except ValueError:
            raise ValueError(f"{where}: bad value {value!r} for key {key!r}") from None
    return values


def build(cls: type, values: dict[str, object], **fixed):
    """An instance of cls from the values that name its fields, plus fixed."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in values.items() if k in names}, **fixed)
