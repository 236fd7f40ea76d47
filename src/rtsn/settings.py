"""The `key = value` settings schema shared by config files, checkpoints
and corpus statistics.

A config key is a field name of a config dataclass (RtsnConfig, StftConfig,
TrainConfig) and its type is the type of the field's default: int, a
finite float, or a tuple of ints written comma-separated.  One writer and
one reader serve the config file, the checkpoint header and the statistics.
"""
from __future__ import annotations

import math
from dataclasses import asdict, fields
from typing import Callable


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def finite_floats(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(x) for x in text.split(","))


_PARSERS = {tuple: _int_tuple, float: _finite_float}


def schema(*classes: type, skip: tuple[str, ...] = ()) -> dict[str, Callable[[str], object]]:
    """Key -> value parser for every field of the given config dataclasses."""
    return {
        f.name: _PARSERS.get(type(f.default), type(f.default))
        for cls in classes
        for f in fields(cls)
        if f.name not in skip
    }


def decode_utf8(data: bytes, source) -> str:
    """data as UTF-8 text; bytes that are not valid UTF-8 raise a
    ValueError naming source and the line that holds them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{source} line {line}: not valid UTF-8 "
                         f"({data[e.start : e.end]!r})") from None


def format_settings(*configs) -> str:
    """One `key=value` line per field of each config dataclass or item of
    each dict, in order; a tuple or list is written comma-separated."""
    lines = []
    for config in configs:
        for key, value in (config if isinstance(config, dict) else asdict(config)).items():
            if isinstance(value, (tuple, list)):
                value = ",".join(str(x) for x in value)
            lines.append(f"{key}={value}")
    return "\n".join(lines)


def parse_settings(text: str, keys: dict[str, Callable[[str], object]],
                   source, required: bool = False) -> dict[str, object]:
    """Typed values of `key = value` lines; `#` starts a comment.

    A malformed line, an unknown or repeated key, and a value its key's
    parser rejects each raise a ValueError naming source, line and key;
    with required, so does a key of keys that text leaves out.
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
    missing = [k for k in keys if k not in values] if required else []
    if missing:
        raise ValueError(f"{source}: missing keys {missing}")
    return values


def build(cls: type, values: dict[str, object], **fixed):
    """An instance of cls from the values that name its fields, plus fixed."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in values.items() if k in names}, **fixed)
