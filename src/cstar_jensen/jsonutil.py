"""Canonical JSON output.

Reports must be byte-stable across runs, so the writer fixes everything the
stdlib leaves open: keys are sorted, separators carry no whitespace and
floats are printed with 17 significant digits (enough to round-trip a
double). JSON has no number for inf, -inf or NaN, so they are written as
the strings "Infinity", "-Infinity" and "NaN", which any JSON parser reads
and float() turns back into the value.
"""
from __future__ import annotations

import json
import math


def format_float(value: float) -> str:
    if math.isinf(value):
        return '"Infinity"' if value > 0 else '"-Infinity"'
    if math.isnan(value):
        return '"NaN"'
    if value == int(value) and abs(value) < 1e16:
        return f"{value:.1f}"
    return f"{value:.17g}"


def canonical_dumps(obj) -> str:
    """Serialize obj to a canonical JSON string."""
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def _write(obj, parts: list[str]) -> None:
    if obj is None or obj is True or obj is False:
        parts.append(json.dumps(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for pos, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            if pos:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _write(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for pos, item in enumerate(obj):
            if pos:
                parts.append(",")
            _write(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
