"""The JSON wire format, written and read in one place.

Reports must be byte-stable across runs, so the writer fixes everything the
stdlib leaves open: keys are sorted, separators carry no whitespace and
floats are printed with 17 significant digits (enough to round-trip a
double), an integral one below 1e17 with a trailing ".0", so that every
float reads back as a float. JSON has no number
for inf, -inf or NaN, so they are written as the strings of NON_FINITE.
The writer dispatches on the exact type of each value, falling back to
isinstance for subclasses such as np.float64, and quotes strings with the
stdlib's encode_basestring_ascii, the quoting json.dumps gives a str.
A value of no JSON type that has a canonical_json() method carries its own
canonical text, and the writer puts that text in place: a worst input
held as a vector row (identities) writes itself from its array through
algebra.obj_text, byte for byte what its to_obj() would give.
Every field of a scenario is read through require_field, number, integers
and items, which refuse a malformed value with a ValidationError that
names the field.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

from .errors import ValidationError

# the strings that stand for the floats JSON has no number for
NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}
_NON_FINITE_TOKENS = {repr(value): _quote(token) for token, value in NON_FINITE.items()}


def format_float(value: float) -> str:
    if not math.isfinite(value):
        return _NON_FINITE_TOKENS[repr(float(value))]
    # below 1e17, .17g prints an integral value with no exponent and no "."
    if abs(value) < 1e17 and value == int(value):
        return f"{value:.1f}"
    return f"{value:.17g}"


def canonical_dumps(obj) -> str:
    """Serialize obj to a canonical JSON string."""
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def _write(obj, parts: list[str]) -> None:
    """Append the tokens of obj to parts. Each opening bracket or comma goes
    out with the token after it, and a float in a list without a call."""
    kind = type(obj)
    if kind is float:
        parts.append(format_float(obj))
    elif kind is list or kind is tuple:
        sep = "["
        for item in obj:
            if type(item) is float:
                parts.append(sep + format_float(item))
            else:
                parts.append(sep)
                _write(item, parts)
            sep = ","
        parts.append("]" if sep == "," else "[]")
    elif kind is dict:
        sep = "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            parts.append(sep + _quote(key) + ":")
            _write(obj[key], parts)
            sep = ","
        parts.append("}" if sep == "," else "{}")
    elif kind is str:
        parts.append(_quote(obj))
    elif kind is int:
        parts.append(str(obj))
    elif obj is None:
        parts.append("null")
    elif kind is bool:
        parts.append("true" if obj else "false")
    # a value that carries its own canonical text
    elif hasattr(obj, "canonical_json"):
        parts.append(obj.canonical_json())
    # a subclass (np.float64 is a float) is written as its base type
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, dict):
        _write({key: obj[key] for key in obj}, parts)
    elif isinstance(obj, (list, tuple)):
        _write(list(obj), parts)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def require_field(obj, name: str, section: str):
    """obj[name] from a decoded JSON object, or a ValidationError that names
    the section and the field."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{section} must be an object, got {obj!r}")
    if name not in obj:
        raise ValidationError(f"{section} is missing the {name!r} field")
    return obj[name]


def number(kind, value, name: str):
    """The int or float (kind) of a JSON number field: a number that is not
    a bool, integral for int, or for float a NON_FINITE string."""
    if kind is float and isinstance(value, str) and value in NON_FINITE:
        return NON_FINITE[value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is int and (isinstance(value, int) or value.is_integer()):
            return int(value)
        if kind is float:
            try:
                return float(value)
            except OverflowError:
                pass
    what = "an integer" if kind is int else "a number"
    raise ValidationError(f"{name} must be {what}, got {value!r}")


def integers(value, name: str) -> tuple[int, ...]:
    """A list of integers for a JSON field."""
    return tuple(number(int, v, name) for v in items(value, name, "a list of integers"))


def items(value, name: str, what: str = "a list", length: int | None = None) -> list:
    """A JSON list field, of length entries when length is given."""
    if not isinstance(value, list) or length is not None and len(value) != length:
        raise ValidationError(f"{name} must be {what}, got {value!r}")
    return value
