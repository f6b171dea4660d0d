"""Deterministic JSON emission, and the package's only result encoders.

:func:`record` turns any result into its JSON value; :func:`dumps`
writes dicts in insertion order and floats with 17 significant digits,
so identical data always produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str  # what json.dumps(str) calls

from .rational import QC, qc, to_complex

_CONTAINERS = (dict, list, tuple)
_PAD = "  "                     # the indent of one nesting level
_CHUNK = 600                    # digits, under 640: the least limit Python can be set to
_CHUNK_BASE = 10 ** _CHUNK


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite float")
    # .17g round-trips every double; an integral float is written without a
    # decimal point ("2", not "2.0")
    return format(float(x), ".17g")


def num(x):
    """JSON/CSV-safe number: None stays None, infinities become strings."""
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def record(obj):
    """The JSON value of a result, built from its dataclass fields.

    A dataclass becomes an object of its fields in declaration order, a
    tuple or list a list, a float goes through :func:`num`, a complex
    value becomes [num(re), num(im)] and a `QC` its [re, im] rational
    strings; None, bools, ints and strings pass through.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return num(obj)
    if isinstance(obj, complex):
        return [num(obj.real), num(obj.imag)]
    if isinstance(obj, QC):
        return [rational_text(obj.re), rational_text(obj.im)]
    if isinstance(obj, (tuple, list)):
        return [record(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: record(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot encode {type(obj).__name__} as a result")


def pair(x, exact: bool) -> list:
    """[re, im] of a coefficient: rational strings when `exact`, else floats.

    Float parts stay plain floats, so a non-finite coefficient is refused
    when written rather than saved in a form the series loader rejects.
    """
    if exact:
        return record(qc(x))
    z = to_complex(x)
    return [float(z.real), float(z.imag)]


def rational_text(x: Fraction) -> str:
    """str(x) at any length: past sys.get_int_max_str_digits(), where str()
    raises ValueError, each part is written in chunks of _CHUNK digits."""
    try:
        return str(x)
    except ValueError:
        text = _int_text(x.numerator)
        return text if x.denominator == 1 else f"{text}/{_int_text(x.denominator)}"


def _int_text(n: int) -> str:
    head, chunks = abs(n), []
    while head >= _CHUNK_BASE:
        head, low = divmod(head, _CHUNK_BASE)
        chunks.append(str(low).zfill(_CHUNK))
    return "-" * (n < 0) + str(head) + "".join(reversed(chunks))


def read_int(text: str) -> int:
    """int(text), for a plain ASCII [-]digits literal at any length: past
    the digit limit, where int() raises ValueError, it is read in chunks
    of _CHUNK digits.  Other text raises int()'s ValueError."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[:1] == "-" else text
        if not (digits.isascii() and digits.isdigit()):
            raise
    value = 0
    for i in range(0, len(digits), _CHUNK):
        value = value * 10 ** len(digits[i:i + _CHUNK]) + int(digits[i:i + _CHUNK])
    return -value if text[:1] == "-" else value


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, out, ["", _PAD], 0)
    out.append("\n")
    return "".join(out)


def _scalar(obj) -> str:
    """The JSON token of a scalar, testing the exact types first."""
    t = type(obj)
    if t is str:
        return _encode_str(obj)
    if t is float:
        return format_float(obj)
    if t is int:
        return str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _emit(obj, out: list[str], pads: list[str], level: int) -> None:
    """Append the tokens of `obj` at nesting `level`; pads[i] is the
    indent of level i, extended here one level at a time."""
    if not isinstance(obj, _CONTAINERS):
        out.append(_scalar(obj))
        return
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    if len(pads) == level + 1:
        pads.append(pads[1] * (level + 1))
    inner = pads[level + 1]
    if isinstance(obj, dict):
        out.append("{\n")
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(inner + _encode_str(key) + ": ")
            _emit(value, out, pads, level + 1)
            out.append(",\n")
        out[-1] = "\n"
        out.append(pads[level] + "}")
        return
    # up to four scalars (numeric/string pairs) stay on one line for readability
    if len(obj) <= 4 and not any(isinstance(v, _CONTAINERS) for v in obj):
        out.append("[" + ", ".join([_scalar(v) for v in obj]) + "]")
        return
    out.append("[\n")
    for value in obj:
        out.append(inner)
        _emit(value, out, pads, level + 1)
        out.append(",\n")
    out[-1] = "\n"
    out.append(pads[level] + "]")
