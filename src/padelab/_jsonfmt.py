"""Deterministic JSON emission, and the package's only number encoders.

Dicts are written in insertion order and floats with 17 significant
digits, so identical data always produces byte-identical files.
"""

from __future__ import annotations

import json
import math

from .rational import qc, to_complex


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite float")
    s = format(float(x), ".17g")
    # keep a numeric token that round-trips as float
    return s


def num(x):
    """JSON/CSV-safe number: None stays None, infinities become strings."""
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def num_pair(z) -> list:
    """[re, im] of a complex value, each part through :func:`num`."""
    return [num(z.real), num(z.imag)]


def pair(x, exact: bool) -> list:
    """[re, im] of a coefficient: rational strings when `exact`, else floats.

    Float parts stay plain floats, so a non-finite coefficient is refused
    when written rather than saved in a form the series loader rejects.
    """
    if exact:
        q = qc(x)
        return [str(q.re), str(q.im)]
    z = to_complex(x)
    return [float(z.real), float(z.imag)]


def dumps(obj, indent: int = 2) -> str:
    out: list[str] = []
    _emit(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(inner + json.dumps(key) + ": ")
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        seq = list(obj)
        # short numeric/string pairs stay on one line for readability
        if all(not isinstance(v, (dict, list, tuple)) for v in seq) and len(seq) <= 4:
            parts: list[str] = []
            for v in seq:
                sub: list[str] = []
                _emit(v, sub, indent, 0)
                parts.append("".join(sub))
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(inner)
            _emit(value, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
