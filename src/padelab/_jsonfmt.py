"""Deterministic JSON emission, and the package's only result encoders.

:func:`record` turns any result into its JSON value; :func:`dumps`
writes dicts in insertion order and floats with 17 significant digits,
so identical data always produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .rational import QC, qc, to_complex


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
        return [str(obj.re), str(obj.im)]
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
