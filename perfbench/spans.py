"""In-memory spans around padelab's layer functions, and their per-layer metrics.

`Tracer.install()` replaces each traced function at every name a padelab
module binds it to (`padelab.pade.svd`, `padelab.analysis.svd`, ...),
so calls between layers pass through a wrapper that records a span:
name, parent span, start and end, and counts read off the arguments and
result.  `Tracer.uninstall()` puts the originals back.

A span's self time is its duration minus the time its direct children
took.  A child's time runs from its wrapper's entry to its exit, so the
tracer's own bookkeeping is charged to no layer.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from dataclasses import dataclass, field

# Traced functions as (module, name); each is a layer boundary the
# package's own modules call across.
TRACED = (
    ("series", "load_series"),
    ("series", "eval_series"),
    ("series", "build_counterexample_series"),
    ("toeplitz", "build_pair"),
    ("toeplitz", "check_sum_bounds"),
    ("linalg", "svd"),
    ("linalg", "exact_nullspace"),
    ("linalg", "exact_sigma_ratio_bounds"),
    ("pade", "classical_pade"),
    ("pade", "robust_pade"),
    ("analysis", "find_poles"),
    ("analysis", "verify_counterexample"),
    ("analysis", "divergence_scan"),
    ("cli", "main"),
)

# System orders that get their own `.nN` self-time split; other orders
# land in `.nother`.
SIZES = (2, 6, 14, 30, 38, 62)
SIZED = ("linalg.svd", "linalg.exact_nullspace", "linalg.exact_sigma_ratio_bounds")


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    enter: float = 0.0       # wrapper entry, before bookkeeping
    start: float = 0.0       # call into the original function
    end: float = 0.0         # return from the original function
    exit: float = 0.0        # wrapper exit, after bookkeeping
    counts: dict = field(default_factory=dict)


def self_times(spans: list) -> dict:
    """Self time of each span id: its duration minus its children's footprints."""
    own = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.exit - s.enter
    return own


def _rows(mat) -> int:
    rows = getattr(mat, "rows", None)
    if isinstance(rows, int):
        return rows
    return len(mat)


def _bits(x) -> int:
    """Bits of a rational or Gaussian rational (numerators plus denominators)."""
    parts = (x.re, x.im) if hasattr(x, "re") else (x,)
    return sum(abs(p.numerator).bit_length() + p.denominator.bit_length() for p in parts)


def _count_svd(span, args, result, exc):
    import numpy as np

    mat = args[0]
    arr = mat.to_numpy() if hasattr(mat, "to_numpy") else np.asarray(mat, dtype=complex)
    span.counts["n"] = _rows(mat)
    span.counts["key"] = hashlib.blake2b(arr.tobytes(), digest_size=16).digest()
    if result is not None:
        span.counts["sweeps"] = result.sweeps


def _count_nullspace(span, args, result, exc):
    span.counts["n"] = _rows(args[0])
    vec = result
    if exc is not None and hasattr(exc, "basis"):
        span.counts["rank_deficient"] = 1
        vec = exc.basis[0]
    if vec is not None:
        span.counts["out_bits"] = sum(_bits(x) for x in vec)


def _count_oracle(span, args, result, exc):
    span.counts["n"] = _rows(args[0])
    if result is not None:
        span.counts["poly_bits"] = max(_bits(c) for c in result.char_poly)


def _count_robust(span, args, result, exc):
    if result is not None:
        span.counts["reductions"] = len(result.diagnostics.reductions)


def _count_poles(span, args, result, exc):
    if result is not None:
        span.counts["kept"] = len(result.poles)
        span.counts["roots"] = len(result.poles) + len(result.discarded)


COUNTERS = {
    "linalg.svd": _count_svd,
    "linalg.exact_nullspace": _count_nullspace,
    "linalg.exact_sigma_ratio_bounds": _count_oracle,
    "pade.robust_pade": _count_robust,
    "analysis.find_poles": _count_poles,
}


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            span = Span(len(self.spans), self._stack[-1] if self._stack else None, name, enter)
            self.spans.append(span)
            self._stack.append(span.sid)
            result = exc = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span.end = clock()
                self._stack.pop()
                if counter is not None:
                    counter(span, args, result, exc)
                span.exit = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each padelab name bound to it."""
        for mod_name, fn_name in TRACED:
            home = importlib.import_module(f"padelab.{mod_name}")
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if (name == "padelab" or name.startswith("padelab.")) \
                        and getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def take(self) -> list:
        """Spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans


def metric_names() -> list:
    """Every per-layer metric `layer_metrics` reports, in a fixed order."""
    names = []
    for mod_name, fn_name in TRACED:
        base = f"{mod_name}.{fn_name}"
        names += [f"{base}.self_s", f"{base}.calls"]
        if base in SIZED:
            names += [f"{base}.self_s.n{n}" for n in SIZES] + [f"{base}.self_s.nother"]
    names += [
        "linalg.svd.sweeps", "linalg.svd.unique_ratio",
        "linalg.exact_nullspace.out_bits", "linalg.exact_nullspace.rank_deficient",
        "linalg.exact_sigma_ratio_bounds.poly_bits",
        "pade.robust_pade.reductions", "pade.robust_pade.svd_per_call",
        "analysis.find_poles.kept_ratio",
    ]
    return names


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass's spans; absent layers read 0."""
    out = dict.fromkeys(metric_names(), 0)
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    keys = set()
    kept = roots = 0
    for s in spans:
        out[f"{s.name}.self_s"] += own[s.sid]
        out[f"{s.name}.calls"] += 1
        if s.name in SIZED:
            n = s.counts.get("n")
            out[f"{s.name}.self_s.n{n if n in SIZES else 'other'}"] += own[s.sid]
        if s.name == "linalg.svd":
            out["linalg.svd.sweeps"] += s.counts.get("sweeps", 0)
            keys.add(s.counts["key"])
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "pade.robust_pade":
                out["pade.robust_pade.svd_per_call"] += 1
        elif s.name == "linalg.exact_nullspace":
            out["linalg.exact_nullspace.out_bits"] += s.counts.get("out_bits", 0)
            out["linalg.exact_nullspace.rank_deficient"] += s.counts.get("rank_deficient", 0)
        elif s.name == "linalg.exact_sigma_ratio_bounds":
            out["linalg.exact_sigma_ratio_bounds.poly_bits"] += s.counts.get("poly_bits", 0)
        elif s.name == "pade.robust_pade":
            out["pade.robust_pade.reductions"] += s.counts.get("reductions", 0)
        elif s.name == "analysis.find_poles":
            kept += s.counts.get("kept", 0)
            roots += s.counts.get("roots", 0)
    if out["linalg.svd.calls"]:
        out["linalg.svd.unique_ratio"] = len(keys) / out["linalg.svd.calls"]
    if out["pade.robust_pade.calls"]:
        out["pade.robust_pade.svd_per_call"] /= out["pade.robust_pade.calls"]
    if roots:
        out["analysis.find_poles.kept_ratio"] = kept / roots
    return out
