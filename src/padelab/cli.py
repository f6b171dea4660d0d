"""Command-line front end: pade-lab generate | approximate | verify | scan.

Subcommands write one machine-readable file each (deterministic bytes:
stable field order, 17-significant-digit floats) and print a one-line
summary to stdout.  Exit codes: 0 success, 2 validation or usage
problem, 3 numerical failure.  The environment variable PADE_LAB_MAX_N
(default 512) caps the linear system order any subcommand may build.
Rational literals like 1/4 are accepted anywhere a number is expected,
so exact-mode runs work from the shell; `scan` takes any other number,
such as 0.5j, at the exact value of its double.  The solver modules (and
numpy) are imported by the subcommands that solve, so `generate` runs
without them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import _jsonfmt
from .errors import NumericalError, UsageError
from .series import (
    GammelParams,
    PoleSequence,
    _literal,
    block_order,
    build_counterexample_series,
    build_gammel_series,
    load_series,
    save_series,
)

ENV_MAX_N = "PADE_LAB_MAX_N"
DEFAULT_MAX_N = 512


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_number(token: str):
    """Rational if possible (exactness preserved, at any length), else complex."""
    token = token.strip()
    try:
        return _literal(token, {})
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return complex(token)
    except ValueError:
        raise UsageError(f"cannot parse number {token!r} "
                         "(use integers, rationals like 1/4, or decimals)") from None


def _parse_number_list(spec: str) -> tuple:
    items = [tok for tok in spec.split(",") if tok.strip()]
    if not items:
        raise UsageError(f"empty number list {spec!r}")
    return tuple(_parse_number(tok) for tok in items)


def _parse_range(spec: str, what: str) -> tuple:
    """'2..5' -> (2, 5); a bare integer means a single-element range."""
    lo, sep, hi = spec.partition("..")
    try:
        lo_v = int(lo)
        hi_v = int(hi) if sep else lo_v
    except ValueError:
        raise UsageError(f"bad {what} {spec!r} (expected like 2..5)") from None
    if hi_v < lo_v:
        raise UsageError(f"empty {what} {spec!r}")
    return (lo_v, hi_v)


def _parse_poles(spec: str, k_hi: int, start_index: int = 2) -> PoleSequence:
    """A pole scheme named in `spec` through z_(k_hi), or its explicit list from
    z_(start_index); scheme poles are z_2, z_3, ..., so they need start_index 2."""
    name = spec.strip().lower().replace("-", "_")
    if name not in ("harmonic", "harmonic_repeated"):
        return PoleSequence.explicit(_parse_number_list(spec), start_index)
    if start_index != 2:
        raise UsageError(f"poles indexed from k = {start_index} take an explicit list, "
                         "not a scheme name")
    return getattr(PoleSequence, name)(k_hi)


def _max_n_from_env() -> int:
    raw = os.environ.get(ENV_MAX_N)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{ENV_MAX_N}={raw!r} is not an integer") from None
    if value < 1:
        raise UsageError(f"{ENV_MAX_N} must be at least 1, got {value}")
    return value


def _check_cap(n: int, max_n: int) -> None:
    if n > max_n:
        raise UsageError(f"system order {n} exceeds the cap {max_n}; "
                         f"raise {ENV_MAX_N} to allow it")


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload) -> None:
    _write_text(path, _jsonfmt.dumps(payload))


# ---------------------------------------------------------------------------
# subcommands: each reads the order cap and parses every argument before
# it starts any work


def cmd_generate(args: argparse.Namespace) -> int:
    max_n = _max_n_from_env()
    alphas = () if args.alphas is None else _parse_number_list(args.alphas)
    unread = ("--alphas", args.alphas) if args.family == "counterexample" else ("--k-max", args.k_max)
    if unread[1] is not None:
        raise UsageError(f"the {args.family} family does not read {unread[0]}")
    if args.family == "counterexample":
        if args.k_max is None or args.k_max < 2:
            raise UsageError("generate needs --k-max >= 2")
        _check_cap(block_order(args.k_max), max_n)
        poles = _parse_poles("harmonic" if args.poles is None else args.poles, args.k_max)
        s = build_counterexample_series(args.k_max, poles)
    else:
        if not alphas:
            raise UsageError("the gammel family requires --alphas "
                             "(comma-separated block amplitudes)")
        if args.poles is None:
            raise UsageError("the gammel family requires --poles "
                             "(an explicit comma-separated list)")
        poles = _parse_poles(args.poles, len(alphas), start_index=1)
        params = GammelParams(alphas=alphas, poles=poles)
        j_max = 2 ** (len(alphas) + 1) - 2    # last index of the final complete block
        _check_cap(j_max // 2, max_n)         # largest order buildable from this file
        s = build_gammel_series(params, j_max)
    save_series(s, args.out)
    print(f"wrote {args.out} ({len(s.coeffs)} coefficients, family {args.family})")
    return 0


def _approximant_payload(args: argparse.Namespace, s, n: int) -> dict:
    from .analysis import find_poles
    from .pade import classical_pade, robust_pade

    if args.mode == "classical":
        r = classical_pade(s, n, exact=args.exact)
    else:
        r = robust_pade(s, n, tol_rel=args.tol)
    doc = _jsonfmt.record(r)
    if args.analyze:
        radius = args.radius if args.radius is not None else s.radius_hint
        report = find_poles(r, radius_hint=radius,
                            delta_doublet=args.delta_doublet,
                            tol_spurious=args.tol_spurious)
        doc["pole_report"] = _jsonfmt.record(report)
    return doc


def cmd_approximate(args: argparse.Namespace) -> int:
    from .analysis import check_positive

    max_n = _max_n_from_env()
    if args.n is not None:
        if args.n < 0:
            raise UsageError("--n must be nonnegative")
        lo = hi = args.n
        label = f"n = {lo}"
    else:
        lo, hi = _parse_range(args.n_range, "--n-range")
        if lo < 0:
            raise UsageError("--n-range must be nonnegative")
        label = f"n = {lo}..{hi}"
    if not 0.0 < args.tol < 1.0:            # false for NaN too
        raise UsageError("--tol must lie in (0, 1)")
    if args.exact and args.mode == "robust":
        raise UsageError("--exact applies to classical mode only "
                         "(the robust route is floating point by definition)")
    if args.analyze:                        # a file's own radius_hint is checked as it loads
        given = {} if args.radius is None else {"radius_hint": args.radius}
        check_positive(**given, delta_doublet=args.delta_doublet, tol_spurious=args.tol_spurious)
    _check_cap(hi, max_n)
    s = load_series(args.series)
    s.require_terms(2 * hi + 1)
    docs = [_approximant_payload(args, s, n) for n in range(lo, hi + 1)]
    _write_json(args.out, docs[0] if args.n is not None else docs)
    print(f"wrote {args.out} ({args.mode} mode, {label})")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .analysis import CounterexampleReport, verify_counterexample

    max_n = _max_n_from_env()
    lo, hi = _parse_range(args.k_range, "--k-range")
    out = args.out if args.out is not None else Path(f"verify.{args.fmt}")
    _check_cap(block_order(hi), max_n)
    poles = _parse_poles(args.poles, hi)
    reports = [verify_counterexample(k, poles, exact=k <= args.exact_up_to)
               for k in range(lo, hi + 1)]
    if args.fmt == "csv":
        lines = [CounterexampleReport.CSV_HEADER]
        lines.extend(r.csv_row() for r in reports)
        _write_text(out, "\n".join(lines) + "\n")
    else:
        _write_json(out, _jsonfmt.record(reports))
    verdict = "all passed" if all(r.passed for r in reports) else "FAILED checks present"
    unseen = [str(r.k) for r in reports if r.p_ok is None]
    if unseen:
        fix = (f"rerun with --exact-up-to {unseen[-1]}" if poles.exact
               else "certifying it needs rational poles")
        verdict += (f"; p(z_k) not certified for k = {', '.join(unseen)} "
                    f"(the float tolerance cannot tell it from 0), {fix}")
    print(f"wrote {out} ({len(reports)} blocks, {verdict})")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    from .analysis import divergence_scan

    max_n = _max_n_from_env()
    points = () if args.points is None else _parse_number_list(args.points)
    if args.k_max < 2:
        raise UsageError("scan needs --k-max >= 2")
    _check_cap(block_order(args.k_max), max_n)
    table = divergence_scan(args.k_max, points=points,
                            poles=_parse_poles(args.scheme, args.k_max))
    _write_json(args.out, _jsonfmt.record(table))
    hits = sum(1 for row in table.rows if row.error_at_zk == float("inf"))
    print(f"wrote {args.out} ({len(table.rows)} rows, {hits} exact pole hits)")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pade-lab",
        description="Classical and SVD-robust Pade approximation with a "
                    "well-conditioned spurious-pole counterexample family.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="materialize a power series to a JSON file")
    gen.add_argument("--family", choices=("counterexample", "gammel"),
                     default="counterexample")
    gen.add_argument("--k-max", type=int, help="last complete block (counterexample)")
    gen.add_argument("--poles", default=None, metavar="SPEC",
                     help="harmonic, harmonic-repeated, or a comma list like 1/4,1/5")
    gen.add_argument("--alphas", default=None, metavar="LIST",
                     help="gammel block amplitudes, e.g. 1/4,1/256")
    gen.add_argument("--out", type=Path, default=Path("series.json"))

    app = sub.add_parser("approximate", help="compute a Pade approximant from a series file")
    app.add_argument("--series", type=Path, required=True)
    group = app.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single approximation order")
    group.add_argument("--n-range", metavar="A..B", help="writes a JSON array instead")
    app.add_argument("--mode", choices=("classical", "robust"), default="classical")
    app.add_argument("--tol", type=float, default=1e-12,
                     help="robust threshold tol_rel in (0, 1)")
    app.add_argument("--exact", action="store_true",
                     help="exact rationals instead of SVD, a float file's doubles read as the "
                          "dyadic rationals they store: the extended Euclidean algorithm, "
                          "proved by substitution (classical only)")
    app.add_argument("--analyze", action="store_true",
                     help="append a pole/doublet/spurious report to the output")
    app.add_argument("--radius", type=float, default=None,
                     help="analyticity radius for the spurious test "
                          "(default: the series radius_hint)")
    app.add_argument("--delta-doublet", type=float, default=1e-3)
    app.add_argument("--tol-spurious", type=float, default=1e-6)
    app.add_argument("--out", type=Path, default=Path("approximant.json"))

    ver = sub.add_parser("verify", help="check every counterexample claim per block")
    ver.add_argument("--k-range", required=True, metavar="A..B")
    ver.add_argument("--poles", default="harmonic", metavar="SPEC")
    ver.add_argument("--exact-up-to", type=int, default=0,
                     help="blocks k <= this verify in exact arithmetic")
    ver.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    ver.add_argument("--out", type=Path, default=None,
                     help="default verify.json or verify.csv")

    scan = sub.add_parser("scan", help="pointwise error table over the block poles")
    scan.add_argument("--k-max", type=int, required=True)
    scan.add_argument("--scheme", choices=("harmonic-repeated", "harmonic"),
                      default="harmonic-repeated")
    scan.add_argument("--points", default=None, metavar="LIST",
                      help="extra probe points, e.g. 1/4,9/10 (a float such as 0.5j "
                           "at the exact value of its double)")
    scan.add_argument("--out", type=Path, default=Path("scan.json"))
    return parser


_DISPATCH = {
    "generate": cmd_generate,
    "approximate": cmd_approximate,
    "verify": cmd_verify,
    "scan": cmd_scan,
}


def _attach_negative_values(argv: list) -> list:
    """`--poles -1/4,1/5` as `--poles=-1/4,1/5`, for every option.

    argparse reads a separate value that starts with '-' as an option,
    so a negative value would otherwise fail as a missing argument.  No
    subcommand takes a positional argument, so a `-<digit>...` token
    right after an `--option` token without '=' can only be its value.
    Joining is safe for any option, abbreviated or not: argparse reads
    `--opt=v` as `--opt v`.
    """
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        bare_option = prev[:2] == "--" and len(prev) > 2 and "=" not in prev
        if bare_option and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
