"""Command-line front end.

Subcommands: nu, scan, minimal, growth, hwang, classgroup, selfcheck.
stdout carries data, stderr carries diagnostics.  Exit codes: 0 on
success, 1 on a selfcheck discrepancy, an internal defect or a reader
that closed stdout early, 2 on usage or input errors.  --format
selects json (one object per line), csv (fixed headers), or table
(aligned text); table is the default on a TTY, json otherwise, so piped
output is machine-readable without flags.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache, partial
from typing import Any, Callable, Iterable

from . import lattice, quadfield, serialize, survey
from .errors import CovolumeError, InternalDefect, InvalidInput

__all__ = ["main", "run", "build_parser"]

_FORMATS = ("json", "csv", "table")
_SELFCHECK_DEFAULT_TOL = 1e-9


def _default_format() -> str:
    return "table" if sys.stdout.isatty() else "json"


def _print_table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _emit(
    fmt: str,
    header: tuple[str, ...],
    items: Iterable[Any],
    to_record: Callable[[Any], dict[str, Any]],
) -> None:
    """Print one record per item; CSV and table cells are its values.

    JSON and CSV print each item as it arrives; a table collects them
    first, for its column widths.
    """
    if fmt == "json":
        for item in items:
            print(serialize.dumps(to_record(item)))
    elif fmt == "csv":
        print(serialize.csv_join(header))
        for item in items:
            print(serialize.csv_join(serialize.cells(to_record(item))))
    else:
        _print_table(header, [serialize.cells(to_record(item)) for item in items])


def _emit_survey_rows(rows: Iterable[lattice.CovolumeResult], fmt: str) -> None:
    _emit(fmt, serialize.ROW_HEADER, rows, serialize.row_to_record)


def cmd_nu(args: argparse.Namespace) -> int:
    field = quadfield.from_squarefree_d(args.d)
    result = lattice.covolume_result(field, args.n)
    _emit_survey_rows([result], args.format)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    rows = survey._scan_rows(args.n, args.max_disc)
    _emit_survey_rows(rows, args.format)
    return 0


def cmd_minimal(args: argparse.Namespace) -> int:
    fmt = args.format
    if args.overall:
        if args.n is not None:
            raise InvalidInput("--overall and --n are mutually exclusive")
        om = survey.overall_minimum(args.n_max, args.safety_margin)
        rows = [mr.result for mr in om.per_n] if args.verbose else [om.result]
        if fmt == "json":
            record: dict[str, Any] = {
                "n_star": om.n_star,
                "volume_n_star": om.volume_n_star,
                "growth_threshold_n1": om.growth_threshold_n1,
                "winner": serialize.row_to_record(om.result),
            }
            if args.verbose:
                record["per_n"] = [serialize.row_to_record(r) for r in rows]
            print(serialize.dumps(record))
            return 0
        if fmt == "table":
            print(f"overall minimum: n = {om.n_star} (volume ranking: n = {om.volume_n_star})")
            print(f"growth ratio exceeds 1 for every n >= {om.growth_threshold_n1}")
        _emit_survey_rows(rows, fmt)
        return 0

    if args.n is None:
        raise InvalidInput("one of --n or --overall is required")
    mr = survey.minimal_field(args.n, args.safety_margin)
    cert = mr.certificate
    if args.verbose:  # the winner's row is mr.result, so each record is built once
        rows = [
            mr.result if c.field == mr.field else lattice.covolume_result(c.field, args.n)
            for c in cert.candidates
        ]
    else:
        rows = [mr.result]
    if fmt == "json" and args.verbose:
        record = {
            "winner": serialize.row_to_record(mr.result),
            "bound": cert.bound,
            "limit": cert.limit,
            "certificate": [serialize.row_to_record(r) for r in rows],
        }
        print(serialize.dumps(record))
        return 0
    if fmt == "table":
        print(f"minimal field at n = {args.n}: {mr.field}")
        if args.verbose:
            print(
                f"discriminant bound {serialize.format_float(cert.bound)}, "
                f"candidates enumerated up to |disc| = {cert.limit}"
            )
    _emit_survey_rows(rows, fmt)
    return 0


def cmd_growth(args: argparse.Namespace) -> int:
    if args.n_max < args.n_min:
        raise InvalidInput(
            f"--n-max must be >= --n-min, got {args.n_max} < {args.n_min}"
        )
    field = quadfield.from_squarefree_d(args.d)
    reports = survey._growth_reports(field, range(args.n_min, args.n_max + 1))
    _emit(args.format, serialize.GROWTH_HEADER, reports, serialize.growth_to_record)
    return 0


def cmd_hwang(args: argparse.Namespace) -> int:
    bound = survey.hwang_bound(args.n, args.k).value
    to_record = partial(serialize.hwang_to_record, args.n, args.k)
    _emit(args.format, serialize.HWANG_HEADER, [bound], to_record)
    return 0


def _class_order(g: quadfield.FormClass, group: quadfield.ClassGroup) -> int:
    power = g
    order = 1
    while power != group.principal:
        power = quadfield.compose(power, g, group)
        order += 1
    return order


def _class_record(item: tuple[quadfield.FormClass, int]) -> dict[str, int]:
    g, order = item
    return {"a": g.a, "b": g.b, "c": g.c, "order": order}


def cmd_classgroup(args: argparse.Namespace) -> int:
    fmt = args.format
    field = quadfield.from_squarefree_d(args.d)
    group = quadfield.reduced_forms(field)
    classes = [(g, _class_order(g, group)) for g in group.classes]
    torsion = None if args.m is None else quadfield.torsion_count(group, args.m)
    if fmt == "json":
        record: dict[str, Any] = {
            "d": field.d,
            "disc": field.disc_abs,
            "h": group.h,
            "classes": [_class_record(c) for c in classes],
            "torsion": None if torsion is None else {"m": args.m, "count": torsion},
        }
        print(serialize.dumps(record))
        return 0
    if fmt == "table":
        print(f"{field}: disc -{field.disc_abs}, h = {group.h}")
        if torsion is not None:
            print(f"classes killed by m = {args.m}: {torsion}")
    _emit(fmt, ("a", "b", "c", "order"), classes, _class_record)
    return 0


_SELFCHECK_HEADER = ("d", "disc", "n", "exact", "numeric", "rel_diff", "status")


def _selfcheck_record(row: lattice.CrossPathRow) -> dict[str, Any]:
    return {
        "d": row.field.d,
        "disc": row.field.disc_abs,
        "n": row.n,
        "exact": row.exact_value,
        "numeric": row.numeric_value,
        "rel_diff": row.rel_diff,
        "status": "ok" if row.ok else "FAIL",
    }


def _selfcheck_tolerance() -> float:
    raw = os.environ.get("COVOLUME_PRECISION")
    if raw is None:
        return _SELFCHECK_DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise InvalidInput(f"COVOLUME_PRECISION is not a number: {raw!r}")
    if value <= 0:
        raise InvalidInput(f"COVOLUME_PRECISION must be positive, got {raw!r}")
    return min(_SELFCHECK_DEFAULT_TOL, value)


def cmd_selfcheck(args: argparse.Namespace) -> int:
    tol = _selfcheck_tolerance()
    if args.quick:
        fields = (quadfield.from_squarefree_d(3),)
        n_values: tuple[int, ...] = (2, 3, 9)
    else:
        fields = None
        n_values = None
    rows = lattice.cross_path_check(fields=fields, n_values=n_values, tol=tol)
    _emit("table", _SELFCHECK_HEADER, rows, _selfcheck_record)
    failures = [row for row in rows if not row.ok]
    worst = max(row.rel_diff for row in rows)
    if failures:
        for row in failures:
            print(
                f"selfcheck failure: {row.field}, n = {row.n}, "
                f"relative discrepancy {row.rel_diff:.6g} > {tol:.6g}",
                file=sys.stderr,
            )
        print(
            f"FAIL: {len(failures)} of {len(rows)} checks exceeded "
            f"tolerance {tol:.6g}"
        )
        return 1
    print(
        f"ok: {len(rows)} checks, worst relative difference "
        f"{worst:.6g}, tolerance {tol:.6g}"
    )
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=_FORMATS,
        default=None,
        help="output format (default: table on a TTY, json otherwise)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covolume",
        description="Exact covolumes of minimal nonuniform arithmetic "
        "lattices in PU(n,1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nu", help="covolume invariants for one (field, n) pair")
    p.add_argument("--d", type=int, required=True, help="squarefree positive d in Q(sqrt(-d))")
    p.add_argument("--n", type=int, required=True, help="dimension n >= 2")
    _add_format(p)
    p.set_defaults(handler=cmd_nu)

    p = sub.add_parser("scan", help="survey every field up to a discriminant limit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-disc", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("minimal", help="minimal field at fixed n, or overall over n")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--overall", action="store_true")
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--safety-margin", type=int, default=20)
    p.add_argument("--verbose", action="store_true", help="include the certificate")
    _add_format(p)
    p.set_defaults(handler=cmd_minimal)

    p = sub.add_parser("growth", help="dimension-step growth ratios nu(n+1)/nu(n)")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=12)
    _add_format(p)
    p.set_defaults(handler=cmd_growth)

    p = sub.add_parser("hwang", help="smooth-quotient volume lower bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1, help="number of cusps")
    _add_format(p)
    p.set_defaults(handler=cmd_hwang)

    p = sub.add_parser("classgroup", help="reduced forms and torsion counts")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="also count classes killed by m")
    _add_format(p)
    p.set_defaults(handler=cmd_classgroup)

    p = sub.add_parser("selfcheck", help="exact-vs-numeric consistency suite")
    p.add_argument("--quick", action="store_true", help="d=3, n in {2, 3, 9} only")
    p.set_defaults(handler=cmd_selfcheck)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main() reuses; parse_args leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if "format" in args and args.format is None:
        args.format = _default_format()
    try:
        return args.handler(args)
    except InternalDefect as exc:
        print(f"covolume: internal defect: {exc}", file=sys.stderr)
        return 1
    except CovolumeError as exc:
        print(f"covolume: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The console script.  A reader that closes stdout early (`scan ...
    | head`) ends it with status 1 and nothing on stderr: stdout goes to
    devnull for the final flush, the SIGPIPE recipe of the signal docs."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
