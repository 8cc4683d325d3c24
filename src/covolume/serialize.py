"""Lossless text codecs for covolume records and growth reports.

Exact rationals travel as "numerator/denominator" strings so that JSON
consumers with 64-bit number parsing cannot corrupt them.  Floats are
printed with 12 significant digits, few enough that parse-and-reprint
is the identity.  Every printed item is first a JSON record; its CSV
and table cells are the record's values flattened by one rule (_cell):
null is an empty cell, a {"lower": ..., "upper": ...} pair is
"lower..upper", and the epsilon object is format_epsilon's text.
The writer is also the readers' only specification: row_from_record
and row_from_csv read a row leniently and return it only if the writer
writes it back to the very text it was read from, and raise ValueError
otherwise.  So every emitted record parses back to an equal
CovolumeResult, and nothing else parses.

Large n: nu(n) has about n^2 log n digits (546k at n = 800 over
Q(sqrt(-3))), and CPython before 3.12 converts int to str in quadratic
time both ways.  format_rational is the one place where exact
rationals become text.  It hands magnitudes of at most _LEAF_BITS bits
to str() and converts larger ones in CPython ints by the
divide-and-conquer radix conversion of Brent & Zimmermann, Modern
Computer Arithmetic, sec. 1.7: it splits by powers of ten at fixed
levels, divides by the recursive division of Burnikel & Ziegler, and
reads the powers from a package-level table, shared by every call and
emptied by clear_caches.  parse_rational is the one place where text
becomes an exact rational.  It hands digit strings of at most
_LEAF_DIGITS digits to int() and splits longer ones at the same decimal
levels, recombined by products with the same powers of five.  Both
directions run in time subquadratic in the size and never meet the
interpreter's int/str digit limit, so nothing here or in the CLI touches
that limit.
row_to_record, and so row_to_csv, converts each distinct magnitude of
a record once: chi's numerator is usually +-nu's, and an interval's
endpoints swap between nu and chi.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .lattice import CovolumeResult, EpsilonStatus, ExactOrInterval, Interval, _chi_of
from .quadfield import _field_if_squarefree
from .survey import GrowthReport

__all__ = [
    "dumps",
    "format_float",
    "format_rational",
    "parse_rational",
    "format_epsilon",
    "parse_epsilon",
    "cells",
    "csv_join",
    "ROW_HEADER",
    "row_to_record",
    "row_from_record",
    "row_to_csv",
    "row_from_csv",
    "GROWTH_HEADER",
    "growth_to_record",
    "HWANG_HEADER",
    "hwang_to_record",
    "clear_caches",
]


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.12g}"


# str() converts magnitudes of at most this many bits: 617 decimal digits,
# under the lowest int/str digit limit Python allows (640).  On Python
# 3.11, with a warm power table, the split of larger ones costs 1.3x str()
# just above this size, 0.55x at 16k bits and 0.27x at 93k bits (nu(220)
# over Q(sqrt(-3))).
_LEAF_BITS = 2048

# str() and int() see parts of at most this many digits, also under 640.
_LEAF_DIGITS = 600
_LEAF_LIMIT = 10**_LEAF_DIGITS

# The builtin divmod is quadratic before Python 3.12: _divmod hands it
# dividends at most this many bits longer than the divisor, so quotients
# of about this size, and recurses above.
_DIV_LIMIT = 4000

Digits = Callable[[int], str]


@lru_cache(maxsize=None)
def _power_of_five(level: int) -> int:
    """5^(_LEAF_DIGITS 2^level), shared by every _digits and _int_of_digits call.

    10^h is 5^h << h for h = _LEAF_DIGITS 2^level.  lru_cache keeps the
    table thread-safe (two threads may build one entry twice, to equal
    values), and a clear_caches mid-call only makes the next lookup rebuild.
    """
    if level == 0:
        return 5**_LEAF_DIGITS
    half = _power_of_five(level - 1)
    return half * half


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0, in subquadratic time.

    Quotients of more than _DIV_LIMIT bits come from schoolbook division
    in base 2^n, n the size of b, each digit by the recursive division of
    Burnikel & Ziegler, "Fast Recursive Division" (1998), as in CPython
    3.12's Lib/_pylong.py.
    """
    n = b.bit_length()
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    mask = (1 << n) - 1
    q = r = 0
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        digit, r = _div2n1n((r << n) | ((a >> shift) & mask), b, n)
        q = (q << n) | digit
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b 2^n."""
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, (a >> half) & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return (q1 << half) | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """One half-size digit of _div2n1n: divmod(a12 2^n + a3, b), b = b1 2^n + b2."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = ((r << n) | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _digits(n: int) -> str:
    """Decimal digits of n >= 0, equal to str(n), in subquadratic time.

    Up to _LEAF_BITS bits this is str(n).  Above, it splits each part m
    at the largest h = _LEAF_DIGITS 2^k with 10^h <= m, as hi 10^h + lo
    by one _divmod of m >> h by _power_of_five(k), and pads lo's digits
    to h; parts under 10^_LEAF_DIGITS go to str().
    """

    def convert(m: int) -> str:
        if m < _LEAF_LIMIT:
            return str(m)
        e = (m.bit_length() - 1) * 78913 >> 18  # 10^e <= m: 78913 / 2^18 < log10 2
        level = max(e // _LEAF_DIGITS, 1).bit_length() - 1
        h = _LEAF_DIGITS << level
        hi, r = _divmod(m >> h, _power_of_five(level))
        lo = (r << h) | (m & ((1 << h) - 1))
        return convert(hi) + convert(lo).zfill(h)

    if n.bit_length() <= _LEAF_BITS:
        return str(n)
    return convert(n)


def _record_digits() -> Digits:
    """_digits for one record: each distinct magnitude is converted once."""
    seen: dict[int, str] = {}

    def digits(n: int) -> str:
        text = seen.get(n)
        if text is None:
            text = seen[n] = _digits(n)
        return text

    return digits


def format_rational(x: Fraction, digits: Digits | None = None) -> str:
    """str(x): "numerator/denominator", or the numerator alone for an integer.

    digits converts a magnitude (default: _digits); pass one from
    _record_digits to share conversions across the values of a record.
    """
    digits = digits or _digits
    num, den = x.numerator, x.denominator
    text = "-" + digits(-num) if num < 0 else digits(num)
    return text if den == 1 else f"{text}/{digits(den)}"


_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def _int_of_digits(s: str) -> int:
    """int(s) for a string of ASCII digits, in subquadratic time.

    Splits s at _digits' fixed levels counted from the right, the last
    h = _LEAF_DIGITS 2^k digits with h below len(s), converts the parts
    recursively and recombines them as hi 5^h 2^h + lo, reading 5^h from
    _power_of_five.
    """

    def convert(start: int, stop: int) -> int:
        if stop - start <= _LEAF_DIGITS:
            return int(s[start:stop])
        level = ((stop - start - 1) // _LEAF_DIGITS).bit_length() - 1
        h = _LEAF_DIGITS << level
        mid = stop - h
        return (convert(start, mid) * _power_of_five(level) << h) + convert(mid, stop)

    return convert(0, len(s))


def parse_rational(s: str) -> Fraction:
    """The rational that format_rational writes as s.

    Accepts exactly "-?digits(/digits)?" with a nonzero denominator and
    raises ValueError on anything else.
    """
    match = isinstance(s, str) and _RATIONAL.fullmatch(s)
    if not match:
        raise ValueError(f"not a rational: {s!r:.40}")
    sign, num, den = match.groups()
    numerator = -_int_of_digits(num) if sign else _int_of_digits(num)
    denominator = 1 if den is None else _int_of_digits(den)
    if denominator == 0:
        raise ValueError(f"zero denominator: {s[:40]!r}")
    return Fraction(numerator, denominator)


def _value_json(x: ExactOrInterval, digits: Digits) -> str | dict[str, str]:
    if isinstance(x, Interval):
        return {
            "lower": format_rational(x.lower, digits),
            "upper": format_rational(x.upper, digits),
        }
    return format_rational(x, digits)


def _value_from_json(obj: str | dict[str, str]) -> ExactOrInterval:
    if isinstance(obj, dict):
        return Interval(parse_rational(obj["lower"]), parse_rational(obj["upper"]))
    return parse_rational(obj)


def _json_saturated(v: float) -> float | str:
    # volumes, closed-form growth ratios and hwang bounds past IEEE range
    # saturate to inf upstream; JSON numbers cannot carry infinity, so
    # the saturated value travels as the string "inf", which float()
    # reads back
    if math.isinf(v) and v > 0:
        return "inf"
    return v


def _volume_json(v: float | tuple[float, float]) -> Any:
    if isinstance(v, tuple):
        return {
            "lower": _json_saturated(v[0]),
            "upper": _json_saturated(v[1]),
        }
    return _json_saturated(v)


def _volume_from_json(obj: Any) -> float | tuple[float, float]:
    if isinstance(obj, dict):
        return (float(obj["lower"]), float(obj["upper"]))
    return float(obj)


def format_epsilon(eps: EpsilonStatus) -> str:
    if eps.kind == "irrelevant":
        return "irrelevant"
    if eps.kind == "exact":
        return str(eps.lower)
    return f"{eps.lower}..{eps.upper}"


def parse_epsilon(s: str) -> EpsilonStatus:
    """The epsilon that format_epsilon writes as s; ValueError on other text."""
    if s == "irrelevant":
        return EpsilonStatus("irrelevant", 1, 1)
    if ".." in s:
        lo, hi = s.split("..")
        eps = EpsilonStatus("bounded", int(lo), int(hi))
    else:
        eps = EpsilonStatus("exact", int(s), int(s))
    if format_epsilon(eps) != s:
        raise ValueError(f"not an epsilon: {s!r:.40}")
    return eps


def dumps(obj: Any) -> str:
    """JSON text with 12-significant-digit floats and stable key order.

    Parsing the output with json.loads and feeding the result back in
    returns the same bytes, which is the round-trip contract the CLI
    promises.
    """
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def _write(obj: Any, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))  # what json.dumps writes
    elif isinstance(obj, Fraction):
        # digits, "-" and "/" need no JSON escaping
        parts.append(f'"{format_rational(obj)}"')
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(encode_basestring_ascii(str(key)))
            parts.append(": ")
            _write(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(", ")
            _write(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _cell(value: Any) -> str:
    """A JSON record value flattened to one CSV or table cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, dict):
        if "kind" in value:
            return format_epsilon(EpsilonStatus(**value))
        return f"{_cell(value['lower'])}..{_cell(value['upper'])}"
    return str(value)


def _uncell(cell: str) -> str | dict[str, str] | None:
    """The JSON form of a cell, but for its numbers: an empty cell is
    null, and "lower..upper" becomes a pair object."""
    if cell == "":
        return None
    if ".." in cell:
        lower, upper = cell.split("..")
        return {"lower": lower, "upper": upper}
    return cell


def cells(record: dict[str, Any]) -> tuple[str, ...]:
    """The CSV or table cells of a record: its values, flattened."""
    return tuple(_cell(value) for value in record.values())


def csv_join(values: tuple[str, ...]) -> str:
    for v in values:
        if any(ch in v for ch in ',"\n\r'):
            raise ValueError(f"CSV field would need quoting: {v!r}")
    return ",".join(values)


ROW_HEADER = (
    "d",
    "disc",
    "n",
    "nu",
    "chi",
    "volume",
    "h",
    "h_torsion",
    "r",
    "epsilon",
    "mult_lo",
    "mult_hi",
    "exact",
)
GROWTH_HEADER = ("d", "n", "q", "log_q_over_n", "closed_form", "rel_err")
HWANG_HEADER = ("n", "k", "bound")


def row_to_record(row: CovolumeResult) -> dict[str, Any]:
    mult = row.multiplicity
    digits = _record_digits()
    return {
        "d": row.d,
        "disc": row.disc,
        "n": row.n,
        "nu": _value_json(row.nu, digits),
        "chi": _value_json(row.chi, digits),
        "volume": _volume_json(row.volume),
        "h": row.h,
        "h_torsion": row.h_torsion,
        "r": row.r,
        "epsilon": {
            "kind": row.epsilon.kind,
            "lower": row.epsilon.lower,
            "upper": row.epsilon.upper,
        },
        "mult_lo": None if mult is None else mult[0],
        "mult_hi": None if mult is None else mult[1],
        "exact": row.exact,
    }


def _int(value: Any) -> int:
    """An integer of a JSON record: an int, and not a bool.  dumps writes
    3.0 as 3, so only the type tells a float from the int written."""
    if type(value) is not int:
        raise ValueError(f"not a record integer: {value!r:.40}")
    return value


def _row_of(
    obj: dict[str, Any],
    integer: Callable[[Any], int],
    written_back: Callable[[CovolumeResult], bool],
) -> CovolumeResult:
    """The row that a record describes, read leniently, integer reading each
    integer field, if written_back finds that the writer writes the row back
    to the text it was read from; ValueError otherwise."""
    try:
        eps, mult = obj["epsilon"], (obj["mult_lo"], obj["mult_hi"])
        row = CovolumeResult(
            d=integer(obj["d"]),
            disc=integer(obj["disc"]),
            n=integer(obj["n"]),
            nu=_value_from_json(obj["nu"]),
            chi=_value_from_json(obj["chi"]),
            volume=_volume_from_json(obj["volume"]),
            h=integer(obj["h"]),
            h_torsion=integer(obj["h_torsion"]),
            r=integer(obj["r"]),
            epsilon=EpsilonStatus(
                eps["kind"], integer(eps["lower"]), integer(eps["upper"])
            ),
            multiplicity=(
                None if mult == (None, None) else (integer(mult[0]), integer(mult[1]))
            ),
        )
        same = written_back(row)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"not a covolume record: {exc!r:.80}") from None
    if not same:
        raise ValueError("not a covolume record as the writer writes it")
    clash = _contradiction(row)
    if clash:
        raise ValueError(f"not a covolume record, its values contradict: {clash}")
    return row


def _contradiction(row: CovolumeResult) -> str:
    """What in a row contradicts the rest, or "" if its values agree as in
    every row the writer gets: each interval is ordered, chi = (-1)^n nu,
    and disc and r are those of Q(sqrt(-d)).  d is factored by trial
    division only up to 2^40: past that a field's character table would
    hold 2^39 entries, more than a run of the writer can build."""
    for name in ("nu", "chi", "volume"):
        value = getattr(row, name)
        if isinstance(value, tuple) and value[0] > value[1]:
            return f"{name} has lower > upper"
    if row.chi != _chi_of(row.nu, row.n):
        return "chi != -nu" if row.n % 2 else "chi != nu"
    d = row.d
    if row.disc != (d if d % 4 == 3 else 4 * d):
        return f"disc {row.disc} is not that of d = {d}"
    if d.bit_length() > 40:
        return f"d = {d} is past 2^40"
    field = _field_if_squarefree(d)
    if field is None:
        return f"d = {d} is not squarefree"
    if field.r != row.r:
        return f"r {row.r} is not that of d = {d}"
    return ""


def row_from_record(obj: dict[str, Any]) -> CovolumeResult:
    """The row of a record, if dumps(row_to_record(row)) == dumps(obj).

    The writer is the only specification: anything it never writes, key
    order included, raises ValueError.
    """
    return _row_of(obj, _int, lambda row: dumps(row_to_record(row)) == dumps(obj))


def row_to_csv(row: CovolumeResult) -> tuple[str, ...]:
    return cells(row_to_record(row))


def row_from_csv(values: tuple[str, ...]) -> CovolumeResult:
    """The row of CSV cells, if row_to_csv(row) == tuple(values); ValueError
    on anything else."""
    if not all(isinstance(v, str) for v in values):
        raise ValueError("not a covolume row: a CSV cell is not a string")
    record = dict(zip(ROW_HEADER, map(_uncell, values), strict=True))
    record["epsilon"] = vars(parse_epsilon(values[ROW_HEADER.index("epsilon")]))
    return _row_of(record, int, lambda row: row_to_csv(row) == tuple(values))


def growth_to_record(report: GrowthReport) -> dict[str, Any]:
    cf = report.closed_form
    return {
        "d": report.field.d,
        "n": report.n,
        "q": _value_json(report.q, _record_digits()),
        "log_q_over_n": report.log_q_over_n,
        "closed_form": None if cf is None else _json_saturated(cf),
        "rel_err": report.closed_form_rel_err,
    }


def hwang_to_record(n: int, k: int, bound: float) -> dict[str, Any]:
    return {"n": n, "k": k, "bound": _json_saturated(bound)}


def clear_caches() -> None:
    """Drop the shared powers of _digits and _int_of_digits (used by tests)."""
    _power_of_five.cache_clear()
