"""Cross-field and cross-dimension comparisons.

This module answers the global questions: which imaginary quadratic
field realizes the smallest covolume in a fixed dimension, in which
dimension the overall minimum occurs, how fast covolumes grow past it,
and how the exact values compare with the geometric lower bound of
Hwang for smooth quotients.

The field search is a finite certificate, not a heuristic scan: any
field whose discriminant exceeds an explicit threshold loses to
Q(sqrt(-3)) outright, so enumerating discriminants up to that threshold
(plus a safety margin) examines every possible competitor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterator, NamedTuple, Sequence, TypeVar

from . import bernoulli, lattice, lvalues, quadfield
from .errors import InternalDefect, InvalidDimension, TieDetected, require_int
from .lattice import CovolumeResult, ExactOrInterval, Interval
from .lvalues import NumericValue
from .quadfield import QuadField

__all__ = [
    "GrowthReport",
    "Candidate",
    "MinimalCertificate",
    "MinimalResult",
    "OverallMinimum",
    "discriminant_bound",
    "scan",
    "minimal_field",
    "overall_minimum",
    "growth_ratio",
    "hwang_bound",
]

_T = TypeVar("_T")

# 4 pi = _FOUR_PI / 2^_FOUR_PI_BITS to within 1.4e-43, relatively (42 digits)
_FOUR_PI = 0xC90FDAA22168C234C4C6628B80DC1CD1290
_FOUR_PI_BITS = 136
_LN_2 = math.log(2)
_LN_4PI = math.log(4 * math.pi)
_LN_HUGE = math.log(sys.float_info.max)  # of the largest double
_LN_TINY = math.log(sys.float_info.min)  # of the least normal double


@dataclass(frozen=True)
class GrowthReport:
    """The dimension-step ratio q(n) = nu(n+1)/nu(n) for one field.

    q is exact (or an exact interval when the field has more than one
    ramified prime, in which case the endpoints bound the true ratio).
    log_q_over_n is log(q)/n from the lower endpoint.  closed_form is an
    independent numeric evaluation of the same ratio through the
    functional equations, with its relative deviation from the exact
    quotient; both are None when the ratio is not exact.  Past double
    range closed_form saturates to inf, while the deviation is still
    measured, through logarithms.
    """

    field: QuadField
    n: int
    q: ExactOrInterval
    log_q_over_n: float
    closed_form: float | None
    closed_form_rel_err: float | None

    @property
    def exact(self) -> bool:
        return lattice.is_exact(self.q)


class Candidate(NamedTuple):
    """One enumerated field in a minimal-covolume certificate, with floats
    ln_low <= ln(nu_lower) <= ln_high (lattice._ln_nu_interval), where
    nu_lower is the field's nu at the certificate's n, or its lower
    endpoint when nu is an interval.  From the functional equation with
    no power sum, the interval is under 2/3 wide, plus float error."""

    field: QuadField
    ln_low: float
    ln_high: float


@dataclass(frozen=True)
class MinimalCertificate:
    """Proof data for a minimal-field determination at fixed n.

    candidates lists every imaginary quadratic field with |disc| at most
    limit, in ascending discriminant order, with its ln interval; limit
    is max(discriminant_bound(n) rounded up with its error, 4) plus the
    safety margin, so the enumeration is exhaustive for the comparison
    (bound is the float value).  A candidate whose
    ln_low exceeds the least ln_high loses outright; the winner is the
    unique least nu_lower among the others, compared exactly, or the
    lone other, which needs no exact value and must have an exact
    epsilon.  The certificate holds no exact record.
    """

    n: int
    bound: float
    limit: int
    candidates: tuple[Candidate, ...]


@dataclass(frozen=True)
class MinimalResult:
    """The certified minimal field at the certificate's n.

    result, the winner's exact record, is built when it is first read
    (lattice.covolume_result) and then kept, so every reader gets the
    same record; the certificate itself ranks by ln intervals, so a
    caller that prints no record builds none.  Two results are equal
    when their fields and certificates are, which fixes their records.
    """

    field: QuadField
    certificate: MinimalCertificate

    @cached_property
    def result(self) -> CovolumeResult:
        return lattice.covolume_result(self.field, self.certificate.n)

    @property
    def candidate(self) -> Candidate:
        """The winner's entry in the certificate."""
        return next(c for c in self.certificate.candidates if c.field == self.field)


class OverallMinimum(NamedTuple):
    """Location of the global covolume minimum over 2 <= n <= n_max.

    n_star is the unique dimension whose minimal field has the smallest
    normalized Euler-Poincare value, and volume_n_star the unique
    dimension with the smallest hyperbolic volume; it is reported, not
    required to equal n_star.  growth_threshold_n1 is the smallest n1
    with q(m) > 1 for every n1 <= m < n_max, checked on the lower
    endpoints of the ratios of the winner's field only.  result is
    n_star's record.  per_n holds each dimension's certified minimum,
    whose record is built when it is read, as under --verbose.
    """

    n_star: int
    result: CovolumeResult
    volume_n_star: int
    growth_threshold_n1: int
    per_n: tuple[MinimalResult, ...]


def discriminant_bound(n: int) -> NumericValue:
    """Discriminant threshold beyond which no field can be minimal.

    3 * (2 pi^5 / 3^(11/2)) ** ((n - t) / (2 (s - 1))) with t = 1 for
    even n, t = 0 for odd n, and s the discriminant exponent of the
    principal covolume.  The exponent decays like 1/n, so the bound
    tends to 3 from above; it never exceeds 4 for n >= 4.  The exponent
    is one int quotient, 2(n-1)/(n(n+3) - 4) at even n and
    2n/((n-1)(n+2) - 4) at odd n, correctly rounded as int division is.
    """
    require_int(n, "n", 2, InvalidDimension)
    if n % 2 == 0:
        exponent = 2 * (n - 1) / (n * (n + 3) - 4)
    else:
        exponent = 2 * n / ((n - 1) * (n + 2) - 4)
    value = 3.0 * (2 * math.pi**5 / 3**5.5) ** exponent
    return NumericValue(value, abs(value) * 1e-14)


def scan(n: int, max_disc: int) -> tuple[CovolumeResult, ...]:
    """Covolume records for every |disc| <= max_disc, ascending discriminant."""
    return tuple(_scan_rows(n, max_disc))


def _scan_rows(n: int, max_disc: int) -> Iterator[CovolumeResult]:
    """scan's records one at a time, each computed when it is asked for.

    The arguments are checked on the call, before any record exists, and
    each field is built as the ascending loop over |disc| reaches it, so
    the first record waits for one field, not for the whole range.
    """
    require_int(n, "n", 2, InvalidDimension)
    require_int(max_disc, "max_disc", 3)
    fields = quadfield._fields_by_disc(max_disc)
    return (lattice.covolume_result(f, n) for f in fields)


def _unique_min(
    items: Sequence[_T],
    key: Callable[[_T], Any],
    name: Callable[[_T], str],
    message: str,
) -> _T:
    """The item of least key, or TieDetected(message) naming every item
    that shares it ("{}" in message receives the comma-joined names).
    A single item is the minimum with no key read."""
    if len(items) == 1:
        return items[0]
    keys = [key(item) for item in items]
    best = min(keys)
    winners = [item for item, k in zip(items, keys) if k == best]
    if len(winners) > 1:
        raise TieDetected(message.format(", ".join(name(w) for w in winners)))
    return winners[0]


def _overlapping(
    items: Sequence[_T], bounds: Callable[[_T], tuple[float, float]]
) -> list[_T]:
    """The items whose interval (low, high) = bounds(item) reaches below
    the least upper end.  Each other item's value exceeds that of the
    item with the least upper end, so only these can be least."""
    pairs = [bounds(item) for item in items]
    best = min(high for _, high in pairs)
    return [item for item, (low, _) in zip(items, pairs) if low <= best]


def _candidate_bounds(c: Candidate) -> tuple[float, float]:
    return c.ln_low, c.ln_high


def _certify(
    n: int, bound: float, limit: int, candidates: tuple[Candidate, ...]
) -> MinimalResult:
    """Pick the unique exact minimum among candidates, or raise TieDetected.

    Exact records are built only when two or more candidates' ln
    intervals overlap the best one, and only their nu values are
    compared.  A lone contender wins with no record built: it is exact
    when its epsilon is (lattice.epsilon_status), as its record would be.
    """
    certificate = MinimalCertificate(
        n=n, bound=bound, limit=limit, candidates=candidates
    )
    contenders = [
        MinimalResult(c.field, certificate)
        for c in _overlapping(candidates, _candidate_bounds)
    ]
    winner = _unique_min(
        contenders,
        lambda mr: mr.result.nu_lower,
        lambda mr: str(mr.field),
        f"minimum at n = {n} is shared by {{}}",
    )
    if len(contenders) > 1:
        exact = winner.result.exact
    else:
        exact = lattice.epsilon_status(winner.field, n).exact
    if not exact:
        raise TieDetected(
            f"minimum at n = {n} falls on an interval candidate "
            f"({winner.field}); comparison by lower endpoint is inconclusive"
        )
    return winner


def _sweep(dims: range, safety_margin: int) -> tuple[MinimalResult, ...]:
    """The certified minimum of each n in dims, checked in that order.

    Each n's limit rounds the discriminant bound up with its error bound.
    Every candidate gets its ln interval from terms computed once per
    sweep: those of each n (lattice._dim_terms) and those of each field
    (lattice._field_terms), which the field-major loop takes once per
    field; lattice._ln_nu_interval adds them up.  Then _certify builds
    exact records, in ascending n, only where two intervals overlap; a
    winner's record waits until it is read.
    """
    bounds = {n: discriminant_bound(n) for n in dims}
    ceils = {n: math.ceil(b.value + b.abs_error_bound) for n, b in bounds.items()}
    limits = {n: max(c, 4) + safety_margin for n, c in ceils.items()}
    terms = [(n, lattice._dim_terms(n)) for n in dims]
    rank = lattice._ln_nu_interval
    candidates: dict[int, list[Candidate]] = {n: [] for n in dims}
    for field in quadfield.fields_with_disc_at_most(max(limits.values())):
        shared = lattice._field_terms(field)
        for n, dim in terms:
            if field.disc_abs <= limits[n]:
                candidates[n].append(Candidate(field, *rank(dim, shared)))
    return tuple(
        _certify(n, bounds[n].value, limits[n], tuple(candidates[n])) for n in dims
    )


def minimal_field(n: int, safety_margin: int = 20) -> MinimalResult:
    """Field of minimal covolume at dimension n, with a full certificate.

    Enumerates every field with |disc| <= max(discriminant_bound(n), 4)
    + safety_margin and ranks them by rigorous intervals on ln nu (the
    lower endpoint for interval candidates, which is sound because the
    winner must be exact).  Exact nu values are built and compared only
    when two or more intervals overlap the best one; the winner's record
    is built when it is first read.  A tie for the minimum, or an
    inexact winner, raises TieDetected rather than guessing.
    """
    require_int(n, "n", 2, InvalidDimension)
    require_int(safety_margin, "safety_margin", 1)
    return _sweep(range(n, n + 1), safety_margin)[0]


def _volume_value(result: CovolumeResult) -> float:
    vol = result.volume
    return vol[0] if isinstance(vol, tuple) else vol


def _ln_volume_bounds(mr: MinimalResult) -> tuple[float, float]:
    """Floats (low, high) with low <= ln v <= high, for v the float
    volume that mr's record holds (_volume_value), ln 0 = -inf and
    ln inf = inf; the candidate's interval [a, b] on ln nu_lower, plus
    n ln 4 pi - ln (n+1)!, plus a slack for the floats on both sides.

    Let u = 2^-53, A = max(-a, b) >= |ln nu_lower|, G = lgamma(n + 2) and
    K a bound on ln of nu_lower's denominator: F(n)'s is at most
    2^n h 4^(n+2) (B_{n+1}'s denominator is a product of primes up to
    n + 2, below 4^(n+2)), and factor pair j's divides
    2j (2j+1) 4^j q times B_2j's (bernoulli._PowerSums.pair), so
    K = (3n + 4 + 3m^2 + 5m) ln 2 + ln h + m ln q + 2m ln(2m + 1).
    Then ln of the numerator is at most A + K.  lattice._volume takes
    one of two routes to v:
    - Directly, float(nu) (4 pi)^n / (n+1)!.  float(nu), float((n+1)!)
      and the product and quotient each round by u, (4 math.pi)^n is
      within 2u of its real value (libm pow within 1 ulp) and 4 math.pi
      within 2^-54 relatively of 4 pi, so while the three partial
      results are normal doubles, ln v is within u (n + 7) of ln of the
      real volume.
    - Past OverflowError, through logs: n ln(4 math.pi) - G + ln nu,
      with ln nu the difference of the logs of nu's numerator and
      denominator.  n ln(4 math.pi) is within 2^-50 n of n ln 4 pi;
      CPython's lgamma (Lanczos) is taken within 2^-48 (G + 8) of
      ln (n+1)!, which tests check against mpmath to n = 3000; math.log
      of an int x is within 2^-51 (ln x + 2), so ln nu is within
      2^-51 (A + 2K + 4) + u A; the three sums round by u of partial
      sums below 2.6 n + G + A, and exp, within 1 ulp, adds 2u while v
      is a normal double.
    Both routes are within E = 2^-47 (n + G + A + K + 8) of ln of the
    real volume, the second by a factor of about 2 in each term.  This
    function's own sums err by less than E, so the slack is 2E.  Where
    v can leave the normal range, the bound is opened.  High is inf when
    b + n ln 4 pi plus the slack reaches the log of the largest double:
    float(nu) times (4 pi)^n can overflow to inf before the division,
    and exp saturates.  When ln nu_lower or ln v minus the slack can
    fall below ln t, t the least normal double, low is -inf; and since
    below t float(nu) and v round by an absolute amount, to at most t,
    high is raised to ln t + max(shift, 0) plus the slack, shift being
    n ln 4 pi - ln (n+1)!.
    """
    n, (_, a, b) = mr.certificate.n, mr.candidate
    m, q = n // 2, mr.field.disc_abs
    g = math.lgamma(n + 2)
    k = (
        (3 * n + 4 + 3 * m * m + 5 * m) * _LN_2
        + math.log(lattice.class_number(mr.field))
        + m * math.log(q)
        + 2 * m * math.log(2 * m + 1)
    )
    slack = 2.0**-46 * (n + g + max(-a, b) + k + 8)
    shift = n * _LN_4PI - g
    low, high = a + shift - slack, b + shift + slack
    if min(a - slack, low) <= _LN_TINY:
        low, high = -math.inf, max(high, _LN_TINY + max(shift, 0.0) + slack)
    if b + n * _LN_4PI + slack >= _LN_HUGE:
        high = math.inf
    return low, high


def overall_minimum(n_max: int, safety_margin: int = 20) -> OverallMinimum:
    """Global minimum over 2 <= n <= n_max of the per-dimension minima.

    Requires n_max >= 10 so the scan range brackets the minimum.  The
    per-dimension certificates come from the sweep minimal_field uses,
    run once over n = 2..n_max, so each equals minimal_field(n) and a
    tie raises at the lowest tied dimension.  The winner of each ranking
    (Euler-Poincare value, hyperbolic volume) must be unique; the two
    need not agree.  Both rankings read intervals, the winners' ln nu
    intervals and their ln volume intervals (_ln_volume_bounds), and
    compare records, exact values or floats, only where two overlap; so
    the records built are n_star's and those of overlaps, and the other
    per_n records wait until they are read.  n1 is the smallest
    dimension from which q(m) > 1 for every m < n_max, by lower
    endpoints and over the winner's field only, so it says nothing
    about dimensions past n_max.
    """
    require_int(n_max, "n_max", 10)
    require_int(safety_margin, "safety_margin", 1)
    per_n = _sweep(range(2, n_max + 1), safety_margin)
    winner = _unique_min(
        _overlapping(per_n, lambda mr: _candidate_bounds(mr.candidate)),
        lambda mr: mr.result.nu_lower,
        lambda mr: str(mr.certificate.n),
        "overall minimum is shared by dimensions {}",
    )
    volume_winner = _unique_min(
        _overlapping(per_n, _ln_volume_bounds),
        lambda mr: _volume_value(mr.result),
        lambda mr: str(mr.certificate.n),
        "volume minimum is shared by dimensions {}",
    )

    # n1 is one past the last m < n_max whose ratio may be <= 1, over the
    # winner's field and by lower endpoints (sound: growth is only
    # claimed where even the smallest possible ratio exceeds 1)
    n1 = 2
    for report in _growth_reports(winner.field, range(2, n_max)):
        if lattice._lower(report.q) <= 1:
            n1 = report.n + 1

    return OverallMinimum(
        n_star=winner.certificate.n,
        result=winner.result,
        volume_n_star=volume_winner.certificate.n,
        growth_threshold_n1=n1,
        per_n=per_n,
    )


def _ratio(numer: ExactOrInterval, denom: ExactOrInterval) -> ExactOrInterval:
    """numer / denom for positive values, an interval when either is one."""
    if lattice.is_exact(numer) and lattice.is_exact(denom):
        return numer / denom
    if not (lattice.is_exact(numer) or lattice.is_exact(denom)):
        # nu alternates exact/interval with parity, so consecutive
        # dimensions of one field never give two intervals
        raise InternalDefect("cannot form the ratio of two interval values")
    return Interval(
        lattice._lower(numer) / lattice._upper(denom),
        lattice._upper(numer) / lattice._lower(denom),
    )


def _closed_form_terms(field: QuadField, n: int) -> tuple[list[float], list[float]]:
    """Growth ratio through the functional equations, as its terms.

    Rewriting nu(n+1)/nu(n) with both zeta and L values moved to the
    right of 1 by the functional equation collapses the quotient to a
    single positive-argument special value:

      even n:  2 (n+2)/(n+1) (n+1)!/(2 pi)^(n+2) zeta(n+2) T
      odd n:  1/2 (n+2)/(n+1) (n+1)!/(2 pi)^(n+2) disc^(n+3/2) L(n+2) T

    with T = h_torsion(n+1)/h_torsion(n+2).  Valid for fields with one
    ramified prime, where the epsilon factors are pinned to 2.  Returns
    the plain factors ((n+2)/(n+1), T, then 2 zeta or L/2) and the
    logarithms of the rest, so the ratio and its logarithm share terms.
    """
    torsion = lattice.h_torsion(field, n + 1) / lattice.h_torsion(field, n + 2)
    logs = [math.lgamma(n + 2) - (n + 2) * math.log(2 * math.pi)]
    if n % 2 == 0:
        special = 2.0 * lvalues.zeta_numeric(n + 2).value
    else:
        special = 0.5 * lvalues.l_numeric(field, n + 2).value
        logs.append((n + 1.5) * math.log(field.disc_abs))
    return [(n + 2) / (n + 1), torsion, special], logs


def _closed_form_ratio(field: QuadField, n: int) -> float:
    """The closed-form growth ratio as a float; OverflowError past range."""
    (step, torsion, special), logs = _closed_form_terms(field, n)
    value = step * math.exp(logs[0]) * torsion * special
    return value * math.exp(logs[1]) if n % 2 else value


def growth_ratio(field: QuadField, n: int) -> GrowthReport:
    """Exact ratio nu(n+1)/nu(n), cross-checked against its closed form.

    The exact ratio, formed from the small factors of the two nu values
    and at odd n one L-factor pair (see _growth_reports), is the ground
    truth.  For fields with a single ramified prime it must match the
    functional-equation form to within 1e-6 relative (in practice it
    matches to near machine precision); a larger deviation means an
    internal defect and raises.  Ratios past double range are compared
    through their logarithms.
    """
    require_int(n, "n", 2, InvalidDimension)
    return next(_growth_reports(field, range(n, n + 1)))


def _growth_reports(field: QuadField, dims: range) -> Iterator[GrowthReport]:
    """growth_ratio(field, n) for each n of dims, an ascending run of step 1.

    nu(n) = F(n) P(floor(n/2)) (lattice._small_factor), so the L-product
    cancels from q(n) = nu(n+1)/nu(n) but for one factor pair at odd
    n = 2m + 1: q(n) = F(n+1) P(m+1)/P(m) / F(n), where F(n+1) is exact.
    F and the pair are positive, and F(n+1) of each step is carried to
    the next as its F(n), so a run computes no nu and no prefix product:
    it reads each pair from the field's power-sum state (bernoulli._l_pair).
    The run is checked on the call, as in _scan_rows (its first F checks
    n >= 2), and each report is computed when it is asked for.
    """
    if dims.step != 1:
        raise InternalDefect(f"growth runs ascend by 1, got {dims}")

    D = field.disc_signed

    def reports(f_n: ExactOrInterval) -> Iterator[GrowthReport]:
        for n in dims:
            f_next = lattice._small_factor(field, n + 1)
            numer = f_next * bernoulli._l_pair(D, n // 2 + 1) if n % 2 else f_next
            yield _growth_report(field, n, f_n, numer)
            f_n = f_next

    return reports(lattice._small_factor(field, dims.start))


def _growth_report(
    field: QuadField, n: int, denom: ExactOrInterval, numer: ExactOrInterval
) -> GrowthReport:
    """The report of q(n) = numer / denom, positive values whose quotient
    is nu(n+1)/nu(n)."""
    q = _ratio(numer, denom)
    q_low = lattice._lower(q)
    if q_low <= 0:
        raise InternalDefect(f"growth ratio at n = {n} is not positive: {q}")
    log_q_over_n = lattice._log_fraction(q_low) / n
    closed_form = None
    rel_err = None
    if field.r == 1:
        try:
            closed_form = _closed_form_ratio(field, n)
            exact_float = float(q)
            rel_err = abs(closed_form - exact_float) / exact_float
        except OverflowError:
            # the ratio is past double range (from n = 199 over Q(sqrt(-3)));
            # compare the same terms in logarithms, and saturate the
            # closed form to inf as volumes do
            closed_form = math.inf
            factors, logs = _closed_form_terms(field, n)
            ln = logs[0]
            for term in (*map(math.log, factors), *logs[1:]):
                ln += term
            rel_err = abs(math.expm1(ln - lattice._log_fraction(q)))
        if rel_err > 1e-6:
            raise InternalDefect(
                f"growth ratio cross-check failed at {field}, n = {n}: "
                f"closed form deviates from the exact ratio by {rel_err:.3g}"
            )
    return GrowthReport(
        field=field,
        n=n,
        q=q,
        log_q_over_n=log_q_over_n,
        closed_form=closed_form,
        closed_form_rel_err=rel_err,
    )


def hwang_bound(n: int, k: int) -> NumericValue:
    """Volume lower bound for a smooth quotient with k cusps.

    k (4 pi)^n / (n! (P(4) - P(2))) * (1 - (n+1)/(P(4) - P(2))) with
    P(l) = (nl+n+l)! / (n! (nl+l)!).  The combinatorial part is an exact
    rational; times (4 pi)^n, with 4 pi as the 42-digit ratio _FOUR_PI,
    it is one quotient of integers, which int division rounds once,
    subnormal results included: that is the k = 1 bound.  Wherever it is a normal
    double the bound is exactly k times it, and inf where that product
    overflows, as volumes saturate.  It decays to zero as n grows, below
    the normal range from n = 172 and to 0.0 from n = 179; there a k > 1
    bound is k times the exact quotient, rounded once, so it can still
    be a normal double: n = 300 with k = 2^1024 gives about 5.6e-302.
    """
    require_int(n, "n", 2, InvalidDimension)
    require_int(k, "k", 1)
    p4 = math.comb(4 * n + n + 4, n)
    p2 = math.comb(2 * n + n + 2, n)
    gap = p4 - p2
    num = (gap - (n + 1)) * _FOUR_PI**n
    den = (math.factorial(n) * gap * gap) << (_FOUR_PI_BITS * n)
    one = num / den
    if one >= 2.0**-1022:  # a normal double, so the bound is k * one
        num, den = one.as_integer_ratio()
    try:
        value = k * num / den
    except OverflowError:
        value = math.inf
    # (4 pi)^n is within n 2e-43 of its ratio, relatively, far below the
    # two roundings; below the normal range one is off by up to an ulp of 0.0
    return NumericValue(value, abs(value) * 2.3e-16 + math.ulp(0.0))
