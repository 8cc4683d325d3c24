"""Covolume invariants of the minimal nonuniform arithmetic lattices in
PU(n,1) attached to an imaginary quadratic field.

The central quantity is nu, the normalized Euler-Poincare covolume of
the lattice Gamma_ell in dimension n.  It is an exact positive rational
built from zeta and L values at nonpositive integers.  For odd n the
formula carries a factor epsilon that is pinned down only when the field
has a single ramified prime; otherwise nu is reported as an exact
interval whose endpoints differ by a power of two.  The L-product in it
comes from the field's power-sum state in bernoulli, which keeps its
prefix; this module keeps no per-index state.  The certificate's float
ranking by ln nu lives in survey, which reads the small factor's
integers here (_small_factor_ints).

An independent floating-point route evaluates the principal covolume
through the adelic volume formula and renormalizes it by the index of
the principal lattice; agreement of the two routes to high relative
precision exercises every layer of the package at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

from . import bernoulli, lvalues, quadfield
from .errors import InternalDefect, InvalidDimension, UnknownMultiplicity, require_int
from .lvalues import NumericValue
from .quadfield import QuadField

__all__ = [
    "Interval",
    "ExactOrInterval",
    "EpsilonStatus",
    "CovolumeResult",
    "is_exact",
    "epsilon_status",
    "class_number",
    "h_torsion",
    "nu",
    "euler_characteristic",
    "hyperbolic_volume",
    "index_gamma_lambda",
    "prasad_principal_covolume_numeric",
    "ep_normalization",
    "multiplicity_bounds",
    "covolume_result",
    "cross_path_check",
    "clear_caches",
]

# ln 2 pi to within 2^-51: 2 math.pi is within 2^-51 of 2 pi, which moves
# ln by < 2^-53.6, and the log's ulp is 2^-52; survey's ranking reads it too
_LN_2PI = math.log(2 * math.pi)


class Interval(NamedTuple):
    """A closed interval with exact rational endpoints, lower <= upper."""

    lower: Fraction
    upper: Fraction


ExactOrInterval = Union[Fraction, Interval]


def is_exact(x: ExactOrInterval) -> bool:
    return not isinstance(x, Interval)


def _lower(x: ExactOrInterval) -> Fraction:
    return x.lower if isinstance(x, Interval) else x


def _upper(x: ExactOrInterval) -> Fraction:
    return x.upper if isinstance(x, Interval) else x


@dataclass(frozen=True)
class EpsilonStatus:
    """What is known about the factor epsilon in the odd-n formula.

    kind is "exact" (single ramified prime, epsilon = 2), "bounded"
    (epsilon in {2, ..., 2^r}, reported as the interval [2, 2^r]), or
    "irrelevant" (even n, where no epsilon enters any formula).
    Construction raises ValueError outside the forms irrelevant 1..1,
    exact k..k with k >= 2 and bounded lo..hi with 2 <= lo <= hi.
    """

    kind: str
    lower: int
    upper: int

    def __post_init__(self) -> None:
        kind, low, high = self.kind, self.lower, self.upper
        if not (
            kind == "irrelevant" and low == high == 1
            or kind == "exact" and 2 <= low == high
            or kind == "bounded" and 2 <= low <= high
        ):
            raise ValueError(f"not an epsilon: {self!r:.80}")

    @property
    def exact(self) -> bool:
        return self.kind != "bounded"


def epsilon_status(field: QuadField, n: int) -> EpsilonStatus:
    if n % 2 == 0:
        return EpsilonStatus("irrelevant", 1, 1)
    if field.r == 1:
        return EpsilonStatus("exact", 2, 2)
    return EpsilonStatus("bounded", 2, 2**field.r)


@lru_cache(maxsize=1)
def class_number(field: QuadField) -> int:
    """h = (w/2) T_0 / (2 - chi(2)), with T_0 = sum_{0<a<|D|/2} chi(a).

    Dirichlet's class number formula for D < 0 (Davenport, Multiplicative
    Number Theory, ch. 6), w the number of roots of unity.  T_0 sums the
    half-period character table that nu's L-values read too, and chi(2)
    is the Kronecker symbol (D/2), since that table has no entry at 2
    when |D| is 3 or 4.  So no form is enumerated; an h that is not a
    positive integer raises InternalDefect.  The memo keeps the field
    asked last, as chi_table does.
    """
    D = field.disc_signed
    t0 = sum(quadfield.chi_table(D))
    h, rest = divmod(field.mu_order * t0, 2 * (2 - quadfield.kronecker_symbol(D, 2)))
    if rest or h < 1:
        raise InternalDefect(f"class number formula fails for {field}: T_0 = {t0}")
    return h


@lru_cache(maxsize=8)
def h_torsion(field: QuadField, m: int) -> int:
    """Number of ideal classes killed by m, written h_{ell,m}.

    Every class satisfies g^h = 1, so g^m = 1 exactly when
    g^gcd(m, h) = 1: h_{ell,m} = h_{ell,gcd(m,h)}, which is 1, with no
    form built, when m is prime to the class number.  Any other m is
    answered by the entry for g = gcd(m, h), so the reduced forms are
    enumerated and counted once per divisor g of h while the memo holds
    that entry; their count must equal h, or InternalDefect is raised.
    The memo keeps 8 entries, and a sweep over m = 3, 4, ... adds one per
    m, so a g entry read less often than every 8 or so m is counted again.
    """
    require_int(m, "m", 1)
    h = class_number(field)
    g = math.gcd(m, h)
    if g == 1:
        return 1
    if g != m:
        return h_torsion(field, g)
    group = quadfield.reduced_forms(field)
    if group.h != h:
        raise InternalDefect(
            f"{field} has {group.h} reduced forms but class number {h}"
        )
    return quadfield.torsion_count(group, g)


def _small_factor_ints(n: int) -> tuple[int, int]:
    """(top, scale) with F(n) = eps top / (scale h_{ell,n+1}), for every field.

    F(n) is the factor of nu(n) = F(n) P(floor(n/2)) besides the
    L-product: (n+1) / (2^n h_{ell,n+1}) at even n, where eps = 1.  At
    odd n it is (-1)^((n+1)/2) (n+1) zeta(-n) eps / (2^n h_{ell,n+1}),
    which is positive; since (n+1) zeta(-n) = -B_{n+1}, each endpoint is
    one quotient of integers.  eps = 2 when r = 1; otherwise eps in
    [2, 2^r] widens F to an interval.  Its size grows like n log n
    digits, against n^2 log n for P.  Raises InvalidDimension below
    n = 2, for nu, ranking and growth runs alike.
    """
    require_int(n, "n", 2, InvalidDimension)
    if n % 2 == 0:
        return n + 1, 1 << n
    b = bernoulli.bernoulli_number(n + 1)
    top = b.numerator if n % 4 == 1 else -b.numerator  # (-1)^((n+1)/2) (-B_{n+1})
    return top, b.denominator << n


def _small_factor(field: QuadField, n: int) -> ExactOrInterval:
    """F(n) (_small_factor_ints), each endpoint normalized once."""
    top, scale = _small_factor_ints(n)
    eps = epsilon_status(field, n)
    scale *= h_torsion(field, n + 1)
    if eps.lower == eps.upper:
        return Fraction(eps.lower * top, scale)
    return Interval(Fraction(eps.lower * top, scale), Fraction(eps.upper * top, scale))


def nu(field: QuadField, n: int) -> ExactOrInterval:
    """Normalized Euler-Poincare covolume of Gamma_ell in PU(n,1).

    F(n) P(floor(n/2)): the small factor F (_small_factor), exact or an
    interval, times the L-product P that the field's power-sum state keeps
    (bernoulli._l_product).  The small factors are combined first, so the
    large P enters one product per endpoint.
    """
    small = _small_factor(field, n)  # validates n
    prefix = bernoulli._l_product(field.disc_signed, n // 2)
    if is_exact(small):
        return small * prefix
    return Interval(small.lower * prefix, small.upper * prefix)


def _chi_of(v: ExactOrInterval, n: int) -> ExactOrInterval:
    if n % 2 == 0:
        return v
    if is_exact(v):
        return -v
    return Interval(-v.upper, -v.lower)


def euler_characteristic(field: QuadField, n: int) -> ExactOrInterval:
    """chi = (-1)^n nu: negative in odd dimension, positive in even."""
    return _chi_of(nu(field, n), n)


def _log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def _volume(value: Fraction, n: int) -> float:
    """(4 pi)^n / (n+1)! * value, saturating to inf past double range."""
    try:
        return float(value) * (4 * math.pi) ** n / math.factorial(n + 1)
    except OverflowError:
        # the fraction's parts exceed float range even when the volume
        # does not; go through logarithms, and saturate to inf on
        # genuine overflow (volumes past 1e308 occur for large
        # discriminants in high dimension)
        ln = (
            n * math.log(4 * math.pi)
            - math.lgamma(n + 2)
            + _log_fraction(value)
        )
        try:
            return math.exp(ln)
        except OverflowError:
            return math.inf


def _volume_of(v: ExactOrInterval, n: int) -> float | tuple[float, float]:
    if is_exact(v):
        return _volume(v, n)
    return _volume(v.lower, n), _volume(v.upper, n)


def hyperbolic_volume(
    field: QuadField, n: int
) -> NumericValue | tuple[NumericValue, NumericValue]:
    """vol(H^n_C / Gamma) = (4 pi)^n / (n+1)! * nu, via Gauss-Bonnet.

    Each value carries a relative error bound of 1e-13 (infinite once
    the volume saturates to inf).
    """
    volume = _volume_of(nu(field, n), n)
    if isinstance(volume, tuple):
        return tuple(NumericValue(v, v * 1e-13) for v in volume)
    return NumericValue(volume, volume * 1e-13)


def index_gamma_lambda(field: QuadField, n: int) -> ExactOrInterval:
    """Index of the principal lattice Lambda_ell inside Gamma_ell.

    (n+1) h_{ell,n+1} for even n; divided by epsilon for odd n, hence an
    interval when epsilon is only bounded.
    """
    require_int(n, "n", 2, InvalidDimension)
    base = Fraction((n + 1) * h_torsion(field, n + 1))
    if n % 2 == 0:
        return base
    eps = epsilon_status(field, n)
    if eps.kind == "exact":
        return base / 2
    return Interval(base / eps.upper, base / eps.lower)


def prasad_principal_covolume_numeric(field: QuadField, n: int) -> NumericValue:
    """Adelic covolume of the principal lattice in SU(n,1), as a float.

    disc^s * prod_{j=1..n} j! / (2 pi)^(j+1) * zeta(2) L(3) zeta(4) ...
    ending with zeta(n+1) for odd n and L(n+1) for even n, where
    s = n(n+3)/4 for even n and (n-1)(n+2)/4 for odd n.  Computed in log
    space; the returned bound accumulates every factor's truncation
    error and is well below 1e-9 relative throughout the tested range.
    """
    require_int(n, "n", 2, InvalidDimension)
    if n % 2 == 0:
        s = n * (n + 3) / 4
    else:
        s = (n - 1) * (n + 2) / 4
    log_value = s * math.log(field.disc_abs)
    for j in range(1, n + 1):
        log_value += math.log(math.factorial(j)) - (j + 1) * _LN_2PI
    rel_bound = 0.0
    for a in range(2, n + 2):
        nv = lvalues.zeta_numeric(a) if a % 2 == 0 else lvalues.l_numeric(field, a)
        log_value += math.log(nv.value)
        rel_bound += nv.abs_error_bound / abs(nv.value)
    value = math.exp(log_value)
    # slop for accumulated float roundoff in log space
    rel_bound += 2e-16 * (abs(log_value) + 3 * n + 10)
    return NumericValue(value, abs(value) * rel_bound)


def ep_normalization(
    field: QuadField, n: int
) -> NumericValue | tuple[NumericValue, NumericValue]:
    """(n+1)^2 * principal covolume / index: the numeric route to nu."""
    mu = prasad_principal_covolume_numeric(field, n)
    idx = index_gamma_lambda(field, n)
    scale = (n + 1) ** 2

    def _at(ix: Fraction) -> NumericValue:
        val = scale * mu.value / float(ix)
        return NumericValue(val, abs(val) * (mu.abs_error_bound / abs(mu.value) + 3e-16))

    if is_exact(idx):
        return _at(idx)
    return _at(idx.upper), _at(idx.lower)


def multiplicity_bounds(field: QuadField, n: int) -> tuple[int, int]:
    """How many minimal lattices share the covolume, up to conjugation.

    Even n: between 2^r and 2^r h_{ell,n+1}, exact when that torsion
    count is 1.  Odd n with one ramified prime: between 1 and
    h_{ell,n+1}, doubled when 8 divides n+1; exactly 1 when the torsion
    count is 1 and 8 does not divide n+1.  Odd n with r > 1 raises
    UnknownMultiplicity.
    """
    require_int(n, "n", 2, InvalidDimension)
    h_t = h_torsion(field, n + 1)
    if n % 2 == 0:
        lo = 2**field.r
        return (lo, lo * h_t)
    if field.r != 1:
        raise UnknownMultiplicity(
            f"multiplicity is not pinned down for odd n = {n} and {field} "
            f"with {field.r} ramified primes"
        )
    if (n + 1) % 8 == 0:
        return (1, 2 * h_t)
    return (1, h_t)


@dataclass(frozen=True)
class CovolumeResult:
    """Every invariant of the pair (field, n) surfaced by this package.

    This is also the printed record: the serialize module writes it as
    one JSON object or CSV row and parses that text back to an equal
    CovolumeResult.  d and disc = |D| name the field Q(sqrt(-d)), r
    counts its ramified primes, and volume is a float (a pair of floats
    bounding it when nu is an interval).
    """

    d: int
    disc: int
    n: int
    nu: ExactOrInterval
    chi: ExactOrInterval
    volume: float | tuple[float, float]
    h: int
    h_torsion: int
    r: int
    epsilon: EpsilonStatus
    multiplicity: tuple[int, int] | None

    @property
    def exact(self) -> bool:
        return is_exact(self.nu)

    @property
    def nu_lower(self) -> Fraction:
        return _lower(self.nu)

    @property
    def nu_upper(self) -> Fraction:
        return _upper(self.nu)


def covolume_result(field: QuadField, n: int) -> CovolumeResult:
    """Assemble the full record for one (field, n) pair."""
    value = nu(field, n)
    try:
        mult = multiplicity_bounds(field, n)
    except UnknownMultiplicity:
        mult = None
    return CovolumeResult(
        d=field.d,
        disc=field.disc_abs,
        n=n,
        nu=value,
        chi=_chi_of(value, n),
        volume=_volume_of(value, n),
        h=class_number(field),
        h_torsion=h_torsion(field, n + 1),
        r=field.r,
        epsilon=epsilon_status(field, n),
        multiplicity=mult,
    )


@dataclass(frozen=True)
class CrossPathRow:
    """One line of the exact-vs-numeric consistency check."""

    field: QuadField
    n: int
    exact_value: float
    numeric_value: float
    rel_diff: float
    ok: bool


def cross_path_check(
    fields: tuple[QuadField, ...] | None = None,
    n_values: tuple[int, ...] | None = None,
    tol: float = 1e-9,
) -> list[CrossPathRow]:
    """Compare exact nu with the renormalized principal covolume.

    Defaults cover every field of |disc| <= 100 with a single ramified
    prime and every 2 <= n <= 20.  Only r = 1 fields are eligible: both
    routes are exact points there, so disagreement beyond tol means a
    real defect somewhere in the chain.
    """
    if fields is None:
        fields = tuple(
            f for f in quadfield.fields_with_disc_at_most(100) if f.r == 1
        )
    if n_values is None:
        n_values = tuple(range(2, 21))
    rows = []
    for field in fields:
        if field.r != 1:
            raise InvalidDimension(
                f"cross-path check needs a single ramified prime, got {field}"
            )
        for n in n_values:
            exact_val = float(nu(field, n))
            numeric = ep_normalization(field, n)
            rel = abs(numeric.value - exact_val) / exact_val
            rows.append(
                CrossPathRow(
                    field=field,
                    n=n,
                    exact_value=exact_val,
                    numeric_value=numeric.value,
                    rel_diff=rel,
                    ok=rel <= tol,
                )
            )
    return rows


def clear_caches() -> None:
    """Reset this module's memo tables (used by tests)."""
    class_number.cache_clear()
    h_torsion.cache_clear()
