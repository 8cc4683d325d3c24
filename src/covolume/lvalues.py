"""Numeric special values of the Riemann zeta function and of the
Dirichlet L-function attached to an imaginary quadratic field.

Values at integer s >= 2 are floats obtained by direct series summation
accelerated with Euler-Maclaurin tail corrections, and each carries a
rigorous bound on the truncation error.  They are the second route
against the exact values at nonpositive integers, which bernoulli builds
from the character's power sums alone (B_{k,chi}, with
L(1 - k, chi) = -B_{k,chi} / k).  The numeric route deliberately shares
nothing with the exact route: its tail coefficients are hardcoded
constants, and its character comes from one Kronecker symbol per
residue, not from the tiled table the exact route reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import quadfield
from .errors import require_int
from .quadfield import QuadField

__all__ = [
    "NumericValue",
    "zeta_numeric",
    "l_numeric",
    "clear_caches",
]


@dataclass(frozen=True)
class NumericValue:
    """A float together with a rigorous absolute error bound."""

    value: float
    abs_error_bound: float

    @property
    def rel_error_bound(self) -> float:
        if self.value == 0.0:
            return math.inf
        return self.abs_error_bound / abs(self.value)


# B_{2j} / (2j)! for j = 1..8, as plain float constants so the numeric
# route stays independent of the exact Bernoulli computation.
_TAIL_COEFFS = (
    8.333333333333333e-02,    # 1/12
    -1.3888888888888889e-03,  # -1/720
    3.3068783068783067e-05,   # 1/30240
    -8.267195767195768e-07,   # -1/1209600
    2.08767569878681e-08,     # 1/47900160
    -5.284190138687493e-10,   # -691/1307674368000
    1.3382536530684679e-11,   # 1/74724249600
    -3.3896802963225827e-13,  # -3617/10670622842880000
)
# |B_18| / 18!, the scale of the first omitted correction term
_TAIL_NEXT = 8.586062056277845e-15


def _hurwitz(s: int, x: float, target: float) -> tuple[float, float]:
    """(zeta(s, x), truncation bound) for integer s >= 2, 0 < x <= 1.

    Direct summation of N leading terms plus the Euler-Maclaurin
    integral, midpoint, and correction terms.  For real s > 0 the
    remainder after J corrections is no larger than the first omitted
    term; that term, doubled for slack, is the truncation part of the
    bound.  Each float operation can shift the accumulator by half an
    ulp of its running magnitude, so the bound also charges one ulp per
    term for roundoff.  N grows until the bound meets the target.
    """
    nterms = 16
    while True:
        acc = 0.0
        for mm in range(nterms):
            acc += (mm + x) ** (-s)
        w = nterms + x
        acc += w ** (1 - s) / (s - 1)
        acc += 0.5 * w ** (-s)
        rising = float(s)
        wpow = w ** (-s - 1)
        for j, cj in enumerate(_TAIL_COEFFS):
            acc += cj * rising * wpow
            rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
            wpow /= w * w
        truncation = 2.0 * _TAIL_NEXT * rising * wpow
        roundoff = (nterms + 40) * 2.3e-16 * abs(acc)
        if truncation <= target or nterms >= 1 << 22:
            return acc, truncation + roundoff
        nterms *= 2


@lru_cache(maxsize=None)
def zeta_numeric(s: int) -> NumericValue:
    """zeta(s) for integer s >= 2, with truncation error below 1e-12."""
    require_int(s, "s", 2)
    value, bound = _hurwitz(s, 1.0, 2.5e-13)
    return NumericValue(value, bound + 4e-16 * abs(value))


@lru_cache(maxsize=1)
def _kronecker_row(D: int) -> tuple[int, ...]:
    """chi_D(0), ..., chi_D(|D| - 1), one Kronecker symbol per residue.

    The exact route tiles its table from prime discriminants; this route
    keeps its own, so the two share no character code.  Callers ask one
    field at a time, so the memo keeps the field asked last.
    """
    return tuple(quadfield.kronecker_symbol(D, a) for a in range(abs(D)))


@lru_cache(maxsize=None)
def _l_numeric_by_disc(D: int, s: int) -> NumericValue:
    q = -D
    chi = _kronecker_row(D)
    try:
        # total error scales by q^(-s); give each residue class its share
        per_target = 2.5e-13 * float(q) ** (s - 1)
        acc = 0.0
        err = 0.0
        for a in range(1, q):
            sign = chi[a]
            if sign:
                v, e = _hurwitz(s, a / q, per_target)
                acc += v if sign > 0 else -v
                err += e
    except OverflowError:
        # q^s is past double range (from s = 140 at |D| = 163), where
        # |L(s) - 1| < 2^(1-s): sum 16 terms of the series itself, and
        # bound the rest by the integral 16^(1-s)/(s-1)
        value = math.fsum(chi[m % q] * m ** (-s) for m in range(1, 17))
        tail = 16.0 ** (1 - s) / (s - 1)
        return NumericValue(value, tail + 18 * 2.3e-16 * abs(value))
    scale = float(q) ** (-s)
    value = acc * scale
    # roundoff slop: q float additions plus the final scaling
    slop = 1.2e-16 * (q + 2) * abs(value)
    return NumericValue(value, err * scale + slop)


def l_numeric(field: QuadField, s: int) -> NumericValue:
    """L(s, chi) for integer s >= 2, by summing the defining series.

    The sum over each residue class mod |D| is a Hurwitz-type series
    sharing the same Euler-Maclaurin treatment as zeta_numeric; the
    reported bound covers the truncation of every class.  Where |D|^s is
    past double range, the first terms of the series itself are summed.
    """
    require_int(s, "s", 2)
    return _l_numeric_by_disc(field.disc_signed, s)


def clear_caches() -> None:
    """Reset the numeric memo tables (used by tests)."""
    zeta_numeric.cache_clear()
    _kronecker_row.cache_clear()
    _l_numeric_by_disc.cache_clear()
