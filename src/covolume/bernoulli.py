"""Exact Bernoulli numbers, Bernoulli polynomials, and their twists by
quadratic characters.

Everything here is computed in exact rational arithmetic with
fractions.Fraction; no floating point enters any value.  The sign
convention is B_1 = -1/2.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from . import quadfield
from .errors import NonFundamentalDiscriminant, require_int

__all__ = [
    "bernoulli_number",
    "bernoulli_polynomial_value",
    "generalized_bernoulli",
    "clear_caches",
]

_lock = threading.Lock()
_even_table: list[Fraction] = [Fraction(1)]  # _even_table[j] holds B_{2j}


def _next_even(table: list[Fraction]) -> Fraction:
    """B_{2m} for m = len(table), from sum_{i<n} C(n+1, i) B_i = -B_n * (n+1).

    Odd-index terms vanish except B_1, whose C(n+1, 1) * (-1/2)
    contribution is folded in directly.
    """
    m = len(table)
    n = 2 * m
    s = Fraction(0)
    for j in range(m):
        s += comb(n + 1, 2 * j) * table[j]
    s -= Fraction(n + 1, 2)
    return -s / (n + 1)


def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = -1/2.

    The even table is filled once under a lock and entries are never
    mutated afterwards, so concurrent callers always observe identical
    values no matter how their calls interleave.
    """
    require_int(k, "index", 0)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    j = k // 2
    if j >= len(_even_table):
        with _lock:
            while j >= len(_even_table):
                _even_table.append(_next_even(_even_table))
    return _even_table[j]


def bernoulli_polynomial_value(k: int, x: Fraction | int) -> Fraction:
    """B_k(x) = sum_i C(k, i) B_i x^(k-i), evaluated exactly."""
    require_int(k, "index", 0)
    x = Fraction(x)
    acc = Fraction(0)
    for i in range(k + 1):
        b = bernoulli_number(i)
        if b:
            acc += comb(k, i) * b * x ** (k - i)
    return acc


@lru_cache(maxsize=None)
def _cleared_poly(k: int) -> tuple[tuple[int, ...], int]:
    """Integer coefficients M * C(k, i) * B_i of M * B_k(x), for i = 0..k.

    Returns (coefficients in ascending i, M), where M is the least common
    denominator of the C(k, i) B_i; entry i multiplies x^(k - i).  M does
    not depend on any conductor, so one entry per index k serves every
    field.
    """
    coeffs = [comb(k, i) * bernoulli_number(i) for i in range(k + 1)]
    m = lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * m) for c in coeffs), m


def generalized_bernoulli(k: int, D: int) -> Fraction:
    """B_{k,chi} = |D|^(k-1) * sum_{a=1..|D|} chi_D(a) B_k(a/|D|).

    D must be the discriminant of an imaginary quadratic field, so chi_D
    is odd and B_{k,chi} vanishes for even k.  For odd k the terms at a
    and |D| - a are equal (B_k(1 - x) = -B_k(x)), so with q = |D|,
    T_j = sum_{0<a<q/2} chi(a) a^j and the cleared coefficients
    c_i = M C(k, i) B_i of _cleared_poly,

      B_{k,chi} = 2 / (M q) * sum_i c_i q^i T_{k-i},

    an exact rearrangement of the defining sum.  The power sums T_j do not
    depend on k, so every odd k of one field reads them from a single
    _PowerSums, which keeps one running power list per sign and grows
    one j at a time: nu in dimension n takes n power passes in all.

    Validation happens out here: bool hashes like int, so a cached
    worker would hand back the entry for k = 1 on k = True.
    """
    require_int(k, "index", 1)
    if D >= 0 or not quadfield.is_fundamental_discriminant(D):
        raise NonFundamentalDiscriminant(
            f"{D} is not the discriminant of an imaginary quadratic field"
        )
    return _generalized_bernoulli(k, D)


def _times(xs: list[int], ys: list[int]) -> list[int]:
    """One power pass, a function of its own so that passes can be counted."""
    return [x * y for x, y in zip(xs, ys)]


class _PowerSums:
    """T_0, T_1, ... of one field: T_j = sum_{0<a<q/2} chi(a) a^j.

    plus and minus hold the half-range residues with chi = +1 and -1,
    and plus_pow, minus_pow their j-th powers for the last j in sums.
    sums only grows, so a prefix read from it never goes stale.
    """

    def __init__(self, D: int, chi: tuple[int, ...]):
        self.D = D
        q = -D
        # when q is even, chi(q/2) = 0, so a < q/2 covers the half range
        half = range(1, (q + 1) // 2)
        self.plus = self.plus_pow = [a for a in half if chi[a] > 0]
        self.minus = self.minus_pow = [a for a in half if chi[a] < 0]
        self.sums = [
            len(self.plus) - len(self.minus),
            sum(self.plus) - sum(self.minus),
        ]

    def extend(self, j: int) -> None:
        while len(self.sums) <= j:
            self.plus_pow = _times(self.plus_pow, self.plus)
            self.minus_pow = _times(self.minus_pow, self.minus)
            self.sums.append(sum(self.plus_pow) - sum(self.minus_pow))


_powers: _PowerSums | None = None  # the field read last; replaced on a new D


def _power_sums(D: int, chi: tuple[int, ...], j: int) -> list[int]:
    """T_0, ..., T_j (at least) of the field of discriminant D < 0."""
    global _powers
    with _lock:
        if _powers is None or _powers.D != D:
            _powers = _PowerSums(D, chi)
        _powers.extend(j)
        return _powers.sums


@lru_cache(maxsize=None)
def _generalized_bernoulli(k: int, D: int) -> Fraction:
    """Memoized body of generalized_bernoulli for validated arguments.

    A miss reads chi_table(D), a memo hit after the field's first k,
    and takes T_0..T_k from the field's shared _PowerSums.
    """
    if k % 2 == 0:
        return Fraction(0)
    q = -D
    sums = _power_sums(D, quadfield.chi_table(D), k)
    ints, m = _cleared_poly(k)
    total = sum(c * q**i * sums[k - i] for i, c in enumerate(ints) if c)
    return Fraction(2 * total, m * q)


def clear_caches() -> None:
    """Reset every memo table in this module (used by tests)."""
    global _even_table, _powers
    with _lock:
        _even_table = [Fraction(1)]
        _powers = None
    _cleared_poly.cache_clear()
    _generalized_bernoulli.cache_clear()
