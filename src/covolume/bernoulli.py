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
def _cleared_poly(k: int, q: int) -> tuple[tuple[int, ...], int]:
    """Integer coefficients of M * q^k * B_k(a/q) as a polynomial in a.

    Returns (coefficients in degree-descending order, M) where M is the
    least common denominator that clears every coefficient.
    """
    coeffs = [comb(k, i) * bernoulli_number(i) * q**i for i in range(k + 1)]
    m = lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * m) for c in coeffs), m


def generalized_bernoulli(k: int, D: int) -> Fraction:
    """B_{k,chi} = |D|^(k-1) * sum_{a=1..|D|} chi_D(a) B_k(a/|D|).

    D must be the discriminant of an imaginary quadratic field.  The
    conductor sum is evaluated with cleared denominators (one integer
    Horner pass per residue), which is the same sum term for term.

    Validation happens out here: bool hashes like int, so a cached
    worker would hand back the entry for k = 1 on k = True.
    """
    require_int(k, "index", 1)
    if D >= 0 or not quadfield.is_fundamental_discriminant(D):
        raise NonFundamentalDiscriminant(
            f"{D} is not the discriminant of an imaginary quadratic field"
        )
    return _generalized_bernoulli(k, D)


@lru_cache(maxsize=None)
def _generalized_bernoulli(k: int, D: int) -> Fraction:
    q = -D
    chi = quadfield.chi_table(D)
    ints, m = _cleared_poly(k, q)
    total = 0
    for a in range(1, q + 1):
        sign = chi[a % q]
        if sign:
            acc = 0
            for coeff in ints:
                acc = acc * a + coeff
            total += acc if sign > 0 else -acc
    # q^(k-1) * sum chi(a) B_k(a/q) = sum chi(a) * (M q^k B_k(a/q)) / (M q)
    return Fraction(total, m * q)


def clear_caches() -> None:
    """Reset every memo table in this module (used by tests)."""
    global _even_table
    with _lock:
        _even_table = [Fraction(1)]
    _cleared_poly.cache_clear()
    _generalized_bernoulli.cache_clear()
