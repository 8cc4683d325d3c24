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
from math import comb, gcd, lcm
from operator import mul

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


def _even_values(start: int, stop: int) -> list[Fraction]:
    """B_2k for start <= k < stop (start >= 1), from tangent numbers.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), with the tangent numbers
    T_1, ..., T_(stop-1) from Algorithm TangentNumbers of Brent & Harvey,
    "Fast computation of Bernoulli, tangent and secant numbers" (2011):
    O(stop^2) small-integer steps, and no rational arithmetic until the
    one division per value.
    """
    m = stop - 1
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = []
    for k in range(start, stop):
        four = 4**k
        value = Fraction(2 * k * t[k], four * (four - 1))
        out.append(value if k % 2 else -value)
    return out


def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = -1/2.

    The even table grows by at least doubling, under a lock, so B_0..B_K
    asked in order build it about log2(K) times; entries are never
    mutated afterwards, so concurrent callers always observe identical
    values no matter how their calls interleave.  The table is read
    through one local name, since clear_caches may swap it mid-call.
    """
    require_int(k, "index", 0)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    j = k // 2
    table = _even_table
    if j >= len(table):
        with _lock:
            size = len(table)
            if j >= size:
                table.extend(_even_values(size, max(j + 1, 2 * size)))
    return table[j]


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
    """Cleared coefficients of B_k about x = 1/2, for odd k.

    B_k(x) = sum_i C(k, i) B_i(1/2) (x - 1/2)^(k-i) with
    B_i(1/2) = (2^(1-i) - 1) B_i, which vanishes for every odd i, B_1
    included.  At x = a/q this reads

      2^k q^k B_k(a/q) = sum over even i < k of
                         C(k, i) (2^i - 2) B_i q^i (q - 2a)^(k-i).

    Returns (c_0, c_1, ...) with c_j = M C(k, 2j) (2^(2j) - 2) B_2j, and
    M 2^(k-1), where M is the least common denominator of the
    C(k, i) (2^i - 2) B_i.  Each term is an integer numerator over a
    divisor of B_i's small squarefree denominator, reduced by one gcd
    with it, and C(k, i) is stepped from C(k, i - 2) by one exact
    division, so M is the lcm of those divisors and no Fraction
    arithmetic runs.  Only the even i are kept, and nothing depends on a
    conductor, so one entry per odd index k serves every field.
    """
    terms = []  # C(k, i) (2^i - 2) B_i as a reduced (numerator, denominator)
    binom = 1  # C(k, i)
    for i in range(0, k, 2):
        b = bernoulli_number(i)
        t = binom * (2**i - 2)
        g = gcd(t, b.denominator)
        terms.append((t // g * b.numerator, b.denominator // g))
        binom = binom * (k - i) * (k - i - 1) // ((i + 1) * (i + 2))
    m = lcm(*(den for _, den in terms))
    return tuple(num * (m // den) for num, den in terms), m << (k - 1)


def generalized_bernoulli(k: int, D: int) -> Fraction:
    """B_{k,chi} = |D|^(k-1) * sum_{a=1..|D|} chi_D(a) B_k(a/|D|).

    D must be the discriminant of an imaginary quadratic field, so chi_D
    is odd and B_{k,chi} vanishes for even k.  For odd k, expanding B_k
    about 1/2 (see _cleared_poly) leaves only odd powers of q - 2a, with
    q = |D|, and those take the same value at a and q - a, since chi is
    odd.  So with V_j = sum_{0<a<q/2} chi(a) (q - 2a)^j,

      B_{k,chi} = -(2^(1-k) / q) * sum over even i < k of
                  C(k, i) (2 - 2^i) B_i q^i V_{k-i}

    (the full period sums to 2 V_j), an exact rearrangement of the
    defining sum (Washington, Cyclotomic Fields, sec. 4.1).  The V_j do
    not depend on k, so every odd k of one field reads them from a single
    _PowerSums, built from one chi_table read, which keeps one list of
    signed powers z^j, z = chi(a) (q - 2a), and steps it by z^2: the odd k
    up to K take (K + 1)/2 power passes in all.

    Validation happens out here: bool hashes like int and -3.0 like -3,
    so a cached worker would hand back the entry for k = 1 on k = True,
    or for D = -3 on D = -3.0.  quadfield._require_fundamental refuses
    any D that is not an int, and its memo, typed and shared with
    chi_table, factors each field's |D| once, not once per k.
    """
    require_int(k, "index", 1)
    if D >= 0:
        raise NonFundamentalDiscriminant(
            f"{D} is not the discriminant of an imaginary quadratic field"
        )
    quadfield._require_fundamental(D)
    return _generalized_bernoulli(k, D)


def _times(xs: list[int], ys: list[int]) -> list[int]:
    """One power pass, a function of its own so that passes can be counted."""
    return list(map(mul, xs, ys))


class _PowerSums:
    """V_1, V_3, ... of one field: V_j = sum_{0<a<q/2} chi(a) (q - 2a)^j.

    chi(a) is 0 or +-1, so for odd j each term is z^j with
    z = chi(a) (q - 2a), and V_j is a plain power sum of the z.  chi is
    the field's half-period character table, chi(a) for 0 <= a < q/2,
    read here once and not kept; range(q, 0, -2) is q - 2a over the same
    a.  sq holds the z^2 and pow the z^j for the last odd j in sums,
    where sums[i] is V_{2i+1}.  sums only grows, under _lock, so a prefix
    read from it never goes stale.
    """

    def __init__(self, D: int, chi: tuple[int, ...]):
        self.pow = list(filter(None, map(mul, chi, range(-D, 0, -2))))
        self.sq = _times(self.pow, self.pow)
        self.sums = [sum(self.pow)]

    def extend(self, j: int) -> None:
        """Grow sums up to V_j, for an odd j."""
        while len(self.sums) <= j // 2:
            self.pow = _times(self.pow, self.sq)
            self.sums.append(sum(self.pow))


@lru_cache(maxsize=1)
def _power_state(D: int) -> _PowerSums:
    """The power sums of the field asked last (D < 0), built on a new D."""
    return _PowerSums(D, quadfield.chi_table(D))


@lru_cache(maxsize=None)
def _generalized_bernoulli(k: int, D: int) -> Fraction:
    """Memoized body of generalized_bernoulli for validated arguments.

    A miss takes V_1..V_k from the field's shared _PowerSums, extended
    under _lock, and reads no character table itself.  The sum over even
    i runs by Horner's rule in q^2, from i = k - 1 (against V_1) down to
    i = 0 (against V_k).
    """
    if k % 2 == 0:
        return Fraction(0)
    q = -D
    state = _power_state(D)
    with _lock:
        state.extend(k)
    sums = state.sums
    ints, den = _cleared_poly(k)
    q2 = q * q
    total = 0
    for c, v in zip(reversed(ints), sums):
        total = total * q2 + c * v
    return Fraction(total, den * q)


def clear_caches() -> None:
    """Reset every memo table in this module (used by tests)."""
    global _even_table
    with _lock:
        _even_table = [Fraction(1)]
    _power_state.cache_clear()
    _cleared_poly.cache_clear()
    _generalized_bernoulli.cache_clear()
