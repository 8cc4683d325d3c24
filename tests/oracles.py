"""Independent oracles for the test suite.

Everything here recomputes reference values through a mechanism
different from the production code path: power-series division instead
of the recurrence for Bernoulli numbers, Euler's criterion instead of
reciprocity for the character, brute-force predicate checks instead of
the production enumeration for reduced forms, and mpmath's Hurwitz zeta
at high precision for the analytic values.  The character table with
one Kronecker symbol per residue, the table sieved from one Kronecker
symbol per prime, the table tiled over the full period rather than
half of it, the full-period Horner sum for B_{k,chi}, the
half-range power sums of a, the power sums of q - 2a split by the
sign of chi, the expansion of B_k about 1/2 with its cleared
coefficients, and the power passes over one signed list of q - 2a are
the exact kernels that the tiled table, the one signed power list, its
integer recurrence and the packed word table replaced, kept as their
differential oracles; likewise nu with its L-product rebuilt from j = 1 on every
call, which the prefix list of bernoulli._l_product replaced, each
factor pair read through l_negative, which the pair step of the
power-sum state replaced, and the minimal-field certificate built one
dimension at a time, which the field-major sweep of survey replaced;
that sweep itself, with the full record of every candidate ranked by
Fraction comparisons, is the oracle of its ranking by ln intervals, and
the logarithm of the L-product summed from each field's exact power
sums is the oracle of the functional equation's closed form.  The ln
interval of one candidate with every term computed anew is the oracle
of the terms the sweep shares across fields and dimensions, and the
rankings of the dimensions over every per-n record built up front are
the oracle of the rankings by interval that build records on demand;
their exact minimum is found in one pass (least_or_tie), not by
survey._unique_min, and the ln sums S(m), one memo entry per m, are the
oracle of the list the sweep builds once.
The growth closed form written out twice, as a float and as a
logarithm, the descending search for the growth threshold, and the field
enumeration that factored each d up to three times are kept the same way
for the single term list, the ascending run and the one factorization
per d that replaced them, and so is the Gauss composition with a branch
per shared factor of the leading coefficients, replaced by Cohen's
algorithm with two Bezout identities.  The even Bernoulli recurrence,
one entry per step, is the oracle of the tangent-number table; the
cleared coefficients built from Fractions, of their integer build; and
class powers through the public compose, one FormClass per step, of the
powers on reduced triples.  The small factor F(n) as a chain of
Fractions through zeta(-n) and the discriminant bound's exponent built
from Fractions are the oracles of the single quotients that replaced
them.
The values zeta(1 - k) and L(1 - k, chi), Bernoulli polynomial values,
inverse classes and the Brauer-Siegel class number bound are not used
by the package; the tests keep them as references for the zeta values,
B_{k,chi}, the group law and the class number.
"""

from __future__ import annotations

import decimal
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Sequence, TypeVar

import mpmath

from covolume import bernoulli, lattice, lvalues, quadfield, survey
from covolume.errors import InternalDefect, InvalidInput, TieDetected, require_int

T = TypeVar("T")


def bernoulli_series(k_max: int) -> list[Fraction]:
    """B_0 .. B_k_max via exact power-series division of t / (e^t - 1).

    Writing t/(e^t - 1) = sum c_k t^k and multiplying both sides by
    (e^t - 1)/t = sum t^j / (j+1)! gives the triangular system
    sum_{j=0}^{k} c_j / (k - j + 1)! = [k = 0], solved forward; then
    B_k = k! c_k.
    """
    coeffs: list[Fraction] = []
    for k in range(k_max + 1):
        acc = Fraction(1 if k == 0 else 0)
        for j in range(k):
            acc -= coeffs[j] / math.factorial(k - j + 1)
        coeffs.append(acc)
    return [math.factorial(k) * c for k, c in enumerate(coeffs)]


def next_even(table: list[Fraction]) -> Fraction:
    """B_{2m} for m = len(table), from sum_{i<n} C(n+1, i) B_i = -B_n * (n+1).

    table holds B_0, B_2, ..., B_{2m-2}.  Odd-index terms vanish except
    B_1, whose C(n+1, 1) * (-1/2) contribution is folded in directly.
    """
    m = len(table)
    n = 2 * m
    s = Fraction(0)
    for j in range(m):
        s += math.comb(n + 1, 2 * j) * table[j]
    s -= Fraction(n + 1, 2)
    return -s / (n + 1)


def even_bernoulli_by_recurrence(j_max: int) -> list[Fraction]:
    """B_0, B_2, ..., B_{2 j_max}, one next_even step per entry."""
    table = [Fraction(1)]
    while len(table) <= j_max:
        table.append(next_even(table))
    return table


def bernoulli_polynomial_value(k: int, x: Fraction | int) -> Fraction:
    """B_k(x) = sum_i C(k, i) B_i x^(k-i), evaluated exactly."""
    x = Fraction(x)
    acc = Fraction(0)
    for i in range(k + 1):
        b = bernoulli.bernoulli_number(i)
        if b:
            acc += math.comb(k, i) * b * x ** (k - i)
    return acc


@lru_cache(maxsize=None)
def cleared_poly(k: int) -> tuple[tuple[int, ...], int]:
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
    arithmetic runs.
    """
    terms = []  # C(k, i) (2^i - 2) B_i as a reduced (numerator, denominator)
    binom = 1  # C(k, i)
    for i in range(0, k, 2):
        b = bernoulli.bernoulli_number(i)
        t = binom * (2**i - 2)
        g = math.gcd(t, b.denominator)
        terms.append((t // g * b.numerator, b.denominator // g))
        binom = binom * (k - i) * (k - i - 1) // ((i + 1) * (i + 2))
    m = math.lcm(*(den for _, den in terms))
    return tuple(num * (m // den) for num, den in terms), m << (k - 1)


def cleared_poly_by_fractions(k: int) -> tuple[tuple[int, ...], int]:
    """cleared_poly(k) with every coefficient a Fraction."""
    coeffs = [
        math.comb(k, i) * (2**i - 2) * bernoulli.bernoulli_number(i)
        for i in range(0, k, 2)
    ]
    m = math.lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * m) for c in coeffs), m << (k - 1)


def von_staudt_clausen_denominator(k: int) -> int:
    """Product of primes p with (p-1) | k, for even k >= 2."""
    product = 1
    for p in range(2, k + 2):
        if all(p % q for q in range(2, p)) and k % (p - 1) == 0:
            product *= p
    return product


def primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit) if sieve[p]]


def euler_criterion(D: int, p: int) -> int:
    """Legendre symbol (D|p) for an odd prime p, via D^((p-1)/2) mod p."""
    residue = pow(D % p, (p - 1) // 2, p)
    if residue == 0:
        return 0
    return 1 if residue == 1 else -1


def naive_reduced_forms(D: int) -> set[tuple[int, int, int]]:
    """All reduced primitive forms of discriminant D < 0 by predicate scan."""
    found = set()
    a_max = math.isqrt(-D // 3) + 1
    for a in range(1, a_max + 1):
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if a > c:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            found.add((a, b, c))
    return found


@lru_cache(maxsize=16)
def chi_table_per_residue(D: int) -> tuple[int, ...]:
    """chi_D(0), ..., chi_D(|D| - 1), one Kronecker symbol per residue."""
    return tuple(quadfield.kronecker_symbol(D, m) for m in range(abs(D)))


def chi_table_sieved(D: int) -> tuple[int, ...]:
    """chi_D(0), ..., chi_D(|D| - 1), sieved from one Kronecker symbol per prime.

    chi_D is completely multiplicative: a zero at a prime p < |D| clears
    every multiple of p, and a -1 flips the sign of every multiple of each
    power p^e, so m picks up (-1)^(v_p(m)).
    """
    q = abs(D)
    chi = [1] * q
    if q > 1:
        chi[0] = 0
    composite = bytearray(q)
    for p in range(2, q):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, q, p))
        c = quadfield.kronecker_symbol(D, p)
        if c == 0:
            chi[p::p] = [0] * len(range(p, q, p))
        elif c < 0:
            pe = p
            while pe < q:
                chi[pe::pe] = [-x for x in chi[pe::pe]]
                pe *= p
    return tuple(chi)


_TWO_PART_TABLES = {
    -4: [0, 1, 0, -1],
    8: [0, 1, 0, -1, 0, -1, 0, 1],
    -8: [0, 1, 0, 1, 0, -1, 0, -1],
}


def _legendre_table(p: int) -> list[int]:
    table = [-1] * p
    table[0] = 0
    for x in range(1, p // 2 + 1):
        table[x * x % p] = 1
    return table


def chi_table_full_period(D: int) -> tuple[int, ...]:
    """chi_D(0), ..., chi_D(|D| - 1), each prime discriminant's table of
    ints tiled to the full length |D| and the tiles multiplied
    elementwise."""
    q = abs(D)
    odd = D
    factors = []
    if D % 4 == 0:
        two = -4 if D // 4 % 4 == 3 else 8 if D // 8 % 4 == 1 else -8
        factors.append(_TWO_PART_TABLES[two])
        odd = D // two
    factors += [_legendre_table(p) for p in quadfield._prime_factors(abs(odd))]
    tiles = [table * (q // len(table)) for table in factors] or [[1]]
    chi = tiles[0]
    for tile in tiles[1:]:
        chi = [x * y for x, y in zip(chi, tile)]
    return tuple(chi)


@lru_cache(maxsize=None)
def _bernoulli_tuple(k: int) -> tuple[Fraction, ...]:
    return tuple(bernoulli_series(k))


@lru_cache(maxsize=None)
def _cleared_poly_horner(k: int, q: int) -> tuple[tuple[int, ...], int]:
    """Coefficients of M * q^k * B_k(a/q) in a, degree-descending, and M."""
    series = _bernoulli_tuple(k)
    coeffs = [math.comb(k, i) * series[i] * q**i for i in range(k + 1)]
    m = math.lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * m) for c in coeffs), m


def generalized_bernoulli_horner(k: int, D: int) -> Fraction:
    """B_{k,chi} = q^(k-1) sum_{a=1..q} chi(a) B_k(a/q), q = |D|.

    One integer Horner pass per residue over the whole period, with the
    denominators cleared; no parity or half-range shortcut.
    """
    q = abs(D)
    chi = chi_table_per_residue(D)
    ints, m = _cleared_poly_horner(k, q)
    total = 0
    for a in range(1, q + 1):
        sign = chi[a % q]
        if sign:
            acc = 0
            for coeff in ints:
                acc = acc * a + coeff
            total += acc if sign > 0 else -acc
    return Fraction(total, m * q)


class APowerSums:
    """T_0, T_1, ... of one field: T_j = sum_{0<a<q/2} chi(a) a^j.

    One pass over the half-range residues per j, on powers of a itself.
    """

    def __init__(self, D: int):
        q = -D
        chi = quadfield.chi_table(D)
        half = range(1, (q + 1) // 2)
        self.D = D
        self.plus = self.plus_pow = [a for a in half if chi[a] > 0]
        self.minus = self.minus_pow = [a for a in half if chi[a] < 0]
        self.sums = [
            len(self.plus) - len(self.minus),
            sum(self.plus) - sum(self.minus),
        ]

    def extend(self, j: int) -> list[int]:
        while len(self.sums) <= j:
            self.plus_pow = [x * y for x, y in zip(self.plus_pow, self.plus)]
            self.minus_pow = [x * y for x, y in zip(self.minus_pow, self.minus)]
            self.sums.append(sum(self.plus_pow) - sum(self.minus_pow))
        return self.sums


class SignSplitPowerSums:
    """V_1, V_3, ... of one field: V_j = sum_{0<a<q/2} chi(a) (q - 2a)^j.

    The residues with chi(a) = +1 and -1 keep a running list of
    (q - 2a)^j each, stepped by their own squares, and V_j is the
    difference of the two sums.
    """

    def __init__(self, D: int):
        q = -D
        half = quadfield.chi_table(D)[1 : (q + 1) // 2]
        ys = range(q - 2, 0, -2)
        self.plus_pow = [y for y, c in zip(ys, half) if c > 0]
        self.minus_pow = [y for y, c in zip(ys, half) if c < 0]
        self.plus_sq = [y * y for y in self.plus_pow]
        self.minus_sq = [y * y for y in self.minus_pow]
        self.sums = [sum(self.plus_pow) - sum(self.minus_pow)]

    def extend(self, j: int) -> list[int]:
        while len(self.sums) <= j // 2:
            self.plus_pow = [x * y for x, y in zip(self.plus_pow, self.plus_sq)]
            self.minus_pow = [x * y for x, y in zip(self.minus_pow, self.minus_sq)]
            self.sums.append(sum(self.plus_pow) - sum(self.minus_pow))
        return self.sums


@lru_cache(maxsize=1)
def _sign_split_power_sums(D: int) -> SignSplitPowerSums:
    return SignSplitPowerSums(D)


def generalized_bernoulli_half_range(k: int, D: int) -> Fraction:
    """B_{k,chi} for odd k from the expansion of B_k about 1/2.

    B_{k,chi} = -(2^(1-k) / q) sum over even i < k of
    C(k, i) (2 - 2^i) B_i q^i V_{k-i}, q = |D|, with
    V_j = sum_{0<a<q/2} chi(a) (q - 2a)^j: the cleared coefficients of
    cleared_poly, by Horner's rule in q^2 from i = k - 1 (against V_1)
    down to i = 0 (against V_k).
    """
    q = -D
    sums = _sign_split_power_sums(D).extend(k)
    ints, den = cleared_poly(k)
    total = 0
    for c, v in zip(reversed(ints), sums):
        total = total * q * q + c * v
    return Fraction(total, den * q)


class PassPowerSums:
    """g_1, g_3, ... of one field, g_k = -2^(k-1) q B_{k,chi}, with every
    V_j = sum_{0<a<q/2} chi(a) (q - 2a)^j from one power pass.

    One signed list z = chi(a) (q - 2a) over every a, stepped by its
    squares, and the recurrence
    (k + 1) V_k = sum over even m < k of C(k + 1, m + 1) q^m g_{k-m}: the
    kernel that the packed word table of bernoulli replaced for
    t = q - 2a <= bernoulli._WORD_T and odd j <= bernoulli._WORD_J.
    """

    def __init__(self, D: int):
        self.q = -D
        chi = quadfield.chi_table(D)
        self.pow = [z for z in map(operator.mul, chi, range(-D, 0, -2)) if z]
        self.sq = [z * z for z in self.pow]
        self.g = [sum(self.pow)]

    def extend(self, k: int) -> list[int]:
        g, q2 = self.g, self.q * self.q
        while len(g) <= k // 2:
            j = 2 * len(g) + 1
            self.pow = list(map(operator.mul, self.pow, self.sq))
            acc, binom = 0, j + 1
            for r, gm in zip(range(j, 1, -2), g):  # r = m + 1
                acc = acc * q2 + binom * gm
                binom = binom * r * (r - 1) // ((j - r + 3) * (j - r + 2))
            quotient, rest = divmod(acc * q2, j + 1)
            if rest:
                raise InternalDefect(f"g_{j} of D = {-self.q} is not an integer")
            g.append(sum(self.pow) - quotient)
        return g


@lru_cache(maxsize=None)
def cleared_poly_a_powers(k: int) -> tuple[tuple[int, ...], int]:
    """Integer coefficients M C(k, i) B_i of M B_k(x), i = 0..k, and M."""
    coeffs = [math.comb(k, i) * bernoulli.bernoulli_number(i) for i in range(k + 1)]
    m = math.lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * m) for c in coeffs), m


@lru_cache(maxsize=1)
def _a_power_sums(D: int) -> APowerSums:
    return APowerSums(D)


def generalized_bernoulli_a_powers(k: int, D: int) -> Fraction:
    """B_{k,chi} for odd k as 2 / (M q) sum_i c_i q^i T_{k-i}, q = |D|.

    B_k(1 - x) = -B_k(x) pairs a with q - a, so the half range carries
    the whole sum; every coefficient of B_k(x) enters, against the power
    sums of a.
    """
    q = -D
    sums = _a_power_sums(D).extend(k)
    ints, m = cleared_poly_a_powers(k)
    total = sum(c * q**i * sums[k - i] for i, c in enumerate(ints) if c)
    return Fraction(2 * total, m * q)


def zeta_negative(k: int) -> Fraction:
    """zeta(1 - k) = -B_k / k for even k >= 2, as an exact rational."""
    require_int(k, "k", 2)
    if k % 2:
        raise InvalidInput(f"k must be even, got {k}")
    return -bernoulli.bernoulli_number(k) / k


def small_factor_by_zeta(field: quadfield.QuadField, n: int) -> lattice.ExactOrInterval:
    """lattice._small_factor as the chain of Fractions it replaced:
    Fraction(+-(n+1), 2^n h_t), times zeta(-n) and eps at odd n."""
    sign = -1 if n % 4 == 1 else 1  # (-1)^((n+1)/2) at odd n
    small = Fraction(sign * (n + 1), 2**n * lattice.h_torsion(field, n + 1))
    if n % 2 == 0:
        return small
    small *= zeta_negative(n + 1)  # zeta(-n)
    eps = lattice.epsilon_status(field, n)
    if eps.exact:
        return small * 2
    return lattice.Interval(small * eps.lower, small * eps.upper)


def discriminant_bound_by_fractions(n: int) -> float:
    """survey.discriminant_bound(n).value with its exponent
    (n - t) / (2 (s - 1)) built from Fractions and rounded once."""
    if n % 2 == 0:
        s, t = Fraction(n * (n + 3), 4), 1
    else:
        s, t = Fraction((n - 1) * (n + 2), 4), 0
    exponent = Fraction(n - t) / (2 * (s - 1))
    return 3.0 * (2 * math.pi**5 / 3**5.5) ** float(exponent)


def ln_by_decimal(x: Fraction, digits: int = 50) -> decimal.Decimal:
    """ln x for a positive rational, from its exact numerator and
    denominator, to `digits` significant digits with decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return decimal.Decimal(x.numerator).ln() - decimal.Decimal(x.denominator).ln()


LN_SLACK = 2.0**-48  # the float slack per logarithm step of survey._ln_sums


@lru_cache(maxsize=None)
def ln_sum(m: int) -> tuple[float, float]:
    """(S(m), W(m)) of survey._ln_sums, one m per call from ln_sum(m - 1),
    with ln 2 pi and the slack taken anew: the per-m memo that the list
    built once per sweep replaced, with the same float operations in the
    same order."""
    if m == 0:
        return 0.0, 0.0
    s, width = ln_sum(m - 1)
    b = bernoulli.bernoulli_number(2 * m)
    ints = (abs(b.numerator), b.denominator, m, math.factorial(2 * m))
    la, ld, lm, lf = map(math.log, ints)
    s += la - ld - lm + lf - (2 * m + 1) * math.log(2 * math.pi)
    bits = sum(x.bit_length() for x in ints) + 2 * (2 * m + 1)
    return s, width + 4.0**-m + LN_SLACK * (bits + 3 + abs(s))


def ln_l_product(D: int, m: int) -> tuple[float, float]:
    """ln P(m), P as in bernoulli._l_product, as a float and a half-width
    that encloses the real value, for one field and one m: S(m) and W(m)
    (ln_sum), plus c(m) ln q with its float slack (see
    survey._ln_nu_interval).  This is the per-call form that the sweep's
    shared terms replaced."""
    s, width = ln_sum(m)
    q, c = -D, m * (m + 1) + m / 2
    value = s + c * math.log(q)
    return value, width + LN_SLACK * (c * (q.bit_length() + 1) + abs(value))


def ln_nu_bounds(field: quadfield.QuadField, n: int) -> tuple[float, float]:
    """Floats (low, high) with low <= ln nu_lower <= high, each term
    computed anew for the one (field, n): ln F(n) from its unreduced
    integers low = eps.lower (n+1) and scale = 2^n h_{ell,n+1} at even n,
    low = eps.lower (-1)^((n+1)/2) (-B_{n+1})'s numerator and scale =
    2^n h_{ell,n+1} times its denominator at odd n, plus ln P(floor(n/2))
    (ln_l_product) with its half-width and LN_SLACK (bits + 3 + |value|)
    for the two logarithms of F and the float sums.  This is the
    per-candidate form that survey._ln_nu_interval replaced, with the
    same float operations in the same order."""
    eps = lattice.epsilon_status(field, n).lower
    scale = lattice.h_torsion(field, n + 1) << n
    if n % 2 == 0:
        low = eps * (n + 1)
    else:
        b = bernoulli.bernoulli_number(n + 1)
        low = eps * (b.numerator if n % 4 == 1 else -b.numerator)
        scale *= b.denominator
    ln_prefix, error = ln_l_product(field.disc_signed, n // 2)
    value = math.log(low) - math.log(scale) + ln_prefix
    bits = low.bit_length() + scale.bit_length()
    error += LN_SLACK * (bits + 3 + abs(value))
    return value - error, value + error


def ln_pair_by_power_sums(D: int, j: int) -> tuple[float, int]:
    """ln pair(j) of the field's power-sum state as a float, and the bit
    lengths of the three integers it is the logarithm of: pair(j) =
    a g / d with a = -B_2j's numerator, g = g_(2j+1) and
    d = 2j (2j+1) 4^j q times B_2j's denominator, and no product formed.
    Each of the three logs is within 2^-51 (b + 1) of ln, and the two
    float sums round by 2^-53 of their magnitudes, so the term is within
    2^-50 (bits + 3) of ln pair(j) (see survey._ln_sums)."""
    state = bernoulli._power_state(D)
    with bernoulli._lock:
        state.extend(2 * j + 1)
    b = bernoulli.bernoulli_number(2 * j)
    a, g = abs(b.numerator), abs(state.g[j])
    den = (2 * j * (2 * j + 1) * b.denominator * state.q) << 2 * j
    bits = a.bit_length() + g.bit_length() + den.bit_length()
    return math.log(a) + math.log(g) - math.log(den), bits


def ln_l_products_by_power_sums(D: int, m: int) -> list[tuple[float, float]]:
    """(ln P(i), error bound) for i = 0..m, with P as in bernoulli._l_product:
    the sum of ln_pair_by_power_sums over j <= i, each step adding
    LN_SLACK (bits + 3 + |sum|) to the bound.  This is the
    route that the closed form of ln_l_product replaced; it
    reads the field's exact g_(2j+1), so its bound is float error alone."""
    logs = [(0.0, 0.0)]
    for j in range(1, m + 1):
        value, error = logs[-1]
        term, bits = ln_pair_by_power_sums(D, j)
        value += term
        logs.append((value, error + LN_SLACK * (bits + 3 + abs(value))))
    return logs


def l_negative(field: quadfield.QuadField, k: int) -> Fraction:
    """L(1 - k, chi) = -B_{k,chi} / k for odd k >= 1, as an exact rational."""
    require_int(k, "k", 1)
    if k % 2 == 0:
        raise InvalidInput(f"k must be odd, got {k}")
    b = bernoulli.generalized_bernoulli(k, field.disc_signed)
    return Fraction(-b.numerator, k * b.denominator)


def l_pair_by_l_negative(field: quadfield.QuadField, j: int) -> Fraction:
    """zeta(1-2j) L(-2j, chi) = -B_2j L(-2j, chi) / 2j, with L(-2j, chi)
    read through l_negative and the memo of B_{k,chi}."""
    b = bernoulli.bernoulli_number(2 * j)
    el = l_negative(field, 2 * j + 1)
    return Fraction(-b.numerator * el.numerator, 2 * j * b.denominator * el.denominator)


def nu_by_loop(field: quadfield.QuadField, n: int) -> lattice.ExactOrInterval:
    """nu(field, n) with prod_{j<=n/2} zeta(1-2j) L(-2j) looped per call."""
    sign = 1 if n % 2 == 0 or (n + 1) // 2 % 2 == 0 else -1
    acc = Fraction(sign * (n + 1), 2**n * lattice.h_torsion(field, n + 1))
    if n % 2:
        acc *= zeta_negative(n + 1)  # zeta(-n)
    for j in range(1, n // 2 + 1):
        acc *= zeta_negative(2 * j)
        acc *= l_negative(field, 2 * j + 1)
    if n % 2 == 0:
        return acc
    eps = lattice.epsilon_status(field, n)
    if eps.kind == "exact":
        return acc * 2
    return lattice.Interval(acc * eps.lower, acc * eps.upper)


class ExactCandidate(NamedTuple):
    """A certificate entry of the exact-ranking oracles: a field and its
    full covolume record."""

    field: quadfield.QuadField
    result: lattice.CovolumeResult


class ExactMinimum(NamedTuple):
    """A certified minimum of the exact-ranking oracles: the winner's field,
    its record, built with every other candidate's, and the certificate."""

    field: quadfield.QuadField
    result: lattice.CovolumeResult
    certificate: survey.MinimalCertificate


def minimal_field_by_loop(n: int, safety_margin: int = 20) -> ExactMinimum:
    """minimal_field(n) with every candidate of dimension n computed on its
    own, in ascending discriminant, and the winner picked by min() over
    the full records (ExactCandidate entries in the certificate).

    Ties and inexact winners are not checked here; minimal_field raises
    on them, which a comparison with this oracle reports as an error.
    """
    bound = survey.discriminant_bound(n).value
    limit = max(math.ceil(bound), 4) + safety_margin
    candidates = tuple(
        ExactCandidate(f, lattice.covolume_result(f, n))
        for f in quadfield.fields_with_disc_at_most(limit)
    )
    winner = min(candidates, key=lambda c: c.result.nu_lower)
    certificate = survey.MinimalCertificate(n, bound, limit, candidates)
    return ExactMinimum(winner.field, winner.result, certificate)


def least_or_tie(
    items: Sequence[T], key: Callable[[T], Any], name: Callable[[T], str], message: str
) -> T:
    """The item of least key in one pass over items, or TieDetected(message)
    naming, in their order, every item that shares it.  This is the
    oracle of survey._unique_min, and shares no code with it."""
    best, winners = None, []
    for item in items:
        k = key(item)
        if not winners or k < best:
            best, winners = k, [item]
        elif k == best:
            winners.append(item)
    if len(winners) > 1:
        raise TieDetected(message.format(", ".join(name(w) for w in winners)))
    return winners[0]


def _certify_by_exact_ranking(
    n: int, bound: float, limit: int, candidates: tuple[ExactCandidate, ...]
) -> ExactMinimum:
    """The unique exact minimum among candidates, or TieDetected."""
    winner = least_or_tie(
        candidates,
        lambda c: c.result.nu_lower,
        lambda c: str(c.field),
        f"minimum at n = {n} is shared by {{}}",
    )
    if not winner.result.exact:
        raise TieDetected(
            f"minimum at n = {n} falls on an interval candidate "
            f"({winner.field}); comparison by lower endpoint is inconclusive"
        )
    certificate = survey.MinimalCertificate(n, bound, limit, candidates)
    return ExactMinimum(winner.field, winner.result, certificate)


def sweep_by_exact_ranking(
    dims: range, safety_margin: int = 20
) -> tuple[ExactMinimum, ...]:
    """survey._sweep as it was before its ln-interval ranking: the full
    record of every (field, n) candidate, in one field-major sweep, each
    n's winner picked by Fraction comparisons of every nu_lower."""
    bounds = {n: survey.discriminant_bound(n).value for n in dims}
    limits = {n: max(math.ceil(b), 4) + safety_margin for n, b in bounds.items()}
    candidates: dict[int, list[ExactCandidate]] = {n: [] for n in dims}
    for field in quadfield.fields_with_disc_at_most(max(limits.values())):
        for n, limit in limits.items():
            if field.disc_abs <= limit:
                result = lattice.covolume_result(field, n)
                candidates[n].append(ExactCandidate(field, result))
    return tuple(
        _certify_by_exact_ranking(n, bounds[n], limits[n], tuple(candidates[n]))
        for n in dims
    )


class EagerOverall(NamedTuple):
    """overall_minimum(n_max) as it was before its rankings read intervals:
    n_star, volume_n_star, n1 and the winner's record, from every per-n
    record built up front."""

    n_star: int
    result: lattice.CovolumeResult
    volume_n_star: int
    growth_threshold_n1: int


def overall_minima_by_records(
    records: Sequence[lattice.CovolumeResult], n_maxes: range
) -> dict[int, EagerOverall]:
    """The eager answer of overall_minimum(n_max) for each n_max in n_maxes,
    from records[i], the exact record of dimension i + 2's minimal field:
    the least exact nu_lower over every record up to n_max, compared as
    Fractions, the least float volume over every record, and n1 from
    the winner's growth ratios by lower endpoints, each ratio computed
    once by growth_ratio.  A tie in either ranking raises TieDetected
    with the message overall_minimum gives."""
    at_most_one: dict[tuple[int, int], bool] = {}
    answers = {}
    for n_max in n_maxes:
        per_n = records[: n_max - 1]
        winner = least_or_tie(
            per_n,
            lambda r: r.nu_lower,
            lambda r: str(r.n),
            "overall minimum is shared by dimensions {}",
        )
        volume_winner = least_or_tie(
            per_n,
            survey._volume_value,
            lambda r: str(r.n),
            "volume minimum is shared by dimensions {}",
        )
        field = quadfield.from_squarefree_d(winner.d)
        n1 = 2
        for m in range(2, n_max):
            if (field.d, m) not in at_most_one:
                q = survey.growth_ratio(field, m).q
                at_most_one[field.d, m] = lattice._lower(q) <= 1
            if at_most_one[field.d, m]:
                n1 = m + 1
        answers[n_max] = EagerOverall(winner.n, winner, volume_winner.n, n1)
    return answers


def fields_by_triple_factoring(limit: int) -> tuple[quadfield.QuadField, ...]:
    """fields_with_disc_at_most(limit) testing squarefreeness of every d up
    to limit, then building each field and factoring its discriminant."""
    fields = []
    for d in range(1, max(limit, 0) + 1):
        if not quadfield.is_squarefree(d):
            continue
        disc = d if d % 4 == 3 else 4 * d
        if disc <= limit:
            primes = quadfield._prime_factors(disc)
            mu = 6 if d == 3 else 4 if d == 1 else 2
            fields.append(
                quadfield.QuadField(d, disc, -disc, primes, len(primes), mu)
            )
    fields.sort(key=lambda f: (f.disc_abs, f.d))
    return tuple(fields)


def compose_triples_by_cases(
    f1: tuple[int, int, int], f2: tuple[int, int, int], D: int
) -> tuple[int, int, int]:
    """Gauss composition picking A with the composed form
    (a1*a2, b2 + 2*a2*A, *), one branch per way the leading coefficients
    can share a factor, then reduction."""
    if f1[0] < f2[0]:
        f1, f2 = f2, f1
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    n = b2 - s
    d, u, v = quadfield._ext_gcd(a2, a1)
    if d == 1:
        A = -u * n
        d1 = 1
    elif s % d == 0:
        A = -u * n
        d1 = d
        a1 //= d1
        a2 //= d1
        s //= d1
    else:
        d1, u1, _ = quadfield._ext_gcd(s, d)
        if d1 > 1:
            a1 //= d1
            a2 //= d1
            s //= d1
            d //= d1
        # d divides n once gcd(s, d) = 1: n*s = a2*c2 - a1*c1
        ell = (-u1 * (u * (c1 % d) + v * (c2 % d))) % d
        A = -u * (n // d) + ell * (a1 // d)
    A %= a1
    a3 = a1 * a2
    b3 = b2 + 2 * a2 * A
    t = b3 * b3 - D
    if t % (4 * a3):
        raise InternalDefect(f"composition produced an invalid form at D = {D}")
    return quadfield._reduce_triple(a3, b3, t // (4 * a3))


def inverse_class(g: quadfield.FormClass) -> quadfield.FormClass:
    """The inverse class, represented by the reduction of (a, -b, c)."""
    return quadfield.FormClass(*quadfield._reduce_triple(g.a, -g.b, g.c))


def class_power_by_form_classes(
    g: quadfield.FormClass, m: int, group: quadfield.ClassGroup
) -> quadfield.FormClass:
    """g^m by binary powering through the public compose, from the identity."""
    result = group.principal
    base = g
    while m:
        if m & 1:
            result = quadfield.compose(result, base, group)
        m >>= 1
        if m:
            base = quadfield.compose(base, base, group)
    return result


def torsion_count_by_form_classes(group: quadfield.ClassGroup, m: int) -> int:
    """Number of classes g with class_power_by_form_classes(g, m) principal."""
    e = group.principal
    return sum(1 for g in group.classes if class_power_by_form_classes(g, m, group) == e)


def brauer_siegel_h_bound(
    field: quadfield.QuadField, m: int
) -> lvalues.NumericValue:
    """Upper bound on the class number from the degree-m zeta value.

    mu * m (m-1) (m-1)! * (disc / 4 pi^2)^(m/2) * zeta(m) L(m), where mu
    is the unit-group order of the field.  Any m >= 2 works; small m
    gives the tightest bound.
    """
    z = lvalues.zeta_numeric(m)
    l = lvalues.l_numeric(field, m)
    value = (
        field.mu_order
        * m
        * (m - 1)
        * math.factorial(m - 1)
        * (field.disc_abs / (4 * math.pi**2)) ** (m / 2)
        * z.value
        * l.value
    )
    rel = z.rel_error_bound + l.rel_error_bound + (m + 6) * 3e-16
    return lvalues.NumericValue(value, abs(value) * rel)


def closed_form_ratio_float(field: quadfield.QuadField, n: int) -> float:
    """The growth closed form in floating point, as one expression chain."""
    log_pref = math.lgamma(n + 2) - (n + 2) * math.log(2 * math.pi)
    value = (n + 2) / (n + 1) * math.exp(log_pref)
    value *= lattice.h_torsion(field, n + 1) / lattice.h_torsion(field, n + 2)
    if n % 2 == 0:
        return 2.0 * value * lvalues.zeta_numeric(n + 2).value
    value *= 0.5 * lvalues.l_numeric(field, n + 2).value
    return value * math.exp((n + 1.5) * math.log(field.disc_abs))


def closed_form_ratio_log(field: quadfield.QuadField, n: int) -> float:
    """Natural logarithm of closed_form_ratio_float, finite past double range."""
    ln = math.lgamma(n + 2) - (n + 2) * math.log(2 * math.pi)
    ln += math.log((n + 2) / (n + 1))
    ln += math.log(lattice.h_torsion(field, n + 1) / lattice.h_torsion(field, n + 2))
    if n % 2 == 0:
        return ln + math.log(2.0 * lvalues.zeta_numeric(n + 2).value)
    ln += math.log(0.5 * lvalues.l_numeric(field, n + 2).value)
    return ln + (n + 1.5) * math.log(field.disc_abs)


def growth_threshold_by_descent(field: quadfield.QuadField, n_max: int) -> int:
    """Smallest n1 with q(m) > 1 (lower endpoint) for every n1 <= m < n_max,
    walking down from n_max - 1 and stopping at the first m that fails."""
    n1 = n_max
    for m in range(n_max - 1, 1, -1):
        if lattice._lower(survey.growth_ratio(field, m).q) <= 1:
            break
        n1 = m
    return n1


def zeta_mp(s: int, dps: int = 40) -> float:
    with mpmath.workdps(dps):
        return float(mpmath.zeta(s))


def l_function_mp(D: int, s: int, chi: tuple[int, ...], dps: int = 40) -> float:
    """L(s, chi_D) through mpmath's Hurwitz zeta: q^-s sum chi(a) zeta(s, a/q)."""
    q = abs(D)
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for a in range(1, q):
            if chi[a % q]:
                total += chi[a % q] * mpmath.zeta(s, mpmath.mpf(a) / q)
        return float(total / mpmath.mpf(q) ** s)


# class groups verified by hand through the composition tables
KNOWN_CLASS_GROUPS = {
    3: {(1, 1, 1)},
    20: {(1, 0, 5), (2, 2, 3)},
    23: {(1, 1, 6), (2, 1, 3), (2, -1, 3)},
    84: {(1, 0, 21), (2, 2, 11), (3, 0, 7), (5, 4, 5)},
}

# the full list of d with class number one (imaginary quadratic)
CLASS_NUMBER_ONE_D = (1, 2, 3, 7, 11, 19, 43, 67, 163)

# special values locked by hand evaluation through the Bernoulli chain
ZETA_NEGATIVE = {
    2: Fraction(-1, 12),
    4: Fraction(1, 120),
    6: Fraction(-1, 252),
    8: Fraction(1, 240),
    10: Fraction(-1, 132),
}
GENERALIZED_BERNOULLI = {
    (1, -4): Fraction(-1, 2),
    (2, -4): Fraction(0),
    (3, -4): Fraction(3, 2),
    (3, -3): Fraction(2, 3),
    (5, -3): Fraction(-10, 3),
    (7, -3): Fraction(98, 3),
    (9, -3): Fraction(-1618, 3),
}
L_NEGATIVE = {
    (-3, 3): Fraction(-2, 9),
    (-3, 5): Fraction(2, 3),
    (-3, 7): Fraction(-14, 3),
    (-3, 9): Fraction(1618, 27),
    (-4, 1): Fraction(1, 2),
    (-4, 3): Fraction(-1, 2),
}
NU_VALUES = {
    (3, 2): Fraction(1, 72),
    (1, 2): Fraction(1, 32),
    (3, 3): Fraction(1, 6480),
    (3, 4): Fraction(1, 31104),
    (3, 9): Fraction(809, 5746705367040),
}
VOLUME_9_OVER_PI9 = Fraction(809, 79550340408000)
GROWTH_RATIOS = {2: Fraction(1, 90), 3: Fraction(5, 24)}
