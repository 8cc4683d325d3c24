"""Exact Bernoulli numbers and their twists by quadratic characters.

Everything here is computed in exact arithmetic, integers and
fractions.Fraction; no floating point enters any value.  The sign
convention is B_1 = -1/2.  B_{k,chi} reads no Bernoulli number: it comes
from one integer recurrence over the character's power sums
(_PowerSums), which also keep the field's L-product (_l_product).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, lshift, mul

from . import quadfield
from .errors import InternalDefect, NonFundamentalDiscriminant, require_int

__all__ = [
    "bernoulli_number",
    "generalized_bernoulli",
    "clear_caches",
]

_lock = threading.RLock()  # a factor pair reads B_2j under it
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


def generalized_bernoulli(k: int, D: int) -> Fraction:
    """B_{k,chi} = |D|^(k-1) * sum_{a=1..|D|} chi_D(a) B_k(a/|D|).

    D must be the discriminant of an imaginary quadratic field, so chi_D
    is odd and B_{k,chi} vanishes for even k.  For odd k the value is
    -g_k / (2^(k-1) q), q = |D|, where g_k is an integer that the
    field's _PowerSums builds from the power sums
    V_j = sum_{0<a<q/2} chi(a) (q - 2a)^j alone, with no Bernoulli
    number: every odd k of one field reads a single state, built from
    one chi_table read.

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


_WORD_T = 1 << 14  # the word table holds t <= _WORD_T ...
_WORD_J = 15  # ... and the odd powers j <= _WORD_J, an odd number >= 1
_words: tuple[int, int, list[int]] = (0, 0, [])  # slots, slot width, words


def _word_table(c: int, need: int) -> tuple[int, int, list[int]]:
    """The shared table of packed odd powers, with c slots or more, grown
    toward a word for t = need; called under _lock.

    Word t packs t^1, t^3, ..., t^(2c-1) into c slots of `width` bits,
    wide enough for any signed sum of the words of one parity, so that
    one such sum carries the power sums of every slot: the Kronecker
    substitution of Brent & Zimmermann, Modern Computer Arithmetic,
    sec. 1.3.  A table that stops short of need grows to twice its
    length, up to _WORD_T, and a request for more slots than it has
    starts a new one; a new table stops at need, or at 63 if need is
    larger.  So an ascending scan builds it about log2(max |disc|)
    times, and a single large field only a small one; clear_caches
    empties it.
    """
    global _words
    slots, _, words = _words
    top = len(words) - 1 if slots >= c else -1
    if top >= need:
        return _words
    top = min(_WORD_T, max(2 * top + 1, min(need, 63)))
    width = ((top // 2 + 1) * top ** (2 * c - 1)).bit_length() + 1
    words = []
    for start in range(0, top + 1, 256):  # by blocks, so few powers are held
        ts = range(start, min(start + 256, top + 1))
        sq, power = list(map(mul, ts, ts)), list(ts)
        block = power
        for shift in range(width, c * width, width):
            power = list(map(mul, power, sq))
            block = list(map(add, block, map(lshift, power, repeat(shift))))
        words += block
    _words = (c, width, words)
    return _words


class _PowerSums:
    """g_1, g_3, ... of one field, g_k = -2^(k-1) q B_{k,chi}, in integers.

    Expanding B_k about 1/2, where B_i(1/2) = (2^(1-i) - 1) B_i vanishes
    for every odd i (Washington, Cyclotomic Fields, ch. 4), leaves only
    odd powers of q - 2a, which take the same value at a and q - a since
    chi is odd; so g_k = sum over even i < k of
    C(k, i) (2 - 2^i) B_i q^i V_{k-i}.  The (2 - 2^i) B_i are the Taylor
    coefficients of 2t/(e^t - 1) - 2t/(e^(2t) - 1) = t/sinh t, so with
    G(t) = sum g_k t^k/k! and W(t) = sum V_j t^j/j!, G(t) = W(t) qt/sinh(qt).
    Multiplied out, W(t) = G(t) sinh(qt)/(qt) reads

      (k + 1) V_k = sum over even m < k of C(k + 1, m + 1) q^m g_{k-m},

    and the m = 0 term is (k + 1) g_k, which gives g_k from V_k and the
    g_j of lower j.  g_k is an integer for any integer row z, so the one
    division by k + 1 is exact and a remainder is a defect.  The
    denominators of (2 - 2^i) B_i cancel by Fermat's little theorem: an
    odd prime p divides one only if (p - 1) | i (von Staudt-Clausen), and
    then q^i = 1, z^(k-i) = z^(k-p+1), p B_i = -1 and 2 - 2^i = 1 mod p,
    while the C(k, i) over 0 < i < k with (p - 1) | i sum to 0 mod p (if
    p | q, q^i carries p).  For example
    g_5 = V_5 - (10/3) q^2 V_3 + (7/3) q^4 V_1, and V_3 = V_1 mod 3.

    chi(a) is 0 or +-1, so for odd j each term of V_j is z^j with
    z = chi(a) (q - 2a), and V_j is a plain power sum of the z.  chi is
    the field's half-period character table, chi(a) for 0 <= a < q/2,
    read by the first extend and not kept; range(q, 0, -2) is
    t = q - 2a over the same a.  That extend takes the terms whose t the
    shared word table (_word_table) holds from it, for every odd j it
    needs up to _WORD_J: one signed pass sum(map(mul, chi, words)) over
    them carries all those V_j, and the slots are unpacked from the
    bottom, each with its borrow.  A residue left above the top slot,
    which the width rules out, is a defect.  The other terms go through
    power passes: pow holds their z^j for the last odd j and sq their
    z^2.  When g grows past the slots read, the table's terms (low, from
    t = t0 down) join those lists, and every t is a pass from then on.
    g[i] is g_{2i+1}; V_j is used once and not kept.  g and prefix only
    grow, under _lock, so an entry read from either never goes stale.
    """

    def __init__(self, D: int, chi: tuple[int, ...]):
        self.q = -D
        self.chi: tuple[int, ...] | None = chi
        self.g: list[int] = []
        self.prefix = [Fraction(1)]

    def _push(self, v: int) -> None:
        """Append g_j, j = 2 len(g) + 1, from V_j = v.

        The sum over m >= 2 goes by Horner's rule in q^2, from m = j - 1
        (against g_1) down to m = 2, with C(j + 1, m + 1) stepped by one
        exact division.
        """
        g, q2 = self.g, self.q * self.q
        j = 2 * len(g) + 1
        acc, binom = 0, j + 1
        for r, gm in zip(range(j, 1, -2), g):  # r = m + 1
            acc = acc * q2 + binom * gm
            binom = binom * r * (r - 1) // ((j - r + 3) * (j - r + 2))
        quotient, rest = divmod(acc * q2, j + 1)
        if rest:
            raise InternalDefect(f"g_{j} of D = {-self.q} is not an integer")
        g.append(v - quotient)

    def _split(self, k: int) -> None:
        """The first extend, to k: read the terms that the word table
        holds, start the power passes over the others, and push g_j for
        every slot read."""
        q, chi = self.q, self.chi
        c, width, words = _word_table(min(k, _WORD_J) // 2 + 1, min(q, _WORD_T))
        top = len(words) - 1
        a = max(0, (q - top + 1) // 2)  # the first a with t = q - 2a <= top
        self.pow = list(filter(None, map(mul, chi[:a], range(q, 0, -2))))
        self.sq = _times(self.pow, self.pow)
        self.low, self.t0, self.chi = chi[a:], q - 2 * a, None
        total = sum(map(mul, self.low, words[self.t0 :: -2]))
        half, slots = 1 << (width - 1), []
        for _ in range(c):
            v = ((total + half) & ((half << 1) - 1)) - half
            slots.append(v)
            total = (total - v) >> width
        if total:
            raise InternalDefect(f"packed power sums of D = {-q} overflow")
        for i, v in enumerate(slots):
            if i:
                self.pow = _times(self.pow, self.sq)
            self._push(v + sum(self.pow))

    def extend(self, k: int) -> None:
        """Grow g up to g_k, for an odd k: each step past the slots read
        takes one power pass for V_j."""
        if self.chi is not None:
            self._split(k)
        while len(self.g) <= k // 2:
            self.pow = _times(self.pow, self.sq)
            if self.low:  # past the slots read, the table's terms join
                zs = list(filter(None, map(mul, self.low, range(self.t0, 0, -2))))
                self.sq += _times(zs, zs)
                self.pow += map(pow, zs, repeat(2 * len(self.g) + 1))
                self.low = ()
            self._push(sum(self.pow))

    def pair(self, j: int) -> Fraction:
        """zeta(1-2j) L(-2j, chi) = -B_2j g_(2j+1) / (2j (2j+1) 4^j q), j >= 1.

        P(j) / P(j-1), positive, as one Fraction normalized once.  B_2j
        is read through bernoulli_number on every step, never kept.
        """
        self.extend(2 * j + 1)
        b = bernoulli_number(2 * j)
        den = 2 * j * (2 * j + 1) * b.denominator * self.q
        return Fraction(-b.numerator * self.g[j], den << 2 * j)


@lru_cache(maxsize=1)
def _power_state(D: int) -> _PowerSums:
    """The power sums of the field asked last (D < 0), built on a new D."""
    return _PowerSums(D, quadfield.chi_table(D))


def _l_pair(D: int, j: int) -> Fraction:
    """zeta(1-2j) L(-2j, chi_D) for a fundamental D < 0 and j >= 1."""
    state = _power_state(D)
    with _lock:
        return state.pair(j)


def _l_product(D: int, m: int) -> Fraction:
    """P(m) = prod_{j<=m} zeta(1-2j) L(-2j, chi_D), with P(0) = 1.

    Read from the state's append-only list P(0), P(1), ..., grown one
    pair at a time, so a sweep over n = 2..N of one field pays for each
    pair once; a new field or clear_caches starts a fresh list.
    """
    state = _power_state(D)
    with _lock:
        if not state.g:  # the first extend reads every slot the pairs need
            state.extend(2 * m + 1)
        prefix = state.prefix
        while len(prefix) <= m:
            prefix.append(prefix[-1] * state.pair(len(prefix)))
        return prefix[m]


@lru_cache(maxsize=None)
def _generalized_bernoulli(k: int, D: int) -> Fraction:
    """Memoized body of generalized_bernoulli for validated arguments.

    A miss reads g_k from the field's shared _PowerSums, extended under
    _lock, and reads no character table itself.
    """
    if k % 2 == 0:
        return Fraction(0)
    state = _power_state(D)
    with _lock:
        state.extend(k)
    return Fraction(-state.g[k // 2], state.q << (k - 1))


def clear_caches() -> None:
    """Reset every memo table in this module (used by tests)."""
    global _even_table, _words
    with _lock:
        _even_table = [Fraction(1)]
        _words = (0, 0, [])
    _power_state.cache_clear()
    _generalized_bernoulli.cache_clear()
