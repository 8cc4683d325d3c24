"""Imaginary quadratic fields Q(sqrt(-d)) and their form class groups.

A field is described by its squarefree parameter d, its discriminant,
its ramified primes, and the order of its unit group.  The ideal class
group is realized concretely as the set of reduced primitive positive
definite binary quadratic forms of the field discriminant, with Gauss
composition as the group law.  The quadratic character attached to the
field is the Kronecker symbol of the (signed) discriminant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import (
    DiscriminantMismatch,
    InternalDefect,
    NonFundamentalDiscriminant,
    NotSquarefree,
    require_int,
)

__all__ = [
    "QuadField",
    "FormClass",
    "ClassGroup",
    "from_squarefree_d",
    "fields_with_disc_at_most",
    "is_squarefree",
    "is_fundamental_discriminant",
    "kronecker_symbol",
    "chi_table",
    "reduced_forms",
    "compose",
    "torsion_count",
    "clear_caches",
]


def is_squarefree(n: int) -> bool:
    """True when no prime square divides n (n must be positive)."""
    return n >= 1 and math.prod(_prime_factors(n)) == n


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


@dataclass(frozen=True)
class QuadField:
    """Invariants of the imaginary quadratic field Q(sqrt(-d)).

    disc_abs is the absolute value of the field discriminant, disc_signed
    the discriminant itself (negative), r the number of ramified primes,
    and mu_order the number of roots of unity in the field.
    """

    d: int
    disc_abs: int
    disc_signed: int
    ramified_primes: tuple[int, ...]
    r: int
    mu_order: int

    def __str__(self) -> str:
        if self.d == 1:
            return "Q(i)"
        return f"Q(sqrt(-{self.d}))"


def from_squarefree_d(d: int) -> QuadField:
    """Build the field Q(sqrt(-d)) from a squarefree integer d >= 1."""
    require_int(d, "d", 1)
    field = _field_if_squarefree(d)
    if field is None:
        raise NotSquarefree(f"d = {d} has a square factor")
    return field


def _field_if_squarefree(d: int) -> QuadField | None:
    """Q(sqrt(-d)) from one factorization of d, or None if d is not squarefree.

    The discriminant is d or 4d, so its primes are those of d, plus 2
    when d = 1 mod 4.
    """
    primes = _prime_factors(d)
    if math.prod(primes) != d:
        return None
    if d % 4 == 1:
        primes = (2, *primes)
    disc = d if d % 4 == 3 else 4 * d
    mu = 6 if d == 3 else 4 if d == 1 else 2
    return QuadField(
        d=d,
        disc_abs=disc,
        disc_signed=-disc,
        ramified_primes=primes,
        r=len(primes),
        mu_order=mu,
    )


def fields_with_disc_at_most(limit: int) -> tuple[QuadField, ...]:
    """All imaginary quadratic fields with |discriminant| <= limit, by disc.

    The tuple of _fields_by_disc, the loop that scans iterate directly.
    """
    return tuple(_fields_by_disc(limit))


def _fields_by_disc(limit: int) -> Iterator[QuadField]:
    """The fields with |disc| <= limit, each built when the loop reaches it.

    |disc| is d when d = 3 mod 4 and 4d when d = 1, 2 mod 4, that is when
    |disc| = 4 or 8 mod 16, so one ascending loop over |disc| with no sort
    names each d once, and each d is factored once.
    """
    discs = (n for n in range(3, limit + 1) if n % 4 == 3 or n % 16 in (4, 8))
    ds = (n if n % 4 == 3 else n // 4 for n in discs)
    return filter(None, map(_field_if_squarefree, ds))


def is_fundamental_discriminant(D: int) -> bool:
    """True when D is a fundamental discriminant (of either signature).

    D = 1 counts as fundamental (trivial character); otherwise either
    D = 1 mod 4 and squarefree, or D = 4m with m = 2, 3 mod 4 squarefree.
    Anything that is not an int, bool and -3.0 included, is not.
    """
    if not isinstance(D, int) or isinstance(D, bool):
        return False
    if D == 1:
        return True
    if D % 4 == 1:
        return is_squarefree(abs(D))
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(abs(m))
    return False


# typed, like chi_table: -3.0 and True must not hit the entries for -3 and 1
@lru_cache(maxsize=1, typed=True)
def _require_fundamental(D: int) -> None:
    if not is_fundamental_discriminant(D):
        raise NonFundamentalDiscriminant(f"{D} is not a fundamental discriminant")


def kronecker_symbol(D: int, m: int) -> int:
    """Kronecker symbol (D/m) for a fundamental discriminant D and m >= 0.

    This is the quadratic character of conductor |D|: completely
    multiplicative, periodic with period |D|, and zero exactly on the
    integers sharing a factor with D.
    """
    _require_fundamental(D)
    require_int(m, "m", 0)
    if m == 0:
        return 1 if abs(D) == 1 else 0
    a = D
    n = m
    sign = 1
    while n % 2 == 0:
        if a % 2 == 0:
            return 0
        n //= 2
        if a % 8 in (3, 5):
            sign = -sign
    # n is now odd, so (a/n) only depends on a mod n
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


# Character values 0, 1, -1 are coded as the bytes 0, 1, 2, so that
# tables tile and multiply as bytes.  Two coded tables multiply
# elementwise as one base-256 number 3x + y, which has no carries, read
# back through _PRODUCT; _SIGNED turns the code 2 into the byte 0xff,
# which a signed-char view reads as -1.
_PRODUCT = bytes((0, 0, 0, 0, 1, 2, 0, 2, 1)).ljust(256, b"\0")
_SIGNED = bytes.maketrans(b"\2", b"\xff")

# one period of the characters of the prime discriminants -4, 8 and -8
_TWO_PART_TABLES = {
    -4: bytes((0, 1, 0, 2)),
    8: bytes((0, 1, 0, 2, 0, 2, 0, 1)),
    -8: bytes((0, 1, 0, 1, 0, 2, 0, 2)),
}


def _legendre_table(p: int) -> bytearray:
    """(a/p) for a = 0..p-1, an odd prime p, coded, by marking the squares."""
    table = bytearray(b"\2") * p
    table[0] = 0
    for x in range(1, p // 2 + 1):
        table[x * x % p] = 1
    return table


@lru_cache(maxsize=1, typed=True)
def chi_table(D: int) -> tuple[int, ...]:
    """The character over half its period: chi_D(a) for 0 <= a < |D|/2.

    That is (|D| + 1) // 2 entries, the range every reader needs: T_0 of
    the class number formula and the power sums of the L-values.  D
    factors into prime discriminants, and chi_D is the product of their
    characters (Washington, Cyclotomic Fields, ch. 3).  The 2-part is
    -4, 8 or -8, with a fixed table of period 4 or 8; the odd part
    D' = 1 mod 4 contributes the Legendre symbol (a/p) for each prime
    p | D', whatever the sign of p* = +-p.  Each factor's table is tiled
    over the half period, and the tiles are multiplied elementwise, so no
    Kronecker symbol is evaluated.  A field's table is read twice, by
    lattice.class_number and once to build the field's power sums in
    bernoulli, so the memo keeps one: a scan holds O(|D|) residues, not
    the sum over every field.
    """
    _require_fundamental(D)
    odd = D
    factors = []
    if D % 4 == 0:
        two = -4 if D // 4 % 4 == 3 else 8 if D // 8 % 4 == 1 else -8
        factors.append(_TWO_PART_TABLES[two])
        odd = D // two
    factors += [_legendre_table(p) for p in _prime_factors(abs(odd))]
    half = (abs(D) + 1) // 2
    tiles = [(table * (half // len(table) + 1))[:half] for table in factors]
    chi = tiles[0] if tiles else b"\1"
    for tile in tiles[1:]:
        pairs = 3 * int.from_bytes(chi, "big") + int.from_bytes(tile, "big")
        chi = pairs.to_bytes(half, "big").translate(_PRODUCT)
    return tuple(memoryview(chi.translate(_SIGNED)).cast("b"))


@dataclass(frozen=True, order=True)
class FormClass:
    """A reduced primitive positive definite form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


@dataclass(frozen=True)
class ClassGroup:
    """The form class group of a field: all reduced forms plus the law."""

    field: QuadField
    classes: tuple[FormClass, ...]
    principal: FormClass

    @property
    def h(self) -> int:
        return len(self.classes)


def _reduce_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Reduce a positive definite form: |b| <= a <= c, b >= 0 on boundary."""
    D = b * b - 4 * a * c
    while True:
        if b > a or b <= -a:
            # shift b into (-a, a]
            q = (b + a - 1) // (2 * a)
            b -= 2 * a * q
            c = (b * b - D) // (4 * a)
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if a == c and b < 0:
        b = -b
    return a, b, c


def _principal_triple(D: int) -> tuple[int, int, int]:
    b0 = D % 2
    return 1, b0, (b0 * b0 - D) // 4


@lru_cache(maxsize=1)
def reduced_forms(field: QuadField) -> ClassGroup:
    """Enumerate every reduced form of the field discriminant.

    A triple (a, b, c) with b^2 - 4ac = D < 0 is reduced when
    |b| <= a <= c with b >= 0 if |b| = a or a = c; each ideal class
    contains exactly one such form, so the count is the class number.
    Every caller walks fields one at a time, so the memo keeps the
    current field's group only, as chi_table does.
    """
    D = field.disc_signed
    classes = []
    amax = math.isqrt(-D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            t = b * b - D
            if t % (4 * a):
                continue
            c = t // (4 * a)
            if c < a:
                continue
            if math.gcd(a, b, c) != 1:
                continue
            if b < 0 and (a == c or -b == a):
                continue
            classes.append(FormClass(a, b, c))
    classes.sort()
    principal = FormClass(*_principal_triple(D))
    if principal not in classes:
        raise InternalDefect(f"no principal form among the reduced forms of {field}")
    return ClassGroup(field=field, classes=tuple(classes), principal=principal)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _compose_triples(
    f1: tuple[int, int, int], f2: tuple[int, int, int], D: int
) -> tuple[int, int, int]:
    """Gauss composition of two primitive forms of discriminant D.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 5.4.7:
    with d = gcd(a1, a2) and d1 = gcd(d, (b1 + b2)/2), the composed form
    is (a1 a2 / d1^2, b2 + 2 (a2/d1) r, *) for an r from the two Bezout
    identities, then reduced.  Leading coefficients that share a factor
    (squaring (2,2,3) at D = -20, for instance) need no separate case.
    """
    if f1[0] > f2[0]:
        f1, f2 = f2, f1
    a1, b1, _ = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    n = b2 - s
    d, y1, _ = _ext_gcd(a2, a1)
    d1, x2, v = _ext_gcd(s, d)
    v1 = a1 // d1
    v2 = a2 // d1
    r = (-y1 * v * n - x2 * c2) % v1
    a3 = v1 * v2
    b3 = b2 + 2 * v2 * r
    t = b3 * b3 - D
    if t % (4 * a3):
        raise InternalDefect(f"composition produced an invalid form at D = {D}")
    return _reduce_triple(a3, b3, t // (4 * a3))


def compose(g1: FormClass, g2: FormClass, group: ClassGroup) -> FormClass:
    """Product of two classes of the group, as a reduced form."""
    D = group.field.disc_signed
    if g1.discriminant != D or g2.discriminant != D:
        raise DiscriminantMismatch(
            f"forms {g1} and {g2} do not both have discriminant {D}"
        )
    return FormClass(*_compose_triples((g1.a, g1.b, g1.c), (g2.a, g2.b, g2.c), D))


def _power_triple(f: tuple[int, int, int], m: int, D: int) -> tuple[int, int, int]:
    """The reduced form f composed with itself m >= 1 times, as a triple.

    Binary powering on triples through _compose_triples: no FormClass is
    built and no discriminant re-derived per step, and the identity is
    never composed in.
    """
    result = None
    while True:
        if m & 1:
            result = f if result is None else _compose_triples(result, f, D)
        m >>= 1
        if not m:
            return result
        f = _compose_triples(f, f, D)


def torsion_count(group: ClassGroup, m: int) -> int:
    """Number of classes g with g^m equal to the principal class."""
    require_int(m, "m", 1)
    D = group.field.disc_signed
    p = group.principal
    e = (p.a, p.b, p.c)
    return sum(_power_triple((g.a, g.b, g.c), m, D) == e for g in group.classes)


def clear_caches() -> None:
    """Reset this module's memo tables (used by tests)."""
    _require_fundamental.cache_clear()
    chi_table.cache_clear()
    reduced_forms.cache_clear()
