"""Imaginary quadratic fields, characters, and form class groups.

Class-group structure is checked three ways: against hand-verified
tables, against a brute-force predicate enumeration, and against the
abstract group axioms exhaustively.
"""

import math

import pytest
from hypothesis import given, strategies as st

import covolume
from covolume import bernoulli, quadfield
from covolume.errors import (
    DiscriminantMismatch,
    InternalDefect,
    InvalidInput,
    NonFundamentalDiscriminant,
    NotSquarefree,
)
from covolume.quadfield import FormClass

from . import oracles


def _power(g, m, group):
    """g^m for m >= 1 by quadfield._power_triple, torsion_count's kernel."""
    D = group.field.disc_signed
    return FormClass(*quadfield._power_triple((g.a, g.b, g.c), m, D))


class TestFieldConstruction:
    def test_disc_mod_four(self):
        # d = 3 mod 4 keeps disc = d, everything else picks up a factor 4
        assert quadfield.from_squarefree_d(3).disc_abs == 3
        assert quadfield.from_squarefree_d(7).disc_abs == 7
        assert quadfield.from_squarefree_d(1).disc_abs == 4
        assert quadfield.from_squarefree_d(2).disc_abs == 8
        assert quadfield.from_squarefree_d(5).disc_abs == 20

    def test_signed_disc_is_negative(self, f23):
        assert f23.disc_signed == -23
        assert f23.disc_abs == 23

    def test_ramified_primes(self):
        assert quadfield.from_squarefree_d(3).ramified_primes == (3,)
        assert quadfield.from_squarefree_d(1).ramified_primes == (2,)
        assert quadfield.from_squarefree_d(5).ramified_primes == (2, 5)
        assert quadfield.from_squarefree_d(21).ramified_primes == (2, 3, 7)

    def test_r_counts_ramified_primes(self, fields_500):
        for field in fields_500:
            assert field.r == len(field.ramified_primes)
            for p in field.ramified_primes:
                assert field.disc_abs % p == 0

    def test_unit_group_order(self):
        assert quadfield.from_squarefree_d(3).mu_order == 6
        assert quadfield.from_squarefree_d(1).mu_order == 4
        assert quadfield.from_squarefree_d(2).mu_order == 2
        assert quadfield.from_squarefree_d(23).mu_order == 2

    def test_str(self):
        assert str(quadfield.from_squarefree_d(1)) == "Q(i)"
        assert str(quadfield.from_squarefree_d(3)) == "Q(sqrt(-3))"

    @pytest.mark.parametrize("d", [4, 9, 12, 18, 50])
    def test_rejects_non_squarefree(self, d):
        with pytest.raises(NotSquarefree):
            quadfield.from_squarefree_d(d)

    @pytest.mark.parametrize("d", [0, -3, 2.5, "3", True])
    def test_rejects_bad_d(self, d):
        with pytest.raises(InvalidInput):
            quadfield.from_squarefree_d(d)

    def test_enumeration_sorted_and_complete(self, fields_100):
        discs = [f.disc_abs for f in fields_100]
        assert discs == sorted(discs)
        assert discs[:8] == [3, 4, 7, 8, 11, 15, 19, 20]
        assert all(
            quadfield.is_fundamental_discriminant(f.disc_signed)
            for f in fields_100
        )
        # every fundamental -D in range appears exactly once
        expected = {
            D for D in range(3, 101)
            if quadfield.is_fundamental_discriminant(-D)
        }
        assert set(discs) == expected
        assert len(discs) == len(expected)

    def test_enumeration_empty_below_three(self):
        assert quadfield.fields_with_disc_at_most(2) == ()

    @pytest.mark.parametrize("limits", [range(201), [3000, 10**5]])
    def test_enumeration_matches_triple_factoring(self, limits):
        # one factorization per d gives the fields that factoring each d
        # up to three times gave
        for limit in limits:
            assert quadfield.fields_with_disc_at_most(
                limit
            ) == oracles.fields_by_triple_factoring(limit), limit


class TestFundamentalDiscriminant:
    @pytest.mark.parametrize("D", [1, 5, 8, 12, -3, -4, -7, -8, -20, -163])
    def test_accepts(self, D):
        assert quadfield.is_fundamental_discriminant(D)

    @pytest.mark.parametrize("D", [0, 2, 3, -1, -2, -5, -9, -12, 9, 16, -3.0, True])
    def test_rejects(self, D):
        assert not quadfield.is_fundamental_discriminant(D)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("D", [-3.0, True])
    def test_non_int_refused_whatever_is_cached(self, D, warm):
        # -3.0 and True hash like -3 and 1, so no memo may answer for them
        calls = (
            lambda D: bernoulli.generalized_bernoulli(3, D),
            quadfield.chi_table,
            lambda D: quadfield.kronecker_symbol(D, 2),
        )
        for call in calls:
            covolume.clear_caches()
            if warm and (D < 0 or call is not calls[0]):
                call(int(D))  # no B_{3,chi} exists for D = 1 to cache
            with pytest.raises(NonFundamentalDiscriminant):
                call(D)


class TestKroneckerSymbol:
    def test_small_values(self):
        assert quadfield.kronecker_symbol(-4, 2) == 0
        assert quadfield.kronecker_symbol(-3, 2) == -1
        assert quadfield.kronecker_symbol(-3, 7) == 1
        assert quadfield.kronecker_symbol(-4, 1) == 1
        assert quadfield.kronecker_symbol(-4, 0) == 0
        assert quadfield.kronecker_symbol(1, 0) == 1

    @pytest.mark.parametrize("D", [-3, -4, -8, -20, -23, -84, -163])
    def test_euler_criterion_at_odd_primes(self, D):
        for p in oracles.primes_below(1000):
            if p == 2:
                continue
            assert quadfield.kronecker_symbol(D, p) == (
                oracles.euler_criterion(D, p)
            ), (D, p)

    @pytest.mark.parametrize("D", [-3, -4, -20, -84])
    def test_zero_exactly_on_common_factors(self, D):
        for m in range(1, 3 * abs(D)):
            is_zero = quadfield.kronecker_symbol(D, m) == 0
            assert is_zero == (math.gcd(m, D) > 1), (D, m)

    @pytest.mark.parametrize("D", [-3, -4, -20, -23])
    def test_periodicity(self, D):
        q = abs(D)
        for m in range(2 * q):
            assert quadfield.kronecker_symbol(D, m) == (
                quadfield.kronecker_symbol(D, m + q)
            )

    @given(
        D=st.sampled_from([-3, -4, -8, -20, -23, -84]),
        m1=st.integers(min_value=0, max_value=300),
        m2=st.integers(min_value=0, max_value=300),
    )
    def test_complete_multiplicativity(self, D, m1, m2):
        lhs = quadfield.kronecker_symbol(D, m1 * m2)
        rhs = quadfield.kronecker_symbol(D, m1) * quadfield.kronecker_symbol(
            D, m2
        )
        assert lhs == rhs

    @pytest.mark.parametrize("D", [-12, 6, -5, 0, -3.0, True])
    def test_rejects_non_fundamental(self, D):
        with pytest.raises(NonFundamentalDiscriminant):
            quadfield.kronecker_symbol(D, 3)

    @pytest.mark.parametrize("m", [-1, 2.5, None])
    def test_rejects_bad_m(self, m):
        with pytest.raises(InvalidInput):
            quadfield.kronecker_symbol(-3, m)

    def test_chi_table(self):
        # the half period a < |D|/2: no entry at a = 2 when |D| is 3 or 4
        assert quadfield.chi_table(-3) == (0, 1)
        assert quadfield.chi_table(-4) == (0, 1)
        for D in (-3, -4, -7, -20, -23):
            table = quadfield.chi_table(D)
            assert len(table) == (abs(D) + 1) // 2
            # an odd character sums to zero over the full period, so its
            # half sums to T_0 = 2 (2 - chi(2)) h / w, h counted by forms
            field = quadfield.from_squarefree_d(-D // 4 if D % 4 == 0 else -D)
            h = quadfield.reduced_forms(field).h
            chi2 = quadfield.kronecker_symbol(D, 2)
            assert sum(table) * field.mu_order == 2 * (2 - chi2) * h, D

    def test_character_is_odd(self, fields_100):
        # chi(q - a) = -chi(a), the reflection the half-period table leaves out
        for field in fields_100:
            D = field.disc_signed
            q = field.disc_abs
            for a in range(1, q):
                assert quadfield.kronecker_symbol(D, q - a) == (
                    -quadfield.kronecker_symbol(D, a)
                ), (field.d, a)


class TestSievedChiTable:
    """The half-period tiled table against the first (|D| + 1) // 2
    entries of the kernels it replaced: one Kronecker symbol per residue,
    the sieve with one Kronecker symbol per prime, and the tiles over the
    full period."""

    def test_matches_per_residue_oracle(self):
        count = 0
        for D in range(-3000, 3001):
            if quadfield.is_fundamental_discriminant(D):
                # the unmemoized body, so the suite does not keep millions of entries
                table = quadfield.chi_table.__wrapped__(D)
                half = (abs(D) + 1) // 2
                assert table == oracles.chi_table_per_residue(D)[:half], D
                assert table == oracles.chi_table_sieved(D)[:half], D
                assert table == oracles.chi_table_full_period(D)[:half], D
                count += 1
        assert count == 1821  # both signs, D = 1 included

    @pytest.mark.parametrize("D", [1, 5, 8, 12, -3, -4, -84, -163, -1995, 2993])
    def test_tiled_table_calls_no_kronecker(self, monkeypatch, D):
        expected = oracles.chi_table_per_residue(D)[: (abs(D) + 1) // 2]

        def forbidden(D, m):
            raise AssertionError(f"kronecker_symbol({D}, {m}) called")

        monkeypatch.setattr(quadfield, "kronecker_symbol", forbidden)
        assert quadfield.chi_table.__wrapped__(D) == expected


class TestChiTableMemo:
    def test_scan_keeps_one_table(self):
        from covolume import survey

        quadfield.clear_caches()
        rows = survey.scan(2, 3000)
        assert quadfield.chi_table.cache_info().currsize == 1
        # every 25th field, read again after the scan evicted it
        for row in rows[::25]:
            D = -row.disc
            half = oracles.chi_table_sieved(D)[: (abs(D) + 1) // 2]
            assert quadfield.chi_table(D) == half, D
            assert quadfield.chi_table.cache_info().currsize == 1
            field = quadfield.from_squarefree_d(row.d)
            assert row.nu == oracles.nu_by_loop(field, 2), D


class TestReducedForms:
    def test_scan_keeps_one_group(self, monkeypatch):
        import covolume
        from covolume import survey

        built = []
        real = quadfield.reduced_forms

        def counting(field):
            built.append(field.disc_abs)
            return real(field)

        covolume.clear_caches()
        monkeypatch.setattr(quadfield, "reduced_forms", counting)
        rows = survey.scan(2, 3000)
        assert real.cache_info().currsize <= 1
        # forms only where the class number shares a factor with n + 1
        needed = [row.disc for row in rows if math.gcd(3, row.h) > 1]
        assert sorted(set(built)) == needed
        assert 0 < len(needed) < len(rows)

    def test_known_class_groups(self):
        for disc_abs, expected in oracles.KNOWN_CLASS_GROUPS.items():
            d = disc_abs if disc_abs % 4 == 3 else disc_abs // 4
            group = quadfield.reduced_forms(quadfield.from_squarefree_d(d))
            got = {(g.a, g.b, g.c) for g in group.classes}
            assert got == expected, disc_abs

    def test_against_naive_enumeration(self, fields_200):
        for field in fields_200:
            group = quadfield.reduced_forms(field)
            got = {(g.a, g.b, g.c) for g in group.classes}
            assert got == oracles.naive_reduced_forms(field.disc_signed)

    def test_class_number_one_fields(self):
        for d in oracles.CLASS_NUMBER_ONE_D:
            assert quadfield.reduced_forms(
                quadfield.from_squarefree_d(d)
            ).h == 1, d

    def test_known_class_numbers(self):
        for d, h in [(5, 2), (6, 2), (23, 3), (14, 4), (21, 4), (47, 5)]:
            group = quadfield.reduced_forms(quadfield.from_squarefree_d(d))
            assert group.h == h, d

    def test_form_invariants(self, fields_500):
        for field in fields_500:
            D = field.disc_signed
            group = quadfield.reduced_forms(field)
            assert list(group.classes) == sorted(group.classes)
            for g in group.classes:
                assert g.discriminant == D
                assert abs(g.b) <= g.a <= g.c
                assert math.gcd(g.a, math.gcd(g.b, g.c)) == 1
                assert 4 * g.a * g.a * 3 <= 4 * (g.b * g.b - D)  # a <= sqrt(|D|/3)
                if abs(g.b) == g.a or g.a == g.c:
                    assert g.b >= 0

    def test_principal_form(self, fields_200):
        for field in fields_200:
            group = quadfield.reduced_forms(field)
            assert group.principal in group.classes
            assert group.principal.a == 1


class TestComposition:
    def test_matches_case_by_case_oracle(self):
        pairs = 0
        for field in quadfield.fields_with_disc_at_most(1000):
            D = field.disc_signed
            forms = [(g.a, g.b, g.c) for g in quadfield.reduced_forms(field).classes]
            for x in forms:
                for y in forms:
                    got = quadfield._compose_triples(x, y, D)
                    assert got == oracles.compose_triples_by_cases(x, y, D), (x, y)
                    pairs += 1
        assert pairs == 43_097

    def test_invalid_composed_form_is_a_defect(self, monkeypatch):
        # a wrong Bezout coefficient gives a b3 with b3^2 != D mod 4 a3
        ext_gcd = quadfield._ext_gcd

        def skewed(a, b):
            g, x, y = ext_gcd(a, b)
            return g, x + 1, y

        monkeypatch.setattr(quadfield, "_ext_gcd", skewed)
        with pytest.raises(InternalDefect):
            quadfield._compose_triples((2, 1, 3), (2, 1, 3), -23)

    def test_cubic_class_group(self, f23):
        group = quadfield.reduced_forms(f23)
        g = FormClass(2, 1, 3)
        g2 = quadfield.compose(g, g, group)
        assert g2 == FormClass(2, -1, 3)
        assert g2 == oracles.inverse_class(g)
        assert quadfield.compose(g2, g, group) == group.principal

    def test_two_torsion_squaring(self, f5):
        # leading coefficients share a factor here; naive composition breaks
        group = quadfield.reduced_forms(f5)
        g = FormClass(2, 2, 3)
        assert quadfield.compose(g, g, group) == group.principal

    def test_group_axioms_exhaustive(self, fields_500):
        for field in fields_500:
            group = quadfield.reduced_forms(field)
            classes = group.classes
            e = group.principal
            universe = set(classes)
            table = {
                (x, y): quadfield.compose(x, y, group)
                for x in classes
                for y in classes
            }
            for (x, y), xy in table.items():
                assert xy in universe  # closure
                assert table[(y, x)] == xy  # commutativity
            for x in classes:
                assert table[(e, x)] == x  # identity
                inv = oracles.inverse_class(x)
                assert inv in universe
                assert table[(x, inv)] == e  # inverse
            for x in classes:
                for y in classes:
                    xy = table[(x, y)]
                    for z in classes:
                        assert table[(xy, z)] == table[(x, table[(y, z)])]

    def test_lagrange(self, fields_200):
        for field in fields_200:
            group = quadfield.reduced_forms(field)
            for g in group.classes:
                assert _power(g, group.h, group) == group.principal

    def test_power_edge_cases(self, f23):
        group = quadfield.reduced_forms(f23)
        g = FormClass(2, 1, 3)
        assert _power(g, 1, group) == g

    def test_discriminant_mismatch(self, f3, f23):
        group3 = quadfield.reduced_forms(f3)
        with pytest.raises(DiscriminantMismatch):
            quadfield.compose(group3.principal, FormClass(2, 1, 3), group3)

    def test_power_of_an_unreduced_form_is_reduced(self, f23):
        # (2, 5, 6) has discriminant -23 and reduces to (2, 1, 3); the
        # powers reduce it first, as torsion_count's classes are reduced
        group = quadfield.reduced_forms(f23)
        f = quadfield._reduce_triple(2, 5, 6)
        for m in range(1, 7):
            assert _power(FormClass(*f), m, group) == (
                oracles.class_power_by_form_classes(FormClass(2, 5, 6), m, group)
            ), m


class TestTorsion:
    def test_cyclic_of_order_three(self, f23):
        group = quadfield.reduced_forms(f23)
        assert quadfield.torsion_count(group, 1) == 1
        assert quadfield.torsion_count(group, 2) == 1
        assert quadfield.torsion_count(group, 3) == 3
        assert quadfield.torsion_count(group, 6) == 3

    def test_klein_four(self):
        group = quadfield.reduced_forms(quadfield.from_squarefree_d(21))
        assert group.h == 4
        assert quadfield.torsion_count(group, 2) == 4
        assert quadfield.torsion_count(group, 3) == 1
        assert quadfield.torsion_count(group, 4) == 4

    def test_torsion_divides_class_number(self, fields_200):
        for field in fields_200:
            group = quadfield.reduced_forms(field)
            for m in range(1, 13):
                count = quadfield.torsion_count(group, m)
                assert group.h % count == 0, (field.d, m)

    def test_full_group_killed_by_h(self, fields_200):
        for field in fields_200:
            group = quadfield.reduced_forms(field)
            assert quadfield.torsion_count(group, group.h) == group.h

    def test_monotone_under_divisibility(self, fields_100):
        # G[m] is a subgroup of G[m'] whenever m | m'
        for field in fields_100:
            group = quadfield.reduced_forms(field)
            for m in range(1, 9):
                for k in range(1, 5):
                    assert quadfield.torsion_count(group, m * k) % (
                        quadfield.torsion_count(group, m)
                    ) == 0

    def test_matches_form_class_oracle(self):
        # powers on reduced triples against powers through compose, one
        # FormClass per step, which they replaced
        for field in quadfield.fields_with_disc_at_most(3000):
            group = quadfield.reduced_forms(field)
            for m in range(2, 13):
                assert quadfield.torsion_count(group, m) == (
                    oracles.torsion_count_by_form_classes(group, m)
                ), (field.d, m)
            if field.disc_abs <= 500:
                for g in group.classes:
                    for m in range(1, 13):
                        assert _power(g, m, group) == (
                            oracles.class_power_by_form_classes(g, m, group)
                        ), (field.d, g, m)

    def test_rejects_bad_exponent(self, f3):
        group = quadfield.reduced_forms(f3)
        with pytest.raises(InvalidInput):
            quadfield.torsion_count(group, 0)

    def test_classes_generate_themselves(self, fields_200):
        # closing the class set under composition reproduces it exactly
        for field in fields_200:
            group = quadfield.reduced_forms(field)
            closure = {group.principal}
            frontier = list(group.classes)
            while frontier:
                g = frontier.pop()
                for x in group.classes:
                    y = quadfield.compose(g, x, group)
                    if y not in closure:
                        closure.add(y)
                        frontier.append(y)
            assert closure == set(group.classes)
