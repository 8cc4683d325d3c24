"""Covolumes of the minimal arithmetic lattices: exact values, signs,
volumes, indices, multiplicities, and the exact-vs-adelic cross check.
"""

import dataclasses
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

import covolume
from covolume import bernoulli, lattice, quadfield
from covolume.errors import InternalDefect, InvalidDimension, UnknownMultiplicity
from covolume.lattice import Interval, is_exact

from . import oracles


def _field_for(key: int):
    return quadfield.from_squarefree_d(key)


class TestNu:
    def test_headline_values(self):
        for (d, n), expected in oracles.NU_VALUES.items():
            assert lattice.nu(_field_for(d), n) == expected, (d, n)

    def test_even_formula_structure(self, f3, f23):
        # nu * 2^n h_t / (n+1) must equal the plain product of L-values
        for field in (f3, f23):
            for n in (2, 4, 6, 8):
                h_t = lattice.h_torsion(field, n + 1)
                product = Fraction(1)
                for j in range(1, n // 2 + 1):
                    product *= oracles.zeta_negative(2 * j)
                    product *= oracles.l_negative(field, 2 * j + 1)
                lhs = lattice.nu(field, n) * 2**n * h_t / (n + 1)
                assert lhs == product, (field.d, n)

    def test_odd_formula_structure(self, f3):
        # n = 3: nu = (-1)^2 * 4 * 2 / (2^3 h_t) * zeta(-3) * zeta(-1) L(-2)
        expected = (
            Fraction(4 * 2, 8)
            * oracles.zeta_negative(4)
            * oracles.zeta_negative(2)
            * oracles.l_negative(f3, 3)
        )
        assert lattice.nu(f3, 3) == expected == Fraction(1, 6480)

    def test_interval_for_multiple_ramified_primes(self, f5):
        value = lattice.nu(f5, 3)
        assert isinstance(value, Interval)
        assert value == Interval(Fraction(1, 96), Fraction(1, 48))
        assert value.upper / value.lower == 2 ** (f5.r - 1)

    def test_interval_ratio_tracks_r(self):
        for d in (5, 6, 30, 42):  # r = 2, 2, 3, 3
            field = _field_for(d)
            value = lattice.nu(field, 5)
            assert isinstance(value, Interval)
            assert value.upper / value.lower == 2 ** (field.r - 1), d

    def test_exact_iff_even_or_single_ramified_prime(self, fields_100):
        for field in fields_100:
            for n in range(2, 9):
                value = lattice.nu(field, n)
                assert is_exact(value) == (n % 2 == 0 or field.r == 1)

    @pytest.mark.parametrize("n", [1, 0, -2, 2.5, "3", True])
    def test_rejects_bad_dimension(self, n, f3):
        with pytest.raises(InvalidDimension):
            lattice.nu(f3, n)


class TestEulerCharacteristic:
    def test_sign_convention(self, f3):
        assert lattice.euler_characteristic(f3, 2) == Fraction(1, 72)
        assert lattice.euler_characteristic(f3, 9) == Fraction(
            -809, 5746705367040
        )

    def test_interval_negation(self, f5):
        chi = lattice.euler_characteristic(f5, 3)
        assert chi == Interval(Fraction(-1, 48), Fraction(-1, 96))
        assert chi.lower <= chi.upper

    def test_sign_grid(self, fields_100):
        for field in fields_100[:10]:
            for n in range(2, 13):
                chi = lattice.euler_characteristic(field, n)
                lo, up = lattice._lower(chi), lattice._upper(chi)
                if n % 2 == 0:
                    assert lo > 0
                else:
                    assert up < 0


class TestPositivityAndMonotonicity:
    def test_nu_positive_everywhere(self, fields_200):
        for field in fields_200:
            for n in range(2, 41):
                value = lattice.nu(field, n)
                assert lattice._lower(value) > 0, (field.d, n)

    def test_first_field_is_strictly_smallest(self, fields_200):
        for n in range(2, 31):
            best = lattice.nu(quadfield.from_squarefree_d(3), n)
            best_upper = lattice._upper(best)
            for field in fields_200:
                if field.d == 3:
                    continue
                value = lattice.nu(field, n)
                assert best_upper < lattice._lower(value), (field.d, n)


class TestVolume:
    def test_headline_volume(self, f3):
        vol = lattice.hyperbolic_volume(f3, 9)
        truth = float(oracles.VOLUME_9_OVER_PI9) * math.pi**9
        assert abs(vol.value - truth) <= 1e-10 * truth
        assert abs(vol.value - truth) <= vol.abs_error_bound
        assert vol.rel_error_bound <= 1e-12

    def test_small_even_volumes(self, f3, f1):
        assert abs(
            lattice.hyperbolic_volume(f3, 2).value - math.pi**2 / 27
        ) <= 1e-14
        assert abs(
            lattice.hyperbolic_volume(f1, 2).value - math.pi**2 / 12
        ) <= 1e-14

    def test_gauss_bonnet_scaling(self, fields_100):
        # volume / nu must be the universal factor (4 pi)^n / (n+1)!
        for field in fields_100[:6]:
            for n in range(2, 11):
                value = lattice.nu(field, n)
                vol = lattice.hyperbolic_volume(field, n)
                factor = (4 * math.pi) ** n / math.factorial(n + 1)
                if is_exact(value):
                    assert abs(vol.value - float(value) * factor) <= (
                        1e-12 * vol.value
                    )
                else:
                    lo, up = vol
                    assert abs(lo.value - float(value.lower) * factor) <= (
                        1e-12 * lo.value
                    )
                    assert abs(up.value - float(value.upper) * factor) <= (
                        1e-12 * up.value
                    )

    def test_interval_volume_ordering(self, f5):
        lo, up = lattice.hyperbolic_volume(f5, 3)
        assert 0 < lo.value < up.value

    def test_saturates_to_inf_past_float_range(self):
        vol = lattice.hyperbolic_volume(_field_for(6), 30)
        assert vol.value == math.inf
        assert vol.abs_error_bound == math.inf

    def test_large_dimension_stays_finite_for_small_disc(self, f3):
        vol = lattice.hyperbolic_volume(f3, 30)
        assert math.isfinite(vol.value)
        assert vol.value > 1e100


class TestIndexAndEpsilon:
    def test_index_values(self, f3, f1, f23):
        assert lattice.index_gamma_lambda(f3, 2) == 3
        assert lattice.index_gamma_lambda(f1, 2) == 3
        assert lattice.index_gamma_lambda(f3, 9) == 5
        assert lattice.index_gamma_lambda(f23, 2) == 9

    def test_index_interval(self, f5):
        idx = lattice.index_gamma_lambda(f5, 3)
        assert idx == Interval(Fraction(2), Fraction(4))

    def test_epsilon_kinds(self, f3, f5):
        even = lattice.epsilon_status(f3, 2)
        assert even.kind == "irrelevant" and even.exact
        odd_exact = lattice.epsilon_status(f3, 3)
        assert odd_exact.kind == "exact"
        assert (odd_exact.lower, odd_exact.upper) == (2, 2)
        odd_bounded = lattice.epsilon_status(f5, 3)
        assert odd_bounded.kind == "bounded"
        assert (odd_bounded.lower, odd_bounded.upper) == (2, 4)
        assert not odd_bounded.exact

    def test_epsilon_exact_iff_r_one_or_even_n(self, fields_100):
        for field in fields_100:
            for n in range(2, 9):
                status = lattice.epsilon_status(field, n)
                assert status.exact == (field.r == 1 or n % 2 == 0)

    # the odd-n epsilon of a field with r ramified primes
    ODD_EPSILON = {
        1: ("exact", 2, 2),
        2: ("bounded", 2, 4),
        3: ("bounded", 2, 8),
        4: ("bounded", 2, 16),
    }

    @pytest.mark.parametrize("d, r", [(3, 1), (5, 2), (30, 3), (210, 4)])
    def test_epsilon_values(self, d, r):
        field = _field_for(d)
        assert field.r == r
        for n in range(2, 10):
            status = lattice.epsilon_status(field, n)
            expected = ("irrelevant", 1, 1) if n % 2 == 0 else self.ODD_EPSILON[r]
            assert (status.kind, status.lower, status.upper) == expected, n

    def test_construction_takes_only_the_three_forms(self):
        forms = (
            {("irrelevant", 1, 1)}
            | {("exact", k, k) for k in range(2, 12)}
            | {("bounded", lo, hi) for lo in range(2, 12) for hi in range(lo, 12)}
        )
        for kind in ("irrelevant", "exact", "bounded", "Exact", "weird", ""):
            for lower in range(-2, 12):
                for upper in range(-2, 12):
                    if (kind, lower, upper) in forms:
                        status = lattice.EpsilonStatus(kind, lower, upper)
                        assert (status.lower, status.upper) == (lower, upper)
                    else:
                        with pytest.raises(ValueError):
                            lattice.EpsilonStatus(kind, lower, upper)


class TestTorsionByGcd:
    """h_torsion reduces m to gcd(m, h) before composing any class."""

    def test_matches_composing_count(self):
        for field in quadfield.fields_with_disc_at_most(2000):
            group = quadfield.reduced_forms(field)
            for m in range(2, 13):
                assert lattice.h_torsion(field, m) == (
                    quadfield.torsion_count(group, m)
                ), (field.d, m)

    def test_two_torsion_from_genus_theory(self):
        # the 2-rank of the class group is r - 1
        for field in quadfield.fields_with_disc_at_most(2000):
            count = 2 ** (field.r - 1)
            assert lattice.h_torsion(field, 2) == count, field.d
            group = quadfield.reduced_forms(field)
            assert quadfield.torsion_count(group, 2) == count, field.d

    def test_prime_to_class_number_composes_nothing(self, monkeypatch, f23):
        def forbidden(*args):
            raise AssertionError("torsion_count called")

        lattice.clear_caches()
        monkeypatch.setattr(quadfield, "torsion_count", forbidden)
        assert [lattice.h_torsion(f23, m) for m in (2, 4, 5, 7, 11)] == [1] * 5

    def test_matches_form_class_oracle(self):
        for field in quadfield.fields_with_disc_at_most(3000):
            group = quadfield.reduced_forms(field)
            for m in range(1, 41):
                assert lattice.h_torsion(field, m) == (
                    oracles.torsion_count_by_form_classes(group, m)
                ), (field.d, m)


class TestSmallFactor:
    """F(n) as one quotient of integers per endpoint equals the chain of
    Fractions through zeta(-n) that it replaced."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 15, 23, 105, 1155])
    def test_matches_fraction_chain(self, d):
        field = _field_for(d)
        for n in range(2, 401):
            got = lattice._small_factor(field, n)
            expected = oracles.small_factor_by_zeta(field, n)
            assert is_exact(got) == is_exact(expected), (d, n)
            assert got == expected, (d, n)
            assert lattice._lower(got) > 0, (d, n)


class TestClassNumber:
    """h from Dirichlet's formula, and the form count checked against it."""

    def test_equals_reduced_form_count(self):
        for field in quadfield.fields_with_disc_at_most(3000):
            assert lattice.class_number(field) == len(
                oracles.naive_reduced_forms(field.disc_signed)
            ), field.d

    def test_builds_forms_only_when_torsion_needs_them(self, monkeypatch, f23):
        built = []
        real = quadfield.reduced_forms

        def counting(field):
            built.append(field.d)
            return real(field)

        lattice.clear_caches()
        monkeypatch.setattr(quadfield, "reduced_forms", counting)
        assert lattice.class_number(f23) == 3
        assert [lattice.h_torsion(f23, m) for m in (2, 4, 5, 7)] == [1] * 4
        assert built == []
        assert lattice.h_torsion(f23, 6) == 3
        assert built == [23]

    def test_short_form_list_is_a_defect(self, monkeypatch, f23):
        real = quadfield.reduced_forms

        def short(field):
            group = real(field)
            return dataclasses.replace(group, classes=group.classes[:-1])

        lattice.clear_caches()
        monkeypatch.setattr(quadfield, "reduced_forms", short)
        with pytest.raises(InternalDefect, match="2 reduced forms but class number 3"):
            lattice.h_torsion(f23, 3)

    @staticmethod
    def _flip(monkeypatch, *residues):
        real = quadfield.chi_table

        def flipped(D):
            chi = list(real(D))
            for a in residues:
                chi[a] = -chi[a]
            return tuple(chi)

        lattice.clear_caches()
        monkeypatch.setattr(quadfield, "chi_table", flipped)

    def test_wrong_character_is_a_defect(self, monkeypatch, f23):
        # chi_-23(5) = -1: flipping it makes T_0 = 5, so the formula
        # claims h = 5 where 3 forms exist
        self._flip(monkeypatch, 5)
        assert lattice.class_number(f23) == 5
        with pytest.raises(InternalDefect, match="3 reduced forms but class number 5"):
            lattice.h_torsion(f23, 5)

    def test_non_integral_formula_is_a_defect(self, monkeypatch):
        # chi_-11 is 1, -1, 1, 1, 1 at a = 1..5, so T_0 = 3 and
        # 2 - chi(2) = 3: flipping chi(1) makes T_0 = 1, so h would be 1/3
        f11 = quadfield.from_squarefree_d(11)
        self._flip(monkeypatch, 1)
        with pytest.raises(InternalDefect, match="class number formula fails"):
            lattice.class_number(f11)

    def test_torsion_memo_is_bounded(self):
        covolume.clear_caches()
        for field in quadfield.fields_with_disc_at_most(500):
            lattice.covolume_result(field, 2)
        info = lattice.h_torsion.cache_info()
        assert info.maxsize == 8 and info.currsize <= 8


class TestPrefixProduct:
    """nu reads P(m) from the append-only prefix list of the field asked
    last; every order of requests gives the per-call loop's value."""

    @pytest.fixture(scope="class")
    def expected(self):
        covolume.clear_caches()
        return {
            (field, n): oracles.nu_by_loop(field, n)
            for field in quadfield.fields_with_disc_at_most(300)
            for n in range(2, 31)
        }

    def _check(self, pairs, expected):
        for field, n in pairs:
            assert lattice.nu(field, n) == expected[field, n], (field.d, n)

    @pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
    def test_matches_loop_oracle(self, expected, order):
        fields = sorted({field for field, _ in expected}, key=lambda f: f.disc_abs)
        dims = range(2, 31) if order == "ascending" else range(30, 1, -1)
        if order == "interleaved":
            pairs = [(field, n) for n in range(2, 31) for field in fields]
        else:
            pairs = [(field, n) for field in fields for n in dims]
        bernoulli.clear_caches()
        self._check(pairs, expected)

    def test_across_clear_caches(self, expected, f3, f23):
        bernoulli.clear_caches()
        self._check([(f23, n) for n in (12, 3, 20)], expected)
        bernoulli.clear_caches()
        self._check([(f23, n) for n in (30, 2)], expected)
        covolume.clear_caches()
        self._check([(f3, 9), (f23, 7), (f23, 25), (f3, 30)], expected)

    @pytest.mark.parametrize(
        "clear",
        [covolume.clear_caches, bernoulli.clear_caches],
        ids=["package", "bernoulli"],
    )
    def test_perturbed_l_value_is_not_masked(self, monkeypatch, f23, clear):
        # bernoulli owns the prefix list, so its clear_caches must drop it;
        # every factor pair reads B_2j afresh, as the oracle's zeta does
        covolume.clear_caches()
        before = lattice.nu(f23, 10)  # leaves f23's prefix list warm
        clear()
        real = bernoulli.bernoulli_number
        monkeypatch.setattr(bernoulli, "bernoulli_number", lambda k: 2 * real(k))
        try:
            after = lattice.nu(f23, 10)
            assert after == oracles.nu_by_loop(f23, 10) == 2**5 * before
        finally:
            monkeypatch.undo()
            covolume.clear_caches()

    def test_concurrent_fields(self, expected):
        fields = [quadfield.from_squarefree_d(d) for d in (1, 2, 3, 5, 23, 71)]
        pairs = [(field, n) for field in fields for n in range(2, 31)] * 2
        random.Random(7).shuffle(pairs)
        bernoulli.clear_caches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(lattice.nu, *p) for p in pairs]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (field, n), value in zip(pairs, results):
            assert value == expected[field, n], (field.d, n)

    def test_sweep_computes_each_l_value_once(self, monkeypatch, f3):
        covolume.clear_caches()
        calls = []
        real = bernoulli._PowerSums.pair

        def counting(state, j):
            calls.append(j)
            return real(state, j)

        monkeypatch.setattr(bernoulli._PowerSums, "pair", counting)
        for n in range(2, 201):
            lattice.nu(f3, n)
        # pairs j = 1, ..., 100 once each; a loop per call makes 10000 steps
        assert calls == list(range(1, 101))

    def test_one_discriminant_check_per_field(self, monkeypatch):
        fields = quadfield.fields_with_disc_at_most(400)
        assert len(fields) == 122
        covolume.clear_caches()
        calls = []
        real = quadfield.is_fundamental_discriminant

        def counting(D):
            calls.append(D)
            return real(D)

        monkeypatch.setattr(quadfield, "is_fundamental_discriminant", counting)
        for field in fields:
            lattice.nu(field, 10)
        # chi_table checks D once, and B_{k,chi} for k = 3, ..., 11 reuse
        # that check; factoring |D| again per k makes 6 calls a field
        assert calls == [field.disc_signed for field in fields]


class TestMultiplicity:
    def test_even_dimensions_smallest_field(self, f3):
        for n in range(2, 41, 2):
            assert lattice.multiplicity_bounds(f3, n) == (2, 2)

    def test_odd_dimensions_smallest_field(self, f3):
        for n in range(3, 41, 2):
            expected = (1, 2) if (n + 1) % 8 == 0 else (1, 1)
            assert lattice.multiplicity_bounds(f3, n) == expected, n

    def test_even_with_class_number_three(self, f23):
        assert lattice.multiplicity_bounds(f23, 2) == (2, 6)

    def test_unknown_for_odd_with_many_ramified_primes(self, f5):
        with pytest.raises(UnknownMultiplicity):
            lattice.multiplicity_bounds(f5, 3)

    def test_bounds_ordered_and_even_lower_is_power_of_two(self, fields_100):
        for field in fields_100:
            for n in range(2, 13):
                try:
                    lo, up = lattice.multiplicity_bounds(field, n)
                except UnknownMultiplicity:
                    assert n % 2 == 1 and field.r > 1
                    continue
                assert 1 <= lo <= up
                if n % 2 == 0:
                    assert lo == 2**field.r


class TestAdelicCrossPath:
    def test_headline_normalizations(self, f3, f1):
        for field, n, expected in [
            (f3, 2, Fraction(1, 72)),
            (f1, 2, Fraction(1, 32)),
            (f3, 3, Fraction(1, 6480)),
            (f3, 9, Fraction(809, 5746705367040)),
        ]:
            got = lattice.ep_normalization(field, n)
            assert abs(got.value - float(expected)) <= 1e-9 * float(expected)

    def test_principal_covolume_bounds(self, fields_100):
        for field in fields_100:
            if field.r != 1 or field.disc_abs > 50:
                continue
            for n in range(2, 16):
                mu = lattice.prasad_principal_covolume_numeric(field, n)
                assert mu.value > 0
                assert mu.rel_error_bound <= 1e-9, (field.d, n)

    def test_interval_index_gives_bracketing_pair(self, f5):
        exact = lattice.nu(f5, 3)
        lo, up = lattice.ep_normalization(f5, 3)
        assert abs(lo.value - float(exact.lower)) <= 1e-9 * lo.value
        assert abs(up.value - float(exact.upper)) <= 1e-9 * up.value

    def test_cross_path_subset(self):
        fields = tuple(_field_for(d) for d in (3, 1, 7))
        rows = lattice.cross_path_check(fields, tuple(range(2, 13)))
        assert len(rows) == 33
        assert all(row.ok for row in rows)
        assert max(row.rel_diff for row in rows) <= 1e-9

    def test_cross_path_rejects_multi_ramified_field(self, f5):
        with pytest.raises(InvalidDimension):
            lattice.cross_path_check((f5,), (2,))


def _volume_values(volume):
    if isinstance(volume, tuple):
        return tuple(v.value for v in volume)
    return volume.value


class TestCovolumeResult:
    def test_exact_record(self, f3):
        result = lattice.covolume_result(f3, 9)
        assert result.nu == Fraction(809, 5746705367040)
        assert result.chi == -result.nu
        assert result.h == 1
        assert result.h_torsion == 1
        assert result.epsilon.kind == "exact"
        assert result.multiplicity == (1, 1)
        assert result.exact
        assert result.nu_lower == result.nu_upper == result.nu

    def test_interval_record(self, f5):
        result = lattice.covolume_result(f5, 3)
        assert not result.exact
        assert result.nu_lower == Fraction(1, 96)
        assert result.nu_upper == Fraction(1, 48)
        assert result.multiplicity is None
        assert isinstance(result.volume, tuple)

    def test_volume_matches_direct_call(self, f23):
        result = lattice.covolume_result(f23, 4)
        direct = lattice.hyperbolic_volume(f23, 4)
        assert result.volume == direct.value

    @pytest.mark.parametrize("d, n", [(3, 9), (5, 3), (23, 4)])
    def test_nu_computed_once(self, monkeypatch, d, n):
        field = _field_for(d)
        calls = []
        nu = lattice.nu

        def counting(field, n):
            calls.append(n)
            return nu(field, n)

        monkeypatch.setattr(lattice, "nu", counting)
        result = lattice.covolume_result(field, n)
        assert calls == [n]
        monkeypatch.undo()
        assert result.chi == lattice.euler_characteristic(field, n)
        assert result.volume == _volume_values(lattice.hyperbolic_volume(field, n))
