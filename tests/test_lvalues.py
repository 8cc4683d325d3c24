"""Zeta and L-function special values, exact and numeric.

The exact route (rationals at nonpositive integers) and the numeric
route (series at s >= 2) are developed independently in the production
code, so the functional equation tests here genuinely tie the two
together.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from covolume import lvalues, quadfield
from covolume.errors import InvalidInput
from covolume.lvalues import NumericValue

from . import oracles


class TestZetaNegative:
    def test_known_values(self):
        for k, expected in oracles.ZETA_NEGATIVE.items():
            assert oracles.zeta_negative(k) == expected, k

    def test_equals_bernoulli_quotient(self):
        from covolume import bernoulli

        for k in range(2, 81, 2):
            assert oracles.zeta_negative(k) == (
                -bernoulli.bernoulli_number(k) / k
            )

    def test_sign_alternation(self):
        # zeta(1 - 2j) has sign (-1)^j and never vanishes
        for j in range(1, 41):
            value = oracles.zeta_negative(2 * j)
            assert value != 0
            assert (value < 0) == (j % 2 == 1), j

    @pytest.mark.parametrize("k", [0, 1, 3, 7, -2, 2.5, True])
    def test_rejects_bad_k(self, k):
        with pytest.raises(InvalidInput):
            oracles.zeta_negative(k)


class TestLNegative:
    """L(1 - k, chi) = -B_{k,chi} / k through oracles.l_negative, which no
    command calls; it ties B_{k,chi} to known L-values."""

    def test_known_values(self):
        for (D, k), expected in oracles.L_NEGATIVE.items():
            d = -D if -D % 4 == 3 else -D // 4
            field = quadfield.from_squarefree_d(d)
            assert oracles.l_negative(field, k) == expected, (D, k)

    def test_nonvanishing(self, fields_500):
        for field in fields_500:
            for k in range(1, 22, 2):
                assert oracles.l_negative(field, k) != 0, (field.d, k)

    def test_k_one_gives_class_number_formula(self, fields_200):
        # L(0, chi) = 2 h / mu for imaginary quadratic fields
        for field in fields_200:
            h = quadfield.reduced_forms(field).h
            assert oracles.l_negative(field, 1) == Fraction(
                2 * h, field.mu_order
            ), field.d

    @pytest.mark.parametrize("k", [0, 2, 4, -1, 1.5, True])
    def test_rejects_bad_k(self, k, f3):
        with pytest.raises(InvalidInput):
            oracles.l_negative(f3, k)


class TestZetaNumeric:
    def test_pi_values(self):
        z2 = lvalues.zeta_numeric(2)
        z4 = lvalues.zeta_numeric(4)
        assert abs(z2.value - math.pi**2 / 6) <= 1e-12
        assert abs(z4.value - math.pi**4 / 90) <= 1e-12

    def test_against_mpmath(self):
        for s in range(2, 31):
            got = lvalues.zeta_numeric(s)
            truth = oracles.zeta_mp(s)
            assert abs(got.value - truth) <= got.abs_error_bound, s

    def test_error_bounds_meet_contract(self):
        for s in range(2, 41):
            assert lvalues.zeta_numeric(s).abs_error_bound <= 1e-12, s

    def test_decreasing_toward_one(self):
        previous = math.inf
        for s in range(2, 31):
            value = lvalues.zeta_numeric(s).value
            assert 1.0 < value < previous
            previous = value

    @pytest.mark.parametrize("s", [1, 0, -3, 2.5, True])
    def test_rejects_bad_s(self, s):
        with pytest.raises(InvalidInput):
            lvalues.zeta_numeric(s)


class TestLNumeric:
    def test_catalan_family_value(self, f1):
        # L(3, chi_{-4}) = pi^3 / 32
        got = lvalues.l_numeric(f1, 3)
        assert abs(got.value - math.pi**3 / 32) <= 1e-10
        assert abs(got.value - math.pi**3 / 32) <= got.abs_error_bound

    def test_partial_sum_cross_check(self, f3):
        # direct chi(n)/n^2 summation with an Abel tail bound ~ 2q/N^2
        chi = np.array(oracles.chi_table_per_residue(-3), dtype=np.float64)
        n = np.arange(1, 1_200_001)
        signs = chi[n % 3]
        reference = float(np.sum(signs / n.astype(np.float64) ** 2))
        got = lvalues.l_numeric(f3, 2)
        assert abs(got.value - reference) <= 1e-11

    def test_against_mpmath(self, fields_100):
        for field in fields_100:
            if field.disc_abs > 40:
                continue
            chi = oracles.chi_table_per_residue(field.disc_signed)
            for s in range(2, 13):
                got = lvalues.l_numeric(field, s)
                truth = oracles.l_function_mp(field.disc_signed, s, chi)
                assert abs(got.value - truth) <= got.abs_error_bound, (
                    field.d,
                    s,
                )

    def test_error_bounds_meet_contract(self, fields_100):
        for field in fields_100:
            for s in range(2, 21):
                assert lvalues.l_numeric(field, s).abs_error_bound <= 1e-12

    def test_between_zero_and_zeta(self, fields_100):
        for field in fields_100:
            for s in range(2, 16):
                value = lvalues.l_numeric(field, s).value
                assert 0.0 < value < lvalues.zeta_numeric(s).value

    @pytest.mark.parametrize("s", [1, 0, 1.5, True])
    def test_rejects_bad_s(self, s, f3):
        with pytest.raises(InvalidInput):
            lvalues.l_numeric(f3, s)

    @pytest.mark.parametrize("d, s", [(43, 189), (163, 141)])
    def test_past_double_range_of_q_to_the_s(self, d, s):
        # q^s overflows a double from here on; the value still lies
        # within its bound of the mpmath series
        field = quadfield.from_squarefree_d(d)
        chi = oracles.chi_table_per_residue(field.disc_signed)
        with pytest.raises(OverflowError):
            float(field.disc_abs) ** s
        got = lvalues.l_numeric(field, s)
        truth = oracles.l_function_mp(field.disc_signed, s, chi)
        assert abs(got.value - truth) <= got.abs_error_bound <= 1e-12

    def test_reads_no_exact_route_table(self, monkeypatch, f23):
        # the numeric route keeps its own Kronecker table
        def forbidden(D):
            raise AssertionError("chi_table called")

        lvalues.clear_caches()
        monkeypatch.setattr(quadfield, "chi_table", forbidden)
        assert lvalues.l_numeric(f23, 2).value > 0


class TestFunctionalEquations:
    @pytest.mark.parametrize("k", list(range(2, 21, 2)))
    def test_zeta_reflection(self, k):
        # zeta(1 - k) = 2 (2 pi)^(-k) cos(pi k / 2) Gamma(k) zeta(k)
        exact = float(oracles.zeta_negative(k))
        cos_term = -1.0 if k % 4 == 2 else 1.0
        via_series = (
            2.0
            * (2 * math.pi) ** (-k)
            * cos_term
            * math.gamma(k)
            * lvalues.zeta_numeric(k).value
        )
        assert abs(exact - via_series) <= 1e-9 * abs(exact), k

    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    def test_l_reflection(self, k, fields_100):
        # for the odd character chi of conductor q the completed function
        # (q/pi)^((s+1)/2) Gamma((s+1)/2) L(s) is invariant under s -> 1-s
        for field in fields_100:
            if field.disc_abs > 40:
                continue
            q = field.disc_abs
            exact = float(oracles.l_negative(field, k))
            via_series = (
                (q / math.pi) ** (k - 0.5)
                * math.gamma((k + 1) / 2)
                / math.gamma(1 - k / 2)
                * lvalues.l_numeric(field, k).value
            )
            assert abs(exact - via_series) <= 1e-9 * abs(exact), (field.d, k)


class TestNumericValue:
    def test_relative_bound(self):
        nv = NumericValue(2.0, 1e-12)
        assert nv.rel_error_bound == 5e-13

    def test_zero_value_has_infinite_relative_bound(self):
        assert NumericValue(0.0, 1e-12).rel_error_bound == math.inf
