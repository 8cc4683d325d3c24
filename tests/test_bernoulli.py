"""Bernoulli numbers, polynomials, and quadratic twists.

The reference values come from an independent power-series oracle
(tests/oracles.py) rather than from the recurrence the production code
uses, so agreement actually checks something.
"""

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

import covolume
from covolume import bernoulli, lattice, quadfield, survey
from covolume.errors import InternalDefect, InvalidInput, NonFundamentalDiscriminant

from . import oracles


class TestBernoulliNumber:
    def test_first_values(self):
        assert bernoulli.bernoulli_number(0) == 1
        assert bernoulli.bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli.bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli.bernoulli_number(7) == 0
        assert bernoulli.bernoulli_number(12) == Fraction(-691, 2730)

    def test_against_series_oracle(self):
        expected = oracles.bernoulli_series(80)
        for k in range(81):
            assert bernoulli.bernoulli_number(k) == expected[k], k

    def test_sign_alternation_of_even_values(self):
        # B_{2j} has sign (-1)^(j+1) for j >= 1
        for j in range(1, 41):
            value = bernoulli.bernoulli_number(2 * j)
            assert value != 0
            assert (value > 0) == (j % 2 == 1), j

    def test_von_staudt_clausen_denominators(self):
        for k in range(2, 81, 2):
            expected = oracles.von_staudt_clausen_denominator(k)
            assert bernoulli.bernoulli_number(k).denominator == expected, k

    def test_recurrence(self):
        # sum_{i=0}^{m} C(m+1, i) B_i = 0 for every m >= 1
        from math import comb

        for m in range(1, 81):
            total = sum(
                comb(m + 1, i) * bernoulli.bernoulli_number(i)
                for i in range(m + 1)
            )
            assert total == 0, m

    def test_beyond_cache_limit(self):
        expected = oracles.bernoulli_series(262)
        for k in (202, 262):
            assert bernoulli.bernoulli_number(k) == expected[k], k

    def test_matches_recurrence_oracle(self):
        # the tangent-number table against the recurrence it replaced
        bernoulli.clear_caches()
        expected = oracles.even_bernoulli_by_recurrence(600)
        for j, value in enumerate(expected):
            assert bernoulli.bernoulli_number(2 * j) == value, 2 * j
        assert bernoulli.bernoulli_number(1) == Fraction(-1, 2)
        assert all(bernoulli.bernoulli_number(k) == 0 for k in range(3, 1200, 2))

    def test_table_built_about_log2_times(self, monkeypatch):
        # B_0..B_262 in order must grow the table by doubling: 131 even
        # entries past B_0 take at most ceil(log2 131) + 1 builds
        bernoulli.clear_caches()
        even_values = bernoulli._even_values
        builds = []

        def counting(start, stop):
            builds.append((start, stop))
            return even_values(start, stop)

        monkeypatch.setattr(bernoulli, "_even_values", counting)
        for k in range(263):
            bernoulli.bernoulli_number(k)
        assert len(builds) <= math.ceil(math.log2(131)) + 1
        assert len(bernoulli._even_table) >= 132
        # each build starts where the table ended, so no entry is made twice
        assert [start for start, _ in builds] == [1] + [stop for _, stop in builds[:-1]]

    @pytest.mark.parametrize("bad", [-1, -4, 2.0, "2", None, Fraction(2)])
    def test_rejects_bad_index(self, bad):
        with pytest.raises(InvalidInput):
            bernoulli.bernoulli_number(bad)

    def test_rejects_bool_index(self):
        with pytest.raises(InvalidInput):
            bernoulli.bernoulli_number(True)

    def test_table_swapped_mid_call(self, monkeypatch):
        # a clear_caches between the length check and the index must not
        # send the read to the fresh one-entry table
        expected = bernoulli.bernoulli_number(20)

        class SwappedOnLen(list):
            def __len__(self):
                monkeypatch.setattr(bernoulli, "_even_table", [Fraction(1)])
                return super().__len__()

        monkeypatch.setattr(
            bernoulli, "_even_table", SwappedOnLen(bernoulli._even_table)
        )
        assert bernoulli.bernoulli_number(20) == expected

    def test_cache_purity_under_concurrency(self):
        expected = oracles.bernoulli_series(120)
        ks = list(range(121)) * 4
        rng = random.Random(7)
        rng.shuffle(ks)
        bernoulli.clear_caches()

        def worker(k: int) -> tuple[int, Fraction]:
            if k % 37 == 0:
                bernoulli.clear_caches()
            return k, bernoulli.bernoulli_number(k)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, ks))
        for k, value in results:
            assert value == expected[k], k


class TestBernoulliPolynomial:
    """The oracle's B_k(x), which the B_{k,chi} checks below read."""

    def test_value_at_zero_is_bernoulli_number(self):
        for k in range(25):
            assert oracles.bernoulli_polynomial_value(k, 0) == (
                bernoulli.bernoulli_number(k)
            )

    def test_known_values(self):
        assert oracles.bernoulli_polynomial_value(1, Fraction(1, 2)) == 0
        assert oracles.bernoulli_polynomial_value(3, Fraction(1, 2)) == 0
        assert oracles.bernoulli_polynomial_value(2, 1) == Fraction(1, 6)
        assert oracles.bernoulli_polynomial_value(3, Fraction(1, 3)) == (
            Fraction(1, 27)
        )

    @given(
        k=st.integers(min_value=0, max_value=30),
        num=st.integers(min_value=-50, max_value=50),
        den=st.integers(min_value=1, max_value=50),
    )
    def test_difference_identity(self, k, num, den):
        # B_k(x + 1) - B_k(x) = k x^(k-1)
        x = Fraction(num, den)
        lhs = oracles.bernoulli_polynomial_value(
            k, x + 1
        ) - oracles.bernoulli_polynomial_value(k, x)
        rhs = k * x ** (k - 1) if k else Fraction(0)
        assert lhs == rhs


class TestGeneralizedBernoulli:
    def test_known_values(self):
        for (k, D), expected in oracles.GENERALIZED_BERNOULLI.items():
            assert bernoulli.generalized_bernoulli(k, D) == expected, (k, D)

    def test_parity_vanishing(self, fields_100):
        # chi_D is odd for D < 0, so B_{k,chi} = 0 for even k >= 2
        for field in fields_100:
            for k in range(2, 41, 2):
                assert bernoulli.generalized_bernoulli(k, field.disc_signed) == 0

    def test_odd_values_nonzero(self, fields_100):
        for field in fields_100[:8]:
            for k in range(1, 22, 2):
                assert bernoulli.generalized_bernoulli(k, field.disc_signed) != 0

    def test_matches_direct_polynomial_sum(self, f23):
        D = f23.disc_signed
        q = -D
        chi = oracles.chi_table_per_residue(D)
        for k in (1, 3, 5, 8):
            direct = Fraction(q) ** (k - 1) * sum(
                chi[a % q]
                * oracles.bernoulli_polynomial_value(k, Fraction(a, q))
                for a in range(1, q + 1)
            )
            assert bernoulli.generalized_bernoulli(k, D) == direct, k

    @pytest.mark.parametrize("D", [5, -12, 0, -1, 8])
    def test_rejects_non_imaginary_fundamental(self, D):
        with pytest.raises(NonFundamentalDiscriminant):
            bernoulli.generalized_bernoulli(3, D)

    @pytest.mark.parametrize("k", [0, -3, 1.5, True])
    def test_rejects_bad_index(self, k):
        with pytest.raises(InvalidInput):
            bernoulli.generalized_bernoulli(k, -3)


class TestHalfRangeKernel:
    """The power-sum recurrence against the kernels it replaced."""

    @pytest.mark.parametrize(
        "max_disc, k_max", [(1000, 11), (300, 31)], ids=["k11", "k31"]
    )
    def test_matches_horner_oracle(self, max_disc, k_max):
        for field in quadfield.fields_with_disc_at_most(max_disc):
            D = field.disc_signed
            for k in range(1, k_max + 1):
                assert bernoulli.generalized_bernoulli(k, D) == (
                    oracles.generalized_bernoulli_horner(k, D)
                ), (k, D)

    def test_matches_a_power_oracle(self):
        for field in quadfield.fields_with_disc_at_most(2000):
            D = field.disc_signed
            for k in range(1, 32, 2):
                assert bernoulli.generalized_bernoulli(k, D) == (
                    oracles.generalized_bernoulli_a_powers(k, D)
                ), (k, D)

    def test_matches_a_power_oracle_deep(self):
        bernoulli.clear_caches()
        for k in range(1, 222, 2):
            assert bernoulli.generalized_bernoulli(k, -3) == (
                oracles.generalized_bernoulli_a_powers(k, -3)
            ), k

    def test_recurrence_matches_half_range_oracle(self):
        bernoulli.clear_caches()
        for field in quadfield.fields_with_disc_at_most(3000):
            D = field.disc_signed
            for k in range(1, 42, 2):
                assert bernoulli.generalized_bernoulli(k, D) == (
                    oracles.generalized_bernoulli_half_range(k, D)
                ), (k, D)

    @pytest.mark.parametrize("D", [-3, -4, -8, -163])
    def test_recurrence_matches_half_range_oracle_deep(self, D):
        bernoulli.clear_caches()
        for k in range(1, 402, 2):
            assert bernoulli.generalized_bernoulli(k, D) == (
                oracles.generalized_bernoulli_half_range(k, D)
            ), k

    def test_reads_no_bernoulli_number(self, monkeypatch):
        expected = {
            (k, D): oracles.generalized_bernoulli_half_range(k, D)
            for D in (-3, -4, -23, -163)
            for k in range(1, 32, 2)
        }
        bernoulli.clear_caches()

        def refuse(k):
            raise AssertionError(f"B_{k} read")

        monkeypatch.setattr(bernoulli, "bernoulli_number", refuse)
        for (k, D), value in expected.items():
            assert bernoulli.generalized_bernoulli(k, D) == value, (k, D)

    def test_signed_power_list_matches_sign_split_oracle(self):
        bernoulli.clear_caches()
        cases = [(f.disc_signed, 31) for f in quadfield.fields_with_disc_at_most(2000)]
        for D, k_max in cases + [(-3, 221), (-163, 221)]:
            for k in range(1, k_max + 1, 2):
                bernoulli._power_state(D).extend(k)
                g = oracles.generalized_bernoulli_half_range(k, D) * D * 2 ** (k - 1)
                assert bernoulli._power_state(D).g[k // 2] == g, (D, k)

    def test_non_integral_step_is_a_defect(self):
        state = bernoulli._PowerSums(-7, quadfield.chi_table(-7))
        state.extend(3)
        state.g[1] += 1
        with pytest.raises(InternalDefect, match="g_5"):
            state.extend(5)

    def test_every_small_row_is_integral(self):
        # g_k is an integer for any integer row z, not only for the rows
        # of a quadratic character: every 0/+-1 row with q <= 15, k <= 9
        for q in range(1, 16, 2):
            for row in itertools.product((0, 1, -1), repeat=(q + 1) // 2):
                bernoulli._PowerSums(-q, row).extend(9)

    def test_cleared_coefficients_are_the_even_terms_about_one_half(self):
        # 2^k B_k(x) at x = (1 - y)/2 is sum c_j y^(k-2j) / M, for odd k
        for k in range(1, 40, 2):
            ints, den = oracles.cleared_poly(k)
            assert len(ints) == (k + 1) // 2
            for x in (Fraction(0), Fraction(1, 3), Fraction(-5, 7)):
                y = 1 - 2 * x
                poly = sum(c * y ** (k - 2 * j) for j, c in enumerate(ints))
                assert Fraction(poly, 2 * den) == (
                    oracles.bernoulli_polynomial_value(k, x)
                ), (k, x)

    def test_cleared_coefficients_match_fraction_oracle(self):
        for k in range(1, 302, 2):
            assert oracles.cleared_poly(k) == oracles.cleared_poly_by_fractions(k), k


class TestSharedPowerSums:
    """One power-sum state per field, shared by every odd k, never stale."""

    FIELDS = (-3, -4, -20, -23, -84, -299, -420)

    def _check(self, pairs):
        for k, D in pairs:
            assert bernoulli.generalized_bernoulli(k, D) == (
                oracles.generalized_bernoulli_horner(k, D)
            ), (k, D)

    def test_descending_k(self):
        bernoulli.clear_caches()
        self._check((k, D) for D in self.FIELDS for k in range(31, 0, -1))

    def test_interleaved_fields(self):
        bernoulli.clear_caches()
        self._check(
            (k, D) for k in range(1, 24) for D in (self.FIELDS[k % 7], -299)
        )

    def test_across_clear_caches(self):
        bernoulli.clear_caches()
        self._check((k, -84) for k in (3, 5, 7))
        bernoulli.clear_caches()
        self._check((k, D) for D in (-84, -20) for k in (9, 3, 11))
        quadfield.clear_caches()
        self._check((k, -84) for k in (13, 1, 15))

    def test_one_state_and_n_power_passes_per_nu(self, monkeypatch):
        field = quadfield.from_squarefree_d(23)
        built, reads = [], []
        passes = Counter()
        init, times = bernoulli._PowerSums.__init__, bernoulli._times
        table = bernoulli._word_table

        def counting_init(self, D, chi):
            built.append(D)
            init(self, D, chi)

        def counting_times(xs, ys):
            if xs:
                passes[id(ys)] += 1
            return times(xs, ys)

        def counting_table(c, need):
            reads.append((c, need))
            return table(c, need)

        monkeypatch.setattr(bernoulli._PowerSums, "__init__", counting_init)
        monkeypatch.setattr(bernoulli, "_times", counting_times)
        monkeypatch.setattr(bernoulli, "_word_table", counting_table)
        bernoulli.clear_caches()
        lattice.nu(field, 10)
        # V_1 .. V_11 for k = 1, 3, ..., 11 come from one table read of six
        # slots, since every t = 23 - 2a is in the table: no power pass
        assert built == [-23] and reads == [(6, 23)] and not passes

        # with the table stopping at t = 8, the terms t = 23, 21, ..., 9
        # take one pass squaring their signed list chi(a) (q - 2a) and
        # five steps by those squares, and the table still gives t <= 8
        monkeypatch.setattr(bernoulli, "_WORD_T", 8)
        bernoulli.clear_caches()
        del built[:], reads[:]
        lattice.nu(field, 10)
        assert built == [-23] and reads == [(6, 8)]
        assert sorted(passes.values()) == [1, 5]
        bernoulli.clear_caches()

    def test_concurrent_fields(self):
        pairs = [(k, D) for D in self.FIELDS for k in range(1, 16, 2)] * 3
        random.Random(11).shuffle(pairs)
        expected = {p: oracles.generalized_bernoulli_horner(*p) for p in set(pairs)}
        bernoulli.clear_caches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(bernoulli.generalized_bernoulli, *p) for p in pairs
                ]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for p, value in zip(pairs, results):
            assert value == expected[p], p


@lru_cache(maxsize=None)
def _pass_g(D, k):
    """g_1, g_3, ..., g_k of D by the power passes of oracles.PassPowerSums."""
    return tuple(oracles.PassPowerSums(D).extend(k))


class TestPackedWords:
    """The shared word table against the power passes that it replaced,
    with its bounds moved so that fields straddle t = _WORD_T, j = _WORD_J
    or both, and so use the table and the passes in one state."""

    BOUNDS = {
        "T0": (0, 15),
        "T64": (64, 15),
        "default": (bernoulli._WORD_T, bernoulli._WORD_J),
        "J3": (bernoulli._WORD_T, 3),
        "T64-J1": (64, 1),
    }

    @pytest.fixture(params=list(BOUNDS))
    def bounds(self, request, monkeypatch):
        word_t, word_j = self.BOUNDS[request.param]
        monkeypatch.setattr(bernoulli, "_WORD_T", word_t)
        monkeypatch.setattr(bernoulli, "_WORD_J", word_j)
        bernoulli.clear_caches()
        yield
        bernoulli.clear_caches()

    @staticmethod
    def _g(D, first, k):
        state = bernoulli._PowerSums(D, quadfield.chi_table(D))
        state.extend(first)
        state.extend(k)
        return tuple(state.g)

    def test_matches_pass_oracle(self, bounds):
        # the first extend asks for k = 1, 3, ..., 15, then 41, each over
        # one ninth of the fields in ascending |disc|: the table grows
        # within each ninth, starts again with more slots at the next, and
        # k = 41 reads the slots of j <= _WORD_J
        fields = quadfield.fields_with_disc_at_most(3000)
        firsts = (1, 3, 5, 7, 9, 11, 13, 15, 41)
        for i, field in enumerate(fields):
            D, first = field.disc_signed, firsts[i * len(firsts) // len(fields)]
            assert self._g(D, first, 41) == _pass_g(D, 41), (D, first)

    @pytest.mark.parametrize("D", [-3, -4, -8, -163])
    def test_matches_pass_oracle_deep(self, bounds, D):
        for first in (1, 7, 15, 401):
            assert self._g(D, first, 401) == _pass_g(D, 401), first

    def test_narrow_slot_is_a_defect(self, monkeypatch):
        # 3-bit slots hold -4..3, but V_1 of D = -7 is 5 + 3 - 1 = 7 and
        # V_3 is 151, so a residue is left above the top slot
        words = [t + (t**3 << 3) for t in range(64)]
        monkeypatch.setattr(bernoulli, "_words", (2, 3, words))
        state = bernoulli._PowerSums(-7, quadfield.chi_table(-7))
        with pytest.raises(InternalDefect, match="overflow"):
            state.extend(3)


class TestLProduct:
    """The factor pairs and the prefix product P(m) of the power-sum state
    against the route through oracles.l_negative that they replaced."""

    @staticmethod
    def _check(field, j_max):
        D = field.disc_signed
        expected = [Fraction(1)]
        for j in range(1, j_max + 1):
            pair = oracles.l_pair_by_l_negative(field, j)
            assert bernoulli._l_pair(D, j) == pair, (D, j)
            expected.append(expected[-1] * pair)
        assert [bernoulli._l_product(D, m) for m in range(j_max + 1)] == expected, D

    def test_matches_l_negative_route(self):
        covolume.clear_caches()
        try:
            for field in quadfield.fields_with_disc_at_most(3000):
                self._check(field, 10)
        finally:
            covolume.clear_caches()  # the oracle fills the B_{k,chi} memo

    @pytest.mark.parametrize("d", [3, 1, 2, 163], ids=["D-3", "D-4", "D-8", "D-163"])
    def test_matches_l_negative_route_deep(self, d):
        covolume.clear_caches()
        try:
            self._check(quadfield.from_squarefree_d(d), 200)
        finally:
            covolume.clear_caches()

    def test_scan_reads_no_b_k_chi(self):
        # every CLI path reads the pairs from the state's g_k, so the memo
        # of B_{k,chi} stays empty; it held 3055 entries after this scan
        # when the pairs went through L(-2j, chi) and that memo
        covolume.clear_caches()
        survey.scan(10, 2000)
        assert bernoulli._generalized_bernoulli.cache_info().currsize == 0
