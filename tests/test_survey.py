"""Survey layer: scans, per-dimension minima, the global minimum,
growth certificates, and the cusped-volume lower bound.
"""

import dataclasses
import itertools
import math
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Context, Decimal
from fractions import Fraction

import mpmath
import pytest

import covolume
from covolume import bernoulli, cli, lattice, lvalues, quadfield, serialize, survey
from covolume.errors import (
    InternalDefect,
    InvalidDimension,
    InvalidInput,
    TieDetected,
)
from covolume.lattice import Interval

from . import oracles

_LN_CONTEXT = Context(prec=50)  # for decimal ln of a float volume


class TestDiscriminantBound:
    @pytest.mark.parametrize("n", [2, 3, 4, 10, 25, 60])
    def test_matches_direct_formula(self, n):
        if n % 2 == 0:
            s = n * (n + 3) / 4
            t = 1
        else:
            s = (n - 1) * (n + 2) / 4
            t = 0
        expected = 3.0 * (2 * math.pi**5 / 3**5.5) ** (
            (n - t) / (2 * (s - 1))
        )
        got = survey.discriminant_bound(n)
        assert abs(got.value - expected) <= 1e-12 * expected
        assert abs(got.value - expected) <= got.abs_error_bound

    def test_known_value_at_two(self):
        assert abs(survey.discriminant_bound(2).value - 3.3987984180798) <= 1e-10

    def test_decays_toward_three(self):
        assert survey.discriminant_bound(3).value > 4
        for n in range(4, 61):
            value = survey.discriminant_bound(n).value
            assert 3 < value < 4, n
        assert survey.discriminant_bound(400).value < 3.01

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidDimension):
            survey.discriminant_bound(1)

    def test_equals_the_fraction_route(self):
        for n in range(2, 5001):
            expected = oracles.discriminant_bound_by_fractions(n)
            assert survey.discriminant_bound(n).value == expected, n

    def test_sweep_limits_unchanged(self):
        for margin in (1, 20):
            for mr in survey.overall_minimum(40, safety_margin=margin).per_n:
                cert = mr.certificate
                bound = oracles.discriminant_bound_by_fractions(cert.n)
                assert cert.bound == bound, cert.n
                assert cert.limit == max(math.ceil(bound), 4) + margin, cert.n


class TestBrauerSiegelBound:
    """Class numbers from reduced forms under the oracle's analytic bound."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_dominates_class_number(self, m, fields_500):
        for field in fields_500:
            h = quadfield.reduced_forms(field).h
            bound = oracles.brauer_siegel_h_bound(field, m)
            assert bound.value > 0
            assert h <= bound.value, (field.d, m)


class TestScan:
    def test_matches_sequential_assembly(self, fields_200):
        rows = survey.scan(2, 200)
        assert len(rows) == len(fields_200)
        expected = tuple(lattice.covolume_result(f, 2) for f in fields_200)
        assert rows == expected

    def test_row_contents(self):
        first = survey.scan(2, 10)[0]
        assert (first.d, first.disc, first.n) == (3, 3, 2)
        assert first.nu == Fraction(1, 72)
        assert (first.h, first.h_torsion, first.r) == (1, 1, 1)
        assert first.epsilon.kind == "irrelevant"
        assert first.multiplicity == (2, 2)
        assert first.exact

    def test_ascending_discriminant(self):
        rows = survey.scan(3, 300)
        discs = [row.disc for row in rows]
        assert discs == sorted(discs)

    def test_even_multiplicity_lower_is_two_power(self):
        for row in survey.scan(2, 400):
            assert row.multiplicity is not None
            assert row.multiplicity[0] == 2**row.r

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInput):
            survey.scan(2, 2)
        with pytest.raises(InvalidDimension):
            survey.scan(1, 100)


def _overlap(monkeypatch, where, interval=(-1000.0, -999.0)):
    """Give every (field, n) that where() picks one ln interval, below
    every true one at n <= 60, so that their records, and only theirs,
    reach the exact comparison together."""
    real = lattice._ln_nu_interval

    def bounds(dim, shared):
        return interval if where(shared[0], dim[0]) else real(dim, shared)

    monkeypatch.setattr(lattice, "_ln_nu_interval", bounds)


def _counting_records(monkeypatch):
    """The (d, n) of every exact record built from here on, in order."""
    records = []
    real = lattice.covolume_result

    def counting(field, n):
        records.append((field.d, n))
        return real(field, n)

    monkeypatch.setattr(lattice, "covolume_result", counting)
    return records


def _encloses(bounds, volume):
    """Whether bounds = (low, high) holds ln volume, with ln 0 = -inf and
    ln inf = inf, compared in decimal."""
    low, high = bounds
    if volume == math.inf:
        return high == math.inf
    if volume == 0.0:
        return low == -math.inf
    ln = Decimal(volume).ln(_LN_CONTEXT)
    return (low == -math.inf or Decimal(low) <= ln) and (
        high == math.inf or ln <= Decimal(high)
    )


def _e(m):
    """E(m) = sum_{j<=m} 4^-j, the analytic half-width of ln P(m)."""
    return sum(4.0**-j for j in range(1, m + 1))


def _check_ln_l_products(D, logs):
    """Each (value, half-width) of logs, ln P(m) for m = 0, 1, ..., encloses
    the decimal ln of the exact P(m) and the whole interval of the
    power-sum oracle, and is no wider than E(m) plus 1e-8 of float error."""
    oracle = oracles.ln_l_products_by_power_sums(D, len(logs) - 1)
    for m, ((value, width), (exact_sum, error)) in enumerate(zip(logs, oracle)):
        ln = oracles.ln_by_decimal(bernoulli._l_product(D, m))
        low, high = Decimal(value) - Decimal(width), Decimal(value) + Decimal(width)
        assert low <= ln <= high, (D, m)
        assert abs(Decimal(exact_sum) - ln) <= Decimal(error), (D, m)
        assert low <= Decimal(exact_sum) - Decimal(error), (D, m)
        assert Decimal(exact_sum) + Decimal(error) <= high, (D, m)
        assert _e(m) <= width < _e(m) + 1e-8, (D, m)


class TestMinimalField:
    @pytest.mark.parametrize(
        "n,expected_nu",
        [
            (2, Fraction(1, 72)),
            (3, Fraction(1, 6480)),
            (9, Fraction(809, 5746705367040)),
        ],
    )
    def test_winner_and_value(self, n, expected_nu):
        best = survey.minimal_field(n)
        assert best.field.d == 3
        assert best.result.nu == expected_nu

    def test_certificate_complete_and_sound(self):
        best = survey.minimal_field(4)
        cert = best.certificate
        assert cert.limit == max(math.ceil(cert.bound), 4) + 20
        expected_fields = quadfield.fields_with_disc_at_most(cert.limit)
        assert tuple(c.field for c in cert.candidates) == expected_fields
        winner_nu = best.result.nu_lower
        for candidate in cert.candidates:
            nu_lower = lattice.covolume_result(candidate.field, 4).nu_lower
            assert winner_nu <= nu_lower
            ln = oracles.ln_by_decimal(nu_lower)
            assert Decimal(candidate.ln_low) <= ln <= Decimal(candidate.ln_high)
        assert any(c.field == best.field for c in cert.candidates)
        assert best.candidate.field == best.field

    def test_tie_raises(self, monkeypatch):
        # the tied records are compared only where the intervals overlap
        real = lattice.covolume_result

        def tied(field, n):
            return dataclasses.replace(real(field, n), nu=Fraction(1, 7))

        monkeypatch.setattr(lattice, "covolume_result", tied)
        _overlap(monkeypatch, lambda field, n: True)
        with pytest.raises(TieDetected, match="^minimum at n = 2 is shared by "):
            survey.minimal_field(2)

    def test_inexact_winner_raises(self, monkeypatch):
        # forced to overlap, every record is compared, and the least one
        # is an interval
        real = lattice.covolume_result

        def widened(field, n):
            result = real(field, n)
            low = Fraction(1, 1000 + field.disc_abs)
            return dataclasses.replace(result, nu=Interval(low, 2 * low))

        monkeypatch.setattr(lattice, "covolume_result", widened)
        _overlap(monkeypatch, lambda field, n: True)
        with pytest.raises(TieDetected):
            survey.minimal_field(2)

    def test_lone_contender_is_checked_by_its_epsilon(self, monkeypatch):
        # forced below every other interval, Q(sqrt(-5)) is the lone
        # contender and wins with no record built; at odd n its two
        # ramified primes leave epsilon, and so nu, an interval
        records = _counting_records(monkeypatch)
        _overlap(monkeypatch, lambda field, n: field.d == 5)
        assert survey.minimal_field(2).field.d == 5
        message = (
            "minimum at n = 3 falls on an interval candidate (Q(sqrt(-5))); "
            "comparison by lower endpoint is inconclusive"
        )
        with pytest.raises(TieDetected, match=f"^{re.escape(message)}$"):
            survey.minimal_field(3)
        assert records == []

    def test_result_is_built_once_when_read(self, monkeypatch):
        records = _counting_records(monkeypatch)
        best = survey.minimal_field(9)
        assert records == []
        assert best.result is best.result
        assert best.result == lattice.covolume_result(best.field, 9)
        assert records == [(3, 9), (3, 9)]
        assert best == survey.minimal_field(9)

    def test_rejects_bad_margin(self):
        with pytest.raises(InvalidInput):
            survey.minimal_field(2, safety_margin=0)


class TestOverallMinimum:
    def test_locates_dimension_nine(self):
        overall = survey.overall_minimum(16)
        assert overall.n_star == 9
        assert overall.volume_n_star == 9
        assert overall.result.d == 3
        assert overall.result.nu == Fraction(809, 5746705367040)
        assert overall.growth_threshold_n1 == 15
        assert len(overall.per_n) == 15
        assert [mr.result.n for mr in overall.per_n] == list(range(2, 17))

    def test_invariant_under_range_extension(self):
        assert survey.overall_minimum(12).n_star == 9
        assert survey.overall_minimum(18).n_star == 9

    def test_rejects_small_range(self):
        with pytest.raises(InvalidInput):
            survey.overall_minimum(9)

    def test_growth_threshold_computes_each_nu_once(self, monkeypatch):
        # the rankings build one record, n_star's, so nu is asked once;
        # the n1 loop over the winner's ratios reads L-factor pairs and
        # adds no request
        calls = []
        nu = lattice.nu

        def counting(field, n):
            calls.append((field.d, n))
            return nu(field, n)

        monkeypatch.setattr(lattice, "nu", counting)
        assert survey.overall_minimum(16).growth_threshold_n1 == 15
        assert calls == [(3, 9)]

    @pytest.mark.parametrize("margin", [1, 20])
    def test_matches_eager_oracle(self, margin):
        # every n_max from 10 to 240 against the rankings of every per-n
        # record built up front, nu by Fractions and volumes by floats
        dims = range(2, 241)
        records = [
            lattice.covolume_result(mr.field, n)
            for n, mr in zip(dims, survey._sweep(dims, margin))
        ]
        eager = oracles.overall_minima_by_records(records, range(10, 241))
        for n_max, expected in eager.items():
            overall = survey.overall_minimum(n_max, margin)
            assert overall.n_star == expected.n_star, n_max
            assert overall.volume_n_star == expected.volume_n_star, n_max
            assert overall.growth_threshold_n1 == expected.growth_threshold_n1, n_max
            assert overall.result == expected.result, n_max
            assert [mr.result for mr in overall.per_n] == records[: n_max - 1]

    def test_records_only_where_intervals_overlap(self, monkeypatch):
        # n_star's record alone, then with three dimensions forced to
        # overlap, theirs, each built once though both rankings read it
        records = _counting_records(monkeypatch)
        assert survey.overall_minimum(60).n_star == 9
        assert records == [(3, 9)]
        records.clear()
        _overlap(
            monkeypatch,
            lambda field, n: field.d == 3 and n in (7, 9, 11),
            interval=(-30.0, -20.0),
        )
        overall = survey.overall_minimum(60)
        assert (overall.n_star, overall.volume_n_star) == (9, 9)
        assert sorted(records) == [(3, 7), (3, 9), (3, 11)]

    def test_verbose_builds_each_record_once(self, monkeypatch, capsys):
        records = _counting_records(monkeypatch)
        assert cli.main(["minimal", "--overall", "--n-max", "60", "--verbose"]) == 0
        assert sorted(records) == [(3, n) for n in range(2, 61)]
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_volume_near_tie_is_compared_by_floats(self, monkeypatch):
        # Q(sqrt(-3))'s ln nu at n = 4 and 6 forced to points whose ln
        # volumes differ by 1e-13, below what the floats of a volume can
        # resolve: the two are compared by their records' float volumes,
        # here equal, so the tie raises
        def shift(n):
            return n * survey._LN_4PI - math.lgamma(n + 2)

        x4 = -30.0
        x6 = x4 + shift(4) - shift(6) + 1e-13
        points = {4: (x4, x4), 6: (x6, x6)}
        real_bounds = lattice._ln_nu_interval

        def bounds(dim, shared):
            if shared[0].d == 3 and dim[0] in points:
                return points[dim[0]]
            return real_bounds(dim, shared)

        real = lattice.covolume_result

        def tied(field, n):
            result = real(field, n)
            if field.d == 3 and n in points:
                return dataclasses.replace(result, volume=1e-300)
            return result

        monkeypatch.setattr(lattice, "_ln_nu_interval", bounds)
        monkeypatch.setattr(lattice, "covolume_result", tied)
        message = "volume minimum is shared by dimensions 4, 6"
        with pytest.raises(TieDetected, match=f"^{re.escape(message)}$"):
            survey.overall_minimum(12)

    @pytest.mark.parametrize("n", [60, 169, 170, 300])
    def test_ln_volume_bounds_hold_past_double_range(self, n):
        # nu_lower = 2^k and 5/7 2^k from below the least double, where
        # the volume is 0.0 or a subnormal rounded up by up to 67%, past
        # the overflow of float(nu) (4 pi)^n, where it is inf though its
        # real value is not, to that of the volume itself; each
        # denominator is within the bound the slack assumes
        field = quadfield.from_squarefree_d(3)
        kinds = set()
        for k, c in itertools.product(range(-1200, 3001, 3), (1, Fraction(5, 7))):
            nu = c * Fraction(2) ** k
            ln = k * math.log(2) + math.log(c)
            certificate = survey.MinimalCertificate(
                n, 0.0, 0, (survey.Candidate(field, ln - 0.3, ln + 0.3),)
            )
            bounds = survey._ln_volume_bounds(survey.MinimalResult(field, certificate))
            volume = lattice._volume(nu, n)
            assert _encloses(bounds, volume), (k, bounds, volume)
            kinds.add(volume if volume in (0.0, math.inf) else 1.0)
        assert kinds == {0.0, 1.0, math.inf}

    def test_lgamma_within_its_bound(self):
        # _ln_volume_bounds takes math.lgamma(n + 2) within 2^-48 (G + 8)
        # of ln (n+1)!; it is within an eighth of that (0.075 at n = 90)
        with mpmath.workdps(60):
            for n in range(2, 3001):
                g = math.lgamma(n + 2)
                exact = mpmath.loggamma(n + 2)
                assert abs(mpmath.mpf(g) - exact) <= 2.0**-48 * (g + 8) / 8, n

    def test_torsion_counted_once_per_divisor_of_h(self, monkeypatch):
        # the sweep asks each field for m = 3..61; an m with
        # gcd(m, h) = g > 1 reads the entry for g, so each g is counted once
        covolume.clear_caches()
        calls = []
        real = quadfield.torsion_count

        def counting(group, m):
            calls.append((group.field.d, m))
            return real(group, m)

        monkeypatch.setattr(quadfield, "torsion_count", counting)
        survey.overall_minimum(60)
        assert sorted(calls) == [(5, 2), (6, 2), (15, 2), (23, 3)]


class TestFieldMajorSweep:
    """minimal_field and overall_minimum share one field-major sweep; each
    certificate must equal the dimension-by-dimension loop's."""

    def test_per_n_matches_minimal_field(self):
        overall = survey.overall_minimum(40)
        assert len(overall.per_n) == 39
        for n, mr in enumerate(overall.per_n, start=2):
            assert survey.minimal_field(n) == mr, n
            expected = oracles.minimal_field_by_loop(n)
            assert (mr.field, mr.result) == (expected.field, expected.result), n
            cert, exact = mr.certificate, expected.certificate
            assert (cert.n, cert.bound, cert.limit) == (exact.n, exact.bound, exact.limit)
            assert [c.field for c in cert.candidates] == [c.field for c in exact.candidates]

    @pytest.mark.parametrize("tied", [{2, 3}, {7, 11}, {40}])
    def test_tie_raises_at_lowest_tied_dimension(self, monkeypatch, tied):
        real = lattice.covolume_result

        def tied_at(field, n):
            result = real(field, n)
            if n not in tied:
                return result
            return dataclasses.replace(result, nu=Fraction(1, 7))

        monkeypatch.setattr(lattice, "covolume_result", tied_at)
        _overlap(monkeypatch, lambda field, n: n in tied)
        with pytest.raises(TieDetected, match=f"minimum at n = {min(tied)} is shared"):
            survey.overall_minimum(40)

    @pytest.mark.parametrize(
        "replace, message",
        [
            ({3: "nu", 5: "nu"}, "overall minimum is shared by dimensions 3, 5"),
            ({4: "volume", 6: "volume"}, "volume minimum is shared by dimensions 4, 6"),
        ],
        ids=["nu", "volume"],
    )
    def test_ranking_tie_raises(self, monkeypatch, replace, message):
        # only Q(sqrt(-3)), the unique exact winner of every dimension,
        # is changed, so each per-dimension certificate still passes; its
        # tied records get one ln nu interval, below every other and wide
        # enough that their ln volume intervals overlap too, so that the
        # ranking of the dimensions compares them exactly
        real = lattice.covolume_result
        tiny = {"nu": Fraction(1, 10**40), "volume": 1e-300}

        def tied_winners(field, n):
            result = real(field, n)
            if field.d != 3 or n not in replace:
                return result
            return dataclasses.replace(result, **{replace[n]: tiny[replace[n]]})

        monkeypatch.setattr(lattice, "covolume_result", tied_winners)
        _overlap(
            monkeypatch,
            lambda field, n: field.d == 3 and n in replace,
            interval=(-1000.0, -990.0),
        )
        with pytest.raises(TieDetected, match=f"^{re.escape(message)}$"):
            survey.overall_minimum(12)

    def test_inexact_winner_raises_at_lowest_dimension(self, monkeypatch):
        real = lattice.covolume_result

        def widened(field, n):
            result = real(field, n)
            if n not in (6, 9):
                return result
            low = Fraction(1, 1000 + field.disc_abs)
            return dataclasses.replace(result, nu=Interval(low, 2 * low))

        monkeypatch.setattr(lattice, "covolume_result", widened)
        _overlap(monkeypatch, lambda field, n: n in (6, 9))
        with pytest.raises(TieDetected, match="minimum at n = 6 falls on an interval"):
            survey.overall_minimum(40)

    def test_rejects_bad_margin(self):
        with pytest.raises(InvalidInput):
            survey.overall_minimum(10, safety_margin=0)

    def test_one_power_state_per_field(self, monkeypatch):
        # ranking reads no power sum, so only the winner's field, -3 at
        # every n <= 60, gets a power-sum state, once: n_star's record
        # builds it (one table read of three slots, to k = 9), and the
        # growth run grows it from there (one squaring pass and 27 steps
        # of the one signed list to k = 61)
        covolume.clear_caches()
        built, reads = [], []
        passes = [0]
        init, times = bernoulli._PowerSums.__init__, bernoulli._times
        table = bernoulli._word_table

        def counting_init(self, D, chi):
            built.append(D)
            init(self, D, chi)

        def counting_times(xs, ys):
            passes[0] += bool(xs)
            return times(xs, ys)

        def counting_table(c, need):
            before = bernoulli._words
            reads.append((c, table(c, need) is not before))
            return bernoulli._words

        monkeypatch.setattr(bernoulli._PowerSums, "__init__", counting_init)
        monkeypatch.setattr(bernoulli, "_times", counting_times)
        monkeypatch.setattr(bernoulli, "_word_table", counting_table)
        survey.overall_minimum(60)
        assert built == [-3]
        assert reads == [(3, True)]
        assert passes[0] == 28


class TestLnRanking:
    """Candidates are ranked by intervals on ln nu_lower; exact records
    are built and compared only where those intervals overlap."""

    @pytest.mark.parametrize("margin", [1, 20])
    def test_matches_exact_ranking(self, margin):
        # and each candidate's ln volume interval holds its float volume,
        # inf past double range
        dims = range(2, 241)
        ranked = survey._sweep(dims, margin)
        exact = oracles.sweep_by_exact_ranking(dims, margin)
        saturated = 0
        for n, mr, expected in zip(dims, ranked, exact):
            assert mr.field == expected.field, n
            assert mr.result == expected.result, n
            cert, full = mr.certificate, expected.certificate
            assert (cert.n, cert.bound, cert.limit) == (n, full.bound, full.limit)
            assert [c.field for c in cert.candidates] == [
                c.field for c in full.candidates
            ], n
            for c in full.candidates:
                volume = survey._volume_value(c.result)
                bounds = survey._ln_volume_bounds(survey.MinimalResult(c.field, cert))
                assert _encloses(bounds, volume), (c.field, n, bounds, volume)
                saturated += volume == math.inf
        assert saturated > 0

    def test_shared_terms_match_per_candidate_oracle(self):
        # the same float operations in the same order as the per-candidate
        # form, so every interval is equal to its
        dims = [lattice._dim_terms(n) for n in range(2, 401)]
        fields = quadfield.fields_with_disc_at_most(1000)
        assert len(fields) == 305
        for field in fields:
            shared = lattice._field_terms(field)
            for dim in dims:
                expected = oracles.ln_nu_bounds(field, dim[0])
                assert lattice._ln_nu_interval(dim, shared) == expected, (field, dim[0])

    def test_intervals_enclose_ln_nu(self):
        entries = sorted(
            (
                (c.field.disc_abs, mr.certificate.n, c)
                for mr in survey.overall_minimum(60).per_n
                for c in mr.certificate.candidates
            ),
            key=lambda e: e[:2],
        )
        assert len(entries) > 500
        for _, n, c in entries:
            ln = oracles.ln_by_decimal(lattice._lower(lattice.nu(c.field, n)))
            assert Decimal(c.ln_low) <= ln <= Decimal(c.ln_high), (c.field, n)
            # twice E(m) of bernoulli._ln_sum, plus float error
            width = 2 * _e(n // 2)
            assert width <= c.ln_high - c.ln_low < width + 1e-8, (c.field, n)

    @pytest.mark.parametrize("D", [-3, -4, -20, -23, -84, -455])
    def test_ln_l_product_bound(self, D):
        # ranking reads the closed form alone: it builds no power-sum state
        covolume.clear_caches()
        logs = [oracles.ln_l_product(D, m) for m in range(41)]
        field = quadfield.from_squarefree_d(-D // 4 if D % 4 == 0 else -D)
        shared = lattice._field_terms(field)
        for n in range(2, 82):
            lattice._ln_nu_interval(lattice._dim_terms(n), shared)
        assert bernoulli._power_state.cache_info().misses == 0
        assert logs[0] == (0.0, 0.0)
        _check_ln_l_products(D, logs)

    def test_ln_l_product_encloses_every_small_field(self, fields_500):
        for field in fields_500:
            D = field.disc_signed
            _check_ln_l_products(D, [oracles.ln_l_product(D, m) for m in range(21)])

    def test_ln_sums_under_concurrency(self):
        # the shared table grows under the lock, and a clear_caches in
        # between leaves every caller with the value a sequential run gives
        pairs = [(D, m) for D in (-3, -4, -455) for m in range(0, 60, 7)] * 3
        random.Random(5).shuffle(pairs)
        covolume.clear_caches()
        expected = {p: oracles.ln_l_product(*p) for p in set(pairs)}

        def worker(i):
            if i % 11 == 0:
                bernoulli.clear_caches()
            return oracles.ln_l_product(*pairs[i])

        covolume.clear_caches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(worker, i) for i in range(len(pairs))]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected[p] for p in pairs]

    def test_ln_2pi_within_its_bound(self):
        with mpmath.workdps(50):
            ln_2pi = Decimal(str(mpmath.log(2 * mpmath.pi)))
        assert abs(Decimal(bernoulli._LN_2PI) - ln_2pi) <= Decimal(2.0**-51)

    @pytest.mark.parametrize("margin", [1, 20])
    def test_limits_round_outward_and_stay(self, monkeypatch, margin):
        # the enumeration limit rounds the discriminant bound up with its
        # error bound; over n = 2..5000 no limit moves from the bare value
        monkeypatch.setattr(lattice, "_dim_terms", lambda n: None)
        monkeypatch.setattr(lattice, "_ln_nu_interval", lambda dim, shared: (0.0, 0.0))
        monkeypatch.setattr(survey, "_certify", lambda n, bound, limit, cands: limit)
        dims = range(2, 5001)
        for n, limit in zip(dims, survey._sweep(dims, margin)):
            bound = survey.discriminant_bound(n)
            assert limit >= bound.value + bound.abs_error_bound + margin, n
            assert limit == max(math.ceil(bound.value), 4) + margin, n

    def test_wide_margin_matches_exact_ranking(self):
        # margin 400 enumerates every field with |disc| <= 404 at n <= 20
        dims = range(2, 21)
        ranked = survey._sweep(dims, 400)
        exact = oracles.sweep_by_exact_ranking(dims, 400)
        assert len(ranked[-1].certificate.candidates) > 120
        for n, mr, expected in zip(dims, ranked, exact):
            assert (mr.field, mr.result) == (expected.field, expected.result), n
            cert, full = mr.certificate, expected.certificate
            assert (cert.bound, cert.limit) == (full.bound, full.limit), n
            assert [c.field for c in cert.candidates] == [
                c.field for c in full.candidates
            ], n

    def test_overlap_is_compared_exactly(self, monkeypatch):
        # forced to overlap, Q(sqrt(-3)) and Q(i) are compared by their
        # exact records: the true winner stands, and a tie raises with the
        # message of the exact comparison
        def first_two(field, n):
            return n == 2 and field.d in (1, 3)

        _overlap(monkeypatch, first_two)
        best = survey.minimal_field(2)
        assert best.field.d == 3 and best.result.nu == Fraction(1, 72)
        real = lattice.covolume_result

        def tied(field, n):
            result = real(field, n)
            return dataclasses.replace(result, nu=Fraction(1, 7)) if first_two(field, n) else result

        monkeypatch.setattr(lattice, "covolume_result", tied)
        message = "minimum at n = 2 is shared by Q(sqrt(-3)), Q(i)"
        with pytest.raises(TieDetected, match=f"^{re.escape(message)}$"):
            survey.minimal_field(2)

    def test_interval_valued_minimum_raises(self, monkeypatch):
        # Q(sqrt(-5)) has two ramified primes, so nu at odd n is an
        # interval; forced to overlap Q(sqrt(-3)) with the least lower
        # endpoint, it is the minimum, which cannot be certified
        real = lattice.covolume_result

        def widened(field, n):
            result = real(field, n)
            if field.d != 5:
                return result
            return dataclasses.replace(result, nu=Interval(Fraction(1, 10**9), Fraction(1)))

        monkeypatch.setattr(lattice, "covolume_result", widened)
        _overlap(monkeypatch, lambda field, n: field.d in (3, 5))
        message = (
            "minimum at n = 3 falls on an interval candidate (Q(sqrt(-5))); "
            "comparison by lower endpoint is inconclusive"
        )
        with pytest.raises(TieDetected, match=f"^{re.escape(message)}$"):
            survey.minimal_field(3)

    def test_only_winners_get_records(self, monkeypatch):
        # no interval overlaps another, so the one record built is
        # n_star's, and the L-product of no other field is multiplied
        # out: every factor pair is Q(sqrt(-3))'s; each other winner's
        # record is built when it is read, equal to a fresh one
        covolume.clear_caches()
        records, pairs = [], set()
        real_result, real_pair = lattice.covolume_result, bernoulli._PowerSums.pair

        def counting_result(field, n):
            records.append((field.d, n))
            return real_result(field, n)

        def counting_pair(state, j):
            pairs.add(state.q)
            return real_pair(state, j)

        monkeypatch.setattr(lattice, "covolume_result", counting_result)
        monkeypatch.setattr(bernoulli._PowerSums, "pair", counting_pair)
        overall = survey.overall_minimum(60)
        assert records == [(3, 9)]
        assert pairs == {3}
        assert [mr.result for mr in overall.per_n] == [
            lattice.covolume_result(quadfield.from_squarefree_d(3), n)
            for n in range(2, 61)
        ]


class TestGrowthRatio:
    def test_known_exact_ratios(self, f3):
        for n, expected in oracles.GROWTH_RATIOS.items():
            assert survey.growth_ratio(f3, n).q == expected, n

    def test_closed_form_tracks_exact(self, f3):
        for n in range(2, 31):
            report = survey.growth_ratio(f3, n)
            assert report.closed_form is not None
            assert report.closed_form_rel_err <= 1e-6, n

    def test_dip_before_final_rise(self, f3):
        # the ratio drops below 1 exactly once more after n = 9
        assert survey.growth_ratio(f3, 14).q < 1
        assert survey.growth_ratio(f3, 15).q > 1
        assert survey.growth_ratio(f3, 9).q > 1

    def test_log_normalization(self, f3):
        report = survey.growth_ratio(f3, 6)
        q = report.q
        assert abs(
            report.log_q_over_n - math.log(float(q)) / 6
        ) <= 1e-12 * abs(report.log_q_over_n)

    def test_interval_ratio_for_multi_ramified_field(self, f5):
        up_report = survey.growth_ratio(f5, 2)  # interval / exact
        assert up_report.q == Interval(Fraction(1, 180), Fraction(1, 90))
        assert up_report.closed_form is None
        down_report = survey.growth_ratio(f5, 3)  # exact / interval
        assert isinstance(down_report.q, Interval)
        assert down_report.q.upper / down_report.q.lower == 2

    def test_rejects_bad_dimension(self, f3):
        with pytest.raises(InvalidDimension):
            survey.growth_ratio(f3, 1)

    @pytest.mark.parametrize("d", [3, 5])
    def test_carried_run_matches_single_ratios(self, d):
        field = quadfield.from_squarefree_d(d)
        dims = range(2, 14)
        expected = [survey.growth_ratio(field, n) for n in dims]
        assert list(survey._growth_reports(field, dims)) == expected

    def test_factor_pairs_match_the_quotient_of_nu(self, fields_200):
        # q(n) from F(n), F(n+1) and one L-factor pair against the quotient
        # of the two nu values it replaced, intervals included (r > 1)
        for field in fields_200:
            nus = {n: lattice.nu(field, n) for n in range(2, 42)}
            for report in survey._growth_reports(field, range(2, 41)):
                n = report.n
                assert report.q == survey._ratio(nus[n + 1], nus[n]), (field, n)

    def test_run_computes_no_nu(self, f3, monkeypatch):
        def forbidden(*args):
            raise AssertionError("growth run reached the L-product")

        monkeypatch.setattr(lattice, "nu", forbidden)
        monkeypatch.setattr(bernoulli, "_l_product", forbidden)
        reports = list(survey._growth_reports(f3, range(2, 60)))
        assert reports[0].q == oracles.GROWTH_RATIOS[2]
        assert reports[1].q == oracles.GROWTH_RATIOS[3]

    def test_rejects_descending_run(self, f3):
        with pytest.raises(InternalDefect):
            next(survey._growth_reports(f3, range(13, 1, -1)))

    @pytest.mark.parametrize("n", [199, 260])
    def test_past_double_range(self, f3, n):
        # the first dimension of each parity whose ratio overflows a
        # double; two below it the float path still applies
        assert math.isfinite(survey.growth_ratio(f3, n - 2).closed_form)
        report = survey.growth_ratio(f3, n)
        assert report.q == lattice.nu(f3, n + 1) / lattice.nu(f3, n)
        assert report.closed_form_rel_err <= 1e-6
        assert report.closed_form == math.inf

    @pytest.mark.parametrize("n", [4, 199])
    def test_doubled_term_is_a_defect(self, f3, monkeypatch, n):
        # both the float path (n = 4) and the logarithm path past double
        # range (n = 199) read the one term builder
        terms = survey._closed_form_terms

        def doubled(field, m):
            factors, logs = terms(field, m)
            return [2 * factors[0], *factors[1:]], logs

        monkeypatch.setattr(survey, "_closed_form_terms", doubled)
        with pytest.raises(InternalDefect, match="cross-check failed"):
            survey.growth_ratio(f3, n)


class TestClosedFormOracle:
    """One term list gives the same floats as the closed form written out
    twice, as a float and as a logarithm."""

    @pytest.mark.parametrize("d", oracles.CLASS_NUMBER_ONE_D)
    def test_bitwise_equal_to_both_forms(self, d):
        field = quadfield.from_squarefree_d(d)
        for n in range(2, 301):
            try:
                expected = oracles.closed_form_ratio_float(field, n)
            except OverflowError:
                with pytest.raises(OverflowError):
                    survey._closed_form_ratio(field, n)
            else:
                assert survey._closed_form_ratio(field, n) == expected, n
            ln = oracles.closed_form_ratio_log(field, n)
            if ln > 710:
                # past double range: the exact ratio exp(ln) sends the
                # report down its logarithm path, so rel_err shows the
                # logarithm the report summed
                with mpmath.workdps(30):
                    q = Fraction(int(mpmath.exp(ln)))
                report = survey._growth_report(field, n, Fraction(1), q)
                expected_err = abs(math.expm1(ln - lattice._log_fraction(q)))
                assert report.closed_form == math.inf
                assert report.closed_form_rel_err == expected_err, n

    @pytest.mark.parametrize("n_max", [10, 15, 16, 40, 60])
    def test_threshold_matches_descending_search(self, n_max):
        overall = survey.overall_minimum(n_max)
        winner = overall.per_n[overall.n_star - 2].field
        expected = oracles.growth_threshold_by_descent(winner, n_max)
        assert overall.growth_threshold_n1 == expected
        if n_max == 15:
            # q(14) < 1, so no dimension below n_max qualifies
            assert expected == n_max


def _hwang_mp(n):
    """The one-cusp hwang bound with pi unrounded, at mpmath's working precision."""
    p4 = math.comb(4 * n + n + 4, n)
    p2 = math.comb(2 * n + n + 2, n)
    gap = p4 - p2
    return (
        mpmath.mpf(gap - (n + 1))
        / (mpmath.mpf(math.factorial(n)) * gap * gap)
        * (4 * mpmath.pi) ** n
    )


class TestHwangBound:
    def test_combinatorics_at_two(self):
        p4 = math.comb(2 * 4 + 2 + 4, 2)
        p2 = math.comb(2 * 2 + 2 + 2, 2)
        assert (p4, p2) == (91, 28)
        expected = (4 * math.pi) ** 2 / (2 * 63) * (1 - 3 / 63)
        got = survey.hwang_bound(2, 1)
        assert abs(got.value - expected) <= 1e-13 * expected
        assert abs(got.value - 1.1936029510009805) <= 1e-12

    @pytest.mark.parametrize("n", list(range(2, 13)))
    def test_matches_direct_formula(self, n):
        p4 = math.comb(4 * n + n + 4, n)
        p2 = math.comb(2 * n + n + 2, n)
        gap = p4 - p2
        expected = (
            (4 * math.pi) ** n
            / (math.factorial(n) * gap)
            * (1 - (n + 1) / gap)
        )
        got = survey.hwang_bound(n, 1)
        assert abs(got.value - expected) <= 1e-13 * expected
        # the error bound is a distance from the true value, which this
        # float formula, with pi rounded to a double, is not
        with mpmath.workdps(40):
            assert abs(got.value - _hwang_mp(n)) <= got.abs_error_bound

    def test_exact_linearity_in_cusps(self):
        for n in (2, 5, 11):
            one = survey.hwang_bound(n, 1).value
            for k in (2, 3, 7, 64, 1000):
                assert survey.hwang_bound(n, k).value == k * one
            assert survey.hwang_bound(n, 6).value == 2 * survey.hwang_bound(
                n, 3
            ).value

    def test_within_error_bound_of_mpmath(self):
        # the bound goes subnormal at n = 172 and leaves the double range
        # at n = 179, where k multiplies the exact quotient
        with mpmath.workdps(40):
            for n in range(2, 301):
                exact = _hwang_mp(n)
                got = survey.hwang_bound(n, 1)
                assert abs(got.value - exact) <= got.abs_error_bound, n
                for k in (3, 1000):
                    got_k = survey.hwang_bound(n, k)
                    if got.value >= 2.0**-1022:
                        assert got_k.value == k * got.value
                    assert abs(got_k.value - k * exact) <= got_k.abs_error_bound, (n, k)
        assert survey.hwang_bound(178, 1).value > 0
        assert survey.hwang_bound(179, 1).value == 0.0

    def test_prints_the_true_bound_to_twelve_digits(self):
        # a bound rounded more than once can miss the 12th digit: through
        # logarithms, n = 125, k = 2 printed 4.11824173551e-207 for
        # 4.1182417355048e-207, and with pi rounded to a double, n = 80,
        # k = 7 printed 8.24254748718e-117 for 8.242547487185e-117.  A
        # subnormal holds fewer than 12 digits, and past double range the
        # bound saturates to inf.
        with mpmath.workdps(40):
            for n in range(2, 301):
                for k in (1, 2, 3, 7, 2**1024):
                    exact = k * _hwang_mp(n)
                    if not 2.0**-1022 <= exact <= sys.float_info.max:
                        continue
                    printed = serialize.format_float(survey.hwang_bound(n, k).value)
                    assert float(printed) == float(mpmath.nstr(exact, 12)), (n, k)

    @pytest.mark.parametrize(
        "n, k, value",
        [(2, 2**1024, math.inf), (500, 2**1024, 0.0), (2, int(1.7e308), math.inf)],
        ids=["overflow", "underflow", "product-overflow"],
    )
    def test_cusp_count_past_double_range(self, n, k, value):
        # k * value(1) saturates to inf where it overflows, as volumes do,
        # and stays 0.0 where value(1) is below the smallest double
        assert survey.hwang_bound(n, k).value == value

    def test_cusp_count_past_double_range_keeps_finite_products(self):
        # k is past double range, and the exact product k * value(1) is rounded once
        k = 2**1024
        for n in (50, 130):
            one = survey.hwang_bound(n, 1).value
            assert survey.hwang_bound(n, k).value == float(k * Fraction(one)), n

    def test_error_bound_covers_huge_cusp_count(self):
        # value(1) underflows from n = 179, but 2^1024 times the true bound
        # at n = 300 is about 5.6e-302, a normal double
        n, k = 300, 2**1024
        with mpmath.workdps(40):
            exact = k * _hwang_mp(n)
            assert 5.5e-302 < exact < 5.7e-302
            got = survey.hwang_bound(n, k)
            assert abs(got.value - exact) <= got.abs_error_bound
            assert got.abs_error_bound <= 1e-12 * exact

    def test_decays_monotonically(self):
        values = [survey.hwang_bound(n, 1).value for n in range(2, 41)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-40

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInput):
            survey.hwang_bound(2, 0)
        with pytest.raises(InvalidInput):
            survey.hwang_bound(2, 1.5)
        with pytest.raises(InvalidDimension):
            survey.hwang_bound(1, 1)


class TestMemoInventory:
    """Every memo of the package, found by walking the module namespaces."""

    PER_FIELD = (
        "quadfield.chi_table",
        "quadfield.reduced_forms",
        "quadfield._require_fundamental",
        "lattice.class_number",
        "bernoulli._power_state",
        "lvalues._kronecker_row",
    )

    @staticmethod
    def _memos():
        modules = (bernoulli, quadfield, lvalues, lattice, survey, serialize, cli)
        return {
            f"{mod.__name__.rpartition('.')[2]}.{name}": obj
            for mod in modules
            for name, obj in vars(mod).items()
            if hasattr(obj, "cache_info")
        }

    @staticmethod
    def _word_count():
        """The words in bernoulli's shared table, a memo with no cache_info."""
        return len(bernoulli._words[2])

    @staticmethod
    def _ln_sum_count():
        """The sums past S(0) in bernoulli's shared table of ln terms."""
        return len(bernoulli._ln_sums) - 1

    def test_clear_caches_empties_every_memo(self):
        survey.scan(10, 400)
        serialize.format_rational(lattice.nu(quadfield.from_squarefree_d(3), 100))
        survey.minimal_field(40)
        assert serialize._power_of_five.cache_info().currsize
        assert self._word_count() and self._ln_sum_count()
        covolume.clear_caches()
        held = {
            name: memo.cache_info().currsize
            for name, memo in self._memos().items()
            if name != "cli._parser"  # holds no computed value
        }
        held["bernoulli._words"] = self._word_count()
        held["bernoulli._ln_sums"] = self._ln_sum_count()
        assert len(held) > 1 and set(held.values()) == {0}, held

    @pytest.mark.parametrize(
        "run",
        [
            lambda: survey.scan(10, 400),
            lambda: lattice.nu(quadfield.from_squarefree_d(285285), 10),
        ],
        ids=["scan", "nu-285285"],
    )
    def test_word_table_keeps_its_bounds(self, run):
        # t <= _WORD_T and the slots of the odd j <= _WORD_J, whatever the
        # fields asked: |disc| 1141140 is far past _WORD_T
        covolume.clear_caches()
        run()
        slots, _, words = bernoulli._words
        assert 0 < len(words) <= bernoulli._WORD_T + 1
        assert 0 < slots <= (bernoulli._WORD_J + 1) // 2
        covolume.clear_caches()

    def test_per_field_memos_keep_the_field_asked_last(self):
        covolume.clear_caches()
        rows = survey.scan(10, 400)
        chi = quadfield.chi_table.cache_info()
        # class_number's read misses, the power sums' read is the one hit
        assert (chi.misses, chi.hits) == (len(rows), len(rows))
        lattice.cross_path_check()
        memos = self._memos()
        assert set(self.PER_FIELD) <= set(memos)
        for name in self.PER_FIELD:
            info = memos[name].cache_info()
            assert info.maxsize == 1 and info.currsize <= 1, (name, info)
