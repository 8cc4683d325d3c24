"""End-to-end acceptance gates for the package.

Each test prints exactly one "criterion N: PASS/FAIL" line and checks
one externally visible guarantee, with its stated tolerance and time
budget.  The growth-rate criterion is parametrized over three exponents:
dimension-to-dimension growth of the minimal covolume is eventually
much faster than e^n, but the even dimensions reach e^{alpha n} only
late.  The test derives that threshold from the functional equation
(43, 121 and 337 for alpha = 1, 2, 3) and checks the exact ratios on
both sides of it.
"""

import json
import math
import time
from fractions import Fraction

import pytest

import covolume
from covolume import bernoulli, cli, lattice, quadfield, serialize, survey

from . import oracles


HEADLINE_CHI = "-809/5746705367040"
HEADLINE_VOLUME = Fraction(809, 79550340408000)


def test_criterion_1_headline_pair_via_cli(capsys):
    covolume.clear_caches()
    t0 = time.perf_counter()
    code = cli.main(["nu", "--d", "3", "--n", "9", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    record = json.loads(out)
    chi_ok = record["chi"] == HEADLINE_CHI
    truth = float(HEADLINE_VOLUME) * math.pi**9
    vol_ok = abs(record["volume"] - truth) <= 1e-10
    line = (
        f"criterion 1: {'PASS' if code == 0 and chi_ok and vol_ok else 'FAIL'}"
        f" - chi = {record['chi']}, volume = {record['volume']!r}"
        f" (target 809 pi^9 / 79550340408000, tolerance 1e-10),"
        f" {elapsed:.3f}s"
    )
    print(line)
    assert code == 0, line
    assert chi_ok, line
    assert vol_ok, line
    assert elapsed < 1.0, line


def test_criterion_2_first_field_minimal_in_every_dimension():
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 31):
        mr = survey.minimal_field(n)
        if mr.field.d != 3:
            failures.append((n, mr.field.d))
            continue
        winner_nu = mr.result.nu_lower
        for candidate in mr.certificate.candidates:
            nu_lower = lattice.covolume_result(candidate.field, n).nu_lower
            if nu_lower < winner_nu:
                failures.append((n, candidate.field.d))
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures and elapsed < 60 else "FAIL"
    line = (
        f"criterion 2: {status} - Q(sqrt(-3)) is the certified minimum for"
        f" every 2 <= n <= 30, {elapsed:.2f}s (budget 60s)"
    )
    print(line)
    assert not failures, f"{line}; exceptions: {failures}"
    assert elapsed < 60.0, line


def test_criterion_3_global_minimum_in_dimension_nine():
    t0 = time.perf_counter()
    overall = survey.overall_minimum(30)
    elapsed = time.perf_counter() - t0
    checks = {
        "nu ranking": overall.n_star == 9,
        "volume ranking": overall.volume_n_star == 9,
        "winner field": overall.result.d == 3,
        "winner value": overall.result.nu == Fraction(809, 5746705367040),
        "growth certificate": overall.growth_threshold_n1 <= 15,
        "full range": len(overall.per_n) == 29,
    }
    status = "PASS" if all(checks.values()) and elapsed < 60 else "FAIL"
    line = (
        f"criterion 3: {status} - both rankings select n = 9"
        f" (growth ratio > 1 for every n >= {overall.growth_threshold_n1}),"
        f" {elapsed:.2f}s (budget 60s)"
    )
    print(line)
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"{line}; failed: {failed}"
    assert elapsed < 60.0, line


def test_criterion_4_exact_and_adelic_routes_agree():
    t0 = time.perf_counter()
    rows = lattice.cross_path_check(tol=1e-9)
    elapsed = time.perf_counter() - t0
    bad = [row for row in rows if not row.ok]
    worst = max(row.rel_diff for row in rows)
    status = "PASS" if not bad and len(rows) == 285 and elapsed < 120 else "FAIL"
    line = (
        f"criterion 4: {status} - {len(rows)} pairs (|disc| <= 100, one"
        f" ramified prime, 2 <= n <= 20), worst relative difference"
        f" {worst:.3g} against tolerance 1e-9, {elapsed:.2f}s (budget 120s)"
    )
    print(line)
    assert len(rows) == 285, line
    assert not bad, f"{line}; failing pairs: {[(r.field.d, r.n) for r in bad]}"
    assert elapsed < 120.0, line


def test_criterion_5_multiplicity_bounds_smallest_field():
    f3 = quadfield.from_squarefree_d(3)
    failures = []
    for n in range(2, 41):
        got = lattice.multiplicity_bounds(f3, n)
        if n % 2 == 0:
            expected = (2, 2)
        elif (n + 1) % 8 == 0:
            expected = (1, 2)
        else:
            expected = (1, 1)
        if got != expected:
            failures.append((n, got, expected))
    status = "PASS" if not failures else "FAIL"
    line = (
        f"criterion 5: {status} - multiplicity is (2,2) at even n, (1,1) at"
        f" odd n with 8 not dividing n+1, (1,2) at n = 7 mod 8, for n <= 40"
    )
    print(line)
    assert not failures, f"{line}; exceptions: {failures}"


def _ln_q_bounds(n):
    """Lower and upper bounds on ln q(n) over Q(sqrt(-3)), without survey.

    The functional equations give q(n) = nu(n+1)/nu(n) in closed form:

      even n:  2 (n+2)/(n+1) (n+1)!/(2 pi)^(n+2) zeta(n+2) T
      odd n:  1/2 (n+2)/(n+1) (n+1)!/(2 pi)^(n+2) 3^(n+3/2) L(n+2) T

    with T = 1, as Q(sqrt(-3)) has class number 1.  For s = n+2 >= 4,
    1 < zeta(s) < 1 + 2^(1-s) (compare the tail with the integral of
    x^-s from 2), and 1 - 2^-s < L(s, chi_-3) < 1 (the alternating terms
    pair off with one sign either way).
    """
    ln = (
        math.log((n + 2) / (n + 1))
        + math.lgamma(n + 2)
        - (n + 2) * math.log(2 * math.pi)
    )
    if n % 2 == 0:
        ln += math.log(2)
        return ln, ln + math.log1p(2.0 ** -(n + 1))
    ln += (n + 1.5) * math.log(3) - math.log(2)
    return ln + math.log1p(-(2.0 ** -(n + 2))), ln


# dimensions past the threshold checked against the exact ratio; more
# than one, so that both parities are covered
GROWTH_WINDOW = 11


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_criterion_6_growth_beats_exponential(alpha):
    t0 = time.perf_counter()
    f3 = quadfield.from_squarefree_d(3)
    closed_form_bad = []
    for n in range(2, 31):
        report = survey.growth_ratio(f3, n)
        if report.closed_form_rel_err is None or (
            report.closed_form_rel_err > 1e-6
        ):
            closed_form_bad.append(n)
    assert not closed_form_bad, (
        f"criterion 6 (alpha={alpha}): FAIL - closed-form ratio deviates"
        f" beyond 1e-6 at n in {closed_form_bad}"
    )

    # N_alpha: one past the last dimension whose lower bound stays at or
    # below alpha n.  Per parity the bound gains about
    # ln((n+2)(n+3)/(2 pi)^2) per step of two, which grows with n, so
    # no dimension past the scan can fall below again.
    n_alpha = 1 + max(
        n for n in range(2, 1000) if _ln_q_bounds(n)[0] <= alpha * n
    )
    below = n_alpha - 1
    # an even dimension, where the zeta bounds pin q from both sides, so
    # the exact crossover must fall exactly at N_alpha
    assert below % 2 == 0 and _ln_q_bounds(below)[1] < alpha * below, (
        f"criterion 6 (alpha={alpha}): FAIL - the bounds do not pin the"
        f" crossover at n = {n_alpha}"
    )

    def ln_q(n):
        q = survey.growth_ratio(f3, n).q
        return math.log(q.numerator) - math.log(q.denominator)

    window = range(n_alpha, n_alpha + GROWTH_WINDOW + 1)
    short = [n for n in window if ln_q(n) <= alpha * n]
    margin = ln_q(below) - alpha * below
    elapsed = time.perf_counter() - t0
    status = "PASS" if not short and margin < 0 else "FAIL"
    line = (
        f"criterion 6 (alpha={alpha}): {status} - q(n) > e^({alpha}n) for"
        f" every {window.start} <= n <= {window.stop - 1}, with"
        f" ln q({below}) - {alpha}*{below} = {margin:.3f} just below,"
        f" crossover derived from the functional equation; the closed form"
        f" matches the exact ratio to 1e-6 for 2 <= n <= 30, {elapsed:.2f}s"
    )
    print(line)
    assert not short, f"{line}; short of e^({alpha}n) at n in {short}"
    assert margin < 0, line


def test_criterion_7_scan_multiplicity_floor(capsys):
    t0 = time.perf_counter()
    code = cli.main(["scan", "--n", "2", "--max-disc", "1000", "--format", "csv"])
    elapsed = time.perf_counter() - t0
    lines = capsys.readouterr().out.splitlines()
    rows = [serialize.row_from_csv(tuple(line.split(","))) for line in lines[1:]]
    bad = [
        row.d
        for row in rows
        if row.multiplicity is None or row.multiplicity[0] != 2**row.r
    ]
    high_r = [row for row in rows if row.r >= 3]
    status = (
        "PASS" if code == 0 and not bad and high_r and len(rows) > 200 else "FAIL"
    )
    line = (
        f"criterion 7: {status} - {len(rows)} rows at n = 2 up to"
        f" |disc| = 1000; every multiplicity lower bound equals 2^r and"
        f" {len(high_r)} rows have r >= 3, {elapsed:.2f}s"
    )
    print(line)
    assert code == 0, line
    assert not bad, f"{line}; offending d: {bad[:10]}"
    assert high_r, line


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    problems = []

    # denominator structure of the even Bernoulli numbers
    for k in range(2, 81, 2):
        expected = oracles.von_staudt_clausen_denominator(k)
        if bernoulli.bernoulli_number(k).denominator != expected:
            problems.append(f"denominator of B_{k}")

    # twisted Bernoulli values vanish at even index (odd character)
    for field in quadfield.fields_with_disc_at_most(100):
        for k in range(2, 41, 2):
            if bernoulli.generalized_bernoulli(k, field.disc_signed) != 0:
                problems.append(f"B_({k}, chi) for d = {field.d}")

    # exhaustive group axioms for every class group with |disc| <= 500
    for field in quadfield.fields_with_disc_at_most(500):
        group = quadfield.reduced_forms(field)
        classes = group.classes
        e = group.principal
        table = {
            (x, y): quadfield.compose(x, y, group)
            for x in classes
            for y in classes
        }
        universe = set(classes)
        ok = all(v in universe for v in table.values())
        ok = ok and all(table[(e, x)] == x for x in classes)
        ok = ok and all(
            table[(x, oracles.inverse_class(x))] == e for x in classes
        )
        ok = ok and all(
            table[(table[(x, y)], z)] == table[(x, table[(y, z)])]
            for x in classes
            for y in classes
            for z in classes
        )
        if not ok:
            problems.append(f"group axioms for d = {field.d}")

    # positivity of the covolume across the whole survey grid
    for field in quadfield.fields_with_disc_at_most(200):
        for n in range(2, 41):
            if lattice._lower(lattice.nu(field, n)) <= 0:
                problems.append(f"nu sign at (d = {field.d}, n = {n})")

    # cusped-volume bound: strict decay in n, exact linearity in k
    values = [survey.hwang_bound(n, 1).value for n in range(2, 41)]
    if not all(a > b for a, b in zip(values, values[1:])):
        problems.append("volume bound fails to decay")
    for n in (2, 7, 20):
        one = survey.hwang_bound(n, 1).value
        if any(survey.hwang_bound(n, k).value != k * one for k in (2, 5, 640)):
            problems.append(f"volume bound not linear in k at n = {n}")

    elapsed = time.perf_counter() - t0
    status = "PASS" if not problems and elapsed < 300 else "FAIL"
    line = (
        f"criterion 8: {status} - denominator structure (k <= 80), character"
        f" parity (k <= 40), exhaustive group axioms (|disc| <= 500),"
        f" covolume positivity (|disc| <= 200, n <= 40), and volume-bound"
        f" decay/linearity, {elapsed:.1f}s (budget 300s)"
    )
    print(line)
    assert not problems, f"{line}; problems: {problems[:5]}"
    assert elapsed < 300.0, line
