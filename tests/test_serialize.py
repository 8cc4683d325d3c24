"""Codec round-trips for covolume records and growth reports.

Two distinct guarantees are exercised: serialized text parses back to
an equal row, and re-serializing parsed text reproduces the original
bytes.  Floats are only fixed points of the second guarantee when they
carry at most 12 significant digits, so the strategies normalize
through one format/parse pass first.
"""

import contextlib
import copy
import dataclasses
import json
import math
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import covolume
from covolume import quadfield, serialize
from covolume.lattice import CovolumeResult, EpsilonStatus, Interval


def _norm(x: float) -> float:
    return float(f"{x:.12g}")


_positive_floats = st.floats(
    min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
).map(_norm)

_fractions = st.builds(
    Fraction,
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=1, max_value=10**12),
)


def _intervals(base):
    return st.tuples(base, base).map(
        lambda pair: Interval(min(pair), max(pair))
    )


_values = st.one_of(_fractions, _intervals(_fractions))

# past _LEAF_BITS, so the divide-and-conquer path runs, and under the
# default int/str digit limit (4300 digits), so str() stays an oracle
_big_fractions = st.builds(
    Fraction,
    st.integers(min_value=-(2**12000), max_value=2**12000),
    st.integers(min_value=1, max_value=2**9000),
)

_volumes = st.one_of(
    _positive_floats,
    st.tuples(_positive_floats, _positive_floats).map(
        lambda pair: (min(pair), max(pair))
    ),
)

_epsilons = st.one_of(
    st.just(EpsilonStatus("irrelevant", 1, 1)),
    st.integers(min_value=2, max_value=64).map(
        lambda k: EpsilonStatus("exact", k, k)
    ),
    st.tuples(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=2, max_value=8),
    ).map(
        lambda pair: EpsilonStatus(
            "bounded", min(pair), max(pair)
        )
    ),
)

_multiplicities = st.one_of(
    st.none(),
    st.tuples(
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=1, max_value=1000),
    ).map(lambda pair: (min(pair), max(pair))),
)

def _agreeing(row):
    """row with disc and r those of Q(sqrt(-d)) and chi = (-1)^n nu, as in
    every row the writer gets; the readers refuse any other."""
    field = quadfield.from_squarefree_d(row.d)
    if row.n % 2 == 0:
        chi = row.nu
    elif isinstance(row.nu, Interval):
        chi = Interval(-row.nu.upper, -row.nu.lower)
    else:
        chi = -row.nu
    return dataclasses.replace(row, disc=field.disc_abs, r=field.r, chi=chi)


_rows = st.builds(
    CovolumeResult,
    d=st.integers(min_value=1, max_value=10**6).filter(quadfield.is_squarefree),
    disc=st.integers(min_value=3, max_value=4 * 10**6),
    n=st.integers(min_value=2, max_value=200),
    nu=_values,
    chi=_values,
    volume=_volumes,
    h=st.integers(min_value=1, max_value=10**6),
    h_torsion=st.integers(min_value=1, max_value=10**6),
    r=st.integers(min_value=1, max_value=10),
    epsilon=_epsilons,
    multiplicity=_multiplicities,
).map(_agreeing)


# a row with every cell filled, for the codecs of single cells
_ROW = CovolumeResult(
    d=5,
    disc=20,
    n=3,
    nu=Fraction(1, 72),
    chi=Fraction(-1, 72),
    volume=0.5,
    h=2,
    h_torsion=1,
    r=2,
    epsilon=EpsilonStatus("bounded", 2, 4),
    multiplicity=(1, 2),
)


def _cell_of(key, **fields):
    """The cell under key of _ROW with fields replaced, as CSV prints it."""
    record = serialize.row_to_record(dataclasses.replace(_ROW, **fields))
    return serialize.cells(record)[serialize.ROW_HEADER.index(key)]


def _row_with_cell(key, cell, **more):
    """row_from_csv of _ROW's cells with the cell under key, and the cells
    under more's keys, replaced."""
    values = list(serialize.row_to_csv(_ROW))
    for k, c in {key: cell, **more}.items():
        values[serialize.ROW_HEADER.index(k)] = c
    return serialize.row_from_csv(tuple(values))


@contextlib.contextmanager
def _digit_limit(limit):
    """Set the int/str digit limit (Python >= 3.10.7; 0 lifts it)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _no_digit_limit():
    """Lift the int/str digit limit for a str() oracle."""
    return _digit_limit(0)


def _magnitudes_of(*values):
    """The integers a formatter prints for Fractions and Intervals: every
    |numerator|, and every denominator other than 1."""
    out = []
    for v in values:
        for x in (v.lower, v.upper) if isinstance(v, Interval) else (v,):
            out.append(abs(x.numerator))
            if x.denominator != 1:
                out.append(x.denominator)
    return out


class TestScalarCodecs:
    def test_float_format(self):
        assert serialize.format_float(0.365540903744) == "0.365540903744"
        assert serialize.format_float(1.0) == "1"

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_float_format_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            serialize.format_float(bad)

    @given(x=_positive_floats)
    def test_float_reprint_identity(self, x):
        text = serialize.format_float(x)
        assert float(text) == x
        assert serialize.format_float(float(text)) == text

    def test_rational_round_trip(self):
        x = Fraction(-809, 5746705367040)
        assert serialize.format_rational(x) == "-809/5746705367040"
        assert serialize.parse_rational("-809/5746705367040") == x

    def test_value_codec(self):
        interval = Interval(Fraction(1, 96), Fraction(1, 48))
        assert _cell_of("nu", nu=interval) == "1/96..1/48"
        # the writer marks a row with an interval nu inexact, and its chi at
        # n = 3 is the negated interval
        row = _row_with_cell("nu", "1/96..1/48", chi="-1/48..-1/96", exact="false")
        assert row.nu == interval
        assert _row_with_cell("nu", "1/72").nu == Fraction(1, 72)

    def test_volume_codec(self):
        assert _cell_of("volume", volume=0.5) == "0.5"
        assert _row_with_cell("volume", "0.25..0.5").volume == (0.25, 0.5)
        assert _cell_of("volume", volume=math.inf) == "inf"
        assert _row_with_cell("volume", "inf").volume == math.inf
        assert _cell_of("volume", volume=(1.5, math.inf)) == "1.5..inf"

    @pytest.mark.parametrize(
        "bad",
        ["NaN", "-Infinity", "Infinity", "1e999",
         '"nan"', '"-inf"', '"Infinity"', '"1e999"', '"INF"', '" inf"'],
    )
    def test_rejects_volumes_never_written(self, bad):
        # the writer emits a finite number or exactly "inf"; json.loads
        # reads the bare NaN, -Infinity and 1e999 as non-finite floats
        from covolume import lattice, quadfield

        row = lattice.covolume_result(quadfield.from_squarefree_d(3), 9)
        record = serialize.row_to_record(row)
        assert serialize.row_from_record(dict(record, volume=1)).volume == 1.0
        obj = json.loads(bad)
        for volume in (obj, {"lower": 1.5, "upper": obj}):
            with pytest.raises(ValueError):
                serialize.row_from_record(dict(record, volume=volume))
        for cell in (bad.strip('"'), "1.5.." + bad.strip('"')):
            with pytest.raises(ValueError):
                _row_with_cell("volume", cell)

    def test_epsilon_codec(self):
        assert serialize.format_epsilon(EpsilonStatus("irrelevant", 1, 1)) == (
            "irrelevant"
        )
        assert serialize.format_epsilon(EpsilonStatus("exact", 2, 2)) == "2"
        assert serialize.format_epsilon(EpsilonStatus("bounded", 2, 8)) == (
            "2..8"
        )
        for text in ("irrelevant", "2", "2..8"):
            assert serialize.format_epsilon(serialize.parse_epsilon(text)) == (
                text
            )

    @pytest.mark.parametrize(
        "bad", ["02", " 2", "+2", "2..04", "1", "1..1", "4..2", "2..", "", "exact"]
    )
    def test_parse_epsilon_takes_only_format_epsilon_text(self, bad):
        with pytest.raises(ValueError):
            serialize.parse_epsilon(bad)

    def test_csv_join_rejects_fields_needing_quotes(self):
        assert serialize.csv_join(("a", "b")) == "a,b"
        for bad in ("a,b", 'say "hi"', "line\nbreak"):
            with pytest.raises(ValueError):
                serialize.csv_join(("ok", bad))


LEAF = serialize._LEAF_BITS
_EDGE_CASES = sorted(
    {0, 1, 2, 9, 10, 11}
    | {10**k + e for k in (616, 617, 618, 1233, 1234, 5000) for e in (-1, 0, 1)}
    | {
        2**k + e
        for k in (LEAF - 1, LEAF, LEAF + 1, 2 * LEAF, 2 * LEAF + 1, 3 * LEAF + 7)
        for e in (-1, 0, 1)
    }
)


class TestDecimalDigits:
    """The divide-and-conquer conversion against str()."""

    @pytest.mark.parametrize("n", _EDGE_CASES, ids=lambda n: f"{n.bit_length()}b")
    def test_edge_cases_match_str(self, n):
        with _no_digit_limit():
            expected = str(n)
        assert serialize._digits(n) == expected
        for den in (1, 7, n + 1):
            for num in (n, -n):
                x = Fraction(num, den)
                with _no_digit_limit():
                    expected = str(x)
                assert serialize.format_rational(x) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_random_integers_match_str(self, seed):
        rng = random.Random(seed)
        for _ in range(12):
            bits = int(2 ** rng.uniform(6, 18))
            n = rng.getrandbits(bits)
            with _no_digit_limit():
                expected = str(n)
            assert serialize._digits(n) == expected
            d = rng.getrandbits(bits // 2) + 1
            x = Fraction(-n, d)
            with _no_digit_limit():
                expected = str(x)
            assert serialize.format_rational(x) == expected

    def test_two_million_bits_matches_str(self):
        n = random.Random(2).getrandbits(2_000_000) | 1 << 1_999_999
        with _no_digit_limit():
            expected = str(n)
        assert serialize._digits(n) == expected

    def test_past_a_million_digits(self):
        # past a million digits, where str() is quadratic before Python 3.12
        # and only exact 10^k residues and one prime residue are cheap
        # enough to check
        n = random.Random(3).getrandbits(3_500_000) | 1 << 3_499_999
        text = serialize._digits(n)
        assert len(text) == 1_053_605 and text[0] != "0"
        assert int(text[-600:]) == n % 10**600
        p = 2**61 - 1
        residue = 0
        for i in range(0, len(text), 600):
            chunk = text[i : i + 600]
            residue = (residue * pow(10, len(chunk), p) + int(chunk)) % p
        assert residue == n % p

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this Python has no int/str digit limit",
    )
    def test_independent_of_the_digit_limit(self):
        values = [
            Fraction(10**640),  # 641 digits
            Fraction(2**4096 - 1, 2**3000 + 1),
            Fraction(-(7**5000), 7**5000 + 2),  # 4226 digits over 4226
        ]
        with _no_digit_limit():
            expected = [str(x) for x in values]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the lowest limit Python allows
        try:
            assert [serialize.format_rational(x) for x in values] == expected
        finally:
            sys.set_int_max_str_digits(limit)


def _int_split_cases():
    """Magnitudes at the edges of the split's fixed levels, and random ones."""
    rng = random.Random(19)
    levels = [serialize._LEAF_DIGITS << k for k in range(8)]
    values = [10**h + e for h in levels for e in (-1, 0, 1)]
    # all-zero low parts: the padded digits of lo are all zeros
    values += [rng.getrandbits(b) * 10**h for b in (7, 2000, 9000) for h in levels[:6]]
    values += [
        rng.getrandbits(b) | 1 << (b - 1)
        for b in (2049, 4097, 40_000, 131_000, 262_144)
    ]
    return values


class TestIntDigits:
    """The fixed-level splits of _digits and _int_of_digits, and _divmod,
    against the builtins they replace."""

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this Python has no int/str digit limit",
    )
    def test_matches_str_under_lowest_limit(self):
        values = _int_split_cases()
        with _no_digit_limit():
            expected = [str(v) for v in values]
        covolume.clear_caches()
        with _digit_limit(640):  # the lowest limit Python allows
            assert [serialize._digits(v) for v in values] == expected
            assert [serialize._int_of_digits(t) for t in expected] == values

    def test_divmod_matches_builtin(self):
        rng = random.Random(23)
        cut = serialize._DIV_LIMIT
        pairs = []
        for n in (1, 64, 3000, 5000, 9001):
            b = rng.getrandbits(n) | 1 << (n - 1)
            # quotients just below, at and past the cut, and of 3+ limbs
            for q_bits in (cut - 1, cut, cut + 1, cut + 2, 3 * n + 5, 4 * n):
                pairs.append((rng.getrandbits(n + q_bits), b))
            pairs += [(b - 1, b), (0, b), ((b << 3 * n) - 1, b), (b << 2 * n, b)]
        for level in range(4):
            five = serialize._power_of_five(level)
            n = five.bit_length()
            pairs += [(rng.getrandbits(k), five) for k in (n - 1, n + cut + 1, 4 * n)]
        for a, b in pairs:
            assert serialize._divmod(a, b) == divmod(a, b), (a.bit_length(), b.bit_length())


# sizes in bits from one leaf past _LEAF_BITS to 10^6, interleaved so that
# each conversion meets powers that another size built
_SHARED_SIZES = (2049, 1_000_000, 4096, 70_001, 2050, 300_000, 16_385, 8191, 131_073)


@pytest.fixture(scope="module")
def shared_cases():
    rng = random.Random(17)
    values = [rng.getrandbits(b) | 1 << (b - 1) for b in _SHARED_SIZES]
    values += [(1 << b) - 1 for b in _SHARED_SIZES[::2]]
    with _no_digit_limit():
        return values, [str(v) for v in values]


class TestSharedPowers:
    """_digits against str() while it shares one table of powers of five."""

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this Python has no int/str digit limit",
    )
    def test_interleaved_sizes_under_lowest_limit(self, shared_cases):
        values, expected = shared_cases
        covolume.clear_caches()
        with _digit_limit(640):  # the lowest limit Python allows
            assert [serialize._digits(v) for v in values] == expected

    def test_two_threads_across_clear_caches(self, shared_cases):
        # one of every five calls empties the table, mid-conversion of the
        # other thread's value too
        values, expected = shared_cases
        order = list(range(len(values))) * 2
        random.Random(5).shuffle(order)

        def worker(pos):
            if pos % 5 == 0:
                covolume.clear_caches()
            return serialize._digits(values[order[pos]])

        covolume.clear_caches()
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(worker, range(len(order)), timeout=120))
        assert got == [expected[i] for i in order]


class TestParseRational:
    """Text to rational, by divide and conquer, against Fraction(text)."""

    @given(x=_big_fractions)
    def test_round_trip_matches_fraction(self, x):
        text = serialize.format_rational(x)
        assert serialize.parse_rational(text) == x
        with _no_digit_limit():
            assert serialize.parse_rational(text) == Fraction(text)

    @pytest.mark.parametrize(
        "width", [1, 599, 600, 601, 640, 641, 700, 1199, 1200, 1201, 5001]
    )
    def test_digit_strings_around_the_leaf(self, width):
        rng = random.Random(width)
        text = "".join(rng.choice("0123456789") for _ in range(width))
        for s in (text, "0" * 700 + text, "-" + text + "/7" + text):
            with _no_digit_limit():
                expected = Fraction(s)
            with _digit_limit(640):  # the lowest limit Python allows
                assert serialize.parse_rational(s) == expected

    def test_unreduced_input_normalizes(self):
        assert serialize.parse_rational("-6/4") == Fraction(-3, 2)
        assert serialize.parse_rational("-0") == 0

    @pytest.mark.parametrize(
        "bad",
        ["1.5", "1/", "/2", "1_0", " 1", "1 ", "", "-", "+1", "--1", "1/-2",
         "1e3", "1/2/3", "\u0661", "1\n", "1/0", "-1/0", "0/0"],
    )
    def test_rejects_malformed_text(self, bad):
        with pytest.raises(ValueError):
            serialize.parse_rational(bad)
        with pytest.raises(ValueError):
            _row_with_cell("nu", bad)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this Python has no int/str digit limit",
    )
    @pytest.mark.parametrize("limit", [640, 4300])  # the lowest, the default
    def test_deep_record_round_trips_under_digit_limit(self, limit):
        from covolume import lattice, quadfield

        row = lattice.covolume_result(quadfield.from_squarefree_d(3), 300)
        assert row.nu.numerator > 10**50_000
        with _digit_limit(limit):
            line = serialize.dumps(serialize.row_to_record(row))
            assert serialize.row_from_record(json.loads(line)) == row
            values = serialize.row_to_csv(row)
            assert serialize.row_from_csv(values) == row


def _conversions(convert, row):
    """The integers that convert(row) passes to serialize._digits, sorted."""
    calls = []
    real = serialize._digits

    def counting(n):
        calls.append(n)
        return real(n)

    serialize._digits = counting
    try:
        convert(row)
    finally:
        serialize._digits = real
    return sorted(calls)


class TestEachMagnitudeOnce:
    """A record converts each distinct magnitude once, whatever its source."""

    CONVERTERS = (serialize.row_to_record, serialize.row_to_csv)

    @pytest.mark.parametrize("d, n", [(3, 9), (3, 300), (15, 5)])
    def test_nu_record(self, d, n):
        from covolume import lattice, quadfield

        row = lattice.covolume_result(quadfield.from_squarefree_d(d), n)
        expected = sorted(set(_magnitudes_of(row.nu, row.chi)))
        for convert in self.CONVERTERS:
            assert _conversions(convert, row) == expected

    def test_shares_only_equal_integers(self):
        row = CovolumeResult(
            d=3,
            disc=3,
            n=3,
            nu=Interval(Fraction(2, 9), Fraction(4, 9)),
            chi=Interval(Fraction(-5, 2), Fraction(-2, 9)),
            volume=1.0,
            h=1,
            h_torsion=1,
            r=1,
            epsilon=EpsilonStatus("bounded", 2, 4),
            multiplicity=None,
        )
        assert _conversions(serialize.row_to_record, row) == [2, 4, 5, 9]
        record = serialize.row_to_record(row)
        assert record["chi"] == {"lower": "-5/2", "upper": "-2/9"}

    @given(
        row=_rows,
        nu=st.one_of(_values, _intervals(_big_fractions)),
        relation=st.sampled_from(["unrelated", "negated", "equal"]),
    )
    def test_each_distinct_magnitude_once(self, row, nu, relation):
        if relation == "unrelated":
            row = dataclasses.replace(row, nu=nu)
        elif relation == "equal":
            row = dataclasses.replace(row, nu=nu, chi=nu)
        else:  # chi = -nu, as for odd n; an interval's endpoints swap
            chi = Interval(-nu.upper, -nu.lower) if isinstance(nu, Interval) else -nu
            row = dataclasses.replace(row, nu=nu, chi=chi)
        expected = sorted(set(_magnitudes_of(row.nu, row.chi)))
        for convert in self.CONVERTERS:
            assert _conversions(convert, row) == expected
        values = serialize.row_to_csv(row)
        with _no_digit_limit():
            expected_cells = tuple(
                f"{v.lower}..{v.upper}" if isinstance(v, Interval) else str(v)
                for v in (row.nu, row.chi)
            )
        assert values[3:5] == expected_cells


class TestJsonWriter:
    def test_stable_formatting(self):
        text = serialize.dumps(
            {"nu": Fraction(1, 72), "vol": 0.25, "tags": [1, None, True]}
        )
        assert text == '{"nu": "1/72", "vol": 0.25, "tags": [1, null, true]}'

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            serialize.dumps({"x": object()})

    @given(row=_rows)
    def test_reparse_reprint_is_identity(self, row):
        line = serialize.dumps(serialize.row_to_record(row))
        assert serialize.dumps(json.loads(line)) == line


class TestRowCodecs:
    @given(row=_rows)
    def test_csv_round_trip(self, row):
        values = serialize.row_to_csv(row)
        assert len(values) == len(serialize.ROW_HEADER)
        assert serialize.row_from_csv(values) == row
        # and the string level is a fixed point too
        assert serialize.row_to_csv(serialize.row_from_csv(values)) == values

    @given(row=_rows)
    def test_json_round_trip(self, row):
        record = serialize.row_to_record(row)
        assert serialize.row_from_record(record) == row
        reparsed = json.loads(serialize.dumps(record))
        assert serialize.row_from_record(reparsed) == row

    def test_exact_flag_tracks_nu(self):
        from covolume import lattice, quadfield

        f5 = quadfield.from_squarefree_d(5)
        row = lattice.covolume_result(f5, 3)
        assert not row.exact
        assert serialize.row_to_csv(row)[-1] == "false"
        assert serialize.row_to_record(row)["exact"] is False

    def test_rationals_travel_as_strings(self):
        from covolume import lattice, quadfield

        f3 = quadfield.from_squarefree_d(3)
        row = lattice.covolume_result(f3, 9)
        record = json.loads(serialize.dumps(serialize.row_to_record(row)))
        assert record["nu"] == "809/5746705367040"
        assert record["chi"] == "-809/5746705367040"
        assert isinstance(record["volume"], float)

    def test_infinite_volume_serialization(self):
        from covolume import lattice, quadfield

        f6 = quadfield.from_squarefree_d(6)
        row = lattice.covolume_result(f6, 30)
        csv_fields = serialize.row_to_csv(row)
        assert csv_fields[5] == "inf"
        assert serialize.row_from_csv(csv_fields) == row
        record = json.loads(serialize.dumps(serialize.row_to_record(row)))
        assert record["volume"] == "inf"
        assert serialize.row_from_record(record) == row
        # odd n widens nu to an interval, so both endpoints saturate
        pair_row = lattice.covolume_result(f6, 31)
        pair_fields = serialize.row_to_csv(pair_row)
        assert pair_fields[5] == "inf..inf"
        assert serialize.row_from_csv(pair_fields) == pair_row
        pair_record = json.loads(
            serialize.dumps(serialize.row_to_record(pair_row))
        )
        assert pair_record["volume"] == {"lower": "inf", "upper": "inf"}
        assert serialize.row_from_record(pair_record) == pair_row

    def test_rejects_wrong_field_count(self):
        with pytest.raises(ValueError):
            serialize.row_from_csv(("1", "2", "3"))

    @pytest.mark.parametrize("cell", [5, None, 2.0, b"5", ("5",)], ids=repr)
    def test_rejects_a_cell_that_is_not_a_string(self, cell):
        for i in range(len(serialize.ROW_HEADER)):
            values = list(serialize.row_to_csv(_ROW))
            values[i] = cell
            with pytest.raises(ValueError):
                serialize.row_from_csv(tuple(values))

    @given(row=_rows)
    def test_record_keys_are_the_header(self, row):
        assert tuple(serialize.row_to_record(row)) == serialize.ROW_HEADER


class TestRowParsersRefuse:
    """row_from_record and row_from_csv refuse what row_to_record never writes."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", 9.9),
            ("n", 3.0),
            ("h", True),
            ("disc", " 20 "),
            ("d", "+5"),
            ("d", "\u0665"),
            ("r", None),
            ("epsilon", {"kind": "weird", "lower": 2, "upper": 4}),
            ("epsilon", {"kind": "bounded", "lower": 2.5, "upper": 4}),
            ("epsilon", {"kind": "bounded", "lower": 4, "upper": 2}),
            ("epsilon", {"kind": "exact", "lower": 0, "upper": 0}),
            ("epsilon", {"kind": "exact", "lower": 2, "upper": 4}),
            ("epsilon", {"kind": "irrelevant", "lower": 2, "upper": 2}),
            ("mult_hi", None),
            ("mult_hi", 2.0),
            ("nu", 5),
            ("nu", {"lower": "1/2"}),
            ("epsilon", "2"),
            ("epsilon", {"kind": "exact", "lower": 2}),
            # a volume is a finite JSON number, never a bool, or exactly "inf"
            ("volume", True),
            ("volume", None),
            ("volume", "0.5"),
            ("volume", " 1.5 "),
            pytest.param("volume", 2**1024, id="'volume'-2**1024"),
            ("volume", {"lower": 0.5}),
            ("volume", {"lower": 0.5, "upper": False}),
            ("volume", {"lower": 0.5, "upper": "1"}),
        ],
        ids=repr,
    )
    def test_record(self, key, value):
        record = serialize.row_to_record(_ROW)
        assert serialize.row_from_record(record) == _ROW
        with pytest.raises(ValueError):
            serialize.row_from_record(dict(record, **{key: value}))

    def test_record_with_half_a_multiplicity(self):
        record = dict(serialize.row_to_record(_ROW), mult_lo=None)
        with pytest.raises(ValueError):
            serialize.row_from_record(record)

    @pytest.mark.parametrize("key", ["h", "mult_lo", "volume"])
    def test_record_with_a_missing_key(self, key):
        record = serialize.row_to_record(_ROW)
        del record[key]
        with pytest.raises(ValueError):
            serialize.row_from_record(record)

    @pytest.mark.parametrize("obj", [None, [], "record"], ids=repr)
    def test_record_that_is_not_an_object(self, obj):
        with pytest.raises(ValueError):
            serialize.row_from_record(obj)

    @pytest.mark.parametrize(
        "key, cell",
        [
            ("n", "9.9"),
            ("disc", " 20 "),
            ("d", "+5"),
            ("d", "5_0"),
            ("d", "\u0665"),
            ("h", ""),
            ("epsilon", "0"),
            ("epsilon", "1"),
            ("epsilon", " 2"),
            ("epsilon", "4..2"),
            ("epsilon", "2..4..8"),
            ("epsilon", "weird"),
            ("mult_hi", ""),
            ("nu", ""),
            ("volume", ""),
            ("volume", " 0.5"),
            ("volume", "0_5"),
            ("volume", "0.5.. 1"),
        ],
        ids=repr,
    )
    def test_csv(self, key, cell):
        assert _row_with_cell(key, serialize.row_to_csv(_ROW)[
            serialize.ROW_HEADER.index(key)
        ]) == _ROW
        with pytest.raises(ValueError):
            _row_with_cell(key, cell)


def _written_record(d, n):
    """The JSON record that the CLI prints for nu --d d --n n, as read."""
    from covolume import lattice, quadfield

    row = lattice.covolume_result(quadfield.from_squarefree_d(d), n)
    return json.loads(serialize.dumps(serialize.row_to_record(row)))


# JSON values that come near what the writer writes, or break a reader
_NEAR_JSON = st.sampled_from(
    [
        "inf", "-inf", "nan", "Infinity", "1e999", "0.5", "1/2", "2/4", "-0",
        "0", "9", "05", " 5", "+5", "\u0665", "irrelevant", "exact", "bounded",
        2**1024, -(2**1024), 1e308, -1.0, 0.0, 3.0, True, False, None,
        {"lower": "1/2", "upper": "1/3"}, {"lower": 0.5, "upper": "inf"},
        {"kind": "exact", "lower": 2, "upper": 2},
        {"kind": "bounded", "lower": 2, "upper": 4},
    ]
)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | _NEAR_JSON,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

# CSV cells that come near what the writer writes, or break a reader
_NEAR_CELLS = st.sampled_from(
    [
        "", "inf", "-inf", "nan", "1e999", "5.0", "0.5", " 0.5", "1/2", "2/4",
        "01/96", "-0", "0", "05", " 5", "+5", "5_0", "\u0665", "9" * 700,
        "1..2", "2..4", "2..2", "4..2", "0.5..inf", "1/96..1/48",
        "irrelevant", "true", "false",
    ]
)


class TestWrittenFormOnly:
    """A reader returns a row only if the writer writes that row back to the
    very text it read: every form below is one the writer never writes."""

    NU9 = _written_record(3, 9)
    NU5_3 = _written_record(5, 3)

    @pytest.mark.parametrize(
        "change",
        [
            lambda r: dict(r, note=1),
            lambda r: dict(reversed(list(r.items()))),
            lambda r: dict(r, exact=False),
            lambda r: dict(r, exact="yes"),
            lambda r: {k: v for k, v in r.items() if k != "exact"},
            lambda r: dict(r, n="9"),
            lambda r: dict(r, nu="1618/11493410734080"),
            lambda r: dict(r, nu="0809/5746705367040"),
            lambda r: dict(r, nu="-0"),
            lambda r: dict(r, epsilon=dict(r["epsilon"], note=1)),
        ],
        ids=[
            "extra key", "key order", "exact flipped", "exact yes",
            "exact missing", "n as text", "nu unreduced", "nu leading zero",
            "nu minus zero", "extra key in epsilon",
        ],
    )
    def test_record(self, change):
        assert serialize.row_from_record(self.NU9)
        with pytest.raises(ValueError):
            serialize.row_from_record(change(self.NU9))

    def test_record_with_an_extra_key_in_an_interval(self):
        record = self.NU5_3
        assert serialize.row_from_record(record)
        for key in ("nu", "chi", "volume"):
            with pytest.raises(ValueError):
                serialize.row_from_record({**record, key: dict(record[key], x=1)})

    @pytest.mark.parametrize(
        "key, cell",
        [
            ("exact", "true"),
            ("exact", "banana"),
            ("exact", ""),
            ("nu", "2/192..1/48"),
            ("nu", "01/96..1/48"),
            ("chi", "-0"),
            ("d", "05"),
            ("h", "007"),
            ("volume", "5.0"),
        ],
        ids=repr,
    )
    def test_csv(self, key, cell):
        values = list(serialize.cells(self.NU5_3))
        assert serialize.row_from_csv(tuple(values))
        values[serialize.ROW_HEADER.index(key)] = cell
        with pytest.raises(ValueError):
            serialize.row_from_csv(tuple(values))

    @given(row=_rows, data=st.data())
    def test_any_json_value_at_any_key(self, row, data):
        record = json.loads(serialize.dumps(serialize.row_to_record(row)))
        # change the record itself, or an object inside it
        inner = [v for v in record.values() if isinstance(v, dict)]
        target = data.draw(st.sampled_from([record, *inner]))
        key = data.draw(st.sampled_from(list(target)) | st.text(max_size=6))
        if data.draw(st.booleans()):
            target.pop(key, None)
        else:
            # a copy, since JSON holds no cycles
            target[key] = data.draw(
                _json_values | st.sampled_from(list(record.values())).map(copy.deepcopy)
            )
        # ValueError, or a row written back to the same text; no other way out
        try:
            parsed = serialize.row_from_record(record)
        except ValueError:
            return
        text = serialize.dumps(serialize.row_to_record(parsed))
        assert text == serialize.dumps(record)

    @given(row=_rows, data=st.data())
    def test_any_string_in_any_cell(self, row, data):
        values = list(serialize.row_to_csv(row))
        i = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
        values[i] = data.draw(st.text() | _NEAR_CELLS | st.sampled_from(values))
        try:
            parsed = serialize.row_from_csv(tuple(values))
        except ValueError:
            return
        assert serialize.row_to_csv(parsed) == tuple(values)


class TestContradictions:
    """A record whose values contradict each other is refused by both
    readers, though the writer would write each value back as it is."""

    NU5_3 = _written_record(5, 3)  # nu 1/96..1/48, chi -1/48..-1/96
    NU9 = _written_record(3, 9)

    @staticmethod
    def _refused(record, clash):
        assert serialize.dumps(record)  # a record the writer can print
        message = f"values contradict: {re.escape(clash)}"
        with pytest.raises(ValueError, match=message):
            serialize.row_from_record(record)
        with pytest.raises(ValueError, match=message):
            serialize.row_from_csv(serialize.cells(record))

    def test_written_records_read_back(self):
        for record in (self.NU5_3, self.NU9):
            assert serialize.row_from_record(record)
            assert serialize.row_from_csv(serialize.cells(record))

    def test_interval_with_lower_above_upper(self):
        nu = {"lower": "1/48", "upper": "1/96"}
        self._refused(dict(self.NU5_3, nu=nu), "nu has lower > upper")
        # chi = -nu for the swapped nu too, so only the order is wrong
        chi = {"lower": "-1/96", "upper": "-1/48"}
        self._refused(dict(self.NU5_3, chi=chi), "chi has lower > upper")

    def test_volume_with_lower_above_upper(self):
        volume = self.NU5_3["volume"]
        swapped = {"lower": volume["upper"], "upper": volume["lower"]}
        self._refused(dict(self.NU5_3, volume=swapped), "volume has lower > upper")

    @pytest.mark.parametrize(
        "fields, clash",
        [
            ({"disc": 7}, "disc 7 is not that of d = 5"),
            ({"disc": 5}, "disc 5 is not that of d = 5"),
            ({"r": 1}, "r 1 is not that of d = 5"),
            ({"r": 3}, "r 3 is not that of d = 5"),
            ({"d": 20, "disc": 80}, "d = 20 is not squarefree"),
            ({"d": 2**40 + 1, "disc": 2**42 + 4}, f"d = {2**40 + 1} is past 2^40"),
        ],
        ids=["disc 7", "disc d", "r 1", "r 3", "d not squarefree", "d past 2^40"],
    )
    def test_disc_or_r_not_of_the_field(self, fields, clash):
        # d = 5: Q(sqrt(-5)) has disc 20 and the two ramified primes 2, 5
        self._refused(dict(self.NU5_3, **fields), clash)

    @pytest.mark.parametrize(
        "record, chi, clash",
        [
            (NU5_3, "5", "chi != -nu"),
            (NU5_3, {"lower": "1/96", "upper": "1/48"}, "chi != -nu"),
            (NU9, "809/5746705367040", "chi != -nu"),
            (NU9, "-809/5746705367041", "chi != -nu"),
            (_written_record(3, 8), "-1/5", "chi != nu"),
        ],
        ids=[
            "exact for interval", "not negated", "n = 9 not negated",
            "other value", "n = 8 negated",
        ],
    )
    def test_chi_not_signed_nu(self, record, chi, clash):
        self._refused(dict(record, chi=chi), clash)


class TestGrowthCodecs:
    def test_header(self):
        assert serialize.GROWTH_HEADER == (
            "d",
            "n",
            "q",
            "log_q_over_n",
            "closed_form",
            "rel_err",
        )

    def test_exact_report(self, f3):
        from covolume import survey

        report = survey.growth_ratio(f3, 2)
        fields = serialize.cells(serialize.growth_to_record(report))
        assert fields[0] == "3"
        assert fields[2] == "1/90"
        assert fields[4] != ""
        record = serialize.growth_to_record(report)
        assert record["q"] == "1/90"
        assert record["closed_form"] == report.closed_form

    def test_interval_report_leaves_closed_form_empty(self, f5):
        from covolume import survey

        report = survey.growth_ratio(f5, 2)
        fields = serialize.cells(serialize.growth_to_record(report))
        assert fields[2] == "1/180..1/90"
        assert fields[4] == "" and fields[5] == ""
        record = serialize.growth_to_record(report)
        assert record["closed_form"] is None
        line = serialize.dumps(record)
        assert '"closed_form": null' in line

    @pytest.mark.parametrize("d, n", [(3, 2), (5, 2), (3, 199)])
    def test_record_keys_are_the_header(self, d, n):
        from covolume import quadfield, survey

        report = survey.growth_ratio(quadfield.from_squarefree_d(d), n)
        assert tuple(serialize.growth_to_record(report)) == serialize.GROWTH_HEADER
