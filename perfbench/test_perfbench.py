"""Tests of the benchmark's checker, failure accounting and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import math
import os
import statistics
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import run
from check import Checker, load_golden, load_nu_values
from spans import MEMOIZED, MODULES, REPORTED, STATS
from workloads import CERTIFY, DEEP_DIM, WORKLOADS

sys.path.insert(0, run.SRC)
from covolume import cli, serialize  # noqa: E402


@pytest.fixture(scope="module")
def checker() -> Checker:
    return Checker(serialize, load_golden(run.GOLDEN), load_nu_values(run.ORACLES))


def command(argv: list[str]) -> dict:
    """A command result as child.py reports it, run in this process."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return {"cmd": " ".join(argv), "rc": rc, "error": None, "t0": 0.0, "t1": 0.01,
            "first": 0.005, "out": buf.getvalue()}


def test_nu_values_are_read_from_the_oracles(checker):
    assert checker.nu_values[(3, 9)] == serialize.parse_rational("809/5746705367040")
    assert len(checker.nu_values) == 5


def test_correct_output_passes(checker):
    [r] = run.evaluate(checker, [command(["nu", "--d", "3", "--n", "9"])])
    assert r["ok"] and r["records"] == 1 and not r["wrong"]


def test_corrupted_byte_is_a_failure(checker):
    r = command(["nu", "--d", "3", "--n", "9"])
    i = r["out"].index("809")
    r["out"] = r["out"][:i] + "8" + r["out"][i + 1:].replace("0", "1", 1)
    [r] = run.evaluate(checker, [r])
    assert not r["ok"] and r["wrong"] and r["records"] == 0


def test_wrong_value_with_matching_format_is_a_failure(checker):
    # no golden digest (as for commands that failed at the seed commit):
    # the exact checks alone must catch a wrong nu
    checker = Checker(serialize, {"nu --d 3 --n 9": None}, checker.nu_values)
    for count, reason in ((1, "chi != -nu"), (2, "NU_VALUES")):
        r = command(["nu", "--d", "3", "--n", "9"])
        r["out"] = r["out"].replace("809/", "811/", count)
        [r] = run.evaluate(checker, [r])
        assert not r["ok"] and r["wrong"] and reason in r["why"]


def test_nonzero_exit_is_a_failure(checker):
    r = command(["nu", "--d", "3", "--n", "9"])
    r["rc"] = 2
    [r] = run.evaluate(checker, [r])
    assert not r["ok"] and not r["wrong"] and r["records"] == 0


def test_uncaught_exception_is_a_failure(checker):
    r = command(["nu", "--d", "3", "--n", "9"])
    r["rc"], r["error"], r["out"] = 1, "ValueError: Exceeds the limit", ""
    [r] = run.evaluate(checker, [r])
    assert not r["ok"] and r["why"].startswith("ValueError")


def test_growth_ratio_is_checked_against_nu(checker):
    results = [command(["nu", "--d", "3", "--n", str(n)]) for n in (4, 5)]
    growth = command(["growth", "--d", "3", "--n-min", "4", "--n-max", "4"])
    growth["out"] = growth["out"].replace('"q": "', '"q": "-', 1)
    checker = Checker(serialize, {**checker.golden, growth["cmd"]: None}, checker.nu_values)
    results = run.evaluate(checker, [*results, growth])
    assert [r["ok"] for r in results] == [True, True, False]


def _proc(latencies: list[float], ok: list[bool]) -> dict:
    results = [{"t0": 0.0, "t1": t, "first": t, "ok": good, "records": int(good)}
               for t, good in zip(latencies, ok)]
    return {"results": results, "wall": sum(latencies), "rss_mb": 20.0}


def test_failed_commands_rank_slowest():
    # the failed command is the fastest one, yet must count as slowest
    proc = _proc([0.001, 0.002, 0.003], [False, True, True])
    m = run.end_to_end([proc], [0.1], elapsed=9.0)
    assert m["query_p50_ms"][0] == pytest.approx(3.0)
    assert m["first_record_s"][0] == pytest.approx(0.003)
    assert m["pass_ratio"][0] == pytest.approx(2 / 3)
    assert m["records_per_s"][0] == pytest.approx(2 / 0.006)


def test_ranked_median_averages_the_central_fifth():
    values = [float(v) for v in range(1, 11)]
    assert run.ranked_median(values, 99.0) == statistics.fmean([5.0, 6.0])
    assert run.ranked_median([3.0], 99.0) == 3.0
    assert run.ranked_median([1.0, 2.0, 3.0, math.inf], 99.0) == 2.5
    assert run.ranked_median([1.0, 2.0, math.inf, math.inf], 99.0) == 99.0


def test_mostly_failed_median_reads_as_the_ceiling():
    proc = _proc([0.001, 0.002, 0.003], [False, False, True])
    m = run.end_to_end([proc], [0.1], elapsed=9.0)
    assert m["query_p50_ms"][0] == 9000.0
    assert not math.isinf(m["first_record_s"][0])


def test_schedule_is_seeded_and_keeps_the_command_set():
    for w in WORKLOADS.values():
        a, b = w.schedule(1, 0), w.schedule(1, 0)
        assert a == b
        assert sorted(c for p in a for c in p) == sorted(w.commands * w.copies)
    assert DEEP_DIM.schedule(1, 0) != DEEP_DIM.schedule(2, 0)
    assert len(DEEP_DIM.commands) == 438
    passes = CERTIFY.schedule(5, 3)
    assert len(passes) == 18 and all(len(p) == 1 for p in passes)


def test_golden_covers_every_command_and_records_the_known_defects():
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    keys = {" ".join(c) for w in WORKLOADS.values() for c in w.commands}
    assert set(golden["digests"]) == keys
    failed = [k for k, v in golden["digests"].items() if v is None]
    assert len(failed) == 131
    assert all(k.startswith(("nu --d 3", "growth --d 3")) for k in failed)


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        if m["name"] != "trace.overhead":
            assert m["unit"] == run._unit(m["name"]), m
    expected = {f"{m}.{s}" for m in MODULES for s in STATS}
    expected |= {f"{f}.{s}" for f in REPORTED for s in STATS}
    expected |= {f"{f}.hit_ratio" for f in MEMOIZED}
    expected |= {"quadfield.chi_table.cached_residues", "trace.overhead"}
    assert names == expected
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def test_tracer_keeps_clear_caches_working_and_outputs_unchanged():
    script = """
import io, json, sys
from contextlib import redirect_stdout
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import covolume
from covolume import cli
from spans import Tracer

def out(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli.main(argv)
    return buf.getvalue()

argv = ["minimal", "--n", "4", "--verbose"]
plain = out(argv)
covolume.clear_caches()
tracer = Tracer(covolume)
tracer.install()
traced = out(argv)
tracer.snapshot_caches()
covolume.clear_caches()
layers = tracer.summary()
print(json.dumps({"same": plain == traced, "layers": layers}))
"""
    done = subprocess.run(
        [sys.executable, "-c", script, run.SRC, run.HERE],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["same"]
    layers = result["layers"]
    assert layers["survey.minimal_field.calls"] == 1
    assert layers["cli.main.calls"] == 1
    assert layers["lattice.covolume_result.calls"] > 0
    assert 0 < layers["quadfield.chi_table.hit_ratio"] < 1
    assert all(v >= 0 for v in layers.values())
