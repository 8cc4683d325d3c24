"""Benchmark harness for the covolume CLI.  Standard library only.

    python3 perfbench/run.py --workload scan_wide --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32

The harness starts workload processes (perfbench/child.py) one at a
time, while the next is expected to end within ``--seconds``.  Each runs
the workload's command schedule through ``covolume.cli.main`` with stdout
captured.
It starts no threads of its own.  Every command's output is checked
(check.py).  Each workload process reports its own peak RSS.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced; with ``--trace 1`` the processes
alternate untraced and traced, and the metrics are the per-layer ones
from the traced processes (spans.py) plus the tracing overhead.  The
harness exits non-zero without a result if it cannot run the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
ORACLES = os.path.join(ROOT, "tests", "oracles.py")

sys.path.insert(0, HERE)
from check import CheckFailed, Checker, load_golden, load_nu_values  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# Same hash seed in every process; bytecode caches allowed, as an
# installed package has them.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONHASHSEED"] = "0"
MALFORMED = (CheckFailed, ValueError, KeyError, TypeError, IndexError, AttributeError)


class HarnessError(Exception):
    """The workload could not be run at all; no result is printed."""


def spawn(args: list[str]) -> tuple[str, int]:
    """Run a child to completion: (stdout, exit code)."""
    done = subprocess.run(
        [sys.executable, CHILD, *args],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    )
    return done.stdout, done.returncode


def setup_seconds() -> float:
    """Interpreter start until covolume.cli is imported and its parser built."""
    t0 = time.monotonic()
    out, code = spawn(["probe"])
    if code != 0:
        raise HarnessError(f"setup probe exited with {code}")
    return float(out) - t0


def run_process(checker: Checker, workload: str, seed: int, rep: int, traced: bool) -> dict:
    out, code = spawn(["run", workload, str(seed), str(rep), "1" if traced else "0"])
    if code != 0:
        raise HarnessError(f"{workload} process {rep} exited with {code}")
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines.pop()["summary"]
    # the workload's wall time is its commands' time, without the
    # harness's own work between them
    wall = sum(r["t1"] - r["t0"] for r in lines)
    return {"results": evaluate(checker, lines), "wall": wall, "rss_mb": summary["rss_mb"],
            "layers": summary.get("layers"), "traced": traced}


def evaluate(checker: Checker, results: list[dict]) -> list[dict]:
    """Mark each command of one process ok or failed, and count its records.

    A command fails on a nonzero exit, an uncaught exception, or output
    that fails the check; the last case is also marked ``wrong``.
    """
    for r in results:
        r["ok"], r["records"], r["wrong"] = False, 0, False
        if r["rc"] != 0 or r["error"]:
            r["why"] = r["error"] or f"exit {r['rc']}"
            continue
        try:
            r["records"] = checker.check(r["cmd"].split(), r["out"])
            r["ok"] = True
        except MALFORMED as exc:
            r["why"], r["wrong"] = f"check: {exc}", True
    for i in checker.growth_mismatches(results):
        r = results[i]
        r["ok"], r["records"], r["wrong"], r["why"] = False, 0, True, "check: q(n) != nu(n+1)/nu(n)"
    for r in results:
        del r["out"]
    return results


def ranked_median(values: list[float], ceiling: float) -> float:
    """Median, smoothed: the mean of the ranked values from the 40th to the
    60th percentile.  Failures are +inf, and a window reaching one reads as
    ``ceiling``.

    A plain median of command latencies jumps between the host's fast and
    slow phases when it falls on a short command (selfcheck, in certify);
    the window's mean moves with the share of slow samples instead.
    """
    ranked = sorted(values)
    lo = int(len(ranked) * 0.4)
    m = statistics.fmean(ranked[lo:len(ranked) - lo])
    return ceiling if math.isinf(m) else m


def end_to_end(procs: list[dict], setups: list[float], elapsed: float) -> dict:
    results = [r for p in procs for r in p["results"]]
    latency = [r["t1"] - r["t0"] if r["ok"] else math.inf for r in results]
    first = [r["first"] - r["t0"] if r["ok"] else math.inf for r in results]
    goodput = sum(r["records"] for r in results) / sum(p["wall"] for p in procs)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "records_per_s": (goodput, "1/s"),
        "first_record_s": (ranked_median(first, elapsed), "s"),
        "query_p50_ms": (ranked_median(latency, elapsed) * 1000, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in procs), "MB"),
        "pass_ratio": (sum(r["ok"] for r in results) / len(results), "ratio"),
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    names = traced[0]["layers"].keys()
    out = {
        name: (statistics.fmean(p["layers"][name] for p in traced), _unit(name))
        for name in names
    }
    overhead = statistics.median(p["wall"] for p in traced) / statistics.median(
        p["wall"] for p in plain
    ) - 1
    out["trace.overhead"] = (overhead, "ratio")
    return out


def _unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"calls": "count", "busy_s": "s", "wait_s": "s", "hit_ratio": "ratio"}.get(stat, "count")


def measure(checker: Checker, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    if not trace:
        setup_seconds()  # first start may write bytecode caches; not counted
        setups = [setup_seconds() for _ in range(SETUP_PROBES)]
    # start another process only while it is expected to end within the
    # run's seconds; at least one (untraced and traced, with --trace 1)
    procs = []
    start = time.monotonic()
    while True:
        rep = len(procs)
        procs.append(run_process(checker, workload, seed, rep, trace and rep % 2 == 1))
        elapsed = time.monotonic() - start
        if elapsed * (rep + 2) / (rep + 1) > seconds and (not trace or rep >= 1):
            break
    plain = [p for p in procs if not p["traced"]]
    if trace:
        metrics = per_layer([p for p in procs if p["traced"]], plain)
    else:
        metrics = end_to_end(plain, setups, elapsed)
    results = [r for p in procs for r in p["results"]]
    failures: dict[str, int] = {}
    for r in results:
        if not r["ok"]:
            reason = r["why"].split(":")[0] if not r["wrong"] else r["why"]
            failures[reason] = failures.get(reason, 0) + 1
    return {
        "correct": not any(r["wrong"] for r in results),
        "attempted": len(results),
        "failed": sum(not r["ok"] for r in results),
        "processes": len(procs),
        "failures": failures,
        "metrics": metrics,
    }


def environment() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "covolume")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return (
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"src sha256 {h.hexdigest()[:16]}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for path in (os.path.join(SRC, "covolume", "cli.py"), GOLDEN, ORACLES):
        if not os.path.isfile(path):
            print(f"run.py: missing {path}", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    sys.set_int_max_str_digits(0)  # checking only; the workload processes keep the default
    from covolume import serialize

    checker = Checker(serialize, load_golden(GOLDEN), load_nu_values(ORACLES))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(environment())
    reports = {}
    try:
        for name in names:
            reports[name] = measure(checker, name, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, rep in reports.items():
        print(f"{name}: {rep['processes']} processes, {rep['attempted']} commands, "
              f"{rep['failed']} failed {rep['failures'] or ''}")
        for metric, (value, unit) in rep["metrics"].items():
            print(f"  {metric:48s} {value:14.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
