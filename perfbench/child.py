"""One workload process: runs a workload's commands through ``covolume.cli.main``.

Usage (started by run.py, one process at a time):

    python3 perfbench/child.py probe
    python3 perfbench/child.py run <workload> <seed> <rep> <trace 0|1>

``probe`` imports ``covolume.cli``, builds its parser, prints the
CLOCK_MONOTONIC reading at that moment and exits; run.py subtracts the
time it started the process.  ``run`` executes the workload's schedule
with stdout and stderr captured per command and writes one JSON object
per command, then a summary object, to the real stdout.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import covolume  # noqa: E402
from covolume import cli  # noqa: E402

cli.build_parser()
READY = time.monotonic()

from workloads import WORKLOADS, command_key  # noqa: E402


class Capture(io.TextIOBase):
    """A non-TTY text stream that notes when its first line completes."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.first_line: float | None = None

    def writable(self) -> bool:
        return True

    def isatty(self) -> bool:
        return False

    def write(self, s: str) -> int:
        self.parts.append(s)
        if self.first_line is None and "\n" in s:
            self.first_line = time.perf_counter()
        return len(s)

    def text(self) -> str:
        return "".join(self.parts)


def run_command(argv: list[str]) -> dict:
    out, err = Capture(), Capture()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed command, not a failed run
        rc = 1
        error = f"{type(exc).__name__}: {exc}"[:300]
    finally:
        t1 = time.perf_counter()
        sys.stdout, sys.stderr = real_out, real_err
    return {
        "cmd": command_key(argv),
        "rc": rc,
        "error": error,
        "t0": t0,
        "t1": t1,
        "first": out.first_line,
        "out": out.text(),
    }


def peak_rss_mb() -> float:
    """This process's peak RSS (VmHWM).

    Not ``ru_maxrss`` from ``os.wait4``: on Linux a child's ``ru_maxrss``
    starts from the peak RSS of the process that spawned it, so the
    harness's own memory would set a floor under every reading.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(workload: str, seed: int, rep: int, traced: bool) -> None:
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer(covolume)
        tracer.install()
    emit = sys.stdout.write
    schedule = WORKLOADS[workload].schedule(seed, rep)
    for i, order in enumerate(schedule):
        if i:
            if tracer is not None:
                tracer.snapshot_caches()
            covolume.clear_caches()
        for argv in order:
            result = run_command(list(argv))
            result["pass"] = i
            emit(json.dumps(result) + "\n")
    summary = {"rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.snapshot_caches()
        summary["layers"] = tracer.summary()
    emit(json.dumps({"summary": summary}) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    if argv == ["probe"]:
        print(repr(READY))
        return 0
    if len(argv) == 5 and argv[0] == "run":
        run(argv[1], int(argv[2]), int(argv[3]), argv[4] == "1")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
