"""Record golden.json: the stdout digest of every benchmark command.

    python3 perfbench/record_golden.py

Runs each workload once through child.py and stores the SHA-256 of each
command's stdout, or null for a command that fails.  It also records the
environment and measures where the two known defects start:

- ``nu`` output crashes in serialize on the 4300-digit ``str(int)`` limit;
- ``growth`` raises OverflowError in ``survey.growth_ratio`` at odd n.

Run it only at a commit whose outputs are known to be right: the digests
are the reference every later run is checked against.
"""

from __future__ import annotations

import io
import json
import os
import platform
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from check import digest
from run import CHILD, GOLDEN, ROOT, SRC
from workloads import WORKLOADS, command_key

DEFECT_FIELDS = (3, 1, 7, 2)


def first_failure(argv_for, ns) -> tuple[int, str] | None:
    from covolume import cli

    for n in ns:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                if cli.main(argv_for(n)) == 0:
                    continue
                return n, "nonzero exit"
            except Exception as exc:
                return n, type(exc).__name__
    return None


def defect_boundaries() -> dict:
    sys.path.insert(0, SRC)
    out = {}
    for d in DEFECT_FIELDS:
        nu = first_failure(lambda n: ["nu", "--d", str(d), "--n", str(n)], range(60, 221))
        growth = first_failure(
            lambda n: ["growth", "--d", str(d), "--n-min", str(n), "--n-max", str(n)],
            range(121, 221, 2),
        )
        out[str(d)] = {"nu_first_failing_n": nu, "growth_first_failing_odd_n": growth}
    return out


def main() -> int:
    digests: dict[str, str | None] = {}
    failures: dict[str, str] = {}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, CHILD, "run", workload, "0", "0", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        for line in out.splitlines()[:-1]:
            r = json.loads(line)
            failed = r["rc"] != 0 or r["error"]
            value = None if failed else digest(r["out"])
            if r["cmd"] in digests and digests[r["cmd"]] != value:
                raise SystemExit(f"{r['cmd']}: output differs between passes")
            digests[r["cmd"]] = value
            if failed:
                failures[r["cmd"]] = r["error"] or f"exit {r['rc']}"
    for workload in WORKLOADS.values():
        for cmd in workload.commands:
            if command_key(cmd) not in digests:
                raise SystemExit(f"{command_key(cmd)}: not run")
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    golden = {
        "environment": {
            "git_sha": sha,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
        "defect_boundaries": defect_boundaries(),
        "failed_commands": failures,
        "digests": digests,
    }
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} commands, {len(failures)} failed, written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
