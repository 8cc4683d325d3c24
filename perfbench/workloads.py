"""The benchmark's workloads: fixed command sets, ordered by the seed.

Each workload is a closed loop of one client: a single process runs the
commands one after another through ``covolume.cli.main``.  The seed only
reorders commands; the set of commands never changes, so the number of
commands that fail is the same on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEEP_DIM_N = range(2, 221)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    copies: int = 1  # runs of each command per process
    isolated: bool = False  # clear the caches before every command

    def schedule(self, seed: int, rep: int) -> list[list[tuple[str, ...]]]:
        """The passes of process number ``rep``; caches are cleared between passes."""
        order = list(self.commands) * self.copies
        random.Random(f"{self.name}:{seed}:{rep}").shuffle(order)
        return [[cmd] for cmd in order] if self.isolated else [order]


SCAN_WIDE = Workload(
    "scan_wide",
    (("scan", "--n", "10", "--max-disc", "2000", "--format", "json"),),
)

CERTIFY = Workload(
    "certify",
    (
        ("minimal", "--overall", "--n-max", "60"),
        ("selfcheck",),
        ("minimal", "--n", "4", "--verbose"),
    ),
    # each command starts cold, so its latency does not depend on which
    # command the seed put before it
    copies=6,
    isolated=True,
)

DEEP_DIM = Workload(
    "deep_dim",
    tuple(
        cmd
        for n in DEEP_DIM_N
        for cmd in (
            ("nu", "--d", "3", "--n", str(n)),
            ("growth", "--d", "3", "--n-min", str(n), "--n-max", str(n)),
        )
    ),
)

WORKLOADS = {w.name: w for w in (SCAN_WIDE, CERTIFY, DEEP_DIM)}


def command_key(cmd: tuple[str, ...] | list[str]) -> str:
    return " ".join(cmd)
