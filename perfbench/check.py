"""Output checker for the benchmark's commands.

A command passes when it exits 0 without an uncaught exception and its
stdout passes every check below; otherwise it is a failed command.

- Its SHA-256 matches the digest recorded at the seed commit in
  ``golden.json``.  Commands that failed at the seed commit have no
  digest; their output is held to the remaining checks only, so a later
  fix that makes them succeed is not read as a failure.
- Every JSON line survives ``json.loads`` -> ``serialize.dumps`` with
  identical bytes, and every survey row also survives
  ``row_from_record`` -> ``row_to_record`` -> ``dumps``.
- Rows carry chi = (-1)^n nu, the (d, n) they were asked for, and the
  exact nu of ``NU_VALUES`` in ``tests/oracles.py`` where listed.
- ``minimal --overall`` names n_star = 9 and the headline
  chi = -809/5746705367040; ``selfcheck`` ends with ``ok: 285 checks``.
- Within one process, each growth ratio q(n) equals nu(n+1)/nu(n) as
  printed by that process's ``nu`` commands.
"""

from __future__ import annotations

import ast
import hashlib
import json
from fractions import Fraction

HEADLINE_CHI = "-809/5746705367040"
HEADLINE_N_STAR = 9
SELFCHECK_OK = "ok: 285 checks,"


class CheckFailed(Exception):
    pass


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(path: str) -> dict[str, str | None]:
    with open(path) as fh:
        return json.load(fh)["digests"]


def load_nu_values(oracles_path: str) -> dict[tuple[int, int], Fraction]:
    """NU_VALUES from tests/oracles.py, read as source: no import, no mpmath."""
    with open(oracles_path) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "NU_VALUES" for t in node.targets
        ):
            table = {}
            for key, value in zip(node.value.keys, node.value.values):
                d, n = ast.literal_eval(key)
                num, den = (ast.literal_eval(a) for a in value.args)
                table[(d, n)] = Fraction(num, den)
            return table
    raise CheckFailed(f"no NU_VALUES in {oracles_path}")


def _value(obj) -> Fraction | tuple[Fraction, Fraction]:
    if isinstance(obj, dict):
        return (Fraction(obj["lower"]), Fraction(obj["upper"]))
    return Fraction(obj)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Checker:
    """Checks command outputs against the golden digests and exact values."""

    def __init__(self, serialize, golden: dict[str, str | None], nu_values: dict):
        self.serialize = serialize
        self.golden = golden
        self.nu_values = nu_values

    def _json(self, line: str) -> dict:
        obj = json.loads(line)
        _require(self.serialize.dumps(obj) == line, "JSON round trip changed the bytes")
        return obj

    def _row(self, rec: dict) -> None:
        ser = self.serialize
        again = ser.dumps(ser.row_to_record(ser.row_from_record(rec)))
        _require(again == ser.dumps(rec), "row round trip changed the bytes")
        nu, chi = _value(rec["nu"]), _value(rec["chi"])
        if rec["n"] % 2 == 0:
            _require(chi == nu, "chi != nu in even dimension")
        elif isinstance(nu, tuple):
            _require(chi == (-nu[1], -nu[0]), "chi != -nu in odd dimension")
        else:
            _require(chi == -nu, "chi != -nu in odd dimension")
        expected = self.nu_values.get((rec["d"], rec["n"]))
        _require(expected is None or nu == expected, "nu differs from NU_VALUES")

    def check(self, argv: list[str], out: str) -> int:
        """Records in a successful command's stdout; raises CheckFailed."""
        key = " ".join(argv)
        _require(key in self.golden, f"unknown command {key!r}")
        expected = self.golden[key]
        _require(expected is None or digest(out) == expected, "stdout digest differs")
        _require(out.endswith("\n"), "output does not end with a newline")
        lines = out[:-1].split("\n")
        opts = dict(zip(argv[1::2], argv[2::2]))
        command = argv[0]
        if command == "selfcheck":
            _require(lines[-1].startswith(SELFCHECK_OK), "selfcheck did not report ok")
            _require(all(line.endswith(" ok") for line in lines[1:-1]), "selfcheck row not ok")
            return len(lines) - 1  # the table header is not a record
        objs = [self._json(line) for line in lines]
        if command == "scan":
            for rec in objs:
                self._row(rec)
                _require(rec["n"] == int(opts["--n"]), "scan row at the wrong n")
                _require(rec["disc"] <= int(opts["--max-disc"]), "scan row past max-disc")
        elif command == "nu":
            (rec,) = objs
            self._row(rec)
            asked = (int(opts["--d"]), int(opts["--n"]))
            _require((rec["d"], rec["n"]) == asked, "nu row for the wrong pair")
        elif command == "growth":
            d = int(opts["--d"])
            asked = [(d, n) for n in range(int(opts["--n-min"]), int(opts["--n-max"]) + 1)]
            _require([(o["d"], o["n"]) for o in objs] == asked, "growth lines for the wrong n")
        elif command == "minimal" and "--overall" in argv:
            (obj,) = objs
            self._row(obj["winner"])
            _require(obj["n_star"] == HEADLINE_N_STAR, "n_star is not 9")
            _require(obj["winner"]["chi"] == HEADLINE_CHI, "headline chi differs")
        elif command == "minimal":
            (obj,) = objs
            for rec in [obj["winner"], *obj.get("certificate", ())]:
                self._row(rec)
        else:
            raise CheckFailed(f"no check for command {command!r}")
        return len(objs)

    @staticmethod
    def growth_mismatches(results: list[dict]) -> set[int]:
        """Indices of growth results whose q(n) is not nu(n+1)/nu(n)."""
        nus = {}
        for r in results:
            if r.get("records") and r["cmd"].startswith("nu "):
                rec = json.loads(r["out"])
                nus[(rec["d"], rec["n"])] = _value(rec["nu"])
        bad = set()
        for i, r in enumerate(results):
            if not (r.get("records") and r["cmd"].startswith("growth ")):
                continue
            for line in r["out"].splitlines():
                rec = json.loads(line)
                lo, hi = nus.get((rec["d"], rec["n"])), nus.get((rec["d"], rec["n"] + 1))
                if isinstance(lo, Fraction) and isinstance(hi, Fraction):
                    if _value(rec["q"]) != hi / lo:
                        bad.add(i)
        return bad

