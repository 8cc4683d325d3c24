"""Spans around the public functions of every covolume module.

The tracer wraps each function named in a module's ``__all__`` and
replaces every reference to it in the package's module namespaces, so
calls between modules and within a module both pass through the wrapper.
A span records its function, thread id, parent span, wall time
(``perf_counter``) and thread CPU time (``thread_time``).  Spans stay in
memory until ``summary`` aggregates them.

Self time of a span is its duration minus the part covered by its child
spans.  Busy time is self time on the thread CPU clock; wait time is self
wall time minus busy time.  Spans opened in pool worker threads have the
survey span that submitted them as parent, and their wait (interpreter
lock contention) is charged to that survey span, while their busy time
stays with their own function.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import types
from collections import defaultdict

MODULES = ("bernoulli", "quadfield", "lvalues", "lattice", "survey", "serialize", "cli")

# Not spanned; their cost stays in the caller's self time.  The first
# group is too hot to span without distorting the split (kronecker_symbol
# runs once per residue, the validators once per Bernoulli lookup);
# nu_even and nu_odd are the two halves of nu, reported as nu.
UNTRACED = frozenset(
    {
        "quadfield.kronecker_symbol",
        "quadfield.compose",
        "quadfield.is_squarefree",
        "quadfield.is_fundamental_discriminant",
        "lattice.is_exact",
        "serialize.format_float",
        "lvalues.zeta_negative",
        "lvalues.l_negative",
        "lattice.nu_even",
        "lattice.nu_odd",
        "cli.run",
    }
)

# Functions whose calls, busy_s and wait_s are reported; every traced
# function counts towards its module's totals.
REPORTED = (
    "bernoulli.bernoulli_number",
    "bernoulli.generalized_bernoulli",
    "quadfield.fields_with_disc_at_most",
    "quadfield.chi_table",
    "quadfield.reduced_forms",
    "quadfield.class_power",
    "quadfield.torsion_count",
    "lvalues.zeta_numeric",
    "lvalues.l_numeric",
    "lattice.h_torsion",
    "lattice.nu",
    "lattice.hyperbolic_volume",
    "lattice.ep_normalization",
    "lattice.covolume_result",
    "lattice.cross_path_check",
    "survey.scan",
    "survey.minimal_field",
    "survey.overall_minimum",
    "survey.growth_ratio",
    "serialize.dumps",
    "serialize.row_to_record",
    "serialize.growth_to_record",
    "cli.main",
    "cli.build_parser",
)
STATS = ("calls", "busy_s", "wait_s")

# Memo tables behind public functions, reported as hit_ratio:
# name -> (module, attribute of the lru_cache).
MEMOIZED = {
    "quadfield.chi_table": ("quadfield", "chi_table"),
    "quadfield.reduced_forms": ("quadfield", "reduced_forms"),
    "lattice.h_torsion": ("lattice", "h_torsion"),
    "lvalues.zeta_numeric": ("lvalues", "zeta_numeric"),
    "lvalues.l_numeric": ("lvalues", "_l_numeric_by_disc"),
    "bernoulli.generalized_bernoulli": ("bernoulli", "_generalized_bernoulli"),
}


class Tracer:
    """Collects spans for one process; create it before the first command."""

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[list]] = defaultdict(list)
        self._survey_open: list[int] = []  # open survey span ids, main thread
        self._main = threading.main_thread().ident
        self._cache_totals: dict[str, list[int]] = {k: [0, 0] for k in MEMOIZED}
        self._chi_keys: set[int] = set()
        self.cached_residues = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        originals = {}
        for mod_name, mod in self.modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{mod_name}.{attr}"
                if name in UNTRACED or attr == "clear_caches":
                    continue
                originals[id(fn)] = self._wrap(name, fn, mod_name == "survey")
        namespaces = [self.package, *self.modules.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(ns, attr, wrapper)

    def _wrap(self, name: str, fn, is_survey: bool):
        fid = len(self.names)
        self.names.append(name)
        stacks = self._stacks
        spans = self.spans
        survey_open = self._survey_open
        main = self._main
        get_ident = threading.get_ident
        wall = time.perf_counter
        cpu = time.thread_time
        new_id = self._ids.__next__
        record_chi = self._chi_keys.add if name == "quadfield.chi_table" else None

        def wrapper(*args, **kwargs):
            tid = get_ident()
            stack = stacks[tid]
            if stack:
                parent, charge = stack[-1][0], stack[-1][1]
            elif tid != main and survey_open:
                parent = charge = survey_open[-1]
            else:
                parent, charge = 0, None
            sid = new_id()
            if record_chi is not None:
                record_chi(args[0])
            if is_survey and tid == main:
                survey_open.append(sid)
            # [span id, charge, child wall, child cpu]
            frame = [sid, charge, 0.0, 0.0]
            stack.append(frame)
            c0 = cpu()
            t0 = wall()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = wall()
                c = cpu() - c0
                stack.pop()
                if is_survey and tid == main:
                    survey_open.pop()
                if stack:
                    stack[-1][2] += t1 - t0
                    stack[-1][3] += c
                spans.append((sid, fid, tid, parent, charge, t0, t1, c, frame[2], frame[3]))

        functools.update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- memo tables ----------------------------------------------------

    def snapshot_caches(self) -> None:
        """Fold memo statistics in; call before every ``clear_caches``."""
        for name, (mod_name, attr) in MEMOIZED.items():
            info = getattr(self.modules[mod_name], attr).cache_info()
            self._cache_totals[name][0] += info.hits
            self._cache_totals[name][1] += info.misses
        residues = sum(abs(d) for d in self._chi_keys)
        self.cached_residues = max(self.cached_residues, residues)
        self._chi_keys.clear()

    # -- aggregation ----------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-function and per-module calls, busy_s and wait_s, plus hit ratios."""
        calls: dict[str, float] = defaultdict(float)
        busy: dict[str, float] = defaultdict(float)
        wait: dict[str, float] = defaultdict(float)
        fid_of: dict[int, int] = {}
        pool: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, fid, _, parent, charge, t0, t1, *_ in self.spans:
            fid_of[sid] = fid
            if charge is not None and parent == charge:
                pool[parent].append((t0, t1))  # a worker's outermost span
        for sid, fid, _, _, charge, t0, t1, c, child_wall, child_cpu in self.spans:
            name = self.names[fid]
            self_wall = t1 - t0 - child_wall - _union_length(pool.get(sid, ()))
            self_busy = c - child_cpu
            calls[name] += 1
            busy[name] += self_busy
            target = name if charge is None else self.names[fid_of[charge]]
            wait[target] += max(self_wall - self_busy, 0.0)
        tables = dict(zip(STATS, (calls, busy, wait)))
        out: dict[str, float] = {}
        for stat, table in tables.items():
            for module in MODULES:
                out[f"{module}.{stat}"] = sum(
                    v for name, v in table.items() if name.startswith(module + ".")
                )
            for name in REPORTED:
                out[f"{name}.{stat}"] = table.get(name, 0.0)
        for name, (hits, misses) in self._cache_totals.items():
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["quadfield.chi_table.cached_residues"] = float(self.cached_residues)
        return out


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    start = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            if end is not None:
                total += end - start
            start, end = t0, t1
        else:
            end = max(end, t1)
    if end is not None:
        total += end - start
    return total
