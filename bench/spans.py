"""Spans around the public calls into each rainbow_forge module.

A :class:`Tracer` replaces every public function of the package with a
timing wrapper at each name a caller looks it up by: the defining
module (so ``exact -> local_search_rainbow -> find_swap`` inside
``solvers`` is seen) and every module that re-binds it with
``from ... import`` (``sweep.serialize_instance``,
``cli.parse_instance``, ``constructions.exact_max_rainbow`` and so on).
``uninstall`` puts the original objects back.  Spans stay in memory
and are written out by the caller when the run ends.

A span's self time is its duration minus the part of that interval its
child spans cover; per-layer figures are sums of self times, so every
second of traced time is counted in exactly one layer.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

# layer (module) -> its traced public functions; spans are named
# "<layer>.<function>"
TRACED = {
    "core": ("validate_instance", "is_rainbow_matching"),
    "fileformat": ("serialize_instance", "parse_instance", "serialize_report", "parse_report"),
    "constructions": (
        "cycle_instance",
        "k4_union_instance",
        "ach_instance",
        "blowup_compose",
        "dummy_lift",
        "random_instance",
        "find_blocking_family",
        "certify_blocking_family",
    ),
    "solvers": (
        "exact_max_rainbow",
        "greedy_rainbow",
        "local_search_rainbow",
        "find_extension",
        "find_swap",
        "good_edges",
        "sample_and_extend",
    ),
    "bounds": (
        "lower_bound_g_prime",
        "upper_bound_g",
        "bounds_h",
        "weak_asymptotic_bound",
        "ach_bound",
        "check_gibounds",
    ),
    "setpairs": ("extract_setpairs", "is_cross_intersecting", "bollobas_sum"),
    "sweep": ("run_sweep", "build_instance", "run_solver", "bound_checks"),
    "cli": ("main",),
}

# every module whose globals may hold one of the functions above
SITES = ("core", "fileformat", "constructions", "solvers", "bounds", "setpairs", "sweep", "cli")


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    op: int  # operation id shared by every span of one benchmark operation
    count: int = 0  # work counted from the call's arguments or result
    extra: int = 0  # 1 when an exact incumbent was optimal or a sample succeeded

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's coverage of it."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


def _counts(name: str, args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    """(count, extra) recorded on a span: bytes, nodes, moves, attempts."""
    if name == "fileformat.serialize_instance":
        return len(result), 0
    if name == "fileformat.parse_instance":
        return len(args[0] if args else kwargs["text"]), 0
    if name == "solvers.exact_max_rainbow":
        hit = result.stats.extra.get("incumbent_size") == result.size
        return result.stats.nodes, int(hit)
    if name == "solvers.local_search_rainbow":
        return result.stats.nodes, 0
    if name == "solvers.sample_and_extend":
        attempts = getattr(result, "attempts", None)
        if attempts is None:  # a SolveReport: success
            return result.stats.extra.get("attempts", 0), 1
        return attempts, 0
    if name == "sweep.run_sweep":
        return len(result[1]), 0
    return 0, 0


class Tracer:
    """Installs span-recording wrappers; one instance per traced run."""

    def __init__(self, package: Any):
        self.package = package
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            span.count, span.extra = _counts(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {m: getattr(self.package, m) for m in SITES}
        wrappers = {}
        for layer, names in TRACED.items():
            for fname in names:
                fn = getattr(modules[layer], fname)
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.count, s.extra]) + "\n")


def layer_metrics(
    spans: list[Span], selfs: list[float], lo: int, hi: int, verify_checks: int
) -> dict[str, float]:
    """Per-layer figures over ``spans[lo:hi]`` (one traced pass).

    ``selfs`` is :func:`self_times` of the whole span list, whose parent
    indices are global.
    """
    window = range(lo, hi)

    def self_of(*names):
        return sum(selfs[i] for i in window if spans[i].name in names)

    def count_of(*names):
        return sum(spans[i].count for i in window if spans[i].name in names)

    def calls(*names):
        return sum(1 for i in window if spans[i].name in names)

    def prefixed(layer):
        return tuple(f"{layer}.{f}" for f in TRACED[layer])

    def ratio(name):
        hits = [spans[i].extra for i in window if spans[i].name == name]
        return sum(hits) / len(hits) if hits else 0.0

    incumbent = sum(
        spans[i].duration
        for i in window
        if spans[i].name == "solvers.local_search_rainbow"
        and spans[i].parent >= 0
        and spans[spans[i].parent].name == "solvers.exact_max_rainbow"
    )
    return {
        "solvers.exact_s": self_of("solvers.exact_max_rainbow"),
        "solvers.exact_nodes": count_of("solvers.exact_max_rainbow"),
        "solvers.exact_incumbent_s": incumbent,
        "solvers.incumbent_hit_ratio": ratio("solvers.exact_max_rainbow"),
        "solvers.local_s": self_of("solvers.local_search_rainbow"),
        "solvers.local_moves": count_of("solvers.local_search_rainbow"),
        "solvers.find_swap_s": self_of("solvers.find_swap"),
        "solvers.find_swap_calls": calls("solvers.find_swap"),
        "solvers.find_extension_s": self_of("solvers.find_extension"),
        "solvers.find_extension_calls": calls("solvers.find_extension"),
        "solvers.greedy_s": self_of("solvers.greedy_rainbow"),
        "solvers.good_edges_s": self_of("solvers.good_edges"),
        "solvers.sample_s": self_of("solvers.sample_and_extend"),
        "solvers.sample_attempts": count_of("solvers.sample_and_extend"),
        "solvers.sample_success_ratio": ratio("solvers.sample_and_extend"),
        "fileformat.serialize_s": self_of("fileformat.serialize_instance"),
        "fileformat.serialize_bytes": count_of("fileformat.serialize_instance"),
        "fileformat.parse_s": self_of("fileformat.parse_instance"),
        "fileformat.parse_bytes": count_of("fileformat.parse_instance"),
        "fileformat.report_s": self_of("fileformat.serialize_report", "fileformat.parse_report"),
        "core.validate_s": self_of("core.validate_instance"),
        "core.validate_calls": calls("core.validate_instance"),
        "core.is_rainbow_s": self_of("core.is_rainbow_matching"),
        "constructions.build_s": self_of(*prefixed("constructions")),
        "constructions.calls": calls(*prefixed("constructions")),
        "bounds.s": self_of(*prefixed("bounds")),
        "bounds.calls": calls(*prefixed("bounds")),
        "setpairs.s": self_of(*prefixed("setpairs")),
        "setpairs.systems": calls("setpairs.extract_setpairs"),
        "sweep.self_s": self_of(*prefixed("sweep")),
        "sweep.cells": count_of("sweep.run_sweep"),
        "cli.verify_self_s": self_of("cli.main"),
        "cli.verify_checks": verify_checks,
    }
