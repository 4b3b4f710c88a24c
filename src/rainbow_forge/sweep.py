"""Generator x solver experiment grids with persisted, re-verifiable results.

A sweep writes into an append-only results directory:

* ``instances/<id>.rbf``      every generated instance, one file each
* ``reports/<id>-<solver>.json``  the solver report for each grid cell
* ``sweeps/<stamp>/records.jsonl``  one JSON record per cell
* ``sweeps/<stamp>/summary.csv``    flat summary, one row per record;
  each column names a path of keys into the record (``_CSV_COLUMNS``)

Records carry everything needed to recompute their pass/fail fields,
and each cell is independently re-checkable from the persisted instance
and report alone: :func:`verify_report` makes the checks on a parsed
instance that ``rainbow-forge verify`` prints after its own
``instance valid``.  Identical invocations with the same
seed produce byte-identical records except for wall-time fields.
The cells that share an instance run as one task, which builds the
instance and writes its file once and then runs each solver cell on it.
A cell outside its generator's domain (see :func:`build_instance`) is
skipped in that build, with no record and no file.  Instance tasks may
run concurrently (each writes only its own files); the record list and
summary are reduced by a single writer at the end, in grid order.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass
from functools import reduce
from math import comb
from operator import getitem
from pathlib import Path
from typing import Any, Callable

from . import bounds as bounds_mod
from .constructions import ach_instance, cycle_instance, k4_union_instance, random_instance
from .core import Instance, is_rainbow_matching
from .fileformat import CERT_FAILURE, ReportDoc, serialize_instance, serialize_report
from .setpairs import bollobas_sum, is_cross_intersecting, table_setpairs
from .solvers import (
    CERT_EXACT,
    CERT_LOCAL,
    DEFAULT_SAMPLE_RETRIES,
    ExtensionAvailable,
    SampleExtendFailure,
    SolveReport,
    exact_max_rainbow,
    good_edges,
    greedy_rainbow,
    local_search_rainbow,
    sample_and_extend,
)


@dataclass(frozen=True)
class CellSpec:
    construction: str
    r: int
    n: int
    solver: str
    seed: int
    size: int | None = None  # random-matching size, defaults to n
    node_budget: int | None = None
    retries: int = DEFAULT_SAMPLE_RETRIES

    @property
    def instance_id(self) -> str:
        parts = [self.construction, f"r{self.r}", f"n{self.n}"]
        if self.construction == "random":
            parts.append(f"m{self.size if self.size is not None else self.n}")
            parts.append(f"seed{self.seed}")
        return "-".join(parts)

    @property
    def cell_id(self) -> str:
        """Names the cell's report file.  A node budget and a non-default
        retry count are part of it, so cells whose results may differ
        never share a report file."""
        cell = f"{self.instance_id}-{self.solver}-seed{self.seed}"
        if self.node_budget is not None:
            cell += f"-budget{self.node_budget}"
        if self.retries != DEFAULT_SAMPLE_RETRIES:
            cell += f"-retries{self.retries}"
        return cell


# Every entry calls its function through the module-level name when it
# runs, so a wrapper installed at that name (a tracer, a test double)
# sees the call.

# construction -> (the CellSpec fields its generator reads, the generator)
GENERATORS: dict[str, tuple[tuple[str, ...], Callable[..., Instance]]] = {
    "cycle": (("n",), lambda n: cycle_instance(n)),
    "k4": (("n",), lambda n: k4_union_instance(n)),
    "ach": (("r", "n"), lambda r, n: ach_instance(r, n)),
    "random": (
        ("r", "n", "size", "seed"),
        lambda r, n, size, seed: random_instance(r, n, n if size is None else size, seed),
    ),
}

# solver -> call(inst, seed=, node_budget=, retries=)
SOLVERS: dict[str, Callable[..., SolveReport | SampleExtendFailure]] = {
    "exact": lambda inst, node_budget, **_: exact_max_rainbow(inst, node_budget=node_budget),
    "greedy": lambda inst, **_: greedy_rainbow(inst),
    "local": lambda inst, seed, **_: local_search_rainbow(inst, seed=seed),
    "sample": lambda inst, seed, retries, **_: sample_and_extend(inst, seed=seed, retries=retries),
}


def build_instance(spec: CellSpec) -> Instance | None:
    """The cell's instance, or None when the cell is outside its
    generator's domain: the generator raises ValueError, builds another
    uniformity than the cell's r (cycle and k4 are 2-uniform), or builds
    no matchings."""
    fields, generate = GENERATORS[spec.construction]
    try:
        inst = generate(*(getattr(spec, f) for f in fields))
    except ValueError:
        return None
    return inst if inst.r == spec.r and inst.n > 0 else None


def run_solver(
    inst: Instance,
    solver: str,
    seed: int | None = None,
    node_budget: int | None = None,
    retries: int = DEFAULT_SAMPLE_RETRIES,
    instance_ref: str | None = None,
) -> ReportDoc:
    """Dispatch one solver run and package it as a report document."""
    result = SOLVERS[solver](inst, seed=seed, node_budget=node_budget, retries=retries)
    if isinstance(result, SampleExtendFailure):
        return ReportDoc(
            solver=solver,
            certificate=CERT_FAILURE,
            size=result.best.size,
            assignment=result.best,
            stats={"seed": result.seed, "attempts": result.attempts},
            instance=instance_ref,
            failure={
                "stage": result.stage,
                "detail": result.detail,
                "attempts": result.attempts,
                "diagnostics": dict(result.diagnostics),
            },
        )
    return ReportDoc(
        solver=solver,
        certificate=result.certificate,
        size=result.size,
        assignment=result.matching,
        stats=asdict(result.stats),
        instance=instance_ref,
    )


def bound_checks(spec: CellSpec, inst: Instance, doc: ReportDoc) -> dict[str, Any]:
    """Applicable bound values and their pass/fail, all recomputable
    from the fields stored alongside them."""
    n = inst.n
    N = inst.min_matching_size()
    certified = doc.certificate in (CERT_EXACT, CERT_LOCAL)
    out: dict[str, Any] = {}

    lb = bounds_mod.lower_bound_g_prime(spec.r, n)
    applicable = lb.domain_ok and certified and N >= n
    out["lower_bound_g_prime"] = {
        "value": str(lb.value),
        "applicable": applicable,
        "holds": (doc.size >= lb.ceiling or lb.value <= 0) if applicable else None,
    }

    gib_applicable = certified and spec.r >= 2
    if gib_applicable:
        gib = bounds_mod.check_gibounds(spec.r, n, N, doc.size)
        out["gibounds"] = {
            "lhs": str(gib.lhs),
            "rhs": str(gib.rhs),
            "applicable": True,
            "holds": gib.holds,
        }
    else:
        out["gibounds"] = {"lhs": None, "rhs": None, "applicable": False, "holds": None}

    if spec.construction == "ach":
        ab = bounds_mod.ach_bound(spec.r, n)
        applicable = ab.domain_ok and doc.certificate == CERT_EXACT
        out["ach_bound"] = {
            "value": str(ab.value),
            "applicable": applicable,
            "holds": (doc.size <= ab.floor) if applicable else None,
        }
    else:
        out["ach_bound"] = {"value": None, "applicable": False, "holds": None}
    return out


@dataclass(frozen=True)
class Check:
    """One verification check; printed as ``ok: <name>`` or
    ``FAIL: <name> (<detail>)``."""

    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        if self.ok:
            return f"ok: {self.name}"
        return f"FAIL: {self.name}" + (f" ({self.detail})" if self.detail else "")


def verify_report(inst: Instance, doc: ReportDoc, node_budget: int | None = None) -> list[Check]:
    """Re-check a report against its instance, from the two alone; the
    checks in the order they are made.

    The assignment must be a rainbow matching of the recorded size.  An
    ``exact-optimum`` is proved maximum by the exact search started from
    the assignment as its incumbent, within ``node_budget`` nodes: the
    check fails when the budget runs out or the search finds a larger
    matching.  A
    ``local-optimum`` must admit neither an extension nor a swap, meet
    the good-edge counting inequality, and each of its good edges must
    give a cross-intersecting set-pair system with sum at most 1.
    ``inst`` must already be valid, as ``parse_instance`` ensures; no
    check here validates it.
    """
    checks: list[Check] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(Check(name, ok, detail))

    rm = doc.assignment
    try:
        valid = is_rainbow_matching(inst, rm)
    except ValueError as exc:
        valid = False
        check("assignment is a rainbow matching", False, str(exc))
    else:
        check("assignment is a rainbow matching", valid)
    check("recorded size matches assignment", doc.size == rm.size,
          f"recorded {doc.size}, assignment has {rm.size}")

    if valid and doc.certificate == CERT_EXACT:
        proof = exact_max_rainbow(inst, node_budget=node_budget, incumbent=rm)
        if proof.certificate != CERT_EXACT:
            check("exact certificate reproducible", False, "re-solve budget exhausted")
        else:
            check("exact certificate reproducible", proof.size == doc.size,
                  f"re-solved maximum {proof.size} != recorded {doc.size}")
    if valid and doc.certificate == CERT_LOCAL:
        try:
            table = good_edges(inst, rm)
        except ExtensionAvailable as ext:
            check("no extension move", False, f"colour {ext.colour} edge {ext.edge}")
            return checks
        check("no extension move", True)
        check("no swap move", table.swap is None, str(table.swap) if table.swap else "")
        if table.swap is None:
            gib = bounds_mod.check_gibounds(inst.r, inst.n, inst.min_matching_size(), rm.size)
            check("good-edge counting inequality", gib.holds, f"lhs {gib.lhs} > rhs {gib.rhs}")
            cap = comb(2 * inst.r, inst.r)
            for _, e in rm.assignment:
                ell = sum(1 for colour in table.good if e in table.good[colour])
                if ell == 0:
                    continue
                check(f"edge {e} good for at most C(2r,r)/2 colours", 2 * ell <= cap,
                      f"{ell} > {cap // 2}")
                system = table_setpairs(table, e)
                ok, witness = is_cross_intersecting(system)
                check(f"edge {e} set-pair system cross-intersecting", ok,
                      f"violation at pair {witness}" if witness else "")
                total = bollobas_sum(system)
                check(f"edge {e} set-pair sum <= 1", total <= 1, f"sum {total}")
    return checks


def _run_instance(args: tuple[list[CellSpec], str]) -> list[dict[str, Any]]:
    """Build, write and solve one instance: every spec shares its
    ``instance_id``.  Returns one record per spec, in spec order, or none
    when the instance is outside its generator's domain; the first
    record's ``wall_time`` includes the build and the write."""
    specs, out_dir = args
    root = Path(out_dir)
    t0 = time.perf_counter()
    instance_id = specs[0].instance_id
    inst = build_instance(specs[0])
    if inst is None:
        return []
    (root / "instances").mkdir(parents=True, exist_ok=True)
    (root / "reports").mkdir(exist_ok=True)
    inst_rel = f"instances/{instance_id}.rbf"
    # publish through a temp file so the path is only ever seen whole
    tmp = root / f"instances/.{instance_id}.tmp"
    tmp.write_text(serialize_instance(inst), encoding="utf-8")
    os.replace(tmp, root / inst_rel)
    min_matching_size = inst.min_matching_size()
    vertex_count = inst.vertex_count()
    records = []
    for spec in specs:
        report_rel = f"reports/{spec.cell_id}.json"
        doc = run_solver(
            inst,
            spec.solver,
            seed=spec.seed,
            node_budget=spec.node_budget,
            retries=spec.retries,
            instance_ref=f"../{inst_rel}",
        )
        (root / report_rel).write_text(serialize_report(doc), encoding="utf-8")
        records.append(
            {
                "cell": spec.cell_id,
                "construction": spec.construction,
                "r": spec.r,
                "n": spec.n,
                "solver": spec.solver,
                "seed": spec.seed,
                "size": doc.size,
                "certificate": doc.certificate
                if doc.failure is None
                else f"failure-{doc.failure['stage']}",
                "min_matching_size": min_matching_size,
                "vertex_count": vertex_count,
                "bounds": bound_checks(spec, inst, doc),
                "instance_file": inst_rel,
                "report_file": report_rel,
                "wall_time": time.perf_counter() - t0,
            }
        )
        t0 = time.perf_counter()
    return records


# summary.csv column -> the path of keys to its value in the record
_CSV_COLUMNS: dict[str, tuple[str, ...]] = {
    **{key: (key,) for key in (
        "cell", "construction", "r", "n", "solver", "seed", "size", "certificate",
        "min_matching_size",
    )},
    "lb_gprime_value": ("bounds", "lower_bound_g_prime", "value"),
    "lb_gprime_holds": ("bounds", "lower_bound_g_prime", "holds"),
    "gibounds_holds": ("bounds", "gibounds", "holds"),
    "ach_bound_value": ("bounds", "ach_bound", "value"),
    "ach_bound_holds": ("bounds", "ach_bound", "holds"),
    "wall_time": ("wall_time",),
}


def _csv_row(record: dict[str, Any]) -> list[Any]:
    """The record's summary.csv row; ``None`` (a bound not applicable)
    is an empty field."""
    values = (reduce(getitem, path, record) for path in _CSV_COLUMNS.values())
    return ["" if v is None else v for v in values]


def run_sweep(
    cells: list[CellSpec], out_dir: str | Path, jobs: int = 1, stamp: str | None = None
) -> tuple[Path, list[dict[str, Any]]]:
    """Execute every cell, persist artifacts, return the sweep directory
    and the records in grid order.  Cells with one ``cell_id`` run once,
    as the first of them (specs of a non-random construction that differ
    only in ``size`` are one cell).  Cells outside their generator's
    domain are skipped; when no cell is left, raise ValueError and
    create no directory."""
    root = Path(out_dir)
    if stamp is None:
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())

    # one task per instance, in order of first appearance; a task holds
    # its instance only while it runs
    unique: dict[str, CellSpec] = {}
    for spec in cells:
        unique.setdefault(spec.cell_id, spec)
    cells = list(unique.values())
    groups: dict[str, list[int]] = {}
    for i, spec in enumerate(cells):
        groups.setdefault(spec.instance_id, []).append(i)
    tasks = [([cells[i] for i in group], str(root)) for group in groups.values()]
    if jobs > 1 and len(tasks) > 1:
        # imported here: a sweep in one process, and every other command,
        # does without the process pool's modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_instance, tasks))
    else:
        results = [_run_instance(t) for t in tasks]
    by_cell: dict[int, dict[str, Any]] = {}
    for group, group_records in zip(groups.values(), results):
        by_cell.update(zip(group, group_records))
    if not by_cell:
        raise ValueError("no valid grid cells: every cell is outside its generator's domain")
    records = [by_cell[i] for i in sorted(by_cell)]

    sweep_dir = root / "sweeps" / stamp
    suffix = 0
    while sweep_dir.exists():
        suffix += 1
        sweep_dir = root / "sweeps" / f"{stamp}-{suffix}"
    sweep_dir.mkdir(parents=True)
    with open(sweep_dir / "records.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    with open(sweep_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for record in records:
            writer.writerow(_csv_row(record))
    return sweep_dir, records
