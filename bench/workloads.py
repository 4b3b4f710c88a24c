"""The benchmark's three workloads, each a list of cells built from a seed.

A cell is one grid point: an instance builder, a solver and, where the
paper fixes one, the value the solved size must respect.  Cells on the
families ``rainbow_forge.sweep.build_instance`` generates (cycle, k4,
ach, random) run through ``run_sweep``, one call per instance.  Cells on
``dummy_lift`` and ``blowup_compose`` families, which ``run_sweep``
cannot generate, run through the benchmark's own copy of the sweep
cell, which makes the same calls and file writes.

Builders look every construction up on its module at call time, so a
traced run sees them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Cell:
    spec: Any  # rainbow_forge.sweep.CellSpec: construction, r, n, solver, seed
    instance: str  # file stem of the instance, shared by cells on one instance
    build: Callable[[], Any]  # () -> Instance
    via_sweep: bool  # run through sweep.run_sweep, not the benchmark's copy
    # the paper's value for the maximum: (value, exact) means every
    # solver's size is <= value and, when exact, an exact solve equals it
    limit: tuple[int, bool] | None = None

    @property
    def name(self) -> str:
        return self.spec.cell_id


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    cells: tuple[Cell, ...]

    def run_ops(self) -> list[tuple[str, list[Cell]]]:
        """Timed run operations: one ``run_sweep`` call over the cells of
        one instance, or one cell of the benchmark's own runner."""
        ops: list[tuple[str, list[Cell]]] = []
        for cell in self.cells:
            if cell.via_sweep and ops and ops[-1][1][0].via_sweep and ops[-1][0] == cell.instance:
                ops[-1][1].append(cell)
            else:
                ops.append((cell.instance if cell.via_sweep else cell.name, [cell]))
        return ops

    def inputs(self) -> dict[str, Callable[[], Any]]:
        """Distinct instances by file stem, in cell order."""
        out: dict[str, Callable[[], Any]] = {}
        for cell in self.cells:
            out.setdefault(cell.instance, cell.build)
        return out


def _sweep_cell(rf, spec, limit: tuple[int, bool] | None = None) -> Cell:
    """A cell ``run_sweep`` runs; its input is ``sweep.build_instance``."""
    return Cell(spec, spec.instance_id, lambda: rf.sweep.build_instance(spec), True, limit)


def _paper_exact(rf, seed: int) -> list[Cell]:
    C = rf.constructions

    def blowup():
        part = C.find_blocking_family(3, 4, 2, seed=seed)
        return C.blowup_compose([part, part, part])

    # (construction, r, n, own builder or None for run_sweep, limit); ach
    # limits are n - 2^(r-2); a dummy lift of m edges adds at most m to
    # its base; three parts blocked at t=2 give at most 3*2 - 3
    families = [
        ("ach", 4, 10, None, (6, False)),
        ("ach", 4, 12, None, (8, False)),
        ("ach", 3, 64, None, (62, False)),
        ("k4", 2, 41, None, (40, True)),
        ("cycle", 2, 200, None, (199, True)),
        ("dummy", 4, 8, lambda: C.dummy_lift(C.ach_instance(4, 8), 2), (6, False)),
        ("blowup", 3, 4, blowup, (3, False)),
        ("ach", 5, 32, None, (24, False)),
    ]
    cells = []
    for construction, r, n, build, limit in families:
        # ach(5, 32) is too large to certify; its 8 good edges exercise setpairs
        solvers = ("local",) if (construction, r) == ("ach", 5) else ("exact", "local")
        for solver in solvers:
            spec = rf.sweep.CellSpec(construction, r, n, solver, seed)
            if build is None:
                cells.append(_sweep_cell(rf, spec, limit))
            else:
                cells.append(Cell(spec, spec.instance_id, build, False, limit))
    return cells


# (r, n) of the random families in sweep-grid, each drawn SWEEP_INSTANCES times
SWEEP_GRID = ((2, 24), (2, 32), (2, 40), (3, 10), (3, 12), (4, 10), (4, 11))
SWEEP_INSTANCES = 4


def _sweep_grid(rf, seed: int) -> list[Cell]:
    rng = random.Random(seed)
    cells = []
    for r, n in SWEEP_GRID:
        for _ in range(SWEEP_INSTANCES):
            inst_seed = rng.randrange(2**31)
            for solver in ("exact", "greedy", "local", "sample"):
                cells.append(_sweep_cell(rf, rf.sweep.CellSpec("random", r, n, solver, inst_seed)))
    return cells


def _large_heuristic(rf, seed: int) -> list[Cell]:
    C = rf.constructions
    cells = []
    # The n=200 family is the fixed reference instance random(3, 200, 200,
    # seed=1), and its cells' solver seed is 1 too: its local-search cost
    # swings by a third between seeds (7 to 13 moves), more than a run
    # can average out.
    for n, inst_seed in ((100, seed), (200, 1)):
        for solver in ("greedy", "local"):
            cells.append(_sweep_cell(rf, rf.sweep.CellSpec("random", 3, n, solver, inst_seed)))
    spec = rf.sweep.CellSpec("dummy", 3, 300, "sample", seed, size=5)
    cells.append(
        Cell(
            spec,
            f"dummy-r3-n300-m5-seed{seed}-lift595",
            lambda: C.dummy_lift(C.random_instance(3, 300, 5, seed), 595),
            False,
        )
    )
    return cells


BUILDERS = {
    "paper-exact": _paper_exact,
    "sweep-grid": _sweep_grid,
    "large-heuristic": _large_heuristic,
}


def make(name: str, seed: int, rf) -> Workload:
    """The named workload for ``seed``; ``rf`` is the imported package."""
    return Workload(name, seed, tuple(BUILDERS[name](rf, seed)))
