import json

import pytest

import rainbow_forge as rf
from rainbow_forge import sweep
from rainbow_forge.sweep import CellSpec, build_instance


@pytest.mark.parametrize(
    "construction, r, n, valid",
    [
        ("cycle", 2, 1, False),
        ("cycle", 2, 2, True),
        ("cycle", 3, 4, False),  # cycle is 2-uniform
        ("k4", 2, 2, False),
        ("k4", 2, 3, True),
        ("k4", 2, 4, False),
        ("k4", 3, 3, False),  # k4 is 2-uniform
        ("ach", 2, 4, False),
        ("ach", 3, 3, False),
        ("ach", 3, 4, True),
        ("ach", 4, 6, False),
        ("ach", 4, 8, True),
        ("ach", 5, 14, False),
        ("ach", 5, 16, True),
        ("random", 1, 3, False),
        ("random", 2, 0, False),  # no matchings
        ("random", 2, 1, True),
    ],
)
def test_cell_selection_boundaries(construction, r, n, valid):
    # the domain rule: build_instance gives None for a cell outside it
    assert (build_instance(CellSpec(construction, r, n, "exact", 0)) is not None) is valid


def test_cell_selection_count_on_full_grid():
    kept = [
        spec
        for size in (None, 1, 5)
        for construction in ("cycle", "k4", "ach", "random")
        for r in range(7)
        for n in range(40)
        if build_instance(spec := CellSpec(construction, r, n, "exact", 0, size=size)) is not None
    ]
    assert len(kept) == 906


# The benchmark traces a run by rebinding these module-level names, so a
# registry entry must look its function up by name on every call.
REGISTRY_CALLS = {
    "cycle_instance": lambda: sweep.build_instance(CellSpec("cycle", 2, 4, "exact", 0)),
    "k4_union_instance": lambda: sweep.build_instance(CellSpec("k4", 2, 5, "exact", 0)),
    "ach_instance": lambda: sweep.build_instance(CellSpec("ach", 3, 4, "exact", 0)),
    "random_instance": lambda: sweep.build_instance(CellSpec("random", 3, 4, "exact", 0)),
    "exact_max_rainbow": lambda: sweep.run_solver(rf.ach_instance(3, 4), "exact"),
    "greedy_rainbow": lambda: sweep.run_solver(rf.ach_instance(3, 4), "greedy"),
    "local_search_rainbow": lambda: sweep.run_solver(rf.ach_instance(3, 4), "local", seed=0),
    "sample_and_extend": lambda: sweep.run_solver(rf.ach_instance(3, 4), "sample", seed=0),
}


@pytest.mark.parametrize("name", REGISTRY_CALLS)
def test_registry_calls_functions_by_module_name(monkeypatch, name):
    calls = []
    real = getattr(sweep, name)
    monkeypatch.setattr(sweep, name, lambda *a, **k: calls.append(name) or real(*a, **k))
    REGISTRY_CALLS[name]()
    assert calls == [name]


def test_run_sweep_builds_and_writes_each_instance_once(tmp_path, monkeypatch):
    a = lambda solver: CellSpec("random", 3, 4, solver, 1)
    b = lambda solver: CellSpec("random", 3, 5, solver, 1)
    cells = [a("exact"), b("exact"), a("local"), b("greedy"), a("sample")]
    built, serialized = [], []
    real_build, real_serialize = sweep.random_instance, sweep.serialize_instance
    monkeypatch.setattr(
        sweep, "random_instance", lambda *args: built.append(args) or real_build(*args)
    )
    monkeypatch.setattr(
        sweep, "serialize_instance", lambda inst: serialized.append(inst.n) or real_serialize(inst)
    )

    _, records = sweep.run_sweep(cells, tmp_path, stamp="s")

    assert built == [(3, 4, 4, 1), (3, 5, 5, 1)]
    assert serialized == [4, 5]
    assert [r["cell"] for r in records] == [spec.cell_id for spec in cells]
    monkeypatch.undo()
    instances = tmp_path / "instances"
    # one file per instance and no temp file left behind
    assert sorted(p.name for p in instances.iterdir()) == [
        f"{a('exact').instance_id}.rbf",
        f"{b('exact').instance_id}.rbf",
    ]
    for spec in cells[:2]:
        expected = sweep.serialize_instance(sweep.build_instance(spec))
        assert (instances / f"{spec.instance_id}.rbf").read_text(encoding="utf-8") == expected


def test_run_sweep_skips_cells_outside_the_domain(tmp_path):
    # cycle is 2-uniform, so an r = 3 cycle cell is outside the domain
    outside = CellSpec("cycle", 3, 4, "local", 0)
    inside = CellSpec("cycle", 2, 4, "local", 0)
    sweep_dir, records = sweep.run_sweep([outside, inside, outside], tmp_path, stamp="s")

    assert [r["cell"] for r in records] == [inside.cell_id]
    assert (sweep_dir / "records.jsonl").read_text().splitlines() == [
        json.dumps(records[0], sort_keys=True)
    ]
    assert sorted(p.name for p in (tmp_path / "instances").iterdir()) == [
        f"{inside.instance_id}.rbf"
    ]
    assert sorted(p.name for p in (tmp_path / "reports").iterdir()) == [f"{inside.cell_id}.json"]

    # no cell left: nothing is created
    with pytest.raises(ValueError, match="no valid grid cells"):
        sweep.run_sweep([outside], tmp_path / "empty", stamp="s")
    assert not (tmp_path / "empty").exists()


def test_run_sweep_runs_a_repeated_cell_once(tmp_path):
    spec = CellSpec("cycle", 2, 4, "local", 1)
    # a non-random construction ignores size, so this is the same cell
    resized = CellSpec("cycle", 2, 4, "local", 1, size=2)
    sweep_dir, records = sweep.run_sweep([spec, spec, resized], tmp_path, stamp="s")
    assert [r["cell"] for r in records] == [spec.cell_id]
    assert len((sweep_dir / "records.jsonl").read_text().splitlines()) == 1


def test_run_sweep_gives_each_budget_its_own_report_file(tmp_path):
    cells = [
        CellSpec("random", 3, 6, "exact", 1, node_budget=2),
        CellSpec("random", 3, 6, "exact", 1),
    ]
    _, records = sweep.run_sweep(cells, tmp_path, stamp="s")

    assert [r["cell"] for r in records] == [
        "random-r3-n6-m6-seed1-exact-seed1-budget2",
        "random-r3-n6-m6-seed1-exact-seed1",
    ]
    assert [r["certificate"] for r in records] == [rf.CERT_HEURISTIC, rf.CERT_EXACT]
    inst = build_instance(cells[0])
    for spec, record in zip(cells, records):
        own = sweep.run_solver(inst, "exact", seed=1, node_budget=spec.node_budget)
        report = rf.parse_report((tmp_path / record["report_file"]).read_text(encoding="utf-8"))
        assert (report.certificate, report.size, report.assignment) == (
            own.certificate,
            own.size,
            own.assignment,
        )


def test_cell_id_names_a_budget_and_non_default_retries_only():
    spec = CellSpec("random", 3, 6, "sample", 1)
    assert spec.cell_id == "random-r3-n6-m6-seed1-sample-seed1"
    assert CellSpec("random", 3, 6, "sample", 1, node_budget=0, retries=3).cell_id == (
        "random-r3-n6-m6-seed1-sample-seed1-budget0-retries3"
    )


def test_run_sweep_never_overwrites_an_earlier_sweep(tmp_path):
    spec = CellSpec("cycle", 2, 4, "local", 1)
    first, _ = sweep.run_sweep([spec], tmp_path, stamp="s")
    second, _ = sweep.run_sweep([spec], tmp_path, stamp="s")
    assert (first.name, second.name) == ("s", "s-1")


def test_verify_report_fails_a_colour_out_of_range():
    inst = rf.cycle_instance(3)
    rm = rf.RainbowMatching(((5, inst.matchings[0][0]),))
    checks = sweep.verify_report(inst, rf.ReportDoc("local", rf.CERT_LOCAL, 1, rm))
    assert str(checks[0]) == (
        "FAIL: assignment is a rainbow matching "
        "(colour 5 out of range for an instance with 3 matchings)"
    )


def test_verify_report_fails_an_exact_re_solve_out_of_budget():
    # optimum 9, below the root bound: the proof from it takes 1,071 nodes
    inst = rf.random_instance(4, 10, 10, seed=1)
    doc = sweep.run_solver(inst, "exact")
    assert (doc.certificate, doc.size) == (rf.CERT_EXACT, 9)
    checks = sweep.verify_report(inst, doc, node_budget=1)
    assert str(checks[-1]) == "FAIL: exact certificate reproducible (re-solve budget exhausted)"


def test_a_negative_node_budget_raises_in_solve_verify_and_sweep(tmp_path):
    # a negative budget names itself; it is not read as an exhausted search
    inst = rf.ach_instance(3, 4)
    doc = sweep.run_solver(inst, "exact")
    assert doc.certificate == rf.CERT_EXACT
    with pytest.raises(ValueError, match="node budget must be >= 0, got -1"):
        sweep.run_solver(inst, "exact", node_budget=-1)
    with pytest.raises(ValueError, match="node budget must be >= 0, got -1"):
        sweep.verify_report(inst, doc, node_budget=-1)
    # the local cells come first and ignore the budget, but the sweep
    # refuses the whole grid before it builds, writes or starts a pool
    cells = [
        CellSpec(construction, r, 4, solver, 1, node_budget=-1)
        for construction in ("ach", "cycle")
        for r in (2, 3)
        for solver in ("local", "exact")
    ]
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="node budget must be >= 0, got -1"):
            sweep.run_sweep(cells, tmp_path / "res", jobs=jobs, stamp="s")
        assert not (tmp_path / "res").exists()


def _relabelled_exact(matching):
    # a valid rainbow matching that claims to be a maximum
    return rf.ReportDoc("exact", rf.CERT_EXACT, matching.size, matching)


def test_verify_report_fails_a_sub_optimal_witness_on_the_search_path():
    inst = rf.random_instance(3, 10, 10, seed=1)
    witness = rf.greedy_rainbow(inst).matching
    assert witness.size == 7
    checks = sweep.verify_report(inst, _relabelled_exact(witness))
    assert [c.ok for c in checks] == [True, True, False]
    assert str(checks[-1]) == (
        "FAIL: exact certificate reproducible (re-solved maximum 10 != recorded 7)"
    )


def test_verify_report_fails_a_sub_optimal_witness_on_the_component_path():
    inst = rf.ach_instance(3, 16)
    optimum = rf.exact_max_rainbow(inst).matching
    witness = rf.RainbowMatching(optimum.assignment[:-1])
    assert witness.size == 13
    checks = sweep.verify_report(inst, _relabelled_exact(witness))
    assert [c.ok for c in checks] == [True, True, False]
    assert str(checks[-1]) == (
        "FAIL: exact certificate reproducible (re-solved maximum 14 != recorded 13)"
    )
    # the 13-edge incumbent is below the root bound, so components solve it
    assert "components" in rf.exact_max_rainbow(inst, incumbent=witness).stats.extra


@pytest.mark.parametrize(
    "inst", [rf.random_instance(3, 10, 10, seed=1), rf.ach_instance(3, 16)], ids=["random", "ach"]
)
def test_verify_report_proves_an_exact_optimum_from_its_witness(monkeypatch, inst):
    doc = sweep.run_solver(inst, "exact")
    calls = []
    real = rf.solvers.local_search_rainbow
    monkeypatch.setattr(
        rf.solvers, "local_search_rainbow", lambda *a, **k: calls.append(1) or real(*a, **k)
    )

    checks = sweep.verify_report(inst, doc)

    assert all(c.ok for c in checks)
    assert str(checks[-1]) == "ok: exact certificate reproducible"
    assert calls == []


def test_verify_report_scans_a_local_optimum_once(monkeypatch):
    # each good edge's set-pair system comes from the one good-edge table
    inst = rf.ach_instance(5, 32)
    doc = sweep.run_solver(inst, "local", seed=1)
    scans = []
    real = rf.solvers._classify
    monkeypatch.setattr(rf.solvers, "_classify", lambda *a: scans.append(1) or real(*a))

    checks = sweep.verify_report(inst, doc)

    assert all(c.ok for c in checks)
    assert sum("set-pair sum" in c.name for c in checks) == 8
    assert len(scans) == 1
