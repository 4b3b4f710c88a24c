import json
import sys
from pathlib import Path

import pytest

import rainbow_forge as rf
from rainbow_forge.cli import main


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def test_gen_and_solve_pipeline(tmp_path, capsys):
    inst_path = tmp_path / "ach34.rbf"
    assert main(["gen", "--construction", "ach", "--r", "3", "--n", "4", "--out", str(inst_path)]) == 0
    inst = rf.parse_instance(inst_path.read_text())
    assert inst.n == 4 and all(len(m) == 4 for m in inst.matchings)

    report_path = tmp_path / "ach34.json"
    assert main(["solve", "--in", str(inst_path), "--solver", "exact", "--out", str(report_path)]) == 0
    doc = rf.parse_report(report_path.read_text())
    assert doc.size == 2 and doc.certificate == "exact-optimum"

    assert main(["verify", "--in", str(inst_path), "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "ok: exact certificate reproducible" in out


def test_gen_writes_to_stdout(capsys):
    assert main(["gen", "--construction", "cycle", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("rainbow-forge/1\n")
    assert rf.parse_instance(out) == rf.cycle_instance(3)


def test_gen_dummy_and_blowup(tmp_path):
    base = tmp_path / "base.rbf"
    main(["gen", "--construction", "ach", "--r", "3", "--n", "4", "--out", str(base)])
    lifted = tmp_path / "lifted.rbf"
    assert main(["gen", "--construction", "dummy", "--in", str(base), "--m", "2", "--out", str(lifted)]) == 0
    inst = rf.parse_instance(lifted.read_text())
    assert all(len(m) == 6 for m in inst.matchings)

    # a blocked part: matchings of size 3 with no rainbow matching of size 3
    part = tmp_path / "part.rbf"
    bf = rf.find_blocking_family(3, 4, 3, budget=20, seed=0)
    part.write_text(rf.serialize_instance(bf.inst))
    composed = tmp_path / "composed.rbf"
    rc = main([
        "gen", "--construction", "blowup",
        "--in", str(part), "--blocked", "3",
        "--in", str(part), "--blocked", "3",
        "--out", str(composed),
    ])
    assert rc == 0
    comp = rf.parse_instance(composed.read_text())
    assert all(len(m) == 6 for m in comp.matchings)


def test_repeated_calls_do_not_share_their_lists(tmp_path):
    # the parser is built once per process; each call's --in and
    # --blocked lists must still be its own
    for n in (3, 4):
        base = tmp_path / f"cycle{n}.rbf"
        assert main(["gen", "--construction", "cycle", "--n", str(n), "--out", str(base)]) == 0
        lifted = tmp_path / f"lifted{n}.rbf"
        assert main(["gen", "--construction", "dummy", "--in", str(base), "--m", "1",
                     "--out", str(lifted)]) == 0
        assert rf.parse_instance(lifted.read_text()) == rf.dummy_lift(rf.cycle_instance(n), 1)

    part = tmp_path / "part.rbf"
    part.write_text(rf.serialize_instance(rf.find_blocking_family(3, 4, 3, budget=20, seed=0).inst))
    composed = []
    for k in range(2):
        out = tmp_path / f"composed{k}.rbf"
        assert main(["gen", "--construction", "blowup", "--in", str(part), "--blocked", "3",
                     "--out", str(out)]) == 0
        composed.append(out.read_text())
    assert composed[0] == composed[1]


def test_bounds_table_contains_exact_rational(capsys):
    assert main(["bounds", "--r", "3", "--n", "1000"]) == 0
    out = capsys.readouterr().out
    assert "8975/9" in out


def test_bounds_csv_format(capsys):
    assert main(["bounds", "--r", "3,4", "--n", "100", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("r,n,lower_bound_g_prime")
    assert len(out) == 3


@pytest.mark.parametrize("r", ["0", "-1"])
def test_bounds_rejects_r_below_one(r, capsys):
    assert main(["bounds", "--r", r, "--n", "5"]) == 1
    assert capsys.readouterr().err.startswith(f"invalid parameters: r must be >= 1, got {r}")


@pytest.mark.parametrize("n", ["0", "-5"])
def test_bounds_rejects_n_below_one(n, capsys):
    assert main(["bounds", "--r", "3", "--n", n]) == 1
    assert capsys.readouterr().err.startswith(f"invalid parameters: n must be >= 1, got {n}")


def test_bounds_rejects_an_empty_range(capsys):
    assert main(["bounds", "--r", ",", "--n", "5"]) == 1
    assert "usage error: empty range specification ','" in capsys.readouterr().err


def test_unreadable_inputs_exit_2_naming_the_path(tmp_path, capsys):
    inst_path = tmp_path / "a.rbf"
    main(["gen", "--construction", "ach", "--r", "3", "--n", "4", "--out", str(inst_path)])
    report_path = tmp_path / "a.json"
    main(["solve", "--in", str(inst_path), "--solver", "exact", "--out", str(report_path)])
    folder = tmp_path / "folder"
    folder.mkdir()
    latin = tmp_path / "latin.rbf"
    latin.write_bytes(inst_path.read_bytes() + "# caf\xe9\n".encode("latin-1"))
    latin_report = tmp_path / "latin.json"
    note = '{"note": "caf\xe9",'.encode("latin-1")
    latin_report.write_bytes(report_path.read_bytes().replace(b"{", note, 1))
    through = inst_path / "x.rbf"  # a path through a regular file
    capsys.readouterr()
    cases = [
        (["solve", "--in", str(through), "--solver", "exact"], f"{through} needs a directory"),
        (["verify", "--in", str(inst_path), "--report", str(through)], f"{through} needs a directory"),
        (["solve", "--in", str(folder), "--solver", "exact"], f"{folder} is a directory"),
        (["verify", "--in", str(folder), "--report", str(report_path)], f"{folder} is a directory"),
        (["verify", "--in", str(inst_path), "--report", str(folder)], f"{folder} is a directory"),
        (["gen", "--construction", "dummy", "--in", str(folder), "--m", "1"], f"{folder} is a directory"),
        (["solve", "--in", str(latin), "--solver", "exact"], f"{latin} is not UTF-8 text"),
        (["verify", "--in", str(latin), "--report", str(report_path)], f"{latin} is not UTF-8 text"),
        (
            ["verify", "--in", str(inst_path), "--report", str(latin_report)],
            f"{latin_report} is not UTF-8 text",
        ),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"unreadable file: {message}") and err.count("\n") == 1, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--construction", "ach", "--r", "3", "--n", "4"],
        ["solve", "--in", "{inst}", "--solver", "exact"],
        ["bounds", "--r", "3", "--n", "4"],
    ],
    ids=["gen", "solve", "bounds"],
)
def test_output_directory_exits_2_naming_the_path(tmp_path, capsys, argv):
    inst_path = tmp_path / "a.rbf"
    main(["gen", "--construction", "ach", "--r", "3", "--n", "4", "--out", str(inst_path)])
    folder = tmp_path / "folder"
    folder.mkdir()
    capsys.readouterr()
    argv = [a.format(inst=inst_path) for a in argv]
    assert main(argv + ["--out", str(folder)]) == 2
    assert capsys.readouterr().err.startswith(f"unwritable file: {folder} is a directory")
    assert list(folder.iterdir()) == []
    # a path through a regular file
    data = inst_path.read_bytes()
    through = inst_path / "x.out"
    assert main(argv + ["--out", str(through)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"unwritable file: {through} needs a directory") and err.count("\n") == 1
    assert inst_path.read_bytes() == data


def test_sweep_out_through_a_file_exits_2_naming_the_path(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out in (afile, afile / "results"):
        argv = ["sweep", "--construction", "ach", "--r", "3", "--n", "4", "--solver", "exact"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"unwritable file: {out} needs a directory") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [afile] and afile.read_text() == "kept\n"


def test_instance_files_are_utf8(tmp_path):
    inst_path = tmp_path / "a.rbf"
    inst = rf.Instance(r=2, matchings=(((0, 1),),), meta={"note": "caf\xe9"})
    inst_path.write_bytes(rf.serialize_instance(inst).encode("utf-8"))
    out = tmp_path / "lifted.rbf"
    argv = ["gen", "--construction", "dummy", "--in", str(inst_path), "--m", "1", "--out", str(out)]
    assert main(argv) == 0
    assert rf.parse_instance(out.read_text(encoding="utf-8")).meta["note"] == "caf\xe9"


def test_exit_codes(tmp_path, capsys):
    assert main(["gen", "--construction", "k4", "--n", "4"]) == 1  # bad parameter
    assert main(["gen", "--construction", "nope", "--n", "4"]) == 1  # argparse choice
    bad = tmp_path / "bad.rbf"
    bad.write_text("not-a-version\n")
    assert main(["solve", "--in", str(bad), "--solver", "exact"]) == 2
    capsys.readouterr()

    inst_path = tmp_path / "a.rbf"
    main(["gen", "--construction", "ach", "--r", "3", "--n", "4", "--out", str(inst_path)])
    out_path = tmp_path / "a.json"
    assert main([
        "solve", "--in", str(inst_path), "--solver", "exact",
        "--node-budget", "2", "--out", str(out_path),
    ]) == 3
    capsys.readouterr()


def test_solve_exits_3_on_a_budgeted_search_deeper_than_the_recursion_limit(tmp_path, capsys):
    # the exact search goes about 300 levels deep on this family, past a
    # recursion limit of 250; solve must still exit 3 with the budgeted
    # heuristic report, not with a RecursionError traceback
    inst_path = tmp_path / "random.rbf"
    inst_path.write_text(rf.serialize_instance(rf.random_instance(2, 300, 300, seed=1)))
    report_path = tmp_path / "random.json"
    argv = ["solve", "--in", str(inst_path), "--solver", "exact", "--node-budget", "400",
            "--out", str(report_path)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        rc = main(argv)
    finally:
        sys.setrecursionlimit(limit)
    assert rc == 3
    assert "node budget exhausted" in capsys.readouterr().err
    doc = rf.parse_report(report_path.read_text())
    assert (doc.certificate, doc.size, doc.stats["nodes"]) == ("heuristic", 296, 401)


def test_solve_exits_3_when_sample_and_extend_fails(tmp_path, capsys):
    inst_path = tmp_path / "r.rbf"
    argv = ["gen", "--construction", "random", "--r", "3", "--n", "10", "--seed", "1"]
    assert main(argv + ["--out", str(inst_path)]) == 0
    capsys.readouterr()
    assert main(["solve", "--in", str(inst_path), "--solver", "sample"]) == 3
    assert "sample-and-extend failed at stage sampling" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "missing file: "),
        ("", "invalid instance: line 1: empty document"),
        ("rainbow-forge/1\nr 2\nn 1\nmeta\nmatching 0\n  0 1\n",
         "invalid instance: line 4: meta line needs a key"),
    ],
    ids=["missing", "empty", "bare-meta"],
)
def test_bad_instance_files_exit_2(tmp_path, capsys, text, message):
    inst_path = tmp_path / "a.rbf"
    if text is not None:
        inst_path.write_text(text)
    assert main(["solve", "--in", str(inst_path), "--solver", "exact"]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_verify_rejects_tampered_report(tmp_path, capsys):
    inst_path = tmp_path / "a.rbf"
    report_path = tmp_path / "a.json"
    main(["gen", "--construction", "ach", "--r", "3", "--n", "4", "--out", str(inst_path)])
    main(["solve", "--in", str(inst_path), "--solver", "exact", "--out", str(report_path)])
    payload = json.loads(report_path.read_text())
    payload["assignment"].append([3, [9, 10, 11]])
    payload["size"] += 1
    report_path.write_text(json.dumps(payload))
    assert main(["verify", "--in", str(inst_path), "--report", str(report_path)]) == 4
    assert "FAIL" in capsys.readouterr().out


def _verify_edited_report(tmp_path, capsys, edit):
    """Exit code and stderr of ``verify`` on an exact report after ``edit``."""
    inst_path = tmp_path / "a.rbf"
    report_path = tmp_path / "a.json"
    main(["gen", "--construction", "ach", "--r", "3", "--n", "4", "--out", str(inst_path)])
    main(["solve", "--in", str(inst_path), "--solver", "exact", "--out", str(report_path)])
    payload = json.loads(report_path.read_text())
    edit(payload)
    report_path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["verify", "--in", str(inst_path), "--report", str(report_path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("key", ["solver", "certificate", "size", "assignment"])
def test_verify_rejects_report_missing_a_field(tmp_path, capsys, key):
    code, err = _verify_edited_report(tmp_path, capsys, lambda payload: payload.pop(key))
    assert code == 1
    assert err.startswith("invalid parameters:") and repr(key) in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("assignment", [[0, 5]]),
        ("assignment", 5),
        ("assignment", [[0]]),
        ("size", None),
        ("stats", 5),
        ("size", 2.9),
        ("size", True),
        ("assignment", [[0, [1.7, 2, 3]]]),
        ("assignment", [[True, [0, 1, 2]]]),
        ("assignment", [[0, [True, 1, 2]]]),
        ("assignment", [[0.0, [0, 1, 2]]]),
        ("assignment", [[0, ["0", 1, 2]]]),
        ("certificate", "proven-maximum"),
        ("certificate", 5),
        ("certificate", "failure"),  # with no failure object
    ],
)
def test_verify_rejects_report_with_a_malformed_field(tmp_path, capsys, key, value):
    code, err = _verify_edited_report(tmp_path, capsys, lambda payload: payload.update({key: value}))
    assert code == 1
    assert err.startswith("invalid parameters:") and repr(key) in err


def test_gen_rejects_r_a_family_does_not_build(capsys):
    assert main(["gen", "--construction", "cycle", "--r", "5", "--n", "4"]) == 1
    assert main(["gen", "--construction", "k4", "--r", "3", "--n", "5"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["gen", "--construction", "cycle", "--r", "2", "--n", "4"]) == 0
    assert rf.parse_instance(capsys.readouterr().out) == rf.cycle_instance(4)


def test_sweep_skips_random_cells_with_size_zero(tmp_path, capsys):
    argv = lambda construction, out: [
        "sweep", "--construction", construction, "--r", "2", "--n", "3", "--size", "0",
        "--solver", "exact", "--out", str(out),
    ]
    assert main(argv("cycle,random", tmp_path / "mixed")) == 0
    sweep_dir = next((tmp_path / "mixed" / "sweeps").iterdir())
    records = [json.loads(line) for line in (sweep_dir / "records.jsonl").read_text().splitlines()]
    assert [rec["construction"] for rec in records] == ["cycle"]

    assert main(argv("random", tmp_path / "empty")) == 1
    assert "no valid grid cells" in capsys.readouterr().err
    assert not (tmp_path / "empty").exists()


def test_verify_validates_the_instance_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = rf.core.validate_instance

    def counted(inst):
        calls.append(inst)
        return original(inst)

    # every module that binds the name, so that a call by any of them counts
    for module in (rf.core, rf.fileformat, rf.cli):
        if getattr(module, "validate_instance", None) is original:
            monkeypatch.setattr(module, "validate_instance", counted)
    inst_path = tmp_path / "ach34.rbf"
    report_path = tmp_path / "ach34.json"
    main(["gen", "--construction", "ach", "--r", "3", "--n", "4", "--out", str(inst_path)])
    main(["solve", "--in", str(inst_path), "--solver", "exact", "--out", str(report_path)])
    capsys.readouterr()
    calls.clear()
    assert main(["verify", "--in", str(inst_path), "--report", str(report_path)]) == 0
    assert len(calls) == 1
    assert "ok: instance valid" in capsys.readouterr().out.splitlines()

    # matching 0 gets two edges on vertex 4: the parse rejects the file
    text = inst_path.read_text()
    assert "  0 4 5\n  1 2 3\n" in text
    inst_path.write_text(text.replace("  0 4 5\n  1 2 3\n", "  0 4 5\n  1 2 4\n", 1))
    calls.clear()
    assert main(["verify", "--in", str(inst_path), "--report", str(report_path)]) == 2
    assert len(calls) == 1
    assert capsys.readouterr().err.startswith("invalid instance:")


def test_verify_local_certificate(tmp_path, capsys):
    inst_path = tmp_path / "a.rbf"
    report_path = tmp_path / "a.json"
    main(["gen", "--construction", "ach", "--r", "3", "--n", "6", "--out", str(inst_path)])
    main(["solve", "--in", str(inst_path), "--solver", "local", "--seed", "3", "--out", str(report_path)])
    assert main(["verify", "--in", str(inst_path), "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "ok: no extension move" in out
    assert "ok: good-edge counting inequality" in out
    assert "set-pair system cross-intersecting" in out


def _verify_lines(inst_path, report_path, capsys):
    """Exit code and printed lines of ``verify``, and the checks
    ``verify_report`` returns on the same files."""
    capsys.readouterr()
    code = main(["verify", "--in", str(inst_path), "--report", str(report_path)])
    lines = capsys.readouterr().out.splitlines()
    checks = rf.sweep.verify_report(
        rf.parse_instance(inst_path.read_text()), rf.parse_report(report_path.read_text())
    )
    return code, lines, checks


@pytest.mark.parametrize("solver", ["exact", "local"])
def test_verify_prints_the_checks_of_verify_report(tmp_path, capsys, solver):
    inst_path = tmp_path / "a.rbf"
    report_path = tmp_path / "a.json"
    main(["gen", "--construction", "ach", "--r", "3", "--n", "6", "--out", str(inst_path)])
    main(["solve", "--in", str(inst_path), "--solver", solver, "--out", str(report_path)])
    code, lines, checks = _verify_lines(inst_path, report_path, capsys)
    assert code == 0
    # the CLI's own line for the parse, then the library's checks
    assert lines == ["ok: instance valid"] + [f"ok: {check.name}" for check in checks]
    names = [check.name for check in checks]
    if solver == "exact":
        assert names[2:] == ["exact certificate reproducible"]
    else:
        assert names[2:5] == ["no extension move", "no swap move", "good-edge counting inequality"]
        assert len(names) > 5  # the checks on its good edges


# colours 1 and 2 each meet the edge of colour 0 in one vertex and are
# disjoint from each other: {0: (0,1,2)} admits a swap, {1: (0,5,6)} an
# extension by (1,7,8)
MOVES = rf.Instance(r=3, matchings=(((0, 1, 2),), ((0, 5, 6),), ((1, 7, 8),)))


# the line each failed check prints, with the move it found
MOVE_LINES = {
    "no extension move": "FAIL: no extension move (colour 2 edge (1, 7, 8))",
    "no swap move": "FAIL: no swap move (((0, (0, 1, 2)), (1, (0, 5, 6)), (2, (1, 7, 8))))",
}


@pytest.mark.parametrize(
    "assignment, failed",
    [(((1, (0, 5, 6)),), "no extension move"), (((0, (0, 1, 2)),), "no swap move")],
)
def test_verify_fails_a_local_optimum_that_admits_a_move(tmp_path, capsys, assignment, failed):
    inst_path = tmp_path / "moves.rbf"
    report_path = tmp_path / "moves.json"
    inst_path.write_text(rf.serialize_instance(MOVES))
    rm = rf.RainbowMatching(assignment)
    report_path.write_text(rf.serialize_report(rf.ReportDoc("local", rf.CERT_LOCAL, rm.size, rm)))
    code, lines, checks = _verify_lines(inst_path, report_path, capsys)
    assert code == 4
    assert [check.name for check in checks if not check.ok] == [failed]
    assert checks[-1].name == failed
    assert lines[-1] == MOVE_LINES[failed]


def test_sweep_builds_each_instance_once(tmp_path, capsys, monkeypatch):
    built = []
    real = rf.sweep.random_instance
    monkeypatch.setattr(
        rf.sweep, "random_instance", lambda *args: built.append(args) or real(*args)
    )
    # r = 1 is outside the domain: its build raises, and no record is written
    assert main([
        "sweep", "--construction", "random", "--r", "1..3", "--n", "3,4",
        "--solver", "exact,local", "--seed", "5", "--out", str(tmp_path),
    ]) == 0
    assert "8 cells" in capsys.readouterr().out
    assert built == [(r, n, n, 5) for r in (1, 2, 3) for n in (3, 4)]


def test_sweep_runs_a_repeated_cell_once(tmp_path, capsys):
    assert main([
        "sweep", "--construction", "cycle", "--r", "2", "--n", "4,4",
        "--solver", "local", "--seed", "1", "--out", str(tmp_path),
    ]) == 0
    assert capsys.readouterr().out.startswith("1 cells -> ")
    (records,) = (tmp_path / "sweeps").glob("*/records.jsonl")
    assert len(records.read_text().splitlines()) == 1


def test_sweep_layout_and_determinism(tmp_path, capsys):
    argv = lambda out: [
        "sweep", "--construction", "cycle,random", "--r", "2..3", "--n", "3..4",
        "--solver", "exact,local", "--seed", "11", "--out", str(out),
    ]
    assert main(argv(tmp_path / "one")) == 0
    assert main(argv(tmp_path / "two")) == 0
    capsys.readouterr()

    def load(root):
        sweep_dir = next((root / "sweeps").iterdir())
        records = [
            json.loads(line)
            for line in (sweep_dir / "records.jsonl").read_text().splitlines()
        ]
        csv_rows = (sweep_dir / "summary.csv").read_text().strip().splitlines()
        return sweep_dir, records, csv_rows

    dir1, rec1, csv1 = load(tmp_path / "one")
    _, rec2, _ = load(tmp_path / "two")
    assert len(csv1) - 1 == len(rec1)  # header plus one row per record
    assert strip_timing(rec1) == strip_timing(rec2)
    assert rec1, "expected at least one valid grid cell"

    # instance files byte-identical between the runs
    for path in sorted((tmp_path / "one" / "instances").iterdir()):
        twin = tmp_path / "two" / "instances" / path.name
        assert path.read_bytes() == twin.read_bytes()

    # every record re-verifiable from the persisted artifacts alone
    for record in rec1:
        rc = main([
            "verify",
            "--in", str(tmp_path / "one" / record["instance_file"]),
            "--report", str(tmp_path / "one" / record["report_file"]),
        ])
        assert rc == 0
    capsys.readouterr()


def test_sweep_concurrent_matches_serial(tmp_path, capsys):
    argv = lambda out, jobs: [
        "sweep", "--construction", "random", "--r", "3", "--n", "3..5",
        "--solver", "exact", "--seed", "4", "--jobs", jobs, "--out", str(out),
    ]
    assert main(argv(tmp_path / "serial", "1")) == 0
    assert main(argv(tmp_path / "parallel", "3")) == 0
    capsys.readouterr()

    def records(root):
        sweep_dir = next((root / "sweeps").iterdir())
        return [
            json.loads(line)
            for line in (sweep_dir / "records.jsonl").read_text().splitlines()
        ]

    assert strip_timing(records(tmp_path / "serial")) == strip_timing(records(tmp_path / "parallel"))


def test_sweep_concurrent_instance_groups_match_serial(tmp_path, capsys):
    # four solver cells per instance: each task runs a group of cells
    argv = lambda out, jobs: [
        "sweep", "--construction", "cycle,ach,random", "--r", "2..3", "--n", "4..5",
        "--solver", "exact,greedy,local,sample", "--seed", "4", "--jobs", jobs,
        "--out", str(out),
    ]
    assert main(argv(tmp_path / "serial", "1")) == 0
    assert main(argv(tmp_path / "parallel", "3")) == 0
    capsys.readouterr()

    def records(root):
        sweep_dir = next((root / "sweeps").iterdir())
        return [
            json.loads(line)
            for line in (sweep_dir / "records.jsonl").read_text().splitlines()
        ]

    def files(root, folder):
        return {
            path.name: [line for line in path.read_text().splitlines() if '"wall_time"' not in line]
            for path in (root / folder).iterdir()
        }

    serial = records(tmp_path / "serial")
    assert len(serial) == 4 * len(files(tmp_path / "serial", "instances"))
    assert strip_timing(serial) == strip_timing(records(tmp_path / "parallel"))
    for folder in ("instances", "reports"):
        assert files(tmp_path / "serial", folder) == files(tmp_path / "parallel", folder)
