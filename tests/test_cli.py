import json
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
