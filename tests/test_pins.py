"""Pinned digests of seeded and constructed families on every Python.

Each digest is the sha256 of what the package writes for one family or
report, computed when the table was written: a seed, a search or a
construction must give the same bytes on every Python the package
supports, and a change to the generator, the blocking search, a union's
runs and tails, the sampled path of sample-and-extend or the file format
fails here.  The README's quick start runs here too, through
``cli.main``, with its files pinned and every sweep record verified.
"""

import contextlib
import csv
import hashlib
import io
import json
import os

import pytest

from rainbow_forge import (
    ach_instance,
    blowup_compose,
    certify_blocking_family,
    cycle_instance,
    dummy_lift,
    find_blocking_family,
    k4_union_instance,
    random_instance,
    serialize_instance,
    serialize_report,
)
from rainbow_forge.cli import main
from rainbow_forge.sweep import run_solver


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# serialize_instance(random_instance(r, n, s, seed))
SEEDED = {
    (3, 200, 200, 1): "6863d1501a9938623a01a24763baaaf9d81660262e95c3af0723c53d3eea4063",
    (2, 40, 40, 5): "0bb5423ac27a3ac26296a181953e91ee6f8aa3d2aea50fea568880a96982644d",
    (4, 11, 11, 7): "1ed70f10098bbe2598714f4908e73c0ac4c48cf44e13a5085ea970b2a6110091",
    (3, 300, 5, 1): "4fc566b465a6bf9f1cf3438cefcc47b58aa8b4fa2215fe38f57d69cd77813760",
}


@pytest.mark.parametrize("r, n, s, seed", SEEDED)
def test_seeded_random_family_is_pinned(r, n, s, seed):
    assert _sha256(serialize_instance(random_instance(r, n, s, seed=seed))) == SEEDED[r, n, s, seed]


# serialize_instance(bf.inst) for find_blocking_family(r, n, t,
# budget=budget, seed=seed), or None when the budget runs out: the gadget
# family (the benchmark's blow-up part), the truncated ach and cycle
# families, and random walks found after 13, 189, 60 and 365 solver calls;
# 2t - 1 = 5 matchings of size 3 always hold a rainbow 3-matching
BLOCKING = {
    (3, 4, 2, 1, 200): "d8a8df7f371ddc10aace99fea39243afdf4930be1c5b08c3e013e8f201736812",
    (3, 4, 3, 0, 400): "ab659f4057fc410baf70c4114d5c0f0acc6b5a1ab061b04ea07c6fbace67ded9",
    (2, 3, 3, 0, 400): "35324ea10d6df91572d58cfeb78dacd6c5a7cf8130da3b48f971e80349eb2fcb",
    (2, 4, 3, 0, 400): "553b49e863149f9b88fc92ee7a2d8bdfd28fd6cd74a544c361f5abf4388fb591",
    (2, 5, 4, 0, 400): "9fa5f4eb5b646ad1e0ed085316e160bdd112b34de0182cdc82293e135cebd121",
    (3, 5, 3, 0, 400): "4c21a542f34d7670984cc3dece8d2e30a1874dd48964d4edb98a6fc1f123b887",
    (3, 6, 3, 0, 400): "4f235041d8ff1ee000f421a553ec9b6369e0ada3cc14b575431c8b5d2c35292b",
    (2, 5, 3, 0, 400): None,
}


@pytest.mark.parametrize("r, n, t, seed, budget", BLOCKING)
def test_blocking_family_is_pinned(r, n, t, seed, budget):
    bf = find_blocking_family(r, n, t, budget=budget, seed=seed)
    assert (bf and _sha256(serialize_instance(bf.inst))) == BLOCKING[r, n, t, seed, budget]


# digest, number of runs (colours sharing one matching object) and longest
# shared tail, for the unions ach, k4, the dummy lift and the blow-up
# build: the benchmark's paper-exact and large-heuristic families,
# ach(7, 128) and a blow-up of a certified ach part
CONSTRUCTIONS = {
    "ach_instance(3, 64)": (lambda: ach_instance(3, 64),
        "52669657ca03ba91bf335f30aaa5190a25cc55a99e6d6b4bbb5ff6d19c1ca59a", 4, 0),
    "ach_instance(5, 32)": (lambda: ach_instance(5, 32),
        "d5ad1f4065346b816c9063c8890df9c60137d00d2d75603d912f4b1102a5d41d", 16, 0),
    "ach_instance(7, 128)": (lambda: ach_instance(7, 128),
        "ae31ee768927416f7161f5158c65a8c06215869c80c8f6f09a1fe020fa7faf41", 64, 0),
    "k4_union_instance(41)": (lambda: k4_union_instance(41),
        "959c1e2fdc041223b81ac7e62a3c3aa0e6f8a84154b7e1a8512232ded8327cd3", 3, 0),
    "dummy_lift(ach_instance(4, 8), 2)": (lambda: dummy_lift(ach_instance(4, 8), 2),
        "84864ac2fa30253cd97d523013f1a08a47141077a56871d5965315828175585c", 8, 2),
    "dummy_lift(random_instance(3, 300, 5, seed=1), 595)": (
        lambda: dummy_lift(random_instance(3, 300, 5, seed=1), 595),
        "99e43c009a9c1dcf56ea8c28dd5ed3bc53cb67be3a1fdda09e687667d4269beb", 300, 595),
    "blowup_compose([find_blocking_family(3, 4, 2, seed=1)] * 3)": (
        lambda: blowup_compose([find_blocking_family(3, 4, 2, seed=1)] * 3),
        "8a708e4646ffb690b375b1ef4fc118a9c213a06e21d253ae3e1496a69cf51e84", 4, 0),
    "blowup_compose([certify_blocking_family(ach_instance(3, 4), 3)] * 2)": (
        lambda: blowup_compose([certify_blocking_family(ach_instance(3, 4), 3)] * 2),
        "14c65e315c9cf8c080e4dd824cc145c8c5792a27afdd74e298128965a3c08670", 4, 0),
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_construction_is_pinned(name):
    build, digest, runs, tail = CONSTRUCTIONS[name]
    inst = build()
    assert (_sha256(serialize_instance(inst)), len(inst.runs), max(inst.tails)) == (digest, runs, tail)


def _drop_wall_time(o):
    if isinstance(o, dict):
        return {k: _drop_wall_time(v) for k, v in o.items() if k != "wall_time"}
    return o


# certificate, size, stats.extra checks_met and attempts, and the digest of
# the sample report with every wall_time dropped, for two dummy lifts at
# r = 2 whose sample is drawn below p = 1 and meets the per-colour
# conditions at the first attempt (no benchmark cell reaches this path)
SAMPLED = {
    "dummy_lift(cycle_instance(1000), 20000)": (
        lambda: dummy_lift(cycle_instance(1000), 20000),
        ("heuristic", 1000, True, 1, "2832b231667deca9b47f5da365183bd96be3bd3575086a6a8d3f8179e395b74e")),
    "dummy_lift(k4_union_instance(1001), 20000)": (
        lambda: dummy_lift(k4_union_instance(1001), 20000),
        ("heuristic", 1001, True, 1, "4ec6d9ab0b53ec08c906e3f434a8e825fe36be9738620024528a3a6eb5b9996e")),
}


@pytest.mark.parametrize("name", SAMPLED)
def test_sampled_path_is_pinned(name):
    build, expected = SAMPLED[name]
    doc = json.loads(serialize_report(run_solver(build(), "sample", seed=1)))
    text = json.dumps(_drop_wall_time(doc), indent=2, sort_keys=True)
    extra = doc["stats"]["extra"]
    assert (doc["certificate"], doc["size"], extra["checks_met"], extra["attempts"], _sha256(text)) == expected


# the README's quick start, run in a directory of its own
QUICK_START = (
    "gen --construction ach --r 3 --n 4 --out ach34.rbf",
    "solve --in ach34.rbf --solver exact --out ach34.json",
    "verify --in ach34.rbf --report ach34.json",
    "bounds --r 3 --n 1000",
    "sweep --construction cycle,ach,random --r 2..3 --n 4..8 --solver exact,local --seed 13 --out results/",
)

# sha256 of the quick-start files with every wall_time dropped, as
# written at db6a6ec (summary.csv and the bounds table at c0b12ab): a
# change to the file format, the report, the sweep records or summary or
# the bounds columns fails here; bounds.txt is the table the quick start
# prints, bounds.csv the same with --format csv
QUICK_START_FILES = {
    "ach34.rbf": "a8612c1dc3673718927d50b7418c6840bdfa02b8ad38b7f9373cb0e78513fc26",
    "ach34.json": "24a0b3497b5b42eb2d83253bce8cf6c5ec5f01c81ced9d9b259ccee9f97a29b6",
    "records.jsonl": "25841ef369d85f839af1d12a752a200bad98c6d4fdc45a4bba8856161ef2233e",
    "summary.csv": "e7b710aa3bdf70dadc28f26f3a05b6f1e54203b0539a6711d23db3dc35a80460",
    "bounds.txt": "6b04a2c0abe29161844e9c133694280c4cfdb3d2feb6ed1930c7c95ef90f1e43",
    "bounds.csv": "0ea20a3ada49440cb310afa85f60c9d4cd6bcd939c5303558a1b61dd523df73e",
}


def _run(*argv) -> str:
    """``rainbow-forge argv`` in process; its stdout, after a zero exit."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([str(a) for a in argv]) == 0, argv
    return out.getvalue()


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory):
    """The quick start's folder, its files keyed as in QUICK_START_FILES
    with every wall_time dropped, and its sweep records."""
    folder = tmp_path_factory.mktemp("quickstart")
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        printed = [_run(*argv.split()) for argv in QUICK_START]
        bounds_csv = _run(*"bounds --r 3 --n 1000 --format csv".split())
    finally:
        os.chdir(cwd)
    (sweep,) = (folder / "results" / "sweeps").iterdir()
    with open(sweep / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("wall_time")
    summary = io.StringIO()
    csv.writer(summary).writerows(row[:col] + row[col + 1 :] for row in rows)
    records = [json.loads(line) for line in (sweep / "records.jsonl").read_text().splitlines()]
    texts = {
        "ach34.rbf": (folder / "ach34.rbf").read_text(),
        "ach34.json": json.dumps(
            _drop_wall_time(json.loads((folder / "ach34.json").read_text())), indent=2, sort_keys=True
        ),
        "records.jsonl": "".join(json.dumps(_drop_wall_time(rec), sort_keys=True) + "\n" for rec in records),
        "summary.csv": summary.getvalue(),
        "bounds.txt": printed[3],
        "bounds.csv": bounds_csv,
    }
    return folder, texts, records


@pytest.mark.parametrize("name", QUICK_START_FILES)
def test_quick_start_output_is_pinned(quick_start, name):
    _, texts, _ = quick_start
    assert _sha256(texts[name]) == QUICK_START_FILES[name]


def test_every_quick_start_record_verifies(quick_start):
    # every record can be checked again from its files: the sweep's
    # local certificates too, not only the exact report
    folder, _, records = quick_start
    assert len(records) == 36
    results = folder / "results"
    for record in records:
        _run("verify", "--in", results / record["instance_file"], "--report", results / record["report_file"])


def test_component_dp_certifies_ach_7_128_through_the_cli(tmp_path):
    # 64 gadget components: solve runs the component DP (8,736 states
    # past 130 enumeration nodes), and verify proves the recorded optimum
    # again from its witness; a change in the state count shows in
    # stats.nodes
    rbf, report = tmp_path / "ach7.rbf", tmp_path / "ach7.json"
    _run("gen", "--construction", "ach", "--r", 7, "--n", 128, "--out", rbf)
    _run("solve", "--in", rbf, "--solver", "exact", "--out", report)
    doc = json.loads(report.read_text())
    assert (doc["certificate"], doc["size"], doc["stats"]["nodes"]) == ("exact-optimum", 96, 8866)
    _run("verify", "--in", rbf, "--report", report)
