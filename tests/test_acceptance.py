"""Acceptance suite.

One test per criterion, each printing a single summary line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Expected
values marked as derived were pinned with the independent brute-force
oracle in ``oracle.py``.
"""

import json
import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import rainbow_forge as rf
from rainbow_forge.cli import main as cli_main

from oracle import brute_force_max_rainbow


def _line(name: str, ok: bool, detail: str = "") -> str:
    text = f"{name}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else "")
    print(text)
    return text


# ---------------------------------------------------------------------------
# criterion 1: construction exactness


def test_c1_construction_exactness():
    per_solve_limit = 10.0
    for n in range(2, 9):
        t0 = time.perf_counter()
        rep = rf.exact_max_rainbow(rf.cycle_instance(n))
        elapsed = time.perf_counter() - t0
        assert rep.certificate == rf.CERT_EXACT
        assert rep.size == n - 1, f"cycle({n}) maximum {rep.size}"
        assert elapsed < per_solve_limit

    for n in (3, 5, 7):
        t0 = time.perf_counter()
        rep = rf.exact_max_rainbow(rf.k4_union_instance(n))
        elapsed = time.perf_counter() - t0
        assert rep.certificate == rf.CERT_EXACT
        assert rep.size < n, f"k4({n}) admits a rainbow matching of size n"
        assert rep.size == n - 1, f"k4({n}) maximum {rep.size}"
        assert elapsed < per_solve_limit

    equality_log = []
    for r, n in ((3, 4), (3, 6), (3, 8), (4, 8)):
        cap = n - 2 ** (r - 2)
        t0 = time.perf_counter()
        rep = rf.exact_max_rainbow(rf.ach_instance(r, n))
        elapsed = time.perf_counter() - t0
        assert rep.certificate == rf.CERT_EXACT
        assert rep.size <= cap, f"ach({r},{n}) maximum {rep.size} above {cap}"
        assert elapsed < per_solve_limit
        equality_log.append(f"ach({r},{n})={rep.size}{'=' if rep.size == cap else '<'}cap")
    _line("C1 construction exactness", True, "; ".join(equality_log))


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence


def test_c2_oracle_equivalence():
    rng = random.Random(20260809)
    t0 = time.perf_counter()
    disagreements = 0
    for i in range(500):
        r = rng.choice((2, 3, 4))
        n = rng.randint(0, 5)
        s = rng.randint(1, 5)
        inst = rf.random_instance(r, n, s, seed=i)
        if rf.exact_max_rainbow(inst).size != brute_force_max_rainbow(inst):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 60.0
    _line("C2 oracle equivalence", ok, f"500 instances, {disagreements} disagreements, {elapsed:.1f}s")
    assert disagreements == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criteria 3 and 4 share one instance corpus


@pytest.fixture(scope="module")
def square_instances():
    rng = random.Random(7)
    out = []
    for i in range(200):
        r = rng.choice((3, 4))
        n = rng.randint(4, 12)
        out.append(rf.random_instance(r, n, n, seed=1000 + i))
    return out


def test_c3_counting_inequality_suite(square_instances):
    failures = 0
    for inst in square_instances:
        size = rf.exact_max_rainbow(inst).size
        if not rf.check_gibounds(inst.r, inst.n, inst.n, size).holds:
            failures += 1
    _line("C3 counting inequality on exact optima", failures == 0, f"{len(square_instances)} instances")
    assert failures == 0


def test_c4_local_search_floor_suite(square_instances):
    failures = 0
    for inst in square_instances:
        rep = rf.local_search_rainbow(inst, seed=5)
        floor = rf.lower_bound_g_prime(inst.r, inst.n)
        target = max(0, floor.ceiling)
        if rep.size < target:
            failures += 1
        if not rf.check_gibounds(inst.r, inst.n, inst.n, rep.size).holds:
            failures += 1
    _line("C4 local-search floor and inequality", failures == 0, f"{len(square_instances)} instances")
    assert failures == 0


# ---------------------------------------------------------------------------
# criterion 5: cross-intersecting extraction


def test_c5_setpair_suite():
    optima = 0
    systems = 0
    for r, n in ((3, 4), (3, 6), (3, 8), (4, 8)):
        inst = rf.ach_instance(r, n)
        cap = comb(2 * r, r)
        for seed in range(25):
            rm = rf.local_search_rainbow(inst, seed=seed).matching
            assert rf.find_extension(inst, rm) is None
            assert rf.find_swap(inst, rm) is None
            table = rf.good_edges(inst, rm)
            found = False
            for _, e in rm.assignment:
                ell = sum(1 for c in table.good if e in table.good[c])
                if ell == 0:
                    continue
                assert 2 * ell <= cap, f"{ell} good colours exceeds C(2r,r)/2"
                system = rf.extract_setpairs(inst, rm, e)
                ok, violation = rf.is_cross_intersecting(system)
                assert ok, f"violation at {violation}"
                assert rf.bollobas_sum(system) <= 1
                systems += 1
                found = True
            if found:
                optima += 1
    _line("C5 set-pair extraction", optima >= 100, f"{optima} optima, {systems} systems")
    assert optima >= 100


# ---------------------------------------------------------------------------
# criterion 6: compositions


def test_c6a_blowup_compositions():
    g2 = {n: rf.find_blocking_family(3, n, 2, budget=20, seed=0) for n in range(2, 5)}
    t3 = {n: rf.find_blocking_family(3, n, 3, budget=20, seed=0) for n in range(2, 5)}
    assert all(g2.values()) and all(t3.values())

    compositions = []
    for n in range(2, 5):
        compositions.append([g2[n], g2[n]])
        compositions.append([g2[n], t3[n]])
        compositions.append([t3[n], g2[n]])
        compositions.append([t3[n], t3[n]])
        compositions.append([g2[n], g2[n], g2[n]])
        compositions.append([g2[n], t3[n], t3[n]])
        compositions.append([t3[n], t3[n], t3[n]])
        compositions.append([g2[n], g2[n], t3[n]])
    assert len(compositions) >= 20

    for parts in compositions:
        inst = rf.blowup_compose(parts)
        cap = sum(bf.blocked_size for bf in parts) - len(parts)
        size = rf.exact_max_rainbow(inst).size
        assert size <= cap, f"composition reached {size} > {cap}"
    _line("C6a blow-up compositions", True, f"{len(compositions)} compositions")


def test_c6b_dummy_lift_blocking():
    # the lift theorem: a family with no rainbow matching of size n - m,
    # lifted by m shared edges, has none of size n.  ach(3, 4) has exact
    # maximum 2, so the premise holds for m = 1 (2 < n - m = 3) and the
    # lifted maximum, pinned with the oracle, is 3 < n
    base = rf.ach_instance(3, 4)
    n, m = base.n, 1
    base_rep = rf.exact_max_rainbow(base)
    assert base_rep.certificate == rf.CERT_EXACT
    assert base_rep.size == 2 and base_rep.size < n - m, (
        f"premise fails: base maximum {base_rep.size}, n - m = {n - m}"
    )

    lifted = rf.dummy_lift(base, m)
    rep = rf.exact_max_rainbow(lifted)
    oracle = brute_force_max_rainbow(lifted)
    ok = (
        rep.certificate == rf.CERT_EXACT
        and rep.size == 3
        and rep.size < n
        and oracle == rep.size
    )

    _line(
        "C6b dummy-lift blocking",
        ok,
        f"ach(3,4): base maximum {base_rep.size} < n - m = {n - m}; lift by m={m} has "
        f"exact maximum {rep.size} < n = {n} (oracle {oracle})",
    )
    assert ok, (
        f"dummy_lift(ach_instance(3, 4), {m}): base maximum {base_rep.size}, "
        f"n - m = {n - m}, lifted maximum {rep.size} ({rep.certificate}), "
        f"oracle {oracle}; expected 3 < n = {n}"
    )

    # boundary: with m = 2 the base reaches n - m, so the premise fails
    # and the two shared edges extend a size-2 matching to size n
    assert not base_rep.size < n - 2
    boundary = rf.exact_max_rainbow(rf.dummy_lift(base, 2))
    assert boundary.certificate == rf.CERT_EXACT and boundary.size == n, (
        f"dummy_lift(ach_instance(3, 4), 2): base maximum {base_rep.size} = n - m, "
        f"lifted maximum {boundary.size}, expected n = {n}"
    )


# ---------------------------------------------------------------------------
# criterion 7: formula checkpoints


def test_c7_formula_checkpoints():
    assert rf.lower_bound_g_prime(3, 100).value == 45
    assert rf.upper_bound_g(3, 1000).value == Fraction(8975, 9)
    lower, upper = rf.bounds_h(3, 4096)
    assert (lower.value, upper.value) == (Fraction(36928, 9), 35840)
    assert rf.ach_bound(3, 4).value == 2
    assert rf.weak_asymptotic_bound(3, 256).value == 128
    p = rf.psz_composition_params(3, 217)
    assert (p.a, p.t, p.q, p.t_prime, p.bound) == (6, 63, 3, 91, 214)
    assert 217 == (p.q - 1) * p.t + p.t_prime
    _line("C7 formula checkpoints", True)


# ---------------------------------------------------------------------------
# criterion 8: sample-and-extend contract


def test_c8_sample_and_extend_contract():
    successes = 0
    failures = 0
    stages = set()
    for seed in range(50):
        base = rf.random_instance(3, 25, 5, seed=seed)
        inst = rf.dummy_lift(base, 45)  # matchings of size ceil((r+1)n/2) = 50
        assert inst.min_matching_size() == 50
        first = rf.sample_and_extend(inst, seed=seed)
        second = rf.sample_and_extend(inst, seed=seed)
        if isinstance(first, rf.SolveReport):
            assert first.size == 25
            assert rf.is_rainbow_matching(inst, first.matching)
            assert isinstance(second, rf.SolveReport)
            assert second.matching == first.matching  # deterministic per seed
            successes += 1
        else:
            assert first.stage in ("sampling", "extension") and first.detail
            assert isinstance(second, rf.SampleExtendFailure)
            assert (second.stage, second.best) == (first.stage, first.best)
            assert rf.is_rainbow_matching(inst, first.best)
            stages.add(first.stage)
            failures += 1
    _line(
        "C8 sample-and-extend contract",
        True,
        f"{successes} successes, {failures} failures{', stages ' + str(sorted(stages)) if stages else ''}",
    )


# ---------------------------------------------------------------------------
# criterion 9: determinism and round-trip


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_c9_determinism_and_roundtrip(tmp_path, capsys):
    argv = lambda out: [
        "sweep", "--construction", "cycle,ach,random", "--r", "2..3", "--n", "4..6",
        "--solver", "exact,local,sample", "--seed", "13", "--out", str(out),
    ]
    assert cli_main(argv(tmp_path / "one")) == 0
    assert cli_main(argv(tmp_path / "two")) == 0
    capsys.readouterr()

    def artifacts(root: Path):
        sweep_dir = next((root / "sweeps").iterdir())
        records = [
            _strip_timing(json.loads(line))
            for line in (sweep_dir / "records.jsonl").read_text().splitlines()
        ]
        reports = {
            p.name: _strip_timing(json.loads(p.read_text()))
            for p in sorted((root / "reports").iterdir())
        }
        instances = {p.name: p.read_bytes() for p in sorted((root / "instances").iterdir())}
        return records, reports, instances

    rec1, rep1, ins1 = artifacts(tmp_path / "one")
    rec2, rep2, ins2 = artifacts(tmp_path / "two")
    assert rec1 == rec2
    assert rep1 == rep2
    assert ins1 == ins2

    corpus = [
        *(rf.cycle_instance(n) for n in range(2, 9)),
        *(rf.k4_union_instance(n) for n in (3, 5, 7)),
        *(rf.ach_instance(*p) for p in ((3, 4), (3, 6), (3, 8), (4, 8))),
        rf.dummy_lift(rf.ach_instance(3, 4), 2),
        rf.blowup_compose([rf.find_blocking_family(3, 4, 2, budget=20, seed=0)] * 2),
        *(rf.random_instance(3, n, n, seed=n) for n in range(1, 6)),
        *(rf.random_instance(2, 3, s, seed=s) for s in range(1, 4)),
    ]
    for inst in corpus:
        text = rf.serialize_instance(inst)
        parsed = rf.parse_instance(text)
        assert parsed == inst
        assert rf.serialize_instance(parsed) == text  # bit-exact round trip
    _line("C9 determinism and round-trip", True, f"{len(rec1)} records, {len(corpus)} fixtures")
