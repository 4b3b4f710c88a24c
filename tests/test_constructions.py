import itertools
from types import SimpleNamespace

import pytest

import rainbow_forge as rf

from blocking_reference import reference_find_blocking_family
from oracle import brute_force_max_rainbow


def test_cycle_layout():
    inst = rf.cycle_instance(3)
    assert inst.r == 2 and inst.n == 3
    assert inst.matchings[0] == inst.matchings[1] == ((0, 1), (2, 3), (4, 5))
    assert inst.matchings[2] == ((0, 5), (1, 2), (3, 4))
    assert inst.partition == (0, 1, 0, 1, 0, 1)
    assert rf.validate_instance(inst) == []


def test_cycle_rejects_small_n():
    with pytest.raises(ValueError):
        rf.cycle_instance(1)


def test_k4_union_layout():
    inst = rf.k4_union_instance(3)
    assert inst.n == 3
    assert all(len(m) == 4 for m in inst.matchings)  # size n + 1
    assert inst.vertex_count() == 8  # 2(n+1) vertices
    assert inst.partition is None
    assert rf.validate_instance(inst) == []


def test_k4_union_rejects_even_n():
    with pytest.raises(ValueError):
        rf.k4_union_instance(4)


def test_ach_layout():
    inst = rf.ach_instance(3, 4)
    assert inst.n == 4
    assert all(len(m) == 4 for m in inst.matchings)
    assert inst.vertex_count() == 12
    # part j holds a_j and b_j of every copy
    assert inst.partition == (0, 1, 2, 0, 1, 2) * 2
    assert rf.validate_instance(inst) == []


def test_ach_repeats_last_class():
    inst = rf.ach_instance(3, 6)
    assert inst.matchings[3] == inst.matchings[4] == inst.matchings[5]
    assert len({inst.matchings[i] for i in range(4)}) == 4


@pytest.mark.parametrize(
    "build, classes",
    [
        (lambda: rf.cycle_instance(6), 2),
        (lambda: rf.k4_union_instance(7), 3),
        (lambda: rf.ach_instance(3, 8), 4),
        (lambda: rf.ach_instance(4, 12), 8),
        (lambda: rf.dummy_lift(rf.ach_instance(3, 8), 2), 4),
        (lambda: rf.dummy_lift(rf.cycle_instance(5), 1), 2),
    ],
)
def test_repeated_colours_share_one_matching_object(build, classes):
    inst = build()
    assert len({id(m) for m in inst.matchings}) == classes
    for m, following in zip(inst.matchings, inst.matchings[1:]):
        assert (m is following) == (m == following)


def test_ach_single_gadget_copy_blocks_at_two():
    # each copy alone admits only a single rainbow edge
    inst = rf.ach_instance(3, 4)
    copy0 = rf.Instance(
        r=3,
        matchings=tuple(tuple(e for e in m if max(e) < 6) for m in inst.matchings),
    )
    assert brute_force_max_rainbow(copy0) == 1


def test_ach_rejects_bad_parameters():
    with pytest.raises(ValueError):
        rf.ach_instance(2, 4)
    with pytest.raises(ValueError):
        rf.ach_instance(3, 5)
    with pytest.raises(ValueError):
        rf.ach_instance(4, 6)  # below 2^(r-1)


def test_every_generator_validates_clean():
    instances = [
        rf.cycle_instance(5),
        rf.k4_union_instance(5),
        rf.ach_instance(3, 6),
        rf.ach_instance(4, 8),
        rf.random_instance(3, 6, 4, seed=2),
        rf.dummy_lift(rf.ach_instance(3, 4), 2),
    ]
    for inst in instances:
        assert rf.validate_instance(inst) == [], inst.meta


def test_dummy_lift_identity_and_shape():
    base = rf.cycle_instance(3)
    assert rf.dummy_lift(base, 0) is base
    lifted = rf.dummy_lift(base, 1)
    assert all(len(m) == 4 for m in lifted.matchings)
    dummy = (6, 7)
    assert all(dummy in m for m in lifted.matchings)
    assert rf.validate_instance(lifted) == []


def test_dummy_lift_values():
    # pinned with the brute-force oracle: lifting adds one extendable
    # edge per dummy while unused colours remain
    base = rf.ach_instance(3, 4)
    assert brute_force_max_rainbow(rf.dummy_lift(base, 1)) == 3
    assert brute_force_max_rainbow(rf.dummy_lift(base, 2)) == 4
    assert rf.exact_max_rainbow(rf.dummy_lift(base, 2)).size == 4


def test_dummy_lift_preserves_partition():
    lifted = rf.dummy_lift(rf.ach_instance(3, 4), 2)
    assert lifted.partition is not None
    assert len(lifted.partition) == 12 + 6
    assert rf.validate_instance(lifted) == []


def test_dummy_lift_rejects_negative():
    with pytest.raises(ValueError):
        rf.dummy_lift(rf.cycle_instance(2), -1)


def test_certify_blocking_family():
    inst = rf.ach_instance(3, 4)
    bf = rf.certify_blocking_family(inst, 3)
    assert bf.blocked_size == 3 and bf.certified_max == 2
    with pytest.raises(ValueError, match="not blocked"):
        rf.certify_blocking_family(inst, 2)
    with pytest.raises(ValueError, match="every matching must have size >= blocked_size - 1"):
        rf.certify_blocking_family(inst, 6)  # its matchings have size 4


def test_blowup_compose_identity_and_bound():
    bf = rf.find_blocking_family(3, 4, 3, budget=20, seed=0)
    assert bf is not None
    single = rf.blowup_compose([bf])
    assert single.matchings == bf.inst.matchings

    comp = rf.blowup_compose([bf, bf])
    assert all(len(m) == 6 for m in comp.matchings)
    assert rf.validate_instance(comp) == []
    assert comp.meta["offsets"] == "0,12"
    # blocked at sum(t) - q + 1 = 5, so the maximum is at most 4
    assert rf.exact_max_rainbow(comp).size <= 4


def test_blowup_compose_rejects_mismatched_parts():
    a = rf.find_blocking_family(3, 4, 2, budget=20, seed=0)
    b = rf.find_blocking_family(3, 3, 2, budget=20, seed=0)
    with pytest.raises(ValueError):
        rf.blowup_compose([a, b])
    with pytest.raises(ValueError):
        rf.blowup_compose([])


def test_find_blocking_family_certified():
    bf = rf.find_blocking_family(3, 4, 2, budget=20, seed=0)
    assert bf is not None
    assert all(len(m) == 2 for m in bf.inst.matchings)
    assert bf.certified_max < bf.blocked_size
    assert rf.exact_max_rainbow(bf.inst).size == bf.certified_max


@pytest.mark.parametrize("r, n, t", [(2, 4, 3), (3, 5, 3)])
def test_find_blocking_family_climbs_to_a_certified_family(r, n, t):
    # no deterministic candidate exists here: a random walk finds it
    bf = rf.find_blocking_family(r, n, t, budget=200, seed=0)
    assert bf is not None
    assert bf.inst.meta["generator"] == "blocking-search"
    assert [len(m) for m in bf.inst.matchings] == [t] * n
    assert rf.validate_instance(bf.inst) == []
    assert rf.exact_max_rainbow(bf.inst).size == bf.certified_max < t


def test_find_blocking_family_climb_can_exhaust_its_budget():
    # K_{2,2} has two perfect matchings, so two of the three colours are
    # equal, and they hold a rainbow matching of size 2
    assert rf.find_blocking_family(2, 3, 2, budget=200, seed=0) is None


def test_find_blocking_family_impossible_cases():
    assert rf.find_blocking_family(3, 1, 1, budget=10) is None
    with pytest.raises(ValueError):
        rf.find_blocking_family(3, 0, 2)
    with pytest.raises(ValueError):
        rf.find_blocking_family(3, 2, 0)
    with pytest.raises(ValueError, match="uniformity must be >= 2, got 1"):
        rf.find_blocking_family(1, 3, 2)


def test_find_blocking_family_budget_can_run_out_among_the_candidates(monkeypatch):
    # the gadget family is a candidate at (3, 4, 2); a budget of 0, or
    # below, stops before the solver sees it
    def unreachable(inst):
        raise AssertionError("no evaluation within a budget of 0 or less")

    monkeypatch.setattr(rf.constructions, "exact_max_rainbow", unreachable)
    for budget in (0, -1):
        assert rf.find_blocking_family(3, 4, 2, budget=budget) is None


def _scripted_sizes(monkeypatch, sizes):
    """Make the exact solver of ``find_blocking_family`` return ``sizes``
    in turn; the instances it was given are returned."""
    seen = []
    script = iter(sizes)

    def exact(inst):
        seen.append(inst)
        return SimpleNamespace(size=next(script))

    monkeypatch.setattr(rf.constructions, "exact_max_rainbow", exact)
    return seen


def test_find_blocking_family_returns_a_fresh_random_family_already_blocked(monkeypatch):
    # no candidate exists at (2, 5, 3), so the first evaluation is the
    # first random family
    seen = _scripted_sizes(monkeypatch, [2])
    bf = rf.find_blocking_family(2, 5, 3, seed=0)
    assert len(seen) == 1
    assert bf.inst.matchings == seen[0].matchings and bf.certified_max == 2
    assert bf.inst.meta["generator"] == "blocking-search"


def test_find_blocking_family_r2_cycle_seed():
    bf = rf.find_blocking_family(2, 3, 3, budget=20, seed=0)
    assert bf is not None
    assert all(len(m) == 3 for m in bf.inst.matchings)
    assert bf.certified_max < 3


@pytest.mark.parametrize("n", [3, 5, 7])
def test_find_blocking_family_r2_one_above_n_is_a_truncated_cycle(n):
    # n <= t, so the cycle truncation is the first candidate, and it is
    # blocked at t = n + 1; the K4 union (n odd, t = n + 1) never runs
    bf = rf.find_blocking_family(2, n, n + 1)
    assert bf is not None
    assert bf.inst.meta["generator"] == "truncated-cycle"
    assert [len(m) for m in bf.inst.matchings] == [n + 1] * n
    assert bf.certified_max == n < bf.blocked_size


def _recording(solver, log):
    """``solver`` that appends each (matchings, size) it returns to ``log``."""

    def exact(inst):
        report = solver(inst)
        log.append((inst.matchings, report.size))
        return report

    return exact


def test_find_blocking_family_matches_the_hill_climb_reference(monkeypatch):
    # the climb keeps every mutation, since no random family scores above
    # t, so the stream hands the solver the same families in the same
    # order and returns the same family, meta included, or None
    solver = rf.constructions.exact_max_rainbow
    found = 0
    for r, n, t, seed, budget in itertools.product(
        (2, 3, 4), range(1, 8), range(1, 5), range(3), (-1, 0, 1, 7, 60)
    ):
        expected_log: list = []
        expected = reference_find_blocking_family(
            r, n, t, _recording(solver, expected_log), budget=budget, seed=seed
        )
        got_log: list = []
        monkeypatch.setattr(rf.constructions, "exact_max_rainbow", _recording(solver, got_log))
        got = rf.find_blocking_family(r, n, t, budget=budget, seed=seed)
        args = (r, n, t, seed, budget)
        assert got == expected, args
        assert got_log == expected_log, args
        found += got is not None
    assert found == 380


@pytest.mark.parametrize("r", [2, 3])
def test_random_walk_candidates_score_at_most_t(r):
    # every walk candidate is n perfect matchings of the r-partite host on
    # t*r vertices (each edge meets every part once, each matching covers
    # every vertex once), which hold at most t disjoint r-sets
    for t in range(2, 5):
        for n in range(1, 7):
            walks = (
                c for c in rf.constructions._candidates(r, n, t, seed=0)
                if c.meta["generator"] == "blocking-search"
            )
            for cand in itertools.islice(walks, 20):
                assert rf.validate_instance(cand) == [], (r, n, t)
                for m in cand.matchings:
                    assert sorted(v for e in m for v in e) == list(range(t * r)), (r, n, t)
                assert cand.min_matching_size() == t
                assert rf.exact_max_rainbow(cand).size <= t, (r, n, t)


def test_psz_composition_params_values():
    p = rf.psz_composition_params(3, 217)
    assert p == rf.PszParams(a=6, t=63, q=3, s=28, t_prime=91, bound=214)
    p = rf.psz_composition_params(3, 1000)
    assert p == rf.PszParams(a=9, t=90, q=11, s=10, t_prime=100, bound=989)


def test_psz_composition_identity_and_q_bound():
    for r in (3, 4):
        base = 6 ** r
        for n in (base + 1, base + 17, 3 * base, 10 * base):
            p = rf.psz_composition_params(r, n)
            assert n == (p.q - 1) * p.t + p.t_prime
            assert (12 * r * p.q) ** r >= n ** (r - 1)  # q >= n^((r-1)/r)/(12r)


def test_psz_composition_out_of_domain():
    # the reason is the one upper_bound_g flags for the same (r, n)
    for r, n, reason in [
        (2, 10 ** 6, "requires r >= 3, got 2"),
        (3, 216, "requires n > 6**r = 216, got 216"),
        (4, 6 ** 4, "requires n > 6**r = 1296, got 1296"),
    ]:
        with pytest.raises(ValueError) as exc:
            rf.psz_composition_params(r, n)
        assert str(exc.value) == reason == rf.upper_bound_g(r, n).domain_reason


def test_random_instance_deterministic_and_valid():
    a = rf.random_instance(3, 2, 2, seed=7)
    b = rf.random_instance(3, 2, 2, seed=7)
    assert a == b
    assert rf.validate_instance(a) == []
    assert a != rf.random_instance(3, 2, 2, seed=8)


def test_random_instance_rejects_a_negative_count():
    with pytest.raises(ValueError, match="matching count must be >= 0, got -1"):
        rf.random_instance(3, -1, 2)


def test_random_instance_pool_is_bounded():
    inst = rf.random_instance(3, 5, 5, seed=1)
    assert max(inst.vertices()) < 3 * 5 + 3


def test_random_instance_greedy_floor():
    # with matchings of size n, some rainbow matching of size ceil(n/r) exists
    for seed in (0, 1, 2):
        inst = rf.random_instance(3, 5, 5, seed=seed)
        assert rf.exact_max_rainbow(inst).size >= 2
