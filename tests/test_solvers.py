import itertools
import random
import tracemalloc
from fractions import Fraction
from math import ceil, comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbow_forge as rf
from rainbow_forge import solvers

from bnb_reference import reference_branch_and_bound
from oracle import brute_force_max_rainbow


def disjoint_instance(r: int, n: int, s: int) -> rf.Instance:
    """n pairwise vertex-disjoint matchings of size s."""
    matchings = []
    v = 0
    for _ in range(n):
        m = []
        for _ in range(s):
            m.append(tuple(range(v, v + r)))
            v += r
        matchings.append(tuple(m))
    return rf.Instance(r=r, matchings=tuple(matchings))


# ---------------------------------------------------------------------------
# exact solver


def test_exact_on_empty_instance():
    rep = rf.exact_max_rainbow(rf.Instance(r=3, matchings=()))
    assert rep.size == 0 and rep.certificate == rf.CERT_EXACT


def test_exact_on_disjoint_matchings():
    rep = rf.exact_max_rainbow(disjoint_instance(3, 5, 2))
    assert rep.size == 5
    # the incumbent meets the root bound, so the search stops at once
    # even though the instance has ten components
    assert rep.stats.nodes == 1 and "components" not in rep.stats.extra


def test_exact_handles_empty_matchings():
    inst = rf.Instance(r=3, matchings=((), ((0, 1, 2),), ()))
    assert rf.exact_max_rainbow(inst).size == 1


def test_exact_on_ach_34():
    rep = rf.exact_max_rainbow(rf.ach_instance(3, 4))
    assert rep.size == 2  # pinned against the brute-force oracle
    assert rep.certificate == rf.CERT_EXACT
    assert rf.is_rainbow_matching(rf.ach_instance(3, 4), rep.matching)


def test_exact_agrees_with_oracle_on_random_batch():
    rng = random.Random(99)
    for i in range(120):
        r = rng.choice((2, 3, 4))
        n = rng.randint(0, 5)
        s = rng.randint(1, 5)
        inst = rf.random_instance(r, n, s, seed=i)
        assert rf.exact_max_rainbow(inst).size == brute_force_max_rainbow(inst), (r, n, s, i)


def test_exact_size_invariant_under_symmetries():
    rng = random.Random(5)
    for i in range(20):
        inst = rf.random_instance(3, 5, 4, seed=i)
        base = rf.exact_max_rainbow(inst).size

        order = list(range(inst.n))
        rng.shuffle(order)
        permuted = rf.Instance(inst.r, tuple(inst.matchings[j] for j in order))
        assert rf.exact_max_rainbow(permuted).size == base

        shuffled = []
        for m in inst.matchings:
            edges = list(m)
            rng.shuffle(edges)
            shuffled.append(tuple(edges))
        assert rf.exact_max_rainbow(rf.Instance(inst.r, tuple(shuffled))).size == base

        verts = sorted(inst.vertices())
        image = verts[:]
        rng.shuffle(image)
        relabel = dict(zip(verts, image))
        relabelled = rf.Instance(
            inst.r,
            tuple(tuple(rf.make_edge(relabel[v] for v in e) for e in m) for m in inst.matchings),
        )
        assert rf.exact_max_rainbow(relabelled).size == base


@pytest.mark.parametrize(
    "build, size, nodes",
    [
        # one component
        (lambda: rf.random_instance(3, 18, 18, seed=1), 18, 21_189),
        (lambda: rf.cycle_instance(200), 199, 401),
        # three shared edges and one component holding most vertices
        (lambda: rf.dummy_lift(rf.random_instance(3, 18, 18, seed=1), 3), 18, 139),
    ],
)
def test_exact_search_where_the_instance_is_not_decomposed(build, size, nodes):
    rep = rf.exact_max_rainbow(build())
    assert (rep.size, rep.certificate, rep.stats.nodes) == (size, rf.CERT_EXACT, nodes)
    assert "components" not in rep.stats.extra


def test_exact_budget_exhaustion_is_heuristic():
    inst = rf.random_instance(3, 6, 6, seed=0)
    rep = rf.exact_max_rainbow(inst, node_budget=2)
    assert rep.certificate == rf.CERT_HEURISTIC
    assert rf.is_rainbow_matching(inst, rep.matching)
    full = rf.exact_max_rainbow(inst)
    assert full.certificate == rf.CERT_EXACT
    assert rep.size <= full.size


def test_exact_rejects_a_colour_that_is_not_a_matching():
    # colour 0's edges share vertex 1
    inst = rf.Instance(r=2, matchings=(((0, 1), (1, 2)), ((2, 3),)))
    with pytest.raises(ValueError, match="colour 0: edges intersect"):
        rf.exact_max_rainbow(inst)


def test_exact_rejects_an_edge_of_the_wrong_size():
    inst = rf.Instance(r=3, matchings=(((0, 1, 2),), ((3, 4),)))
    with pytest.raises(ValueError, match=r"colour 1: edge \(3, 4\) is not a 3-set"):
        rf.exact_max_rainbow(inst)


@st.composite
def families(draw) -> rf.Instance:
    """A random family with some matchings repeated (classes of several
    colours) and some shared edges appended (a dummy lift), n <= 12."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(1, 12))
    base = rf.random_instance(r, n, draw(st.integers(1, 6)), seed=draw(st.integers(0, 10_000)))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=12 - n))
    inst = rf.Instance(r, base.matchings + tuple(base.matchings[j] for j in repeats))
    return rf.dummy_lift(inst, draw(st.integers(0, 2)))


@settings(max_examples=80, deadline=None)
@given(families())
def test_branch_and_bound_walks_the_reference_search_tree(inst):
    classes = solvers._table(inst).classes
    for incumbent in (rf.local_search_rainbow(inst).matching, rf.RainbowMatching()):
        for budget in (None, 1, 7, 50):
            # same witness, node count and budget cut-off
            assert solvers._branch_and_bound(
                classes, inst.r, budget, incumbent
            ) == reference_branch_and_bound(classes, inst.r, budget, incumbent)


# ---------------------------------------------------------------------------
# greedy


def test_greedy_on_disjoint_matchings_any_order():
    inst = disjoint_instance(3, 4, 2)
    assert rf.greedy_rainbow(inst).size == 4
    assert rf.greedy_rainbow(inst, color_order=[3, 1, 0, 2]).size == 4


def test_greedy_first_fit_trace_on_cycle():
    # colours 0 and 1 take the first two disjoint edges of one class,
    # the other class is then fully blocked
    rep = rf.greedy_rainbow(rf.cycle_instance(3))
    assert rep.size == 2
    assert rep.matching.assignment == ((0, (0, 1)), (1, (2, 3)))


def test_greedy_floor_when_matchings_have_size_n():
    for seed in range(30):
        n = 4 + seed % 6
        inst = rf.random_instance(3, n, n, seed=seed)
        assert rf.greedy_rainbow(inst).size >= ceil(n / 3)


def test_greedy_rejects_bad_arguments():
    inst = rf.cycle_instance(2)
    with pytest.raises(ValueError):
        rf.greedy_rainbow(inst, color_order=[0, 0])


# ---------------------------------------------------------------------------
# local search


def test_local_search_on_disjoint_needs_no_swaps():
    rep = rf.local_search_rainbow(disjoint_instance(3, 5, 1))
    assert rep.size == 5 and rep.stats.swaps == 0
    assert rep.certificate == rf.CERT_LOCAL


def test_local_search_is_maximal_and_within_move_budget():
    for seed in range(40):
        inst = rf.random_instance(3, 4 + seed % 7, 4 + seed % 7, seed=seed)
        rep = rf.local_search_rainbow(inst, seed=seed)
        assert rf.is_rainbow_matching(inst, rep.matching)
        assert rep.stats.nodes <= inst.n  # every move grows the matching
        assert rf.find_extension(inst, rep.matching) is None
        assert rf.find_swap(inst, rep.matching) is None


def test_local_search_satisfies_counting_inequality():
    for seed in range(40):
        n = 4 + seed % 8
        r = 3 if seed % 2 else 4
        inst = rf.random_instance(r, n, n, seed=seed)
        rep = rf.local_search_rainbow(inst, seed=1)
        assert rf.check_gibounds(r, n, n, rep.size).holds


def test_local_search_theorem_floor_r3():
    # size n matchings: the local optimum reaches (2n - 20) / 4 when positive
    for seed in range(20):
        n = 8 + seed % 5
        inst = rf.random_instance(3, n, n, seed=seed)
        rep = rf.local_search_rainbow(inst, seed=2)
        floor = Fraction(2 * n - comb(6, 3), 4)
        assert rep.size >= floor


def test_local_search_on_ach_36_between_greedy_and_cap():
    inst = rf.ach_instance(3, 6)
    rep = rf.local_search_rainbow(inst, seed=0)
    assert rf.greedy_rainbow(inst).size <= rep.size <= 4


def test_local_search_swaps_improve_over_greedy():
    inst = rf.random_instance(3, 5, 5, seed=1)
    greedy = rf.greedy_rainbow(inst).size
    rep = rf.local_search_rainbow(inst)
    assert rep.stats.swaps >= 1
    assert rep.size > greedy


def test_local_search_reference_run():
    # the benchmark's n=200 reference instance and solver seed
    rep = rf.local_search_rainbow(rf.random_instance(3, 200, 200, seed=1), seed=1)
    assert (rep.size, rep.stats.nodes, rep.stats.swaps) == (189, 9, 9)


def test_moves_ignore_vertices_outside_the_instance():
    # vertex 99 is in no edge of the instance, so it blocks nothing
    inst = rf.Instance(r=3, matchings=(((0, 1, 2),), ((0, 5, 6),), ((1, 7, 8),)))
    outside = rf.RainbowMatching(((0, (50, 51, 99)),))
    assert rf.find_extension(inst, outside) == (1, (0, 5, 6))
    rm = rf.RainbowMatching(((0, (0, 1, 99)),))
    assert rf.find_extension(inst, rm) is None
    assert rf.find_swap(inst, rm) == ((0, (0, 1, 99)), (1, (0, 5, 6)), (2, (1, 7, 8)))


def _meets_only_inside(f, vm, e):
    return set(f) & vm <= set(e)


def brute_force_swap(inst, rm):
    """The first swap straight from the ``find_swap`` docstring: matching
    edge (by colour), then colour pair, then f, then f'."""
    vm = {v for _, e in rm.assignment for v in e}
    used = set(rm.colours())
    unused = [c for c in range(inst.n) if c not in used]
    for c, e in sorted(rm.assignment):
        for i, j in itertools.combinations(unused, 2):
            for f in sorted(set(inst.matchings[i])):
                if not _meets_only_inside(f, vm, e):
                    continue
                for f2 in sorted(set(inst.matchings[j])):
                    if _meets_only_inside(f2, vm, e) and not set(f) & set(f2):
                        return (c, e), (i, f), (j, f2)
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 10), st.integers(1, 10), st.integers(0, 10_000))
def test_swap_and_good_edges_match_their_definitions(r, n, s, seed):
    inst = rf.random_instance(r, n, min(s, n), seed=seed)
    # replay the local search, checking every extension-maximal state
    current = dict(rf.greedy_rainbow(inst).matching.assignment)
    while True:
        rm = rf.RainbowMatching(tuple(sorted(current.items())))
        ext = rf.find_extension(inst, rm)
        if ext is not None:
            current[ext[0]] = ext[1]
            continue
        swap = rf.find_swap(inst, rm)
        assert swap == brute_force_swap(inst, rm)

        table = rf.good_edges(inst, rm)
        vm = {v for _, e in rm.assignment for v in e}
        for colour in range(inst.n):
            if colour in current:
                continue
            fs = sorted(set(inst.matchings[colour]))
            meets = [[e for _, e in rm.assignment if set(f) & set(e)] for f in fs]
            assert table.h[colour] == sum(1 for hit in meets if len(hit) == 1)
            witnesses = {
                e: [f for f in fs if _meets_only_inside(f, vm, e)] for _, e in rm.assignment
            }
            good = {e: tuple(ws[:2]) for e, ws in witnesses.items() if len(ws) >= 2}
            assert table.g[colour] == len(good)
            assert table.good[colour] == good
        if swap is None:
            break
        removed, first, second = swap
        del current[removed[0]]
        current.update([first, second])


# ---------------------------------------------------------------------------
# good edges


def test_good_edges_requires_maximality():
    inst = rf.ach_instance(3, 4)
    with pytest.raises(rf.ExtensionAvailable) as exc:
        rf.good_edges(inst, rf.RainbowMatching())
    assert exc.value.colour == 0
    assert len(exc.value.edge) == 3


def test_good_edges_requires_valid_matching():
    inst = rf.ach_instance(3, 4)
    with pytest.raises(ValueError, match="not a valid rainbow matching"):
        rf.good_edges(inst, rf.RainbowMatching(((0, (0, 1, 2)),)))


def test_good_edges_on_maximum_matching():
    inst = rf.ach_instance(3, 4)
    rm = rf.exact_max_rainbow(inst).matching
    table = rf.good_edges(inst, rm)
    assert table.m == 2 and table.min_matching_size == 4
    floor = Fraction(2 * 4 - 4 * 2, 2)  # (2N - (r+1)m) / (r-1) = 0
    for colour, g in table.g.items():
        assert g >= floor
        assert g <= table.m
        assert table.h[colour] <= len(inst.matchings[colour])
    # on a maximum matching the total is capped by C(2r,r)/2 per edge
    assert sum(table.g.values()) <= Fraction(comb(6, 3), 2) * table.m


def test_good_edge_count_floor_at_local_optima():
    # extension-maximality alone forces g_i >= (2N - (r+1)m) / (r-1)
    for seed in range(12):
        inst = rf.random_instance(3, 5 + seed % 4, 5 + seed % 4, seed=seed)
        rm = rf.local_search_rainbow(inst, seed=seed).matching
        table = rf.good_edges(inst, rm)
        floor = Fraction(
            2 * table.min_matching_size - (inst.r + 1) * table.m, inst.r - 1
        )
        for colour, g in table.g.items():
            assert g >= floor, (seed, colour)


def test_good_edge_witnesses_are_distinct_and_qualify():
    inst = rf.ach_instance(3, 6)
    rm = rf.local_search_rainbow(inst, seed=3).matching
    table = rf.good_edges(inst, rm)
    vm = set(v for _, e in rm.assignment for v in e)
    for colour, per_edge in table.good.items():
        for e, (f1, f2) in per_edge.items():
            assert f1 != f2
            for f in (f1, f2):
                assert f in inst.matchings[colour]
                assert set(f) & vm <= set(e)


def test_solver_memory_does_not_grow_with_vertex_ids():
    big = 10**8  # a bitmask indexed by raw ids would take 12 MB per edge
    solvers = [
        lambda inst: rf.exact_max_rainbow(inst),
        lambda inst: rf.local_search_rainbow(inst, seed=1),
        lambda inst: rf.greedy_rainbow(inst),
        lambda inst: rf.good_edges(inst, rf.RainbowMatching(((0, (0, big)), (1, (1, big + 1))))),
        lambda inst: rf.sample_and_extend(inst, 2, seed=1),
    ]
    for solve in solvers:
        inst = rf.Instance(r=2, matchings=(((0, big),), ((1, big + 1),)))
        tracemalloc.start()
        try:
            result = solve(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert getattr(result, "size", 2) == 2
    # nor with edges times vertices: only the exact solver keeps a
    # V-bit mask per edge, and a random family has nearly every edge
    # distinct
    heuristic = [
        lambda inst: rf.local_search_rainbow(inst, seed=1),
        lambda inst: rf.greedy_rainbow(inst),
        lambda inst: rf.good_edges(inst, rf.local_search_rainbow(inst).matching),
        lambda inst: rf.sample_and_extend(inst, 200, seed=1),
    ]
    for solve in heuristic:
        inst = rf.random_instance(3, 200, 200, 1)
        tracemalloc.start()
        try:
            solve(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# ---------------------------------------------------------------------------
# chernoff tail


def test_chernoff_tail_values():
    val = rf.chernoff_tail(24, Fraction(1, 2), Fraction(1, 2))  # np = 12, eps = 1/2
    assert abs(float(val) - 0.7357588823428847) < 1e-12
    assert float(rf.chernoff_tail(0, Fraction(1, 2), Fraction(1, 2))) == 2.0


def test_chernoff_tail_parameter_validation():
    with pytest.raises(ValueError):
        rf.chernoff_tail(10, 0, 0.5)
    with pytest.raises(ValueError):
        rf.chernoff_tail(10, 1, 0.5)
    with pytest.raises(ValueError):
        rf.chernoff_tail(10, 0.5, 1)
    with pytest.raises(ValueError):
        rf.chernoff_tail(-1, 0.5, 0.5)


# ---------------------------------------------------------------------------
# sample and extend


def test_sample_and_extend_disjoint_succeeds():
    inst = disjoint_instance(3, 4, 3)
    res = rf.sample_and_extend(inst, 4, seed=1)
    assert isinstance(res, rf.SolveReport)
    assert res.size == 4
    assert rf.is_rainbow_matching(inst, res.matching)


def test_sample_and_extend_target_must_be_n():
    with pytest.raises(ValueError):
        rf.sample_and_extend(rf.cycle_instance(3), 2, seed=0)


def test_sample_and_extend_failure_names_stage():
    inst = rf.random_instance(3, 25, 5, seed=3)  # far below the intended size regime
    res = rf.sample_and_extend(inst, 25, seed=9)
    assert isinstance(res, rf.SampleExtendFailure)
    assert res.stage in ("sampling", "extension")
    assert res.detail and res.attempts >= 1
    assert rf.is_rainbow_matching(inst, res.best)


def test_sample_and_extend_deterministic_per_seed():
    inst = rf.dummy_lift(rf.random_instance(3, 25, 5, seed=3), 45)
    a = rf.sample_and_extend(inst, 25, seed=7)
    b = rf.sample_and_extend(inst, 25, seed=7)
    assert isinstance(a, rf.SolveReport) and isinstance(b, rf.SolveReport)
    assert a.matching == b.matching
    assert a.stats.extra["attempts"] == b.stats.extra["attempts"]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_sample_and_extend_success_contract(seed):
    inst = rf.dummy_lift(rf.random_instance(3, 6, 2, seed=seed), 6)
    res = rf.sample_and_extend(inst, 6, seed=seed)
    if isinstance(res, rf.SolveReport):
        assert res.size == 6
        assert rf.is_rainbow_matching(inst, res.matching)
    else:
        assert res.stage in ("sampling", "extension")
