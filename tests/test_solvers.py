import itertools
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from math import ceil, comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rainbow_forge as rf
from rainbow_forge import solvers

from bnb_reference import reference_branch_and_bound, reference_classes
import local_reference
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
        (lambda: rf.random_instance(3, 18, 18, seed=1), 18, 21_102),
        (lambda: rf.cycle_instance(200), 199, 401),
        # three shared edges and one component holding most vertices
        (lambda: rf.dummy_lift(rf.random_instance(3, 18, 18, seed=1), 3), 18, 19),
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


def test_exact_from_a_given_incumbent_still_finds_the_maximum():
    rng = random.Random(7)
    for i in range(60):
        r = rng.choice((2, 3, 4))
        n = rng.randint(0, 5)
        s = rng.randint(1, 5)
        inst = rf.random_instance(r, n, s, seed=i)
        best = brute_force_max_rainbow(inst)
        for start in (rf.RainbowMatching(()), rf.greedy_rainbow(inst).matching):
            rep = rf.exact_max_rainbow(inst, incumbent=start)
            assert (rep.size, rep.certificate) == (best, rf.CERT_EXACT), (r, n, s, i)
            assert rf.is_rainbow_matching(inst, rep.matching)


def test_exact_proves_an_optimal_incumbent_at_the_root():
    inst = rf.random_instance(3, 10, 10, seed=1)
    optimum = rf.exact_max_rainbow(inst)
    assert (optimum.size, optimum.stats.extra["incumbent_size"]) == (10, 9)
    rep = rf.exact_max_rainbow(inst, incumbent=optimum.matching)
    assert (rep.matching, rep.certificate, rep.stats.nodes) == (optimum.matching, rf.CERT_EXACT, 1)
    assert rep.stats.extra["incumbent_size"] == 10


def test_exact_rejects_a_colour_that_is_not_a_matching():
    # colour 0's edges share vertex 1, or repeat one edge; a given
    # incumbent skips no check
    for inst in (
        rf.Instance(r=2, matchings=(((0, 1), (1, 2)), ((2, 3),))),
        rf.Instance(r=2, matchings=(((0, 1), (0, 1)), ((0, 1),))),
    ):
        for incumbent in (None, rf.RainbowMatching(((1, inst.matchings[1][0]),))):
            with pytest.raises(ValueError, match="colour 0: edges intersect"):
                rf.exact_max_rainbow(inst, incumbent=incumbent)


def test_exact_rejects_an_edge_of_the_wrong_size():
    inst = rf.Instance(r=3, matchings=(((0, 1, 2),), ((3, 4),)))
    with pytest.raises(ValueError, match=r"colour 1: edge \(3, 4\) is not a 3-set"):
        rf.exact_max_rainbow(inst)


def test_exact_rejects_an_edge_with_a_repeated_vertex():
    # (1, 1, 2) and (1, 1, 2, 2) each cover two distinct vertices, but
    # only an edge of exactly r distinct entries is an r-set
    for edge in ((1, 1, 2), (1, 1, 2, 2)):
        inst = rf.Instance(r=2, matchings=((edge,),))
        with pytest.raises(ValueError, match=rf"colour 0: edge {re.escape(str(edge))} is not a 2-set"):
            rf.exact_max_rainbow(inst)


def test_exact_rejects_r_below_one_before_the_incumbent(monkeypatch):
    # an edge with no vertices passes the test for a matching of 0-sets,
    # so r itself is checked first; a given incumbent skips no check
    def no_incumbent(inst, seed=None):
        raise AssertionError("the local search ran before the check")

    monkeypatch.setattr(solvers, "local_search_rainbow", no_incumbent)
    for inst in (rf.Instance(0, (((),),)), rf.Instance(0, ()), rf.Instance(-1, ())):
        for incumbent in (None, rf.RainbowMatching()):
            with pytest.raises(ValueError, match=f"r must be >= 1, got {inst.r}"):
                rf.exact_max_rainbow(inst, incumbent=incumbent)


def test_exact_checks_every_colour_before_the_incumbent(monkeypatch):
    def no_incumbent(inst, seed=None):
        raise AssertionError("the local search ran before the check")

    monkeypatch.setattr(solvers, "local_search_rainbow", no_incumbent)
    inst = rf.Instance(r=2, matchings=(((0, 1), (1, 2)), ((2, 3),)))
    with pytest.raises(ValueError, match="colour 0: edges intersect, so it is not a matching"):
        rf.exact_max_rainbow(inst)


def test_exact_rejects_a_bad_colour_when_solving_by_components():
    # ach(3, 8) is four gadgets side by side, which the component path
    # solves; exact_max_rainbow checks every colour before either path runs
    inst = rf.ach_instance(3, 8)
    matchings = list(inst.matchings)
    matchings[7] = tuple(e[:2] for e in matchings[7])
    with pytest.raises(ValueError, match=r"colour 7: edge \(0, 1\) is not a 3-set"):
        rf.exact_max_rainbow(rf.Instance(3, tuple(matchings)))


def test_exact_search_depth_is_not_bounded_by_the_recursion_limit():
    # the search goes about 300 levels deep here, past a recursion limit
    # of 250; it runs from an explicit stack, so it returns the budgeted
    # result instead of raising RecursionError
    inst = rf.random_instance(2, 300, 300, seed=1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        rep = rf.exact_max_rainbow(inst, node_budget=400)
    finally:
        sys.setrecursionlimit(limit)
    assert (rep.certificate, rep.size, rep.stats.nodes) == (rf.CERT_HEURISTIC, 296, 401)
    assert rf.is_rainbow_matching(inst, rep.matching)


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
    # the package searches its own classes, the reference its own
    classes, _ = solvers._colour_classes(inst)
    ref_classes = reference_classes(inst)
    for incumbent in (rf.local_search_rainbow(inst).matching, rf.RainbowMatching()):
        for budget in (None, 0, 1, 7, 50):
            # same witness, node count and budget cut-off; at budget 0
            # the root itself is past it, counted but not run
            got = solvers._branch_and_bound(classes, inst.r, budget, incumbent)
            assert got[:3] == reference_branch_and_bound(
                ref_classes, inst.r, budget, incumbent, stop_at_bound=True
            )
            assert got[3] == {}
            # the tree without the stop: an unbudgeted search finds the
            # same witness in no more nodes, a budgeted one none smaller
            full = reference_branch_and_bound(ref_classes, inst.r, budget, incumbent)
            if budget is None:
                assert got[0] == full[0] and got[1] <= full[1]
            assert got[0].size >= full[0].size


def test_search_stops_a_node_once_the_incumbent_meets_its_bound():
    # local search misses the optimum 40, the root bound, by 2; the
    # first dive finds it, and every open node then stops at once
    inst = rf.random_instance(2, 40, 40, seed=5)
    incumbent = rf.local_search_rainbow(inst).matching
    rep = rf.exact_max_rainbow(inst)
    assert (rep.size, rep.stats.extra["incumbent_size"]) == (40, 38)
    assert (rep.certificate, rep.stats.nodes) == (rf.CERT_EXACT, 151)
    witness, nodes, _ = reference_branch_and_bound(reference_classes(inst), inst.r, None, incumbent)
    assert (rep.matching, nodes) == (witness, 686)


def test_table_vertex_maps_share_the_index_ints():
    # V = 896, past the small-int cache, so two equal ids are one object
    # only when the classes share it: every class maps the dense id of
    # each vertex on its edges, r per edge, to that edge's mask, keyed
    # by one int object per dense id across all classes
    inst = rf.ach_instance(7, 128)
    classes, nv = solvers._colour_classes(inst)
    index = {v: i for i, v in enumerate(sorted(inst.vertices()))}
    assert nv == len(index) == 896
    ids: dict[int, int] = {}
    for cl in classes:
        assert len(cl.edge_at) == inst.r * len(cl.edge_of)
        assert all(ids.setdefault(x, x) is x for x in cl.edge_at)
        for mk, e in cl.edge_of.items():
            assert all(cl.edge_at[index[v]] == mk for v in e)
    assert sorted(ids) == list(range(896))


def _check_colour_classes(inst: rf.Instance) -> None:
    classes, nv = solvers._colour_classes(inst)
    ref = reference_classes(inst)
    assert [cl.members for cl in classes] == [cl.members for cl in ref]
    for cl, want in zip(classes, ref):
        # dict(zip(masks, edges)), in the same order
        assert list(cl.edge_of.items()) == list(zip(want.masks, want.edges))
    assert nv == len({v for m in inst.matchings for e in m for v in e})


@pytest.mark.parametrize(
    "build",
    [
        lambda: rf.ach_instance(4, 12),
        lambda: rf.k4_union_instance(9),
        lambda: rf.cycle_instance(20),
        lambda: rf.dummy_lift(rf.ach_instance(4, 8), 2),
        lambda: rf.blowup_compose([rf.find_blocking_family(3, 4, 2, seed=1)] * 3),
    ],
)
def test_colour_classes_match_the_reference_classes(build):
    _check_colour_classes(build())


@settings(max_examples=60, deadline=None)
@given(families())
def test_colour_classes_match_the_reference_classes_on_random_families(inst):
    _check_colour_classes(inst)


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


def test_local_search_calls_find_swap_once_per_move_and_once_more(monkeypatch):
    # every move comes from one call of solvers.find_swap, looked up by
    # its module name, and the last call finds none; a wrapper put there,
    # as the benchmark's tracer puts one, sees every scan
    calls = []
    find_swap = solvers.find_swap

    def counting_find_swap(inst, rm):
        calls.append(rm)
        return find_swap(inst, rm)

    monkeypatch.setattr(solvers, "find_swap", counting_find_swap)
    rep = rf.local_search_rainbow(rf.random_instance(3, 200, 200, 1), seed=1)
    assert (rep.stats.nodes, len(calls)) == (9, 10)
    assert calls[-1] == rep.matching


def test_moves_ignore_vertices_outside_the_instance():
    # vertex 99 is in no edge of the instance, so it blocks nothing
    inst = rf.Instance(r=3, matchings=(((0, 1, 2),), ((0, 5, 6),), ((1, 7, 8),)))
    outside = rf.RainbowMatching(((0, (50, 51, 99)),))
    assert rf.find_extension(inst, outside) == (1, (0, 5, 6))
    rm = rf.RainbowMatching(((0, (0, 1, 99)),))
    assert rf.find_extension(inst, rm) is None
    assert rf.find_swap(inst, rm) == ((0, (0, 1, 99)), (1, (0, 5, 6)), (2, (1, 7, 8)))


def test_find_swap_requires_extension_maximality():
    # colour 2's edge (1, 7, 8) is disjoint from (0, 5, 6), so the matching
    # is not extension-maximal and no swap is looked for
    inst = rf.Instance(r=3, matchings=(((0, 1, 2),), ((0, 5, 6),), ((1, 7, 8),)))
    with pytest.raises(rf.ExtensionAvailable) as exc:
        rf.find_swap(inst, rf.RainbowMatching(((1, (0, 5, 6)),)))
    assert (exc.value.colour, exc.value.edge) == (2, (1, 7, 8))


@st.composite
def local_families(draw) -> rf.Instance:
    """A random family (r 2..4, n <= 14), a dummy lift of one, or an ach
    family (r 3..5, even n from 2^(r-1) to 2^r)."""
    kind = draw(st.sampled_from(("random", "dummy", "ach")))
    if kind == "ach":
        r = draw(st.integers(3, 5))
        return rf.ach_instance(r, 2 * draw(st.integers(2 ** (r - 2), 2 ** (r - 1))))
    r = draw(st.integers(2, 4))
    n = draw(st.integers(1, 14))
    inst = rf.random_instance(r, n, draw(st.integers(1, n)), seed=draw(st.integers(0, 10_000)))
    return rf.dummy_lift(inst, draw(st.integers(1, 3))) if kind == "dummy" else inst


@settings(max_examples=120, deadline=None)
@given(local_families(), st.one_of(st.none(), st.integers(0, 10_000)))
# its one swap has two second edges to choose from: (1, 4, 5, 12) comes first
@example(rf.random_instance(4, 3, 3, seed=209), None)
def test_local_search_makes_the_reference_moves(inst, seed):
    got = rf.local_search_rainbow(inst, seed=seed)
    want = local_reference.local_search_rainbow(inst, seed=seed)
    assert (got.matching, got.stats.nodes, got.stats.swaps) == (
        want.matching, want.stats.nodes, want.stats.swaps
    )


@settings(max_examples=120, deadline=None)
@given(local_families(), st.randoms(use_true_random=False))
def test_moves_match_the_reference_from_any_start(inst, rnd):
    # first fit over a random subset of the colours: most such matchings
    # admit an extension, which local search from greedy rarely meets
    used: set[int] = set()
    pairs = []
    for colour in rnd.sample(range(inst.n), rnd.randint(0, inst.n)):
        for e in inst.matchings[colour]:
            if used.isdisjoint(e):
                pairs.append((colour, e))
                used.update(e)
                break
    rm = rf.RainbowMatching(tuple(pairs))
    # take the reference's extension moves until there is none left
    while (ext := local_reference.find_extension(inst, rm)) is not None:
        assert rf.find_extension(inst, rm) == ext
        with pytest.raises(rf.ExtensionAvailable) as exc:
            rf.find_swap(inst, rm)
        assert (exc.value.colour, exc.value.edge) == ext
        rm = rf.RainbowMatching(rm.assignment + (ext,))
    assert rf.find_extension(inst, rm) is None
    assert rf.find_swap(inst, rm) == local_reference.find_swap(inst, rm)


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
        assert table.swap == swap
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
        lambda inst: rf.sample_and_extend(inst, seed=1),
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
        lambda inst: rf.sample_and_extend(inst, seed=1),
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
    res = rf.sample_and_extend(inst, seed=1)
    assert isinstance(res, rf.SolveReport)
    assert res.size == 4
    assert rf.is_rainbow_matching(inst, res.matching)


def test_sample_and_extend_on_no_colours_is_an_empty_heuristic_report():
    res = rf.sample_and_extend(rf.Instance(r=3, matchings=()), seed=4)
    assert isinstance(res, rf.SolveReport)
    assert res.certificate == rf.CERT_HEURISTIC and res.size == 0
    assert res.stats.seed == 4 and res.stats.extra == {}


def test_sample_and_extend_rejects_r_below_one():
    # at r = 0 the sampling probability would divide by zero, and at
    # r = -1 the edge () would be matched; r is checked before any other
    # work, the return on no colours included
    for r in (0, -1):
        for matchings in ((((),),), ()):
            with pytest.raises(ValueError, match=f"r must be >= 1, got {r}"):
                rf.sample_and_extend(rf.Instance(r, matchings), seed=1)


def test_sample_and_extend_takes_its_seed_by_keyword():
    # a call that still passes the old target, n, is not read as a seed
    with pytest.raises(TypeError):
        rf.sample_and_extend(rf.cycle_instance(3), 2)


def test_sample_and_extend_failure_names_stage():
    inst = rf.random_instance(3, 25, 5, seed=3)  # far below the intended size regime
    res = rf.sample_and_extend(inst, seed=9)
    assert isinstance(res, rf.SampleExtendFailure)
    assert res.stage in ("sampling", "extension")
    assert res.detail and res.attempts >= 1
    assert rf.is_rainbow_matching(inst, res.best)


def test_sample_and_extend_at_p_one_walks_the_family_once(monkeypatch):
    # at p = 1 no edge avoids the sample, so the per-colour conditions
    # are not tested: the one walk is the off-sample filter, and every
    # retry is still reported as an attempt
    calls = []
    map_parts = solvers.map_parts

    def counting_map_parts(f, inst):
        calls.append(inst)
        return map_parts(f, inst)

    monkeypatch.setattr(solvers, "map_parts", counting_map_parts)
    inst = rf.random_instance(3, 12, 12, seed=5)
    for retries in (1, 7):
        calls.clear()
        res = rf.sample_and_extend(inst, seed=1, retries=retries)
        d = res.diagnostics if isinstance(res, rf.SampleExtendFailure) else res.stats.extra
        attempts = res.attempts if isinstance(res, rf.SampleExtendFailure) else d["attempts"]
        assert d["p_effective"] == 1.0 and d["checks_met"] is False and attempts == retries
        assert calls == [inst]


def test_sample_and_extend_reports_the_tail_bounds_below_p_one():
    # p = 4 n^(-1/(2r)) drops below 1 once n^(1/4) > 4 at r = 2
    inst = rf.random_instance(2, 257, 5, 1)
    res = rf.sample_and_extend(inst, seed=1)
    d = res.diagnostics if isinstance(res, rf.SampleExtendFailure) else res.stats.extra
    p = Fraction(d["p_effective"])
    assert 0 < p < 1
    s_min = inst.min_matching_size()
    # eps = 1 / round(n^(1/(2r))) = 1/4 for the avoiding event
    assert d["tail_inside"] == float(257 * rf.chernoff_tail(s_min, p ** 2, Fraction(1, 2)))
    assert d["tail_avoiding"] == float(257 * rf.chernoff_tail(s_min, 1 - (1 - p) ** 2, Fraction(1, 4)))


def test_sample_and_extend_deterministic_per_seed():
    inst = rf.dummy_lift(rf.random_instance(3, 25, 5, seed=3), 45)
    a = rf.sample_and_extend(inst, seed=7)
    b = rf.sample_and_extend(inst, seed=7)
    assert isinstance(a, rf.SolveReport) and isinstance(b, rf.SolveReport)
    assert a.matching == b.matching
    assert a.stats.extra["attempts"] == b.stats.extra["attempts"]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_sample_and_extend_success_contract(seed):
    inst = rf.dummy_lift(rf.random_instance(3, 6, 2, seed=seed), 6)
    res = rf.sample_and_extend(inst, seed=seed)
    if isinstance(res, rf.SolveReport):
        assert res.size == 6
        assert rf.is_rainbow_matching(inst, res.matching)
    else:
        assert res.stage in ("sampling", "extension")
