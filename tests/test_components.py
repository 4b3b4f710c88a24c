"""The exact solver on disjoint unions, which it solves component by
component, checked against the brute-force and the ILP oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbow_forge as rf
from rainbow_forge import solvers

from components_reference import reference_by_components
from ilp_oracle import ilp_max_rainbow
from oracle import brute_force_max_rainbow


def disjoint_union(parts: list[rf.Instance]) -> rf.Instance:
    """The parts on disjoint vertex ranges; matching j is the union of
    the parts' matchings j."""
    matchings: list[list[tuple[int, ...]]] = [[] for _ in parts[0].matchings]
    offset = 0
    for part in parts:
        for j, m in enumerate(part.matchings):
            matchings[j].extend(tuple(v + offset for v in e) for e in m)
        offset += max(part.vertices(), default=-1) + 1
    return rf.Instance(parts[0].r, tuple(tuple(sorted(m)) for m in matchings))


def blowup() -> rf.Instance:
    part = rf.find_blocking_family(3, 4, 2, seed=1)
    return rf.blowup_compose([part, part, part])


PAPER_CONSTRUCTIONS = [
    (lambda: rf.ach_instance(4, 10), 6),
    (lambda: rf.ach_instance(4, 12), 8),
    (lambda: rf.ach_instance(3, 64), 62),
    (lambda: rf.k4_union_instance(41), 40),
    (lambda: rf.cycle_instance(200), 199),
    (lambda: rf.dummy_lift(rf.ach_instance(4, 8), 2), 6),
    (blowup, 3),
]


@pytest.mark.parametrize("build, optimum", PAPER_CONSTRUCTIONS)
def test_exact_matches_ilp_on_paper_constructions(build, optimum):
    inst = build()
    rep = rf.exact_max_rainbow(inst)
    assert rep.certificate == rf.CERT_EXACT
    assert rep.size == optimum == ilp_max_rainbow(inst)
    assert rf.is_rainbow_matching(inst, rep.matching)


@pytest.mark.parametrize("build, optimum", PAPER_CONSTRUCTIONS)
def test_shared_matching_objects_do_not_change_exact_results(build, optimum):
    # as built (repeated classes share one object), read back from its
    # text (equal consecutive matchings share one tuple), and with every
    # colour its own copy: the same table, search and witness
    inst = build()
    reread = rf.parse_instance(rf.serialize_instance(inst))
    unshared = rf.Instance(inst.r, tuple(tuple([*m]) for m in inst.matchings), inst.partition, inst.meta)
    assert len({id(m) for m in unshared.matchings}) == inst.n
    assert reread == unshared == inst
    results = [
        (rep.size, rep.matching, rep.certificate, rep.stats.nodes)
        for rep in map(rf.exact_max_rainbow, (inst, reread, unshared))
    ]
    assert results == [results[0]] * 3
    assert results[0][0] == optimum and results[0][2] == rf.CERT_EXACT


@pytest.mark.parametrize(
    "build, nodes, dp_states",
    [
        (lambda: rf.ach_instance(4, 10), 31, 13),
        (lambda: rf.ach_instance(3, 64), 72, 62),
        (lambda: rf.k4_union_instance(41), 48, 40),
        (lambda: rf.dummy_lift(rf.ach_instance(4, 8), 2), 26, 0),
        (blowup, 9, 0),
        (lambda: rf.ach_instance(6, 64), 1234, 1168),
        (lambda: rf.ach_instance(7, 128), 8866, 8736),
    ],
)
def test_component_counts_on_paper_constructions(build, nodes, dp_states):
    rep = rf.exact_max_rainbow(build())
    assert rep.certificate == rf.CERT_EXACT
    assert (rep.stats.nodes, rep.stats.extra["dp_states"]) == (nodes, dp_states)


@pytest.mark.parametrize(
    "build, optimum, nodes, dp_states",
    [
        (lambda: rf.ach_instance(4, 10), 6, 54, 36),
        (lambda: rf.ach_instance(4, 12), 8, 76, 58),
        (lambda: rf.ach_instance(3, 64), 62, 1531, 1521),
        (lambda: rf.k4_union_instance(41), 40, 470, 462),
        (lambda: rf.dummy_lift(rf.ach_instance(4, 8), 2), 6, 47, 21),
        (blowup, 3, 15, 6),
        (lambda: rf.ach_instance(6, 64), 48, 5521, 5455),
    ],
)
def test_components_rebuild_a_witness_on_paper_constructions(build, optimum, nodes, dp_states):
    # from an empty incumbent every DP layer is kept and the witness is
    # rebuilt from the types' capacities, which the local-search
    # incumbents, already optimal, never need
    inst = build()
    matching, got_nodes, exhausted, extra = solvers._by_components(
        *solvers._colour_classes(inst), inst.r, None, rf.RainbowMatching()
    )
    assert (matching.size, got_nodes, extra["dp_states"]) == (optimum, nodes, dp_states)
    assert exhausted is False
    assert rf.is_rainbow_matching(inst, matching)


def test_equal_matchings_of_different_objects_form_one_class():
    # colours 0 and 2 share an object, colours 1 and 3 hold equal copies:
    # one class with members in colour order, as when every colour has
    # its own copy; from an empty incumbent the search builds the witness
    base = rf.cycle_instance(5)
    even, odd = base.matchings[0], base.matchings[-1]
    mixed = rf.Instance(2, (even, tuple([*even]), even, tuple([*even]), odd))
    unshared = rf.Instance(2, tuple(tuple([*m]) for m in mixed.matchings))
    got, want = (rf.exact_max_rainbow(i, incumbent=rf.RainbowMatching()) for i in (mixed, unshared))
    assert (got.matching, got.stats.nodes) == (want.matching, want.stats.nodes)
    assert got.size == 4


def test_reading_a_cycle_family_keeps_its_two_classes():
    inst = rf.parse_instance(rf.serialize_instance(rf.cycle_instance(300)))
    assert len({id(m) for m in inst.matchings}) == 2
    assert all(m is inst.matchings[0] for m in inst.matchings[:-1])


@pytest.mark.parametrize(
    "r, n", [(r, n) for r in range(3, 7) for n in range(2 ** (r - 1), 65, 2)]
)
def test_exact_certifies_ach_optimum(r, n):
    inst = rf.ach_instance(r, n)
    rep = rf.exact_max_rainbow(inst)
    assert rep.certificate == rf.CERT_EXACT
    assert rep.size == n - 2 ** (r - 2) == ilp_max_rainbow(inst)
    assert rf.is_rainbow_matching(inst, rep.matching)
    assert rep.stats.extra["components"] == n // 2


@pytest.mark.parametrize("budget", [None, 36, 35, 10, 0])
def test_exact_by_components_only_within_the_budget(budget):
    # 18 enumeration nodes for the one gadget shape, then 18 DP states
    # that could still beat the incumbent; with fewer nodes the search
    # runs under the whole budget instead.  At budget 0 the search's
    # root is past it: counted, not run, so the incumbent is returned
    inst = rf.ach_instance(4, 12)
    rep = rf.exact_max_rainbow(inst, node_budget=budget)
    assert rf.is_rainbow_matching(inst, rep.matching)
    if budget is None or budget >= 36:
        assert rep.certificate == rf.CERT_EXACT and rep.size == 8
        assert rep.stats.nodes == 36
        assert rep.stats.extra == {"incumbent_size": 8, "components": 6, "dp_states": 18}
    else:
        assert rep.certificate == rf.CERT_HEURISTIC
        assert rep.stats.nodes == budget + 1 and "components" not in rep.stats.extra


@pytest.mark.parametrize(
    "parts, size, nodes",
    [
        # about 50,000 selections in each random part
        ([rf.random_instance(3, 12, 6, seed=s) for s in (1, 2)], 12, 18),
        # 16 classes that no symmetry merges: the DP state space explodes
        ([rf.random_instance(3, 16, 1, seed=s) for s in range(1, 7)], 12, 137),
    ],
)
def test_rich_components_are_left_to_the_search(parts, size, nodes):
    rep = rf.exact_max_rainbow(disjoint_union(parts))
    assert (rep.size, rep.certificate, rep.stats.nodes) == (size, rf.CERT_EXACT, nodes)
    assert "components" not in rep.stats.extra


@st.composite
def unions(draw):
    """2-4 small random families side by side, some of them repeating
    one matching so that colour classes form."""
    r = draw(st.integers(2, 3))
    n = draw(st.integers(1, 6))
    parts = []
    for _ in range(draw(st.integers(2, 4))):
        part = rf.random_instance(r, n, draw(st.integers(1, 2)), seed=draw(st.integers(0, 10_000)))
        repeat = draw(st.integers(0, n))
        parts.append(rf.Instance(r, (part.matchings[0],) * repeat + part.matchings[repeat:]))
    return disjoint_union(parts)


def test_components_skip_an_empty_colour_class():
    # the empty colour adds no edge and no type; the gadgets still split
    # into two components
    inst = rf.Instance(3, rf.ach_instance(3, 4).matchings + ((),))
    rep = rf.exact_max_rainbow(inst)
    assert rep.certificate == rf.CERT_EXACT and rep.stats.extra["components"] == 2
    assert rep.size == brute_force_max_rainbow(inst)
    assert rf.is_rainbow_matching(inst, rep.matching)


@settings(max_examples=60, deadline=None)
@given(unions())
def test_exact_by_components_matches_the_oracles(inst):
    want = brute_force_max_rainbow(inst)
    assert ilp_max_rainbow(inst) == want
    rep = rf.exact_max_rainbow(inst)
    assert rep.certificate == rf.CERT_EXACT and rep.size == want
    assert rf.is_rainbow_matching(inst, rep.matching)
    if "components" in rep.stats.extra:
        assert rep.stats.extra["components"] >= 2
    # an incumbent below the optimum makes the combination rebuild its
    # own witness; the local optimum less one edge also lets the bound
    # prune DP states
    classes, nv = solvers._colour_classes(inst)
    local = rf.local_search_rainbow(inst).matching
    for incumbent in (rf.RainbowMatching(), rf.RainbowMatching(local.assignment[:-1])):
        forced = solvers._by_components(classes, nv, inst.r, None, incumbent)
        if forced is not None:
            matching, _, exhausted, extra = forced
            assert exhausted is False and extra["components"] >= 2
            assert matching.size == want and rf.is_rainbow_matching(inst, matching)


@settings(max_examples=100, deadline=None)
@given(unions())
def test_components_match_the_reference_dp(inst):
    # the same attempts, states, nodes and extra entries as the DP that
    # named class slots; a witness may differ where a state's first
    # parent does, so it is only checked to be valid and of the size
    # the package's classes on one side, the reference's own on the other
    classes, nv = solvers._colour_classes(inst)
    local = rf.local_search_rainbow(inst).matching
    incumbents = (local, rf.RainbowMatching(), rf.RainbowMatching(local.assignment[:-1]))
    for incumbent in incumbents:
        for budget in (None, 40):
            got = solvers._by_components(classes, nv, inst.r, budget, incumbent)
            want = reference_by_components(inst, budget, incumbent)
            assert (got is None) == (want is None)
            if got is not None:
                matching, nodes, exhausted, extra = got
                assert (matching.size, nodes, extra) == (want[0].size, want[1], want[2])
                assert exhausted is False
                assert rf.is_rainbow_matching(inst, matching)
