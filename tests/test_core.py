import functools
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbow_forge as rf


def test_cycle_instance_validates_clean():
    assert rf.validate_instance(rf.cycle_instance(3)) == []


def test_intra_matching_intersection_reported():
    inst = rf.Instance(r=3, matchings=(((0, 1, 2), (2, 3, 4)),))
    report = rf.validate_instance(inst)
    assert len(report) == 1
    v = report[0]
    assert v.code == "intra-matching intersection"
    assert v.matching == 0 and v.edge == 1
    assert "vertex 2" in v.message


def test_ach_partition_validates_clean():
    inst = rf.ach_instance(3, 4)
    assert rf.validate_instance(inst) == []
    # every edge meets each part exactly once; a constant partition breaks that
    broken = rf.Instance(inst.r, inst.matchings, partition=(0,) * 12)
    assert any(v.code == "partition-edge" for v in rf.validate_instance(broken))


def test_edge_arity_and_vertex_order_violations():
    inst = rf.Instance(r=3, matchings=(((0, 1),), ((2, 1, 3),), ((-1, 1, 2),)))
    codes = [v.code for v in rf.validate_instance(inst)]
    assert codes.count("edge-arity") == 1
    assert codes.count("edge-vertices") == 2


def test_uniformity_below_two_flagged():
    report = rf.validate_instance(rf.Instance(r=1, matchings=()))
    assert any(v.code == "uniformity" for v in report)


def test_empty_edges_at_r_zero_report_only_uniformity():
    # an empty edge has no vertex to be negative, repeated or shared
    inst = rf.Instance(r=0, matchings=(((), ()), ((), (0,))))
    report = rf.validate_instance(inst)
    assert [(v.code, v.matching, v.edge) for v in report] == [
        ("uniformity", None, None),
        ("edge-arity", 1, 1),
    ]


def test_partition_coverage_flagged():
    inst = rf.Instance(r=2, matchings=(((0, 5),),), partition=(0, 1))
    assert any(v.code == "partition-coverage" for v in rf.validate_instance(inst))


def test_empty_assignment_is_rainbow():
    assert rf.is_rainbow_matching(rf.cycle_instance(3), rf.RainbowMatching())


def test_colour_reuse_rejected():
    inst = rf.cycle_instance(3)
    rm = rf.RainbowMatching(((1, (0, 1)), (1, (2, 3))))
    assert not rf.is_rainbow_matching(inst, rm)


def test_disjoint_edges_of_two_copies_of_same_matching():
    inst = rf.cycle_instance(3)
    rm = rf.RainbowMatching(((0, (0, 1)), (1, (2, 3))))
    assert rf.is_rainbow_matching(inst, rm)


def test_colour_out_of_range_raises():
    with pytest.raises(ValueError, match="out of range"):
        rf.is_rainbow_matching(rf.cycle_instance(3), rf.RainbowMatching(((7, (0, 1)),)))


def test_membership_and_disjointness_checked():
    inst = rf.cycle_instance(3)
    assert not rf.is_rainbow_matching(inst, rf.RainbowMatching(((0, (0, 2)),)))
    assert not rf.is_rainbow_matching(
        inst, rf.RainbowMatching(((0, (0, 1)), (2, (1, 2))))
    )


def test_membership_checked_for_colours_sharing_a_matching():
    inst = rf.cycle_instance(4)  # colours 0 to 2 share one matching object
    assert inst.matchings[0] is inst.matchings[2]
    # membership is tested for every colour of the shared matching
    assert rf.is_rainbow_matching(inst, rf.RainbowMatching(((0, (0, 1)), (1, (2, 3)), (2, (4, 5)))))
    assert not rf.is_rainbow_matching(inst, rf.RainbowMatching(((0, (0, 1)), (2, (5, 6)))))
    assert not rf.is_rainbow_matching(inst, rf.RainbowMatching(((0, (0, 1)), (1, (2, 3)), (2, (5, 6)))))
    assert not rf.is_rainbow_matching(inst, rf.RainbowMatching(((0, (0, 1)), (1, (0, 1)))))


def test_vertex_count_and_min_size():
    inst = rf.ach_instance(3, 4)
    assert inst.vertex_count() == 12
    assert inst.min_matching_size() == 4
    assert rf.Instance(r=3, matchings=()).vertex_count() == 0


def test_constructor_sorts_edges_only():
    inst = rf.Instance(r=2, matchings=(((4, 5), (0, 1)), ((2, 3),)))
    assert inst.matchings == (((0, 1), (4, 5)), ((2, 3),))
    assert inst == rf.Instance(r=2, matchings=(((0, 1), (4, 5)), ((2, 3),)))
    # colour order, vertex order inside an edge and repeated edges are
    # kept, so validation still sees them
    inst = rf.Instance(r=2, matchings=(((2, 3),), ((1, 0),), ((0, 1), (0, 1))))
    assert inst.matchings == (((2, 3),), ((1, 0),), ((0, 1), (0, 1)))
    codes = [v.code for v in rf.validate_instance(inst)]
    assert codes == ["edge-vertices", "intra-matching intersection"]


def test_constructor_keeps_a_canonical_matching():
    m = ((0, 1), (2, 3), (2, 3), (4, 5))  # repeated edges are still sorted order
    inst = rf.Instance(r=2, matchings=(m, ()))
    assert inst.matchings[0] is m
    assert inst.matchings[1] == ()


def test_constructor_copies_a_shared_matching_once():
    m = ((2, 3), (0, 1))  # not in sorted order, so it is copied
    inst = rf.Instance(r=2, matchings=(m, m, ((4, 5),), m))
    assert inst.matchings[0] == ((0, 1), (2, 3))
    assert inst.matchings[0] is inst.matchings[1]
    # a later run of the same object is copied again, to an equal tuple
    assert inst.matchings[3] == inst.matchings[0]


class _Int(int):
    pass


@pytest.mark.parametrize(
    "m",
    [
        ((0, True), (2, 3)),
        ((0, _Int(1)), (2, _Int(3))),
        ([0, 1], [2, 3]),
        ([0, 1],),
    ],
    ids=["bool", "int-subclass", "list-edges", "one-list-edge"],
)
def test_constructor_normalises_a_sorted_non_canonical_matching(m):
    inst = rf.Instance(r=2, matchings=(m,))
    edges = inst.matchings[0]
    assert edges == tuple(tuple(map(operator.index, e)) for e in sorted(m))
    assert edges is not m
    assert all(type(e) is tuple and all(type(v) is int for v in e) for e in edges)


@pytest.mark.parametrize(
    "m",
    [([0, 1], (2, 3)), ((0, 1), [2, 3]), ([2, 3], (0, 1))],
    ids=["list-then-tuple", "tuple-then-list", "unsorted"],
)
def test_constructor_normalises_a_matching_of_list_and_tuple_edges(m):
    # RainbowMatching normalises the same mix; comparing a list edge with
    # a tuple edge must not raise TypeError
    inst = rf.Instance(r=2, matchings=(m,))
    assert inst == rf.Instance(r=2, matchings=(((0, 1), (2, 3)),))
    assert all(type(e) is tuple for e in inst.matchings[0])


@pytest.mark.parametrize("r", [3.0, "3"], ids=["float", "string"])
def test_constructor_rejects_a_non_integer_r(r):
    with pytest.raises(TypeError):
        rf.Instance(r, (((0, 1, 2),),), partition=(0, 1, 2))


def test_constructor_stores_a_bool_r_as_an_int():
    inst = rf.Instance(True, (((0,),),))
    assert inst.r == 1 and type(inst.r) is int
    text = rf.serialize_instance(inst)
    assert "\nr 1\n" in text and "r True" not in text


def test_constructor_rejects_a_sorted_matching_with_a_float_vertex():
    with pytest.raises(TypeError):
        rf.Instance(r=2, matchings=(((0, 1.0), (2, 3)),))


def test_rainbow_matching_sorts_pairs_by_colour_then_edge():
    rm = rf.RainbowMatching(((2, (4, 5)), (0, (3, 1)), (0, (0, 2))))
    assert rm.assignment == ((0, (0, 2)), (0, (3, 1)), (2, (4, 5)))


def test_rainbow_matching_keeps_a_canonical_assignment_as_it_is():
    pairs = ((0, (0, 2)), (0, (3, 4)), (2, (1, 5)))
    assert rf.RainbowMatching(pairs).assignment is pairs
    assert rf.RainbowMatching(()).assignment == ()


@pytest.mark.parametrize(
    "pairs",
    [
        ((0, (0, 2)), (True, (3, 4))),
        ((0, (0, 2)), (1, (_Int(3), 4))),
        ((0, (0, 2)), (1, [3, 4])),
        ((0, (0, 2)), [1, (3, 4)]),
        [(0, (0, 2)), (1, (3, 4))],
        ((0, (3, 4)), (0, (0, 2))),
    ],
    ids=["bool-colour", "int-subclass-vertex", "list-edge", "list-pair", "list", "unsorted"],
)
def test_rainbow_matching_normalises_a_non_canonical_assignment(pairs):
    rm = rf.RainbowMatching(pairs)
    assert rm.assignment == tuple(sorted((operator.index(c), tuple(map(operator.index, e))) for c, e in pairs))
    assert rm.assignment is not pairs
    assert all(type(c) is int and type(e) is tuple and {type(v) for v in e} == {int} for c, e in rm.assignment)


@pytest.mark.parametrize(
    "build",
    [
        lambda: rf.RainbowMatching(((0, (0.2, 1.9)),)),
        lambda: rf.RainbowMatching(((0, (0, 1)), (1, (2.0, 3)))),
        lambda: rf.RainbowMatching(((0, (0, 1)), (1.0, (2, 3)))),
        lambda: rf.RainbowMatching(((0.0, (0, 1)),)),
        lambda: rf.RainbowMatching((("0", (0, 1)),)),
        lambda: rf.Instance(r=2, matchings=(((0, 1.0),),)),
        lambda: rf.Instance(r=2, matchings=(((0, "1"),),)),
        lambda: rf.Instance(r=2, matchings=(((0, 1),),), partition=(0, 1.0)),
    ],
)
def test_non_integer_vertex_or_colour_rejected(build):
    # int() would truncate 0.2 and 1.9 to the edge (0, 1) of colour 0
    with pytest.raises(TypeError):
        build()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(2, 4),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(0, 2),
    st.randoms(use_true_random=False),
)
def test_edge_and_pair_order_carry_no_meaning(seed, r, n, s, m, rnd):
    inst = rf.dummy_lift(rf.random_instance(r, n, s, seed=seed), m)
    matchings = tuple(tuple(rnd.sample(mt, len(mt))) for mt in inst.matchings)
    shuffled = rf.Instance(inst.r, matchings, inst.partition, inst.meta)
    assert shuffled == inst
    assert rf.serialize_instance(shuffled) == rf.serialize_instance(inst)

    def outcome(report):
        stats = report.stats
        return report.matching, report.certificate, stats.nodes, stats.swaps, stats.extra

    local = functools.partial(rf.local_search_rainbow, seed=seed)
    for solve in (rf.greedy_rainbow, local, rf.exact_max_rainbow):
        assert outcome(solve(shuffled)) == outcome(solve(inst))

    rm = rf.local_search_rainbow(inst, seed=seed).matching
    pairs = list(rm.assignment)
    rnd.shuffle(pairs)
    assert rf.RainbowMatching(tuple(pairs)) == rm


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 255))
def test_rainbow_property_monotone_under_removal(seed, drop_mask):
    inst = rf.random_instance(3, 5, 4, seed)
    rm = rf.local_search_rainbow(inst, seed=seed).matching
    assert rf.is_rainbow_matching(inst, rm)
    kept = tuple(pair for i, pair in enumerate(rm.assignment) if not drop_mask >> i & 1)
    assert rf.is_rainbow_matching(inst, rf.RainbowMatching(kept))


def _unshared(inst):
    """``inst`` with every colour holding its own tuple."""
    return rf.Instance(inst.r, tuple(tuple([*m]) for m in inst.matchings), inst.partition, inst.meta)


_A, _B = ((0, 1),), ((2, 3),)
_RUN_FAMILIES = {
    "shared": rf.cycle_instance(5),
    "unshared": _unshared(rf.cycle_instance(5)),
    # one object twice, then an equal copy; one object, then an equal copy
    "mixed": rf.Instance(2, (_A, _A, tuple([*_A]), _B, tuple([*_B]))),
    "empty": rf.Instance(2, ()),
}


@pytest.mark.parametrize("inst", _RUN_FAMILIES.values(), ids=_RUN_FAMILIES.keys())
def test_runs_are_the_maximal_runs_of_one_matching_object(inst):
    assert [c for _, colours in inst.runs for c in colours] == list(range(inst.n))
    assert all(a is not b for (a, _), (b, _) in zip(inst.runs, inst.runs[1:]))
    assert all(inst.matchings[c] is m for m, colours in inst.runs for c in colours)


def test_runs_follow_the_objects_not_equality():
    assert [len(c) for _, c in _RUN_FAMILIES["shared"].runs] == [4, 1]
    assert [len(c) for _, c in _RUN_FAMILIES["unshared"].runs] == [1] * 5
    assert [len(c) for _, c in _RUN_FAMILIES["mixed"].runs] == [2, 1, 1, 1]
    assert _RUN_FAMILIES["empty"].runs == ()
    # derived data: no part of equality or the repr
    shared, unshared = _RUN_FAMILIES["shared"], _RUN_FAMILIES["unshared"]
    assert shared == unshared and repr(shared) == repr(unshared)


def test_matchings_are_the_given_tuple_unless_a_matching_is_copied():
    given = rf.cycle_instance(5).matchings
    assert rf.Instance(2, given).matchings is given
    # a list is copied, so the colours are gathered again from the runs
    mixed = (*given[:-1], list(given[-1]))
    assert rf.Instance(2, mixed).matchings is not mixed
    assert rf.Instance(2, mixed).matchings == given


@pytest.mark.parametrize(
    "build",
    [
        lambda: rf.cycle_instance(7),
        lambda: rf.ach_instance(4, 10),
        lambda: rf.k4_union_instance(9),
        lambda: rf.dummy_lift(rf.ach_instance(3, 4), 2),
        lambda: rf.random_instance(3, 6, 4, seed=2),
    ],
)
def test_serialize_is_the_same_for_shared_and_unshared_matchings(build):
    inst = build()
    unshared = _unshared(inst)
    assert len(unshared.runs) == inst.n
    assert rf.serialize_instance(unshared).encode() == rf.serialize_instance(inst).encode()


def _is_rainbow_by_definition(inst, rm):
    """The definition, with a linear scan for membership."""
    for c, _ in rm.assignment:
        if not 0 <= c < inst.n:
            raise ValueError(c)
    colours = [c for c, _ in rm.assignment]
    if len(set(colours)) != len(colours):
        return False
    if not all(any(f == e for f in inst.matchings[c]) for c, e in rm.assignment):
        return False
    return all(not set(a) & set(b) for (_, a), (_, b) in itertools.combinations(rm.assignment, 2))


def _near_misses(e):
    """Edges that sort next to ``e``: its last vertex moved by one, its
    prefix, and its reverse."""
    return [(*e[:-1], e[-1] + 1), (*e[:-1], e[-1] - 1), e[:-1], e[::-1]]


@st.composite
def _instances_and_assignments(draw):
    r = draw(st.integers(2, 3))
    # vertices in any order, so some edges are reversed
    edge = st.lists(st.integers(0, 7), min_size=r, max_size=r, unique=True).map(tuple)
    matchings = []
    for _ in range(draw(st.integers(0, 5))):
        how = draw(st.sampled_from(["new", "shared", "equal copy"])) if matchings else "new"
        if how == "new":
            m = draw(st.lists(edge, max_size=4))
            m += m[:1] if draw(st.booleans()) else []  # a repeated edge
            matchings.append(tuple(m))
        else:
            matchings.append(matchings[-1] if how == "shared" else tuple([*matchings[-1]]))
    inst = rf.Instance(r, tuple(matchings))
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        n = inst.n
        colour = draw(st.integers(0, n - 1) if n and draw(st.integers(0, 9)) else st.sampled_from([-1, n]))
        members = list(inst.matchings[colour]) if 0 <= colour < n else []
        candidates = members + [x for e in members for x in _near_misses(e) if x]
        pairs.append((colour, draw(st.sampled_from(candidates)) if candidates else draw(edge)))
    return inst, rf.RainbowMatching(tuple(pairs))


@settings(max_examples=300, deadline=None)
@given(_instances_and_assignments())
def test_is_rainbow_matching_follows_the_definition(case):
    inst, rm = case
    try:
        want = _is_rainbow_by_definition(inst, rm)
    except ValueError:
        with pytest.raises(ValueError, match="out of range"):
            rf.is_rainbow_matching(inst, rm)
    else:
        assert rf.is_rainbow_matching(inst, rm) == want
