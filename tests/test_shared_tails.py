"""Families whose matchings share trailing edge objects, as ``dummy_lift``
builds them.

``Instance.tails[i]`` counts the trailing edges run i holds as the same
objects as run i - 1.  The constructor, ``validate_instance``,
``serialize_instance`` and ``Instance.vertices`` do the work of such a
shared tail once; these tests corrupt the heads and tails of lifted and
hand-built families and require the same violations, in the same order,
as ``io_reference.validate_instance``, the same bytes as a copy whose
every edge is its own object, and a bound on the edges each per-run
check is handed.
"""

from __future__ import annotations

import itertools
import operator
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import rainbow_forge as rf
from rainbow_forge import core, fileformat
import io_reference

PER_PART = 4  # head vertices in each part of a hand-built family


class _Id(int):
    """An int subclass: a matching holding one is copied, not kept."""


def _shared_suffix(a, b) -> int:
    """The number of trailing edges ``a`` holds as the same objects as ``b``."""
    return len(list(itertools.takewhile(bool, map(operator.is_, reversed(a), reversed(b)))))


def _check_tails(inst: rf.Instance) -> None:
    """``inst.tails`` against its definition, read off the stored runs,
    and every stored matching canonical."""
    stored = [m for m, _ in inst.runs]
    assert inst.tails == tuple(
        _shared_suffix(m, prev) for m, prev in zip(stored, [(), *stored])
    )
    for m in stored:
        assert type(m) is tuple and list(m) == sorted(m)
        assert all(type(e) is tuple and all(type(v) is int for v in e) for e in m)
    assert inst.vertices() == {v for m in stored for e in m for v in e}


def _every_edge_copied(inst: rf.Instance) -> rf.Instance:
    """``inst`` with every edge its own object; runs stay shared."""
    copied = core.map_runs(lambda m: tuple(tuple([*e]) for e in m), inst.runs)
    return rf.Instance(inst.r, copied, inst.partition, inst.meta)


def _serialized(inst: rf.Instance):
    try:
        return rf.serialize_instance(inst).encode()
    except ValueError as exc:
        return str(exc)


def _hand_built(rnd: random.Random):
    """Matchings of head edges on PER_PART vertices per part, each ending
    on a suffix of one list of shared tail edges on fresh vertices or of
    the previous matching; some repeat the previous object, some are
    equal copies of it."""
    r = rnd.randint(2, 4)
    base = PER_PART * r
    tail = [tuple(range(base + j * r, base + (j + 1) * r)) for j in range(rnd.randint(1, 4))]
    part = [v % r for v in range(base + len(tail) * r)]
    ms: list = []
    for _ in range(rnd.randint(1, 6)):
        how = rnd.choice(("new", "new", "cut", "repeat", "copy")) if ms else "new"
        if how == "repeat":
            ms.append(ms[-1])
        elif how == "copy":
            ms.append(tuple(tuple([*e]) for e in ms[-1]))
        else:
            h = rnd.randint(0, PER_PART)
            rows = [rnd.sample(range(PER_PART), h) for _ in range(r)]
            head = sorted(tuple(sorted(rows[p][i] * r + p for p in range(r))) for i in range(h))
            ends = ms[-1] if how == "cut" else tail
            ms.append(tuple(head) + tuple(ends[rnd.randint(0, len(ends)) :]))
    return r, ms, part


def _lifted(rnd: random.Random):
    """The uniformity, matchings and partition of a dummy lift, once or
    twice."""
    r = rnd.randint(2, 4)
    base = rnd.choice(
        [
            lambda: rf.random_instance(r, rnd.randint(1, 5), rnd.randint(1, 3), rnd.randrange(100)),
            lambda: rf.ach_instance(3, 4),
            lambda: rf.cycle_instance(4),
        ]
    )()
    inst = rf.dummy_lift(base, rnd.randint(1, 3))
    if rnd.random() < 0.3:
        inst = rf.dummy_lift(inst, 1)
    return inst.r, list(inst.matchings), inst.partition


def _head_and_tail(ms, i):
    """The indices of ``ms[i]``'s edges that no neighbouring matching
    holds as the same object, and of those that one does."""
    near = {id(e) for j in (i - 1, i + 1) if 0 <= j < len(ms) and ms[j] is not ms[i] for e in ms[j]}
    head = [k for k, e in enumerate(ms[i]) if id(e) not in near]
    tail = [k for k, e in enumerate(ms[i]) if id(e) in near]
    return head, tail


def _set_edge(ms, i, k, edge):
    m = list(ms[i])
    m[k] = edge
    ms[i] = tuple(m)


def _replace_object(ms, old, new):
    """Every matching holding the edge object ``old`` holds ``new`` in its
    place; a matching repeated by object stays one object."""
    done: dict[int, tuple] = {}
    for j, m in enumerate(ms):
        if any(e is old for e in m):
            if id(m) not in done:
                done[id(m)] = tuple(new if e is old else e for e in m)
            ms[j] = done[id(m)]


def _filled_head(ms, i):
    """The head indices of ``ms[i]`` whose edges an earlier mutation has
    not emptied, so a vertex of the edge can be drawn."""
    head, tail = _head_and_tail(ms, i)
    return [k for k in head if ms[i][k]], tail


def _head_on_tail_vertex(rnd, r, ms, part):
    i = rnd.randrange(len(ms))
    head, tail = _filled_head(ms, i)
    if head and tail:
        k = rnd.choice(head)
        e = list(ms[i][k])
        e[rnd.randrange(len(e))] = rnd.choice(ms[i][rnd.choice(tail)])
        _set_edge(ms, i, k, tuple(sorted(e)))


def _unsorted_head(rnd, r, ms, part):
    i = rnd.randrange(len(ms))
    head, _ = _head_and_tail(ms, i)
    how = rnd.random()
    if len(head) > 1 and how < 0.3:
        # two head edges out of order: the constructor sorts a copy
        a, b = rnd.sample(head, 2)
        m = list(ms[i])
        m[a], m[b] = m[b], m[a]
        ms[i] = tuple(m)
    elif head and how < 0.6:
        # the last head edge sorts after the first tail edge
        k = head[-1]
        _set_edge(ms, i, k, tuple(v + 1000 for v in ms[i][k]))
    elif head:
        k = rnd.choice(head)
        _set_edge(ms, i, k, ms[i][k][::-1])


def _wrong_arity_head(rnd, r, ms, part):
    i = rnd.randrange(len(ms))
    head, _ = _head_and_tail(ms, i)
    if head:
        k = rnd.choice(head)
        e = ms[i][k]
        _set_edge(ms, i, k, e[:-1] if rnd.random() < 0.5 else e + (10_000,))


def _partition_breaking_head(rnd, r, ms, part):
    i = rnd.randrange(len(ms))
    head, _ = _filled_head(ms, i)
    if head:
        k = rnd.choice(head)
        e = list(ms[i][k])
        # a vertex of another part, or one past the partition
        e[rnd.randrange(len(e))] = rnd.randrange(len(part) + 2) if part else rnd.randrange(50)
        _set_edge(ms, i, k, tuple(sorted(e)))


def _invalid_shared_tail(rnd, r, ms, part):
    # from matching i on, the tail's first edge meets its second: run i
    # fails, and every later run sharing that tail must fail too
    i = rnd.randrange(len(ms))
    _, tail = _head_and_tail(ms, i)
    if len(tail) > 1:
        a, b = ms[i][tail[0]], ms[i][tail[1]]
        bad = tuple(sorted((*a[:-1], b[0])))
        later = ms[i:]
        _replace_object(later, a, bad)
        ms[i:] = later


def _copied_predecessor(rnd, r, ms, part):
    # matching i - 1 is copied by the constructor while matching i holds
    # its tail objects: i's tail must not be trusted
    if len(ms) < 2:
        return
    i = rnd.randrange(1, len(ms))
    shared = [e for e in ms[i] if any(e is f for f in ms[i - 1])]
    if shared and rnd.random() < 0.5:
        # a shared tail edge holding an int subclass: both are copied
        e = rnd.choice(shared)
        _replace_object(ms, e, tuple(map(_Id, e)))
    else:
        ms[i - 1] = list(ms[i - 1])


MUTATIONS = (
    _head_on_tail_vertex,
    _unsorted_head,
    _wrong_arity_head,
    _partition_breaking_head,
    _invalid_shared_tail,
    _copied_predecessor,
)


@st.composite
def tail_families(draw):
    """(r, matchings, partition): a dummy lift or a hand-built family
    whose matchings end on shared edge objects, then 0 to 3 mutations."""
    rnd = draw(st.randoms(use_true_random=False))
    r, ms, part = _lifted(rnd) if draw(st.booleans()) else _hand_built(rnd)
    part = list(part) if part is not None and draw(st.booleans()) else None
    for _ in range(draw(st.integers(0, 3))):
        rnd.choice(MUTATIONS)(rnd, r, ms, part)
    return r, ms, part


def test_mutations_that_draw_a_vertex_skip_an_emptied_edge():
    # _wrong_arity_head can cut an r = 2 head edge down to (); the
    # mutations that then draw one of its vertices must leave it alone
    t = (8, 9)
    for mutate in (_head_on_tail_vertex, _partition_breaking_head):
        for seed in range(40):
            mutate(random.Random(seed), 2, [((), t), ((0, 1), t)], None)


@settings(max_examples=400, deadline=None)
@given(tail_families())
def test_shared_tails_validate_and_serialize_as_with_every_edge_copied(family):
    r, ms, part = family
    inst = rf.Instance(r, tuple(ms), part)
    _check_tails(inst)
    copied = _every_edge_copied(inst)
    assert not any(copied.tails) and copied == inst
    assert rf.validate_instance(inst) == io_reference.validate_instance(inst)
    assert rf.validate_instance(copied) == rf.validate_instance(inst)
    assert _serialized(inst) == _serialized(copied)


def test_a_lift_shares_its_dummy_edges_from_run_1_on():
    # the second lift is the benchmark's: 300 matchings on the same 595 edges
    for n, m in ((30, 7), (300, 595)):
        lift = rf.dummy_lift(rf.random_instance(3, n, 5, 1), m)
        assert lift.tails == (0,) + (m,) * (n - 1)
        _check_tails(lift)
        # the shared edges are one set of objects
        assert len({id(e) for matching in lift.matchings for e in matching[-m:]}) == m
        # a matching of copied edges shares nothing with either neighbour
        ms = list(lift.matchings)
        ms[10] = tuple(tuple([*e]) for e in ms[10])
        broken = rf.Instance(3, tuple(ms))
        assert broken.tails == (0,) + (m,) * 9 + (0, 0) + (m,) * (n - 12)
        # a predecessor given as a list is copied: the next run shares nothing
        ms = list(lift.matchings)
        ms[10] = list(ms[10])
        assert rf.Instance(3, tuple(ms)).tails == (0,) + (m,) * 9 + (0, 0) + (m,) * (n - 12)


def test_random_families_share_no_tail():
    inst = rf.random_instance(3, 40, 6, 2)
    assert inst.tails == (0,) * 40
    _check_tails(inst)


def test_a_run_after_an_invalid_run_is_checked_in_full():
    # matching 1's head meets nothing, but its tail (shared with matching
    # 0, which fails on its head) holds two edges that meet at vertex 9
    tail = ((8, 9), (9, 10))
    m0 = ((0, 1), (1, 2)) + tail
    m1 = ((3, 4),) + tail
    inst = rf.Instance(2, (m0, m1))
    assert inst.tails == (0, 2)
    got = rf.validate_instance(inst)
    assert got == io_reference.validate_instance(inst)
    assert [(v.matching, v.edge) for v in got] == [(0, 1), (0, 3), (1, 2)]


def test_a_longer_tail_is_checked_again():
    # matching 1 shares T[1:] with matching 0; matching 2 shares B and T[1:]
    # with matching 1, a longer tail, and its head (1, 5) meets B
    tail, b = ((10, 11), (12, 13), (14, 15)), (4, 5)
    inst = rf.Instance(2, (((0, 1),) + tail, ((2, 3), b) + tail[1:], ((1, 5), b) + tail[1:]))
    assert inst.tails == (0, 2, 3)
    got = rf.validate_instance(inst)
    assert got == io_reference.validate_instance(inst)
    assert [(v.code, v.matching, v.edge) for v in got] == [("intra-matching intersection", 2, 1)]


def test_a_head_edge_after_the_tail_is_sorted():
    tail = ((10, 11), (12, 13))
    inst = rf.Instance(2, (((0, 1),) + tail, ((20, 21),) + tail))
    assert inst.matchings[1] == ((10, 11), (12, 13), (20, 21))
    assert inst.tails == (0, 0)
    _check_tails(inst)


def test_vertices_reads_the_heads():
    lift = rf.dummy_lift(rf.ach_instance(3, 4), 2)
    assert lift.vertices() == set(range(18))
    assert lift.vertex_count() == 18


def test_lift_work_is_per_head(monkeypatch):
    """On the benchmark's lift, 300 matchings of 5 head edges ending on
    the same 595 edges, the constructor's canonical test, the
    whole-matching check and the edge-line formatter are each handed at
    most the heads (run 0 whole), one tail and one boundary edge per run:
    2,990 edges, not 300 x 600 = 180,000."""
    base = rf.random_instance(3, 300, 5, 1)
    counts = {"canonical": 0, "valid": 0, "lines": 0}
    is_canonical, matching_is_valid, edge_line = (
        core._is_canonical,
        core._matching_is_valid,
        fileformat._edge_line,
    )

    def counting_canonical(m):
        counts["canonical"] += len(m)
        return is_canonical(m)

    def counting_valid(m, r, bits):
        counts["valid"] += len(m)
        return matching_is_valid(m, r, bits)

    def counting_edge_line(r):
        line = edge_line(r)

        def counted(e):
            counts["lines"] += 1
            return line(e)

        return counted

    monkeypatch.setattr(core, "_is_canonical", counting_canonical)
    monkeypatch.setattr(core, "_matching_is_valid", counting_valid)
    monkeypatch.setattr(fileformat, "_edge_line", counting_edge_line)
    lift = rf.dummy_lift(base, 595)
    assert lift.tails == (0,) + (595,) * 299
    assert rf.validate_instance(lift) == []
    text = rf.serialize_instance(lift)
    bound = (600 + 299 * 5) + 595 + 300
    assert max(counts.values()) <= bound
    # a parse loads the same shared edges and pays the same again
    counts.update(canonical=0, valid=0)
    assert rf.parse_instance(text) == lift
    assert max(counts.values()) <= bound
