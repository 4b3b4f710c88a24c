"""The fast instance checks and parser against their per-vertex references.

Valid families (r 0..5, partitioned or not, some lifted by shared edges
appended to every matching, some with a matching repeated right after
itself) are corrupted in every way a violation code or a
parse error covers, and ``validate_instance`` and ``parse_instance``
must agree with ``io_reference`` on the result: equal violation lists in
equal order, equal ``ParseError`` text and line, and equal instances.
The reference checks and reads every copy of a repeated matching; the
package checks a valid shared one and reads a repeated block once.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbow_forge as rf
import io_reference

PER_PART = 5  # vertices in each part of a generated family


def _pick_edge(rnd: random.Random, matchings):
    edges = [(m, k) for m in matchings for k in range(len(m))]
    return rnd.choice(edges) if edges else (None, None)


def _arity(rnd, r, matchings, part):
    m, k = _pick_edge(rnd, matchings)
    if m is not None:
        e = m[k]
        m[k] = e[:-1] if e and rnd.random() < 0.5 else e + [rnd.randrange(r * PER_PART + 2)]


def _negative(rnd, r, matchings, part):
    m, k = _pick_edge(rnd, matchings)
    if m is not None and m[k]:
        m[k][rnd.randrange(len(m[k]))] = -rnd.randint(1, 3)


def _repeated(rnd, r, matchings, part):
    m, k = _pick_edge(rnd, matchings)
    if m is not None and len(m[k]) > 1:
        i, j = rnd.sample(range(len(m[k])), 2)
        m[k][i] = m[k][j]


def _unsorted(rnd, r, matchings, part):
    m, k = _pick_edge(rnd, matchings)
    if m is not None and len(m[k]) > 1:
        i, j = rnd.sample(range(len(m[k])), 2)
        m[k][i], m[k][j] = m[k][j], m[k][i]


def _shared(rnd, r, matchings, part):
    m, k = _pick_edge(rnd, matchings)
    # the other non-empty edges of the matching; r = 0 can leave none
    others = [e for i, e in enumerate(m) if i != k and e] if m is not None and m[k] else []
    if others:
        other = rnd.choice(others)
        m[k][rnd.randrange(len(m[k]))] = rnd.choice(other)
        m[k].sort()


def _part_out_of_range(rnd, r, matchings, part):
    if part:
        part[rnd.randrange(len(part))] = rnd.choice([-1, r, r + 2])


def _beyond_partition(rnd, r, matchings, part):
    m, k = _pick_edge(rnd, matchings)
    if part is not None and m is not None and m[k]:
        m[k][-1] = len(part) + rnd.randrange(3)


def _missing_part(rnd, r, matchings, part):
    # move one vertex to another part: its edges then meet that part twice
    if part and r > 1:
        v = rnd.randrange(len(part))
        part[v] = (part[v] + rnd.randrange(1, r)) % r


def _short_partition(rnd, r, matchings, part):
    if part:
        del part[rnd.randrange(len(part)) :]


CORRUPTIONS = (
    _arity,
    _negative,
    _repeated,
    _unsorted,
    _shared,
    _part_out_of_range,
    _beyond_partition,
    _missing_part,
    _short_partition,
)


@st.composite
def families(draw):
    """(r, matchings, partition): a valid family, maybe lifted by up to
    two shared edges and one matching repeated right after itself, then
    0 to 3 corruptions.

    Part ``p`` holds the vertices ``relabel[q * r + p]``, and the edges of
    a matching take distinct vertices from every part, so the family is
    valid before it is corrupted.  The lifted edges and the repeat are
    copies, so a corruption can hit one of them alone.
    """
    rnd = draw(st.randoms(use_true_random=False))
    r = draw(st.integers(0, 5))
    relabel = list(range(r * PER_PART))
    rnd.shuffle(relabel)
    part = [0] * len(relabel)
    for v, label in enumerate(relabel):
        part[label] = v % r
    matchings = []
    for _ in range(draw(st.integers(0, 4))):
        k = rnd.randint(0, PER_PART)
        rows = [rnd.sample(range(PER_PART), k) for _ in range(r)]
        matchings.append([sorted(relabel[rows[p][i] * r + p] for p in range(r)) for i in range(k)])
    # a dummy lift: fresh disjoint edges, part p of each on a new vertex
    # of part p, appended to every matching as copies
    tail = [[len(part) + k * r + p for p in range(r)] for k in range(draw(st.integers(0, 2)))]
    part += [p for _ in tail for p in range(r)]
    for m in matchings:
        m.extend(list(e) for e in tail)
    if not draw(st.booleans()):
        part = None
    if matchings and draw(st.booleans()):
        i = rnd.randrange(len(matchings))
        matchings.insert(i + 1, [list(e) for e in matchings[i]])
    for _ in range(draw(st.integers(0, 3))):
        rnd.choice(CORRUPTIONS)(rnd, r, matchings, part)
    return r, matchings, part


def _instance(r, matchings, part) -> rf.Instance:
    """The family as an instance whose equal consecutive matchings are
    one object, as ``parse_instance`` loads them."""
    shared: list[tuple] = []
    for m in matchings:
        m = tuple(map(tuple, m))
        shared.append(shared[-1] if shared and shared[-1] == m else m)
    return rf.Instance(r=r, matchings=tuple(shared), partition=part)


@settings(max_examples=400, deadline=None)
@given(families())
def test_validate_instance_matches_reference(family):
    inst = _instance(*family)
    try:
        expected = io_reference.validate_instance(inst)
    except IndexError:
        # the reference reads e[0] of an empty edge, which only r = 0
        # lets through; such an edge has no vertex to violate anything
        assert inst.r == 0 and any(() in m for m in inst.matchings)
        got = rf.validate_instance(inst)
        assert got[0].code == "uniformity"
        assert all(inst.matchings[v.matching][v.edge] for v in got[1:])
        return
    assert rf.validate_instance(inst) == expected


def test_validate_instance_reports_a_shared_invalid_matching_under_every_colour():
    bad = ((0, 1), (1, 2))  # edges 0 and 1 share vertex 1
    inst = rf.Instance(r=2, matchings=(bad, ((4, 5),), bad))
    unshared = rf.Instance(r=2, matchings=(bad, ((4, 5),), tuple([*bad])))
    assert inst.matchings[0] is inst.matchings[2]
    assert unshared.matchings[0] is not unshared.matchings[2]
    got = rf.validate_instance(inst)
    assert got == io_reference.validate_instance(unshared)
    assert [(v.code, v.matching, v.edge) for v in got] == [
        ("intra-matching intersection", 0, 1),
        ("intra-matching intersection", 2, 1),
    ]


def _text(rnd: random.Random, r, matchings, part) -> str:
    """The family in the file format, edge lines in the order given (so
    an unsorted or wrong-arity edge reaches the parser), then 0 to 2
    corrupted lines."""
    lines = [rf.FORMAT_VERSION, f"r {r}", f"n {len(matchings)}"]
    if part is not None:
        lines.append("partition " + " ".join(map(str, part)))
    for i, m in enumerate(matchings):
        lines.append(f"matching {i}")
        lines.extend("  " + " ".join(map(str, e)) for e in m)
    for _ in range(rnd.randint(0, 2)):
        i = rnd.randrange(1, len(lines))
        tokens = lines[i].split()
        kind = rnd.choice(("token", "short", "drop", "comment", "blank", "tabs"))
        if kind == "token" and tokens:
            tokens[rnd.randrange(len(tokens))] = rnd.choice(
                ["x", "1.5", "-", "0x1", "2e3", "+1", "1_0", "9" * 5000]
            )
            lines[i] = "  " + " ".join(tokens)
        elif kind == "short" and tokens:
            lines[i] = " ".join(tokens[:-1])
        elif kind == "drop":
            del lines[i]
        elif kind == "comment":
            lines.insert(i, "# " + lines[i])
        elif kind == "blank":
            lines.insert(i, rnd.choice(["", "   ", "\t"]))
        elif kind == "tabs":
            lines[i] = "\t" + "\t ".join(tokens) + " \t"
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return ("ok", parse(text))
    except rf.ParseError as exc:
        return ("parse", str(exc), exc.line)
    except rf.InstanceValidationError as exc:
        return ("invalid", exc.violations)


@settings(max_examples=400, deadline=None)
@given(families(), st.randoms(use_true_random=False))
def test_parse_instance_matches_reference(family, rnd):
    text = _text(rnd, *family)
    assert _outcome(rf.parse_instance, text) == _outcome(io_reference.parse_instance, text)


# matching 0 and 1 are canonical blocks, read a block at a time;
# matching 2 starts canonical, then takes one of the lines below
_BLOCKS = (
    "rainbow-forge/1\nr 3\nn 3\n"
    "matching 0\n  0 1 2\n  3 4 5\n"
    "matching 1\n  0 4 8\n  1 5 6\n"
    "matching 2\n  1 2 3\n  4 5 6\n"
)
# three equal blocks: matching 1 repeats matching 0's block and is read
# as the same edges; the cases below give matching 2 a tail, drop its
# last line or final newline, or make matching 1 a block the bulk path
# cannot read
_REPEATED = "rainbow-forge/1\nr 3\nn 3\n" + "".join(
    f"matching {i}\n  0 1 2\n  3 4 5\n" for i in range(3)
)
# every block ends on the line "  9 10 11", so matchings 1 and 2 are read
# through the line -> edge table; the cases below give a block a new line
# the table path must reject as the line loop does, break the shared
# tail, or put an odd line between or inside such blocks
_SHARED_TAIL = "rainbow-forge/1\nr 3\nn 3\n" + "".join(
    f"matching {i}\n  {line}\n  9 10 11\n" for i, line in enumerate(["0 1 2", "3 4 5", "6 7 8"])
)
_BOUNDARY_CASES = {
    "comment": _BLOCKS + "# 7 8 9\n  7 8 9\n",
    "tab-indented": _BLOCKS + "\t7 8 9\n  10 11 12\n",
    "three-space-indent": _BLOCKS + "   7 8 9\n  10 11 12\n",
    "short": _BLOCKS + "  7 8\n",
    "plus-sign": _BLOCKS + "  7 +8 9\n",
    "5000-digit-id": _BLOCKS + "  7 8 " + "9" * 5000 + "\n",
    "non-ascii-digit": _BLOCKS + "  7 8 \u0669\n  10 11 12\n",
    "no-final-newline": _BLOCKS + "  7 8 9\n  10 11 12",
    "crlf": (_BLOCKS + "  7 8 9\n").replace("\n", "\r\n"),
    "form-feed": _BLOCKS.replace("  4 5 6\n", "  4 5 6\x0c  7 8 9\n"),
    "line-separator": _BLOCKS + "  7 8 9\u2028  10 11 12\n",
    "wrong-arity": _BLOCKS + "  7 8 9 10\n",
    "header-after-matchings": _BLOCKS + "meta note late\n",
    "edge-after-header": _BLOCKS + "meta note late\n  7 8 9\n",
    "repeated-block": _REPEATED,
    "repeated-block-plus-comment": _REPEATED + "# 6 7 8\n",
    "repeated-block-plus-edge": _REPEATED + "  6 7 8\n",
    "repeated-block-comment-then-edge": _REPEATED + "# note\n  6 7 8\n",
    "repeated-block-blank-then-edge": _REPEATED + "\n  6 7 8\n",
    "repeated-block-plus-wrong-arity": _REPEATED + "  6 7 8 9\n",
    "repeated-block-plus-intersecting-edge": _REPEATED + "# note\n  5 6 7\n",
    "repeated-block-one-line-shorter": _REPEATED.removesuffix("  3 4 5\n"),
    "repeated-block-no-final-newline": _REPEATED.removesuffix("\n"),
    "repeated-block-then-header": (
        _REPEATED.replace("matching 2\n", "meta note x\nmatching 2\n") + "  6 7 8\n"
    ),
    "empty-block-between-repeats": _REPEATED.replace("matching 1\n  0 1 2\n  3 4 5\n", "matching 1\n"),
    "tab-block-between-repeats": _REPEATED.replace(
        "matching 1\n  0 1 2\n  3 4 5\n", "matching 1\n\t0 1 2\n\t3 4 5\n"
    ),
    "5000-digit-id-between-repeats": _REPEATED.replace(
        "matching 1\n  0 1 2\n  3 4 5\n", "matching 1\n  0 1 2\n  3 4 " + "5" * 5000 + "\n"
    ),
    "shared-tail": _SHARED_TAIL,
    "shared-tail-5000-digit-id": _SHARED_TAIL.replace("  6 7 8\n", "  6 7 " + "8" * 5000 + "\n"),
    "shared-tail-wrong-arity": _SHARED_TAIL.replace("  3 4 5\n", "  3 4 5 6\n"),
    "shared-tail-tab-indented": _SHARED_TAIL.replace("  3 4 5\n", "\t3 4 5\n"),
    "shared-tail-no-final-newline": _SHARED_TAIL.removesuffix("\n"),
    "shared-tail-comment-between": _SHARED_TAIL.replace("matching 2\n", "# note\nmatching 2\n"),
    "shared-tail-comment-inside": _SHARED_TAIL.replace("matching 1\n", "matching 1\n# note\n"),
    "shared-tail-blank-inside": _SHARED_TAIL.replace("matching 1\n", "matching 1\n\n"),
    "shared-tail-crlf-inside": _SHARED_TAIL.replace("  3 4 5\n", "  3 4 5\r\n"),
    "shared-tail-known-lines-only": _SHARED_TAIL.replace("  6 7 8\n", "  0 1 2\n"),
    "shared-tail-then-intersecting-edge": _SHARED_TAIL.replace("  6 7 8\n", "  6 7 11\n"),
    "shared-tail-repeated": _SHARED_TAIL.replace("  6 7 8\n", "  3 4 5\n"),
    "shared-tail-empty-block": _SHARED_TAIL.replace("matching 1\n  3 4 5\n  9 10 11\n", "matching 1\n"),
}


@pytest.mark.parametrize("text", _BOUNDARY_CASES.values(), ids=_BOUNDARY_CASES.keys())
def test_parse_instance_at_the_edge_of_a_bulk_run(text):
    assert _outcome(rf.parse_instance, text) == _outcome(io_reference.parse_instance, text)


def test_wrong_arity_after_bulk_blocks_names_its_line():
    outcome = _outcome(rf.parse_instance, _BOUNDARY_CASES["wrong-arity"])
    assert outcome == (
        "parse",
        "line 13: edge 2 of matching 2: expected 3 vertices, got 4",
        13,
    )


@pytest.mark.parametrize(
    "name, distinct",
    [
        ("repeated-block", 1),
        ("repeated-block-plus-comment", 1),
        ("repeated-block-plus-edge", 2),
        ("repeated-block-comment-then-edge", 2),
        ("repeated-block-one-line-shorter", 2),
        ("repeated-block-no-final-newline", 1),
        ("tab-block-between-repeats", 1),
    ],
)
def test_equal_consecutive_blocks_load_as_one_matching(name, distinct):
    inst = rf.parse_instance(_BOUNDARY_CASES[name])
    assert len({id(m) for m in inst.matchings}) == distinct
    assert inst.matchings[0] is inst.matchings[1]


def test_blocks_that_end_on_one_line_share_its_edges():
    inst = rf.parse_instance(_BOUNDARY_CASES["shared-tail"])
    assert inst.matchings[0][-1] is inst.matchings[1][-1] is inst.matchings[2][-1]
    again = rf.parse_instance(_BOUNDARY_CASES["shared-tail-known-lines-only"])
    assert again.matchings[2][0] is again.matchings[0][0]


def test_shared_skips_a_matching_with_no_other_non_empty_edge():
    # r = 0 after an _arity corruption: the one non-empty edge [5] has
    # no other edge to take a vertex from
    for seed in range(20):
        matchings = [[[5], []]]
        _shared(random.Random(seed), 0, matchings, None)
        assert matchings == [[[5], []]]
