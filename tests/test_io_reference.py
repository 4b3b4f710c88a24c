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

import operator
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
# every block ends on the line "  9 10 11", so matchings 1 and 2 share it
# with the block before and read only their heads; the cases below give a
# head a line the bulk path must reject as the line loop does, break the
# shared tail, or put an odd line between or inside such blocks
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


def _document(r, blocks):
    return f"rainbow-forge/1\nr {r}\nn {len(blocks)}\n" + "".join(
        f"matching {i}\n{block}" for i, block in enumerate(blocks)
    )


# blocks that end on whole lines of the block before, which are read as
# that block's last edges without splitting them again
_TAIL = "  90 91 92\n  93 94 95\n"
_SHARED_LINES_CASES = {
    # the run matched on the last pair must end the previous block too:
    # matching 2 goes through the line loop, so matching 3 is read in one
    # pass with only the last line of the run, and matching 4 shares that
    # one line with it, not the two it ends on
    "stale-hint": _document(3, [
        "  0 1 2\n" + _TAIL, "  3 4 5\n" + _TAIL, "# note\n  6 7 8\n",
        "  9 10 11\n  93 94 95\n", "  12 13 14\n" + _TAIL,
    ]),
    # the common suffix "2 3\n  93 94 95\n" starts inside a line in both
    "suffix-starts-mid-line": _document(3, ["  12 2 3\n  93 94 95\n", "  1 2 3\n  93 94 95\n"]),
    # "  1 2 3\n..." is all of matching 0 but starts after "  4" in matching 1
    "suffix-starts-a-line-in-one-block": _document(3, [
        "  1 2 3\n  93 94 95\n", "  4  1 2 3\n  93 94 95\n",
    ]),
    # a line of one id too many that ends as the previous block's line
    "longer-line-ends-as-the-previous-line": _document(2, ["  1 2\n  93 94\n", "  4 1 2\n  93 94\n"]),
    # matching 1 is the text of matching 0 from inside its first line on
    "block-starts-inside-a-line-of-the-previous": _document(2, ["  12 3\n  93 94\n", "2 3\n  93 94\n"]),
    "block-is-a-suffix-of-the-previous": _document(3, ["  0 1 2\n" + _TAIL, _TAIL, "  93 94 95\n"]),
    "previous-is-a-suffix-of-the-block": _document(3, ["  93 94 95\n", _TAIL, "  0 1 2\n" + _TAIL]),
    "suffix-then-prefix": _document(3, ["  0 1 2\n" + _TAIL, _TAIL, "  3 4 5\n" + _TAIL]),
    "leading-zero-in-a-bulk-block": _document(3, ["  0 1 2\n  03 4 5\n"]),
    "leading-zero-in-a-new-line": _document(3, ["  0 1 2\n" + _TAIL, "  03 4 5\n" + _TAIL]),
    "leading-zero-in-a-run": _document(3, ["  0 1 2\n  90 91 092\n", "  3 4 5\n  90 91 092\n"]),
    "zero-id": _document(3, ["  0 1 2\n" + _TAIL, "  0 4 5\n" + _TAIL]),
    "5000-digit-id-in-a-new-line": _document(3, ["  0 1 2\n" + _TAIL, "  3 4 " + "5" * 5000 + "\n" + _TAIL]),
}
_BOUNDARY_CASES.update(_SHARED_LINES_CASES)


@pytest.mark.parametrize("text", _BOUNDARY_CASES.values(), ids=_BOUNDARY_CASES.keys())
def test_parse_instance_at_the_edge_of_a_bulk_run(text):
    assert _outcome(rf.parse_instance, text) == _outcome(io_reference.parse_instance, text)


def _line_pool(rnd: random.Random, r: int) -> list[str]:
    """Twelve edge lines of r ids below 40, one id of them maybe written
    with a leading zero: lines of one block may share vertices, and the
    texts of two lines may end alike."""
    pool = ["  " + " ".join(map(str, sorted(rnd.sample(range(40), r)))) for _ in range(12)]
    if rnd.random() < 0.3:
        i = rnd.randrange(12)
        pool[i] = pool[i].replace("  ", "  0", 1)
    return pool


@st.composite
def shared_line_documents(draw):
    """A document of 2 to 19 blocks of r ids per line, most of them
    ending on lines of the block before: a lift's head and tail, part or
    all of the previous block, a block that holds the previous one whole,
    the previous block's text from inside its first line, a block the line
    loop reads (a comment, a corrupted line, a line that ends like
    another) and one read in one pass after it, so the shared-line path
    meets every kind of block before and after it."""
    rnd = draw(st.randoms(use_true_random=False))
    r = draw(st.integers(2, 3))
    pool = _line_pool(rnd, r)
    tail = rnd.sample(pool, draw(st.integers(1, 3)))
    blocks = [rnd.sample(pool, draw(st.integers(0, 3))) + tail]
    kinds = st.sampled_from(("lift", "break", "suffix", "holds", "repeat", "cut", "odd"))
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        prev = blocks[-1]
        head = rnd.sample(pool, draw(st.integers(0, 3)))
        if kind == "lift":
            blocks.append(head + tail)
        elif kind == "break":
            # a block the line loop reads, one read in one pass that ends
            # on part of the tail, then a lift again
            blocks.append(head + ["# note"] + tail)
            blocks.append(head[1:] + tail[draw(st.integers(0, len(tail) - 1)) :])
            blocks.append(head[:1] + tail)
        elif kind == "suffix":
            blocks.append(prev[draw(st.integers(0, len(prev) - 1)) :])
        elif kind == "holds":
            blocks.append(head + prev)
        elif kind == "repeat":
            blocks.append(list(prev))
        elif kind == "cut":
            # the previous block's text from inside its first line
            blocks.append([prev[0][draw(st.sampled_from([2, 3])) :], *prev[1:]])
        else:
            # a line prefixed, or cut and prefixed, so that its text ends
            # as the previous block's line does
            block = list(prev)
            i = draw(st.integers(0, len(block) - 1))
            prefix = draw(st.sampled_from(["  1", "  4 ", "  4", "\t", "  x", " "]))
            block[i] = prefix + block[i][draw(st.sampled_from([0, 2, 3])) :]
            blocks.append(block)
    return r, [("\n".join(b) + "\n") if b else "" for b in blocks]


@settings(max_examples=400, deadline=None)
@given(shared_line_documents())
def test_blocks_that_share_lines_parse_as_the_reference(doc):
    text = _document(*doc)
    got = _outcome(rf.parse_instance, text)
    assert got == _outcome(io_reference.parse_instance, text)
    if got[0] == "ok":
        assert rf.serialize_instance(got[1]) == rf.serialize_instance(io_reference.parse_instance(text))


@pytest.mark.parametrize("name", _SHARED_LINES_CASES)
def test_blocks_that_share_lines_serialize_as_the_reference(name):
    text = _BOUNDARY_CASES[name]
    got = _outcome(rf.parse_instance, text)
    if got[0] == "ok":
        assert rf.serialize_instance(got[1]) == rf.serialize_instance(io_reference.parse_instance(text))


def test_shared_lines_are_the_previous_matchings_last_edges():
    inst = rf.parse_instance(_BOUNDARY_CASES["stale-hint"])
    m = inst.matchings
    assert m[1][1:] == m[0][1:] and all(map(operator.is_, m[1][1:], m[0][1:]))
    assert m[4][-1] is m[3][-1] and m[4][1] == (90, 91, 92)
    inst = rf.parse_instance(_BOUNDARY_CASES["block-is-a-suffix-of-the-previous"])
    assert inst.matchings[1] == inst.matchings[0][1:] and inst.matchings[1][0] is inst.matchings[0][1]
    assert inst.matchings[2][0] is inst.matchings[0][2]


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


def test_shared_skips_a_matching_with_no_other_non_empty_edge():
    # r = 0 after an _arity corruption: the one non-empty edge [5] has
    # no other edge to take a vertex from
    for seed in range(20):
        matchings = [[[5], []]]
        _shared(random.Random(seed), 0, matchings, None)
        assert matchings == [[[5], []]]
