import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbow_forge as rf


def corpus():
    return [
        rf.cycle_instance(2),
        rf.cycle_instance(5),
        rf.k4_union_instance(3),
        rf.k4_union_instance(7),
        rf.ach_instance(3, 4),
        rf.ach_instance(4, 8),
        rf.dummy_lift(rf.cycle_instance(3), 2),
        rf.random_instance(3, 4, 3, seed=11),
        rf.random_instance(2, 3, 4, seed=5),
        rf.Instance(r=3, matchings=()),
    ]


def test_corpus_round_trips_bit_exactly():
    for inst in corpus():
        text = rf.serialize_instance(inst)
        parsed = rf.parse_instance(text)
        assert parsed == inst
        assert rf.serialize_instance(parsed) == text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 5), st.integers(1, 4))
def test_random_instances_round_trip(seed, r, n, s):
    inst = rf.random_instance(r, n, s, seed=seed)
    text = rf.serialize_instance(inst)
    assert rf.parse_instance(text) == inst  # generator output is canonical
    assert rf.serialize_instance(rf.parse_instance(text)) == text



class _CountingLine:
    """Stands in for ``fileformat._LINE``, counting the lines the line loop reads."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def match(self, text, pos):
        self.calls += 1
        return self.pattern.match(text, pos)


@pytest.mark.parametrize(
    "build",
    [
        lambda: rf.ach_instance(3, 64),
        lambda: rf.ach_instance(5, 32),
        lambda: rf.k4_union_instance(41),
        lambda: rf.cycle_instance(200),
        lambda: rf.random_instance(3, 12, 12, seed=5),
        lambda: rf.random_instance(2, 40, 40, seed=3),
        lambda: rf.dummy_lift(rf.ach_instance(4, 8), 2),
        lambda: rf.dummy_lift(rf.random_instance(3, 300, 5, seed=1), 595),
        lambda: rf.blowup_compose([rf.find_blocking_family(3, 4, 2, seed=1)] * 3),
    ],
    ids=["ach3-64", "ach5-32", "k4-41", "cycle200", "random3-12", "random2-40",
         "lift-ach4-8", "lift-random3-300", "blowup3"],
)
def test_serialized_files_are_read_a_block_at_a_time(monkeypatch, build):
    # every block the serializer writes is read in one pass or shared, so
    # the line loop reads only the version, r, n, partition, meta and
    # matching lines
    inst = build()
    text = rf.serialize_instance(inst)
    counter = _CountingLine(rf.fileformat._LINE)
    monkeypatch.setattr(rf.fileformat, "_LINE", counter)
    assert rf.parse_instance(text) == inst
    assert counter.calls == 3 + (inst.partition is not None) + len(inst.meta) + inst.n

def test_dummy_lift_loads_one_edge_object_per_head_edge():
    # every block ends on the lift's shared edges, which load as the
    # previous matching's own objects; only the heads add edge objects:
    # 300 matchings of 600 edges load as 600 + 299 * 5 = 2,095 edge
    # tuples, not 180,000
    inst = rf.dummy_lift(rf.random_instance(3, 300, 5, seed=1), 595)
    text = rf.serialize_instance(inst)
    tracemalloc.start()
    try:
        parsed = rf.parse_instance(text)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == inst
    assert rf.serialize_instance(parsed) == text
    edges = [e for m, _ in parsed.runs for e in m]
    heads = sum(len(m) - k for (m, _), k in zip(parsed.runs, parsed.tails))
    assert len({id(e) for e in edges}) == heads == 2095
    assert kept < 4 * 2**20


def test_dummy_lift_reads_its_shared_lines_once(monkeypatch):
    # each block ends on the lines the block before ends on, 595 shared
    # edges and maybe a head edge; only the lines before them are
    # converted: the first block's 600 and 299 heads of 5 lines, not 299
    # blocks of 600
    converted = []
    ids = rf.fileformat._ids

    def counting_ids(run):
        converted.append(run.count("\n"))
        return ids(run)

    inst = rf.dummy_lift(rf.random_instance(3, 300, 5, seed=1), 595)
    text = rf.serialize_instance(inst)
    monkeypatch.setattr(rf.fileformat, "_ids", counting_ids)
    parsed = rf.parse_instance(text)
    assert parsed == inst
    assert 299 * 5 <= sum(converted) <= 5_000
    assert all(k >= 595 for k in parsed.tails[1:])


def test_meta_round_trips_with_spaces_in_values():
    meta = {"note": "two words", "seed": "3", "tab": "a\tb  c", "empty": ""}
    inst = rf.Instance(r=2, matchings=(((0, 1),),), meta=meta)
    parsed = rf.parse_instance(rf.serialize_instance(inst))
    assert parsed.meta == meta


@pytest.mark.parametrize("key", ["a\tb", "a b", "", "a\rb", "a\x0cb", "a\u2028b"])
def test_meta_key_that_is_not_one_token_rejected(key):
    # the parser splits a meta line on whitespace: "a\tb" would read back as "a"
    inst = rf.Instance(r=2, matchings=(((0, 1),),), meta={key: "v"})
    with pytest.raises(ValueError, match="metadata key not representable"):
        rf.serialize_instance(inst)


@pytest.mark.parametrize("value", ["a\nb", "a\rb", "a\x0cb", "a\u2028b", "a\x1cb", " a", "a\t"])
def test_meta_value_that_is_not_one_line_rejected(value):
    inst = rf.Instance(r=2, matchings=(((0, 1),),), meta={"k": value})
    with pytest.raises(ValueError, match="metadata value not representable"):
        rf.serialize_instance(inst)


def test_comments_and_blank_lines_ignored():
    text = rf.serialize_instance(rf.cycle_instance(2))
    noisy = "# header\n\n" + text.replace("matching 1", "# c\nmatching 1")
    assert rf.parse_instance(noisy) == rf.parse_instance(text)


def test_short_edge_is_a_parse_error_with_location():
    text = "rainbow-forge/1\nr 3\nn 1\nmatching 0\n  0 1\n"
    with pytest.raises(rf.ParseError) as exc:
        rf.parse_instance(text)
    assert exc.value.line == 5
    assert "edge 0 of matching 0" in str(exc.value)
    assert "expected 3 vertices, got 2" in str(exc.value)


def test_duplicate_vertex_is_a_validation_error():
    text = "rainbow-forge/1\nr 3\nn 1\nmatching 0\n  0 1 1\n"
    with pytest.raises(rf.InstanceValidationError) as exc:
        rf.parse_instance(text)
    assert any(v.code == "edge-vertices" for v in exc.value.violations)


def test_overlapping_edges_listed_in_validation_error():
    text = "rainbow-forge/1\nr 3\nn 1\nmatching 0\n  0 1 2\n  2 3 4\n"
    with pytest.raises(rf.InstanceValidationError) as exc:
        rf.parse_instance(text)
    assert any(v.code == "intra-matching intersection" for v in exc.value.violations)


def test_version_and_structure_errors():
    with pytest.raises(rf.ParseError, match="version"):
        rf.parse_instance("something-else/9\n")
    with pytest.raises(rf.ParseError, match="sequential"):
        rf.parse_instance("rainbow-forge/1\nr 2\nn 1\nmatching 4\n")
    with pytest.raises(rf.ParseError, match="declared n"):
        rf.parse_instance("rainbow-forge/1\nr 2\nn 2\nmatching 0\n  0 1\n")
    with pytest.raises(rf.ParseError, match="missing r"):
        rf.parse_instance("rainbow-forge/1\nn 0\n")
    with pytest.raises(rf.ParseError, match="duplicate metadata"):
        rf.parse_instance("rainbow-forge/1\nr 2\nn 0\nmeta a 1\nmeta a 2\n")
    # a repeated header line is rejected at that line, not let overwrite the first
    with pytest.raises(rf.ParseError, match="line 3: duplicate r line"):
        rf.parse_instance("rainbow-forge/1\nr 2\nr 2\nn 0\n")
    with pytest.raises(rf.ParseError, match="line 7: duplicate n line"):
        rf.parse_instance("rainbow-forge/1\nr 2\nn 1\nmatching 0\n0 1\nmatching 1\nn 2\n2 3\n")
    with pytest.raises(rf.ParseError, match="line 5: duplicate partition line"):
        rf.parse_instance("rainbow-forge/1\nr 2\nn 0\npartition 0 1\npartition 1 0\n")


def test_edge_of_other_arity_not_serialized():
    # parse_instance would reject the edge line, so the file could not be read back
    inst = rf.Instance(r=3, matchings=(((0, 1, 2), (3, 4)),))
    with pytest.raises(ValueError, match="matching 0 has an edge of other than 3 vertices"):
        rf.serialize_instance(inst)
    # a matching that colours share is rendered once, under its first colour
    bad = ((0, 1, 2), (3, 4))
    inst = rf.Instance(r=3, matchings=(((5, 6, 7),), bad, bad))
    with pytest.raises(ValueError, match="matching 1 has an edge of other than 3 vertices"):
        rf.serialize_instance(inst)


def test_edge_of_other_arity_in_a_shared_tail_names_the_run_that_introduced_it():
    # colours 1 and 2 end on a tail holding a 3-vertex edge, which colour
    # 3 shares with them as the same objects
    tail = ((10, 11), (12, 13, 14), (20, 21))
    shared = ((2, 3),) + tail
    inst = rf.Instance(r=2, matchings=(((0, 1),), shared, shared, ((4, 5),) + tail))
    assert inst.tails == (0, 0, 3)
    with pytest.raises(ValueError, match=r"^matching 1 has an edge of other than 2 vertices, not representable$"):
        rf.serialize_instance(inst)


def _shared_lines_reference(a: str, b: str) -> int:
    """The longest suffix of ``a`` that starts a line of ``a`` (at its
    start or after a "\n") and also ends ``b`` starting a line of ``b``,
    tried at every line start of ``a``; 0 when there is none."""
    starts = [0] + [i + 1 for i, ch in enumerate(a) if ch == "\n"]
    return max(
        (
            len(a) - i
            for i in starts
            if b.endswith(a[i:]) and (len(b) == len(a) - i or b[len(b) - (len(a) - i) - 1] == "\n")
        ),
        default=0,
    )


_LINES_TEXT = st.text(alphabet="0123 \n\r", max_size=30)


@settings(max_examples=300, deadline=None)
@given(_LINES_TEXT, _LINES_TEXT, _LINES_TEXT, st.booleans())
def test_shared_lines_match_a_line_by_line_reference(a, b, common, newline):
    # two texts with a common suffix (maybe empty), with or without a
    # final newline
    end = "\n" if newline else ""
    a, b = a + common + end, b + common + end
    assert rf.fileformat._shared_lines(a, b) == _shared_lines_reference(a, b)
    assert rf.fileformat._shared_lines(b, a) == _shared_lines_reference(b, a)


def test_report_round_trip():
    inst = rf.ach_instance(3, 4)
    report = rf.exact_max_rainbow(inst)
    doc = rf.ReportDoc(
        solver="exact",
        certificate=report.certificate,
        size=report.size,
        assignment=report.matching,
        stats={"nodes": report.stats.nodes, "wall_time": report.stats.wall_time},
        instance="ach34.rbf",
    )
    text = rf.serialize_report(doc)
    back = rf.parse_report(text)
    assert back.assignment == doc.assignment
    assert back.size == doc.size and back.certificate == doc.certificate
    assert back.instance == "ach34.rbf"
    assert rf.serialize_report(back) == text


def test_parse_report_rejects_other_documents():
    with pytest.raises(ValueError):
        rf.parse_report("{\"format\": \"other\"}")


@pytest.mark.parametrize(
    "pairs",
    [
        [[0, [0, 1, 2]], [True, [3, 4, 5]]],
        [[0, [0, 1, 2]], [1, [3, 4, False]]],
        [[0, [0, 1, 2]], [1, [3.0, 4, 5]]],
        [[0, [0, 1, 2]], [1.5, [3, 4, 5]]],
        [[0, [0, 1, 2]], [1, ["3", 4, 5]]],
        [[0, [0, 1, 2]], ["1", [3, 4, 5]]],
    ],
    ids=["bool-colour", "bool-vertex", "float-vertex", "float-colour", "str-vertex", "str-colour"],
)
def test_parse_report_rejects_a_sorted_assignment_with_a_non_int_id(pairs):
    # sorted like a written report, so only the types keep it from being canonical
    payload = {"format": rf.fileformat.REPORT_FORMAT, "solver": "exact", "certificate": "heuristic",
               "size": 2, "assignment": pairs}
    with pytest.raises(ValueError, match="malformed 'assignment' field"):
        rf.parse_report(json.dumps(payload))
