"""Instance and report serialization.

Instances use the plain-text ``rainbow-forge/1`` format, one document
per instance: a version line, ``r`` and ``n`` counts, an optional
``partition`` line (part index per vertex, 0-based), sorted ``meta``
key-value lines, then one ``matching i`` block per colour with one
edge per line (r space-separated vertex ids), in the lexicographic
order the instance stores them in.  The ``r``, ``n`` and ``partition``
lines appear at most once each, and a metadata key once; the parser
rejects a repeated one at its line.  Blank lines and ``#`` comments are
ignored on input and never emitted, so serialize, parse and serialize
again gives the same bytes.  A metadata key must be one token without
whitespace and a value one line without surrounding whitespace; the
serializer rejects any other, and an edge of other than r vertices,
which could not be read back.

The parser reads each matching's block, the text from the end of its
``matching`` line to the next line that starts ``"matching "`` or to the
end, by one rule.  A block that repeats the previous block exactly,
when that one was read in one pass or shared in turn, shares its edges
without reading their ids.  Any other block is read in bulk by one
rule.  When it ends on the same edge line as the previous block read
in bulk, as every block of a dummy lift ends on its shared edges, it
shares the longest run of whole lines that ends both blocks, and
loads that run as the previous matching's last edges, the same
objects, without splitting it.  The run is the one the last such pair
shared when a line break precedes it in both blocks (two ``endswith``
tests), else the one found by comparing the two blocks' lines from the
end.  The rest of the block, its head (the whole block when it shares
nothing), must be made only of edge lines in the form the serializer
writes (two spaces, r ASCII-digit ids separated by single spaces, a
newline), and is read in one pass: one pattern checks it, one
``json.loads`` of its ids joined by commas converts them in C, and one
``zip`` turns them into edges.  The file of ``dummy_lift(random_instance(3, 300, 5, 1),
595)`` then converts 5 lines of each block after the first, not 600,
and loads its 180,000 edges as 2,095 tuples, one per head edge,
1.59 MiB kept after the parse instead of 24.8 MiB.  Any other block,
one holding an id with a leading zero, which JSON rejects, or past
``int``'s digit limit included, goes through the line loop, which
gives every ``ParseError`` its text and line.  The format is the same
either way.

Equal consecutive matchings load as one tuple: a block equal to the
previous one but not shared by the rule above is replaced by it once
read.  The serializer renders the edge lines of each run of
``Instance.runs`` once, as two strings, its head's and its shared
tail's, walked by ``core.map_parts`` (whose docstring states the
shared-tail rule), so a dummy lift's shared edges are rendered once.

Solver reports are JSON documents with sorted keys; the ``wall_time``
statistic is the only field excluded from determinism guarantees.  A
report's certificate is one of :data:`CERTIFICATES`, and a ``failure``
certificate comes with a ``failure`` object, which no other has.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import chain, compress, count
from operator import itemgetter, ne
from typing import Any, Callable

from .core import Instance, Matching, RainbowMatching, Violation, map_parts, validate_instance
from .solvers import CERT_EXACT, CERT_HEURISTIC, CERT_LOCAL

FORMAT_VERSION = "rainbow-forge/1"
REPORT_FORMAT = "rainbow-forge-report/1"
CERT_FAILURE = "failure"  # a sample-and-extend run that found no full matching
CERTIFICATES = (CERT_EXACT, CERT_LOCAL, CERT_HEURISTIC, CERT_FAILURE)


class ParseError(ValueError):
    """Malformed instance text; carries the 1-based source line."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class InstanceValidationError(ValueError):
    """Structurally parseable text that violates instance invariants."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__(
            "instance invariants violated: " + "; ".join(str(v) for v in violations)
        )


def serialize_instance(inst: Instance) -> str:
    """Render the documented format; a metadata key or value, or an edge
    of other than r vertices, that :func:`parse_instance` could not read
    back raises ValueError."""
    lines = [FORMAT_VERSION, f"r {inst.r}", f"n {inst.n}"]
    if inst.partition is not None:
        lines.append("partition " + " ".join(map(str, inst.partition)))
    for key in sorted(inst.meta):
        value = inst.meta[key]
        if key.split() != [key]:
            raise ValueError(f"metadata key not representable: {key!r}")
        if len(value.splitlines()) > 1 or value != value.strip():
            raise ValueError(f"metadata value not representable for {key!r}: {value!r}")
        lines.append(f"meta {key} {value}".rstrip())
    edge_line = _edge_line(inst.r)
    try:
        for head, tail, colours in map_parts(lambda m: "\n".join(map(edge_line, m)), inst):
            for i in colours:
                lines.append(f"matching {i}")
                if head:
                    lines.append(head)
                if tail:
                    lines.append(tail)
    except TypeError:
        # a tail's edges are the previous run's, so the first matching
        # holding a bad edge is the run that failed
        bad = next(i for i, m in enumerate(inst.matchings) if {len(e) for e in m} - {inst.r})
        raise ValueError(f"matching {bad} has an edge of other than {inst.r} vertices, not representable") from None
    lines.append("")  # the final newline, without copying the document again
    return "\n".join(lines)


def _edge_line(r: int) -> Callable[[tuple[int, ...]], str]:
    """The formatter of one edge line of r ids; an edge of other than r
    vertices makes it raise TypeError."""
    return ("  " + " ".join(["%d"] * r)).__mod__


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer {what}, got {token!r}", lineno) from None


_HEADERS = frozenset({"r", "n", "partition", "meta", "matching"})

# one line as str.splitlines cuts it: its text, then one line boundary
# (the document's last line may have none)
_BOUNDARIES = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = re.compile(f"([^{_BOUNDARIES}]*)(?:\r\n|[{_BOUNDARIES}])?")

# one or more edge lines of r ids as serialize_instance writes them,
# given r - 1 (re keeps the patterns it has compiled)
_EDGE_RUN = "(?:  [0-9]+(?: [0-9]+){%d}\n)+"


def _ids(run: str) -> list[int]:
    """The ids of edge lines that ``_EDGE_RUN`` matched, converted by
    ``json`` in one C-level pass; an id with a leading zero, which JSON
    rejects, or past ``int``'s digit limit raises ValueError."""
    return json.loads("[" + run[2:-1].replace("\n  ", ",").replace(" ", ",") + "]")


def _shared_lines(a: str, b: str) -> int:
    """The length of the longest run of whole lines that ends both ``a``
    and ``b``: their lines, split at ``"\n"``, compared from the end."""
    lines, other = a.split("\n"), b.split("\n")
    k = next(compress(count(), map(ne, reversed(lines), reversed(other))), min(len(lines), len(other)))
    return len("\n".join(lines[len(lines) - k :]))


def parse_instance(text: str) -> Instance:
    """Parse the documented format; reject invariant violations.

    Malformed structure, a repeated ``r``, ``n`` or ``partition`` line
    included, raises :class:`ParseError` with the offending line; a
    well-formed document describing an invalid instance raises
    :class:`InstanceValidationError` listing every violation.
    """
    version_seen = False
    r: int | None = None
    declared_n: int | None = None
    partition: tuple[int, ...] | None = None
    meta: dict[str, str] = {}
    matchings: list[list[tuple[int, ...]]] = []
    current: list[tuple[int, ...]] | None = None  # the last matching's edges
    bulk: str | None = None  # the last matching's block, when read in one pass
    hint = ""  # "\n" and the run of whole lines last shared between two blocks
    lineno = 0
    pos, end = 0, len(text)
    while pos < end:
        line = _LINE.match(text, pos)
        raw = line.group(1)
        pos = line.end()
        lineno += 1
        # split() and strip() agree on whitespace: no tokens is a blank line
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if not version_seen:
            line = raw.strip()
            if line != FORMAT_VERSION:
                raise ParseError(f"expected version line {FORMAT_VERSION!r}, got {line!r}", lineno)
            version_seen = True
            continue
        head = tokens[0]
        if head not in _HEADERS:
            if current is None:
                raise ParseError(f"unexpected line before any matching: {raw.strip()!r}", lineno)
            if r is None:
                raise ParseError("edge seen before the r line", lineno)
            try:
                vertices = tuple(map(int, tokens))
            except ValueError:
                vertices = tuple(_parse_int(t, "vertex id", lineno) for t in tokens)
            if len(vertices) != r:
                raise ParseError(
                    f"edge {len(current)} of matching {len(matchings) - 1}: "
                    f"expected {r} vertices, got {len(vertices)}",
                    lineno,
                )
            current.append(vertices)
        elif head == "r":
            if r is not None:
                raise ParseError("duplicate r line", lineno)
            if len(tokens) != 2:
                raise ParseError("r line takes exactly one value", lineno)
            r = _parse_int(tokens[1], "uniformity", lineno)
        elif head == "n":
            if declared_n is not None:
                raise ParseError("duplicate n line", lineno)
            if len(tokens) != 2:
                raise ParseError("n line takes exactly one value", lineno)
            declared_n = _parse_int(tokens[1], "matching count", lineno)
        elif head == "partition":
            if partition is not None:
                raise ParseError("duplicate partition line", lineno)
            partition = tuple(_parse_int(t, "part index", lineno) for t in tokens[1:])
        elif head == "meta":
            if len(tokens) < 2:
                raise ParseError("meta line needs a key", lineno)
            key = tokens[1]
            if key in meta:
                raise ParseError(f"duplicate metadata key {key!r}", lineno)
            meta[key] = raw.strip().split(maxsplit=2)[2] if len(tokens) > 2 else ""
        else:
            if len(tokens) != 2:
                raise ParseError("matching line takes exactly one index", lineno)
            idx = _parse_int(tokens[1], "matching index", lineno)
            if idx != len(matchings):
                raise ParseError(
                    f"matching indices must be sequential, expected {len(matchings)} got {idx}",
                    lineno,
                )
            # the block runs from here to the next line that starts
            # "matching ", or to the end.  One equal to the last block read
            # in bulk shares its edges (it ends where the next matching
            # starts, so a shared list is never appended to).  Any other
            # loads the whole lines it ends on in common with the last
            # block read in bulk as that matching's last edges, and its
            # head, the rest, is read in one pass when it holds edge lines
            # only, as serialize_instance writes them (a block ending at
            # any boundary but "\n" fails the pattern); a block that fails
            # goes through the line loop
            if bulk is not None and text.startswith(bulk, pos) and (
                pos + len(bulk) == end or text.startswith("matching ", pos + len(bulk))
            ):
                current = matchings[-1]
            else:
                previous, current, bulk = bulk, [], None
                # a line of r ids takes at least 2r characters
                if r is not None and 0 < 2 * r < end:
                    stop = text.find("\nmatching ", pos) + 1 or end
                    block = text[pos:stop]
                    shared, tail = 0, []
                    # only a block that ends on the previous block's last
                    # edge line, after its last "\n  " (or at its start),
                    # can share lines with it
                    if previous is not None and block.endswith(
                        previous[previous.rfind("\n  ") + 1 :]
                    ):
                        # the last pair's shared lines when a "\n" ends the
                        # head in both blocks, else the longest run
                        if hint and block.endswith(hint) and previous.endswith(hint):
                            shared = len(hint) - 1
                        else:
                            shared = _shared_lines(block, previous)
                            hint = "\n" + block[len(block) - shared :] if shared else ""
                        before = matchings[-1]  # the previous block's edges
                        tail = before[len(before) - previous.count("\n", len(previous) - shared) :]
                    head = block[: len(block) - shared]
                    try:
                        if (shared and not head) or re.fullmatch(_EDGE_RUN % (r - 1), head):
                            current = list(zip(*[iter(_ids(head))] * r)) + tail
                            bulk = block
                    except ValueError:
                        pass  # a leading zero or an id past int's digit limit
            matchings.append(current)
            if bulk is not None:
                lineno += len(current)  # one edge per line
                pos += len(bulk)
    if not version_seen:
        raise ParseError("empty document", max(lineno, 1))
    if r is None:
        raise ParseError("missing r line", lineno)
    if declared_n is None:
        raise ParseError("missing n line", lineno)
    if declared_n != len(matchings):
        raise ParseError(
            f"declared n {declared_n} but found {len(matchings)} matchings", lineno
        )
    shared: list[Matching] = []  # equal consecutive matchings as one tuple
    previous: list[tuple[int, ...]] | None = None
    for m in matchings:
        shared.append(shared[-1] if m is previous or m == previous else tuple(m))
        previous = m
    inst = Instance(r=r, matchings=tuple(shared), partition=partition, meta=meta)
    report = validate_instance(inst)
    if report:
        raise InstanceValidationError(report)
    return inst


@dataclass(frozen=True)
class ReportDoc:
    """A persisted solver run: everything ``verify`` needs to re-check."""

    solver: str
    certificate: str
    size: int
    assignment: RainbowMatching
    stats: dict = field(default_factory=dict)
    instance: str | None = None
    failure: dict | None = None


def serialize_report(doc: ReportDoc) -> str:
    payload: dict[str, Any] = {
        "format": REPORT_FORMAT,
        "solver": doc.solver,
        "certificate": doc.certificate,
        "size": doc.size,
        "assignment": [[c, list(e)] for c, e in doc.assignment.assignment],
        "stats": doc.stats,
        "instance": doc.instance,
    }
    if doc.failure is not None:
        payload["failure"] = doc.failure
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _field(key: str, value: Any, convert: Callable[[Any], Any]) -> Any:
    """``convert(value)``, reporting a value of the wrong shape as a
    ValueError that names the report field."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"{REPORT_FORMAT} document has a malformed {key!r} field") from None


def _int(value: Any) -> int:
    """``value`` when it is an int; anything else, a float or a bool
    included (``int()`` would truncate them), is a ValueError."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _assignment(pairs: Any) -> RainbowMatching:
    """The ``[[colour, [vertex, ...]], ...]`` pairs as a rainbow matching;
    a colour or vertex that is not an int, a float or a bool included,
    is a ValueError.  The constructor keeps pairs in canonical order as
    they are only when every id is an exact int, so only other pairs
    have their types checked here, in one pass."""
    pairs = tuple((c, tuple(e)) for c, e in pairs)
    matching = RainbowMatching(pairs)
    if matching.assignment is not pairs:
        ids = chain(map(itemgetter(0), pairs), chain.from_iterable(map(itemgetter(1), pairs)))
        if not set(map(type, ids)) <= {int}:
            raise ValueError("expected integer colours and vertex ids")
    return matching


def parse_report(text: str) -> ReportDoc:
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("format") != REPORT_FORMAT:
        raise ValueError(f"not a {REPORT_FORMAT} document")
    for key in ("solver", "certificate", "size", "assignment"):
        if key not in payload:
            raise ValueError(f"{REPORT_FORMAT} document has no {key!r} field")
    assignment = _field("assignment", payload["assignment"], _assignment)
    failure = payload.get("failure")
    certificate = payload["certificate"]
    if certificate not in CERTIFICATES or (certificate == CERT_FAILURE) != (failure is not None):
        raise ValueError(f"{REPORT_FORMAT} document has a malformed 'certificate' field")
    return ReportDoc(
        solver=payload["solver"],
        certificate=certificate,
        size=_field("size", payload["size"], _int),
        assignment=assignment,
        stats=_field("stats", payload.get("stats", {}), dict),
        instance=payload.get("instance"),
        failure=failure,
    )
