"""Reference instance validation and parsing for checking the package.

Copies of ``validate_instance`` and ``parse_instance`` (with its helper
``_parse_int``) as they were when both did their per-edge work one
vertex at a time in Python.  The package now checks each matching as a
whole and converts an edge line in one call; the violations, their
order, the ``ParseError`` text and line, and the parsed instances must
stay the same.  Test-only, like ``bnb_reference``: nothing in the
package imports it.
"""

from __future__ import annotations

from rainbow_forge.core import Instance, Violation
from rainbow_forge.fileformat import FORMAT_VERSION, InstanceValidationError, ParseError


def validate_instance(inst: Instance) -> list[Violation]:
    """Check every instance invariant; an empty report means valid.

    Reported codes: ``uniformity`` (r < 2), ``partition-part`` (part id
    out of range), ``edge-arity``, ``edge-vertices`` (not strictly
    increasing non-negative), ``intra-matching intersection``,
    ``partition-coverage`` (vertex missing from partition) and
    ``partition-edge`` (edge not meeting every part exactly once).
    """
    out: list[Violation] = []
    if inst.r < 2:
        out.append(Violation("uniformity", f"r must be >= 2, got {inst.r}"))
    part = inst.partition
    if part is not None:
        for v, p in enumerate(part):
            if not 0 <= p < inst.r:
                out.append(
                    Violation("partition-part", f"vertex {v} assigned part {p}, expected 0..{inst.r - 1}")
                )
    for j, matching in enumerate(inst.matchings):
        owner: dict[int, int] = {}
        for k, e in enumerate(matching):
            if len(e) != inst.r:
                out.append(
                    Violation("edge-arity", f"edge has {len(e)} vertices, expected {inst.r}", j, k)
                )
                continue
            if e[0] < 0 or any(a >= b for a, b in zip(e, e[1:])):
                out.append(
                    Violation("edge-vertices", "vertices must be non-negative and strictly increasing", j, k)
                )
                continue
            shared = next((v for v in e if v in owner), None)
            if shared is not None:
                out.append(
                    Violation(
                        "intra-matching intersection",
                        f"edges {owner[shared]} and {k} share vertex {shared}",
                        j,
                        k,
                    )
                )
            for v in e:
                owner.setdefault(v, k)
            if part is not None:
                if any(v >= len(part) for v in e):
                    out.append(
                        Violation("partition-coverage", "edge uses a vertex missing from the partition", j, k)
                    )
                elif sorted(part[v] for v in e) != list(range(inst.r)):
                    out.append(
                        Violation("partition-edge", "edge must meet every part exactly once", j, k)
                    )
    return out


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer {what}, got {token!r}", lineno) from None


def parse_instance(text: str) -> Instance:
    """Parse the documented format; reject invariant violations.

    Malformed structure raises :class:`ParseError` with the offending
    line; a well-formed document describing an invalid instance raises
    :class:`InstanceValidationError` listing every violation.
    """
    version_seen = False
    r: int | None = None
    declared_n: int | None = None
    partition: tuple[int, ...] | None = None
    meta: dict[str, str] = {}
    matchings: list[list[tuple[int, ...]]] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not version_seen:
            if line != FORMAT_VERSION:
                raise ParseError(f"expected version line {FORMAT_VERSION!r}, got {line!r}", lineno)
            version_seen = True
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "r":
            if len(tokens) != 2:
                raise ParseError("r line takes exactly one value", lineno)
            r = _parse_int(tokens[1], "uniformity", lineno)
        elif head == "n":
            if len(tokens) != 2:
                raise ParseError("n line takes exactly one value", lineno)
            declared_n = _parse_int(tokens[1], "matching count", lineno)
        elif head == "partition":
            partition = tuple(_parse_int(t, "part index", lineno) for t in tokens[1:])
        elif head == "meta":
            if len(tokens) < 2:
                raise ParseError("meta line needs a key", lineno)
            key = tokens[1]
            if key in meta:
                raise ParseError(f"duplicate metadata key {key!r}", lineno)
            meta[key] = line.split(maxsplit=2)[2] if len(tokens) > 2 else ""
        elif head == "matching":
            if len(tokens) != 2:
                raise ParseError("matching line takes exactly one index", lineno)
            idx = _parse_int(tokens[1], "matching index", lineno)
            if idx != len(matchings):
                raise ParseError(
                    f"matching indices must be sequential, expected {len(matchings)} got {idx}",
                    lineno,
                )
            matchings.append([])
        else:
            if not matchings:
                raise ParseError(f"unexpected line before any matching: {line!r}", lineno)
            if r is None:
                raise ParseError("edge seen before the r line", lineno)
            vertices = tuple(_parse_int(t, "vertex id", lineno) for t in tokens)
            if len(vertices) != r:
                raise ParseError(
                    f"edge {len(matchings[-1])} of matching {len(matchings) - 1}: "
                    f"expected {r} vertices, got {len(vertices)}",
                    lineno,
                )
            matchings[-1].append(vertices)
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
    inst = Instance(
        r=r,
        matchings=tuple(tuple(m) for m in matchings),
        partition=partition,
        meta=meta,
    )
    report = validate_instance(inst)
    if report:
        raise InstanceValidationError(report)
    return inst
