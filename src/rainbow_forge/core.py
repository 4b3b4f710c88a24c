"""Domain types for rainbow-matching instances.

A problem instance is a family of matchings ``M_0, ..., M_{n-1}`` in an
r-uniform hypergraph over non-negative integer vertices.  Matching
indices double as colours: an edge "has colour i" when it belongs to
``M_i``.  A rainbow matching is a set of pairwise disjoint edges
together with an injective assignment of colours to edges such that
each edge belongs to the matching of its assigned colour.

All types are immutable after construction and safe to share between
threads.  Constructors normalise: the uniformity r and every vertex
id, part index and colour must be an int (``operator.index``, so a
float or a string raises TypeError, and a bool becomes 0 or 1), and
since a matching and a rainbow matching are sets, the edges of each
matching are stored in lexicographic order and the pairs of an
assignment in (colour, edge) order.  A matching that is already
canonical (a tuple in that order of tuples of exact ints, as
``parse_instance`` builds them) is kept as it is, not copied, and so is
an assignment already in that order of exact-int pairs, as
``parse_report`` builds it from a written report.  Vertex order inside
an edge is kept as given and repeated edges are kept, so
:func:`validate_instance` still reports them.  It checks the
combinatorial invariants and reports violations as data instead of
raising, so malformed inputs can be inspected.  Whether a matching is
a matching of r-sets is decided in one place, ``_is_r_matching``, with
two users: :func:`validate_instance`'s whole-matching check and the
exact solver, which raises on a colour that fails it.

Colours may share one matching object: the paper's families repeat a
few colour classes many times, the generators build each class once
and give its colours consecutive indices, and ``parse_instance`` loads
equal consecutive matchings as one tuple.  ``Instance.runs`` records,
once, each maximal run of consecutive colours holding one object as
``(matching, range of colours)``.  Per-matching work reads it and is
done once per run, which for these families is once per distinct
matching: the constructor's check and copy, :func:`map_runs`,
:func:`validate_instance` on a valid matching, ``serialize_instance``'s
edge lines and the exact solver's colour-class table.

Distinct matchings may share edge objects too: ``dummy_lift`` appends
the same fresh edges to every matching.  ``Instance.tails`` records,
per run, how many trailing edges are the same objects as the previous
run's; those form the run's shared tail and the rest its head.  Apart
from the constructor's check, every reader of a tail walks the runs
through :func:`map_parts`, whose docstring states the shared-tail rule:
:func:`validate_instance` on a valid family, ``serialize_instance``,
``sample_and_extend`` and ``Instance.vertices`` do per-run work on the
head only, and the tail's work once while its length stays the same.
A family that shares no edge, such as a random one, has tails of 0,
found at its first edge.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from operator import index, is_not, itemgetter, le, lt
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

# An edge is a strictly increasing tuple of r vertex identifiers.
Edge = tuple[int, ...]
# A matching is a tuple of pairwise vertex-disjoint edges.
Matching = tuple[Edge, ...]
# A maximal run of consecutive colours holding one matching object.
Run = tuple[Matching, range]
_T = TypeVar("_T")


def make_edge(vertices: Iterable[int]) -> Edge:
    """Build an edge tuple in canonical (sorted) vertex order."""
    return tuple(sorted(map(index, vertices)))


@dataclass(frozen=True)
class Violation:
    """A single invariant violation found by :func:`validate_instance`."""

    code: str
    message: str
    matching: int | None = None
    edge: int | None = None

    def __str__(self) -> str:
        where = ""
        if self.matching is not None:
            where = f" [matching {self.matching}"
            where += f", edge {self.edge}]" if self.edge is not None else "]"
        return f"{self.code}: {self.message}{where}"


def map_runs(f: Callable[[Matching], Matching], runs: Iterable[Run]) -> tuple[Matching, ...]:
    """The matchings of the colours of ``runs`` in order: ``f(m)`` for the
    object ``m`` of each run, called once per run and shared by its
    colours."""
    return tuple(chain.from_iterable(repeat(f(m), len(colours)) for m, colours in runs))


def map_parts(f: Callable[[Matching], _T], inst: Instance) -> Iterator[tuple[_T, _T, range]]:
    """``(f(head), f(tail), colours)`` for each run of ``inst.runs``, in
    order: the run's shared tail is its last ``inst.tails[i]`` edges,
    and its head the rest, the whole matching when it shares nothing.

    The shared-tail rule: a run's tail lies among the previous run's
    edges, as the same objects, so a tail as long as the previous run's
    is that tail.  ``f`` runs on every head, on a tail once while the
    tail's length stays the same, and once on ``()``, which stands for
    "no tail".  Per-run work is then per head, and a dummy lift's shared
    edges are handled once, not once per matching."""
    empty = tail = f(())
    tail_len = 0
    for (m, colours), k in zip(inst.runs, inst.tails):
        if k != tail_len:
            tail_len, tail = k, f(m[len(m) - k :]) if k else empty
        yield f(m[: len(m) - k]), tail, colours


def _shared_tail(m: Matching, prev: Matching) -> int:
    """The number of trailing edges ``m`` holds as the same objects as
    ``prev``, found by a reverse scan that stops at the first edge that
    is not shared."""
    return next(compress(count(), map(is_not, reversed(m), reversed(prev))), min(len(m), len(prev)))


def _is_canonical(m: Matching) -> bool:
    """True when the constructor would store ``m`` as it is: a tuple in
    lexicographic order of tuples of exact ints.  The edge types are
    tested before the order, so a list edge among tuple edges fails there
    instead of raising in the comparison; unsorted tuple edges fail at
    the order test, before their vertices are read."""
    return (
        type(m) is tuple
        and set(map(type, m)) <= {tuple}
        and all(map(le, m, islice(m, 1, None)))
        and set(map(type, chain.from_iterable(m))) <= {int}
    )


def _is_canonical_assignment(pairs: object) -> bool:
    """True when the ``RainbowMatching`` constructor would store ``pairs``
    as they are: a tuple in (colour, edge) order of ``(colour, edge)``
    tuples, each colour an exact int and each edge a tuple of them."""
    return (
        type(pairs) is tuple
        and set(map(type, pairs)) <= {tuple}
        and set(map(len, pairs)) <= {2}
        and set(map(type, map(itemgetter(0), pairs))) <= {int}
        and set(map(type, map(itemgetter(1), pairs))) <= {tuple}
        and set(map(type, chain.from_iterable(map(itemgetter(1), pairs)))) <= {int}
        and all(map(le, pairs, islice(pairs, 1, None)))
    )


@dataclass(frozen=True)
class Instance:
    """A colour family: ``matchings[i]`` is colour ``i`` (0-based).

    ``partition``, when present, assigns every vertex ``v`` the part
    index ``partition[v]`` in ``range(r)``; partitioned instances are
    the r-partite case.  The partition is always supplied by a
    generator, never inferred.  ``meta`` carries generator provenance
    (name, parameters, seed) as plain strings.

    Each matching's edges are stored in lexicographic order, so two
    instances that differ only in that order are equal.  A matching
    given as a tuple already in that order, of tuples of ``int`` (not
    ``bool`` or another subclass), is stored as the same object; any
    other is copied, its edges sorted (each compared as a tuple, so list
    and tuple edges may be mixed) before they are copied so that the
    copies lie in memory in sorted order.  Consecutive colours that
    hold the same object have it checked and copied once, and share the
    stored one.

    ``runs`` is derived, not a parameter: ``(matching, colours)`` for
    each maximal run of consecutive colours holding one stored object,
    in colour order, so the ranges cover ``range(n)`` and adjacent runs
    hold different objects.  ``tails`` is derived too: ``tails[i]`` is
    the number of trailing edges that run i's stored matching holds as
    the same objects as run i - 1's, its shared tail; the rest is its
    head.  It is 0 for run 0 and after a copied matching, and the
    constructor tests only the head and the first tail edge of a run
    whose predecessor it kept.  Every other reader walks the heads and
    tails through :func:`map_parts`.  Neither takes part in equality or
    the repr.
    """

    r: int
    matchings: tuple[Matching, ...]
    partition: tuple[int, ...] | None = None
    meta: Mapping[str, str] = field(default_factory=dict)
    runs: tuple[Run, ...] = field(init=False, compare=False, repr=False)
    tails: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", index(self.r))
        given = tuple(self.matchings)
        # a run starts at each colour whose object is not the previous
        # colour's (colour 0 is compared with a fresh object)
        starts = list(compress(range(len(given)), map(is_not, given, (object(), *given))))
        colours = map(range, starts, [*starts[1:], len(given)])
        stored: list[Matching] = []
        tails: list[int] = []
        kept: Matching | None = None  # the previous run's matching, when stored as given
        copied = False
        for m in map(given.__getitem__, starts):
            # a tail shared with a kept matching is canonical already: only
            # the head and the first tail edge, its boundary, are tested
            k = _shared_tail(m, kept) if kept and type(m) is tuple and m and m[-1] is kept[-1] else 0
            if type(m) is tuple and _is_canonical(m[: len(m) - k + 1]):
                kept = m
            else:
                m, k, kept, copied = tuple(tuple(map(index, e)) for e in sorted(m, key=tuple)), 0, None, True
            stored.append(m)
            tails.append(k)
        runs = tuple(zip(stored, colours))
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "tails", tuple(tails))
        # colours of a kept run already hold its stored object
        object.__setattr__(self, "matchings", map_runs(lambda m: m, runs) if copied else given)
        if self.partition is not None:
            object.__setattr__(self, "partition", tuple(map(index, self.partition)))
        object.__setattr__(self, "meta", {str(k): str(v) for k, v in dict(self.meta).items()})

    @property
    def n(self) -> int:
        """Number of matchings (equivalently, number of colours)."""
        return len(self.matchings)

    def vertices(self) -> set[int]:
        # a run's shared tail lies among the previous run's edges, so the
        # heads (run 0 whole) hold every vertex
        heads = (head for head, _, _ in map_parts(tuple, self))
        return set(chain.from_iterable(chain.from_iterable(heads)))

    def vertex_count(self) -> int:
        """Vertices are allocated densely from 0; the count is the
        partition length when present, else one past the largest vertex."""
        if self.partition is not None:
            return len(self.partition)
        verts = self.vertices()
        return max(verts) + 1 if verts else 0

    def min_matching_size(self) -> int:
        return min((len(m) for m in self.matchings), default=0)


@dataclass(frozen=True)
class RainbowMatching:
    """An injective colour-to-edge assignment; edges pairwise disjoint.

    ``assignment`` is a tuple of ``(colour, edge)`` pairs, stored sorted
    by (colour, edge).  Pairs given as a tuple already in that order, of
    ``(int, tuple of int)`` tuples (not ``bool`` or another subclass),
    are stored as the same object; any other are converted and sorted.
    Validity against a concrete instance is decided by
    :func:`is_rainbow_matching`.
    """

    assignment: tuple[tuple[int, Edge], ...] = ()

    def __post_init__(self) -> None:
        pairs = self.assignment
        if not _is_canonical_assignment(pairs):
            pairs = tuple(sorted((index(c), tuple(map(index, e))) for c, e in pairs))
        object.__setattr__(self, "assignment", pairs)

    @property
    def size(self) -> int:
        return len(self.assignment)

    def colours(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.assignment)

    def edge_set(self) -> tuple[Edge, ...]:
        return tuple(e for _, e in self.assignment)


def _is_r_matching(m: Matching, r: int) -> bool:
    """True when ``m`` is a matching of r-sets: every edge has ``r``
    entries and the r·len(m) vertices are pairwise distinct, so none
    repeats in an edge or is shared.  Two C-level tests; vertex order,
    signs and parts are not looked at."""
    return set(map(len, m)) <= {r} and len(set(chain.from_iterable(m))) == r * len(m)


def _matching_is_valid(m: Matching, r: int, bits: list[int] | None) -> bool:
    """True when no edge of ``m`` has a violation, checked over the whole
    matching with C-level builtins.  ``bits[v]`` is ``1 << partition[v]``,
    given only when every part index is in ``range(r)``."""
    if not _is_r_matching(m, r):
        return False
    if not m or r == 0:
        return True
    cols = list(zip(*m))
    if min(cols[0]) < 0 or not all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])):
        return False
    if bits is None:
        return True
    # the last column holds each edge's largest vertex; r powers of two
    # below 2^r sum to 2^r - 1 exactly when they are distinct, that is
    # when the edge meets every part once
    full = (1 << r) - 1
    return max(cols[-1]) < len(bits) and all(
        map(full.__eq__, map(sum, zip(*(map(bits.__getitem__, c) for c in cols))))
    )


def validate_instance(inst: Instance) -> list[Violation]:
    """Check every instance invariant; an empty report means valid.

    Reported codes: ``uniformity`` (r < 2), ``partition-part`` (part id
    out of range), ``edge-arity``, ``edge-vertices`` (not strictly
    increasing non-negative), ``intra-matching intersection``,
    ``partition-coverage`` (vertex missing from partition) and
    ``partition-edge`` (edge not meeting every part exactly once).

    Each matching is first checked as a whole (edge lengths, distinct
    vertices, vertex order column by column, and part sums) with C-level
    builtins; only a matching that fails goes through the per-edge pass,
    which is the only code that reports its violations, in edge order.
    The whole-matching check runs once per run of ``inst.runs``; an
    invalid matching is reported under every colour of its run.  The
    runs are walked by :func:`map_parts`.  After a run that passed, a
    run's shared tail is valid already: only its head is checked, and
    its head's vertices tested against the tail's, whose set is built
    once per tail.  After a run that failed, the tail is checked with
    its head.  A run that fails is checked edge by edge in full.
    """
    out: list[Violation] = []
    r = inst.r
    if r < 2:
        out.append(Violation("uniformity", f"r must be >= 2, got {r}"))
    part = inst.partition
    bits = None
    if part is not None:
        if min(part, default=0) >= 0 and max(part, default=0) < r:
            bits = list(map((1).__lshift__, part))
        else:
            for v, p in enumerate(part):
                if not 0 <= p < r:
                    out.append(
                        Violation("partition-part", f"vertex {v} assigned part {p}, expected 0..{r - 1}")
                    )
    # with a part out of range only the per-edge pass tells which edges it spoils
    checked = part is None or bits is not None
    passed = False  # the previous run passed, so its edges are valid
    trusted, tail_vertices = (), set()  # the last trusted tail and its vertices
    for head, tail, colours in map_parts(tuple, inst):
        if checked:
            if not passed:
                head, tail = head + tail, ()
            elif tail is not trusted:
                trusted, tail_vertices = tail, set(chain.from_iterable(tail))
            # an empty set's isdisjoint still walks its whole argument
            passed = _matching_is_valid(head, r, bits) and (
                not tail or tail_vertices.isdisjoint(chain.from_iterable(head))
            )
            if passed:
                continue
        matching = head + tail
        for j in colours:
            owner: dict[int, int] = {}
            for k, e in enumerate(matching):
                if len(e) != r:
                    out.append(
                        Violation("edge-arity", f"edge has {len(e)} vertices, expected {r}", j, k)
                    )
                    continue
                if (e and e[0] < 0) or any(a >= b for a, b in zip(e, e[1:])):
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
                    elif sorted(part[v] for v in e) != list(range(r)):
                        out.append(
                            Violation("partition-edge", "edge must meet every part exactly once", j, k)
                        )
    return out


def is_rainbow_matching(inst: Instance, rm: RainbowMatching) -> bool:
    """True iff ``rm`` is a valid rainbow matching for ``inst``.

    Checks colour injectivity, membership of each edge in the matching
    of its colour, and pairwise vertex-disjointness.  A colour index
    outside ``range(inst.n)`` is an input error and raises ValueError.
    Membership is a binary search in the matching, whose edges the
    constructor keeps in lexicographic order.
    """
    n = inst.n
    for colour, _ in rm.assignment:
        if not 0 <= colour < n:
            raise ValueError(f"colour {colour} out of range for an instance with {n} matchings")
    colours = rm.colours()
    if len(set(colours)) != len(colours):
        return False
    seen: set[int] = set()
    for colour, e in rm.assignment:
        m = inst.matchings[colour]
        i = bisect_left(m, e)
        if i == len(m) or m[i] != e or any(v in seen for v in e):
            return False
        seen.update(e)
    return True
