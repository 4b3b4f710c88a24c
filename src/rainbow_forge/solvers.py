"""Rainbow-matching solvers: exact search, greedy, local search, sampling.

The exact solver is a branch-and-bound over colours.  Colours with
identical edge sets (every tightness construction repeats matchings)
are grouped into classes, and the search assigns each class an
increasing sequence of edges instead of permuting interchangeable
colours.  Pruning combines the remaining-colour count with a
vertex-count relaxation; the reported size is deterministic.  The
search state of a class is one integer, the union of its live edges'
bitmasks: a class is a matching, so the union alone tells how many
edges are live, which comes first, and which of them an edge picked in
another class removes.  Every colour must therefore be a matching of
r-sets; the search raises ValueError naming a colour that is not.

A disjoint union of small pieces, which every family of the paper is,
is solved one component at a time instead.  A union-find over the
edges gives the components.  For each distinct component shape (the
same classes and edges up to a shift of the dense ids) a depth-first
search enumerates the selections: in class order, an increasing run of
pairwise disjoint edges per class, at most as many as the class has
colours.  A selection's profile counts the colours it uses per class;
the maximal profiles are kept, each with its first witness.  Classes
of equal capacity whose swap maps every component's profile set to
itself form one type.  A dynamic program (DP) walks the components in
order over the remaining class capacities, each type's capacities kept
sorted so that symmetric states merge; a profile is cut down to what
remains, which is valid because profiles are downward closed.  The
colours used are the capacity spent; a state that cannot beat the
incumbent even if the remaining components add their largest profiles
is dropped, and the final state with the least capacity left gives the
maximum.  The branch-and-bound runs instead
when the instance has one component, when the incumbent already meets
its root bound, when one component holds more than half of the covered
vertices, or when the attempt would take more nodes than the budget or
than one per (component, class edge) pair.

The local search realises the counting argument behind the
``check_gibounds`` inequality constructively.  Starting from a greedy
matching it applies two moves until neither exists:

* extension: add an edge of an unused colour disjoint from the matching;
* swap: remove one matching edge ``e`` and add two vertex-disjoint edges
  of two distinct unused colours, each meeting the matching only inside
  ``e`` (one out, two in, net +1).

A matching admitting neither move satisfies the inequality with N the
minimum matching size, which is what the verifier re-checks.

Tie-breaking everywhere is lowest colour index first, then lexicographic
edge order; randomised entry points take an explicit seed.

Every solver reads one table per instance, built on first use and kept
on the instance, so it lives exactly as long as the instance does.  It
holds each colour's edges in lexicographic order as the original
tuples.  The greedy, local, good-edge and sampling code test "disjoint
from the matching" against a set of used vertices, so their memory
grows with the edges, not with edges times vertices.  Only the exact
solver works on bitmasks: on first use the table relabels the vertices
densely in sorted order (``sorted(vertices)`` -> 0..V-1), so a bitmask
costs V bits whatever the vertex ids are, and groups colours with
identical edge sets into the exact solver's classes, each edge with its
bitmask.
"""

from __future__ import annotations

import decimal
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Sequence

from .core import Edge, Instance, RainbowMatching, is_rainbow_matching

CERT_EXACT = "exact-optimum"
CERT_LOCAL = "local-optimum"
CERT_HEURISTIC = "heuristic"

DEFAULT_SAMPLE_RETRIES = 20


class ExtensionAvailable(ValueError):
    """A supposedly maximal rainbow matching admits an extension."""

    def __init__(self, colour: int, edge: Edge):
        self.colour = colour
        self.edge = edge
        super().__init__(f"colour {colour} has edge {edge} disjoint from the matching")


class SwapAvailable(ValueError):
    """A supposedly swap-maximal rainbow matching admits a 1-out/2-in swap."""

    def __init__(self, removed: tuple[int, Edge], first: tuple[int, Edge], second: tuple[int, Edge]):
        self.removed = removed
        self.first = first
        self.second = second
        super().__init__(
            f"swap available: drop colour {removed[0]} edge {removed[1]}, "
            f"add colour {first[0]} edge {first[1]} and colour {second[0]} edge {second[1]}"
        )


@dataclass(frozen=True)
class SolveStats:
    nodes: int = 0
    swaps: int = 0
    wall_time: float = 0.0
    seed: int | None = None
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolveReport:
    """Solver output: the witness matching, a certificate, statistics.

    Certificates: ``exact-optimum`` (proved maximum), ``local-optimum``
    (no extension, no good-edge swap) and ``heuristic``.  All claims are
    re-checkable from the instance and the witness alone.
    """

    matching: RainbowMatching
    certificate: str
    stats: SolveStats

    @property
    def size(self) -> int:
        return self.matching.size


@dataclass(frozen=True)
class SampleExtendFailure:
    """Structured failure of :func:`sample_and_extend`.

    ``stage`` names what fell short: ``sampling`` when no sampled vertex
    set satisfied both per-colour conditions within the retry limit, or
    ``extension`` when the conditions held but the final matching stayed
    below the target.  ``best`` is the largest valid rainbow matching
    produced on the way.
    """

    stage: str
    detail: str
    attempts: int
    seed: int | None
    best: RainbowMatching
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GoodEdgeTable:
    """Good-edge accounting for a maximal rainbow matching.

    For every colour i unused by the matching M: ``good[i]`` maps each
    edge ``e`` of M that is good for i to its first two witness edges
    (edges of matching i meeting M only inside ``e``); ``g[i]`` counts
    the good edges and ``h[i]`` the edges of matching i meeting exactly
    one edge of M.  ``min_matching_size`` is the N of the counting
    inequality.
    """

    r: int
    n: int
    m: int
    min_matching_size: int
    good: dict[int, dict[Edge, tuple[Edge, Edge]]]
    g: dict[int, int]
    h: dict[int, int]


class _BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class _ColourClass:
    members: tuple[int, ...]  # colour indices sharing this edge set, ascending
    edges: tuple[Edge, ...]  # lexicographically sorted
    masks: tuple[int, ...]


class _Table:
    """The solver-side view of one instance (see the module docstring)."""

    def __init__(self, inst: Instance):
        # canonical instances (every parsed file) are already in order
        self.edges: list[tuple[Edge, ...]] = [
            m if all(a < b for a, b in zip(m, m[1:])) else tuple(sorted(set(m)))
            for m in inst.matchings
        ]

    @cached_property
    def index(self) -> dict[int, int]:
        """Dense vertex ids, ``sorted(vertices) -> 0..V-1``."""
        vertices = sorted({v for es in self.edges for e in es for v in e})
        return {v: i for i, v in enumerate(vertices)}

    @cached_property
    def classes(self) -> list[_ColourClass]:
        """Colours with identical edge sets, grouped, each edge with its
        bitmask over the dense ids; in order of their lowest member."""
        index = self.index

        def mask(e: Edge) -> int:
            mk = 0
            for v in e:
                mk |= 1 << index[v]
            return mk

        groups: dict[tuple[Edge, ...], list[int]] = {}
        for colour, es in enumerate(self.edges):
            groups.setdefault(es, []).append(colour)
        return [
            _ColourClass(tuple(members), es, tuple(map(mask, es)))
            for es, members in groups.items()
        ]


def _table(inst: Instance) -> _Table:
    """The instance's table, built on first use and kept in the
    instance's ``__dict__`` (as ``functools.cached_property`` does), so
    it lives and dies with the instance."""
    table = inst.__dict__.get("_solver_table")
    if table is None:
        table = inst.__dict__["_solver_table"] = _Table(inst)
    return table


def _pairs_to_rainbow(pairs: Iterable[tuple[int, Edge]]) -> RainbowMatching:
    return RainbowMatching(tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# exact search


def _branch_and_bound(
    classes: Sequence[_ColourClass],
    r: int,
    budget: int | None,
    incumbent: RainbowMatching,
) -> tuple[RainbowMatching, int, bool]:
    """Search all canonical class assignments.

    The state maps each open class to the union of its live edges'
    masks; how many colours each class has left to give is one list,
    changed on the way down and restored on backtrack.  A class's edges
    are pairwise disjoint r-sets in lexicographic order, which for
    sorted edges is the order of their lowest dense id, so the union
    alone holds the class's live edges:

    * there are ``union.bit_count() // r`` of them;
    * the first holds the union's lowest bit;
    * dropping an edge clears exactly its bits, so once the picked
      class's edges up to the chosen one are cleared, the rest is its
      tail;
    * another class loses the edges on the picked edge's vertices,
      found through a per-class map from a vertex bit to the mask of
      the class edge on it (O(E r) entries, sharing one key per bit).

    The vertex bound's union is the OR of the class unions.  Raises
    ValueError naming the colour when a class's edges are not pairwise
    disjoint r-sets, on which these counts, and so the bounds, would
    be wrong.

    Returns (the best matching found, which is ``incumbent`` unless the
    search beat it, nodes explored, budget exhausted flag).
    """
    best_size = incumbent.size
    best_witness = incumbent
    nodes = 0
    chosen: list[tuple[int, int]] = []  # (class, mask of the chosen edge)
    left = [len(cl.members) for cl in classes]
    edge_at: list[dict[int, int]] = []  # per class: vertex bit -> class edge mask
    start: dict[int, int] = {}  # open class -> union of its live edges
    bits: dict[int, int] = {}  # one int per vertex bit, the maps' shared keys
    for ci, cl in enumerate(classes):
        at: dict[int, int] = {}
        union = 0
        for e, mk in zip(cl.edges, cl.masks):
            if mk.bit_count() != r:
                raise ValueError(f"colour {cl.members[0]}: edge {e} is not a {r}-set")
            union |= mk
            rem = mk
            while rem:
                low = rem & -rem
                at[bits.setdefault(low, low)] = mk
                rem ^= low
        if union.bit_count() != r * len(cl.masks):
            raise ValueError(f"colour {cl.members[0]}: edges intersect, so it is not a matching")
        edge_at.append(at)
        if union:
            start[ci] = union

    def witness() -> RainbowMatching:
        counts: dict[int, int] = {}
        pairs = []
        for ci, mk in chosen:
            k = counts.get(ci, 0)
            counts[ci] = k + 1
            cl = classes[ci]
            pairs.append((cl.members[k], cl.edges[cl.masks.index(mk)]))
        return _pairs_to_rainbow(pairs)

    def dfs(live: dict[int, int]) -> None:
        nonlocal best_size, best_witness, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise _BudgetExhausted
        cur = len(chosen)
        if cur > best_size:
            best_size = cur
            best_witness = witness()
        if not live:
            return
        total_ub = 0
        pick = -1
        pick_len = -1
        union = 0
        for ci, u in live.items():
            count = u.bit_count() // r
            k = left[ci]
            total_ub += k if k < count else count
            if pick_len < 0 or count < pick_len:
                pick, pick_len = ci, count
            union |= u
        if cur + total_ub <= best_size:
            return
        if cur + min(total_ub, union.bit_count() // r) <= best_size:
            return

        k = left[pick]
        left[pick] = k - 1
        at = edge_at[pick]
        tail = live[pick]
        while tail:
            mk = at[tail & -tail]
            tail ^= mk  # the class's live edges after this one
            child: dict[int, int] = {}
            for cj, u in live.items():
                if cj == pick:
                    if k > 1 and tail:
                        child[cj] = tail
                    continue
                hit = u & mk
                if hit:
                    other = edge_at[cj]
                    while hit:
                        u ^= other[hit & -hit]
                        hit = u & mk
                    if not u:
                        continue
                child[cj] = u
            chosen.append((pick, mk))
            dfs(child)
            chosen.pop()
        left[pick] = k
        # close the whole class: interchangeable colours make exploring
        # "skip member k, use member k+1" redundant
        rest = {cj: u for cj, u in live.items() if cj != pick}
        dfs(rest)

    exhausted = False
    try:
        dfs(start)
    except _BudgetExhausted:
        exhausted = True
    return best_witness, nodes, exhausted


def _components(table: _Table) -> tuple[list[int], list[int]]:
    """Connected components as bitmasks over dense ids, ordered by their
    lowest vertex, and the component index of each dense id (every
    vertex of the table lies on an edge)."""
    index = table.index
    parent = list(range(len(index)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for cl in table.classes:
        for e in cl.edges:
            a = find(index[e[0]])
            for v in e[1:]:
                b = find(index[v])
                if b != a:
                    parent[b] = a
    first: dict[int, int] = {}
    label = [first.setdefault(find(x), len(first)) for x in range(len(index))]
    comps = [0] * len(first)
    for x, c in enumerate(label):
        comps[c] |= 1 << x
    return comps, label


def _profiles(
    items: Sequence[tuple[int, int]], caps: Sequence[int], limit: int, nodes: int
) -> tuple[dict[tuple[tuple[int, int], ...], tuple[int, ...]], int]:
    """The maximal class profiles of one component, each with its first
    witness, and the updated node count.

    ``items`` are the component's (class, mask) edges in class order and
    then edge order.  A selection is an increasing run of pairwise
    disjoint items with at most ``caps[class]`` per class; its profile
    is the sparse tuple of (class, edges used), its witness the item
    indices.  Every selection is one node; past ``limit`` nodes the
    enumeration raises :class:`_BudgetExhausted`.
    """
    found: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {}
    used_per_class: dict[int, int] = {}
    chosen: list[int] = []

    def rec(start: int, used: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise _BudgetExhausted
        profile: list[tuple[int, int]] = []
        for t in chosen:
            ci = items[t][0]
            if profile and profile[-1][0] == ci:
                profile[-1] = (ci, profile[-1][1] + 1)
            else:
                profile.append((ci, 1))
        found.setdefault(tuple(profile), tuple(chosen))
        for t in range(start, len(items)):
            ci, mk = items[t]
            k = used_per_class.get(ci, 0)
            if mk & used or k == caps[ci]:
                continue
            used_per_class[ci] = k + 1
            chosen.append(t)
            rec(t + 1, used | mk)
            chosen.pop()
            used_per_class[ci] = k

    rec(0, 0)
    # the profiles are downward closed, so a profile is maximal exactly
    # when no single class can be raised by one
    classes = sorted(set(ci for ci, _ in items))

    def raised(p: tuple[tuple[int, int], ...], ci: int) -> tuple[tuple[int, int], ...]:
        d = dict(p)
        d[ci] = d.get(ci, 0) + 1
        return tuple(sorted(d.items()))

    return {
        p: w for p, w in found.items() if not any(raised(p, ci) in found for ci in classes)
    }, nodes


def _by_components(
    table: _Table, r: int, budget: int | None, incumbent: RainbowMatching
) -> tuple[RainbowMatching, int, dict] | None:
    """Solve a disjoint union one component at a time (see the module
    docstring).

    Returns None when the instance is left to :func:`_branch_and_bound`;
    otherwise the best matching (``incumbent`` unless the combination
    beat it), the nodes, which are enumeration nodes plus DP states, and
    the ``stats.extra`` entries of this path.
    """
    classes = table.classes
    caps = [len(cl.members) for cl in classes]
    nv = len(table.index)  # every vertex lies on an edge
    if incumbent.size >= min(sum(min(k, len(cl.masks)) for k, cl in zip(caps, classes)), nv // r):
        return None  # meets the search's root bound: it stops at once
    comps, label = _components(table)
    if len(comps) < 2 or 2 * max(mk.bit_count() for mk in comps) > nv:
        return None  # a dominant component makes its profiles explode
    # The attempt may take one node per (component, class edge) pair.
    # Gadgets, K4 blocks and shared edges hold at most two disjoint edges
    # and their classes fall into a few types, so they stay far inside
    # that; rich pieces (random parts, many classes that no symmetry
    # merges) exceed it long before the search would.  Past it, or past
    # the budget, the search runs as if no attempt had been made.
    limit = len(comps) * sum(len(cl.masks) for cl in classes)
    if budget is not None:
        limit = min(limit, budget)

    # each component's edges as (class, mask) items, with their positions
    items: list[list[tuple[int, int]]] = [[] for _ in comps]
    where: list[list[int]] = [[] for _ in comps]
    for ci, cl in enumerate(classes):
        for pos, mk in enumerate(cl.masks):
            c = label[(mk & -mk).bit_length() - 1]
            items[c].append((ci, mk))
            where[c].append(pos)
    # identical components (the same classes and edges up to a shift of
    # the dense ids) share one enumeration
    group_of: dict[tuple[tuple[int, int], ...], int] = {}
    comp_group = []
    first_of: list[int] = []
    for c, mk in enumerate(comps):
        shift = (mk & -mk).bit_length() - 1
        key = tuple((ci, m >> shift) for ci, m in items[c])
        if key not in group_of:
            group_of[key] = len(first_of)
            first_of.append(c)
        comp_group.append(group_of[key])

    nodes = dp_states = 0
    try:
        found = []
        for c in first_of:
            profiles, nodes = _profiles(items[c], caps, limit, nodes)
            found.append(profiles)

        # class types: the same capacity, and swapping the two classes
        # maps every component's profile set to itself
        def symmetric(a: int, b: int) -> bool:
            swap = {a: b, b: a}
            return all(
                {tuple(sorted((swap.get(ci, ci), k) for ci, k in p)) for p in ps} == ps.keys()
                for ps in found
            )

        types: list[list[int]] = []
        for ci, cl in enumerate(classes):
            if not cl.masks:
                continue
            for ty in types:
                if caps[ty[0]] == caps[ci] and symmetric(ty[0], ci):
                    ty.append(ci)
                    break
            else:
                types.append([ci])

        # a state is the remaining capacities in type order, each type's
        # slice sorted; the colours used so far are the capacity spent,
        # so the state alone determines the value
        order = [ci for ty in types for ci in ty]
        slot = {ci: s for s, ci in enumerate(order)}
        span_of: list[tuple[int, int]] = []
        for ty in types:
            span_of += [(len(span_of), len(span_of) + len(ty))] * len(ty)
        moves = [
            [(tuple((slot[ci], k) for ci, k in p), w) for p, w in profiles.items()]
            for profiles in found
        ]

        def apply(state: Sequence[int], move: tuple[tuple[int, int], ...]) -> list[int]:
            child = list(state)
            for s, k in move:
                child[s] -= min(k, child[s])
            return child

        def canonical(child: list[int], touched: Iterable[int]) -> tuple[int, ...]:
            for lo, hi in {span_of[s] for s in touched}:
                if hi - lo > 1:
                    child[lo:hi] = sorted(child[lo:hi])
            return tuple(child)

        start = tuple(caps[ci] for ci in order)
        total = sum(start)
        # the most colours the components from c on can still add
        reach = [0] * (len(comps) + 1)
        for c in reversed(range(len(comps))):
            reach[c] = reach[c + 1] + max(sum(k for _, k in m) for m, _ in moves[comp_group[c]])
        layers: list[dict[tuple[int, ...], tuple[int, ...]]] = [{start: start}]
        for c, g in enumerate(comp_group):
            nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
            for state in layers[-1]:
                seen = set()
                for move, _ in moves[g]:
                    # moves meeting equal capacities of one type lead to
                    # the same state
                    key = tuple(sorted((span_of[s], state[s], k) for s, k in move))
                    if key in seen:
                        continue
                    seen.add(key)
                    child = canonical(apply(state, move), (s for s, _ in move))
                    left = sum(child)
                    if child in nxt or total - left + min(left, reach[c + 1]) <= incumbent.size:
                        continue  # known, or cannot beat the incumbent
                    nxt[child] = state
                    nodes += 1
                    dp_states += 1
                    if nodes > limit:
                        raise _BudgetExhausted
            layers.append(nxt)
    except _BudgetExhausted:
        return None
    extra = {"components": len(comps), "dp_states": dp_states}
    if not layers[-1]:
        return incumbent, nodes, extra
    best = min(layers[-1], key=sum)

    # follow the best path back, then replay it on the actual
    # capacities: take the first move whose canonical child is on it
    path = [best]
    for layer in reversed(layers[1:]):
        path.append(layer[path[-1]])
    path.reverse()
    rem = list(start)
    given = [0] * len(classes)
    pairs = []
    for c, g in enumerate(comp_group):
        for move, witness in moves[g]:
            child = apply(rem, move)
            if canonical(list(child), range(len(child))) == path[c + 1]:
                break
        take = {order[s]: rem[s] - child[s] for s, _ in move}
        for t in witness:
            ci = items[c][t][0]
            if take[ci]:
                take[ci] -= 1
                pairs.append((classes[ci].members[given[ci]], classes[ci].edges[where[c][t]]))
                given[ci] += 1
        rem = child
    return _pairs_to_rainbow(pairs), nodes, extra


def exact_max_rainbow(inst: Instance, node_budget: int | None = None) -> SolveReport:
    """Maximum rainbow matching, starting from the local-search incumbent.

    An instance that splits into components is solved by components
    (see the module docstring) when none of them holds more than half
    of the covered vertices, the incumbent is below the branch-and-bound
    root bound, and the attempt fits in ``node_budget`` and in one node
    per (component, class edge) pair.  ``stats.nodes`` then counts
    enumeration nodes plus DP states, and ``stats.extra`` gains
    ``components`` and ``dp_states``.  Otherwise the branch-and-bound
    runs as if no attempt had been made, and ``stats.nodes`` counts its
    search nodes.

    With an unexhausted budget the certificate is ``exact-optimum`` and
    the size is the true maximum; if the search explores ``node_budget``
    nodes first, the best matching found so far is returned with
    certificate ``heuristic``.  The branch-and-bound raises ValueError
    on a colour that is not a matching of r-sets, which no valid
    instance has.
    """
    t0 = time.perf_counter()
    incumbent = local_search_rainbow(inst).matching
    table = _table(inst)
    extra: dict[str, Any] = {"incumbent_size": incumbent.size}
    solved = _by_components(table, inst.r, node_budget, incumbent)
    if solved is None:
        witness, nodes, exhausted = _branch_and_bound(
            table.classes, inst.r, node_budget, incumbent
        )
    else:
        witness, nodes, parts = solved
        exhausted = False
        extra.update(parts)
    stats = SolveStats(
        nodes=nodes,
        swaps=0,
        wall_time=time.perf_counter() - t0,
        seed=None,
        extra=extra,
    )
    return SolveReport(witness, CERT_HEURISTIC if exhausted else CERT_EXACT, stats)


# ---------------------------------------------------------------------------
# greedy and local search


def greedy_rainbow(
    inst: Instance,
    color_order: Sequence[int] | None = None,
) -> SolveReport:
    """First-fit greedy: walk the colours in order, add the first edge
    disjoint from the matching so far.  When every matching has size at
    least n the result has size at least ceil(n / r)."""
    n = inst.n
    if color_order is None:
        order: Sequence[int] = range(n)
    else:
        if sorted(color_order) != list(range(n)):
            raise ValueError("color_order must be a permutation of range(n)")
        order = color_order
    t0 = time.perf_counter()
    edges = _table(inst).edges
    used: set[int] = set()
    pairs: list[tuple[int, Edge]] = []
    for colour in order:
        for e in edges[colour]:
            if used.isdisjoint(e):
                pairs.append((colour, e))
                used.update(e)
                break
    stats = SolveStats(wall_time=time.perf_counter() - t0)
    return SolveReport(_pairs_to_rainbow(pairs), CERT_HEURISTIC, stats)


def find_extension(inst: Instance, rm: RainbowMatching) -> tuple[int, Edge] | None:
    """First (lowest colour, lexicographic edge) extension move, if any."""
    used_colours = set(rm.colours())
    used = {v for _, e in rm.assignment for v in e}
    for colour, es in enumerate(_table(inst).edges):
        if colour in used_colours:
            continue
        for e in es:
            if used.isdisjoint(e):
                return colour, e
    return None


def _qualifying_by_edge(
    inst: Instance, rm: RainbowMatching
) -> dict[Edge, dict[int, list[Edge]]]:
    """For each matching edge e and unused colour i, the edges of
    matching i that meet the matching, and only inside e.

    Assumes extension-maximality (no edge of an unused colour disjoint
    from the matching); callers check that first.
    """
    owner = {v: e for _, e in rm.assignment for v in e}
    used_colours = set(rm.colours())
    by_edge: dict[Edge, dict[int, list[Edge]]] = {e: {} for _, e in sorted(rm.assignment)}
    for colour, es in enumerate(_table(inst).edges):
        if colour in used_colours:
            continue
        for f in es:
            home = None
            for v in f:
                e = owner.get(v)
                if e is None:
                    continue
                if home is None:
                    home = e
                elif e != home:
                    break
            else:
                if home is not None:
                    by_edge[home].setdefault(colour, []).append(f)
    return by_edge


def find_swap(
    inst: Instance, rm: RainbowMatching
) -> tuple[tuple[int, Edge], tuple[int, Edge], tuple[int, Edge]] | None:
    """First 1-out/2-in swap move, if any.

    Looks for a matching edge e and vertex-disjoint edges f, f' of two
    distinct unused colours, each meeting the matching only inside e;
    replacing e by f and f' grows the matching by one.  Requires rm to
    be extension-maximal.
    """
    colour_of = {e: c for c, e in rm.assignment}
    for e, per_colour in _qualifying_by_edge(inst, rm).items():
        cols = sorted(per_colour)
        for ai in range(len(cols)):
            for bi in range(ai + 1, len(cols)):
                i, j = cols[ai], cols[bi]
                for f in per_colour[i]:
                    fs = set(f)
                    for f2 in per_colour[j]:
                        if fs.isdisjoint(f2):
                            return (colour_of[e], e), (i, f), (j, f2)
    return None


def local_search_rainbow(inst: Instance, seed: int | None = None) -> SolveReport:
    """Greedy start, then alternate extension and swap moves to a local
    optimum.  Each move grows the matching by one, so at most n moves
    are made.  The result admits neither move, hence satisfies the
    good-edge counting inequality checked by ``check_gibounds``."""
    t0 = time.perf_counter()
    order = list(range(inst.n))
    if seed is not None:
        random.Random(seed).shuffle(order)
    current = dict(greedy_rainbow(inst, order).matching.assignment)
    swaps = 0
    moves = 0
    while True:
        rm = _pairs_to_rainbow(current.items())
        ext = find_extension(inst, rm)
        if ext is not None:
            current[ext[0]] = ext[1]
            moves += 1
            continue
        swp = find_swap(inst, rm)
        if swp is not None:
            removed, first, second = swp
            del current[removed[0]]
            current[first[0]] = first[1]
            current[second[0]] = second[1]
            swaps += 1
            moves += 1
            continue
        break
    stats = SolveStats(
        nodes=moves,
        swaps=swaps,
        wall_time=time.perf_counter() - t0,
        seed=seed,
    )
    return SolveReport(_pairs_to_rainbow(current.items()), CERT_LOCAL, stats)


def good_edges(inst: Instance, rm: RainbowMatching) -> GoodEdgeTable:
    """Exact good-edge table for a maximal rainbow matching.

    An edge e of the matching M is good for an unused colour i when at
    least two edges of matching i meet M only inside e; those first two
    witnesses are recorded.  Raises :class:`ExtensionAvailable` naming
    an extending edge when rm is not maximal, and ValueError when rm is
    not a valid rainbow matching at all.
    """
    if not is_rainbow_matching(inst, rm):
        raise ValueError("not a valid rainbow matching for this instance")
    ext = find_extension(inst, rm)
    if ext is not None:
        raise ExtensionAvailable(*ext)
    table = _qualifying_by_edge(inst, rm)
    used_colours = set(rm.colours())
    good: dict[int, dict[Edge, tuple[Edge, Edge]]] = {}
    g: dict[int, int] = {}
    h: dict[int, int] = {}
    for colour in range(inst.n):
        if colour in used_colours:
            continue
        good[colour] = {}
        g[colour] = 0
        h[colour] = 0
    for e, per_colour in table.items():
        for colour, fs in per_colour.items():
            h[colour] += len(fs)
            if len(fs) >= 2:
                good[colour][e] = (fs[0], fs[1])
                g[colour] += 1
    return GoodEdgeTable(
        r=inst.r,
        n=inst.n,
        m=rm.size,
        min_matching_size=inst.min_matching_size(),
        good=good,
        g=g,
        h=h,
    )


# ---------------------------------------------------------------------------
# sample and extend


def chernoff_tail(n_trials: int, p, epsilon) -> decimal.Decimal:
    """Binomial tail bound ``2 exp(-eps^2 * n p / 3)`` for
    P(|X - E X| >= eps E X), X ~ B(n, p), evaluated to 50 significant
    digits.  Requires 0 < p < 1 and 0 < epsilon < 1."""
    if n_trials < 0:
        raise ValueError("n_trials must be non-negative")
    p = Fraction(p)
    epsilon = Fraction(epsilon)
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    exponent = -(epsilon ** 2) * n_trials * p / 3
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x = decimal.Decimal(exponent.numerator) / exponent.denominator
        return 2 * x.exp()


def sample_and_extend(
    inst: Instance,
    target: int,
    seed: int | None = None,
    retries: int = DEFAULT_SAMPLE_RETRIES,
) -> SolveReport | SampleExtendFailure:
    """Randomised two-phase solver for a full-size rainbow matching.

    Samples a vertex set S with per-vertex probability ``4 n^(-1/(2r))``
    (clamped to 1) and re-samples until every colour has at least
    ``r 2^r sqrt(n)`` edges inside S and at least ``(r+1)n/2`` edges
    avoiding S, or the retry limit is reached.  It then runs the local
    search on the instance restricted to edges avoiding S and greedily
    extends the result with edges inside S.  Success is a valid rainbow
    matching of size exactly ``target`` (which must equal n); any
    shortfall yields a :class:`SampleExtendFailure` naming the stage.

    The per-colour conditions are checked in exact integer arithmetic.
    At small n they routinely fail (the guarantees are asymptotic); the
    solve still runs on the final sample, so trivially extendable
    instances succeed regardless.
    """
    n = inst.n
    if target != n:
        raise ValueError(f"target must equal the number of matchings ({n}), got {target}")
    t0 = time.perf_counter()
    if n == 0:
        return SolveReport(RainbowMatching(), CERT_HEURISTIC, SolveStats(seed=seed))
    r = inst.r
    rng = random.Random(seed)
    edges = _table(inst).edges
    vertices = sorted(inst.vertices())
    p = 4.0 * n ** (-1.0 / (2 * r))
    p_eff = min(p, 1.0)
    inside_needed_sq = r * r * 4 ** r * n  # count >= r 2^r sqrt(n)  <=>  count^2 >= this

    checks_met = False
    attempts = 0
    sample: set[int] = set()
    for attempts in range(1, max(1, retries) + 1):
        # one draw per vertex, in sorted order
        sample = {v for v in vertices if rng.random() < p_eff}
        ok = True
        for es in edges:
            inside = sum(1 for e in es if sample.issuperset(e))
            off = sum(1 for e in es if sample.isdisjoint(e))
            if inside * inside < inside_needed_sq or 2 * off < (r + 1) * n:
                ok = False
                break
        if ok:
            checks_met = True
            break

    restricted = Instance(
        r=inst.r,
        matchings=tuple(tuple(e for e in es if sample.isdisjoint(e)) for es in edges),
        partition=inst.partition,
        meta={**inst.meta, "restricted": "off-sample"},
    )
    inner = local_search_rainbow(restricted, seed=rng.randrange(2 ** 32))
    current = dict(inner.matching.assignment)
    used = {v for e in current.values() for v in e}
    for colour, es in enumerate(edges):
        if colour in current:
            continue
        for e in es:
            if sample.issuperset(e) and used.isdisjoint(e):
                current[colour] = e
                used.update(e)
                break

    diagnostics: dict[str, Any] = {
        "p": p,
        "p_effective": p_eff,
        "sample_size": len(sample),
        "checks_met": checks_met,
        "off_sample_size": inner.size,
    }
    if 0.0 < p_eff < 1.0:
        s_min = inst.min_matching_size()
        if s_min:
            # theoretical per-run failure bounds for the two sampled events
            diagnostics["tail_inside"] = float(
                n * chernoff_tail(s_min, Fraction(p_eff) ** r, Fraction(1, 2))
            )
            eps = min(Fraction(1, 2), Fraction(1, max(2, round(n ** (1.0 / (2 * r))))))
            diagnostics["tail_avoiding"] = float(
                n * chernoff_tail(s_min, 1 - (1 - Fraction(p_eff)) ** r, eps)
            )

    result = _pairs_to_rainbow(current.items())
    if result.size == n:
        stats = SolveStats(
            nodes=inner.stats.nodes,
            swaps=inner.stats.swaps,
            wall_time=time.perf_counter() - t0,
            seed=seed,
            extra={"attempts": attempts, **diagnostics},
        )
        return SolveReport(result, CERT_HEURISTIC, stats)
    if not checks_met:
        stage = "sampling"
        detail = (
            f"no sample satisfied the per-colour conditions within {attempts} attempts "
            f"(need every colour to keep >= {(r + 1) * n / 2:g} edges off the sample and "
            f"ceil(r 2^r sqrt(n)) edges inside it)"
        )
    else:
        stage = "extension"
        detail = (
            f"sample conditions held but the matching reached only {result.size} of {n} "
            f"colours ({inner.size} off-sample, {result.size - inner.size} extended inside)"
        )
    return SampleExtendFailure(
        stage=stage,
        detail=detail,
        attempts=attempts,
        seed=seed,
        best=result,
        diagnostics=diagnostics,
    )
