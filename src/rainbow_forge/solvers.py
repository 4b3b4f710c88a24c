"""Rainbow-matching solvers: exact search, greedy, local search, sampling.

The exact solver is a branch-and-bound over colours.  Colours with
identical edge sets (every tightness construction repeats matchings)
are grouped into classes, and the search assigns each class an
increasing sequence of edges instead of permuting interchangeable
colours.  Pruning combines the remaining-colour count with a
vertex-count relaxation, and a node stops once the incumbent meets its
bound; the reported size is deterministic.  A node arrives with its
bound, which its parent works out in the loop that builds its state,
and a child that cannot beat the incumbent is counted as a node but
never built.  The search state of a
class is one integer, the union of its live edges' bitmasks: a class
is a matching, so the union alone tells how many edges are live, which
comes first, and which of them an edge picked in another class
removes.  Every colour must therefore be a matching of r-sets: before
the incumbent and the classes, the exact solver checks each run of
colours with ``core``'s matching test and raises ValueError naming the
first colour that is not, whichever path it then takes.

A disjoint union of small pieces, which every family of the paper is,
is solved one component at a time instead.  Once the incumbent is
below the root bound, a union-find over the class edges gives the
components.  For each distinct component shape (the
same classes and edges up to a shift of the dense ids) a depth-first
search enumerates the selections: in class order, an increasing run of
pairwise disjoint edges per class, at most as many as the class has
colours.  A selection's profile counts the colours it uses per class;
the maximal profiles are kept, each with its first witness.  Classes
of equal capacity whose swap maps every component's profile set to
itself form one type.  A dynamic program (DP) walks the components in
order; its state is, per type, the sorted tuple of the type's remaining
class capacities, so states that differ by a swap within a type are
one.  A component's moves are the distinct uses of the types among its
profiles (per type, the sorted numbers of colours its classes give),
and a move's children are the distinct ways to give each use its own
class of the type, named by its remaining capacity; a use is cut down
to what remains, which is valid because profiles are downward closed.
The colours used are the capacity spent; a state that cannot beat the
incumbent even if the remaining components add their largest profiles
is dropped, and the final state with the least capacity left gives the
maximum.  Its witness follows each state's first parent back and gives
each use an actual class with the capacity it met: a swap within a
type maps profiles to profiles, so that profile has a witness too.
An incumbent that uses all n colours meets every bound: it is proved
in the one node the search's root would take, before the classes are
built (a budget of 0 still counts that node without running it).
Otherwise the branch-and-bound runs instead when the instance has one
component, when the incumbent already meets its root bound, when one
component holds more than half of the covered vertices, or when the
attempt would take more nodes than the budget or than one per
(component, class edge) pair.

Both searches, the branch-and-bound and the component enumeration, run
through ``_walk`` from an explicit stack of node generators, so their
depth is bounded by memory, not by the recursion limit.  The walker
counts every node it enters and stops at the first one past the
budget without running it.

The local search realises the counting argument behind the
``check_gibounds`` inequality constructively.  Starting from a greedy
matching it applies two moves until neither exists:

* extension: add an edge of an unused colour disjoint from the matching;
* swap: remove one matching edge ``e`` and add two vertex-disjoint edges
  of two distinct unused colours, each meeting the matching only inside
  ``e`` (one out, two in, net +1).

A matching admitting neither move satisfies the inequality with N the
minimum matching size, which is what the verifier re-checks.  Both
moves come from one scan of the unused colours' edges (``_classify``):
the local search makes one ``find_swap`` call per move, plus the last
one that finds none, and takes the extension that ``find_swap`` raises
as ExtensionAvailable on a matching that admits one; ``good_edges``
builds its table and its first ``swap`` from one scan.

Tie-breaking everywhere is lowest colour index first, then lexicographic
edge order; randomised entry points take an explicit seed.

The greedy, local, good-edge and sampling code read the instance's
matchings, whose edges the constructor keeps in lexicographic order,
and test "disjoint from the matching" against the used vertices, so
their memory grows with the edges, not with edges times vertices.
Only the exact solver works on bitmasks, over the colour classes it
builds for the instance it solves (``_colour_classes``).  It relabels
the vertices densely in sorted order (``sorted(vertices)`` -> 0..V-1),
so a bitmask costs V bits whatever the vertex ids are, and groups the
runs of ``Instance.runs`` with identical edge sets into classes.  One
pass over the classes' edges builds each edge's mask and maps each
vertex's dense id to the edge of each class on it; the classes and V
are all it returns, the index itself is dropped once its ints are the
maps' keys.  Both exact paths read the classes, and each builds the
rest of its own view: the component path its components from the
classes and V, the branch-and-bound its root state.  Nothing there
checks: the classes are built only from colours that passed the check.
"""

from __future__ import annotations

import decimal
import random
import time
from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Iterator, Sequence

from .core import Edge, Instance, Matching, RainbowMatching, is_rainbow_matching, map_parts, map_runs
from .core import _is_r_matching

CERT_EXACT = "exact-optimum"
CERT_LOCAL = "local-optimum"
CERT_HEURISTIC = "heuristic"

DEFAULT_SAMPLE_RETRIES = 20

# a swap move: (removed, first added, second added) as (colour, edge)
_Swap = tuple[tuple[int, Edge], tuple[int, Edge], tuple[int, Edge]]


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
    inequality.  ``swap`` is the first swap move (see :func:`find_swap`),
    None when M is swap-maximal.
    """

    r: int
    n: int
    m: int
    min_matching_size: int
    good: dict[int, dict[Edge, tuple[Edge, Edge]]]
    g: dict[int, int]
    h: dict[int, int]
    swap: _Swap | None


@dataclass(frozen=True)
class _ColourClass:
    """The colours with one edge set (``members``) and the set's edges
    with their masks over the dense ids, by vertex (``edge_at``) and by
    mask (``edge_of``, in edge order)."""

    members: tuple[int, ...]  # colour indices sharing this edge set, ascending
    edge_at: dict[int, int]  # dense id -> mask of the class edge on it
    edge_of: dict[int, Edge]  # mask -> edge, in lexicographic edge order


def _colour_classes(inst: Instance) -> tuple[list[_ColourClass], int]:
    """The exact solver's view of one instance (see the module
    docstring): its colour classes and V, the number of dense ids,
    built in one pass over the edges.

    A class maps the dense id of each vertex on its edges to that
    edge's mask (``edge_at``), an edge's ids in a row and in ascending
    order, each holding the same mask object; the keys are the ints of
    one dense index, so the classes share one int per vertex.  Nothing
    is checked or raised: every class must be a matching of r-sets,
    which ``exact_max_rainbow`` checks first, since the bounds of both
    exact paths count r vertices per edge.
    """
    # dense vertex ids, sorted(vertices) -> 0..V-1
    index = {v: i for i, v in enumerate(sorted(inst.vertices()))}
    # colours with identical edge sets, grouped, each edge with its
    # bitmask over the dense ids; in order of their lowest member
    groups: dict[Matching, list[int]] = {}
    for es, colours in inst.runs:
        groups.setdefault(es, []).extend(colours)
    classes = []
    for es, members in groups.items():
        at: dict[int, int] = {}
        of: dict[int, Edge] = {}
        for e in es:
            xs = [index[v] for v in e]  # the index's own ints, shared as the maps' keys
            mk = 0
            for x in xs:
                mk |= 1 << x
            of[mk] = e
            for x in xs:
                at[x] = mk
        classes.append(_ColourClass(tuple(members), at, of))
    return classes, len(index)


# ---------------------------------------------------------------------------
# exact search


def _walk(root: Iterator[Iterator], budget: int | None) -> tuple[int, bool]:
    """Run a depth-first search from an explicit stack, so its depth is
    bounded by memory, not by the recursion limit.

    A node is a generator that does its own work and yields its
    children's generators in order; each child runs to its end before
    its parent resumes.  Every node entered is counted, the root first;
    the first one past ``budget`` is counted but not run.  Returns
    (nodes, budget exhausted flag).
    """
    nodes = 1
    stack = [root]
    while budget is None or nodes <= budget:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            if not stack:
                return nodes, False
        else:
            nodes += 1
            stack.append(child)
    return nodes, True


_PRUNED: Iterator = iter(())  # a child counted as a node but not built


def _witness(classes: Sequence[_ColourClass], chosen: Iterable[tuple[int, int]]) -> RainbowMatching:
    """The rainbow matching of (class, edge mask) picks: a class's k-th
    pick takes its k-th member colour."""
    given: dict[int, int] = {}
    pairs = []
    for ci, mk in chosen:
        k = given.get(ci, 0)
        given[ci] = k + 1
        cl = classes[ci]
        pairs.append((cl.members[k], cl.edge_of[mk]))
    return RainbowMatching(tuple(pairs))


def _branch_and_bound(
    classes: Sequence[_ColourClass],
    r: int,
    budget: int | None,
    incumbent: RainbowMatching,
) -> tuple[RainbowMatching, int, bool, dict]:
    """Search all canonical class assignments.

    The state maps each open class to the union of its live edges'
    masks, at the root the OR of the class's ``edge_of`` keys; how many
    colours each class has left to give is one list, changed on the way
    down and restored on backtrack.  A class's edges are pairwise
    disjoint r-sets in lexicographic order, which for sorted edges is
    the order of their lowest dense id, so the union alone holds the
    class's live edges:

    * there are ``union.bit_count() // r`` of them;
    * the first holds the union's lowest bit;
    * dropping an edge clears exactly its bits, so once the picked
      class's edges up to the chosen one are cleared, the rest is its
      tail;
    * another class loses the edges on the picked edge's vertices,
      found through the class's ``edge_at`` map from the dense id of
      the lowest bit they share, ``(hit & -hit).bit_length() - 1``.

    A node's bound is the smaller of its colour total (each class gives
    at most its live edges and its colours left) and its vertex bound
    (the OR of the class unions, r bits to an edge).  A node arrives
    with its bound, its colour total, its pick (the first class with
    the fewest live edges) and the pick's live count: the parent works
    them out in the loop over the open classes that builds the child's
    state.  A child that cannot beat the incumbent is not built: the
    parent yields the shared exhausted ``_PRUNED`` instead, which the
    walker counts as a node like any other.  A pick child's colour
    total is the parent's with the pick's new share, less what each
    class that loses edges drops, so the parent stops building the
    child once that total cannot beat the incumbent.  The close child's
    colour total is the parent's without the pick's share, so it is
    tested before the state is copied.  Nothing runs between a yield
    and the child's entry, so the parent tests at the incumbent size
    the child would see, and a pruned child never raises the
    incumbent: the tree, its node count and the budget cut-off are
    those of a search that enters every child to test it.

    A node stops once the incumbent meets its bound, even with children
    left: a descendant's find can raise the incumbent, and no matching
    below the node exceeds the bound.  A leaf, a node with no open
    class, is bounded by its own size, which the incumbent then meets.
    Each node is a generator run from :func:`_walk`'s explicit stack,
    which counts it and stops at the first node past ``budget``.

    Returns (the best matching found, which is ``incumbent`` unless the
    search beat it, nodes explored, budget exhausted flag, no
    ``stats.extra`` entries), the shape :func:`_by_components` returns.
    """
    best_size = incumbent.size
    best_witness = incumbent
    chosen: list[tuple[int, int]] = []  # (class, mask of the chosen edge)
    left = [len(cl.members) for cl in classes]
    edge_at = [cl.edge_at for cl in classes]

    def without(live: dict[int, int], skip: int, cur: int) -> tuple:
        """The state ``live`` without class ``skip``, as ``dfs``'s
        arguments for a node of ``cur`` picks."""
        child: dict[int, int] = {}
        total = 0
        pick = -1
        pick_count = -1
        union = 0
        for cj, u in live.items():
            if cj == skip:
                continue
            child[cj] = u
            count = u.bit_count() // r
            k = left[cj]
            total += k if k < count else count
            if pick_count < 0 or count < pick_count:
                pick, pick_count = cj, count
            union |= u
        vertex = union.bit_count() // r
        return child, cur + (total if total < vertex else vertex), total, pick, pick_count

    def dfs(live: dict[int, int], top: int, total: int, pick: int, pick_count: int) -> Iterator[Iterator]:
        nonlocal best_size, best_witness
        cur = len(chosen)
        if cur > best_size:
            best_size = cur
            best_witness = _witness(classes, chosen)
        if top <= best_size:
            return

        k = left[pick]
        left[pick] = k - 1
        # the colour total of the children without the pick's share
        rest = total - (k if k < pick_count else pick_count)
        at = edge_at[pick]
        tail = live[pick]
        tail_count = pick_count
        # a descendant's find raises best_size, and no matching below
        # this node beats top: stop once the incumbent reaches it
        while tail and top > best_size:
            mk = at[(tail & -tail).bit_length() - 1]
            tail ^= mk  # the class's live edges after this one
            tail_count -= 1
            # the child can beat the incumbent only with a colour total
            # of at least need: start from the parent's total with the
            # pick's new share, take off what each class that loses
            # edges drops, and stop building once it falls short
            need = best_size - cur
            ctotal = rest + (k - 1 if k - 1 < tail_count else tail_count)
            if ctotal >= need:
                child: dict[int, int] = {}
                cpick = -1
                ccount = -1
                union = 0
                for cj, u in live.items():
                    if cj == pick:
                        if k == 1 or not tail:
                            continue
                        u = tail
                        count = tail_count
                    else:
                        hit = u & mk
                        if hit:
                            before = u.bit_count() // r
                            other = edge_at[cj]
                            while hit:
                                u ^= other[(hit & -hit).bit_length() - 1]
                                hit = u & mk
                            count = u.bit_count() // r
                            kj = left[cj]
                            if count < kj:
                                ctotal -= (before if before < kj else kj) - count
                                if ctotal < need:
                                    break
                                if not u:
                                    continue
                        else:
                            count = u.bit_count() // r
                    child[cj] = u
                    if ccount < 0 or count < ccount:
                        cpick, ccount = cj, count
                    union |= u
                else:
                    vertex = union.bit_count() // r
                    bound = ctotal if ctotal < vertex else vertex
                    if bound >= need:
                        chosen.append((pick, mk))
                        yield dfs(child, cur + 1 + bound, ctotal, cpick, ccount)
                        chosen.pop()
                        continue
            yield _PRUNED
        left[pick] = k
        # close the whole class: interchangeable colours make exploring
        # "skip member k, use member k+1" redundant
        if top > best_size:
            if cur + rest <= best_size:
                yield _PRUNED
            else:
                args = without(live, pick, cur)
                yield dfs(*args) if args[1] > best_size else _PRUNED

    # a class's masks are disjoint, so their sum is their OR
    root = dfs(*without({ci: sum(cl.edge_of) for ci, cl in enumerate(classes) if cl.edge_of}, -1, 0))
    nodes, exhausted = _walk(root, budget)
    return best_witness, nodes, exhausted, {}


def _profiles(
    items: Sequence[tuple[int, int]], caps: Sequence[int], limit: int, nodes: int
) -> tuple[dict[tuple[tuple[int, int], ...], tuple[int, ...]] | None, int]:
    """The maximal class profiles of one component, each with its first
    witness, and the updated node count.

    ``items`` are the component's (class, mask) edges in class order and
    then edge order.  A selection is an increasing run of pairwise
    disjoint items with at most ``caps[class]`` per class; its profile
    is the sparse tuple of (class, edges used), its witness the item
    indices.  Every selection is one node, a generator run from
    :func:`_walk`'s explicit stack; past ``limit`` nodes the enumeration
    stops and the profiles are None.
    """
    found: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {}
    # edges used per class, keyed in class order, so a profile is read
    # off the counts that are not zero
    used_per_class = dict.fromkeys((ci for ci, _ in items), 0)
    chosen: list[int] = []

    def rec(start: int, used: int) -> Iterator[Iterator]:
        profile = tuple((ci, k) for ci, k in used_per_class.items() if k)
        found.setdefault(profile, tuple(chosen))
        for t in range(start, len(items)):
            ci, mk = items[t]
            k = used_per_class[ci]
            if mk & used or k == caps[ci]:
                continue
            used_per_class[ci] = k + 1
            chosen.append(t)
            yield rec(t + 1, used | mk)
            chosen.pop()
            used_per_class[ci] = k

    walked, exhausted = _walk(rec(0, 0), limit - nodes)
    nodes += walked
    if exhausted:
        return None, nodes

    # the profiles are downward closed, so a profile is maximal exactly
    # when no single class can be raised by one
    def raised(p: tuple[tuple[int, int], ...], ci: int) -> tuple[tuple[int, int], ...]:
        d = dict(p)
        d[ci] = d.get(ci, 0) + 1
        return tuple(sorted(d.items()))

    return {
        p: w for p, w in found.items() if not any(raised(p, ci) in found for ci in used_per_class)
    }, nodes


def _by_components(
    classes: Sequence[_ColourClass], nv: int, r: int, budget: int | None, incumbent: RainbowMatching
) -> tuple[RainbowMatching, int, bool, dict] | None:
    """Solve a disjoint union one component at a time (see the module
    docstring), given the classes and ``nv``, the number of dense ids,
    from :func:`_colour_classes`; every dense id lies on an edge.

    Past the first gate, the incumbent below the search's root bound,
    it finds the connected components: a union-find joins the dense ids
    of each class edge, read from ``edge_at``.  The components are
    bitmasks over the dense ids, numbered in order of their lowest id
    (``comps``), and ``label`` gives each dense id its component.
    After the other gates and the profile enumeration, the DP keeps
    each state's first parent, move and the capacity each use met; the
    witness replays those steps on the actual classes and reads each
    component's edges from the witness of the profile they give.

    Returns None when the instance is left to :func:`_branch_and_bound`;
    otherwise the search's result shape: the best matching
    (``incumbent`` unless the combination beat it), the nodes, which are
    enumeration nodes plus DP states, False (no budget ran out), and the
    ``stats.extra`` entries of this path, whose ``dp_states`` is read
    off the DP's layers.
    """
    caps = [len(cl.members) for cl in classes]
    if incumbent.size >= min(sum(min(k, len(cl.edge_of)) for k, cl in zip(caps, classes)), nv // r):
        return None  # meets the search's root bound: it stops at once
    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    # an edge's ids are consecutive keys of edge_at, lowest first, and
    # hold one mask object (an equal mask is the same edge): join each
    # id to its edge's lowest
    edge = None
    for cl in classes:
        for x, mk in cl.edge_at.items():
            if mk is not edge:
                edge, a = mk, find(x)
            elif (b := find(x)) != a:
                parent[b] = a
    first: dict[int, int] = {}
    label = [first.setdefault(find(x), len(first)) for x in range(nv)]
    comps = [0] * len(first)
    for x, c in enumerate(label):
        comps[c] |= 1 << x
    if len(comps) < 2 or 2 * max(mk.bit_count() for mk in comps) > nv:
        return None  # a dominant component makes its profiles explode
    # The attempt may take one node per (component, class edge) pair.
    # Gadgets, K4 blocks and shared edges hold at most two disjoint edges
    # and their classes fall into a few types, so they stay far inside
    # that; rich pieces (random parts, many classes that no symmetry
    # merges) exceed it long before the search would.  Past it, or past
    # the budget, the search runs as if no attempt had been made.
    limit = len(comps) * sum(len(cl.edge_of) for cl in classes)
    if budget is not None:
        limit = min(limit, budget)

    # each component's edges as (class, mask) items
    items: list[list[tuple[int, int]]] = [[] for _ in comps]
    for ci, cl in enumerate(classes):
        for mk in cl.edge_of:
            items[label[(mk & -mk).bit_length() - 1]].append((ci, mk))
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

    nodes = 0
    found = []
    for c in first_of:
        profiles, nodes = _profiles(items[c], caps, limit, nodes)
        if profiles is None:
            return None
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
        if not cl.edge_of:
            continue
        for ty in types:
            if caps[ty[0]] == caps[ci] and symmetric(ty[0], ci):
                ty.append(ci)
                break
        else:
            types.append([ci])

    # a state is each type's remaining capacities, sorted; the colours
    # used so far are the capacity spent, so the state alone determines
    # the value.  A move is one distinct use of the types by a
    # component's profiles: the sorted (type, edges used) pairs
    type_of = {ci: t for t, ty in enumerate(types) for ci in ty}
    moves = [
        list(dict.fromkeys(tuple(sorted((type_of[ci], k) for ci, k in p)) for p in ps))
        for ps in found
    ]

    def children(state: tuple, move: tuple[tuple[int, int], ...]) -> Iterator[tuple]:
        """The ways to give each use of ``move`` its own class of its type,
        as (child, the capacity each use met, colours spent); a use is cut
        down to what remains.  A used class leaves its type's tuple until
        the move is done, so no later use meets it; equal uses meet
        capacities in ascending order, so each multiset is met once."""
        ways = [(state, (), (), 0)]
        for j, (t, k) in enumerate(move):
            step = []
            for st, cut, met, spent in ways:
                low = met[-1] if j and move[j - 1] == (t, k) else 0
                held = st[t]
                for i, cap in enumerate(held):
                    if cap >= low and (i == 0 or held[i - 1] != cap):
                        use = min(k, cap)
                        child = list(st)
                        child[t] = held[:i] + held[i + 1 :]
                        step.append((child, cut + ((t, cap - use),), met + (cap,), spent + use))
            ways = step
        for child, cut, met, spent in ways:
            for t, c in cut:
                i = bisect(child[t], c)
                child[t] = child[t][:i] + (c,) + child[t][i:]
            yield tuple(child), met, spent

    start = tuple((caps[ty[0]],) * len(ty) for ty in types)
    total = sum(map(sum, start))
    # the most colours the components from c on can still add
    reach = [0] * (len(comps) + 1)
    for c in reversed(range(len(comps))):
        reach[c] = reach[c + 1] + max(sum(k for _, k in m) for m in moves[comp_group[c]])
    # each state maps to its first parent, move and capacities met
    layers: list[dict] = [{start: None}]
    for c, g in enumerate(comp_group):
        nxt: dict = {}
        for state in layers[-1]:
            state_left = sum(map(sum, state))
            for move in moves[g]:
                for child, met, spent in children(state, move):
                    left = state_left - spent
                    if child in nxt or total - left + min(left, reach[c + 1]) <= incumbent.size:
                        continue  # known, or cannot beat the incumbent
                    nxt[child] = (state, move, met)
                    nodes += 1
                    if nodes > limit:
                        return None
        layers.append(nxt)
    extra = {"components": len(comps), "dp_states": sum(map(len, layers)) - 1}
    if not layers[-1]:
        return incumbent, nodes, False, extra

    # follow the best state back, then give each use a class of its
    # type with the capacity it met; a swap within a type maps profiles
    # to profiles, so the profile of those classes has a witness
    state = min(layers[-1], key=lambda s: sum(map(sum, s)))
    steps = []
    for layer in reversed(layers[1:]):
        state, move, met = layer[state]
        steps.append((move, met))
    rem = list(caps)
    chosen = []
    for c, (move, met) in enumerate(reversed(steps)):
        uses: dict[int, int] = {}
        for (t, k), cap in zip(move, met):
            uses[next(ci for ci in types[t] if rem[ci] == cap and ci not in uses)] = k
        # the witness holds k edges of a class used k times: take them
        # while the class has colours left
        for i in found[comp_group[c]][tuple(sorted(uses.items()))]:
            ci, mk = items[c][i]
            if rem[ci]:
                rem[ci] -= 1
                chosen.append((ci, mk))
    return _witness(classes, chosen), nodes, False, extra


def exact_max_rainbow(
    inst: Instance,
    node_budget: int | None = None,
    *,
    incumbent: RainbowMatching | None = None,
) -> SolveReport:
    """Maximum rainbow matching, starting from an incumbent: the given
    rainbow matching of ``inst``, or else the local-search result.

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
    certificate ``heuristic``; a budget of 0 counts the root but does
    not run it.  Before any other work, the local search included, an r
    below 1 or a negative ``node_budget`` raises ValueError naming it,
    and every run of colours goes through ``core``'s test for a
    matching of r-sets: the first colour that fails raises ValueError,
    naming its first edge of other than r distinct vertices or else
    saying that its edges intersect.  No valid instance fails.

    A given ``incumbent`` must be a rainbow matching of ``inst``, which
    is not checked here.  It replaces the local search and nothing else:
    the search still returns a larger matching whenever one exists, so
    an ``exact-optimum`` of the incumbent's size proves it maximum.  An
    optimal incumbent that meets the root bound is proved at the root,
    and one of all n colours before the colour classes are built.
    """
    t0 = time.perf_counter()
    r = inst.r
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    for es, colours in inst.runs:
        if not _is_r_matching(es, r):
            why = next((f"edge {e} is not a {r}-set" for e in es if not _is_r_matching((e,), r)), None)
            raise ValueError(f"colour {colours[0]}: {why or 'edges intersect, so it is not a matching'}")
    if incumbent is None:
        incumbent = local_search_rainbow(inst).matching
    if incumbent.size == inst.n and node_budget != 0:
        # every colour is used, so the incumbent meets the root bound:
        # the search's root would return it, after its one node
        witness, nodes, exhausted, extra = incumbent, 1, False, {}
    else:
        classes, nv = _colour_classes(inst)
        witness, nodes, exhausted, extra = _by_components(
            classes, nv, r, node_budget, incumbent
        ) or _branch_and_bound(classes, r, node_budget, incumbent)
    extra = {"incumbent_size": incumbent.size, **extra}
    stats = SolveStats(nodes, wall_time=time.perf_counter() - t0, extra=extra)
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
    matchings = inst.matchings
    used: set[int] = set()
    pairs: list[tuple[int, Edge]] = []
    for colour in order:
        for e in matchings[colour]:
            if used.isdisjoint(e):
                pairs.append((colour, e))
                used.update(e)
                break
    stats = SolveStats(wall_time=time.perf_counter() - t0)
    return SolveReport(RainbowMatching(tuple(pairs)), CERT_HEURISTIC, stats)


def _classify(inst: Instance, rm: RainbowMatching) -> dict[Edge, dict[int, list[Edge]]]:
    """One scan of the unused colours' edges, in colour and then edge
    order, against the matching.

    Raises :class:`ExtensionAvailable` at the first edge disjoint from
    the matching, which is the first extension move.  Otherwise returns,
    for each matching edge e and unused colour i, the edges of matching
    i that meet the matching only inside e.
    """
    owner = {v: e for _, e in rm.assignment for v in e}
    used_colours = set(rm.colours())
    by_edge: dict[Edge, dict[int, list[Edge]]] = {e: {} for _, e in rm.assignment}
    for colour, es in enumerate(inst.matchings):
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
                elif e is not home:  # owner holds one tuple per matching edge
                    break
            else:
                if home is None:
                    raise ExtensionAvailable(colour, f)
                by_edge[home].setdefault(colour, []).append(f)
    return by_edge


def _first_swap(rm: RainbowMatching, by_edge: dict[Edge, dict[int, list[Edge]]]) -> _Swap | None:
    """The first swap move in a classification by :func:`_classify`:
    matching edge (by colour), then colour pair, then f, then f'."""
    colour_of = {e: c for c, e in rm.assignment}
    for e, per_colour in by_edge.items():
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


def find_extension(inst: Instance, rm: RainbowMatching) -> tuple[int, Edge] | None:
    """First (lowest colour, lexicographic edge) extension move, if any."""
    try:
        _classify(inst, rm)
    except ExtensionAvailable as ext:
        return ext.colour, ext.edge
    return None


def find_swap(inst: Instance, rm: RainbowMatching) -> _Swap | None:
    """First 1-out/2-in swap move, if any.

    Looks for a matching edge e and vertex-disjoint edges f, f' of two
    distinct unused colours, each meeting the matching only inside e;
    replacing e by f and f' grows the matching by one.  Requires rm to
    be extension-maximal: raises :class:`ExtensionAvailable` naming the
    first extension move when it is not.
    """
    return _first_swap(rm, _classify(inst, rm))


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
        try:
            swp = find_swap(inst, RainbowMatching(tuple(current.items())))
        except ExtensionAvailable as ext:
            current[ext.colour] = ext.edge
            moves += 1
            continue
        if swp is None:
            break
        removed, first, second = swp
        del current[removed[0]]
        current.update((first, second))
        swaps += 1
        moves += 1
    stats = SolveStats(nodes=moves, swaps=swaps, wall_time=time.perf_counter() - t0, seed=seed)
    return SolveReport(RainbowMatching(tuple(current.items())), CERT_LOCAL, stats)


def good_edges(inst: Instance, rm: RainbowMatching) -> GoodEdgeTable:
    """Exact good-edge table for a maximal rainbow matching.

    An edge e of the matching M is good for an unused colour i when at
    least two edges of matching i meet M only inside e; those first two
    witnesses are recorded; ``swap`` is the first swap move, as
    :func:`find_swap` gives it, all from one scan.  Raises
    :class:`ExtensionAvailable` naming the first extension move when rm
    is not maximal, and ValueError when rm is not a valid rainbow
    matching at all.
    """
    if not is_rainbow_matching(inst, rm):
        raise ValueError("not a valid rainbow matching for this instance")
    table = _classify(inst, rm)
    used_colours = set(rm.colours())
    unused = [colour for colour in range(inst.n) if colour not in used_colours]
    good: dict[int, dict[Edge, tuple[Edge, Edge]]] = {colour: {} for colour in unused}
    g = dict.fromkeys(unused, 0)
    h = dict.fromkeys(unused, 0)
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
        swap=_first_swap(rm, table),
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
    *,
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
    matching of size exactly n, one edge of every colour; any shortfall
    yields a :class:`SampleExtendFailure` naming the stage.

    The per-colour conditions are checked in exact integer arithmetic.
    At small n they routinely fail (the guarantees are asymptotic); the
    solve still runs on the final sample, so trivially extendable
    instances succeed regardless.  The probability clamps to 1 for
    n < 16^r, and at n = 16^r for r = 2 and 3 (so for n <= 256 at
    r = 2 and n <= 4,096 at r = 3): the sample is every vertex, drawn
    without a random number, so no edge avoids the sample and the
    conditions cannot hold.  The conditions are then not tested, all
    ``retries`` attempts are reported as spent on that one sample, the
    off-sample search gets an empty instance, the result is the greedy
    extension inside the sample alone, and a shortfall is always a
    ``sampling`` failure.  Both the conditions and the restricted
    instance walk the heads and shared tails of ``inst.runs`` through
    ``core.map_parts``, so a dummy lift's shared edges are tested once
    per attempt, and the colours of a run share one restricted matching.
    An r below 1 raises ValueError naming r before any other work.
    """
    n = inst.n
    r = inst.r
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    t0 = time.perf_counter()
    if n == 0:
        return SolveReport(RainbowMatching(), CERT_HEURISTIC, SolveStats(seed=seed))
    rng = random.Random(seed)
    vertices = sorted(inst.vertices())
    p = 4.0 * n ** (-1.0 / (2 * r))
    p_eff = min(p, 1.0)
    inside_needed_sq = r * r * 4 ** r * n  # count >= r 2^r sqrt(n)  <=>  count^2 >= this

    def kept(edges: Matching) -> tuple[int, int]:
        """The numbers of ``edges`` inside the sample and off it."""
        return sum(map(sample.issuperset, edges)), sum(map(sample.isdisjoint, edges))

    # at p = 1 the sample is every vertex, so no edge avoids it and the
    # conditions cannot hold: every attempt would fail on the same sample
    checks_met = False
    attempts = max(1, retries)
    sample = set(vertices)
    if p_eff < 1.0:
        for attempts in range(1, max(1, retries) + 1):
            # one draw per vertex, in sorted order
            sample = {v for v in vertices if rng.random() < p_eff}
            # the colours of a run hold one matching, so one test covers them
            if all(
                (head_in + tail_in) ** 2 >= inside_needed_sq and 2 * (head_off + tail_off) >= (r + 1) * n
                for (head_in, head_off), (tail_in, tail_off), _ in map_parts(kept, inst)
            ):
                checks_met = True
                break

    off_sample = map_parts(lambda m: tuple(filter(sample.isdisjoint, m)), inst)
    # local search reads only r and the matchings
    restricted = Instance(
        r, map_runs(lambda m: m, ((head + tail, colours) for head, tail, colours in off_sample))
    )
    inner = local_search_rainbow(restricted, seed=rng.randrange(2 ** 32))
    current = dict(inner.matching.assignment)
    used = {v for e in current.values() for v in e}
    for colour, es in enumerate(inst.matchings):
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

    result = RainbowMatching(tuple(current.items()))
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
