"""Reference component solver for checking the package's DP.

A copy of the exact solver's component path, ``_by_components``, as it
was when its dynamic program named class slots: a state was every
class's remaining capacity in type order, each type's slice sorted;
every profile of a component was one move, deduplicated per state by a
sorted key, and the witness was rebuilt by searching, at each
component, for the move whose sorted child lay on the stored path.  The
package now keeps a sorted tuple of capacities per type and has one
move per distinct use of the types; its states, node count, ``extra``
entries and budget cut-off must stay the same.  It carries its own
copies of the package's ``_walk`` stack, ``_profiles`` enumeration and
``_witness`` builder, so a change to any of them reaches only one side
of the comparison.  It reads nothing of the package's classes: it
builds its own with ``bnb_reference.reference_classes`` (members, edges
and masks) and counts the distinct vertices itself, so a fault in the
package's ``_colour_classes`` reaches only one side.  It finds the
components with a union-find of its own, which joins the ids of each
edge, read off its mask's bits.
Test-only, like ``bnb_reference``: nothing in the package imports it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from rainbow_forge.core import Instance, RainbowMatching

from bnb_reference import reference_classes


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


def _witness(classes: Sequence, chosen: Iterable[tuple[int, int]]) -> RainbowMatching:
    """The rainbow matching of (class, edge mask) picks: a class's k-th
    pick takes its k-th member colour."""
    given: dict[int, int] = {}
    pairs = []
    for ci, mk in chosen:
        k = given.get(ci, 0)
        given[ci] = k + 1
        cl = classes[ci]
        pairs.append((cl.members[k], cl.edges[cl.masks.index(mk)]))
    return RainbowMatching(tuple(pairs))


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


def reference_by_components(
    inst: Instance, budget: int | None, incumbent: RainbowMatching
) -> tuple[RainbowMatching, int, dict] | None:
    """Solve a disjoint union one component at a time.

    Returns None when the instance is left to :func:`_branch_and_bound`;
    otherwise the best matching (``incumbent`` unless the combination
    beat it), the nodes, which are enumeration nodes plus DP states, and
    the ``stats.extra`` entries of this path.
    """
    r = inst.r
    classes = reference_classes(inst)
    masks = [cl.masks for cl in classes]
    caps = [len(cl.members) for cl in classes]
    nv = len({v for m in inst.matchings for e in m for v in e})
    if incumbent.size >= min(sum(min(k, len(ms)) for k, ms in zip(caps, masks)), nv // r):
        return None  # meets the search's root bound: it stops at once
    # the components: a union-find joins every id of an edge to its
    # lowest; components are numbered in order of their lowest id
    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for ms in masks:
        for mk in ms:
            low = (mk & -mk).bit_length() - 1
            rest = mk
            while rest:
                bit = rest & -rest
                rest ^= bit
                root, lowest = find(bit.bit_length() - 1), find(low)
                if root != lowest:
                    parent[root] = lowest
    number: dict[int, int] = {}
    label = [number.setdefault(find(x), len(number)) for x in range(nv)]
    comps = [0] * len(number)
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
    limit = len(comps) * sum(map(len, masks))
    if budget is not None:
        limit = min(limit, budget)

    # each component's edges as (class, mask) items
    items: list[list[tuple[int, int]]] = [[] for _ in comps]
    for ci, ms in enumerate(masks):
        for mk in ms:
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

    nodes = dp_states = 0
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
    for ci, ms in enumerate(masks):
        if not ms:
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
                    return None
        layers.append(nxt)
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
    chosen = []
    for c, g in enumerate(comp_group):
        for move, witness in moves[g]:
            child = apply(rem, move)
            if canonical(list(child), range(len(child))) == path[c + 1]:
                break
        take = {order[s]: rem[s] - child[s] for s, _ in move}
        for t in witness:
            ci, mk = items[c][t]
            if take[ci]:
                take[ci] -= 1
                chosen.append((ci, mk))
        rem = child
    return _witness(classes, chosen), nodes, extra
