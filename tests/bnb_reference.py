"""Reference branch-and-bound for checking the package's search tree.

A copy of the exact solver's branch-and-bound as it was when each open
colour class carried its live edges as a tuple of (position, mask)
pairs and every child re-filtered them.  The package now keeps one
vertex bitmask per class and stops a node once the incumbent meets the
node's bound; with ``stop_at_bound=True`` the reference applies the same
stop, and the search the package runs must be the same: same pick, edge
order, pruning, node count, witness and budget cut-off.  The default
``stop_at_bound=False`` walks the tree without that stop; unbudgeted,
it finds the same witness in at least as many nodes.

The reference searches classes it builds itself (``reference_classes``)
from the instance's matchings, not the package's ``_colour_classes``,
so a change to the package's classes reaches only one side of the
comparison.  Test-only, like ``ilp_oracle``: nothing in the package
imports it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from rainbow_forge.core import Edge, Instance, RainbowMatching


class ReferenceClass(NamedTuple):
    members: tuple[int, ...]  # colours with this edge set, ascending
    edges: tuple[Edge, ...]  # sorted
    masks: tuple[int, ...]  # one bitmask per edge over the relabelled vertices


def reference_classes(inst: Instance) -> list[ReferenceClass]:
    """The colour classes of ``inst``: equal edge sets grouped in order
    of their lowest colour, the vertices relabelled 0..V-1 in sorted
    order, and one mask per edge."""
    vertices = sorted({v for m in inst.matchings for e in m for v in e})
    label = {v: i for i, v in enumerate(vertices)}
    groups: dict[tuple[Edge, ...], list[int]] = {}
    for colour, m in enumerate(inst.matchings):
        groups.setdefault(tuple(sorted(m)), []).append(colour)
    return [
        ReferenceClass(tuple(colours), edges, tuple(sum(1 << label[v] for v in e) for e in edges))
        for edges, colours in groups.items()
    ]


class _BudgetExhausted(Exception):
    pass


def _class_assignment_to_rainbow(classes, chosen: Sequence[tuple[int, int]]) -> RainbowMatching:
    counts: dict[int, int] = {}
    pairs = []
    for ci, pos in chosen:
        k = counts.get(ci, 0)
        counts[ci] = k + 1
        pairs.append((classes[ci].members[k], classes[ci].edges[pos]))
    return RainbowMatching(tuple(sorted(pairs)))


def reference_branch_and_bound(
    classes,
    r: int,
    budget: int | None,
    incumbent: RainbowMatching,
    *,
    stop_at_bound: bool = False,
) -> tuple[RainbowMatching, int, bool]:
    """Search all canonical class assignments.

    With ``stop_at_bound``, a node enters no further child, the
    close-class child included, once the incumbent meets its bound.

    Returns (the best matching found, which is ``incumbent`` unless the
    search beat it, nodes explored, budget exhausted flag).
    """
    best_size = incumbent.size
    best_witness = incumbent
    nodes = 0
    chosen: list[tuple[int, int]] = []

    # compat maps open class index -> (members_left, tuple of (pos, mask))
    compat: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {
        ci: (len(cl.members), tuple(enumerate(cl.masks)))
        for ci, cl in enumerate(classes)
        if cl.edges
    }

    def dfs(live: dict[int, tuple[int, tuple[tuple[int, int], ...]]]) -> None:
        nonlocal best_size, best_witness, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise _BudgetExhausted
        cur = len(chosen)
        if cur > best_size:
            best_size = cur
            best_witness = _class_assignment_to_rainbow(classes, chosen)
        if not live:
            return
        total_ub = 0
        pick = -1
        pick_len = -1
        for ci, (left, lst) in live.items():
            total_ub += left if left < len(lst) else len(lst)
            if pick_len < 0 or len(lst) < pick_len:
                pick, pick_len = ci, len(lst)
        if cur + total_ub <= best_size:
            return
        union = 0
        for _, lst in live.values():
            for _, mk in lst:
                union |= mk
        bound = min(total_ub, union.bit_count() // r)
        if cur + bound <= best_size:
            return

        left, lst = live[pick]
        for idx, (pos, mk) in enumerate(lst):
            if stop_at_bound and cur + bound <= best_size:
                return
            child: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
            for cj, (lj, ej) in live.items():
                if cj == pick:
                    if left > 1:
                        tail = tuple(pm for pm in ej[idx + 1 :] if not pm[1] & mk)
                        if tail:
                            child[cj] = (left - 1, tail)
                else:
                    kept = tuple(pm for pm in ej if not pm[1] & mk)
                    if kept:
                        child[cj] = (lj, kept)
            chosen.append((pick, pos))
            dfs(child)
            chosen.pop()
        # close the whole class: interchangeable colours make exploring
        # "skip member k, use member k+1" redundant
        if stop_at_bound and cur + bound <= best_size:
            return
        rest = {cj: v for cj, v in live.items() if cj != pick}
        dfs(rest)

    exhausted = False
    try:
        dfs(compat)
    except _BudgetExhausted:
        exhausted = True
    return best_witness, nodes, exhausted
