"""Reference branch-and-bound for checking the package's search tree.

A copy of the exact solver's branch-and-bound as it was when each open
colour class carried its live edges as a tuple of (position, mask)
pairs and every child re-filtered them.  The package now keeps one
vertex bitmask per class; the search it runs must stay the same: same
pick, edge order, pruning, node count, witness and budget cut-off.
Test-only, like ``ilp_oracle``: nothing in the package imports it.
"""

from __future__ import annotations

from typing import Sequence

from rainbow_forge.core import RainbowMatching


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
) -> tuple[RainbowMatching, int, bool]:
    """Search all canonical class assignments.

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
        if cl.masks
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
        if cur + min(total_ub, union.bit_count() // r) <= best_size:
            return

        left, lst = live[pick]
        for idx, (pos, mk) in enumerate(lst):
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
        rest = {cj: v for cj, v in live.items() if cj != pick}
        dfs(rest)

    exhausted = False
    try:
        dfs(compat)
    except _BudgetExhausted:
        exhausted = True
    return best_witness, nodes, exhausted
