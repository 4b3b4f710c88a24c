"""Reference local search for checking the package's moves.

A copy of the local search as it was when every move ran two scans of
the unused colours' edges: ``find_extension`` first, then, when no
extension was found, ``_qualifying_by_edge`` for ``find_swap``.  The
package now classifies the edges in one scan per move; the search it
runs must stay the same: same moves, in the same order, to the same
matching.  Test-only, like ``bnb_reference``: nothing in the package
imports it.
"""

from __future__ import annotations

import random
import time

from rainbow_forge.core import Edge, Instance, RainbowMatching
from rainbow_forge.solvers import CERT_LOCAL, SolveReport, SolveStats, greedy_rainbow


def find_extension(inst: Instance, rm: RainbowMatching) -> tuple[int, Edge] | None:
    """First (lowest colour, lexicographic edge) extension move, if any."""
    used_colours = set(rm.colours())
    used = {v for _, e in rm.assignment for v in e}
    for colour, es in enumerate(inst.matchings):
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
        rm = RainbowMatching(tuple(current.items()))
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
    return SolveReport(RainbowMatching(tuple(current.items())), CERT_LOCAL, stats)
