"""Reference blocking-family search for checking the package's candidate
stream.

A copy of ``find_blocking_family`` as it was when its random phase was
written as a hill climb: each walk kept a fitness, counted stalled
mutations and restored the family after a mutation that scored worse.
The solver is passed in as ``exact``, so a test can record the
(matchings, size) pairs it was handed.  With the real exact solver no
random family scores above t, so the climb keeps every mutation and the
package, which hands the same families to the solver as one stream,
must return the same family (or None) after the same solver calls.

It carries its own walk helpers (``_random_partite_matchings``,
``_mutate_matching`` and ``_matchings_to_instance``, which keep each
matching as a list of sorted edges and search an edge for its part-j
vertex) and imports no walk code from the package, which keeps each
matching as its part columns.  Only the deterministic candidates, built
by the package's ``_gadget_family``, ``_truncate_family``,
``ach_instance`` and ``cycle_instance``, are shared.  Test-only, like
``bnb_reference``: nothing in the package imports it.
"""

from __future__ import annotations

import random

from rainbow_forge.constructions import (
    BlockingFamily,
    _gadget_family,
    _truncate_family,
    ach_instance,
    cycle_instance,
)
from rainbow_forge.core import Edge, Instance, make_edge


# the walk helpers as the package wrote them when a walk matching was a
# list of sorted edges; they are copies, so that a change to the package's
# walk shows in the comparison rather than on both sides of it


def _random_partite_matchings(rng: random.Random, r: int, n: int, t: int) -> list[list[Edge]]:
    """n random perfect matchings of the complete r-partite host with
    parts of size t (part j occupies vertices j*t .. j*t + t - 1)."""
    out = []
    for _ in range(n):
        cols = [list(range(j * t, (j + 1) * t)) for j in range(r)]
        for col in cols:
            rng.shuffle(col)
        out.append([make_edge(col[i] for col in cols) for i in range(t)])
    return out


def _matchings_to_instance(r: int, t: int, state: list[list[Edge]]) -> Instance:
    return Instance(
        r=r,
        matchings=tuple(map(tuple, state)),
        partition=tuple(j for j in range(r) for _ in range(t)),
        meta={"generator": "blocking-search", "t": t},
    )


def _mutate_matching(rng: random.Random, matching: list[Edge], r: int, t: int) -> None:
    """Swap the part-j vertices of two edges of one matching (keeps it a
    perfect matching of the r-partite host)."""
    j = rng.randrange(r)
    x, y = rng.sample(range(t), 2)
    ex, ey = list(matching[x]), list(matching[y])
    vx = next(i for i, v in enumerate(ex) if j * t <= v < (j + 1) * t)
    vy = next(i for i, v in enumerate(ey) if j * t <= v < (j + 1) * t)
    ex[vx], ey[vy] = ey[vy], ex[vx]
    matching[x] = make_edge(ex)
    matching[y] = make_edge(ey)


def _deterministic_candidates(r: int, n: int, t: int):
    if r >= 3 and t == 2 and n <= 2 ** (r - 1):
        # beyond 2^(r-1) matchings the gadget repeats a class, and two
        # colours sharing a class yield a rainbow pair
        yield _gadget_family(r, n)
    if r >= 3 and t >= 2:
        # gadget-product seed: a truncation of the paired-gadget family
        # stays blocked because removing edges never helps the rainbow
        lo = max(t, 2 ** (r - 1))
        n_src = lo + lo % 2
        if n_src - 2 ** (r - 2) <= t - 1 and n >= 1:
            src = ach_instance(r, n_src)
            if n <= n_src:
                yield _truncate_family(src, n, t)
    if r == 2 and 2 <= n <= t:
        yield _truncate_family(cycle_instance(t), n, t)


def reference_find_blocking_family(
    r: int, n: int, t: int, exact, budget: int = 200, seed: int | None = 0
) -> BlockingFamily | None:
    """Search for n matchings of size t with no rainbow matching of size t.

    Deterministic gadget-derived candidates are tried first, then a
    randomised-restart hill climb over families of random perfect
    matchings of the complete r-partite host on t*r vertices, mutating
    one matching at a time and keeping moves that do not increase the
    exact maximum.  Every returned family is certified by the exact
    solver; ``budget`` caps the number of solver evaluations.  Returns
    None when the budget runs out, which is an expected outcome rather
    than an error.
    """
    if t < 1:
        raise ValueError(f"blocked size must be >= 1, got {t}")
    if n < 1:
        raise ValueError(f"matching count must be >= 1, got {n}")
    if r < 2:
        raise ValueError(f"uniformity must be >= 2, got {r}")
    if t == 1:
        return None  # a single non-empty matching always yields rainbow size 1

    evals = 0

    def evaluate(inst: Instance) -> int:
        nonlocal evals
        evals += 1
        return exact(inst).size

    def wrap(inst: Instance, certified: int) -> BlockingFamily:
        meta = {**inst.meta, "blocking_seed": seed, "blocking_budget": budget}
        stamped = Instance(inst.r, inst.matchings, inst.partition, meta)
        return BlockingFamily(stamped, t, certified)

    for cand in _deterministic_candidates(r, n, t):
        if evals >= budget:
            return None
        best = evaluate(cand)
        if best < t:
            return wrap(cand, best)

    rng = random.Random(seed)
    while evals < budget:
        state = _random_partite_matchings(rng, r, n, t)
        inst = _matchings_to_instance(r, t, state)
        cur = evaluate(inst)
        if cur < t:
            return wrap(inst, cur)
        stall = 0
        while evals < budget and stall < 4 * n:
            j = rng.randrange(n)
            saved = list(state[j])  # the only matching the mutation changes
            _mutate_matching(rng, state[j], r, t)
            inst = _matchings_to_instance(r, t, state)
            val = evaluate(inst)
            if val < t:
                return wrap(inst, val)
            if val <= cur:
                stall = stall + 1 if val == cur else 0
                cur = val
            else:
                state[j] = saved
                stall += 1
    return None
