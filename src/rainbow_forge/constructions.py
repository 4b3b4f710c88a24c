"""Generators for the extremal rainbow-matching constructions.

Every generator allocates vertices densely from 0 and records its name
and parameters in the instance metadata.  Partitioned generators supply
the r-partition explicitly; it is never inferred.  All outputs pass
:func:`rainbow_forge.core.validate_instance` with an empty report.

``ach_instance``, ``k4_union_instance``, ``blowup_compose`` and
``dummy_lift`` are disjoint unions of parts with one matching count n,
built by ``_disjoint_union``: colour j is the parts' matchings j in part
order, each part's vertices moved past those of the parts before it (by
the running sum of ``vertex_count()``; a part moved by 0 keeps its edge
objects).  A part's matching is moved once per run of that part, and a
run's shared tail is taken from the previous run's moved edges, so what
the part shares stays shared: a run of the union starts where some
part's run starts, and a lift's dummy edges are one set of objects.  The
union is partitioned, by the parts' partitions joined, when every part
is, and unpartitioned otherwise.

``find_blocking_family``'s random walks keep each matching of the
complete r-partite host (parts of size t, part j on vertices
j*t .. j*t + t - 1) as its r part columns: column j lists part j's
vertices, and edge i takes the i-th vertex of every column.  A walk
starts with one shuffle per column, and a mutation swaps two positions
of one column, which swaps the part-j vertices of two edges and keeps
the matching perfect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import Iterator, NamedTuple, Sequence

from .bounds import _domain, nth_root_floor
from .core import Edge, Instance, Matching, make_edge, map_parts, map_runs
from .solvers import exact_max_rainbow


def _disjoint_union(parts: Sequence[Instance]) -> tuple[tuple[Matching, ...], tuple[int, ...] | None, list[int]]:
    """The matchings, partition and vertex offsets of the disjoint union
    of ``parts``, which all have the same n, as the module docstring
    states it.  Each distinct part object is measured and walked once."""
    n = parts[0].n
    distinct = {id(p): p for p in parts}
    sizes = {i: p.vertex_count() for i, p in distinct.items()}
    offsets = list(accumulate((sizes[id(p)] for p in parts[:-1]), initial=0))
    walks = {i: list(map_parts(tuple, p)) for i, p in distinct.items()}
    columns = []  # per part: its matching of each colour
    for p, d in zip(parts, offsets):
        column: list[Matching] = []
        moved: Matching = ()
        for head, tail, colours in walks[id(p)]:
            head = tuple([tuple([v + d for v in e]) for e in head]) if d else head
            # the shared tail is the previous run's last edges, moved already
            moved = head + moved[len(moved) - len(tail) :]
            column += [moved] * len(colours)
        columns.append(column)
    starts = sorted({colours.start for p in distinct.values() for _, colours in p.runs})
    matchings: list[Matching] = []
    for j, end in zip(starts, [*starts[1:], n]):
        edges: list[Edge] = []
        for column in columns:
            edges += column[j]
        matchings += [tuple(edges)] * (end - j)
    partitions = [p.partition for p in parts]
    partition = None if None in partitions else tuple(chain.from_iterable(partitions))  # type: ignore[arg-type]
    return tuple(matchings), partition, offsets


def cycle_instance(n: int) -> Instance:
    """The even-cycle family: n - 1 copies of one alternating perfect
    matching of C_{2n} plus one copy of the other.

    2-uniform and bipartite (parts = vertex parity).  Its maximum
    rainbow matching has size exactly n - 1: a perfect matching of the
    cycle is one of the two alternating classes, and neither class has
    n colours available.
    """
    if n < 2:
        raise ValueError(f"cycle_instance needs n >= 2, got {n}")
    even = tuple((2 * i, 2 * i + 1) for i in range(n))
    odd = tuple(make_edge((2 * i + 1, (2 * i + 2) % (2 * n))) for i in range(n))
    matchings = tuple(even for _ in range(n - 1)) + (odd,)
    return Instance(
        r=2,
        matchings=matchings,
        partition=tuple(v % 2 for v in range(2 * n)),
        meta={"generator": "cycle", "n": n},
    )


_K4_CLASSES = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def k4_union_instance(n: int) -> Instance:
    """Disjoint union of (n+1)/2 properly 3-edge-coloured K4 blocks,
    with n - 2 copies of the first colour class and one each of the
    other two.  Requires odd n >= 3; every matching has size n + 1 and
    no rainbow matching of size n exists."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"k4_union_instance needs odd n >= 3, got {n}")
    block = Instance(r=2, matchings=(_K4_CLASSES[0],) * (n - 2) + _K4_CLASSES[1:])
    matchings, _, _ = _disjoint_union([block] * ((n + 1) // 2))
    return Instance(r=2, matchings=matchings, meta={"generator": "k4", "n": n})


def _gadget_classes(r: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The 2^(r-1) complementary edge pairs of the gadget on vertices
    a_0..a_{r-1}, b_0..b_{r-1} (locally numbered a_j = j, b_j = r + j).

    Class k pairs e = {a_j : j in T} + {b_j : j not in T} with its
    complement, where T always contains 0 and the remaining members of
    T follow the binary expansion of k.  Any two edges from different
    classes intersect, so the gadget alone admits no rainbow matching
    of size 2.
    """
    out = []
    for k in range(2 ** (r - 1)):
        t = {0} | {j for j in range(1, r) if k >> (j - 1) & 1}
        e = tuple(sorted([j for j in t] + [r + j for j in range(r) if j not in t]))
        f = tuple(sorted([r + j for j in t] + [j for j in range(r) if j not in t]))
        out.append((e, f))
    return out


def ach_instance(r: int, n: int) -> Instance:
    """The paired-gadget family on n/2 disjoint gadget copies.

    Each gadget copy contributes one complementary edge pair per colour
    class; the first 2^(r-1) - 1 matchings take distinct classes and
    the remaining matchings all repeat the last class.  r-partite with
    part j = {a_j, b_j} across copies.  The maximum rainbow matching
    has size at most n - 2^(r-2).

    Requires r >= 3 and even n >= 2^(r-1) (with fewer matchings than
    classes the colour scheme is undefined).
    """
    if r < 3:
        raise ValueError(f"ach_instance needs r >= 3, got {r}")
    if n % 2 or n < 2 ** (r - 1):
        raise ValueError(f"ach_instance needs even n >= 2^(r-1) = {2 ** (r - 1)}, got {n}")
    matchings, partition, _ = _disjoint_union([_gadget_family(r, n)] * (n // 2))
    return Instance(r, matchings, partition, {"generator": "ach", "r": r, "n": n})


@dataclass(frozen=True)
class BlockingFamily:
    """n matchings admitting no rainbow matching of size ``blocked_size``.

    ``certified_max`` is the exact solver result recorded when the
    family was certified; it is always < blocked_size, and every
    matching has size >= blocked_size - 1.
    """

    inst: Instance
    blocked_size: int
    certified_max: int


def certify_blocking_family(inst: Instance, blocked_size: int) -> BlockingFamily:
    """Run the exact solver, with no node budget, and wrap the instance
    as a blocking family.

    Raises ValueError when the instance does admit a rainbow matching
    of size ``blocked_size``, or when a matching is smaller than
    ``blocked_size - 1``.
    """
    if inst.min_matching_size() < blocked_size - 1:
        raise ValueError("every matching must have size >= blocked_size - 1")
    report = exact_max_rainbow(inst)
    if report.size >= blocked_size:
        raise ValueError(
            f"not blocked: a rainbow matching of size {report.size} >= {blocked_size} exists"
        )
    return BlockingFamily(inst, blocked_size, report.size)


def blowup_compose(parts: Sequence[BlockingFamily]) -> Instance:
    """Disjoint union of blocking families sharing the same r and n.

    Matching j of the output is the union over parts of matching j on
    block-offset relabelled vertices (offsets recorded in the metadata).
    With part i blocked at t_i, the composition of q parts admits no
    rainbow matching of size ``sum(t_i) - q + 1``.
    """
    if not parts:
        raise ValueError("blowup_compose needs at least one part")
    r = parts[0].inst.r
    n = parts[0].inst.n
    for bf in parts:
        if bf.inst.r != r or bf.inst.n != n:
            raise ValueError("all parts must share the same uniformity r and matching count n")
    matchings, partition, offsets = _disjoint_union([bf.inst for bf in parts])
    blocked = sum(bf.blocked_size for bf in parts) - len(parts) + 1
    meta = {
        "generator": "blowup",
        "parts": len(parts),
        "offsets": ",".join(str(o) for o in offsets),
        "blocked_sizes": ",".join(str(bf.blocked_size) for bf in parts),
        "composed_blocked_size": blocked,
    }
    return Instance(r, matchings, partition, meta)


def dummy_lift(inst: Instance, m: int) -> Instance:
    """Append m shared fresh pairwise-disjoint edges to every matching.

    The new edges live on r*m new vertices (one per part per edge when
    the instance is partitioned, so r-partiteness is preserved).  If
    the input admits no rainbow matching of size n - m, the output
    admits none of size n.  That premise is not checked; when it fails
    the lift can reach size n: ``dummy_lift(ach_instance(3, 4), 2)``
    has maximum 4, since the base reaches 2 = n - m and the two shared
    edges take the two spare colours.  ``m = 0`` is the identity.
    """
    if m < 0:
        raise ValueError(f"dummy count must be non-negative, got {m}")
    if m == 0:
        return inst
    dummies = tuple(tuple(range(k * inst.r, (k + 1) * inst.r)) for k in range(m))
    lift = Instance(r=inst.r, matchings=(dummies,) * inst.n, partition=tuple(range(inst.r)) * m)
    matchings, partition, _ = _disjoint_union([inst, lift])
    meta = {**inst.meta, "generator": "dummy", "m": m, "base": inst.meta.get("generator", "given")}
    return Instance(inst.r, matchings, partition, meta)


def random_instance(r: int, n: int, s: int, seed: int | None = None) -> Instance:
    """n matchings of size s sampled over a pool of r*s + r vertices.

    The pool is tight enough that edges of different matchings collide
    often, which is what the solver test harness wants.  Deterministic
    for a fixed seed; no partition is attached.
    """
    if r < 2:
        raise ValueError(f"uniformity must be >= 2, got {r}")
    if s < 1:
        raise ValueError(f"matching size must be >= 1, got {s}")
    if n < 0:
        raise ValueError(f"matching count must be >= 0, got {n}")
    rng = random.Random(seed)
    pool = list(range(r * s + r))
    matchings = []
    for _ in range(n):
        chosen = rng.sample(pool, r * s)
        # edges of r consecutive draws, built in the order the constructor
        # stores them, so it keeps the tuple
        matchings.append(tuple(sorted(map(tuple, map(sorted, zip(*[iter(chosen)] * r))))))
    return Instance(
        r=r,
        matchings=tuple(matchings),
        meta={"generator": "random", "r": r, "n": n, "s": s, "seed": seed},
    )


class PszParams(NamedTuple):
    """Parameters of the blocked-family composition for n > 6**r."""

    a: int
    t: int
    q: int
    s: int
    t_prime: int
    bound: int


def psz_composition_params(r: int, n: int) -> PszParams:
    """Composition arithmetic behind the strong upper bound.

    For n > 6**r there is a unique a >= 6 with a^r < n <= (a+1)^r.  With
    t = 3(a+1)r, q = n // t, s = n - q t and t' = s + t, composing q - 1
    blocked families of matching size t with one of size t' yields n
    matchings of size n with no rainbow matching larger than
    ``bound = n - q``.  The identity n = (q-1) t + t' always holds, and
    q >= n^((r-1)/r) / (12 r) is verified here in exact integer
    arithmetic.  Outside that domain (r >= 3 and n > 6**r) it raises
    ValueError with the reason ``upper_bound_g`` flags.
    """
    domain_ok, domain_reason = _domain(r, n)
    if not domain_ok:
        raise ValueError(domain_reason)
    root = nth_root_floor(n, r)
    a = root - 1 if root ** r == n else root
    t = 3 * (a + 1) * r
    q = n // t
    s = n - q * t
    t_prime = s + t
    if (12 * r * q) ** r < n ** (r - 1):
        raise AssertionError(f"composition count q={q} fell below n^((r-1)/r)/(12r) at r={r}, n={n}")
    return PszParams(a=a, t=t, q=q, s=s, t_prime=t_prime, bound=n - q)


# ---------------------------------------------------------------------------
# search for blocking families


def _gadget_family(r: int, n: int) -> Instance:
    """A single gadget copy as n matchings of size 2, blocked at 2: the
    first 2^(r-1) - 1 colours take distinct classes and the rest repeat
    the last.  ``ach_instance`` is the union of n/2 copies."""
    classes = _gadget_classes(r)
    matchings = tuple(classes[min(i, len(classes) - 1)] for i in range(n))
    return Instance(r, matchings, tuple(range(r)) * 2, {"generator": "gadget", "r": r, "n": n})


def _truncate_family(inst: Instance, n: int, t: int) -> Instance:
    """First n matchings, each cut to its first t edges."""
    matchings = map_runs(lambda m: m[:t], inst.runs)[:n]
    return Instance(
        r=inst.r,
        matchings=matchings,
        partition=inst.partition,
        meta={**inst.meta, "generator": "truncated-" + inst.meta.get("generator", "given"), "t": t},
    )


def _host_matching_columns(rng: random.Random, r: int, t: int) -> list[list[int]]:
    """A random perfect matching of the complete r-partite host with
    parts of size t, as its r part columns: column j is a shuffle of
    part j's vertices j*t .. j*t + t - 1, and edge i takes the i-th
    vertex of every column."""
    cols = [list(range(j * t, (j + 1) * t)) for j in range(r)]
    for col in cols:
        rng.shuffle(col)
    return cols


def _candidates(r: int, n: int, t: int, seed: int | None) -> Iterator[Instance]:
    """The families ``find_blocking_family`` tries, in order: n matchings
    of size t each (t >= 2).

    First the gadget-derived families that exist at (r, n, t), then,
    without end, seeded random walks: a walk is a fresh draw of n
    perfect matchings of the complete r-partite host with parts of size
    t, each kept as its r part columns, followed by 4n mutations, each
    one swap of two positions in one column of one matching.  Every walk
    candidate takes edge i of a matching from position i of its columns,
    and the stream builds its partition and meta once.  A walk's family
    lives on t*r vertices, which hold at most t disjoint r-sets, so its
    maximum rainbow matching is at most t; every walk candidate that is
    not blocked scores exactly t, and there is no better family to keep.
    """
    if r >= 3 and t == 2 and n <= 2 ** (r - 1):
        # beyond 2^(r-1) matchings the gadget repeats a class, and two
        # colours sharing a class yield a rainbow pair
        yield _gadget_family(r, n)
    if r >= 3:
        # gadget-product seed: a truncation of the paired-gadget family
        # stays blocked because removing edges never helps the rainbow
        lo = max(t, 2 ** (r - 1))
        n_src = lo + lo % 2
        if n_src - 2 ** (r - 2) <= t - 1 and n <= n_src:
            yield _truncate_family(ach_instance(r, n_src), n, t)
    if r == 2 and 2 <= n <= t:
        yield _truncate_family(cycle_instance(t), n, t)
    rng = random.Random(seed)
    partition = tuple(j for j in range(r) for _ in range(t))
    meta = {"generator": "blocking-search", "t": t}
    while True:
        state = [_host_matching_columns(rng, r, t) for _ in range(n)]
        yield Instance(r, tuple(tuple(zip(*cols)) for cols in state), partition, meta)
        for _ in range(4 * n):
            col = state[rng.randrange(n)][rng.randrange(r)]
            x, y = rng.sample(range(t), 2)
            col[x], col[y] = col[y], col[x]
            yield Instance(r, tuple(tuple(zip(*cols)) for cols in state), partition, meta)


def find_blocking_family(
    r: int, n: int, t: int, budget: int = 200, seed: int | None = 0
) -> BlockingFamily | None:
    """Search for n matchings of size t with no rainbow matching of size t.

    Hands the first ``budget`` families of the candidate stream (the
    gadget-derived families, then seeded random walks over the complete
    r-partite host on t*r vertices) to the exact solver, and returns the
    first one that scores below t, certified by that solve and stamped
    with ``seed`` and ``budget``.  Returns None when the budget runs out
    (a budget of 0 or less calls no solver), which is an expected
    outcome rather than an error.
    """
    if t < 1:
        raise ValueError(f"blocked size must be >= 1, got {t}")
    if n < 1:
        raise ValueError(f"matching count must be >= 1, got {n}")
    if r < 2:
        raise ValueError(f"uniformity must be >= 2, got {r}")
    if t == 1:
        return None  # a single non-empty matching always yields rainbow size 1
    for cand in islice(_candidates(r, n, t, seed), max(budget, 0)):
        best = exact_max_rainbow(cand).size
        if best < t:
            meta = {**cand.meta, "blocking_seed": seed, "blocking_budget": budget}
            return BlockingFamily(Instance(r, cand.matchings, cand.partition, meta), t, best)
    return None
