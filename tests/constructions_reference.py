"""Reference copies of the composed constructions, for checking the
package's disjoint union.

Copies of ``k4_union_instance``, ``ach_instance``, ``blowup_compose``
and ``dummy_lift`` as they were when each wrote its own union: ach and
k4 moved every gadget or K4 copy by hand, the blow-up moved every part
once per colour, and the lift appended hand-placed dummy edges to each
run.  ``constructions._disjoint_union`` must build the same families, to
the byte, with the same runs and shared tails, except that a blow-up's
runs may be coarser.  The pieces they place, the K4 colour classes and
the gadget's edge pairs, are copies too (``_K4_CLASSES`` and
``_gadget_classes``), so a change to the package's pieces shows in the
comparison.  Test-only, like ``blocking_reference``: nothing in the
package imports it.
"""

from __future__ import annotations

from typing import Sequence

from rainbow_forge.constructions import BlockingFamily
from rainbow_forge.core import Edge, Instance, map_runs

_K4_CLASSES = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


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


def k4_union_instance(n: int) -> Instance:
    """Disjoint union of (n+1)/2 properly 3-edge-coloured K4 blocks,
    with n - 2 copies of the first colour class and one each of the
    other two.  Requires odd n >= 3; every matching has size n + 1 and
    no rainbow matching of size n exists."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"k4_union_instance needs odd n >= 3, got {n}")
    copies = (n + 1) // 2
    classes: list[list[Edge]] = [[], [], []]
    for c in range(copies):
        base = 4 * c
        for cls, pairs in zip(classes, _K4_CLASSES):
            for a, b in pairs:
                cls.append((base + a, base + b))
    red, green, blue = map(tuple, classes)
    matchings = tuple(red for _ in range(n - 2)) + (green, blue)
    return Instance(r=2, matchings=matchings, meta={"generator": "k4", "n": n})


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
    copies = n // 2
    classes = _gadget_classes(r)
    class_edges: list[list[Edge]] = [[] for _ in classes]
    partition = []
    for c in range(copies):
        base = 2 * r * c
        partition.extend(list(range(r)) * 2)
        for idx, (e, f) in enumerate(classes):
            class_edges[idx].append(tuple(base + v for v in e))
            class_edges[idx].append(tuple(base + v for v in f))
    last = 2 ** (r - 1) - 1
    class_tuples = [tuple(es) for es in class_edges]
    matchings = tuple(class_tuples[min(i, last)] for i in range(n))
    return Instance(
        r=r,
        matchings=matchings,
        partition=tuple(partition),
        meta={"generator": "ach", "r": r, "n": n},
    )


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
    offsets = []
    offset = 0
    matchings: list[list[Edge]] = [[] for _ in range(n)]
    partitions: list[int] = []
    partitioned = all(bf.inst.partition is not None for bf in parts)
    for bf in parts:
        offsets.append(offset)
        for j, m in enumerate(bf.inst.matchings):
            matchings[j].extend(tuple(v + offset for v in e) for e in m)
        if partitioned:
            partitions.extend(bf.inst.partition)  # type: ignore[arg-type]
        offset += bf.inst.vertex_count()
    blocked = sum(bf.blocked_size for bf in parts) - len(parts) + 1
    return Instance(
        r=r,
        matchings=tuple(map(tuple, matchings)),
        partition=tuple(partitions) if partitioned else None,
        meta={
            "generator": "blowup",
            "parts": len(parts),
            "offsets": ",".join(str(o) for o in offsets),
            "blocked_sizes": ",".join(str(bf.blocked_size) for bf in parts),
            "composed_blocked_size": blocked,
        },
    )


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
    base = inst.vertex_count()
    dummies = tuple(
        tuple(range(base + k * inst.r, base + (k + 1) * inst.r)) for k in range(m)
    )
    matchings = map_runs(lambda mt: mt + dummies, inst.runs)
    partition = inst.partition
    if partition is not None:
        partition = partition + tuple(range(inst.r)) * m
    return Instance(
        r=inst.r,
        matchings=matchings,
        partition=partition,
        meta={**inst.meta, "generator": "dummy", "m": m, "base": inst.meta.get("generator", "given")},
    )
