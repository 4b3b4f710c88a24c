"""Cross-intersecting set-pair systems and their extraction from
swap-maximal rainbow matchings.

A system of pairs (A_i, B_i), i < m, is cross-intersecting when
A_i and B_i are disjoint for every i while A_i meets B_j for all
i != j.  Such systems satisfy ``sum 1 / C(|A_i|+|B_i|, |A_i|) <= 1``;
for r-uniform members that caps the system size at C(2r, r), which is
exactly the counting used to bound how many colours one matching edge
can be good for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

from .core import Edge, Instance, RainbowMatching
from .solvers import GoodEdgeTable, SwapAvailable, good_edges


@dataclass(frozen=True)
class SetPairSystem:
    """Paired finite integer sets, stored as sorted tuples."""

    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "pairs",
            tuple(
                (tuple(sorted(set(a))), tuple(sorted(set(b)))) for a, b in self.pairs
            ),
        )

    @classmethod
    def from_sets(cls, pairs: Iterable[tuple[Iterable[int], Iterable[int]]]) -> "SetPairSystem":
        return cls(tuple((tuple(a), tuple(b)) for a, b in pairs))

    @property
    def size(self) -> int:
        return len(self.pairs)


def is_cross_intersecting(sys: SetPairSystem) -> tuple[bool, tuple[int, int] | None]:
    """Check both conditions; on failure return the first offending
    0-based index pair (i, i) for an intersecting own pair, (i, j) for a
    disjoint cross pair.  Systems of size < 2 are out of domain."""
    if sys.size < 2:
        raise ValueError("cross-intersecting systems have size >= 2")
    sets = [(set(a), set(b)) for a, b in sys.pairs]
    for i, (a, b) in enumerate(sets):
        if a & b:
            return False, (i, i)
    for i, (a, _) in enumerate(sets):
        for j, (_, b) in enumerate(sets):
            if i != j and not a & b:
                return False, (i, j)
    return True, None


def bollobas_sum(sys: SetPairSystem) -> Fraction:
    """Exact value of ``sum 1 / C(|A_i| + |B_i|, |A_i|)``.

    At most 1 for cross-intersecting systems; the tight classic family
    pairs each singleton {i} with its complement.
    """
    total = Fraction(0)
    for a, b in sys.pairs:
        total += Fraction(1, comb(len(a) + len(b), len(a)))
    return total


def extract_setpairs(inst: Instance, rm: RainbowMatching, e: Edge) -> SetPairSystem:
    """Build the witness set-pair system of a good matching edge.

    With rm extension- and swap-maximal and e good for colours
    c_1 < ... < c_l (witnesses f_i, f_i'), the system pairs
    (f_1, f_1'), ..., (f_l, f_l'), (f_1', f_1), ..., (f_l', f_l) as
    vertex sets.  Swap-maximality makes it cross-intersecting, which
    certifies l <= C(2r, r) / 2.

    Raises :class:`rainbow_forge.solvers.ExtensionAvailable` or
    :class:`rainbow_forge.solvers.SwapAvailable` when rm is not maximal
    under the respective move, and ValueError when e is not in rm or is
    good for no colour.
    """
    e = tuple(e)
    if e not in rm.edge_set():
        raise ValueError(f"edge {e} is not in the rainbow matching")
    table = good_edges(inst, rm)  # checks validity and extension-maximality, finds a swap
    if table.swap is not None:
        raise SwapAvailable(*table.swap)
    return table_setpairs(table, e)


def table_setpairs(table: GoodEdgeTable, e: Edge) -> SetPairSystem:
    """The witness set-pair system of matching edge e, read from the
    good-edge table of its matching (see :func:`extract_setpairs`, which
    also checks that the matching is swap-maximal).  Raises ValueError
    when e is good for no colour."""
    witnesses = [
        table.good[colour][e] for colour in sorted(table.good) if e in table.good[colour]
    ]
    if not witnesses:
        raise ValueError(f"edge {e} is good for no unused colour")
    return SetPairSystem.from_sets(witnesses + [(fp, f) for f, fp in witnesses])
