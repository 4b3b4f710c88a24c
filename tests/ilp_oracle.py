"""Independent integer-programming reference for exact optima.

Reaches instances far beyond the brute-force oracle: the paper's
families with r up to 6 and n up to 64.  Solves the class-aggregated
model with scipy's ``milp`` (HiGHS).  Colours with identical edge sets
form one class; one integer variable per (class, edge) counts the
colours of that class matched to the edge, bounded by the class size;
one row per class caps its total at the class size, and one row per
vertex lets at most one chosen edge cover it.  Shares no code with the
package solvers.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from rainbow_forge import Instance


def ilp_max_rainbow(inst: Instance) -> int:
    class_size: dict[frozenset, int] = {}
    for m in inst.matchings:
        key = frozenset(m)
        class_size[key] = class_size.get(key, 0) + 1
    vertex_row: dict[int, int] = {}
    rows, cols, caps = [], [], []
    for k, (edges, size) in enumerate(class_size.items()):
        for e in sorted(edges):
            col = len(caps)
            caps.append(size)
            rows.append(k)
            cols.append(col)
            for v in e:
                rows.append(len(class_size) + vertex_row.setdefault(v, len(vertex_row)))
                cols.append(col)
    if not caps:
        return 0
    shape = (len(class_size) + len(vertex_row), len(caps))
    a = coo_array((np.ones(len(rows)), (rows, cols)), shape=shape).tocsr()
    upper = np.array(list(class_size.values()) + [1] * len(vertex_row), dtype=float)
    res = milp(
        c=-np.ones(len(caps)),
        constraints=LinearConstraint(a, -np.inf, upper),
        integrality=np.ones(len(caps)),
        bounds=Bounds(0, np.array(caps, dtype=float)),
    )
    if res.status != 0:
        raise RuntimeError(f"milp did not reach an optimum: {res.message}")
    return round(-res.fun)
