"""Reference random generation and sampling for checking the package.

Copies of ``random_instance`` and ``sample_and_extend`` as they were
when the generator built each matching in draw order, for the
constructor to sort and copy, and the sampler tested and filtered every
edge of every colour.  The package now builds each matching in stored
order and filters each run's head, and a shared tail once; the
instances, the serialized bytes and the reports must stay the same.
Test-only, like ``io_reference``: nothing in the package imports it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Any

from rainbow_forge.core import Instance, RainbowMatching, make_edge
from rainbow_forge.solvers import (
    CERT_HEURISTIC,
    DEFAULT_SAMPLE_RETRIES,
    SampleExtendFailure,
    SolveReport,
    SolveStats,
    chernoff_tail,
    local_search_rainbow,
)


def random_instance(r: int, n: int, s: int, seed: int | None = None) -> Instance:
    """n matchings of size s sampled over a pool of r*s + r vertices."""
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
        matchings.append(tuple(make_edge(chosen[i * r : (i + 1) * r]) for i in range(s)))
    return Instance(
        r=r,
        matchings=tuple(matchings),
        meta={"generator": "random", "r": r, "n": n, "s": s, "seed": seed},
    )


def sample_and_extend(
    inst: Instance,
    *,
    seed: int | None = None,
    retries: int = DEFAULT_SAMPLE_RETRIES,
) -> SolveReport | SampleExtendFailure:
    """Randomised two-phase solver for a full-size rainbow matching."""
    n = inst.n
    t0 = time.perf_counter()
    if n == 0:
        return SolveReport(RainbowMatching(), CERT_HEURISTIC, SolveStats(seed=seed))
    r = inst.r
    rng = random.Random(seed)
    vertices = sorted(inst.vertices())
    p = 4.0 * n ** (-1.0 / (2 * r))
    p_eff = min(p, 1.0)
    inside_needed_sq = r * r * 4 ** r * n  # count >= r 2^r sqrt(n)  <=>  count^2 >= this

    checks_met = False
    attempts = 0
    sample: set[int] = set()
    for attempts in range(1, max(1, retries) + 1):
        # one draw per vertex, in sorted order
        sample = {v for v in vertices if rng.random() < p_eff}
        ok = True
        for es in inst.matchings:
            inside = sum(1 for e in es if sample.issuperset(e))
            off = sum(1 for e in es if sample.isdisjoint(e))
            if inside * inside < inside_needed_sq or 2 * off < (r + 1) * n:
                ok = False
                break
        if ok:
            checks_met = True
            break

    restricted = Instance(
        r=inst.r,
        matchings=tuple(tuple(e for e in es if sample.isdisjoint(e)) for es in inst.matchings),
        partition=inst.partition,
        meta={**inst.meta, "restricted": "off-sample"},
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
