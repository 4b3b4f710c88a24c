"""The generator and the sampler against their reference copies.

``random_instance`` must build the same instance, with the same bytes,
as ``generation_reference.random_instance``, and keep the matchings it
builds.  ``sample_and_extend`` must return the same report as
``generation_reference.sample_and_extend``, apart from ``wall_time``, on
random families and on families whose matchings share tails of edges of
one length or of several, with colours repeating one matching or not.
"""

from __future__ import annotations

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import rainbow_forge as rf
from rainbow_forge import solvers
import generation_reference


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 12), st.integers(1, 8), st.integers(0, 10**6))
def test_random_instance_matches_reference(r, n, s, seed):
    got = rf.random_instance(r, n, s, seed=seed)
    expected = generation_reference.random_instance(r, n, s, seed=seed)
    assert got == expected
    assert rf.serialize_instance(got) == rf.serialize_instance(expected)
    # built in stored order, so the constructor kept every matching
    assert len(got.runs) == n
    assert not any(got.tails)


@st.composite
def tail_sharing_families(draw):
    """A random family, its matchings extended by suffixes of one tuple of
    fresh disjoint edges (all of it for a lift, cut per matching
    otherwise), some colours repeating the matching before them.  At
    r = 2 and n > 256 the sample leaves some vertices out, so the runs
    are filtered, not kept or dropped whole."""
    rnd = draw(st.randoms(use_true_random=False))
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([1, 5, 40, 300, 1000]))
    base = rf.random_instance(r, n, draw(st.integers(1, 4)), seed=rnd.randrange(10**6))
    vertices = base.vertex_count()
    fresh = tuple(tuple(range(vertices + k * r, vertices + (k + 1) * r)) for k in range(draw(st.integers(0, 6))))
    cut = draw(st.sampled_from(["lift", "per-matching", "runs"]))
    matchings = []
    for m in base.matchings:
        if matchings and rnd.random() < 0.2:
            matchings.append(matchings[-1])
        elif cut == "lift":
            matchings.append(m + fresh)
        elif cut == "per-matching":
            matchings.append(m + fresh[rnd.randint(0, len(fresh)) :])
        else:
            # the same cut for stretches of matchings
            k = len(fresh) - len(matchings) // 7 % (len(fresh) + 1)
            matchings.append(m + fresh[len(fresh) - k :])
    return rf.Instance(r=r, matchings=tuple(matchings[:n]), meta=base.meta)


@settings(max_examples=100, deadline=None)
@given(tail_sharing_families(), st.randoms(use_true_random=False))
def test_map_parts_filters_every_matching(inst, rnd):
    kept = set(rnd.sample(sorted(inst.vertices()), rnd.randint(0, len(inst.vertices()))))
    # f runs on every head, on () once, and on a tail at each change of
    # the tail length to one above 0
    changes = sum(1 for k, prev in zip(inst.tails, (0, *inst.tails)) if k and k != prev)
    for keep in (kept.issuperset, kept.isdisjoint):
        calls = []

        def f(edges):
            calls.append(edges)
            return tuple(filter(keep, edges))

        parts = list(rf.core.map_parts(f, inst))
        assert [colours for _, _, colours in parts] == [colours for _, colours in inst.runs]
        runs = [(head + tail, colours) for head, tail, colours in parts]
        assert rf.core.map_runs(lambda m: m, runs) == tuple(tuple(filter(keep, m)) for m in inst.matchings)
        assert len(calls) == len(inst.runs) + changes + 1


def _report(res):
    if isinstance(res, rf.SolveReport):
        return dataclasses.replace(res, stats=dataclasses.replace(res.stats, wall_time=0.0))
    return res


@settings(max_examples=60, deadline=None)
@given(tail_sharing_families(), st.integers(0, 10**6), st.sampled_from([1, 3, 20]))
def test_sample_and_extend_matches_reference(inst, seed, retries):
    got = rf.sample_and_extend(inst, seed=seed, retries=retries)
    assert _report(got) == _report(generation_reference.sample_and_extend(inst, seed=seed, retries=retries))


def test_sample_and_extend_on_the_benchmark_lift_matches_reference():
    inst = rf.dummy_lift(rf.random_instance(3, 300, 5, seed=1), 595)
    for seed in (1, 2):
        got = rf.sample_and_extend(inst, seed=seed)
        assert _report(got) == _report(generation_reference.sample_and_extend(inst, seed=seed))


def test_sample_and_extend_below_p_one_solves_off_the_sample():
    # p = 4 n^(-1/4) < 1 at r = 2, n = 1000: the sample leaves vertices
    # out, and the off-sample local search uses some colours, which the
    # extension inside the sample then skips
    inst = rf.random_instance(2, 1000, 2, seed=1)
    got = rf.sample_and_extend(inst, seed=1)
    diagnostics = got.diagnostics if isinstance(got, rf.SampleExtendFailure) else got.stats.extra
    assert diagnostics["p_effective"] < 1
    assert diagnostics["off_sample_size"] >= 1
    assert _report(got) == _report(generation_reference.sample_and_extend(inst, seed=1))


def test_sample_and_extend_meets_the_sampling_conditions_on_a_lift():
    # p = 4 n^(-1/4) is about 0.71 at r = 2, n = 1000, and the 20,000
    # shared edges leave every colour enough edges off the sample and in
    # it, so the first sample meets the conditions and the off-sample
    # search alone gives every colour an edge
    inst = rf.dummy_lift(rf.cycle_instance(1000), 20000)
    got = rf.sample_and_extend(inst, seed=1)
    assert isinstance(got, rf.SolveReport) and got.matching.size == 1000
    extra = got.stats.extra
    assert extra["p_effective"] < 1 and extra["checks_met"] and extra["attempts"] == 1
    assert extra["off_sample_size"] == 1000
    assert rf.is_rainbow_matching(inst, got.matching)
    assert _report(got) == _report(generation_reference.sample_and_extend(inst, seed=1))


def test_sample_and_extend_at_p_one_draws_nothing(monkeypatch):
    # p = 4 n^(-1/(2r)) clamps to 1 on both: the sample is every vertex,
    # so no attempt draws a number and the result is the greedy matching
    draws = 0
    draw = random.Random.random

    def counting_random(self):
        nonlocal draws
        draws += 1
        return draw(self)

    monkeypatch.setattr(random.Random, "random", counting_random)
    for inst in (rf.dummy_lift(rf.random_instance(3, 300, 5, seed=1), 595), rf.random_instance(3, 40, 6, seed=1)):
        res = rf.sample_and_extend(inst, seed=1)
        if isinstance(res, rf.SampleExtendFailure):
            matching, diagnostics = res.best, {**res.diagnostics, "attempts": res.attempts}
        else:
            matching, diagnostics = res.matching, res.stats.extra
        assert diagnostics["p_effective"] == 1.0 and diagnostics["attempts"] == solvers.DEFAULT_SAMPLE_RETRIES
        assert draws == 0
        assert matching == rf.greedy_rainbow(inst).matching


def test_sample_and_extend_reaches_a_full_matching_and_a_sampling_failure():
    # a lift of 6 edges gives every colour a spare edge; the "extension"
    # stage needs r 2^r sqrt(n) edges of a colour inside the sample,
    # more than families of this size hold
    outcomes = []
    for m in (0, 6):
        inst = rf.dummy_lift(rf.random_instance(2, 5, 1, seed=1), m)
        res = rf.sample_and_extend(inst, seed=1)
        assert _report(res) == _report(generation_reference.sample_and_extend(inst, seed=1))
        outcomes.append(res.stage if isinstance(res, rf.SampleExtendFailure) else "full")
    assert outcomes == ["sampling", "full"]
