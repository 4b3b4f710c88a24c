"""The union-built families against their reference copies.

``ach_instance``, ``k4_union_instance``, ``blowup_compose`` and
``dummy_lift`` all build on ``constructions._disjoint_union``.  Each must
build the family ``constructions_reference`` builds with its own loops:
the same bytes and an equal instance.  The ach, k4 and lifted families
must also keep their runs (the colours sharing one matching object) and
shared tails.  A blow-up's runs may only be coarser than the reference's:
colour j starts a run exactly when some part's matching j is not the
same object as that part's matching j - 1.
"""

from __future__ import annotations

import pytest

import rainbow_forge as rf
import constructions_reference as ref


def _runs(inst: rf.Instance) -> list[tuple[int, range]]:
    return [(len(m), colours) for m, colours in inst.runs]


def _lift_bases():
    return {
        "ach(4,8)": lambda: rf.ach_instance(4, 8),
        "random(2,6,3,2)": lambda: rf.random_instance(2, 6, 3, 2),
        "cycle(5)": lambda: rf.cycle_instance(5),
        "k4(5)": lambda: rf.k4_union_instance(5),
    }


FAMILIES = [
    *(
        (f"ach({r},{n})", lambda r=r, n=n: (rf.ach_instance(r, n), ref.ach_instance(r, n)))
        for r in range(3, 7)
        for n in range(2 ** (r - 1), 2 ** (r - 1) + 9, 2)
    ),
    ("ach(8,256)", lambda: (rf.ach_instance(8, 256), ref.ach_instance(8, 256))),
    *(
        (f"k4({n})", lambda n=n: (rf.k4_union_instance(n), ref.k4_union_instance(n)))
        for n in range(3, 42, 2)
    ),
    *(
        (f"lift({name},{m})", lambda b=b, m=m: (rf.dummy_lift(b(), m), ref.dummy_lift(b(), m)))
        for name, b in _lift_bases().items()
        for m in range(4)
    ),
    *(
        (
            f"lift(random(3,300,5,1),{m})",
            lambda m=m: (
                rf.dummy_lift(rf.random_instance(3, 300, 5, 1), m),
                ref.dummy_lift(rf.random_instance(3, 300, 5, 1), m),
            ),
        )
        for m in (0, 1, 2, 595)
    ),
    ("lift(empty,2)", lambda: (rf.dummy_lift(rf.Instance(3, ()), 2), ref.dummy_lift(rf.Instance(3, ()), 2))),
]


def _blowup_parts():
    gadget = rf.find_blocking_family(3, 4, 2, seed=1)
    ach = rf.certify_blocking_family(rf.ach_instance(3, 4), 3)
    return {
        "gadget x3": [gadget] * 3,
        "ach(3,4) x2": [ach] * 2,
        "single": [ach],
        "mixed k4(3), cycle(3)": [
            rf.certify_blocking_family(rf.k4_union_instance(3), 3),
            rf.certify_blocking_family(rf.cycle_instance(3), 3),
        ],
    }


BLOWUPS = list(_blowup_parts())


def _same_family(got: rf.Instance, expected: rf.Instance) -> None:
    assert got == expected
    assert rf.serialize_instance(got) == rf.serialize_instance(expected)
    assert rf.validate_instance(got) == []


@pytest.mark.parametrize("build", [b for _, b in FAMILIES], ids=[name for name, _ in FAMILIES])
def test_union_families_match_the_reference(build):
    got, expected = build()
    _same_family(got, expected)
    assert _runs(got) == _runs(expected)
    assert got.tails == expected.tails


@pytest.mark.parametrize("name", BLOWUPS)
def test_blowups_match_the_reference_with_runs_from_the_parts(name):
    parts = _blowup_parts()[name]
    got = rf.blowup_compose(parts)
    _same_family(got, ref.blowup_compose(parts))
    assert got.meta == ref.blowup_compose(parts).meta
    # a run starts where some part's run starts
    starts = [
        j
        for j in range(got.n)
        if j == 0 or any(bf.inst.matchings[j] is not bf.inst.matchings[j - 1] for bf in parts)
    ]
    assert [colours.start for _, colours in got.runs] == starts


def test_a_blowup_keeps_its_parts_shared_classes():
    part = rf.certify_blocking_family(rf.ach_instance(3, 64), 63)
    assert len(part.inst.runs) == 4
    blowup = rf.blowup_compose([part] * 3)
    assert len(blowup.runs) == 4
    assert [colours for _, colours in blowup.runs] == [colours for _, colours in part.inst.runs]
    for m, colours in blowup.runs:
        assert all(blowup.matchings[j] is m for j in colours)
    assert blowup.meta["offsets"] == "0,192,384"


def test_a_mixed_blowup_shares_the_repeated_part_s_edges():
    # cycle(3) repeats its first class on colours 0 and 1, so the union's
    # matchings 0 and 1 end on the same three moved edge objects
    k4 = rf.certify_blocking_family(rf.k4_union_instance(3), 3)
    cycle = rf.certify_blocking_family(rf.cycle_instance(3), 3)
    blowup = rf.blowup_compose([k4, cycle])
    assert blowup.tails == (0, 3, 0)
    assert blowup.meta["offsets"] == "0,8"


def test_a_part_moved_by_zero_keeps_its_edge_objects():
    base = rf.random_instance(3, 20, 4, 1)
    lift = rf.dummy_lift(base, 3)
    for m, lifted in zip(base.matchings, lift.matchings):
        assert all(a is b for a, b in zip(m, lifted))
