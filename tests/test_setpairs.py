from fractions import Fraction
from math import comb

import pytest

import rainbow_forge as rf

from test_cli import MOVES


def classic_family(m: int) -> rf.SetPairSystem:
    """Pair each singleton {i} with its complement in [m]; tight case."""
    return rf.SetPairSystem.from_sets(
        [([i], [j for j in range(m) if j != i]) for i in range(m)]
    )


def test_classic_family_is_tight():
    sys_ = classic_family(6)
    ok, violation = rf.is_cross_intersecting(sys_)
    assert ok and violation is None
    assert rf.bollobas_sum(sys_) == 1


def test_swap_family_of_size_two():
    sys_ = rf.SetPairSystem.from_sets([([1], [2]), ([2], [1])])
    ok, _ = rf.is_cross_intersecting(sys_)
    assert ok
    assert rf.bollobas_sum(sys_) == 1  # 2 / C(2,1)


def test_disjoint_cross_pair_detected():
    sys_ = rf.SetPairSystem.from_sets([([1], [2]), ([3], [4])])
    ok, violation = rf.is_cross_intersecting(sys_)
    assert not ok
    assert violation == (0, 1)  # A_0 and B_1 fail to meet


def test_intersecting_own_pair_detected():
    sys_ = rf.SetPairSystem.from_sets([([1, 2], [2]), ([2], [1])])
    ok, violation = rf.is_cross_intersecting(sys_)
    assert not ok and violation == (0, 0)


def test_small_systems_out_of_domain():
    with pytest.raises(ValueError):
        rf.is_cross_intersecting(rf.SetPairSystem.from_sets([([1], [2])]))


def test_sum_above_one_is_constructible():
    # negative control: without the cross-intersecting property the sum
    # is unbounded
    sys_ = rf.SetPairSystem.from_sets([([1], [2])] * 7)
    ok, _ = rf.is_cross_intersecting(sys_)
    assert not ok
    assert rf.bollobas_sum(sys_) == Fraction(7, 2)


def test_uniform_system_size_cap():
    # m pairs of r-sets each contribute 1/C(2r, r)
    r, m = 3, 12
    sys_ = rf.SetPairSystem.from_sets(
        [(range(i, i + r), range(i + r, i + 2 * r)) for i in range(0, 6 * m, 6)]
    )
    assert rf.bollobas_sum(sys_) == Fraction(m, comb(2 * r, r))


def test_extraction_from_local_optimum():
    inst = rf.ach_instance(3, 6)
    rm = rf.local_search_rainbow(inst, seed=5).matching
    table = rf.good_edges(inst, rm)
    extracted = 0
    for _, e in rm.assignment:
        ell = sum(1 for c in table.good if e in table.good[c])
        if ell == 0:
            continue
        sys_ = rf.extract_setpairs(inst, rm, e)
        assert sys_.size == 2 * ell
        ok, violation = rf.is_cross_intersecting(sys_)
        assert ok, violation
        assert rf.bollobas_sum(sys_) <= 1
        assert 2 * ell <= comb(2 * inst.r, inst.r)
        extracted += 1
    assert extracted >= 1


def test_table_setpairs_match_extraction():
    inst = rf.ach_instance(3, 6)
    rm = rf.local_search_rainbow(inst, seed=5).matching
    table = rf.good_edges(inst, rm)
    for _, e in rm.assignment:
        if any(e in table.good[c] for c in table.good):
            assert rf.setpairs.table_setpairs(table, e) == rf.extract_setpairs(inst, rm, e)
        else:
            with pytest.raises(ValueError, match="good for no unused colour"):
                rf.setpairs.table_setpairs(table, e)


def test_extraction_rejects_non_maximal_matching():
    inst = rf.ach_instance(3, 6)
    rm = rf.RainbowMatching(((0, inst.matchings[0][0]),))
    with pytest.raises(rf.ExtensionAvailable):
        rf.extract_setpairs(inst, rm, inst.matchings[0][0])


def test_extraction_rejects_a_matching_that_admits_a_swap():
    rm = rf.RainbowMatching(((0, (0, 1, 2)),))
    with pytest.raises(rf.SwapAvailable) as exc:
        rf.extract_setpairs(MOVES, rm, (0, 1, 2))
    assert (exc.value.removed, exc.value.first, exc.value.second) == rf.find_swap(MOVES, rm)


def test_extraction_rejects_foreign_or_barren_edge():
    inst = rf.ach_instance(3, 6)
    rm = rf.local_search_rainbow(inst, seed=5).matching
    with pytest.raises(ValueError, match="not in the rainbow matching"):
        rf.extract_setpairs(inst, rm, (90, 91, 92))
    table = rf.good_edges(inst, rm)
    barren = [
        e for _, e in rm.assignment if all(e not in table.good[c] for c in table.good)
    ]
    if barren:
        with pytest.raises(ValueError, match="good for no unused colour"):
            rf.extract_setpairs(inst, rm, barren[0])
