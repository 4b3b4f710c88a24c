from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rainbow_forge as rf


def test_lower_bound_g_prime_values():
    assert rf.lower_bound_g_prime(3, 100).value == 45
    assert rf.lower_bound_g_prime(4, 50).value == 6
    assert rf.lower_bound_g_prime(3, 10).value == 0


def test_lower_bound_g_prime_domain_flag():
    bv = rf.lower_bound_g_prime(2, 10)
    assert not bv.domain_ok and "r >= 3" in bv.domain_reason


def test_upper_bound_g_exact_root():
    bv = rf.upper_bound_g(3, 1000)
    assert bv.value == Fraction(8975, 9)
    assert bv.exact
    assert bv.real50.startswith("997.2222222222")


def test_upper_bound_g_boundary_flagged():
    bv = rf.upper_bound_g(3, 216)
    assert not bv.domain_ok and "216" in bv.domain_reason


def test_bound_value_str_names_the_formula_and_flags_the_domain():
    assert str(rf.ach_bound(3, 8)) == "ach_bound = 6"
    assert str(rf.upper_bound_g(3, 100)).endswith("[out of domain: requires n > 6**r = 216, got 100]")


def test_upper_bound_g_floor_root_case():
    # floor((1297^3)^(1/4)) = 216, so the rational value is 1297 - 216/48
    bv = rf.upper_bound_g(4, 1297)
    assert bv.value == Fraction(2585, 2)
    assert not bv.exact
    assert bv.real50.startswith("1292.49")


def test_bounds_h_exact_powers_of_two():
    lower, upper = rf.bounds_h(3, 4096)
    assert lower.value == Fraction(36928, 9)
    assert upper.value == 35840
    assert lower.exact and upper.exact


def test_bounds_h_lower_1000():
    lower, _ = rf.bounds_h(3, 1000)
    assert lower.value == Fraction(9025, 9)


def test_bounds_h_lower_below_upper_sweep():
    for r in (3, 4):
        base = 6 ** r
        for n in (base + 1, base + 7, 4 * base, 16 * base):
            lower, upper = rf.bounds_h(r, n)
            assert lower.domain_ok
            assert lower.value < upper.value


def test_weak_asymptotic_bound_values():
    assert rf.weak_asymptotic_bound(3, 64).value == 0
    assert rf.weak_asymptotic_bound(3, 256).value == 128
    assert rf.weak_asymptotic_bound(4, 256).value == 0


def test_ach_bound_values():
    assert rf.ach_bound(3, 4).value == 2
    assert rf.ach_bound(5, 100).value == 92
    assert rf.ach_bound(3, 5).value == 4  # odd case gains one


def test_check_gibounds_examples():
    ok = rf.check_gibounds(3, 10, 10, 5)
    assert ok.holds and ok.lhs == 0 and ok.rhs == 50
    bad = rf.check_gibounds(3, 10, 10, 2)
    assert not bad.holds and bad.lhs == 48 and bad.rhs == 20


def test_check_gibounds_r_below_two_raises():
    with pytest.raises(ValueError):
        rf.check_gibounds(1, 5, 5, 1)


@pytest.mark.parametrize(
    "bound",
    [rf.lower_bound_g_prime, rf.upper_bound_g, rf.bounds_h, rf.weak_asymptotic_bound, rf.ach_bound],
)
def test_bound_formulas_reject_r_below_one(bound):
    for r in (0, -2):
        with pytest.raises(ValueError, match="r must be >= 1"):
            bound(r, 5)
    for r in (1, 2):  # evaluated and flagged, not raised
        values = bound(r, 5)
        assert not any(bv.domain_ok for bv in (values if isinstance(values, tuple) else [values]))


@pytest.mark.parametrize(
    "bound",
    [rf.lower_bound_g_prime, rf.upper_bound_g, rf.bounds_h, rf.weak_asymptotic_bound, rf.ach_bound],
)
def test_bound_formulas_reject_n_below_one(bound):
    for n in (0, -5):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            bound(3, n)
    bound(3, 1)


def test_floor_and_ceiling_consistent():
    bv = rf.upper_bound_g(3, 1000)
    assert bv.floor <= bv.value <= bv.ceiling
    assert bv.floor == 997 and bv.ceiling == 998


def test_lower_bound_never_reaches_n():
    for r in (3, 4, 5):
        for n in (1, 10, 100, 10_000):
            assert rf.lower_bound_g_prime(r, n).value < n


def test_solver_results_respect_bounds_on_square_families():
    # generated families with n matchings of size n: the exact maximum
    # clears the guaranteed floor and satisfies the counting inequality
    instances = [
        rf.ach_instance(3, 4),
        rf.ach_instance(3, 6),
        rf.ach_instance(3, 8),
        rf.ach_instance(4, 8),
        *(rf.random_instance(3, n, n, seed=n) for n in (4, 6, 8)),
        *(rf.random_instance(4, n, n, seed=n) for n in (4, 6, 8)),
        *(rf.random_instance(5, n, n, seed=n) for n in (4, 5, 6)),
    ]
    for inst in instances:
        size = rf.exact_max_rainbow(inst).size
        floor = rf.lower_bound_g_prime(inst.r, inst.n)
        assert size >= max(0, floor.ceiling)
        assert rf.check_gibounds(inst.r, inst.n, inst.n, size).holds


@given(st.integers(0, 10 ** 24), st.integers(1, 9))
def test_nth_root_floor_is_exact(x, k):
    root = rf.nth_root_floor(x, k)
    assert root ** k <= x < (root + 1) ** k


def test_nth_root_floor_rejects_bad_input():
    with pytest.raises(ValueError):
        rf.nth_root_floor(-1, 2)
    with pytest.raises(ValueError):
        rf.nth_root_floor(10, 0)
