"""Exact-arithmetic evaluation of the rainbow-matching bound formulas.

Every formula is evaluated as an exact rational.  Fractional powers
``n**(p/q)`` are handled through the exact integer floor of the q-th
root of ``n**p``: when the root is exact the rational value equals the
formula, otherwise the rational uses the floor of the root and the
50-significant-digit decimal in ``real50`` is the authoritative value
(accurate to one unit in the last digit).  Pass/fail comparisons never
touch floating point.

Out-of-domain parameters are reported through the ``domain_ok`` flag
rather than raised, so parameter sweeps can tabulate validity domains.
Only an r or an n below 1, for which no formula is defined, raises
ValueError.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, ceil
from typing import NamedTuple

SIGNIFICANT_DIGITS = 50
_GUARD_DIGITS = 10


def nth_root_floor(x: int, k: int) -> int:
    """Exact integer floor of the k-th root of x (x >= 0, k >= 1).

    Newton iteration on integers; exact for arbitrarily large x.
    """
    if k < 1:
        raise ValueError("root order must be >= 1")
    if x < 0:
        raise ValueError("negative radicand")
    if x < 2 or k == 1:
        return x
    t = 1 << (x.bit_length() // k + 1)
    u = 0
    while True:
        u, t = t, u
        t = ((k - 1) * u + x // u ** (k - 1)) // k
        if t >= u:
            break
    return u


def _format_sig(value: Fraction) -> str:
    """Decimal string of ``value`` rounded to 50 significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = SIGNIFICANT_DIGITS
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        return str(d)


def _root_approx(n: int, p: int, q: int) -> Fraction:
    """High-precision rational approximation of ``n**(p/q)`` from below.

    Uses enough guard digits that rounding the final expression to 50
    significant digits is off by at most one unit in the last place.
    """
    scale = 10 ** (SIGNIFICANT_DIGITS + _GUARD_DIGITS)
    return Fraction(nth_root_floor(n ** p * scale ** q, q), scale)


@dataclass(frozen=True)
class BoundValue:
    """One evaluated bound formula.

    ``value`` is the exact rational (floor-root convention when the
    fractional power is irrational, in which case ``exact`` is False
    and ``real50`` carries the true value to 50 significant digits).
    ``domain_ok`` is False when a stated precondition is violated;
    ``domain_reason`` then names it.
    """

    formula_id: str
    value: Fraction
    exact: bool = True
    real50: str = ""
    domain_ok: bool = True
    domain_reason: str = ""

    @property
    def floor(self) -> int:
        return floor(self.value)

    @property
    def ceiling(self) -> int:
        return ceil(self.value)

    def __str__(self) -> str:
        flag = "" if self.domain_ok else f" [out of domain: {self.domain_reason}]"
        return f"{self.formula_id} = {self.value}{flag}"


def _check_args(r: int, n: int) -> None:
    """Every bound formula needs r >= 1 and counts n >= 1 matchings;
    r = 1 and r = 2 evaluate and are flagged through ``domain_ok``."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _domain(r: int, n: int | None = None) -> tuple[bool, str]:
    """``(domain_ok, domain_reason)`` of the r >= 3 precondition and,
    when n is given, of n > 6**r."""
    if r < 3:
        return False, f"requires r >= 3, got {r}"
    if n is not None and n <= 6 ** r:
        return False, f"requires n > 6**r = {6 ** r}, got {n}"
    return True, ""


def _rooted_bound(
    formula_id: str,
    base: Fraction,
    coeff: Fraction,
    n: int,
    p: int,
    q: int,
    domain_ok: bool = True,
    domain_reason: str = "",
) -> BoundValue:
    """Evaluate ``base + coeff * n**(p/q)`` under the root conventions."""
    power = n ** p
    root = nth_root_floor(power, q)
    is_exact = root ** q == power
    value = base + coeff * root
    if is_exact:
        real50 = _format_sig(value)
    else:
        real50 = _format_sig(base + coeff * _root_approx(n, p, q))
    return BoundValue(formula_id, value, is_exact, real50, domain_ok, domain_reason)


def lower_bound_g_prime(r: int, n: int) -> BoundValue:
    """Guaranteed rainbow size for n matchings of size n, unrestricted
    host: ``(2n - C(2r, r)) / (r + 1)``.  Meaningful for r >= 3."""
    _check_args(r, n)
    value = Fraction(2 * n - comb(2 * r, r), r + 1)
    return BoundValue("lower_bound_g_prime", value, True, _format_sig(value), *_domain(r))


def upper_bound_g(r: int, n: int) -> BoundValue:
    """Upper bound on the r-partite guarantee:
    ``n - n**((r-1)/r) / (12 r)``, valid for r >= 3 and n > 6**r."""
    _check_args(r, n)
    return _rooted_bound(
        "upper_bound_g", Fraction(n), Fraction(-1, 12 * r), n, r - 1, r, *_domain(r, n)
    )


def bounds_h(r: int, n: int) -> tuple[BoundValue, BoundValue]:
    """Lower and upper bounds on the matching size forcing a full rainbow
    matching: ``n + n**((r-1)/r)/(12r)`` and
    ``(r+1)n/2 + 3 r**2 n**((2r-1)/(2r))``.

    The lower bound is valid for n > 6**r; the upper bound holds for all
    sufficiently large n with no explicit threshold, which the domain
    reason records as unquantified.
    """
    _check_args(r, n)
    lower = _rooted_bound(
        "bounds_h_lower", Fraction(n), Fraction(1, 12 * r), n, r - 1, r, *_domain(r, n)
    )
    up_ok, up_reason = _domain(r)
    if up_ok:
        up_reason = "asymptotic: valid for sufficiently large n (threshold unquantified)"
    upper = _rooted_bound(
        "bounds_h_upper",
        Fraction((r + 1) * n, 2),
        Fraction(3 * r * r),
        n,
        2 * r - 1,
        2 * r,
        up_ok,
        up_reason,
    )
    return lower, upper


def weak_asymptotic_bound(r: int, n: int) -> BoundValue:
    """Rainbow size guaranteed by n matchings of size ceil((r+1)n/2):
    ``n - 2**r * sqrt(n)``.  Exact when n is a perfect square."""
    _check_args(r, n)
    return _rooted_bound(
        "weak_asymptotic_bound", Fraction(n), Fraction(-(2 ** r)), n, 1, 2, *_domain(r)
    )


def ach_bound(r: int, n: int) -> BoundValue:
    """Upper bound certified by the paired-gadget construction:
    ``n - 2**(r-2)`` for even n, one more for odd n."""
    _check_args(r, n)
    value = Fraction(n - 2 ** (r - 2) + (1 if n % 2 else 0))
    return BoundValue("ach_bound", value, True, _format_sig(value), *_domain(r))


class GiBounds(NamedTuple):
    """Result of the good-edge counting inequality check."""

    holds: bool
    lhs: Fraction
    rhs: Fraction


def check_gibounds(r: int, n: int, N: int, m: int) -> GiBounds:
    """Exact check of ``(n-m) * (2N - (r+1)m) / (r-1) <= C(2r,r) * m / 2``.

    Holds whenever m is the size of a maximum rainbow matching of n
    matchings of size N, and more generally for any rainbow matching
    that admits neither an extension nor a good-edge swap.  A False
    result certifies that m cannot be such a size.
    """
    if r < 2:
        raise ValueError("r must be >= 2 for the inequality arithmetic")
    lhs = Fraction((n - m) * (2 * N - (r + 1) * m), r - 1)
    rhs = Fraction(comb(2 * r, r) * m, 2)
    return GiBounds(lhs <= rhs, lhs, rhs)
