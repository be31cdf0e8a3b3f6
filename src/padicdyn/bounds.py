"""Height-gap lower bounds as functions of the ramification index.

Three bound shapes are compared at each ramification index e:

  * pottmeyer(e)  = C * exp(2e) / e**(2e+1) -- written in log space so
    large e neither overflows nor loses the comparison;
  * new_bound(e)  = C / lcm(1..e)**2, driven by the least common multiple
    of the ramification indices up to e;
  * nine_exp(e)   = C * 9**-e, a clean exponential baseline.

The arithmetic facts behind the comparison are verified exactly on big
integers: lcm(1..e) <= 3**e (equivalently new_bound >= nine_exp), with the
least-common-multiple maintained incrementally (it changes only at prime
powers, so the verification up to large e only touches ~e/log(e) events).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .valuation import PreconditionError


def lcm_list(values: Sequence[int]) -> tuple[int, int]:
    """Exact least common multiple and maximum of positive integers."""
    vals = list(values)
    if not vals:
        raise PreconditionError("lcm of an empty list")
    if any((not isinstance(v, int)) or v < 1 for v in vals):
        raise PreconditionError("lcm requires positive integers")
    return math.lcm(*vals), max(vals)


def lcm_range(n: int) -> int:
    """lcm(1..n) exactly."""
    if n < 1:
        raise PreconditionError("lcm range requires n >= 1")
    return math.lcm(*range(1, n + 1))


def log_pottmeyer(e: int, c: float = 1.0) -> float:
    """log of C * exp(2e) / e**(2e+1), i.e. log(C) + 2e - (2e+1)*log(e)."""
    if e < 1:
        raise PreconditionError("ramification index must be >= 1")
    return math.log(c) + 2 * e - (2 * e + 1) * math.log(e)


def pottmeyer_bound(e: int, c: float = 1.0) -> float:
    try:
        return math.exp(log_pottmeyer(e, c))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BoundRow:
    e: int
    lcm_e: int
    pottmeyer: float
    new_bound: float
    nine_exp: float


def bound_table(e_max: int, c: float = 1.0) -> list[BoundRow]:
    """Rows e = 1..e_max of all three bounds, with an exact per-row check.

    Each row verifies, on exact integers, that lcm(1..e) <= 3**e, which is
    exactly new_bound >= nine_exp (C/lcm**2 >= C*9**-e).  float columns may
    underflow to 0 for large e; the exact check never relies on them.
    """
    if not isinstance(e_max, int) or e_max < 1:
        raise PreconditionError("e_max must be a positive integer")
    if not (c > 0):
        raise PreconditionError("constant C must be positive")
    rows: list[BoundRow] = []
    lcm_val = 1
    three_pow = 1
    for e in range(1, e_max + 1):
        lcm_val = math.lcm(lcm_val, e)
        three_pow *= 3
        if lcm_val > three_pow:
            raise RuntimeError(f"lcm(1..{e}) exceeds 3**{e}: exact invariant broken")
        log_lcm = math.log(lcm_val)
        new_bound = _exp_or_zero(math.log(c) - 2 * log_lcm)
        nine_exp = _exp_or_zero(math.log(c) - e * math.log(9))
        rows.append(BoundRow(e, lcm_val, pottmeyer_bound(e, c), new_bound, nine_exp))
    return rows


def _exp_or_zero(logv: float) -> float:
    try:
        return math.exp(logv)
    except OverflowError:
        return math.inf


def find_crossover(e_max: int, c: float = 1.0) -> int | None:
    """Smallest e <= e_max where new_bound strictly beats pottmeyer.

    Compared in log space (the constant C cancels), so the answer is
    C-independent and immune to underflow.
    """
    lcm_val = 1
    for e in range(1, e_max + 1):
        lcm_val = math.lcm(lcm_val, e)
        if -2 * math.log(lcm_val) > log_pottmeyer(e, 1.0):
            return e
    return None


def verify_lcm_exponential_bound(n_max: int) -> bool:
    """Exact big-integer verification that lcm(1..n) <= 3**n for all n <= n_max.

    lcm(1..n) changes only when n is a prime power (it gains one factor of
    the prime), so it suffices to compare at those events; between events
    the left side is constant while 3**n grows.  Both sides are exact
    integers throughout.
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise PreconditionError("n_max must be a positive integer")
    # Sieve of smallest prime factors to find prime powers quickly.
    spf = list(range(n_max + 1))
    for i in range(2, int(n_max**0.5) + 1):
        if spf[i] == i:
            for j in range(i * i, n_max + 1, i):
                if spf[j] == j:
                    spf[j] = i
    lcm_val = 1
    three_pow = 1
    last_n = 0
    for n in range(2, n_max + 1):
        p = spf[n]
        q = n
        while q % p == 0:
            q //= p
        if q != 1:
            continue  # not a prime power: lcm unchanged, 3**n only grows
        lcm_val *= p
        three_pow *= 3 ** (n - last_n)
        last_n = n
        if lcm_val > three_pow:
            return False
    return True


def bounds_to_csv(rows: Sequence[BoundRow]) -> str:
    lines = ["e,lcm_e,pottmeyer,new_bound,nine_exp"]
    for r in rows:
        lines.append(f"{r.e},{r.lcm_e},{r.pottmeyer!r},{r.new_bound!r},{r.nine_exp!r}")
    return "\n".join(lines) + "\n"
