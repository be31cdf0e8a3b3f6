"""Height-gap lower bounds as functions of the ramification index.

Three bound shapes are compared at each ramification index e:

  * pottmeyer(e)  = C * exp(2e) / e**(2e+1) -- written in log space so
    large e neither overflows nor loses the comparison;
  * new_bound(e)  = C / lcm(1..e)**2, driven by the least common multiple
    of the ramification indices up to e;
  * nine_exp(e)   = C * 9**-e, a clean exponential baseline.

The arithmetic fact behind the comparison, lcm(1..e) <= 3**e (equivalently
new_bound >= nine_exp), is certified exactly.  lcm(1..n) changes only at
prime powers n = p**k, where it gains one factor p, so only those ~n/log(n)
events are checked.  At each one a running sum of small integers bounds
log2 lcm(1..n) from above and is compared with a rational lower bound for
n*log2(3); this is Chebyshev's psi(n) <= n*log(3), which Rosser and
Schoenfeld's psi(x) < 1.03883*x leaves with room to spare.  Wherever that
integer test does not decide, lcm(1..n) <= 3**n is compared on big integers,
so the answer is exact in every case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .valuation import PreconditionError

# Rows hold every exact lcm(1..e), about 1.44*e bits each, so a table's
# memory grows like e**2 (e = 20,000 already takes about 40 MB).  Up to the
# cap every lcm(1..e) also has fewer than 4,300 digits, Python's default
# limit for int-to-str conversion, so bounds_to_csv can print every row;
# lcm(1..9859) is the first over it.
BOUND_TABLE_E_MAX = 9000
# The prime-power sieve takes n + 1 bytes and lcm(1..n) has about 1.44*n
# bits, so lcm_range and verify_lcm_exponential_bound refuse a larger n.
LCM_N_MAX = 10**6

# log2(3) > 19/12, proved exactly by 2**19 = 524288 < 531441 = 3**12.
_LOG2_3_NUM, _LOG2_3_DEN = 19, 12
assert 2**_LOG2_3_NUM < 3**_LOG2_3_DEN
# (p**_LOG_SCALE).bit_length() > _LOG_SCALE * log2(p): a rounded-up log2 p.
_LOG_SCALE = 16


def lcm_list(values: Sequence[int]) -> tuple[int, int]:
    """Exact least common multiple and maximum of positive integers."""
    vals = list(values)
    if not vals:
        raise PreconditionError("lcm of an empty list")
    if any(type(v) is not int or v < 1 for v in vals):
        raise PreconditionError("lcm requires positive integers")
    top = max(vals)
    # Pairwise lcms in a balanced tree: a left fold multiplies the whole
    # running lcm into every value, which is quadratic in the list's length.
    while len(vals) > 1:
        vals = [math.lcm(*vals[i : i + 2]) for i in range(0, len(vals), 2)]
    return vals[0], top


def lcm_range(n: int) -> int:
    """lcm(1..n) exactly: one factor p at each prime power p**k <= n."""
    if not isinstance(n, int) or not 1 <= n <= LCM_N_MAX:
        raise PreconditionError(
            f"lcm range requires an integer 1 <= n <= LCM_N_MAX = {LCM_N_MAX}, got {n!r}"
        )
    return math.prod(p for _, p in _prime_powers(n))


def log_pottmeyer(e: int, c: float = 1.0) -> float:
    """log of C * exp(2e) / e**(2e+1), i.e. log(C) + 2e - (2e+1)*log(e)."""
    if e < 1:
        raise PreconditionError("ramification index must be >= 1")
    return math.log(c) + 2 * e - (2 * e + 1) * math.log(e)


def pottmeyer_bound(e: int, c: float = 1.0) -> float:
    return _exp_or_inf(log_pottmeyer(e, c))


def _exp_or_inf(logv: float) -> float:
    try:
        return math.exp(logv)
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
    """Rows e = 1..e_max of all three bounds, with exact lcm(1..e) values.

    lcm(1..e) <= 3**e, which is exactly new_bound >= nine_exp
    (C/lcm**2 >= C*9**-e), holds on every row: it is certified by the same
    prime-power walk as ``verify_lcm_exponential_bound``, which also gives
    the lcm column.  float columns may underflow to 0 for large e; the
    certificate never relies on them.  e_max is capped at
    ``BOUND_TABLE_E_MAX``, which bounds the memory of the exact lcm column
    and keeps every entry printable in decimal.
    """
    if not isinstance(e_max, int) or e_max < 1:
        raise PreconditionError("e_max must be a positive integer")
    if e_max > BOUND_TABLE_E_MAX:
        raise PreconditionError(
            f"e_max {e_max} exceeds BOUND_TABLE_E_MAX = {BOUND_TABLE_E_MAX}: "
            "the exact lcm column grows quadratically and must print as decimal"
        )
    if not (c > 0):
        raise PreconditionError("constant C must be positive")
    factor_at: dict[int, int] = {}
    for n, p, holds in _lcm_events(e_max):
        assert holds, f"lcm(1..{n}) > 3**{n} would contradict Rosser-Schoenfeld"
        factor_at[n] = p
    rows: list[BoundRow] = []
    lcm_val = 1
    for e in range(1, e_max + 1):
        if e in factor_at:
            lcm_val *= factor_at[e]
        log_lcm = math.log(lcm_val)
        new_bound = _exp_or_inf(math.log(c) - 2 * log_lcm)
        nine_exp = _exp_or_inf(math.log(c) - e * math.log(9))
        rows.append(BoundRow(e, lcm_val, pottmeyer_bound(e, c), new_bound, nine_exp))
    return rows


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


def _prime_powers(n_max: int) -> Iterator[tuple[int, int]]:
    """(p**k, p) for every prime power 1 < p**k <= n_max, by increasing p**k."""
    is_prime = bytearray([1]) * (n_max + 1)
    is_prime[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n_max) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = bytes(len(range(i * i, n_max + 1, i)))
    higher: dict[int, int] = {}  # p**k -> p for k >= 2
    for p in itertools.compress(range(math.isqrt(n_max) + 1), is_prime):
        q = p * p
        while q <= n_max:
            higher[q] = p
            q *= p
    primes = itertools.compress(range(n_max + 1), is_prime)
    for n in sorted(itertools.chain(primes, higher)):
        yield n, higher.get(n, n)


def _lcm_events(n_max: int) -> Iterator[tuple[int, int, bool]]:
    """(n, p, lcm(1..n) <= 3**n) at each prime power n = p**k <= n_max.

    The running sum ``bits`` of rounded-up log2 p, scaled by _LOG_SCALE,
    exceeds _LOG_SCALE * log2 lcm(1..n); once it is at most
    _LOG_SCALE * n * 19/12 < _LOG_SCALE * n * log2(3), the bound holds.
    Otherwise both sides are computed exactly.
    """
    bits = 0
    for n, p in _prime_powers(n_max):
        bits += (p**_LOG_SCALE).bit_length()
        holds = (
            _LOG2_3_DEN * bits <= _LOG2_3_NUM * _LOG_SCALE * n
            or lcm_range(n) <= 3**n
        )
        yield n, p, holds


def verify_lcm_exponential_bound(n_max: int) -> bool:
    """Exact verification that lcm(1..n) <= 3**n for all n <= n_max.

    lcm(1..n) changes only when n is a prime power (it gains one factor of
    the prime), so it suffices to compare at those events; between events
    the left side is constant while 3**n grows.  Each event is certified by
    small-integer log bounds, or, where they do not decide, by the exact
    big-integer comparison.
    """
    if not isinstance(n_max, int) or not 1 <= n_max <= LCM_N_MAX:
        raise PreconditionError(
            f"n_max must be an integer in 1..LCM_N_MAX = {LCM_N_MAX}, got {n_max!r}"
        )
    return all(holds for _, _, holds in _lcm_events(n_max))


def bounds_to_csv(rows: Sequence[BoundRow]) -> str:
    lines = ["e,lcm_e,pottmeyer,new_bound,nine_exp"]
    for r in rows:
        lines.append(f"{r.e},{r.lcm_e},{r.pottmeyer!r},{r.new_bound!r},{r.nine_exp!r}")
    return "\n".join(lines) + "\n"
