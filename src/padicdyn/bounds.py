"""Height-gap lower bounds as functions of the ramification index.

Three bound shapes are compared at each ramification index e:

  * pottmeyer(e)  = C * exp(2e) / e**(2e+1) -- written in log space so
    large e neither overflows nor loses the comparison;
  * new_bound(e)  = C / lcm(1..e)**2, driven by the least common multiple
    of the ramification indices up to e;
  * nine_exp(e)   = C * 9**-e, a clean exponential baseline.

The arithmetic fact behind the comparison, lcm(1..e) <= 3**e (equivalently
new_bound >= nine_exp), is certified exactly.  lcm(1..n) changes only at
prime powers n = p**k, where it gains one factor p.  A running sum of small
integers, one rounded-up log2 p per prime power, bounds log2 lcm(1..n) from
above and is compared with a rational lower bound for n*log2(3); this is
Chebyshev's psi(n) <= n*log(3), which Rosser and Schoenfeld's
psi(x) < 1.03883*x leaves with room to spare.  The summand is constant on
each bit-length interval of p, so the sum is advanced and compared one
interval at a time (303 intervals up to 10**6, against 78,734 prime powers).
That test decides every interval for every n up to LCM_N_MAX, so it is the
whole certificate: an interval it did not decide would give False.  The
sieve keeps one flag byte per odd number, from the 2*3*5*7 wheel written on
odd slots (period 105) with the odd multiples of each prime from 11 on
struck, and an interval's odd primes are the set bits of its slice of flags
read as one int; verify_lcm_exponential_bound(10**6) takes about 2 ms
(in-process medians, Python 3.11, 2-vCPU Xeon), against about 3 ms for
full-length flags counted by bytearray.count.

``bound_table`` recomputes the lcm column's log only at the prime powers
where lcm(1..e) changes, and its rows are ``BoundRow`` named tuples.  Each
float column's log decreases in e, so after its first 0.0 (never, if C = inf)
the column is 0.0 and calls no exp.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import PreconditionError, checked_int, checked_real

# Rows share one exact lcm(1..e) of about 1.44*e bits per prime power, about
# e/log(e) of them, so a table's memory grows like e**2/log(e) (a tracemalloc
# peak of 2.4 MB at e = 9,000, and 7.3 MB at 20,000 if the cap allowed it).
# Up to the cap every lcm(1..e) also has fewer than 4,300 digits, Python's
# default limit for int-to-str conversion, so bounds_to_csv can print every row;
# lcm(1..9859) is the first over it.
BOUND_TABLE_E_MAX = 9000
# The prime-power sieve takes (n + 1) // 2 bytes and lcm(1..n) has about 1.44*n
# bits, so lcm_range and verify_lcm_exponential_bound refuse a larger n.
LCM_N_MAX = 10**6
_LCM_N_RULE = f"n must be an integer in 1..LCM_N_MAX = {LCM_N_MAX}"
_E_MAX_RULE = f"e_max must be an integer in 1..BOUND_TABLE_E_MAX = {BOUND_TABLE_E_MAX}"
# log_pottmeyer turns 2e + 1 and log C into floats, so e stays where 2e + 1 is
# finite and C where log C is defined; C = inf makes every column inf.
_E_RULE = "ramification index must be a positive integer at most 2**1022"
_C_RULE, _C_MIN = "constant C must be positive, at least 5e-324", math.ulp(0.0)

# log2(3) > 19/12, proved exactly by 2**19 = 524288 < 531441 = 3**12.
_LOG2_3_NUM, _LOG2_3_DEN = 19, 12
assert 2**_LOG2_3_NUM < 3**_LOG2_3_DEN
# (p**_LOG_SCALE).bit_length() > _LOG_SCALE * log2(p): a rounded-up log2 p.
_LOG_SCALE = 16


def lcm_list(values: Sequence[int]) -> tuple[int, int]:
    """Exact least common multiple and maximum of positive integers."""
    if not isinstance(values, Iterable):
        raise PreconditionError(f"lcm requires an iterable of positive integers, got {values!r}")
    vals = list(values)
    if not vals:
        raise PreconditionError("lcm of an empty list")
    for v in vals:
        checked_int(v, "lcm requires positive integers", 1)
    return _balanced(math.lcm, vals), max(vals)


def lcm_range(n: int) -> int:
    """lcm(1..n) exactly: one factor p at each prime power p**k <= n."""
    checked_int(n, _LCM_N_RULE, 1, LCM_N_MAX)
    return _balanced(operator.mul, [p for _, p in _prime_powers(n)])


def _balanced(op: Callable[[int, int], int], vals: list[int]) -> int:
    """Fold vals with op (math.lcm or operator.mul, 1 being the identity of
    both) in a balanced tree of pairs: a left fold carries the whole running
    result into every step, which is quadratic in the number of values."""
    vals = vals or [1]
    while len(vals) > 1:
        vals = [op(a, b) for a, b in itertools.zip_longest(vals[::2], vals[1::2], fillvalue=1)]
    return vals[0]


def log_pottmeyer(e: int, c: float = 1.0) -> float:
    """log of C * exp(2e) / e**(2e+1), i.e. log(C) + 2e - (2e+1)*log(e)."""
    checked_int(e, _E_RULE, 1, 2**1022)
    return _log_pottmeyer(_log_c(c), e)


def _log_pottmeyer(log_c: float, e: int) -> float:
    return log_c + 2 * e - (2 * e + 1) * math.log(e)


def _log_c(c: float) -> float:
    """log C of a checked constant; a Fraction's is log(num) - log(den), so one
    above float range answers like an int C of that size."""
    checked_real(c, _C_RULE, _C_MIN, math.inf)
    if isinstance(c, Fraction):
        return math.log(c.numerator) - math.log(c.denominator)
    return math.log(c)


def pottmeyer_bound(e: int, c: float = 1.0) -> float:
    return _exp_or_inf(log_pottmeyer(e, c))


def _exp_or_inf(logv: float) -> float:
    try:
        return math.exp(logv)
    except OverflowError:
        return math.inf


class BoundRow(NamedTuple):
    e: int
    lcm_e: int
    pottmeyer: float
    new_bound: float
    nine_exp: float


def bound_table(e_max: int, c: float = 1.0) -> list[BoundRow]:
    """Rows e = 1..e_max of all three bounds, with exact lcm(1..e) values.

    lcm(1..e) <= 3**e, which is exactly new_bound >= nine_exp
    (C/lcm**2 >= C*9**-e), holds on every row: it is certified by the same
    interval certificate as ``verify_lcm_exponential_bound``, and the lcm
    column is built from the same prime-power sieve.  float columns may
    underflow to 0 for large e; the certificate never relies on them.  Each
    column's log decreases in e (pottmeyer's by 2*log(e) + 1/e per unit of e,
    nine_exp's by log 9 a row, new_bound's as lcm(1..e) grows), so after its
    first 0.0 a column is 0.0 and calls no exp.
    e_max is capped at ``BOUND_TABLE_E_MAX``, which bounds the memory of the
    exact lcm column and keeps every entry printable in decimal.
    """
    checked_int(e_max, _E_MAX_RULE, 1, BOUND_TABLE_E_MAX)
    log_c = _log_c(c)
    sieve = _sieve(e_max)
    if not _lcm_bound_holds(e_max, sieve):
        raise AssertionError("the lcm(1..e) <= 3**e certificate failed; Rosser-Schoenfeld implies it")
    # e = 1 and each prime power start a run of rows that share one lcm(1..e)
    starts, lcms = [1], [1]
    for q, p in _prime_powers(e_max, sieve):
        starts.append(q)
        lcms.append(lcms[-1] * p)
    runs = list(map(operator.sub, starts[1:] + [e_max + 1], starts))
    new_bounds = _exp_until_underflow(log_c - 2 * math.log(v) for v in lcms)
    es, log_9 = range(1, e_max + 1), math.log(9)
    columns = (
        es,
        itertools.chain.from_iterable(map(itertools.repeat, lcms, runs)),
        _exp_until_underflow(_log_pottmeyer(log_c, e) for e in es),
        itertools.chain.from_iterable(map(itertools.repeat, new_bounds, runs)),
        _exp_until_underflow(log_c - e * log_9 for e in es),
    )
    # tuple.__new__ is what BoundRow._make calls, without a Python frame per row
    return list(map(tuple.__new__, itertools.repeat(BoundRow), zip(*columns)))


def _exp_until_underflow(logs: Iterable[float]) -> Iterable[float]:
    """exp of each of a decreasing run of logs until one underflows to 0.0,
    then 0.0 without end and without calling exp; the caller stops it."""
    return itertools.chain(itertools.takewhile(bool, map(_exp_or_inf, logs)), itertools.repeat(0.0))


def find_crossover(e_max: int, c: float = 1.0) -> int | None:
    """Smallest e <= e_max where new_bound strictly beats pottmeyer.

    Compared in log space (the constant C cancels), so the answer is
    C-independent and immune to underflow.
    """
    checked_int(e_max, "e_max must be a positive integer", 1)
    checked_real(c, _C_RULE, _C_MIN, math.inf)
    lcm_val = 1
    for e in range(1, e_max + 1):
        lcm_val = math.lcm(lcm_val, e)
        if -2 * math.log(lcm_val) > _log_pottmeyer(0.0, e):
            return e
    return None


def _sieve(n_max: int) -> tuple[bytearray, dict[int, int]]:
    """Prime flags for the odd numbers up to n_max, and p**k -> p for every
    k >= 2 with p**k <= n_max.

    Slot i of the flags stands for 2*i + 1, so there are (n_max + 1) // 2 of
    them and the prime 2 is left to the callers.  The 2*3*5*7 wheel written on
    odd slots has period 105; each prime p from 11 on then strikes its odd
    multiples from p*p, slot p*p // 2 in steps of p, copied from one zero buffer.
    """
    size = (n_max + 1) // 2
    wheel = bytearray(math.gcd(2 * i + 1, 105) == 1 for i in range(105))
    is_prime = wheel * (size // 105 + 1)
    del is_prime[size:]  # in place: a slice would copy the whole array
    is_prime[:4] = b"\x00\x01\x01\x01"[:size]  # 1, 3, 5, 7: 3, 5 and 7 prime
    root = math.isqrt(n_max)
    zeros = memoryview(bytes(size // 11 + 1))
    for p in range(11, root + 1, 2):
        if is_prime[p // 2]:
            start = p * p // 2
            is_prime[start::p] = zeros[: (size - 1 - start) // p + 1]
    higher: dict[int, int] = {}
    for p in itertools.chain([2], itertools.compress(range(1, root + 1, 2), is_prime)):
        q = p * p
        while q <= n_max:
            higher[q] = p
            q *= p
    return is_prime, higher


def _prime_powers(
    n_max: int, sieve: tuple[bytearray, dict[int, int]] | None = None
) -> list[tuple[int, int]]:
    """(p**k, p) for every prime power p**k <= n_max, by increasing p**k.

    ``sieve`` is ``_sieve(m)`` for some m >= n_max; by default n_max's own.
    """
    is_prime, higher = sieve or _sieve(n_max)
    primes = itertools.compress(range(1, n_max + 1, 2), is_prime)
    powers = (q for q in higher if q <= n_max)
    two = [2] if n_max >= 2 else []
    return [(n, higher.get(n, n)) for n in sorted(itertools.chain(two, primes, powers))]


def _least_with_bit_length(beta: int) -> int:
    """Least p with (p**_LOG_SCALE).bit_length() >= beta, i.e. p**16 >= 2**(beta - 1)."""
    # Four nested isqrts give the floor of the 16th root exactly.
    root = math.isqrt(math.isqrt(math.isqrt(math.isqrt(1 << (beta - 1)))))
    return root if root**_LOG_SCALE == 1 << (beta - 1) else root + 1


def _lcm_bound_holds(n_max: int, sieve: tuple[bytearray, dict[int, int]] | None = None) -> bool:
    """lcm(1..n) <= 3**n at every prime power n <= n_max, hence for all n <= n_max.

    ``bits``, the running sum of (p**_LOG_SCALE).bit_length() over the prime
    powers p**k <= n, exceeds _LOG_SCALE * log2 lcm(1..n); once it is at
    most _LOG_SCALE * n * 19/12 < _LOG_SCALE * n * log2(3), the bound holds.
    The summand is beta for every prime in [T(beta), T(beta + 1)), T being
    ``_least_with_bit_length``, so over that interval ``bits`` grows by beta
    per prime plus the summand of each higher prime power in it.  ``bits``
    never decreases and every event of the interval is at least its start
    lo, so one test of the interval's final sum against lo decides them all,
    and an interval that fails it gives False.  At n_max = LCM_N_MAX every
    interval passes, and a smaller n_max only cuts its last interval short,
    which lowers that interval's sum, so no n_max up to LCM_N_MAX gives False.
    """
    is_prime, higher = sieve or _sieve(n_max)
    view, powers = memoryview(is_prime), sorted(higher)
    bits, beta, lo, j = 0, _LOG_SCALE + 1, 2, 0
    while lo <= n_max:
        hi = min(_least_with_bit_length(beta + 1), n_max + 1)
        # the odd primes in [lo, hi) sit in slots lo // 2 .. hi // 2 - 1, one byte each
        primes = int.from_bytes(view[lo // 2 : hi // 2], "little").bit_count() + (lo <= 2 < hi)
        bits += beta * primes
        while j < len(powers) and powers[j] < hi:
            bits += (higher[powers[j]] ** _LOG_SCALE).bit_length()
            j += 1
        if _LOG2_3_DEN * bits > _LOG2_3_NUM * _LOG_SCALE * lo:
            return False
        beta, lo = beta + 1, hi
    return True


def verify_lcm_exponential_bound(n_max: int) -> bool:
    """Exact verification that lcm(1..n) <= 3**n for all n <= n_max.

    lcm(1..n) changes only when n is a prime power (it gains one factor of
    the prime), so it suffices to compare at those events; between events
    the left side is constant while 3**n grows.  The events are certified
    by small-integer log bounds one bit-length interval at a time, a test
    that decides every interval for every n_max up to LCM_N_MAX.
    """
    checked_int(n_max, _LCM_N_RULE, 1, LCM_N_MAX)
    return _lcm_bound_holds(n_max)


def bounds_to_csv(rows: Sequence[BoundRow]) -> str:
    """CSV rows e,lcm_e,pottmeyer,new_bound,nine_exp of ``bound_table`` rows."""
    if not isinstance(rows, Sequence) or not all(isinstance(r, BoundRow) for r in rows):
        raise PreconditionError(f"bounds_to_csv requires a sequence of BoundRow, got {rows!r}")
    lines, last, text = ["e,lcm_e,pottmeyer,new_bound,nine_exp"], None, ""
    for r in rows:
        # one decimal conversion per run of equal ints (an equal float or bool prints otherwise)
        if type(r.lcm_e) is not int or type(last) is not int or r.lcm_e != last:
            text = f"{r.lcm_e}"
        last = r.lcm_e
        lines.append(f"{r.e},{text},{r.pottmeyer!r},{r.new_bound!r},{r.nine_exp!r}")
    return "\n".join(lines) + "\n"
