"""Height-gap lower-bound curves and the lcm growth estimate."""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padicdyn
from padicdyn import bounds
from padicdyn import (
    PreconditionError,
    bound_table,
    bounds_to_csv,
    find_crossover,
    lcm_list,
    lcm_range,
    pottmeyer_bound,
    verify_lcm_exponential_bound,
)
from padicdyn.bounds import BOUND_TABLE_E_MAX, LCM_N_MAX


class TestLcmHelpers:
    def test_small_lists(self):
        assert lcm_list([1, 2, 3]) == (6, 3)
        assert lcm_list([4]) == (4, 4)
        assert lcm_list([2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2520, 10)

    def test_range_form(self):
        assert lcm_range(1) == 1
        assert lcm_range(10) == 2520

    def test_range_form_against_oracles(self):
        lcm = 1
        for n in range(1, 601):
            lcm = math.lcm(lcm, n)
            assert lcm_range(n) == lcm, n
        # lcm(1..n) is the product of the largest power of each prime <= n
        n, product = 10**5, 1
        for p in sympy.primerange(2, n + 1):
            q = p
            while q * p <= n:
                q *= p
            product *= q
        assert lcm_range(n) == product
        start = time.perf_counter()
        assert lcm_range(3 * 10**5).bit_length() > 3 * 10**5
        assert time.perf_counter() - start < 2

    def test_range_form_at_cap_is_a_balanced_product(self):
        # a left fold of its 78,734 factors, one per prime power, takes about 1.7 s
        start = time.perf_counter()
        lcm = lcm_range(LCM_N_MAX)
        assert time.perf_counter() - start < 1
        # The oracle multiplies chunks of 8 factors, then chunks of 8 of
        # those products, and so on: neither a left fold nor the pairwise tree.
        factors = [p for _, p in bounds._prime_powers(LCM_N_MAX)]
        while len(factors) > 1:
            factors = [math.prod(factors[i : i + 8]) for i in range(0, len(factors), 8)]
        assert lcm == factors[0]

    def test_refuses_n_above_cap(self):
        for take in (lcm_range, verify_lcm_exponential_bound):
            start = time.perf_counter()
            with pytest.raises(PreconditionError, match="LCM_N_MAX"):
                take(LCM_N_MAX + 1)
            assert time.perf_counter() - start < 0.1

    def test_rejects_bad_input(self):
        with pytest.raises(PreconditionError):
            lcm_list([])
        with pytest.raises(PreconditionError):
            lcm_list([3, 0])
        with pytest.raises(PreconditionError):
            lcm_list([2, -4])

    def test_list_form_against_fold(self):
        rng = random.Random(11)
        for _ in range(300):
            top = rng.choice((10, 100, 1000, 10**4))
            vals = [rng.randint(1, top) for _ in range(rng.randint(1, 30))]
            assert lcm_list(vals) == (math.lcm(*vals), max(vals)), vals
        start = time.perf_counter()
        lcm, top = lcm_list(range(1, 2 * 10**5))
        assert time.perf_counter() - start < 2
        assert (lcm, top) == (lcm_range(2 * 10**5 - 1), 2 * 10**5 - 1)

    def test_list_form_has_no_cap_and_refuses_bools(self):
        vals = [LCM_N_MAX + 1, 10**7, 2**40, 999_983]
        start = time.perf_counter()
        assert lcm_list(vals) == (math.lcm(*vals), 2**40)
        assert time.perf_counter() - start < 0.1
        with pytest.raises(PreconditionError, match="positive integers"):
            lcm_list([2, True])

    @pytest.mark.parametrize("values", [None, 5])
    def test_list_form_refuses_a_non_iterable(self, values):
        with pytest.raises(PreconditionError) as err:
            lcm_list(values)
        assert str(err.value) == f"lcm requires an iterable of positive integers, got {values!r}"


class TestBoundTable:
    def test_lcm_column(self):
        rows = bound_table(10)
        assert [r.lcm_e for r in rows] == [1, 2, 6, 12, 60, 60, 420, 840, 2520, 2520]

    def test_known_curve_values(self):
        rows = {r.e: r for r in bound_table(8)}
        # factorial-type curve: C * exp(2e) / e**(2e+1)
        assert math.isclose(rows[1].pottmeyer, math.exp(2.0), rel_tol=1e-12)
        assert math.isclose(rows[5].pottmeyer, math.exp(10) / 5**11, rel_tol=1e-12)
        # lcm curve: C / lcm(1..e)**2
        assert math.isclose(rows[5].new_bound, 1.0 / 3600.0, rel_tol=1e-12)
        assert math.isclose(rows[8].nine_exp, 9.0**-8, rel_tol=1e-12)

    def test_lcm_bound_dominates_ninth_powers(self):
        for row in bound_table(200):
            assert row.new_bound >= row.nine_exp

    def test_scaling_constant(self):
        plain = bound_table(6)
        scaled = bound_table(6, c=10.0)
        for a, b in zip(plain, scaled):
            assert math.isclose(b.pottmeyer, 10 * a.pottmeyer, rel_tol=1e-12)
            assert math.isclose(b.new_bound, 10 * a.new_bound, rel_tol=1e-12)
        # C = inf is a constant too: every float column is then inf
        assert {r.new_bound for r in bound_table(6, c=math.inf)} == {math.inf}

    def test_rejects_empty_table(self):
        with pytest.raises(PreconditionError):
            bound_table(0)

    def test_rejects_e_max_above_cap(self):
        with pytest.raises(PreconditionError, match="BOUND_TABLE_E_MAX"):
            bound_table(BOUND_TABLE_E_MAX + 1)

    def test_row_is_an_immutable_named_tuple(self):
        assert bounds.BoundRow._fields == ("e", "lcm_e", "pottmeyer", "new_bound", "nine_exp")
        row = bounds.BoundRow(3, 6, 0.5, 0.25, 0.125)
        assert repr(row) == "BoundRow(e=3, lcm_e=6, pottmeyer=0.5, new_bound=0.25, nine_exp=0.125)"
        assert tuple(row) == (3, 6, 0.5, 0.25, 0.125)
        with pytest.raises(AttributeError):
            row.e = 4
        with pytest.raises(AttributeError):
            bound_table(2)[0].lcm_e = 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3000),
        st.one_of(
            st.sampled_from([5e-324, 1e-300, 1e308]),
            st.integers(-1000, 1000).map(lambda k: 2.0**k),
        ),
    )
    # At the cap the float columns reach 0.0 in a different order for each C
    # (at 1e308 at e = 175, 662 and 733), never for C = inf, and log C of the
    # Fraction is above float range.
    @example(BOUND_TABLE_E_MAX, 5e-324)
    @example(BOUND_TABLE_E_MAX, 0.004)
    @example(BOUND_TABLE_E_MAX, 1.0)
    @example(BOUND_TABLE_E_MAX, 1e308)
    @example(BOUND_TABLE_E_MAX, math.inf)
    @example(BOUND_TABLE_E_MAX, Fraction(10**400, 3))
    def test_csv_matches_per_row_reference(self, e_max, c):
        # compared as lists of lines, so a failure names the first row that
        # differs rather than diffing two texts of up to 17 MB
        got, want = bounds_to_csv(bound_table(e_max, c)), _reference_csv(e_max, c)
        assert got.split("\n") == want.split("\n")

    @pytest.mark.parametrize("c", [1.0, 1e308, math.inf])
    def test_no_exp_after_a_column_s_first_zero(self, monkeypatch, c):
        rows = bound_table(BOUND_TABLE_E_MAX, c)
        calls, exp = [], bounds._exp_or_inf
        monkeypatch.setattr(bounds, "_exp_or_inf", lambda logv: calls.append(logv) or exp(logv))
        assert bound_table(BOUND_TABLE_E_MAX, c) == rows
        expected = 0
        for field in ("pottmeyer", "new_bound", "nine_exp"):
            last = next((r.e for r in rows if getattr(r, field) == 0.0), BOUND_TABLE_E_MAX)
            # new_bound takes one exp per distinct lcm(1..e), the others one per row
            taken = {r.lcm_e for r in rows[:last]} if field == "new_bound" else rows[:last]
            expected += len(taken)
        assert len(calls) == expected

    @pytest.mark.parametrize(
        "lcms",
        [
            # equal values held in distinct objects
            [3**4000, int(str(3**4000)), int(str(3**4000)), 10**30, int("1" + "0" * 30)],
            # a new value on every row
            [2**k for k in range(40)],
            # equal by value, but printed otherwise
            [1, 1.0, True, 1, 1, 0.0, -0.0, 0, False, 0],
        ],
    )
    def test_csv_reuses_lcm_text_only_for_equal_ints(self, lcms):
        rows = tuple(bounds.BoundRow(e, v, 0.5, 0.25, 0.0) for e, v in enumerate(lcms, 1))
        expected = ["e,lcm_e,pottmeyer,new_bound,nine_exp"]
        expected += [f"{r.e},{r.lcm_e},{r.pottmeyer!r},{r.new_bound!r},{r.nine_exp!r}" for r in rows]
        assert bounds_to_csv(rows) == "\n".join(expected) + "\n"
        assert bounds_to_csv(list(rows)) == bounds_to_csv(rows)

    @pytest.mark.parametrize("rows", [None, "ab", [(1, 1, 1.0, 1.0, 1.0)]])
    def test_csv_refuses_rows_of_the_wrong_kind(self, rows):
        with pytest.raises(PreconditionError) as err:
            bounds_to_csv(rows)
        assert str(err.value) == f"bounds_to_csv requires a sequence of BoundRow, got {rows!r}"

    def test_certificate_survives_optimized_mode(self, monkeypatch):
        # the certificate is an explicit raise, not an assert, so python -O
        # keeps it
        script = (
            "from padicdyn import bounds\n"
            "bounds._LOG2_3_NUM = 0\n"
            "try:\n"
            "    bounds.bound_table(50)\n"
            "except AssertionError:\n"
            "    print(__debug__, 'raised')\n"
        )
        src = str(Path(padicdyn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        cmd = [sys.executable, "-O", "-c", script]
        done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False raised\n"
        monkeypatch.setattr(bounds, "_LOG2_3_NUM", 0)
        with pytest.raises(AssertionError, match="Rosser-Schoenfeld"):
            bound_table(50)

    def test_lcm_column_prints_up_to_cap(self):
        # bounds_to_csv writes lcm_e in decimal, which Python refuses beyond
        # 4,300 digits by default
        assert len(str(lcm_range(BOUND_TABLE_E_MAX))) < 4300


class TestCrossover:
    def test_crossover_at_six(self):
        # at e=5 the factorial-type curve is still above the lcm curve
        # (4.51e-4 vs 2.78e-4) and from e=6 on it drops below for good
        assert find_crossover(40) == 6
        rows = {r.e: r for r in bound_table(7)}
        assert rows[5].pottmeyer > rows[5].new_bound
        assert rows[6].pottmeyer < rows[6].new_bound

    def test_crossover_is_constant_independent(self):
        assert find_crossover(40, c=1e-6) == 6
        assert find_crossover(40, c=1e6) == 6
        assert find_crossover(40, c=math.inf) == 6

    def test_none_when_out_of_range(self):
        assert find_crossover(4) is None

    def test_pottmeyer_reference_value(self):
        assert math.isclose(pottmeyer_bound(5), 4.511020e-4, rel_tol=1e-6)


def _exp_or_inf(logv):
    try:
        return math.exp(logv)
    except OverflowError:
        return math.inf


def _reference_csv(e_max, c):
    """bounds_to_csv(bound_table(e_max, c)) with lcm(1..e) and every log taken
    afresh on every row; lcm(1..e) is printed whenever its value changes."""
    lines = ["e,lcm_e,pottmeyer,new_bound,nine_exp"]
    log_c = math.log(c.numerator) - math.log(c.denominator) if isinstance(c, Fraction) else math.log(c)
    lcm, text = 1, "1"
    for e in range(1, e_max + 1):
        if (step := math.lcm(lcm, e)) != lcm:
            lcm, text = step, str(step)
        pottmeyer = _exp_or_inf(log_c + 2 * e - (2 * e + 1) * math.log(e))
        new_bound = _exp_or_inf(log_c - 2 * math.log(lcm))
        nine_exp = _exp_or_inf(log_c - e * math.log(9))
        lines.append(f"{e},{text},{pottmeyer!r},{new_bound!r},{nine_exp!r}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _trial_division_flags():
    """Prime flags for 0..LCM_N_MAX by trial division: n >= 2 is prime when
    it shares no factor with the product of the primes p with p * p <= n."""
    flags, product = bytearray(LCM_N_MAX + 1), 1
    for n in range(2, LCM_N_MAX + 1):
        root = math.isqrt(n)
        if root * root == n and flags[root]:
            product *= root
        flags[n] = math.gcd(n, product) == 1
    return flags


def _trial_division_sieve(n_max):
    """What bounds._sieve(n_max) should return: prime flags for the odd numbers
    1, 3, 5, ... <= n_max (slot i for 2*i + 1) and {p**k: p} for k >= 2."""
    flags = _trial_division_flags()
    roots = itertools.compress(range(math.isqrt(n_max) + 1), flags)
    higher = {p**k: p for p in roots for k in range(2, n_max.bit_length()) if p**k <= n_max}
    return flags[1 : n_max + 1 : 2], higher


class TestSieve:
    def test_every_small_range_against_trial_division(self):
        for n_max in range(1, 2001):
            assert bounds._sieve(n_max) == _trial_division_sieve(n_max), n_max

    @pytest.mark.parametrize("n_max", [209, 210, 211, 420, 999_983, 10**6])
    def test_against_trial_division(self, n_max):
        assert bounds._sieve(n_max) == _trial_division_sieve(n_max)

    @pytest.mark.parametrize(
        "n_max, excess", [(1, 2), (2, 2), (10, 2), (211, 11), (2000, 1000), (10**4, 9000), (10**6, 999_000)]
    )
    def test_prime_powers_against_trial_division(self, n_max, excess):
        # from n_max's own sieve, and cut from one excess numbers longer
        flags, higher = _trial_division_flags(), _trial_division_sieve(n_max)[1]
        primes = [(n, n) for n in range(n_max + 1) if flags[n]]
        expected = sorted(primes + list(higher.items()))
        assert bounds._prime_powers(n_max) == expected
        assert bounds._prime_powers(n_max, bounds._sieve(n_max + excess)) == expected


def _record_interval_work(monkeypatch):
    """Lists that record each ``_sieve`` call's arguments and each interval
    start ``_least_with_bit_length`` is asked for, the calls still made."""
    sieve, start = bounds._sieve, bounds._least_with_bit_length
    sieved, started = [], []
    monkeypatch.setattr(bounds, "_sieve", lambda *a: sieved.append(a) or sieve(*a))
    monkeypatch.setattr(bounds, "_least_with_bit_length", lambda beta: started.append(beta) or start(beta))
    return sieved, started


def _exact_lcm_walk(n_max):
    """(n, p, lcm(1..n), 3**n) at each prime power n = p**k <= n_max, from a
    smallest-prime-factor sieve and running big-integer products."""
    spf = list(range(n_max + 1))
    for i in range(2, math.isqrt(n_max) + 1):
        if spf[i] == i:
            for j in range(i * i, n_max + 1, i):
                if spf[j] == j:
                    spf[j] = i
    lcm_val = three_pow = 1
    last_n = 0
    for n in range(2, n_max + 1):
        p = q = spf[n]
        while q < n:
            q *= p
        if q != n:
            continue
        lcm_val *= p
        three_pow *= 3 ** (n - last_n)
        last_n = n
        yield n, p, lcm_val, three_pow


def _interval_sums(n_max):
    """(lo, hi, bits) for each bit-length interval [lo, hi) of the certificate's
    walk up to n_max, bits being the sum of (p**16).bit_length() over the prime
    powers p**k < hi, with the primes taken from trial division."""
    flags = _trial_division_flags()
    summands = sorted(
        (p**k, (p**16).bit_length()) for p in range(2, n_max + 1) if flags[p] for k in range(1, 21) if p**k <= n_max
    )
    lo, beta, j, bits = 2, 17, 0, 0
    while lo <= n_max:
        hi = min(bounds._least_with_bit_length(beta + 1), n_max + 1)
        while j < len(summands) and summands[j][0] < hi:
            bits += summands[j][1]
            j += 1
        yield lo, hi, bits
        beta, lo = beta + 1, hi


class TestLcmExponentialBound:
    def test_holds_to_one_hundred_thousand(self):
        assert verify_lcm_exponential_bound(100_000) is True

    def test_holds_to_one_million(self):
        assert verify_lcm_exponential_bound(10**6) is True

    def test_log2_of_three_lower_bound(self):
        assert (bounds._LOG2_3_NUM, bounds._LOG2_3_DEN) == (19, 12)
        assert 2**19 < 3**12

    def test_interval_starts_against_brute_force(self):
        # T(beta) is the least p whose summand (p**16).bit_length() is >= beta
        for beta in range(17, 16 * 20 + 2):
            t = bounds._least_with_bit_length(beta)
            assert (t - 1) ** 16 < 2 ** (beta - 1) <= t**16, beta

    def test_integer_bound_is_sound_against_exact_walk(self, monkeypatch):
        # the interval test alone decides every event up to LCM_N_MAX: one
        # sieve, and one start per bit-length interval, the docstring's 303
        # (summands beta = 17..319, so starts T(18)..T(320)); each event up
        # to 10**5 holds on exact integers
        events = bounds._prime_powers(100_000)
        sieved, started = _record_interval_work(monkeypatch)
        assert verify_lcm_exponential_bound(LCM_N_MAX) is True
        assert sieved == [(LCM_N_MAX,)]
        assert started == list(range(18, 321)) and len(started) == 303
        exact = list(_exact_lcm_walk(100_000))
        assert events == [(n, p) for n, p, _, _ in exact]
        for n, _, lcm_val, three_pow in exact:
            assert lcm_val <= three_pow, n

    @pytest.mark.parametrize("num, den", [(29, 20), (43, 30), (7, 5)])
    def test_integer_bound_never_certifies_a_false_claim(self, monkeypatch, num, den):
        # with log2(3) > num/den in place of 19/12 the certified claim,
        # lcm(1..n)**den < 2**(num*n), is false at some n <= 3000, so a sound
        # integer test must not certify it
        assert any((lcm_val**den).bit_length() > num * n for n, _, lcm_val, _ in _exact_lcm_walk(3000))
        monkeypatch.setattr(bounds, "_LOG2_3_NUM", num)
        monkeypatch.setattr(bounds, "_LOG2_3_DEN", den)
        assert verify_lcm_exponential_bound(3000) is False

    def test_agrees_with_exact_walk_without_big_integers(self, monkeypatch):
        # each call sieves its own n_max once and starts each bit-length
        # interval at most once, in order: no lcm is ever built
        exact = list(_exact_lcm_walk(100_000))
        first_false = next((n for n, _, lcm, three in exact if lcm > three), math.inf)
        sieved, started = _record_interval_work(monkeypatch)
        rng = random.Random(18)
        for n_max in [*range(1, 2001), *(rng.randint(1, 100_000) for _ in range(200))]:
            sieved.clear()
            started.clear()
            assert verify_lcm_exponential_bound(n_max) is (n_max < first_false), n_max
            assert sieved == [(n_max,)], n_max
            assert started == list(range(18, 18 + len(started))), n_max

    def test_each_interval_sum_decides_at_its_own_ratio(self, monkeypatch):
        # With log2(3) replaced by r, the walk up to the end of interval k holds
        # exactly when bits/(16*lo) <= r on every interval up to k.  Taking r at
        # interval k's own ratio and just below it makes a prime counted once
        # too often or too rarely show, such as an odd prime at an interval's
        # edge (the slot of an odd lo is lo // 2, not (lo + 1) // 2), or 2.
        worst, checked = Fraction(0), 0
        for lo, hi, bits in _interval_sums(100_000):
            ratio = Fraction(bits, 16 * lo)
            worst = max(worst, ratio)
            if hi == lo:
                continue
            for r in (ratio, ratio - Fraction(1, 16 * lo << 40)):
                monkeypatch.setattr(bounds, "_LOG2_3_NUM", r.numerator)
                monkeypatch.setattr(bounds, "_LOG2_3_DEN", r.denominator)
                assert verify_lcm_exponential_bound(hi - 1) is (worst <= r), (lo, hi, r)
            checked += 1
        assert checked > 200

    def test_small_prefix_exact(self):
        lcm = 1
        for n in range(1, 400):
            lcm = math.lcm(lcm, n)
            assert lcm <= 3**n

    def test_rejects_bad_limit(self):
        with pytest.raises(PreconditionError):
            verify_lcm_exponential_bound(0)


class TestCsv:
    def test_header_and_rows(self):
        text = bounds_to_csv(bound_table(3))
        lines = text.strip().splitlines()
        assert lines[0] == "e,lcm_e,pottmeyer,new_bound,nine_exp"
        assert len(lines) == 4
        assert lines[1].startswith("1,1,")
        assert lines[3].startswith("3,6,")
