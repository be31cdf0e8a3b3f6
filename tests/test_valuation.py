"""Valuation arithmetic: exact values, the infinity element, and the place gate."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import padicdyn
from padicdyn import bounds, errors, primes, valuation
from padicdyn import (
    INF,
    DiscPoint,
    Place,
    PreconditionError,
    RationalPoly,
    archimedean_escape_rate,
    as_fraction,
    bound_table,
    canonical_height,
    check_criterion,
    check_criterion_abstract,
    disc_point_from_json_dict,
    escape_threshold,
    factorize,
    filled_julia_membership,
    find_crossover,
    good_reduction,
    in_value_group,
    is_finite,
    is_preperiodic,
    is_prime,
    lcm_list,
    lcm_range,
    local_escape_rate,
    max_point,
    newton_polygon,
    pottmeyer_bound,
    reduce_mod_prime_power,
    survey,
    val,
    verify_lcm_exponential_bound,
    weil_height,
)


class TestVal:
    def test_zero_is_infinite(self):
        assert val(0, 5) is INF
        assert not is_finite(val(0, 2))

    def test_half_at_two(self):
        # 1/2 = 2^(-1) * unit
        assert val(F(1, 2), 2) == -1

    def test_twelve_at_two(self):
        # 12 = 4 * 3
        assert val(12, 2) == 2

    def test_string_and_int_inputs(self):
        assert val("3/4", 2) == -2
        assert val("-8", 2) == 3
        assert val(F(50), 5) == 2

    def test_result_is_fraction(self):
        assert isinstance(val(12, 2), F)

    def test_rejects_bad_modulus(self):
        # primality itself is enforced at Place construction; val gates the rest
        for bad in (1, 0, -3):
            with pytest.raises(PreconditionError):
                val(3, bad)
        with pytest.raises(PreconditionError):
            val(3, 2.0)


class TestInfinity:
    def test_total_order_against_rationals(self):
        assert INF > F(10**9)
        assert F(-3, 7) < INF
        assert not (INF < F(0))
        assert min([F(2), INF, F(-1)]) == F(-1)
        assert min([INF, INF]) is INF

    def test_absorbing_addition(self):
        assert INF + F(3) is INF
        assert F(3) + INF is INF
        assert INF + INF is INF

    def test_positive_scaling_only(self):
        assert 2 * INF is INF
        with pytest.raises(ValueError):
            -1 * INF
        with pytest.raises(ValueError):
            0 * INF

    def test_subtraction_rules(self):
        assert INF - F(1) is INF
        with pytest.raises(TypeError):
            F(1) - INF  # minus infinity is not representable
        with pytest.raises(ValueError):
            INF - INF
        with pytest.raises(ValueError, match="-INF is not a valuation"):
            -INF

    def test_equality_is_identity(self):
        assert INF == INF
        assert INF != F(10**12)
        assert INF != float("inf")

    def test_incomparable_types_raise(self):
        with pytest.raises(TypeError):
            INF < "x"


class TestValueGroup:
    def test_half_not_in_unramified_group(self):
        assert in_value_group(F(1, 2), 1) is False

    def test_integer_in_unramified_group(self):
        assert in_value_group(3, 1) is True

    def test_half_in_ramified_group(self):
        assert in_value_group(F(1, 2), 2) is True

    def test_requires_positive_index(self):
        for e in (0, True):
            with pytest.raises(PreconditionError):
                in_value_group(F(1, 2), e)


class TestPlace:
    def test_accepts_prime_and_ramification(self):
        pl = Place(7, 3)
        assert pl.p == 7 and pl.e == 3

    def test_default_ramification(self):
        assert Place(2).e == 1

    def test_rejects_composite(self):
        with pytest.raises(PreconditionError):
            Place(6)

    def test_rejects_bad_ramification(self):
        for e in (0, True):
            with pytest.raises(PreconditionError):
                Place(5, e)


def test_precondition_error_is_one_class():
    assert padicdyn.PreconditionError is errors.PreconditionError
    assert valuation.PreconditionError is primes.PreconditionError is PreconditionError
    assert issubclass(PreconditionError, ValueError)


@pytest.mark.parametrize("n", [0, -12])
def test_factorize_rejects_non_positive(n):
    with pytest.raises(PreconditionError, match="positive integer"):
        factorize(n)


def test_factorize_refuses_factors_out_of_reach():
    # a 50-digit semiprime: Pollard rho would need about 10**12 steps
    n = (10**24 + 7) * (10**25 + 13)
    with pytest.raises(PreconditionError, match="FACTORIZE_RHO_STEPS"):
        factorize(n)
    assert factorize(2**3 * 999_983 * 1_000_003) == {2: 3, 999_983: 1, 1_000_003: 1}


def test_factorize_against_plain_trial_division():
    # factorize stops dividing once p*p > n; plain trial division by every
    # prime up to 316 (316**2 > 10**5), with no early stop, must agree
    limit = 10**5
    divisors = [q for q in range(2, math.isqrt(limit) + 1) if all(q % r for r in range(2, q))]
    for n in range(1, limit + 1):
        expected, rest = {}, n
        for q in divisors:
            while rest % q == 0:
                expected[q] = expected.get(q, 0) + 1
                rest //= q
        if rest > 1:
            expected[rest] = 1
        got = factorize(n)
        assert got == expected and list(got) == sorted(got), n
    # cofactors in (47**2, 53**2], left once the primes up to 47 are divided
    # out, reach the primality test and Pollard rho: all prime but 53**2
    for c in range(47**2 + 1, 53**2 + 1):
        for n in (c * 2**40, c * 1_000_003):
            assert factorize(n) == sympy.factorint(n), n



# psi_k: the least strong pseudoprime to the first k prime bases (Sorenson
# and Webster, Math. Comp. 86 (2017)).  psi_13 is _MR_DETERMINISTIC_LIMIT.
_PSI9 = 3_825_123_056_546_413_051
_PSI12 = 318_665_857_834_031_151_167_461
_PSI13 = 3_317_044_064_679_887_385_961_981
_CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 75361)


def test_is_prime_and_factorize_against_sympy():
    assert primes._MR_DETERMINISTIC_LIMIT == _PSI13
    assert not any(is_prime(n) for n in (1, 0, -1, -2, -7))
    rng = random.Random(2017)
    small = [rng.randrange(1, 10**12) for _ in range(400)]
    small += [*_CARMICHAEL, _PSI9]
    small += [q**k for q in (2, 3, 47, 53, 999_983, 1_000_003) for k in (1, 2, 3)]
    for n in small:
        assert is_prime(n) == sympy.isprime(n), n
        assert factorize(n) == sympy.factorint(n), n
    # psi_12 passes the first 12 bases; from psi_13 on the random witnesses
    # join in: known primes, their products with small primes, and random n
    big = [_PSI12, _PSI13, 2**89 - 1, 2**107 - 1, 2**127 - 1, 53 * (2**89 - 1)]
    big += [rng.randrange(_PSI13, 2**100) for _ in range(200)]
    for n in big:
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(50):
        n = math.prod(int(sympy.nextprime(rng.randrange(10**6))) for _ in range(6))
        assert factorize(n) == sympy.factorint(n), n


def test_strong_pseudoprime_to_twelve_bases_is_no_place():
    assert not is_prime(_PSI12)
    with pytest.raises(PreconditionError, match="place requires a prime"):
        Place(_PSI12)
    # its least factor, about 4*10**11, lies past the reach factorize promises,
    # so the rho walk may find it or be refused, but never call psi_12 prime
    try:
        assert factorize(_PSI12) == {399_165_290_221: 1, 798_330_580_441: 1}
    except PreconditionError as exc:
        assert "FACTORIZE_RHO_STEPS" in str(exc)


_PHI = RationalPoly([F(1, 3), 0, 1])  # X^2 + 1/3


def _reduce_mod_prime_power(pl):
    """reduce_mod_prime_power(1/3, pl, 2).  At p = 1 (or True, equal to it)
    an unchecked valuation loop never ends, so that call runs in a fresh
    interpreter under a timeout, and its PreconditionError is raised here."""
    if not (isinstance(pl, int) and pl == 1):
        return reduce_mod_prime_power(F(1, 3), pl, 2)
    script = (
        "from fractions import Fraction\n"
        "from padicdyn import PreconditionError, reduce_mod_prime_power\n"
        "try:\n"
        f"    reduce_mod_prime_power(Fraction(1, 3), {pl!r}, 2)\n"
        "except PreconditionError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(padicdyn.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=10
    )
    assert done.returncode == 0, done.stderr
    if done.stdout:
        raise PreconditionError(done.stdout.strip())


_PLACE_TAKERS = {
    "DiscPoint": lambda pl: DiscPoint(F(1, 3), 1, pl),
    "escape_threshold": lambda pl: escape_threshold(_PHI, pl),
    "max_point": lambda pl: max_point(RationalPoly([0, 0, 1]), 0, pl),
    "good_reduction": lambda pl: good_reduction(_PHI, pl),
    "check_criterion": lambda pl: check_criterion(_PHI, pl),
    "check_criterion_abstract": lambda pl: check_criterion_abstract(
        [(0, F(-1)), (2, F(0))], 2, pl
    ),
    "local_escape_rate": lambda pl: local_escape_rate(_PHI, F(2, 3), pl),
    "reduce_mod_prime_power": _reduce_mod_prime_power,
    "survey": lambda pl: survey(_PHI, pl, 0.0),
    "val": lambda pl: val(F(2, 3), pl),
}


@pytest.mark.parametrize("name", sorted(_PLACE_TAKERS))
def test_every_place_argument_is_checked_alike(name):
    take = _PLACE_TAKERS[name]
    take(3)  # a warm place memo must still refuse what equals 3 but is no int
    for bad in (0, 1, 4, -3, 2.0, "2", True, F(3)):
        with pytest.raises(PreconditionError, match="place requires a prime"):
            take(bad)
    assert take(3) == take(Place(3))


# Every public function that takes a count, each at its count argument.
_COUNT_TAKERS = {
    "Place.e": lambda n: Place(3, n),
    "RationalPoly.iterate": lambda n: _PHI.iterate(n),
    "RationalPoly.monomial": lambda n: RationalPoly.monomial(n),
    "bound_table": lambda n: bound_table(n),
    "check_criterion_abstract": lambda n: check_criterion_abstract(
        [(0, F(-1)), (2, F(0))], n, 3
    ),
    "disc_point_from_json_dict": lambda n: disc_point_from_json_dict(
        {"center": "1/3", "rho": "0", "p": n}
    ),
    "filled_julia_membership": lambda n: filled_julia_membership(
        _PHI, DiscPoint(F(1, 3), INF, 3), n
    ),
    "factorize": lambda n: factorize(n),
    "find_crossover": lambda n: find_crossover(n),
    "in_value_group": lambda n: in_value_group(F(1, 2), n),
    "is_prime": lambda n: is_prime(n),
    "lcm_list": lambda n: lcm_list([3, n]),
    "lcm_range": lambda n: lcm_range(n),
    "local_escape_rate": lambda n: local_escape_rate(_PHI, F(2, 3), 3, n),
    "log_pottmeyer": lambda n: bounds.log_pottmeyer(n),
    "newton_polygon": lambda n: newton_polygon([(n, F(0)), (5, F(1))]),
    "pottmeyer_bound": lambda n: pottmeyer_bound(n),
    "reduce_mod_prime_power": lambda n: reduce_mod_prime_power(F(1, 3), 3, n),
    "verify_lcm_exponential_bound": lambda n: verify_lcm_exponential_bound(n),
}

# Every public function that takes a real tolerance, window or constant.
_CONSTANT_TAKERS = {
    "archimedean_escape_rate": lambda x: archimedean_escape_rate(_PHI, F(2, 3), x),
    "bound_table": lambda x: bound_table(3, x),
    "canonical_height": lambda x: canonical_height(_PHI, F(2, 3), x),
    "find_crossover": lambda x: find_crossover(3, x),
    "log_pottmeyer": lambda x: bounds.log_pottmeyer(3, x),
    "pottmeyer_bound": lambda x: pottmeyer_bound(3, x),
    "survey.eps": lambda x: survey(_PHI, 3, 0.0, x),
    "survey.max_height": lambda x: survey(_PHI, 3, x),
}


# A map with 1/3 and 1 as fixed points, so max_point has a preperiodic center.
_FIXING_THIRD_AND_ONE = RationalPoly([F(1, 3), F(-1, 3), 1])  # X + (X - 1/3)(X - 1)

# Every public function that takes a rational, each at its rational argument.
_RATIONAL_TAKERS = {
    "DiscPoint.center": lambda x: DiscPoint(x, 1, 3),
    "RationalPoly": lambda x: RationalPoly([x, 1]),
    "RationalPoly.__call__": lambda x: _PHI(x),
    "archimedean_escape_rate": lambda x: archimedean_escape_rate(_PHI, x),
    "canonical_height": lambda x: canonical_height(_PHI, x),
    "in_value_group": lambda x: in_value_group(x, 2),
    "is_preperiodic": lambda x: is_preperiodic(_PHI, x),
    "local_escape_rate": lambda x: local_escape_rate(_PHI, x, 3),
    "max_point": lambda x: max_point(_FIXING_THIRD_AND_ONE, x, 3),
    "reduce_mod_prime_power": lambda x: reduce_mod_prime_power(x, 3, 2),
    "taylor_coefficients": lambda x: _PHI.taylor_coefficients(x),
    "val": lambda x: val(x, 3),
    "weil_height": lambda x: weil_height(x),
}

# Every public function that takes a rational-or-INF valuation; index 0 of
# the polygon data must be finite, so the value sits at an interior index.
_VALUATION_TAKERS = {
    "DiscPoint.rho": lambda v: DiscPoint(F(1, 3), v, 3),
    "check_criterion_abstract": lambda v: check_criterion_abstract(
        [(0, F(-1)), (1, v), (2, F(0))], 2, 3
    ),
    "newton_polygon": lambda v: newton_polygon([(0, F(0)), (1, v), (2, F(1))]),
}


def _leaks(takers, good, bads):
    """The calls among takers that fail on a good value, or that answer or
    raise anything but PreconditionError("..., got {bad!r}") on a bad one."""
    leaks = []
    for name, take in takers.items():
        for x in good:
            take(x)
        for bad in bads:
            try:
                take(bad)
            except PreconditionError as exc:
                if not str(exc).endswith(f"got {bad!r}"):
                    leaks.append(f"{name}({bad!r}): {exc}")
            except Exception as exc:
                leaks.append(f"{name}({bad!r}) raised {exc!r}")
            else:
                leaks.append(f"{name}({bad!r}) answered")
    return leaks


def test_every_count_argument_is_checked_alike():
    assert _leaks(_COUNT_TAKERS, [2], [True, 2.0, "2", None, F(3)]) == []


def test_every_rational_argument_is_checked_alike():
    bads = [0.5, True, None, "1e5", "inf"]
    assert _leaks(_RATIONAL_TAKERS, [F(1, 3), 1, "1/3"], bads) == []
    assert reduce_mod_prime_power("1/3", 3, 2) == reduce_mod_prime_power(F(1, 3), 3, 2)


def test_every_valuation_argument_is_checked_alike():
    bads = [0.5, True, None, "INF", float("inf")]
    assert _leaks(_VALUATION_TAKERS, [F(1, 2), 1, INF, "inf"], bads) == []
    assert DiscPoint(F(1, 3), "inf", 3) == DiscPoint(F(1, 3), INF, 3)


def test_every_constant_argument_is_checked_alike():
    bads = [True, "2", None, math.nan, -1.0]
    assert _leaks(_CONSTANT_TAKERS, [0.5, F(1, 2), 1], bads) == []
    # float(C) overflows here; log C = log(num) - log(den) does not
    for take in (_CONSTANT_TAKERS["bound_table"], _CONSTANT_TAKERS["pottmeyer_bound"]):
        assert take(F(10**400, 3)) == take(10**400 // 3)
    assert all(x == math.inf for row in bound_table(3, F(10**400, 3)) for x in row[2:])


class TestReduceModPrimePower:
    def test_integral_representative(self):
        # 7/3 mod 8: inverse of 3 is 3, and 7*3 = 21 = 5 mod 8
        assert reduce_mod_prime_power(F(7, 3), 2, 3) == 5

    def test_negative_valuation_kept(self):
        assert reduce_mod_prime_power(F(1, 2), 2, 3) == F(1, 2)

    def test_high_valuation_reduces_to_zero(self):
        assert reduce_mod_prime_power(F(8), 2, 3) == 0

    def test_congruence_invariant(self):
        rng = random.Random(5)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            k = rng.randint(-2, 6)
            num = rng.randint(-50, 50)
            den = rng.randint(1, 50)
            while den % p == 0:
                den += 1
            x = F(num, den)
            r = reduce_mod_prime_power(x, p, k)
            # the representative differs from x by something of valuation >= k
            assert val(x - r, p) >= k


def _plain_int_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestIntValuation:
    def test_matches_the_plain_loop(self):
        rng = random.Random(41)
        for _ in range(3000):
            p = rng.choice([2, 3, 5, 7, 11, 97, 2**61 - 1])
            v = rng.choice([0, 1, 2, 3, rng.randint(0, 40), rng.randint(0, 2000)])
            m = rng.randint(1, 10 ** rng.randint(1, 80))
            n = rng.choice([1, -1]) * m * p**v
            assert valuation._int_valuation(n, p) == _plain_int_valuation(n, p), (n, p)

    def test_a_high_power_is_quick(self):
        # The plain loop takes one big division per factor: about 0.19 s on a
        # 2-vCPU Xeon with Python 3.11.
        n = 7**20000 * 3
        start = time.perf_counter()
        assert valuation._int_valuation(n, 7) == 20000
        assert time.perf_counter() - start < 0.05


def test_reimporting_the_package_frees_the_old_copy():
    # A typing.Union alias of a package class sits in typing's cache, which
    # would keep every earlier imported copy of the package alive.
    script = (
        "import gc, importlib, sys, weakref\n"
        "import padicdyn\n"
        "old = weakref.ref(type(padicdyn.INF))\n"
        "for name in [m for m in sys.modules if m.split('.')[0] == 'padicdyn']:\n"
        "    del sys.modules[name]\n"
        "del padicdyn\n"
        "importlib.import_module('padicdyn')\n"
        "gc.collect()\n"
        "assert old() is None, old()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(padicdyn.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", script], env=env, timeout=10, check=True)


FRACTIONS = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)
PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13, 97])


class TestAlgebraicLaws:
    @given(FRACTIONS, FRACTIONS, PRIMES)
    def test_multiplicativity(self, x, y, p):
        if x != 0 and y != 0:
            assert val(x * y, p) == val(x, p) + val(y, p)

    @given(FRACTIONS, FRACTIONS, PRIMES)
    def test_ultrametric(self, x, y, p):
        vx, vy = val(x, p), val(y, p)
        vs = val(x + y, p)
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)

    @given(FRACTIONS, PRIMES)
    def test_inverse_cancels(self, x, p):
        if x != 0:
            assert val(x, p) + val(1 / x, p) == 0

    def test_bulk_random_pairs(self):
        # high-volume exact check of both laws on seeded random rationals
        rng = random.Random(20260817)
        primes = [2, 3, 5, 7, 11, 13]
        for _ in range(10_000):
            p = rng.choice(primes)
            x = F(rng.randint(-999, 999), rng.randint(1, 999))
            y = F(rng.randint(-999, 999), rng.randint(1, 999))
            if x == 0 or y == 0:
                continue
            assert val(x * y, p) == val(x, p) + val(y, p)
            vx, vy, vs = val(x, p), val(y, p), val(x + y, p)
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)
            assert val(x, p) + val(1 / x, p) == 0


class TestAsFraction:
    def test_coercions(self):
        assert as_fraction(3) == F(3)
        assert as_fraction("5/8") == F(5, 8)
        assert as_fraction(F(2, 7)) == F(2, 7)

    def test_rejects_floats(self):
        with pytest.raises(PreconditionError, match="got 0.5"):
            as_fraction(0.5)

    def test_strings_are_sign_num_den_only(self):
        assert as_fraction("-12/8") == F(-3, 2) and as_fraction("+7") == F(7)
        # exponents would build 10**50000000 before any size check
        for text in ("1e-200000", "1e50000000", "2.5", " 1/2", "1_000", "1/-2",
                     "\u0661", "1/0", "1" * 5001, "", "inf"):
            with pytest.raises(PreconditionError, match="not a rational number"):
                as_fraction(text)
