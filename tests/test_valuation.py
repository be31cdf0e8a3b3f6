"""Valuation arithmetic: exact values, the infinity element, and the place gate."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import (
    INF,
    DiscPoint,
    Place,
    PreconditionError,
    RationalPoly,
    as_fraction,
    check_criterion,
    check_criterion_abstract,
    escape_threshold,
    good_reduction,
    in_value_group,
    is_finite,
    local_escape_rate,
    max_point,
    reduce_mod_prime_power,
    survey,
    val,
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
        with pytest.raises(PreconditionError):
            in_value_group(F(1, 2), 0)


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
        with pytest.raises(PreconditionError):
            Place(5, 0)


_PHI = RationalPoly([F(1, 3), 0, 1])  # X^2 + 1/3
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
    "survey": lambda pl: survey(_PHI, pl, 0.0),
}


@pytest.mark.parametrize("name", sorted(_PLACE_TAKERS))
def test_every_place_argument_is_checked_alike(name):
    take = _PLACE_TAKERS[name]
    for bad in (0, 1, 4, -3, 2.0, "2"):
        with pytest.raises(PreconditionError, match="place requires a prime"):
            take(bad)
    assert take(3) == take(Place(3))


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
        with pytest.raises(TypeError):
            as_fraction(0.5)
