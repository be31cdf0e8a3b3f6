"""Exact polynomial ring: evaluation, Taylor shifts, iteration, fixed points."""

import math
import random
import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import (
    DiscPoint,
    PreconditionError,
    RationalPoly,
    archimedean_escape_rate,
    canonical_height,
    check_criterion,
    escape_threshold,
    filled_julia_membership,
    format_polynomial,
    good_reduction,
    is_preperiodic,
    local_escape_rate,
    max_point,
    survey,
)
from padicdyn.polynomial import MAP_DEGREE_MAX, map_degree


def P(*ascending):
    return RationalPoly([F(c) for c in ascending])


_LCM_28 = math.lcm(*range(1, 29))
# a 50-digit semiprime whose factors are out of Pollard rho's reach
_SEMIPRIME = (10**24 + 7) * (10**25 + 13)


class TestRingBasics:
    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0).coefficients == (F(1), F(2))

    def test_degree_and_leading(self):
        q = P(F(1, 2), 1, 1, 0, 0, 1)
        assert q.degree == 5
        assert q.leading_coefficient == 1
        assert map_degree(q) == 5
        with pytest.raises(PreconditionError, match="no leading coefficient"):
            P().leading_coefficient

    def test_zero_polynomial_has_no_degree(self):
        assert P().is_zero
        with pytest.raises(PreconditionError):
            P(0).degree

    def test_arithmetic(self):
        a, b = P(1, 1), P(-1, 1)
        assert (a * b).coefficients == (F(-1), F(0), F(1))
        assert (a + b).coefficients == (F(0), F(2))
        assert (a - a).is_zero
        assert (-a).coefficients == (F(-1), F(-1))
        assert (2 * a).coefficients == (F(2), F(2))
        assert (1 - b).coefficients == (F(2), F(-1))

    def test_evaluation(self):
        q = P(5, -2, 0, 1)  # X^3 - 2X + 5
        assert q(F(2)) == 9
        assert q(F(-1, 2)) == F(47, 8)

    def test_hash_and_eq(self):
        assert P(1, 2) == P(1, 2)
        assert hash(P(1, 2)) == hash(P(1, 2))
        assert P(1, 2) != P(1, 2, 3)


class TestTaylorCoefficients:
    def test_square_shifted_by_one(self):
        # X^2 about a=1: (X-1)^2 + 2(X-1) + 1
        assert P(0, 0, 1).taylor_coefficients(F(1)) == [F(1), F(2), F(1)]

    def test_identity_about_zero(self):
        assert P(0, 1).taylor_coefficients(F(0)) == [F(0), F(1)]

    def test_cubic_about_two(self):
        # X^3 - 2X + 5 about a=2, coefficients of (X-2)^n
        assert P(5, -2, 0, 1).taylor_coefficients(F(2)) == [F(9), F(10), F(6), F(1)]

    def test_degree_cap(self):
        # every disc seminorm and pushforward runs this O(d**2) kernel
        binomials = [math.comb(MAP_DEGREE_MAX, n) for n in range(MAP_DEGREE_MAX + 1)]
        assert RationalPoly.monomial(MAP_DEGREE_MAX).taylor_coefficients(1) == binomials
        with pytest.raises(PreconditionError) as err:
            RationalPoly.monomial(MAP_DEGREE_MAX + 1).taylor_coefficients(1)
        assert str(err.value) == "Taylor expansion of degree 257 exceeds MAP_DEGREE_MAX = 256"

    @given(
        st.lists(st.fractions(max_denominator=50), min_size=1, max_size=7),
        st.fractions(max_denominator=20),
        st.fractions(max_denominator=20),
    )
    def test_shift_reproduces_evaluation(self, coeffs, a, b):
        q = RationalPoly(coeffs)
        shifted = q.taylor_coefficients(a)
        assert sum(c * (b - a) ** n for n, c in enumerate(shifted)) == q(b)


def _fraction_horner(coeffs, x):
    """Reference evaluation: Horner's rule on Fractions."""
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _fraction_shift(coeffs, a):
    """Reference Taylor shift: d(d+1)/2 Fraction multiply-adds in place."""
    c = list(coeffs) or [F(0)]
    d = len(c) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


_BIG = 10**40
_rationals = st.one_of(
    st.just(F(0)),
    st.fractions(max_denominator=12).filter(lambda q: abs(q.numerator) < 10**6),
    st.builds(F, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
)


def _same_fractions(got, want):
    if isinstance(want, F):
        got, want = [got], [want]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is F and g == w
        assert (g.numerator, g.denominator) == (w.numerator, w.denominator)


class TestIntegerKernels:
    """Horner and the Taylor shift on the integer form W*P agree exactly with
    the same algorithms run on Fractions."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_rationals, max_size=13), _rationals)
    def test_evaluation_matches_fraction_horner(self, coeffs, x):
        q = RationalPoly(coeffs)
        _same_fractions(q(x), _fraction_horner(q.coefficients, x))
        _same_fractions(q(x), _fraction_horner(q.coefficients, x))  # memoised form

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_rationals, max_size=13), _rationals)
    def test_taylor_shift_matches_fraction_shift(self, coeffs, a):
        q = RationalPoly(coeffs)
        _same_fractions(q.taylor_coefficients(a), _fraction_shift(q.coefficients, a))
        _same_fractions(q.taylor_coefficients(0), _fraction_shift(q.coefficients, F(0)))

    @settings(max_examples=4, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, MAP_DEGREE_MAX - 1), _rationals), max_size=6),
        _rationals,
        _rationals,
    )
    def test_kernels_at_the_degree_cap(self, terms, x, a):
        coeffs = [F(0)] * MAP_DEGREE_MAX + [F(1, 3)]
        for i, c in terms:
            coeffs[i] = c
        q = RationalPoly(coeffs)
        _same_fractions(q(x), _fraction_horner(q.coefficients, x))
        _same_fractions(q.taylor_coefficients(a), _fraction_shift(q.coefficients, a))

    def test_integer_arguments_and_strings(self):
        q = P(F(1, 2), 0, F(-3, 7), 5)
        assert q(2) == q(F(2)) == q("2") == _fraction_horner(q.coefficients, F(2))
        assert q.taylor_coefficients("-1/3") == _fraction_shift(q.coefficients, F(-1, 3))
        assert RationalPoly()(F(5, 3)) == 0
        assert RationalPoly().taylor_coefficients(1) == [F(0)]


class TestCompose:
    def test_samples(self):
        inner = P(1, 1)  # X + 1
        outer = P(0, 0, 1)  # X^2
        assert outer.compose(inner).coefficients == (F(1), F(2), F(1))

    @given(
        st.lists(st.fractions(max_denominator=12), min_size=1, max_size=5),
        st.lists(st.fractions(max_denominator=12), min_size=1, max_size=5),
        st.fractions(max_denominator=10),
    )
    def test_composition_evaluates_pointwise(self, outer_cs, inner_cs, x):
        outer, inner = RationalPoly(outer_cs), RationalPoly(inner_cs)
        assert outer.compose(inner)(x) == outer(inner(x))

    def test_degree_cap(self):
        x16 = RationalPoly.monomial(16)
        assert x16.compose(x16) == RationalPoly.monomial(MAP_DEGREE_MAX)
        started = time.perf_counter()
        with pytest.raises(PreconditionError) as err:
            RationalPoly.monomial(MAP_DEGREE_MAX + 1).compose(P(1, 1))
        assert time.perf_counter() - started < 0.1
        assert str(err.value) == "composition degree 257 exceeds MAP_DEGREE_MAX = 256"


class TestIterate:
    def test_square_twice(self):
        assert P(0, 0, 1).iterate(2) == P(0, 0, 0, 0, 1)

    def test_square_plus_one_twice(self):
        # (X^2+1)^2 + 1 = X^4 + 2X^2 + 2
        assert P(1, 0, 1).iterate(2) == P(2, 0, 2, 0, 1)

    def test_zeroth_iterate_is_identity(self):
        for q in (P(1, 0, 1), P(F(1, 2), 1, 1, 0, 0, 1)):
            assert q.iterate(0) == P(0, 1)

    def test_iteration_functional_equation(self):
        rng = random.Random(7)
        for _ in range(25):
            d = rng.randint(2, 3)
            q = RationalPoly(
                [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)] + [F(1)]
            )
            for m in range(3):
                assert q.iterate(m + 1) == q.compose(q.iterate(m))

    def test_degree_and_leading_growth(self):
        q = P(1, 0, 3)  # 3X^2 + 1
        for m in range(1, 5):
            it = q.iterate(m)
            assert it.degree == 2**m
            assert it.leading_coefficient == F(3) ** (2**m - 1)

    def test_degree_cap(self):
        assert P(0, 0, 1).iterate(8) == RationalPoly.monomial(MAP_DEGREE_MAX)
        for m in (9, 21):  # 2^9 = 512 > MAP_DEGREE_MAX
            with pytest.raises(PreconditionError) as err:
                P(0, 0, 1).iterate(m)
            assert str(err.value) == "composition degree 512 exceeds MAP_DEGREE_MAX = 256"

    def test_negative_iterate_rejected(self):
        with pytest.raises(PreconditionError):
            P(0, 0, 1).iterate(-1)

    def test_iteration_count_cap(self):
        # an affine map never exceeds the degree cap, so m itself is capped
        assert P(1, 1).iterate(MAP_DEGREE_MAX) == P(MAP_DEGREE_MAX, 1)
        for q, m in ((P(1, 1), MAP_DEGREE_MAX + 1), (P(0, 2), 10**9)):
            start = time.perf_counter()
            with pytest.raises(PreconditionError, match="MAP_DEGREE_MAX = 256"):
                q.iterate(m)
            assert time.perf_counter() - start < 0.1


class TestRationalFixedPoints:
    def test_square(self):
        assert P(0, 0, 1).rational_fixed_points() == [F(0), F(1)]

    def test_square_minus_x(self):
        assert P(0, -1, 1).rational_fixed_points() == [F(0), F(2)]

    def test_square_plus_one_has_none(self):
        assert P(1, 0, 1).rational_fixed_points() == []

    def test_fractional_coefficients(self):
        # 2X^2 - X = X  at X in {0, 1}
        assert P(0, -1, 2).rational_fixed_points() == [F(0), F(1)]
        # X^2 - 1/4 = X  at X = (1 ± sqrt(2))/2: no rational roots
        assert P(F(-1, 4), 0, 1).rational_fixed_points() == []
        # X^2 - 3/4 = X has roots 3/2 and -1/2
        assert P(F(-3, 4), 0, 1).rational_fixed_points() == [F(-1, 2), F(3, 2)]

    def test_identity_rejected(self):
        with pytest.raises(PreconditionError):
            P(0, 1).rational_fixed_points()

    def test_every_returned_point_is_fixed(self):
        rng = random.Random(11)
        for _ in range(50):
            d = rng.randint(2, 4)
            q = RationalPoly(
                [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
                + [F(rng.randint(1, 3))]
            )
            for x in q.rational_fixed_points():
                assert q(x) == x

    def test_matches_sympy_rational_roots(self):
        # planted roots r/s (r = 0 gives a zero root), some repeated, and now
        # and then a quadratic factor, under a content > 1 and a rational scale
        rng = random.Random(15)
        x = sympy.Symbol("x")
        for _ in range(150):
            d = rng.randint(2, 6)
            psi = P(rng.choice([1, 2, 6, 35]) * F(rng.randint(1, 9), rng.randint(1, 9)))
            while psi.degree < d:
                if psi.degree + 2 <= d and rng.random() < 0.3:
                    factor = P(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4))
                else:
                    factor = P(rng.randint(-9, 9), rng.randint(1, 6))
                psi = psi * factor
                if psi.degree + factor.degree <= d and rng.random() < 0.2:
                    psi = psi * factor
            oracle = sympy.Poly(
                [sympy.Rational(c.numerator, c.denominator) for c in reversed(psi.coefficients)],
                x,
            ).ground_roots()
            fixed = (psi + P(0, 1)).rational_fixed_points()
            assert fixed == sorted(F(int(r.p), int(r.q)) for r in oracle)

    @pytest.mark.parametrize(
        "phi, fixed",
        [
            (P(_LCM_28, 0, 0, _LCM_28), []),  # N X^3 + N
            (P(0, 1) + P(-1, 1) * P(_LCM_28, -1, _LCM_28), [F(1)]),  # X + (X-1)(N X^2 - X + N)
            (P(-_SEMIPRIME, 1, _SEMIPRIME), [F(-1), F(1)]),  # the content is never factored
        ],
        ids=["lcm-cubic", "lcm-three-slopes", "semiprime-content"],
    )
    def test_large_end_coefficients_answer_within_a_second(self, phi, fixed):
        started = time.perf_counter()
        assert phi.rational_fixed_points() == fixed
        assert time.perf_counter() - started < 1.0


class TestDerivative:
    def test_samples(self):
        assert P(5, -2, 0, 1).derivative() == P(-2, 0, 3)
        assert P(7).derivative().is_zero


class TestFormat:
    def test_descending_with_rationals(self):
        assert format_polynomial(P(F(1, 2), 1, 1, 0, 0, 1)) == "X^5 + X^2 + X + 1/2"

    def test_signs_and_coefficients(self):
        assert format_polynomial(P(F(-3, 4), 0, 2)) == "2*X^2 - 3/4"

    def test_zero(self):
        assert format_polynomial(P()) == "0"

    def test_identity(self):
        assert format_polynomial(P(0, 1)) == "X"


_MAP_TAKERS = {
    "escape_threshold": lambda phi: escape_threshold(phi, 2),
    "filled_julia_membership": lambda phi: filled_julia_membership(
        phi, DiscPoint(0, 0, 2)
    ),
    "max_point": lambda phi: max_point(phi, 0, 2),
    "good_reduction": lambda phi: good_reduction(phi, 2),
    "check_criterion": lambda phi: check_criterion(phi, 2),
    "local_escape_rate": lambda phi: local_escape_rate(phi, F(1, 2), 2),
    "archimedean_escape_rate": lambda phi: archimedean_escape_rate(phi, F(1, 2)),
    "is_preperiodic": lambda phi: is_preperiodic(phi, F(1, 2)),
    "canonical_height": lambda phi: canonical_height(phi, F(1, 2)),
    "survey": lambda phi: survey(phi, 2, 1.0),
}


_LOW = "dynamics requires a polynomial of degree >= 2"
_HIGH = f"map degree {MAP_DEGREE_MAX + 1} exceeds MAP_DEGREE_MAX = {MAP_DEGREE_MAX}"


@pytest.mark.parametrize(
    "bad, message",
    [(P(), _LOW), (P(3), _LOW), (P(1, 1), _LOW),
     (RationalPoly.monomial(MAP_DEGREE_MAX + 1), _HIGH),
     (None, "a map must be a RationalPoly, got None"),
     ("X^2", "a map must be a RationalPoly, got 'X^2'")],
    ids=["zero", "constant", "X+1", "above-cap", "none", "text"],
)
@pytest.mark.parametrize("name", sorted(_MAP_TAKERS))
def test_every_map_argument_is_checked_alike(name, bad, message):
    with pytest.raises(PreconditionError) as err:
        _MAP_TAKERS[name](bad)
    assert str(err.value) == message


_NOT_COEFFICIENTS = "coefficients must be an iterable of rationals, not text"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RationalPoly(None), f"{_NOT_COEFFICIENTS}, got None"),
        (lambda: RationalPoly(5), f"{_NOT_COEFFICIENTS}, got 5"),
        (lambda: RationalPoly("123"), f"{_NOT_COEFFICIENTS}, got '123'"),
        (lambda: P(0, 0, 1).compose(None), "a polynomial must be a RationalPoly, got None"),
        (lambda: format_polynomial(None), "a polynomial must be a RationalPoly, got None"),
    ],
    ids=["RationalPoly-None", "RationalPoly-int", "RationalPoly-text", "compose-None",
         "format_polynomial-None"],
)
def test_a_non_polynomial_argument_is_refused(call, message):
    with pytest.raises(PreconditionError) as err:
        call()
    assert str(err.value) == message
