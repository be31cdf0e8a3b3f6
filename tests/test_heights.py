"""Canonical heights: local escape rates, certification, preperiodicity, surveys."""

import math
import random
import sys
import time
from fractions import Fraction as F

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdyn import (
    INF,
    BoundedUpTo,
    DiscPoint,
    Escaped,
    PreconditionError,
    PreperiodicityCertificate,
    RationalPoly,
    archimedean_escape_rate,
    canonical_height,
    escape_threshold,
    filled_julia_membership,
    is_preperiodic,
    local_escape_rate,
    survey,
    survey_to_csv,
    val,
    verdict_to_json_dict,
    weil_height,
)
from padicdyn import heights
from padicdyn.berkovich import MEMBERSHIP_MAX_ITER, _height_growth_bound
from padicdyn.heights import EPS_FLOOR, SURVEY_N_MAX, LocalContribution
from padicdyn.polynomial import map_invariant


def P(*ascending):
    return RationalPoly([F(c) for c in ascending])


class TestWeilHeight:
    def test_integers(self):
        assert weil_height(F(2)) == math.log(2)
        assert weil_height(F(1)) == 0.0
        assert weil_height(F(0)) == 0.0

    def test_denominator_dominates(self):
        assert weil_height(F(3, 5)) == math.log(5)

    def test_symmetry_under_inversion_and_sign(self):
        rng = random.Random(3)
        for _ in range(100):
            x = F(rng.randint(1, 999), rng.randint(1, 999))
            assert weil_height(x) == weil_height(1 / x) == weil_height(-x)


class TestLocalEscapeRate:
    def test_drifting_quadratic_closed_form(self):
        for p in (2, 3, 5, 11):
            contrib = local_escape_rate(P(F(1, p), 0, 1), F(0), p)
            assert contrib.log_p_multiple == F(1, 2)
            assert contrib.value == 0.5 * math.log(p)
            assert contrib.error_bound == 0.0
            assert contrib.escaped_at == 1

    def test_integral_orbit_contributes_nothing(self):
        contrib = local_escape_rate(P(0, 0, 1), F(2), 3)
        assert contrib.value == 0.0
        assert contrib.error_bound == 0.0
        assert contrib.log_p_multiple == F(0)

    def test_denominator_blowup_is_exact(self):
        contrib = local_escape_rate(P(0, 0, 1), F(1, 3), 3)
        assert contrib.log_p_multiple == F(1)
        assert contrib.value == math.log(3)
        assert contrib.escaped_at == 0

    def test_tuple_view(self):
        value, err = local_escape_rate(P(0, 0, 1), F(1, 3), 3)
        assert value == math.log(3) and err == 0.0

    def test_exact_cycle_detection(self):
        # 0 -> -1 -> 0 under X^2 - 1 never leaves the 2-adic integers
        contrib = local_escape_rate(P(-1, 0, 1), F(0), 2)
        assert contrib.value == 0.0 and contrib.error_bound == 0.0

    def test_escape_with_negative_lead_valuation(self):
        # phi = X^2/3 at p=3, x=3: orbit 3 -> 3 -> 3 stays put... use x=9:
        # 9 -> 27 -> 243: valuations 2 -> 3 -> 5 never drop; x = 1 gives
        # 1 -> 1/3 -> 1/27: valuations 0, -1, -3 drop below the threshold
        contrib = local_escape_rate(P(0, 0, F(1, 3)), F(1), 3)
        assert contrib.log_p_multiple is not None
        # rate q solves the exact recursion v_(m+1) = 2 v_m - 1 from v=0
        # v_m = 1 - 2^m, so -v_m / 2^m -> 1 and the -1/(d-1) lead correction
        # gives q = 1 - 1/1... direct: g = lim 2^-m * (-v_m + ... ) in log p
        # units; freeze the independently computed limit value:
        assert contrib.log_p_multiple == F(1)

    def test_requires_prime(self):
        with pytest.raises(PreconditionError):
            local_escape_rate(P(0, 0, 1), F(1, 3), 4)

    def test_huge_coefficients(self):
        # 1/2 keeps valuation -1 under 2X^2 + 10**400 at p = 2: bounded, never
        # repeating, and the growth bound must not overflow a float
        contrib = local_escape_rate(P(10**400, 0, 2), F(1, 2), 2, 8)
        assert contrib.log_p_multiple is None
        assert contrib.escaped_at is None
        assert 0.0 < contrib.error_bound < 1e-2


def exact_orbit_rate(phi, x, p, max_iter):
    """Oracle on the unreduced exact orbit: (escape step, escaping valuation, q).

    q is the exact log_p multiple of g_p(x): d**-m * (-t - val(a_d)/(d-1))
    when the state at step m has valuation t below the escape threshold,
    0 when all data are p-integral (integral orbits never escape) or a state
    repeats, and None when max_iter steps decide neither.
    """
    d = phi.degree
    vals = [val(c, p) for c in phi.coefficients]
    vad = vals[-1]
    if all(v >= 0 for v in vals) and val(x, p) >= 0:
        return None, None, F(0)
    v_c = min(
        [-vad / F(d - 1)]
        + [(v - vad) / F(d - i) for i, v in enumerate(vals[:-1]) if v is not INF]
    )
    z, seen = x, set()
    for m in range(max_iter + 1):
        t = val(z, p)
        if t < v_c:
            return m, t, F(1, d**m) * (-t - vad / F(d - 1))
        if z in seen:
            return None, None, F(0)
        seen.add(z)
        z = phi(z)
    return None, None, None


_small_fraction = st.builds(F, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def _maps(draw):
    d = draw(st.integers(2, 4))
    lead = draw(_small_fraction.filter(lambda c: c != 0))
    return RationalPoly([draw(_small_fraction) for _ in range(d)] + [lead])


@settings(max_examples=200, deadline=None)
@given(
    phi=_maps(),
    x=st.builds(F, st.integers(-30, 30), st.integers(1, 30)),
    p=st.sampled_from([2, 3, 5, 7]),
    max_iter=st.integers(1, 6),
    fix_x=st.booleans(),
)
def test_local_escape_rate_matches_exact_orbit(phi, x, p, max_iter, fix_x):
    if fix_x:  # shift the constant term so x is fixed: exact cycles get tested too
        phi = phi + RationalPoly.constant(x - phi(x))
    step, t, q = exact_orbit_rate(phi, x, p, max_iter)
    contrib = local_escape_rate(phi, x, p, max_iter)
    assert contrib.escaped_at == step
    assert contrib.log_p_multiple == q
    assert (contrib.error_bound == 0.0) == (q is not None)

    verdict = filled_julia_membership(phi, DiscPoint(x, INF, p), max_iter)
    if step is None:
        assert not isinstance(verdict, Escaped)
        if q is None:
            assert verdict == BoundedUpTo(max_iter)
        return
    assert verdict == Escaped(step) == Escaped(step, valuation=t)
    assert verdict.valuation == t
    assert verdict_to_json_dict(verdict) == {"verdict": "escaped", "step": step}


def test_undecided_error_bound_covers_the_exact_rate_at_four_times_the_budget():
    # A p-adic contribution that no orbit step decides within max_iter = m
    # claims |g_p(x)| <= error_bound.  The exact orbit run to 4m steps decides
    # g_p(x) for many such points of maps with p in a denominator.  An escape
    # comes at step m + 1 or later, at a valuation no lower than the tail
    # bound's floor, so g_p(x) is at most 1 / (1.01 d) of the bound; at d = 2
    # the draws reach that (``tight``), so a bound below half of today's fails.
    rng = random.Random(31)
    decided = tight = 0
    for _ in range(3000):
        p = rng.choice((2, 3, 5))
        d = rng.choice((2, 2, 2, 3))
        dens = (1, p)
        cs = [F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(d)]
        phi = RationalPoly(cs + [F(rng.choice((1, -1, 2, 3)), rng.choice(dens))])
        x = F(rng.randint(-20, 20), rng.choice(dens))
        m = rng.randint(1, 3 if d == 2 else 2)
        contrib = local_escape_rate(phi, x, p, m)
        if contrib.log_p_multiple is not None:
            continue
        assert (contrib.value, contrib.escaped_at) == (0.0, None)
        step, _, q = exact_orbit_rate(phi, x, p, 4 * m)
        if q is None:
            continue
        assert step is None or step > m, (phi, x, p, m)
        rate = float(q) * math.log(p)
        assert abs(rate - contrib.value) <= contrib.error_bound, (phi, x, p, m)
        decided += 1
        tight += abs(rate) > 0.49 * contrib.error_bound
    assert decided >= 150 and tight >= 10, (decided, tight)


def test_local_escape_rate_max_iter_cap():
    # the cap holds on the integral trap too, which never runs the orbit;
    # True is refused although it equals 1
    for x in (F(1, 2), F(1)):
        for bad in (MEMBERSHIP_MAX_ITER + 1, True):
            with pytest.raises(PreconditionError, match="MEMBERSHIP_MAX_ITER"):
                local_escape_rate(P(0, 0, 1), x, 2, max_iter=bad)


def test_membership_cap_clears_every_canonical_height_need():
    # canonical_height asks for ceil(log(tail / (budget_p / 2)) / log d) + 2
    # steps: largest at d = 2, the largest float tail bound and the smallest
    # budget_p (eps = EPS_FLOOR, half to the archimedean place, the rest
    # split over 2**20 active primes)
    budget_p = EPS_FLOOR / 2 / 2**20
    log_ratio = math.log(sys.float_info.max) - math.log(budget_p / 2)
    need = math.ceil(log_ratio / math.log(2)) + 2
    assert 256 < need < MEMBERSHIP_MAX_ITER


class TestArchimedeanEscapeRate:
    def test_underflowing_lead_is_a_precondition(self):
        tiny = P(1, 0, F(1, 10**400))
        with pytest.raises(PreconditionError, match="underflows double precision"):
            archimedean_escape_rate(tiny, F(1, 2))
        with pytest.raises(PreconditionError, match="underflows double precision"):
            canonical_height(tiny, F(1, 2), 1e-11)

    @pytest.mark.parametrize(
        "phi, x", [(P(1, 0, 1), F(10**400, 3)), (P(1, 0, 10**400), F(1))]
    )
    def test_beyond_double_range_is_a_precondition(self, phi, x):
        with pytest.raises(PreconditionError, match="exceeds double precision range"):
            canonical_height(phi, x)

    def test_float_error_floor_above_the_budget_is_refused_at_once(self):
        # At a budget near EPS_FLOOR / 4 the float rounding terms of the
        # escaped branch's error bound exceed the budget at any precision.
        phi = P(F(475195, 59), 0, 4 * 10**37, 0, 1)
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="float error floor"):
            archimedean_escape_rate(phi, 0, 2.5e-13)
        assert time.perf_counter() - start < 1.0

    def test_square_at_two(self):
        value, err = archimedean_escape_rate(P(0, 0, 1), F(2))
        assert abs(value - math.log(2)) <= err <= 1e-9

    def test_bounded_orbit_returns_zero_estimate(self):
        value, err = archimedean_escape_rate(P(0, 0, 1), F(1, 2))
        assert value == 0.0
        assert 0 < err <= 1e-9

    def test_boundary_point(self):
        # |x| = 1 is on the X^2 Julia circle: escape never certifies and
        # the bounded branch's tail estimate must still meet the budget
        value, err = archimedean_escape_rate(P(0, 0, 1), F(-1))
        assert value == 0.0 and err <= 1e-9

    def test_chebyshev_like_bounded_orbit(self):
        # x = 1/2 stays in [-2, 2] under X^2 - 2 forever
        value, err = archimedean_escape_rate(P(-2, 0, 1), F(1, 2))
        assert value == 0.0 and err <= 1e-9

    def test_budget_floor_advises_interval_mode(self):
        with pytest.raises(PreconditionError) as e:
            archimedean_escape_rate(P(0, 0, 1), F(2), 1e-14)
        assert "interval" in str(e.value)
        for budget in (math.inf, math.nan):
            with pytest.raises(PreconditionError, match="finite"):
                archimedean_escape_rate(P(0, 0, 1), F(2), budget)


def _mp_escape_rate(phi, x, bits=3000, steps=80, big=mpmath.mpf(2) ** 1000):
    """Oracle for g_inf(x) from a ``bits``-bit orbit: (value, error bound).

    Once |z_m| > big, g(x) = d**-m * (log|z_m| + log|a_d|/(d-1)) up to a tail
    of size d**-m * |u| with u ~ (sum |a_i|) / (|a_d| |z_m|), far below any
    budget.  An orbit still below big after ``steps`` steps has
    0 <= g(x) <= d**-steps * (log(big) + |log|a_d|| + 1).
    """
    d = phi.degree
    with mpmath.workprec(bits):
        cs = [mpmath.mpf(c.numerator) / c.denominator for c in phi.coefficients]
        log_ad = mpmath.log(abs(cs[-1]))
        z = mpmath.mpf(x.numerator) / x.denominator
        for m in range(steps):
            if abs(z) > big:
                return d ** -m * (mpmath.log(abs(z)) + log_ad / (d - 1)), mpmath.mpf(0)
            z = mpmath.polyval(cs[::-1], z)
        return mpmath.mpf(0), d ** -steps * (mpmath.log(big) + abs(log_ad) + 1)


def test_archimedean_escape_rate_within_bound_of_mpmath_orbit():
    # seeded random maps, each certified at several points and budgets, so
    # most calls run on the map's stored archimedean set-up
    rng = random.Random(2024)
    for _ in range(100):
        d = rng.randint(2, 4)
        lead = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
        phi = RationalPoly(coeffs + [lead])
        for _ in range(4):
            x = F(rng.randint(-40, 40), rng.randint(1, 12))
            budget = rng.choice([1e-6, 1e-9, 1e-11])
            value, err = archimedean_escape_rate(phi, x, budget)
            assert err <= budget
            g, tol = _mp_escape_rate(phi, x)
            miss = abs(mpmath.mpf(value) - g) - tol
            assert miss <= err, (phi, x, budget, value, err, g)


class _RefFixIv:
    """The closed interval [lo, hi] * 2**-prec of the object-per-interval
    archimedean loop that the integer loop of ``heights`` replaced: kept here
    as a differential reference."""

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo, hi, prec):
        self.lo, self.hi, self.prec = lo, hi, prec

    @classmethod
    def from_fraction(cls, q, prec):
        num = q.numerator << prec
        return cls(num // q.denominator, -((-num) // q.denominator), prec)

    def __add__(self, other):
        return _RefFixIv(self.lo + other.lo, self.hi + other.hi, self.prec)

    def __mul__(self, other):
        products = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _RefFixIv(min(products) >> self.prec, -((-max(products)) >> self.prec), self.prec)

    def abs_bounds(self):
        scale = 1 << self.prec
        if self.lo >= 0:
            return F(self.lo, scale), F(self.hi, scale)
        if self.hi <= 0:
            return F(-self.hi, scale), F(-self.lo, scale)
        return F(0), F(max(-self.lo, self.hi), scale)


def _ref_setup(phi):
    """The escape radius r_esc, its gate, s_low, |a_d|, log|a_d|, the tail
    constant and the Lipschitz bound, computed afresh on Fractions."""
    d = phi.degree
    ad = abs(phi.leading_coefficient)
    s_low = sum(abs(c) for c in phi.coefficients[:-1])
    r_upper = F(math.nextafter((4.0 / float(ad)) ** (1.0 / (d - 1)), math.inf)) + F(1, 1 << 40)
    r_esc = max(F(1), (2 * s_low + 2) / ad, r_upper) * F(9, 8)
    r1 = float((s_low + ad) * r_esc**d) * 1.01 + 2.0
    log_ad = math.log(float(ad))
    return {
        "r_esc": r_esc,
        "r_gate": r_esc * F((1 << 20) - 1, 1 << 20),
        "s_low": s_low,
        "ad": ad,
        "log_ad": log_ad,
        "kappa": math.log(r1) + abs(log_ad) / (d - 1) + 1.0,
        "lam": float(sum(i * abs(c) for i, c in enumerate(phi.coefficients)))
        * float(max(r_esc, 1) ** (d - 1))
        + 2.0,
    }


def _ref_attempt(phi, setup, x, budget, steps, prec):
    """One certification attempt at binary precision prec by the _RefFixIv
    loop; None asks for more precision."""
    d = phi.degree
    coeffs_iv = [_RefFixIv.from_fraction(c, prec) for c in phi.coefficients]

    def step(z):
        acc = coeffs_iv[-1]
        for c in reversed(coeffs_iv[:-1]):
            acc = acc * z + c
        return acc

    xiv = _RefFixIv.from_fraction(x, prec)
    m = 0
    while m <= steps + 80:
        alo, ahi = xiv.abs_bounds()
        if alo >= setup["r_gate"]:
            u_up = float(setup["s_low"] / (setup["ad"] * alo)) * 1.02 + 1e-300
            damp = math.exp(-m * math.log(d))
            if u_up * damp * 8.0 > budget and m <= steps + 78:
                xiv, m = step(xiv), m + 1
                continue
            ylo, yhi = math.log(float(alo)), math.log(float(ahi))
            slop = 6 * math.ulp(1.0 + abs(yhi))
            ylo, yhi = ylo - slop, yhi + slop
            tail = 4.0 * u_up * damp / d
            value = damp * ((ylo + yhi) / 2 + setup["log_ad"] / (d - 1))
            err = damp * (yhi - ylo) / 2 + tail + 8 * math.ulp(1.0 + abs(value) + abs(yhi))
            return None if err > budget else LocalContribution(max(value, 0.0), err, None, m)
        if ahi > setup["r_esc"]:
            return None
        if m >= steps:
            bound = math.exp(-steps * math.log(d)) * setup["kappa"] * 1.01
            return LocalContribution(0.0, min(bound, budget), None, None)
        xiv, m = step(xiv), m + 1
    return None


def _result_or_exception_type(call):
    """call(), or the type of the exception it raised: two kernels agree when
    they return equal results or raise the same type of exception."""
    try:
        return call()
    except Exception as exc:
        return type(exc)


def _ref_archimedean_escape_rate(phi, x, budget):
    """The archimedean escape rate by the _RefFixIv loop; None where it
    refuses.  Unlike the library, which makes one attempt at the sized
    precision, it doubles the precision up to eight times, so an input that
    only escalation would certify shows up as a mismatch."""
    d = phi.degree
    if float(abs(phi.leading_coefficient)) == 0.0:
        return None
    try:
        setup = _ref_setup(phi)
        steps = max(1, math.ceil(math.log(setup["kappa"] / budget) / math.log(d))) + 1
        prec = 64 + steps * max(1, math.ceil(math.log2(setup["lam"] + 2)))
        for _ in range(8):
            result = _ref_attempt(phi, setup, x, budget, steps, prec)
            if result is not None:
                return result
            prec *= 2
    except OverflowError:
        return None
    return None


_wide_fraction = st.one_of(
    _small_fraction,
    st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


@st.composite
def _arch_maps(draw):
    d = draw(st.integers(2, 5))
    coeffs = [draw(st.one_of(st.just(F(0)), _wide_fraction)) for _ in range(d)]
    return RationalPoly(coeffs + [draw(_wide_fraction.filter(lambda c: c != 0))])


@settings(max_examples=250, deadline=None)
@given(
    phi=_arch_maps(),
    x=st.one_of(_small_fraction, _wide_fraction, st.builds(F, st.integers(-3, 3), st.just(2))),
    # Below about 1e-11 a map with a huge escape radius makes the reference
    # run all eight precision doublings (seconds each) before it refuses.
    budget=st.one_of(st.sampled_from([1e-6, 1e-9, 1e-11]), st.floats(1e-11, 1e-2)),
)
# Orbits through an exact zero reached from a non-dyadic point: the
# enclosures of the orbit and of Horner's accumulator then straddle 0, which
# random maps almost never give.
@example(phi=P(0, 0, -1, 3), x=F(1, 3), budget=1e-9)
@example(phi=P(-1, 0, 9), x=F(1, 3), budget=1e-9)
@example(phi=P(1, 0, -9), x=F(1, 3), budget=1e-11)
@example(phi=P(0, 0, 1, 3), x=F(-1, 3), budget=1e-6)
@example(phi=P(F(1, 2), 1, 1, 0, 0, 1), x=F(3, 7), budget=EPS_FLOOR / 4)
@example(phi=P(-2, 0, 1), x=F(1, 2), budget=EPS_FLOOR / 4)
def test_archimedean_escape_rate_matches_interval_object_loop(phi, x, budget):
    want = _ref_archimedean_escape_rate(phi, x, budget)
    try:
        got = archimedean_escape_rate(phi, x, budget)
    except PreconditionError:
        got = None
    assert got == want
    if want is not None:
        assert (repr(got.value), repr(got.error_bound)) == (repr(want.value), repr(want.error_bound))


@settings(max_examples=250, deadline=None)
@given(
    phi=st.one_of(_maps(), _arch_maps().filter(lambda phi: max(map(abs, phi.coefficients)) < 10**6)),
    x=st.one_of(_small_fraction, st.builds(F, st.integers(-3, 3), st.just(2))),
    budget=st.sampled_from([1e-2, 1e-6, 1e-9]),
    steps=st.integers(1, 8),
    prec=st.one_of(st.integers(0, 6), st.integers(0, 48)),
)
@example(phi=P(0, 0, -1, 3), x=F(1, 3), budget=1e-2, steps=6, prec=20)
@example(phi=P(-1, 0, 9), x=F(1, 3), budget=1e-6, steps=8, prec=30)
@example(phi=P(1, 0, -9), x=F(1, 3), budget=1e-6, steps=8, prec=12)
@example(phi=P(0, 0, 1, 3), x=F(-1, 3), budget=1e-2, steps=4, prec=40)
# 8X^2 - 1 has r_esc = 9/8 exactly: an enclosure that reaches r_esc, and a
# point exactly at the gate r_esc * (1 - 2**-20).
# An enclosure straddling 0 whose lower end is the larger in absolute value.
@example(phi=P(-1, 1, 1), x=F(-1, 3), budget=1e-2, steps=4, prec=0)
# With steps=0 the gate and radius tests alone decide the outcome.
@example(phi=P(-1, 0, 8), x=F(10, 9), budget=1e-2, steps=0, prec=3)
@example(phi=P(-1, 0, 8), x=F(9 * (2**20 - 1), 2**23), budget=1e-2, steps=0, prec=23)
# At 0 bits the enclosure of phi^2(4) is wider than double range: both loops
# raise OverflowError, which archimedean_escape_rate turns into a refusal.
@example(phi=P(0, 0, 1, 0, 0, F(1, 2)), x=F(4), budget=1e-6, steps=1, prec=0)
def test_archimedean_attempt_matches_interval_object_loop_at_low_precision(
    phi, x, budget, steps, prec
):
    # Few bits make the enclosures wide, so the endpoints show in the escape
    # decisions and the logarithms.
    def attempt():
        arch = map_invariant(phi, heights._ArchInvariants)
        coeffs_iv = map_invariant(phi, heights._coeffs_iv, prec)
        return heights._arch_attempt(coeffs_iv, x, budget, steps, prec, arch)

    got = _result_or_exception_type(attempt)
    want = _result_or_exception_type(
        lambda: _ref_attempt(phi, _ref_setup(phi), x, budget, steps, prec)
    )
    assert got == want
    if isinstance(want, LocalContribution):
        assert (repr(got.value), repr(got.error_bound)) == (repr(want.value), repr(want.error_bound))


_endpoint = st.one_of(st.integers(-40, 40), st.integers(-(2**80), 2**80))


@st.composite
def _intervals(draw):
    a, b = draw(_endpoint), draw(_endpoint)
    return min(a, b), max(a, b)


@settings(max_examples=400, deadline=None)
@given(
    coeffs_iv=st.lists(_intervals(), min_size=1, max_size=6),
    x=_intervals(),
    prec=st.integers(0, 64),
)
def test_horner_enclosure_matches_interval_objects(coeffs_iv, x, prec):
    # Every sign pattern of the endpoints, straddling zero included, against
    # the four-product interval multiplication of _RefFixIv.
    ivs = [_RefFixIv(lo, hi, prec) for lo, hi in coeffs_iv]
    acc = ivs[0]
    for c in ivs[1:]:
        acc = acc * _RefFixIv(*x, prec) + c
    assert heights._horner_iv(coeffs_iv, *x, prec) == (acc.lo, acc.hi)


def test_canonical_height_within_bound_of_independent_oracles():
    # Seeded random maps and points, a quarter of them fixed points.  The
    # oracle sums the mpmath archimedean orbit and the exact unreduced-orbit
    # rate at every prime of a denominator (found by sympy); points whose
    # orbit neither escapes nor repeats within six exact steps are skipped.
    rng = random.Random(2026)
    decided = fixed = 0
    for _ in range(150):
        d = rng.randint(2, 4)
        lead = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        phi = RationalPoly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)] + [lead])
        x = F(rng.randint(-40, 40), rng.randint(1, 12))
        if rng.random() < 0.25:
            phi = phi + RationalPoly.constant(x - phi(x))
        eps = rng.choice([1e-6, 1e-9, 1e-11])
        res = canonical_height(phi, x, eps)
        primes = sympy.primefactors(
            math.lcm(x.denominator, *(c.denominator for c in phi.coefficients))
        )
        assert set(res.local_parts) == {"inf", *map(str, primes)}
        assert res.error_bound <= eps
        if res.preperiodic:
            fixed += 1
            for part in res.local_parts.values():
                assert (part.value, part.error_bound, part.log_p_multiple) == (0.0, 0.0, 0)
        rates = [exact_orbit_rate(phi, x, p, 6)[2] for p in primes]
        if None in rates:
            continue
        decided += 1
        g, tol = _mp_escape_rate(phi, x)
        oracle = g + sum(mpmath.mpf(q.numerator) / q.denominator * mpmath.log(p)
                         for q, p in zip(rates, primes))
        # each exact place's float value is q * log p rounded, a few ulps off
        rounding = 4 * len(primes) * math.ulp(1.0 + abs(res.value))
        miss = abs(mpmath.mpf(res.value) - oracle) - tol - rounding
        assert miss <= res.error_bound, (phi, x, eps, res, oracle)
    assert decided >= 120 and fixed >= 25, (decided, fixed)


def _outcome(call, *args):
    try:
        return repr(call(*args))
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


_MEMO_CALLS = {
    "canonical_height": lambda phi, x, p, eps: canonical_height(phi, x, eps),
    "local_escape_rate": lambda phi, x, p, eps: local_escape_rate(phi, x, p, 16),
    "archimedean_escape_rate": lambda phi, x, p, eps: archimedean_escape_rate(phi, x, eps),
    "filled_julia_membership": lambda phi, x, p, eps: filled_julia_membership(
        phi, DiscPoint(x, F(1, 2), p), 16
    ),
}
_points = st.builds(F, st.integers(-30, 30), st.integers(1, 30))
_primes = st.sampled_from([2, 3, 5, 7])


class TestPreparedMap:
    """A map object keeps its invariants; results never depend on what it holds."""

    @settings(max_examples=60, deadline=None)
    @given(
        phi=_maps(),
        x=_points,
        p=_primes,
        eps=st.sampled_from([1e-6, 1e-9]),
        warm=st.lists(
            st.tuples(_points, _primes, st.sampled_from([1e-3, 1e-7, 1e-11])),
            min_size=1,
            max_size=3,
        ),
    )
    def test_warm_map_matches_fresh_map(self, phi, x, p, eps, warm):
        for args in warm:
            for call in _MEMO_CALLS.values():
                _outcome(call, phi, *args)
        for name, call in _MEMO_CALLS.items():
            fresh = RationalPoly(phi.coefficients)
            assert _outcome(call, phi, x, p, eps) == _outcome(call, fresh, x, p, eps), name

    def test_checks_run_on_a_warm_map(self):
        phi = P(F(1, 3), 0, 1)
        survey(phi, 3, math.log(3))  # fills every part of the map's memo
        for bad in (4, 1, 0, -3):
            for call in (escape_threshold, lambda f, pl: local_escape_rate(f, F(1, 2), pl)):
                with pytest.raises(PreconditionError, match="place requires a prime"):
                    call(phi, bad)
        for _ in range(2):
            with pytest.raises(PreconditionError, match="exceeds double precision range"):
                archimedean_escape_rate(phi, F(10**400, 3))

    @pytest.mark.parametrize(
        "phi, message",
        [
            (P(1, 0, F(1, 10**400)), "underflows double precision"),
            (P(1, 0, 10**400), "exceeds double precision range"),
        ],
    )
    def test_failed_archimedean_set_up_is_not_stored(self, phi, message):
        local_escape_rate(phi, F(1, 2), 2)  # the map's memo exists and holds p = 2
        for _ in range(2):
            with pytest.raises(PreconditionError, match=message):
                archimedean_escape_rate(phi, F(1, 2))

    def test_equality_hash_and_repr_ignore_the_memo(self):
        a, b = P(F(1, 2), 1, 1, 0, 0, 1), P(F(1, 2), 1, 1, 0, 0, 1)
        before = (hash(a), repr(a))
        canonical_height(a, F(1, 3))
        assert a._prepared is not None and b._prepared is None
        assert a == b and {a: "a"}[b] == "a"
        assert (hash(a), repr(a)) == before == (hash(b), repr(b))


class TestCanonicalHeight:
    def test_squaring_is_weil_height(self):
        res = canonical_height(P(0, 0, 1), F(2), 1e-9)
        assert abs(res.value - math.log(2)) <= 1e-9
        assert res.error_bound <= 1e-9

    def test_fixed_point_is_exactly_zero(self):
        res = canonical_height(P(0, -1, 2), F(1))  # 2x^2 - x fixes 1
        assert res.preperiodic
        assert res.value == 0.0 and res.error_bound == 0.0

    def test_two_cycle_is_exactly_zero(self):
        res = canonical_height(P(-1, 0, 1), F(0))
        assert res.preperiodic and res.value == 0.0

    def test_nonnegative_up_to_eps(self):
        rng = random.Random(12)
        for _ in range(60):
            d = rng.choice([2, 3])
            cs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
            lead = F(0)
            while lead == 0:
                lead = F(rng.randint(-4, 4), rng.randint(1, 3))
            phi = RationalPoly(cs + [lead])
            x = F(rng.randint(-20, 20), rng.randint(1, 8))
            res = canonical_height(phi, x, 1e-8)
            assert res.value >= -1e-8

    def test_functional_equation(self):
        rng = random.Random(18)
        for _ in range(100):
            d = rng.choice([2, 2, 3])
            cs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d)]
            lead = F(0)
            while lead == 0:
                lead = F(rng.randint(-6, 6), rng.randint(1, 4))
            phi = RationalPoly(cs + [lead])
            x = F(rng.randint(-30, 30), rng.randint(1, 12))
            hx = canonical_height(phi, x, 1e-8)
            hfx = canonical_height(phi, phi(x), 1e-8)
            assert abs(hfx.value - d * hx.value) <= (d + 1) * 1e-8

    def test_inactive_primes_stay_silent(self):
        # all data 5-integral: no finite place enters the breakdown
        res = canonical_height(P(1, 0, 1), F(7, 3))
        assert set(res.local_parts) == {"inf", "3"}
        res2 = canonical_height(P(1, 0, 1), F(7))
        assert set(res2.local_parts) == {"inf"}

    def test_local_parts_sum_to_value(self):
        res = canonical_height(P(F(1, 6), 0, 1), F(5, 7), 1e-9)
        total = sum(part.value for part in res.local_parts.values())
        assert abs(total - res.value) < 1e-15

    def test_finite_parts_are_log_p_multiples(self):
        res = canonical_height(P(F(1, 3), 0, 1), F(0), 1e-9)
        part = res.local_parts["3"]
        assert part.log_p_multiple == F(1, 2)
        assert part.value == 0.5 * math.log(3)

    def test_eps_guard(self):
        with pytest.raises(PreconditionError):
            canonical_height(P(0, 0, 1), F(2), 0.0)
        with pytest.raises(PreconditionError):
            canonical_height(P(0, 0, 1), F(2), -1e-9)
        with pytest.raises(PreconditionError) as e:
            canonical_height(P(0, 0, 1), F(2), 1e-13)
        assert "interval" in str(e.value)
        for eps in (math.inf, math.nan):
            with pytest.raises(PreconditionError, match="finite"):
                canonical_height(P(0, 0, 1), F(2), eps)

    def test_degree_guard(self):
        with pytest.raises(PreconditionError):
            canonical_height(P(1, 1), F(2))

    def test_naive_iteration_limit_oracle(self):
        # h(phi^m(x)) / d^m approximates the canonical height; in the
        # strongly escaping regime six steps already pin it to 1e-4
        rng = random.Random(21)
        for _ in range(50):
            d = rng.choice([2, 3])
            cs = [F(rng.randint(-5, 5)) for _ in range(d)] + [F(1)]
            phi = RationalPoly(cs)
            spread = sum(abs(c) for c in cs[:-1])
            x = F(rng.choice([-1, 1]) * rng.randint(int(2 * spread + 2), int(2 * spread + 22)))
            y = x
            for _ in range(6):
                y = phi(y)
            oracle = weil_height(y) / d**6
            res = canonical_height(phi, x, 1e-10)
            assert abs(res.value - oracle) <= 1e-4

    def test_result_serialization(self):
        res = canonical_height(P(F(1, 3), 0, 1), F(0), 1e-9)
        data = res.to_json_dict()
        assert data["local_parts"]["3"]["log_p_multiple"] == "1/2"
        assert isinstance(data["value"], float)


class TestIsPreperiodic:
    def test_fixed_point(self):
        assert is_preperiodic(P(0, 0, 1), F(1))

    def test_escaping_point(self):
        cert = is_preperiodic(P(0, 0, 1), F(2))
        assert not cert
        assert cert.escape_step is not None

    def test_strictly_preperiodic_tail(self):
        cert = is_preperiodic(P(-1, 0, 1), F(1))  # 1 -> 0 -> -1 -> 0
        assert cert
        assert cert.tail_length == 1
        assert cert.cycle_length == 2

    def test_negative_unit_square(self):
        assert is_preperiodic(P(0, 0, 1), F(-1))

    def test_iteration_guard_is_a_precondition(self, monkeypatch):
        # 1 -> 0 -> -1 -> 0 first repeats at step 3, past a guard of 2 steps
        monkeypatch.setattr(heights, "_PREPERIODIC_ITERATION_GUARD", 2)
        with pytest.raises(PreconditionError, match="_PREPERIODIC_ITERATION_GUARD"):
            is_preperiodic(P(-1, 0, 1), F(1))

    def test_huge_coefficients(self):
        cert = is_preperiodic(P(10**400, 0, 1), F(0))
        assert not cert
        assert cert.escape_step is not None

    @staticmethod
    def _preperiodic_on_fractions(phi, x):
        """The certificate of the Fraction orbit z -> sum c_i z**i, each
        point keyed as a Fraction and its height taken by weil_height: the
        reference the integer-pair loop of is_preperiodic must match."""
        bound = _height_growth_bound(phi)
        z, seen = F(x), {}
        for k in range(heights._PREPERIODIC_ITERATION_GUARD):
            if z in seen:
                return PreperiodicityCertificate(True, seen[z], k - seen[z], None, bound)
            seen[z] = k
            if weil_height(z) > bound + 1e-9:
                return PreperiodicityCertificate(False, None, None, k, bound)
            z = sum(c * z**i for i, c in enumerate(phi.coefficients))
        raise AssertionError("undecided within the guard")

    def test_integer_pairs_match_a_fraction_orbit(self):
        # Random maps of degree 2-4, half of them built so that x -> e -> f
        # with f = x or e, from points of small height: every field of the
        # certificate, growth bound included, must be the reference's.
        rng = random.Random(29)
        tally = {True: 0, False: 0}
        for _ in range(400):
            d = rng.randint(2, 4)
            cs = [F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4])) for _ in range(d)]
            cs.append(F(rng.choice([1, -1, 2, 3]), rng.choice([1, 1, 2, 3])))
            x = F(rng.randint(-8, 8), rng.randint(1, 4))
            if rng.random() < 0.5:
                e = x + rng.choice([-1, 1]) * F(rng.randint(1, 5), rng.randint(1, 3))
                f = rng.choice([x, e])
                high = RationalPoly([0, 0] + cs[2:])
                slope = (e - f - high(x) + high(e)) / (x - e)
                cs[:2] = [e - high(x) - slope * x, slope]
            phi = RationalPoly(cs)
            cert = is_preperiodic(phi, x)
            assert cert == self._preperiodic_on_fractions(phi, x), (phi, x)
            tally[cert.preperiodic] += 1
        assert min(tally.values()) >= 100, tally

    def test_agrees_with_zero_height_on_survey_range(self):
        rep = survey(P(-1, 0, 1), 2, math.log(3), eps=1e-8)
        for record in rep.records:
            flag = is_preperiodic(P(-1, 0, 1), record.x)
            assert bool(flag) == record.preperiodic
            if flag:
                assert record.height == 0.0
            else:
                assert record.height > 1e-8


class TestSurvey:
    def test_squaring_small_window(self):
        rep = survey(P(0, 0, 1), 2, math.log(3))
        assert list(rep.preperiodic_points) == [F(-1), F(0), F(1)]
        assert abs(rep.min_positive.height - math.log(2)) < 1e-7
        xs = {r.x for r in rep.records}
        assert F(1, 3) in xs and F(-3) in xs and len(xs) == 15

    def test_two_cycle_map_finds_cycle_points(self):
        rep = survey(P(-1, 0, 1), 2, math.log(2))
        assert {F(0), F(1), F(-1)} <= set(rep.preperiodic_points)

    def test_height_zero_window(self):
        rep = survey(P(1, 0, 1), 3, 0.0)
        assert sorted(r.x for r in rep.records) == [F(-1), F(0), F(1)]

    def test_disclaimer_present(self):
        rep = survey(P(0, 0, 1), 2, 0.0)
        assert "not a proof" in rep.disclaimer

    def test_csv_shape(self):
        rep = survey(P(0, 0, 1), 2, math.log(2))
        text = survey_to_csv(rep)
        lines = text.strip().splitlines()
        assert lines[0] == "x,num,den,canonical_height,error_bound,preperiodic"
        assert len(lines) == len(rep.records) + 1
        assert any(line.startswith("1/2,1,2,") for line in lines)

    def test_csv_refuses_a_non_report(self):
        with pytest.raises(PreconditionError) as err:
            survey_to_csv(None)
        assert str(err.value) == "survey_to_csv requires a SurveyReport, got None"

    def test_rejects_negative_window(self):
        with pytest.raises(PreconditionError):
            survey(P(0, 0, 1), 2, -0.5)
        for window in (math.inf, math.nan):
            with pytest.raises(PreconditionError, match="finite"):
                survey(P(0, 0, 1), 2, window)

    def test_enumeration_cap(self):
        # 800 once overflowed math.exp; log(cap + 1) is the first window
        # that would enumerate beyond the cap.
        for window in (800.0, math.log(SURVEY_N_MAX + 1)):
            with pytest.raises(PreconditionError, match=f"SURVEY_N_MAX = {SURVEY_N_MAX}"):
                survey(P(0, 0, 1), 2, window)
