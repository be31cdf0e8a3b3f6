"""Canonical heights: local escape rates, certification, preperiodicity, surveys."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import (
    INF,
    BoundedUpTo,
    DiscPoint,
    Escaped,
    PreconditionError,
    RationalPoly,
    archimedean_escape_rate,
    canonical_height,
    filled_julia_membership,
    is_preperiodic,
    local_escape_rate,
    survey,
    survey_to_csv,
    val,
    verdict_to_json_dict,
    weil_height,
)


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


class TestArchimedeanEscapeRate:
    def test_underflowing_lead_is_a_precondition(self):
        tiny = P(1, 0, F(1, 10**400))
        with pytest.raises(PreconditionError, match="underflows double precision"):
            archimedean_escape_rate(tiny, F(1, 2))
        with pytest.raises(PreconditionError, match="underflows double precision"):
            canonical_height(tiny, F(1, 2), 1e-11)

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

    def test_huge_coefficients(self):
        cert = is_preperiodic(P(10**400, 0, 1), F(0))
        assert not cert
        assert cert.escape_step is not None

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

    def test_rejects_negative_window(self):
        with pytest.raises(PreconditionError):
            survey(P(0, 0, 1), 2, -0.5)
