"""Disc points, seminorms, containment order, dynamics on discs."""

import json
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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import padicdyn
from padicdyn import (
    INF,
    BoundedCertified,
    BoundedUpTo,
    DiscPoint,
    Escaped,
    MaxPointResult,
    Place,
    PreconditionError,
    RationalPoly,
    disc_point_from_json_dict,
    escape_threshold,
    filled_julia_membership,
    good_reduction,
    is_preperiodic,
    leq,
    local_escape_rate,
    max_point,
    noncontainment_witness,
    parse_polynomial,
    pushforward,
    reduce_mod_prime_power,
    seminorm,
    val,
    verdict_to_json_dict,
    weil_height,
)
from padicdyn.berkovich import (
    MEMBERSHIP_MAX_ITER,
    MEMBERSHIP_RHO_MAX,
    _LocalInvariants,
    _OrbitPlan,
    _simplest_open,
)


def P(*ascending):
    return RationalPoly([F(c) for c in ascending])


def rand_fraction(rng, lo=-30, hi=30, dmax=10):
    return F(rng.randint(lo, hi), rng.randint(1, dmax))


def rand_poly(rng, maxdeg=5):
    d = rng.randint(1, maxdeg)
    cs = [rand_fraction(rng) for _ in range(d + 1)]
    if cs[-1] == 0:
        cs[-1] = F(1)
    return RationalPoly(cs)


class TestDiscPoint:
    def test_type_discrimination(self):
        assert DiscPoint(F(2), INF, 3).is_type_i
        assert not DiscPoint(F(2), F(0), 3).is_type_i

    def test_same_disc_same_point(self):
        # |0 - p| = 1/p <= 1, so the unit discs about 0 and p coincide
        assert DiscPoint(0, 0, 5) == DiscPoint(5, 0, 5)
        assert hash(DiscPoint(0, 0, 5)) == hash(DiscPoint(5, 0, 5))

    def test_distinct_discs_differ(self):
        assert DiscPoint(0, 0, 5) != DiscPoint(F(1, 5), 0, 5)
        assert DiscPoint(0, 0, 5) != DiscPoint(0, 1, 5)
        assert DiscPoint(0, 0, 5) != DiscPoint(0, 0, 7)

    def test_repr_names_center_radius_and_prime(self):
        assert repr(DiscPoint(F(1, 2), F(3, 2), 3)) == "DiscPoint(center=1/2, rho=3/2, p=3)"
        assert repr(DiscPoint(-4, INF, 5)) == "DiscPoint(center=-4, rho=INF, p=5)"

    def test_hash_and_lookup_of_a_tiny_disc_are_quick(self):
        # p**ceil(rho) has 4.8 million digits here: neither == nor hash may build it
        script = (
            "from fractions import Fraction\n"
            "from padicdyn import DiscPoint\n"
            "zeta = DiscPoint(Fraction(1, 3), 10**7, 3)\n"
            "hash(zeta)\n"
            "assert DiscPoint(Fraction(1, 3), 10**7, 3) in {zeta}\n"
            "assert DiscPoint(Fraction(1, 3) + 3**99, 10**7, 3) not in {zeta}\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(padicdyn.__file__).resolve().parents[1]))
        subprocess.run([sys.executable, "-c", script], env=env, timeout=5, check=True)

    def test_requires_prime(self):
        with pytest.raises(PreconditionError):
            DiscPoint(0, 0, 6)

    def test_json_round_trip(self):
        for zeta in (DiscPoint(F(7, 3), F(-2, 5), 3), DiscPoint(F(1), INF, 2)):
            data = json.loads(json.dumps(zeta.to_json_dict()))
            assert disc_point_from_json_dict(data) == zeta

    @pytest.mark.parametrize("text", ["1e-200000", "1.5", " 1 "])
    def test_json_reader_refuses_non_rational_text(self, text):
        # Fraction(text) would take each of these, and the first builds 10**200000
        for data in ({"center": text, "rho": "0", "p": 2}, {"center": "0", "rho": text, "p": 2}):
            with pytest.raises(PreconditionError, match="not a rational number"):
                disc_point_from_json_dict(data)


    @pytest.mark.parametrize(
        "data, message",
        [
            ({"center": "1", "rho": "0", "p": 2.7}, "p must be an integer"),
            ({"center": "1", "rho": "0", "p": "1e5"}, "p must be an integer"),
            ({"center": "1", "rho": "0", "p": True}, "p must be an integer"),
            ({"center": 0.5, "rho": "0", "p": 2}, "not a rational number"),
            ({"center": "0", "rho": 0.5, "p": 2}, "not a rational number"),
        ],
    )
    def test_json_reader_takes_exact_fields_only(self, data, message):
        # int(2.7) would give p = 2, int("1e5") a bare ValueError and
        # as_fraction(0.5) a TypeError
        with pytest.raises(PreconditionError, match=message):
            disc_point_from_json_dict(data)


class TestSeminorm:
    def test_gauss_point_takes_min_valuation(self):
        p = 5
        poly = P(p * p, p, 1)  # X^2 + pX + p^2
        assert seminorm(DiscPoint(0, 0, p), poly) == 0

    def test_classical_point_evaluates(self):
        p = 7
        zeta = DiscPoint(F(p), INF, p)
        assert seminorm(zeta, P(0, 1)) == 1

    def test_big_disc_squares_radius(self):
        zeta = DiscPoint(0, -1, 3)
        assert seminorm(zeta, P(0, 0, 1)) == -2

    def test_zero_polynomial_maps_to_infinity(self):
        assert seminorm(DiscPoint(0, 0, 2), P()) is INF

    def test_multiplicativity_and_triangle(self):
        rng = random.Random(13)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7])
            zeta = DiscPoint(rand_fraction(rng), F(rng.randint(-6, 6), rng.randint(1, 4)), p)
            a, b = rand_poly(rng), rand_poly(rng)
            assert seminorm(zeta, a * b) == seminorm(zeta, a) + seminorm(zeta, b)
            lo = min(seminorm(zeta, a), seminorm(zeta, b))
            s = seminorm(zeta, a + b)
            assert s >= lo
            if seminorm(zeta, a) != seminorm(zeta, b):
                assert s == lo


class TestContainmentOrder:
    def test_shrinking_disc_is_below(self):
        assert leq(DiscPoint(0, 1, 5), DiscPoint(0, 0, 5))

    def test_recentering_inside_the_disc(self):
        p = 5
        assert leq(DiscPoint(0, 0, p), DiscPoint(F(p), 0, p))
        assert leq(DiscPoint(F(p), 0, p), DiscPoint(0, 0, p))

    def test_distant_center_is_outside(self):
        p = 5
        assert not leq(DiscPoint(0, 0, p), DiscPoint(F(1, p), 0, p))

    def test_mismatched_places_rejected(self):
        with pytest.raises(PreconditionError):
            leq(DiscPoint(0, 0, 5), DiscPoint(0, 0, 7))

    def test_partial_order_on_random_pairs(self):
        rng = random.Random(17)
        pts = [
            DiscPoint(rand_fraction(rng, -8, 8, 4), F(rng.randint(-3, 3)), 3)
            for _ in range(30)
        ]
        for a in pts:
            assert leq(a, a)
            for b in pts:
                if leq(a, b) and leq(b, a):
                    assert a == b
                for c in pts:
                    if leq(a, b) and leq(b, c):
                        assert leq(a, c)

    def test_containment_implies_seminorm_order(self):
        rng = random.Random(19)
        tested = 0
        while tested < 100:
            p = rng.choice([2, 3, 5])
            base = rand_fraction(rng)
            rho_big = F(rng.randint(-4, 4), rng.randint(1, 3))
            big = DiscPoint(base, rho_big, p)
            # build a contained point: bump the center within the disc
            bump = rand_fraction(rng) * F(p) ** max(1, int(rho_big) + 2)
            small = DiscPoint(base + bump, rho_big + F(rng.randint(0, 5), 2), p)
            if not leq(small, big):
                continue
            tested += 1
            for _ in range(100):
                poly = rand_poly(rng)
                assert seminorm(small, poly) >= seminorm(big, poly)

    def test_noncontainment_has_linear_witness(self):
        rng = random.Random(23)
        tested = 0
        while tested < 100:
            p = rng.choice([2, 3, 5])
            a = DiscPoint(rand_fraction(rng), F(rng.randint(-4, 4), rng.randint(1, 2)), p)
            b = DiscPoint(rand_fraction(rng), F(rng.randint(-4, 4), rng.randint(1, 2)), p)
            if leq(a, b):
                continue
            tested += 1
            w = noncontainment_witness(a, b)
            assert w.degree == 1 and w.leading_coefficient == 1
            # the witness inverts the order certified by containment
            assert seminorm(a, w) < seminorm(b, w)

    def test_witness_refused_when_contained(self):
        with pytest.raises(PreconditionError):
            noncontainment_witness(DiscPoint(0, 1, 5), DiscPoint(0, 0, 5))


class TestPushforward:
    def test_squaring_doubles_rho(self):
        for rho in (F(0), F(1), F(-2), F(3, 2)):
            out = pushforward(P(0, 0, 1), DiscPoint(0, rho, 3))
            assert out == DiscPoint(0, 2 * rho, 3)

    def test_squaring_off_center(self):
        out = pushforward(P(0, 0, 1), DiscPoint(1, 1, 2))
        assert out == DiscPoint(1, 2, 2)

    def test_classical_point_maps_to_image(self):
        phi = P(1, 0, 1)
        out = pushforward(phi, DiscPoint(F(3), INF, 5))
        assert out.is_type_i and out.center == phi(F(3)) == 10

    def test_constant_rejected(self):
        with pytest.raises(PreconditionError):
            pushforward(P(4), DiscPoint(0, 0, 5))

    def test_seminorm_contract(self):
        rng = random.Random(29)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            zeta = DiscPoint(
                rand_fraction(rng), F(rng.randint(-5, 5), rng.randint(1, 3)), p
            )
            phi = rand_poly(rng, maxdeg=4)
            image = pushforward(phi, zeta)
            probe = rand_poly(rng, maxdeg=3)
            assert seminorm(image, probe) == seminorm(zeta, probe.compose(phi))


class TestEscapeThreshold:
    def test_drifting_quadratic(self):
        for p in (2, 3, 5):
            assert escape_threshold(P(F(1, p), 0, 1), Place(p)) == F(-1, 2)

    def test_pure_power_threshold_is_zero(self):
        assert escape_threshold(P(0, 0, 1), Place(7)) == 0
        assert escape_threshold(P(0, 0, 0, 0, 1), Place(2)) == 0

    def test_small_leading_coefficient(self):
        # lead valuation 1 at degree 2: points below -1 iterate away
        assert escape_threshold(P(0, 0, 2), Place(2)) == -1

    def test_requires_degree_two(self):
        with pytest.raises(PreconditionError):
            escape_threshold(P(0, 1), Place(2))

    @settings(max_examples=150, deadline=None)
    @given(
        coeffs=st.lists(st.builds(F, st.integers(-40, 40), st.integers(1, 40)),
                        min_size=3, max_size=6),
        p=st.sampled_from([2, 3, 5, 7]),
        other=st.sampled_from([2, 3, 5, 7]),
    )
    def test_formula_on_fresh_and_warm_maps(self, coeffs, p, other):
        # v_C written out, against a fresh map and one whose memo holds
        # other primes and the membership plan already
        if coeffs[-1] == 0:
            coeffs[-1] = F(1)
        phi = RationalPoly(coeffs)
        d = phi.degree
        vad = val(coeffs[-1], p)
        expected = -vad / F(d - 1)
        for i in range(d):
            if coeffs[i] != 0:
                expected = min(expected, (val(coeffs[i], p) - vad) / F(d - i))
        assert escape_threshold(phi, p) == expected
        filled_julia_membership(phi, DiscPoint(F(1, 3), 0, other), 4)
        assert escape_threshold(phi, other) == escape_threshold(RationalPoly(coeffs), other)
        assert escape_threshold(phi, Place(p)) == expected

    def test_guarantee_below_threshold(self):
        # val(z) < threshold forces val(phi(z)) = val(a_d) + d*val(z) < val(z)
        rng = random.Random(31)
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            d = rng.randint(2, 5)
            cs = [rand_fraction(rng, -20, 20, 9) for _ in range(d)]
            lead = rand_fraction(rng, -9, 9, 5)
            if lead == 0:
                lead = F(1)
            phi = RationalPoly(cs + [lead])
            vc = escape_threshold(phi, Place(p))
            # sample z strictly below the threshold
            t = vc - rng.randint(1, 6)
            k = t.denominator
            # use a z of exact valuation t when t is integral; else skip
            if k != 1:
                t = -abs(int(t)) - 1
            z = F(p) ** int(t) * F(rng.choice([1, 3, 7]))
            if val(z, p) >= vc:
                continue
            got = val(phi(z), p)
            expected = val(lead, p) + d * val(z, p)
            assert got == expected
            assert got < val(z, p)


def _fraction_invariants(phi, p, max_iter, rho0_mag):
    """phi's invariants at p and its orbit plan, by the Fraction formulas:
    (v_C, vad, min_val, tail_const, integral, window, rho_trust)."""
    d = phi.degree
    vals = {i: val(c, p) for i, c in enumerate(phi.coefficients) if c != 0}
    vad = vals[d]
    low = [(v - vad) / F(d - i) for i, v in vals.items() if i < d]
    v_c = min([-vad / F(d - 1)] + low)
    min_val = min(vals.values())
    t_floor = min_val + d * min(v_c, F(0))
    bound_q = max(F(0), -t_floor) + abs(vad) / F(d - 1)
    tail_const = float(bound_q) * math.log(p)
    integral = all(c.denominator % p for c in phi.coefficients)
    neg = max(0, math.ceil(-min_val))
    negvc = max(0, math.ceil(-v_c))
    loss_per_step = neg + (d - 1) * negvc
    trust = 64 + 2 * (1 + math.ceil(abs(v_c))) + rho0_mag + d * negvc
    window = trust + (max_iter + 1) * loss_per_step
    return v_c, vad, min_val, tail_const, integral, window, trust - d * negvc


@st.composite
def _maps_at_a_prime(draw):
    """(phi, p): degree 2..12, p <= 11, zero coefficients and coefficients
    +-u * p**e, whose valuations tie in the v_C minimum often."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    d = draw(st.integers(2, 12))
    coefficient = st.one_of(
        st.just(F(0)),
        st.builds(lambda u, e: u * F(p) ** e, st.sampled_from([1, -1, 2, 3, -5]), st.integers(-9, 9)),
        st.builds(F, st.integers(-10**4, 10**4), st.integers(1, 10**4)),
    )
    coeffs = draw(st.lists(coefficient, min_size=d, max_size=d))
    return RationalPoly(coeffs + [draw(coefficient.filter(bool))]), p


def _residue(x, p, k):
    """The rational congruent to x modulo p**k that reduce_mod_prime_power
    gives, on Fractions: p**v * (u * w**-1 mod p**(k - v)) for x = p**v * u/w,
    or 0 when val(x) >= k."""
    v = val(x, p)
    if v >= k:
        return F(0)
    unit, modulus = x / F(p) ** v, p ** int(k - v)
    return unit.numerator * pow(unit.denominator, -1, modulus) % modulus * F(p) ** v


@st.composite
def _disc_orbits(draw):
    """(phi, disc, max_iter): degree 2..6 at p in {2, 3, 5, 7}, half the maps
    p-integral and half with p or p**2 in denominators; centers with
    p-power denominators, radius valuations k/q in [-6, 12] with q <= 4."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(2, 6))
    integral = draw(st.booleans())
    dens = st.just(1) if integral else st.sampled_from([1, p, p * p])
    coeffs = draw(st.lists(st.builds(F, st.integers(-9, 9), dens), min_size=d, max_size=d))
    if not integral:
        coeffs[0] = (coeffs[0] or F(1)) / draw(st.sampled_from([p, p * p]))
    coeffs.append(draw(st.builds(F, st.sampled_from([1, -1, 2, 3, p]), dens)))
    center = draw(st.builds(F, st.integers(-30, 30), st.sampled_from([1, p, p * p, p**3])))
    q = draw(st.integers(1, 4))
    rho = F(draw(st.integers(-6 * q, 12 * q)), q)
    return RationalPoly(coeffs), DiscPoint(center, rho, p), draw(st.sampled_from([1, 4, 16, 64]))


class TestLocalInvariants:
    """The per-(map, place) record is built on integers; the Fraction
    formulas above are the reference."""

    @settings(max_examples=400, deadline=None)
    @given(
        case=_maps_at_a_prime(),
        max_iter=st.sampled_from([1, 16, 256, MEMBERSHIP_MAX_ITER]),
        rho0_mag=st.integers(0, 2 * MEMBERSHIP_RHO_MAX),
    )
    # v_C ties: -0/2 against -1/1 and -2/2 (i = 2, 1) at a unit lead
    @example(case=(P(0, F(1, 9), F(1, 3), 1), 3), max_iter=64, rho0_mag=0)
    @example(
        case=(RationalPoly([F(1, 3**5)] + [0] * 100 + [F(3**7)] + [0] * 154 + [F(1, 9)]), 3),
        max_iter=256,
        rho0_mag=4,
    )
    def test_integer_record_matches_the_fraction_formulas(self, case, max_iter, rho0_mag):
        phi, p = case
        inv, plan = _LocalInvariants(phi, p), _OrbitPlan(phi, p, max_iter, rho0_mag)
        expected = _fraction_invariants(phi, p, max_iter, rho0_mag)
        got = (inv.v_c, inv.vad, inv.min_val, inv.tail_const, inv.integral, plan.window, plan.rho_trust)
        assert got == expected
        assert type(inv.v_c) is F
        assert type(inv.vad) is int and type(inv.min_val) is int

    def test_worked_quintic(self):
        quintic = P(F(1, 2), 1, 1, 0, 0, 1)
        at_2 = _LocalInvariants(quintic, 2)
        # the certified witness slope of the README erratum
        assert at_2.v_c == F(-1, 5) and type(at_2.v_c) is F
        assert (at_2.vad, at_2.min_val, at_2.integral) == (0, -1, False)
        assert at_2.tail_const == math.log(4)
        at_3 = _LocalInvariants(quintic, 3)
        assert (at_3.v_c, at_3.vad, at_3.min_val, at_3.integral) == (0, 0, 0, True)
        assert at_3.tail_const == 0.0


class TestFilledJuliaMembership:
    def test_gauss_point_fixed_under_squaring(self):
        verdict = filled_julia_membership(P(0, 0, 1), DiscPoint(0, 0, 2))
        assert verdict == BoundedCertified(cycle_start=0, cycle_length=1)

    def test_big_disc_escapes_under_squaring(self):
        verdict = filled_julia_membership(P(0, 0, 1), DiscPoint(0, -1, 2))
        assert isinstance(verdict, Escaped)
        assert verdict.step == 0

    def test_classical_origin_escapes_with_drift(self):
        for p in (2, 3, 5):
            verdict = filled_julia_membership(P(F(1, p), 0, 1), DiscPoint(0, INF, p))
            assert verdict == Escaped(step=1)

    def test_two_cycle_of_discs(self):
        # squaring mod 7 cycles the residues 2 -> 4 -> 2, and the unit
        # derivative keeps the radius: the discs form an exact 2-cycle
        verdict = filled_julia_membership(P(0, 0, 1), DiscPoint(2, 1, 7))
        assert verdict == BoundedCertified(cycle_start=0, cycle_length=2)

    def test_contracting_orbit_is_bounded_but_uncertified(self):
        # under X^2 - 1 the disc about the superattracting cycle 0 -> -1
        # strictly shrinks each round trip, so no exact disc revisit occurs;
        # the verdict must stay on the sound side: bounded-so-far, not escaped
        verdict = filled_julia_membership(P(-1, 0, 1), DiscPoint(0, 1, 3), 40)
        assert verdict == BoundedUpTo(max_iter=40)

    def test_max_iter_guard(self):
        # checked before any work, so only the value just above the cap is
        # run; True equals 1 but is refused, as it would share 1's plan
        for bad in (0, MEMBERSHIP_MAX_ITER + 1, True, 2.0):
            with pytest.raises(PreconditionError, match="MEMBERSHIP_MAX_ITER"):
                filled_julia_membership(P(0, 0, 1), DiscPoint(0, 0, 2), bad)

    def test_rho_cap(self):
        # checked before any work, so only |rho| just above the cap is run
        for rho in (MEMBERSHIP_RHO_MAX + 1, -MEMBERSHIP_RHO_MAX - 1):
            with pytest.raises(PreconditionError, match="MEMBERSHIP_RHO_MAX"):
                filled_julia_membership(P(0, 1, 1), DiscPoint(1, rho, 3), 64)

    def test_monotone_escape(self):
        # escape at rho implies escape at any wider disc (smaller rho)
        rng = random.Random(37)
        found = 0
        while found < 60:
            p = rng.choice([2, 3, 5])
            phi = rand_poly(rng, maxdeg=4)
            if phi.degree < 2:
                continue
            a = rand_fraction(rng, -10, 10, 6)
            rho = F(rng.randint(-5, 5), rng.randint(1, 2))
            v = filled_julia_membership(phi, DiscPoint(a, rho, p), 48)
            if not isinstance(v, Escaped):
                continue
            found += 1
            wider = filled_julia_membership(
                phi, DiscPoint(a, rho - rng.randint(1, 4), p), 48
            )
            assert isinstance(wider, Escaped)
            assert wider.step <= v.step

    def test_escape_within_cap_below_lead_bound(self):
        rng = random.Random(41)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7])
            d = rng.randint(2, 5)
            cs = [rand_fraction(rng) for _ in range(d)]
            lead = rand_fraction(rng, -9, 9, 5)
            if lead == 0:
                lead = F(1)
            phi = RationalPoly(cs + [lead])
            vad = val(lead, p)
            rho = -abs(vad) / (d - 1) - F(rng.randint(1, 7), rng.randint(1, 3))
            assert rho < vad / (d - 1)
            verdict = filled_julia_membership(phi, DiscPoint(rand_fraction(rng), rho, p), 64)
            assert isinstance(verdict, Escaped)

    def test_inconclusive_verdict_reports_depth(self):
        # wandering but non-escaping orbits exhaust the iteration budget
        phi = P(F(1, 3), 0, 0, 1)  # X^3 + 1/3 at p = 3 wanders near the boundary
        verdict = filled_julia_membership(phi, DiscPoint(0, F(1, 6), 3), 12)
        assert verdict == BoundedUpTo(max_iter=12) or isinstance(
            verdict, (Escaped, BoundedCertified)
        )

    def test_huge_coefficients_on_type_i_orbit(self):
        # the lower coefficients sum past the float range; the exact-orbit
        # cutoff must still be computed without overflow
        phi = P(10**400, 0, 1)
        assert filled_julia_membership(phi, DiscPoint(0, INF, 2), 8) == BoundedUpTo(8)

    @pytest.mark.parametrize("center, p", [(-3000, 2), (F(60, 59), 3)])
    def test_type_i_orbit_is_reduced_once_it_cannot_repeat(self, center, p):
        # X^256 passes its growth bound at step 1; the exact image of that
        # point has over 10**5 digits; evaluating and reducing it took 14-81 s
        started = time.monotonic()
        phi = RationalPoly.monomial(256)
        assert filled_julia_membership(phi, DiscPoint(center, INF, p), 64) == BoundedUpTo(64)
        assert time.monotonic() - started < 0.5

    def test_type_i_orbit_past_its_growth_bound_steps_modulo_the_window(self):
        # X + X^256/243 at p = 3 from 9: each orbit point is 9 plus terms of
        # valuation above 500, so it never passes v_C = 1/51, and the orbit
        # is past its growth bound from step 1.  Evaluating each image
        # exactly on a W-digit residue and only then reducing it took
        # 14-34 s on 2-vCPU Xeons.
        started = time.monotonic()
        phi = RationalPoly.identity() + RationalPoly.monomial(256, F(1, 243))
        assert filled_julia_membership(phi, DiscPoint(9, INF, 3), 256) == BoundedUpTo(256)
        assert time.monotonic() - started < 5

    @pytest.mark.parametrize("text, max_iter", [("7X^256-X", 64), ("7*X^5+X+1", 2048)])
    def test_integral_orbit_past_its_growth_bound_stops_at_the_trap(self, text, max_iter):
        # A 7-integral map and point: past the growth bound the orbit can
        # neither cycle nor escape.  Running out the budget took over 30 s
        # and 8.6 s on a 2-vCPU Xeon.
        started = time.monotonic()
        phi = parse_polynomial(text)
        assert filled_julia_membership(phi, DiscPoint(F(1, 2), INF, 7), max_iter) == BoundedUpTo(
            max_iter)
        assert time.monotonic() - started < 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)), min_size=3, max_size=6),
        st.tuples(st.integers(-30, 30), st.integers(1, 30)),
        st.integers(1, 256),
    )
    @example(2, [(-2, 1), (0, 1), (1, 1)], (0, 1), 3)  # 0 -> -2 -> 2 -> 2
    @example(2, [(-2, 1), (0, 1), (1, 1)], (0, 1), 2)  # the budget ends before 2 recurs
    @example(3, [(-1, 1), (0, 1), (1, 1)], (0, 1), 256)  # the 2-cycle 0 <-> -1
    @example(5, [(1, 3), (1, 1), (0, 1), (1, 2)], (1, 7), 256)
    def test_integral_trap_matches_the_preperiodicity_oracle(self, p, coeffs, x, max_iter):
        # For a p-integral map and point the orbit never escapes, so the
        # verdict is the exact orbit's cycle if it closes within the budget,
        # and BoundedUpTo otherwise, as decided by is_preperiodic.
        def p_integral(num, den):
            return F(num, den if den % p else 1)

        phi = RationalPoly([p_integral(*c) for c in coeffs])
        assume(not phi.is_zero and phi.degree >= 2)
        xf = p_integral(*x)
        verdict = filled_julia_membership(phi, DiscPoint(xf, INF, p), max_iter)
        cert = is_preperiodic(phi, xf)
        if cert and cert.tail_length + cert.cycle_length <= max_iter:
            assert verdict == BoundedCertified(cert.tail_length, cert.cycle_length)
        else:
            assert verdict == BoundedUpTo(max_iter)

    def test_a_small_fixed_center_stays_as_it_is(self):
        # 1/2 is fixed with multiplier 3 at p = 3, so the radius valuation
        # grows by one a step from 3/2.  Every residue of 1/2 mod 3**k is
        # larger than 1/2, which therefore stays the center; replaced by its
        # residues, the center grew with the radius and this call ran past
        # 60 s, against 0.6 s on a 2-vCPU Xeon.
        started = time.monotonic()
        y = RationalPoly.identity() - F(1, 2)
        phi = F(1, 2) + 3 * y + y * y * F(1, 3) + RationalPoly.monomial(256).compose(y)
        assert filled_julia_membership(phi, DiscPoint(F(1, 2), F(3, 2), 3), 256) == BoundedUpTo(256)
        assert time.monotonic() - started < 5

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 4)), min_size=3, max_size=5),
        st.booleans(),
        st.tuples(st.integers(-30, 30), st.integers(1, 30)),
        st.integers(1, 4).flatmap(lambda q: st.tuples(st.integers(-6 * q, 12 * q), st.just(q))),
        st.sampled_from([1, 4, 16, 64]),
        st.data(),
    )
    @example(7, [(0, 1), (0, 1), (1, 1)], True, (2, 1), (1, 1), 16, None)  # the 2-cycle 2 -> 4
    # A fixed disc whose center 10/9 has a larger residue mod 5**3: a cycle
    # key taken from the center as written misses the cycle from 10/9 only
    @example(5, [(-5, 4), (-2, 2), (-5, 3), (-6, 1), (0, 3)], True, (10, 9), (3, 1), 1, None)
    def test_verdict_does_not_depend_on_how_the_disc_is_written(
        self, p, coeffs, integral, center, rho, max_iter, data
    ):
        # D(c, p**-rho) = D(c + u*p**ceil(rho), p**-rho) for every integer u,
        # and u up to p**300 makes the second center far larger than its
        # residue.  The maps are p-integral, or have p in a denominator.
        cs = [F(n, q if q % p else 1) for n, q in coeffs]
        if not integral:
            cs[0] = (cs[0] or F(1)) / p
        phi = RationalPoly(cs)
        assume(not phi.is_zero and phi.degree >= 2)
        c, rho = F(*center), F(*rho)
        u = data.draw(st.integers(-(p**300), p**300)) if data else p**300 - 1
        verdict = filled_julia_membership(phi, DiscPoint(c, rho, p), max_iter)
        other = filled_julia_membership(
            phi, DiscPoint(c + u * F(p) ** math.ceil(rho), rho, p), max_iter)
        assert other == verdict
        assert getattr(other, "valuation", None) == getattr(verdict, "valuation", None)

    @staticmethod
    def _replay(phi, zeta, max_iter, max_bits=None):
        """The verdict of an exact orbit replay, or None once a radius
        valuation reaches 64, where membership stops certifying by design.
        With ``max_bits``, a type I replay stops before a point whose
        numerator or denominator is longer, with the verdict BoundedUpTo(k)
        for the k steps before it that it checked.

        Discs go through pushforward, re-centered at their center mod
        p**ceil(rho) (any center of a disc has the same image); type I
        points are never reduced."""
        p = zeta.p
        v_c = escape_threshold(phi, p)
        states = []
        for m in range(max_iter + 1):
            if not zeta.is_type_i and zeta.rho >= 64:
                return None
            size = max(abs(zeta.center.numerator), zeta.center.denominator)
            if max_bits and size.bit_length() > max_bits:
                return BoundedUpTo(m - 1)
            t = min(val(zeta.center, p), zeta.rho)
            if t < v_c:
                return Escaped(m, t)
            if zeta in states:
                k = states.index(zeta)
                return BoundedCertified(k, m - k)
            states.append(zeta)
            zeta = pushforward(phi, zeta)
            if not zeta.is_type_i:
                center = reduce_mod_prime_power(zeta.center, p, math.ceil(zeta.rho))
                zeta = DiscPoint(center, zeta.rho, p)
        return BoundedUpTo(max_iter)

    def test_verdicts_match_exact_replay(self):
        rng = random.Random(53)
        seen = {Escaped: 0, BoundedCertified: 0, BoundedUpTo: 0}
        skipped = 0
        for _ in range(400):
            p = rng.choice([2, 3, 5, 7])
            d = rng.randint(2, 4)
            # integral maps half the time, so that discs often cycle
            dmax = 1 if rng.random() < 0.5 else 4
            cs = [rand_fraction(rng, -9, 9, dmax) for _ in range(d)]
            phi = RationalPoly(cs + [F(rng.choice([1, -1, 2, 3, p]), rng.randint(1, dmax))])
            center = rand_fraction(rng, -20, 20, dmax)
            if rng.random() < 0.3:
                rho, max_iter = INF, rng.randint(1, 6)
            else:
                rho, max_iter = F(rng.randint(-6, 8), 2), rng.randint(1, 12)
            zeta = DiscPoint(center, rho, p)
            expected = self._replay(phi, zeta, max_iter)
            if expected is None:
                skipped += 1
                continue
            verdict = filled_julia_membership(phi, zeta, max_iter)
            assert verdict == expected, (phi, zeta, max_iter)
            if isinstance(expected, Escaped):
                assert verdict.valuation == expected.valuation
            seen[type(expected)] += 1
        assert min(seen.values()) >= 40, seen
        assert skipped <= 40

    @staticmethod
    def _fraction_disc_replay(phi, zeta, max_iter):
        """filled_julia_membership from the disc ``zeta``, replayed on
        Fractions: each image through pushforward, t = min(val(residue),
        rho) against escape_threshold, and the engine's cycle rule: the
        center's residue modulo p**min(ceil(rho), W) with rho is the cycle
        key until a radius valuation reaches rho_trust, and that residue
        replaces the center only when smaller (W and rho_trust from the
        map's _OrbitPlan)."""
        p = zeta.p
        v_c = escape_threshold(phi, p)
        plan = _OrbitPlan(phi, p, max_iter, 2 * math.ceil(abs(zeta.rho)))
        center, rho = zeta.center, zeta.rho
        certifiable, seen = True, {}
        for m in range(max_iter + 1):
            residue = _residue(center, p, min(math.ceil(rho), plan.window))
            if max(abs(residue.numerator), residue.denominator) < max(
                    abs(center.numerator), center.denominator):
                center = residue
            t = min(val(residue, p), rho)
            if t < v_c:
                return Escaped(m, t)
            if certifiable:
                if (residue, rho) in seen:
                    return BoundedCertified(seen[residue, rho], m - seen[residue, rho])
                seen[residue, rho] = m
            if m == max_iter:
                break
            image = pushforward(phi, DiscPoint(center, rho, p))
            center, rho = image.center, image.rho
            certifiable = certifiable and rho < plan.rho_trust
        return BoundedUpTo(max_iter)

    @settings(max_examples=300, deadline=None)
    @given(case=_disc_orbits())
    # Radius-driven verdicts that val(w) (1/9 and 3/4: 2 and 2) or val(den)
    # (5/2, -5/2 and 1/3: 1, 1 and 1) decide: an escape at step 14, an
    # inconclusive orbit, a fixed disc and a 2-cycle of discs
    @example(case=(P(F(1, 9), 4, -1), DiscPoint(F(1, 3), 12, 3), 16))
    @example(case=(P(F(3, 4), F(-3, 4), F(1, 2)), DiscPoint(3, F(47, 4), 2), 4))
    @example(case=(P(8, 1, 2), DiscPoint(F(5, 2), F(1, 4), 2), 16))
    @example(case=(P(1, -3, 2), DiscPoint(F(-5, 2), F(13, 4), 2), 64))
    def test_integer_disc_step_matches_a_fraction_replay(self, case):
        # The engine steps (num, den) by one integer Taylor shift, taking
        # val(c_n) = val(e_n) - val(w) - (d - n)*val(den); the replay takes
        # every valuation from pushforward's Fractions.
        phi, zeta, max_iter = case
        verdict = filled_julia_membership(phi, zeta, max_iter)
        expected = self._fraction_disc_replay(phi, zeta, max_iter)
        assert verdict == expected
        assert getattr(verdict, "valuation", None) == getattr(expected, "valuation", None)

    def test_integer_type_i_orbits_match_exact_replay(self):
        # Random maps of degree 2-5, half p-integral and half with p in a
        # denominator, from integers and rationals with and without p in the
        # denominator, at budgets up to 256.  Where the exact replay stops
        # early (its points outgrow max_bits), the engine must report no
        # escape and no cycle at the steps the replay checked.  ``reduced``
        # counts the cases where an exact orbit point at or before the
        # verdict outgrows p**W, W the window of the engine's plan, so that
        # the engine's residues modulo p**W cannot be the exact points.
        rng = random.Random(71)
        decided = {Escaped: 0, BoundedCertified: 0, BoundedUpTo: 0}
        reduced = truncated = 0
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7])
            d = rng.randint(2, 5)
            if rng.random() < 0.5:
                dens = [q for q in (1, 1, 2, 3, 5, 7) if q != p]
            else:
                dens = [1, 1, p, p * p]
            cs = [F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(d)]
            cs.append(F(rng.choice([1, -1, 2, 3, p]), rng.choice(dens)))
            center = F(rng.randint(-20, 20), rng.choice([1, 2, 3, 6, p, p * p]))
            kind = rng.random()
            if kind < 0.25:
                # a + lam*(X - a) + mu*(X - a)**2 with |lam| > 1 at p: from
                # a + p**k the orbit leaves a one p-adic digit a step, so it
                # escapes late, often after its pairs have been reduced.
                a, mu = F(rng.randint(-4, 4)), F(rng.choice([1, -1, 3]))
                lam = F(rng.choice([1, 2, 4]) * p + 1, p)
                cs = [a - lam * a + mu * a * a, lam - 2 * mu * a, mu]
                center = a + F(p) ** rng.randint(2, 12)
            elif kind < 0.5:
                # The linear and constant terms send center -> e -> f, with f
                # center or e, so the orbit cycles unless it escapes first.
                e = center + rng.choice([-1, 1]) * F(rng.randint(1, 9), rng.choice(dens))
                f = rng.choice([center, e])
                high = RationalPoly([0, 0] + cs[2:])
                slope = (e - f - high(center) + high(e)) / (center - e)
                cs[:2] = [e - high(center) - slope * center, slope]
            phi = RationalPoly(cs)
            d = phi.degree
            max_iter = rng.choice([rng.randint(1, 12), rng.randint(64, 256), 256])
            zeta = DiscPoint(center, INF, p)
            expected = self._replay(phi, zeta, max_iter, max_bits=20_000)
            verdict = filled_julia_membership(phi, zeta, max_iter)
            if isinstance(expected, BoundedUpTo) and expected.max_iter < max_iter:
                truncated += 1
                k = expected.max_iter
                if isinstance(verdict, Escaped):
                    assert verdict.step > k, (phi, zeta, max_iter)
                elif isinstance(verdict, BoundedCertified):
                    assert verdict.cycle_start + verdict.cycle_length > k, (phi, zeta, max_iter)
                continue
            assert verdict == expected, (phi, zeta, max_iter)
            decided[type(expected)] += 1
            rate = local_escape_rate(phi, center, p, max_iter).log_p_multiple
            if isinstance(expected, Escaped):
                assert verdict.valuation == expected.valuation
                t, vad = expected.valuation, val(phi.leading_coefficient, p)
                assert rate == (-t - vad / (d - 1)) / d**expected.step
            elif isinstance(expected, BoundedCertified):
                assert rate == 0
            elif all(c.denominator % p for c in (center, *phi.coefficients)):
                assert rate == 0  # the integral trap
            else:
                assert rate is None
            if isinstance(expected, BoundedCertified):
                continue  # a cycling orbit has bounded height
            end = verdict.step if isinstance(expected, Escaped) else max_iter
            size = p ** _OrbitPlan(phi, p, max_iter, 0).window
            point = center
            for _ in range(end):
                point = phi(point)
                if abs(point.numerator) > size or point.denominator > size:
                    reduced += 1
                    break
        assert min(decided.values()) >= 10 and reduced >= 10 and truncated >= 10, (
            decided, reduced, truncated)

    @staticmethod
    def _replay_at_twice_the_window(phi, x, p, max_iter):
        """The type I verdict of an orbit replay on Fractions with phi(z) that,
        once the orbit is past phi's growth bound, reduces each point modulo
        p**(2W), W the window of the engine's plan, the number of steps it
        reduced, and how many of those gave a point with p in its
        denominator.  Past the bound no point can recur, and 2W digits keep
        every valuation below W exact for the whole budget, so a window
        provisioned too small shows as a different verdict."""
        v_c = escape_threshold(phi, p)
        bound = is_preperiodic(phi, x).growth_bound + 1e-9
        window = 2 * _OrbitPlan(phi, p, max_iter, 0).window
        z, seen, reduced, with_p, past = x, {}, 0, 0, False
        for m in range(max_iter + 1):
            t = val(z, p)
            if t < v_c:
                return Escaped(m, t), reduced, with_p
            past = past or weil_height(z) > bound
            if not past:
                if z in seen:
                    return BoundedCertified(seen[z], m - seen[z]), reduced, with_p
                seen[z] = m
            if m == max_iter:
                break
            z = phi(z)
            if past:
                z = reduce_mod_prime_power(z, p, window)
                reduced += 1
                with_p += z.denominator % p == 0
        return BoundedUpTo(max_iter), reduced, with_p

    def test_type_i_window_matches_a_replay_at_twice_the_window(self):
        # phi = psi(X - a) with psi(Y) = a + lam*Y + c_2*Y**2 + ... + c_d*Y**d,
        # a != 0, val(lam) = -j and the c_i p-adic units: phi fixes a and repels
        # from it by j digits a step, so from a + p**k*r the orbit escapes
        # near step k/j, or outlasts the budget, after 100 or more reduced
        # steps.  The engine must then read the same valuations from its
        # window W as the replay from 2W.
        rng = random.Random(79)
        seen = {Escaped: 0, BoundedUpTo: 0}
        for _ in range(40):
            p = rng.choice([2, 3, 5, 7])
            j = rng.choice([1, 1, 2])
            units = [q for q in (1, -1, 2, -2, 3, 4, 5, 6) if q % p]
            a = F(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.choice([q for q in (1, 2, 3, 5) if q % p]))
            lam = F(rng.choice([1, 2, 4]) * p + 1, p**j)
            high = [F(rng.choice(units), rng.choice(units[:2])) for _ in range(rng.randint(1, 3))]
            phi = RationalPoly([a, lam, *high]).compose(RationalPoly([-a, 1]))
            x = a + F(p) ** (j * rng.randint(110, 300)) * F(rng.choice(units), rng.choice(units))
            max_iter = 256
            expected, reduced, _ = self._replay_at_twice_the_window(phi, x, p, max_iter)
            assert reduced >= 100, (phi, x, reduced)
            verdict = filled_julia_membership(phi, DiscPoint(x, INF, p), max_iter)
            assert verdict == expected, (phi, x)
            if isinstance(expected, Escaped):
                assert verdict.valuation == expected.valuation, (phi, x)
                assert local_escape_rate(phi, x, p, max_iter).escaped_at == expected.step
            seen[type(expected)] += 1
        assert min(seen.values()) >= 8, seen

    def test_type_i_window_holds_at_reduced_states_with_p_in_the_denominator(self):
        # The family of the test above with a leading coefficient divisible
        # by p**(2(d - 1)), so v_C <= -2: from a + p**(j*n)*r the orbit
        # leaves a j digits a step, through reduced states of valuation -1
        # or less that do not yet escape.  At such a state a/p**e the engine
        # takes the image's numerator modulo d*e more digits than at a
        # p-integral one, and must still match the replay at 2W.
        rng = random.Random(83)
        seen = {Escaped: 0, BoundedUpTo: 0}
        with_p_cases = 0
        for _ in range(30):
            p = rng.choice([2, 3, 5, 7])
            j = rng.choice([1, 1, 2])
            units = [q for q in (1, -1, 2, -2, 3, 4, 5, 6) if q % p]
            a = F(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.choice([q for q in (1, 2, 3, 5) if q % p]))
            lam = F(rng.choice([1, 2, 4]) * p + 1, p**j)
            high = [F(rng.choice(units), rng.choice(units[:2])) for _ in range(rng.randint(1, 2))]
            high[-1] *= p ** (2 * len(high))
            phi = RationalPoly([a, lam, *high]).compose(RationalPoly([-a, 1]))
            assert escape_threshold(phi, p) <= -2
            n = rng.randint(110, 200)  # steps until the orbit reaches valuation 0
            x = a + F(p) ** (j * n) * F(rng.choice(units), rng.choice(units))
            max_iter = rng.choice([256, n + 2])
            expected, reduced, with_p = self._replay_at_twice_the_window(phi, x, p, max_iter)
            assert reduced >= 100, (phi, x, reduced)
            verdict = filled_julia_membership(phi, DiscPoint(x, INF, p), max_iter)
            assert verdict == expected, (phi, x)
            if isinstance(expected, Escaped):
                assert verdict.valuation == expected.valuation, (phi, x)
                assert local_escape_rate(phi, x, p, max_iter).escaped_at == expected.step
            seen[type(expected)] += 1
            with_p_cases += with_p > 0
        assert with_p_cases >= 25 and min(seen.values()) >= 8, (with_p_cases, seen)

    def test_plan_kept_on_a_warm_map_matches_a_fresh_map(self):
        # One map object answers every (point, max_iter) in a shuffled order,
        # so its orbit plans were made for earlier calls; a fresh object per
        # call makes its plan anew.  Every map fixes a.  The inputs about a
        # are what a plan made for a shorter orbit or a smaller radius gets
        # wrong: a + p**k next to a repelling a escapes after tens of steps,
        # and a disc of rho near the cap about an integral map's a recurs at
        # once when the multiplier is a unit.
        rng = random.Random(67)
        for trial in range(24):
            p = rng.choice([2, 3, 5])
            a = rng.randint(-4, 4)
            if trial % 2:
                # integral, with the constant chosen so that phi(a) = a
                coeffs = [0] + [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]
                coeffs.append(rng.choice([1, -1, 2, 3, p, p * p]))
                coeffs[0] = a - RationalPoly(coeffs)(a)
            else:
                # a + lam*(X - a) + mu*(X - a)**2 with |lam| > 1 at p
                lam = F(rng.choice([1, 2, 4]) * p + 1, p ** rng.randint(1, 2))
                mu = F(rng.choice([1, -1, 3]))
                coeffs = [a - lam * a + mu * a * a, lam - 2 * mu * a, mu]
            rho_big = F(rng.randint(-2 * MEMBERSHIP_RHO_MAX, 2 * MEMBERSHIP_RHO_MAX), 2)
            points = [
                DiscPoint(rand_fraction(rng), INF, p),
                DiscPoint(F(a) + F(p) ** rng.randint(20, 120), INF, p),
                DiscPoint(a, F(rng.randint(1800, 2 * MEMBERSHIP_RHO_MAX), 2), p),
                DiscPoint(rand_fraction(rng), rho_big, p),
            ]
            calls = [(zeta, n) for zeta in points for n in (1, 5, 256)]
            rng.shuffle(calls)
            warm = RationalPoly(coeffs)
            for zeta, max_iter in calls:
                got = filled_julia_membership(warm, zeta, max_iter)
                want = filled_julia_membership(RationalPoly(coeffs), zeta, max_iter)
                assert got == want, (coeffs, zeta, max_iter)
                if isinstance(want, Escaped):
                    assert type(got.valuation) is F and got.valuation == want.valuation

    def test_verdict_serialization(self):
        assert verdict_to_json_dict(Escaped(3)) == {"verdict": "escaped", "step": 3}
        assert verdict_to_json_dict(BoundedCertified(1, 2)) == {
            "verdict": "bounded_certified",
            "cycle_start": 1,
            "cycle_length": 2,
        }
        assert verdict_to_json_dict(BoundedUpTo(64)) == {
            "verdict": "bounded_up_to",
            "max_iter": 64,
        }


class TestMaxPoint:
    def test_squaring_at_origin_is_exact(self):
        result = max_point(P(0, 0, 1), F(0), 2)
        assert result.exact
        assert result.snapped == 0
        assert result.rho_lower == result.rho_upper == 0

    def test_pure_powers_at_origin(self):
        for d, p in ((3, 2), (4, 5), (5, 3)):
            mono = RationalPoly([F(0)] * d + [F(1)])
            result = max_point(mono, F(0), p)
            assert result.exact and result.snapped == 0

    def test_two_cycle_center(self):
        # 0 <-> -1 under X^2 - 1; the unit disc about 0 is invariant and
        # any wider disc contains points escaping to infinity
        result = max_point(P(-1, 0, 1), F(0), 3)
        assert result.exact and result.snapped == 0

    def test_matches_membership_grid(self):
        phi = P(-1, 0, 1)
        p = 3
        result = max_point(phi, F(0), p)
        assert isinstance(
            filled_julia_membership(phi, DiscPoint(0, result.snapped, p), 64),
            BoundedCertified,
        )
        for dr in (F(1), F(1, 2), F(2)):
            below = filled_julia_membership(phi, DiscPoint(0, result.snapped - dr, p), 64)
            assert isinstance(below, Escaped)
            # narrower discs sit inside the certified one: never Escaped
            above = filled_julia_membership(phi, DiscPoint(0, result.snapped + dr, p), 64)
            assert not isinstance(above, Escaped)

    def test_bracket_search_is_golden(self):
        # 0 is fixed with multiplier 2, so rho* = 1: the floor probe at 0
        # escapes, the step-up probe at 1 is bounded, and the bracket
        # (0, 1] is bisected, snapped to 1 and confirmed on both sides.
        result = max_point(P(0, 2, F(1, 2), 1), F(0), 2)
        assert result == MaxPointResult(F(2097151, 2097152), F(1), F(1), True, 23)

    def test_repelling_center_stops(self):
        # 3 is fixed under X^2/2 - X/2 with multiplier 5/2, of 2-adic
        # valuation -1: every disc about 3 escapes, each probe takes longer,
        # and the step-up phase ends at its first inconclusive probe.
        start = time.perf_counter()
        result = max_point(P(0, F(-1, 2), F(1, 2)), F(3), 2)
        assert time.perf_counter() - start < 5
        assert result.rho_upper is None and result.snapped is None
        assert not result.exact

    def test_probe_beyond_rho_cap_is_inconclusive(self):
        # 0 is fixed under X^2 + X/32 with multiplier of 2-adic valuation -5:
        # D(0, 2**-rho) escapes within MAX_POINT_ITER steps up to rho = 1023,
        # and the next step-up probe, rho = 2047, lies beyond the cap
        result = max_point(P(0, F(1, 32), 1), F(0), 2)
        assert result == MaxPointResult(F(1023), None, None, False, 11)

    def test_unconfirmed_snap_is_reported_inexact(self, monkeypatch):
        # A budget of one step: the floor probe at 0 and the bisection probe
        # at 1/2 are inconclusive, 1 is bounded, and the snap to 0 is not
        # confirmed, so the bracket [0, 1] comes back with no snapped value.
        monkeypatch.setattr("padicdyn.berkovich.MAX_POINT_ITER", 1)
        phi = parse_polynomial("X^3 - 43/7*X^2 + 186/7*X - 242/7")
        assert max_point(phi, 2, 7) == MaxPointResult(F(0), F(1), None, False, 4)

    def test_snap_without_an_escape_below_is_reported_inexact(self, monkeypatch):
        # A budget of two steps: 0 escapes, 1 is bounded and 1/2 is
        # inconclusive; the snap is 1 itself, but the probe just below it is
        # inconclusive too, so 1 is an upper end, not rho* exactly.
        monkeypatch.setattr("padicdyn.berkovich.MAX_POINT_ITER", 2)
        phi = parse_polynomial("X^3 - 16/5*X^2 - 8/5*X + 24/5")
        assert max_point(phi, 1, 5) == MaxPointResult(F(0), F(1), F(1), False, 4)

    def test_non_preperiodic_center_rejected(self):
        with pytest.raises(PreconditionError):
            max_point(P(F(1, 2), 0, 1), F(0), 2)  # 0 -> 1/2 -> ... escapes

    def test_simplest_open_against_brute_force(self):
        # The snap rational: the least denominator q, then the least k with
        # lo < k/q < hi.  Wide pairs (hi past floor(lo) + 1) and integer lo
        # take the early returns; narrow pairs take the descent.
        def oracle(lo, hi):
            q = 1
            while F(lo.numerator * q // lo.denominator + 1, q) >= hi:
                q += 1
            return F(lo.numerator * q // lo.denominator + 1, q)

        rng = random.Random(20260)
        for _ in range(20_000):
            lo = rand_fraction(rng, -40, 40, rng.choice((1, 7, 60)))
            hi = lo + F(rng.randint(1, 300), rng.randint(1, 400))
            assert _simplest_open(lo, hi) == oracle(lo, hi), (lo, hi)

    def test_results_serialize(self):
        result = max_point(P(0, 0, 1), F(0), 2)
        data = result.to_json_dict()
        assert data["exact"] is True
        assert data["snapped"] == "0"


def _sylvester_resultant_against_pure_power(coeffs):
    """Determinant of the Sylvester matrix of (F, Y^d) as degree-d binary forms.

    F = sum a_i X^i Y^(d-i).  Both forms are declared at degree d, so the
    matrix is 2d x 2d with d staggered copies of each coefficient row.
    """
    d = len(coeffs) - 1
    n = 2 * d
    fa = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    ga = [sympy.Integer(0)] * d + [sympy.Integer(1)]
    rows = []
    for k in range(d):
        rows.append([0] * k + fa + [0] * (n - d - 1 - k))
    for k in range(d):
        rows.append([0] * k + ga + [0] * (n - d - 1 - k))
    return sympy.Matrix(rows).det()


class TestGoodReduction:
    def test_monic_integral(self):
        assert good_reduction(P(1, 0, 1), Place(3)) is True

    def test_denominator_in_constant(self):
        assert good_reduction(P(F(1, 3), 0, 1), Place(3)) is False

    def test_small_leading_coefficient(self):
        assert good_reduction(P(1, 1, 3), Place(3)) is False

    def test_degree_guard(self):
        with pytest.raises(PreconditionError):
            good_reduction(P(1, 1), Place(3))

    def test_resultant_criterion_on_samples(self):
        # The dynamical resultant of a degree-d polynomial map against the
        # fixed form Y^d is a_d^d up to sign; rescaling the pair by p^k
        # multiplies it by p^(2dk).  Hence a unit resultant under some
        # integral rescaling is possible iff val(a_d) = 0 and every
        # coefficient is p-integral — exactly the decision under test.
        samples = [P(1, 0, 1), P(F(1, 3), 0, 1), P(1, 1, 3)]
        p = 3
        for phi in samples:
            coeffs = list(phi.coefficients)
            det = _sylvester_resultant_against_pure_power(coeffs)
            assert det == sympy.Rational(
                phi.leading_coefficient.numerator, phi.leading_coefficient.denominator
            ) ** phi.degree
            d = phi.degree
            vals = [val(c, p) for c in coeffs if c != 0]
            vres = val(F(int(det.p), int(det.q)), p)
            # unit resultant after scaling by p^k needs 2dk + vres = 0 with
            # k >= 0 and k + min val >= 0: solvable iff vres = 0, min val >= 0
            achievable = vres == 0 and min(vals) >= 0
            assert achievable == good_reduction(phi, Place(p))


_POINT = DiscPoint(0, 0, 3)
_NOT_A_POINT = "a point must be a DiscPoint, got None"
_NOT_A_POLY = "a polynomial must be a RationalPoly, got None"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: seminorm(None, P(0, 0, 1)), _NOT_A_POINT),
        (lambda: pushforward(P(0, 0, 1), None), _NOT_A_POINT),
        (lambda: filled_julia_membership(P(0, 0, 1), None), _NOT_A_POINT),
        (lambda: leq(_POINT, None), _NOT_A_POINT),
        (lambda: seminorm(_POINT, None), _NOT_A_POLY),
        (lambda: pushforward(None, _POINT), _NOT_A_POLY),
        (lambda: disc_point_from_json_dict({}), "malformed disc point data, got {}"),
        (lambda: disc_point_from_json_dict(None), "malformed disc point data, got None"),
        (lambda: verdict_to_json_dict(None), "not a membership verdict, got None"),
    ],
    ids=["seminorm-point", "pushforward-point", "membership-point", "leq-point",
         "seminorm-poly", "pushforward-poly", "reader-empty", "reader-None", "verdict-None"],
)
def test_a_point_or_polynomial_of_the_wrong_kind_is_refused(call, message):
    with pytest.raises(PreconditionError) as err:
        call()
    assert str(err.value) == message
