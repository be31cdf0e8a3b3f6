"""Disc points, seminorms, containment order, dynamics on discs."""

import json
import random
from fractions import Fraction as F

import pytest
import sympy

from padicdyn import (
    INF,
    BoundedCertified,
    BoundedUpTo,
    DiscPoint,
    Escaped,
    Place,
    PreconditionError,
    RationalPoly,
    disc_point_from_json_dict,
    escape_threshold,
    filled_julia_membership,
    good_reduction,
    leq,
    max_point,
    noncontainment_witness,
    pushforward,
    seminorm,
    val,
    verdict_to_json_dict,
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

    def test_requires_prime(self):
        with pytest.raises(PreconditionError):
            DiscPoint(0, 0, 6)

    def test_json_round_trip(self):
        for zeta in (DiscPoint(F(7, 3), F(-2, 5), 3), DiscPoint(F(1), INF, 2)):
            data = json.loads(json.dumps(zeta.to_json_dict()))
            assert disc_point_from_json_dict(data) == zeta


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
        with pytest.raises(PreconditionError):
            filled_julia_membership(P(0, 0, 1), DiscPoint(0, 0, 2), 0)

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

    def test_non_preperiodic_center_rejected(self):
        with pytest.raises(PreconditionError):
            max_point(P(F(1, 2), 0, 1), F(0), 2)  # 0 -> 1/2 -> ... escapes

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
