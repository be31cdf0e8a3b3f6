"""Slope-based height-gap certificates and their soundness re-verification."""

import json
import random
from fractions import Fraction as F

import pytest

from padicdyn import (
    BogomolovCertificate,
    Place,
    PreconditionError,
    RationalPoly,
    Verdict,
    certificate_from_json_dict,
    check_criterion,
    check_criterion_abstract,
    in_value_group,
    newton_polygon,
    parse_polynomial,
    val,
)


def P(*ascending):
    return RationalPoly([F(c) for c in ascending])


def reverify(cert, phi=None, data=None, d=None):
    """Independent confirmation of a strong certificate from raw inputs.

    Rebuilds the fixed-point polygon from scratch and checks both gate
    inequalities exactly: slope outside the value group (1/e)Z, and slope
    at least val(lead)/(d-1) so the witnessed fixed point sits inside the
    bounded region.
    """
    assert cert.is_strong
    if phi is not None:
        psi = phi - P(0, 1)
        d = phi.degree
        pts = [(i, val(psi.coefficient(i), cert.place.p)) for i in range(d + 1)]
        lead = val(phi.leading_coefficient, cert.place.p)
    else:
        pts = data
        lead = dict(data)[d]
    polygon = newton_polygon(pts)
    sigma = cert.witness_slope
    assert any(s.slope == sigma for s in polygon.segments)
    assert not in_value_group(sigma, cert.place.e)
    assert sigma >= lead / (d - 1)


class TestKnownVerdicts:
    def test_unit_coefficients_inconclusive(self):
        cert = check_criterion(P(3, 0, 1), Place(5))
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.witness_slope is None
        assert not cert.is_strong

    def test_drifting_quintic_unramified(self):
        # phi(X) - X = X^5 + X^2 + 1/2 at p=2: hull runs straight from
        # (0,-1) to (5,0), slope 1/5, which is not an integer
        cert = check_criterion(parse_polynomial("X^5+X^2+X+1/2"), Place(2))
        assert cert.verdict is Verdict.STRONG_BOGOMOLOV
        assert cert.witness_slope == F(1, 5)
        assert cert.julia_point_valuation == F(-1, 5)
        reverify(cert, phi=parse_polynomial("X^5+X^2+X+1/2"))

    def test_drifting_quintic_ramification_two(self):
        # 1/5 times 2 is not an integer, so the gate stays open at e=2
        cert = check_criterion(parse_polynomial("X^5+X^2+X+1/2"), Place(2, 2))
        assert cert.verdict is Verdict.STRONG_BOGOMOLOV
        assert cert.witness_slope == F(1, 5)

    def test_drifting_quintic_ramification_five(self):
        # at e=5 the slope 1/5 lies in (1/5)Z and no segment qualifies
        cert = check_criterion(parse_polynomial("X^5+X^2+X+1/2"), Place(2, 5))
        assert cert.verdict is Verdict.INCONCLUSIVE

    def test_threshold_excludes_low_slopes(self):
        # phi = X^2/4 + X: psi = X^2/4 with only indices 2; polygon needs
        # index 0, so use a shifted example instead: phi = X^2 + X + 4 at
        # p=2 gives psi = X^2 + 4 with slope -1 < val(lead)/(d-1) = 0:
        # fixed points of valuation 1 sit inside the open unit disc of the
        # bounded region... the slope is negative and integral, so the
        # verdict is inconclusive through both gates
        cert = check_criterion(P(4, 1, 1), Place(2))
        assert cert.verdict is Verdict.INCONCLUSIVE

    def test_fractional_low_slope_rejected_by_disc_gate(self):
        # psi = X^3 - 8X: slopes (val 3 at idx 0 absent) -> use
        # phi = X^3 + X + 1/4 with lead 4: psi = X^3 + 1/4,
        # slope = (0-(-2))/3 = 2/3 not in Z, and lead val 0: qualifies.
        cert = check_criterion(P(F(1, 4), 1, 0, 1), Place(2))
        assert cert.verdict is Verdict.STRONG_BOGOMOLOV
        assert cert.witness_slope == F(2, 3)
        # but scaling the map so the lead valuation rises above the slope
        # moves the witnessed point outside the bounded region:
        # phi = 32X^3 + X + 1/4: psi = 32X^3 + 1/4, slope 7/3 >= 5/2? no:
        # threshold = val(32)/(3-1) = 5/2 > 7/3 -> inconclusive
        cert2 = check_criterion(P(F(1, 4), 1, 0, 32), Place(2))
        assert cert2.verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize(
        "phi, place",
        [
            # psi = 2X^3 + X + 1: slopes 0 and 1/2 = val(2)/(3 - 1)
            (P(1, 2, 0, 2), Place(2)),
            (P(1, 2, 0, 2), Place(2, 3)),
            # psi = 4X^5 + X + 1: slopes 0 and 1/2 = val(4)/(5 - 1)
            (P(1, 2, 0, 0, 0, 4), Place(2)),
        ],
    )
    def test_witness_slope_at_the_threshold_qualifies(self, phi, place):
        # the gate is sigma >= val(a_d)/(d - 1): a slope equal to it certifies
        cert = check_criterion(phi, place)
        assert cert.verdict is Verdict.STRONG_BOGOMOLOV
        assert cert.witness_slope == val(phi.leading_coefficient, 2) / (phi.degree - 1) == F(1, 2)
        reverify(cert, phi=phi)

    def test_constant_term_must_not_vanish(self):
        with pytest.raises(PreconditionError) as err:
            check_criterion(P(0, 2, 1), Place(3))
        assert "constant term" in str(err.value)

    def test_degree_guard(self):
        with pytest.raises(PreconditionError):
            check_criterion(P(1, 2), Place(3))


class TestAbstractInterface:
    def test_drifting_quintic_valuation_data(self):
        cert = check_criterion_abstract(
            [(0, F(-1)), (2, F(0)), (5, F(0))], 5, Place(2)
        )
        assert cert.verdict is Verdict.STRONG_BOGOMOLOV
        assert cert.witness_slope == F(1, 5)
        assert cert.abstract_coefficients
        reverify(cert, data=[(0, F(-1)), (2, F(0)), (5, F(0))], d=5)

    def test_flat_data_inconclusive(self):
        cert = check_criterion_abstract([(0, F(0)), (1, F(0)), (3, F(0))], 3, Place(7))
        assert cert.verdict is Verdict.INCONCLUSIVE

    def test_ramified_value_group_absorbs_slope(self):
        # slope (0 - (-2))/3 = 2/3 lies in (1/3)Z
        cert = check_criterion_abstract([(0, F(-2)), (3, F(0))], 3, Place(2, 3))
        assert cert.verdict is Verdict.INCONCLUSIVE

    def test_same_data_unramified_is_strong(self):
        cert = check_criterion_abstract([(0, F(-2)), (3, F(0))], 3, Place(2, 1))
        assert cert.verdict is Verdict.STRONG_BOGOMOLOV
        assert cert.witness_slope == F(2, 3)

    def test_missing_endpoints_rejected(self):
        with pytest.raises(PreconditionError) as err:
            check_criterion_abstract([(1, F(0)), (3, F(0))], 3, Place(2))
        assert "index 0" in str(err.value)
        with pytest.raises(PreconditionError) as err:
            check_criterion_abstract([(0, F(0)), (1, F(0))], 3, Place(2))
        assert "index 3" in str(err.value)

    def test_indices_beyond_degree_rejected(self):
        with pytest.raises(PreconditionError):
            check_criterion_abstract([(0, F(0)), (3, F(0)), (4, F(0))], 3, Place(2))

    def test_dict_input_accepted(self):
        cert = check_criterion_abstract({0: F(-1), 2: F(0), 5: F(0)}, 5, Place(2))
        assert cert.witness_slope == F(1, 5)


class TestInvariants:
    def test_strong_certificates_reverify(self):
        rng = random.Random(14)
        strong = 0
        for _ in range(400):
            p = rng.choice([2, 3, 5])
            d = rng.randint(2, 6)
            cs = [F(rng.randint(-9, 9), rng.choice([1, 1, 1, p, p * p])) for _ in range(d)]
            cs.append(F(rng.randint(1, 9), rng.choice([1, 1, p])))
            phi = RationalPoly(cs)
            if phi(0) == 0 or phi.degree < 2:
                continue
            cert = check_criterion(phi, Place(p, rng.randint(1, 3)))
            if cert.is_strong:
                strong += 1
                reverify(cert, phi=phi)
        assert strong >= 40  # the sampler hits plenty of strong cases

    def test_integral_unit_constant_maps_inconclusive(self):
        # monic maps with p-integral coefficients and unit constant term
        # keep the whole fixed-point polygon at height zero: single slope
        # 0, always inside every value group
        rng = random.Random(15)
        done = 0
        while done < 200:
            p = rng.choice([2, 3, 5, 7])
            d = rng.randint(2, 6)
            unit = rng.randint(1, 40)
            while unit % p == 0:
                unit += 1
            cs = [F(rng.choice([unit, -unit]))]
            cs += [F(rng.randint(-25, 25)) for _ in range(d - 1)]
            cs.append(F(1))
            phi = RationalPoly(cs)
            cert = check_criterion(phi, Place(p, rng.randint(1, 4)))
            assert cert.verdict is Verdict.INCONCLUSIVE
            done += 1

    def test_growing_ramification_only_degrades(self):
        rng = random.Random(16)
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            d = rng.randint(2, 5)
            cs = [F(rng.randint(-9, 9), rng.choice([1, p, p**2])) for _ in range(d)]
            cs.append(F(1))
            phi = RationalPoly(cs)
            if phi(0) == 0:
                continue
            e = rng.randint(1, 3)
            k = rng.randint(2, 4)
            low = check_criterion(phi, Place(p, e))
            high = check_criterion(phi, Place(p, e * k))
            if high.is_strong:
                assert low.is_strong  # finer value group can only lose witnesses


class TestCertificateData:
    def test_json_round_trip(self):
        cert = check_criterion(parse_polynomial("X^5+X^2+X+1/2"), Place(2))
        data = json.loads(cert.to_json())
        again = certificate_from_json_dict(data)
        assert isinstance(again, BogomolovCertificate)
        assert again.verdict == cert.verdict
        assert again.place == cert.place
        assert again.witness_slope == cert.witness_slope
        assert again.polygon == cert.polygon
        assert again.to_json_dict() == data

    @pytest.mark.parametrize("text", ["1e-200000", "1.5", " 1 "])
    def test_reader_refuses_non_rational_text(self, text):
        cert = check_criterion(parse_polynomial("X^5+X^2+X+1/2"), Place(2))
        for *path, last in [
            ("witness", "slope"),
            ("witness", "segment", 0, 1),
            ("witness", "segment", 1, 1),
            ("witness", "zeta_of_X_valuation"),
            ("polygon", "vertices", 0, 1),
        ]:
            data = json.loads(cert.to_json())
            node = data
            for key in path:
                node = node[key]
            node[last] = text
            with pytest.raises(PreconditionError, match="not a rational number"):
                certificate_from_json_dict(data)

    @pytest.mark.parametrize(
        "path, bad, message",
        [
            (("p",), 2.7, "p must be an integer"),
            (("p",), "1e5", "p must be an integer"),
            (("e",), 1.0, "e must be an integer"),
            (("witness", "segment", 0, 0), 0.5, "vertex index must be"),
            (("witness", "slope"), 0.2, "not a rational number"),
            (("polygon", "segments", 0, "length"), "5", "segment length must be"),
            (("witness",), 5, "^malformed certificate data, got"),
        ],
    )
    def test_reader_takes_exact_fields_only(self, path, bad, message):
        data = json.loads(check_criterion(parse_polynomial("X^5+X^2+X+1/2"), Place(2)).to_json())
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        with pytest.raises(PreconditionError, match=message):
            certificate_from_json_dict(data)

    def test_round_trip_on_random_maps(self):
        rng = random.Random(47)
        strong = 0
        for _ in range(200):
            d = rng.randint(2, 6)
            phi = RationalPoly(
                [F(rng.choice([1, -1]) * rng.randint(1, 40), rng.randint(1, 40))]
                + [F(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(d - 1)]
                + [F(rng.choice([1, -1]) * rng.randint(1, 40), rng.randint(1, 40))]
            )
            cert = check_criterion(phi, Place(rng.choice([2, 3, 5]), rng.randint(1, 3)))
            strong += cert.is_strong
            assert certificate_from_json_dict(json.loads(cert.to_json())) == cert
        abstract = check_criterion_abstract({0: F(-1), 2: F(0), 5: F(0)}, 5, Place(2))
        assert certificate_from_json_dict(json.loads(abstract.to_json())) == abstract
        assert 20 <= strong <= 180, strong

    def test_reader_refuses_a_witness_of_no_slope_of_its_polygon(self):
        data = json.loads(check_criterion(parse_polynomial("X^5+X^2+X+1/2"), Place(2)).to_json())
        data["witness"]["slope"] = "3"
        data["witness"]["zeta_of_X_valuation"] = "7"
        with pytest.raises(PreconditionError, match="disagrees with the slope test"):
            certificate_from_json_dict(data)

    @pytest.mark.parametrize(
        "path, bad",
        [
            (("witness", "slope"), "3"),
            (("witness", "zeta_of_X_valuation"), "7"),
            (("witness", "segment", 1), [2, "0"]),
            (("witness",), None),
            (("verdict",), "inconclusive"),
            (("e",), 5),  # 1/5 lies in the value group (1/5)Z
        ],
    )
    def test_reader_refuses_what_the_slope_test_contradicts(self, path, bad):
        data = json.loads(check_criterion(parse_polynomial("X^5+X^2+X+1/2"), Place(2)).to_json())
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        with pytest.raises(PreconditionError, match="disagrees with the slope test"):
            certificate_from_json_dict(data)

    @pytest.mark.parametrize(
        "polygon",
        [
            {"vertices": [[1, "0"], [3, "1"]], "segments": [{"slope": "1/2", "length": 2}]},
            {"vertices": [[0, "0"], [1, "1"]], "segments": [{"slope": "1", "length": 1}]},
        ],
    )
    def test_reader_refuses_a_polygon_of_no_fixed_point_equation(self, polygon):
        data = {"verdict": "inconclusive", "p": 2, "e": 1, "witness": None,
                "polygon": polygon, "abstract": False}
        with pytest.raises(PreconditionError, match="must span indices 0 to a degree"):
            certificate_from_json_dict(data)

    def test_inconclusive_round_trip(self):
        cert = check_criterion(P(3, 0, 1), Place(5))
        again = certificate_from_json_dict(json.loads(cert.to_json()))
        assert again.verdict is Verdict.INCONCLUSIVE
        assert again.witness_slope is None

    def test_witness_segment_endpoints_are_polygon_vertices(self):
        cert = check_criterion(parse_polynomial("X^5+X^2+X+1/2"), Place(2))
        i0, i1 = cert.witness_segment
        verts = list(cert.polygon.vertices)
        assert i0 in verts and i1 in verts


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: certificate_from_json_dict(None), "malformed certificate data, got None"),
        (lambda: certificate_from_json_dict({"p": 2}), "malformed certificate data, got {'p': 2}"),
        (lambda: check_criterion_abstract(None, 2, 3),
         "points must be (index, valuation) pairs, got None"),
        (lambda: check_criterion_abstract([(0, 1), (2,)], 2, 3),
         "points must be (index, valuation) pairs, got [(0, 1), (2,)]"),
    ],
    ids=["reader-None", "reader-no-e", "abstract-None", "abstract-single"],
)
def test_malformed_certificate_and_valuation_data_are_refused(call, message):
    with pytest.raises(PreconditionError) as err:
        call()
    assert str(err.value) == message
