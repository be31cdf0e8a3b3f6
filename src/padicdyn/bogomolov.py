"""Height-gap certificates from Newton polygons of fixed-point equations.

For a degree-d polynomial phi over Q and a place (p, e), examine the
Newton polygon of psi = phi(X) - X.  A segment of slope sigma certifies a
fixed point zeta(X) of valuation -sigma in an algebraic closure.  When

  * sigma is not in the value group (1/e) * Z, and
  * sigma >= val(a_d)/(d-1), so the disc of radius p**-sigma about zeta(X)
    meets the bounded region of the dynamics,

that fixed point forces a uniform positive lower bound on canonical
heights over all extensions unramified above p (verdict StrongBogomolov).
Otherwise the test is Inconclusive — never "false": absence of a
qualifying slope proves nothing about the map.

The scan prefers the leftmost qualifying segment.  The same decision is
available for abstract valuation data (index, valuation) describing
phi(X) - X when the polynomial itself is not known.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .newton import NewtonPolygon, newton_polygon, polygon_from_json_dict
from .polynomial import RationalPoly
from .valuation import (
    Place,
    PreconditionError,
    Valuation,
    as_fraction,
    as_place,
    in_value_group,
    is_finite,
    val,
)


class Verdict(Enum):
    STRONG_BOGOMOLOV = "strong_bogomolov"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BogomolovCertificate:
    """Outcome of the slope test, with enough data to re-verify it.

    A StrongBogomolov verdict carries the witness: the qualifying segment,
    its slope sigma, and the valuation -sigma of the certified fixed point
    zeta(X).  An Inconclusive verdict carries the polygon only.
    """

    verdict: Verdict
    place: Place
    polygon: NewtonPolygon
    witness_slope: Fraction | None = None
    witness_segment: tuple[tuple[int, Fraction], tuple[int, Fraction]] | None = None
    julia_point_valuation: Fraction | None = None
    abstract_coefficients: bool = False

    @property
    def is_strong(self) -> bool:
        return self.verdict is Verdict.STRONG_BOGOMOLOV

    def to_json_dict(self) -> dict:
        witness = None
        if self.is_strong:
            (i0, v0), (i1, v1) = self.witness_segment
            witness = {
                "slope": str(self.witness_slope),
                "segment": [[i0, str(v0)], [i1, str(v1)]],
                "zeta_of_X_valuation": str(self.julia_point_valuation),
            }
        return {
            "verdict": self.verdict.value,
            "p": self.place.p,
            "e": self.place.e,
            "witness": witness,
            "polygon": self.polygon.to_json_dict(),
            "abstract": self.abstract_coefficients,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def certificate_from_json_dict(data: dict) -> BogomolovCertificate:
    """Inverse of BogomolovCertificate.to_json_dict (exact round-trip)."""
    place = Place(int(data["p"]), int(data["e"]))
    polygon = polygon_from_json_dict(data["polygon"])
    witness = data.get("witness")
    if witness is None:
        return BogomolovCertificate(
            Verdict.INCONCLUSIVE, place, polygon,
            abstract_coefficients=bool(data.get("abstract", False)),
        )
    seg = witness["segment"]
    return BogomolovCertificate(
        Verdict.STRONG_BOGOMOLOV,
        place,
        polygon,
        witness_slope=Fraction(witness["slope"]),
        witness_segment=(
            (int(seg[0][0]), Fraction(seg[0][1])),
            (int(seg[1][0]), Fraction(seg[1][1])),
        ),
        julia_point_valuation=Fraction(witness["zeta_of_X_valuation"]),
        abstract_coefficients=bool(data.get("abstract", False)),
    )


def _scan(
    polygon: NewtonPolygon,
    lead_valuation: Fraction,
    d: int,
    place: Place,
    abstract: bool,
) -> BogomolovCertificate:
    """Pick the leftmost segment with slope outside the value group and at
    least val(a_d)/(d-1); absence of one is Inconclusive."""
    threshold = lead_valuation / Fraction(d - 1)
    for k, seg in enumerate(polygon.segments):
        sigma = seg.slope
        if sigma >= threshold and not in_value_group(sigma, place.e):
            return BogomolovCertificate(
                Verdict.STRONG_BOGOMOLOV,
                place,
                polygon,
                witness_slope=sigma,
                witness_segment=(polygon.vertices[k], polygon.vertices[k + 1]),
                julia_point_valuation=-sigma,
                abstract_coefficients=abstract,
            )
    return BogomolovCertificate(
        Verdict.INCONCLUSIVE, place, polygon, abstract_coefficients=abstract
    )


def check_criterion(phi: RationalPoly, place) -> BogomolovCertificate:
    """Run the slope test on phi(X) - X at the given place.

    Requires deg phi >= 2 and phi(0) != 0 (the fixed-point polynomial must
    have a nonzero constant term for its polygon to start at index 0).
    """
    pl = as_place(place)
    if phi.is_zero or phi.degree < 2:
        raise PreconditionError("criterion requires degree >= 2")
    if phi(0) == 0:
        raise PreconditionError(
            "constant term vanishes; Newton polygon hypothesis violated"
        )
    psi = phi - RationalPoly.identity()
    d = phi.degree
    points = [(i, val(psi.coefficient(i), pl.p)) for i in range(d + 1)]
    polygon = newton_polygon(points)
    lead = val(phi.leading_coefficient, pl.p)
    assert is_finite(lead)
    return _scan(polygon, lead, d, pl, abstract=False)


def check_criterion_abstract(
    valuations: Iterable[tuple[int, Valuation]], d: int, place
) -> BogomolovCertificate:
    """Run the slope test on abstract (index, valuation) data for phi(X) - X.

    The data must include finite valuations at indices 0 and d; the index-d
    entry doubles as val(a_d) in the bounded-region threshold.
    """
    pl = as_place(place)
    if not isinstance(d, int) or d < 2:
        raise PreconditionError("criterion requires degree >= 2")
    if isinstance(valuations, Mapping):
        valuations = valuations.items()
    pts = list(valuations)
    by_index = {i: v for i, v in pts}
    if 0 not in by_index or not is_finite(by_index[0]):
        raise PreconditionError("missing index 0: constant-term valuation required")
    if d not in by_index or not is_finite(by_index[d]):
        raise PreconditionError(f"missing index {d}: leading valuation required")
    if any(i > d for i, _ in pts):
        raise PreconditionError(f"valuation index beyond degree {d}")
    polygon = newton_polygon(pts)
    lead = as_fraction(by_index[d])
    return _scan(polygon, lead, d, pl, abstract=True)
