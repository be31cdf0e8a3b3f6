"""Newton polygons: lower convex hulls of valuation data, and root valuations.

Given points (i, v_i) — index i a nonnegative integer, v_i a rational or
INF — the polygon is the lower boundary of the convex hull of the finite
points, computed by Andrew's monotone chain with exact rational cross
products.  Points with valuation INF (zero coefficients) never constrain
the hull and are skipped.  Collinear interior points are merged, so the
segment slopes are strictly increasing left to right.

A segment of slope s and horizontal length l certifies exactly l roots
(with multiplicity, in an algebraic closure) of valuation -s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PreconditionError, checked_int, checked_pairs, refusing_malformed
from .valuation import INF, Valuation, as_fraction, as_valuation

_VERTEX_RULE = "vertex index must be a nonnegative integer"
_POINTS_RULE = "points must be (index, valuation) pairs"


@dataclass(frozen=True)
class Segment:
    """One edge of a polygon: slope and horizontal length."""

    slope: Fraction
    length: int


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (index, valuation) points.

    vertices: the hull's corner points, index-ascending.
    segments: consecutive-vertex edges as (slope, length), slope-ascending.
    """

    vertices: tuple[tuple[int, Fraction], ...]
    segments: tuple[Segment, ...]

    def to_json_dict(self) -> dict:
        return {
            "vertices": [[i, str(v)] for i, v in self.vertices],
            "segments": [
                {"slope": str(s.slope), "length": s.length}
                for s in self.segments
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


@refusing_malformed("polygon data")
def polygon_from_json_dict(data: dict) -> NewtonPolygon:
    """Inverse of NewtonPolygon.to_json_dict (exact round-trip).  Refuses
    data that is not the polygon newton_polygon builds from its vertices,
    which also checks their indices."""
    vertices = tuple((i, as_fraction(v)) for i, v in data["vertices"])
    segments = tuple(
        Segment(
            as_fraction(s["slope"]),
            checked_int(s["length"], "segment length must be an integer"),
        )
        for s in data["segments"]
    )
    polygon = NewtonPolygon(vertices, segments)
    if newton_polygon(vertices) != polygon:
        raise PreconditionError("polygon data is not the lower convex hull of its vertices")
    return polygon


def newton_polygon(points: Iterable[tuple[int, Valuation]]) -> NewtonPolygon:
    """Lower convex hull of the finite points among ``points``.

    Requires at least two points with finite valuation (otherwise the
    polygon is degenerate and a PreconditionError is raised).  Duplicate
    indices are rejected.  Valuations are rationals or INF (``as_valuation``).
    """
    finite: list[tuple[int, Fraction]] = []
    seen: set[int] = set()
    for i, v in checked_pairs(points, _POINTS_RULE):
        checked_int(i, _VERTEX_RULE, 0)
        if i in seen:
            raise PreconditionError(f"duplicate index {i}")
        seen.add(i)
        v = as_valuation(v)
        if v is not INF:
            finite.append((i, v))
    if len(finite) < 2:
        raise PreconditionError("degenerate polygon")
    finite.sort()

    # Monotone chain, lower hull only.  Cross <= 0 means the middle point
    # lies on or above the segment joining its neighbours; popping on == 0
    # merges collinear points into one segment.
    hull: list[tuple[int, Fraction]] = []
    for pt in finite:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)

    segments = tuple(
        Segment(slope=(b[1] - a[1]) / Fraction(b[0] - a[0]), length=b[0] - a[0])
        for a, b in zip(hull, hull[1:])
    )
    return NewtonPolygon(tuple(hull), segments)


def _cross(
    o: tuple[int, Fraction], a: tuple[int, Fraction], b: tuple[int, Fraction]
) -> Fraction:
    """z-component of (a - o) x (b - o); positive iff o->a->b turns left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def root_valuations(polygon: NewtonPolygon) -> tuple[tuple[Fraction, int], ...]:
    """Root valuation multiset certified by a polygon.

    A segment of slope s and length l contributes l roots of valuation -s.
    Returned as (valuation, multiplicity) pairs sorted by valuation
    ascending; multiplicities sum to the polygon's horizontal span.
    """
    if not isinstance(polygon, NewtonPolygon):
        raise PreconditionError(f"root valuations require a NewtonPolygon, got {polygon!r}")
    pairs = [(-seg.slope, seg.length) for seg in polygon.segments]
    pairs.sort()
    return tuple(pairs)
