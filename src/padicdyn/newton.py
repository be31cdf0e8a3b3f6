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

from .valuation import INF, PreconditionError, Valuation, as_fraction, is_finite


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

    @property
    def span(self) -> tuple[int, int]:
        """(leftmost index, rightmost index) of the hull."""
        return self.vertices[0][0], self.vertices[-1][0]

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


def polygon_from_json_dict(data: dict) -> NewtonPolygon:
    """Inverse of NewtonPolygon.to_json_dict (exact round-trip)."""
    vertices = tuple((int(i), Fraction(v)) for i, v in data["vertices"])
    segments = tuple(
        Segment(Fraction(s["slope"]), int(s["length"])) for s in data["segments"]
    )
    return NewtonPolygon(vertices, segments)


def newton_polygon(points: Iterable[tuple[int, Valuation]]) -> NewtonPolygon:
    """Lower convex hull of the finite points among ``points``.

    Requires at least two points with finite valuation (otherwise the
    polygon is degenerate and a PreconditionError is raised).  Duplicate
    indices are rejected.  Valuations may be ints, Fractions, or INF.
    """
    finite: list[tuple[int, Fraction]] = []
    seen: set[int] = set()
    for i, v in points:
        if not isinstance(i, int) or i < 0:
            raise PreconditionError(f"index must be a nonnegative integer, got {i!r}")
        if i in seen:
            raise PreconditionError(f"duplicate index {i}")
        seen.add(i)
        if is_finite(v):
            finite.append((i, as_fraction(v)))
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
    pairs = [(-seg.slope, seg.length) for seg in polygon.segments]
    pairs.sort()
    return tuple(pairs)
