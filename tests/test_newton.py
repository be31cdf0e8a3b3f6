"""Lower convex hulls of valuation data and the root-valuation dictionary."""

import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from padicdyn import (
    INF,
    NewtonPolygon,
    PreconditionError,
    RationalPoly,
    Segment,
    newton_polygon,
    polygon_from_json_dict,
    root_valuations,
    val,
)


def brute_hull_vertices(points):
    """Independent oracle: gift-wrapping walk along minimal slopes.

    From the leftmost point, repeatedly jump to the point of minimal slope
    from the current vertex, taking the farthest on ties so collinear runs
    merge.  Entirely different algorithm from the implementation under test.
    """
    pts = sorted((i, v) for i, v in points if v is not INF)
    verts = [pts[0]]
    cur = pts[0]
    while cur != pts[-1]:
        best_key, best_q = None, None
        for q in pts:
            if q[0] <= cur[0]:
                continue
            slope = (q[1] - cur[1]) / F(q[0] - cur[0])
            key = (slope, -q[0])
            if best_key is None or key < best_key:
                best_key, best_q = key, q
        cur = best_q
        verts.append(cur)
    return verts


def poly_points(poly, p):
    return [(i, val(poly.coefficient(i), p)) for i in range(poly.degree + 1)]


def segment_multiset(polygon):
    c = Counter()
    for s in polygon.segments:
        c[s.slope] += s.length
    return c


class TestHullShape:
    def test_quintic_with_negative_constant_valuation(self):
        # (0,-1), gap at 1, flat tail at 0: every interior point lies above
        # the chord from (0,-1) to (5,0), so the hull is one segment of
        # slope 1/5.  Cross-checked against the independent walk oracle.
        points = [(0, F(-1)), (1, INF), (2, F(0)), (3, F(0)), (4, F(0)), (5, F(0))]
        polygon = newton_polygon(points)
        assert list(polygon.vertices) == [(0, F(-1)), (5, F(0))]
        assert list(polygon.segments) == [Segment(F(1, 5), 5)]
        assert brute_hull_vertices(points) == list(polygon.vertices)
        # balance check: the five roots' valuations must sum to
        # v(a_0) - v(a_5) = -1, and 5 * (-1/5) = -1.
        total = sum(-s.slope * s.length for s in polygon.segments)
        assert total == F(-1)

    def test_linear_with_cubed_constant(self):
        polygon = newton_polygon([(0, F(3)), (1, F(0))])
        assert list(polygon.segments) == [Segment(F(-3), 1)]

    def test_vee_shape(self):
        polygon = newton_polygon([(0, F(0)), (1, F(-1)), (2, F(0))])
        assert list(polygon.segments) == [Segment(F(-1), 1), Segment(F(1), 1)]

    def test_collinear_points_merge(self):
        polygon = newton_polygon([(0, F(0)), (1, F(1)), (2, F(2))])
        assert list(polygon.segments) == [Segment(F(1), 2)]
        assert list(polygon.vertices) == [(0, F(0)), (2, F(2))]

    def test_slopes_strictly_increase(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randint(2, 9)
            pts = [(i, F(rng.randint(-8, 8), rng.randint(1, 4))) for i in range(n)]
            polygon = newton_polygon(pts)
            slopes = [s.slope for s in polygon.segments]
            assert slopes == sorted(slopes)
            assert len(set(slopes)) == len(slopes)

    def test_matches_walk_oracle_on_random_inputs(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(2, 10)
            pts = []
            for i in range(n):
                if rng.random() < 0.2 and 0 < i < n - 1:
                    pts.append((i, INF))
                else:
                    pts.append((i, F(rng.randint(-9, 9), rng.randint(1, 5))))
            polygon = newton_polygon(pts)
            assert brute_hull_vertices(pts) == list(polygon.vertices)

    def test_hull_idempotence(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(2, 8)
            pts = [(i, F(rng.randint(-6, 6), rng.randint(1, 3))) for i in range(n)]
            polygon = newton_polygon(pts)
            again = newton_polygon(list(polygon.vertices))
            assert again == polygon

    def test_all_points_on_or_above(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(2, 9)
            pts = [(i, F(rng.randint(-7, 7), rng.randint(1, 4))) for i in range(n)]
            polygon = newton_polygon(pts)
            verts = list(polygon.vertices)
            for i, v in pts:
                for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
                    if x0 <= i <= x1:
                        # exact line-side test: (i, v) on or above the chord
                        assert (v - y0) * (x1 - x0) >= (y1 - y0) * (i - x0)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(PreconditionError):
            newton_polygon([(0, F(1))])
        with pytest.raises(PreconditionError):
            newton_polygon([(0, INF), (1, INF), (2, F(0))])
        with pytest.raises(PreconditionError):
            newton_polygon([(0, F(0)), (0, F(1)), (1, F(0))])
        with pytest.raises(PreconditionError):
            newton_polygon([(-1, F(0)), (1, F(0))])


class TestRootValuations:
    def test_quintic_root_multiset(self):
        polygon = newton_polygon(
            [(0, F(-1)), (2, F(0)), (3, F(0)), (4, F(0)), (5, F(0))]
        )
        assert root_valuations(polygon) == ((F(-1, 5), 5),)

    def test_single_root(self):
        polygon = newton_polygon([(0, F(3)), (1, F(0))])
        assert root_valuations(polygon) == ((F(3), 1),)

    def test_three_known_linear_factors(self):
        # (X-2)(X-1/2)(X-3/4) at p=2: root valuations 1, -1, -2
        poly = RationalPoly([F(1)])
        for c in (F(2), F(1, 2), F(3, 4)):
            poly = poly * RationalPoly([-c, F(1)])
        polygon = newton_polygon(poly_points(poly, 2))
        assert sorted(root_valuations(polygon)) == [(F(-2), 1), (F(-1), 1), (F(1), 1)]

    def test_mixed_linear_and_quadratic_factors(self):
        # (X-1)(X-3)(X-5) * (X^2 - 1/2) at p=2: three unit roots (valuation 0)
        # and a conjugate pair of valuation -1/2 each, so segments are
        # slope 0 of length 3 followed by slope 1/2 of length 2.
        poly = RationalPoly([F(-1, 2), F(0), F(1)])
        for c in (F(1), F(3), F(5)):
            poly = poly * RationalPoly([-c, F(1)])
        polygon = newton_polygon(poly_points(poly, 2))
        assert list(polygon.segments) == [Segment(F(0), 3), Segment(F(1, 2), 2)]
        assert sorted(root_valuations(polygon)) == [(F(-1, 2), 2), (F(0), 3)]

    def test_total_multiplicity_is_span(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(2, 8)
            pts = [(i, F(rng.randint(-5, 5))) for i in range(n)]
            polygon = newton_polygon(pts)
            assert sum(m for _, m in root_valuations(polygon)) == n - 1


class TestProductLaw:
    def test_polygon_of_product_is_union(self):
        rng = random.Random(9)
        primes = [2, 3, 5, 7]
        for _ in range(300):
            p = rng.choice(primes)

            def rand_poly():
                k = rng.randint(1, 5)
                cs = [
                    F(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(k + 1)
                ]
                if cs[-1] == 0:
                    cs[-1] = F(1)
                if cs[0] == 0:
                    cs[0] = F(1)
                return RationalPoly(cs)

            a, b = rand_poly(), rand_poly()
            na = newton_polygon(poly_points(a, p))
            nb = newton_polygon(poly_points(b, p))
            nab = newton_polygon(poly_points(a * b, p))
            assert segment_multiset(nab) == segment_multiset(na) + segment_multiset(nb)


class TestSerialization:
    def test_round_trip(self):
        polygon = newton_polygon(
            [(0, F(-1)), (2, F(0)), (3, F(1, 3)), (5, F(0))]
        )
        data = json.loads(polygon.to_json())
        again = polygon_from_json_dict(data)
        assert again == polygon
        assert isinstance(again, NewtonPolygon)

    def test_round_trip_on_random_polygons(self):
        rng = random.Random(31)
        for _ in range(200):
            points = [(i, F(rng.randint(-9, 9), rng.randint(1, 4)))
                      for i in sorted(rng.sample(range(12), rng.randint(2, 8)))]
            polygon = newton_polygon(points)
            assert polygon_from_json_dict(json.loads(polygon.to_json())) == polygon

    @pytest.mark.parametrize(
        "vertices, segments",
        [
            # the hull of (0, 1), (2, 0) is one segment of slope -1/2 and length 2
            ([[0, "1"], [2, "0"]], [{"slope": "5", "length": 7}]),
            ([[0, "1"], [2, "0"]], [{"slope": "-1/2", "length": 7}]),
            ([[0, "1"], [2, "0"]], []),
            ([[2, "0"], [0, "1"]], [{"slope": "-1/2", "length": 2}]),
            # a collinear middle vertex, and one above the hull
            ([[0, "0"], [1, "1"], [2, "2"]], [{"slope": "1", "length": 1}] * 2),
            ([[0, "0"], [1, "2"], [2, "0"]],
             [{"slope": "2", "length": 1}, {"slope": "-2", "length": 1}]),
        ],
    )
    def test_reader_refuses_a_polygon_that_is_not_its_hull(self, vertices, segments):
        with pytest.raises(PreconditionError, match="not the lower convex hull"):
            polygon_from_json_dict({"vertices": vertices, "segments": segments})

    @pytest.mark.parametrize("text", ["1e-200000", "1.5", " 1 "])
    def test_reader_refuses_non_rational_text(self, text):
        # Fraction(text) would take each of these, and the first builds 10**200000
        for data in (
            {"vertices": [[0, text], [2, "0"]], "segments": [{"slope": "1/2", "length": 2}]},
            {"vertices": [[0, "-1"], [2, "0"]], "segments": [{"slope": text, "length": 2}]},
        ):
            with pytest.raises(PreconditionError, match="not a rational number"):
                polygon_from_json_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"vertices": [[0.5, "-1"], [2, "0"]], "segments": []}, "vertex index must be"),
            ({"vertices": [["0", "-1"], [2, "0"]], "segments": []}, "vertex index must be"),
            ({"vertices": [[0, -0.5], [2, "0"]], "segments": []}, "not a rational number"),
            (
                {"vertices": [], "segments": [{"slope": "1/2", "length": 2.0}]},
                "segment length must be",
            ),
            ({"vertices": [], "segments": [{"slope": 0.5, "length": 2}]}, "not a rational number"),
        ],
    )
    def test_reader_takes_exact_fields_only(self, data, message):
        # int(0.5) would give index 0 and as_fraction(0.5) a TypeError
        with pytest.raises(PreconditionError, match=message):
            polygon_from_json_dict(data)

    def test_json_uses_exact_strings(self):
        polygon = newton_polygon([(0, F(-1, 3)), (2, F(0))])
        data = polygon.to_json_dict()
        assert data["vertices"][0] == [0, "-1/3"]
        assert data["segments"][0]["slope"] == "1/6"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: newton_polygon(None), "points must be (index, valuation) pairs, got None"),
        (lambda: newton_polygon([(0, 1, 2), (1, 2)]),
         "points must be (index, valuation) pairs, got [(0, 1, 2), (1, 2)]"),
        (lambda: newton_polygon("01"), "points must be (index, valuation) pairs, got '01'"),
        (lambda: polygon_from_json_dict(None), "malformed polygon data, got None"),
        (lambda: polygon_from_json_dict({"vertices": [[0]], "segments": []}),
         "malformed polygon data, got {'vertices': [[0]], 'segments': []}"),
        (lambda: polygon_from_json_dict({"vertices": [[0, "1"], [2, "0"]]}),
         "malformed polygon data, got {'vertices': [[0, '1'], [2, '0']]}"),
        (lambda: root_valuations(None), "root valuations require a NewtonPolygon, got None"),
    ],
    ids=["np-None", "np-triple", "np-text", "reader-None", "reader-short-vertex",
         "reader-no-segments", "roots-None"],
)
def test_malformed_points_and_polygon_data_are_refused(call, message):
    with pytest.raises(PreconditionError) as err:
        call()
    assert str(err.value) == message
