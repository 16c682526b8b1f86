import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebnets.chebyshev import _circumball
from chebnets.errors import DegenerateInputError, DimensionError, DomainError
from chebnets.geometry import Net, Point, diameter, distance, net_from_json, net_to_json

coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def points_of_dim(dim, n):
    return st.lists(
        st.tuples(*([coord] * dim)).map(Point), min_size=n, max_size=n
    )


def test_distance_examples():
    assert distance(Point((0, 0)), Point((3, 4))) == 5
    assert distance(Point((1, 1)), Point((1, 1))) == 0
    assert distance(Point((0, 0, 0)), Point((1, 1, 1))) == pytest.approx(math.sqrt(3), abs=0)


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionError):
        distance(Point((0,)), Point((0, 0)))


@given(points_of_dim(3, 3))
def test_distance_metric_axioms(pts):
    a, b, c = pts
    assert distance(a, b) >= 0
    assert distance(a, b) == distance(b, a)
    lhs = distance(a, c)
    rhs = distance(a, b) + distance(b, c)
    assert lhs <= rhs + 4 * math.ulp(max(1.0, rhs))
    assert (distance(a, b) == 0) == (a.coords == b.coords)


def midpoint(a: Point, b: Point) -> Point:
    # The package's one Euclidean midpoint is the two-point circumball.
    return Point(_circumball([a.coords, b.coords])[0])


def test_midpoint_examples():
    assert midpoint(Point((0, 0)), Point((2, 0))) == Point((1, 0))
    assert midpoint(Point((1, 1)), Point((1, 1))) == Point((1, 1))
    assert midpoint(Point((-1, 3)), Point((5, -1))) == Point((2, 1))


@given(points_of_dim(2, 2))
def test_midpoint_symmetric_and_equidistant(pts):
    a, b = pts
    m = midpoint(a, b)
    assert m == midpoint(b, a)
    half = distance(a, b) / 2
    tol = 1e-9 * max(1.0, half)
    assert abs(distance(a, m) - half) <= tol
    assert abs(distance(b, m) - half) <= tol


def test_diameter_examples():
    assert diameter(Net.of([(0, 0)])) == 0
    assert diameter(Net.of([(0, 0), (1, 0), (0, 1)])) == pytest.approx(math.sqrt(2), abs=0)
    assert diameter(Net.of([(0, 0), (2, 0), (1, 0.1)])) == 2


@given(points_of_dim(3, 5))
def test_diameter_matches_pairwise_recomputation(pts):
    try:
        net = Net(tuple(pts))
    except DegenerateInputError:
        return
    brute = max(
        math.sqrt(sum((x - y) ** 2 for x, y in zip(p.coords, q.coords)))
        for p in pts
        for q in pts
    )
    assert abs(diameter(net) - brute) <= 4 * math.ulp(max(1.0, brute))


def test_point_validation():
    with pytest.raises(DomainError):
        Point((math.inf, 0))
    with pytest.raises(DomainError):
        Point((math.nan,))


def test_net_invariants():
    with pytest.raises(DegenerateInputError):
        Net.of([(0, 0), (0, 0)])
    with pytest.raises(DimensionError):
        Net((Point((0,)), Point((0, 1))))
    with pytest.raises(DomainError):
        Net.of([(0, 0), (1, 1), (2, 2)], capacity=2)
    # canonical ordering makes equality set-like
    assert Net.of([(1, 0), (0, 0)]) == Net.of([(0, 0), (1, 0)])


def test_net_json_round_trip():
    net = Net.of([(0.5, -1.25), (3.0, 4.0)])
    assert net_from_json(net_to_json(net)) == net


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"points": [[0, 0]]}, "dim"),
        ({"dim": 2}, "points"),
        ({"dim": 0, "points": [[0]]}, "dim"),
        ({"dim": 2, "points": []}, "points"),
        ({"dim": 2, "points": [[0, 0], [1]]}, "points[1]"),
        ({"dim": 2, "points": [[0, 0], [0, 0]]}, "points[1]"),
        ({"dim": 1, "points": [["x"]]}, "points[0]"),
    ],
)
def test_net_json_rejects_malformed(doc, fragment):
    with pytest.raises(DomainError, match=fragment.replace("[", r"\[").replace("]", r"\]")):
        net_from_json(doc)
