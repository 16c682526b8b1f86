import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebnets.chebyshev import _circumball
from chebnets.errors import DegenerateInputError, DimensionError, DomainError
from chebnets.geometry import (
    ROW_TUPLES_MAX,
    Net,
    Point,
    diameter,
    distance,
    net_from_json,
    net_to_json,
)

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
    # canonical ordering makes equality set-like
    assert Net.of([(1, 0), (0, 0)]) == Net.of([(0, 0), (1, 0)])


# Few distinct values, so rows often tie on leading coordinates and 0.0
# meets -0.0.
tie_coord = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0]) | coord


# Up to 24 rows: nets of at most ROW_TUPLES_MAX rows sort with `sorted`, larger
# ones with np.lexsort, and both must give sorted's order.
@given(st.integers(1, 4).flatmap(
    lambda dim: st.lists(st.tuples(*[tie_coord] * dim), min_size=1, max_size=24, unique=True)
))
def test_net_array_and_tuple_input_agree(rows):
    # unique=True compares tuples, so (0.0,) and (-0.0,) never both appear.
    net = Net.of(rows)
    assert repr(net.coord_list()) == repr(sorted(rows))  # sorted's order, signs of zero kept
    assert repr(net.array.tolist()) == repr(list(map(list, sorted(rows))))
    if len(rows) <= ROW_TUPLES_MAX:
        assert repr(net.rows) == repr(tuple(sorted(rows)))
    else:
        assert net.rows is None
    assert Net.of(np.array(rows)) == net
    assert Net(tuple(map(Point, rows))) == net
    flipped = Net.of([tuple(0.0 if c == 0.0 else c for c in row) for row in reversed(rows)])
    assert flipped == net and hash(flipped) == hash(net)
    assert net.points == tuple(Point(row) for row in sorted(rows))


@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=20, unique=True), st.data())
def test_net_duplicates_raise(rows, data):
    twin = data.draw(st.sampled_from(rows))
    with pytest.raises(DegenerateInputError):
        Net.of(rows + [twin])
    with pytest.raises(DegenerateInputError):
        Net.of(np.array([twin] + rows))


def test_net_rejects_signed_zero_twins():
    with pytest.raises(DegenerateInputError):
        Net.of([(0.0, 1.0), (2.0, 3.0), (-0.0, 1.0)])
    many = [(float(i), 0.5) for i in range(20)]
    with pytest.raises(DegenerateInputError):
        Net.of(many + [(0.0, 1.0), (-0.0, 1.0)])


@pytest.mark.parametrize(
    "rows, error",
    [
        ([], DomainError),
        (np.empty((0, 2)), DomainError),
        ([(0.0, math.nan)], DomainError),
        ([(0.0, 1.0), (math.inf, 1.0)], DomainError),
        (np.array([[0.0, -math.inf]]), DomainError),
        ([(0.0, 1.0), (2.0,)], DimensionError),
        ([(), ()], DimensionError),
        ([1.0, 2.0], DimensionError),
        (np.array([[0.0, 1.0], [2.0, math.nan]]), DomainError),
        ([(float(i), 0.0) for i in range(20)] + [(math.nan, 0.0)], DomainError),
        (np.vstack([np.zeros((1, 2)), np.full((19, 2), math.inf)]), DomainError),
    ],
)
def test_net_rejects_bad_input(rows, error):
    with pytest.raises(error):
        Net.of(rows)


def test_net_equal_nets_hash_equal():
    a = Net.of([(0.0, 1.0), (2.0, 3.0)])
    b = Net.of(np.array([[2, 3], [-0.0, 1]]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # Integer input, small and large, is stored as floats.
    for ints in (Net.of([(2, 3), (0, 1)]), Net.of(np.array([[2, 3], [0, 1]]))):
        assert ints == a and hash(ints) == hash(a) and ints.array.dtype == np.float64
        assert ints.coord_list() == [(0.0, 1.0), (2.0, 3.0)]
        assert all(type(x) is float for row in ints.rows for x in row)
    large = Net.of(np.arange(40).reshape(20, 2)[::-1])
    assert large.array.dtype == np.float64 and large.coord_list()[0] == (0.0, 1.0)
    assert a != Net.of([(0.0, 1.0)]) and a != Net.of([(0.0, 1.0, 0.0), (2.0, 3.0, 0.0)])


def test_net_array_is_read_only_and_owned():
    source = np.array([[1.0, 0.0], [0.0, 0.0]])
    net = Net.of(source)
    with pytest.raises(ValueError):
        net.array[0, 0] = 5.0
    source[0, 0] = 5.0  # the net copied its input
    assert net.array.tolist() == [[0.0, 0.0], [1.0, 0.0]]


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
