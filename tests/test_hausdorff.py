import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebnets.errors import DimensionError, DomainError
from chebnets.geometry import Net, Point, distance
from chebnets.hausdorff import alpha, hausdorff_distance
from chebnets.tolerances import geom_tol

coord = st.floats(-1e3, 1e3, allow_nan=False)


def nets(dim, max_size=5):
    return st.lists(
        st.tuples(*([coord] * dim)), min_size=1, max_size=max_size, unique=True
    ).map(Net.of)


def test_examples():
    m = Net.of([(0,), (1,)])
    assert alpha(m, m) == 0
    assert alpha(Net.of([(0,)]), Net.of([(3,)])) == 3
    assert alpha(Net.of([(0,), (1,)]), Net.of([(0,), (2,)])) == 1


def test_hausdorff_distance_takes_any_metric():
    a, b = [(0.0,), (1.0,)], [(0.0,), (3.0,)]
    assert hausdorff_distance(a, b, math.dist) == alpha(Net.of(a), Net.of(b)) == 2
    assert hausdorff_distance(a, b, lambda x, y: (x[0] - y[0]) ** 2) == 4
    with pytest.raises(DomainError):
        hausdorff_distance([], b, math.dist)


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        alpha(Net.of([(0,)]), Net.of([(0, 0)]))


@given(nets(2), nets(2), nets(2))
def test_metric_axioms(a, b, c):
    assert alpha(a, b) == alpha(b, a)
    assert (alpha(a, b) == 0) == (a == b)
    lhs = alpha(a, c)
    rhs = alpha(a, b) + alpha(b, c)
    assert lhs <= rhs + 4 * math.ulp(max(1.0, rhs))


@given(nets(1), nets(1))
def test_singleton_alpha_is_distance(a, b):
    pa, pb = a.points[0], b.points[0]
    assert alpha(Net((pa,)), Net((pb,))) == distance(pa, pb)


def test_perturbing_one_point_moves_alpha_by_at_most_delta():
    rng = np.random.default_rng(4)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        m_pts = {tuple(rng.uniform(-1, 1, dim).tolist()) for _ in range(4)}
        t_pts = {tuple(rng.uniform(-1, 1, dim).tolist()) for _ in range(4)}
        if not m_pts or not t_pts:
            continue
        m, t = Net.of(sorted(m_pts)), Net.of(sorted(t_pts))
        before = alpha(m, t)
        moved = list(m.coord_list())
        delta_vec = rng.uniform(-0.05, 0.05, dim)
        candidate = tuple((np.asarray(moved[0]) + delta_vec).tolist())
        if candidate in moved:
            continue
        moved[0] = candidate
        after = alpha(Net.of(moved), t)
        delta = float(np.linalg.norm(delta_vec))
        assert abs(after - before) <= delta + 1e-12


@settings(deadline=None)
@given(st.data())
def test_alpha_invariant_under_isometry(data):
    dim = data.draw(st.integers(2, 4))
    point = st.tuples(*([st.floats(-50, 50, allow_nan=False)] * dim))
    a = data.draw(st.lists(point, min_size=1, max_size=6, unique=True))
    b = data.draw(st.lists(point, min_size=1, max_size=6, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    shift = rng.uniform(-100.0, 100.0, dim)

    def moved(coords):
        pts = [tuple((q @ np.asarray(c, dtype=float) + shift).tolist()) for c in coords]
        assume(len(set(pts)) == len(pts))
        return Net.of(pts)

    ma, mb = moved(a), moved(b)
    scale = max(abs(c) for p in a + b + ma.coord_list() + mb.coord_list() for c in p)
    assert abs(alpha(ma, mb) - alpha(Net.of(a), Net.of(b))) <= geom_tol(scale)
