import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebnets import chebyshev
from chebnets.chebyshev import (
    ChebResult,
    _affine_weights,
    _circumball,
    _welzl,
    cheb,
    cheb_1d,
    cheb_oracle,
    support_barycentric,
)
from chebnets.errors import DegenerateInputError, DimensionError, OracleBudgetError
from chebnets.geometry import Net, Point, distance
from chebnets.tolerances import TAU_GEOM, geom_tol


def random_net(rng, size, dim):
    pts = set()
    while len(pts) < size:
        pts.add(tuple(rng.uniform(-1, 1, dim).tolist()))
    return Net.of(sorted(pts))


def assert_valid(result: ChebResult, net: Net, tol=1e-9):
    scale = max(1.0, result.radius)
    for p in net:
        assert distance(result.center, p) <= result.radius + tol * scale
    for p in result.support:
        assert abs(distance(result.center, p) - result.radius) <= tol * scale
        assert p in net.points
    assert len(result.support) <= net.dim + 1
    assert min(support_barycentric(result)) >= -1e-9


def test_two_net_midpoint():
    result = cheb(Net.of([(0, 0), (2, 0)]))
    assert result.center == Point((1, 0))
    assert result.radius == 1
    assert result.support == (Point((0, 0)), Point((2, 0)))


def test_obtuse_triangle_keeps_midpoint():
    net = Net.of([(0, 0), (2, 0), (1, 0.1)])
    result = cheb(net)
    assert distance(result.center, Point((1, 0))) < 1e-12
    assert result.radius == pytest.approx(1, abs=1e-12)
    assert Point((1, 0.1)) not in result.support


def test_equilateral_triangle_circumcenter():
    net = Net.of([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    result = cheb(net)
    oracle = cheb_oracle(net)
    assert result.radius == pytest.approx(1 / math.sqrt(3), rel=1e-12)
    assert distance(result.center, Point((0.5, math.sqrt(3) / 6))) < 1e-12
    assert abs(result.radius - oracle.radius) < 1e-12
    assert distance(result.center, oracle.center) < 1e-12
    assert_valid(result, net)


def test_regular_tetrahedron_radius():
    net = Net.of(
        [
            (0, 0, 0),
            (1, 0, 0),
            (0.5, math.sqrt(3) / 2, 0),
            (0.5, math.sqrt(3) / 6, math.sqrt(2.0 / 3.0)),
        ]
    )
    oracle = cheb_oracle(net)
    assert oracle.radius == pytest.approx(math.sqrt(3.0 / 8.0), rel=1e-12)
    assert abs(cheb(net).radius - oracle.radius) < 1e-12


def test_singleton():
    net = Net.of([(5.0, -3.0)])
    result = cheb(net)
    assert result.radius == 0
    assert result.center == net.points[0]
    assert result.support == net.points


def test_cheb_1d_examples():
    r = cheb_1d(Net.of([(0,), (1,), (2,)]))
    assert r.center == Point((1,)) and r.radius == 1
    r = cheb_1d(Net.of([(5,)]))
    assert r.center == Point((5,)) and r.radius == 0
    r = cheb_1d(Net.of([(-3,), (0,), (0.5,), (7,)]))
    assert r.center == Point((2,)) and r.radius == 5
    with pytest.raises(DimensionError):
        cheb_1d(Net.of([(0, 0)]))


def test_cheb_1d_agrees_with_cheb_exactly():
    # cheb answers these nets with cheb_1d; the move-to-front path must agree bitwise.
    rng = np.random.default_rng(11)
    line_nets = [random_net(rng, int(rng.integers(1, 9)), 1) for _ in range(400)]
    pair_nets = [random_net(rng, 2, dim) for dim in range(2, 6) for _ in range(100)]
    for net in line_nets + pair_nets:
        fast = cheb_1d(net)
        full = _welzl(net, seed=0)
        assert fast.center == full.center
        assert fast.radius == full.radius
        assert fast.support == full.support
        assert cheb(net) == fast


def test_circumball_weights_match_affine_weights():
    # The weights from the circumball's own solve certify the hull in place of a second solve.
    rng = np.random.default_rng(17)
    sizes = set()
    for _ in range(600):
        dim = int(rng.integers(1, 6))
        net = random_net(rng, int(rng.integers(1, 3 * dim + 4)), dim)
        support = [p.coords for p in cheb(net).support]
        sizes.add((len(support), dim))
        center, _, weights = _circumball(support)
        expected = _affine_weights(support, center)
        assert len(weights) == len(support)
        assert max(abs(a - b) for a, b in zip(weights, expected)) <= 1e-12
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert {(k, dim) for dim in range(1, 6) for k in range(1, dim + 2)} <= sizes


def test_oracle_agreement_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        net = random_net(rng, int(rng.integers(2, 11)), int(rng.integers(1, 6)))
        a = cheb(net)
        b = cheb_oracle(net)
        scale = max(1.0, b.radius)
        assert abs(a.radius - b.radius) <= 1e-9 * scale
        assert distance(a.center, b.center) <= 1e-8 * scale
        assert_valid(a, net)
        assert_valid(b, net)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_containment_and_hull_property(data):
    dim = data.draw(st.integers(1, 4))
    size = data.draw(st.integers(1, 8))
    coords = data.draw(
        st.lists(
            st.tuples(*([st.floats(-100, 100, allow_nan=False)] * dim)),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    net = Net.of(coords)
    result = cheb(net)
    scale = max(1.0, max(abs(c) for p in net for c in p.coords))
    for p in net:
        assert distance(result.center, p) <= result.radius + 1e-9 * scale
    assert len(result.support) <= dim + 1
    assert min(support_barycentric(result)) >= -1e-9


def test_determinism_and_seed_independence_of_ball():
    rng = np.random.default_rng(23)
    for _ in range(30):
        net = random_net(rng, 7, 3)
        base = cheb(net, seed=0)
        again = cheb(net, seed=0)
        assert base == again
        other = cheb(net, seed=99)
        assert abs(base.radius - other.radius) <= 1e-9 * max(1.0, base.radius)
        assert distance(base.center, other.center) <= 1e-8 * max(1.0, base.radius)


def test_translation_and_rotation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        net = random_net(rng, 6, dim)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        shift = rng.uniform(-3, 3, dim)
        moved = Net.of([tuple(q @ p.array() + shift) for p in net])
        base = cheb(net)
        transformed = cheb(moved)
        expected = q @ base.center.array() + shift
        assert np.linalg.norm(transformed.center.array() - expected) <= 1e-8
        assert transformed.radius == pytest.approx(base.radius, abs=1e-9)


def test_cocircular_square_support():
    net = Net.of([(1, 0), (0, 1), (-1, 0), (0, -1)])
    result = cheb(net)
    assert distance(result.center, Point((0, 0))) < 1e-12
    assert result.radius == pytest.approx(1, abs=1e-12)
    assert_valid(result, net)


def test_cocircular_cluster_support_is_hull_certified():
    # Three nearby arc points plus one across. The solver's own support
    # already certifies the hull here: this net does not reach the
    # _certified_support fallback.
    angles = [0.2, 0.3, 0.4, 0.3 + math.pi]
    net = Net.of([(math.cos(a), math.sin(a)) for a in angles])
    result = cheb(net)
    assert result.radius == pytest.approx(1, abs=1e-12)
    assert distance(result.center, Point((0, 0))) < 1e-9
    assert min(support_barycentric(result)) >= -1e-9


def test_circumball_of_support_examples():
    center, radius, weights = _circumball([(2.0, 7.0)])
    assert center == (2.0, 7.0) and radius == 0 and weights == (1.0,)
    center, radius, weights = _circumball([(0.0, 0.0), (2.0, 0.0)])
    assert center == (1.0, 0.0) and radius == 1 and weights == (0.5, 0.5)
    # Thales: right triangle with legs 3 and 4
    center, radius, weights = _circumball([(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)])
    assert math.dist(center, (1.5, 2.0)) < 1e-12
    assert radius == pytest.approx(2.5, abs=1e-12)
    assert weights == pytest.approx((0.0, 0.5, 0.5), abs=1e-12)


def test_circumball_rejects_degenerate():
    with pytest.raises(DegenerateInputError):
        _circumball([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(DegenerateInputError):
        _circumball([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


# Twins 1e-9 apart: the move-to-front solve meets a near-singular support
# on insertion orders 0 and 1 and succeeds on order 2.
RETRY_NET = [
    (-0.7221366417596049, 0.4075715385335956),
    (0.6422061767892775, 0.9636566457435876),
    (0.6875811247374535, -0.15178702911197428),
    (-0.7221366430970021, 0.4075715375580128),
    (0.6422061767675866, 0.9636566457783153),
    (0.6875811239930929, -0.15178703039854874),
]


def test_reshuffle_retry_is_reached(monkeypatch):
    attempts = []
    insertion_order = chebyshev._insertion_order

    def recording(seed, attempt, n):
        attempts.append(attempt)
        return insertion_order(seed, attempt, n)

    monkeypatch.setattr(chebyshev, "_insertion_order", recording)
    net = Net.of(RETRY_NET)
    result = cheb(net)
    assert max(attempts) >= 1
    assert len(result.support) <= 3
    assert min(support_barycentric(result)) >= -TAU_GEOM
    for p in net:
        assert distance(result.center, p) <= result.radius + geom_tol(result.radius)


def test_support_outside_hull_is_rejected():
    net = Net.of([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(DegenerateInputError):
        chebyshev._build_result(net, (2.0, 0.0), 2.0, (0, 1), (-1.0, 2.0))


def test_oracle_support_on_regular_polygons_is_hull_certified():
    # Every vertex triple of a regular polygon is cocircular, so the first
    # covering triple can have its center outside its hull; the oracle must
    # pass over it to a certified one.
    rng = np.random.default_rng(5)
    for k in range(5, 13):
        for _ in range(40):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            angles = [phi + 2.0 * math.pi * j / k for j in range(k)]
            net = Net.of([(math.cos(a), math.sin(a)) for a in angles])
            oracle = cheb_oracle(net)
            assert min(support_barycentric(oracle)) >= -TAU_GEOM
            fast = cheb(net)
            assert abs(oracle.radius - fast.radius) <= 1e-12
            assert distance(oracle.center, fast.center) <= 1e-12


def test_oracle_budget_guard():
    rng = np.random.default_rng(1)
    with pytest.raises(OracleBudgetError):
        cheb_oracle(random_net(rng, 13, 2))
    pts = [tuple(1.0 if i == j else 0.0 for j in range(7)) for i in range(7)]
    with pytest.raises(OracleBudgetError):
        cheb_oracle(Net.of(pts))


def test_right_triangle_far_scale():
    s = 1e200
    result = cheb(Net.of([(0, 0), (s, 0), (0, s)]))
    assert result.center == Point((s / 2, s / 2))
    assert result.radius == pytest.approx(s / math.sqrt(2), rel=1e-15)
    assert result.support == (Point((0, s)), Point((s, 0)))


def test_closed_form_near_float_max():
    result = cheb(Net.of([(1.5e308, 0.0), (1.6e308, 1.0)]))
    assert result.center == Point((1.55e308, 0.5))
    assert result.radius == pytest.approx((1.6e308 - 1.5e308) / 2, rel=1e-14)
    assert cheb(Net.of([(-1.7e308,), (1.7e308,)])).center == Point((0.0,))


@pytest.mark.parametrize("scale", [1e-200, 1e300])
def test_random_nets_at_extreme_scales(scale):
    rng = np.random.default_rng(29)
    for _ in range(100):
        net = random_net(rng, 6, 3)
        scaled = Net.of([tuple(c * scale for c in p.coords) for p in net])
        result = cheb(scaled)
        for p in scaled:
            assert distance(result.center, p) <= result.radius * (1 + 1e-9)
        assert len(result.support) <= 4
        assert min(support_barycentric(result)) >= -1e-9
        base = cheb(net)
        assert result.radius / scale == pytest.approx(base.radius, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_power_of_two_scaling_is_exact(data):
    dim = data.draw(st.integers(1, 4))
    size = data.draw(st.integers(1, 7))
    coord = st.floats(-100, 100, allow_nan=False).filter(lambda x: x == 0 or abs(x) >= 1e-6)
    coords = data.draw(
        st.lists(st.tuples(*([coord] * dim)), min_size=size, max_size=size, unique=True)
    )
    k = data.draw(st.integers(-900, 900))
    net = Net.of(coords)
    base = cheb(net)
    scaled = cheb(Net.of([tuple(math.ldexp(c, k) for c in p) for p in coords]))
    assert scaled.center.coords == tuple(math.ldexp(c, k) for c in base.center.coords)
    assert scaled.radius == math.ldexp(base.radius, k)
    assert [p.coords for p in scaled.support] == [
        tuple(math.ldexp(c, k) for c in p.coords) for p in base.support
    ]


def isometry(data, dim):
    """Orthogonal matrix and translation from a Hypothesis-drawn seed."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q, rng.uniform(-100.0, 100.0, dim)


def moved(coords, q, shift):
    pts = [tuple((q @ np.asarray(c, dtype=float) + shift).tolist()) for c in coords]
    assume(len(set(pts)) == len(pts))
    return Net.of(pts)


@settings(deadline=None)
@given(st.data())
def test_radius_invariant_under_isometry(data):
    dim = data.draw(st.integers(2, 4))
    size = data.draw(st.integers(1, 8))
    coords = data.draw(
        st.lists(
            st.tuples(*([st.floats(-50, 50, allow_nan=False)] * dim)),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    q, shift = isometry(data, dim)
    image = moved(coords, q, shift)
    scale = max(abs(c) for p in list(coords) + image.coord_list() for c in p)
    assert abs(cheb(image).radius - cheb(Net.of(coords)).radius) <= geom_tol(scale)
