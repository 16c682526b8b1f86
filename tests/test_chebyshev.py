import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebnets import chebyshev
from chebnets.chebyshev import (
    ChebResult,
    _circumball,
    _welzl,
    cheb,
    cheb_ball,
    cheb_batch,
    cheb_oracle,
)
from chebnets.errors import DegenerateInputError, OracleBudgetError
from chebnets.geometry import Net, Point, distance
from chebnets.tolerances import TAU_BALL, TAU_GEOM, geom_tol
from meb_helpers import _affine_weights, screen_gap_to_linalg, support_barycentric
from meb_helpers import _circumball as reference_circumball


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


def test_closed_form_examples():
    r = cheb(Net.of([(0,), (1,), (2,)]))
    assert r.center == Point((1,)) and r.radius == 1
    r = cheb(Net.of([(5,)]))
    assert r.center == Point((5,)) and r.radius == 0
    r = cheb(Net.of([(-3,), (0,), (0.5,), (7,)]))
    assert r.center == Point((2,)) and r.radius == 5


def test_closed_form_agrees_with_welzl_exactly():
    # cheb_ball answers these nets in closed form; the move-to-front path must agree bitwise.
    rng = np.random.default_rng(11)
    line_nets = [random_net(rng, int(rng.integers(1, 9)), 1) for _ in range(400)]
    pair_nets = [random_net(rng, 2, dim) for dim in range(2, 6) for _ in range(100)]
    for net in line_nets + pair_nets:
        assert cheb_ball(net) == _welzl(net)


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


def test_determinism_of_ball():
    rng = np.random.default_rng(23)
    for _ in range(30):
        net = random_net(rng, 7, 3)
        assert cheb(net) == cheb(Net.of(net.coord_list()))


def test_translation_and_rotation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        net = random_net(rng, 6, dim)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        shift = rng.uniform(-3, 3, dim)
        moved = Net.of(net.array @ q.T + shift)
        base = cheb(net)
        transformed = cheb(moved)
        expected = q @ np.array(base.center.coords) + shift
        assert np.linalg.norm(np.array(transformed.center.coords) - expected) <= 1e-8
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


SUPPORT_FAMILIES = ("uniform", "lattice", "scale", "twins", "dependent", "ties")
SUPPORT_SCALES = (1e300, 1e150, 1e-150, 1e-300)


def support_sets(rng, per_family):
    """(family, points) of 3 to d + 2 points in d 1..6, `per_family` of each family.

    Uniform points in [-1, 1]; integer lattice points; uniform points
    scaled by 1e+-300 and 1e+-150; half the points with a twin 1e-9 away;
    points on a flat of lower dimension (affinely dependent); a staircase
    from the origin along the axes, whose Gram matrix ties every pivot
    candidate, so the first of equal rows must win.
    """
    for t in range(per_family * len(SUPPORT_FAMILIES)):
        family = SUPPORT_FAMILIES[t % len(SUPPORT_FAMILIES)]
        dim = int(rng.integers(1, 7))
        k = int(rng.integers(3, dim + 3))
        pts = rng.uniform(-1, 1, (k, dim))
        if family == "lattice":
            pts = rng.integers(-3, 4, (k, dim)).astype(float)
        elif family == "scale":
            pts *= SUPPORT_SCALES[t // len(SUPPORT_FAMILIES) % len(SUPPORT_SCALES)]
        elif family == "twins":
            half = pts[: (k + 1) // 2]
            pts = np.vstack([half, half + 1e-9 * rng.normal(size=half.shape)])[:k]
        elif family == "dependent":
            flat = rng.uniform(-1, 1, (k, max(1, min(dim, k - 2))))
            pts = flat @ rng.normal(size=(flat.shape[1], dim))
        elif family == "ties":
            steps = np.zeros((k, dim))
            steps[1:, : k - 1] = np.diag(rng.uniform(-1, 1, k - 1))[:, :dim]
            pts = np.cumsum(steps, axis=0)
        yield family, [tuple(p) for p in pts.tolist()]


# Supports that reach every branch of the straight-line 3- and 4-point
# solves: each column-0 pivot row, the column-1 swap, ties in columns 0 and
# 1 that the first row must win (a swap changes the last bits), a zero
# multiplier (f == 0.0, orthogonal chords) and each near-singular raise
# ("singular" in the name).
NAMED_SUPPORTS = {
    "3: column-0 pivot in row 1": [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)],
    "3: f == 0": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    "3: singular in column 0": [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)],
    "3: singular in column 1": [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
    "4: column-0 pivot in row 1": [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
    "4: column-0 pivot in row 2, past row 1":
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 1.0, 0.0), (3.0, 0.0, 1.0)],
    "4: column-0 pivot in row 2": [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (2.0, 0.0, 1.0)],
    "4: column-0 tie of rows 1 and 2, no swap":
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.81, 0.0), (2.0, 0.82, 0.54)],
    "4: column-1 swap": [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 2.0, 1.0)],
    "4: column-1 tie, no swap": [(0.0, 0.0, 0.0), (1.0, 0.0, 0.27), (0.0, 0.53, 0.0), (0.0, 0.53, 0.53)],
    "4: f == 0 in both columns": [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
    "4: singular in column 0": [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
    "4: singular in column 1": [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
    "4: singular in column 2": [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)],
}


def circumball_outcome(circumball, pts) -> str:
    try:
        return repr(circumball(pts))
    except (DegenerateInputError, ArithmeticError) as exc:
        return type(exc).__name__


def test_circumball_matches_generator_reference_bitwise():
    # The plain-loop kernel does the reference's operations in its order:
    # the same center, radius and weights to the last bit, and a raise on
    # the same inputs.
    rng = np.random.default_rng(53)
    outcomes = {family: set() for family in SUPPORT_FAMILIES}
    for family, pts in support_sets(rng, 400):
        expected = circumball_outcome(reference_circumball, pts)
        assert circumball_outcome(_circumball, pts) == expected, (family, pts)
        outcomes[family].add(expected == "DegenerateInputError")
    assert all(outcomes[family] == {True, False} for family in ("uniform", "lattice", "scale", "ties"))
    assert True in outcomes["twins"] and True in outcomes["dependent"]
    for name, pts in NAMED_SUPPORTS.items():
        expected = circumball_outcome(reference_circumball, pts)
        assert circumball_outcome(_circumball, pts) == expected, name
        assert (expected == "DegenerateInputError") == ("singular" in name), name


# Twins 1e-9 apart: the move-to-front solve meets near-singular supports
# on its insertion order.
RETRY_NET = [
    (-0.7221366417596049, 0.4075715385335956),
    (0.6422061767892775, 0.9636566457435876),
    (0.6875811247374535, -0.15178702911197428),
    (-0.7221366430970021, 0.4075715375580128),
    (0.6422061767675866, 0.9636566457783153),
    (0.6875811239930929, -0.15178703039854874),
]

# Net 101 of the `meb` benchmark's near-duplicate nets (`perfbench/wl_meb.py`,
# seed 20240917): 7 points in 4-d and their twins 1e-9 away. A solve that
# reshuffles on a near-singular support fails on all four of its orders.
NEAR_DUPLICATE_NET = [
    (0.8107655216303924, 0.08437566912178407, 0.011877732708950539, -0.8344298228547162),
    (-0.3101626234817172, -0.999957614586537, 0.021002289336237157, -0.9565201429071759),
    (-0.4316978539565939, 0.03435238406601737, 0.21851794013324866, 0.7093011102229918),
    (-0.8599945638673441, 0.46466255307260096, -0.07163555846553837, -0.9701622999427282),
    (-0.8004878722635977, -0.9022501898135569, -0.7068690129479704, -0.2314567065033737),
    (0.40550672269868726, 0.5002601305946746, -0.9964078002581724, -0.5018158551147731),
    (0.8618767204967706, -0.5495862232894715, -0.7472056690500877, 0.0515974049035155),
    (0.8107655212689004, 0.08437566924684775, 0.011877732647716448, -0.8344298217186017),
    (-0.3101626224236329, -0.9999576147650856, 0.021002290009526952, -0.9565201437530638),
    (-0.4316978545289096, 0.03435238596214285, 0.21851794228707944, 0.7093011090578948),
    (-0.8599945633610472, 0.4646625529583001, -0.07163555625578795, -0.9701623013090198),
    (-0.8004878708158027, -0.9022501898707119, -0.706869012857099, -0.23145670728844422),
    (0.405506722310985, 0.5002601306393414, -0.9964078012144856, -0.5018158547121097),
    (0.8618767203128137, -0.5495862230359455, -0.7472056704122071, 0.05159740434472101),
]


@pytest.mark.parametrize("coords", [RETRY_NET, NEAR_DUPLICATE_NET], ids=["retry", "meb101"])
def test_near_singular_push_is_skipped_in_one_pass(monkeypatch, coords):
    orders, skipped = [], []
    insertion_order, circumball = chebyshev._insertion_order, chebyshev._circumball

    def recording_order(n):
        orders.append(n)
        return insertion_order(n)

    def recording_circumball(pts):
        try:
            return circumball(pts)
        except DegenerateInputError:
            skipped.append(len(pts))
            raise

    monkeypatch.setattr(chebyshev, "_insertion_order", recording_order)
    monkeypatch.setattr(chebyshev, "_circumball", recording_circumball)
    net = Net.of(coords)
    result = cheb(net)
    assert orders == [len(net)]
    assert skipped  # the net reaches the skip in _mtf
    assert_valid(result, net)


def test_near_duplicate_nets_solve():
    rng = np.random.default_rng(19)
    for i in range(300):
        dim = int(rng.integers(2, 5))
        base = rng.uniform(-1, 1, (int(rng.integers(2, 9)), dim))
        gap = (1e-11, 1e-9, 1e-7, 1e-5)[i % 4]
        twins = base + gap * rng.normal(size=base.shape) / math.sqrt(dim)
        net = Net.of(np.vstack([base, twins]).tolist())
        assert_valid(cheb(net), net)


def test_solve_on_generator_reference_kernel_is_bitwise_equal(monkeypatch):
    # The whole move-to-front solve gives the same bits, or the same raise,
    # on the plain-loop Gram kernel and on the generator reference: seeded
    # nets of 3 to 16 points in d 2..6, every third with twins 1e-9 apart.
    rng = np.random.default_rng(61)
    nets = [Net.of(RETRY_NET), Net.of(NEAR_DUPLICATE_NET)]
    for i in range(300):
        n, dim = int(rng.integers(3, 17)), int(rng.integers(2, 7))
        pts = rng.uniform(-1, 1, (n, dim))
        if i % 3 == 0:
            half = pts[: (n + 1) // 2]
            pts = np.vstack([half, half + 1e-9 * rng.normal(size=half.shape)])[:n]
        nets.append(Net.of(pts.tolist()))
    fast = [circumball_outcome(cheb_ball, net) for net in nets]
    monkeypatch.setattr(chebyshev, "_circumball", reference_circumball)
    assert [circumball_outcome(cheb_ball, net) for net in nets] == fast


def test_support_outside_hull_is_rejected():
    with pytest.raises(DegenerateInputError):
        chebyshev._certified((2.0, 0.0), 2.0, (0, 1), (-1.0, 2.0))
    # A NaN weight passes `min(weights) < -TAU_GEOM`; non-finite balls raise too.
    for center, radius, weights in [
        ((math.nan, 0.0), math.nan, (math.nan, math.nan)),
        ((0.5, 0.0), 0.5, (0.5, math.nan)),
        ((0.5, 0.0), math.inf, (0.5, 0.5)),
        ((0.5, -math.inf), 0.5, (0.5, 0.5)),
    ]:
        with pytest.raises(DegenerateInputError):
            chebyshev._certified(center, radius, (0, 1), weights)


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


@pytest.mark.parametrize("width", [1e-100, 1e-160, 1e-200, 1e-250, 1e-300])
def test_narrow_nets_far_from_the_origin_are_covered_exactly(width):
    # The solve scales by the chord width, not by the coordinates. Scaled by
    # the coordinates, these nets' Gram entries underflow: on these 96 nets
    # per width the solve returned a NaN ball on 12 nets 1e-160 wide and
    # raised on 5, and failed this check on 42 to 62 of each width from
    # 1e-160 to 1e-300.
    rng = np.random.default_rng(int(-math.log10(width)))
    for offset in (1.0, 1e2, 1e4, 1e6):
        for i in range(24):
            size = int(rng.integers(17, 41)) if i % 4 == 0 else int(rng.integers(3, 7))
            dim = int(rng.integers(2, 7))
            pts = rng.uniform(-1, 1, (size, dim)) * width
            pts[:, 1] += offset
            net = Net.of(pts.tolist())
            center, radius, support = cheb_ball(net)
            assert 0.0 < radius < 2.0 * width and len(support) <= dim + 1
            # Points outside the ball by at most the in-ball slack, in exact arithmetic.
            c = [Fraction(x) for x in center]
            bound = (Fraction(radius) * (1 + 2 * Fraction(TAU_BALL))) ** 2
            for p in net.coord_list():
                assert sum((Fraction(x) - y) ** 2 for x, y in zip(p, c)) <= bound


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


def assert_kernel_matches_welzl(coords):
    """`cheb_batch` on one net against the move-to-front solve, within 1e-12 * scale."""
    net = Net.of(coords)
    ref_center, ref_radius, _ = _welzl(net)
    center, radius = cheb_batch(np.array(net.coord_list())[None])
    scale = max(1.0, max(abs(c) for p in net.coord_list() for c in p))
    assert np.abs(center[0] - ref_center).max() <= 1e-12 * scale
    assert abs(radius[0] - ref_radius) <= 1e-12 * scale
    if len(net) == 2 or net.dim == 1:
        assert tuple(center[0].tolist()) == cheb(net).center.coords


_GRID = st.integers(-16, 16).map(lambda k: k / 8)
_FLOAT = st.floats(-1, 1, allow_nan=False).filter(lambda x: x == 0 or abs(x) >= 1e-6)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_batch_kernel_matches_welzl(data):
    dim = data.draw(st.integers(1, 3))
    size = data.draw(st.integers(1, 6))
    coord = data.draw(st.sampled_from([_GRID, _FLOAT]))
    coords = data.draw(
        st.lists(st.tuples(*([coord] * dim)), min_size=size, max_size=size, unique=True)
    )
    assert_kernel_matches_welzl(coords)


def test_batch_kernel_on_planted_degenerate_nets():
    rng = np.random.default_rng(41)
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        # three collinear points, plus up to two points off the line
        p, d = rng.uniform(-1, 1, dim), rng.uniform(-1, 1, dim)
        line = [tuple((p + t * d).tolist()) for t in rng.uniform(-2, 2, 3)]
        extra = [tuple(x) for x in rng.uniform(-1, 1, (int(rng.integers(0, 3)), dim)).tolist()]
        assert_kernel_matches_welzl(line + extra)
        # a rotated, shifted square: four cocircular points
        angle, shift = rng.uniform(0, 2 * math.pi), rng.uniform(-5, 5, 2)
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        square = [tuple((rot @ c + shift).tolist()) for c in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
        assert_kernel_matches_welzl(square)
        # twins 1e-7 apart
        pts = rng.uniform(-1, 1, (int(rng.integers(2, 5)), dim))
        twin = pts[0] + 1e-7 * rng.normal(size=dim) / math.sqrt(dim)
        assert_kernel_matches_welzl([tuple(x) for x in pts.tolist()] + [tuple(twin.tolist())])
    # The screen solves 1x1 and 2x2 Gram systems in closed form. Against the
    # np.linalg form (`linalg_gram_solve`) it picks the same supports, and
    # its centers were within 4.5e-16 of the coordinate scale on 22,500
    # uniform and near-collinear nets of 3 to 6 points in the plane and in
    # 3-d (and within 1.8e-16 on far hyperbolic triples, `test_hyperbolic`).
    p, d = rng.uniform(-1, 1, (400, 1, 2)), rng.uniform(-1, 1, (400, 1, 2))
    offset = 10.0 ** rng.uniform(-9, -3, (400, 1, 1)) * rng.normal(size=(400, 3, 2))
    near_collinear = p + rng.uniform(-2, 2, (400, 3, 1)) * d + offset
    assert screen_gap_to_linalg(near_collinear) <= 1e-15
    for n, dim in ((3, 2), (4, 2), (5, 3), (6, 3)):
        assert screen_gap_to_linalg(rng.uniform(-1, 1, (200, n, dim))) <= 1e-15


def test_batch_kernel_ignores_repeated_points():
    rng = np.random.default_rng(5)
    for n, dim in [(3, 1), (2, 2), (3, 2), (4, 3)]:
        nets = rng.uniform(-1, 1, (50, n, dim))
        padded = np.concatenate([nets, nets[:, :1], nets[:, -1:]], axis=1)
        (c, r), (cp, rp) = cheb_batch(nets), cheb_batch(padded)
        assert np.abs(c - cp).max() <= 1e-12 and np.abs(r - rp).max() <= 1e-12


def test_batch_kernel_batches_like_single_nets():
    rng = np.random.default_rng(8)
    nets = rng.uniform(-1, 1, (40, 5, 3))
    centers, radii = cheb_batch(nets)
    for net, center, radius in zip(nets, centers, radii):
        c1, r1 = cheb_batch(net[None])
        assert np.abs(c1[0] - center).max() <= 1e-15 and abs(r1[0] - radius) <= 1e-15


def full_order_mtf(net: Net):
    """Move-to-front over the whole insertion order, with no pivots, as `_welzl` returns it."""
    arr, exp = chebyshev._unit_scaled(net.array)
    order = list(chebyshev._insertion_order(len(arr)))
    pts = list(map(tuple, arr.tolist()))
    center, radius, support, weights = chebyshev._mtf(pts, order, [], net.dim)
    return chebyshev._certified(center, radius, support, weights, exp)


def pivot_nets(rng):
    """Nets of more than `_MTF_MAX_POINTS` points: random, cospherical, grids, flats, twins."""
    for dim in range(2, 7):
        for _ in range(4):
            yield random_net(rng, int(rng.integers(17, 300)), dim)
    angles = [2.0 * math.pi * j / 360 for j in range(360)]
    yield Net.of([(math.cos(a), math.sin(a)) for a in angles])
    for dim in (3, 4):
        v = rng.normal(size=(120, dim))
        yield Net.of((2.0 * v / np.linalg.norm(v, axis=1)[:, None] + 1.0).tolist())
    for dim, side in ((2, 5), (3, 3), (4, 3)):
        grid = np.array(np.meshgrid(*[np.arange(side)] * dim)).reshape(dim, -1).T.astype(float)
        for scale, shift in ((1.0, 0.0), (1.0, 1e3), (1e-200, 0.0)):
            yield Net.of((grid * scale + shift).tolist())
    for flat in (1, 3):
        basis, origin = rng.normal(size=(flat, 6)), rng.normal(size=6)
        yield Net.of((rng.uniform(-1, 1, (60, flat)) @ basis + origin).tolist())
    for gap in (1e-11, 1e-9, 1e-7):
        for dim in (2, 3, 4):
            base = rng.uniform(-1, 1, (int(rng.integers(9, 40)), dim))
            twins = base + gap * rng.normal(size=base.shape) / math.sqrt(dim)
            yield Net.of(np.vstack([base, twins]).tolist())


def test_pivots_agree_with_full_move_to_front():
    rng = np.random.default_rng(37)
    for net in pivot_nets(rng):
        assert len(net) > chebyshev._MTF_MAX_POINTS
        result = cheb(net)
        assert_valid(result, net)
        assert result.radius == pytest.approx(full_order_mtf(net)[1], rel=1e-12)


# Three-point nets that end the unrolled move-to-front (`_mtf3`) at each of
# its exits, named by the support it returns. The insertion order of three
# rows is (1, 0, 2), so a, b and c are the sorted rows 1, 0 and 2. The
# second net of each of the first three exits has a right angle at the point
# left off, which lies on the sphere and outside it by less than the in-ball
# slack. The near-singular net is a thin triangle whose in-ball tests round
# outward; in the last net b and a coincide once the coordinates are scaled
# by 2**-997.
THREE_POINT_EXITS = [
    ("(b, a)", [(0.0, 0.0), (0.5, 1.0), (0.6, 0.5)]),
    ("(b, a)", [
        (0.6076142587437322, -0.8032870726105554),
        (0.7531159093021449, -0.24959182936322316),
        (0.917045999598743, -0.36544431944656863),
    ]),
    ("(c, b)", [(0.0, 0.0), (0.5, 0.1), (1.0, 0.0)]),
    ("(c, b)", [
        (0.13479239336575266, 0.1581263019720234),
        (0.8728841236840061, 0.11231955106779412),
        (0.9220125429520442, 0.903933871436429),
    ]),
    ("(c, a)", [(-0.2, 0.5), (0.0, 0.0), (0.1, 1.0)]),
    ("(c, a)", [
        (-0.5170770264533464, 0.9262842437911143),
        (-0.07401043870264734, 0.4807925987468631),
        (0.0963639523667178, 1.5363859242508162),
    ]),
    ("(c, a, b)", [(0.0, 0.0), (0.5, 1.0), (1.0, 0.1)]),
    ("(c, a), near-singular (c, a, b) skipped", [
        (9.83659807912803, -0.9865595837329596),
        (9.836599065737023, -0.986559747142557),
        (10.0, 0.0),
    ]),
    ("zero distance after scaling", [(-1e300, -1e-300), (-1e300, 1e-300), (1e300, 0.0)]),
]


def three_point_exit(pts) -> str:
    """The exit of `_mtf3` on three scaled rows, in the names of THREE_POINT_EXITS."""
    a, b, c = chebyshev._insertion_order(3)
    if math.dist(pts[b], pts[a]) == 0.0 or math.dist(pts[b], pts[c]) == 0.0:
        return "zero distance after scaling"
    center, radius, support, _ = chebyshev._mtf3(pts, len(pts[0]))
    name = "(" + ", ".join({a: "a", b: "b", c: "c"}[i] for i in support) + ")"
    if support == (c, a) and math.dist(pts[b], center) > radius * (1.0 + TAU_BALL):
        name += ", near-singular (c, a, b) skipped"  # b was outside, and its push raised
    return name


def test_nets_within_the_head_equal_full_move_to_front_bitwise():
    """Nets of at most `_MTF_MAX_POINTS` points take no pivot: `_welzl` is full move-to-front."""
    rng = np.random.default_rng(43)
    for _ in range(200):
        size = int(rng.integers(3, chebyshev._MTF_MAX_POINTS + 1))
        net = random_net(rng, size, int(rng.integers(2, 7)))
        assert _welzl(net) == full_order_mtf(net)
    for coords in (RETRY_NET, NEAR_DUPLICATE_NET):
        assert _welzl(Net.of(coords)) == full_order_mtf(Net.of(coords))
    # Three points take the unrolled run, which must equal `_mtf` to the
    # last bit, weights and support order included, at every exit.
    assert chebyshev._insertion_order(3) == (1, 0, 2)
    for name, coords in THREE_POINT_EXITS:
        net = Net.of(coords)
        pts, _ = chebyshev._scaled_rows(net)
        assert three_point_exit(pts) == name
        assert chebyshev._mtf3(pts, 2) == chebyshev._mtf(pts, [1, 0, 2], [], 2), name
        assert _welzl(net) == full_order_mtf(net), name
    for _ in range(300):
        dim = int(rng.integers(2, 7))
        pts = [tuple(p) for p in rng.uniform(-1, 1, (3, dim)).tolist()]
        assert chebyshev._mtf3(pts, dim) == chebyshev._mtf(pts, [1, 0, 2], [], dim)


def test_pivot_path_is_reached(monkeypatch):
    mtf, depth, top_level = chebyshev._mtf, [0], []

    def counting_mtf(pts, order, boundary, dim):
        if not depth[0]:
            top_level.append((len(order), list(boundary)))
        depth[0] += 1
        try:
            return mtf(pts, order, boundary, dim)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(chebyshev, "_mtf", counting_mtf)
    rng = np.random.default_rng(47)
    cheb(random_net(rng, chebyshev._MTF_MAX_POINTS, 3))
    # move-to-front over the whole net: no pivot
    assert top_level == [(chebyshev._MTF_MAX_POINTS, [])]
    top_level.clear()
    net = random_net(rng, 500, 3)
    assert_valid(cheb(net), net)
    # no move-to-front head: the first pivot joins the farthest point to the
    # one-point start, and every solve has the farthest point alone on the
    # boundary, after the support rows
    assert top_level[0] == (1, [1]) and len(top_level) > 1
    assert all(boundary == [size] for size, boundary in top_level)


def test_large_net_builds_points_only_for_center_and_support(monkeypatch):
    built = []
    post_init = Point.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Point, "__post_init__", counting_post_init)
    net = random_net(np.random.default_rng(59), 3000, 3)
    result = cheb(net)
    assert len(built) == 1 + len(result.support)
    assert set(built) == {result.center, *result.support}
    monkeypatch.undo()
    assert_valid(result, net)


def test_pivot_that_does_not_grow_the_ball_raises(monkeypatch):
    mtf, depth, head = chebyshev._mtf, [0], []

    def stalling_mtf(pts, order, boundary, dim):
        if not depth[0] and head:
            return head[0]  # a pivot solve that leaves the ball as it was
        depth[0] += 1
        try:
            ball = mtf(pts, order, boundary, dim)
        finally:
            depth[0] -= 1
        if not depth[0]:
            head.append(ball)
        return ball

    monkeypatch.setattr(chebyshev, "_mtf", stalling_mtf)
    with pytest.raises(DegenerateInputError):
        cheb(random_net(np.random.default_rng(53), 500, 3))
