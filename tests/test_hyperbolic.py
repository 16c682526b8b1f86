import json
import math

import numpy as np
import pytest

from chebnets import hyperbolic
from chebnets.errors import DegenerateInputError, DomainError, ModelError, OracleBudgetError
from chebnets.hyperbolic import (
    _HYPERBOLOID,
    ORIGIN,
    HyperbolicPoint,
    HyperbolicTriangle,
    h_alpha,
    h_cheb3,
    h_distance,
    h_exp,
    h_midpoint,
    h_project_to_geodesic,
    hyperbolic_point_to_json,
    minimax_center_search,
    minkowski_inner,
    right_triangle,
    right_triangle_identity_check,
    tangent_basis,
)
from meb_helpers import screen_gap_to_linalg


def random_point(rng, spread=1.5):
    x1, x2 = rng.uniform(-spread, spread, 2)
    return HyperbolicPoint.from_xy(x1, x2)


def test_model_invariant_enforced():
    with pytest.raises(ModelError):
        HyperbolicPoint((-1.0, 0.0, 0.0))
    with pytest.raises(ModelError):
        HyperbolicPoint((1.5, 0.0, 0.0))
    p = HyperbolicPoint.on_sheet((2.0, 1.0, 0.5))
    assert abs(minkowski_inner(p.coords, p.coords) - 1.0) < 1e-12


def test_distance_examples():
    assert h_distance(ORIGIN, ORIGIN) == 0
    b = HyperbolicPoint((math.cosh(1), math.sinh(1), 0))
    assert h_distance(ORIGIN, b) == pytest.approx(1, abs=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(50):
        p, q = random_point(rng), random_point(rng)
        assert h_distance(p, q) == h_distance(q, p)


def test_metric_axioms_random():
    rng = np.random.default_rng(9)
    for _ in range(300):
        a, b, c = (random_point(rng) for _ in range(3))
        lhs = h_distance(a, c)
        rhs = h_distance(a, b) + h_distance(b, c)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)
        assert h_distance(a, b) >= 0


def test_midpoint_examples():
    assert h_midpoint(ORIGIN, ORIGIN) == ORIGIN
    far = HyperbolicPoint((math.cosh(2), math.sinh(2), 0))
    mid = h_midpoint(ORIGIN, far)
    expected = (math.cosh(1), math.sinh(1), 0.0)
    assert max(abs(a - b) for a, b in zip(mid.coords, expected)) < 1e-12


def test_midpoint_equidistance_random():
    rng = np.random.default_rng(13)
    for _ in range(500):
        a, b = random_point(rng), random_point(rng)
        m = h_midpoint(a, b)
        half = h_distance(a, b) / 2
        assert abs(h_distance(a, m) - half) <= 1e-9 * max(1.0, half)
        assert abs(h_distance(b, m) - half) <= 1e-9 * max(1.0, half)


def test_cheb3_point_on_diameter_circle_gives_midpoint():
    # Third point exactly on the circle with the segment as diameter: the
    # segment midpoint is equidistant from all three and is the center.
    x = ORIGIN
    y = HyperbolicPoint((math.cosh(1.2), math.sinh(1.2), 0))
    mid = h_midpoint(x, y)
    e1, e2 = tangent_basis(mid)
    radius = h_distance(x, y) / 2
    theta = 0.9
    z = h_exp(mid, tuple(radius * (math.cos(theta) * a + math.sin(theta) * b) for a, b in zip(e1, e2)))
    center, r = h_cheb3(x, y, z)
    assert h_distance(center, mid) < 1e-9
    assert r == pytest.approx(radius, abs=1e-9)


def test_cheb3_equilateral_rotations():
    r = 0.8
    pts = [
        HyperbolicPoint(
            (math.cosh(r), math.sinh(r) * math.cos(2 * math.pi * k / 3), math.sinh(r) * math.sin(2 * math.pi * k / 3))
        )
        for k in range(3)
    ]
    center, radius = h_cheb3(*pts)
    assert h_distance(center, ORIGIN) < 1e-9
    assert radius == pytest.approx(r, abs=1e-9)


def test_cheb3_collinear_falls_back_to_extremes():
    direction = (0.0, 1.0, 0.0)
    a = ORIGIN
    b = h_exp(ORIGIN, tuple(0.5 * d for d in direction))
    c = h_exp(ORIGIN, tuple(1.4 * d for d in direction))
    center, radius = h_cheb3(a, b, c)
    assert h_distance(center, h_midpoint(a, c)) < 1e-9
    assert radius == pytest.approx(0.7, abs=1e-9)


def test_cheb3_matches_minimax_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        pts = [random_point(rng, 1.0) for _ in range(3)]
        if len({p.coords for p in pts}) != 3:
            continue
        center, radius = h_cheb3(*pts)
        _, oracle_radius = minimax_center_search(pts)
        assert radius <= oracle_radius + 1e-6
        assert abs(radius - oracle_radius) <= 1e-6
        for p in pts:
            assert h_distance(center, p) <= radius + 1e-9


def test_cheb3_fallback_matches_newton_path(monkeypatch):
    rng = np.random.default_rng(21)
    triples = [[random_point(rng, 1.0) for _ in range(3)] for _ in range(25)]
    expected = [h_cheb3(*pts) for pts in triples]
    fallbacks = []

    def newton_fails(pts):
        fallbacks.append(pts)
        return None

    monkeypatch.setattr(hyperbolic, "_newton_circumcenter", newton_fails)
    for pts, (center, radius) in zip(triples, expected):
        fb_center, fb_radius = h_cheb3(*pts)
        assert abs(fb_radius - radius) <= 1e-9
        assert h_distance(fb_center, center) <= 1e-9
    assert fallbacks  # some triples have a three-point support


def test_cheb3_falls_back_when_newton_leaves_the_model():
    # Far from ORIGIN a Newton iterate is not timelike and h_exp raises ModelError.
    # The pinned oracle radius is not an accurate one: these inputs are off the
    # sheet by up to 4e-6 in <p,p>, and a 60-digit mpmath solve of G lam = 1
    # (G_ij = <p_i, p_j>) on the raw coordinates gives 2.05129514634947, 4.5e-8
    # from the pin. The pin guards the order of the Gram arithmetic.
    pts = [
        HyperbolicPoint((109919.91627438877, -23350.347466198273, -107411.12263623561)),
        HyperbolicPoint((185896.08895300885, -39480.45013710212, -181655.30530099245)),
        HyperbolicPoint((22185.06128721732, -4713.979907784374, -21678.453283077964)),
    ]
    _, oracle_radius = minimax_center_search(pts)
    assert oracle_radius == pytest.approx(2.0512951912868553, abs=1e-12)
    _, radius = h_cheb3(*pts)
    assert abs(radius - oracle_radius) <= 1e-9


def test_minimax_center_search_small_inputs():
    p = HyperbolicPoint.from_xy(0.4, -0.2)
    assert minimax_center_search([p]) == (p, 0.0)
    q = HyperbolicPoint.from_xy(-1.0, 0.3)
    center, radius = minimax_center_search([p, q, p, q])
    assert h_distance(center, h_midpoint(p, q)) < 1e-12
    assert radius == pytest.approx(h_distance(p, q) / 2, abs=1e-12)
    with pytest.raises(DomainError):
        minimax_center_search([])


def test_minimax_center_search_budget_guard(monkeypatch):
    # 13 distinct points exceed the guard, which must raise before any
    # support subset is enumerated; 12 points and duplicates are solved.
    def no_enumeration(*args):
        raise AssertionError("the enumeration ran")

    rng = np.random.default_rng(13)
    pts = [random_point(rng) for _ in range(13)]
    monkeypatch.setattr(hyperbolic, "_enumerated_balls", no_enumeration)
    with pytest.raises(OracleBudgetError):
        minimax_center_search(pts)
    monkeypatch.undo()
    center, radius = minimax_center_search(pts[:12] + pts[:12])
    assert all(h_distance(center, p) <= radius + 1e-9 for p in pts[:12])


def random_net_near(rng, size, far, spread):
    """`size` points within `spread` of a center that lies `far` from ORIGIN."""
    e1, e2 = tangent_basis(ORIGIN)
    t = rng.uniform(0, 2 * math.pi)
    center = h_exp(ORIGIN, tuple(far * (math.cos(t) * a + math.sin(t) * b) for a, b in zip(e1, e2)))
    f1, f2 = tangent_basis(center)
    pts = []
    for _ in range(size):
        t, r = rng.uniform(0, 2 * math.pi), spread * math.sqrt(rng.uniform())
        pts.append(h_exp(center, tuple(r * (math.cos(t) * a + math.sin(t) * b) for a, b in zip(f1, f2))))
    return pts


def test_minimax_center_search_certificate_on_nets():
    rng = np.random.default_rng(77)
    for _ in range(40):
        spread = 10 ** rng.uniform(-2, math.log10(2))
        pts = random_net_near(rng, int(rng.integers(4, 13)), rng.uniform(0, 6 - spread), spread)
        assert max(h_distance(ORIGIN, p) for p in pts) <= 6
        center, radius = minimax_center_search(pts)
        assert all(h_distance(center, p) <= radius + 1e-9 for p in pts)
        e1, e2 = tangent_basis(center)
        for i in range(16):
            theta = 2 * math.pi * i / 16
            step = tuple(1e-6 * (math.cos(theta) * a + math.sin(theta) * b) for a, b in zip(e1, e2))
            moved = h_exp(center, step)
            assert max(h_distance(moved, p) for p in pts) >= radius
    # Far triples: the oracle's closed-form 2x2 Gram solve against its
    # np.linalg form; the centers were within 1.8e-16 of the coordinate
    # scale on 2,000 such triples.
    for _ in range(100):
        spread = 10 ** rng.uniform(-3, 0)
        pts = random_net_near(rng, 3, rng.uniform(4, 11), spread)
        assert screen_gap_to_linalg(np.array([[p.coords for p in pts]]), _HYPERBOLOID) <= 1e-15


def test_minimax_center_search_slack_does_not_scale_with_coordinates():
    # About 7 from ORIGIN: a coverage slack scaled by the coordinates (~458)
    # accepted a pair ball here that was 4.4e-7 too large.
    pts = [
        HyperbolicPoint((458.3002141002915, -33.743199309878854, 457.05522942496435)),
        HyperbolicPoint((458.2716223774068, -33.74117124968208, 457.0267095467399)),
        HyperbolicPoint((458.3906773013553, -33.75002031194042, 457.14543546418446)),
    ]
    _, radius = minimax_center_search(pts)
    assert abs(radius - h_cheb3(*pts)[1]) <= 1e-9


def test_cheb3_minimax_certificate():
    rng = np.random.default_rng(42)
    for _ in range(10):
        pts = [random_point(rng, 1.0) for _ in range(3)]
        if len({p.coords for p in pts}) != 3:
            continue
        center, radius = h_cheb3(*pts)
        e1, e2 = tangent_basis(center)
        for _ in range(10):
            theta = rng.uniform(0, 2 * math.pi)
            step = tuple(1e-4 * (math.cos(theta) * a + math.sin(theta) * b) for a, b in zip(e1, e2))
            moved = h_exp(center, step)
            perturbed = max(h_distance(moved, p) for p in pts)
            assert perturbed >= radius - 1e-8


def test_cheb3_rejects_duplicates():
    with pytest.raises(DegenerateInputError):
        h_cheb3(ORIGIN, ORIGIN, HyperbolicPoint.from_xy(1, 0))


def test_right_triangle_identities():
    for legs in [(0.5, 0.5), (1.0, 2.0), (0.1, 1.7)]:
        res = right_triangle_identity_check(right_triangle(*legs))
        assert max(res) <= 1e-9
    # near-degenerate leg: identities collapse toward 0 = 0
    res = right_triangle_identity_check(right_triangle(1e-6, 0.5))
    assert max(res) <= 1e-9


def test_right_triangle_identities_random_batch():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        legs = rng.uniform(0.05, 2.5, 2)
        res = right_triangle_identity_check(right_triangle(*legs))
        worst = max(worst, *res)
    assert worst <= 1e-9


def test_identity_check_rejects_non_right_triangle():
    tri = HyperbolicTriangle(
        (ORIGIN, HyperbolicPoint.from_xy(1.0, 0.1), HyperbolicPoint.from_xy(0.2, 1.1))
    )
    with pytest.raises(DomainError):
        right_triangle_identity_check(tri, right_vertex=0)


def test_triangle_invariants():
    tri = right_triangle(0.7, 1.1)
    assert sum(tri.angles) < math.pi
    for i in range(3):
        assert tri.side_lengths[i] < tri.side_lengths[(i + 1) % 3] + tri.side_lengths[(i + 2) % 3]
    collinear = (
        ORIGIN,
        h_exp(ORIGIN, (0.0, 0.4, 0.0)),
        h_exp(ORIGIN, (0.0, 1.0, 0.0)),
    )
    with pytest.raises(DegenerateInputError):
        HyperbolicTriangle(collinear)


def test_projection_foot_is_perpendicular():
    rng = np.random.default_rng(17)
    for _ in range(50):
        x, w, v = (random_point(rng, 1.2) for _ in range(3))
        if len({x.coords, w.coords, v.coords}) != 3:
            continue
        p = h_project_to_geodesic(v, x, w)
        if min(h_distance(p, v), h_distance(p, x)) < 1e-6:
            continue
        tri = HyperbolicTriangle((p, x, v)) if h_distance(p, x) > 1e-6 else None
        if tri is not None:
            assert abs(tri.angles[0] - math.pi / 2) < 1e-6


def test_projection_onto_coincident_points_raises():
    x = HyperbolicPoint.from_xy(0.4, -0.2)
    v = HyperbolicPoint.from_xy(-0.3, 0.7)
    with pytest.raises(DegenerateInputError):
        h_project_to_geodesic(v, x, x)


def test_h_alpha_matches_definition():
    a = [ORIGIN, HyperbolicPoint.from_xy(1, 0)]
    b = [ORIGIN]
    assert h_alpha(a, b) == pytest.approx(h_distance(a[1], ORIGIN), abs=0)
    assert h_alpha(a, a) == 0
    with pytest.raises(DomainError):
        h_alpha([], b)


def test_json_round_trip_and_validation():
    p = HyperbolicPoint.from_xy(0.3, -0.8)
    doc = json.loads(json.dumps(hyperbolic_point_to_json(p)))
    assert doc["model"] == "hyperboloid"
    assert HyperbolicPoint(tuple(doc["coords"])) == p
    # a document off the sheet does not load back as a point
    with pytest.raises(ModelError):
        HyperbolicPoint((2.0, 0.0, 0.0))
