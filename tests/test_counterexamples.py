import math

import pytest

from chebnets.counterexamples import (
    _euclidean_family,
    _hyperbolic_family,
    lemma3_counterexample,
    lemma3_hyperbolic_counterexample,
    lemma3_nonuniform_sequence,
)
from chebnets.errors import DomainError
from chebnets.geometry import Point, distance
from chebnets.hyperbolic import (
    HyperbolicTriangle,
    h_alpha,
    h_angle,
    h_cheb3,
    h_distance,
    h_midpoint,
    h_project_to_geodesic,
    right_triangle_identity_check,
)
from chebnets.lipschitz import sample_pair


def test_ratio_exceeds_targets():
    for target in (1.0, 10.0):
        m, w, ratio = lemma3_counterexample(target)
        assert ratio > target
        assert len(m) == 3 and len(w) == 3


def test_ratio_matches_closed_form():
    m, w, ratio = lemma3_counterexample(10.0)
    y = Point((1.0, 0.0))
    z = next(p for p in m if p.coords not in ((0.0, 0.0), (1.0, 0.0)))
    assert ratio == pytest.approx(1.0 / (2.0 * distance(y, z)), rel=1e-6)
    # chord 1/(4 * 10) = 0.025 gives ratio 20
    assert ratio == pytest.approx(20.0, rel=1e-6)


def test_moderate_and_limiting_chords():
    m, w = _euclidean_family(0.25)
    assert sample_pair(m, w).ratio == pytest.approx(2.0, rel=1e-9)
    m, w = _euclidean_family(0.499)
    assert sample_pair(m, w).ratio == pytest.approx(1.0 / 0.998, rel=1e-9)


def test_ratio_monotone_in_chord():
    ratios = [sample_pair(*_euclidean_family(c)).ratio for c in (0.2, 0.1, 0.05)]
    assert ratios[0] < ratios[1] < ratios[2]


def test_target_validation():
    with pytest.raises(DomainError):
        lemma3_counterexample(0.0)
    with pytest.raises(DomainError):
        lemma3_counterexample(-3.0)
    # small targets still produce a valid witness via the chord cap
    _, _, ratio = lemma3_counterexample(0.1)
    assert ratio > 0.1


def test_nonuniform_sequence_behaviour():
    rows = lemma3_nonuniform_sequence(200)
    assert len(rows) == 200
    alphas = [r[2] for r in rows]
    disps = [r[3] for r in rows]
    assert alphas[199] < alphas[99] < alphas[9] < alphas[0]
    limit = disps[-1]
    assert max(abs(d - limit) for d in disps) <= 0.01 * limit
    # displacement is pinned at half the separation of y and u
    base_m, base_w = _euclidean_family(0.25)
    u = next(p for p in base_w if p.coords not in ((0.0, 0.0), (1.0, 0.0)))
    assert limit == pytest.approx(distance(Point((1.0, 0.0)), u) / 2, rel=1e-12)


def test_nonuniform_sequence_starts_at_base_pair():
    rows = lemma3_nonuniform_sequence(3)
    base_m, base_w = _euclidean_family(0.25)
    m1, w1, _, _ = rows[0]
    assert w1 == base_w
    for p, q in zip(m1.points, base_m.points):
        assert distance(p, q) < 1e-12
    with pytest.raises(DomainError):
        lemma3_nonuniform_sequence(1)


def test_hyperbolic_ratio_exceeds_targets():
    for target in (2.0, 10.0):
        m, w, ratio = lemma3_hyperbolic_counterexample(target)
        assert ratio > target
        assert len(m) == 3 and len(w) == 3


def test_hyperbolic_family_monotone():
    def ratio_at(chord):
        m, w = _hyperbolic_family(chord)
        cm, _ = h_cheb3(*m)
        cw, _ = h_cheb3(*w)
        return h_distance(cm, cw) / h_alpha(m, w)

    assert ratio_at(0.2) < ratio_at(0.1) < ratio_at(0.05)


def test_hyperbolic_family_meets_its_defining_equalities():
    for k in range(17):
        chord = 0.25 * 2.0**-k
        (x, y, z), (_, _, u) = _hyperbolic_family(chord)
        assert abs(h_distance(y, z) - chord) <= 1e-14
        assert abs(h_distance(h_midpoint(x, y), z) - 0.5) <= 1e-14
        assert abs(h_distance(h_midpoint(x, u), y) - h_distance(x, u) / 2) <= 1e-14
        assert h_angle(x, z, u) <= 1e-14


def test_hyperbolic_construction_satisfies_right_triangle_identities():
    m, w_net, _ = lemma3_hyperbolic_counterexample(5.0)
    x, y, z = m
    u = w_net[2]
    v = h_midpoint(x, y)
    w = h_midpoint(x, u)
    # centers really are the segment midpoints
    cm, _ = h_cheb3(x, y, z)
    cw, _ = h_cheb3(x, y, u)
    assert h_distance(cm, v) < 1e-9
    assert h_distance(cw, w) < 1e-9
    # the median from w to the base [x,y] is an altitude: right angles at v and p
    p = h_project_to_geodesic(v, x, w)
    for tri_pts, right_at in (((v, x, w), 0), ((p, w, v), 0)):
        tri = HyperbolicTriangle(tri_pts)
        res = right_triangle_identity_check(tri, right_vertex=right_at)
        assert max(res) <= 1e-9
    # displacement/alpha equals |vw| / (2 |pw|) on this configuration
    ratio = h_distance(cm, cw) / h_alpha(m, w_net)
    assert ratio == pytest.approx(h_distance(v, w) / (2 * h_distance(p, w)), rel=1e-6)
