import math

import numpy as np
import pytest

import chebnets.lipschitz as lip
from chebnets.chebyshev import ChebResult
from chebnets.errors import DomainError, InconsistencyError
from chebnets.geometry import Net, Point
from chebnets.lipschitz import (
    NeighborhoodSpec,
    default_epsilon,
    estimate_local_lipschitz,
    min_pairwise_distance,
    random_net,
    sample_pair,
    worst_of,
)


def test_worst_of_keeps_first_of_ties():
    items = [("a", 1.0), ("b", 3.0), ("c", 3.0), ("d", 2.0)]
    assert worst_of(items, ratio=lambda item: item[1]) == (3.0, ("b", 3.0))
    assert worst_of(iter([])) == (-1.0, None)


def test_sample_pair_examples():
    m = Net.of([(0.0, 0.0), (1.0, 1.0)])
    same = sample_pair(m, m)
    assert same.alpha_ab == 0 and same.ratio == 0

    s = sample_pair(Net.of([(0.0,), (2.0,)]), Net.of([(0.0,), (4.0,)]))
    assert s.cheb_displacement == pytest.approx(1, abs=0)
    assert s.alpha_ab == pytest.approx(2, abs=0)
    assert s.ratio == pytest.approx(0.5, abs=0)

    single = sample_pair(Net.of([(0.0, 0.0)]), Net.of([(3.0, 4.0)]))
    assert single.ratio == pytest.approx(1, abs=0)


def test_sample_pair_ratio_consistency():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = random_net(rng, int(rng.integers(1, 6)), 2)
        z = random_net(rng, int(rng.integers(1, 6)), 2)
        s = sample_pair(m, z)
        assert abs(s.ratio * s.alpha_ab - s.cheb_displacement) <= 1e-9 * max(1.0, s.cheb_displacement)


def test_sample_pair_flags_inconsistent_solver(monkeypatch):
    drift = iter([Point((0.0, 0.0)), Point((1.0, 0.0))])

    def broken_cheb(net, seed=0):
        p = next(drift)
        return ChebResult(p, 0.0, (p,))

    monkeypatch.setattr(lip, "cheb", broken_cheb)
    m = Net.of([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(InconsistencyError):
        sample_pair(m, m)


def test_default_epsilon_examples():
    assert default_epsilon(Net.of([(0, 0), (8, 0)])) == 1
    eq = Net.of([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    assert default_epsilon(eq) == pytest.approx(1 / 8, abs=1e-12)
    assert default_epsilon(Net.of([(0,), (1,), (100,)])) == pytest.approx(1 / 8, abs=0)
    with pytest.raises(DomainError):
        default_epsilon(Net.of([(3, 3)]))


def test_neighborhood_spec():
    net = Net.of([(0, 0), (4, 0)])
    spec = NeighborhoodSpec(net, default_epsilon(net), 10, 0)
    assert spec.epsilon == min_pairwise_distance(net) / 8
    with pytest.raises(DomainError):
        NeighborhoodSpec(net, 0.0, 10, 0)
    with pytest.raises(DomainError):
        NeighborhoodSpec(net, 0.1, 0, 0)


def test_estimate_two_net_bound():
    net = Net.of([(0.0, 0.0), (1.0, 0.0)])
    sup, worst = estimate_local_lipschitz(NeighborhoodSpec(net, default_epsilon(net), 400, 3))
    assert sup <= 1 + 1e-7
    assert worst.ratio == sup


def test_estimate_rejects_merging_epsilon():
    net = Net.of([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(DomainError):
        estimate_local_lipschitz(NeighborhoodSpec(net, 0.5, 10, 0))


def test_estimate_monotone_in_sample_count():
    net = Net.of([(0.0, 0.0), (1.0, 0.0), (0.3, 0.9)])
    spec_small = NeighborhoodSpec(net, default_epsilon(net), 150, 5)
    spec_big = NeighborhoodSpec(net, default_epsilon(net), 300, 5)
    small, _ = estimate_local_lipschitz(spec_small)
    big, _ = estimate_local_lipschitz(spec_big)
    assert big >= small


def test_estimate_deterministic():
    net = Net.of([(0.0, 0.0), (1.0, 0.0), (0.3, 0.9)])
    spec = NeighborhoodSpec(net, default_epsilon(net), 100, 12)
    a = estimate_local_lipschitz(spec)
    b = estimate_local_lipschitz(spec)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_estimate_stays_in_alpha_ball():
    from chebnets.hausdorff import alpha

    net = Net.of([(0.0, 0.0), (1.0, 0.0), (0.3, 0.9)])
    eps = default_epsilon(net)
    rng = np.random.default_rng(0)
    for _ in range(200):
        moved = lip.perturbed_net(rng, net, eps)
        assert alpha(net, moved) < eps


def test_scale_equivariance_power_of_two():
    rng = np.random.default_rng(8)
    for scale in (0.5, 2.0, 1024.0):
        for _ in range(40):
            m = random_net(rng, int(rng.integers(2, 6)), 2)
            z = random_net(rng, int(rng.integers(2, 6)), 2)
            base = sample_pair(m, z)
            sm = Net.of([tuple(scale * c for c in p.coords) for p in m])
            sz = Net.of([tuple(scale * c for c in p.coords) for p in z])
            scaled = sample_pair(sm, sz)
            if base.ratio == 0:
                assert scaled.ratio == 0
                continue
            assert abs(scaled.ratio - base.ratio) <= 4 * math.ulp(max(1.0, base.ratio))


def _random_net_per_point(rng, size, dim):
    """Reference: one draw per point, skipping exact repeats."""
    pts = []
    while len(pts) < size:
        p = tuple(rng.uniform(-1.0, 1.0, size=dim).tolist())
        if p not in pts:
            pts.append(p)
    return Net.of(pts, size)


def test_random_net_block_draw_matches_per_point_draws():
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for size, dim in [(1, 1), (2, 3), (6, 2), (4, 5)]:
            assert random_net(a, size, dim) == _random_net_per_point(b, size, dim)
        assert a.random() == b.random()


class _ScriptedRng:
    """Stands in for a Generator: serves fixed rows, in the order drawn."""

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]

    def uniform(self, low, high, size):
        count = size[0] if isinstance(size, tuple) else 1
        block, self.rows = self.rows[:count], self.rows[count:]
        return np.array(block if isinstance(size, tuple) else block[0])


def test_random_net_redraws_exact_repeats():
    rows = [(0.5, 0.5), (-0.25, 0.0), (0.5, 0.5), (0.5, 0.5), (0.75, -1.0), (0.0, 0.0)]
    net = random_net(_ScriptedRng(rows), 3, 2)
    assert net == _random_net_per_point(_ScriptedRng(rows), 3, 2)
    assert net == Net.of([(0.5, 0.5), (-0.25, 0.0), (0.75, -1.0)])
