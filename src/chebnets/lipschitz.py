"""Displacement-to-distance samples for the center map, and local estimation.

A LipschitzSample packages one pair of nets with their Hausdorff distance,
the displacement of their Chebyshev centers, and the ratio of the two; the
empirical local Lipschitz constant of a neighbourhood is the supremum of
that ratio over sampled pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hausdorff
from .chebyshev import cheb
from .errors import DomainError, InconsistencyError
from .geometry import Net, distance
from .tolerances import geom_tol

LEMMA_IDS = ("L1", "L2", "L4", "S1", "S2i", "S2ii")


@dataclass(frozen=True)
class LipschitzSample:
    """One net pair with alpha distance, center displacement and their ratio."""

    net_a: Net
    net_b: Net
    alpha_ab: float
    cheb_displacement: float
    ratio: float


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one verifier run.

    `passed` is exactly `max_ratio <= claimed_bound + TAU_VERIFY`; the JSON
    key stays "pass" (a Python keyword, hence the attribute name).
    """

    lemma_id: str
    trials: int
    max_ratio: float
    claimed_bound: float
    worst_sample: LipschitzSample
    passed: bool

    def __post_init__(self):
        if self.lemma_id not in LEMMA_IDS:
            raise DomainError(f"unknown lemma id {self.lemma_id!r}")


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Sampling plan for one Hausdorff ball around a base net."""

    base_net: Net
    epsilon: float
    sample_count: int
    seed: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        if self.sample_count < 1:
            raise DomainError("sample_count must be at least 1")

    @classmethod
    def with_default_epsilon(cls, base_net: Net, sample_count: int, seed: int) -> "NeighborhoodSpec":
        return cls(base_net, default_epsilon(base_net), sample_count, seed)


def sample_pair(m: Net, z: Net, seed: int = 0) -> LipschitzSample:
    """Measure one pair: alpha, center displacement and their ratio."""
    a = hausdorff.alpha(m, z)
    disp = distance(cheb(m, seed=seed).center, cheb(z, seed=seed).center)
    if a == 0.0:
        if disp > geom_tol(_net_scale(m)):
            raise InconsistencyError(
                f"alpha is 0 but centers moved by {disp}; center solve is broken"
            )
        return LipschitzSample(m, z, 0.0, disp, 0.0)
    return LipschitzSample(m, z, a, disp, disp / a)


def _net_scale(net: Net) -> float:
    return max(max(abs(c) for c in p.coords) for p in net.points)


def min_pairwise_distance(net: Net) -> float:
    pts = net.coord_list()
    if len(pts) < 2:
        raise DomainError("min pairwise distance needs at least two points")
    return min(
        math.dist(pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))
    )


def default_epsilon(net: Net) -> float:
    """Neighbourhood radius: smallest pairwise distance divided by 8."""
    return min_pairwise_distance(net) / 8.0


def random_net(rng: np.random.Generator, size: int, dim: int, capacity: int = 0) -> Net:
    """Net with i.i.d. uniform [-1, 1] coordinates and exactly-distinct points."""
    # One block draw is the same stream as `size` draws of one point each.
    pts = list(dict.fromkeys(map(tuple, rng.uniform(-1.0, 1.0, size=(size, dim)).tolist())))
    while len(pts) < size:  # an exact repeat was drawn: skip it and draw on
        p = tuple(rng.uniform(-1.0, 1.0, size=dim).tolist())
        if p not in pts:
            pts.append(p)
    return Net.of(pts, capacity or size)


def _ball_offset(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """Uniform draw from the open Euclidean ball of the given radius."""
    v = rng.normal(size=dim)
    norm = np.linalg.norm(v)
    while norm == 0.0:
        v = rng.normal(size=dim)
        norm = np.linalg.norm(v)
    r = radius * rng.random() ** (1.0 / dim)
    return v * (r / norm)


def perturbed_net(rng: np.random.Generator, base: Net, epsilon: float) -> Net:
    """Move every point of the base net independently within epsilon.

    Each point stays within epsilon of its original, so the result lies in
    the open alpha-ball of radius epsilon around the base net.
    """
    while True:
        pts = [tuple((p.array() + _ball_offset(rng, base.dim, epsilon)).tolist()) for p in base]
        if len(set(pts)) == len(pts):
            return Net.of(pts, base.capacity)


def estimate_local_lipschitz(spec: NeighborhoodSpec) -> tuple[float, LipschitzSample]:
    """Supremum of displacement/alpha over sampled pairs in one alpha-ball.

    Pairs are drawn sequentially from a single seeded stream, so the result
    for a larger sample_count extends (and dominates) a smaller one.
    """
    base = spec.base_net
    if len(base) >= 2:
        merge_limit = min_pairwise_distance(base) / 2.0
        if spec.epsilon >= merge_limit:
            raise DomainError(
                f"epsilon {spec.epsilon} >= min pairwise distance / 2 = {merge_limit}; "
                "perturbed nets could merge points"
            )
    rng = np.random.default_rng(spec.seed)
    sup_ratio = -1.0
    worst: LipschitzSample | None = None
    for _ in range(spec.sample_count):
        net_a = perturbed_net(rng, base, spec.epsilon)
        net_b = perturbed_net(rng, base, spec.epsilon)
        sample = sample_pair(net_a, net_b)
        if sample.ratio > sup_ratio:
            sup_ratio = sample.ratio
            worst = sample
    assert worst is not None
    return sup_ratio, worst
