"""Hausdorff metric between finite point sets, for any point metric."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError
from .geometry import Net


def hausdorff_distance(a, b, dist) -> float:
    """Hausdorff distance of two finite sets under the point metric `dist`.

    Worst nearest-neighbour distance over both directions. Each pair
    distance `dist(x, y)`, x from a and y from b, is computed once: the rows
    of that |a| x |b| matrix give the forward nearest-neighbour distances and
    its columns the backward ones.
    """
    if not a or not b:
        raise DomainError("Hausdorff distance needs non-empty sets")
    dists = [[dist(x, y) for y in b] for x in a]
    return max(max(map(min, dists)), max(map(min, zip(*dists))))


def alpha(m: Net, t: Net) -> float:
    """Hausdorff distance between two Euclidean nets."""
    if m.dim != t.dim:
        raise DimensionError(f"dimension mismatch: {m.dim} vs {t.dim}")
    return hausdorff_distance(m.coord_list(), t.coord_list(), math.dist)


def alpha_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hausdorff distances of K net pairs given as (K, n, d) and (K, m, d) arrays.

    Either side may have K = 1, which pairs that net with every net of the
    other side, and a net may repeat a point, which leaves its distances
    unchanged. This is the broadcast form of `alpha` that the batch
    verifiers screen with; it agrees with `alpha` up to rounding.
    """
    sq = ((a[:, :, None, :] - b[:, None, :, :]) ** 2).sum(axis=-1)
    return np.sqrt(np.maximum(sq.min(axis=2).max(axis=1), sq.min(axis=1).max(axis=1)))
