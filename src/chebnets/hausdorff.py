"""Hausdorff metric between finite point sets, for any point metric."""

from __future__ import annotations

import math

from .errors import DimensionError, DomainError
from .geometry import Net


def hausdorff_distance(a, b, dist) -> float:
    """Hausdorff distance of two finite sets under the point metric `dist`.

    Worst nearest-neighbour distance over both directions; a plain
    O(|a|*|b|) double loop, since the sets are tiny here and clarity wins.
    """
    if not a or not b:
        raise DomainError("Hausdorff distance needs non-empty sets")
    forward = max(min(dist(x, y) for y in b) for x in a)
    backward = max(min(dist(x, y) for x in a) for y in b)
    return max(forward, backward)


def alpha(m: Net, t: Net) -> float:
    """Hausdorff distance between two Euclidean nets."""
    if m.dim != t.dim:
        raise DimensionError(f"dimension mismatch: {m.dim} vs {t.dim}")
    return hausdorff_distance(m.coord_list(), t.coord_list(), math.dist)
