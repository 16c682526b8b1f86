"""Euclidean points and nets, their distances and their JSON form.

Points are plain value records; a net is an unordered finite set of distinct
points, stored lexicographically sorted so net equality is canonical.
Distinctness is exact coordinate equality on purpose: membership of a net in
the "exactly N points" class must never depend on a tolerance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, DimensionError, DomainError


@dataclass(frozen=True)
class Point:
    """Immutable point of d-dimensional Euclidean space."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(map(float, self.coords))
        if not coords:
            raise DimensionError("a point needs at least one coordinate")
        if not all(map(math.isfinite, coords)):
            raise DomainError(f"non-finite coordinate in {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


def _as_point(p) -> Point:
    return p if isinstance(p, Point) else Point(tuple(p))


_COORDS = operator.attrgetter("coords")


@dataclass(frozen=True)
class Net:
    """Unordered set of pairwise-distinct points.

    Points are sorted lexicographically on construction, so two nets are
    equal exactly when they contain the same point set.
    """

    points: tuple[Point, ...]

    def __post_init__(self):
        pts = tuple(sorted(map(_as_point, self.points), key=_COORDS))
        if not pts:
            raise DomainError("a net must contain at least one point")
        dim = pts[0].dim
        if any(p.dim != dim for p in pts):
            raise DimensionError("all points of a net must share one dimension")
        for a, b in zip(pts, pts[1:]):
            if a.coords == b.coords:
                raise DegenerateInputError(f"duplicate point {a.coords} in net")
        object.__setattr__(self, "points", pts)

    @classmethod
    def of(cls, coords: Iterable[Sequence[float]]) -> "Net":
        return cls(tuple(Point(tuple(c)) for c in coords))

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def coord_list(self) -> list[tuple[float, ...]]:
        return [p.coords for p in self.points]


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points of equal dimension."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return math.dist(a.coords, b.coords)


def diameter(net: Net) -> float:
    """Largest pairwise distance; 0 for a singleton."""
    pts = net.points
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.dist(pts[i].coords, pts[j].coords)
            if d > best:
                best = d
    return best


def net_to_json(net: Net) -> dict:
    """JSON-ready representation: {"dim": d, "points": [[...], ...]}."""
    return {"dim": net.dim, "points": [list(p.coords) for p in net.points]}


def net_from_json(obj: dict) -> Net:
    """Parse a net, rejecting ragged rows and duplicate points."""
    if not isinstance(obj, dict):
        raise DomainError("net document must be a JSON object")
    if "dim" not in obj:
        raise DomainError("net document is missing field 'dim'")
    if "points" not in obj:
        raise DomainError("net document is missing field 'points'")
    dim = obj["dim"]
    rows = obj["points"]
    if not isinstance(dim, int) or dim < 1:
        raise DomainError(f"field 'dim' must be a positive integer, got {dim!r}")
    if not isinstance(rows, list) or not rows:
        raise DomainError("field 'points' must be a non-empty list of rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise DomainError(f"field 'points[{i}]' is ragged: expected {dim} coordinates")
        if not all(isinstance(c, (int, float)) and math.isfinite(c) for c in row):
            raise DomainError(f"field 'points[{i}]' contains a non-finite coordinate")
    seen = set()
    for i, row in enumerate(rows):
        key = tuple(float(c) for c in row)
        if key in seen:
            raise DomainError(f"field 'points[{i}]' duplicates an earlier point")
        seen.add(key)
    return Net.of(rows)
