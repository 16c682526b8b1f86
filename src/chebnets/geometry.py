"""Euclidean points, nets, rays and hyperplanes plus the elementary operations.

Points are plain value records; a net is an unordered finite set of distinct
points, stored lexicographically sorted so net equality is canonical.
Distinctness is exact coordinate equality on purpose: membership of a net in
the "exactly N points" class must never depend on a tolerance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, DimensionError, DomainError
from .tolerances import TAU_RANK


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
    """Unordered set of at most `capacity` pairwise-distinct points.

    Points are sorted lexicographically on construction, so two nets are
    equal exactly when they contain the same point set.
    """

    points: tuple[Point, ...]
    capacity: int = field(default=0)

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
        capacity = self.capacity if self.capacity else len(pts)
        if len(pts) > capacity:
            raise DomainError(f"net has {len(pts)} points, capacity {capacity}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "capacity", capacity)

    @classmethod
    def of(cls, coords: Iterable[Sequence[float]], capacity: int = 0) -> "Net":
        return cls(tuple(Point(tuple(c)) for c in coords), capacity)

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def coord_list(self) -> list[tuple[float, ...]]:
        return [p.coords for p in self.points]


@dataclass(frozen=True)
class Ray:
    """Ray from `vertex` through the distinct point `through`."""

    vertex: Point
    through: Point

    def __post_init__(self):
        if self.vertex.dim != self.through.dim:
            raise DimensionError("ray endpoints have mismatched dimensions")
        if self.vertex.coords == self.through.coords:
            raise DegenerateInputError("ray vertex and through point coincide")


@dataclass(frozen=True)
class Hyperplane:
    """Affine m-plane spanned by m+1 affinely independent points."""

    spanning_points: tuple[Point, ...]

    def __post_init__(self):
        pts = tuple(_as_point(p) for p in self.spanning_points)
        if not pts:
            raise DomainError("a hyperplane needs at least one spanning point")
        dim = pts[0].dim
        if any(p.dim != dim for p in pts):
            raise DimensionError("spanning points have mismatched dimensions")
        if len(pts) > 1:
            base = pts[0].array()
            dirs = np.stack([p.array() - base for p in pts[1:]])
            sv = np.linalg.svd(dirs, compute_uv=False)
            if sv[-1] <= TAU_RANK * max(1.0, sv[0]):
                raise DegenerateInputError("spanning points are affinely dependent")
        object.__setattr__(self, "spanning_points", pts)

    @property
    def dim(self) -> int:
        return self.spanning_points[0].dim


def _check_dims(a: Point, b: Point) -> None:
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points of equal dimension."""
    _check_dims(a, b)
    return math.dist(a.coords, b.coords)


def midpoint(a: Point, b: Point) -> Point:
    """Componentwise mean; the unique Euclidean midpoint."""
    _check_dims(a, b)
    return Point(tuple((x + y) / 2.0 for x, y in zip(a.coords, b.coords)))


def point_to_net_distance(x: Point, net: Net) -> float:
    """Distance from a point to the nearest member of a net."""
    if x.dim != net.dim:
        raise DimensionError(f"dimension mismatch: {x.dim} vs {net.dim}")
    return min(math.dist(x.coords, p.coords) for p in net.points)


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


def ray_point(ray: Ray, t: float) -> Point:
    """Point at arc length t >= 0 from the vertex along the ray."""
    if t < 0:
        raise DomainError(f"ray parameter must be nonnegative, got {t}")
    if t == 0:
        return ray.vertex
    v = ray.vertex.coords
    w = ray.through.coords
    norm = math.dist(v, w)
    return Point(tuple(vi + t * (wi - vi) / norm for vi, wi in zip(v, w)))


def project_to_hyperplane(x: Point, plane: Hyperplane) -> Point:
    """Orthogonal projection of x onto the affine span of the plane."""
    if x.dim != plane.dim:
        raise DimensionError(f"dimension mismatch: {x.dim} vs {plane.dim}")
    pts = plane.spanning_points
    base = pts[0].array()
    if len(pts) == 1:
        return pts[0]
    dirs = np.stack([p.array() - base for p in pts[1:]])
    coef, *_ = np.linalg.lstsq(dirs.T, x.array() - base, rcond=None)
    return Point(tuple(base + dirs.T @ coef))


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
