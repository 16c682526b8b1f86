"""Euclidean points and nets, their distances and their JSON form.

Points are plain value records. A net is an unordered finite set of
distinct points, held once as a read-only `(n, d)` float array whose rows
are sorted lexicographically, so net equality is canonical; a net of at
most `ROW_TUPLES_MAX` points also keeps its rows as coordinate tuples, which
the scalar solvers read without numpy. Its `Point`s are built only when a
caller asks for them (`Net.points`). Distinctness is exact coordinate
equality on purpose: membership of a net in the "exactly N points" class
must never depend on a tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, DimensionError, DomainError

# Nets of at most this many points sort their rows with `sorted` and keep them
# as tuples (`Net.rows`), on which `chebyshev` solves them by move-to-front;
# on larger nets the tuples would cost more memory than they save time.
ROW_TUPLES_MAX = 16


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


@dataclass(frozen=True, eq=False)
class Net:
    """Unordered set of pairwise-distinct points.

    `array` may be given as an array or as rows (sequences or `Point`s); it
    is stored as a read-only float array with its rows in lexicographic
    order, the order of `sorted` on the coordinate tuples. Two nets are
    equal exactly when they contain the same point set; -0.0 and 0.0 count
    as equal coordinates, as they do in tuple comparison.

    A net of at most `ROW_TUPLES_MAX` points sorts its rows with `sorted`,
    checks them with `math.isfinite` and keeps them in `rows`, as tuples in
    the order of `array`; larger nets sort with `np.lexsort`, which gives
    the same order (both sorts are stable), and their `rows` is None.
    """

    array: np.ndarray
    rows: tuple[tuple[float, ...], ...] | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        rows = self.array
        if not isinstance(rows, np.ndarray):
            rows = [p.coords if isinstance(p, Point) else p for p in rows]
        try:
            arr = np.asarray(rows, dtype=float)
        except ValueError:
            if len({np.shape(row) for row in rows}) > 1:
                raise DimensionError("all points of a net must share one dimension") from None
            raise
        if not len(arr):
            raise DomainError("a net must contain at least one point")
        if arr.ndim != 2:
            raise DimensionError(f"a net needs rows of coordinates, got shape {arr.shape}")
        if not arr.shape[1]:
            raise DimensionError("a point needs at least one coordinate")
        if len(arr) <= ROW_TUPLES_MAX:
            rows = arr.tolist()
            if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
                raise DomainError("non-finite coordinate in net")
            rows = sorted(map(tuple, rows))
            # np.array copies, so the net never shares memory with its input.
            arr = np.array(rows)
            object.__setattr__(self, "rows", tuple(rows))
        else:
            if not np.isfinite(arr).all():
                raise DomainError("non-finite coordinate in net")
            # lexsort's last key is its primary one; the fancy index copies.
            arr = arr[np.lexsort(arr.T[::-1])]
            rows = arr.tolist()
        # Rows compare as tuples do (-0.0 equals 0.0); on the few rows of
        # most nets this costs less than numpy's three calls.
        for a, b in zip(rows, rows[1:]):
            if a == b:
                raise DegenerateInputError(f"duplicate point {tuple(a)} in net")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @classmethod
    def of(cls, coords: Iterable[Sequence[float]]) -> "Net":
        return cls(coords)

    @functools.cached_property
    def points(self) -> tuple[Point, ...]:
        """The rows as `Point`s, built on first use."""
        return tuple(Point(row) for row in self.coord_list())

    @property
    def dim(self) -> int:
        return self.array.shape[1]

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        if not isinstance(other, Net):
            return NotImplemented
        return self.array.shape == other.array.shape and bool((self.array == other.array).all())

    def __hash__(self) -> int:
        # Adding 0.0 turns -0.0 into 0.0, so equal nets hash equal.
        return hash((self.array.shape, (self.array + 0.0).tobytes()))

    def coord_list(self) -> list[tuple[float, ...]]:
        """The rows as coordinate tuples: `math.dist` converts any other sequence to a tuple."""
        if self.rows is not None:
            return list(self.rows)
        return list(map(tuple, self.array.tolist()))

    def row(self, i: int) -> tuple[float, ...]:
        """Row i as a coordinate tuple, without converting the rest of the array."""
        if self.rows is not None:
            return self.rows[i]
        return tuple(self.array[i].tolist())


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points of equal dimension."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return math.dist(a.coords, b.coords)


def diameter(net: Net) -> float:
    """Largest pairwise distance; 0 for a singleton."""
    pts = net.coord_list()
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.dist(pts[i], pts[j])
            if d > best:
                best = d
    return best


def net_to_json(net: Net) -> dict:
    """JSON-ready representation: {"dim": d, "points": [[...], ...]}."""
    return {"dim": net.dim, "points": net.array.tolist()}


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
