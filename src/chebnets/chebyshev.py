"""Exact minimum enclosing balls (Chebyshev centers) of finite Euclidean nets.

The main solver is the incremental randomized move-to-front algorithm with
explicit support-set maintenance (Welzl 1991). Each support set costs one
Gram solve: `_circumball` returns the ball together with the barycentric
weights of its center, and those weights certify that the center lies in
the support's convex hull, with no second solve. A support that fails the
check is not repaired: the solve is retried on a reshuffled insertion
order. Nets of two points and nets on the line skip the recursion: their
ball is fixed by the lexicographic extremes (`cheb_1d`). Before the solve
the coordinates are scaled by an exact power of two, so squared lengths
neither overflow nor underflow and the result does not depend on the scale
of the net. The seeded insertion orders are cached per (seed, attempt, size).

`cheb_oracle` re-derives the same ball by brute-force enumeration of
candidate support subsets and exists purely to cross-check the solver.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, DimensionError, OracleBudgetError
from .geometry import Net, Point
from .tolerances import TAU_GEOM, TAU_RANK, geom_tol

# Multiplicative slack for the in-ball test inside the incremental solver.
_BALL_EPS = 1e-12

_ORACLE_MAX_POINTS = 12
_ORACLE_MAX_DIM = 6


@dataclass(frozen=True)
class ChebResult:
    """Minimum enclosing ball: center, radius and a support subset.

    Every input point lies within `radius` of `center` (up to tolerance),
    every support point lies on the bounding sphere, the center is a convex
    combination of the support, and `len(support) <= dim + 1`.
    """

    center: Point
    radius: float
    support: tuple[Point, ...]


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(x * y for x, y in zip(a, b))


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting on a tiny system.

    Raises DegenerateInputError when a pivot falls below the rank tolerance
    relative to the largest matrix entry (affinely dependent input).
    """
    m = len(rhs)
    a = [row[:] + [r] for row, r in zip(matrix, rhs)]
    scale = max((abs(a[i][j]) for i in range(m) for j in range(m)), default=0.0)
    if scale == 0.0:
        raise DegenerateInputError("zero Gram system")
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) <= TAU_RANK * scale:
            raise DegenerateInputError("near-singular circumball system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, m):
            f = a[r][col] * inv
            if f != 0.0:
                for c in range(col, m + 1):
                    a[r][c] -= f * a[col][c]
    out = [0.0] * m
    for r in range(m - 1, -1, -1):
        s = a[r][m] - sum(a[r][c] * out[c] for c in range(r + 1, m))
        out[r] = s / a[r][r]
    return out


def _circumball(
    pts: Sequence[tuple[float, ...]],
) -> tuple[tuple[float, ...], float, tuple[float, ...]]:
    """Smallest sphere through all of `pts` with center in their affine hull.

    Returns (center, radius, weights): `weights` are the barycentric
    coordinates of the center with respect to `pts`, read off the same solve.
    """
    k = len(pts)
    if k == 1:
        return pts[0], 0.0, (1.0,)
    if k == 2:
        a, b = pts
        # Halving first is exact for normal floats and keeps x + y from overflowing.
        c = tuple(x / 2.0 + y / 2.0 for x, y in zip(a, b))
        return c, max(math.dist(c, a), math.dist(c, b)), (0.5, 0.5)
    base = pts[0]
    dirs = [tuple(x - y for x, y in zip(p, base)) for p in pts[1:]]
    m = k - 1
    gram = [[2.0 * _dot(dirs[i], dirs[j]) for j in range(m)] for i in range(m)]
    rhs = [_dot(d, d) for d in dirs]
    lam = _solve(gram, rhs)
    center = list(base)
    for coef, d in zip(lam, dirs):
        for t in range(len(center)):
            center[t] += coef * d[t]
    c = tuple(center)
    return c, max(math.dist(c, p) for p in pts), (1.0 - sum(lam), *lam)


def _mtf(pts, order, boundary, dim):
    """Move-to-front Welzl recursion over point indices.

    Returns (center, radius, support index tuple, barycentric weights of the
    center over the support); `order` is permuted in place so violators
    migrate toward the front.
    """
    if len(boundary) == 1:
        center, radius, weights = pts[boundary[0]], 0.0, (1.0,)
    elif boundary:
        center, radius, weights = _circumball([pts[i] for i in boundary])
    else:
        center, radius, weights = None, -1.0, ()
    support = tuple(boundary)
    if len(boundary) == dim + 1:
        return center, radius, support, weights
    limit = radius * (1.0 + _BALL_EPS)
    for i in range(len(order)):
        idx = order[i]
        if center is None or math.dist(pts[idx], center) > limit:
            center, radius, support, weights = _mtf(pts, order[:i], boundary + [idx], dim)
            limit = radius * (1.0 + _BALL_EPS)
            order.pop(i)
            order.insert(0, idx)
    return center, radius, support, weights


def _affine_weights(pts: Sequence[tuple[float, ...]], target) -> list[float]:
    """Barycentric coordinates of `target` in the affine hull of `pts`."""
    k = len(pts)
    if k == 1:
        return [1.0]
    base = pts[0]
    dirs = [tuple(x - y for x, y in zip(p, base)) for p in pts[1:]]
    m = k - 1
    gram = [[_dot(dirs[i], dirs[j]) for j in range(m)] for i in range(m)]
    rhs = [_dot(d, tuple(x - y for x, y in zip(target, base))) for d in dirs]
    mu = _solve(gram, rhs)
    return [1.0 - sum(mu)] + mu


def _unit_scaled(pts: Sequence[tuple[float, ...]]):
    """`pts` times 2**-e, e the binary exponent of the largest absolute coordinate.

    Returns (scaled points, e). The scaled coordinates are at most 1 in
    absolute value, so Gram entries neither overflow nor underflow; scaling
    by a power of two is exact, so results scale back with math.ldexp.
    """
    exp = math.frexp(max(max(map(abs, p)) for p in pts))[1]
    if exp:
        pts = [tuple(math.ldexp(c, -exp) for c in p) for p in pts]
    return pts, exp


def support_barycentric(result: ChebResult) -> list[float]:
    """Barycentric coordinates of the center with respect to the support."""
    pts, _ = _unit_scaled([result.center.coords] + [p.coords for p in result.support])
    return _affine_weights(pts[1:], pts[0])


def _build_result(net: Net, center, radius, support_idx, weights, exp: int = 0) -> ChebResult:
    """Result of a solve on the net's coordinates times 2**-exp.

    `weights` are the center's barycentric coordinates over the support; a
    center outside the support's hull raises DegenerateInputError.
    """
    if min(weights) < -TAU_GEOM:
        raise DegenerateInputError("support does not certify the center in its hull")
    if exp:
        center = tuple(math.ldexp(c, exp) for c in center)
        radius = math.ldexp(radius, exp)
    support = tuple(net.points[i] for i in sorted(support_idx))
    return ChebResult(Point(center), radius, support)


@functools.lru_cache(maxsize=64)
def _insertion_order(seed: int, attempt: int, n: int) -> tuple[int, ...]:
    """Seeded shuffle of range(n); cached because seeding a Random is slow."""
    order = list(range(n))
    random.Random(f"{seed}:{attempt}").shuffle(order)
    return tuple(order)


def cheb(net: Net, seed: int = 0) -> ChebResult:
    """Minimum enclosing ball of a net.

    A singleton is its own ball. Two-point nets and nets on the line take
    the closed form of `cheb_1d`, which equals the move-to-front result
    bitwise. Every other net goes to the move-to-front solve (`_welzl`).
    Deterministic for a fixed seed.
    """
    n = len(net)
    if n == 1:
        return ChebResult(net.points[0], 0.0, (net.points[0],))
    if n == 2 or net.dim == 1:
        return cheb_1d(net)
    return _welzl(net, seed)


def _welzl(net: Net, seed: int) -> ChebResult:
    """Move-to-front solve of a net of any size and dimension.

    The solve runs on the coordinates scaled by an exact power of two
    (`_unit_scaled`), so that it depends on neither the scale of the net nor
    the floating-point range; the center and radius are scaled back exactly.
    The insertion order is a seeded shuffle of the net's canonical point
    order. A near-singular support solve, or a final support whose weights
    leave its hull (`_build_result`), triggers a reshuffled retry (at most 3)
    before giving up.
    """
    pts, exp = _unit_scaled(net.coord_list())
    last_err = None
    for attempt in range(4):
        order = list(_insertion_order(seed, attempt, len(pts)))
        try:
            center, radius, support_idx, weights = _mtf(pts, order, [], net.dim)
            return _build_result(net, center, radius, support_idx, weights, exp)
        except DegenerateInputError as err:
            last_err = err
    raise DegenerateInputError(f"minimum enclosing ball solve failed: {last_err}")


def cheb_1d(net: Net) -> ChebResult:
    """Closed-form Chebyshev center when the lexicographic extremes are the support.

    That holds on the line and for any net of two points: the center is the
    midpoint of the first and last point and the radius is half their
    distance. `cheb` takes this branch for those nets.
    """
    if net.dim != 1 and len(net) != 2:
        raise DimensionError(f"cheb_1d requires dim 1 or two points, got dim {net.dim}")
    pts = net.points
    lo, hi = pts[0], pts[-1]
    if lo.coords == hi.coords:
        return ChebResult(lo, 0.0, (lo,))
    center, radius, _ = _circumball([lo.coords, hi.coords])
    return ChebResult(Point(center), radius, (lo, hi))


@functools.lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """All k-subsets of range(n) in lexicographic order, shape (C(n, k), k)."""
    idx = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    idx.setflags(write=False)  # cached and shared by every call
    return idx


def cheb_oracle(net: Net) -> ChebResult:
    """Brute-force minimum enclosing ball by support-subset enumeration.

    Tries every subset of 2..dim+1 points, builds the smallest sphere having
    the subset on its boundary with center in the subset's affine hull, and
    returns the smallest such ball that covers the whole net and whose center
    lies in the subset's convex hull (barycentric weights at least
    -TAU_GEOM; by Caratheodory the minimum enclosing ball has such a
    subset). Ties keep the first candidate in (size, lexicographic) order.
    Independent of `cheb`.
    The subsets of one size are solved as a single batch of Gram systems;
    affinely dependent subsets (eigenvalue ratio at most TAU_RANK) are
    skipped.
    """
    n = len(net)
    if n > _ORACLE_MAX_POINTS or net.dim > _ORACLE_MAX_DIM:
        raise OracleBudgetError(
            f"oracle guard: |M|={n} dim={net.dim} exceeds {_ORACLE_MAX_POINTS}/{_ORACLE_MAX_DIM}"
        )
    if n == 1:
        return ChebResult(net.points[0], 0.0, (net.points[0],))
    pts = np.array(net.coord_list())
    scale = np.abs(pts).max()
    best = None
    for k in range(2, min(n, net.dim + 1) + 1):
        idx = _subsets(n, k)
        base = pts[idx[:, 0]]
        dirs = pts[idx[:, 1:]] - base[:, None, :]
        gram = 2.0 * dirs @ dirs.transpose(0, 2, 1)
        rhs = (dirs * dirs).sum(axis=2)
        ev = np.linalg.eigvalsh(gram)  # ascending; a Gram matrix is symmetric PSD
        ok = ev[:, 0] > TAU_RANK * ev[:, -1]
        if not ok.any():
            continue
        idx, base, dirs = idx[ok], base[ok], dirs[ok]
        lam = np.linalg.solve(gram[ok], rhs[ok][..., None])
        weights = np.concatenate([1.0 - lam.sum(axis=1), lam[..., 0]], axis=1)
        centers = base + (lam * dirs).sum(axis=1)
        radii = np.linalg.norm(pts[idx] - centers[:, None, :], axis=2).max(axis=1)
        reach = np.linalg.norm(pts[None, :, :] - centers[:, None, :], axis=2).max(axis=1)
        covers = (weights.min(axis=1) >= -TAU_GEOM) & (reach <= radii + geom_tol(scale + radii))
        if not covers.any():
            continue
        i = int(np.argmin(np.where(covers, radii, np.inf)))
        if best is None or radii[i] < best[0]:
            best = (
                float(radii[i]),
                tuple(centers[i].tolist()),
                tuple(idx[i].tolist()),
                weights[i].tolist(),
            )
    if best is None:
        raise DegenerateInputError("oracle found no covering candidate ball")
    radius, center, support_idx, weights = best
    return _build_result(net, center, radius, support_idx, weights)
