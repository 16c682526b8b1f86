"""Lobachevsky-plane kernel in the hyperboloid model (curvature -1).

Points live on the upper sheet of x0^2 - x1^2 - x2^2 = 1 with the Minkowski
pairing <a,b> = a0*b0 - a1*b1 - a2*b2, so distances and geodesic midpoints
are closed-form and stable (no boundary blow-up as in the disk model).
Tangent vectors at p satisfy <p,v> = 0 and carry the positive norm
|v| = sqrt(-<v,v>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .chebyshev import _ORACLE_MAX_POINTS, _enumerated_balls
from .errors import DegenerateInputError, DomainError, ModelError, OracleBudgetError
from .hausdorff import hausdorff_distance
from .tolerances import TAU_ANGLE, TAU_GEOM, geom_tol

Vec3 = tuple[float, float, float]

_NEWTON_MAX_ITER = 50
_NEWTON_RESIDUAL = 1e-12


def minkowski_inner(a: Sequence[float], b: Sequence[float]) -> float:
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2]


@dataclass(frozen=True)
class HyperbolicPoint:
    """Point on the upper hyperboloid sheet."""

    coords: Vec3

    def __post_init__(self):
        c = tuple(float(x) for x in self.coords)
        if len(c) != 3:
            raise ModelError(f"hyperboloid coordinates must have length 3, got {len(c)}")
        if not all(math.isfinite(x) for x in c):
            raise ModelError(f"non-finite coordinate in {c}")
        if c[0] <= 0:
            raise ModelError(f"point is not on the upper sheet: x0 = {c[0]}")
        q = minkowski_inner(c, c)
        if abs(q - 1.0) > TAU_GEOM * max(1.0, c[0] * c[0]):
            raise ModelError(f"Minkowski norm {q} deviates from 1 beyond tolerance")
        object.__setattr__(self, "coords", c)

    @classmethod
    def on_sheet(cls, coords: Sequence[float]) -> "HyperbolicPoint":
        """Rescale raw coordinates onto the unit sheet (sign-corrected)."""
        q = minkowski_inner(coords, coords)
        if q <= 0:
            raise ModelError(f"coordinates {tuple(coords)} are not timelike")
        s = 1.0 / math.sqrt(q)
        if coords[0] < 0:
            s = -s
        return cls((coords[0] * s, coords[1] * s, coords[2] * s))

    @classmethod
    def from_xy(cls, x1: float, x2: float) -> "HyperbolicPoint":
        """Lift planar coordinates onto the sheet."""
        return cls((math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2))


ORIGIN = HyperbolicPoint((1.0, 0.0, 0.0))


def h_distance(a: HyperbolicPoint, b: HyperbolicPoint) -> float:
    """Geodesic distance arccosh(<a,b>).

    Short distances are computed as 2*asinh(|a-b|_M / 2): arccosh loses
    half the significant digits near 1, the chord form does not.
    """
    inner = minkowski_inner(a.coords, b.coords)
    if inner >= 1.5:
        return math.acosh(inner)
    w = tuple(x - y for x, y in zip(a.coords, b.coords))
    chord_sq = max(-minkowski_inner(w, w), 0.0)
    return 2.0 * math.asinh(math.sqrt(chord_sq) / 2.0)


def h_midpoint(a: HyperbolicPoint, b: HyperbolicPoint) -> HyperbolicPoint:
    """Geodesic midpoint: the normalized Minkowski mean."""
    if a.coords == b.coords:
        return a
    s = tuple(x + y for x, y in zip(a.coords, b.coords))
    return HyperbolicPoint.on_sheet(s)


def _scaled(v: Sequence[float], s: float) -> Vec3:
    return (v[0] * s, v[1] * s, v[2] * s)


def _add(a: Sequence[float], b: Sequence[float]) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def h_log(p: HyperbolicPoint, q: HyperbolicPoint) -> Vec3:
    """Tangent vector at p pointing to q with length d(p, q)."""
    theta = h_distance(p, q)
    if theta == 0.0:
        return (0.0, 0.0, 0.0)
    ip = minkowski_inner(p.coords, q.coords)
    w = tuple(x - ip * y for x, y in zip(q.coords, p.coords))
    norm = math.sqrt(max(-minkowski_inner(w, w), 0.0))
    if norm == 0.0:
        return (0.0, 0.0, 0.0)
    return _scaled(w, theta / norm)


def h_exp(p: HyperbolicPoint, v: Sequence[float]) -> HyperbolicPoint:
    """Exponential map at p applied to the tangent vector v."""
    t = math.sqrt(max(-minkowski_inner(v, v), 0.0))
    if t == 0.0:
        return p
    c = _add(_scaled(p.coords, math.cosh(t)), _scaled(v, math.sinh(t) / t))
    return HyperbolicPoint.on_sheet(c)


def tangent_basis(p: HyperbolicPoint) -> tuple[Vec3, Vec3]:
    """Orthonormal tangent basis at p (Gram-Schmidt under -<.,.>)."""
    basis = []
    for e in ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        v = tuple(x - minkowski_inner(e, p.coords) * y for x, y in zip(e, p.coords))
        for b in basis:
            v = tuple(x + minkowski_inner(v, b) * y for x, y in zip(v, b))
        n2 = -minkowski_inner(v, v)
        if n2 <= 0:
            raise ModelError("failed to build a tangent basis")
        basis.append(_scaled(v, 1.0 / math.sqrt(n2)))
    return basis[0], basis[1]


def h_angle(at: HyperbolicPoint, b: HyperbolicPoint, c: HyperbolicPoint) -> float:
    """Angle at `at` between the geodesics toward b and c.

    Computed with atan2 on tangent-plane components: the acos form cannot
    resolve angles below ~1e-8.
    """
    u = h_log(at, b)
    v = h_log(at, c)
    if all(x == 0.0 for x in u) or all(x == 0.0 for x in v):
        raise DegenerateInputError("angle at coincident points is undefined")
    e1, e2 = tangent_basis(at)
    u2 = (-minkowski_inner(u, e1), -minkowski_inner(u, e2))
    v2 = (-minkowski_inner(v, e1), -minkowski_inner(v, e2))
    cross = u2[0] * v2[1] - u2[1] * v2[0]
    dot = u2[0] * v2[0] + u2[1] * v2[1]
    return math.atan2(abs(cross), dot)


def _unit_tangent(p: HyperbolicPoint, q: HyperbolicPoint) -> Vec3:
    """Unit tangent vector at p pointing to q."""
    v = h_log(p, q)
    n = math.sqrt(max(-minkowski_inner(v, v), 0.0))
    if n == 0.0:
        raise DegenerateInputError("no direction between coincident points")
    return _scaled(v, 1.0 / n)


def h_project_to_geodesic(
    v: HyperbolicPoint, x: HyperbolicPoint, w: HyperbolicPoint
) -> HyperbolicPoint:
    """Foot of the perpendicular from v onto the geodesic through x and w."""
    dhat = _unit_tangent(x, w)
    t = math.atanh(-minkowski_inner(dhat, v.coords) / minkowski_inner(x.coords, v.coords))
    return h_exp(x, _scaled(dhat, t))


@dataclass(frozen=True)
class HyperbolicTriangle:
    """Triangle with cached side lengths and angles.

    side_lengths[i] is the side opposite vertices[i]; angles[i] is the angle
    at vertices[i]. Construction rejects coincident or collinear vertices.
    """

    vertices: tuple[HyperbolicPoint, HyperbolicPoint, HyperbolicPoint]
    side_lengths: tuple[float, float, float] = field(init=False)
    angles: tuple[float, float, float] = field(init=False)

    def __post_init__(self):
        a, b, c = self.vertices
        if a.coords == b.coords or a.coords == c.coords or b.coords == c.coords:
            raise DegenerateInputError("triangle vertices must be pairwise distinct")
        sides = (h_distance(b, c), h_distance(a, c), h_distance(a, b))
        angles = (h_angle(a, b, c), h_angle(b, a, c), h_angle(c, a, b))
        # Left to right: the built-in `sum` of floats is compensated from 3.12 on.
        if angles[0] + angles[1] + angles[2] >= math.pi:
            raise DegenerateInputError("angle sum >= pi: vertices are collinear")
        for i in range(3):
            if sides[i] >= sides[(i + 1) % 3] + sides[(i + 2) % 3]:
                raise DegenerateInputError("triangle inequality violated")
        object.__setattr__(self, "side_lengths", sides)
        object.__setattr__(self, "angles", angles)


def right_triangle(leg_a: float, leg_b: float) -> HyperbolicTriangle:
    """Right triangle with the right angle at vertex 0 = (1, 0, 0)."""
    if leg_a <= 0 or leg_b <= 0:
        raise DomainError("legs must be positive")
    a = HyperbolicPoint((math.cosh(leg_a), math.sinh(leg_a), 0.0))
    b = HyperbolicPoint((math.cosh(leg_b), 0.0, math.sinh(leg_b)))
    return HyperbolicTriangle((ORIGIN, a, b))


def right_triangle_identity_check(
    tri: HyperbolicTriangle, right_vertex: int = 0
) -> tuple[float, float]:
    """Residuals of tanh(opposite leg) = sinh(adjacent leg) * tan(angle).

    The identity pair holds for any right triangle; this is a kernel
    self-test and raises if the designated vertex is not right-angled.
    """
    if right_vertex not in (0, 1, 2):
        raise DomainError(f"right_vertex must be 0, 1 or 2, got {right_vertex}")
    if abs(tri.angles[right_vertex] - math.pi / 2) > TAU_ANGLE:
        raise DomainError(
            f"angle at vertex {right_vertex} is {tri.angles[right_vertex]}, not right"
        )
    others = [i for i in range(3) if i != right_vertex]
    i, j = others
    c = tri.vertices[right_vertex]
    leg_i = h_distance(c, tri.vertices[i])  # adjacent to vertex i
    leg_j = h_distance(c, tri.vertices[j])
    res_i = abs(math.tanh(leg_j) - math.sinh(leg_i) * math.tan(tri.angles[i]))
    res_j = abs(math.tanh(leg_i) - math.sinh(leg_j) * math.tan(tri.angles[j]))
    return res_i, res_j


def _max_distance(center: HyperbolicPoint, pts: Sequence[HyperbolicPoint]) -> float:
    return max(h_distance(center, p) for p in pts)


def _onto_sheet(x: np.ndarray) -> np.ndarray:
    """`HyperbolicPoint.on_sheet` on each row of a (..., 3) array; NaN where not timelike."""
    q = x[..., 0] * x[..., 0] - x[..., 1] * x[..., 1] - x[..., 2] * x[..., 2]
    s = 1.0 / np.sqrt(np.where(q > 0.0, q, np.nan))
    return x * np.copysign(s, x[..., 0])[..., None]


# The hyperboloid for `_enumerated_balls`. Its chords are spacelike, so the form
# (-1, 1, 1) gives them a positive definite Gram matrix, and a chord of squared
# length s spans the distance 2 asinh(sqrt(s) / 2), as in `h_distance`.
_HYPERBOLOID = (
    np.array([-1.0, 1.0, 1.0]),
    _onto_sheet,
    lambda s: 2.0 * np.arcsinh(np.sqrt(np.maximum(s, 0.0)) / 2.0),
    lambda scale, r: geom_tol(r),
)


def minimax_center_search(pts: Sequence[HyperbolicPoint]) -> tuple[HyperbolicPoint, float]:
    """Exact minimax center and radius of finite hyperbolic points, by enumeration.

    In H^2 the minimum enclosing ball is fixed by at most three of the points
    and its center is equidistant from them: x = p_0 + sum_i mu_i d_i on the
    chords d_i = p_i - p_0, normalised, with sum_i mu_i <d_i, d_j> =
    <d_j, d_j> / 2, because <p_0, d_j> = -<d_j, d_j> / 2 on the sheet. That is
    the Gram system of the Euclidean enumeration in the Minkowski form, and on
    the chords it keeps its digits at any spread; so the points go to
    `_enumerated_balls` as one net of the hyperboloid. Duplicates are dropped
    first; a single point is its own center with radius 0. The search does
    not use h_cheb3 or its Newton solve: it is the independent oracle for
    h_cheb3 and also its fallback. Like `cheb_oracle` it raises
    OracleBudgetError on more than `_ORACLE_MAX_POINTS` distinct points: the
    enumeration's memory grows like n^4 (about 2 GB for 200 points).
    """
    unique = list({p.coords: p for p in pts}.values())
    if not unique:
        raise DomainError("the minimax center of an empty set is undefined")
    if len(unique) > _ORACLE_MAX_POINTS:
        raise OracleBudgetError(f"oracle guard: {len(unique)} points exceed {_ORACLE_MAX_POINTS}")
    if len(unique) == 1:
        return unique[0], 0.0
    centers, radii, _, _ = _enumerated_balls(np.array([[p.coords for p in unique]]), _HYPERBOLOID)
    if not np.isfinite(radii[0]):
        raise DegenerateInputError("no candidate ball covers the points")
    center = HyperbolicPoint.on_sheet(tuple(centers[0].tolist()))
    return center, _max_distance(center, unique)


def _newton_circumcenter(pts: Sequence[HyperbolicPoint]) -> HyperbolicPoint | None:
    """Newton iteration on the two equidistance residuals in tangent coords.

    None means Newton failed (singular Jacobian, divergence, or an iterate
    the model cannot represent); the caller then falls back to enumeration.
    """
    mean = (0.0, 0.0, 0.0)
    for p in pts:
        mean = _add(mean, p.coords)
    base = HyperbolicPoint.on_sheet(mean)
    e1, e2 = tangent_basis(base)
    s = [0.0, 0.0]

    def residual(sv):
        c = h_exp(base, _add(_scaled(e1, sv[0]), _scaled(e2, sv[1])))
        d0 = h_distance(c, pts[0])
        return (d0 - h_distance(c, pts[1]), d0 - h_distance(c, pts[2]))

    h = 1e-7
    for _ in range(_NEWTON_MAX_ITER):
        try:
            f = residual(s)
            if max(abs(f[0]), abs(f[1])) < _NEWTON_RESIDUAL:
                return h_exp(base, _add(_scaled(e1, s[0]), _scaled(e2, s[1])))
            jac = []
            for j in range(2):
                up = s[:]
                dn = s[:]
                up[j] += h
                dn[j] -= h
                fu, fd = residual(up), residual(dn)
                jac.append(((fu[0] - fd[0]) / (2 * h), (fu[1] - fd[1]) / (2 * h)))
        except ModelError:
            # h_exp left the sheet (not timelike): the iterate ran off, Newton diverged.
            return None
        det = jac[0][0] * jac[1][1] - jac[1][0] * jac[0][1]
        if abs(det) < 1e-18:
            return None
        ds0 = (f[0] * jac[1][1] - f[1] * jac[1][0]) / det
        ds1 = (f[1] * jac[0][0] - f[0] * jac[0][1]) / det
        s[0] -= ds0
        s[1] -= ds1
        if not (math.isfinite(s[0]) and math.isfinite(s[1])):
            return None
    return None


def h_cheb3(
    a: HyperbolicPoint, b: HyperbolicPoint, c: HyperbolicPoint
) -> tuple[HyperbolicPoint, float]:
    """Chebyshev center (minimum enclosing ball) of three hyperbolic points.

    If the midpoint ball of the longest side already covers the third point
    the center is that midpoint, exactly as in the Euclidean two-support
    case; collinear triples land here automatically. Otherwise the center is
    the equidistant point, found by Newton iteration; if Newton returns None
    the exact enumeration `minimax_center_search` gives the center. Note the
    branch test is ball containment, not an angle threshold: a point can see
    the longest side under an acute angle and still lie inside its midpoint
    ball (there is no Thales circle at curvature -1), and such triples have
    a two-point support.
    """
    pts = (a, b, c)
    if a.coords == b.coords or a.coords == c.coords or b.coords == c.coords:
        raise DegenerateInputError("h_cheb3 requires three distinct points")
    pairs = [(h_distance(pts[i], pts[j]), i, j) for i, j in ((0, 1), (0, 2), (1, 2))]
    longest, i, j = max(pairs)
    k = 3 - i - j
    mid = h_midpoint(pts[i], pts[j])
    half = longest / 2.0
    if h_distance(mid, pts[k]) <= half + geom_tol(half):
        return mid, _max_distance(mid, pts)
    center = _newton_circumcenter(pts)
    if center is None:
        center, _ = minimax_center_search(pts)
    return center, _max_distance(center, pts)


def h_alpha(
    m: Iterable[HyperbolicPoint], t: Iterable[HyperbolicPoint]
) -> float:
    """Hausdorff distance between finite sets of hyperbolic points."""
    return hausdorff_distance(list(m), list(t), h_distance)


def hyperbolic_point_to_json(p: HyperbolicPoint) -> dict:
    return {"model": "hyperboloid", "coords": list(p.coords)}
