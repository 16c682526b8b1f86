"""Exact minimum enclosing balls (Chebyshev centers) of finite Euclidean nets.

The main solver reads the net's sorted rows. A net of at most
`_MTF_MAX_POINTS` points, which covers every net the verifiers solve, goes
to the incremental randomized move-to-front algorithm with explicit
support-set maintenance (Welzl 1991), on the row tuples that such a net
keeps (`Net.rows`), with no numpy call; three points, most of the nets the
verifiers re-measure, take an unrolled form of that recursion (`_mtf3`)
that makes the same calls in the same order. A larger net
starts from a one-point ball that grows by farthest-point pivots
(Gaertner, "Fast and robust smallest enclosing balls", ESA 1999): one
numpy pass over the net (`_sq_dists`) finds the point farthest from the
center, and move-to-front solves again only on the support plus that point,
so only those rows become tuples. Each support set costs one Gram solve:
`_circumball` returns the ball together with the barycentric weights of its
center, and those weights certify that the center lies in the support's
convex hull, with no second solve. Supports of three and four points, most
of the solves, run straight-line code; larger ones build the Gram matrix in
loops and call `_solve`. Both keep a fixed operation order: each dot
product and sum starts at 0.0 and adds left to right, and the pivot is the
first row of largest `abs`. A rewrite must keep those operations in that
order, so that every result stays the same bits; `tests/meb_helpers.py`
holds the generator form they replaced as the reference. The solve is one
pass: a point that would make a support affinely dependent is left off it
(`_mtf`). Nets of two points and nets on the line skip the recursion: their
ball is fixed by the lexicographic extremes in closed form. Before the
solve the coordinates are scaled by an exact power of two taken from the
net's chord width (`_scale_exponent`), so squared chords neither overflow
nor underflow, however narrow the net is next to its distance from the
origin, and the result does not depend on the scale of the net; a
non-finite ball raises rather than being returned (`_certified`). The
insertion order is one cached shuffle per net
size, and the pivots start from the net's first row, so the result is a
function of the net alone.
`cheb_ball` returns the center's coordinates, the radius and the support's
row indices; `cheb` builds `Point`s for them.

The second engine enumerates candidate support subsets
(`_enumerated_balls`), solving the subsets of one size for a whole batch of
nets at once and sharing no code with the move-to-front solver. It serves
three callers in two geometries: `cheb_oracle` runs it on a batch of one to
cross-check that solver, `cheb_batch` on the verifiers' trials, many nets
of 3 to 6 points, and `hyperbolic.minimax_center_search` on one net of the
hyperboloid, as the exact oracle of `h_cheb3`. Subsets of two and three
points, the 1x1 and 2x2 Gram systems, are tested for rank and solved in
closed form (`_gram_solve`); larger ones go to `np.linalg`. The verifiers
only screen their trials with `cheb_batch`: the figures they report come
from the scalar solver (`cheb_ball`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, OracleBudgetError
from .geometry import ROW_TUPLES_MAX, Net, Point
from .tolerances import TAU_BALL, TAU_GEOM, TAU_RANK, geom_tol

_ORACLE_MAX_POINTS = 12
_ORACLE_MAX_DIM = 6
# `_welzl` solves a net of at most this many points by move-to-front over
# the whole insertion order, on the row tuples that such a net keeps, and a
# larger net by farthest-point pivots.
_MTF_MAX_POINTS = ROW_TUPLES_MAX
# The solve scales a net by the power of two of its chord width, but never
# up by more than 2**_MAX_UPSCALE_BITS relative to its largest coordinate.
_MAX_UPSCALE_BITS = 1000
# Most support subsets, C(n, k) summed over k = 2 .. min(n, d + 1), that
# `cheb_batch` enumerates per net. Per pair of uniform nets, the batch screen
# beat the scalar re-measure 6.6x at 4 subsets (3x2), 2.5x at 50 (6x3), 1.4x
# at 84 (8x2) and 1.1-1.3x at 165 (10x2); it lost at 210 (8x4, 0.9-1.0x),
# 220 (11x2, 0.9x) and 286 (12x2, 0.7x). Suite nets need at most 50.
_BATCH_MAX_SUBSETS = 165


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


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting on a tiny system.

    Raises DegenerateInputError when a pivot falls below the rank tolerance
    relative to the largest matrix entry (affinely dependent input).

    Plain loops that do the operations of the generator form kept in
    `tests/meb_helpers.py`, in its order, so the two agree bitwise on every
    interpreter: the pivot is the first row with the strictly largest
    `abs`, and every sum starts at 0.0 and adds left to right (the built-in
    `sum` of floats is compensated from Python 3.12 on). `_circumball`
    solves the 2x2 and 3x3 systems of three- and four-point supports itself,
    so this runs on supports of five points and more.
    """
    m = len(rhs)
    a = [row + [r] for row, r in zip(matrix, rhs)]
    scale = max(map(abs, itertools.chain.from_iterable(matrix)), default=0.0)
    for col in range(m):
        piv, big = col, abs(a[col][col])
        for r in range(col + 1, m):
            v = abs(a[r][col])
            if v > big:
                piv, big = r, v
        if big <= TAU_RANK * scale:
            raise DegenerateInputError("near-singular circumball system")
        a[col], a[piv] = a[piv], a[col]
        top = a[col]
        inv = 1.0 / top[col]
        for r in range(col + 1, m):
            row = a[r]
            f = row[col] * inv
            if f != 0.0:
                for c in range(col, m + 1):
                    row[c] -= f * top[c]
    out = [0.0] * m
    for r in range(m - 1, -1, -1):
        row = a[r]
        acc = 0.0
        for c in range(r + 1, m):
            acc += row[c] * out[c]
        out[r] = (row[m] - acc) / row[r]
    return out


def _circumball(
    pts: Sequence[tuple[float, ...]],
) -> tuple[tuple[float, ...], float, tuple[float, ...]]:
    """Smallest sphere through all of `pts` with center in their affine hull.

    Returns (center, radius, weights): `weights` are the barycentric
    coordinates of the center with respect to `pts`, read off the same solve.

    The center solves the Gram system `2 G lam = (|d_i|^2)` of the
    directions `d_i = p_i - p_0`. Every dot product and sum is a plain loop
    from 0.0, left to right, and G is built on its upper triangle and
    mirrored (`x * y == y * x` bitwise), so the result does not depend on
    the interpreter's `sum`; `tests/meb_helpers.py` keeps the generator
    form as the bitwise reference.

    Supports of three and four points, 45% of the calls in a `meb` round
    and 78% of this function's time there in the loop form, take
    straight-line branches that do the loops' and `_solve`'s operations in
    their order on named scalars: one pass over the coordinates forms the
    chords and every Gram entry, the elimination keeps the first strictly
    largest pivot, the `f != 0.0` guard and each near-singular raise, and
    the center is `((p_0 + l_0 d_0) + l_1 d_1) + l_2 d_2`, each chord
    coordinate recomputed by the same subtraction. The largest entry that
    scales the rank test is taken over the upper triangle of the symmetric
    matrix, from its first entry, which gives the full matrix's maximum.
    """
    k = len(pts)
    if k == 1:
        return pts[0], 0.0, (1.0,)
    if k == 2:
        a, b = pts
        # Halving first is exact for normal floats and keeps x + y from overflowing.
        c = tuple([x / 2.0 + y / 2.0 for x, y in zip(a, b)])
        return c, max(math.dist(c, a), math.dist(c, b)), (0.5, 0.5)
    if k == 3:
        p0, p1, p2 = pts
        xx = xy = yy = 0.0
        for o, a, b in zip(p0, p1, p2):
            u, v = a - o, b - o
            xx += u * u
            xy += u * v
            yy += v * v
        a00, a01, r0 = 2.0 * xx, 2.0 * xy, xx
        a10, a11, r1 = a01, 2.0 * yy, yy
        tol = TAU_RANK * max(abs(a00), abs(a01), abs(a11))
        if abs(a10) > abs(a00):
            a00, a01, r0, a10, a11, r1 = a10, a11, r1, a00, a01, r0
        if abs(a00) <= tol:
            raise DegenerateInputError("near-singular circumball system")
        f = a10 * (1.0 / a00)
        if f != 0.0:
            a11 -= f * a01
            r1 -= f * r0
        if abs(a11) <= tol:
            raise DegenerateInputError("near-singular circumball system")
        l1 = r1 / a11
        l0 = (r0 - (0.0 + a01 * l1)) / a00
        c = tuple([(o + l0 * (a - o)) + l1 * (b - o) for o, a, b in zip(p0, p1, p2)])
        radius = max(math.dist(c, p0), math.dist(c, p1), math.dist(c, p2))
        return c, radius, (1.0 - ((0.0 + l0) + l1), l0, l1)
    if k == 4:
        p0, p1, p2, p3 = pts
        xx = xy = xz = yy = yz = zz = 0.0
        for o, a, b, e in zip(p0, p1, p2, p3):
            u, v, w = a - o, b - o, e - o
            xx += u * u
            xy += u * v
            xz += u * w
            yy += v * v
            yz += v * w
            zz += w * w
        a00, a01, a02, r0 = 2.0 * xx, 2.0 * xy, 2.0 * xz, xx
        a10, a11, a12, r1 = a01, 2.0 * yy, 2.0 * yz, yy
        a20, a21, a22, r2 = a02, a12, 2.0 * zz, zz
        tol = TAU_RANK * max(abs(a00), abs(a01), abs(a02), abs(a11), abs(a12), abs(a22))
        big = abs(a00)
        if abs(a10) > big:
            big = abs(a10)
            if abs(a20) > big:  # row 2 is the pivot; rows 0 and 2 trade places
                big = abs(a20)
                a00, a01, a02, r0, a20, a21, a22, r2 = a20, a21, a22, r2, a00, a01, a02, r0
            else:
                a00, a01, a02, r0, a10, a11, a12, r1 = a10, a11, a12, r1, a00, a01, a02, r0
        elif abs(a20) > big:
            big = abs(a20)
            a00, a01, a02, r0, a20, a21, a22, r2 = a20, a21, a22, r2, a00, a01, a02, r0
        if big <= tol:
            raise DegenerateInputError("near-singular circumball system")
        inv = 1.0 / a00
        f = a10 * inv
        if f != 0.0:
            a11 -= f * a01
            a12 -= f * a02
            r1 -= f * r0
        f = a20 * inv
        if f != 0.0:
            a21 -= f * a01
            a22 -= f * a02
            r2 -= f * r0
        if abs(a21) > abs(a11):
            a11, a12, r1, a21, a22, r2 = a21, a22, r2, a11, a12, r1
        if abs(a11) <= tol:
            raise DegenerateInputError("near-singular circumball system")
        f = a21 * (1.0 / a11)
        if f != 0.0:
            a22 -= f * a12
            r2 -= f * r1
        if abs(a22) <= tol:
            raise DegenerateInputError("near-singular circumball system")
        l2 = r2 / a22
        l1 = (r1 - (0.0 + a12 * l2)) / a11
        l0 = (r0 - ((0.0 + a01 * l1) + a02 * l2)) / a00
        c = tuple([((o + l0 * (a - o)) + l1 * (b - o)) + l2 * (e - o)
                   for o, a, b, e in zip(p0, p1, p2, p3)])
        radius = max(math.dist(c, p0), math.dist(c, p1), math.dist(c, p2), math.dist(c, p3))
        return c, radius, (1.0 - (((0.0 + l0) + l1) + l2), l0, l1, l2)
    base = pts[0]
    dirs = [[x - y for x, y in zip(p, base)] for p in pts[1:]]
    m = k - 1
    gram = [[0.0] * m for _ in range(m)]
    rhs = [0.0] * m
    for i in range(m):
        di, gi = dirs[i], gram[i]
        for j in range(i, m):
            acc = 0.0
            for x, y in zip(di, dirs[j]):
                acc += x * y
            if j == i:
                rhs[i] = acc
            gi[j] = gram[j][i] = 2.0 * acc
    lam = _solve(gram, rhs)
    center = list(base)
    for coef, d in zip(lam, dirs):
        for t in range(len(center)):
            center[t] += coef * d[t]
    c = tuple(center)
    total = 0.0
    for x in lam:
        total += x
    return c, max([math.dist(c, p) for p in pts]), (1.0 - total, *lam)


def _mtf(pts, order, boundary, dim):
    """Move-to-front Welzl recursion over point indices.

    Returns (center, radius, support index tuple, barycentric weights of the
    center over the support); `order` is permuted in place so violators
    migrate toward the front.

    A violator whose push makes the circumball system near-singular stays
    off the support: Welzl's invariant puts it on the current sphere up to
    rounding (Gaertner's rejected push, ESA 1999).
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
    limit = radius * (1.0 + TAU_BALL)
    for i in range(len(order)):
        idx = order[i]
        if center is None or math.dist(pts[idx], center) > limit:
            try:
                center, radius, support, weights = _mtf(pts, order[:i], boundary + [idx], dim)
            except DegenerateInputError:
                continue
            limit = radius * (1.0 + TAU_BALL)
            order.pop(i)
            order.insert(0, idx)
    return center, radius, support, weights


def _scale_exponent(width: float, top: float) -> int:
    """Binary exponent e by which a solve scales a net: its coordinates times 2**-e.

    `width` is the net's chord width max |p - p_0| over its rows p, and `top`
    its largest absolute coordinate. e makes the scaled width lie in [1, 2),
    so the scaled chords are below 4 in absolute value and the Gram entries
    neither overflow nor underflow, however far the net lies from the
    origin (a net in [-1, 1]^d often has e = 0 and is not scaled at all);
    e is at least top's exponent minus `_MAX_UPSCALE_BITS`, so that no
    scaled coordinate overflows. A width that overflows (chords beyond the
    float range) takes top's exponent.
    """
    if width == math.inf:
        return math.frexp(top)[1]
    return max(math.frexp(width)[1] - 1, math.frexp(top)[1] - _MAX_UPSCALE_BITS)


def _unit_scaled(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """`arr` times 2**-e, e the `_scale_exponent` of its rows.

    Returns (scaled array, e); the array is `arr` itself when e is 0.
    Scaling by a power of two is exact, so results scale back with
    math.ldexp.
    """
    with np.errstate(over="ignore"):
        exp = _scale_exponent(float(np.abs(arr - arr[0]).max()), float(np.abs(arr).max()))
    return (np.ldexp(arr, -exp) if exp else arr), exp


def _scaled_rows(net: Net) -> tuple[list[tuple[float, ...]], int]:
    """`_unit_scaled` on a small net's row tuples: the same exponent and bits.

    The exponent is found in Python; only a net that must be scaled goes
    through numpy.
    """
    rows = net.coord_list()
    flat = list(itertools.chain.from_iterable(rows))
    width = max(map(abs, map(operator.sub, flat, itertools.cycle(rows[0]))))
    exp = _scale_exponent(width, max(map(abs, flat)))
    if not exp:
        return rows, exp
    return list(map(tuple, np.ldexp(net.array, -exp).tolist())), exp


def _certified(center, radius, support_idx, weights, exp: int = 0):
    """Ball of a solve on the net's coordinates times 2**-exp, scaled back.

    Returns (center, radius, support indices in increasing order).
    `weights` are the center's barycentric coordinates over the support; a
    non-finite center, radius or weight, or a center outside the support's
    hull, raises DegenerateInputError to the caller.
    """
    if not all(map(math.isfinite, (*center, radius, *weights))):
        raise DegenerateInputError("the solve gave a non-finite center, radius or weight")
    if min(weights) < -TAU_GEOM:
        raise DegenerateInputError("support does not certify the center in its hull")
    if exp:
        center = tuple(math.ldexp(c, exp) for c in center)
        radius = math.ldexp(radius, exp)
    return center, radius, tuple(sorted(support_idx))


def _result(net: Net, center, radius, support) -> ChebResult:
    """`ChebResult` of a ball given by center coordinates and support row indices."""
    return ChebResult(Point(center), radius, tuple(Point(net.row(i)) for i in support))


@functools.lru_cache(maxsize=64)
def _insertion_order(n: int) -> tuple[int, ...]:
    """Fixed shuffle of range(n); cached because seeding a Random is slow."""
    order = list(range(n))
    random.Random("0:0").shuffle(order)
    return tuple(order)


def cheb(net: Net) -> ChebResult:
    """Minimum enclosing ball of a net, as `cheb_ball` solves it, with `Point`s."""
    return _result(net, *cheb_ball(net))


def cheb_ball(net: Net) -> tuple[tuple[float, ...], float, tuple[int, ...]]:
    """Center coordinates, radius and support of the minimum enclosing ball of a net.

    The support is given by row indices into `net.array`, in increasing
    order, and no `Point` is built. A singleton is its own ball. Two-point
    nets and nets on the line take the midpoint of their lexicographic
    extremes, which equals the move-to-front result bitwise. Every other
    net goes to `_welzl`: move-to-front on at most `_MTF_MAX_POINTS`
    points, farthest-point pivots on more.
    """
    n, dim = net.array.shape
    if n == 1:
        return net.row(0), 0.0, (0,)
    if n == 2 or dim == 1:
        center, radius, _ = _circumball([net.row(0), net.row(n - 1)])
        return center, radius, (0, n - 1)
    return _welzl(net)


def _welzl(net: Net):
    """Move-to-front solve of a net of at most `_MTF_MAX_POINTS` points, pivots beyond.

    Returns the ball as `cheb_ball` does. A small net's `_mtf` runs over its
    whole insertion order, a fixed shuffle of the net's canonical order, on
    the net's row tuples (`Net.rows`), with no numpy call; three points in
    two or more dimensions take the unrolled form of that run (`_mtf3`). A
    larger net is solved by farthest-point pivots from its first row
    (`_pivots`).

    Either way the solve runs on the coordinates scaled by an exact power of
    two (`_scale_exponent`), so that it depends on neither the scale of the
    net nor the floating-point range; the center and radius are scaled back
    exactly.
    """
    n, dim = net.array.shape
    if n > _MTF_MAX_POINTS:
        arr, exp = _unit_scaled(net.array)
        return _certified(*_pivots(arr), exp)
    pts, exp = _scaled_rows(net)
    if n == 3 and dim > 1:
        ball = _mtf3(pts, dim)
    else:
        ball = _mtf(pts, list(_insertion_order(n)), [], dim)
    return _certified(*ball, exp)


def _mtf3(pts, dim):
    """`_mtf(pts, list(_insertion_order(3)), [], dim)` on three points, unrolled.

    With the insertion order (a, b, c) the recursion tries the ball on
    [b, a], then, when c lies outside it, the balls on [c, b], [c, a] and
    [c, a, b] in turn, each only when the point left off lies outside the
    last one; a near-singular [c, a, b] is skipped. This makes the same
    `_circumball` calls and in-ball tests in the same order, so the result
    is the same bits. When b coincides with a or c after scaling, the
    recursion takes other branches, and the net goes to `_mtf` itself.
    """
    a, b, c = _insertion_order(3)
    pa, pb, pc = pts[a], pts[b], pts[c]
    if not (math.dist(pb, pa) > 0.0 and math.dist(pb, pc) > 0.0):
        return _mtf(pts, [a, b, c], [], dim)
    center, radius, weights = _circumball([pb, pa])
    if not math.dist(pc, center) > radius * (1.0 + TAU_BALL):
        return center, radius, (b, a), weights
    center, radius, weights = _circumball([pc, pb])
    support = (c, b)
    if math.dist(pa, center) > radius * (1.0 + TAU_BALL):
        center, radius, weights = _circumball([pc, pa])
        support = (c, a)
        if math.dist(pb, center) > radius * (1.0 + TAU_BALL):
            try:
                center, radius, weights = _circumball([pc, pa, pb])
                support = (c, a, b)
            except DegenerateInputError:
                pass
    return center, radius, support, weights


def _pivots(arr: np.ndarray):
    """Minimum enclosing ball of the rows of `arr`, grown from its first row by pivots.

    Returns the ball as `_mtf` does, with support indices into `arr`. One
    array pass, `_sq_dists` with no (n, d) temporary, finds the row farthest
    from the center (Gaertner 1999), and while it lies outside the ball,
    `_mtf` solves again on the support with that row on the boundary. The
    row lies outside the ball of the support, so it lies on the sphere of
    the new ball. Only the rows of the support and the pivot become tuples,
    and no per-point Python scan runs over the rest of the net.

    In exact arithmetic each pivot grows the radius strictly: the new ball
    encloses the old support, whose minimum enclosing ball is the old ball,
    and a point outside it. The supports therefore never repeat, and the
    loop ends. A pivot that does not grow the radius can only come from
    rounding on a degenerate net, and raises DegenerateInputError instead
    of cycling.
    """
    center, radius, support, weights = tuple(arr[0].tolist()), 0.0, (0,), (1.0,)
    while True:
        d2 = _sq_dists(arr, np.asarray(center))
        far = int(d2.argmax())
        if d2[far] <= (radius * (1.0 + TAU_BALL)) ** 2:
            return center, radius, support, weights
        rows = support + (far,)
        pts = list(map(tuple, arr[list(rows)].tolist()))
        ball = _mtf(pts, list(range(len(support))), [len(support)], arr.shape[1])
        if not ball[1] > radius:
            raise DegenerateInputError("a pivot did not grow the enclosing ball")
        center, radius, local, weights = ball
        support = tuple(rows[i] for i in local)


@functools.lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """All k-subsets of range(n) in lexicographic order, shape (C(n, k), k)."""
    idx = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    idx.setflags(write=False)  # cached and shared by every call
    return idx


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, added in index order.

    numpy adds fewer than 8 terms in this order too, so the result equals
    `x.sum(axis=-1)` bitwise; the unrolled form avoids numpy's per-row
    reduction loop, which is slow on axes of 1 to 6 terms.
    """
    out = x[..., 0].copy()
    for t in range(1, x.shape[-1]):
        out += x[..., t]
    return out


def _sq_dists(pts: np.ndarray, center: np.ndarray, sign: np.ndarray | None = None) -> np.ndarray:
    """Squared lengths of the chords from `center` (..., d) to the points `pts` (..., n, d).

    Coordinates are added in index order, as `_sum_last` adds, one
    coordinate at a time so that no (..., n, d) temporary is made. With a
    `sign` vector the square of coordinate t enters times sign[t].
    """
    out = np.square(pts[..., 0] - center[..., None, 0])
    if sign is not None:
        out *= sign[0]
    for t in range(1, pts.shape[-1]):
        sq = np.square(pts[..., t] - center[..., None, t])
        out += sq if sign is None else sign[t] * sq
    return out


def _gram_solve(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank test and solution of a batch of chord Gram systems `gram lam = rhs`.

    `gram` is (K, S, m, m), symmetric, and `rhs` (K, S, m). Returns (ok,
    lam): ok marks the systems whose eigenvalue ratio (smallest over
    largest) exceeds TAU_RANK, and lam (K, S, m) holds their solutions; the
    other rows of lam are not used. For m = 1 the eigenvalue is the entry
    itself. For m = 2 the larger eigenvalue is t + hypot(h, g_10), t the
    half trace and h half the diagonal's difference, the ratio is the
    determinant over its square, taken on the entries divided by it so that
    nothing overflows, and the solve is the elimination of `_circumball`:
    the pivot is the first row of largest `abs` in column 0. Larger systems
    go to `np.linalg`, with an identity in place of each failed matrix.
    """
    m = gram.shape[-1]
    if m > 2:
        ev = np.linalg.eigvalsh(gram)  # ascending; the chord Gram matrix is symmetric
        ok = ev[..., 0] > TAU_RANK * ev[..., -1]
        safe = np.where(ok[..., None, None], gram, np.eye(m))
        return ok, np.linalg.solve(safe, rhs[..., None])[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        if m == 1:
            g = gram[..., 0]
            return g[..., 0] > TAU_RANK * g[..., 0], rhs / g
        a00, a01, a10, a11 = gram[..., 0, 0], gram[..., 0, 1], gram[..., 1, 0], gram[..., 1, 1]
        top = (0.5 * a00 + 0.5 * a11) + np.hypot(0.5 * (a00 - a11), a10)
        ok = (top > 0.0) & ((a00 / top) * (a11 / top) - np.square(a10 / top) > TAU_RANK)
        r0, r1 = rhs[..., 0], rhs[..., 1]
        swap = np.abs(a10) > np.abs(a00)
        a00, a10 = np.where(swap, a10, a00), np.where(swap, a00, a10)
        a01, a11 = np.where(swap, a11, a01), np.where(swap, a01, a11)
        r0, r1 = np.where(swap, r1, r0), np.where(swap, r0, r1)
        f = a10 * (1.0 / a00)
        l1 = (r1 - f * r0) / (a11 - f * a01)
        l0 = (r0 - a01 * l1) / a00
    return ok, np.stack([l0, l1], axis=-1)


def _take(x: np.ndarray, ok: np.ndarray, every_ok: bool) -> np.ndarray:
    """`x[ok]` for a mask over the first two axes of x; a reshape when every entry passes."""
    return x.reshape(-1, *x.shape[2:]) if every_ok else x[ok]


def _spread(x: np.ndarray, ok: np.ndarray, every_ok: bool, fill: float) -> np.ndarray:
    """Inverse of `_take`: the rows of x at the True entries of ok, `fill` elsewhere."""
    if every_ok:
        return x.reshape(ok.shape + x.shape[1:])
    out = np.full(ok.shape + x.shape[1:], fill)
    out[ok] = x
    return out


# The geometries of `_enumerated_balls` (the other is `hyperbolic._HYPERBOLOID`):
# the sign vector of the form on chords (None: the dot product), the lift into
# the model, the distance of a squared chord s, the coverage slack of radius r.
_EUCLIDEAN = (None, lambda x: x, np.sqrt, lambda scale, r: geom_tol(scale + r))


def _enumerated_balls(pts: np.ndarray, geometry=_EUCLIDEAN):
    """Minimum enclosing ball of each net in a (K, n, d) batch, by enumeration.

    Tries the subsets of 2, 3, ..., d+1 points in turn. A subset's candidate
    is the smallest sphere having the subset on its boundary with center in
    the subset's affine hull; it qualifies when it covers the whole net and
    its center lies in the subset's convex hull (barycentric weights at
    least -TAU_GEOM). A qualifying ball is the minimum enclosing ball, since
    its center is a convex combination of the points on its sphere, and by
    Caratheodory the minimum enclosing ball has such a subset; so a net is
    done at the first size that has one. Of that size's qualifying balls it
    keeps the one whose center is nearest to covering the net (smallest
    distance to the farthest point), ties going to the first subset in
    lexicographic order: with the coverage slack of the geometry, a smaller
    sphere that just misses a point (near-duplicate points) can qualify
    too, and this picks the truly covering one. The subsets of one size are
    solved for every open net as a single batch of Gram systems
    (`_gram_solve`: closed forms for two and three points, `np.linalg`
    beyond); affinely dependent subsets (eigenvalue ratio at most TAU_RANK)
    are skipped, and when none is, the candidates are reshaped rather than
    gathered by a mask (`_take`, `_spread`).

    A subset's center solves 2 G lam = diag(G), G the Gram matrix of its
    chords in the geometry's form. On the hyperboloid the chords of four
    points span R^3, so their solution is 0, which has no lift.

    Returns (centers (K, d), radii (K,), support (K, m), weights (K, m)),
    m = min(n, d + 1): the centers are the solved points before the lift,
    the support indices are padded with -1 and their weights with 0. A net
    with no qualifying candidate gets a NaN center and an infinite radius.
    """
    count, n, dim = pts.shape
    scale = np.abs(pts).max(axis=(1, 2))
    width = min(n, dim + 1)
    centers = np.full((count, dim), np.nan)
    radii = np.full(count, np.inf)
    support = np.full((count, width), -1, dtype=np.intp)
    weights = np.zeros((count, width))
    sign, lift, dist, slack = geometry
    todo = np.arange(count)
    for k in range(2, width + 1):
        idx = _subsets(n, k)
        nets = pts[todo]
        sub = nets[:, idx]  # (open nets, subsets, k, dim)
        base = sub[:, :, 0]
        dirs = sub[:, :, 1:] - base[:, :, None, :]
        gram = 2.0 * (dirs if sign is None else dirs * sign) @ dirs.swapaxes(-1, -2)
        rhs = 0.5 * gram.diagonal(axis1=-2, axis2=-1)
        ok, lam = _gram_solve(gram, rhs)
        if not ok.any():
            continue
        every_ok = bool(ok.all())
        owner = _take(np.broadcast_to(todo[:, None], ok.shape), ok, every_ok)
        base, dirs, sub, lam = (_take(x, ok, every_ok) for x in (base, dirs, sub, lam))
        w = np.concatenate([1.0 - _sum_last(lam)[:, None], lam], axis=1)
        c = base + _sum_last((lam[:, :, None] * dirs).swapaxes(1, 2))
        lifted = lift(c)
        every = _spread(lifted, ok, every_ok, np.nan)  # the lifted centers, one row per subset
        r = dist(_sq_dists(sub, lifted, sign).max(axis=1))
        reach = _take(dist(_sq_dists(nets[:, None], every, sign).max(axis=-1)), ok, every_ok)
        covers = (w.min(axis=1) >= -TAU_GEOM) & (reach <= r + slack(scale[owner], r))
        cand = _spread(np.where(covers, reach, np.inf), ok, every_ok, np.inf)
        first = cand.argmin(axis=1)  # first minimum in subset order
        won = np.flatnonzero(np.isfinite(cand[np.arange(len(todo)), first]))
        at = (np.cumsum(ok) - 1).reshape(ok.shape)[won, first[won]]  # index among the ok subsets
        done = todo[won]
        radii[done] = r[at]
        centers[done] = c[at]
        support[done, :k] = idx[first[won]]
        weights[done, :k] = w[at]
        todo = np.delete(todo, won)
        if not todo.size:
            break
    return centers, radii, support, weights


def cheb_batch(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers (K, d) and radii (K,) of the minimum enclosing balls of K nets.

    `pts` holds the nets as one (K, n, d) array; a net may repeat a point,
    which leaves its ball unchanged. Nets on the line and two-point nets
    take the closed form of `cheb_ball`, whose center (the midpoint of the
    lexicographic extremes) it equals bitwise. Larger nets take the
    support-subset enumeration that `cheb_oracle` runs (`_enumerated_balls`);
    a net it cannot certify gets a NaN center, and so does every net of more
    than `_BATCH_MAX_SUBSETS` support subsets. The verifiers screen their
    trials with this kernel and re-measure with the scalar solver the
    reported ones and those with a NaN center.
    """
    count, n, dim = pts.shape
    if n == 1:
        return pts[:, 0].copy(), np.zeros(count)
    if dim == 1:
        lo, hi = pts.min(axis=1), pts.max(axis=1)
    elif n == 2:
        lo, hi = pts[:, 0], pts[:, 1]
    elif sum(math.comb(n, k) for k in range(2, min(n, dim + 1) + 1)) > _BATCH_MAX_SUBSETS:
        return np.full((count, dim), np.nan), np.full(count, np.inf)
    else:
        centers, radii, _, _ = _enumerated_balls(pts)
        return centers, radii
    center = lo / 2.0 + hi / 2.0
    radius = np.maximum(np.linalg.norm(center - lo, axis=1), np.linalg.norm(center - hi, axis=1))
    return center, radius


def cheb_oracle(net: Net) -> ChebResult:
    """Brute-force minimum enclosing ball by support-subset enumeration.

    The net is a batch of one for `_enumerated_balls`, which tries the
    subsets of 2..dim+1 points by size and keeps a covering ball whose
    center lies in its support's convex hull. Independent of `cheb`.
    """
    n = len(net)
    if n > _ORACLE_MAX_POINTS or net.dim > _ORACLE_MAX_DIM:
        raise OracleBudgetError(
            f"oracle guard: |M|={n} dim={net.dim} exceeds {_ORACLE_MAX_POINTS}/{_ORACLE_MAX_DIM}"
        )
    if n == 1:
        return ChebResult(net.points[0], 0.0, (net.points[0],))
    centers, radii, support, weights = _enumerated_balls(net.array[None])
    if not np.isfinite(radii[0]):
        raise DegenerateInputError("oracle found no covering candidate ball")
    size = int((support[0] >= 0).sum())
    ball = _certified(
        tuple(centers[0].tolist()),
        float(radii[0]),
        tuple(support[0, :size].tolist()),
        weights[0, :size].tolist(),
    )
    return _result(net, *ball)
