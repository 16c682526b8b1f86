"""Checks on minimum enclosing balls that only the tests need.

`_dot`, `_solve` and `_circumball` here are the generator form of the Gram
solve that `chebnets.chebyshev` replaced with plain loops: the same
floating-point operations in the same order, so the two must agree bitwise.
Their sums are `_left_sum`, the left-to-right sum from integer 0 that the
built-in `sum` of floats computes up to Python 3.11 (it is compensated from
3.12 on), so the reference means the same bits on every interpreter.
`linalg_gram_solve` is the `np.linalg` form of the batch screen's Gram
solve, which the screen replaced with closed forms on 1x1 and 2x2 systems.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Sequence
from unittest import mock

import numpy as np

from chebnets import chebyshev
from chebnets.chebyshev import ChebResult, _unit_scaled
from chebnets.errors import DegenerateInputError
from chebnets.tolerances import TAU_RANK


def _left_sum(terms) -> float:
    return functools.reduce(operator.add, terms, 0)


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return _left_sum(x * y for x, y in zip(a, b))


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting, the reference for `chebyshev._solve`."""
    m = len(rhs)
    a = [row[:] + [r] for row, r in zip(matrix, rhs)]
    scale = max((abs(a[i][j]) for i in range(m) for j in range(m)), default=0.0)
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
        s = a[r][m] - _left_sum(a[r][c] * out[c] for c in range(r + 1, m))
        out[r] = s / a[r][r]
    return out


def _circumball(
    pts: Sequence[tuple[float, ...]],
) -> tuple[tuple[float, ...], float, tuple[float, ...]]:
    """Reference for `chebyshev._circumball`: (center, radius, barycentric weights)."""
    k = len(pts)
    if k == 1:
        return pts[0], 0.0, (1.0,)
    if k == 2:
        a, b = pts
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
    return c, max(math.dist(c, p) for p in pts), (1.0 - _left_sum(lam), *lam)


def _affine_weights(pts: Sequence[tuple[float, ...]], target) -> list[float]:
    """Barycentric coordinates of `target` in the affine hull of `pts`."""
    base = pts[0]
    dirs = [tuple(x - y for x, y in zip(p, base)) for p in pts[1:]]
    m = len(pts) - 1
    gram = [[_dot(dirs[i], dirs[j]) for j in range(m)] for i in range(m)]
    rhs = [_dot(d, tuple(x - y for x, y in zip(target, base))) for d in dirs]
    mu = _solve(gram, rhs)
    return [1.0 - _left_sum(mu)] + mu


def support_barycentric(result: ChebResult) -> list[float]:
    """Barycentric coordinates of the center with respect to the support.

    The points are taken relative to the first support point before the
    power-of-two scaling, so that the chords, not the coordinates, are of
    unit size: a support 1e-218 wide near (0, 1) would otherwise have Gram
    entries that underflow to 0. Without under- or overflow the weights are
    the same bits either way, as scaling by a power of two is exact.
    """
    pts = np.array([result.center.coords] + [p.coords for p in result.support])
    arr, _ = _unit_scaled(pts - pts[1])
    pts = list(map(tuple, arr.tolist()))
    return _affine_weights(pts[1:], pts[0])


def linalg_gram_solve(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference for `chebyshev._gram_solve`: `np.linalg` eigenvalues and solve at every size."""
    ev = np.linalg.eigvalsh(gram)
    ok = ev[..., 0] > TAU_RANK * ev[..., -1]
    safe = np.where(ok[..., None, None], gram, np.eye(gram.shape[-1]))
    return ok, np.linalg.solve(safe, rhs[..., None])[..., 0]


def screen_gap_to_linalg(pts: np.ndarray, geometry=chebyshev._EUCLIDEAN) -> float:
    """Largest gap between the screen's centers and those of its `np.linalg` form.

    Runs `_enumerated_balls` on the (K, n, d) batch `pts` with its own Gram
    solve and with `linalg_gram_solve`, checks that both pick the same
    support for every net, and returns the largest center coordinate
    difference over the net's largest absolute coordinate.
    """
    centers, radii, support, _ = chebyshev._enumerated_balls(pts, geometry)
    with mock.patch.object(chebyshev, "_gram_solve", linalg_gram_solve):
        ref_centers, ref_radii, ref_support, _ = chebyshev._enumerated_balls(pts, geometry)
    assert (support == ref_support).all() and (np.isfinite(radii) == np.isfinite(ref_radii)).all()
    found = np.isfinite(radii)
    if not found.any():
        return 0.0
    scale = np.abs(pts).max(axis=(1, 2))[found, None]
    return float((np.abs(centers[found] - ref_centers[found]) / scale).max())
