"""Checks on minimum enclosing balls that only the tests need."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from chebnets.chebyshev import ChebResult, _dot, _solve, _unit_scaled


def _affine_weights(pts: Sequence[tuple[float, ...]], target) -> list[float]:
    """Barycentric coordinates of `target` in the affine hull of `pts`."""
    base = pts[0]
    dirs = [tuple(x - y for x, y in zip(p, base)) for p in pts[1:]]
    m = len(pts) - 1
    gram = [[_dot(dirs[i], dirs[j]) for j in range(m)] for i in range(m)]
    rhs = [_dot(d, tuple(x - y for x, y in zip(target, base))) for d in dirs]
    mu = _solve(gram, rhs)
    return [1.0 - sum(mu)] + mu


def support_barycentric(result: ChebResult) -> list[float]:
    """Barycentric coordinates of the center with respect to the support."""
    arr, _ = _unit_scaled(np.array([result.center.coords] + [p.coords for p in result.support]))
    pts = list(map(tuple, arr.tolist()))
    return _affine_weights(pts[1:], pts[0])
