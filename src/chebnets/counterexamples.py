"""Witness constructions showing the center map is not globally Lipschitz.

The Euclidean family pins two points x, y and a third point z on the
semicircle over [x, y]; as z slides toward y the center of {x, y, z} stays
at the midpoint of [x, y] while the center of {x, y, u} (u the matching
point further along the ray from x through z) runs away at rate
|xy| / (2 |zy|). The hyperbolic family is the same picture built from
hyperboloid-model kernels, with z and u placed in closed form by the
hyperbolic law of cosines for isosceles triangles.
"""

from __future__ import annotations

import math

from .errors import DegenerateInputError, DomainError, InconsistencyError, SamplingBudgetError
from .geometry import Net, Point, distance
from .hyperbolic import (
    HyperbolicPoint,
    ORIGIN,
    _unit_tangent,
    h_alpha,
    h_cheb3,
    h_distance,
    h_exp,
    h_midpoint,
    minkowski_inner,
    tangent_basis,
)
from .lipschitz import sample_pair
from .tolerances import TAU_WITNESS


def _euclidean_family(chord: float) -> tuple[Net, Net]:
    """Nets {x,y,z} and {x,y,u} for a given |zy| = chord in (0, 1/2)."""
    theta = 2.0 * math.asin(chord)
    z = (0.5 + 0.5 * math.cos(theta), 0.5 * math.sin(theta))
    nz2 = z[0] * z[0] + z[1] * z[1]
    u = (z[0] / nz2, z[1] / nz2)
    m = Net.of([(0.0, 0.0), (1.0, 0.0), z])
    w = Net.of([(0.0, 0.0), (1.0, 0.0), u])
    return m, w


def lemma3_counterexample(target: float) -> tuple[Net, Net, float]:
    """Witness pair whose displacement/alpha ratio exceeds `target`.

    The chord |zy| is set to 1/(4*target) (capped at 1/4 so z stays on the
    open semicircle for small targets), which makes the achieved ratio
    2*target (at least 2). The measured ratio is cross-checked against the
    closed form |xy| / (2 |zy|).
    """
    if target <= 0:
        raise DomainError(f"target must be positive, got {target}")
    chord = min(1.0 / (4.0 * target), 0.25)
    m, w = _euclidean_family(chord)
    sample = sample_pair(m, w)
    y = Point((1.0, 0.0))
    z = next(p for p in m if p.coords not in ((0.0, 0.0), (1.0, 0.0)))
    expected = 1.0 / (2.0 * distance(y, z))
    if abs(sample.ratio - expected) > TAU_WITNESS * expected:
        raise InconsistencyError(
            f"measured ratio {sample.ratio} disagrees with closed form {expected}"
        )
    if sample.ratio <= target:
        raise InconsistencyError(
            f"achieved ratio {sample.ratio} did not exceed target {target}"
        )
    return m, w, sample.ratio


def lemma3_nonuniform_sequence(n_max: int) -> list[tuple[Net, Net, float, float]]:
    """Net-pair sequence with alpha -> 0 but displacement pinned above 0.

    Built over the chord-1/4 base family: x_n walks away from y along the
    line through x and y, z_n is the second intersection of the ray from u
    through x_n with the circle on [x_n, y] as diameter. Both centers are
    midpoints of segments out of x_n, so the displacement equals |y - u|/2
    for every n while alpha decays like 1/n.
    """
    if n_max < 2:
        raise DomainError(f"n_max must be at least 2, got {n_max}")
    base_m, base_w = _euclidean_family(0.25)
    x = (0.0, 0.0)
    y = (1.0, 0.0)
    u = next(p.coords for p in base_w if p.coords not in (x, y))

    rows: list[tuple[Net, Net, float, float]] = []
    for n in range(1, n_max + 1):
        xn = (1.0 - float(n), 0.0)
        center = ((xn[0] + y[0]) / 2.0, (xn[1] + y[1]) / 2.0)
        radius = math.dist(xn, y) / 2.0
        zn = _ray_circle_second_hit(u, xn, center, radius)
        m = Net.of([xn, y, zn])
        z = Net.of([xn, y, u])
        sample = sample_pair(m, z)
        rows.append((m, z, sample.alpha_ab, sample.cheb_displacement))

    limit = math.dist(y, u) / 2.0
    alphas = [r[2] for r in rows]
    if not (alphas[-1] < alphas[len(alphas) // 2] < alphas[0]):
        raise InconsistencyError("alpha sequence is not decaying")
    worst_dev = max(abs(r[3] - limit) for r in rows)
    if worst_dev > 0.01 * limit:
        raise InconsistencyError(
            f"displacement deviates from its limit {limit} by {worst_dev}"
        )
    return rows


def _ray_circle_second_hit(vertex, through, center, radius):
    """Second intersection of the ray from `vertex` through `through` with a circle.

    `through` itself lies on the circle; the other root of the quadratic is
    returned. Tangency or a backward hit raises DegenerateInputError.
    """
    d = (through[0] - vertex[0], through[1] - vertex[1])
    f = (vertex[0] - center[0], vertex[1] - center[1])
    a = d[0] * d[0] + d[1] * d[1]
    b = 2.0 * (f[0] * d[0] + f[1] * d[1])
    c = f[0] * f[0] + f[1] * f[1] - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        raise DegenerateInputError("ray misses (or is tangent to) the circle")
    sq = math.sqrt(disc)
    q = -(b + math.copysign(sq, b)) / 2.0
    roots = sorted((q / a, c / q) if q != 0.0 else (0.0, -b / a))
    # `through` is at parameter 1; keep the other root.
    s = roots[0] if abs(roots[1] - 1.0) < abs(roots[0] - 1.0) else roots[1]
    if s < 0.0:
        raise DegenerateInputError("second circle hit lies behind the ray vertex")
    return (vertex[0] + s * d[0], vertex[1] + s * d[1])


def _hyperbolic_family(chord: float):
    """Hyperbolic analog of the Euclidean family for a given |zy| = chord.

    x = ORIGIN and y lie 1 apart; z is on the circle of radius R = 1/2 about
    their midpoint, at the angle theta from y that the isosceles triangle
    (mid, y, z) fixes: sinh(chord/2) = sinh(R) sin(theta/2). u is on the ray
    from x through z, with mid(x, u) as far from y as from x; the isosceles
    triangle (x, mid(x, u), y) gives tanh(|xu|/2) cos(phi) = tanh(|xy|/2),
    phi the angle at x between y and z.
    """
    x = ORIGIN
    y = HyperbolicPoint((math.cosh(1.0), math.sinh(1.0), 0.0))
    mid = h_midpoint(x, y)
    radius = 0.5
    # At a point of the x1 axis the first basis vector points along it, at y.
    toward_y, perp = tangent_basis(mid)
    theta = 2.0 * math.asin(math.sinh(chord / 2.0) / math.sinh(radius))
    z = h_exp(mid, tuple(
        radius * (math.cos(theta) * a + math.sin(theta) * b) for a, b in zip(toward_y, perp)
    ))
    direction = _unit_tangent(x, z)
    cos_phi = -minkowski_inner(_unit_tangent(x, y), direction)
    length = 2.0 * math.atanh(math.tanh(radius) / cos_phi)
    u = h_exp(x, tuple(length * d for d in direction))
    return (x, y, z), (x, y, u)


def lemma3_hyperbolic_counterexample(
    target: float,
) -> tuple[tuple[HyperbolicPoint, ...], tuple[HyperbolicPoint, ...], float]:
    """Hyperbolic witness pair with displacement/alpha ratio above `target`.

    Halves the chord parameter until the measured ratio (via h_cheb3 and the
    hyperbolic Hausdorff distance) exceeds the target; DegenerateInputError
    once the two nets are equal in doubles.
    """
    if target <= 0:
        raise DomainError(f"target must be positive, got {target}")
    chord = 0.25
    for _ in range(200):
        m, w = _hyperbolic_family(chord)
        alpha = h_alpha(m, w)
        if alpha == 0.0:
            raise DegenerateInputError(f"the witness nets are equal in doubles at chord {chord!r}")
        center_m, _ = h_cheb3(*m)
        center_w, _ = h_cheb3(*w)
        ratio = h_distance(center_m, center_w) / alpha
        if ratio > target:
            return m, w, ratio
        chord /= 2.0
    raise SamplingBudgetError(
        f"chord ladder did not reach ratio > {target} within 200 halvings"
    )
