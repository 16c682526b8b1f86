"""`hyperbolic` workload: Chebyshev centers and alpha of H^2 triples.

One operation is one measured pair of triples: two `h_cheb3` calls and one
`h_alpha` call. A triple has spread s, log-uniform in [1e-4, 3]: its points
lie within s of a center point at distance up to RHO_MAX - s from ORIGIN.
The second triple of a pair moves each point by up to s/10. Each round
ends with the Lemma 3 hyperbolic witness ladder, one operation per target.
"""

from __future__ import annotations

import math

import numpy as np

import certify
from chebnets import counterexamples, hyperbolic
from chebnets.hyperbolic import HyperbolicPoint

PAIRS = 4000
SPREAD_RANGE = (1e-4, 3.0)
# Points stay within this distance of ORIGIN. Beyond about 8, h_cheb3 and
# minimax_center_search disagree by more than 1e-9 on some triples only.
RHO_MAX = 7.0
WITNESS_TARGETS = (1.0, 10.0, 100.0)
ORACLE_TOL = 1e-9


def _at(center_dist, center_angle, t, theta):
    """Sheet point at distance t from the center point, in direction theta."""
    ch, sh = math.cosh(center_dist), math.sinh(center_dist)
    ca, sa = math.cos(center_angle), math.sin(center_angle)
    c = np.array([ch, sh * ca, sh * sa])
    e1 = np.array([sh, ch * ca, ch * sa])
    e2 = np.array([0.0, -sa, ca])
    return math.cosh(t) * c + math.sinh(t) * (math.cos(theta) * e1 + math.sin(theta) * e2)


def _offset(rng, p, radius):
    """Sheet point within `radius` of the sheet point p."""
    _, x, y = p.coords
    dist, angle = math.asinh(math.hypot(x, y)), math.atan2(y, x)
    return _at(dist, angle, radius * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))


def _pair(rng):
    lo, hi = np.log10(SPREAD_RANGE)
    spread = 10.0 ** rng.uniform(lo, hi)
    dist, angle = rng.uniform(0.0, RHO_MAX - spread), rng.uniform(0, 2 * math.pi)
    first = [HyperbolicPoint.on_sheet(tuple(_at(dist, angle, spread * math.sqrt(rng.random()),
                                                rng.uniform(0, 2 * math.pi))))
             for _ in range(3)]
    second = [HyperbolicPoint.on_sheet(tuple(_offset(rng, p, spread / 10.0))) for p in first]
    return first, second


def _measure(m, z):
    return hyperbolic.h_cheb3(*m), hyperbolic.h_cheb3(*z), hyperbolic.h_alpha(m, z)


class Workload:
    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.pairs = [_pair(rng) for _ in range(PAIRS)]
        self.ops = [("bench.op", (lambda m=m, z=z: _measure(m, z))) for m, z in self.pairs]
        self.ops += [("bench.witness", (lambda t=t: counterexamples.lemma3_hyperbolic_counterexample(t)))
                     for t in WITNESS_TARGETS]
        self.class_of_op = {}

    def warm(self):
        for _, op in self.ops[:20]:
            op()
        self.ops[-len(WITNESS_TARGETS)][1]()

    def check(self, results):
        errors = []
        for i, ((m, z), (ball_m, ball_z, alpha)) in enumerate(zip(self.pairs, results)):
            for pts, (center, radius) in ((m, ball_m), (z, ball_z)):
                err = _check_ball(pts, center, radius)
                if err:
                    errors.append(f"pair {i}: {err}")
            a = np.array([p.coords for p in m])
            b = np.array([p.coords for p in z])
            want = certify.h_hausdorff(a, b)
            if abs(alpha - want) > certify.h_tolerance(np.vstack([a, b])) + 1e-9 * want:
                errors.append(f"pair {i}: alpha {alpha!r}, recomputed {want!r}")
        for target, (m, w, ratio) in zip(WITNESS_TARGETS, results[len(self.pairs):]):
            a = np.array([p.coords for p in m])
            b = np.array([p.coords for p in w])
            cm, cw = certify.h_center_enumerate(a)[0], certify.h_center_enumerate(b)[0]
            inner = cm[0] * cw[0] - cm[1] * cw[1] - cm[2] * cw[2]
            own = float(np.arccosh(max(inner, 1))) / certify.h_hausdorff(a, b)
            if not (own > target and abs(own - ratio) <= 1e-6 * own):
                errors.append(f"witness for {target}: ratio {ratio!r}, recomputed {own!r}")
        return errors

    def selftest(self, results):
        """A shifted center, an inflated radius and a dropped support point must all be rejected."""
        errors = []
        for (m, _), (ball, _, _) in list(zip(self.pairs, results))[:8]:
            pts = np.array([p.coords for p in m])
            center, radius = np.array(ball[0].coords), ball[1]
            atol = certify.h_tolerance(pts)
            step = max(1e-4 * radius, 100 * atol)
            # Move the center by `step` along a tangent direction.
            back = np.linalg.inv(certify.boost_to_origin(center).astype(float))
            shifted = back @ np.array([math.cosh(step), math.sinh(step), 0.0])
            dist = certify.h_distance_matrix(center[None, :], pts)[0]
            corrupted = {
                "shifted center": (pts, shifted, radius),
                "inflated radius": (pts, center, radius + step),
                "dropped support point": (np.delete(pts, np.argmax(dist), axis=0), center, radius),
            }
            for what, (p, c, r) in corrupted.items():
                if certify.h_certificate(p, c, r, atol) is None:
                    errors.append(f"hyperbolic certificate accepted a {what}")
        return errors


def _check_ball(pts, center, radius):
    """Certificate of an h_cheb3 ball, and its agreement with the exact oracle."""
    coords = np.array([p.coords for p in pts])
    err = certify.h_certificate(coords, np.array(center.coords), radius, certify.h_tolerance(coords))
    if err:
        return err
    # Radii are compared, not centers: where the third point lies almost on
    # the sphere of the two-point ball, a radius change of 5e-13 moves the
    # center by 3e-8, so two exact solvers may place it that far apart.
    _, oracle_radius = hyperbolic.minimax_center_search(pts)
    if abs(radius - oracle_radius) > ORACLE_TOL:
        return f"h_cheb3 radius {radius!r}, minimax_center_search {oracle_radius!r}"
    return None
