"""Randomized verifiers for the Lipschitz bounds of the center map.

Each verifier draws trial net pairs, measures displacement/alpha ratios via
the full solver pipeline, and reports the worst observed ratio against the
claimed constant. A failing report is a reproduction case, not an expected
outcome: the bounds are theorems, so failures indicate solver bugs.
"""

from __future__ import annotations

import math

import numpy as np

from . import hausdorff
from .chebyshev import cheb
from .errors import DegenerateInputError, DomainError, SamplingBudgetError
from .geometry import Net, Point, diameter, distance
from .lipschitz import LemmaReport, LipschitzSample, random_net, sample_pair, worst_of
from .tolerances import TAU_VERIFY, geom_tol

_REJECTION_BUDGET = 1_000_000


def _report(lemma_id, trials, bound, worst) -> LemmaReport:
    """Report of a run from its `(max_ratio, worst_sample)` pair."""
    max_ratio, sample = worst
    return LemmaReport(
        lemma_id=lemma_id,
        trials=trials,
        max_ratio=max_ratio,
        claimed_bound=bound,
        worst_sample=sample,
        passed=max_ratio <= bound + TAU_VERIFY,
    )


def _accepted(draw, trials: int, what: str):
    """Yield `trials` accepted draws; `draw()` returns None for a rejected one.

    Raises SamplingBudgetError when `_REJECTION_BUDGET` draws do not
    produce `trials` accepted ones.
    """
    accepted = 0
    for _ in range(_REJECTION_BUDGET):
        if accepted == trials:
            return
        item = draw()
        if item is None:
            continue
        accepted += 1
        yield item
    if accepted < trials:
        raise SamplingBudgetError(
            f"{what} sampler accepted {accepted}/{trials} pairs in {_REJECTION_BUDGET} draws"
        )


def verify_lemma1(trials: int, dim: int, seed: int = 0) -> LemmaReport:
    """Two-net sandwich: displacement <= alpha <= displacement + (D[M]+D[Z])/2.

    Both inequalities are folded into one normalized quantity so the report
    invariant stays `pass == (max_ratio <= 1 + tau)`: the lower side as
    displacement/alpha, the upper side as alpha/(displacement + mean radius
    sum). Either exceeding 1 is a violation.
    """
    if trials < 1 or dim < 1:
        raise DomainError("trials and dim must be positive")
    rng = np.random.default_rng(seed)
    samples = (sample_pair(random_net(rng, 2, dim), random_net(rng, 2, dim)) for _ in range(trials))
    return _report("L1", trials, 1.0, worst_of(samples, ratio=_lemma1_ratio))


def _lemma1_ratio(sample: LipschitzSample) -> float:
    """Larger side of the Lemma 1 sandwich, each side normalized to 1."""
    upper = sample.alpha_ab / (
        sample.cheb_displacement + (diameter(sample.net_a) + diameter(sample.net_b)) / 2.0
    )
    return max(sample.ratio, upper)


def verify_lemma2(trials: int, n: int, seed: int = 0) -> LemmaReport:
    """Non-expansion of the center map on the line (dim forced to 1)."""
    if trials < 1 or n < 1:
        raise DomainError("trials and n must be positive")
    rng = np.random.default_rng(seed)

    def line_net() -> Net:
        return random_net(rng, int(rng.integers(1, n + 1)), 1)

    samples = (sample_pair(line_net(), line_net()) for _ in range(trials))
    return _report("L2", trials, 1.0, worst_of(samples))


def _angle(at: Point, b: Point, c: Point) -> float:
    u = [x - y for x, y in zip(b.coords, at.coords)]
    v = [x - y for x, y in zip(c.coords, at.coords)]
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        raise DegenerateInputError("angle at coincident points is undefined")
    cosang = sum(x * y for x, y in zip(u, v)) / (nu * nv)
    return math.acos(min(1.0, max(-1.0, cosang)))


def lemma4_constant(u: Point, v: Point, w: Point) -> float:
    """Collinear-perturbation constant for the triangle (u, v, w).

    1/(2 sin(angle at u)) when the angles at u and at v are both nonzero
    acute; 1/2 in every other case (the branches agree at a right angle
    at u, where the non-acute branch is taken).
    """
    if u.coords == v.coords or u.coords == w.coords or v.coords == w.coords:
        raise DegenerateInputError("u, v, w must be pairwise distinct")
    phi = _angle(u, v, w)
    angle_v = _angle(v, u, w)
    if 0.0 < phi < math.pi / 2 and angle_v < math.pi / 2:
        return 1.0 / (2.0 * math.sin(phi))
    return 0.5


def verify_lemma4(u: Point, v: Point, w: Point, extensions: int, seed: int = 0) -> LemmaReport:
    """Stretch w along the ray from u beyond itself and bound the ratio.

    Extension points z (so that w lies strictly between u and z) are
    stratified across the ray's three segments: up to the foot p of the
    perpendicular from v, between p and the point q where [q,v] is
    perpendicular to [u,v], and beyond q. Strata not reachable past w are
    skipped.
    """
    if extensions < 1:
        raise DomainError("extensions must be positive")
    bound = lemma4_constant(u, v, w)
    t_w = distance(u, w)
    unit = [(a - b) / t_w for a, b in zip(w.coords, u.coords)]
    uv = distance(u, v)
    phi = _angle(u, v, w)

    strata: list[tuple[float, float]] = []
    span = uv + t_w
    if 0.0 < phi < math.pi / 2:
        t_p = uv * math.cos(phi)
        t_q = uv / math.cos(phi)
        strata = [(0.0, t_p), (t_p, t_q), (t_q, t_q + 3.0 * span)]
    else:
        strata = [(t_w, t_w + 3.0 * span)]

    rng = np.random.default_rng(seed)
    m = Net((u, v, w), 3)

    def samples():
        done = 0
        stratum = 0
        while done < extensions:
            lo, hi = strata[stratum % len(strata)]
            stratum += 1
            lo = max(lo, t_w)
            if hi <= lo:
                continue
            t_z = rng.uniform(lo, hi)
            if t_z <= t_w:
                continue
            z = Point(tuple(a + t_z * d for a, d in zip(u.coords, unit)))
            if z.coords == v.coords or z.coords == w.coords:
                continue
            yield sample_pair(m, Net((u, v, z), 3))
            done += 1

    return _report("L4", extensions, bound, worst_of(samples()))


def verify_lemma4_random(trials: int, dim: int, seed: int = 0, extensions_per_config: int = 100) -> LemmaReport:
    """Run verify_lemma4 over random base triangles and merge the reports.

    Ratios are normalized by each configuration's own constant so the
    merged claimed bound is 1.
    """
    if trials < 1 or dim < 1:
        raise DomainError("trials and dim must be positive")
    rng = np.random.default_rng(seed)

    def reports():
        done = 0
        while done < trials:
            batch = min(extensions_per_config, trials - done)
            u, v, w = (Point(tuple(rng.uniform(-1, 1, size=dim).tolist())) for _ in range(3))
            try:
                report = verify_lemma4(u, v, w, batch, seed=int(rng.integers(2**32)))
            except DegenerateInputError:
                continue
            yield report
            done += batch

    max_norm, worst = worst_of(reports(), ratio=lambda r: r.max_ratio / r.claimed_bound)
    return _report("L4", trials, 1.0, (max_norm, worst.worst_sample))


def verify_statement1(trials: int, n: int, dim: int, seed: int = 0) -> LemmaReport:
    """Disjoint-circumball pairs in the plane against the global constants.

    Rejection-samples exact-size-n net pairs until the closed enclosing
    balls are disjoint (strictly, with a tolerance margin). The claimed
    bound is (1+sqrt(5))/2 for n > 3 and sqrt(2) for n = 3.
    """
    if dim != 2:
        raise DomainError("the disjoint-ball bound is stated for the plane (dim 2)")
    if n < 3:
        raise DomainError("n must be at least 3")
    bound = (1.0 + math.sqrt(5.0)) / 2.0 if n > 3 else math.sqrt(2.0)
    rng = np.random.default_rng(seed)

    def draw() -> LipschitzSample | None:
        m = random_net(rng, n, 2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        shift = rng.uniform(1.0, 6.0)
        offset = (shift * math.cos(theta), shift * math.sin(theta))
        z = Net.of(
            [(p.coords[0] + offset[0], p.coords[1] + offset[1]) for p in random_net(rng, n, 2)],
            n,
        )
        ball_m = cheb(m)
        ball_z = cheb(z)
        gap = distance(ball_m.center, ball_z.center)
        if gap <= ball_m.radius + ball_z.radius + geom_tol(gap):
            return None
        a = hausdorff.alpha(m, z)
        return LipschitzSample(m, z, a, gap, gap / a)

    return _report("S1", trials, bound, worst_of(_accepted(draw, trials, "disjoint-ball")))


def _cross2(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segment_intersection_only_at(seg1, seg2, shared, tol: float) -> bool:
    """True if the two closed segments meet nowhere except possibly `shared`."""
    (a, b), (c, d) = seg1, seg2
    d1 = (b[0] - a[0], b[1] - a[1])
    d2 = (d[0] - c[0], d[1] - c[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) > tol:
        t = ((c[0] - a[0]) * d2[1] - (c[1] - a[1]) * d2[0]) / denom
        s = ((c[0] - a[0]) * d1[1] - (c[1] - a[1]) * d1[0]) / denom
        if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= s <= 1 + 1e-12:
            point = (a[0] + t * d1[0], a[1] + t * d1[1])
            return math.dist(point, shared) <= tol
        return True
    # Parallel: reject any collinear overlap longer than a point at `shared`.
    if abs(_cross2(a, b, c)) > tol:
        return True
    axis = 0 if abs(d1[0]) >= abs(d1[1]) else 1
    lo1, hi1 = sorted((a[axis], b[axis]))
    lo2, hi2 = sorted((c[axis], d[axis]))
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo > hi + tol:
        return True
    return hi - lo <= tol and abs(lo - shared[axis]) <= tol


def _triangles_share_only(u, tri1, tri2, scale: float) -> bool:
    """Segment-intersection check that two triangles meet only at u."""
    tol = geom_tol(scale)
    edges1 = [(tri1[i], tri1[(i + 1) % 3]) for i in range(3)]
    edges2 = [(tri2[i], tri2[(i + 1) % 3]) for i in range(3)]
    return all(
        _segment_intersection_only_at(e1, e2, u, tol) for e1 in edges1 for e2 in edges2
    )


def verify_statement2(trials: int, dim: int, seed: int = 0, part: str = "i") -> LemmaReport:
    """Hull-contact bounds for triangle pairs.

    part "i": triangles sharing the edge [u,v] with hulls meeting exactly in
    it; pairs where both apex angles are acute must additionally satisfy
    alpha < |wz| (others are discarded). Claimed bound 1.
    part "ii" (plane only): triangles sharing exactly the vertex u, built in
    opposite closed half-planes through u and verified by a segment
    intersection check. Claimed bound 2.
    """
    if trials < 1:
        raise DomainError("trials must be positive")
    if part not in ("i", "ii"):
        raise DomainError(f"part must be 'i' or 'ii', got {part!r}")
    if part == "i" and dim < 2:
        raise DomainError("shared-edge bound needs dim >= 2")
    if part == "ii" and dim != 2:
        raise DomainError("shared-vertex bound is stated for the plane (dim 2)")
    rng = np.random.default_rng(seed)

    def draw() -> LipschitzSample | None:
        pair = _shared_edge_pair(rng, dim) if part == "i" else _shared_vertex_pair(rng)
        return None if pair is None else sample_pair(*pair)

    worst = worst_of(_accepted(draw, trials, "hull-contact"))
    return _report("S2i" if part == "i" else "S2ii", trials, 1.0 if part == "i" else 2.0, worst)


def _shared_edge_pair(rng: np.random.Generator, dim: int):
    u = Point(tuple(rng.uniform(-1, 1, size=dim).tolist()))
    v = Point(tuple(rng.uniform(-1, 1, size=dim).tolist()))
    w = Point(tuple(rng.uniform(-1, 1, size=dim).tolist()))
    z = Point(tuple(rng.uniform(-1, 1, size=dim).tolist()))
    pts = {u.coords, v.coords, w.coords, z.coords}
    if len(pts) != 4:
        return None
    dirs = np.array([np.subtract(p.coords, u.coords) for p in (v, w, z)])
    if dim == 2:
        # Apexes strictly on opposite sides of the line through u, v.
        s_w = _cross2(u.coords, v.coords, w.coords)
        s_z = _cross2(u.coords, v.coords, z.coords)
        if s_w * s_z >= -1e-18:
            return None
    else:
        # Affinely independent directions force hull contact exactly [u,v].
        sv = np.linalg.svd(dirs, compute_uv=False)
        if sv[-1] <= 1e-9 * sv[0]:
            return None
    m = Net((u, v, w), 3)
    z_net = Net((u, v, z), 3)
    if _angle(w, u, v) < math.pi / 2 and _angle(z, u, v) < math.pi / 2:
        if hausdorff.alpha(m, z_net) >= distance(w, z):
            return None
    return m, z_net


def _shared_vertex_pair(rng: np.random.Generator):
    u = Point(tuple(rng.uniform(-1, 1, size=2).tolist()))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    normal = (math.cos(theta), math.sin(theta))
    margin = 0.05

    def side_point(sign: float) -> Point | None:
        for _ in range(64):
            off = rng.uniform(-1.0, 1.0, size=2)
            if sign * (off[0] * normal[0] + off[1] * normal[1]) > margin:
                return Point((u.coords[0] + off[0], u.coords[1] + off[1]))
        return None

    v, w = side_point(+1.0), side_point(+1.0)
    q, z = side_point(-1.0), side_point(-1.0)
    if any(p is None for p in (v, w, q, z)):
        return None
    pts = {u.coords, v.coords, w.coords, q.coords, z.coords}
    if len(pts) != 5:
        return None
    scale = max(abs(c) for p in (u, v, w, q, z) for c in p.coords)
    if not _triangles_share_only(
        u.coords, (u.coords, v.coords, w.coords), (u.coords, q.coords, z.coords), scale
    ):
        return None
    return Net((u, v, w), 3), Net((u, q, z), 3)
