"""Randomized verifiers for the Lipschitz bounds of the center map.

Each verifier draws trial net pairs and reports the worst displacement/alpha
ratio against the claimed constant. A failing report is a reproduction
case, not an expected outcome: the bounds are theorems, so failures
indicate solver bugs.

The trials run as one array pipeline. A verifier draws them as coordinate
arrays, consuming its generator as one draw per trial would: the same
doubles in the same order (`Draws`, `draw_trials`) and the same
rejections, whose filters run on the arrays with the arithmetic of the
per-trial checks. The batch then only screens: `cheb_batch` solves every
net and alpha comes from broadcasting (`screen_pairs`). The trials whose
screened ratio can reach the batch maximum within its error bound
(`screen_error`: TAU_SCREEN relative, widened where alpha is small) are
re-measured with the scalar `sample_pair` (`screened_worst`), and only
they become `Net` objects, so the reported figures come from the full
solver pipeline.
A disjoint-ball rejection this close to its threshold is decided by `cheb`
as well.
"""

from __future__ import annotations

import math

import numpy as np

from . import hausdorff
from .chebyshev import _sum_last, cheb, cheb_ball, cheb_batch
from .errors import DegenerateInputError, DomainError, SamplingBudgetError
from .geometry import Net, Point, diameter, distance
from .lipschitz import (
    Draws,
    LemmaReport,
    LipschitzSample,
    _has_repeat,
    _net_points,
    _sample_from,
    draw_trials,
    sample_pair,
    screen_error,
    screen_pairs,
    screen_ratios,
    screened_worst,
    worst_of,
)
from .tolerances import TAU_GEOM, TAU_SCREEN, TAU_SEGMENT, TAU_SIGN, TAU_VERIFY, geom_tol

_REJECTION_BUDGET = 1_000_000

# Draws per round of a rejection sampler; bounds the batch temporaries.
_ROUND = 256

# Shared-vertex sampler: side points lie this far beyond the splitting line.
_SIDE_MARGIN = 0.05
# Attempts per side point before the shared-vertex draw is rejected.
_SIDE_ATTEMPTS = 64


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


def _accepted(draw, trials: int, what: str) -> list[np.ndarray]:
    """Arrays of the first `trials` accepted draws, in draw order.

    `draw(count)` makes `count` draws and returns their arrays (first axis
    one row per draw) with the mask of accepted ones. Raises
    SamplingBudgetError when `_REJECTION_BUDGET` draws do not produce
    `trials` accepted ones.
    """
    parts, accepted, drawn = [], 0, 0
    while accepted < trials and drawn < _REJECTION_BUDGET:
        need = trials - accepted
        count = min(_REJECTION_BUDGET - drawn, _ROUND, need + need // 4 + 8)
        arrays, ok = draw(count)
        drawn += count
        keep = np.flatnonzero(ok)[:need]
        parts.append([a[keep] for a in arrays])
        accepted += len(keep)
    if accepted < trials:
        raise SamplingBudgetError(
            f"{what} sampler accepted {accepted}/{trials} pairs in {_REJECTION_BUDGET} draws"
        )
    return [np.concatenate(column) for column in zip(*parts)]


def _sample_of(a: np.ndarray, b: np.ndarray) -> LipschitzSample:
    """Scalar re-measure of one screened pair of coordinate arrays."""
    return sample_pair(Net.of(a), Net.of(b))


def _worst_pair(a: np.ndarray, b: np.ndarray):
    """Worst pair of a batch by displacement/alpha, re-measured (`screened_worst`)."""
    return screened_worst(*screen_ratios(a, b), lambda i: _sample_of(a[i], b[i]))


def verify_lemma1(trials: int, dim: int, seed: int = 0) -> LemmaReport:
    """Two-net sandwich: displacement <= alpha <= displacement + (D[M]+D[Z])/2.

    Both inequalities are folded into one normalized quantity so the report
    invariant stays `pass == (max_ratio <= 1 + tau)`: the lower side as
    displacement/alpha, the upper side as alpha/(displacement + mean radius
    sum). Either exceeding 1 is a violation.
    """
    if trials < 1 or dim < 1:
        raise DomainError("trials and dim must be positive")
    rows = draw_trials(Draws(np.random.default_rng(seed)), trials, [(2, dim), (2, dim)])
    a = rows[:, : 2 * dim].reshape(trials, 2, dim)
    b = rows[:, 2 * dim :].reshape(trials, 2, dim)
    alpha, disp, scale = screen_pairs(a, b)
    radii = (np.linalg.norm(a[:, 0] - a[:, 1], axis=1) + np.linalg.norm(b[:, 0] - b[:, 1], axis=1)) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lower, upper = np.where(alpha > 0.0, disp / alpha, np.nan), alpha / (disp + radii)
    ratios = np.maximum(lower, upper)
    errors = np.maximum(screen_error(lower, scale, alpha), screen_error(upper, scale, disp + radii))
    worst = screened_worst(ratios, errors, lambda i: _sample_of(a[i], b[i]), ratio=_lemma1_ratio)
    return _report("L1", trials, 1.0, worst)


def _lemma1_ratio(sample: LipschitzSample) -> float:
    """Larger side of the Lemma 1 sandwich, each side normalized to 1."""
    upper = sample.alpha_ab / (
        sample.cheb_displacement + (diameter(sample.net_a) + diameter(sample.net_b)) / 2.0
    )
    return max(sample.ratio, upper)


def verify_lemma2(trials: int, n: int, seed: int = 0) -> LemmaReport:
    """Non-expansion of the center map on the line (dim forced to 1).

    Each net has a random size in 1..n; the batch pads a smaller net with
    copies of its first point, which changes neither its ball nor alpha.
    """
    if trials < 1 or n < 1:
        raise DomainError("trials and n must be positive")
    rng = np.random.default_rng(seed)
    rows, sizes = [], []
    for _ in range(2 * trials):
        size = int(rng.integers(1, n + 1))
        pts = _net_points(rng, size, 1)
        rows.append(pts + pts[:1] * (n - size))
        sizes.append(size)
    nets = np.array(rows).reshape(trials, 2, n, 1)

    def measure(i: int) -> LipschitzSample:
        return _sample_of(nets[i, 0, : sizes[2 * i]], nets[i, 1, : sizes[2 * i + 1]])

    worst = screened_worst(*screen_ratios(nets[:, 0], nets[:, 1]), measure)
    return _report("L2", trials, 1.0, worst)


def _angle(at: Point, b: Point, c: Point) -> float:
    """Angle at `at` of the triangle (at, b, c), by acos of the normalized dot product.

    The sums start at 0.0 and add left to right, the same bits on every
    interpreter (the built-in `sum` of floats is compensated from 3.12 on).
    """
    uu = vv = uv = 0.0
    for x, y, o in zip(b.coords, c.coords, at.coords):
        x -= o
        y -= o
        uu += x * x
        vv += y * y
        uv += x * y
    nu = math.sqrt(uu)
    nv = math.sqrt(vv)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateInputError("angle at coincident points is undefined")
    cosang = uv / (nu * nv)
    return math.acos(min(1.0, max(-1.0, cosang)))


def _acute_at(at: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """`_angle(at, b, c) < pi / 2` for rows of (K, d) arrays, with its arithmetic."""
    u, v = b - at, c - at
    # _sum_last adds in index order, as `_angle`'s loop does; a zero sum may
    # differ in sign, which acos ignores.
    cosang = _sum_last(u * v) / (np.sqrt(_sum_last(u * u)) * np.sqrt(_sum_last(v * v)))
    angles = map(math.acos, np.clip(cosang, -1.0, 1.0).tolist())
    return np.fromiter(angles, dtype=float, count=len(cosang)) < math.pi / 2


def _dists(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """`math.dist` of the rows of two (K, d) arrays."""
    return np.fromiter(map(math.dist, p.tolist(), q.tolist()), dtype=float, count=len(p))


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
    skipped; the draws cycle through the others in order.
    """
    if extensions < 1:
        raise DomainError("extensions must be positive")
    bound = lemma4_constant(u, v, w)
    t_w = distance(u, w)
    unit = np.array([(a - b) / t_w for a, b in zip(w.coords, u.coords)])
    uv = distance(u, v)
    phi = _angle(u, v, w)

    span = uv + t_w
    if 0.0 < phi < math.pi / 2:
        t_p = uv * math.cos(phi)
        t_q = uv / math.cos(phi)
        strata = [(0.0, t_p), (t_p, t_q), (t_q, t_q + 3.0 * span)]
    else:
        strata = [(t_w, t_w + 3.0 * span)]
    reachable = [(max(lo, t_w), hi) for lo, hi in strata if hi > max(lo, t_w)]
    lows, highs = (np.array(bounds) for bounds in zip(*reachable))

    draws = Draws(np.random.default_rng(seed))
    tri = np.array([u.coords, v.coords, w.coords])
    found, drawn = [], 0
    while extensions > sum(map(len, found)):
        count = extensions - sum(map(len, found))
        stratum = (drawn + np.arange(count)) % len(reachable)
        drawn += count
        lo, hi = lows[stratum], highs[stratum]
        t_z = lo + (hi - lo) * draws.take(count)
        z = tri[0] + t_z[:, None] * unit
        ok = (t_z > t_w) & ~(z == tri[1]).all(axis=1) & ~(z == tri[2]).all(axis=1)
        found.append(z[ok])
    zs = np.concatenate(found)
    moved = np.broadcast_to(tri, (extensions, 3, tri.shape[1])).copy()
    moved[:, 2] = zs
    m = Net((u, v, w))
    center_m = cheb_ball(m)[0]  # every re-measure shares the base net
    worst = screened_worst(
        *screen_ratios(tri[None], moved), lambda i: _sample_from(m, center_m, Net.of(moved[i]))
    )
    return _report("L4", extensions, bound, worst)


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
    draws = Draws(np.random.default_rng(seed))
    m, z, gap = _accepted(lambda count: _disjoint_draws(draws, count, n), trials, "disjoint-ball")
    alpha = hausdorff.alpha_batch(m, z)
    scale = np.maximum(np.abs(m).max(axis=(1, 2)), np.abs(z).max(axis=(1, 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(alpha > 0.0, gap / alpha, np.nan)
    worst = screened_worst(ratios, screen_error(ratios, scale, alpha), lambda i: _sample_of(m[i], z[i]))
    return _report("S1", trials, bound, worst)


def _disjoint_draws(draws: Draws, count: int, n: int):
    """`count` disjoint-ball draws: nets m and z, their center gap, and the accept mask.

    A draw is a net m, an angle and a shift, and a net that the shift moves
    away from m; it is accepted when the enclosing balls are disjoint with
    a `geom_tol` margin. Draws within TAU_SCREEN of that threshold (or whose
    net the batch kernel cannot certify) are decided by `cheb`.
    """
    rows = draw_trials(draws, count, [(n, 2), 1, 1, (n, 2)])
    theta = 2.0 * math.pi * rows[:, 2 * n]  # rng.uniform(0, 2 pi), rng.uniform(1, 6)
    shift = 1.0 + 5.0 * rows[:, 2 * n + 1]
    cos_sin = np.array([[math.cos(t), math.sin(t)] for t in theta.tolist()]).reshape(count, 2)
    m = rows[:, : 2 * n].reshape(count, n, 2)
    z = rows[:, 2 * n + 2 :].reshape(count, n, 2) + (shift[:, None] * cos_sin)[:, None, :]
    center_m, radius_m = cheb_batch(m)
    center_z, radius_z = cheb_batch(z)
    gap = np.linalg.norm(center_m - center_z, axis=1)
    margin = gap - (radius_m + radius_z + geom_tol(gap))
    ok = margin > 0.0
    for i in np.flatnonzero(~(np.abs(margin) > TAU_SCREEN * np.maximum(1.0, gap))):
        ball_m, ball_z = cheb(Net.of(m[i])), cheb(Net.of(z[i]))
        gap_i = distance(ball_m.center, ball_z.center)
        ok[i] = gap_i > ball_m.radius + ball_z.radius + geom_tol(gap_i)
    return (m, z, gap), ok


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
    draws = Draws(np.random.default_rng(seed))
    if part == "i":
        (pts,) = _accepted(lambda count: _edge_draws(draws, count, dim), trials, "hull-contact")
        worst = _worst_pair(pts[:, _EDGE_M], pts[:, _EDGE_Z])
        return _report("S2i", trials, 1.0, worst)
    (pts,) = _accepted(lambda count: _vertex_draws(draws, count), trials, "hull-contact")
    return _report("S2ii", trials, 2.0, _worst_pair(pts[:, _VERTEX_M], pts[:, _VERTEX_Z]))


# Rows of a shared-edge draw are u, v, w, z; of a shared-vertex draw u, v, w, q, z.
_EDGE_M, _EDGE_Z = [0, 1, 2], [0, 1, 3]
_VERTEX_M, _VERTEX_Z = [0, 1, 2], [0, 3, 4]


def _cross2(o, a, b):
    return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0])


def _edge_draws(draws: Draws, count: int, dim: int):
    """`count` shared-edge draws: points (count, 4, dim) u, v, w, z and the accept mask.

    Accepted: four distinct points whose triangles (u, v, w) and (u, v, z)
    meet exactly in [u, v] (apexes strictly on opposite sides of the line
    in the plane, affinely independent directions above it), and, when
    both apex angles over [u, v] are acute, alpha < |wz|.
    """
    pts = draws.uniform(-1.0, 1.0, (count, 4, dim))
    u, v, w, z = pts.transpose(1, 0, 2)
    ok = ~_has_repeat(pts)
    if dim == 2:
        ok &= ~(_cross2(u, v, w) * _cross2(u, v, z) >= -TAU_SIGN)
    else:
        sv = np.linalg.svd(pts[:, 1:] - u[:, None], compute_uv=False)
        ok &= ~(sv[:, -1] <= TAU_GEOM * sv[:, 0])
    test = np.flatnonzero(ok)
    acute = test[_acute_at(w[test], u[test], v[test]) & _acute_at(z[test], u[test], v[test])]
    if acute.size:
        # alpha of two triangles sharing u and v: the larger of the apexes'
        # nearest-point distances to the other triangle.
        wu, wv, wz, zu, zv = (_dists(p[acute], q[acute]) for p, q in ((w, u), (w, v), (w, z), (z, u), (z, v)))
        alpha = np.maximum(np.minimum(np.minimum(wu, wv), wz), np.minimum(np.minimum(zu, zv), wz))
        ok[acute[alpha >= wz]] = False
    return (pts,), ok


def _shared_edge_pair(rng: np.random.Generator, dim: int):
    """One shared-edge draw from `rng`: its net pair, or None when rejected."""
    (pts,), ok = _edge_draws(Draws(rng), 1, dim)
    return (Net.of(pts[0, _EDGE_M]), Net.of(pts[0, _EDGE_Z])) if ok[0] else None


def _vertex_draws(draws: Draws, count: int):
    """`count` shared-vertex draws: points (count, 5, 2) u, v, w, q, z and the accept mask.

    A draw is u, an angle giving the normal of a line through u, and four
    side points: v and w on its positive side, q and z on its negative one,
    each the first of up to _SIDE_ATTEMPTS offsets from u that lies more
    than _SIDE_MARGIN beyond the line. Accepted: every side point found,
    five distinct points, and triangles (u, v, w) and (u, q, z) that meet
    only at u.
    """
    # A draw reads 3 doubles and then 2 per side-point attempt, about 24 in
    # all. `more` tops the buffer up by exactly what a read lacks, so a
    # single draw reads no more than it uses; the unread rest goes back.
    buf = draws.take(3 * count + 21 * (count - 1)).tolist()
    at = 0

    def more(k: int) -> None:
        buf.extend(draws.take(at + k - len(buf)).tolist())

    rows, found = [], np.ones(count, bool)
    for trial in range(count):
        if at + 3 > len(buf):
            more(3)
        u0, u1 = -1.0 + 2.0 * buf[at], -1.0 + 2.0 * buf[at + 1]
        theta = 2.0 * math.pi * buf[at + 2]
        at += 3
        n0, n1 = math.cos(theta), math.sin(theta)
        row = [u0, u1]
        for sign in (1.0, 1.0, -1.0, -1.0):
            point = (0.0, 0.0)
            for _ in range(_SIDE_ATTEMPTS):
                if at + 2 > len(buf):
                    more(2)
                o0, o1 = -1.0 + 2.0 * buf[at], -1.0 + 2.0 * buf[at + 1]
                at += 2
                if sign * (o0 * n0 + o1 * n1) > _SIDE_MARGIN:
                    point = (u0 + o0, u1 + o1)
                    break
            else:
                found[trial] = False
            row.extend(point)
        rows.append(row)
    draws.rewind(len(buf) - at)
    pts = np.array(rows).reshape(count, 5, 2)
    ok = found & ~_has_repeat(pts)
    test = np.flatnonzero(ok)
    ok[test] = _triangles_share_only(pts[test])
    return (pts,), ok


def _shared_vertex_pair(rng: np.random.Generator):
    """One shared-vertex draw from `rng`: its net pair, or None when rejected."""
    (pts,), ok = _vertex_draws(Draws(rng), 1)
    return (Net.of(pts[0, _VERTEX_M]), Net.of(pts[0, _VERTEX_Z])) if ok[0] else None


# Edge pairs of triangles (u, v, w) and (u, q, z) in a shared-vertex draw.
_EDGES_1 = [(0, 1), (1, 2), (2, 0)]
_EDGES_2 = [(0, 3), (3, 4), (4, 0)]
_SEGMENT_PAIRS = np.array([e1 + e2 for e1 in _EDGES_1 for e2 in _EDGES_2])


def _triangles_share_only(pts: np.ndarray) -> np.ndarray:
    """Segment-intersection check that triangles (u, v, w), (u, q, z) meet only at u.

    `pts` is (K, 5, 2); for every pair of edges the closed segments [a, b]
    and [c, d] must meet nowhere except possibly at u, within
    geom_tol(largest absolute coordinate).
    """
    count = len(pts)
    tol = geom_tol(np.abs(pts).max(axis=(1, 2)))[:, None]
    a, b, c, d = (pts[:, _SEGMENT_PAIRS[:, k]] for k in range(4))
    shared = np.broadcast_to(pts[:, None, 0], a.shape)
    d1, d2, ca = b - a, d - c, c - a
    denom = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    crossing = np.abs(denom) > tol
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ca[..., 0] * d2[..., 1] - ca[..., 1] * d2[..., 0]) / denom
        s = (ca[..., 0] * d1[..., 1] - ca[..., 1] * d1[..., 0]) / denom
    on_both = crossing & (-TAU_SEGMENT <= t) & (t <= 1 + TAU_SEGMENT)
    on_both &= (-TAU_SEGMENT <= s) & (s <= 1 + TAU_SEGMENT)
    point = a[on_both] + t[on_both][:, None] * d1[on_both]
    good = ~on_both
    good[on_both] = _dists(point, shared[on_both]) <= np.broadcast_to(tol, t.shape)[on_both]
    # Parallel: reject any collinear overlap longer than a point at u.
    axis = (np.abs(d1[..., 0]) < np.abs(d1[..., 1])).astype(np.intp)[..., None]

    def pick(x):  # the coordinate of `axis`
        return np.take_along_axis(x, axis, -1)[..., 0]

    lo = np.maximum(np.minimum(pick(a), pick(b)), np.minimum(pick(c), pick(d)))
    hi = np.minimum(np.maximum(pick(a), pick(b)), np.maximum(pick(c), pick(d)))
    apart = (np.abs(_cross2(a, b, c)) > tol) | (lo > hi + tol)
    touch = (hi - lo <= tol) & (np.abs(lo - pick(shared)) <= tol)
    good = np.where(crossing, good, apart | touch)
    return good.reshape(count, -1).all(axis=1)
