"""Independent correctness checks, written in numpy without calling chebnets.

Every check returns an error string, or None when the result is correct.
The benchmark runs them after its timed intervals, and runs them again on
deliberately corrupted results to show that none of them passes vacuously.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Slack the paper's bounds get in every report (two solves, each about 1e-9
# accurate). Kept here rather than read from the package, so that loosening
# the package's tolerance cannot loosen this check.
TAU_VERIFY = 1e-7

PHI = (1.0 + math.sqrt(5.0)) / 2.0
# The paper's constant for each verifier as suite-all runs it (S1 at n = 4).
PAPER_BOUNDS = {"L1": 1.0, "L2": 1.0, "L4": 1.0, "S1": PHI, "S2i": 1.0, "S2ii": 2.0}

# Relative tolerance of the Euclidean certificate, on coordinates centred on
# the result and scaled by its radius.
MEB_TOL = 1e-9


# ---------------------------------------------------------------- Euclidean


def meb_certificate(points, center, radius, support):
    """Check that (center, radius, support) is the minimum enclosing ball.

    A ball that covers every point, has its support on the sphere and its
    center in the convex hull of that support is the unique smallest one.
    """
    x = np.asarray(points, dtype=float)
    c = np.asarray(center, dtype=float)
    s = np.asarray(support, dtype=float).reshape(-1, x.shape[1])
    n, d = x.shape
    if len(s) == 0 or len(s) > d + 1:
        return f"support has {len(s)} points, allowed 1..{d + 1}"
    members = {tuple(p) for p in x.tolist()}
    if any(tuple(p) not in members for p in s.tolist()):
        return "a support point is not a point of the net"
    if not (math.isfinite(radius) and radius >= 0.0):
        return f"radius {radius} is not a finite nonnegative number"
    if radius == 0.0:
        if n == 1 and np.array_equal(x[0], c):
            return None
        return "radius 0 for a net of more than one point"
    y = (x - c) / radius
    ys = (s - c) / radius
    reach = np.sqrt((y * y).sum(axis=1)).max()
    if reach > 1.0 + MEB_TOL:
        return f"a point lies at {reach:.12g} radii from the center"
    on = np.sqrt((ys * ys).sum(axis=1))
    if np.abs(on - 1.0).max() > MEB_TOL:
        return f"a support point lies at {on[np.argmax(np.abs(on - 1.0))]:.12g} radii"
    return _zero_in_hull(ys, MEB_TOL)


def _zero_in_hull(vectors, tol):
    """Error unless 0 is a convex combination of the rows of `vectors`."""
    k = len(vectors)
    a = np.vstack([vectors.T, np.ones((1, k))])
    b = np.zeros(a.shape[0])
    b[-1] = 1.0
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = np.abs(a @ w - b).max()
    if residual > tol:
        return f"center is off the support's affine hull by {residual:.3g}"
    if w.min() < -tol:
        return f"center is outside the support's hull (weight {w.min():.3g})"
    return None


def barycentric(support, center):
    """Least-squares weights of `center` over the support points."""
    s = np.asarray(support, dtype=float)
    a = np.vstack([s.T, np.ones((1, len(s)))])
    b = np.append(np.asarray(center, dtype=float), 1.0)
    return np.linalg.lstsq(a, b, rcond=None)[0]


def affine_image(orig, copy, scale, shift):
    """Check that `copy` = scale * orig + shift, for two (center, radius) pairs."""
    (c0, r0), (c1, r1) = orig, copy
    c0, c1 = np.asarray(c0, dtype=float), np.asarray(c1, dtype=float)
    size = r0 + np.abs(c0).max() + np.abs(shift).max() / scale
    dc = np.abs(c1 / scale - shift / scale - c0).max()
    if dc > MEB_TOL * size:
        return f"center of the copy is off the affine image by {dc / size:.3g} (relative)"
    if abs(r1 / scale - r0) > MEB_TOL * size:
        return f"radius of the copy is off the affine image by {abs(r1 / scale - r0) / size:.3g}"
    return None


def meb_enumerate(points):
    """Minimum enclosing ball of a small net by enumerating support subsets."""
    x = np.asarray(points, dtype=float)
    n, d = x.shape
    best = None
    scale = max(1.0, np.abs(x).max())
    for k in range(1, min(n, d + 1) + 1):
        for subset in itertools.combinations(range(n), k):
            p = x[list(subset)]
            if k == 1:
                c = p[0]
            else:
                dirs = p[1:] - p[0]
                gram = dirs @ dirs.T
                if np.linalg.matrix_rank(gram, tol=1e-12 * np.abs(gram).max()) < k - 1:
                    continue
                c = p[0] + np.linalg.solve(2.0 * gram, np.diag(gram)) @ dirs
            r = np.sqrt(((p - c) ** 2).sum(axis=1)).max()
            if best is not None and r >= best[1]:
                continue
            if np.sqrt(((x - c) ** 2).sum(axis=1)).max() <= r + 1e-12 * scale:
                best = (c, r)
    return best


def _pairwise(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def hausdorff(a, b):
    dist = _pairwise(a, b)
    return max(dist.min(axis=1).max(), dist.min(axis=0).max())


def _angle(at, b, c):
    u, v = b - at, c - at
    cos = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.acos(min(1.0, max(-1.0, cos)))


def _lemma4_constant(a, b):
    """Constant of Lemma 4 for the worst pair {u, v, w} and {u, v, z}.

    The nets share u and v; w and z lie on one ray from u, with w between
    u and z. The constant is 1/(2 sin phi), phi the angle at u, when the
    angles at u and v are acute and nonzero, and 1/2 otherwise.
    """
    shared = [p for p in a if any(np.array_equal(p, q) for q in b)]
    (w,) = [p for p in a if not any(np.array_equal(p, q) for q in shared)]
    (z,) = [p for p in b if not any(np.array_equal(p, q) for q in shared)]
    # u is the shared point that z lies beyond, in line with w.
    def off_line(p):
        e, f = w - p, z - p
        return abs(e[0] * f[1] - e[1] * f[0]) / np.linalg.norm(f)

    u, v = sorted(shared, key=off_line)
    phi, angle_v = _angle(u, v, w), _angle(v, u, w)
    if 0.0 < phi < math.pi / 2 and angle_v < math.pi / 2:
        return 1.0 / (2.0 * math.sin(phi))
    return 0.5


def _close(got, want, rel, what):
    if not abs(got - want) <= rel * max(1.0, abs(want)):
        return f"{what}: reported {got!r}, recomputed {want!r}"
    return None


def suite_report(doc, seed, trials):
    """Check one `suite-all` document against the paper and own recomputation."""
    if doc.get("seed") != seed or doc.get("pass") is not True:
        return f"suite-all document has seed {doc.get('seed')} and pass {doc.get('pass')}"
    reports = doc["reports"]
    for lemma, bound in PAPER_BOUNDS.items():
        rep = reports[lemma]
        if rep["trials"] != trials:
            return f"{lemma}: {rep['trials']} trials, asked for {trials}"
        if not rep["max_ratio"] <= bound + TAU_VERIFY:
            return f"{lemma}: max ratio {rep['max_ratio']!r} exceeds the paper's {bound!r}"
        if abs(rep["claimed_bound"] - bound) > 1e-15 or rep["pass"] is not True:
            return f"{lemma}: claimed bound {rep['claimed_bound']!r}, pass {rep['pass']}"
        err = _worst_sample(lemma, rep)
        if err:
            return err
    l3 = reports["L3"]
    for target, ratio in zip(l3["targets"], l3["achieved_ratios"]):
        err = _close(ratio, 2.0 * target, 1e-9, f"L3 ratio at target {target}")
        if err or not ratio > target:
            return err or f"L3 ratio {ratio} does not exceed {target}"
    # L3ii: u is the chord-1/4 point of the Euclidean family, inverted in the
    # unit circle; both centers are midpoints, so the displacement is |y-u|/2.
    l3ii = reports["L3ii"]
    theta = 2.0 * math.asin(0.25)
    z = np.array([0.5 + 0.5 * math.cos(theta), 0.5 * math.sin(theta)])
    u = z / (z @ z)
    limit = float(np.linalg.norm(np.array([1.0, 0.0]) - u)) / 2.0
    err = _close(l3ii["displacement_limit"], limit, 1e-12, "L3ii displacement limit")
    if err:
        return err
    if l3ii["max_displacement_deviation"] > 1e-9 * limit or l3ii["alpha_drop_factor"] < 10.0:
        return f"L3ii: deviation {l3ii['max_displacement_deviation']!r}, drop {l3ii['alpha_drop_factor']!r}"
    local = reports["local"]
    if local["pass"] is not True or not all(map(math.isfinite, local["sup_ratios"])):
        return "local: estimates are not finite and stable"
    return None


def _worst_sample(lemma, rep):
    sample = rep["worst_sample"]
    a = np.array(sample["net_a"]["points"], dtype=float)
    b = np.array(sample["net_b"]["points"], dtype=float)
    alpha = hausdorff(a, b)
    err = _close(sample["alpha"], alpha, 1e-12, f"{lemma} worst-sample alpha")
    if err:
        return err
    disp = float(np.linalg.norm(meb_enumerate(a)[0] - meb_enumerate(b)[0]))
    err = _close(sample["cheb_displacement"], disp, 1e-9, f"{lemma} worst-sample displacement")
    if err:
        return err
    ratio = disp / alpha
    if lemma == "L1":
        upper = alpha / (disp + (_pairwise(a, a).max() + _pairwise(b, b).max()) / 2.0)
        ratio = max(ratio, upper)
    elif lemma == "L4":
        ratio /= _lemma4_constant(a, b)
    return _close(rep["max_ratio"], ratio, 1e-9, f"{lemma} max ratio of the worst sample")


# --------------------------------------------------------------- hyperbolic

_ETA = np.diag([1.0, -1.0, -1.0]).astype(np.longdouble)


def _on_sheet(v):
    v = np.asarray(v, dtype=np.longdouble)
    return v / np.sqrt(v[..., :1] ** 2 - (v[..., 1:] ** 2).sum(axis=-1, keepdims=True))


def boost_to_origin(c):
    """Lorentz boost (in long double) that takes the sheet point c to (1, 0, 0)."""
    c = _on_sheet(c)
    v = c[1:]
    b = np.empty((3, 3), dtype=np.longdouble)
    b[0, 0] = c[0]
    b[0, 1:] = -v
    b[1:, 0] = -v
    b[1:, 1:] = np.eye(2, dtype=np.longdouble) + np.outer(v, v) / (1 + c[0])
    return b


# Absolute slack for h_cheb3's Newton branch, which stops once the distances
# to the three points agree to 1e-12.
NEWTON_SLACK = 1e-11


def h_tolerance(points):
    """Absolute accuracy of a hyperboloid-model distance among these points.

    Coordinates of size x0 = cosh(distance to the origin) carry rounding of
    about eps * x0 and fix positions to about eps * x0**2 in distance.
    """
    x0 = float(np.max(np.asarray(points, dtype=float)[:, 0]))
    return NEWTON_SLACK + 256.0 * np.finfo(float).eps * x0 * x0


def h_certificate(points, center, radius, atol):
    """Hyperbolic minimum-enclosing-ball certificate, in the hyperboloid model.

    After the boost that takes the center to the origin, a point at distance
    t has spatial part sinh(t) * u with u a unit vector. The ball is minimal
    when every t <= r, the points at t = r exist, and 0 is a convex
    combination of their directions u, i.e. the center is proportional to a
    nonnegative combination of the support points.
    """
    q = _on_sheet(points) @ boost_to_origin(center).T
    spatial = q[:, 1:]
    norm = np.sqrt((spatial * spatial).sum(axis=1))
    t = np.arcsinh(norm).astype(float)
    tol = atol + 1e-9 * radius
    if t.max() > radius + tol:
        return f"a point lies at {t.max()!r}, beyond the radius {radius!r}"
    on = np.abs(t - radius) <= tol
    if on.sum() < 2:
        return f"{on.sum()} points on the sphere of radius {radius!r} (max distance {t.max()!r})"
    dirs = (spatial[on] / norm[on, None]).astype(float)
    # A distance error of tol turns the directions by up to about tol / r.
    return _zero_in_hull(dirs, 1e-6 + tol / radius)


def h_distance_matrix(a, b):
    """Geodesic distances by the chord form 2 asinh(|a - b|_M / 2)."""
    a, b = _on_sheet(a), _on_sheet(b)
    w = a[:, None, :] - b[None, :, :]
    chord2 = -(w @ _ETA * w).sum(axis=2)
    return (2.0 * np.arcsinh(np.sqrt(np.maximum(chord2, 0)) / 2.0)).astype(float)


def h_hausdorff(a, b):
    dist = h_distance_matrix(a, b)
    return max(dist.min(axis=1).max(), dist.min(axis=0).max())


def h_center_enumerate(points):
    """Hyperbolic minimum enclosing ball of three points by enumeration.

    Candidates are the geodesic midpoints of the pairs and the point
    equidistant from all three, x proportional to G^-1 1 over the Minkowski
    Gram matrix G; the smallest candidate that covers the points wins.
    """
    p = _on_sheet(points)
    cands = [_on_sheet(p[i] + p[j]) for i, j in itertools.combinations(range(len(p)), 2)]
    gram = p @ _ETA @ p.T
    lam = np.linalg.solve(gram.astype(float), np.ones(len(p)))
    x = lam @ p
    if x[0] > 0 and x[0] ** 2 - (x[1:] ** 2).sum() > 0:
        cands.append(_on_sheet(x))
    best = None
    for c in cands:
        t = h_distance_matrix(c[None, :], p)[0]
        r = t.max()
        if best is None or r < best[1]:
            best = (c, r)
    return best
