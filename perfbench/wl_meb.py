"""`meb` workload: `cheb` on nets built during set-up.

One operation is one net solved. `geometry` and `verifiers` sit idle while
`chebyshev` does almost all the work. The nets of one round, by class:

- small: the criterion-1 distribution, n 2..10 and d 1..5, each shape
  equally often;
- medium (n 100..400) and large (n 1000..3000), d 1..6; those of d 5 and
  6 are the same for every seed;
- structured: cospherical, collinear in 6-d, flats in 6-d, grids;
- translated copies and copies scaled by 1e100 and 1e-100 of some small
  and all structured nets, counted in their original's class;
- far: four nets with |coords| >= 1e160, the same for every seed. `cheb`
  raises DegenerateInputError on each of them (its squared lengths
  overflow), so they are counted as failed operations;
- near-duplicate: 200 nets whose points each have a twin 1e-9 or 1e-7
  away, the same for every seed and counted as structured. `cheb` raises
  DegenerateInputError on one of them, which is counted as failed too.
"""

from __future__ import annotations

import numpy as np

import certify
from chebnets import chebyshev
from chebnets.errors import DegenerateInputError
from chebnets.geometry import Net

# Every (n, d) of the criterion-1 distribution, n 2..10 and d 1..5, this
# many times: a fixed mix keeps the median operation time steady across seeds.
SMALL_PER_SHAPE = 5
# (number of points, dimension) -> nets per round. The solve time of one
# net of d 5 or 6 varies by up to 5x with its points (53-255 ms for n 1000,
# d 6 over six seeds), so a round holds few of them, the same in every run,
# and many nets of d <= 4 made from --seed: the round's time then varies
# little with the seed.
MEDIUM = {(100, 1): 4, (100, 2): 4, (100, 3): 4, (100, 4): 4, (100, 5): 2, (100, 6): 1,
          (200, 2): 4, (200, 3): 4, (200, 4): 4, (200, 5): 1,
          (400, 1): 4, (400, 2): 4, (400, 3): 6, (400, 4): 6}
LARGE = {(1000, 1): 4, (1000, 2): 6, (1000, 3): 10, (1000, 4): 10, (1000, 6): 1,
         (2000, 2): 6, (2000, 3): 10, (2000, 4): 6,
         (3000, 1): 4, (3000, 2): 6, (3000, 3): 10, (3000, 4): 6}
# Every this-many-th small net gets translated and scaled copies.
SMALL_COPY_STEP = 15
COPY_SCALES = (1e100, 1e-100)
# Seed of the far and near-duplicate nets, which do not depend on --seed:
# cheb fails on some of them, and the same ones must fail in every run.
# The medium and large nets of d >= 5 are fixed too (seed FIXED_SEED + 1).
FIXED_SEED = 20240917
FAR_SCALES = (1e160, 1e200, 1e250, 1e300)
NEAR_NETS = 200
NEAR_GAPS = (1e-9, 1e-7)
FIXED_CLASSES = ("far", "neardup")


def _rotation(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q


def _structured(rng):
    nets = []
    for d in (2, 3, 4):  # cospherical: random points of one sphere
        for n in (12, 36):
            v = rng.normal(size=(n, d))
            nets.append(rng.uniform(-1, 1, d) + rng.uniform(0.5, 2.0) * v
                        / np.linalg.norm(v, axis=1)[:, None])
    for k in (8, 12):  # regular polygons
        theta = 2 * np.pi * np.arange(k) / k + rng.uniform(0, 2 * np.pi)
        nets.append(np.c_[np.cos(theta), np.sin(theta)])
    for n in (5, 10, 15, 20):  # collinear in 6-d
        u = rng.normal(size=6)
        nets.append(rng.uniform(-1, 1, 6) + rng.uniform(-1, 1, n)[:, None] * u / np.linalg.norm(u))
    for k in (2, 3):  # on a k-flat in 6-d
        for n in (10, 30):
            basis = _rotation(rng, 6)[:, :k]
            nets.append(rng.uniform(-1, 1, 6) + rng.uniform(-1, 1, (n, k)) @ basis.T)
    for shape in ((5, 5), (4, 4), (3, 3, 3), (2, 2, 2, 2)):  # grids, rotated and axis-aligned
        grid = np.stack(np.meshgrid(*[np.arange(s) for s in shape], indexing="ij"), -1)
        grid = grid.reshape(-1, len(shape)).astype(float)
        nets.append(grid @ _rotation(rng, len(shape)).T + rng.uniform(-5, 5, len(shape)))
        nets.append(grid + rng.integers(-5, 6, len(shape)))
    return nets


def _near_duplicates(rng):
    """Nets of 4..8 points in 3-d and 4-d, each point with a twin close by."""
    nets = []
    for i in range(NEAR_NETS):
        base = rng.uniform(-1, 1, (int(rng.integers(4, 9)), 3 + i % 2))
        gap = NEAR_GAPS[(i // 2) % len(NEAR_GAPS)]
        nets.append(np.vstack([base, base + gap * rng.normal(size=base.shape)]))
    return nets


class Workload:
    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        coords = []  # (class, array, (original index, scale, shift) or None)
        for _ in range(SMALL_PER_SHAPE):
            for n in range(2, 11):
                coords += [("small", rng.uniform(-1, 1, (n, d)), None) for d in range(1, 6)]
        small = len(coords)
        high = np.random.default_rng(FIXED_SEED + 1)
        for cls, table in (("medium", MEDIUM), ("large", LARGE)):
            for (n, d), count in table.items():
                src = high if d >= 5 else rng
                coords += [(cls, src.uniform(-1, 1, (n, d)), None) for _ in range(count)]
        first_structured = len(coords)
        coords += [("structured", x, None) for x in _structured(rng)]
        for i in list(range(0, small, SMALL_COPY_STEP)) + list(range(first_structured, len(coords))):
            cls, x, _ = coords[i]
            shift = rng.uniform(-1, 1, x.shape[1]) * 10.0 ** rng.uniform(0, 3)
            coords.append((cls, x + shift, (i, 1.0, shift)))
            for scale in COPY_SCALES:
                coords.append((cls, x * scale, (i, scale, np.zeros(x.shape[1]))))
        far = np.random.default_rng(FIXED_SEED)
        coords += [("far", far.uniform(-1, 1, (6, 3)) * s, None) for s in FAR_SCALES]
        near = np.random.default_rng(FIXED_SEED)
        coords += [("neardup", x, None) for x in _near_duplicates(near)]

        self.inputs = [(cls, Net.of(x.tolist()), source) for cls, x, source in coords]
        self.ops = [(f"bench.meb.{cls}", self._op(cls, net)) for cls, net, _ in self.inputs]
        self.class_of_op = {f"bench.meb.{cls}": "structured" if cls == "neardup" else cls
                            for cls, _, _ in self.inputs}

    @staticmethod
    def _op(cls, net):
        if cls not in FIXED_CLASSES:
            return lambda: chebyshev.cheb(net)

        def fixed_op():
            try:
                return chebyshev.cheb(net)
            except DegenerateInputError:
                return None

        return fixed_op

    def warm(self):
        seen = set()
        for (cls, _, _), (_, op) in zip(self.inputs, self.ops):
            if cls not in seen and cls != "large":
                seen.add(cls)
                op()

    def check(self, results):
        errors = []
        for i, ((cls, net, source), res) in enumerate(zip(self.inputs, results)):
            if res is None:
                continue  # only far and near-duplicate nets may fail; others raise
            pts = net.coord_list()
            err = certify.meb_certificate(pts, res.center.coords, res.radius,
                                          [p.coords for p in res.support])
            if err is None and source is not None:
                orig, scale, shift = source
                o = results[orig]
                err = certify.affine_image((o.center.coords, o.radius),
                                           (res.center.coords, res.radius), scale, shift)
            if err:
                errors.append(f"net {i} ({cls}, {len(net)}x{net.dim}): {err}")
        return errors

    def selftest(self, results):
        """A shifted center, an inflated radius and a dropped support point must all be rejected."""
        errors = []
        picked = [(net, res) for (cls, net, _), res in zip(self.inputs, results)
                  if cls in ("small", "structured") and len(res.support) >= 2][:8]
        for net, res in picked:
            pts = net.coord_list()
            c = np.array(res.center.coords)
            support = np.array([p.coords for p in res.support])
            w = certify.barycentric(support, c)
            corrupted = {
                "shifted center": (c + 1e-4 * res.radius / np.sqrt(net.dim), res.radius, support),
                "inflated radius": (c, res.radius * (1 + 1e-6), support),
                "dropped support point": (c, res.radius, np.delete(support, np.argmax(w), axis=0)),
            }
            for what, (cc, rr, ss) in corrupted.items():
                if certify.meb_certificate(pts, cc, rr, ss) is None:
                    errors.append(f"certificate accepted a {what} on a {len(net)}x{net.dim} net")
        return errors
