"""Displacement-to-distance samples for the center map, and local estimation.

A LipschitzSample packages one pair of nets with their Hausdorff distance,
the displacement of their Chebyshev centers, and the ratio of the two; the
empirical local Lipschitz constant of a neighbourhood is the supremum of
that ratio over sampled pairs.

Runs of many pairs go through one array pipeline, shared with the
verifiers: the pairs are drawn as coordinate arrays (`Draws`,
`draw_trials`), `screen_pairs` measures them all at once with the batch
kernel `cheb_batch` and the broadcast `alpha_batch`, and `screened_worst`
re-measures with the scalar `sample_pair` only the pairs whose screened
ratio can reach the largest within its error bound (`screen_error`).
Net and LipschitzSample objects are built only for those, and the
reported figures are theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

from . import hausdorff
from .chebyshev import cheb_ball, cheb_batch
from .errors import DomainError, InconsistencyError
from .geometry import Net
from .tolerances import TAU_SCREEN, geom_tol

LEMMA_IDS = ("L1", "L2", "L4", "S1", "S2i", "S2ii")

# Net pairs measured per batch by `screen_pairs`.
SCREEN_CHUNK = 256


@dataclass(frozen=True)
class LipschitzSample:
    """One net pair with alpha distance, center displacement and their ratio."""

    net_a: Net
    net_b: Net
    alpha_ab: float
    cheb_displacement: float
    ratio: float


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one verifier run.

    `passed` is exactly `max_ratio <= claimed_bound + TAU_VERIFY`; the JSON
    key stays "pass" (a Python keyword, hence the attribute name).
    """

    lemma_id: str
    trials: int
    max_ratio: float
    claimed_bound: float
    worst_sample: LipschitzSample
    passed: bool

    def __post_init__(self):
        if self.lemma_id not in LEMMA_IDS:
            raise DomainError(f"unknown lemma id {self.lemma_id!r}")


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Sampling plan for one Hausdorff ball around a base net."""

    base_net: Net
    epsilon: float
    sample_count: int
    seed: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        if self.sample_count < 1:
            raise DomainError("sample_count must be at least 1")


def worst_of(items: Iterable, ratio: Callable = attrgetter("ratio")) -> tuple[float, object]:
    """Largest `ratio(item)` over `items` and the first item that reaches it.

    The comparison is strict, so ties keep the earlier item. An empty
    iterable gives (-1.0, None).
    """
    max_ratio = -1.0
    worst = None
    for item in items:
        r = ratio(item)
        if r > max_ratio:
            max_ratio = r
            worst = item
    return max_ratio, worst


def sample_pair(m: Net, z: Net) -> LipschitzSample:
    """Measure one pair: alpha, center displacement and their ratio."""
    return _sample_from(m, cheb_ball(m)[0], z)


def _sample_from(m: Net, center_m: tuple[float, ...], z: Net) -> LipschitzSample:
    """`sample_pair(m, z)` given m's center coordinates, for callers that reuse one m."""
    a = hausdorff.alpha(m, z)
    disp = math.dist(center_m, cheb_ball(z)[0])
    if a == 0.0:
        if disp > geom_tol(_net_scale(m)):
            raise InconsistencyError(
                f"alpha is 0 but centers moved by {disp}; center solve is broken"
            )
        return LipschitzSample(m, z, 0.0, disp, 0.0)
    return LipschitzSample(m, z, a, disp, disp / a)


def _net_scale(net: Net) -> float:
    return float(np.abs(net.array).max())


def min_pairwise_distance(net: Net) -> float:
    pts = net.coord_list()
    if len(pts) < 2:
        raise DomainError("min pairwise distance needs at least two points")
    return min(
        math.dist(pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))
    )


def default_epsilon(net: Net) -> float:
    """Neighbourhood radius: smallest pairwise distance divided by 8."""
    return min_pairwise_distance(net) / 8.0


class Draws:
    """The doubles of `rng.random()`, handed out in order.

    `take(count)` draws only what its buffer lacks, so a stream read to the
    end consumes the generator exactly as the equivalent calls of
    `rng.uniform`, whose value is `low + (high - low) * random()`. `rewind`
    hands the last doubles taken out again.
    """

    def __init__(self, rng):
        self.rng = rng
        self.buf = np.empty(0)
        self.pos = 0

    def take(self, count: int) -> np.ndarray:
        if self.pos + count > len(self.buf):
            fresh = self.rng.random(self.pos + count - len(self.buf))
            self.buf = np.concatenate([self.buf[self.pos:], fresh])
            self.pos = 0
        self.pos += count
        return self.buf[self.pos - count:self.pos]

    def rewind(self, count: int) -> None:
        self.pos -= count

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Same values as `rng.uniform(low, high, size)` would draw here."""
        return low + (high - low) * self.take(int(np.prod(size))).reshape(size)


def _net_points(rng, size: int, dim: int) -> list[tuple[float, ...]]:
    """Points of `random_net(rng, size, dim)` in draw order; `rng` may be `Draws`."""
    # One block draw is the same stream as `size` draws of one point each.
    pts = list(dict.fromkeys(map(tuple, rng.uniform(-1.0, 1.0, size=(size, dim)).tolist())))
    while len(pts) < size:  # an exact repeat was drawn: skip it and draw on
        p = tuple(rng.uniform(-1.0, 1.0, size=dim).tolist())
        if p not in pts:
            pts.append(p)
    return pts


def random_net(rng: np.random.Generator, size: int, dim: int) -> Net:
    """Net with i.i.d. uniform [-1, 1] coordinates and exactly-distinct points."""
    return Net.of(_net_points(rng, size, dim))


def _has_repeat(nets: np.ndarray) -> np.ndarray:
    """Mask of the nets in a (K, n, d) array that hold some point twice."""
    same = (nets[:, :, None, :] == nets[:, None, :, :]).all(axis=-1)
    i, j = np.triu_indices(nets.shape[1], 1)
    return same[:, i, j].any(axis=1)


def draw_trials(draws: Draws, count: int, parts) -> np.ndarray:
    """`count` trials drawn one after another, as a (count, width) array.

    `parts` lists one trial's draws: an int k is k plain doubles of
    `draws`, a pair (size, dim) the flattened points of
    `random_net(draws, size, dim)` in draw order. A block of trials is read
    at once; a trial whose net drew an exact repeat, and so read more
    doubles, is parsed alone and the block is read again after it.
    """
    spans = []
    for part in parts:
        width = part if isinstance(part, int) else part[0] * part[1]
        start = spans[-1][1] if spans else 0
        spans.append((start, start + width, part))
    width = spans[-1][1]
    rows = []
    while count:
        block = draws.take(count * width).reshape(count, width).copy()
        repeat = np.zeros(count, bool)
        for start, stop, part in spans:
            if not isinstance(part, int):
                block[:, start:stop] = -1.0 + 2.0 * block[:, start:stop]
                repeat |= _has_repeat(block[:, start:stop].reshape(count, *part))
        first = int(repeat.argmax()) if repeat.any() else count
        rows.append(block[:first])
        if first == count:
            break
        draws.rewind((count - first) * width)
        rows.append(np.concatenate([
            draws.take(part) if isinstance(part, int) else np.ravel(_net_points(draws, *part))
            for _, _, part in spans
        ])[None])
        count -= first + 1
    return np.concatenate(rows)


def screen_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alpha, center displacement and coordinate scale of K net pairs.

    `a` and `b` are (K, n, d) and (K, m, d) arrays (either K may be 1);
    alpha and the centers come from the batch kernels, the scale is the
    largest absolute coordinate of the pair. The pairs are measured
    SCREEN_CHUNK at a time, which bounds the temporaries.
    """
    count = max(len(a), len(b))
    alpha, disp = np.empty(count), np.empty(count)
    for lo in range(0, count, SCREEN_CHUNK):
        part_a, part_b = (x if len(x) == 1 else x[lo:lo + SCREEN_CHUNK] for x in (a, b))
        hi = lo + max(len(part_a), len(part_b))
        alpha[lo:hi] = hausdorff.alpha_batch(part_a, part_b)
        disp[lo:hi] = np.linalg.norm(cheb_batch(part_a)[0] - cheb_batch(part_b)[0], axis=-1)
    scale = np.maximum(np.abs(a).max(axis=(1, 2)), np.abs(b).max(axis=(1, 2)))
    return alpha, disp, np.broadcast_to(scale, (count,))


def screen_error(ratio: np.ndarray, scale: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Bound on the error of screened ratios that divide by `length`.

    TAU_SCREEN relative, plus the ratio's change when a center moves by
    TAU_SCREEN * scale; the batch kernel's centers are far closer than that
    to the solver's, but a ratio over a short length (a small alpha)
    amplifies their rounding.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return TAU_SCREEN * (ratio + scale / length)


def screen_ratios(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Screened displacement/alpha ratio of each pair, and its error bound.

    The ratio is NaN where alpha is 0; a NaN (also from a net the kernel
    cannot certify) sends the pair to the scalar re-measure.
    """
    alpha, disp, scale = screen_pairs(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(alpha > 0.0, disp / alpha, np.nan)
    return ratio, screen_error(ratio, scale, alpha)


def screened_worst(
    ratios: np.ndarray, errors: np.ndarray, measure: Callable, ratio: Callable = attrgetter("ratio")
):
    """Worst trial of a batch, as `worst_of` over every trial would find it.

    `ratios` are the screened figures, `errors` bounds on their errors, and
    `measure(i)` re-measures trial i with the scalar path. Every trial that
    can reach the largest figure within these bounds (the trials within
    TAU_SCREEN relative of the batch maximum among them), and every trial
    whose figure is not finite, is re-measured in trial order, so ties
    keep the first trial.
    """
    finite = np.isfinite(ratios) & np.isfinite(errors)
    floor = (ratios - errors)[finite].max() if finite.any() else np.inf
    picks = np.flatnonzero(~finite | (ratios + errors >= floor))
    return worst_of(map(measure, picks.tolist()), ratio)


def _ball_offset(rng: np.random.Generator, dim: int, radius: float) -> list[float]:
    """Uniform draw from the open Euclidean ball of the given radius."""
    v = rng.normal(size=dim)
    norm = math.sqrt(v.dot(v))  # np.linalg.norm(v), without its overhead
    while norm == 0.0:
        v = rng.normal(size=dim)
        norm = math.sqrt(v.dot(v))
    scale = radius * rng.random() ** (1.0 / dim) / norm
    return [x * scale for x in v.tolist()]


def _perturbed_points(rng: np.random.Generator, base, epsilon: float, dim: int):
    """Points of `perturbed_net` for the base net's coordinate tuples."""
    while True:
        pts = [tuple(c + o for c, o in zip(p, _ball_offset(rng, dim, epsilon))) for p in base]
        if len(set(pts)) == len(pts):
            return pts


def perturbed_net(rng: np.random.Generator, base: Net, epsilon: float) -> Net:
    """Move every point of the base net independently within epsilon.

    Each point stays within epsilon of its original, so the result lies in
    the open alpha-ball of radius epsilon around the base net.
    """
    return Net.of(_perturbed_points(rng, base.coord_list(), epsilon, base.dim))


def estimate_local_lipschitz(spec: NeighborhoodSpec) -> tuple[float, LipschitzSample]:
    """Supremum of displacement/alpha over sampled pairs in one alpha-ball.

    Pairs are drawn sequentially from a single seeded stream, so the result
    for a larger sample_count extends (and dominates) a smaller one. The
    pairs are screened as one batch and the worst re-measured
    (`screened_worst`).
    """
    base = spec.base_net
    if len(base) >= 2:
        merge_limit = min_pairwise_distance(base) / 2.0
        if spec.epsilon >= merge_limit:
            raise DomainError(
                f"epsilon {spec.epsilon} >= min pairwise distance / 2 = {merge_limit}; "
                "perturbed nets could merge points"
            )
    rng = np.random.default_rng(spec.seed)
    coords, eps, dim = base.coord_list(), spec.epsilon, base.dim
    pairs = np.array([
        [_perturbed_points(rng, coords, eps, dim), _perturbed_points(rng, coords, eps, dim)]
        for _ in range(spec.sample_count)
    ])

    def measure(i: int) -> LipschitzSample:
        return sample_pair(Net.of(pairs[i, 0]), Net.of(pairs[i, 1]))

    return screened_worst(*screen_ratios(pairs[:, 0], pairs[:, 1]), measure)
