"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them on
passing runs). Random draws are seeded, so the whole gate is reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

from chebnets.cli import main
from chebnets.counterexamples import (
    _euclidean_family,
    lemma3_counterexample,
    lemma3_hyperbolic_counterexample,
    lemma3_nonuniform_sequence,
)
from chebnets.chebyshev import cheb, cheb_oracle
from chebnets.geometry import Net, Point, distance
from chebnets.hyperbolic import (
    HyperbolicTriangle,
    h_midpoint,
    h_project_to_geodesic,
    right_triangle_identity_check,
)
from chebnets.lipschitz import (
    NeighborhoodSpec,
    default_epsilon,
    estimate_local_lipschitz,
    random_net,
    sample_pair,
)
from chebnets.verifiers import (
    lemma4_constant,
    verify_lemma1,
    verify_lemma2,
    verify_lemma4_random,
    verify_statement1,
    verify_statement2,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_meb_against_oracle():
    rng = np.random.default_rng(2024)
    trials = 10_000
    worst_radius = 0.0
    worst_center = 0.0
    start = time.perf_counter()
    for _ in range(trials):
        net = random_net(rng, int(rng.integers(2, 11)), int(rng.integers(1, 6)))
        fast = cheb(net)
        oracle = cheb_oracle(net)
        scale = max(1.0, oracle.radius)
        worst_radius = max(worst_radius, abs(fast.radius - oracle.radius) / scale)
        worst_center = max(worst_center, distance(fast.center, oracle.center) / scale)
    elapsed = time.perf_counter() - start
    ok = worst_radius <= 1e-9 and worst_center <= 1e-8 and elapsed < 30.0
    report(
        1,
        ok,
        f"{trials} nets: radius dev {worst_radius:.2e} (<=1e-9), "
        f"center dev {worst_center:.2e} (<=1e-8), {elapsed:.1f}s (<30s)",
    )


def test_criterion_02_line_non_expansion():
    r = verify_lemma2(10_000, 5, seed=7)
    ok = r.max_ratio <= 1 + 1e-7
    report(2, ok, f"10^4 pairs on the line: max ratio {r.max_ratio:.12g} <= 1 + 1e-7")


def test_criterion_03_two_net_sandwich():
    worst = 0.0
    for dim in range(1, 6):
        r = verify_lemma1(2_000, dim, seed=dim)
        worst = max(worst, r.max_ratio)
    ok = worst <= 1 + 1e-7
    report(3, ok, f"10^4 two-net pairs, dims 1-5: worst normalized side {worst:.12g} <= 1 + 1e-7")


def test_criterion_04_collinear_perturbation_bound():
    r = verify_lemma4_random(10_000, 2, seed=11, extensions_per_config=100)
    phi = 0.6
    u = Point((0.0, 0.0))
    v = Point((math.cos(phi), math.sin(phi)))
    tight = sample_pair(
        Net((u, v, Point((0.9, 0.0)))), Net((u, v, Point((1.1, 0.0))))
    )
    bound = lemma4_constant(u, v, Point((0.9, 0.0)))
    tight_dev = abs(tight.ratio - 1 / (2 * math.sin(phi)))
    ok = r.max_ratio <= 1 + 1e-7 and bound == pytest.approx(1 / (2 * math.sin(phi))) and tight_dev <= 1e-6
    report(
        4,
        ok,
        f"100x100 extensions: max ratio/bound {r.max_ratio:.12g} <= 1 + 1e-7; "
        f"tight case deviates {tight_dev:.2e} (<=1e-6) from 1/(2 sin phi)",
    )


def test_criterion_05_disjoint_ball_constants():
    r3 = verify_statement1(10_000, 3, 2, seed=13)
    r4 = verify_statement1(10_000, 4, 2, seed=13)
    r5 = verify_statement1(10_000, 5, 2, seed=13)
    ok = (
        r3.max_ratio <= math.sqrt(2) + 1e-7
        and r4.max_ratio <= GOLDEN + 1e-7
        and r5.max_ratio <= GOLDEN + 1e-7
    )
    report(
        5,
        ok,
        f"disjoint balls: N=3 max {r3.max_ratio:.6f} <= 1.4142135624; "
        f"N=4 max {r4.max_ratio:.6f}, N=5 max {r5.max_ratio:.6f} <= 1.6180339887",
    )


def test_criterion_06_hull_contact_bounds():
    edge = verify_statement2(10_000, 2, seed=17, part="i")
    vertex = verify_statement2(10_000, 2, seed=17, part="ii")
    ok = edge.max_ratio <= 1 + 1e-7 and vertex.max_ratio <= 2 + 1e-7
    report(
        6,
        ok,
        f"shared edge max {edge.max_ratio:.9f} <= 1 + 1e-7; "
        f"shared vertex max {vertex.max_ratio:.9f} <= 2 + 1e-7",
    )


def test_criterion_07_euclidean_blowup():
    results = []
    for target in (1.0, 10.0, 100.0, 1000.0):
        m, _, ratio = lemma3_counterexample(target)
        y = Point((1.0, 0.0))
        z = next(p for p in m if p.coords not in ((0.0, 0.0), (1.0, 0.0)))
        formula = 1.0 / (2.0 * distance(y, z))
        results.append((target, ratio, abs(ratio - formula) / formula))
    ok = all(r > t and dev <= 1e-6 for t, r, dev in results)
    detail = "; ".join(f"L={t:g}: ratio {r:.6g} (dev {dev:.1e})" for t, r, dev in results)
    report(7, ok, detail)


def test_criterion_08_hyperbolic_blowup_and_identities():
    m, w_net, ratio = lemma3_hyperbolic_counterexample(10.0)
    x, y, _ = m
    u = w_net[2]
    v = h_midpoint(x, y)
    w = h_midpoint(x, u)
    p = h_project_to_geodesic(v, x, w)
    res_xvw = right_triangle_identity_check(HyperbolicTriangle((v, x, w)), right_vertex=0)
    res_wpv = right_triangle_identity_check(HyperbolicTriangle((p, w, v)), right_vertex=0)
    worst = max(*res_xvw, *res_wpv)
    ok = ratio > 10.0 and worst <= 1e-9
    report(8, ok, f"hyperbolic ratio {ratio:.4f} > 10; identity residuals <= {worst:.2e} (<=1e-9)")


def test_criterion_09_nonuniform_continuity():
    rows = lemma3_nonuniform_sequence(1000)
    alphas = [r[2] for r in rows]
    disps = [r[3] for r in rows]
    drop = alphas[9] / alphas[999]
    # The displacement limit is half the separation between y and the
    # matching point u: both centers are midpoints of segments sharing the
    # moving endpoint, so the displacement is |y-u|/2 for every n.
    base_m, base_w = _euclidean_family(0.25)
    u = next(p for p in base_w if p.coords not in ((0.0, 0.0), (1.0, 0.0)))
    limit = distance(Point((1.0, 0.0)), u) / 2
    dev = max(abs(d - limit) for d in disps) / limit
    ok = drop >= 10.0 and dev <= 0.01
    report(
        9,
        ok,
        f"alpha(10)/alpha(1000) = {drop:.1f} >= 10; displacement within {dev:.2%} of its limit {limit:.6f}",
    )


def test_criterion_10_local_lipschitz_stability_and_blowup():
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    finite = True
    for _ in range(20):
        size = int(rng.integers(3, 7))
        dim = int(rng.integers(2, 4))
        base = random_net(rng, size, dim)
        eps = default_epsilon(base)
        sup, _ = estimate_local_lipschitz(NeighborhoodSpec(base, eps, 1000, 0))
        sup_half, _ = estimate_local_lipschitz(NeighborhoodSpec(base, eps / 2, 1000, 0))
        finite = finite and math.isfinite(sup) and math.isfinite(sup_half)
        worst_gap = max(worst_gap, abs(sup - sup_half) / max(sup, sup_half))

    sups = []
    for chord in (0.2, 0.1, 0.05, 0.025):
        base, _ = _euclidean_family(chord)
        spec = NeighborhoodSpec(base, default_epsilon(base), 1000, 0)
        sup, _ = estimate_local_lipschitz(spec)
        sups.append(sup)
    monotone = all(a < b for a, b in zip(sups, sups[1:]))
    ok = finite and worst_gap < 0.5 and monotone and sups[-1] > 5.0
    report(
        10,
        ok,
        f"20 random bases: worst eps vs eps/2 gap {worst_gap:.1%} (<50%); "
        f"near-degenerate family sups {[f'{s:.2f}' for s in sups]} rising, last > 5",
    )


def test_criterion_11_suite_determinism(capsys):
    argv = ["suite_all", "--seed", "7", "--quiet"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    doc = json.loads(first)
    ok = first == second and doc["pass"] is True
    with capsys.disabled():
        report(
            11,
            ok,
            f"suite_all --seed 7 twice: byte-identical={first == second}, all reports pass={doc['pass']}",
        )
