import math

import numpy as np
import pytest

import chebnets.lipschitz as lip
import chebnets.verifiers as verifiers
from chebnets.errors import DegenerateInputError, DomainError, SamplingBudgetError
from chebnets.geometry import Net, Point, diameter
from chebnets.lipschitz import sample_pair
from chebnets.verifiers import (
    lemma4_constant,
    verify_lemma1,
    verify_lemma2,
    verify_lemma4,
    verify_lemma4_random,
    verify_statement1,
    verify_statement2,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def triangle_with_angle_at_u(phi, reach=1.0):
    u = Point((0.0, 0.0))
    v = Point((1.0, 0.0))
    w = Point((reach * math.cos(phi), reach * math.sin(phi)))
    return u, v, w


def test_lemma4_constant_branches():
    u, v, w = triangle_with_angle_at_u(math.pi / 2)
    assert lemma4_constant(u, v, w) == 0.5
    u, v, w = triangle_with_angle_at_u(math.pi / 6)
    assert lemma4_constant(u, v, w) == pytest.approx(1.0, rel=1e-12)
    u, v, w = triangle_with_angle_at_u(math.pi / 4)
    assert lemma4_constant(u, v, w) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    # obtuse at v: w just past v along the ray through it
    assert lemma4_constant(Point((0, 0)), Point((1, 0)), Point((1.2, 0.01))) == 0.5
    with pytest.raises(DegenerateInputError):
        lemma4_constant(Point((0, 0)), Point((0, 0)), Point((1, 0)))


def test_lemma1_hand_examples():
    m = Net.of([(0.0,), (2.0,)])
    z = Net.of([(10.0,), (14.0,)])
    s = sample_pair(m, z)
    assert s.cheb_displacement == 11
    assert s.alpha_ab == 12
    assert s.alpha_ab <= s.cheb_displacement + (diameter(m) + diameter(z)) / 2

    m2 = Net.of([(-1.0,), (1.0,)])
    z2 = Net.of([(-2.0,), (2.0,)])
    s2 = sample_pair(m2, z2)
    assert s2.cheb_displacement == 0
    assert s2.alpha_ab == 1
    assert s2.alpha_ab <= 0 + (diameter(m2) + diameter(z2)) / 2


def test_verify_lemma1_quick():
    for dim in (1, 3):
        report = verify_lemma1(500, dim, seed=2)
        assert report.passed
        assert report.lemma_id == "L1"
        assert report.trials == 500
        assert report.passed == (report.max_ratio <= report.claimed_bound + 1e-7)


def test_verify_lemma2_quick_and_translation_tightness():
    report = verify_lemma2(500, 5, seed=2)
    assert report.passed and report.claimed_bound == 1.0
    shifted = sample_pair(Net.of([(0.0,), (1.0,), (2.0,)]), Net.of([(5.0,), (6.0,), (7.0,)]))
    assert shifted.ratio == 1.0


def test_verify_lemma4_planted_tight_case():
    phi = 0.6
    u = Point((0.0, 0.0))
    v = Point((math.cos(phi), math.sin(phi)))
    w = Point((0.9, 0.0))
    z = Point((1.1, 0.0))
    bound = lemma4_constant(u, v, w)
    assert bound == pytest.approx(1 / (2 * math.sin(phi)), rel=1e-12)
    s = sample_pair(Net((u, v, w)), Net((u, v, z)))
    assert s.ratio == pytest.approx(bound, abs=1e-6)


def test_verify_lemma4_single_config():
    u, v, w = triangle_with_angle_at_u(0.5, reach=0.7)
    report = verify_lemma4(u, v, w, extensions=300, seed=4)
    assert report.passed
    assert report.claimed_bound == pytest.approx(lemma4_constant(u, v, w), rel=1e-12)
    with pytest.raises(DegenerateInputError):
        verify_lemma4(u, u, w, extensions=10)
    with pytest.raises(DomainError):
        verify_lemma4(u, v, w, extensions=0)


def test_verify_lemma4_solves_the_base_net_once(monkeypatch):
    # An obtuse angle at u ties every extension at ratio 1/2, so the screen
    # sends many of them to the scalar re-measure; the base net is solved
    # once for all of them.
    u, v, w = triangle_with_angle_at_u(2.0)
    solved, measured = [], []
    cheb_ball, sample_from = verifiers.cheb_ball, verifiers._sample_from

    def counting_cheb_ball(net):
        solved.append(net)
        return cheb_ball(net)

    def counting_sample_from(m, center_m, z):
        measured.append(z)
        return sample_from(m, center_m, z)

    monkeypatch.setattr(verifiers, "cheb_ball", counting_cheb_ball)
    monkeypatch.setattr(lip, "cheb_ball", counting_cheb_ball)
    monkeypatch.setattr(verifiers, "_sample_from", counting_sample_from)
    report = verify_lemma4(u, v, w, extensions=200, seed=3)
    assert len(measured) > 100
    assert len(solved) == len(measured) + 1
    assert solved[0] == Net((u, v, w))
    assert report.max_ratio == sample_pair(Net((u, v, w)), report.worst_sample.net_b).ratio


def test_verify_lemma4_random_quick():
    for dim in (2, 3):
        report = verify_lemma4_random(600, dim, seed=8)
        assert report.passed
        assert report.claimed_bound == 1.0  # normalized per-configuration


def test_verify_statement1_quick():
    report = verify_statement1(400, 3, 2, seed=5)
    assert report.passed and report.claimed_bound == pytest.approx(math.sqrt(2))
    report = verify_statement1(400, 4, 2, seed=5)
    assert report.passed and report.claimed_bound == pytest.approx(GOLDEN)
    with pytest.raises(DomainError):
        verify_statement1(10, 4, 3, seed=0)
    with pytest.raises(DomainError):
        verify_statement1(10, 2, 2, seed=0)


def test_verify_statement1_budget_error(monkeypatch):
    monkeypatch.setattr(verifiers, "_REJECTION_BUDGET", 5)
    with pytest.raises(SamplingBudgetError):
        verify_statement1(10_000, 4, 2, seed=0)


def test_verify_statement2_budget_error(monkeypatch):
    monkeypatch.setattr(verifiers, "_REJECTION_BUDGET", 5)
    with pytest.raises(SamplingBudgetError, match="hull-contact sampler accepted"):
        verify_statement2(10_000, 2, seed=0, part="ii")


def test_verify_statement2_quick():
    for dim in (2, 3):
        report = verify_statement2(400, dim, seed=6, part="i")
        assert report.passed and report.claimed_bound == 1.0
    report = verify_statement2(400, 2, seed=6, part="ii")
    assert report.passed and report.claimed_bound == 2.0
    with pytest.raises(DomainError):
        verify_statement2(10, 3, seed=0, part="ii")
    with pytest.raises(DomainError):
        verify_statement2(10, 2, seed=0, part="iii")


def test_statement2_mirror_triangles_share_midpoint_center():
    m = Net.of([(0.0, 0.0), (1.0, 0.0), (0.5, 0.05)])
    z = Net.of([(0.0, 0.0), (1.0, 0.0), (0.5, -0.05)])
    s = sample_pair(m, z)
    assert s.cheb_displacement <= 1e-12
    assert s.ratio <= 1e-9


def test_shared_vertex_generator_contract():
    rng = np.random.default_rng(3)
    produced = 0
    while produced < 50:
        pair = verifiers._shared_vertex_pair(rng)
        if pair is None:
            continue
        produced += 1
        m, z = pair
        shared = set(m.points) & set(z.points)
        assert len(shared) == 1


def test_corrupted_bound_fails(monkeypatch):
    u, v, w = triangle_with_angle_at_u(math.pi / 3, reach=0.8)
    constant = lemma4_constant(u, v, w)
    monkeypatch.setattr(verifiers, "lemma4_constant", lambda *tri: constant / 4)
    report = verify_lemma4(u, v, w, 200, seed=1)
    assert not report.passed
    assert report.claimed_bound == constant / 4
