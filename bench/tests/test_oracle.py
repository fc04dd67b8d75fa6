"""The benchmark's reference answers against the package's readable rules.

Run with ``python -m pytest bench/tests``.  Every oracle is held to
``core.surviving_hypotheses`` / ``core.adjudicate`` on small random
instances (q <= 4, every k, both priors).
"""

import itertools
import math
import random

import numpy as np
import pytest

import oracle as o
from balancegame import analysis, builders
from balancegame.core import GameSpec, adjudicate, surviving_hypotheses

PRIORS = ("heavy", "unknown")


def _instances(count, seed, max_q=4, max_n=6):
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.randint(1, max_q)
        n = rng.randint(1, max_n)
        k = rng.randint(0, q)
        prior = rng.choice(PRIORS)
        rows = ["".join(rng.choice("LRO") for _ in range(q)) for _ in range(n)]
        yield GameSpec(n, q, k, prior), rows


def _masks(q):
    return ["".join(m) for m in itertools.product("LRD", repeat=q)]


def _first_winning_by_scan(spec, rows):
    for mask in _masks(spec.q):
        if adjudicate(spec, rows, mask).winner == "balance":
            return mask
    return None


@pytest.mark.parametrize("seed", range(4))
def test_survivors_match_core(seed):
    for spec, rows in _instances(60, seed):
        for mask in _masks(spec.q):
            core = sorted((h.coin, h.sign) for h in surviving_hypotheses(spec, rows, mask))
            assert o.survivors(rows, mask, spec.k, spec.prior) == core
            labels = [h.label for h in sorted(surviving_hypotheses(spec, rows, mask))]
            assert o.survivor_labels(o.survivors(rows, mask, spec.k, spec.prior)) == labels


@pytest.mark.parametrize("seed", range(4))
def test_first_winning_mask_and_verdict_match_a_full_scan(seed):
    for spec, rows in _instances(150, 100 + seed):
        want = _first_winning_by_scan(spec, rows)
        assert o.first_winning_mask(rows, spec.k, spec.prior) == want
        assert o.is_must_win(rows, spec.k, spec.prior) == (want is None)


def test_mask_index_is_lexicographic_position():
    for q in (1, 2, 3):
        assert [o.mask_index(m) for m in _masks(q)] == list(range(3**q))


def test_balance_wins_on_many_hypotheses_matches_core():
    # Exercises the distinct-announcement shortcut: many rows, few rounds.
    rng = random.Random(7)
    for _ in range(40):
        q, k, prior = rng.randint(1, 3), rng.randint(0, 1), rng.choice(PRIORS)
        n = rng.randint(1, 30)
        rows = ["".join(rng.choice("LRO") for _ in range(q)) for _ in range(n)]
        spec = GameSpec(n, q, k, prior)
        assert o.is_must_win(rows, k, prior) == (_first_winning_by_scan(spec, rows) is None)


@pytest.mark.parametrize("prior", PRIORS)
def test_census_counts_match_brute_force(prior):
    for n, q, k in ((2, 2, 0), (3, 2, 0), (2, 2, 1), (2, 3, 1), (1, 3, 1)):
        spec = GameSpec(n, q, k, prior)
        brute = sum(
            _first_winning_by_scan(spec, plan) is None
            for plan in itertools.product(["".join(c) for c in itertools.product("LRO", repeat=q)], repeat=n)
        )
        assert o.count_perfect_plans(n, q, k, prior) == brute
        if k == 0:
            assert o.census_k0(n, q, prior) == brute


def test_census_closed_forms_match_clique_counts():
    for n, q in ((4, 2), (5, 2), (3, 3)):
        for prior in PRIORS:
            assert o.census_k0(n, q, prior) == o.count_perfect_plans(n, q, 0, prior)
    assert o.census_k0(4, 2, "unknown") == 384


def _must_win_by_scan(rows, k, prior):
    return _first_winning_by_scan(GameSpec(len(rows), len(rows[0]), k, prior), rows) is None


@pytest.mark.parametrize("prior", PRIORS)
@pytest.mark.parametrize("k", (0, 1))
def test_sweep_boundaries_have_witnesses_and_are_tight(prior, k):
    for q in range(1, 5):
        n, witness = o.sweep_boundary(q, k, prior)
        if n:
            assert len(witness) == n and _must_win_by_scan(witness, k, prior)
        if k == 1:
            # one more coin breaks the survivor-mass pigeonhole bound
            assert (n + 1) * o.per_coin_mass(q, k, prior) > 3**q


def test_tetracode_witnesses():
    assert _must_win_by_scan(o.tetracode_rows(), 1, "heavy")
    assert len(o.tetracode_unknown_rows()) == 4
    assert _must_win_by_scan(o.tetracode_unknown_rows(), 1, "unknown")


def test_greedy_codes_are_must_win():
    rng = np.random.default_rng(3)
    for n, q, k, prior in ((6, 4, 1, "heavy"), (3, 4, 1, "unknown"), (2, 5, 2, "heavy")):
        assert _must_win_by_scan(o.greedy_code(n, q, k, prior, rng), k, prior)


def test_builder_families_match():
    for n, q in ((1, 1), (5, 2), (13, 3), (30, 4)):
        assert o.ternary_plan(n, q) == list(builders.ternary_strategy(n, q))
    for n, q in ((1, 1), (4, 2), (13, 3), (40, 4)):
        assert o.mirror_free_plan(n, q) == list(builders.complement_free_strategy(n, q))


def test_random_plan_replay_follows_the_documented_draw_rule():
    for n, q, r, seed in ((13, 3, 0.6667, 5), (4, 7, 0.3, 1_000_003 * 9 + 2), (2, 1, 1.0, 0)):
        params = builders.RandomStrategyParams(r, seed)
        assert o.replay_random_plan(n, q, r, seed) == list(builders.random_strategy(n, q, params))


def test_monte_carlo_replays_match_small_scans():
    # The replayed verdicts are the oracle's; recheck a few trials by scanning.
    for n, q, k, prior, r, seed in ((5, 3, 0, "unknown", 0.6, 3), (4, 4, 1, "heavy", 0.7, 8)):
        wins = 0
        for t in range(30):
            rows = o.replay_random_plan(n, q, r, o.trial_seed(seed, t))
            wins += not _must_win_by_scan(rows, k, prior)
        assert o.replay_simulate(n, q, k, prior, r, 30, seed) == wins


def test_rate_curves_match_closed_forms_in_the_package():
    for r in (0.05, 0.3, 2 / 3, 0.9):
        assert math.isclose(o.rate_g(r), analysis.honest_threshold_rate(r), rel_tol=1e-12)
        for r2 in (0.01, 0.04):
            assert math.isclose(o.rate_v(r, r2), analysis.lying_threshold_rate(r, r2), rel_tol=1e-12)
        assert math.isclose(o.phi(0.2, r, 11), analysis.prob_considered_heavier(0.2, r, 11), rel_tol=1e-12)
    assert math.isclose(o.expected_survivors([0, 3, 5], 0.3, 6), analysis.expected_survivors([0, 3, 5], 0.3, 6))
    x, best = o.best_rate(0.0)
    assert abs(x - 2 / 3) < 1e-7 and math.isclose(best, 3.0, rel_tol=1e-12)
    for r2 in (0.05, 0.12, 0.2):
        bx, bv = analysis.best_on_fraction(r2)
        x, v = o.best_rate(r2)
        assert abs(x - bx) < 1e-5 and math.isclose(v, bv, rel_tol=1e-9)
