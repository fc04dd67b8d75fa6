"""Acceptance suite: one test per shipped claim, one PASS line each.

Run with ``pytest -v tests/test_acceptance.py``.  Each test prints
``ACCEPTANCE <i>: PASS`` on success (bypassing capture) so a transcript
shows one line per criterion; a failure shows up as the test's FAILED line.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from balancegame import (
    GameSpec,
    Hypothesis,
    adaptive_first_move_range,
    adjudicate,
    best_on_fraction,
    binary_strategy,
    census_perfect,
    certify,
    chernoff_tail_bound,
    concentration_experiment,
    entropy_round_bound,
    game_value,
    honest_threshold_rate,
    lying_threshold_rate,
    prob_considered_heavier,
    random_perfect_rate,
    simulate_random_player,
    transcribe,
)
from balancegame.engine import (
    batch_balance_wins,
    batch_survivor_counts,
    code_digits,
    matrix_chunk_codes,
)
from balancegame.verifier import survivor_mass_expected

BIN42 = ("LL", "LR", "RL", "RR")

EIGHT_TOY = ("RLL", "RLR", "RLO", "RRL", "LRR", "LRO", "LOL", "LOR")

EIGHT_DELICATE = ("RLR", "RRO", "ROL", "LLR", "LRO", "LOL", "OLL", "ORL")

THIRTEEN = ("LLL", "LLR", "LRL", "LRR", "ORR", "OLR", "ROL",
            "LOL", "RLO", "LLO", "OOR", "LOO", "ORO")


@pytest.fixture
def announce(capsys):
    """Print one uncaptured PASS line per criterion, after its asserts."""

    def _announce(i: int) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {i}: PASS", flush=True)

    return _announce


def test_criterion_01_four_coin_worked_example(announce):
    spec = GameSpec(4, 2, 0, "heavy")
    grid = transcribe(BIN42, "LR", "heavy")
    assert grid == ("+x", "++", "xx", "x+")
    verdict = adjudicate(spec, BIN42, "LR")
    assert verdict.survivors == {Hypothesis(1, "heavy")}
    assert verdict.identified == Hypothesis(1, "heavy")
    cert = certify(spec, BIN42)
    assert cert.must_win and cert.masks_checked == 9
    announce(1)


def test_criterion_02_eight_coin_toy_and_delicate_plan(announce):
    spec = GameSpec(8, 3, 0, "unknown")
    # the toy plan read under the corrected all-rounds-consistent mask
    grid = transcribe(EIGHT_TOY, "LRD", "unknown")
    assert grid == ("--x", "--x", "--±", "-+x", "++x", "++±", "+xx", "+xx")
    verdict = adjudicate(spec, EIGHT_TOY, "LRD")
    assert verdict.winner == "balance"
    assert verdict.survivors == {Hypothesis(2, "light"), Hypothesis(5, "heavy")}
    # the delicate plan survives all 27 announcements
    cert = certify(spec, EIGHT_DELICATE)
    assert cert.must_win and cert.masks_checked == 27
    announce(2)


def test_criterion_03_thirteen_coin_plan(announce):
    spec = GameSpec(13, 3, 0, "unknown")
    cert = certify(spec, THIRTEEN)
    assert cert.must_win
    verdict = adjudicate(spec, THIRTEEN, "DLR")
    assert verdict.identified == Hypothesis(5, "heavy")
    assert verdict.identified.label == "coin 6 heavier"
    announce(3)


def test_criterion_04_threshold_theorems_at_desk_scale(announce):
    cases = [
        (3, 1, "heavy", "player"),
        (4, 1, "heavy", "balance"),
        (9, 2, "heavy", "player"),
        (10, 2, "heavy", "balance"),
        (4, 2, "unknown", "player"),
        (5, 2, "unknown", "balance"),
        (13, 3, "unknown", "player"),
        (14, 3, "unknown", "balance"),
    ]
    # exhaustive where the full plan enumeration is tractable, else the
    # capacity argument; both sides certified either way
    exhaustive = {(3, 1), (4, 1), (4, 2), (5, 2)}
    for n, q, prior, winner in cases:
        mode = "exhaustive" if (n, q) in exhaustive else "constructive"
        value = game_value(GameSpec(n, q, 0, prior), mode=mode)
        assert value.winner == winner, (n, q, prior)
        assert value.mode == mode
    announce(4)


def test_criterion_05_survivor_mass_conservation(announce):
    trials, n, master_seed = 1000, 5, 505
    rng = random.Random(master_seed)
    for q in range(1, 7):
        for k in range(0, min(2, q) + 1):
            for prior in ("heavy", "unknown"):
                spec = GameSpec(n, q, k, prior)
                codes = np.array(
                    [[rng.randrange(3**q) for _ in range(n)] for _ in range(trials)],
                    dtype=np.int64,
                )
                counts = batch_survivor_counts(spec, codes)
                expected = survivor_mass_expected(spec)
                # conservation holds plan by plan, hence in total
                assert int(counts.sum()) == trials * expected, spec
                assert np.all(counts.sum(axis=1) == expected), spec
    announce(5)


def test_criterion_06_single_lie_sweep_all_729_plans(announce):
    spec = GameSpec(3, 2, 1, "heavy")
    # sanity: the pigeonhole mass bound covers this configuration
    assert survivor_mass_expected(spec) > 3**spec.q
    t0 = time.perf_counter()
    codes = matrix_chunk_codes(spec, 0, 3**6)
    wins = batch_balance_wins(spec, code_digits(codes, spec.q))
    elapsed = time.perf_counter() - t0
    assert wins.shape == (729,)
    assert bool(wins.all())
    assert elapsed < 1.0
    announce(6)


def test_criterion_07_census_and_random_perfect_rate(announce):
    spec = GameSpec(4, 2, 0, "unknown")
    count = census_perfect(spec)
    assert count == 384
    # the census matches the one-per-mirror-pair count, not the version
    # with an extra column-permutation factor
    assert count == 2**4 * math.factorial(4)
    assert count != 2**4 * math.factorial(4) * math.factorial(2)
    report = random_perfect_rate(4, 2, "unknown", 100_000, seed=3)
    assert report.extras["census_count"] == 384
    assert report.extras["pair_count_rate"] == 384 / 6561
    assert report.extras["pair_count_rate_with_columns"] == 768 / 6561
    truth = 384 / 6561
    assert abs(report.estimate - truth) <= 3 * report.half_width
    announce(7)


def test_criterion_08_rate_function_properties(announce):
    assert abs(honest_threshold_rate(0.5) - 2 * math.sqrt(2)) <= 1e-9
    argmax, peak = best_on_fraction()
    assert abs(peak - 3.0) <= 1e-9
    assert abs(argmax - 2 / 3) <= 1e-6
    assert abs(honest_threshold_rate(1 - 1e-9) - 2.0) <= 1e-6
    for i in range(1, 1001):
        r = i / 1001
        assert abs(lying_threshold_rate(r, 0.0) - honest_threshold_rate(r)) <= 1e-9
    lie_fractions = [j / 100 for j in range(0, 31, 5)]
    argmaxes = [best_on_fraction(r2)[0] for r2 in lie_fractions]
    assert all(a >= b - 1e-9 for a, b in zip(argmaxes, argmaxes[1:]))
    for r2 in lie_fractions[1:]:
        assert best_on_fraction(r2)[1] < 3.0
    announce(8)


def test_criterion_09_plausibly_heavier_identity(announce):
    worst = 0.0
    for m in range(1, 31):
        for pdec in range(1, 50):
            p = pdec / 100
            closed = prob_considered_heavier(p, 1.0, m)
            oracle = sum(
                math.comb(m, j) * p**j * (1 - 2 * p) ** (m - j)
                for j in range(1, m + 1)
            )
            worst = max(worst, abs(closed - oracle))
    assert worst <= 1e-12
    for q in (2, 4, 6, 8, 10, 12):
        assert prob_considered_heavier(0.5, 0.5, q) == 2.0 ** (-q / 2)
    announce(9)


def test_criterion_10_adaptivity_and_entropy_helpers(announce):
    assert list(adaptive_first_move_range(13, 3)) == []
    assert list(adaptive_first_move_range(12, 3)) == [4]
    assert entropy_round_bound(27, 1) == 3.0
    announce(10)


def test_criterion_11_concentration_bound(announce):
    empirical, bound = concentration_experiment(100, 2 / 3, 0.1, 10_000, seed=1)
    assert empirical <= bound
    assert abs(bound - 0.27067) <= 1e-5
    assert bound == chernoff_tail_bound(100, 0.1)
    announce(11)


def test_criterion_12_eager_loading_is_unwise(announce):
    spec = GameSpec(13, 3, 0, "unknown")
    eager = simulate_random_player(spec, 0.95, 10_000, seed=0)
    balanced = simulate_random_player(spec, 2 / 3, 10_000, seed=0)
    assert eager.estimate >= balanced.estimate
    announce(12)
