import itertools
import math
import random
import tracemalloc

import pytest

from balancegame import (
    DomainError,
    GameSpec,
    RandomStrategyParams,
    adjudicate,
    chernoff_tail_bound,
    concentration_experiment,
    random_perfect_rate,
    random_strategy,
    simulate_random_player,
    trial_seed,
)
from balancegame import builders, engine, montecarlo
from balancegame.montecarlo import Z_95


class TestTrialSeed:
    def test_scheme_is_documented_arithmetic(self):
        assert trial_seed(7, 0) == 7 * 1_000_003
        assert trial_seed(7, 5) == 7 * 1_000_003 + 5

    def test_no_collisions_across_reasonable_runs(self):
        seeds = {trial_seed(s, t) for s in range(20) for t in range(1000)}
        assert len(seeds) == 20 * 1000


class TestSimulateRandomPlayer:
    def test_reproducible(self):
        spec = GameSpec(5, 2, 0, "heavy")
        a = simulate_random_player(spec, 2 / 3, 200, seed=11)
        b = simulate_random_player(spec, 2 / 3, 200, seed=11)
        assert a == b

    def test_seed_changes_the_plan_stream(self):
        plans = {
            random_strategy(5, 2, RandomStrategyParams(2 / 3, trial_seed(s, 0)))
            for s in (1, 2, 3)
        }
        assert len(plans) == 3

    def test_matches_per_trial_adjudication(self):
        # the batched engine path must agree with the readable rules
        spec = GameSpec(4, 2, 0, "unknown")
        trials, seed, r = 50, 3, 0.7
        report = simulate_random_player(spec, r, trials, seed)
        wins = 0
        for t in range(trials):
            plan = random_strategy(4, 2, RandomStrategyParams(r, trial_seed(seed, t)))
            wins += any(
                adjudicate(spec, plan, "".join(m)).winner == "balance"
                for m in itertools.product("LRD", repeat=2)
            )
        assert report.successes == wins

    def test_always_on_plans_with_too_many_coins_always_lose(self):
        # 5 coins, 2 rounds, heavy prior: capacity is 9, but r=1 forces
        # binary-style rows, 4 distinct values, so collisions are guaranteed
        spec = GameSpec(5, 2, 0, "heavy")
        report = simulate_random_player(spec, 1.0, 300, seed=0)
        assert report.estimate == 1.0

    def test_half_width_formula(self):
        spec = GameSpec(4, 2, 0, "heavy")
        report = simulate_random_player(spec, 0.5, 400, seed=9)
        p = report.estimate
        assert report.half_width == pytest.approx(
            Z_95 * math.sqrt(p * (1 - p) / 400)
        )

    def test_rejects_zero_trials(self):
        with pytest.raises(DomainError):
            simulate_random_player(GameSpec(2, 1, 0, "heavy"), 0.5, 0)


class TestConcentrationExperiment:
    def test_reproducible(self):
        assert concentration_experiment(30, 2 / 3, 0.1, 500, seed=4) == \
            concentration_experiment(30, 2 / 3, 0.1, 500, seed=4)

    def test_bound_is_the_closed_form(self):
        _, bound = concentration_experiment(100, 2 / 3, 0.1, 10, seed=0)
        assert bound == chernoff_tail_bound(100, 0.1)

    def test_empirical_tail_under_bound_when_meaningful(self):
        empirical, bound = concentration_experiment(100, 2 / 3, 0.1, 2000, seed=1)
        assert empirical <= bound

    def test_wide_deviation_never_hit(self):
        empirical, _ = concentration_experiment(50, 0.5, 0.49, 500, seed=2)
        assert empirical == 0.0


class TestRandomPerfectRate:
    def test_reproducible(self):
        a = random_perfect_rate(4, 2, "unknown", 300, seed=5)
        b = random_perfect_rate(4, 2, "unknown", 300, seed=5)
        assert a == b

    def test_census_extras_for_small_space(self):
        report = random_perfect_rate(4, 2, "unknown", 100, seed=1)
        assert report.extras["census_count"] == 384
        assert report.extras["census_rate"] == pytest.approx(384 / 6561)
        assert report.extras["pair_count_rate"] == pytest.approx(384 / 6561)
        assert report.extras["pair_count_rate_with_columns"] == pytest.approx(
            768 / 6561
        )

    def test_estimate_consistent_with_census(self):
        report = random_perfect_rate(4, 2, "unknown", 2000, seed=7)
        truth = report.extras["census_rate"]
        assert abs(report.estimate - truth) <= 3 * max(report.half_width, 1e-3)

    def test_direct_recount(self):
        trials, seed = 40, 13
        report = random_perfect_rate(3, 1, "heavy", trials, seed)
        perfect = 0
        for t in range(trials):
            rng = random.Random(trial_seed(seed, t))
            rows = ["LRO"[rng.randrange(3)] for _ in range(3)]
            spec = GameSpec(3, 1, 0, "heavy")
            perfect += all(
                len(adjudicate(spec, rows, m).survivors) <= 1 for m in "LRD"
            )
        assert report.successes == perfect

    def test_no_census_extras_when_space_is_large(self):
        report = random_perfect_rate(13, 3, "unknown", 5, seed=0)
        assert "census_count" not in report.extras

    def test_peak_memory_does_not_grow_with_trials(self):
        peaks = []
        for trials in (50_000, 400_000):
            tracemalloc.start()
            try:
                random_perfect_rate(4, 2, "unknown", trials, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestBlockMemory:
    @pytest.mark.parametrize("command,args", [
        ("perfect-rate", (30, 5, "unknown")),
        ("perfect-rate", (6, 39, "unknown")),
        ("simulate", (13, 3, 0, "unknown")),
        ("simulate", (4, 2, 0, "unknown")),
        ("concentrate", (30, 0.4521, 0.2)),
        ("concentrate", (100, 0.4521, 0.2)),
    ])
    def test_blocks_fit_the_larger_of_draw_and_decide(self, command, args):
        # On the plans deciding a trial costs more than drawing it; concentrate
        # only draws, so its per-trial objects must be charged too.
        tracemalloc.start()
        try:
            if command == "perfect-rate":
                random_perfect_rate(*args, 20_000, seed=1)
            elif command == "simulate":
                simulate_random_player(GameSpec(*args), 0.6, 20_000, seed=1)
            else:
                concentration_experiment(*args, 20_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * engine._PAIR_BYTES

    @pytest.mark.parametrize("q", [7, 30, 100])
    def test_concentrate_blocks_fit_without_the_seeding_replay(self, q, monkeypatch):
        monkeypatch.setattr(builders, "_REPLAY_TRIALS", 10**9)
        tracemalloc.start()
        try:
            concentration_experiment(q, 0.4521, 0.2, 20_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * engine._PAIR_BYTES


class TestGenerators:
    @pytest.mark.parametrize("budget", [None, 4096])
    def test_one_generator_per_block(self, budget, monkeypatch):
        built, blocks = [], []

        class Counting(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        seed_blocks = montecarlo._seed_blocks

        def counted(*args):
            for seeds in seed_blocks(*args):
                blocks.append(len(seeds))
                yield seeds

        monkeypatch.setattr(random, "Random", Counting)
        monkeypatch.setattr(montecarlo, "_seed_blocks", counted)
        if budget:
            monkeypatch.setattr(engine, "_PAIR_BYTES", budget)
        runs = [
            lambda: simulate_random_player(GameSpec(5, 3, 0, "heavy"), 0.6, 500, seed=3),
            lambda: concentration_experiment(7, 0.6, 0.1, 500, seed=3),
            lambda: random_perfect_rate(4, 2, "unknown", 500, seed=3),
        ]
        for run in runs:
            built.clear()
            blocks.clear()
            run()
            assert sum(blocks) == 500
            assert 1 <= len(built) <= len(blocks)
