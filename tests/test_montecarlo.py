import itertools
import math
import random
import tracemalloc

import pytest

from balancegame import (
    DomainError,
    GameSpec,
    RandomStrategyParams,
    ResourceLimitError,
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

    @pytest.mark.parametrize("spec", [
        GameSpec(5, 3, 0, "heavy"), GameSpec(5, 3, 0, "unknown"),
        GameSpec(4, 3, 1, "heavy"), GameSpec(4, 3, 1, "unknown"),
        GameSpec(3, 4, 2, "heavy"), GameSpec(3, 4, 2, "unknown"),
    ])
    def test_verdict_slices_do_not_change_the_report(self, spec, monkeypatch):
        # One draw is decided in slices of the verdict's own size: one plan a
        # slice here, then small draw blocks as well.
        want = simulate_random_player(spec, 0.6, 120, seed=10**6 + 3)
        monkeypatch.setattr(engine, "verdict_bytes", lambda spec: engine._PAIR_BYTES + 1)
        assert simulate_random_player(spec, 0.6, 120, seed=10**6 + 3) == want
        monkeypatch.setattr(engine, "_PAIR_BYTES", 4096)
        assert simulate_random_player(spec, 0.6, 120, seed=10**6 + 3) == want


def count_calls(monkeypatch, module, name):
    calls = []
    function = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestPigeonhole:
    # Where engine.every_plan_loses, by the pigeonhole or the Delsarte LP, the
    # balance wins against every plan, so nothing is drawn; the reports are
    # those of the drawn trials.
    @pytest.mark.parametrize("spec", [
        GameSpec(12, 6, 2, "heavy"), GameSpec(10, 2, 0, "heavy"), GameSpec(5, 2, 0, "unknown"),
        GameSpec(40000, 1, 1, "heavy"), GameSpec(20, 5, 1, "heavy"), GameSpec(10, 5, 1, "unknown"),
    ])
    def test_simulate_draws_nothing(self, spec, monkeypatch):
        draws = count_calls(monkeypatch, builders, "seeded_words")
        report = simulate_random_player(spec, 0.7, 40, seed=764030)
        assert not draws and report.successes == 40
        if spec.n < 100:
            monkeypatch.setattr(engine, "every_plan_loses", lambda n, q, k, prior: False)
            assert simulate_random_player(spec, 0.7, 40, seed=764030) == report
            assert draws

    @pytest.mark.parametrize("n,q,prior", [(10, 2, "heavy"), (5, 2, "unknown"), (28, 3, "heavy")])
    def test_perfect_rate_draws_nothing(self, n, q, prior, monkeypatch):
        draws = count_calls(monkeypatch, builders, "seeded_words")
        report = random_perfect_rate(n, q, prior, 40, seed=5)
        assert not draws and report.successes == 0
        monkeypatch.setattr(engine, "pigeonhole_min_n", lambda q, k, prior: 10**9)
        assert random_perfect_rate(n, q, prior, 40, seed=5) == report
        assert draws


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


def pair_count_rate(name, n, q, columns):
    return montecarlo._pair_count_rates(n, q, {name: columns})[name]


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

    def test_refuses_a_huge_rate_without_a_factorial(self, monkeypatch):
        def factorial(x):
            raise AssertionError(f"factorial({x}) was formed")

        monkeypatch.setattr(math, "factorial", factorial)
        with pytest.raises(DomainError) as refusal:
            random_perfect_rate(10**6, 1, "heavy", 1)
        assert str(refusal.value) == "pair_count_rate overflows a float at n=1000000, q=1"

    def test_refuses_a_rate_whose_integers_outgrow_the_block(self, monkeypatch):
        # log rate -0.44: inside the float range, but (3**20)**n alone would
        # take 18 GB.
        def factorial(x):
            raise AssertionError(f"factorial({x}) was formed")

        monkeypatch.setattr(math, "factorial", factorial)
        with pytest.raises(ResourceLimitError, match="^pair_count_rate at n=4739031326, q=20 "):
            random_perfect_rate(4739031326, 20, "heavy", 1)

    def test_the_integer_bound_is_the_block_budget(self, monkeypatch):
        # 20 * 40 * log2(3) = 1268 bits: refused in 158 bytes, formed in 159.
        want = pair_count_rate("rate", 40, 20, 1)
        monkeypatch.setattr(engine, "_PAIR_BYTES", 158)
        with pytest.raises(ResourceLimitError):
            pair_count_rate("rate", 40, 20, 1)
        monkeypatch.setattr(engine, "_PAIR_BYTES", 159)
        assert pair_count_rate("rate", 40, 20, 1) == want

    def test_a_rate_within_the_bound_still_answers(self):
        report = random_perfect_rate(80255, 10, "heavy", 1)  # 1.27e6 bits, past the pigeonhole
        assert report.extras["pair_count_rate"] == 285.311790696792

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 20, 39])
    def test_rates_equal_the_exact_quotient(self, q):
        # Each side of the float range is crossed: the lgamma bounds must
        # answer exactly where the integers would.
        for n in [*range(1, 260), *range(260, 4000, 37)]:
            for name, columns in (("pair_count_rate", 1), ("pair_count_rate_with_columns", q)):
                try:
                    want = 2**n * math.factorial(n) * math.factorial(columns) / (3**q) ** n
                except OverflowError:
                    with pytest.raises(DomainError, match=f"^{name} overflows a float at n={n}, q={q}$"):
                        pair_count_rate(name, n, q, columns)
                else:
                    assert pair_count_rate(name, n, q, columns) == want

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 20, 39])
    def test_the_exact_integers_are_formed_once(self, q, monkeypatch):
        # n! is formed once for both rates, besides the column factors 1 and q
        # themselves; the rates and refusals stay those of one rate at a time.
        factorial = math.factorial
        for n in [*range(1, 260), *range(260, 4000, 37)]:
            columns = {"pair_count_rate": 1, "pair_count_rate_with_columns": q}
            want = {}
            for name, c in columns.items():
                try:
                    want[name] = 2**n * factorial(n) * factorial(c) / (3**q) ** n
                except OverflowError:
                    want = (f"{name} overflows a float at n={n}, q={q}",)
                    break
            calls = []
            monkeypatch.setattr(math, "factorial", lambda x: calls.append(x) or factorial(x))
            try:
                got = montecarlo._pair_count_rates(n, q, columns)
            except DomainError as refusal:
                got = refusal.args
            monkeypatch.setattr(math, "factorial", factorial)
            assert got == want, (n, q)
            assert calls.count(n) <= 1 + (1, q).count(n), (n, q, calls)

    @pytest.mark.parametrize("n,q", [(40, 20), (19, 39), (150, 1), (250, 2)])
    def test_rates_at_the_edges_of_the_float_range_are_exact(self, n, q):
        # A column factor of 1..400 steps the rate's log by ln(columns) at a
        # time: the subnormals and the largest floats are all crossed finely.
        for columns in range(1, 400):
            try:
                want = 2**n * math.factorial(n) * math.factorial(columns) / (3**q) ** n
            except OverflowError:
                with pytest.raises(DomainError):
                    pair_count_rate("rate", n, q, columns)
            else:
                assert pair_count_rate("rate", n, q, columns) == want

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
        ("simulate", (27, 3, 0, "heavy")),
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

    @pytest.mark.parametrize("command,args", [
        ("concentrate", (100_000, 0.4615, 0.01)),
        ("concentrate", (200_000, 0.4615, 0.01)),
        ("concentrate", (262_000, 0.4615, 0.01)),
        ("concentrate", (500_000, 0.4615, 0.001)),  # past one block: counted in pieces
        ("concentrate", (1_000_000, 0.4615, 0.001)),  # two whole pieces and a short one
        ("simulate", (20_000, 12, 0, "heavy")),
    ])
    def test_long_rows_fit_the_block(self, command, args):
        # A trial of more words than one join is drawn in pieces, 4 bytes a
        # word; four trials fill a block at q = 100,000.
        tracemalloc.start()
        try:
            if command == "simulate":
                simulate_random_player(GameSpec(*args), 0.6, 4, seed=5)
            else:
                concentration_experiment(*args, 4, seed=5)
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

    def test_concentrate_at_q_100_seeds_once_within_the_budget(self, monkeypatch):
        replays = count_calls(monkeypatch, builders, "_replay")
        reseeds = count_calls(monkeypatch, builders, "reseeded")
        tracemalloc.start()
        try:
            concentration_experiment(100, 0.4615, 0.1, 3000, seed=293813)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(args[0]) for args in replays] == [3000] and not reseeds
        assert peak <= 1.1 * engine._PAIR_BYTES


class TestOneReplay:
    # A run whose draw fits one block seeds all its trials in one replay.
    def test_simulate_seeds_once(self, monkeypatch):
        replays = count_calls(monkeypatch, builders, "_replay")
        reseeds = count_calls(monkeypatch, builders, "reseeded")
        simulate_random_player(GameSpec(13, 3, 0, "unknown"), 0.6667, 2000, seed=611895)
        assert [len(args[0]) for args in replays] == [2000] and not reseeds


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
