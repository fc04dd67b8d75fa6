import fractions
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balancegame import (
    CapacityError,
    DomainError,
    GameSpec,
    ResourceLimitError,
    UndecidedError,
    adjudicate,
    binary_strategy,
    census_perfect,
    certify,
    complement_free_strategy,
    game_value,
    perfect_capacity,
    survivor_mass_expected,
    ternary_strategy,
    theorem_sweep,
)
from balancegame import engine, verifier

THIRTEEN = ("LLL", "LLR", "LRL", "LRR", "ORR", "OLR", "ROL",
            "LOL", "RLO", "LLO", "OOR", "LOO", "ORO")

EIGHT = ("RLL", "RLR", "RLO", "RRL", "LRR", "LRO", "LOL", "LOR")


def kernel_calls(monkeypatch):
    """Specs of every plan that reaches the kernel's certifying call."""
    calls, unpatched = [], engine.first_winning_word
    monkeypatch.setattr(engine, "first_winning_word",
                        lambda spec, preds: calls.append(spec) or unpatched(spec, preds))
    return calls


def random_plan(rng, n, q):
    return tuple("".join(rng.choice("LRO") for _ in range(q)) for _ in range(n))


def survivor_mass(spec, plan):
    """Survivor count summed over every mask, from the blocked scan."""
    return sum(int(counts.sum()) for _, counts in engine.iter_survivor_blocks(spec, plan))


class TestCertify:
    def test_binary_plan_must_win(self):
        cert = certify(GameSpec(4, 2, 0, "heavy"), binary_strategy(4, 2))
        assert cert.must_win
        assert cert.outcome == "player-must-win"
        assert cert.masks_checked == 9
        assert cert.attack is None

    def test_thirteen_coin_plan_must_win(self):
        cert = certify(GameSpec(13, 3, 0, "unknown"), THIRTEEN)
        assert cert.must_win and cert.masks_checked == 27

    def test_failing_plan_reports_attack(self):
        cert = certify(GameSpec(8, 3, 0, "unknown"), EIGHT)
        assert not cert.must_win
        assert cert.outcome == "balance-wins"
        assert cert.attack is not None
        assert len(cert.attack.survivors) >= 2
        # the reported attack really wins
        verdict = adjudicate(GameSpec(8, 3, 0, "unknown"), EIGHT, cert.attack.mask)
        assert verdict.winner == "balance"

    @pytest.mark.parametrize("q,build,n,prior", [
        (1, binary_strategy, 2, "heavy"),
        (2, binary_strategy, 4, "heavy"),
        (3, binary_strategy, 8, "heavy"),
        (4, binary_strategy, 16, "heavy"),
        (2, ternary_strategy, 9, "heavy"),
        (3, ternary_strategy, 27, "heavy"),
        (2, complement_free_strategy, 4, "unknown"),
        (3, complement_free_strategy, 13, "unknown"),
        (4, complement_free_strategy, 40, "unknown"),
    ])
    def test_builders_hit_their_capacity(self, q, build, n, prior):
        cert = certify(GameSpec(n, q, 0, prior), build(n, q))
        assert cert.must_win

    def test_round_bound(self):
        # Verdicts need no mask scan, so 17 rounds are decided; 40 rounds
        # do not fit a 64-bit base-3 code and are refused.
        assert certify(GameSpec(2, 17, 0, "heavy"), ("L" * 17, "R" * 17)).must_win
        with pytest.raises(ResourceLimitError):
            certify(GameSpec(2, 40, 0, "heavy"), ("L" * 40, "R" * 40))


class TestSurvivorMass:
    def test_expected_is_strategy_independent(self):
        spec = GameSpec(5, 3, 1, "unknown")
        # 10 hypotheses, ball volume sum_{j<=1} C(3,j) 2^j = 1 + 6 = 7
        assert survivor_mass_expected(spec) == 70

    @given(
        st.tuples(
            st.integers(1, 4), st.integers(1, 3), st.integers(0, 2),
            st.sampled_from(["heavy", "unknown"]), st.integers(0, 10_000),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation(self, case):
        n, q, k, prior, seed = case
        k = min(k, q)
        spec = GameSpec(n, q, k, prior)
        plan = random_plan(random.Random(seed), n, q)
        for budget in (engine._PAIR_BYTES, 64):  # 64 bytes: the scan runs in many blocks
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "_PAIR_BYTES", budget)
                assert survivor_mass(spec, plan) == survivor_mass_expected(spec)

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_scan_blocks_fit_the_budget_and_tile_the_masks(self, prior, monkeypatch):
        monkeypatch.setattr(engine, "_PAIR_BYTES", 64)
        spec = GameSpec(7, 4, 1, prior)
        plan = random_plan(random.Random(7), 7, 4)
        start = 0
        for m0, counts in engine.iter_survivor_blocks(spec, plan):
            assert m0 == start and counts.ndim == 1
            assert len(counts) * spec.hypothesis_count <= engine._PAIR_BYTES
            start += len(counts)
        assert start == 3**spec.q

    @pytest.mark.parametrize("n,q", [(1, 14), (2, 13), (3, 12), (60, 10)])
    def test_scan_memory_stays_within_the_budget(self, n, q):
        # Few hypotheses make the mask digits, not the distances, the bulk of a block;
        # with 60 the distances and their comparisons are.
        spec = GameSpec(n, q, 1, "heavy")
        plan = ternary_strategy(n, q)
        tracemalloc.start()
        try:
            mass = survivor_mass(spec, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mass == survivor_mass_expected(spec)
        assert peak <= 1.1 * engine._PAIR_BYTES  # the plan and Python objects take the rest

    def test_matches_direct_enumeration(self):
        spec = GameSpec(3, 2, 1, "unknown")
        plan = ("LR", "OO", "RL")
        total = sum(
            len(adjudicate(spec, plan, "".join(m)).survivors)
            for m in itertools.product("LRD", repeat=2)
        )
        assert survivor_mass(spec, plan) == total == survivor_mass_expected(spec)


class TestPerfectCapacity:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_closed_forms(self, q):
        assert perfect_capacity(q, "heavy") == 3**q
        assert perfect_capacity(q, "unknown") == (3**q - 1) // 2

    def test_named_values(self):
        assert perfect_capacity(2, "heavy") == 9
        assert perfect_capacity(3, "unknown") == 13
        assert perfect_capacity(4, "unknown") == 40

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_is_the_zero_lie_pigeonhole_less_one(self, prior):
        for q in range(1, engine.MAX_ROUNDS + 1):
            closed = 3**q if prior == "heavy" else (3**q - 1) // 2
            assert perfect_capacity(q, prior) == engine.pigeonhole_min_n(q, 0, prior) - 1 == closed


class TestGameValue:
    @pytest.mark.parametrize("n,q,prior,winner", [
        (3, 1, "heavy", "player"),
        (4, 1, "heavy", "balance"),
        (9, 2, "heavy", "player"),
        (10, 2, "heavy", "balance"),
        (4, 2, "unknown", "player"),
        (5, 2, "unknown", "balance"),
        (13, 3, "unknown", "player"),
        (14, 3, "unknown", "balance"),
    ])
    def test_constructive_thresholds(self, n, q, prior, winner):
        value = game_value(GameSpec(n, q, 0, prior), mode="constructive")
        assert value.winner == winner
        assert value.mode == "constructive"
        if winner == "player":
            assert value.witness is not None
            assert certify(GameSpec(n, q, 0, prior), value.witness).must_win

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_exhaustive_agrees_with_constructive(self, prior):
        for q in (1, 2):
            for n in range(1, 6):
                spec = GameSpec(n, q, 0, prior)
                ex = game_value(spec, mode="exhaustive")
                co = game_value(spec, mode="constructive")
                assert ex.winner == co.winner, spec

    def test_exhaustive_witness_is_certified(self):
        value = game_value(GameSpec(3, 1, 0, "heavy"), mode="exhaustive")
        assert value.winner == "player"
        assert certify(GameSpec(3, 1, 0, "heavy"), value.witness).must_win

    def test_exhaustive_balance_checks_everything(self):
        value = game_value(GameSpec(4, 1, 0, "heavy"), mode="exhaustive")
        assert value.winner == "balance"
        assert value.instances_checked == 3**4

    def test_single_hypothesis_is_trivially_player(self):
        value = game_value(GameSpec(1, 1, 0, "heavy"), mode="constructive")
        assert value.winner == "player"
        # Any lie budget, any rounds: past MAX_ROUNDS the plan is built but not certified.
        for q, k in itertools.product((5, engine.MAX_ROUNDS, 45), (0, 1, 2)):
            value = game_value(GameSpec(1, q, k, "heavy"), mode="constructive")
            assert (value.winner, value.witness, value.instances_checked) == (
                "player", ("L" * q,), 1)

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_k0_builder_plans_are_the_first_cliques(self, prior):
        # Up to capacity the first clique is the builders' plan, and every
        # mode hands it out as one instance checked, past MAX_ROUNDS too.
        build = ternary_strategy if prior == "heavy" else complement_free_strategy
        for q in range(1, 5):
            for n in range(1, perfect_capacity(q, prior) + 1):
                spec, plan = GameSpec(n, q, 0, prior), build(n, q)
                first = engine._CliqueSearch(spec, CAP).first(n)
                assert first == [engine.encode_row(r) for r in plan], spec
                for mode in ("auto", "exhaustive", "constructive"):
                    value = game_value(spec, mode)
                    assert (value.winner, value.witness, value.instances_checked) == (
                        "player", plan, 1), (spec, mode)
        for n in (1, 2, 5, 100):
            value = game_value(GameSpec(n, 45, 0, prior), "constructive")
            assert (value.winner, value.witness, value.instances_checked) == (
                "player", build(n, 45), 1), n

    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "constructive"])
    def test_builder_witness_is_certified_before_it_is_handed_out(self, mode, monkeypatch):
        monkeypatch.setattr(engine._CliqueSearch, "first", lambda self, n: [1, 3])  # LR, RL
        calls = kernel_calls(monkeypatch)
        with pytest.raises(AssertionError, match="builder witness failed certification"):
            game_value(GameSpec(2, 2, 0, "unknown"), mode=mode)
        assert calls == [GameSpec(2, 2, 0, "unknown")]

    def test_clique_witness_is_certified_before_it_is_handed_out(self, monkeypatch):
        spec = GameSpec(2, 3, 1, "heavy")  # no builder plan: k = 1 and two coins
        assert engine._CliqueSearch(spec, CAP).needs_graph(spec.n)
        monkeypatch.setattr(engine._CliqueSearch, "first", lambda self, n: [0, 0])  # LLL twice loses
        calls = kernel_calls(monkeypatch)
        with pytest.raises(AssertionError, match="clique witness failed certification"):
            game_value(spec, mode="exhaustive")
        assert calls == [spec]

    def test_lie_budget_mass_bound(self):
        # 13 coins, 3 rounds, 1 lie: mass 26 * 7 = 182 > 27 masks
        value = game_value(GameSpec(13, 3, 1, "unknown"), mode="constructive")
        assert value.winner == "balance"

    def test_lie_budget_undecided(self):
        with pytest.raises(UndecidedError):
            game_value(GameSpec(2, 5, 1, "heavy"), mode="constructive")

    def test_matrix_cap(self):
        # 3**9 admissible rows: a graph of 3**18 ~ 3.9e8 cells
        with pytest.raises(ResourceLimitError):
            game_value(GameSpec(4, 9, 1, "heavy"), mode="exhaustive")

    def test_auto_prefers_exhaustive_when_cheap(self):
        value = game_value(GameSpec(3, 1, 0, "heavy"))
        assert value.mode == "exhaustive"

    def test_auto_falls_back_to_constructive(self):
        value = game_value(GameSpec(13, 3, 0, "unknown"))
        assert value.mode == "constructive"
        assert value.winner == "player"

    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "constructive"])
    @pytest.mark.parametrize("spec", [GameSpec(10, 3, 0, "heavy"), GameSpec(13, 3, 0, "unknown"),
                                      GameSpec(1, 7, 2, "heavy"), GameSpec(1, 7, 2, "unknown")])
    def test_builder_plan_cells_are_capped_before_it_is_built(self, spec, mode, monkeypatch):
        # One cell rule for every plan a rung before the graph hands out.
        cells = spec.n * spec.q
        value = game_value(spec, mode, matrix_cap=cells)
        assert value.winner == "player" and len(value.witness) == spec.n
        monkeypatch.setattr(engine._CliqueSearch, "first", lambda self, n: pytest.fail("built"))
        with pytest.raises(ResourceLimitError, match=rf"{cells} cells.*--matrix-cap"):
            game_value(spec, mode, matrix_cap=cells - 1)

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_constructive_mode_is_the_ladder_without_its_graph_rung(self, prior):
        # q <= 6, every k, every n up to one past the pigeonhole: constructive
        # mode refuses exactly the graph rung and elsewhere agrees with exhaustive
        # mode, each plan handed out as one instance and only within the cap's cells.
        refused = answered = 0
        for q in range(1, 7):
            for k in range(q + 1):
                for n in range(1, engine.pigeonhole_min_n(q, k, prior) + 2):
                    spec = GameSpec(n, q, k, prior)
                    if engine._CliqueSearch(spec, CAP).needs_graph(n):
                        with pytest.raises(UndecidedError):
                            game_value(spec, "constructive")
                        refused += 1
                        continue
                    value = game_value(spec, "constructive", n * q)
                    ex = game_value(spec, "exhaustive", n * q)
                    assert (value.winner, value.witness) == (ex.winner, ex.witness), spec
                    if value.witness is None:
                        assert (value.instances_checked, ex.instances_checked) == (0, 3 ** (n * q))
                        continue
                    assert value.instances_checked == ex.instances_checked == 1, spec
                    for mode in ("constructive", "exhaustive"):
                        with pytest.raises(ResourceLimitError, match=rf"{n * q} cells"):
                            game_value(spec, mode, n * q - 1)
                    answered += 1
        assert refused >= 33 and answered >= 549  # the unknown prior's counts; heavy has more


class TestPigeonhole:
    """engine.pigeonhole_min_n is the one spelling of the survivor-mass rule."""

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_smallest_n_whose_mass_exceeds_the_masks(self, prior):
        for q in range(1, 13):
            for k in range(q + 1):
                per_coin = survivor_mass_expected(GameSpec(1, q, k, prior))
                least = engine.pigeonhole_min_n(q, k, prior)
                for n in range(max(1, least - 2), least + 2):
                    assert (n >= least) == (n * per_coin > 3**q), (q, k, n)

    @pytest.mark.parametrize("n,q,k", [(9, 4, 1), (27, 3, 0)])
    def test_an_exact_division_leaves_the_player_a_win(self, n, q, k):
        # n * per_coin == 3**q: no announcement is forced to keep two hypotheses.
        assert n * survivor_mass_expected(GameSpec(1, q, k, "heavy")) == 3**q
        assert engine.pigeonhole_min_n(q, k, "heavy") == n + 1
        assert game_value(GameSpec(n, q, k, "heavy"), "exhaustive").winner == "player"

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_constructive_verdicts_switch_at_the_threshold(self, prior):
        for q in range(1, 13):
            for k in range(1, q + 1):
                least = engine.pigeonhole_min_n(q, k, prior)
                assert game_value(GameSpec(least, q, k, prior), "constructive").winner == "balance"
                if least == 1:
                    continue
                below = GameSpec(least - 1, q, k, prior)
                if engine._CliqueSearch(below, CAP).needs_graph(below.n):
                    with pytest.raises(UndecidedError):
                        game_value(below, "constructive")
                else:  # one coin, or no n-clique left by the LP or the admissible rows
                    value, ex = game_value(below, "constructive"), game_value(below, "exhaustive")
                    assert (value.winner, value.witness) == (ex.winner, ex.witness), below

    def test_batch_verdict_skips_the_pairs_from_the_threshold(self, monkeypatch):
        least = engine.pigeonhole_min_n(3, 1, "heavy")  # 27 // 7 + 1 = 4
        calls = []
        pairs = engine.close_pairs
        monkeypatch.setattr(engine, "close_pairs", lambda *a: calls.append(a) or pairs(*a))
        for n in (least - 1, least):
            codes = np.arange(2 * n, dtype=np.int64).reshape(2, n)  # distinct rows
            rows = engine.code_digits(codes, 3)
            wins = engine.batch_balance_wins(GameSpec(n, 3, 1, "heavy"), rows)
            assert len(calls) == 1 and wins.all()  # every pair here lies within 2k = 2


def pigeonhole_only(n, q, k, prior):
    return n >= engine.pigeonhole_min_n(q, k, prior)


class TestDelsarteBound:
    """engine.every_plan_loses: the pigeonhole, or at k >= 1 the Delsarte LP."""

    @pytest.mark.parametrize("q,k,optimum", [
        (5, 1, 18), (6, 1, fractions.Fraction(243, 5)), (10, 2, 243), (11, 2, 729),
        (12, 1, 19683), (13, 1, 59049),
    ])
    def test_lp_optima(self, q, k, optimum):
        assert engine.delsarte_bound(q, k) == optimum  # exact: 48 codewords at most at (6, 1)

    @pytest.mark.parametrize("q,k", [(4, 1), (11, 2), (13, 1)])  # tetracode, Golay, Hamming
    def test_a_perfect_code_meets_the_pigeonhole(self, q, k):
        for prior in ("heavy", "unknown"):
            assert engine.delsarte_min_n(q, k, prior) == engine.pigeonhole_min_n(q, k, prior)

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_never_above_the_pigeonhole(self, prior):
        for q in range(1, 13):
            for k in range(q + 1):
                lp, least = engine.delsarte_min_n(q, k, prior), engine.pigeonhole_min_n(q, k, prior)
                assert lp <= least and (k or lp == least), (q, k)

    def test_tight_at_five_rounds_one_lie(self):
        # 18 words at distance 3 exist, so 18 coins still win and 19 lose.
        assert engine.delsarte_min_n(5, 1, "heavy") == 19 < engine.pigeonhole_min_n(5, 1, "heavy")
        assert not engine.every_plan_loses(18, 5, 1, "heavy")
        assert engine.every_plan_loses(19, 5, 1, "heavy")
        code = ("LLLLL", "LLRRR", "LRLRO", "LROOL", "LOROO", "LOOLR", "RLLOO", "RLORL", "RRROR",
                "RROLO", "ROLRR", "RORLL", "OLRLO", "OLOOR", "ORLLR", "ORRRL", "OOLOL", "OOORO")
        assert certify(GameSpec(18, 5, 1, "heavy"), code).must_win  # the exhaustive search's first

    @pytest.mark.parametrize("q,k,prior", [
        (4, 2, "heavy"), (5, 2, "heavy"), (5, 2, "unknown"), (5, 1, "unknown"), (6, 2, "heavy"),
        (6, 2, "unknown"), (6, 3, "heavy"), (7, 2, "unknown"), (7, 3, "heavy"), (7, 3, "unknown"),
        (7, 4, "heavy"), (8, 3, "heavy"),
    ])
    def test_the_graph_finds_no_plan_from_the_lp_threshold(self, q, k, prior, monkeypatch):
        # Past the LP's threshold and below the pigeonhole, the search the LP
        # spares finds no clique either: (5, 1, unknown) at n 9-11, (6, 2, heavy) at 6-9.
        lp, least = engine.delsarte_min_n(q, k, prior), engine.pigeonhole_min_n(q, k, prior)
        assert lp < least
        for n in range(lp, least):
            assert engine._CliqueSearch(GameSpec(n, q, k, prior), CAP).first(n) is None
            assert not engine._CliqueSearch(GameSpec(n, q, k, prior), CAP).needs_graph(n)
        monkeypatch.setattr(engine, "every_plan_loses", pigeonhole_only)
        for n in range(lp, least):
            search = engine._CliqueSearch(GameSpec(n, q, k, prior), CAP)
            assert search.needs_graph(n) and search.first(n) is None, n

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_no_lp_where_it_cannot_decide(self, prior, monkeypatch):
        # At k = 0, up to the Gilbert-Varshamov size and from the pigeonhole on,
        # the answer is known without the LP; past MAX_ROUNDS it is not solved.
        engine.every_plan_loses.cache_clear()
        monkeypatch.setattr(engine, "delsarte_min_n", lambda *a: pytest.fail(f"LP at {a}"))
        q = engine.MAX_ROUNDS + 1
        assert not engine.every_plan_loses(engine.pigeonhole_min_n(q, 1, prior) - 1, q, 1, prior)
        for q in range(1, 13):
            for k in range(q + 1):
                least = engine.pigeonhole_min_n(q, k, prior)
                assert engine.every_plan_loses(least, q, k, prior)
                if k == 0:
                    assert not engine.every_plan_loses(least - 1, q, k, prior)
                    continue
                greedy = engine._greedy_rows(q, k, prior)
                for n in range(max(1, greedy - 1), greedy + 1):
                    assert not engine.every_plan_loses(n, q, k, prior)


class TestCensusPerfect:
    def test_single_round(self):
        assert census_perfect(GameSpec(1, 1, 0, "heavy")) == 3
        assert census_perfect(GameSpec(2, 1, 0, "heavy")) == 6
        assert census_perfect(GameSpec(3, 1, 0, "heavy")) == 6

    def test_four_coins_two_rounds_unknown(self):
        assert census_perfect(GameSpec(4, 2, 0, "unknown")) == 384

    def test_row_permutation_closure(self):
        # every perfect plan stays perfect under row renaming, so n! divides
        count = census_perfect(GameSpec(3, 1, 0, "heavy"))
        assert count % math.factorial(3) == 0

    def test_census_cap(self):
        with pytest.raises(ResourceLimitError):  # a graph of 3**18 cells
            census_perfect(GameSpec(4, 9, 1, "heavy"))

    def test_a_count_of_zero_skips_the_factorial(self, monkeypatch):
        def factorial(n):
            raise AssertionError("n! formed for a count of 0")

        monkeypatch.setattr(math, "factorial", factorial)
        for n, q, k, prior in ((10**12, 39, 5, "heavy"), (4, 1, 0, "heavy"), (19, 5, 1, "heavy")):
            assert census_perfect(GameSpec(n, q, k, prior)) == 0


class TestBoundedIntegers:
    """Plan counts are bounded before the integer 3**(n q) is formed."""

    CAPS = [-5, 0, 1, 2, 3, 8, 9, 10, 26, 27, 28, 3**20 - 1, 3**20, 3**20 + 1, 10**40, 3**200]

    def test_the_plans_fit_test_equals_the_integer_one(self):
        for cap in self.CAPS:
            for n in range(1, 12):
                for q in range(1, 12):
                    assert (n * q <= verifier._cap_exponent(cap)) == ((3**q) ** n <= cap), (n, q, cap)

    def test_the_cap_exponent_at_powers_of_three(self):
        for e in range(400):
            assert verifier._cap_exponent(3**e) == e
            assert verifier._cap_exponent(3**e + 1) == e
            assert verifier._cap_exponent(3 ** (e + 1) - 1) == e

    def test_plan_total_forms_counts_within_the_block_budget(self):
        assert verifier.plan_total(GameSpec(4300, 5, 0, "heavy"), "x") == 3**21500

    def test_plan_total_refuses_unformed_past_the_block_budget(self, monkeypatch):
        spec = GameSpec(10**12, 39, 5, "heavy")
        monkeypatch.setattr(verifier.formats, "_digit_limit", lambda: 4300)
        with pytest.raises(DomainError, match=r"^cannot print total_plans: it has 18607728934067 digits, "
                                              r"over the 4300-digit limit on integer printing$"):
            verifier.plan_total(spec, "total_plans")
        monkeypatch.setattr(verifier.formats, "_digit_limit", lambda: 0)
        with pytest.raises(ResourceLimitError, match=r"^total_plans for 1000000000000,39,5,heavy is an integer "):
            verifier.plan_total(spec, "total_plans")

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_a_huge_zero_lie_census_is_refused_at_once(self, prior):
        # n = N, 3**39 words or (3**39 - 1) // 2 mirror pairs, is the most coins a
        # zero-lie plan holds: there the census is N! and N - n + 1 is 1.
        for n in (10**9, 3**39 if prior == "heavy" else (3**39 - 1) // 2):
            t0 = time.perf_counter()
            with pytest.raises(ResourceLimitError, match=f"^the must-win plan count for {n},39,0,{prior} "
                                                         r"is an integer past the 4194304-byte block$"):
                census_perfect(GameSpec(n, 39, 0, prior))
            assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("prior,N", [("heavy", 243), ("unknown", 121)])
    def test_the_census_bound_at_a_small_block(self, monkeypatch, prior, N):
        # 64 bits: 9 coins over 5 rounds bound their census by 9 * 7 = 63 bits
        # (plus the 2**n under the unknown prior, where N - n + 1 >= 64 takes
        # 6 bits a factor), 10 coins by 70; 3**(9 * 5) alone is 71 bits.
        monkeypatch.setattr(engine, "_PAIR_BYTES", 8)
        signs = 1 if prior == "heavy" else 2  # a row or its mirror for each of n mirror pairs
        assert census_perfect(GameSpec(9, 5, 0, prior)) == signs**9 * math.perm(N, 9)
        with pytest.raises(ResourceLimitError):
            census_perfect(GameSpec(10, 5, 0, prior))
        # The bound comes after the lost check: counts of 0 answer, as n = 1 does.
        assert census_perfect(GameSpec(N + 1, 5, 0, prior)) == 0
        assert census_perfect(GameSpec(1, 5, 0, prior)) == signs * N

    def test_the_census_bound_is_a_lower_bound(self, monkeypatch):
        # Refused only where the census, n! times the clique count, has more bits than the block.
        for budget in (1, 2, 8, 40):
            monkeypatch.setattr(engine, "_PAIR_BYTES", budget)
            for q, prior in itertools.product(range(1, 5), ("heavy", "unknown")):
                N = 3**q if prior == "heavy" else (3**q - 1) // 2
                signs = 1 if prior == "heavy" else 2
                for n in range(2, N + 1):
                    census = signs**n * math.perm(N, n)
                    try:
                        assert census_perfect(GameSpec(n, q, 0, prior)) == census
                    except ResourceLimitError:
                        assert census.bit_length() > 8 * budget, (budget, n, q, prior)

    def test_auto_value_at_a_billion_coins(self):
        # The LP leaves 10**9 coins over 39 rounds undecided; past the pigeonhole
        # (204,505,166,203) the balance wins, and 3**(n q) is never formed.
        with pytest.raises(UndecidedError):
            game_value(GameSpec(10**9, 39, 5, "heavy"))
        value = game_value(GameSpec(10**12, 39, 5, "heavy"))
        assert (value.winner, value.mode, value.instances_checked) == ("balance", "constructive", 0)


def enumerated(spec):
    """The plan enumeration the clique search replaced: every plan in
    row-major order, decided in chunks.  Returns the must-win count and the
    first must-win plan's (index, row codes), or None."""
    total, count, first = (3**spec.q) ** spec.n, 0, None
    for start in range(0, total, 4096):
        codes = engine.matrix_chunk_codes(spec, start, min(start + 4096, total))
        losers = np.flatnonzero(~engine.batch_balance_wins(spec, engine.code_digits(codes, spec.q)))
        if first is None and losers.size:
            first = (start + int(losers[0]), [int(c) for c in codes[losers[0]]])
        count += losers.size
    return count, first


SMALL_SPECS = [  # every spec with at most 3**12 = 531441 plans
    (n, q, k) for q in range(1, 13) for n in range(1, 12 // q + 1) for k in range(q + 1)
]
GRID = [(n, q, k) for q in range(1, 6) for k in range(min(2, q) + 1) for n in range(1, 8)]
CAP = engine.DEFAULT_MATRIX_CAP


def builder_plan(spec):
    """The plan a rung before the graph gives the player, else None: the
    builders' plan, all-L at n = 1."""
    search = engine._CliqueSearch(spec, CAP)
    if search.needs_graph(spec.n) or search.lost(spec.n):
        return None
    return (ternary_strategy if spec.prior == "heavy" else complement_free_strategy)(spec.n, spec.q)


def recording(monkeypatch):
    """Patch engine._CliqueSearch to keep every search it makes; returns that list."""
    searches = []

    class Recorded(engine._CliqueSearch):
        def __init__(self, spec, cap):
            super().__init__(spec, cap)
            searches.append(self)

    monkeypatch.setattr(engine, "_CliqueSearch", Recorded)
    return searches


class TestCliqueSearch:
    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_matches_the_plan_enumeration(self, prior):
        # At a cap of the plan count: nothing whose plans fit the cap is refused.
        for n, q, k in SMALL_SPECS:
            spec, cap = GameSpec(n, q, k, prior), (3**q) ** n
            count, first = enumerated(spec)
            assert census_perfect(spec, cap) == count, spec
            assert engine._CliqueSearch(spec, cap).first(spec.n) == (first and first[1]), spec
            value = game_value(spec, "exhaustive", cap)
            witness = builder_plan(spec)
            if witness is not None:
                assert first is not None, spec
                assert (value.witness, value.instances_checked) == (witness, 1), spec
            elif first is None:
                assert value.winner == "balance" and value.witness is None, spec
                assert value.instances_checked == (3**q) ** n, spec
            else:
                assert value.winner == "player", spec
                assert value.witness == tuple(engine.decode_rows(first[1], q)), spec
                assert value.instances_checked == first[0] + 1, spec

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_counts_match_the_all_roots_search(self, prior):
        # The k = 0 closed form and the k >= 1 orbit sums against the plain
        # search from every root, on every small spec and on q <= 5, k <= 2,
        # n <= 7 wherever that search surely ends within 10**7 nodes: it
        # visits at most one per set of fewer than n of the W admissible words.
        checked, limit = 0, 10**7
        for n, q, k in dict.fromkeys(SMALL_SPECS + GRID):
            spec = GameSpec(n, q, k, prior)
            words = engine.admissible_count(spec)
            if sum(math.comb(words, j) for j in range(n)) > limit:
                continue
            search = engine._CliqueSearch(spec, max(words**2, limit))
            search.build()
            plain = search.search((1 << len(search.words)) - 1, n, None)
            assert engine.clique_count(spec, CAP) == plain, spec
            checked += 1
        assert checked >= 170

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_first_clique_matches_the_all_roots_search(self, prior):
        # The rooted search against the plain search from every root, which
        # stops at the first clique it meets.
        for n, q, k in dict.fromkeys(SMALL_SPECS + GRID):
            spec = GameSpec(n, q, k, prior)
            search, path = engine._CliqueSearch(spec, CAP), []
            if n == 1 or search.lost(n):
                continue
            search.build()
            search.search((1 << len(search.words)) - 1, n, path)
            want = [int(search.words[i]) for i in reversed(path)] or None
            assert engine._CliqueSearch(spec, CAP).first(spec.n) == want, spec

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_small_blocks(self, prior, monkeypatch):
        # A 64-byte budget splits every row, full neighbourhoods included, (and
        # the unknown-prior admissible scan) into blocks.
        specs = [GameSpec(n, q, k, prior) for n, q, k in ((3, 3, 1), (4, 2, 0), (2, 4, 1), (3, 4, 1))]

        def rows(spec):
            search = engine._CliqueSearch(spec, CAP)
            search.build()
            return [search.neighbourhood(int(code)) for code in search.words]

        want = [engine.clique_count(s, CAP) for s in specs]
        full = [rows(s) for s in specs]
        monkeypatch.setattr(engine, "_PAIR_BYTES", 64)
        assert [engine.clique_count(s, CAP) for s in specs] == want
        assert [rows(s) for s in specs] == full

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_full_neighbourhoods_keep_the_graph_rule(self, prior):
        # A full row is symmetric and, past its own word, the neighbours row.
        for spec in (GameSpec(3, 3, 1, prior), GameSpec(3, 4, 1, prior), GameSpec(2, 4, 2, prior)):
            search = engine._CliqueSearch(spec, CAP)
            search.build()
            full = [search.neighbourhood(int(code)) for code in search.words]
            for i, row in enumerate(full):
                assert row >> (i + 1) << (i + 1) == search.neighbours(i), spec
                assert [j for j in range(len(full)) if full[j] >> i & 1] == [
                    j for j in range(len(full)) if row >> j & 1], spec

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_inexact_orbit_sums_are_internal_errors(self, prior, monkeypatch):
        # One clique completing every root: heavy 5,4,1 gets c0 = 48 / 4 and then
        # 81 * 12 / 5, unknown 5,5,1 gets 192 / 5; both leave a remainder.
        monkeypatch.setattr(engine._CliqueSearch, "search", lambda self, cands, size, path: 1)
        q = 4 if prior == "heavy" else 5
        with pytest.raises(AssertionError, match="internal error"):
            engine.clique_count(GameSpec(5, q, 1, prior), CAP)

    def test_heavy_balance_win_branches_only_inside_the_root_neighbourhood(self, monkeypatch):
        # 4 rows of 5 rounds pairwise 5 apart do not exist, which the pigeonhole
        # does not see (it starts at 5).  The Delsarte LP does (3 words), so it
        # is set aside to watch the search.  Translations move any clique onto
        # word 0, so after its one branch nothing is left to search.
        spec, unpatched = GameSpec(4, 5, 2, "heavy"), engine._CliqueSearch
        assert engine.every_plan_loses(4, 5, 2, "heavy")
        monkeypatch.setattr(engine, "every_plan_loses", pigeonhole_only)
        searches = recording(monkeypatch)
        assert engine._CliqueSearch(spec, CAP).first(spec.n) is None
        (search,) = searches
        root = search.neighbours(0)
        built = [i for i, row in enumerate(search.rows) if row is not None]
        assert built[0] == 0 and len(built) > 1
        assert all(root >> i & 1 for i in built[1:])
        # The all-roots search goes on to words outside N(0).
        plain = unpatched(spec, CAP)
        plain.build()
        assert plain.search((1 << len(plain.words)) - 1, spec.n, []) == 0
        assert any(row is not None and not root >> i & 1 for i, row in enumerate(plain.rows[1:], 1))

    def test_closed_forms_beyond_the_plan_enumeration(self):
        # Every 8 distinct rows of 3 rounds are must-win at k = 0.
        assert census_perfect(GameSpec(8, 3, 0, "heavy")) == math.perm(27, 8)
        # Nine rows of 4 rounds pairwise 3 apart fill the space (a perfect code): 72 such sets.
        assert census_perfect(GameSpec(9, 4, 1, "heavy")) == math.factorial(9) * 72
        with pytest.raises(ResourceLimitError):  # 81**2 graph cells
            census_perfect(GameSpec(9, 4, 1, "heavy"), matrix_cap=80**2)
        # Past the unknown-prior capacity of 13: the pigeonhole decides.
        value = game_value(GameSpec(14, 3, 0, "unknown"), "exhaustive")
        assert (value.winner, value.instances_checked) == ("balance", 3**42)

    def test_first_plan_builds_only_the_rows_it_branches_on(self):
        search = engine._CliqueSearch(GameSpec(2, 5, 2, "heavy"), CAP)
        search.build()
        path = []
        search.search((1 << len(search.words)) - 1, 2, path)
        assert path == [121, 0]  # RRRRR, then LLLLL: the first plan
        assert [r is not None for r in search.rows].count(True) == 1

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_rungs_without_a_graph_build_none_and_are_never_refused(self, prior, monkeypatch):
        # Settled and k = 0 specs answer with the graph scan patched to raise,
        # under a cap of one cell (n*q for value, whose builder plan has as many).
        specs = [GameSpec(n, q, k, prior) for n, q, k in SMALL_SPECS]
        specs = [s for s in specs if not engine._CliqueSearch(s, CAP).needs_graph(s.n)]
        want = [(engine._CliqueSearch(s, CAP).first(s.n), engine.clique_count(s, CAP),
                 game_value(s, "exhaustive")) for s in specs]
        sweeps = [theorem_sweep(6, prior, 0, cap) for cap in (9, 3000, 200_000)]

        def refuse(self):
            raise AssertionError("graph built")
        monkeypatch.setattr(engine._CliqueSearch, "_admissible", refuse)
        assert len(specs) >= 150
        for spec, (first, count, value) in zip(specs, want):
            assert engine._CliqueSearch(spec, 1).first(spec.n) == first, spec
            assert engine.clique_count(spec, 1) == count, spec
            assert census_perfect(spec, 1) == math.factorial(spec.n) * count, spec
            assert game_value(spec, "exhaustive", spec.n * spec.q) == value, spec
        assert [theorem_sweep(6, prior, 0, cap) for cap in (9, 3000, 200_000)] == sweeps

    def test_cap_is_checked_before_the_graph_is_built(self, monkeypatch):
        def refuse(self):
            raise AssertionError("graph built before the cap check")
        monkeypatch.setattr(engine._CliqueSearch, "_admissible", refuse)
        spec = GameSpec(4, 9, 1, "heavy")  # 3**18 graph cells
        with pytest.raises(ResourceLimitError, match="--matrix-cap"):
            census_perfect(spec)
        with pytest.raises(ResourceLimitError, match="--matrix-cap"):
            game_value(spec, "exhaustive")

    @pytest.mark.parametrize("spec", [GameSpec(6, 5, 1, "heavy"), GameSpec(5, 5, 1, "unknown")],
                             ids=GameSpec.compact)
    def test_nodes_past_the_cap_are_refused(self, spec, monkeypatch):
        # A census at a cap of exactly the nodes it visits answers; one node
        # fewer and the search is refused once it passes the cap.
        searches = recording(monkeypatch)
        count = census_perfect(spec)
        (search,) = searches
        assert search.nodes > len(search.words) ** 2  # the graph fits both caps
        assert census_perfect(spec, search.nodes) == count
        with pytest.raises(ResourceLimitError, match="--matrix-cap"):
            census_perfect(spec, search.nodes - 1)
        assert searches[-1].nodes == search.nodes  # refused at the node that passed

    def test_unknown_balance_win_branches_only_inside_the_root_neighbourhoods(self, monkeypatch):
        # No 7 rows of 5 rounds are pairwise compatible at k = 1 under the
        # unknown prior, which the pigeonhole does not see (it starts at 12).
        # Each root L^(5-j) O^j, j < 3, is tried in turn, and every other row
        # built lies among a root's later neighbours.
        spec = GameSpec(7, 5, 1, "unknown")
        assert engine.pigeonhole_min_n(5, 1, "unknown") == 12
        searches = recording(monkeypatch)
        assert engine._CliqueSearch(spec, CAP).first(spec.n) is None
        (search,) = searches
        roots = [int(np.searchsorted(search.words, 3**j - 1)) for j in range(3)]
        hoods = [search.neighbours(r) for r in roots]
        built = [i for i, row in enumerate(search.rows) if row is not None]
        assert set(roots) < set(built)
        assert all(i in roots or any(h >> i & 1 for h in hoods) for i in built)


def sweep_by_game_value(q_max, prior, k, cap):
    """The per-n sweep theorem_sweep replaced: one game_value, witness built
    and certified, for every n whose 3**(n*q) plans fit the cap."""
    rows = []
    for q in range(max(1, k), q_max + 1):
        last_player, balance_min, n = 0, None, 1
        while (3**q) ** n <= cap:
            if game_value(GameSpec(n, q, k, prior), "exhaustive", cap).winner == "player":
                last_player, n = n, n + 1
            else:
                balance_min = n
                break
        least = engine.pigeonhole_min_n(q, k, prior)
        capacity, mass_min = (least - 1, None) if k == 0 else (None, least)
        if balance_min is not None:
            rows.append(verifier.SweepRow(q, last_player, balance_min, "exhaustive", capacity, mass_min))
        else:
            mode = "constructive" if k == 0 else "mass-bound"
            rows.append(verifier.SweepRow(q, capacity or last_player or None, least, mode,
                                          capacity, mass_min))
    return rows


class TestTheoremSweep:
    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_matches_the_per_n_game_values(self, prior):
        for k, cap in itertools.product(range(3), (9, 3000, 200_000)):
            assert theorem_sweep(6, prior, k, cap) == sweep_by_game_value(6, prior, k, cap), (k, cap)

    @pytest.mark.parametrize("k,prior,certified", [(0, "heavy", 4), (1, "heavy", 4), (1, "unknown", 2)])
    def test_one_graph_and_one_certified_plan_per_q(self, k, prior, certified, monkeypatch):
        # Unknown prior at k = 1: q = 1 and 2 have no admissible row, so no player win.
        calls = kernel_calls(monkeypatch)
        searches = recording(monkeypatch)
        rows = {row.q: row for row in theorem_sweep(4, prior, k)}
        assert len(calls) == len({spec.q for spec in calls}) == certified
        for spec in calls:  # the largest win: the balance's first, or the cap, comes next
            row = rows[spec.q]
            if row.mode == "exhaustive":
                assert spec.n == row.player_max_n == row.balance_min_n - 1
            else:
                assert (3**spec.q) ** (spec.n + 1) > 200_000
        assert len(searches) == len({search.spec.q for search in searches})

    def test_a_failed_certification_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(engine, "first_winning_word", lambda spec, preds: [0] * spec.q)
        with pytest.raises(AssertionError, match="internal error"):
            theorem_sweep(4, "heavy")

    def test_a_losing_clique_leaves_through_the_shared_certified_exit(self, monkeypatch):
        # Heavy k = 0: q = 1 wins up to n = 3, and q = 2 walks to n = 5, the cap's
        # last n.  Plant LL on every row as q = 2's first clique; it loses.
        exits, unpatched = [], verifier._certified
        monkeypatch.setattr(verifier, "_certified",
                            lambda spec, codes, source: exits.append(source) or unpatched(spec, codes, source))
        first = engine._CliqueSearch.first
        monkeypatch.setattr(engine._CliqueSearch, "first",
                            lambda self, n: [0] * n if self.spec.q == 2 else first(self, n))
        with pytest.raises(AssertionError,
                           match=r"^internal error: the sweep's plan for 5,2,0,heavy failed certification$"):
            theorem_sweep(3, "heavy")
        assert exits == ["the sweep's plan for 3,1,0,heavy", "the sweep's plan for 5,2,0,heavy"]

    def test_the_node_meter_refuses_at_the_same_n_as_the_per_n_sweep(self, monkeypatch):
        # No search in a sweep visits more nodes than its 3**(n*q) plans, so no
        # cap the sweep runs under trips the meter; this one meters two nodes.
        # Heavy k = 1 visits 1 and 2 nodes at q = 3 (n = 2, 3), then 3 at 4,4,1.
        class Metered(engine._CliqueSearch):
            def build(self):
                super().build()
                self.cap = 2

        monkeypatch.setattr(engine, "_CliqueSearch", Metered)
        refusals = []
        for sweep in (theorem_sweep, sweep_by_game_value):
            with pytest.raises(ResourceLimitError, match="--matrix-cap") as info:
                sweep(4, "heavy", 1, 10**8)
            refusals.append(str(info.value))
        assert refusals[0] == refusals[1]
        assert "4,4,1,heavy passed 2 nodes" in refusals[0]

    @given(
        st.tuples(
            st.integers(2, 8), st.integers(1, 4), st.integers(0, 2),
            st.sampled_from(["heavy", "unknown"]), st.integers(0, 10_000),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_every_sub_plan_of_a_must_win_plan_is_must_win(self, case):
        # The lemma behind certifying only the sweep's largest plan: dropping a
        # row drops hypotheses, and no announcement gains survivors.
        drawn, q, k, prior, seed = case
        k = min(k, q)
        plan = ()
        for row in random_plan(random.Random(seed), drawn, q):  # kept while certify says must-win
            if certify(GameSpec(len(plan) + 1, q, k, prior), plan + (row,)).must_win:
                plan += (row,)
        n = len(plan)
        if n < 2:
            return
        masks = ["".join(m) for m in itertools.product("LRD", repeat=q)]
        for i in range(n):
            rest = plan[:i] + plan[i + 1 :]
            for mask in masks:
                assert adjudicate(GameSpec(n - 1, q, k, prior), rest, mask).winner == "player"

    @pytest.mark.parametrize("prior,k,last", [
        ("heavy", 0, (36472996377170786403, 36472996377170786404, "constructive",
                      36472996377170786403, None)),
        ("unknown", 0, (18236498188585393201, 18236498188585393202, "constructive",
                        18236498188585393201, None)),
        ("heavy", 2, (None, 10845375074983880, "mass-bound", None, 10845375074983880)),
        ("unknown", 2, (None, 5422687537491940, "mass-bound", None, 5422687537491940)),
    ])
    def test_every_row_past_the_round_bound_is_answered(self, prior, k, last):
        # Past MAX_ROUNDS no plan fits the cap, so the walk takes no step and
        # the capacity theorem and the pigeonhole give the row.
        rows = theorem_sweep(41, prior, k)
        assert [row.q for row in rows] == list(range(max(1, k), 42))
        for row in rows[engine.MAX_ROUNDS - max(1, k) + 1 :]:
            assert row.balance_min_n == engine.pigeonhole_min_n(row.q, k, prior), row
        assert rows[-1] == verifier.SweepRow(41, *last)

    def test_single_round_row(self):
        rows = theorem_sweep(1, "heavy")
        assert rows[0].q == 1
        assert rows[0].player_max_n == 3
        assert rows[0].balance_min_n == 4
        assert rows[0].capacity == 3

    def test_unknown_prior_capacities(self):
        rows = theorem_sweep(4, "unknown")
        assert [r.capacity for r in rows] == [1, 4, 13, 40]
        assert [r.player_max_n for r in rows] == [1, 4, 13, 40]
        assert [r.balance_min_n for r in rows] == [2, 5, 14, 41]

    def test_modes_recorded(self):
        rows = theorem_sweep(3, "heavy")
        assert rows[0].mode == "exhaustive"
        assert rows[-1].mode == "constructive"

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_constructive_rows_build_no_witness(self, prior, monkeypatch):
        decode_rows = engine.decode_rows

        def guarded(codes, q):
            if len(codes) > 1000:
                raise AssertionError(f"built a {len(codes)}-row witness")
            return decode_rows(codes, q)

        monkeypatch.setattr(engine, "decode_rows", guarded)
        rows = theorem_sweep(8, prior)
        cap = perfect_capacity(8, prior)
        assert (rows[-1].player_max_n, rows[-1].balance_min_n, rows[-1].mode) == (
            cap, cap + 1, "constructive")

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_the_sweep_builds_no_plan_text(self, prior, monkeypatch):
        # Its largest wins are certified on their digits, and no row prints a plan.
        for name in ("decode_rows", "digit_rows"):
            monkeypatch.setattr(engine, name, lambda *args, name=name: pytest.fail(f"called {name}"))
        calls = kernel_calls(monkeypatch)
        for k in range(3):
            theorem_sweep(5, prior, k)
        assert len(calls) >= 5

    def test_mass_bound_with_lies(self):
        rows = theorem_sweep(3, "unknown", k=1)
        by_q = {r.q: r for r in rows}
        # ball volume 7 at q=3 -> balance certain from ceil(27/ (2*7)) + 1
        assert by_q[3].mass_bound_min_n == 27 // 14 + 1
