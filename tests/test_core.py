import itertools
import operator

import pytest
from hypothesis import given, strategies as st

from balancegame import (
    DimensionError,
    DomainError,
    GameSpec,
    Hypothesis,
    adjudicate,
    lie_count,
    partial_complement,
    predicted_mask,
    surviving_hypotheses,
    transcribe,
)
from balancegame.core import HEAVY, LIGHT, PRIORS, UNKNOWN

# The classic 4-coin, 2-round worked example: rows count 0..3 in binary.
S_BIN42 = ("LL", "LR", "RL", "RR")


def all_rows(q):
    return ["".join(t) for t in itertools.product("LRO", repeat=q)]


def all_masks(q):
    return ["".join(t) for t in itertools.product("LRD", repeat=q)]


rows_st = st.integers(1, 4).flatmap(
    lambda q: st.text(alphabet="LRO", min_size=q, max_size=q)
)


class TestGameSpec:
    def test_parse_round_trip(self):
        spec = GameSpec.parse("4,2,0,heavy")
        assert spec == GameSpec(4, 2, 0, "heavy")
        assert spec.compact() == "4,2,0,heavy"

    def test_hypothesis_counts(self):
        assert GameSpec(4, 2, 0, "heavy").hypothesis_count == 4
        assert GameSpec(4, 2, 0, "unknown").hypothesis_count == 8

    @pytest.mark.parametrize("bad", ["0,1,0,heavy", "1,0,0,heavy", "1,1,2,heavy",
                                     "1,1,0,light", "1,1,heavy", "a,1,0,heavy"])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(DomainError):
            GameSpec.parse(bad)

    def test_hypothesis_order_heavy_block_first(self):
        hyps = list(GameSpec(2, 1, 0, "unknown").hypotheses())
        assert hyps == [
            Hypothesis(0, HEAVY), Hypothesis(1, HEAVY),
            Hypothesis(0, LIGHT), Hypothesis(1, LIGHT),
        ]


class TestPredictedMask:
    def test_heavy_image(self):
        assert predicted_mask("LRO", HEAVY) == "LRD"

    def test_light_image_swaps_pans(self):
        assert predicted_mask("LRO", LIGHT) == "RLD"

    def test_images_are_bijections(self):
        for q in (1, 2, 3):
            for sign in (HEAVY, LIGHT):
                images = {predicted_mask(r, sign) for r in all_rows(q)}
                assert len(images) == 3**q

    def test_light_is_heavy_of_complement(self):
        for row in all_rows(3):
            assert predicted_mask(row, LIGHT) == predicted_mask(partial_complement(row), HEAVY)


class TestLieCount:
    def test_worked_example(self):
        # light reading of LOR predicts R,D,L; mask RLL disagrees only mid-round
        assert lie_count("LOR", "RLL", LIGHT) == 1

    def test_zero_against_own_prediction(self):
        for row in all_rows(2):
            for sign in (HEAVY, LIGHT):
                assert lie_count(row, predicted_mask(row, sign), sign) == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            lie_count("LR", "L", HEAVY)

    @given(rows_st, st.sampled_from((HEAVY, LIGHT)))
    def test_bounded_by_length(self, row, sign):
        for mask in all_masks(len(row))[:10]:
            assert 0 <= lie_count(row, mask, sign) <= len(row)


class TestTranscribe:
    def test_eq1_observation_grid(self):
        assert transcribe(S_BIN42, "LR", "heavy") == ("+x", "++", "xx", "x+")

    def test_unknown_prior_toy(self):
        strategy = ("RLL", "RLR", "RLO", "RRL", "LRR", "LRO", "LOL", "LOR")
        grid = transcribe(strategy, "LRD", "unknown")
        assert grid == ("--x", "--x", "--±", "-+x", "++x", "++±", "+xx", "+xx")

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            transcribe(("LL", "L"), "LR", "heavy")
        with pytest.raises(DimensionError):
            transcribe(("LL",), "LRL", "heavy")

    def test_rejects_bad_prior(self):
        with pytest.raises(DomainError):
            transcribe(S_BIN42, "LR", "light")


class TestSurvivalMatchesTranscription:
    """With no lie budget, distance-based survival must equal the character
    test on the evidence grid.  Both sides factor through a single row, so
    checking every (row, mask) pair is exhaustive for every matrix shape."""

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_exhaustive_per_row(self, q):
        for row in all_rows(q):
            for mask in all_masks(q):
                heavy_grid = transcribe((row,), mask, "heavy")[0]
                unknown_grid = transcribe((row,), mask, "unknown")[0]
                assert (lie_count(row, mask, HEAVY) == 0) == (set(heavy_grid) <= {"+"})
                assert (lie_count(row, mask, HEAVY) == 0) == (set(unknown_grid) <= {"+", "±"})
                assert (lie_count(row, mask, LIGHT) == 0) == (set(unknown_grid) <= {"-", "±"})

    @given(
        st.integers(2, 4).flatmap(
            lambda q: st.tuples(
                st.lists(st.text("LRO", min_size=q, max_size=q), min_size=2, max_size=5),
                st.text("LRD", min_size=q, max_size=q),
            )
        )
    )
    def test_matrix_level_wiring(self, case):
        rows, mask = case
        spec = GameSpec(len(rows), len(mask), 0, "unknown")
        grid = transcribe(rows, mask, "unknown")
        expected = set()
        for i, line in enumerate(grid):
            if set(line) <= {"+", "±"}:
                expected.add(Hypothesis(i, HEAVY))
            if set(line) <= {"-", "±"}:
                expected.add(Hypothesis(i, LIGHT))
        assert surviving_hypotheses(spec, rows, mask) == expected


class TestSurvivingHypotheses:
    def test_lie_budget_example(self):
        spec = GameSpec(2, 2, 1, "heavy")
        assert surviving_hypotheses(spec, ("LL", "RR"), "LL") == {Hypothesis(0, HEAVY)}

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            surviving_hypotheses(GameSpec(3, 2, 0, "heavy"), S_BIN42, "LR")

    @given(
        st.integers(1, 6).flatmap(
            lambda q: st.tuples(
                st.lists(st.text("LRO", min_size=q, max_size=q), min_size=1, max_size=8),
                st.text("LRD", min_size=q, max_size=q),
                st.integers(0, q),
                st.sampled_from(PRIORS),
            )
        )
    )
    def test_matches_one_hypothesis_at_a_time(self, case):
        # Oracle: each hypothesis's honest announcement, compared with the mask.
        rows, mask, k, prior = case
        spec = GameSpec(len(rows), len(mask), k, prior)
        expected = {
            Hypothesis(i, sign)
            for sign in spec.signs
            for i, row in enumerate(rows)
            if sum(map(operator.ne, mask, predicted_mask(row, sign))) <= k
        }
        assert surviving_hypotheses(spec, rows, mask) == expected
        assert expected == {Hypothesis(i, sign) for sign in spec.signs
                            for i, row in enumerate(rows) if lie_count(row, mask, sign) <= k}

    @pytest.mark.parametrize("lies", ["zero", "some"])
    @given(st.data())
    def test_survivors_are_the_hypotheses_within_k_lies(self, lies, data):
        # Rows come from a pool of at most three words and their mirrors, and the
        # mask is often one of their honest words, so k = 0 games keep survivors
        # too: the k = 0 string equality is held to lie_count.
        q = data.draw(st.integers(1, 5))
        pool = data.draw(st.lists(st.text("LRO", min_size=q, max_size=q), min_size=1, max_size=3))
        rows = data.draw(st.lists(st.sampled_from(pool + [partial_complement(r) for r in pool]),
                                  min_size=1, max_size=8))
        honest = [predicted_mask(row, sign) for row in rows for sign in (HEAVY, LIGHT)]
        mask = data.draw(st.one_of(st.sampled_from(honest), st.text("LRD", min_size=q, max_size=q)))
        k = 0 if lies == "zero" else data.draw(st.integers(1, q))
        spec = GameSpec(len(rows), q, k, data.draw(st.sampled_from(PRIORS)))
        want = {Hypothesis(i, sign) for sign in spec.signs
                for i, row in enumerate(rows) if lie_count(row, mask, sign) <= k}
        assert surviving_hypotheses(spec, rows, mask) == want


class TestAdjudicate:
    def test_identifies_coin_two(self):
        verdict = adjudicate(GameSpec(4, 2, 0, "heavy"), S_BIN42, "LR")
        assert verdict.identified == Hypothesis(1, HEAVY)
        assert verdict.winner == "player"

    def test_catches_outright_lie(self):
        verdict = adjudicate(GameSpec(4, 2, 0, "heavy"), S_BIN42, "DL")
        assert verdict.caught_lying and verdict.winner == "player"

    def test_two_survivors_hand_win_to_balance(self):
        spec = GameSpec(8, 3, 0, "unknown")
        strategy = ("RLL", "RLR", "RLO", "RRL", "LRR", "LRO", "LOL", "LOR")
        verdict = adjudicate(spec, strategy, "LRD")
        assert verdict.winner == "balance"
        assert verdict.survivors == {Hypothesis(2, LIGHT), Hypothesis(5, HEAVY)}

    def test_same_coin_opposite_signs_is_a_balance_win(self):
        spec = GameSpec(2, 1, 0, "unknown")
        verdict = adjudicate(spec, ("O", "L"), "D")
        assert verdict.survivors == {Hypothesis(0, HEAVY), Hypothesis(0, LIGHT)}
        assert verdict.winner == "balance"

    def test_thirteen_coin_identification(self):
        spec = GameSpec(13, 3, 0, "unknown")
        strategy = ("LLL", "LLR", "LRL", "LRR", "ORR", "OLR", "ROL",
                    "LOL", "RLO", "LLO", "OOR", "LOO", "ORO")
        verdict = adjudicate(spec, strategy, "DLR")
        assert verdict.identified == Hypothesis(5, HEAVY)
        assert verdict.identified.label == "coin 6 heavier"

    @given(
        st.integers(1, 3).flatmap(
            lambda q: st.tuples(
                st.lists(st.text("LRO", min_size=q, max_size=q), min_size=1, max_size=4),
                st.text("LRD", min_size=q, max_size=q),
                st.sampled_from(["heavy", "unknown"]),
            )
        )
    )
    def test_deterministic(self, case):
        rows, mask, prior = case
        spec = GameSpec(len(rows), len(mask), 0, prior)
        assert adjudicate(spec, rows, mask) == adjudicate(spec, rows, mask)
