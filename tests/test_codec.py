"""Fast row conversions and bulk seeded draws against their readable forms."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balancegame import (
    GameSpec,
    RandomStrategyParams,
    ResourceLimitError,
    complement_free_strategy,
    concentration_experiment,
    random_strategy,
    simulate_random_player,
    surviving_hypotheses,
    ternary_strategy,
    trial_seed,
)
from balancegame import builders, engine
from balancegame.builders import draw_below, draw_uniforms
from balancegame.core import (
    OUTCOMES,
    PLACEMENTS,
    DimensionError,
    partial_complement,
    validate_mask,
    validate_row,
)
from balancegame.engine import (
    batch_survivor_counts,
    code_digits,
    decode,
    decode_rows,
    digit_codes,
    encode,
    encode_mask,
    encode_row,
    predicted_digits,
)

# Seeds at the edges of the 32-bit seeding words and derived trial seeds of a
# master seed past 10**6, as the CLI forms them.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, trial_seed(10**6, 0), trial_seed(10**6 + 17, 4321)]


@st.composite
def coded_rows(draw):
    q = draw(st.integers(1, engine.MAX_ROUNDS))
    codes = draw(st.lists(st.integers(0, 3**q - 1), min_size=1, max_size=6))
    return q, codes


class TestCodec:
    @given(coded_rows())
    @settings(max_examples=200, deadline=None)
    def test_fast_codec_equals_the_digit_loops(self, case):
        q, codes = case
        rows = [decode(c, q, PLACEMENTS) for c in codes]
        assert decode_rows(np.array(codes, dtype=np.int64), q) == rows
        assert [encode_row(r) for r in rows] == [encode(r, PLACEMENTS) for r in rows] == codes
        masks = [decode(c, q, OUTCOMES) for c in codes]
        assert [encode_mask(m) for m in masks] == codes

    @given(coded_rows())
    @settings(max_examples=200, deadline=None)
    def test_digits_round_trip_and_equal_the_digit_loop(self, case):
        q, codes = case
        digits = code_digits(np.array(codes, dtype=np.int64), q)
        assert digits.shape == (q, len(codes)) and digits.dtype == np.uint8
        assert digits.T.tolist() == [[int(d) for d in decode(c, q, "012")] for c in codes]
        assert digit_codes(digits).tolist() == codes

    @given(coded_rows(), st.sampled_from(["heavy", "unknown"]))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_digits_are_the_rows_then_their_mirrors(self, case, prior):
        q, codes = case
        rows = [decode(c, q, PLACEMENTS) for c in codes]
        words = rows if prior == "heavy" else rows + [partial_complement(r) for r in rows]
        want = [[int(d) for d in decode(encode_row(w), q, "012")] for w in words]
        digits = predicted_digits(GameSpec(len(rows), q, 0, prior), rows)
        assert digits.shape == (q, len(words)) and digits.T.tolist() == want

    @given(coded_rows())
    @settings(max_examples=200, deadline=None)
    def test_mirror_codes_swap_the_pans(self, case):
        q, codes = case
        rows = [decode(c, q, PLACEMENTS) for c in codes]
        light = predicted_digits(GameSpec(len(rows), q, 0, "unknown"), rows)[:, len(rows):]
        want = [encode_row(partial_complement(r)) for r in rows]
        assert digit_codes(light).tolist() == want

    @pytest.mark.parametrize("q", [40, 45])
    def test_decode_rows_past_the_round_bound_pads_with_l(self, q):
        codes = [0, 1, 2, 3**20 + 5, 2**63 - 1]
        want = [decode(c, q, PLACEMENTS) for c in codes]
        assert decode_rows(np.array(codes, dtype=np.int64), q) == want
        digits = code_digits(np.array(codes, dtype=np.int64), q)
        assert digits.T.tolist() == [[int(d) for d in decode(c, q, "012")] for c in codes]
        assert ternary_strategy(5, q) == tuple(decode(i, q, PLACEMENTS) for i in range(5))
        assert complement_free_strategy(3, q) == ternary_strategy(3, q)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_builders_equal_their_readable_definitions(self, q):
        rows = ["".join(cells) for cells in itertools.product(PLACEMENTS, repeat=q)]
        assert ternary_strategy(3**q, q) == tuple(rows)
        kept = tuple(r for r in rows if r.lstrip("O").startswith("L"))
        assert complement_free_strategy(len(kept), q) == kept

    def test_validation_messages_are_unchanged(self):
        cases = [
            (validate_row, "LXQL", r"^row 'LXQL' uses characters outside 'LRO': \['Q', 'X'\]$"),
            (validate_row, "LRo", r"^row 'LRo' uses characters outside 'LRO': \['o'\]$"),
            (validate_mask, "DOD", r"^mask 'DOD' uses characters outside 'LRD': \['O'\]$"),
        ]
        for check, text, message in cases:
            with pytest.raises(DimensionError, match=message):
                check(text, len(text))
        validate_row("OLR", 3)
        validate_mask("DLR", 3)


def readable_row_codes(n, q, on_fraction, seed):
    rng = random.Random(seed)
    codes = []
    for _ in range(n):
        code = 0
        for _ in range(q):
            u = rng.random()
            code = 3 * code + (0 if u < on_fraction / 2 else 1 if u < on_fraction else 2)
        codes.append(code)
    return codes


class TestSeededDraws:
    def test_bulk_uniforms_equal_random_random(self):
        rngs = [random.Random(s) for s in SEEDS]
        got = np.concatenate([draw_uniforms(rngs, 9), draw_uniforms(rngs, 4)], axis=1)
        for seed, row, rng in zip(SEEDS, got, rngs):
            reference = random.Random(seed)
            assert row.tolist() == [reference.random() for _ in range(13)]
            assert rng.random() == reference.random()

    @pytest.mark.parametrize("q", range(1, engine.MAX_ROUNDS + 1))
    def test_word_randrange_equals_random_random(self, q):
        # q <= 20 draws one 32-bit word per candidate, q >= 21 two
        seeds = SEEDS + [trial_seed(s, t) for s in (0, 7, 10**6 + 3) for t in range(40)]
        got = draw_below(seeds, 3**q, 6)
        for seed, row in zip(seeds, got):
            reference = random.Random(seed)
            assert row.tolist() == [reference.randrange(3**q) for _ in range(6)]

    @pytest.mark.parametrize("q", [1, 2, 5, 20, 21, 25, 39])
    def test_word_randrange_redraws_the_short_trials(self, q, monkeypatch):
        # A first draw of exactly `count` candidates is short for every trial
        # with a rejection among them, and often again when doubled.
        monkeypatch.setattr(builders, "_first_draw", lambda bound, count: count)
        reseeds = []
        reseeded = builders.reseeded

        def counted(rng, seeds):
            for r in reseeded(rng, seeds):
                reseeds.append(r)
                yield r

        monkeypatch.setattr(builders, "reseeded", counted)
        seeds = SEEDS + [trial_seed(10**6 + 17, t) for t in range(60)]
        got = draw_below(seeds, 3**q, 5)
        for seed, row in zip(seeds, got):
            reference = random.Random(seed)
            assert row.tolist() == [reference.randrange(3**q) for _ in range(5)]
        assert len(reseeds) > len(seeds)  # some trials were drawn again

    @pytest.mark.parametrize("on_fraction", [0.0, 1.0, 2 / 3, 0.3])
    @pytest.mark.parametrize("q", [1, 4, 45])
    def test_row_codes_equal_the_per_cell_draw(self, on_fraction, q):
        for seed in SEEDS:
            params = RandomStrategyParams(on_fraction, seed)
            want = readable_row_codes(6, q, on_fraction, seed)
            assert random_strategy(6, q, params) == tuple(decode(c, q, PLACEMENTS) for c in want)

    @pytest.mark.parametrize("r", [0.0, 1.0, 0.37])
    def test_concentration_equals_the_per_trial_loop(self, r, monkeypatch):
        q, delta, trials, seed = 7, 0.1, 300, 10**6 + 3
        hits = 0
        for t in range(trials):
            rng = random.Random(trial_seed(seed, t))
            on = sum(rng.random() < r for _ in range(q))
            hits += abs(on / q - r) > delta
        want = hits / trials
        assert concentration_experiment(q, r, delta, trials, seed)[0] == want
        monkeypatch.setattr(engine, "_PAIR_BYTES", 16 * q * 7)  # blocks of 7 trials
        assert concentration_experiment(q, r, delta, trials, seed)[0] == want
        monkeypatch.setattr(engine, "_PAIR_BYTES", 16 * 3)  # one trial, in pieces of 3 cells
        assert concentration_experiment(q, r, delta, trials, seed)[0] == want

    @pytest.mark.parametrize("spec", [GameSpec(5, 2, 0, "heavy"), GameSpec(4, 3, 1, "unknown")])
    def test_simulate_is_the_same_in_blocks(self, spec, monkeypatch):
        seed, trials, r = 2**32 + 1, 150, 0.6
        wins = 0
        for t in range(trials):
            codes = np.array([readable_row_codes(spec.n, spec.q, r, trial_seed(seed, t))])
            wins += int(engine.batch_balance_wins(spec, code_digits(codes, spec.q))[0])
        assert simulate_random_player(spec, r, trials, seed).successes == wins
        monkeypatch.setattr(engine, "_PAIR_BYTES", 16 * spec.n * spec.q * 11)
        assert simulate_random_player(spec, r, trials, seed).successes == wins


class TestBatchSurvivorCounts:
    @pytest.mark.parametrize("budget", [1 << 22, 40, 8])
    def test_blocks_agree_with_the_rules(self, budget, monkeypatch):
        monkeypatch.setattr(engine, "_PAIR_BYTES", budget)
        rng = random.Random(budget)
        spec = GameSpec(3, 2, 1, "unknown")
        codes = np.array([[rng.randrange(9) for _ in range(3)] for _ in range(5)])
        counts = batch_survivor_counts(spec, codes)
        for t, plan in enumerate(codes):
            rows = decode_rows(plan, 2)
            for m in range(9):
                mask = decode(m, 2, OUTCOMES)
                assert counts[t, m] == len(surviving_hypotheses(spec, rows, mask))

    def test_refused_before_allocating_when_one_block_cannot_fit(self, monkeypatch):
        monkeypatch.setattr(engine, "_PAIR_BYTES", 5)
        with pytest.raises(ResourceLimitError, match="6 hypotheses exceed"):
            batch_survivor_counts(GameSpec(3, 2, 0, "unknown"), np.zeros((2, 3), dtype=np.int64))
