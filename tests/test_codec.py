"""Fast row conversions and bulk seeded draws against their readable forms."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balancegame import (
    GameSpec,
    RandomStrategyParams,
    ResourceLimitError,
    complement_free_strategy,
    concentration_experiment,
    random_perfect_rate,
    random_strategy,
    simulate_random_player,
    surviving_hypotheses,
    ternary_strategy,
    trial_seed,
)
from balancegame import builders, engine
from balancegame.builders import draw_below
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
# Each seed's first random() value and its neighbours one ulp either side,
# twice each of those where that is a rate (so a plan's r / 2 ties them),
# and the least subnormal.
DRAWN = [v for u in (random.Random(s).random() for s in SEEDS)
         for v in (u, math.nextafter(u, 0.0), math.nextafter(u, 1.0))]
EDGE_RATES = DRAWN + [2 * v for v in DRAWN if 2 * v <= 1.0] + [5e-324]


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

    @pytest.mark.parametrize("shape", [(1, 4096), (64, 64), (1, 4097), (17, 241)])
    @pytest.mark.parametrize("q", [1, 7, engine.MAX_ROUNDS])
    def test_digit_codes_equal_the_digit_loop_on_both_sides_of_the_matmul_rule(self, q, shape):
        # (q, 1, H) and (q, T, H) blocks of 4096 words, one matmul, and of 4097,
        # Horner; at q = MAX_ROUNDS the all-D word's code is 3**39 - 1, the
        # largest int64 code.
        assert engine._MATMUL_CELLS == 4096
        digits = np.random.default_rng([q, *shape]).integers(0, 3, (q,) + shape, dtype=np.uint8)
        digits[:, 0, 0] = 2
        want = [[encode("".join(map(str, word)), "012") for word in row]
                for row in digits.transpose(1, 2, 0).tolist()]
        assert digit_codes(digits).tolist() == want
        assert want[0][0] == 3**q - 1

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
    @pytest.mark.parametrize("rate", [0.0, 0.37, 5e-324, 1 - 2**-53, *DRAWN[:6]])
    def test_long_rows_are_counted_in_pieces(self, rate, monkeypatch):
        # A row too long for one block is counted piece by piece, each piece
        # drawn on from the same generator.
        monkeypatch.setattr(engine, "_PAIR_BYTES", 10 * 4)  # pieces of 4 values
        fills = []
        fill = builders._fill

        def counted(rng, out):
            fills.append(len(out))
            fill(rng, out)

        monkeypatch.setattr(builders, "_fill", counted)
        seeds = SEEDS[:3]
        got = builders.seeded_below_rate(seeds, 13, rate)
        for seed, on in zip(seeds, got):
            reference = random.Random(seed)
            assert on == sum(reference.random() < rate for _ in range(13))
        assert fills == [8, 8, 8, 2] * len(seeds)

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

    @pytest.mark.parametrize("on_fraction", [0.0, 1.0, 2 / 3, 0.3, *EDGE_RATES])
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
        monkeypatch.setattr(engine, "_PAIR_BYTES", builders.below_rate_bytes(q) * 7)  # blocks of 7 trials
        assert concentration_experiment(q, r, delta, trials, seed)[0] == want
        monkeypatch.setattr(engine, "_PAIR_BYTES", 10 * 3)  # one trial, in pieces of 3 values
        assert concentration_experiment(q, r, delta, trials, seed)[0] == want

    @pytest.mark.parametrize("spec", [GameSpec(5, 2, 0, "heavy"), GameSpec(4, 3, 1, "unknown")])
    def test_simulate_is_the_same_in_blocks(self, spec, monkeypatch):
        seed, trials, r = 2**32 + 1, 150, 0.6
        wins = 0
        for t in range(trials):
            codes = np.array([readable_row_codes(spec.n, spec.q, r, trial_seed(seed, t))])
            wins += int(engine.batch_balance_wins(spec, code_digits(codes, spec.q))[0])
        assert simulate_random_player(spec, r, trials, seed).successes == wins
        cells = spec.n * spec.q  # blocks of 11 trials
        monkeypatch.setattr(engine, "_PAIR_BYTES", (builders.below_rate_bytes(cells) + cells) * 11)
        assert simulate_random_player(spec, r, trials, seed).successes == wins


def generator_words(seed, words):
    raw = random.Random(seed).getrandbits(32 * words).to_bytes(4 * words, "little")
    return np.frombuffer(raw, dtype="<u4").tolist()


def count_reseeds(monkeypatch):
    reseeds = []
    reseeded = builders.reseeded

    def counted(rng, seeds):
        for r in reseeded(rng, seeds):
            reseeds.append(r)
            yield r

    monkeypatch.setattr(builders, "reseeded", counted)
    return reseeds


# The seeding replay forced on everywhere, and forced off.
BOTH_PATHS = pytest.mark.parametrize("crossover", [0, 10**9], ids=["replay", "cpython"])


class TestSeedingReplay:
    @BOTH_PATHS
    @pytest.mark.parametrize("words", [1, 2, 227, 228])
    def test_words_equal_random_random(self, words, crossover, monkeypatch):
        monkeypatch.setattr(builders, "_REPLAY_TRIALS", crossover)
        reseeds = count_reseeds(monkeypatch)
        # CPython seeds with |seed|; the last seeds straddle 2**32 and 2**64,
        # so their keys are one, two and three words long.
        seeds = SEEDS + [-s for s in SEEDS] + [2**32 - 2, 2**32 + 1, 2**64 - 1, 2**64, -(2**64)]
        got = builders.seeded_words(seeds, words)
        assert got.shape == (len(seeds), words)
        for seed, row in zip(seeds, got):
            assert row.tolist() == generator_words(seed, words)
        replayed = crossover == 0 and words <= 227
        assert len(reseeds) == (0 if replayed else len(seeds))

    @pytest.mark.parametrize("size", [builders._REPLAY_TRIALS - 1, builders._REPLAY_TRIALS])
    def test_words_equal_random_random_either_side_of_the_crossover(self, size, monkeypatch):
        reseeds = count_reseeds(monkeypatch)
        seeds = [trial_seed(362182, t) for t in range(size)]
        got = builders.seeded_words(seeds, 3)
        assert [row.tolist() for row in got] == [generator_words(s, 3) for s in seeds]
        assert len(reseeds) == (size if size < builders._REPLAY_TRIALS else 0)

    def test_the_replay_operands_are_read_only_0_d_arrays(self):
        # A Python int or NumPy scalar operand costs each of the replay's ufunc
        # calls a conversion; a 0-d array of another dtype promotes the words.
        table, minus = builders._seeding_tables()
        constants = [getattr(builders, name) for name in (
            "_1", "_7", "_11", "_15", "_18", "_30", "_UP", "_DOWN", "_UPPER", "_LOWER",
            "_MATRIX_A", "_MASK_B", "_MASK_C",
        )]
        for operand in [*table, *minus, *constants]:
            assert type(operand) is np.ndarray and operand.shape == () and operand.dtype == np.uint32
            assert not operand.flags.writeable
        assert [int(x) for x in minus] == [-i % 2**32 for i in range(builders._N)]
        assert type(engine._THREE) is np.ndarray and engine._THREE.shape == ()
        assert engine._THREE.dtype == np.int64 and not engine._THREE.flags.writeable

    @pytest.mark.parametrize("words", [1, 2, 3, 9])
    def test_the_replay_steps_take_no_scalar_operands(self, words, monkeypatch):
        # Every vector of the replay is an array that notes the operands of
        # each ufunc it enters.  Only mt[0]'s fixed top bit, twisted once per
        # replay, meets a NumPy scalar (the 0-d & 0-d that forms it returns one).
        scalars = []

        class Noted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                if not all(isinstance(x, np.ndarray) for x in inputs):
                    scalars.append(ufunc.__name__)
                inputs = [x.view(np.ndarray) if isinstance(x, Noted) else x for x in inputs]
                if out is not None:
                    kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
                got = getattr(ufunc, method)(*inputs, **kwargs)
                return out[0] if out is not None else got.view(Noted)

        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda *args, **kwargs: empty(*args, **kwargs).view(Noted))
        seeds = [*range(5), 2**32 + 7, 2**64 + 9]
        for stretch in (seeds[:5], seeds[5:6], seeds[6:]):  # keys of one, two and three words
            out = np.empty((words, len(stretch)), dtype=np.uint32)
            builders._replay(stretch, out)
            assert [row.tolist() for row in out.T] == [generator_words(s, words) for s in stretch]
        assert scalars == ["bitwise_or"] * 3

    @pytest.mark.parametrize("words", [1, 2, 3, 4, 5, 226, 227])
    def test_the_replay_keeps_two_state_rows_past_its_output(self, words):
        # Each stretch is one key length: one word up to 2**32 - 1, two up
        # to 2**64 - 1, three from 2**64 on.
        T = 2000
        builders._seeding_tables()  # built once, outside the measured peak
        for seeds in (
            [2**32 - 1, *range(T - 1)],
            [2**32, 2**64 - 1, *(trial_seed(10**6 + 17, t) for t in range(T - 2))],
            [2**64, *(2**70 + t for t in range(T - 1))],
        ):
            out = np.empty((words, T), dtype=np.uint32)
            tracemalloc.start()
            try:
                builders._replay(seeds, out)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            for seed, row in zip(seeds, out.T):
                assert row.tolist() == generator_words(seed, words)
            # Two kept rows, the vectors of both passes, the key and the
            # twist's temporaries: none of it grows with the words drawn.
            # Rows of the whole seeded state, 4 bytes a trial each, would
            # read 912 bytes a trial at 227 words.
            assert peak <= 128 * T + 64_000

    @pytest.mark.parametrize("words", [40_000, 480_000])
    def test_a_long_trial_is_drawn_in_pieces(self, words):
        # Off the replay a trial past _JOIN_BYTES // 8 words takes several
        # getrandbits calls: 4 bytes a word and at most two joins' worth more.
        seed = trial_seed(10**6 + 17, 3)
        want = generator_words(seed, words)
        tracemalloc.start()
        try:
            got = builders.seeded_words([seed], words)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (1, words) and got[0].tolist() == want
        assert peak <= 4 * words + 2 * builders._JOIN_BYTES

    @pytest.mark.parametrize("crossover,reseeded", [(40, []), (41, [40, 40]), (81, [80])])
    def test_a_block_straddling_2_32_runs_as_two_stretches(self, crossover, reseeded, monkeypatch):
        # 40 seeds of one key word, then 40 of two.  A stretch shorter than
        # the crossover reseeds, even in a block that is long enough.
        monkeypatch.setattr(builders, "_REPLAY_TRIALS", crossover)
        calls = []
        generator_words_of = builders._generator_words

        def counted(rngs, words):
            got = generator_words_of(rngs, words)
            calls.append(len(got))
            return got

        monkeypatch.setattr(builders, "_generator_words", counted)
        seeds = range(2**32 - 40, 2**32 + 40)
        got = builders.seeded_words(seeds, 9)
        assert [row.tolist() for row in got] == [generator_words(s, 9) for s in seeds]
        assert calls == reseeded

    @pytest.mark.parametrize("size,replayed", [(15, False), (16, True)])
    def test_a_block_takes_the_replay_from_the_crossover_on(self, size, replayed, monkeypatch):
        monkeypatch.setattr(builders, "_REPLAY_TRIALS", 16)
        reseeds = count_reseeds(monkeypatch)
        seeds = [trial_seed(10**6 + 17, t) for t in range(size)]
        got = builders.seeded_words(seeds, 31)
        assert [row.tolist() for row in got] == [generator_words(s, 31) for s in seeds]
        assert len(reseeds) == (0 if replayed else size)

    @pytest.mark.parametrize("q", [1, 2, 20, 21, 39])
    def test_word_randrange_redraws_under_the_replay(self, q, monkeypatch):
        monkeypatch.setattr(builders, "_REPLAY_TRIALS", 0)
        monkeypatch.setattr(builders, "_first_draw", lambda bound, count: count)
        rounds = []
        seeded_words = builders.seeded_words

        def counted(seeds, words, rng=None):
            rounds.append(words)
            return seeded_words(seeds, words, rng)

        monkeypatch.setattr(builders, "seeded_words", counted)
        reseeds = count_reseeds(monkeypatch)
        seeds = SEEDS + [trial_seed(10**6 + 17, t) for t in range(60)]
        got = draw_below(seeds, 3**q, 5)
        for seed, row in zip(seeds, got):
            reference = random.Random(seed)
            assert row.tolist() == [reference.randrange(3**q) for _ in range(5)]
        assert len(rounds) > 1  # some trials were drawn again
        assert max(rounds) <= 227 and not reseeds  # every round was replayed

    @BOTH_PATHS
    @pytest.mark.parametrize("count", [1, 7, 113])
    def test_counts_below_a_rate_equal_random_random(self, count, crossover, monkeypatch):
        # The rates include each seed's own values and their neighbours, so
        # the word-level test is tried on ties and one ulp either side.
        monkeypatch.setattr(builders, "_REPLAY_TRIALS", crossover)
        seeds = SEEDS + [trial_seed(293813, t) for t in range(40)]
        values = {s: [rng.random() for _ in range(count)] for s, rng in zip(seeds, map(random.Random, seeds))}
        # a tie whose second word's six dropped bits are zero tells b >> 6 < c
        # from b < c << 6 apart
        sharp = [v for s in seeds for v, b in zip(values[s], generator_words(s, 2 * count)[1::2]) if b % 64 == 0]
        ties = [values[s][-1] for s in seeds[::9]] + sharp[:4]
        for rate in [0.0, 1.0, 0.4615, 5e-324, 2**-27, 1 - 2**-53, *ties,
                     *(math.nextafter(v, 0.0) for v in ties), *(math.nextafter(v, 1.0) for v in ties)]:
            got = builders.seeded_below_rate(seeds, count, rate)
            assert got.tolist() == [sum(v < rate for v in values[s]) for s in seeds]

    @pytest.mark.parametrize("seed", [0, -1, 10**6 + 3])
    def test_reports_are_the_same_on_both_paths(self, seed, monkeypatch):
        def reports():
            return (
                simulate_random_player(GameSpec(5, 3, 0, "unknown"), 0.6, 300, seed),
                simulate_random_player(GameSpec(4, 3, 1, "heavy"), 0.6, 300, seed),
                [random_perfect_rate(2, q, "unknown", 300, seed) for q in (2, 17, 21, 39)],
                concentration_experiment(30, 0.4521, 0.2, 300, seed),
                concentration_experiment(114, 0.4521, 0.1, 300, seed),  # 228 words: CPython
            )

        monkeypatch.setattr(builders, "_REPLAY_TRIALS", 10**9)
        want = reports()
        monkeypatch.setattr(builders, "_REPLAY_TRIALS", 0)
        assert reports() == want


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
