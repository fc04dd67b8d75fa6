"""The close-pair decision kernel held to the mask scan and the readable rules."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balancegame import (
    GameSpec,
    ResourceLimitError,
    adjudicate,
    constructive_attack,
    find_winning_mask,
    predicted_mask,
    simulate_random_player,
    surviving_hypotheses,
)
from balancegame import engine
from balancegame.adversary import METHOD_ALL_OFF, METHOD_DUPLICATE, METHOD_MIRROR
from balancegame.engine import (
    batch_balance_wins,
    batch_survivor_counts,
    code_digits,
    decode_mask,
    decode_row,
    onehot_codes,
    survivor_counts,
)


def readable_first_winning_mask(spec, rows):
    """Smallest, over hypothesis pairs within 2k, of the pair's first common
    word, built one round at a time from strings and core's honest masks."""
    truths = [predicted_mask(row, sign) for sign in spec.signs for row in rows]
    best = None
    for x in range(len(truths)):
        for y in range(x + 1, len(truths)):
            a, b = truths[x], truths[y]
            if sum(u != v for u, v in zip(a, b)) > 2 * spec.k:
                continue
            word, la, lb = "", spec.k, spec.k
            for i in range(spec.q):
                apart = sum(u != v for u, v in zip(a[i + 1 :], b[i + 1 :]))
                for d in "LRD":
                    na, nb = la - (d != a[i]), lb - (d != b[i])
                    if na >= 0 and nb >= 0 and apart <= na + nb:
                        word, la, lb = word + d, na, nb
                        break
            best = word if best is None else min(best, word)
    return best


def _batch(q, n):
    row = st.lists(st.integers(0, 3**q - 1), min_size=n, max_size=n)
    return st.lists(row, min_size=1, max_size=5)


# q <= 5, every k, both priors; row counts reach past 3**q at q <= 2, where
# the batch answers by pigeonhole.
plans = st.integers(1, 5).flatmap(
    lambda q: st.tuples(
        st.just(q),
        st.integers(0, q),
        st.sampled_from(["heavy", "unknown"]),
        st.integers(1, min(3**q + 4, 14)).flatmap(lambda n: _batch(q, n)),
    )
)


@pytest.mark.parametrize("budget", [None, 64])
@given(plans)
@settings(max_examples=150, deadline=None)
def test_kernel_agrees_with_the_block_scan(budget, case):
    q, k, prior, batch = case
    spec = GameSpec(len(batch[0]), q, k, prior)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(engine, "_PAIR_BYTES", budget)
        wins = batch_balance_wins(spec, np.array(batch, dtype=np.int64))
        attacks = [find_winning_mask(spec, tuple(decode_row(c, q) for c in plan)) for plan in batch]
    scan = batch_survivor_counts(spec, np.array(batch, dtype=np.int64))
    np.testing.assert_array_equal(wins, (scan >= 2).any(axis=1))
    for plan, attack, counts in zip(batch, attacks, scan):
        rows = tuple(decode_row(c, q) for c in plan)
        hits = np.nonzero(counts >= 2)[0]
        if hits.size == 0:
            assert attack is None
        else:
            assert attack is not None and attack.mask == decode_mask(int(hits[0]), q)
            assert len(surviving_hypotheses(spec, rows, attack.mask)) >= 2


@pytest.mark.parametrize("prior", ["heavy", "unknown"])
@pytest.mark.parametrize("k", [1, 2])
def test_lane_split_past_21_rounds(prior, k, seed=5):
    rng = random.Random(seed + k)
    q = 22
    for trial in range(6):
        rows = ["".join(rng.choice("LRO") for _ in range(q)) for _ in range(6)]
        # Plant a pair that differs in the top round, which sits in the
        # second lane, and in 2k - 1 or 2k + 1 more rounds of the first lane.
        spread = 2 * k - 1 if trial % 2 else 2 * k + 1
        twin = list(rows[0])
        for p in [0, *rng.sample(range(1, q), spread)]:
            twin[p] = rng.choice([c for c in "LRO" if c != twin[p]])
        rows[3] = "".join(twin)
        spec = GameSpec(len(rows), q, k, prior)
        want = readable_first_winning_mask(spec, rows)
        with pytest.raises(ResourceLimitError):
            find_winning_mask(spec, rows)
        attack = find_winning_mask(spec, rows, cap=q)
        assert (attack and attack.mask) == want
        codes = np.array([[engine.encode_row(r) for r in rows]])
        assert bool(batch_balance_wins(spec, codes)[0]) == (want is not None)


def test_onehot_popcount_is_twice_the_hamming_distance():
    rng = np.random.default_rng(3)
    for q in (1, 6, 7, 8, 21, 22, 30):
        a, b = (rng.integers(0, 3**q, 200, dtype=np.int64) for _ in range(2))
        packed = onehot_codes(a, q) ^ onehot_codes(b, q)
        assert packed.shape == (200, -(-q // 21))
        bits = np.bitwise_count(packed).sum(axis=1)
        np.testing.assert_array_equal(bits, 2 * (code_digits(a, q) != code_digits(b, q)).sum(axis=1))


class TestOverflow:
    spec = GameSpec(40000, 1, 1, "heavy")

    def test_batch_counts_stay_exact_past_int16(self):
        rows = ("L", "R", "O") * 13333 + ("L",)
        codes = np.array([[engine.encode_row(r) for r in rows]])
        counts = batch_survivor_counts(self.spec, codes)
        np.testing.assert_array_equal(counts[0], survivor_counts(self.spec, rows))
        np.testing.assert_array_equal(counts[0], [40000] * 3)

    def test_simulated_balance_always_wins(self):
        assert simulate_random_player(self.spec, 0.6, 2, seed=4).estimate == 1.0


class TestStructuralRules:
    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_fires_exactly_when_the_balance_wins_at_zero_lies(self, prior, seed=31):
        rng = random.Random(seed)
        for _ in range(300):
            n, q = rng.randint(1, 7), rng.randint(1, 3)
            spec = GameSpec(n, q, 0, prior)
            rows = tuple("".join(rng.choice("LRO") for _ in range(q)) for _ in range(n))
            attack = constructive_attack(spec, rows)
            assert (attack is None) == (find_winning_mask(spec, rows) is None)
            if attack is not None:
                assert adjudicate(spec, rows, attack.mask).winner == "balance"

    @pytest.mark.parametrize("rows,method,mask", [
        (("RO", "LL", "RO", "RR"), METHOD_DUPLICATE, "LD"),  # duplicate beats a smaller mirror
        (("OO", "RR", "LL"), METHOD_MIRROR, "LL"),  # mirror beats all-off
        (("OO", "LR", "OL"), METHOD_ALL_OFF, "DD"),
    ])
    def test_precedence(self, rows, method, mask):
        attack = constructive_attack(GameSpec(len(rows), 2, 0, "unknown"), rows)
        assert (attack.method, attack.mask) == (method, mask)
