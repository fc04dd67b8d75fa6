"""The close-pair decision kernel held to the mask scan and the readable rules."""

import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from balancegame import (
    GameSpec,
    RandomStrategyParams,
    ResourceLimitError,
    adjudicate,
    constructive_attack,
    find_winning_mask,
    partial_complement,
    predicted_mask,
    random_strategy,
    simulate_random_player,
    surviving_hypotheses,
    trial_seed,
)
from balancegame import engine
from balancegame.cli import main
from balancegame.adversary import METHOD_ALL_OFF, METHOD_DUPLICATE, METHOD_MIRROR
from balancegame.core import OUTCOMES, PLACEMENTS
from balancegame.engine import (
    batch_balance_wins,
    batch_survivor_counts,
    code_digits,
    decode,
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
        wins = batch_balance_wins(spec, code_digits(np.array(batch, dtype=np.int64), q))
        plans = [tuple(decode(c, q, PLACEMENTS) for c in plan) for plan in batch]
        attacks = [find_winning_mask(spec, rows) for rows in plans]
    scan = batch_survivor_counts(spec, np.array(batch, dtype=np.int64))
    np.testing.assert_array_equal(wins, (scan >= 2).any(axis=1))
    for rows, attack, counts in zip(plans, attacks, scan):
        hits = np.nonzero(counts >= 2)[0]
        if hits.size == 0:
            assert attack is None
        else:
            assert attack is not None and attack.mask == decode(int(hits[0]), q, OUTCOMES)
            assert len(surviving_hypotheses(spec, rows, attack.mask)) >= 2


@pytest.mark.parametrize("q", [21, 22, 30, 39])
@pytest.mark.parametrize("prior", ["heavy", "unknown"])
@pytest.mark.parametrize("k", [1, 2])
def test_planted_pair_on_both_sides_of_2k(prior, k, q, seed=5):
    rng = random.Random(seed + k)
    for trial in range(6):
        rows = ["".join(rng.choice("LRO") for _ in range(q)) for _ in range(6)]
        # Plant a pair that differs in the top round and in 2k - 1 or 2k + 1
        # more rounds, so it lies just within or just beyond distance 2k.
        spread = 2 * k - 1 if trial % 2 else 2 * k + 1
        twin = list(rows[0])
        for p in [0, *rng.sample(range(1, q), spread)]:
            twin[p] = rng.choice([c for c in "LRO" if c != twin[p]])
        rows[3] = "".join(twin)
        spec = GameSpec(len(rows), q, k, prior)
        want = readable_first_winning_mask(spec, rows)
        attack = find_winning_mask(spec, rows)
        assert (attack and attack.mask) == want
        codes = np.array([[engine.encode_row(r) for r in rows]])
        assert bool(batch_balance_wins(spec, code_digits(codes, q))[0]) == (want is not None)


@pytest.mark.parametrize("prior", ["heavy", "unknown"])
@pytest.mark.parametrize("plant", ["duplicate", "mirror", "all-off"])
def test_zero_lie_first_winner_is_read_off_the_sort(plant, prior, monkeypatch, seed=3):
    # At k = 0 the first winning mask is the smallest honest word that two
    # hypotheses share, so no first-common-word search runs.
    def refuse(da, db, k):
        raise AssertionError("a k = 0 verdict searched for a first common word")

    monkeypatch.setattr(engine, "_first_common_word", refuse)
    rng, rank = random.Random(seed), str.maketrans("LRD", "012")
    for _ in range(60):
        q = rng.randint(1, 4)
        rows = ["".join(rng.choice("LRO") for _ in range(q)) for _ in range(rng.randint(2, 6))]
        i, j = rng.sample(range(len(rows)), 2)
        rows[j] = {"duplicate": rows[i], "mirror": partial_complement(rows[i]), "all-off": "O" * q}[plant]
        spec = GameSpec(len(rows), q, 0, prior)
        words = [predicted_mask(row, sign) for sign in spec.signs for row in rows]
        shared = [w for w in set(words) if words.count(w) >= 2]
        want = min(shared, key=lambda w: w.translate(rank), default=None)
        if plant == "duplicate" or prior == "unknown":
            assert want is not None  # the planted rows share an honest word
        attack = find_winning_mask(spec, rows)
        assert (attack and attack.mask) == want


@pytest.mark.parametrize("prior", ["heavy", "unknown"])
def test_zero_lie_winner_leaves_the_kernel_as_digits(prior, monkeypatch):
    # The sort key is the one base-3 code a k = 0 attack forms; the winning
    # word is rendered from the digits the sort left, not coded again.
    calls, digit_codes = [], engine.digit_codes
    monkeypatch.setattr(engine, "digit_codes", lambda d: calls.append(d.shape) or digit_codes(d))
    spec = GameSpec(4, 3, 0, prior)
    attack = find_winning_mask(spec, ("LRO", "RLL", "LRO", "OOO"))
    assert attack.mask == "LRD"  # the duplicate rows' honest word
    assert calls == [(3, 1, spec.hypothesis_count)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_first_common_code_matches_brute_force(k, seed=7):
    # Each call gets many pairs within 2k; the oracle tries all 3**q words.
    rng = np.random.default_rng([seed, k])
    rounds = set()
    for _ in range(40):
        q = int(rng.integers(k, 7))
        pairs = int(rng.integers(1, 30))
        da = rng.integers(0, 3, size=(q, pairs), dtype=np.uint8)
        db = da.copy()
        for p in range(pairs):
            flips = rng.choice(q, int(rng.integers(0, min(2 * k, q) + 1)), replace=False)
            db[flips, p] = (db[flips, p] + rng.integers(1, 3, size=flips.size)) % 3
        words = code_digits(np.arange(3**q), q)[:, :, None]  # (q, 3**q, 1), ascending code
        common = ((words != da[:, None]).sum(axis=0) <= k) & ((words != db[:, None]).sum(axis=0) <= k)
        firsts = common.argmax(axis=0)  # each pair's first common word
        assert common.any(axis=0).all()
        best = code_digits(firsts.min(), q)
        assert engine._first_common_word(da, db, k) == best.tolist()
        # The round where each other pair's first word leaves the winner's.
        for other in code_digits(firsts, q).T:
            if (other != best).any():
                rounds.add(int(np.argmax(other != best)))
    assert len(rounds) >= 3


def test_close_pair_blocks_stay_bounded_when_every_pair_is_close():
    # At q = 6, k = 3 all of the 1500 * 1499 / 2 pairs are close, so each
    # block's close-pair indices, and first_winning_word's work on them, dominate:
    # the indices take about 0.4x the budget and one piece of pairs the rest.
    rng = random.Random(1)
    rows = tuple("".join(rng.choice("LRO") for _ in range(6)) for _ in range(1500))
    spec = GameSpec(len(rows), 6, 3, "heavy")
    tracemalloc.start()
    try:
        attack = find_winning_mask(spec, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(row.count("L") >= 3 for row in rows) >= 2  # so the first winner is LLLLLL
    assert attack.mask == "L" * 6
    assert peak <= 1.1 * engine._PAIR_BYTES


def test_close_pair_blocks_of_many_small_plans_fit_the_budget():
    # At q = 3, k = 2 every pair of a plan lies within 2k = 4, so each of the
    # 20,000 plans closes all 190 pairs.  The digits are copied one plan block at
    # a time, not the whole batch, and the indices are yielded as unravelled.
    spec, plans = GameSpec(20, 3, 2, "heavy"), 20_000
    preds = np.random.default_rng(1).integers(0, 3, size=(3, plans, 20), dtype=np.uint8)
    pairs = blocks = 0
    tracemalloc.start()
    try:
        for t, _, _ in engine.close_pairs(spec, preds):  # held as batch_balance_wins holds them
            pairs, blocks, last = pairs + t.size, blocks + 1, int(t[-1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs == plans * 190 and blocks > 1 and last == plans - 1
    assert peak <= 1.1 * engine._PAIR_BYTES


@pytest.mark.parametrize("prior", ["heavy", "unknown"])
def test_zero_lie_close_pair_blocks_fit_the_budget(prior):
    # Every plan is six all-off rows, so under either prior all hypotheses share
    # one word and each closes a pair with the next: the sort arrays and the pair
    # indices, not the int64 codes alone, are the bulk of a block.
    spec, plans = GameSpec(6, 3, 0, prior), 100_000
    preds = engine._hypothesis_digits(spec, np.full((3, plans, 6), 2, dtype=np.uint8))
    pairs = blocks = 0
    tracemalloc.start()
    try:
        for t, _, _ in engine.close_pairs(spec, preds):  # held as batch_balance_wins holds them
            pairs, blocks = pairs + t.size, blocks + 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs == plans * (spec.hypothesis_count - 1) and blocks > 1
    assert peak <= 1.1 * engine._PAIR_BYTES


@pytest.mark.parametrize("budget", [None, 64, 4096])
@given(st.integers(0, 10**4), st.integers(1, 10**7))
@settings(max_examples=100, deadline=None)
def test_blocks_tile_the_range_within_the_budget(budget, total, item_bytes):
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(engine, "_PAIR_BYTES", budget)
        blocks = list(engine._blocks(total, item_bytes))
        most = max(1, engine._PAIR_BYTES // item_bytes)
    edges = [0] + [s.stop for s in blocks]
    assert [s.start for s in blocks] == edges[:-1] and edges[-1] == total
    assert all(s.step is None and 0 < s.stop - s.start <= most for s in blocks)


# (q, T, H) digit batches with q <= 6 and a lie budget k in 1..3 (k <= q).
digit_batches = st.tuples(st.integers(1, 6), st.integers(1, 7), st.integers(1, 12)).flatmap(
    lambda shape: st.tuples(
        st.integers(1, min(3, shape[0])), arrays(np.uint8, shape, elements=st.integers(0, 2))
    )
)


@pytest.mark.parametrize("budget", [None, 64, 1024])  # 64: one row a block; 1024: a few
@given(digit_batches)
@settings(max_examples=100, deadline=None)
def test_close_pairs_yield_each_close_pair_once(budget, case):
    k, preds = case
    q, T, H = preds.shape
    spec = GameSpec(H, q, k, "heavy")
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(engine, "_PAIR_BYTES", budget)
        found = [
            triple
            for t, a, b in engine.close_pairs(spec, preds)
            for triple in zip(t.tolist(), a.tolist(), b.tolist())
        ]
    want = {
        (t, a, b)
        for t in range(T)
        for a in range(H)
        for b in range(a + 1, H)
        if np.count_nonzero(preds[:, t, a] != preds[:, t, b]) <= 2 * k
    }
    assert len(found) == len(set(found))
    assert set(found) == want


@pytest.mark.parametrize("k", [0, 1])
def test_plans_past_max_rounds_are_refused_by_the_kernel(k):
    # The two rows differ in all 257 rounds.  At k = 1 a uint8 distance wraps
    # that to 1, within 2k = 2, a balance win that does not exist; at k = 0
    # the int64 codes of 257 digits overflow.
    spec = GameSpec(2, 257, k, "heavy")
    rows = np.zeros((257, 1, 2), dtype=np.uint8)
    rows[:, 0, 1] = 1
    with pytest.raises(ResourceLimitError):
        batch_balance_wins(spec, rows)
    with pytest.raises(ResourceLimitError):
        engine.first_winning_word(spec, rows[:, 0])
    with pytest.raises(ResourceLimitError):
        next(engine._survivor_blocks(spec, rows))


def readable_random_plan(n, q, r, seed):
    """The seeded cell draw spelled out: row-major, one uniform per cell."""
    rng = random.Random(seed)
    draws = [rng.random() for _ in range(n * q)]
    cells = ["L" if u < r / 2 else "R" if u < r else "O" for u in draws]
    return tuple("".join(cells[i * q : (i + 1) * q]) for i in range(n))


def cli_json(capsys, *argv):
    assert main([str(a) for a in argv]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("q", [17, 22, 39])
def test_certify_and_attack_past_sixteen_rounds(q, tmp_path, capsys):
    rng = random.Random(q)
    for k, prior in [(0, "heavy"), (0, "unknown"), (1, "heavy"), (2, "unknown")]:
        for spread in (2 * k, 2 * k + 1):
            rows = ["".join(rng.choice("LRO") for _ in range(q)) for _ in range(5)]
            twin = list(rows[0])
            for p in rng.sample(range(q), spread):
                twin[p] = rng.choice([c for c in "LRO" if c != twin[p]])
            rows[2] = "".join(twin)
            path = tmp_path / "plan.txt"
            path.write_text("\n".join(rows) + "\n")
            spec = f"5,{q},{k},{prior}"
            want = readable_first_winning_mask(GameSpec(5, q, k, prior), rows)
            cert = cli_json(capsys, "certify", "--spec", spec, "--strategy", path)
            assert cert["attack_mask"] == want
            assert cert["masks_checked"] == (3**q if want is None else engine.encode_mask(want) + 1)
            assert cli_json(capsys, "attack", "--spec", spec, "--strategy", path)["mask"] == want
            if k == 0:
                doc = cli_json(capsys, "attack", "--spec", spec, "--strategy", path,
                               "--constructive")
                assert (doc["mask"] is None) == (want is None)


@pytest.mark.parametrize("k,prior", [(0, "heavy"), (0, "unknown"), (1, "heavy"), (2, "unknown")])
def test_verdicts_convert_no_codes_to_digits(k, prior, tmp_path, capsys, monkeypatch):
    # Plans enter the kernel as digits, so no verdict peels a code; the
    # outputs are those of an unpatched run.
    rng, q = random.Random(k), 7
    spec = f"6,{q},{k},{prior}"
    argvs = [["simulate", "--spec", spec, "--r", "0.6", "--trials", "50", "--seed", "3"]]
    for spread in (2 * k, 2 * k + 1):
        rows = ["".join(rng.choice("LRO") for _ in range(q)) for _ in range(6)]
        twin = list(rows[0])
        for p in rng.sample(range(q), spread):
            twin[p] = rng.choice([c for c in "LRO" if c != twin[p]])
        rows[4] = "".join(twin)
        path = tmp_path / f"plan{spread}.txt"
        path.write_text("\n".join(rows) + "\n")
        for argv in (["certify"], ["attack"], ["attack", "--constructive"]):
            argvs.append(argv + ["--spec", spec, "--strategy", str(path)])

    def outputs():
        got = []
        for argv in argvs:
            code = main(argv)
            out, err = capsys.readouterr()
            got.append((code, re.sub(r'"elapsed_ms": [^,}\n]+', "", out), err))
        return got

    want = outputs()
    assert [code for code, _, _ in want].count(0) >= 5

    def refuse(codes, q):
        raise AssertionError("a verdict converted codes to digits")

    monkeypatch.setattr(engine, "code_digits", refuse)
    assert outputs() == want


@pytest.mark.parametrize("q", [17, 22, 39])
def test_simulate_and_perfect_rate_past_sixteen_rounds(q, capsys):
    spec, r, seed = GameSpec(5, q, 1, "unknown"), 3 / q, 11
    wins = 0
    for t in range(40):
        plan = readable_random_plan(spec.n, q, r, trial_seed(seed, t))
        assert random_strategy(spec.n, q, RandomStrategyParams(r, trial_seed(seed, t))) == plan
        wins += readable_first_winning_mask(spec, plan) is not None
    assert 0 < wins < 40  # both outcomes occur, so the count is informative
    doc = cli_json(capsys, "simulate", "--spec", f"5,{q},1,unknown", "--r", r,
                   "--trials", 40, "--seed", seed)
    assert doc["successes"] == wins

    perfect = 0
    for t in range(30):
        rng = random.Random(trial_seed(seed, t))
        plan = [decode(rng.randrange(3**q), q, PLACEMENTS) for _ in range(4)]
        perfect += readable_first_winning_mask(GameSpec(4, q, 0, "unknown"), plan) is None
    doc = cli_json(capsys, "perfect-rate", "--n", 4, "--q", q, "--prior", "unknown",
                   "--trials", 30, "--seed", seed)
    assert doc["successes"] == perfect


class TestOverflow:
    spec = GameSpec(40000, 1, 1, "heavy")

    def test_batch_counts_stay_exact_past_int16(self):
        rows = ("L", "R", "O") * 13333 + ("L",)
        codes = np.array([[engine.encode_row(r) for r in rows]])
        counts = batch_survivor_counts(self.spec, codes)
        scan = np.concatenate([c for _, c in engine.iter_survivor_blocks(self.spec, rows)])
        np.testing.assert_array_equal(counts[0], scan)
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
