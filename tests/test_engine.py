import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balancegame import GameSpec, ResourceLimitError, partial_complement, surviving_hypotheses
from balancegame.core import OUTCOMES, PLACEMENTS
from balancegame.engine import (
    batch_balance_wins,
    batch_survivor_counts,
    code_digits,
    decode,
    digit_codes,
    encode_mask,
    encode_row,
    iter_survivor_blocks,
    matrix_chunk_codes,
    predicted_digits,
)


def survivor_counts(spec, rows):
    """(3**q,) survivor count per mask of one plan, joined from the blocked scan."""
    return np.concatenate([counts for _, counts in iter_survivor_blocks(spec, rows)])


class TestCodes:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_row_round_trip(self, q):
        for code in range(3**q):
            assert encode_row(decode(code, q, PLACEMENTS)) == code

    def test_mask_order_is_lexicographic(self):
        masks = ["".join(t) for t in itertools.product("LRD", repeat=3)]
        assert [decode(i, 3, OUTCOMES) for i in range(27)] == masks
        assert [encode_mask(m) for m in masks] == list(range(27))

    def test_code_digits_match_decode(self):
        table = code_digits(np.arange(27), 3)
        for code in range(27):
            row = decode(code, 3, PLACEMENTS)
            assert [int(d) for d in table[:, code]] == ["LRO".index(c) for c in row]

    def test_mirror_codes_match_partial_complement(self):
        rows = [decode(code, 3, PLACEMENTS) for code in range(27)]
        table = digit_codes(predicted_digits(GameSpec(27, 3, 0, "unknown"), rows)[:, 27:])
        for code in range(27):
            mirrored = partial_complement(decode(code, 3, PLACEMENTS))
            assert int(table[code]) == encode_row(mirrored)


class TestSurvivorCounts:
    @given(
        st.integers(1, 3).flatmap(
            lambda q: st.tuples(
                st.just(q),
                st.lists(st.integers(0, 3**q - 1), min_size=1, max_size=4),
                st.integers(0, 2),
                st.sampled_from(["heavy", "unknown"]),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_readable_rules(self, case):
        q, codes, k, prior = case
        k = min(k, q)
        spec = GameSpec(len(codes), q, k, prior)
        rows = tuple(decode(c, q, PLACEMENTS) for c in codes)
        counts = survivor_counts(spec, rows)
        assert counts.shape == (3**q,)
        for mask_code in range(3**q):
            mask = decode(mask_code, q, OUTCOMES)
            assert int(counts[mask_code]) == len(surviving_hypotheses(spec, rows, mask))

    def test_batch_matches_single(self):
        spec = GameSpec(3, 2, 0, "unknown")
        plans = [("LL", "RO", "OL"), ("LR", "LR", "OO"), ("OO", "OO", "OO")]
        codes = np.array([[encode_row(r) for r in plan] for plan in plans])
        batched = batch_survivor_counts(spec, codes)
        for t, plan in enumerate(plans):
            np.testing.assert_array_equal(batched[t], survivor_counts(spec, plan))

    def test_batch_balance_wins(self):
        spec = GameSpec(2, 1, 0, "heavy")
        rows = code_digits(np.array([[0, 0], [0, 1]]), 1)  # ("L","L") loses, ("L","R") wins
        np.testing.assert_array_equal(batch_balance_wins(spec, rows), [True, False])


class TestMatrixEnumeration:
    def test_order_is_lexicographic_on_matrices(self):
        spec = GameSpec(2, 1, 0, "heavy")
        codes = matrix_chunk_codes(spec, 0, 9)
        matrices = [tuple(decode(int(c), 1, PLACEMENTS) for c in row) for row in codes]
        assert matrices == [
            tuple(p) for p in itertools.product(["L", "R", "O"], repeat=2)
        ]

    def test_chunking_is_seamless(self):
        spec = GameSpec(2, 2, 0, "heavy")
        whole = matrix_chunk_codes(spec, 0, 81)
        pieces = np.concatenate(
            [matrix_chunk_codes(spec, s, min(s + 17, 81)) for s in range(0, 81, 17)]
        )
        np.testing.assert_array_equal(whole, pieces)

    def test_cap_raises(self):
        from balancegame.engine import check_search_cap

        with pytest.raises(ResourceLimitError):  # ~1.3e8 search nodes over 27 rows
            check_search_cap(GameSpec(20, 3, 0, "heavy"))
