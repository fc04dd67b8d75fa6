import pytest
from hypothesis import given, settings, strategies as st

from balancegame import (
    CapacityError,
    DomainError,
    RandomStrategyParams,
    binary_strategy,
    complement_free_strategy,
    partial_complement,
    random_strategy,
    row_profile,
    ternary_strategy,
)

THIRTEEN = ("LLL", "LLR", "LRL", "LRR", "ORR", "OLR", "ROL",
            "LOL", "RLO", "LLO", "OOR", "LOO", "ORO")


class TestBinary:
    def test_counts_in_binary(self):
        assert binary_strategy(4, 2) == ("LL", "LR", "RL", "RR")

    def test_prefix_property(self):
        assert binary_strategy(3, 2) == binary_strategy(4, 2)[:3]

    def test_capacity(self):
        assert len(binary_strategy(8, 3)) == 8
        with pytest.raises(CapacityError):
            binary_strategy(5, 2)


class TestTernary:
    def test_counts_in_ternary(self):
        assert ternary_strategy(3, 1) == ("L", "R", "O")
        assert ternary_strategy(5, 2) == ("LL", "LR", "LO", "RL", "RR")

    def test_capacity(self):
        assert len(ternary_strategy(9, 2)) == 9
        with pytest.raises(CapacityError):
            ternary_strategy(10, 2)

    def test_extends_binary(self):
        # the first rows drawing only on L/R agree with the binary builder
        assert ternary_strategy(2, 2)[:2] == binary_strategy(2, 2)


class TestComplementFree:
    def test_small_example(self):
        assert complement_free_strategy(4, 2) == ("LL", "LR", "LO", "OL")

    def test_capacity(self):
        assert len(complement_free_strategy(13, 3)) == 13
        with pytest.raises(CapacityError):
            complement_free_strategy(14, 3)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    def test_no_row_mirrors_another(self, q):
        cap = (3**q - 1) // 2
        rows = complement_free_strategy(cap, q)
        assert len(set(rows)) == len(rows) == cap
        assert {partial_complement(r) for r in rows}.isdisjoint(rows)
        assert "O" * q not in rows  # the all-off row would mirror itself
        key = lambda row: ["LRO".index(c) for c in row]
        assert list(rows) == sorted(rows, key=key)
        # Each row precedes its mirror, so a greedy pass in L < R < O order
        # keeps exactly these rows; shorter plans are prefixes.
        assert all(key(r) < key(partial_complement(r)) for r in rows)
        assert complement_free_strategy(cap // 2 + 1, q) == rows[: cap // 2 + 1]

    def test_rows_follow_placement_alphabet_order(self):
        rows = complement_free_strategy(13, 3)
        key = lambda row: ["LRO".index(c) for c in row]
        assert list(rows) == sorted(rows, key=key)


class TestRandom:
    def test_deterministic(self):
        params = RandomStrategyParams(on_fraction=2 / 3, seed=42)
        assert random_strategy(10, 4, params) == random_strategy(10, 4, params)

    def test_seed_changes_output(self):
        a = random_strategy(10, 4, RandomStrategyParams(2 / 3, seed=1))
        b = random_strategy(10, 4, RandomStrategyParams(2 / 3, seed=2))
        assert a != b

    def test_extreme_fractions(self):
        all_off = random_strategy(5, 3, RandomStrategyParams(0.0, seed=7))
        assert set("".join(all_off)) == {"O"}
        all_on = random_strategy(5, 3, RandomStrategyParams(1.0, seed=7))
        assert "O" not in "".join(all_on)

    def test_on_fraction_concentrates(self):
        rows = random_strategy(1000, 100, RandomStrategyParams(2 / 3, seed=42))
        text = "".join(rows)
        on = sum(c != "O" for c in text)
        assert abs(on / len(text) - 2 / 3) < 0.01

    def test_rejects_bad_fraction(self):
        with pytest.raises(DomainError):
            RandomStrategyParams(1.5)
        with pytest.raises(DomainError):
            RandomStrategyParams(-0.1)

    @given(st.integers(0, 2**32), st.integers(1, 20), st.integers(1, 8))
    @settings(max_examples=50)
    def test_shape(self, seed, n, q):
        rows = random_strategy(n, q, RandomStrategyParams(0.5, seed=seed))
        assert len(rows) == n and all(len(r) == q for r in rows)
        assert set("".join(rows)) <= set("LRO")


class TestRowProfile:
    def test_worked_examples(self):
        assert row_profile(binary_strategy(4, 2)) == (2, 2, 2, 2)
        assert row_profile(THIRTEEN) == (3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1, 1)
