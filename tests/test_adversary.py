import itertools
import random

import pytest

from balancegame import core
from balancegame import (
    DimensionError,
    DomainError,
    GameSpec,
    adjudicate,
    binary_strategy,
    complement_free_strategy,
    constructive_attack,
    find_winning_mask,
    ternary_strategy,
)
from balancegame import engine
from balancegame.adversary import (
    METHOD_ALL_OFF,
    METHOD_DUPLICATE,
    METHOD_EXHAUSTIVE,
    METHOD_MIRROR,
)


def brute_first_winning_mask(spec, strategy):
    for mask in ("".join(t) for t in itertools.product("LRD", repeat=spec.q)):
        if len(adjudicate(spec, strategy, mask).survivors) >= 2:
            return mask
    return None


class TestFindWinningMask:
    def test_duplicate_row_toy(self):
        spec = GameSpec(3, 1, 0, "heavy")
        attack = find_winning_mask(spec, ("L", "L", "O"))
        assert attack is not None
        assert attack.mask == "L"
        assert {h.coin for h in attack.survivors} == {0, 1}
        assert attack.method == METHOD_EXHAUSTIVE

    def test_none_for_perfect_plan(self):
        spec = GameSpec(9, 2, 0, "heavy")
        assert find_winning_mask(spec, ternary_strategy(9, 2)) is None

    @pytest.mark.parametrize("n,q,prior", [(3, 1, "heavy"), (4, 2, "heavy"),
                                           (5, 2, "unknown"), (2, 2, "unknown")])
    def test_agrees_with_brute_scan(self, n, q, prior, seed=9):
        rng = random.Random(seed)
        spec = GameSpec(n, q, 0, prior)
        for _ in range(40):
            strategy = tuple(
                "".join(rng.choice("LRO") for _ in range(q)) for _ in range(n)
            )
            expected = brute_first_winning_mask(spec, strategy)
            attack = find_winning_mask(spec, strategy)
            if expected is None:
                assert attack is None
            else:
                assert attack is not None and attack.mask == expected

    def test_respects_lie_budget(self):
        spec = GameSpec(2, 2, 1, "heavy")
        # with one lie allowed, any announcement keeps both hypotheses alive
        attack = find_winning_mask(spec, ("LL", "LR"))
        assert attack is not None and len(attack.survivors) >= 2


class TestConstructiveAttack:
    def test_duplicate_rows(self):
        spec = GameSpec(4, 2, 0, "heavy")
        attack = constructive_attack(spec, ("LL", "LR", "LL", "RO"))
        assert attack is not None
        assert attack.method == METHOD_DUPLICATE
        assert attack.mask == "LL"
        assert {h.coin for h in attack.survivors} >= {0, 2}

    def test_mirror_pair_under_unknown_prior(self):
        spec = GameSpec(3, 2, 0, "unknown")
        attack = constructive_attack(spec, ("LO", "RO", "OL"))
        assert attack is not None
        assert attack.method == METHOD_MIRROR
        assert attack.mask == "LD"
        signs = {h.sign for h in attack.survivors}
        assert signs == {"heavy", "light"}

    def test_all_off_row_under_unknown_prior(self):
        spec = GameSpec(2, 2, 0, "unknown")
        attack = constructive_attack(spec, ("OO", "LR"))
        assert attack is not None
        assert attack.method == METHOD_ALL_OFF
        assert attack.mask == "DD"
        assert {h.coin for h in attack.survivors} == {0}

    def test_mirror_rule_ignored_under_heavy_prior(self):
        spec = GameSpec(2, 1, 0, "heavy")
        assert constructive_attack(spec, ("L", "R")) is None

    def test_returns_none_when_no_rule_fires(self):
        spec = GameSpec(4, 2, 0, "heavy")
        assert constructive_attack(spec, binary_strategy(4, 2)) is None

    def test_rejects_positive_lie_budget(self):
        spec = GameSpec(2, 2, 1, "heavy")
        with pytest.raises(DomainError):
            constructive_attack(spec, ("LL", "RR"))

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_sound_whenever_it_fires(self, prior, seed=17):
        rng = random.Random(seed)
        for _ in range(300):
            n, q = rng.randint(1, 6), rng.randint(1, 3)
            spec = GameSpec(n, q, 0, prior)
            strategy = tuple(
                "".join(rng.choice("LRO") for _ in range(q)) for _ in range(n)
            )
            attack = constructive_attack(spec, strategy)
            if attack is not None:
                verdict = adjudicate(spec, strategy, attack.mask)
                assert verdict.winner == "balance"
                assert verdict.survivors == attack.survivors


class TestConverse:
    """When neither side has a winning mask the plan really is perfect."""

    @pytest.mark.parametrize("prior", ["heavy", "unknown"])
    def test_exhaustive_single_round(self, prior):
        for n in (1, 2, 3):
            spec = GameSpec(n, 1, 0, prior)
            for strategy in itertools.product("LRO", repeat=n):
                rows = tuple(strategy)
                attack = find_winning_mask(spec, rows)
                if attack is None:
                    for mask in "LRD":
                        assert len(adjudicate(spec, rows, mask).survivors) <= 1

    def test_perfect_plans_have_no_attack(self):
        for n, q, prior, build in [
            (9, 2, "heavy", ternary_strategy),
            (4, 2, "unknown", complement_free_strategy),
            (13, 3, "unknown", complement_free_strategy),
        ]:
            spec = GameSpec(n, q, 0, prior)
            assert find_winning_mask(spec, build(n, q)) is None


class TestBestResponseExists:
    def test_matches_find(self, seed=23):
        rng = random.Random(seed)
        for _ in range(60):
            n, q = rng.randint(2, 5), rng.randint(1, 2)
            prior = rng.choice(["heavy", "unknown"])
            spec = GameSpec(n, q, 0, prior)
            strategy = tuple(
                "".join(rng.choice("LRO") for _ in range(q)) for _ in range(n)
            )
            # A best response exists when some announcement leaves two survivors.
            scan = engine.iter_survivor_blocks(spec, strategy)
            assert any(counts.max() >= 2 for _, counts in scan) == (
                find_winning_mask(spec, strategy) is not None
            )


class TestPlanValidation:
    @pytest.mark.parametrize("attack", [find_winning_mask, constructive_attack])
    @pytest.mark.parametrize("rows,message", [
        (("LRX", "LLL"), r"^row 'LRX' uses characters outside 'LRO': \['X'\]$"),
        (("LRO",), r"^strategy has 1 rows, spec wants n=2$"),
        (("LRO", "LL"), r"^row 'LL' has length 2, expected 3$"),
    ])
    def test_bad_plans_are_refused_with_the_rule_text(self, attack, rows, message):
        with pytest.raises(DimensionError, match=message):
            attack(GameSpec(2, 3, 0, "heavy"), iter(rows))

    def test_lie_budget_is_checked_before_the_plan(self):
        with pytest.raises(DomainError):
            constructive_attack(GameSpec(2, 3, 1, "heavy"), ("LRX", "LLL"))

    @pytest.mark.parametrize("rows,wins", [(ternary_strategy(4, 2), False), (("LR", "LR", "OL"), True)])
    def test_each_row_is_validated_once_before_the_soundness_gate(self, rows, wins, monkeypatch):
        calls = []
        validate = core.validate_strategy
        spy = lambda spec, strategy: calls.append(tuple(strategy)) or validate(spec, strategy)
        for module in (core, engine):  # engine holds its own reference
            monkeypatch.setattr(module, "validate_strategy", spy)
        spec = GameSpec(len(rows), 2, 0, "heavy")
        assert (find_winning_mask(spec, rows) is not None) == wins
        # once for the verdict, once more in the re-adjudication of a winning mask
        assert calls == [tuple(rows)] * (2 if wins else 1)
