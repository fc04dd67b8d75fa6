"""Certification: exhaustive must-win checks, censuses and boundary sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .adversary import AttackResult, find_winning_mask
from .analysis import hamming_ball_volume
from .builders import complement_free_strategy, ternary_strategy
from .core import (
    BalanceGameError,
    GameSpec,
    HEAVY,
    UNKNOWN,
    validate_strategy,
)

PLAYER = "player"
BALANCE = "balance"


class UndecidedError(BalanceGameError):
    """The constructive theorems do not settle this instance."""


@dataclass(frozen=True)
class Certificate:
    """Result of checking every admissible announcement against one plan."""

    outcome: str  # "player-must-win" or "balance-wins"
    masks_checked: int
    attack: AttackResult | None

    @property
    def must_win(self) -> bool:
        return self.attack is None


def certify(spec: GameSpec, strategy, cap: int = engine.DEFAULT_MASK_CAP) -> Certificate:
    """A plan is must-win when no announcement leaves 2 survivors.

    Decided by :func:`find_winning_mask` from close pairs of honest codes;
    ``masks_checked`` counts the masks a scan in L < R < D order would visit:
    up to and including the first winning one, or all 3**q."""
    attack = find_winning_mask(spec, strategy, cap)
    if attack is None:
        return Certificate("player-must-win", 3**spec.q, None)
    return Certificate("balance-wins", engine.encode_mask(attack.mask) + 1, attack)


def survivor_mass(spec: GameSpec, strategy, cap: int = engine.DEFAULT_MASK_CAP) -> int:
    """Total survivor count summed over every possible announcement.

    Brute-force side of an exact conservation law: each hypothesis survives
    precisely the masks within lie distance k of its honest announcement,
    a Hamming ball whose size does not depend on the plan.  Compare
    :func:`survivor_mass_expected`.
    """
    validate_strategy(spec, strategy)
    engine.check_mask_cap(spec.q, cap)
    return int(sum(int(c.sum()) for _, c in engine.iter_survivor_blocks(spec, strategy)))


def lie_ball_volume(q: int, k: int) -> int:
    """Masks within Hamming distance k of a fixed length-q announcement:
    choose the lied rounds, then one of 2 wrong symbols per lied round."""
    return hamming_ball_volume(q, k)


def survivor_mass_expected(spec: GameSpec) -> int:
    """Closed form for :func:`survivor_mass`: hypotheses times ball volume."""
    return spec.hypothesis_count * lie_ball_volume(spec.q, spec.k)


def perfect_capacity(q: int, prior: str) -> int:
    """Largest coin count with a zero-lie must-win plan."""
    return 3**q if prior == HEAVY else (3**q - 1) // 2


@dataclass(frozen=True)
class GameValue:
    """Who wins under best play, and how that was established."""

    winner: str  # "player" or "balance"
    mode: str  # "exhaustive" or "constructive"
    witness: tuple[str, ...] | None
    instances_checked: int


def _builder_witnesses(spec: GameSpec):
    if spec.k != 0:
        return
    if spec.prior == HEAVY and spec.n <= 3**spec.q:
        yield ternary_strategy(spec.n, spec.q)
    if spec.prior == UNKNOWN and spec.n <= perfect_capacity(spec.q, UNKNOWN):
        yield complement_free_strategy(spec.n, spec.q)


def _game_value_exhaustive(spec: GameSpec, matrix_cap: int, mask_cap: int) -> GameValue:
    total = engine.check_matrix_cap(spec, matrix_cap)
    engine.check_mask_cap(spec.q, mask_cap)
    checked = 0
    for probe in _builder_witnesses(spec):
        checked += 1
        if certify(spec, probe, mask_cap).must_win:
            return GameValue(PLAYER, "exhaustive", probe, checked)
    for start in range(0, total, engine.PLAN_CHUNK):
        codes = engine.matrix_chunk_codes(spec, start, min(start + engine.PLAN_CHUNK, total))
        wins = engine.batch_balance_wins(spec, codes)
        losers = np.nonzero(~wins)[0]
        if losers.size:
            first = codes[int(losers[0])]
            witness = tuple(engine.decode_row(int(c), spec.q) for c in first)
            if not certify(spec, witness, mask_cap).must_win:  # re-check the witness
                raise AssertionError("internal error: enumerated witness failed recertification")
            return GameValue(PLAYER, "exhaustive", witness, checked + start + int(losers[0]) + 1)
    return GameValue(BALANCE, "exhaustive", None, checked + total)


def _game_value_constructive(spec: GameSpec, mask_cap: int) -> GameValue:
    if spec.hypothesis_count < 2:
        witness = ternary_strategy(spec.n, spec.q)
        return GameValue(PLAYER, "constructive", witness, 1)
    if spec.k == 0:
        cap = perfect_capacity(spec.q, spec.prior)
        if spec.n <= cap:
            witness = next(_builder_witnesses(spec))
            if spec.q <= mask_cap and not certify(spec, witness, mask_cap).must_win:
                raise AssertionError("internal error: builder witness failed certification")
            return GameValue(PLAYER, "constructive", witness, 1)
        # Beyond capacity every plan repeats a row, mirrors one, or idles a
        # coin, and the structural attack wins; no enumeration needed.
        return GameValue(BALANCE, "constructive", None, 0)
    if survivor_mass_expected(spec) > 3**spec.q:
        # Conservation: more survivors than masks forces a mask with >= 2.
        return GameValue(BALANCE, "constructive", None, 0)
    raise UndecidedError(
        f"no constructive rule decides {spec.compact()}; use exhaustive mode"
    )


def game_value(
    spec: GameSpec,
    mode: str = "auto",
    matrix_cap: int = engine.DEFAULT_MATRIX_CAP,
    mask_cap: int = engine.DEFAULT_MASK_CAP,
) -> GameValue:
    """Best-play winner.  Exhaustive mode enumerates every plan; constructive
    mode applies the capacity theorems (k=0) and the survivor-mass pigeonhole
    (k>=1, balance side only).  ``auto`` prefers exhaustive within the caps."""
    if mode == "exhaustive":
        return _game_value_exhaustive(spec, matrix_cap, mask_cap)
    if mode == "constructive":
        return _game_value_constructive(spec, mask_cap)
    if mode != "auto":
        raise ValueError(f"mode must be auto, exhaustive or constructive, got {mode!r}")
    if (3**spec.q) ** spec.n <= matrix_cap and spec.q <= mask_cap:
        return _game_value_exhaustive(spec, matrix_cap, mask_cap)
    return _game_value_constructive(spec, mask_cap)


def census_perfect(
    spec: GameSpec,
    matrix_cap: int = engine.DEFAULT_MATRIX_CAP,
    mask_cap: int = engine.DEFAULT_MASK_CAP,
) -> int:
    """Count every plan that certifies must-win, over all 3**(n*q) plans."""
    total = engine.check_matrix_cap(spec, matrix_cap)
    engine.check_mask_cap(spec.q, mask_cap)
    count = 0
    for start in range(0, total, engine.PLAN_CHUNK):
        codes = engine.matrix_chunk_codes(spec, start, min(start + engine.PLAN_CHUNK, total))
        count += int((~engine.batch_balance_wins(spec, codes)).sum())
    return count


@dataclass(frozen=True)
class SweepRow:
    q: int
    player_max_n: int | None  # None: not established for this row
    balance_min_n: int | None
    mode: str  # how the boundary was established
    capacity: int | None  # zero-lie capacity prediction, if applicable
    mass_bound_min_n: int | None  # pigeonhole balance threshold, k >= 1


def _mass_bound_min_n(q: int, k: int, prior: str) -> int:
    per_coin = survivor_mass_expected(GameSpec(1, q, k, prior))
    return 3**q // per_coin + 1  # smallest n with n * per_coin > 3**q


def theorem_sweep(
    q_max: int,
    prior: str = HEAVY,
    k: int = 0,
    matrix_cap: int = 200_000,
    mask_cap: int = engine.DEFAULT_MASK_CAP,
) -> list[SweepRow]:
    """Per-q win/lose boundary in n, exhaustive while the plan count fits the
    cap, else settled by the capacity theorems (k=0) or reported as the
    pigeonhole bound only (k>=1)."""
    rows = []
    for q in range(1, q_max + 1):
        last_player = 0
        balance_min = None
        n = 1
        while (3**q) ** n <= matrix_cap:
            value = game_value(GameSpec(n, q, k, prior), "exhaustive", matrix_cap, mask_cap)
            if value.winner == PLAYER:
                last_player = n
                n += 1
            else:
                balance_min = n
                break
        capacity = perfect_capacity(q, prior) if k == 0 else None
        mass_min = _mass_bound_min_n(q, k, prior) if k >= 1 else None
        if balance_min is not None:
            rows.append(SweepRow(q, last_player, balance_min, "exhaustive", capacity, mass_min))
        elif k == 0:
            witness = GameSpec(capacity, q, 0, prior)
            value = game_value(witness, "constructive", mask_cap)
            if value.winner != PLAYER:
                raise AssertionError("internal error: capacity witness lost")
            rows.append(SweepRow(q, capacity, capacity + 1, "constructive", capacity, mass_min))
        else:
            player_max = last_player if last_player else None
            rows.append(SweepRow(q, player_max, mass_min, "mass-bound", capacity, mass_min))
    return rows
