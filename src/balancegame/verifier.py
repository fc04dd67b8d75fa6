"""Certification: exhaustive must-win checks, censuses and boundary sweeps.

:func:`game_value`, :func:`census_perfect` and :func:`theorem_sweep` climb
the clique search's one ladder (:class:`engine._CliqueSearch`) and keep no
game rule of their own.  Every plan this module builds, a witness or the
sweep's largest win, is certified in one place (:func:`_certified`) on the
digits a witness is printed from; plan text enters only by :func:`certify`."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, formats
from .adversary import AttackResult, find_winning_mask
from .analysis import hamming_ball_volume
from .core import HEAVY, PLACEMENTS, BalanceGameError, DomainError, GameSpec, ResourceLimitError

PLAYER = "player"
BALANCE = "balance"
SWEEP_MATRIX_CAP = 200_000  # theorem_sweep searches each n only while its 3**(n*q) plans fit this


class UndecidedError(BalanceGameError):
    """Only the clique search's graph rung settles this instance."""


@dataclass(frozen=True)
class Certificate:
    """Result of checking every admissible announcement against one plan."""

    outcome: str  # "player-must-win" or "balance-wins"
    masks_checked: int
    attack: AttackResult | None

    @property
    def must_win(self) -> bool:
        return self.attack is None


def certify(spec: GameSpec, strategy) -> Certificate:
    """A plan is must-win when no announcement leaves 2 survivors.

    Decided by :func:`find_winning_mask` from close pairs of honest codes;
    ``masks_checked`` counts the masks a scan in L < R < D order would visit:
    up to and including the first winning one, or all 3**q."""
    attack = find_winning_mask(spec, strategy)
    if attack is None:
        return Certificate("player-must-win", 3**spec.q, None)
    return Certificate("balance-wins", engine.encode_mask(attack.mask) + 1, attack)


def survivor_mass_expected(spec: GameSpec) -> int:
    """Survivor count of any plan summed over every announcement: each
    hypothesis survives exactly the masks within lie distance k of its honest
    announcement, so hypotheses times the volume of a radius-k lie ball
    (:func:`analysis.hamming_ball_volume`), whatever the plan."""
    return spec.hypothesis_count * hamming_ball_volume(spec.q, spec.k)


def perfect_capacity(q: int, prior: str) -> int:
    """Largest coin count with a zero-lie must-win plan: one less than the
    k = 0 pigeonhole threshold, 3**q heavy or (3**q - 1) // 2 unknown."""
    return engine.pigeonhole_min_n(q, 0, prior) - 1


@dataclass(frozen=True)
class GameValue:
    """Who wins under best play, and how that was established."""

    winner: str  # "player" or "balance"
    mode: str  # "exhaustive" or "constructive"
    witness: tuple[str, ...] | None
    instances_checked: int


def _certified(spec: GameSpec, codes: list[int], source: str) -> np.ndarray:
    """The one exit for a plan this module builds: the (q, n) digits of its
    row codes, certified must-win when q <= MAX_ROUNDS by :func:`certify`'s
    kernel call.  A plan that fails is an internal error naming ``source``."""
    digits = engine.code_digits(codes, spec.q)
    preds = engine._hypothesis_digits(spec, digits)
    if spec.q <= engine.MAX_ROUNDS and engine.first_winning_word(spec, preds) is not None:
        raise AssertionError(f"internal error: {source} failed certification")
    return digits


def game_value(
    spec: GameSpec,
    mode: str = "auto",
    matrix_cap: int = engine.DEFAULT_MATRIX_CAP,
) -> GameValue:
    """Best-play winner, by the clique search's one ladder
    (:class:`engine._CliqueSearch`): no plan where the bounds leave none, all-L
    at n = 1, the builders' plan at k = 0, and else the graph.

    ``auto`` is exhaustive while the 3**(n*q) plans fit ``matrix_cap``.
    Constructive mode refuses the graph rung with :class:`UndecidedError`
    and answers the rest as exhaustive mode does.  A plan from a rung before
    the graph has its n*q cells checked against ``matrix_cap`` before it is
    built; a graph plan fits, as n*q <= W**2.  ``instances_checked`` is a
    graph plan's rank + 1 in the row-major (3**q)**n enumeration, 1 for any
    other plan, and for a balance win all 3**(n*q) plans in exhaustive mode
    and none in constructive mode.  The one plan handed out is certified
    again (:func:`_certified`)."""
    if mode == "auto":
        mode = "exhaustive" if spec.n * spec.q <= _cap_exponent(matrix_cap) else "constructive"
    elif mode not in ("exhaustive", "constructive"):
        raise ValueError(f"mode must be auto, exhaustive or constructive, got {mode!r}")
    search = engine._CliqueSearch(spec, matrix_cap)
    graph = search.needs_graph(spec.n)
    if graph and mode == "constructive":
        raise UndecidedError(f"no constructive rule decides {spec.compact()}; use exhaustive mode")
    if not graph and not search.lost(spec.n) and spec.n * spec.q > matrix_cap:
        raise ResourceLimitError(
            f"the builder plan for {spec.compact()} has {spec.n * spec.q} cells, over the "
            f"matrix cap ({matrix_cap}); raise --matrix-cap to proceed"
        )
    first = search.first(spec.n)
    if first is None:
        checked = 0 if mode == "constructive" else plan_total(spec, "instances_checked")
        return GameValue(BALANCE, mode, None, checked)
    rank = 0
    if graph:
        for code in first:  # the witness's index in the (3**q)**n enumeration, row 0 first
            rank = rank * 3**spec.q + code
    digits = _certified(spec, first, ("clique" if graph else "builder") + " witness")
    return GameValue(PLAYER, mode, tuple(engine.digit_rows(digits.T, PLACEMENTS)), rank + 1)


def census_perfect(spec: GameSpec, matrix_cap: int = engine.DEFAULT_MATRIX_CAP) -> int:
    """Count every plan that certifies must-win, over all 3**(n*q) plans:
    n! row orders of each clique of compatible rows (:func:`engine.clique_count`).
    One ladder counts them: none where the balance bound leaves none
    (:func:`engine.every_plan_loses`) or past the admissible rows, each
    admissible row at n = 1, a closed form at k = 0, and at k >= 1 orbit
    sums over the game's symmetries.  Only the last can be refused: past
    MAX_ROUNDS or ``matrix_cap`` graph cells before it starts, or past
    ``matrix_cap`` nodes as it runs (:class:`engine._CliqueSearch`)."""
    count = engine.clique_count(spec, matrix_cap)
    return math.factorial(spec.n) * count if count else 0


def _cap_exponent(cap: int) -> int:
    """The largest e with 3**e <= ``cap``, -1 for a cap below 1: the 3**(n q)
    plans fit the cap exactly when n q <= e, so no plan count is formed to
    be compared with it."""
    if cap < 1:
        return -1
    e = int(math.log(cap, 3))  # the float logarithm may be off by one either way
    e += 3 ** (e + 1) <= cap
    return e - (3**e > cap)


def plan_total(spec: GameSpec, field: str) -> int:
    """All 3**(n q) plans of ``spec``, the report field ``field``, formed only
    within the engine's block budget in bits.  Past it the integer is refused
    unformed: by the report's own :class:`DomainError` where it has more
    digits than the int-to-str limit (:func:`formats.refuse_power_of_three`),
    else by :class:`ResourceLimitError`."""
    exponent = spec.n * spec.q
    if exponent * math.log2(3) > 8 * engine._PAIR_BYTES:
        formats.refuse_power_of_three(field, exponent)
        raise ResourceLimitError(
            f"{field} for {spec.compact()} is an integer past the {engine._PAIR_BYTES}-byte block"
        )
    return 3**exponent


@dataclass(frozen=True)
class SweepRow:
    q: int
    player_max_n: int | None  # None: not established for this row
    balance_min_n: int | None
    mode: str  # how the boundary was established
    capacity: int | None  # zero-lie capacity prediction, if applicable
    mass_bound_min_n: int | None  # pigeonhole balance threshold, k >= 1


def _largest_win(
    q: int, k: int, prior: str, matrix_cap: int
) -> tuple[int, list[int] | None, int | None]:
    """Walk n upward while the 3**(n*q) plans fit ``matrix_cap``, each n
    decided by :func:`game_value`'s exhaustive rule without building or
    certifying a plan: the first clique of one search shared by every n.
    Returns the largest n the player wins (0 if none), its clique's row
    codes, and the first n the balance wins, ``None`` if the walk reaches
    the cap first."""
    search, won, codes = engine._CliqueSearch(GameSpec(1, q, k, prior), matrix_cap), 0, None
    n, most = 1, _cap_exponent(matrix_cap)
    while n * q <= most:
        clique = search.first(n)
        if clique is None:
            return won, codes, n
        won, codes = n, clique
        n += 1
    return won, codes, None


def theorem_sweep(
    q_max: int, prior: str = HEAVY, k: int = 0, matrix_cap: int = SWEEP_MATRIX_CAP
) -> list[SweepRow]:
    """Per-q win/lose boundary in n, exhaustive while the plan count fits the
    cap, else settled by the capacity theorems (k=0) or reported as the
    pigeonhole bound only (k>=1).  Rows start at q = max(1, k), the fewest
    rounds a lie budget of k allows; a ``q_max`` below that, which would
    leave no row, raises :class:`DomainError`.

    Each q is one walk up n (:func:`_largest_win`), with the verdicts of
    :func:`game_value` in exhaustive mode: its k >= 1 clique searches share
    one compatibility graph, and each n's node meter starts from zero, so a
    refusal comes at the same n.  Only the largest player win's digits are
    certified (:func:`_certified`), and no plan text is built.  That covers
    every smaller n, since every sub-plan of a must-win plan is must-win: dropping
    rows drops hypotheses, and no announcement gains survivors."""
    if q_max < max(1, k):
        raise DomainError(f"sweep needs qmax >= max(1, k), got qmax={q_max}, k={k}")
    rows = []
    for q in range(max(1, k), q_max + 1):
        last_player, clique, balance_min = _largest_win(q, k, prior, matrix_cap)
        if last_player:
            won = GameSpec(last_player, q, k, prior)
            _certified(won, clique, f"the sweep's plan for {won.compact()}")
        least = engine.pigeonhole_min_n(q, k, prior)
        capacity, mass_min = (least - 1, None) if k == 0 else (None, least)
        if balance_min is not None:
            rows.append(SweepRow(q, last_player, balance_min, "exhaustive", capacity, mass_min))
        else:
            # Past the cap the pigeonhole bounds the balance's side; at k = 0 it is exact,
            # the capacity plan being must-win by construction (the builders' tests certify it).
            mode = "constructive" if k == 0 else "mass-bound"
            player_max = capacity or last_player or None
            rows.append(SweepRow(q, player_max, least, mode, capacity, mass_min))
    return rows
