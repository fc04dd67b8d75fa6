"""Seeded experiments: random plans against the exact best-response balance.

Reproducibility scheme: trial ``t`` of a run with master seed ``s`` uses the
derived seed ``s * 1_000_003 + t``, so any subset of trials can be re-run
on its own and the whole run is a pure function of its arguments.

Trials run in blocks that fit the engine's block budget.  Each block builds
one ``random.Random`` and reseeds it per trial (``builders.reseeded``),
which leaves it in exactly the state ``random.Random(seed)`` starts in.  A
trial's numbers come from one ``getrandbits`` call, whose raw words are
turned into ``random()`` values by ``builders.draw_uniforms`` and into
``randrange`` values by ``builders.draw_below``, a word-level replay of
CPython's rejection sampling (a trial that comes up short is drawn again).
What remains per trial is mostly CPython's seeding itself (Mersenne
Twister ``init_by_array``), which is now most of the time of a run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import engine
from .analysis import chernoff_tail_bound
from .builders import (
    RandomStrategyParams,
    below_bytes,
    draw_below,
    draw_uniforms,
    random_plan_digits,
    reseeded,
)
from .core import DomainError, GameSpec
from .verifier import census_perfect

Z_95 = 1.959963984540054  # two-sided 95% normal quantile
CENSUS_CAP = 500_000  # most plans random_perfect_rate enumerates for its census_rate
_CELL_BYTES = 16  # peak bytes per cell of builders.draw_uniforms; sizes blocks of draws


def trial_seed(seed: int, t: int) -> int:
    return seed * 1_000_003 + t


def _seed_blocks(seed: int, trials: int, trial_bytes: int):
    """Trial seeds, as ranges, in consecutive blocks whose draws and
    verdicts, ``trial_bytes`` per trial, fit in the engine's block budget."""
    for ts in engine._blocks(trials, trial_bytes):
        yield range(trial_seed(seed, ts.start), trial_seed(seed, ts.stop))


@dataclass(frozen=True)
class TrialReport:
    """One experiment's outcome with its sampling uncertainty."""

    spec: GameSpec | None
    params: dict[str, Any]
    trials: int
    successes: int
    estimate: float
    half_width: float  # 95% normal-approximation half width
    seed: int
    extras: dict[str, Any] = field(default_factory=dict)


def _report(spec, params, trials, successes, seed, extras=None) -> TrialReport:
    p = successes / trials
    hw = Z_95 * math.sqrt(p * (1.0 - p) / trials)
    return TrialReport(spec, params, trials, successes, p, hw, seed, extras or {})


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")


def simulate_random_player(spec: GameSpec, r: float, trials: int, seed: int = 0) -> TrialReport:
    """Balance win rate against seeded random plans with on-rate ``r``.

    Each trial plays the exact adversary: the balance wins the trial iff
    some announcement keeps two hypotheses alive against that trial's plan.
    """
    _check_trials(trials)
    engine.check_rounds(spec.q)
    RandomStrategyParams(r, seed)  # rejects an on-rate outside [0, 1]
    wins = 0
    trial_bytes = max(_CELL_BYTES * spec.n * spec.q, engine.verdict_bytes(spec))
    for seeds in _seed_blocks(seed, trials, trial_bytes):
        rows = np.moveaxis(random_plan_digits(seeds, spec.n, spec.q, r), -1, 0)  # round first
        wins += int(engine.batch_balance_wins(spec, rows).sum())
    return _report(spec, {"r": r}, trials, wins, seed)


def concentration_experiment(
    q: int, r: float, delta: float, trials: int, seed: int = 0
) -> tuple[float, float]:
    """(empirical tail, hoeffding bound) for the on-fraction of random rows.

    Each trial draws one length-q row with independent on-probability r and
    checks whether its on-fraction strays from r by more than delta.
    """
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"on-balance rate must lie in [0, 1], got {r}")
    _check_trials(trials)
    pieces = list(engine._blocks(q, _CELL_BYTES))  # a longer row is drawn in pieces
    hits = 0
    for seeds in _seed_blocks(seed, trials, _CELL_BYTES * q):
        rngs = reseeded(random.Random(), seeds)
        if len(pieces) > 1:  # a block of one trial, its row drawn piece by piece
            rngs = list(rngs)
        on = sum((draw_uniforms(rngs, cs.stop - cs.start) < r).sum(axis=1) for cs in pieces)
        hits += int((np.abs(on / q - r) > delta).sum())
    return hits / trials, chernoff_tail_bound(q, delta)


def random_perfect_rate(
    n: int,
    q: int,
    prior: str,
    trials: int,
    seed: int = 0,
) -> TrialReport:
    """Fraction of uniformly random plans that certify must-win (zero lies).

    Extras carry two reference points: ``pair_count_rate`` is the exact rate
    2**n n! / 3**(n q) of one-row-per-mirror-pair plans when n equals the
    unknown-prior capacity, ``pair_count_rate_with_columns`` multiplies in a
    q! column factor, and ``census_rate`` is the enumerated ground truth
    whenever the full census fits under ``CENSUS_CAP``.  A rate past a float is a ``DomainError``.
    """
    _check_trials(trials)
    spec = GameSpec(n, q, 0, prior)
    engine.check_rounds(spec.q)
    total = (3**q) ** n
    extras: dict[str, Any] = {}
    for name, columns in (("pair_count_rate", 1), ("pair_count_rate_with_columns", q)):
        try:
            extras[name] = 2**n * math.factorial(n) * math.factorial(columns) / total
        except OverflowError:
            raise DomainError(f"{name} overflows a float at n={n}, q={q}") from None
    perfect = 0
    decide = n * engine._CODE_BYTES + engine.verdict_bytes(spec)  # codes peeled, then decided
    for seeds in _seed_blocks(seed, trials, max(below_bytes(3**q, n), decide)):
        codes = draw_below(seeds, 3**q, n)
        perfect += int((~engine.batch_balance_wins(spec, engine.code_digits(codes, q))).sum())
    if total <= CENSUS_CAP:
        extras["census_count"] = census_perfect(spec, CENSUS_CAP)
        extras["census_rate"] = extras["census_count"] / total
    return _report(spec, {}, trials, perfect, seed, extras)
