"""Seeded experiments: random plans against the exact best-response balance.

Reproducibility scheme: trial ``t`` of a run with master seed ``s`` uses the
derived seed ``s * 1_000_003 + t``, so any subset of trials can be re-run
on its own and the whole run is a pure function of its arguments.

Trials run in blocks that fit the engine's block budget.  A run draws in
blocks sized by the draw alone and decides each drawn block in slices
sized by the verdict (``engine.verdict_bytes``), so a run whose draw fits
one block seeds its trials once.  Where every plan loses by the balance
bound (``engine.every_plan_loses``: the pigeonhole, or at k >= 1 the exact
Delsarte LP), nothing is drawn.  A trial's numbers come from the
first words of ``random.Random(seed)`` (``builders.seeded_words``): a block
of ``builders._REPLAY_TRIALS`` trials or more replays CPython's Mersenne
Twister seeding across its trials in numpy, and a smaller one reseeds one
generator for each trial in turn.  ``builders.random_plan_digits`` and
``builders.seeded_below_rate`` decide each ``random()`` comparison on the
words by one exact integer test, 10 bytes a value
(``builders.below_rate_bytes``), and ``builders.draw_below`` makes
``randrange`` values, a word-level replay of CPython's rejection sampling
(a trial that comes up short is drawn again).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import engine
from .analysis import chernoff_tail_bound
from .builders import (
    RandomStrategyParams,
    below_bytes,
    below_rate_bytes,
    draw_below,
    random_plan_digits,
    seeded_below_rate,
)
from .core import DomainError, GameSpec, ResourceLimitError
from .verifier import census_perfect

Z_95 = 1.959963984540054  # two-sided 95% normal quantile
_LOG_MAX = math.log(sys.float_info.max)
_LOG_TINY = math.log(5e-324)  # the least subnormal; half of it rounds to 0.0
CENSUS_CAP = 500_000  # most plans for which random_perfect_rate reports census_count and census_rate


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
    if engine.every_plan_loses(spec.n, spec.q, spec.k, spec.prior):
        return _report(spec, {"r": r}, trials, trials, seed)  # nothing to draw
    wins, cells = 0, spec.n * spec.q
    for seeds in _seed_blocks(seed, trials, below_rate_bytes(cells) + cells):
        digits = random_plan_digits(seeds, spec.n, spec.q, r)
        for ts in engine._blocks(len(seeds), engine.verdict_bytes(spec)):
            rows = np.moveaxis(digits[ts], -1, 0)  # round first
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
    bound = chernoff_tail_bound(q, delta)  # refuses a bad delta before any trial runs
    hits = 0
    for seeds in _seed_blocks(seed, trials, below_rate_bytes(q)):
        on = seeded_below_rate(seeds, q, r)
        hits += int((np.abs(on / q - r) > delta).sum())
    return hits / trials, bound


def _pair_count_rates(n: int, q: int, columns: dict[str, int]) -> dict[str, float]:
    """Each name's 2**n n! columns! / 3**(q n) as a float, in order, or a
    ``DomainError`` at the first that overflows one.  A rate's log, from
    ``math.lgamma``, settles the far cases first: with a slack well past the
    logs' rounding, a rate past the float range is refused and one far below
    the least subnormal is 0.0, so only rates near the range are formed from
    exact integers, about q n log2(3) bits each: past the engine's block
    budget, a ``ResourceLimitError``.  2**n n! and 3**(q n) are formed once,
    for the first rate that needs them."""
    rates: dict[str, float] = {}
    exact = None
    for name, c in columns.items():
        try:
            up = n * math.log(2) + math.lgamma(n + 1) + math.lgamma(c + 1)
            down = q * n * math.log(3)
            log, slack = up - down, 1.0 + 1e-12 * (up + down)
            if log < _LOG_TINY - slack:
                rates[name] = 0.0
                continue
            if log <= _LOG_MAX + slack:
                if q * n * math.log2(3) > 8 * engine._PAIR_BYTES:
                    raise ResourceLimitError(
                        f"{name} at n={n}, q={q} needs exact integers past the {engine._PAIR_BYTES}-byte block"
                    )
                if exact is None:
                    exact = 2**n * math.factorial(n), (3**q) ** n
                rates[name] = exact[0] * math.factorial(c) / exact[1]
                continue
        except OverflowError:  # the rate, or n itself (past a float, 2**n n! outgrows 3**(q n))
            pass
        raise DomainError(f"{name} overflows a float at n={n}, q={q}")
    return rates


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
    q! column factor, and ``census_count`` and ``census_rate`` give the exact
    census (:func:`verifier.census_perfect`, in closed form at zero lies, so
    nothing is enumerated) whenever the 3**(n q) plans number at most
    ``CENSUS_CAP``.  A rate past a float is a ``DomainError``, and one whose
    exact integers outgrow the block budget a ``ResourceLimitError``.
    """
    _check_trials(trials)
    spec = GameSpec(n, q, 0, prior)
    engine.check_rounds(spec.q)
    extras: dict[str, Any] = _pair_count_rates(
        n, q, {"pair_count_rate": 1, "pair_count_rate_with_columns": q}
    )
    perfect = 0
    if n < engine.pigeonhole_min_n(q, 0, prior):  # from there on no plan is perfect
        decide = n * engine._CODE_BYTES + engine.verdict_bytes(spec)  # codes peeled, then decided
        for seeds in _seed_blocks(seed, trials, max(below_bytes(3**q, n), decide)):
            codes = draw_below(seeds, 3**q, n)
            perfect += int((~engine.batch_balance_wins(spec, engine.code_digits(codes, q))).sum())
    if q * n <= math.log(CENSUS_CAP, 3) + 1 and 3 ** (q * n) <= CENSUS_CAP:
        extras["census_count"] = census_perfect(spec)
        extras["census_rate"] = extras["census_count"] / 3 ** (q * n)
    return _report(spec, {}, trials, perfect, seed, extras)
