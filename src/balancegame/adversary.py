"""The balance's side: find announcements that keep two hypotheses alive."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .core import OUTCOMES, DomainError, GameSpec, Hypothesis, adjudicate

METHOD_EXHAUSTIVE = "exhaustive"
METHOD_DUPLICATE = "duplicate-rows"
METHOD_MIRROR = "mirror-pair"
METHOD_ALL_OFF = "all-off-row"
_STRUCTURAL_METHODS = (METHOD_DUPLICATE, METHOD_MIRROR, METHOD_ALL_OFF)  # by precedence


@dataclass(frozen=True)
class AttackResult:
    """A winning announcement plus the hypotheses it leaves alive."""

    mask: str
    survivors: frozenset[Hypothesis]
    method: str


def _checked(spec: GameSpec, strategy, mask: str, method: str) -> AttackResult:
    # Soundness gate: every attack we hand out must actually win the game.
    verdict = adjudicate(spec, strategy, mask)
    if verdict.winner != "balance":
        raise AssertionError(
            f"internal error: {method} attack {mask!r} does not win ({verdict.describe()})"
        )
    return AttackResult(mask, verdict.survivors, method)


def find_winning_mask(spec: GameSpec, strategy) -> AttackResult | None:
    """First announcement, in L < R < D lexicographic order, with >= 2
    survivors; ``None`` when the plan is perfect and no such mask exists.

    Decided from the close pairs of honest words (:func:`engine.close_pairs`)
    rather than by visiting masks: the first winning mask is the smallest
    of the pairs' first common words."""
    rows = tuple(strategy)  # predicted_digits validates it
    code = engine.first_winning_code(spec, engine.predicted_digits(spec, rows))
    if code is None:
        return None
    return _checked(spec, rows, engine.decode_mask(code, spec.q), METHOD_EXHAUSTIVE)


def constructive_attack(spec: GameSpec, strategy) -> AttackResult | None:
    """Structural attack from equal honest codes; zero lie budget only.

    Every equal pair of honest announcements is a win for the balance, and
    its kind names the rule: two coins of one sign (duplicate rows), a heavy
    and a light reading of different coins (a mirror pair under the unknown
    prior), or both signs of one coin (an all-off row, announced as all
    draws).  The first kind present wins, with its smallest shared code as
    the announcement.  ``None`` when no two codes are equal.
    """
    if spec.k != 0:
        raise DomainError("constructive attacks cover only the zero-lie game (k=0)")
    rows = tuple(strategy)  # predicted_digits validates it
    preds = engine.predicted_digits(spec, rows)
    # One plan's close pairs come in one block, in ascending order of their shared code.
    _, a, b = next(engine.close_pairs(spec, preds[:, None]))
    if not a.size:
        return None
    n = spec.n
    kind = np.where(a // n == b // n, 0, np.where(a % n == b % n, 2, 1))
    first = int(np.argmin(kind))  # the first kind present, at its smallest shared code
    mask = engine.digit_rows(preds[None, :, a[first]], OUTCOMES)[0]
    return _checked(spec, rows, mask, _STRUCTURAL_METHODS[kind[first]])


__all__ = [
    "AttackResult",
    "METHOD_ALL_OFF",
    "METHOD_DUPLICATE",
    "METHOD_EXHAUSTIVE",
    "METHOD_MIRROR",
    "constructive_attack",
    "find_winning_mask",
]
