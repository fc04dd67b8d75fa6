"""Rules of the predetermined balance game.

One of ``n`` coins is counterfeit.  The player commits, up front, an
``n x q`` plan saying for each coin and each of ``q`` weighing rounds
whether the coin sits in the left pan (``L``), the right pan (``R``) or
stays off the balance (``O``).  The balance then announces a length-``q``
outcome sequence over ``L`` (left pan heavy), ``R`` (right pan heavy) and
``D`` (draw) -- it may announce anything at all, subject only to a lie
budget ``k``: an announcement is admissible for a hypothesis if it differs
from that hypothesis's truthful outcome sequence in at most ``k`` rounds.

A *hypothesis* names the counterfeit coin and its sign (heavier/lighter).
Under the ``heavy`` prior only heavier hypotheses exist; under ``unknown``
both signs do.  After the announcement the player keeps every hypothesis
the announcement could have come from.  Exactly one survivor: the player
names the coin.  No survivors: the announcement was an outright lie and
the player wins by catching it.  Two or more: the balance wins.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple

PLACEMENTS = "LRO"  # left pan, right pan, off the balance
OUTCOMES = "LRD"  # left heavy, right heavy, draw

HEAVY = "heavy"
LIGHT = "light"
UNKNOWN = "unknown"
PRIORS = (HEAVY, UNKNOWN)
SIGNS = (HEAVY, LIGHT)

# TRANSCRIPTION[prior][placement][outcome] -> evidence character.  Under the
# heavy prior a coin is only ever a candidate heavy, so each placement has
# exactly one confirming outcome.  Under the unknown prior an on-balance coin
# seen sinking reads "+", seen rising reads "-", an off-balance coin during a
# draw stays ambiguous ("±"), and "x" rules a coin out.
TRANSCRIPTION = {
    HEAVY: {
        "L": {"L": "+", "R": "x", "D": "x"},
        "R": {"L": "x", "R": "+", "D": "x"},
        "O": {"L": "x", "R": "x", "D": "+"},
    },
    UNKNOWN: {
        "L": {"L": "+", "R": "-", "D": "x"},
        "R": {"L": "-", "R": "+", "D": "x"},
        "O": {"L": "x", "R": "x", "D": "±"},
    },
}

# If coin i is the heavy counterfeit, round j truthfully announces the side
# coin i sits on (or a draw when it is off).  If it is the light counterfeit,
# the announced side flips.  Both images are bijections, so each has an
# inverse, the pre-image: it maps a mask to the one row whose honest
# announcement it is.
_IMAGE = {HEAVY: str.maketrans("LRO", "LRD"), LIGHT: str.maketrans("LRO", "RLD")}
_PRE_IMAGE = {sign: {out: cell for cell, out in image.items()} for sign, image in _IMAGE.items()}
_SWAP_PANS = str.maketrans("LR", "RL")
# Deletes every placement: what a row's translate() leaves lies outside the alphabet.
DROP_PLACEMENTS = str.maketrans("", "", PLACEMENTS)


class BalanceGameError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(BalanceGameError, ValueError):
    """A strategy, mask or observation grid has the wrong shape."""


class CapacityError(BalanceGameError, ValueError):
    """A builder was asked for more rows than the round count supports."""


class ResourceLimitError(BalanceGameError):
    """An enumeration would exceed the configured work cap."""


class DomainError(BalanceGameError, ValueError):
    """A numeric argument lies outside a function's domain."""


class Hypothesis(NamedTuple):
    coin: int  # 0-based
    sign: str  # HEAVY or LIGHT

    @property
    def label(self) -> str:
        """Human-facing description; coins are 1-based here."""
        return f"coin {self.coin + 1} {'heavier' if self.sign == HEAVY else 'lighter'}"


@dataclass(frozen=True)
class GameSpec:
    """Instance parameters: coin count, rounds, lie budget, prior."""

    n: int
    q: int
    k: int = 0
    prior: str = HEAVY

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need at least one coin, got n={self.n}")
        if self.q < 1:
            raise DomainError(f"need at least one round, got q={self.q}")
        if not 0 <= self.k <= self.q:
            raise DomainError(f"lie budget must satisfy 0 <= k <= q, got k={self.k}, q={self.q}")
        if self.prior not in PRIORS:
            raise DomainError(f"prior must be one of {PRIORS}, got {self.prior!r}")

    @property
    def signs(self) -> tuple[str, ...]:
        return (HEAVY,) if self.prior == HEAVY else SIGNS

    @property
    def hypothesis_count(self) -> int:
        return self.n * len(self.signs)

    def hypotheses(self) -> Iterator[Hypothesis]:
        for sign in self.signs:
            for coin in range(self.n):
                yield Hypothesis(coin, sign)

    @classmethod
    def parse(cls, text: str) -> "GameSpec":
        """Parse ``"n,q,k,prior"``, e.g. ``"4,2,0,heavy"``."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise DomainError(f"spec must be 'n,q,k,prior', got {text!r}")
        try:
            n, q, k = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DomainError(f"spec must be 'n,q,k,prior', got {text!r}") from exc
        return cls(n, q, k, parts[3])

    def compact(self) -> str:
        return f"{self.n},{self.q},{self.k},{self.prior}"


def validate_row(row: str, q: int) -> None:
    if len(row) != q:
        raise DimensionError(f"row {row!r} has length {len(row)}, expected {q}")
    if row.translate(DROP_PLACEMENTS):  # some cell lies outside the alphabet
        bad = set(row) - set(PLACEMENTS)
        raise DimensionError(f"row {row!r} uses characters outside {PLACEMENTS!r}: {sorted(bad)}")


def validate_strategy(spec: GameSpec, strategy) -> tuple[str, ...]:
    """Check an n-row, q-column placement plan; returns it as a tuple."""
    rows = tuple(strategy)
    if len(rows) != spec.n:
        raise DimensionError(f"strategy has {len(rows)} rows, spec wants n={spec.n}")
    if set(map(len, rows)) == {spec.q} and not "".join(rows).translate(DROP_PLACEMENTS):
        return rows  # every row of q cells over the alphabet
    for row in rows:  # find the first bad row and word the error
        validate_row(row, spec.q)
    return rows


def validate_mask(mask: str, q: int) -> None:
    if len(mask) != q:
        raise DimensionError(f"mask {mask!r} has length {len(mask)}, expected {q}")
    if mask.strip(OUTCOMES):  # some outcome lies outside the alphabet
        bad = set(mask) - set(OUTCOMES)
        raise DimensionError(f"mask {mask!r} uses characters outside {OUTCOMES!r}: {sorted(bad)}")


def partial_complement(row: str) -> str:
    """Swap pans, keep off-rounds: the lighter-coin mirror of a row."""
    return row.translate(_SWAP_PANS)


def _by_sign(tables: dict, sign: str) -> dict:
    if sign not in SIGNS:
        raise DomainError(f"sign must be one of {SIGNS}, got {sign!r}")
    return tables[sign]


def predicted_mask(row: str, sign: str = HEAVY) -> str:
    """The announcement an honest balance would make were this row's coin
    the counterfeit of the given sign."""
    return row.translate(_by_sign(_IMAGE, sign))


def lie_count(row: str, mask: str, sign: str = HEAVY) -> int:
    """Rounds where the announcement contradicts this hypothesis's truth.
    The sign's image is a bijection, so a round's honest outcome differs
    from the announced one exactly where the row differs from the mask's
    pre-image, the row an honest balance would answer with this mask: the
    count compares the row with that pre-image, character by character
    (``map(operator.ne, ...)`` runs the loop in C)."""
    if len(row) != len(mask):
        raise DimensionError(f"row length {len(row)} != mask length {len(mask)}")
    return sum(map(operator.ne, row, mask.translate(_by_sign(_PRE_IMAGE, sign))))


def transcribe(strategy, mask: str, prior: str = HEAVY) -> tuple[str, ...]:
    """Per-coin evidence grid for an announcement.

    Row i, column j holds the evidence character the round-j outcome gives
    about coin i.  With a zero lie budget, coin i stays a candidate heavy
    exactly when its row avoids ``-`` and ``x``, and a candidate light
    (unknown prior) exactly when its row avoids ``+`` and ``x``.
    """
    if prior not in PRIORS:
        raise DomainError(f"prior must be one of {PRIORS}, got {prior!r}")
    rows = tuple(strategy)
    if not rows:
        raise DimensionError("strategy has no rows")
    for row in rows:
        validate_row(row, len(mask))
    validate_mask(mask, len(rows[0]))
    table = TRANSCRIPTION[prior]
    return tuple("".join(table[cell][out] for cell, out in zip(row, mask)) for row in rows)


def surviving_hypotheses(spec: GameSpec, strategy, mask: str) -> set[Hypothesis]:
    """Hypotheses the announcement is admissible for (at most k lied rounds).

    As in :func:`lie_count`, the mask is translated once per sign into its
    pre-image, the row an honest balance would answer with it; a hypothesis
    survives when its row differs from that pre-image in at most k rounds,
    at k = 0 when the row is the pre-image (one string equality)."""
    rows = validate_strategy(spec, strategy)
    validate_mask(mask, spec.q)
    out = set()
    for sign in spec.signs:
        source = mask.translate(_PRE_IMAGE[sign])
        if spec.k == 0:
            out.update(Hypothesis(i, sign) for i, row in enumerate(rows) if row == source)
            continue
        for i, row in enumerate(rows):
            if sum(map(operator.ne, row, source)) <= spec.k:
                out.add(Hypothesis(i, sign))
    return out


@dataclass(frozen=True)
class Verdict:
    """Outcome of one announcement against one strategy."""

    survivors: frozenset[Hypothesis]

    @property
    def winner(self) -> str:
        return "player" if len(self.survivors) <= 1 else "balance"

    @property
    def identified(self) -> Hypothesis | None:
        if len(self.survivors) == 1:
            return next(iter(self.survivors))
        return None

    @property
    def caught_lying(self) -> bool:
        return not self.survivors

    def describe(self) -> str:
        if self.caught_lying:
            return "player wins: the announcement fits no hypothesis, the balance lied"
        hit = self.identified
        if hit is not None:
            return f"player wins: {hit.label}"
        names = ", ".join(h.label for h in sorted(self.survivors))
        return f"balance wins: {len(self.survivors)} hypotheses remain ({names})"


def adjudicate(spec: GameSpec, strategy, mask: str) -> Verdict:
    """Score one announcement.  Ties on the same coin with opposite signs
    count as distinct survivors, so they hand the game to the balance."""
    return Verdict(frozenset(surviving_hypotheses(spec, strategy, mask)))
