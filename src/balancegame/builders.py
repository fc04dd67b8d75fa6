"""Strategy constructors: canonical families and seeded random plans."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import CapacityError, DomainError, PLACEMENTS
from .engine import decode_row

_BIN_DIGITS = str.maketrans("01", "LR")
_TERN_DIGITS = str.maketrans("012", "LRO")


def _check_shape(n: int, q: int) -> None:
    if n < 1 or q < 1:
        raise DomainError(f"need n >= 1 and q >= 1, got n={n}, q={q}")


def binary_strategy(n: int, q: int) -> tuple[str, ...]:
    """Row i spells i in binary over q rounds, 0 -> L and 1 -> R (MSB first).

    Every coin is on the balance every round.  Capacity 2**q.
    """
    _check_shape(n, q)
    if n > 2**q:
        raise CapacityError(f"binary plans support at most 2**q = {2**q} coins, got n={n}")
    return tuple(format(i, f"0{q}b").translate(_BIN_DIGITS) for i in range(n))


def ternary_strategy(n: int, q: int) -> tuple[str, ...]:
    """Row i spells i in ternary, 0 -> L, 1 -> R, 2 -> O (MSB first).

    Capacity 3**q; rows are pairwise distinct, which under the heavy prior
    is exactly what a must-win plan needs.
    """
    _check_shape(n, q)
    if n > 3**q:
        raise CapacityError(f"ternary plans support at most 3**q = {3**q} coins, got n={n}")
    rows = []
    for i in range(n):
        digits = []
        v = i
        for _ in range(q):
            v, d = divmod(v, 3)
            digits.append(str(d))
        rows.append("".join(reversed(digits)).translate(_TERN_DIGITS))
    return tuple(rows)


def complement_free_strategy(n: int, q: int) -> tuple[str, ...]:
    """First n rows, in L < R < O lexicographic order, of a maximal set with
    no all-off row and no two rows that are pan-swapped mirrors of each other.

    Mirror-free rows keep heavier and lighter readings distinguishable, so
    under the unknown prior these plans are must-win.  Capacity (3**q - 1)/2:
    one row from each mirror pair of the non-all-off rows.  A row and its
    mirror first differ at the first on-balance cell, so the row kept from
    each pair, the earlier one, is the one whose first on-balance cell is L.
    """
    _check_shape(n, q)
    cap = (3**q - 1) // 2
    if n > cap:
        raise CapacityError(
            f"mirror-free plans support at most (3**q - 1)//2 = {cap} coins, got n={n}"
        )
    rows = ("".join(cells) for cells in itertools.product(PLACEMENTS, repeat=q))
    return tuple(itertools.islice((r for r in rows if r.lstrip("O").startswith("L")), n))


@dataclass(frozen=True)
class RandomStrategyParams:
    """Cell distribution for random plans: L and R each with probability
    ``on_fraction / 2``, O with probability ``1 - on_fraction``, all cells
    independent."""

    on_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.on_fraction <= 1.0:
            raise DomainError(
                f"on-balance fraction must lie in [0, 1], got {self.on_fraction}"
            )


def random_row_codes(n: int, q: int, params: RandomStrategyParams) -> list[int]:
    """Base-3 row codes of a seeded random plan; cells are drawn row-major,
    one uniform each: L below ``on_fraction / 2``, else R below
    ``on_fraction``, else O."""
    _check_shape(n, q)
    rng = random.Random(params.seed)
    half, on = params.on_fraction / 2.0, params.on_fraction
    codes = []
    for _ in range(n):
        code = 0
        for _ in range(q):
            u = rng.random()
            code = 3 * code + (0 if u < half else 1 if u < on else 2)
        codes.append(code)
    return codes


def random_strategy(n: int, q: int, params: RandomStrategyParams) -> tuple[str, ...]:
    """Seeded random plan: the rows of :func:`random_row_codes`."""
    return tuple(decode_row(c, q) for c in random_row_codes(n, q, params))


def row_profile(strategy) -> tuple[int, ...]:
    """Per-coin count of rounds spent on the balance."""
    return tuple(len(row) - row.count("O") for row in strategy)
