"""Strategy constructors: canonical families and seeded random plans."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .core import CapacityError, DomainError, PLACEMENTS
from .engine import decode_rows, digit_rows, mirror_free_codes

_BIN_DIGITS = str.maketrans("01", "LR")


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
    return tuple(decode_rows(np.arange(n), q))


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
    return tuple(decode_rows(mirror_free_codes(n, q), q))


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


def reseeded(rng: random.Random, seeds):
    """Yield ``rng`` once per seed, reseeded with it.  ``rng.seed(s)`` leaves
    it in exactly the state ``random.Random(s)`` starts in, at the cost of
    CPython's seeding alone, not of a construction; each yield reseeds the
    same generator, so use it up before taking the next."""
    for s in seeds:
        rng.seed(s)
        yield rng


def draw_uniforms(rngs, count: int) -> np.ndarray:
    """(k, count) floats for the k generators ``rngs`` yields, count >= 1:
    row i holds the next ``count`` values of the i-th generator's
    ``random()``, bit for bit, and leaves it where those calls would.

    ``random()`` makes each double from two 32-bit generator words a, b as
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53.  One ``getrandbits(64 * count)``
    call draws the same words, the first in the lowest bits, so the doubles
    are formed all at once from its bytes.  At the peak a cell takes 16
    bytes: its words twice over while they are joined, then its shifted
    words and its double."""
    raw = b"".join(rng.getrandbits(64 * count).to_bytes(8 * count, "little") for rng in rngs)
    words = np.frombuffer(raw, dtype="<u4").reshape(-1, count, 2)
    high, low = words[..., 0] >> 5, words[..., 1] >> 6
    del raw, words
    u = high.astype(np.float64)
    u *= 2.0**26
    u += low
    u /= 2.0**53
    return u


def _first_draw(bound: int, count: int) -> int:
    """Candidates drawn per trial at first for ``count`` values below
    ``bound``: their mean number, count / p for the acceptance rate
    p = bound / 2**k > 1/2, plus four standard deviations, so that few
    trials come up short."""
    p = bound / 2 ** bound.bit_length()
    return math.ceil((count + 4 * math.sqrt(count * (1 - p))) / p)


def below_bytes(bound: int, count: int) -> int:
    """Bytes per trial that bound the peak of :func:`draw_below`'s first
    draw under tracemalloc: 160 for the trial's Python objects; per
    candidate 4 + 8 per word, for its words twice while they are joined, or
    for its value, acceptance mask and accepted copy; and 24 per value kept,
    for its gather index, its value and its cell of the output."""
    words = -(-bound.bit_length() // 32)
    return 160 + (4 + 8 * words) * _first_draw(bound, count) + 24 * count


def draw_below(seeds, bound: int, count: int) -> np.ndarray:
    """(len(seeds), count) int64: row i holds the first ``count`` values of
    ``random.Random(seeds[i]).randrange(bound)``, bit for bit, for
    2 <= bound < 2**63.

    CPython's ``_randbelow_with_getrandbits`` draws candidates of
    k = bound.bit_length() bits and rejects one >= bound.  A candidate takes
    one 32-bit generator word when k <= 32 and two when k > 32: the first
    word is its low half, and the top word is shifted right by
    32 * words - k.  One ``getrandbits(32 * words * m)`` call draws the words
    of m candidates, the first in the lowest bits, so all trials' candidates
    are formed and screened at once.  The trials whose m candidates hold
    fewer than ``count`` accepted ones are drawn again, reseeded, with twice
    as many."""
    k = bound.bit_length()
    words = -(-k // 32)
    out = np.empty((len(seeds), count), dtype=np.int64)
    rng = random.Random()
    todo, m = np.arange(len(seeds)), _first_draw(bound, count)
    while todo.size:
        nbits = 32 * words * m
        raw = b"".join(
            rng.getrandbits(nbits).to_bytes(nbits // 8, "little")
            for _ in reseeded(rng, map(seeds.__getitem__, todo.tolist()))
        )
        w = np.frombuffer(raw, dtype="<u4").reshape(todo.size, m, words)
        cand = w[..., -1] >> (32 * words - k)
        if words == 2:  # the first word is the low half
            cand = cand.astype(np.int64)
            cand <<= 32
            cand |= w[..., 0]
        del raw, w
        ok = cand < bound
        kept = ok.sum(axis=1)
        full = kept >= count
        start = np.cumsum(kept) - kept  # where each trial's accepted candidates begin in cand[ok]
        out[todo[full]] = cand[ok][start[full, None] + np.arange(count)]
        todo, m = todo[~full], 2 * m
    return out


def random_plan_digits(seeds, n: int, q: int, on_fraction: float) -> np.ndarray:
    """(len(seeds), n, q) base-3 cells of one seeded random plan per seed.
    Cells are drawn row-major, one uniform each: L (0) below
    ``on_fraction / 2``, else R (1) below ``on_fraction``, else O (2)."""
    u = draw_uniforms(reseeded(random.Random(), seeds), n * q).reshape(len(seeds), n, q)
    return (u >= on_fraction / 2.0).astype(np.uint8) + (u >= on_fraction)


def random_strategy(n: int, q: int, params: RandomStrategyParams) -> tuple[str, ...]:
    """Seeded random plan with the cells of :func:`random_plan_digits`."""
    _check_shape(n, q)
    digits = random_plan_digits([params.seed], n, q, params.on_fraction)[0]
    return tuple(digit_rows(digits, PLACEMENTS))


def row_profile(strategy) -> tuple[int, ...]:
    """Per-coin count of rounds spent on the balance."""
    return tuple(len(row) - row.count("O") for row in strategy)
