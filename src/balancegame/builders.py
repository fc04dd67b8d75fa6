"""Strategy constructors: canonical families and seeded random plans.

Seeded plans and draws take the generator words of ``random.Random(seed)``
from :func:`seeded_words`, which replays CPython's MT19937 seeding on
length-T vectors for a block of ``_REPLAY_TRIALS`` seeds or more.  That
replay is some 9,350 ufunc calls whatever T is, so every constant they take
is a prebuilt read-only 0-d uint32 array (``engine._operands``), which
spares each call NumPy's scalar conversion."""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import engine
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


_N, _M = 624, 397  # MT19937's words of state, and the offset its twist reads
_TRIAL_BYTES = 192  # peak bytes per trial beyond its values; see below_rate_bytes
_REPLAY_TRIALS = 700  # fewest seeds of one key length whose seeding seeded_words replays
_JOIN_BYTES = 1 << 16  # most bytes seeded_words holds at once off the replay beyond its output


def _generator_words(rngs, words: int) -> np.ndarray:
    """(k, words) uint32: the next ``words`` outputs of each generator
    ``rngs`` yields, in ``getrandbits`` order, from one ``getrandbits`` call
    each.  A word takes 8 bytes at the peak: its int and bytes, then its
    bytes and their join."""
    raw = b"".join(rng.getrandbits(32 * words).to_bytes(4 * words, "little") for rng in rngs)
    return np.frombuffer(raw, dtype="<u4").reshape(-1, words)


def _fill(rng: random.Random, out: np.ndarray) -> None:
    """Write the next ``len(out)`` outputs of ``rng`` into ``out`` in calls of
    ``_JOIN_BYTES // 8`` words, ``_JOIN_BYTES`` at the peak: whole 32-bit
    words follow on from call to call as one call's would."""
    span = _JOIN_BYTES // 8
    for j in range(0, len(out), span):
        out[j : j + span] = _generator_words([rng], min(span, len(out) - j))[0]


def _key_words(m: int) -> int:
    """Length in 32-bit words of CPython's seeding key for |seed| = m."""
    return max(1, -(-m.bit_length() // 32))


_u32 = functools.partial(engine._operands, np.uint32)  # the replay's constants, as 0-d operands
_1, _7, _11, _15, _18, _30 = _u32(1, 7, 11, 15, 18, 30)
_UP, _DOWN = _u32(1664525, 1566083941)  # init_by_array's multipliers, passes 1 and 2
_UPPER, _LOWER, _MATRIX_A = _u32(0x80000000, 0x7FFFFFFF, 0x9908B0DF)
_MASK_B, _MASK_C = _u32(0x9D2C5680, 0xEFC60000)  # tempering


@functools.cache
def _seeding_tables() -> tuple[list, list]:
    """``init_genrand(19650218)``, where every ``init_by_array`` starts, and
    -i mod 2**32 for each index i, as 0-d uint32 operands; built on first use."""
    mt = [19650218]
    for i in range(1, _N):
        mt.append((1812433253 * (mt[-1] ^ mt[-1] >> 30) + i) & 0xFFFFFFFF)
    return _u32(*mt), _u32(*(-i % 2**32 for i in range(_N)))


def _mix(prev, mult, x, add, out: np.ndarray) -> np.ndarray:
    """One ``init_by_array`` step: out = ((prev ^ prev >> 30) * mult ^ x) + add."""
    np.right_shift(prev, _30, out=out)
    out ^= prev
    out *= mult
    out ^= x
    out += add
    return out


def _twist(high, low):
    """MT19937's twist of y, y's top bit from ``high`` and the rest from
    ``low``, less its mt[k + M] term: y >> 1 ^ (y & 1) * 0x9908B0DF."""
    y = high & _UPPER | low & _LOWER
    return y >> _1 ^ (y & _1) * _MATRIX_A


def _replay(mags: list, out: np.ndarray) -> None:
    """Write into ``out`` (W, T), W <= N - M, the first W outputs of
    ``random.Random(m)`` for the T seeds m >= 0 in ``mags``, keys of one length L.

    ``init_by_array(key)`` starts from the ``init_genrand`` table.  Pass 1
    takes N steps mt[i] = (mt[i] ^ f(mt[i-1]) * 1664525) + key[j] + j, pass 2
    N - 1 steps mt[i] = (mt[i] ^ f(mt[i-1]) * 1566083941) - i, f(x) = x ^ x >> 30,
    with i from 1 (past N - 1 it wraps to 1, mt[0] = mt[N-1]), j from 0 mod
    L; then mt[0] = 2**31.  Pass 2 starts from pass 1's last write and reads
    at each i what pass 1 wrote there: pass 1 runs to its end, then again
    beside pass 2, on length-T vectors, and no (N, T) state is held.

    Output k is the first twist of mt[k], mt[k+1] and mt[k+M], and pass 2
    writes mt[2..N-1] in order, then mt[1].  So W + 2 state rows are kept:
    ``out[k]`` holds mt[k] for 2 <= k < W, and two more rows hold mt[2] and
    mt[W].  Before mt[M] is written each of those rows is twisted but for its
    mt[k+M] term, which is XORed in as it is written; mt[M] and mt[M+1] wait
    in ``out[0]`` and ``out[1]``, and outputs 0 and 1 are twisted last, once
    mt[1] is known.  Each step's constants are 0-d uint32 arrays, so a call
    costs its arithmetic alone: about 4.6-6.6 ms a replay of 700-1,000 seeds
    at 2-200 words (2 vCPUs), against 6.7-9.5 us a seed to reseed CPython's
    generator."""
    words, trials = out.shape
    length = _key_words(max(mags))
    if length <= 2:  # each seed's low and high word, from one uint64
        raw, stride = np.fromiter(mags, np.uint64, len(mags)).astype("<u8").view("<u4"), 2
    else:
        raw = np.frombuffer(b"".join(m.to_bytes(4 * length, "little") for m in mags), dtype="<u4")
        stride = length
    key = [raw[j::stride] + np.uint32(j) for j in range(length)]
    del raw
    table, minus = _seeding_tables()

    def pass1(i, prev, buf):
        return _mix(prev, _UP, table[i], key[(i - 1) % length], buf)

    p1 = pass1(1, table[0], np.empty(trials, dtype=np.uint32))
    p, spare = p1.copy(), np.empty(trials, dtype=np.uint32)
    for i in range(2, _N):
        p, spare = pass1(i, p, spare), p
    a1 = _mix(p, _UP, p1, key[(_N - 1) % length], spare)
    p, spare, q = p1, p, a1
    kept = np.empty((2, trials), dtype=np.uint32)  # mt[2] and mt[W]
    scratch = (np.empty(trials, dtype=np.uint32), np.empty(trials, dtype=np.uint32))
    rows = {i: out[i] for i in range(2, words)} | {words: kept[1], _M: out[0]}  # where mt[i] goes
    if words > 1:
        rows[_M + 1] = out[1]
    for i in range(2, _N):
        if i == _M:  # mt[2..W] are written and none of mt[M..]: twist them
            kept[0] = out[2] if words > 2 else kept[1]
            for r in range(2, words - 1, 4):  # four rows at a time
                o = out[r : min(r + 4, words - 1)]
                o[...] = _twist(o, out[r + 1 : r + 1 + len(o)])
            if words > 2:
                out[words - 1] = _twist(out[words - 1], kept[1])
        p, spare = pass1(i, p, spare), p
        q = _mix(q, _DOWN, p, minus[i], rows.get(i, scratch[i & 1]))
        if _M + 2 <= i < _M + words:
            out[i - _M] ^= q
    mt1 = _mix(q, _DOWN, a1, minus[1], scratch[0] if q is scratch[1] else scratch[1])
    out[0] ^= _twist(_UPPER, mt1)
    if words > 1:
        out[1] ^= _twist(mt1, kept[0])
    for r in range(0, words, 4):  # four rows at a time: 48 bytes of temporaries a trial
        o = out[r : r + 4]
        o ^= o >> _11
        o ^= o << _7 & _MASK_B
        o ^= o << _15 & _MASK_C
        o ^= o >> _18


def seeded_words(seeds, words: int, rng: random.Random | None = None) -> np.ndarray:
    """(len(seeds), words) uint32: the first ``words`` outputs of each
    ``random.Random(seed)``, in ``getrandbits`` order, 4 bytes a word on
    every path.  A stretch of seeds of one key length (a block across 2**32
    has two) is replayed by :func:`_replay` when it holds ``_REPLAY_TRIALS``
    seeds or more and words <= N - M = 227, in W + 2 state rows; the rest
    reseed ``rng``, or one new generator, and draw at most ``_JOIN_BYTES``
    more at a time: short trials' words joined, a long trial's by :func:`_fill`."""
    mags = list(map(abs, seeds))  # CPython seeds with |seed|
    replay = len(mags) >= _REPLAY_TRIALS and words <= _N - _M
    ends = [0, len(mags)]
    if replay:
        out = np.empty((words, len(mags)), dtype=np.uint32)
        if _key_words(min(mags)) != _key_words(max(mags)):
            ends[1:1] = np.flatnonzero(np.diff([_key_words(m) for m in mags])) + 1
    else:  # trial first, so that the words come back contiguous
        out = np.empty((len(mags), words), dtype=np.uint32).T
    for a, b in zip(ends, ends[1:]):
        if replay and b - a >= _REPLAY_TRIALS:
            _replay(mags[a:b], out[:, a:b])
            continue
        rng = rng or random.Random()
        step = _JOIN_BYTES // (8 * words)  # trials whose words are joined at once
        if not step:
            for t, g in enumerate(reseeded(rng, mags[a:b]), a):
                _fill(g, out[:, t])
            continue
        for c in range(a, b, step):
            part = mags[c : min(c + step, b)]
            out[:, c : c + len(part)] = _generator_words(reseeded(rng, part), words).T
    return out.T


def below_rate_bytes(count: int) -> int:
    """Bytes per trial that bound the peak of every draw of values, on every
    path: per value its two words and two flags (:func:`_below`), and
    ``_TRIAL_BYTES`` for the seed's int, and the replay's key, kept rows,
    vectors and temporaries."""
    return 10 * count + _TRIAL_BYTES


def _below(words: np.ndarray, rate: float) -> np.ndarray:
    """(k, count) flags: whether each ``random()`` value that the (k, 2 count)
    generator words make is below ``rate`` in [0, 1].

    A value is x / 2**53 for x = (a >> 5) * 2**26 + (b >> 6) from words a, b,
    so it is below ``rate`` iff x < ceil(rate * 2**53), the scaling being
    exact: iff a >> 5 is below that bound's top 27 bits, or equal to them
    with b >> 6 below its low 26.  No double is formed."""
    high, low = words[:, 0::2], words[:, 1::2]
    top, rest = divmod(math.ceil(rate * 2.0**53), 2**26)
    if top >> 27:  # rate 1: every value is below it
        return np.ones(high.shape, dtype=bool)
    below = high < top << 5  # top < 2**27: the bounds fit uint32
    tie = high <= top << 5 | 31
    tie ^= below  # a >> 5 == top
    below[tie] = low[tie] < rest << 6
    return below


def seeded_below_rate(seeds, count: int, rate: float) -> np.ndarray:
    """(len(seeds),) ints: how many of the first ``count`` ``random()``
    values of each ``random.Random(seed)`` fall below ``rate`` in [0, 1].  A
    row too long for one block of ``engine._PAIR_BYTES`` is counted in
    pieces of the block, from one ``random.Random(seed)`` per trial."""
    if rate >= 1.0:
        return np.full(len(seeds), count)
    if below_rate_bytes(count) <= engine._PAIR_BYTES:
        return np.count_nonzero(_below(seeded_words(seeds, 2 * count), rate), axis=1)
    on = np.zeros(len(seeds), dtype=np.int64)
    for t, rng in enumerate(map(random.Random, seeds)):
        for cs in engine._blocks(count, 10):  # below_rate_bytes' 10 bytes a value
            words = np.empty((1, 2 * (cs.stop - cs.start)), dtype=np.uint32)
            _fill(rng, words[0])
            on[t] += np.count_nonzero(_below(words, rate))
            del words  # freed before the next piece is allocated
    return on


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
    32 * words - k.  The words of m candidates a trial come from
    :func:`seeded_words`, so all trials' candidates are formed and screened
    at once.  The trials whose m candidates hold fewer than ``count``
    accepted ones are drawn again, with twice as many and the same
    generator."""
    k = bound.bit_length()
    words = -(-k // 32)
    out = np.empty((len(seeds), count), dtype=np.int64)
    rng = random.Random()
    todo, m = np.arange(len(seeds)), _first_draw(bound, count)
    while todo.size:
        w = seeded_words(map(seeds.__getitem__, todo.tolist()), words * m, rng)
        w = w.reshape(todo.size, m, words)
        cand = w[..., -1] >> (32 * words - k)
        if words == 2:  # the first word is the low half
            cand = cand.astype(np.int64)
            cand <<= 32
            cand |= w[..., 0]
        del w
        ok = cand < bound
        kept = ok.sum(axis=1)
        full = kept >= count
        start = np.cumsum(kept) - kept  # where each trial's accepted candidates begin in cand[ok]
        out[todo[full]] = cand[ok][start[full, None] + np.arange(count)]
        todo, m = todo[~full], 2 * m
    return out


def random_plan_digits(seeds, n: int, q: int, on_fraction: float) -> np.ndarray:
    """(len(seeds), n, q) base-3 cells of one seeded random plan per seed.
    Cells are drawn row-major, one ``random()`` value u each: L (0) below
    ``on_fraction / 2``, else R (1) below ``on_fraction``, else O (2), so a
    cell is 2 - [u < on_fraction / 2] - [u < on_fraction] (:func:`_below`)."""
    words = seeded_words(seeds, 2 * n * q)
    digits = np.full((len(words), n * q), 2, dtype=np.uint8)
    digits -= _below(words, on_fraction / 2.0)
    digits -= _below(words, on_fraction)
    return digits.reshape(-1, n, q)


def random_strategy(n: int, q: int, params: RandomStrategyParams) -> tuple[str, ...]:
    """Seeded random plan with the cells of :func:`random_plan_digits`."""
    _check_shape(n, q)
    digits = random_plan_digits([params.seed], n, q, params.on_fraction)[0]
    return tuple(digit_rows(digits, PLACEMENTS))


def row_profile(strategy) -> tuple[int, ...]:
    """Per-coin count of rounds spent on the balance."""
    return tuple(len(row) - row.count("O") for row in strategy)
