"""Digit-wise bulk evaluation used by the verifier and the simulators.

Rows and masks share one base-3 alphabet, L = 0, R = 1 and O/D = 2.  Under
it the announcement an honest balance makes for a heavy coin is the row's
own word, and the one for a light coin is the word with 0/1 digits swapped
-- so survival checks reduce to digit-wise Hamming distances.

Plans cross into the kernel as uint8 digits laid out round first, (q, ...),
and no consumer peels a code.  Base-3 codes, most significant digit first,
stay where a word is born as one (mask and word ranges, random codes) and
where order matters: the k = 0 sort key and a clique's rank.

Two hypotheses survive one announcement together exactly when their honest
words lie within Hamming distance 2k, where two radius-k lie balls meet.
:func:`close_pairs` finds those pairs without visiting the 3**q masks, and
every verdict is decided from them.  One blocked scan still counts the
survivors of every mask (:func:`iter_survivor_blocks`,
:func:`batch_survivor_counts`); no verdict uses it, and it is the tests'
oracle for the conservation law and the verdicts.  Censuses, game values
and sweeps count or find cliques of pairwise compatible rows instead of the
3**(n*q) plans, by one ladder (:class:`_CliqueSearch`): no clique where the
balance bound rules one out (:func:`every_plan_loses`: the pigeonhole, or at
k >= 1 the Delsarte LP for ternary codes) or past the W admissible rows,
each admissible row one at n = 1, closed forms at k = 0, and at k >= 1 a
search rooted at one word per orbit of the game's symmetries.  Only that
last rung (:meth:`_CliqueSearch.needs_graph`) builds the compatibility
graph, makes int64 codes of its words, and is metered by the matrix cap:
its rounds and its W**2 cells are checked before anything is allocated,
and its nodes are counted as they are visited.  Every Hamming distance between digit arrays
here is one digit-wise count, :func:`_distances`; the one between two
lists of digits starts :func:`_pair_common_word`.  Every block but the
survivor scan's, Monte Carlo's too, is cut by one rule, :func:`_blocks`.

Everything here is re-derivable from :mod:`balancegame.core`; the test
suite holds the two implementations against each other.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import Iterator

import numpy as np

from .analysis import hamming_ball_volume
from .core import GameSpec, HEAVY, OUTCOMES, PLACEMENTS, ResourceLimitError, validate_strategy

MAX_ROUNDS = 39  # base-3 codes are int64 and 3**39 < 2**63 <= 3**40
DEFAULT_MATRIX_CAP = 10**8  # max graph cells, and max nodes, of a clique search (_CliqueSearch)

_PAIR_BYTES = 1 << 22  # bytes one block of a blocked search or draw may build
_MATMUL_CELLS = 4096  # digits a round up to which digit_codes takes one matmul
_POWERS = 3 ** np.arange(MAX_ROUNDS - 1, -1, -1, dtype=np.int64)  # 3**38 .. 3**0
_CODE_BYTES = 40  # per code while code_digits peels it: the int64 code and four temporaries


def _operands(dtype, *values: int) -> list[np.ndarray]:
    """Read-only 0-d arrays of ``values`` for ufunc operands.  Under NumPy 2's
    promotion rules a Python int or NumPy scalar operand costs each call a
    conversion about as long as its arithmetic on a few thousand elements,
    where a 0-d array does not.  A 0-d array is not a weak scalar, so
    ``dtype`` must be that of the arrays it meets, or it promotes them."""
    table = np.array(values, dtype=dtype)
    table.flags.writeable = False
    return [table[i, ...] for i in range(len(values))]


(_THREE,) = _operands(np.int64, 3)


def encode(word: str, alphabet: str) -> int:
    code = 0
    for ch in word:
        code = code * 3 + alphabet.index(ch)
    return code


def decode(code: int, q: int, alphabet: str) -> str:
    out = []
    for _ in range(q):
        code, d = divmod(code, 3)
        out.append(alphabet[d])
    return "".join(reversed(out))


# encode/decode above are the readable digit loops; the tests hold these to them.
_ROW_DIGITS = str.maketrans(PLACEMENTS, "012")
_MASK_DIGITS = str.maketrans(OUTCOMES, "012")


def encode_row(row: str) -> int:
    """Code of a validated row (callers check the alphabet first)."""
    return int(row.translate(_ROW_DIGITS), 3)


def decode_rows(codes, q: int) -> list[str]:
    """Rows of many codes at once; any q (see :func:`code_digits`)."""
    return digit_rows(code_digits(codes, q).T, PLACEMENTS)


def digit_rows(digits: np.ndarray, alphabet: str) -> list[str]:
    """One string per row of an (m, q) array of digits 0..2 over ``alphabet``."""
    m, q = digits.shape
    symbols = np.frombuffer(alphabet.encode("ascii"), dtype=np.uint8)
    text = symbols[digits].tobytes().decode("ascii")
    return [text[i : i + q] for i in range(0, m * q, q)]


def encode_mask(mask: str) -> int:
    """Code of a validated mask (callers check the alphabet first)."""
    return int(mask.translate(_MASK_DIGITS), 3)


def code_digits(codes, q: int) -> np.ndarray:
    """(q, ...) uint8 base-3 digits of each code, round first: ``digits[0]``
    holds the most significant digit of every code.

    The digits are peeled off one round at a time, so any q works: past
    MAX_ROUNDS the leading digits of an int64 code are 0."""
    codes = np.asarray(codes, dtype=np.int64)
    digits = np.empty((q,) + codes.shape, dtype=np.uint8)
    for i in range(q - 1, -1, -1):
        rest = codes // _THREE  # floor division by a scalar runs about twice as fast as np.divmod
        digits[i] = codes - _THREE * rest
        codes = rest
    return digits


def digit_codes(digits: np.ndarray) -> np.ndarray:
    """int64 codes of (q, ...) base-3 digits, round first; q <= MAX_ROUNDS.
    Up to _MATMUL_CELLS digits a round, one matmul against the powers of 3
    (3**q - 1 < 2**63, so no sum overflows); past it Horner, which wins from
    4096-8192 digits a round at q 3-39 (the matmul takes 0.23-0.47x its time
    at 512, 0.75-1.03x at 4096, 1.06-1.6x at 8192)."""
    q, shape = len(digits), digits.shape[1:]
    if math.prod(shape) <= _MATMUL_CELLS:
        return (_POWERS[MAX_ROUNDS - q :] @ digits.reshape(q, -1)).reshape(shape)
    codes = np.zeros(shape, dtype=np.int64)
    for d in digits:
        codes *= _THREE
        codes += d
    return codes


def check_rounds(q: int) -> None:
    """Refuse plans whose base-3 codes would not fit in int64."""
    if q > MAX_ROUNDS:
        raise ResourceLimitError(
            f"{q} rounds exceed the {MAX_ROUNDS} that 64-bit base-3 codes can hold"
        )


_ROW_BYTES = bytes.maketrans(PLACEMENTS.encode("ascii"), bytes(range(3)))
_MIRROR_DIGIT = np.array([1, 0, 2], dtype=np.uint8)


def _hypothesis_digits(spec: GameSpec, rows: np.ndarray) -> np.ndarray:
    """Honest-announcement digits, (q, ..., n) rows to (q, ..., H): the heavy
    block is the rows, the light block their mirrors (0 and 1 swap, 2 stays)."""
    if spec.prior == HEAVY:
        return rows
    return np.concatenate([rows, _MIRROR_DIGIT[rows]], axis=-1)


def predicted_digits(spec: GameSpec, strategy) -> np.ndarray:
    """(q, H) honest-announcement digits of every hypothesis, heavy block first."""
    rows = validate_strategy(spec, strategy)
    check_rounds(spec.q)
    cells = np.frombuffer("".join(rows).encode("ascii").translate(_ROW_BYTES), dtype=np.uint8)
    return _hypothesis_digits(spec, cells.reshape(spec.n, spec.q).T)


def _blocks(total: int, item_bytes: int) -> Iterator[slice]:
    """Slices tiling range(total), each of at most max(1, _PAIR_BYTES // item_bytes) items."""
    step = max(1, _PAIR_BYTES // item_bytes)
    for start in range(0, total, step):
        yield slice(start, min(start + step, total))


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """uint8 Hamming distances between round-first digit arrays of equal
    rank whose other axes broadcast: the count of rounds i with x[i] != y[i].
    A cell costs q + 1 bytes, its q comparisons and its distance; uint8 holds
    any count, as :func:`check_rounds` guards every entry (q <= MAX_ROUNDS)."""
    return (x != y).view(np.uint8).sum(axis=0, dtype=np.uint8)


def _survivor_blocks(
    spec: GameSpec, preds: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (t0, m0, counts): survivor counts of plans t0.. of the (q, T, H)
    hypothesis digits ``preds`` against masks m0.., in lexicographic order.

    A mask costs its q digits twice (the last block's live until this
    block's are peeled), _CODE_BYTES while it is peeled, and q + 1 bytes per
    (plan, hypothesis) cell in :func:`_distances`; blocks of plans x masks
    keep that within _PAIR_BYTES, or take one mask when one does not fit.
    Refused when one plan's distances to one mask would exceed the budget.
    Counts take the narrowest dtype that holds H, so no mask overflows."""
    check_rounds(spec.q)
    _, T, H = preds.shape
    if H > _PAIR_BYTES:
        raise ResourceLimitError(
            f"{H} hypotheses exceed the {_PAIR_BYTES}-byte block of the survivor count"
        )
    total = 3**spec.q
    fixed, per_plan = 2 * spec.q + _CODE_BYTES, (spec.q + 1) * H
    masks = min(total, max(1, _PAIR_BYTES // (fixed + per_plan)))
    plans = max(1, (_PAIR_BYTES - fixed * masks) // (per_plan * masks))
    dtype = np.min_scalar_type(H)
    for m0 in range(0, total, masks):
        mask_digits = code_digits(np.arange(m0, min(m0 + masks, total)), spec.q)[:, None, None]
        for t0 in range(0, T, plans):
            dist = _distances(preds[:, t0 : t0 + plans, :, None], mask_digits)
            yield t0, m0, (dist <= spec.k).sum(axis=1, dtype=dtype)


def iter_survivor_blocks(spec: GameSpec, strategy) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, counts) with survivor counts for masks start..start+len."""
    for _, start, counts in _survivor_blocks(spec, predicted_digits(spec, strategy)[:, None]):
        yield start, counts[0]


def batch_survivor_counts(spec: GameSpec, row_codes: np.ndarray) -> np.ndarray:
    """(T, 3**q) survivor counts for a batch of plans given as (T, n) row codes."""
    preds = _hypothesis_digits(spec, code_digits(row_codes, spec.q))
    counts = np.empty((len(row_codes), 3**spec.q), dtype=np.min_scalar_type(preds.shape[-1]))
    for t0, m0, block in _survivor_blocks(spec, preds):
        counts[t0 : t0 + len(block), m0 : m0 + block.shape[1]] = block
    return counts


def _plan_bytes(spec: GameSpec, H: int) -> int:
    """Bytes one plan of H hypotheses adds to a :func:`close_pairs` block at
    its peak under tracemalloc, every pair close.  At k = 0 a hypothesis costs
    three int64 (its code, sort index and ranked code) and an equality flag,
    and the pair it closes eight int64: six indices in the block (two
    unravelled, one shifted, three yielded) and two that a consumer still
    holds from the block before.  At k >= 1 a cell, one ordered pair, costs
    q + 1 bytes in :func:`_distances` and seven int64, close or not: four
    indices in the block and the three a consumer still holds of a close pair
    from the block before (blocks with few close pairs sit far under budget)."""
    if spec.k == 0:
        return (3 * 8 + 1 + 8 * 8) * H
    return (spec.q + 1 + 7 * 8) * H * H


_SCALAR_PAIRS = 48  # close pairs up to which first_winning_word runs one pair at a time


def close_pairs(
    spec: GameSpec, preds: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (plan, a, b) index arrays: hypotheses a < b of one plan whose
    honest words lie within Hamming distance 2k, so that two radius-k lie
    balls meet and some announcement keeps both alive.

    ``preds`` is (q, T, H) hypothesis digits.  At k = 0 the close pairs are
    equal words, found by sorting their codes; each group of equal codes is
    reported as its neighbouring pairs in index order, groups in code order.
    At k >= 1 every pair's distance is counted by :func:`_distances`.  Either
    way blocks cost at most _PAIR_BYTES by :func:`_plan_bytes`."""
    check_rounds(spec.q)
    _, T, H = preds.shape
    plan_bytes = _plan_bytes(spec, H)
    for ts in _blocks(T, plan_bytes):
        if spec.k == 0:
            block = digit_codes(preds[:, ts])
            order = np.argsort(block, axis=1, kind="stable")
            ranked = block[np.arange(len(block))[:, None], order]
            same = ranked[:, 1:] == ranked[:, :-1]
            # Flat indices first: np.nonzero on an n-d array is many times slower.
            t, i = np.unravel_index(np.flatnonzero(same), same.shape)
            yield ts.start + t, order[t, i], order[t, i + 1]
            continue
        # (q, H, T) one plan block at a time: a batch of small plans compares
        # along T, and a strided view runs about 2x slower.
        digits = np.ascontiguousarray(preds[:, ts].transpose(0, 2, 1))
        for rs in _blocks(H, plan_bytes // H):  # rows, when one plan does not fit
            near = _distances(digits[:, rs, None], digits[:, None, rs.start + 1 :]) <= 2 * spec.k
            near &= ~np.tri(*near.shape[:2], -1, dtype=bool)[..., None]  # a < b
            # Offsets go on in place: no shifted copy sits beside the yielded indices.
            a, b, t = np.unravel_index(np.flatnonzero(near), near.shape)
            t += ts.start
            a += rs.start
            b += rs.start + 1
            yield t, a, b


_DIGITS = np.arange(3, dtype=np.uint8)[:, None, None]


def _first_common_word(da: np.ndarray, db: np.ndarray, k: int) -> list[int]:
    """Smallest word within distance k of both da[:, p] and db[:, p], over all pairs p.

    Every pair must lie within 2k.  Digit by digit, a pair can take digit d
    when both remaining budgets stay >= 0 and the positions where the pair
    still disagrees number at most their sum; each pair's first common word
    takes its smallest such digit, so the smallest word over all pairs takes
    the smallest digit any pair can, kept by the pairs that can take it.
    The others are retired with budgets of -1, which no digit can meet.
    """
    apart = _distances(da, db)
    ca, cb = da != _DIGITS, db != _DIGITS  # (3, q, P): digit d's cost to each side
    la = lb = np.full(da.shape[1], k, dtype=np.int8)  # k <= q <= MAX_ROUNDS
    word = []
    for i in range(len(da)):
        apart -= da[i] != db[i]
        na, nb = la - ca[:, i], lb - cb[:, i]  # (3, P)
        ok = (na >= 0) & (nb >= 0) & (apart <= na + nb)
        d = int(ok.argmax()) // ok.shape[1]  # the first digit some pair can take
        la, lb = np.where(ok[d], na[d], -1), np.where(ok[d], nb[d], -1)
        word.append(d)
    return word


def _pair_common_word(x: list[int], y: list[int], k: int, best: list[int] | None) -> list[int]:
    """The smaller of ``best`` and the first word within distance k of both
    digit lists x and y, which lie within 2k: :func:`_first_common_word`'s
    greedy on one pair in plain ints, dropped at the first round where its
    prefix passes ``best``'s."""
    apart, la, lb, word = sum(map(operator.ne, x, y)), k, k, []
    tied = best is not None  # the word so far equals best's prefix
    for i, (u, v) in enumerate(zip(x, y)):
        apart -= u != v
        for d in range(3):
            na, nb = la - (d != u), lb - (d != v)
            if na >= 0 and nb >= 0 and apart <= na + nb:
                break
        if tied and d > best[i]:
            return best
        tied = tied and d == best[i]
        word.append(d)
        la, lb = na, nb
    return word  # best's equal when still tied


def first_winning_word(spec: GameSpec, preds: np.ndarray) -> list[int] | None:
    """Digits of the first announcement, in L < R < D order, that keeps two of
    one plan's (q, H) hypothesis digits ``preds`` alive; ``None`` if none does.

    At k = 0 that is the first close pair's shared word: one plan's pairs
    come in one block, in ascending order of it.  At k >= 1 a block of at
    most _SCALAR_PAIRS close pairs goes to :func:`_pair_common_word` a pair
    at a time, in Python ints (0.2x the numpy rounds' time at 8 pairs of
    random plans, q 7-11, k 1-2; 0.76-0.99x at 48, 1.3-1.7x at 96), a larger
    one to :func:`_first_common_word` in pieces.  Digit lists compare in
    L < R < D order, and an all-L word ends the search, as none comes before
    it.  A piece's search takes 8q + 24 bytes a pair under
    tracemalloc: two gathered digit columns, their six digit costs, and one
    round's budgets, flags and distances.  It shares _PAIR_BYTES with the
    block's close-pair indices, 24 bytes a pair and at most one pair per cell
    of :func:`_plan_bytes`, so pieces get the rest."""
    if spec.k == 0:
        _, a, _ = next(close_pairs(spec, preds[:, None]))
        return preds[:, a[0]].tolist() if a.size else None
    cell = _plan_bytes(spec, 1)
    pair_bytes = (8 * spec.q + 24) * cell // (cell - 24)
    best = None
    for _, a, b in close_pairs(spec, preds[:, None]):
        if 0 < a.size <= _SCALAR_PAIRS:  # an empty block needs no gather
            for x, y in zip(preds.T[a].tolist(), preds.T[b].tolist()):
                best = _pair_common_word(x, y, spec.k, best)
                if not any(best):
                    return best
            continue
        for ab in _blocks(a.size, pair_bytes):
            word = _first_common_word(preds[:, a[ab]], preds[:, b[ab]], spec.k)
            best = word if best is None else min(best, word)
            if not any(best):  # all-L: no word comes before it
                return best
    return best


def pigeonhole_min_n(q: int, k: int, prior: str) -> int:
    """Smallest coin count n with n * per_coin > 3**q, where a coin's
    hypotheses survive per_coin announcements in all (one radius-k lie ball
    per sign).  From there the survivor mass exceeds the mask count, so some
    announcement keeps two hypotheses alive and the balance wins."""
    per_coin = (1 if prior == HEAVY else 2) * hamming_ball_volume(q, k)
    return 3**q // per_coin + 1


def _krawtchouk(q: int, j: int, i: int) -> int:
    """K_j(i) of the ternary Hamming scheme of length q: sum over s of
    (-1)**s 2**(j - s) C(i, s) C(q - i, j - s)."""
    return sum(
        (-1) ** s * 2 ** (j - s) * math.comb(i, s) * math.comb(q - i, j - s) for s in range(j + 1)
    )


@functools.cache
def delsarte_bound(q: int, k: int):
    """The Delsarte LP optimum, a ``Fraction`` no ternary code of length q
    and minimum distance 2k + 1 outgrows (Delsarte, Philips Res. Rep. Suppl.
    10, 1973; MacWilliams and Sloane, The Theory of Error-Correcting Codes,
    ch. 17): the most 1 + sum A_i over A_i >= 0, i = 2k+1..q, with
    sum_i A_i K_j(i) >= -K_j(0) for j = 1..q (:func:`_krawtchouk`).

    Solved exactly by the simplex method from the slack basis, feasible as
    K_j(0) = C(q, j) 2**j > 0, under Bland's rule: the least column with a
    positive reduced cost enters, and the least basic column leaves among
    tied ratios, so no basis repeats."""
    from fractions import Fraction  # on first use: set-up does not pay for the import

    cols = range(2 * k + 1, q + 1)
    width = len(cols) + q  # the A_i, then one slack per j
    rows = []
    for j in range(1, q + 1):
        row = [Fraction(-_krawtchouk(q, j, i)) for i in cols] + [Fraction(0)] * (q + 1)
        row[len(cols) + j - 1], row[-1] = Fraction(1), Fraction(math.comb(q, j) * 2**j)
        rows.append(row)
    basis = list(range(len(cols), width))
    cost = [Fraction(1)] * len(cols) + [Fraction(0)] * (q + 1)  # reduced costs, then -sum A_i
    while (e := next((c for c in range(width) if cost[c] > 0), None)) is not None:
        _, _, r = min((row[-1] / row[e], basis[r], r) for r, row in enumerate(rows) if row[e] > 0)
        pivot = rows[r] = [x / rows[r][e] for x in rows[r]]
        basis[r] = e
        for other in [*rows, cost]:
            f = other[e]
            if f and other is not pivot:
                other[:] = [x - f * y if y else x for x, y in zip(other, pivot)]
    return 1 - cost[-1]


def delsarte_min_n(q: int, k: int, prior: str) -> int:
    """Smallest coin count past every plan the Delsarte LP allows
    (:func:`delsarte_bound`).  Under the heavy prior a must-win plan's rows
    are a ternary code at distance 2k + 1.  Under the unknown prior its rows,
    their mirrors and the all-off word are one of 2n + 1 words: a row is
    admissible exactly when it lies more than 2k from the all-off word, and
    the mirror keeps distances.  At k = 0 the LP gives 3**q, the pigeonhole's."""
    words = delsarte_bound(q, k)
    return (words // 1 if prior == HEAVY else (words - 1) // 2) + 1


def _greedy_rows(q: int, k: int, prior: str) -> int:
    """Rows a greedy must-win plan reaches at least, the Gilbert-Varshamov
    size: it takes rows while fewer than 3**q words are ruled out, V(q, 2k)
    about each row, and under the unknown prior as many about each row's
    mirror besides the V(q, 2k) inadmissible words."""
    volume = hamming_ball_volume(q, 2 * k)
    if prior == HEAVY:
        return -(-(3**q) // volume)
    return -((volume - 3**q) // (2 * volume))


@functools.lru_cache(maxsize=1024)  # a ladder asks it up to three times per n
def every_plan_loses(n: int, q: int, k: int, prior: str) -> bool:
    """Does the balance win against every plan of n coins, by one of two
    rules: the pigeonhole (:func:`pigeonhole_min_n`), or at k >= 1 the
    Delsarte LP (:func:`delsarte_min_n`), never above it.  The LP is solved
    only where it can decide, below the pigeonhole and past the greedy
    plan's size (:func:`_greedy_rows`), and in bounded time: up to
    MAX_ROUNDS rounds, where it takes at most 0.55 s, at (39, 5), against
    1.3 s at (50, 8) (2 vCPUs, Python 3.11.7)."""
    if n >= pigeonhole_min_n(q, k, prior):
        return True
    if k == 0 or q > MAX_ROUNDS or n <= _greedy_rows(q, k, prior):
        return False
    return n >= delsarte_min_n(q, k, prior)


def verdict_bytes(spec: GameSpec) -> int:
    """Bytes per plan that bound :func:`batch_balance_wins`' peak under
    tracemalloc, its (q, T, n) input rows included: q per row, and 3q more
    under the unknown prior while the mirrored rows are joined to them; at
    k >= 1 a copy of the hypothesis digits, q per hypothesis (an upper bound:
    :func:`close_pairs` copies one plan block at a time); the plan's share of
    a :func:`close_pairs` block (:func:`_plan_bytes`); and one for its
    verdict.  From the pigeonhole threshold on, the rows and the verdict."""
    rows = spec.q * spec.n
    if spec.n >= pigeonhole_min_n(spec.q, spec.k, spec.prior):
        return rows + 1
    H = spec.hypothesis_count
    light = 0 if spec.prior == HEAVY else 3 * rows
    copy = spec.q * H if spec.k else 0
    return rows + light + copy + _plan_bytes(spec, H) + 1


def batch_balance_wins(spec: GameSpec, rows: np.ndarray) -> np.ndarray:
    """(T,) bools: does some mask leave >= 2 survivors against each plan of (q, T, n) rows?"""
    if spec.n >= pigeonhole_min_n(spec.q, spec.k, spec.prior):
        return np.ones(rows.shape[1], dtype=bool)
    wins = np.zeros(rows.shape[1], dtype=bool)
    for t, _, _ in close_pairs(spec, _hypothesis_digits(spec, rows)):
        wins[t] = True
    return wins


def matrix_chunk_codes(spec: GameSpec, start: int, stop: int) -> np.ndarray:
    """Row codes for plan indices start..stop in the (3**q)**n enumeration.

    Plan index i decomposes big-endian: row 0 gets the most significant
    base-3**q digit.  This makes enumeration order the L < R < O
    lexicographic order on whole matrices.
    """
    base = 3**spec.q
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((len(idx), spec.n), dtype=np.int64)
    for r in range(spec.n - 1, -1, -1):
        idx, digit = np.divmod(idx, base)
        out[:, r] = digit
    return out


def admissible_count(spec: GameSpec) -> int:
    """Words that can be a row of some must-win plan: all 3**q under the
    heavy prior; under the unknown prior those more than 2k from their own
    mirror, i.e. with more than 2k rounds on a pan."""
    if spec.prior == HEAVY:
        return 3**spec.q
    return 3**spec.q - hamming_ball_volume(spec.q, 2 * spec.k)


def mirror_free_codes(n: int, q: int) -> np.ndarray:
    """Codes of the first n rows whose first on-balance cell is L, the
    earlier row of each mirror pair.  With j leading O cells such rows form
    one run of 3**(q-1-j) codes, starting at the code of O * j + L * (q - j),
    which is 3**q - 3**(q-j)."""
    runs = []
    for j in range(q):
        size = min(n, 3 ** (q - 1 - j))
        runs.append(3**q - 3 ** (q - j) + np.arange(size))
        n -= size
        if not n:
            break
    return np.concatenate(runs)


class _CliqueSearch:
    """Must-win plans of one q, k and prior as cliques of compatible rows.

    A plan is must-win exactly when its rows, as a set, are pairwise
    compatible: every two hypotheses' honest announcements lie more than 2k
    apart.  Under the heavy prior two rows are compatible when they lie more
    than 2k apart; under the unknown prior each row must also lie that far
    from its own mirror (admissible), and each pair from the other's mirror,
    so all four heavy/light images of a pair stay apart.

    :meth:`first` and :meth:`count` settle any n by the module's ladder;
    :meth:`lost` says whether the bounds leave no n-clique, and
    :meth:`needs_graph` whether n reaches the graph rung.

    The graph holds the admissible codes in ascending order and, for word
    i, a Python-int bitset of the later words compatible with it; a row is
    built when the search first branches on its word.  The search tries
    small words first, so the first clique it meets is the lexicographically
    first, and it counts the last level by popcount.

    The matrix cap ``cap`` meters the work.  :meth:`build` refuses a graph
    of more than ``cap`` cells, W**2, before anything is allocated; the scan
    of the 3**q words for admissible ones costs no more, since W >= 2**q
    whenever W > 0.  :meth:`search` counts the nodes it visits, and is
    refused once they pass ``cap``.  Only the ladder's last rung builds the
    graph, so nothing before it is ever refused: not by the cap, nor by the
    MAX_ROUNDS of the graph's int64 codes (:func:`check_rounds`)."""

    def __init__(self, spec: GameSpec, cap: int):
        self.spec, self.cap, self.nodes = spec, cap, 0
        self.size = admissible_count(spec)  # W
        self.words: np.ndarray | None = None  # (W,) codes, set by build()

    def lost(self, n: int) -> bool:
        """Is no n-clique left: past the W admissible rows, or where every
        plan of n coins loses by the balance bound (:func:`every_plan_loses`)?"""
        spec = self.spec
        return n > self.size or every_plan_loses(n, spec.q, spec.k, spec.prior)

    def needs_graph(self, n: int) -> bool:
        """Does n coins reach the ladder's last rung, the graph search?  Only
        for n > 1 at k >= 1 where the bounds leave a clique possible
        (:meth:`lost`); every other n is settled in closed form."""
        return n > 1 and self.spec.k >= 1 and not self.lost(n)

    def build(self) -> None:
        """Scan the admissible words once, under the round bound and the cap;
        their rows are built on first use (:meth:`neighbours`)."""
        if self.words is not None:
            return
        check_rounds(self.spec.q)
        if self.size * self.size > self.cap:
            raise ResourceLimitError(
                f"a compatibility graph of {self.size}**2 cells over the admissible rows of "
                f"{self.spec.q} rounds exceeds the matrix cap ({self.cap}); "
                f"raise --matrix-cap to proceed"
            )
        self.words, self.digits = self._admissible()  # (q, W) digits
        self.rows: list[int | None] = [None] * self.size

    def _start(self, n: int) -> None:
        """Enter the graph rung for n coins: build the graph, point refusals
        at the n-coin spec and start the node meter from zero."""
        self.build()
        self.spec = dataclasses.replace(self.spec, n=n)
        self.nodes = 0

    def _admissible(self) -> tuple[np.ndarray, np.ndarray]:
        """Codes and digits of the admissible words (:func:`admissible_count`),
        scanned in blocks of at most _PAIR_BYTES."""
        codes, digits = [], []
        for cs in _blocks(3**self.spec.q, 2 * self.spec.q + _CODE_BYTES):
            part = np.arange(cs.start, cs.stop, dtype=np.int64)
            part_digits = code_digits(part, self.spec.q)
            if self.spec.prior != HEAVY:
                keep = _distances(part_digits, 2) > 2 * self.spec.k  # 2: off the balance
                part, part_digits = part[keep], part_digits[:, keep]
            codes.append(part)
            digits.append(part_digits)
        return np.concatenate(codes), np.concatenate(digits, axis=1)

    def _compatible(self, i: int, lo: int) -> int:
        """Bitset of the words j >= lo compatible with word i; distances are
        counted in blocks of at most _PAIR_BYTES."""
        far, later = 2 * self.spec.k, self.digits[:, None, lo:]
        images = _hypothesis_digits(self.spec, self.digits[:, i : i + 1])[..., None]
        ok = np.empty(later.shape[-1], dtype=bool)
        for js in _blocks(len(ok), images.shape[1] * (self.spec.q + 1)):
            ok[js] = (_distances(images, later[..., js]) > far).all(axis=0)
        bits = np.packbits(ok, bitorder="little").tobytes()
        return int.from_bytes(bits, "little") << lo

    def neighbours(self, i: int) -> int:
        """Bitset of the words j > i compatible with word i, built on first use."""
        row = self.rows[i]
        if row is None:
            row = self.rows[i] = self._compatible(i, i + 1)
        return row

    def neighbourhood(self, code: int) -> int:
        """Bitset of every word compatible with the admissible word ``code``, its full row."""
        return self._compatible(int(np.searchsorted(self.words, code)), 0)

    def first(self, n: int) -> list[int] | None:
        """Row codes of the first n-clique in the (3**q)**n enumeration, or
        ``None``.  At n = 1 that is all-L, code 0, admissible whenever any
        word is.  At k = 0 it is the first n words under the heavy prior and
        :func:`mirror_free_codes` under the unknown one.

        Else the search branches on the smallest word of each orbit of the
        game's symmetries, in ascending order: word 0 under the heavy prior,
        whose group is transitive, and u_j = L^(q-j) O^j, code 3**j - 1, for
        each count j < q - 2k of off-balance rounds under the unknown prior;
        u_j comes before every word of a later orbit.  Once no clique holds
        an earlier root, the group moves any clique through u_j's orbit onto
        one through u_j whose other words come after it, so the first root
        that completes gives the first clique, and none means none at all.
        The graph does not depend on n, so one search serves every n."""
        spec = self.spec
        if self.lost(n):
            return None
        if n == 1:
            return [0]
        if spec.k == 0:
            return list(range(n)) if spec.prior == HEAVY else mirror_free_codes(n, spec.q).tolist()
        self._start(n)
        for j in range(1 if spec.prior == HEAVY else spec.q - 2 * spec.k):
            i, path = int(np.searchsorted(self.words, 3**j - 1)), []
            if self.search(self.neighbours(i), n - 1, path):
                return [int(self.words[v]) for v in reversed(path + [i])]
        return None

    def count(self, n: int) -> int:
        """Number of n-cliques: 0 where :meth:`lost` and W at n = 1.  At
        k = 0 any n distinct words under the heavy prior, C(3**q, n), and one
        word from each of n mirror pairs of the 3**q - 1 admissible ones
        under the unknown prior, 2**n C((3**q - 1) / 2, n).

        Else one root per orbit of the game's symmetries (orbit-stabiliser
        double counting; McKay, J. Algorithms 26, 1998).  Heavy prior:
        per-column translations mod 3 move any word to any other, so every
        word lies in the same number c0 of cliques and the count is
        3**q * c0 / n.  Word 0's stabiliser, column permutations and
        per-column swaps of digits 1 and 2, has one orbit per weight w,
        C(q, w) 2**w words, and a clique through 0 holds n - 1 other words,
        so c0 = (1/(n-1)) sum_{w>2k} C(q, w) 2**w c(0, v_w), with c(0, v_w)
        the (n-2)-cliques in N(0) & N(v_w).
        Unknown prior: column permutations and per-column L<->R swaps
        (S_2 wr S_q) commute with the mirror and have one orbit per count j
        of off-balance rounds, C(q, j) 2**(q-j) words, admissible for
        j < q - 2k, so the count is (1/n) sum_j C(q, j) 2**(q-j) c(v_j), with
        c(v_j) the (n-1)-cliques in N(v_j).  Each division is checked to be
        exact.

        A k = 0 count is formed only while the census, n! times it, fits the
        block budget in bits, bounded from below by :func:`_falling_bits`
        (and the 2**n of the unknown prior); past it the count is refused
        unformed with :class:`ResourceLimitError`."""
        q, k = self.spec.q, self.spec.k
        if self.lost(n):
            return 0
        if n == 1:
            return self.size
        if k == 0:
            heavy = self.spec.prior == HEAVY
            N = self.size if heavy else self.size // 2  # the words, or their mirror pairs
            if _falling_bits(n, N) + (0 if heavy else n) > 8 * _PAIR_BYTES:
                raise ResourceLimitError(
                    f"the must-win plan count for {n},{q},0,{self.spec.prior} is an integer "
                    f"past the {_PAIR_BYTES}-byte block"
                )
            return math.comb(N, n) if heavy else 2**n * math.comb(N, n)
        self._start(n)
        if self.spec.prior == HEAVY:
            # Word 0 comes first: its later words are all of N(0).
            root, through = self.neighbours(0), 0
            for w in range(2 * k + 1, q + 1):
                v = (3**w - 1) // 2  # R in the last w rounds
                pairs = 1 if n == 2 else self.search(root & self.neighbourhood(v), n - 2, None)
                through += math.comb(q, w) * 2**w * pairs
            return _exact(3**q * _exact(through, n - 1), n)
        total = 0
        for j in range(q - 2 * k):
            v = 3**q - 3 ** (q - j)  # O in the first j rounds, L after
            cliques = self.search(self.neighbourhood(v), n - 1, None)
            total += math.comb(q, j) * 2 ** (q - j) * cliques
        return _exact(total, n)

    def search(self, cands: int, size: int, path: list[int] | None) -> int:
        """Count the size-cliques among the words in bitset ``cands``.  With
        a ``path``, stop at the first and append its word indices, last
        first."""
        self.nodes += 1
        if self.nodes > self.cap:
            raise ResourceLimitError(
                f"the clique search for {self.spec.compact()} passed {self.cap} nodes, "
                f"the matrix cap; raise --matrix-cap to proceed"
            )
        if size == 1:
            if path is not None and cands:
                path.append((cands & -cands).bit_length() - 1)
            return cands.bit_count()
        total = 0
        while cands.bit_count() >= size:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            found = self.search(cands & self.neighbours(v), size - 1, path)
            if found and path is not None:
                path.append(v)
                return found
            total += found
        return total


def _falling_bits(n: int, N: int) -> int:
    """An exact lower bound on the bits of n! C(N, n), 0 < n <= N: the
    falling factorial N (N - 1) ... (N - n + 1), whose top m factors are
    each at least N - m + 1.  Both m = n and m = ceil(n / 2) are taken: the
    first is the sharper while n is far below N, and the second keeps
    growing where n nears N, as its least factor stays above n / 2."""
    return max(m * ((N - m + 1).bit_length() - 1) for m in (n, (n + 1) // 2))


def _exact(total: int, parts: int) -> int:
    """total / parts, which the orbit counting makes an integer."""
    share, rest = divmod(total, parts)
    if rest:
        raise AssertionError(f"internal error: orbit sum {total} is not a multiple of {parts}")
    return share


def clique_count(spec: GameSpec, cap: int) -> int:
    """Number of n-row sets that form a must-win plan, each n! plans, by
    :meth:`_CliqueSearch.count`, whose search ``cap`` meters."""
    return _CliqueSearch(spec, cap).count(spec.n)

