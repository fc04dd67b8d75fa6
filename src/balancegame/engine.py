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
oracle for the conservation law and the verdicts.  Censuses and exhaustive
game values search cliques of pairwise compatible rows (:func:`clique_count`,
:func:`first_clique`) instead of the 3**(n*q) plans.  Every Hamming distance
here is one digit-wise count, :func:`_distances`, and every block but the
survivor scan's, Monte Carlo's too, is cut by one rule, :func:`_blocks`.

Everything here is re-derivable from :mod:`balancegame.core`; the test
suite holds the two implementations against each other.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .analysis import hamming_ball_volume
from .core import GameSpec, HEAVY, OUTCOMES, PLACEMENTS, ResourceLimitError, validate_strategy

MAX_ROUNDS = 39  # base-3 codes are int64 and 3**39 < 2**63 <= 3**40
DEFAULT_MATRIX_CAP = 10**8  # max work a census or exhaustive value will attempt (check_search_cap)

_PAIR_BYTES = 1 << 22  # bytes one block of a blocked search or draw may build
_CODE_BYTES = 40  # per code while code_digits peels it: the int64 code and four temporaries


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
        rest = codes // 3  # floor division by a scalar runs about twice as fast as np.divmod
        digits[i] = codes - 3 * rest
        codes = rest
    return digits


def digit_codes(digits: np.ndarray) -> np.ndarray:
    """int64 codes of (q, ...) base-3 digits, round first; q <= MAX_ROUNDS."""
    codes = np.zeros(digits.shape[1:], dtype=np.int64)
    for d in digits:  # Horner: a matmul costs more per short row
        codes *= 3
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
            ranked = np.take_along_axis(block, order, axis=1)
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


def first_winning_word(spec: GameSpec, preds: np.ndarray) -> list[int] | None:
    """Digits of the first announcement, in L < R < D order, that keeps two of
    one plan's (q, H) hypothesis digits ``preds`` alive; ``None`` if none does.

    At k = 0 that is the first close pair's shared word: one plan's pairs
    come in one block, in ascending order of it.  At k >= 1 a block's close
    pairs go to :func:`_first_common_word` in pieces; digit lists compare in
    L < R < D order.  A piece's search takes 8q + 24 bytes a pair under
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
        for ab in _blocks(a.size, pair_bytes):
            word = _first_common_word(preds[:, a[ab]], preds[:, b[ab]], spec.k)
            best = word if best is None else min(best, word)
    return best


def pigeonhole_min_n(q: int, k: int, prior: str) -> int:
    """Smallest coin count n with n * per_coin > 3**q, where a coin's
    hypotheses survive per_coin announcements in all (one radius-k lie ball
    per sign).  From there the survivor mass exceeds the mask count, so some
    announcement keeps two hypotheses alive and the balance wins."""
    per_coin = (1 if prior == HEAVY else 2) * hamming_ball_volume(q, k)
    return 3**q // per_coin + 1


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


def _settled_count(spec: GameSpec) -> int | None:
    """``spec``'s n-clique count where it takes no search, else ``None``: 0
    past the W admissible words or from the pigeonhole threshold, W at n = 1."""
    words = admissible_count(spec)
    if spec.n > words or spec.n >= pigeonhole_min_n(spec.q, spec.k, spec.prior):
        return 0
    return words if spec.n == 1 else None


def check_search_cap(spec: GameSpec, cap: int = DEFAULT_MATRIX_CAP) -> None:
    """Refuse a census or exhaustive value whose work may exceed ``cap``,
    before anything is allocated.

    Nothing whose 3**(n*q) plans fit the cap is refused, so whatever a plan
    enumeration decided within the cap is still decided, and nothing that
    :func:`_settled_count` answers without a search.  Past that, n >= 2, and
    over W admissible words the clique search visits at most
    sum_{j <= n} C(W, j) nodes and builds at most W**2 graph cells; its scan
    of the 3**q words for admissible ones costs no more, since W >= 2**q
    whenever W > 0.  That work is held to the cap."""
    check_rounds(spec.q)
    if (3**spec.q) ** spec.n <= cap or _settled_count(spec) is not None:
        return
    words = admissible_count(spec)
    work, term = words * words, 1
    for j in range(min(spec.n, words) + 1):
        work += term  # term = C(words, j)
        if work > cap:
            break
        term = term * (words - j) // (j + 1)
    if work > cap:
        raise ResourceLimitError(
            f"searching {spec.n}-row plans over {words} admissible rows of {spec.q} rounds "
            f"exceeds the matrix cap ({cap}); raise the cap explicitly to proceed"
        )


class _CliqueSearch:
    """Must-win plans of one spec as cliques of compatible rows.

    A plan is must-win exactly when its rows, as a set, are pairwise
    compatible: every two hypotheses' honest announcements lie more than 2k
    apart.  Under the heavy prior two rows are compatible when they lie more
    than 2k apart; under the unknown prior each row must also lie that far
    from its own mirror (admissible), and each pair from the other's mirror,
    so all four heavy/light images of a pair stay apart.

    The graph holds the admissible codes in ascending order and, for word
    i, a Python-int bitset of the later words compatible with it; a row is
    built when the search first branches on its word.  The search tries
    small words first, so the first clique it meets is the lexicographically
    first, and it counts the last level by popcount."""

    def __init__(self, spec: GameSpec):
        self.spec = spec
        self.words, self.digits = self._admissible()  # (W,) codes, (q, W) digits
        self.rows: list[int | None] = [None] * len(self.words)

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

    def neighbours(self, i: int) -> int:
        """Bitset of the words j > i compatible with word i, built on first
        use; distances are counted in blocks of at most _PAIR_BYTES."""
        row = self.rows[i]
        if row is None:
            far, later = 2 * self.spec.k, self.digits[:, None, i + 1 :]
            images = _hypothesis_digits(self.spec, self.digits[:, i : i + 1])[..., None]
            ok = np.empty(later.shape[-1], dtype=bool)
            for js in _blocks(len(ok), images.shape[1] * (self.spec.q + 1)):
                ok[js] = (_distances(images, later[..., js]) > far).all(axis=0)
            bits = np.packbits(ok, bitorder="little").tobytes()
            row = self.rows[i] = int.from_bytes(bits, "little") << (i + 1)
        return row

    def search(self, cands: int, size: int, path: list[int] | None) -> int:
        """Count the size-cliques among the words in bitset ``cands``.  With
        a ``path``, stop at the first and append its word indices, last
        first."""
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


def _cliques(spec: GameSpec, path: list[int] | None) -> int:
    """Count ``spec``'s n-cliques; with a ``path``, stop at the first and
    leave its row codes there."""
    count = _settled_count(spec)
    if count is not None:
        if count and path is not None:  # n = 1: all-L (code 0) is admissible first
            path.append(0)
        return count
    search = _CliqueSearch(spec)
    count = search.search((1 << len(search.words)) - 1, spec.n, path)
    if path is not None:
        path[:] = [int(search.words[i]) for i in reversed(path)]
    return count


def clique_count(spec: GameSpec) -> int:
    """Number of n-row sets that form a must-win plan; each is n! plans."""
    return _cliques(spec, None)


def first_clique(spec: GameSpec) -> list[int] | None:
    """Row codes of the lexicographically first must-win plan, which is the
    first in the (3**q)**n enumeration of :func:`matrix_chunk_codes`."""
    path: list[int] = []
    _cliques(spec, path)
    return path or None
