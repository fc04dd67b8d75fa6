"""Integer-coded bulk evaluation used by the verifier and the simulators.

Rows and masks share one base-3 code: most significant digit first, with
L = 0, R = 1 and O/D = 2.  Under that code the announcement an honest
balance makes for a heavy coin is the row's own code, and the one for a
light coin is the code with 0/1 digits swapped -- so survival checks reduce
to digit-wise Hamming distances between codes.

Two hypotheses survive one announcement together exactly when their honest
codes lie within Hamming distance 2k, where two radius-k lie balls meet.
:func:`close_pairs` finds those pairs without visiting the 3**q masks, and
every verdict is decided from them; the mask scans remain where the count
per mask is itself the result.

Everything here is re-derivable from :mod:`balancegame.core`; the test
suite holds the two implementations against each other.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .analysis import hamming_ball_volume
from .core import GameSpec, HEAVY, OUTCOMES, PLACEMENTS, ResourceLimitError, validate_strategy

DEFAULT_MASK_CAP = 16  # max q a must-win check or an exhaustive mask scan will attempt
DEFAULT_MATRIX_CAP = 10**8  # max 3**(n*q) a full strategy census will attempt
PLAN_CHUNK = 4096  # plans decided per batch when enumerating every plan

_MASK_BLOCK = 3**10  # masks handled per chunk in streaming scans
_PAIR_BYTES = 1 << 22  # largest array one block of the close-pair search may build
_ONEHOT_DIGITS = 7  # digits per one-hot lookup; three lookups fill a 64-bit lane


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


def encode_row(row: str) -> int:
    return encode(row, PLACEMENTS)


def decode_row(code: int, q: int) -> str:
    return decode(code, q, PLACEMENTS)


def encode_mask(mask: str) -> int:
    return encode(mask, OUTCOMES)


def decode_mask(code: int, q: int) -> str:
    return decode(code, q, OUTCOMES)


def code_digits(codes: np.ndarray, q: int) -> np.ndarray:
    """(..., q) base-3 digits of each code, most significant first."""
    powers = 3 ** np.arange(q - 1, -1, -1, dtype=np.int64)
    return ((codes[..., None] // powers) % 3).astype(np.uint8)


def mirror_codes(codes: np.ndarray, q: int) -> np.ndarray:
    """Codes of the pan-swapped rows: digits 0 and 1 swap, 2 stays."""
    out = codes.copy()
    for p in 3 ** np.arange(q, dtype=np.int64):
        d = (codes // p) % 3
        out += p * ((d == 0).astype(np.int64) - (d == 1))
    return out


@lru_cache(maxsize=None)
def digit_table(q: int) -> np.ndarray:
    """(3**q, q) array of base-3 digits, most significant first."""
    return code_digits(np.arange(3**q, dtype=np.int64), q)


@lru_cache(maxsize=None)
def complement_table(q: int) -> np.ndarray:
    """Code of the pan-swapped row for every code (digits 0 and 1 swap)."""
    return mirror_codes(np.arange(3**q, dtype=np.int64), q)


def check_mask_cap(q: int, cap: int = DEFAULT_MASK_CAP) -> None:
    if q > cap:
        raise ResourceLimitError(
            f"{q} rounds (3**{q} masks) exceed the mask cap (q <= {cap}); "
            f"raise the cap explicitly to proceed"
        )


def hypothesis_codes(spec: GameSpec, row_codes: np.ndarray) -> np.ndarray:
    """Honest-announcement codes per plan, (..., n) row codes to (..., H):
    the heavy block is the row codes themselves, the light block their mirrors."""
    if spec.prior == HEAVY:
        return row_codes
    return np.concatenate([row_codes, mirror_codes(row_codes, spec.q)], axis=-1)


def predicted_codes(spec: GameSpec, strategy) -> np.ndarray:
    """Honest-announcement codes for every hypothesis, heavy block first."""
    rows = validate_strategy(spec, strategy)
    return hypothesis_codes(spec, np.array([encode_row(r) for r in rows], dtype=np.int64))


def iter_survivor_blocks(
    spec: GameSpec, strategy, block: int = _MASK_BLOCK
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, counts) with survivor counts for masks start..start+len."""
    preds = predicted_codes(spec, strategy)
    digits = digit_table(spec.q)
    pred_digits = digits[preds]  # (H, q)
    total = 3**spec.q
    for start in range(0, total, block):
        chunk = digits[start : start + block]  # (B, q)
        dist = (pred_digits[:, None, :] != chunk[None, :, :]).sum(axis=2)
        yield start, (dist <= spec.k).sum(axis=0)


def survivor_counts(spec: GameSpec, strategy) -> np.ndarray:
    """(3**q,) survivor count per mask, mask codes in lexicographic order."""
    parts = [counts for _, counts in iter_survivor_blocks(spec, strategy)]
    return np.concatenate(parts)


def batch_survivor_counts(spec: GameSpec, row_codes: np.ndarray) -> np.ndarray:
    """(T, 3**q) survivor counts for a batch of plans given as row codes."""
    digits = digit_table(spec.q)
    preds = hypothesis_codes(spec, row_codes)
    # The narrowest dtype that holds every hypothesis count, so no mask overflows.
    counts = np.zeros((preds.shape[0], 3**spec.q), dtype=np.min_scalar_type(preds.shape[1]))
    for h in range(preds.shape[1]):
        dist = (digits[preds[:, h]][:, None, :] != digits[None, :, :]).sum(axis=2)
        counts += dist <= spec.k
    return counts


@lru_cache(maxsize=None)
def _onehot_table() -> np.ndarray:
    """One-hot packing of every _ONEHOT_DIGITS-digit code: digit d at place i
    (least significant first) sets bit 3 * i + d."""
    digits = code_digits(np.arange(3**_ONEHOT_DIGITS, dtype=np.int64), _ONEHOT_DIGITS)
    places = np.arange(_ONEHOT_DIGITS - 1, -1, -1, dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), 3 * places + digits.astype(np.uint64))
    return np.bitwise_or.reduce(bits, axis=1)


def onehot_codes(codes: np.ndarray, q: int) -> np.ndarray:
    """(..., lanes) uint64 one-hot packing of codes, 21 digits per lane.

    Each digit becomes a 3-bit field with one bit set, so the popcount of
    ``a ^ b`` is exactly twice the Hamming distance between two codes.
    """
    chunks = -(-q // _ONEHOT_DIGITS)
    per_lane = 64 // (3 * _ONEHOT_DIGITS)
    table = _onehot_table()
    out = np.zeros(codes.shape + (-(-chunks // per_lane),), dtype=np.uint64)
    rest = codes
    for c in range(chunks):
        rest, low = np.divmod(rest, 3**_ONEHOT_DIGITS)
        out[..., c // per_lane] |= table[low] << np.uint64(3 * _ONEHOT_DIGITS * (c % per_lane))
    return out


def close_pairs(
    spec: GameSpec, preds: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (plan, a, b) index arrays: hypotheses a < b of one plan whose
    honest codes lie within Hamming distance 2k, so that two radius-k lie
    balls meet and some announcement keeps both alive.

    ``preds`` is (T, H), one row of hypothesis codes per plan.  At k = 0 the
    close pairs are equal codes, found by sorting; each group of equal codes
    is reported as its neighbouring pairs in index order.  At k >= 1 every
    pair is tested by popcount on the one-hot packing.  Work runs in blocks
    of at most _PAIR_BYTES bytes of its largest array.
    """
    T, H = preds.shape
    if spec.k == 0:
        step = max(1, _PAIR_BYTES // (8 * H))
        for t0 in range(0, T, step):
            block = preds[t0 : t0 + step]
            order = np.argsort(block, axis=1, kind="stable")
            ranked = np.take_along_axis(block, order, axis=1)
            t, i = np.nonzero(ranked[:, 1:] == ranked[:, :-1])
            yield t0 + t, order[t, i], order[t, i + 1]
        return
    packed = onehot_codes(preds, spec.q)  # (T, H, lanes)
    cells = max(1, _PAIR_BYTES // (8 * packed.shape[2]))
    plans, rows = (cells // (H * H), H) if cells >= H * H else (1, max(1, cells // H))
    limit = 4 * spec.k
    for t0 in range(0, T, plans):
        for r0 in range(0, H, rows):
            left = packed[t0 : t0 + plans, r0 : r0 + rows, None, :]
            right = packed[t0 : t0 + plans, None, r0 + 1 :, :]
            bits = np.bitwise_count(left ^ right)
            near = (bits.sum(axis=3) if bits.shape[3] > 1 else bits[..., 0]) <= limit
            i = np.arange(r0, r0 + near.shape[1])
            near &= i[:, None] < np.arange(r0 + 1, H)[None, :]
            t, a, b = np.nonzero(near)
            yield t0 + t, r0 + a, r0 + 1 + b


def _first_common_code(ca: np.ndarray, cb: np.ndarray, q: int, k: int) -> int:
    """Smallest code within distance k of both ca[p] and cb[p], over all p.

    Every pair must lie within 2k.  Digit by digit, a pair can take digit d
    when both remaining budgets stay >= 0 and the positions where the pair
    still disagrees number at most their sum; each pair's first common word
    takes its smallest such digit, so the smallest word over all pairs takes
    the smallest digit any pair can, kept by the pairs that can take it.
    """
    powers = 3 ** np.arange(q - 1, -1, -1, dtype=np.int64)
    apart = np.zeros(len(ca), dtype=np.int64)
    for p in powers:
        apart += (ca // p) % 3 != (cb // p) % 3
    la = np.full(len(ca), k, dtype=np.int64)
    lb = la
    word = 0
    for p in powers:
        da, db = (ca // p) % 3, (cb // p) % 3
        apart = apart - (da != db)
        for d in range(3):
            na, nb = la - (da != d), lb - (db != d)
            ok = (na >= 0) & (nb >= 0) & (apart <= na + nb)
            if ok.any():
                break
        ca, cb, apart, la, lb = ca[ok], cb[ok], apart[ok], na[ok], nb[ok]
        word = word * 3 + d
    return word


def first_winning_code(spec: GameSpec, preds: np.ndarray) -> int | None:
    """Code of the first announcement, in L < R < D order, that keeps two of
    the hypotheses ``preds`` (one plan's codes) alive; ``None`` if none does."""
    best = None
    for _, a, b in close_pairs(spec, preds[None, :]):
        if a.size:
            code = _first_common_code(preds[a], preds[b], spec.q, spec.k)
            best = code if best is None else min(best, code)
    return best


def batch_balance_wins(spec: GameSpec, row_codes: np.ndarray) -> np.ndarray:
    """(T,) bools: does some mask leave >= 2 survivors against each plan?"""
    preds = hypothesis_codes(spec, row_codes)
    if preds.shape[1] * hamming_ball_volume(spec.q, spec.k) > 3**spec.q:
        # Survivor mass exceeds the mask count: some mask keeps two alive.
        return np.ones(len(preds), dtype=bool)
    wins = np.zeros(len(preds), dtype=bool)
    for t, _, _ in close_pairs(spec, preds):
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


def check_matrix_cap(spec: GameSpec, cap: int = DEFAULT_MATRIX_CAP) -> int:
    total = (3**spec.q) ** spec.n
    if total > cap:
        raise ResourceLimitError(
            f"enumerating 3**{spec.n * spec.q} strategy matrices exceeds the census cap "
            f"({cap}); raise the cap explicitly to proceed"
        )
    return total
