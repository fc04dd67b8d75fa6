"""Reference answers for the benchmark.

Everything here is written from the rules of the game and from closed forms,
and shares no code with ``balancegame``.  Rows and announcements are digit
tuples with L = 0, R = 1 and O/D = 2, most significant round first; the
heavy-coin announcement of a row is the row itself and the light-coin one
swaps the digits 0 and 1.

The one decision rule used throughout: two hypotheses can both survive one
announcement with at most ``k`` lies each exactly when their honest
announcements lie within Hamming distance ``2k`` of each other (the two
radius-``k`` balls meet).  A plan is must-win exactly when no such pair exists.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

PLACEMENTS = "LRO"
OUTCOMES = "LRD"
HEAVY, UNKNOWN = "heavy", "unknown"
SEED_STRIDE = 1_000_003  # trial t of master seed s uses seed s * SEED_STRIDE + t
Z_95 = 1.959963984540054
SWEEP_PLAN_CAP = 200_000  # sweep enumerates a q only while (3**q)**n plans fit under this


# ---------------------------------------------------------------- words


def row_digits(row: str) -> tuple[int, ...]:
    return tuple(PLACEMENTS.index(c) for c in row)


def mask_digits(mask: str) -> tuple[int, ...]:
    return tuple(OUTCOMES.index(c) for c in mask)


def digits_row(d) -> str:
    return "".join(PLACEMENTS[int(x)] for x in d)


def digits_mask(d) -> str:
    return "".join(OUTCOMES[int(x)] for x in d)


def mirror(d) -> tuple[int, ...]:
    """Light-coin image: left and right pans swap, off rounds stay draws."""
    return tuple(2 if x == 2 else 1 - x for x in d)


def mask_index(mask: str) -> int:
    """Position of a mask in L < R < D lexicographic order."""
    idx = 0
    for c in mask:
        idx = idx * 3 + OUTCOMES.index(c)
    return idx


def hypotheses(rows, prior: str) -> list[tuple[int, str, tuple[int, ...]]]:
    """(coin, sign, honest announcement) for every hypothesis of a plan."""
    out = []
    for i, row in enumerate(rows):
        d = row_digits(row)
        out.append((i, "heavy", d))
        if prior == UNKNOWN:
            out.append((i, "light", mirror(d)))
    return out


def distance(a, b) -> int:
    return sum(x != y for x, y in zip(a, b))


def survivors(rows, mask: str, k: int, prior: str) -> list[tuple[int, str]]:
    """Hypotheses with at most k lies against the mask, sorted by (coin, sign)."""
    m = mask_digits(mask)
    return sorted((c, s) for c, s, img in hypotheses(rows, prior) if distance(img, m) <= k)


def survivor_labels(surv) -> list[str]:
    return [f"coin {c + 1} {'heavier' if s == 'heavy' else 'lighter'}" for c, s in surv]


# ---------------------------------------------------------------- decisions


def _image_array(rows, prior: str) -> np.ndarray:
    return np.array([img for _, _, img in hypotheses(rows, prior)], dtype=np.int8).reshape(-1, len(rows[0]))


def close_pairs(rows, k: int, prior: str) -> list[tuple[int, int]]:
    """Index pairs (into ``hypotheses(rows, prior)``) within distance 2k."""
    imgs = _image_array(rows, prior)
    out = []
    for i in range(len(imgs) - 1):
        d = (imgs[i + 1 :] != imgs[i]).sum(axis=1)
        out.extend((i, i + 1 + int(j)) for j in np.nonzero(d <= 2 * k)[0])
    return out


def balance_wins(images: np.ndarray, k: int) -> bool:
    """Whether two of the given honest announcements lie within 2k.

    Works on the multiset of distinct announcements, so it stays cheap for
    tens of thousands of hypotheses over a few rounds.
    """
    h, q = images.shape
    if h < 2:
        return False
    if 2 * k >= q:
        return True
    codes = images.astype(np.int64) @ (3 ** np.arange(q - 1, -1, -1, dtype=np.int64))
    uniq = np.unique(codes)
    if len(uniq) < h:
        return True
    if k == 0:
        return False
    u = images[np.unique(codes, return_index=True)[1]]
    for i in range(len(u) - 1):
        if ((u[i + 1 :] != u[i]).sum(axis=1) <= 2 * k).any():
            return True
    return False


def is_must_win(rows, k: int, prior: str) -> bool:
    return not balance_wins(_image_array(rows, prior), k)


def ball(word, k: int):
    """Every word within Hamming distance k of ``word`` (digits 0..2)."""
    q = len(word)
    for j in range(k + 1):
        for pos in itertools.combinations(range(q), j):
            choices = [[s for s in range(3) if s != word[p]] for p in pos]
            for subs in itertools.product(*choices):
                w = list(word)
                for p, s in zip(pos, subs):
                    w[p] = s
                yield tuple(w)


def first_winning_mask(rows, k: int, prior: str) -> str | None:
    """First mask in L < R < D order with at least two survivors, or None.

    The winning masks are the union, over close pairs, of the two balls'
    intersections; take the smallest member of each and then the smallest.
    """
    hyps = hypotheses(rows, prior)
    best = None
    for i, j in close_pairs(rows, k, prior):
        a, b = hyps[i][2], hyps[j][2]
        cand = min(w for w in ball(a, k) if distance(w, b) <= k)
        if best is None or cand < best:
            best = cand
    return None if best is None else digits_mask(best)


# ---------------------------------------------------------------- plans


def ternary_plan(n: int, q: int) -> list[str]:
    """Row i spells i in base 3 (L, R, O), most significant round first."""
    return [digits_row(np.base_repr(i, 3).zfill(q)) for i in range(n)]


def mirror_free_plan(n: int, q: int) -> list[str]:
    """First n rows in L < R < O order with no all-off row and no mirror pair."""
    kept, seen = [], set()
    for d in itertools.product(range(3), repeat=q):
        if all(x == 2 for x in d) or mirror(d) in seen:
            continue
        kept.append(digits_row(d))
        seen.add(d)
        if len(kept) == n:
            break
    return kept


def greedy_code(n: int, q: int, k: int, prior: str, rng: np.random.Generator) -> list[str]:
    """n rows, visited in seeded random order, whose hypotheses' announcements
    are pairwise at distance >= 2k + 1: a must-win plan by construction."""
    need = 2 * k + 1
    powers = 3 ** np.arange(q - 1, -1, -1)
    accepted = np.empty((0, q), dtype=np.int8)
    rows = []
    for code in rng.permutation(3**q):
        d = (int(code) // powers) % 3
        imgs = [d]
        if prior == UNKNOWN:
            m = np.where(d == 2, 2, 1 - d)
            if int((m != d).sum()) < need:
                continue
            imgs.append(m)
        imgs = np.array(imgs, dtype=np.int8)
        if len(accepted) and ((accepted[None, :, :] != imgs[:, None, :]).sum(axis=2) < need).any():
            continue
        accepted = np.concatenate([accepted, imgs])
        rows.append(digits_row(d))
        if len(rows) == n:
            return rows
    raise ValueError(f"greedy search found only {len(rows)} of {n} rows for q={q}, k={k}")


def tetracode_rows() -> list[str]:
    """The nine words of the ternary [4, 2, 3] Hamming code, O = 0, L = 1,
    R = 2; negation mod 3 swaps pans, so the code is mirror-closed."""
    sym = {0: "O", 1: "L", 2: "R"}
    words = []
    for a in range(3):
        for b in range(3):
            w = [(a * x + b * y) % 3 for x, y in zip((1, 0, 1, 1), (0, 1, 1, 2))]
            words.append("".join(sym[v] for v in w))
    return words


def tetracode_unknown_rows() -> list[str]:
    """One word from each +-pair of nonzero tetracode words: four rows whose
    eight heavy and light announcements are pairwise at distance >= 3."""
    kept: list[str] = []
    for w in tetracode_rows():
        if w != "OOOO" and mirror(row_digits(w)) not in {row_digits(x) for x in kept}:
            kept.append(w)
    return kept


# ---------------------------------------------------------------- closed forms


def falling(a: int, n: int) -> int:
    return math.perm(a, n) if 0 <= n <= a else 0


def capacity(q: int, prior: str) -> int:
    return 3**q if prior == HEAVY else (3**q - 1) // 2


def census_k0(n: int, q: int, prior: str) -> int:
    """Perfect zero-lie plans: P(3**q, n) heavy, 2**n P((3**q - 1)/2, n) unknown."""
    if prior == HEAVY:
        return falling(3**q, n)
    return 2**n * falling((3**q - 1) // 2, n)


def ball_volume(q: int, k: int) -> int:
    return sum(math.comb(q, j) * 2**j for j in range(k + 1))


def per_coin_mass(q: int, k: int, prior: str) -> int:
    return ball_volume(q, k) * (1 if prior == HEAVY else 2)


def pigeonhole_max(q: int, k: int, prior: str) -> int:
    """Largest n the survivor-mass pigeonhole bound leaves open."""
    return 3**q // per_coin_mass(q, k, prior)


def count_perfect_plans(n: int, q: int, k: int, prior: str) -> int:
    """Ordered n-row must-win plans, by counting cliques of compatible rows."""
    rows = ["".join(c) for c in itertools.product(PLACEMENTS, repeat=q)]
    ok = [r for r in rows if is_must_win([r], k, prior)]
    compat = {a: {b for b in ok if b != a and is_must_win([a, b], k, prior)} for a in ok}

    def cliques(size, cands):
        if size == 0:
            return 1
        total = 0
        cands = sorted(cands)
        for i, v in enumerate(cands):
            total += cliques(size - 1, set(cands[i + 1 :]) & compat[v])
        return total

    return cliques(n, set(ok)) * math.factorial(n)


def sweep_boundary(q: int, k: int, prior: str) -> tuple[int, list[str] | None]:
    """Largest n the player wins, with a witness plan, for the sizes the sweep
    covers: capacity at k = 0; at k = 1 and q <= 4 the pigeonhole bound, met
    by a repetition code or the tetracode."""
    if k == 0:
        n = capacity(q, prior)
        return n, (ternary_plan(n, q) if prior == HEAVY else mirror_free_plan(n, q))
    if k != 1 or q > 4:
        raise ValueError(f"no reference boundary for q={q}, k={k}")
    n = pigeonhole_max(q, k, prior)
    if prior == HEAVY:
        witness = {1: ["L"], 2: ["LL"], 3: ["LLL", "RRR", "OOO"], 4: tetracode_rows()}[q]
    else:
        witness = {1: [], 2: [], 3: ["LLL"], 4: tetracode_unknown_rows()}[q]
    return n, (witness[:n] or None)


def sweep_rows(q_max: int, k: int, prior: str) -> list[list]:
    """Expected sweep table: each q is decided by enumeration when the first
    losing n fits under the plan cap, else by capacity (k = 0) or reported
    as the pigeonhole bound (k >= 1)."""
    out = []
    for q in range(1, q_max + 1):
        best, _ = sweep_boundary(q, k, prior)
        cap = capacity(q, prior) if k == 0 else None
        mass_min = pigeonhole_max(q, k, prior) + 1 if k >= 1 else None
        if (3**q) ** (best + 1) <= SWEEP_PLAN_CAP:
            out.append([q, best, best + 1, "exhaustive", cap, mass_min])
        elif k == 0:
            out.append([q, best, best + 1, "constructive", cap, mass_min])
        else:
            enumerable = max(n for n in range(1, best + 2) if (3**q) ** n <= SWEEP_PLAN_CAP)
            last = min(best, enumerable)
            out.append([q, last or None, mass_min, "mass-bound", cap, mass_min])
    return out


# ---------------------------------------------------------------- Monte Carlo replay


def trial_seed(seed: int, t: int) -> int:
    return seed * SEED_STRIDE + t


def replay_random_plan(n: int, q: int, r: float, seed: int) -> list[str]:
    """Cells drawn row-major, one uniform each: L below r/2, R below r, else O."""
    rng = random.Random(seed)
    half = r / 2.0
    return [
        "".join("L" if u < half else "R" if u < r else "O" for u in (rng.random() for _ in range(q)))
        for _ in range(n)
    ]


def replay_simulate(n: int, q: int, k: int, prior: str, r: float, trials: int, seed: int) -> int:
    """Balance wins over the seeded random plans of ``simulate``."""
    wins = 0
    for t in range(trials):
        rows = replay_random_plan(n, q, r, trial_seed(seed, t))
        wins += balance_wins(_image_array(rows, prior), k)
    return wins


def replay_perfect_rate(n: int, q: int, prior: str, trials: int, seed: int) -> int:
    """Must-win plans among uniformly random plans (row codes drawn with
    ``randrange(3**q)``), zero lies."""
    perfect = 0
    powers = 3 ** np.arange(q - 1, -1, -1)
    for t in range(trials):
        rng = random.Random(trial_seed(seed, t))
        codes = np.array([rng.randrange(3**q) for _ in range(n)])
        rows = (codes[:, None] // powers[None, :]) % 3
        imgs = rows if prior == HEAVY else np.concatenate([rows, np.where(rows == 2, 2, 1 - rows)])
        perfect += not balance_wins(imgs.astype(np.int8), 0)
    return perfect


def replay_concentrate(q: int, r: float, delta: float, trials: int, seed: int) -> int:
    """Trials whose on-fraction strays from r by more than delta."""
    hits = 0
    for t in range(trials):
        rng = random.Random(trial_seed(seed, t))
        on = sum(rng.random() < r for _ in range(q))
        hits += abs(on / q - r) > delta
    return hits


def half_width(successes: int, trials: int) -> float:
    p = successes / trials
    return Z_95 * math.sqrt(p * (1.0 - p) / trials)


def hoeffding(q: int, delta: float) -> float:
    return 2.0 * math.exp(-2.0 * delta * delta * q)


# ---------------------------------------------------------------- rate curves


def entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def rate_g(r: float) -> float:
    """Honest threshold rate (1/(1-r)) (r / (2(1-r)))**(-r); peak 3 at r = 2/3."""
    return math.exp(-math.log1p(-r) - r * math.log(r / (2.0 * (1.0 - r))))


def rate_v(r: float, r2: float) -> float:
    """Lying threshold rate: g(r) times the entropy toll 2**(-r H((r - r2)/r))."""
    return rate_g(r) * 2.0 ** (-r * entropy((r - r2) / r))


def phi(p: float, r: float, q: int) -> float:
    m = r * q
    return (1.0 - p) ** m - (1.0 - 2.0 * p) ** m


def expected_survivors(profile, p: float, q: int) -> float:
    return sum(2.0 * (1.0 - 2.0 * p) ** (q - qi) * p**qi for qi in profile if qi > 0)


def interior_grid(lo: float, hi: float, num: int) -> list[float]:
    step = (hi - lo) / (num + 1)
    return [lo + i * step for i in range(1, num + 1)]


def best_rate(r2: float) -> tuple[float, float]:
    """(argmax, max) over r in (r2, 1) of the lying threshold rate, refined
    from a dense grid by ternary search on the bracketing cell."""
    grid = interior_grid(r2, 1.0, 20000)
    vals = [rate_v(r, r2) if r2 > 0 else rate_g(r) for r in grid]
    i = max(range(1, len(grid) - 1), key=vals.__getitem__)
    a, b = grid[i - 1], grid[i + 1]
    fn = (lambda r: rate_v(r, r2)) if r2 > 0 else rate_g
    for _ in range(200):
        c, d = a + (b - a) / 3, b - (b - a) / 3
        if fn(c) < fn(d):
            a = c
        else:
            b = d
    x = (a + b) / 2
    return x, fn(x)
