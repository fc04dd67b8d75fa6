"""Closed-form rates, bounds and small numeric optimizers.

The asymptotic picture for random plans: put each coin on the balance a
fraction ``r`` of the rounds and let the announcement deviate in a fraction
``r2 < r`` of a coin's on-rounds.  The number of coins the balance can
afford to keep plausible grows like ``rate**q``, and the player survives
exactly when ``2n`` stays below that envelope.

Each rate is written once, as a private formula over a float or a numpy
array.  The public functions check their domain and evaluate it on Python
floats; :func:`best_on_fraction`'s bracket scan evaluates it on an array.
numpy's ``log2`` and ``power`` may differ from ``math.log2`` and ``**`` in
the last bit, so the array only narrows the choice: every value the scan
decides by, and every number returned, comes from the scalar closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DomainError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def binary_entropy(p: float) -> float:
    """Shannon entropy of a coin flip, in bits; H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return _entropy(p)


def _entropy(p, log2=math.log2):
    """H(p) in bits for 0 < p < 1: a float with ``math.log2``, an array with ``np.log2``."""
    return -p * log2(p) - (1.0 - p) * log2(1.0 - p)


def hamming_ball_volume(length: int, radius: int, arity: int = 3) -> int:
    """Words within the given Hamming distance of a fixed word."""
    if length < 0 or radius < 0 or arity < 2:
        raise DomainError("need length >= 0, radius >= 0, arity >= 2")
    return sum(math.comb(length, i) * (arity - 1) ** i for i in range(min(radius, length) + 1))


def _check_symbol_probability(p: float) -> None:
    if not 0.0 <= p <= 0.5:
        raise DomainError(f"per-round symbol probability must lie in [0, 1/2], got {p}")


def expected_survivors(profile: Sequence[int], p: float, rounds: int) -> float:
    """Expected surviving coins against an honest random announcement.

    Each round independently announces left-heavy or right-heavy with
    probability ``p`` apiece, draw otherwise.  A coin with ``q_i`` on-rounds
    stays plausible with probability ``2 (1-2p)**(q - q_i) * p**q_i``; a coin
    never weighed contributes nothing because the all-draw reading would
    keep both of its signs and it never pins down a sign alone.
    """
    _check_symbol_probability(p)
    if rounds < 1:
        raise DomainError(f"need rounds >= 1, got {rounds}")
    total = 0.0
    for qi in profile:
        if not 0 <= qi <= rounds:
            raise DomainError(f"on-round count {qi} outside 0..{rounds}")
        if qi == 0:
            continue
        total += 2.0 * (1.0 - 2.0 * p) ** (rounds - qi) * p**qi
    return total


def honest_threshold_rate(r: float) -> float:
    """Per-round growth base of the honest-balance survival envelope.

    Defined on 0 < r < 1; tends to 1 as r -> 0 and to 2 as r -> 1, and
    peaks at exactly 3 when r = 2/3 (every placement equally likely).
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"on-balance rate must lie strictly in (0, 1), got {r}")
    return _honest_rate(r)


def _honest_rate(r):
    """g(r) for 0 < r < 1, a float or an array."""
    return 1.0 / (1.0 - r) * (r / (2.0 * (1.0 - r))) ** (-r)


def lying_threshold_rate(r: float, lie_fraction: float) -> float:
    """Envelope base when the balance may lie on a ``lie_fraction`` of rounds.

    The honest base pays an entropy toll of ``2**(-r * H((r - r2)/r))`` for
    hiding the lied rounds among a coin's on-rounds; at ``lie_fraction = 0``
    this is exactly :func:`honest_threshold_rate`.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"on-balance rate must lie strictly in (0, 1), got {r}")
    if not 0.0 <= lie_fraction < r:
        raise DomainError(f"lie fraction must lie in [0, r), got {lie_fraction} with r={r}")
    if r - lie_fraction == r:  # the share (r - r2) / r is 1: H(1) = 0, no toll
        return _honest_rate(r)
    return _lying_rate(r, lie_fraction)


def _lying_rate(r, lie_fraction, log2=math.log2):
    """v(r, r2) for r2 < r < 1, a float or an array r.  The share
    (r - r2) / r lies in (0, 1] and is 1 exactly where r - r2 rounds to r;
    there H(1) is a log of 0: a float raises ``ValueError``, an array holds NaN."""
    return _honest_rate(r) * 2.0 ** (-r * _entropy((r - lie_fraction) / r, log2))


def golden_section_max(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-8
) -> tuple[float, float]:
    """Golden-section maximizer on an interval, absolute x tolerance ``tol``.

    Assumes a single local maximum inside (lo, hi); endpoints are never
    evaluated, so open-interval singularities are safe.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
    x = 0.5 * (a + b)
    return x, fn(x)


def check_lie_fraction(lie_fraction: float) -> None:
    """Refuse a lie fraction outside [0, 1), NaN included."""
    if not 0.0 <= lie_fraction < 1.0:
        raise DomainError(f"lie fraction must lie in [0, 1), got {lie_fraction}")


def best_on_fraction(lie_fraction: float = 0.0, tol: float = 1e-8) -> tuple[float, float]:
    """(argmax, max) of the threshold rate in r over (lie_fraction, 1).

    A 2000-point scan brackets the peak before golden-section refines it.
    The scan prefers the best interior local maximum: past roughly
    ``lie_fraction = 0.22`` the curve also climbs toward the left edge,
    where the entropy toll degenerates (every on-round lied about), and
    that edge run is taken only when no interior peak exists at all.

    The scan is one array evaluation of the rate's formula
    (:func:`_scan_peak`); it picks the bracket a scan of scalar calls picks,
    and golden-section refines on the scalar function, so both returned
    numbers are scalar closed-form values."""
    check_lie_fraction(lie_fraction)
    if lie_fraction == 0.0:
        fn = honest_threshold_rate
    else:
        fn = functools.partial(lying_threshold_rate, lie_fraction=lie_fraction)
    lo, hi = lie_fraction, 1.0
    grid = 2000
    step = (hi - lo) / (grid + 1)
    r = lo + np.arange(1, grid + 1) * step  # lo + i * step, bit for bit
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = _honest_rate(r) if lie_fraction == 0.0 else _lying_rate(r, lie_fraction, np.log2)
    best = _scan_peak(fn, r, vals)
    if best is not None:
        a, b = lo + best * step, lo + (best + 2) * step
    elif fn(lo + step) >= fn(lo + grid * step):
        a, b = lo, lo + 2 * step
    else:
        a, b = hi - 2 * step, hi
    return golden_section_max(fn, a, b, tol)


def _scan_peak(fn: Callable[[float], float], r: np.ndarray, vals: np.ndarray) -> int | None:
    """Index of the first best interior local maximum of ``fn`` over the
    points ``r``, the one ``max(peaks, key=[fn(x) for x in r].__getitem__)``
    picks, or ``None`` if there is none; ``vals`` is ``fn`` evaluated as an
    array, whose last bits (or NaN) may differ from the scalar values.

    The array decides nothing its error could flip: taking it as at most
    ``slack``, 1e-12 of a value (thousands of ulps), every neighbour
    comparison closer than the two slacks, and every peak within them of the
    best, is decided again from scalar calls."""
    slack = 1e-12 * np.abs(vals)
    rise = np.diff(vals)  # its sign decides vals[i + 1] >= vals[i] where it clears the slacks
    near = np.flatnonzero(~(np.abs(rise) > slack[1:] + slack[:-1]))  # NaN included
    if near.size:
        redo = np.union1d(near, near + 1)
        vals[redo] = [fn(x) for x in r[redo].tolist()]
        slack[redo] = 0.0
        rise[near] = vals[near + 1] - vals[near]
    peaks = np.flatnonzero((rise[:-1] >= 0.0) & (rise[1:] <= 0.0)) + 1
    if not peaks.size:
        return None
    floor = (vals[peaks] - slack[peaks]).max()  # the best peak's value is at least this
    ties = peaks[vals[peaks] + slack[peaks] >= floor].tolist()
    return max(ties, key=lambda i: fn(float(r[i])))


def lying_survivor_bound(on_rounds: int, p: float, rounds: int, lies: int) -> float:
    """Lower bound on one coin's survival probability against a balance that
    lies on up to ``lies`` of the coin's ``on_rounds`` weighings; zero when
    the lie budget swallows every on-round."""
    _check_symbol_probability(p)
    if not 0 <= on_rounds <= rounds:
        raise DomainError(f"on-round count {on_rounds} outside 0..{rounds}")
    if lies < 0:
        raise DomainError(f"lie budget must be >= 0, got {lies}")
    top = on_rounds - (lies + 1)
    if top < 0:
        return 0.0
    tail = sum(math.comb(on_rounds, i) for i in range(top + 1))
    return 2.0 * (1.0 - 2.0 * p) ** (rounds - on_rounds) * p**on_rounds * tail


def prob_considered_heavier(p: float, r: float, rounds: int) -> float:
    """Chance a given coin's row reads 'plausibly heavier' when outcomes are
    drawn with per-side probability p and the coin is on for r*rounds rounds:
    (1-p)**(r q) - (1-2p)**(r q), the at-least-one-plus binomial tail."""
    _check_symbol_probability(p)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"on-balance rate must lie in [0, 1], got {r}")
    if rounds < 1:
        raise DomainError(f"need rounds >= 1, got {rounds}")
    m = r * rounds
    return (1.0 - p) ** m - (1.0 - 2.0 * p) ** m


def prob_fewer_than_two_heavier(n: int, phi: float) -> float:
    """With n coins each reading 'plausibly heavier' independently with
    probability phi, the chance at most one does:
    (1-phi)**(n-1) * (1 + (n-1) phi)."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not 0.0 <= phi <= 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {phi}")
    return (1.0 - phi) ** (n - 1) * (1.0 + (n - 1) * phi)


def entropy_round_bound(n: int, signs_per_coin: int = 1) -> float:
    """Information floor on rounds: log base 3 of the hypothesis count,
    returned exactly integral when the count is a power of three."""
    if n < 1 or signs_per_coin not in (1, 2):
        raise DomainError("need n >= 1 and signs_per_coin in {1, 2}")
    m = n * signs_per_coin
    x = math.log(m, 3)
    nearest = round(x)
    if 3**nearest == m:
        return float(nearest)
    return x


def adaptive_first_move_range(n: int, q: int) -> range:
    """Feasible first-move pan sizes for a round-by-round unknown-sign solver.

    Putting ``a`` coins in each pan must leave every branch at most
    3**(q-1) hypotheses: 2a on a tip, 2n - 4a on a draw.  Empty range means
    no first move keeps all branches solvable.
    """
    if n < 1 or q < 1:
        raise DomainError(f"need n >= 1 and q >= 1, got n={n}, q={q}")
    branch = 3 ** (q - 1)
    lo = max(0, -((2 * n - branch) // -4))  # smallest a with 2n - 4a <= branch
    hi = min(branch // 2, n // 2)
    return range(lo, hi + 1)


def chernoff_tail_bound(q: int, delta: float) -> float:
    """Two-sided Hoeffding bound 2 exp(-2 delta**2 q) on the on-fraction of a
    random row straying more than delta from its mean."""
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    if not delta > 0.0:  # NaN included
        raise DomainError(f"deviation must be positive, got {delta}")
    return 2.0 * math.exp(-2.0 * delta * delta * q)


def two_heavy_threshold(q: float) -> float:
    """Coin count 2 * (3/2)**(q/3) beyond which two same-sign counterfeits
    overwhelm q predetermined rounds."""
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    return 2.0 * 1.5 ** (q / 3.0)


@dataclass(frozen=True)
class RateCurve:
    """A sampled curve plus where its sampled maximum sits."""

    parameter: str
    grid: tuple[float, ...]
    values: tuple[float, ...]

    @property
    def argmax(self) -> float:
        return self.grid[max(range(len(self.values)), key=self.values.__getitem__)]

    @property
    def max(self) -> float:
        return max(self.values)


def sample_curve(
    fn: Callable[[float], float], lo: float, hi: float, num: int, parameter: str = "r"
) -> RateCurve:
    """Sample fn at num interior points of (lo, hi), endpoints excluded."""
    if num < 1:
        raise DomainError(f"need at least one sample, got {num}")
    step = (hi - lo) / (num + 1)
    grid = tuple(lo + i * step for i in range(1, num + 1))
    return RateCurve(parameter, grid, tuple(map(fn, grid)))
