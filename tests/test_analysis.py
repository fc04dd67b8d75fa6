import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balancegame import (
    DomainError,
    analysis,
    adaptive_first_move_range,
    best_on_fraction,
    binary_entropy,
    chernoff_tail_bound,
    entropy_round_bound,
    expected_survivors,
    golden_section_max,
    hamming_ball_volume,
    honest_threshold_rate,
    lying_survivor_bound,
    lying_threshold_rate,
    prob_considered_heavier,
    prob_fewer_than_two_heavier,
    sample_curve,
    two_heavy_threshold,
)


class TestBinaryEntropy:
    def test_endpoints_and_peak(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    @given(st.floats(0.0, 1.0))
    def test_symmetric_and_bounded(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)
        assert 0.0 <= binary_entropy(p) <= 1.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)


class TestHammingBallVolume:
    def test_ternary_examples(self):
        assert hamming_ball_volume(4, 1) == 9
        assert hamming_ball_volume(3, 1) == 7
        assert hamming_ball_volume(3, 3) == 27

    def test_binary_example(self):
        assert hamming_ball_volume(4, 1, arity=2) == 5

    def test_radius_zero(self):
        assert hamming_ball_volume(7, 0) == 1

    @given(st.integers(1, 10), st.integers(2, 4))
    def test_full_radius_covers_space(self, length, arity):
        assert hamming_ball_volume(length, length, arity) == arity**length


class TestExpectedSurvivors:
    def test_all_on_half(self):
        assert expected_survivors((2, 2, 2, 2), 0.5, 2) == pytest.approx(2.0)

    def test_uniform_third(self):
        for n, q in [(3, 1), (9, 2), (27, 3)]:
            assert expected_survivors((q,) * n, 1 / 3, q) == pytest.approx(2 * n / 3**q)

    def test_idle_coin_contributes_nothing(self):
        assert expected_survivors((0, 0), 0.3, 3) == 0.0

    def test_monte_carlo_agreement(self):
        # 10^5 honest random announcements against a fixed profile
        import random

        rng = random.Random(5)
        profile, p, rounds = (2, 1, 0, 2), 0.3, 2
        rows = ("LR", "LO", "OO", "RL")
        trials, acc = 100_000, 0
        for _ in range(trials):
            mask = "".join(
                "L" if (u := rng.random()) < p else "R" if u < 2 * p else "D"
                for _ in range(rounds)
            )
            for row in rows:
                if row.count("O") == rounds:
                    continue
                ok_h = all(b == "D" if a == "O" else a == b for a, b in zip(row, mask))
                ok_l = all(
                    b == "D" if a == "O" else a == ("R" if b == "L" else "L" if b == "R" else "D")
                    for a, b in zip(row, mask)
                )
                acc += ok_h + ok_l
        expected = expected_survivors(profile, p, rounds)
        assert acc / trials == pytest.approx(expected, abs=0.02)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expected_survivors((1,), 0.6, 1)
        with pytest.raises(DomainError):
            expected_survivors((3,), 0.3, 2)


class TestHonestThresholdRate:
    def test_half(self):
        assert honest_threshold_rate(0.5) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_peak_value(self):
        assert honest_threshold_rate(2 / 3) == pytest.approx(3.0, abs=1e-12)

    def test_limits(self):
        assert honest_threshold_rate(1e-9) == pytest.approx(1.0, abs=1e-6)
        assert honest_threshold_rate(1.0 - 1e-9) == pytest.approx(2.0, abs=1e-6)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                honest_threshold_rate(bad)

    @given(st.floats(0.01, 0.99))
    def test_never_exceeds_three(self, r):
        assert honest_threshold_rate(r) <= 3.0 + 1e-12


class TestLyingThresholdRate:
    def test_zero_lies_reduces_to_honest(self):
        for i in range(1, 100):
            r = i / 100
            assert lying_threshold_rate(r, 0.0) == pytest.approx(
                honest_threshold_rate(r), abs=1e-12
            )

    def test_known_point(self):
        assert lying_threshold_rate(2 / 3, 1 / 3) == pytest.approx(
            1.8898815748423095, abs=1e-12
        )

    def test_entropy_toll_strictly_hurts(self):
        for lie_fraction in (0.05, 0.1, 0.2):
            r = 2 / 3
            assert lying_threshold_rate(r, lie_fraction) < honest_threshold_rate(r)

    def test_domain(self):
        with pytest.raises(DomainError):
            lying_threshold_rate(0.5, 0.5)  # lie fraction must stay below r
        with pytest.raises(DomainError):
            lying_threshold_rate(0.5, -0.01)


class TestGoldenSectionMax:
    def test_parabola(self):
        x, fx = golden_section_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-7)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_respects_tolerance(self):
        x, _ = golden_section_max(lambda x: -(x - 2.0) ** 2, 0.0, 10.0, tol=1e-3)
        assert abs(x - 2.0) < 1e-3


class TestBestOnFraction:
    def test_honest_peak(self):
        argmax, peak = best_on_fraction()
        assert argmax == pytest.approx(2 / 3, abs=1e-6)
        assert peak == pytest.approx(3.0, abs=1e-9)

    def test_lie_fraction_fifth(self):
        argmax, peak = best_on_fraction(0.2)
        assert argmax == pytest.approx(0.5632993108469602, abs=1e-6)
        assert peak == pytest.approx(2.0322129339071915, abs=1e-9)

    def test_fifth_interior_peak_matches_fine_grid(self):
        lie_fraction = 0.2
        best = max(
            (lie_fraction + (1 - lie_fraction) * i / 10_001 for i in range(1, 10_001)),
            key=lambda r: lying_threshold_rate(r, lie_fraction),
        )
        argmax, _ = best_on_fraction(lie_fraction)
        assert abs(argmax - best) < 1e-3

    def test_argmax_non_increasing_in_lie_fraction(self):
        args = [best_on_fraction(r2 / 100)[0] for r2 in range(0, 31, 5)]
        assert all(a >= b - 1e-9 for a, b in zip(args, args[1:]))


def scalar_lying_threshold_rate(r, lie_fraction):
    """The lying rate as one chain of checked scalar calls, clamp included."""
    alpha = min(1.0, max(0.0, (r - lie_fraction) / r))
    return honest_threshold_rate(r) * 2.0 ** (-r * binary_entropy(alpha))


def scalar_best_on_fraction(lie_fraction, tol=1e-8):
    """The bracket scan as 2000 scalar calls, then golden section: the oracle."""
    if lie_fraction == 0.0:
        fn = honest_threshold_rate
    else:
        fn = lambda r: lying_threshold_rate(r, lie_fraction)
    lo, hi = lie_fraction, 1.0
    grid = 2000
    step = (hi - lo) / (grid + 1)
    vals = [fn(lo + i * step) for i in range(1, grid + 1)]
    peaks = [i for i in range(1, grid - 1) if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]]
    if peaks:
        best = max(peaks, key=vals.__getitem__)
        a, b = lo + best * step, lo + (best + 2) * step
    elif vals[0] >= vals[-1]:
        a, b = lo, lo + 2 * step
    else:
        a, b = hi - 2 * step, hi
    return golden_section_max(fn, a, b, tol)


class TestArrayScan:
    """The array-evaluated bracket scan against the scalar loop it replaces."""

    # 4,001 evenly spaced lie fractions in [0, 0.99] from 0, 200 about the edge-run
    # regime near 0.22, and lie fractions small enough that r - r2 rounds to r.
    LIE_FRACTIONS = (
        [0.99 * i / 4000 for i in range(4001)]
        + [0.22 + 1e-4 * i for i in range(-100, 100)]
        + [5e-324, 1e-300, 1e-17, 1e-16, 1e-15]
    )

    def test_equals_the_scalar_scan(self):
        for lie_fraction in self.LIE_FRACTIONS:
            got = best_on_fraction(lie_fraction)
            assert got == scalar_best_on_fraction(lie_fraction), lie_fraction
            assert tuple(map(type, got)) == (float, float), lie_fraction

    def test_the_array_differs_from_the_scalar_values_only_in_the_last_bits(self):
        # Where the two disagree is what the scan decides again from scalar calls.
        for lie_fraction in (0.0, 0.05, 0.2, 0.5):
            step = (1.0 - lie_fraction) / 2001
            r = lie_fraction + np.arange(1, 2001) * step
            scalar = np.array([lying_threshold_rate(x, lie_fraction) for x in r.tolist()])
            if lie_fraction == 0.0:
                array = analysis._honest_rate(r)
            else:
                array = analysis._lying_rate(r, lie_fraction, np.log2)
            assert np.abs(array - scalar).max() <= 1e-14 * scalar.max()

    def test_scalar_calls_return_floats(self):
        rng = random.Random(31)
        for _ in range(2000):
            r = rng.uniform(1e-6, 1.0 - 1e-6)
            lie_fraction = rng.choice([0.0, 1e-300, rng.uniform(0.0, r)])
            for value, oracle in (
                (honest_threshold_rate(r), 1.0 / (1.0 - r) * (r / (2.0 * (1.0 - r))) ** (-r)),
                (lying_threshold_rate(r, lie_fraction), scalar_lying_threshold_rate(r, lie_fraction)),
                (binary_entropy(r), -r * math.log2(r) - (1.0 - r) * math.log2(1.0 - r)),
            ):
                assert type(value) is float and value == oracle, (r, lie_fraction)

    @pytest.mark.parametrize("call,args", [
        (honest_threshold_rate, (0.0,)), (honest_threshold_rate, (1.0,)),
        (honest_threshold_rate, (-0.2,)), (honest_threshold_rate, (math.nan,)),
        (lying_threshold_rate, (0.5, 0.5)), (lying_threshold_rate, (0.5, -0.01)),
        (lying_threshold_rate, (1.0, 0.1)), (lying_threshold_rate, (0.0, 0.0)),
        (lying_threshold_rate, (0.5, math.nan)), (lying_threshold_rate, (math.nan, 0.1)),
        (binary_entropy, (-0.1,)), (binary_entropy, (1.1,)), (binary_entropy, (math.nan,)),
        (best_on_fraction, (1.0,)), (best_on_fraction, (-0.1,)), (best_on_fraction, (math.nan,)),
    ])
    def test_scalar_calls_refuse_bad_inputs(self, call, args):
        with pytest.raises(DomainError):
            call(*args)


class TestLyingSurvivorBound:
    def test_worked_example(self):
        assert lying_survivor_bound(2, 1 / 3, 2, 1) == pytest.approx(2 / 9)

    def test_zero_lies_recovers_full_tail(self):
        for qi in (1, 2, 3):
            term = 2.0 * (1 - 2 * 0.3) ** (4 - qi) * 0.3**qi
            assert lying_survivor_bound(qi, 0.3, 4, 0) == pytest.approx(
                term * (2**qi - 1)
            )

    def test_budget_swallowing_all_rounds(self):
        assert lying_survivor_bound(2, 0.3, 3, 2) == 0.0
        assert lying_survivor_bound(2, 0.3, 3, 5) == 0.0


class TestProbConsideredHeavier:
    def test_quarter_point(self):
        assert prob_considered_heavier(0.5, 0.5, 4) == pytest.approx(0.25)

    def test_even_round_closed_form(self):
        for q in (2, 4, 6, 8, 10):
            assert prob_considered_heavier(0.5, 0.5, q) == pytest.approx(
                2.0 ** (-q / 2), abs=1e-15
            )

    def test_binomial_identity(self):
        # at-least-one-plus tail equals the explicit binomial sum
        worst = 0.0
        for m in range(1, 31):
            for pdec in range(1, 50):
                p = pdec / 100
                direct = (1 - p) ** m - (1 - 2 * p) ** m
                total = sum(
                    math.comb(m, j) * p**j * (1 - 2 * p) ** (m - j)
                    for j in range(1, m + 1)
                )
                worst = max(worst, abs(direct - total))
        assert worst <= 1e-12

    def test_zero_rate_reads_nothing(self):
        assert prob_considered_heavier(0.3, 0.0, 10) == 0.0

    @given(st.floats(0.0, 0.5), st.floats(0.0, 1.0), st.integers(1, 40))
    @settings(max_examples=80)
    def test_is_a_probability(self, p, r, rounds):
        value = prob_considered_heavier(p, r, rounds)
        assert -1e-12 <= value <= 1.0 + 1e-12


class TestProbFewerThanTwoHeavier:
    def test_worked_example(self):
        assert prob_fewer_than_two_heavier(3, 0.25) == pytest.approx(0.84375)

    def test_large_q_square_approximation(self):
        phi = prob_considered_heavier(0.5, 0.5, 30)
        exact = prob_fewer_than_two_heavier(50, phi)
        approx = 1.0 - math.comb(49, 2) * phi**2
        assert abs(exact - approx) / exact < 0.01

    def test_edge_cases(self):
        assert prob_fewer_than_two_heavier(1, 0.7) == 1.0
        # two coins: complement of both reading heavier, 1 - phi**2
        assert prob_fewer_than_two_heavier(2, 0.7) == pytest.approx(1 - 0.49)

    def test_matches_binomial_tail(self):
        for n in (2, 3, 5, 10):
            for phi in (0.0, 0.1, 0.4, 1.0):
                tail = sum(
                    math.comb(n, j) * phi**j * (1 - phi) ** (n - j) for j in (0, 1)
                )
                assert prob_fewer_than_two_heavier(n, phi) == pytest.approx(tail)


class TestEntropyRoundBound:
    def test_exact_powers(self):
        assert entropy_round_bound(27) == 3.0
        assert entropy_round_bound(9) == 2.0
        assert entropy_round_bound(1) == 0.0

    def test_two_signs(self):
        assert entropy_round_bound(12, signs_per_coin=2) == pytest.approx(
            math.log(24, 3)
        )

    def test_monotone(self):
        vals = [entropy_round_bound(n) for n in range(1, 50)]
        assert vals == sorted(vals)


class TestAdaptiveFirstMoveRange:
    def test_thirteen_is_infeasible(self):
        assert list(adaptive_first_move_range(13, 3)) == []

    def test_twelve_forces_four_per_pan(self):
        assert list(adaptive_first_move_range(12, 3)) == [4]

    def test_classic_three_coin_game(self):
        assert list(adaptive_first_move_range(3, 2)) == [1]

    def test_every_member_balances_the_branches(self):
        for n, q in [(12, 3), (3, 2), (27, 4), (5, 3)]:
            branch = 3 ** (q - 1)
            for a in adaptive_first_move_range(n, q):
                assert 2 * a <= branch
                assert 2 * n - 4 * a <= branch
                assert 2 * a <= n


class TestChernoffTailBound:
    def test_known_value(self):
        assert chernoff_tail_bound(100, 0.1) == pytest.approx(
            0.2706705664732254, abs=1e-12
        )

    def test_shrinks_with_rounds(self):
        assert chernoff_tail_bound(200, 0.1) < chernoff_tail_bound(100, 0.1)

    def test_domain(self):
        with pytest.raises(DomainError):
            chernoff_tail_bound(0, 0.1)
        with pytest.raises(DomainError):
            chernoff_tail_bound(10, 0.0)


class TestTwoHeavyThreshold:
    def test_cube_point(self):
        assert two_heavy_threshold(3) == pytest.approx(3.0)

    def test_growth(self):
        assert two_heavy_threshold(6) == pytest.approx(4.5)


class TestSampleCurve:
    def test_excludes_endpoints(self):
        curve = sample_curve(honest_threshold_rate, 0.0, 1.0, 99)
        assert 0.0 not in curve.grid and 1.0 not in curve.grid
        assert len(curve.grid) == len(curve.values) == 99

    def test_argmax_near_two_thirds(self):
        curve = sample_curve(honest_threshold_rate, 0.0, 1.0, 999)
        assert abs(curve.argmax - 2 / 3) < 2e-3
        assert curve.max == pytest.approx(3.0, abs=1e-4)
