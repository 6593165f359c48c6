"""Rate-ladder tests, including the single-level reduction identities."""

import numpy as np
import pytest

from depcox.errors import ValidationError
from oracles import assign_rate_searchsorted, default_ladder
from depcox.thinning import (
    SLACK,
    RateLadder,
    accept_delete,
    accept_insert,
    accept_move,
    estimate_total,
    thinned_prob,
)

TWO_LEVEL = RateLadder((0.5, 1.0))


# single-bound oracles, written straight from the unmodified acceptance ratios
def _single_rate_insert(m, vol, lam, g, b):
    return (1 - b) * vol * lam / ((m + 1) * b * (1 + np.exp(g)))


def _single_rate_delete(m, vol, lam, g, b):
    return m * b * (1 + np.exp(g)) / ((1 - b) * vol * lam)


def _single_rate_move(g_old, g_new):
    return (1 + np.exp(g_old)) / (1 + np.exp(g_new))


def _sigmoid(g):
    return 1.0 / (1.0 + np.exp(-g))


class TestRateLadder:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RateLadder((0.5, 0.9))  # last not 1
        with pytest.raises(ValidationError):
            RateLadder((1.0, 0.5, 1.0))
        with pytest.raises(ValidationError):
            RateLadder((0.0, 1.0))

    def test_default_ladders(self):
        assert default_ladder(1).levels == (1.0,)
        assert default_ladder(2).levels == (0.5, 1.0)
        assert default_ladder(3).levels == (0.25, 0.5, 1.0)
        assert default_ladder(4).levels == (0.125, 0.25, 0.5, 1.0)


class TestAssignRate:
    def test_low_sigmoid_takes_first_level(self):
        assert TWO_LEVEL.assign(0.3) == 0  # 0.3 <= 0.5 * 0.9

    def test_mid_sigmoid_takes_top_level(self):
        assert TWO_LEVEL.assign(0.6) == 1  # 0.6 > 0.45, 0.6 <= 0.9

    def test_above_slack_falls_back_to_top(self):
        assert TWO_LEVEL.assign(0.95) == 1

    def test_boundary_is_inclusive(self):
        assert TWO_LEVEL.assign(0.45) == 0

    def test_assigned_level_always_bounds_sigmoid(self):
        rng = np.random.default_rng(0)
        ladder = default_ladder(4)
        sig = rng.uniform(1e-6, 1 - 1e-6, size=1000)
        levels = ladder.as_array()[[ladder.assign(s) for s in sig.tolist()]]
        assert np.all(sig <= levels)

    def test_monotone_in_sigmoid(self):
        ladder = default_ladder(3)
        sig = np.sort(np.random.default_rng(1).uniform(0.001, 0.999, size=500))
        idx = [ladder.assign(s) for s in sig.tolist()]
        assert np.all(np.diff(idx) >= 0)

    @pytest.mark.parametrize("ladder", [RateLadder((1.0,)), TWO_LEVEL, default_ladder(3)])
    def test_bisect_matches_searchsorted(self, ladder):
        # at each scaled level (0.225, 0.45 and 0.9 on the three-level
        # ladder), the floats either side of it, 0, 1 and NaN: bisect gives
        # NaN index 0 and searchsorted the top, which assign must give
        scaled = ladder.as_array() * SLACK
        values = [0.0, 1.0, float("nan")] + [
            float(v) for s in scaled for v in (np.nextafter(s, 0.0), s, np.nextafter(s, 1.0))
        ]
        for v in values:
            got = ladder.assign(v)
            assert type(got) is int
            assert got == assign_rate_searchsorted(v, ladder), v
        assert ladder.assign(float("nan")) == ladder.n_levels - 1


class TestThinnedProb:
    def test_zero_function_value(self):
        assert thinned_prob(0.0, 1.0) == pytest.approx(1.0)

    def test_half_of_level(self):
        assert thinned_prob(0.25, 0.5) == pytest.approx(0.5)

    def test_boundary(self):
        assert thinned_prob(0.5, 0.5) == pytest.approx(0.0)

    def test_rejects_sigmoid_above_level(self):
        with pytest.raises(ValidationError):
            thinned_prob(0.6, 0.5)


class TestAcceptRatios:
    def test_insert_hand_value(self):
        # (0.5 * 1 * 4 * 0.5 * 0.5) / (1 * 0.5) = 1.0
        a = accept_insert(0, 1.0, 4.0, 0.5, 0.25, b=0.5)
        assert a == pytest.approx(1.0)

    def test_insert_single_rate_hand_value(self):
        # M=0, volume 1, bound 2, g=0: classic ratio equals 1
        a = accept_insert(0, 1.0, 2.0, 1.0, _sigmoid(0.0), b=0.5)
        assert a == pytest.approx(1.0)

    def test_delete_single_rate_hand_value(self):
        a = accept_delete(1, 1.0, 2.0, 1.0, _sigmoid(0.0), b=0.5)
        assert a == pytest.approx(1.0)

    def test_zero_bound_never_inserts(self):
        assert accept_insert(3, 1.0, 0.0, 0.5, 0.1) == 0.0

    def test_delete_at_level_boundary_is_certain(self):
        assert accept_delete(2, 1.0, 5.0, 0.5, 0.5) == np.inf

    def test_reciprocal_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = int(rng.integers(0, 10))
            vol = rng.uniform(0.5, 3.0)
            lam = rng.uniform(0.5, 20.0)
            lvl = rng.choice([0.25, 0.5, 1.0])
            sig = rng.uniform(0, lvl * 0.99)
            a_ins = accept_insert(m, vol, lam, lvl, sig, b=0.5)
            a_del = accept_delete(m + 1, vol, lam, lvl, sig, b=0.5)
            assert a_ins * a_del == pytest.approx(1.0, rel=1e-12)

    def test_move_hand_value(self):
        # old at level 1 with sigmoid 0.6, new at level 0.5 with sigmoid 0.2
        a = accept_move(1.0, 0.6, 0.5, 0.2)
        assert a == pytest.approx(0.75)

    def test_move_equal_sites(self):
        assert accept_move(1.0, 0.3, 1.0, 0.3) == pytest.approx(1.0)


class TestSingleLevelReduction:
    """With a one-level ladder every ratio collapses to the classic form."""

    def test_identities_on_randomized_states(self):
        ladder = RateLadder((1.0,))
        rng = np.random.default_rng(3)
        for _ in range(1000):
            m = int(rng.integers(0, 20))
            vol = rng.uniform(0.2, 4.0)
            lam = rng.uniform(0.1, 50.0)
            g = rng.normal(0, 2)
            b = rng.uniform(0.2, 0.8)
            sig = _sigmoid(g)
            assert accept_insert(m, vol, lam, 1.0, sig, b) == pytest.approx(
                _single_rate_insert(m, vol, lam, g, b), rel=1e-12
            )
            if m >= 1:
                assert accept_delete(m, vol, lam, 1.0, sig, b) == pytest.approx(
                    _single_rate_delete(m, vol, lam, g, b), rel=1e-12
                )
            g2 = rng.normal(0, 2)
            assert accept_move(1.0, sig, 1.0, _sigmoid(g2)) == pytest.approx(
                _single_rate_move(g, g2), rel=1e-12
            )
            k = int(rng.integers(0, 15))
            total = estimate_total(np.zeros(k, int), np.zeros(m, int), ladder)
            assert total == pytest.approx(k + m, rel=1e-14)


class TestEstimateTotal:
    def test_hand_value(self):
        ladder = TWO_LEVEL
        data_idx = np.array([1, 1])  # two observed points at level 1
        thin_idx = np.array([0, 0, 0, 0])  # four thinned at level 0.5
        assert estimate_total(data_idx, thin_idx, ladder) == pytest.approx(10.0)

    def test_single_level_is_plain_count(self):
        ladder = RateLadder((1.0,))
        assert estimate_total(np.zeros(3, int), np.zeros(2, int), ladder) == pytest.approx(5.0)

    def test_empty(self):
        assert estimate_total([], [], TWO_LEVEL) == 0.0

    def test_rejects_bad_index(self):
        with pytest.raises(ValidationError):
            estimate_total([2], [], TWO_LEVEL)

    def test_unbiased_for_level_scaled_sampling(self):
        # two fixed-level zones; points drawn at level-scaled densities
        rng = np.random.default_rng(4)
        lam, width_low = 40.0, 0.6
        totals = np.empty(10_000)
        for i in range(totals.size):
            n_low = rng.poisson(lam * 0.5 * width_low)
            n_high = rng.poisson(lam * 1.0 * (1 - width_low))
            totals[i] = estimate_total(
                np.zeros(0, int),
                np.concatenate([np.zeros(n_low, int), np.ones(n_high, int)]),
                TWO_LEVEL,
            )
        assert abs(totals.mean() - lam) / lam < 0.02
