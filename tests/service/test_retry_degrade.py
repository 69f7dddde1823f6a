"""Tests for retry/backoff, circuit breaking, and degradation policy."""

import numpy as np
import pytest

from repro.core import HybridDBSCAN
from repro.core.table_dbscan import NOISE
from repro.service import (
    CircuitBreaker,
    CostTracker,
    backoff_ms,
    choose_mode,
    sampled_labels,
)
from repro.service.degrade import SAMPLE_FRACTION


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        # one seed, one jitter draw: the steps differ by the multiplier
        first = backoff_ms(1, np.random.default_rng(0))
        assert backoff_ms(2, np.random.default_rng(0)) == pytest.approx(2 * first)
        assert backoff_ms(3, np.random.default_rng(0)) == pytest.approx(4 * first)

    def test_jitter_bounded_and_seeded(self):
        a = [backoff_ms(1, np.random.default_rng(7)) for _ in range(3)]
        assert a[0] == a[1] == a[2]  # same seed, same draw
        assert 5.0 <= a[0] <= 7.5

    def test_validation(self):
        with pytest.raises(ValueError):
            backoff_ms(0, np.random.default_rng(0))


class TestCircuitBreaker:
    def test_trips_after_threshold_and_cools_down(self):
        br = CircuitBreaker(n_slots=1)
        assert not br.record_failure(0, 10.0)
        assert not br.record_failure(0, 15.0)
        assert br.record_failure(0, 20.0)  # third in a row trips
        assert not br.allowed(0, 50.0)
        assert br.healthy_slots(50.0) == []
        assert br.allowed(0, 270.0)  # 250 ms cooldown expired
        assert br.trips == 1

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(n_slots=1)
        br.record_failure(0, 0.0)
        br.record_failure(0, 0.5)
        br.record_success(0)
        assert not br.record_failure(0, 1.0)  # streak restarted
        assert not br.record_failure(0, 1.5)

    def test_slots_independent(self):
        br = CircuitBreaker(n_slots=2)
        for t in (0.0, 1.0, 2.0):
            br.record_failure(0, t)
        assert br.healthy_slots(10.0) == [1]


class TestChooseMode:
    def test_exact_when_healthy(self):
        d = choose_mode(
            degrade=True, budget_ms=None, estimate_ms=None,
            overloaded=False, stale_available=False,
        )
        assert d.mode == "exact"

    def test_no_history_is_optimistic(self):
        # estimate None (no EWMA yet) must not trigger deadline shedding
        d = choose_mode(
            degrade=True, budget_ms=1.0, estimate_ms=None,
            overloaded=False, stale_available=False,
        )
        assert d.mode == "exact"

    def test_overload_prefers_stale_then_sampled(self):
        assert choose_mode(
            degrade=True, budget_ms=None, estimate_ms=None,
            overloaded=True, stale_available=True,
        ).mode == "stale"
        d = choose_mode(
            degrade=True, budget_ms=None, estimate_ms=None,
            overloaded=True, stale_available=False,
        )
        assert d.mode == "sampled"
        assert d.sample_fraction == SAMPLE_FRACTION

    def test_deadline_tight_shrinks_fraction(self):
        d = choose_mode(
            degrade=True, budget_ms=10.0, estimate_ms=100.0,
            overloaded=False, stale_available=False,
        )
        assert d.mode == "sampled"
        assert d.sample_fraction == pytest.approx(0.1)  # 10/100
        tiny = choose_mode(
            degrade=True, budget_ms=1.0, estimate_ms=10_000.0,
            overloaded=False, stale_available=False,
        )
        assert tiny.sample_fraction == pytest.approx(0.05)  # floored

    def test_disabled_rejects(self):
        d = choose_mode(
            degrade=False, budget_ms=None, estimate_ms=None,
            overloaded=True, stale_available=True,
        )
        assert d.mode == "reject" and d.reason


class TestCostTracker:
    def test_ewma_and_estimate(self):
        t = CostTracker()
        assert t.estimate_ms("ds", 100) is None
        t.observe("ds", 100, 10.0)  # 0.1 ms/point
        assert t.estimate_ms("ds", 200) == pytest.approx(20.0)
        t.observe("ds", 100, 30.0)  # ewma -> 0.2 ms/point
        assert t.estimate_ms("ds", 100) == pytest.approx(20.0)


class TestSampledLabels:
    def test_full_length_and_flagged_noise(self, blobs_points):
        labels, n_sampled = sampled_labels(
            blobs_points, 0.5, 4, 0.25, hybrid=HybridDBSCAN()
        )
        assert len(labels) == len(blobs_points)
        assert 0 < n_sampled < len(blobs_points)
        assert (labels != NOISE).sum() <= n_sampled

    def test_fraction_one_matches_exact(self, blobs_points):
        labels, n_sampled = sampled_labels(
            blobs_points, 0.5, 4, 1.0, hybrid=HybridDBSCAN()
        )
        assert n_sampled == len(blobs_points)
        direct = HybridDBSCAN().fit(blobs_points, 0.5, 4)
        assert np.array_equal(labels, direct.labels)
