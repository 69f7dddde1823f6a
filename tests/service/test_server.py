"""End-to-end tests of the clustering service request loop.

The load-bearing invariants:

* every request terminates in exactly one of {exact, degraded-flagged,
  typed rejection} — never an unhandled exception;
* exact responses (cache-served or not) are bit-identical to a direct
  ``HybridDBSCAN.fit`` on that epoch's points;
* degraded responses always carry their flag (``stale`` or
  ``sample_fraction``);
* the whole loop is deterministic per seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HybridDBSCAN
from repro.gpusim import FaultInjector, FaultSpec, derive_seed
from repro.service import (
    AdmissionConfig,
    ClusteringService,
    Request,
    ServeConfig,
    make_trace,
)

# module-level fixed datasets: hypothesis @given does not mix with
# function-scoped fixtures, and fixed data keeps examples reproducible
_PTS_A = np.random.default_rng(42).normal(size=(160, 2)) * (2.0, 1.0)
_PTS_B = np.random.default_rng(43).normal(size=(160, 2)) * (1.0, 2.0)


def _svc(**kw) -> ClusteringService:
    svc = ClusteringService(ServeConfig(**kw))
    svc.register_dataset("ds", _PTS_A)
    return svc


def _transfer_faults_first_attempt(request, slot, attempt):
    # times=None: persistent within the attempt, so the batch layer's
    # own transfer retry cannot absorb it — the service layer must
    if attempt == 0:
        return FaultInjector(
            [FaultSpec("transfer", times=None)],
            seed=derive_seed(99, request.seq),
        )
    return None


class TestExactPaths:
    def test_miss_is_bit_identical_to_direct_fit(self):
        svc = _svc()
        r = svc.submit(Request("ds", eps=0.5, minpts=4, seq=0))
        assert r.status == "exact" and r.cache == "miss"
        direct = HybridDBSCAN().fit(_PTS_A, 0.5, 4)
        assert np.array_equal(r.labels, direct.labels)

    def test_label_hit_and_table_hit(self):
        svc = _svc()
        svc.submit(Request("ds", eps=0.5, minpts=4, arrival_ms=0.0, seq=0))
        r2 = svc.submit(
            Request("ds", eps=0.5, minpts=4, arrival_ms=1000.0, seq=1)
        )
        assert r2.cache == "label_hit" and r2.status == "exact"
        r3 = svc.submit(
            Request("ds", eps=0.5, minpts=9, arrival_ms=2000.0, seq=2)
        )
        assert r3.cache == "table_hit" and r3.status == "exact"
        direct = HybridDBSCAN().fit(_PTS_A, 0.5, 9)
        assert np.array_equal(r3.labels, direct.labels)

    def test_epoch_bump_forces_fresh_build(self):
        svc = _svc()
        svc.submit(Request("ds", eps=0.5, minpts=4, arrival_ms=0.0, seq=0))
        svc.bump_epoch("ds", _PTS_B)
        r = svc.submit(
            Request("ds", eps=0.5, minpts=4, arrival_ms=1000.0, seq=1)
        )
        assert r.cache == "miss" and r.epoch == 1
        direct = HybridDBSCAN().fit(_PTS_B, 0.5, 4)
        assert np.array_equal(r.labels, direct.labels)


class TestPinnedStaging:
    def test_second_miss_borrows_the_services_staging(self, monkeypatch):
        """Two misses at one ε across an epoch bump: each attempt runs on
        a fresh device, but both borrow the service's pinned pool, so
        only the first maps staging and the second is charged none."""
        svc = _svc()
        made = []
        make = svc._make_device

        def recording(**kwargs):
            made.append(make(**kwargs))
            return made[-1]

        monkeypatch.setattr(svc, "_make_device", recording)
        first = svc.submit(Request("ds", eps=0.5, minpts=4, arrival_ms=0.0, seq=0))
        svc.bump_epoch("ds")
        second = svc.submit(
            Request("ds", eps=0.5, minpts=4, arrival_ms=1000.0, seq=1)
        )
        assert [r.cache for r in (first, second)] == ["miss", "miss"]
        assert [r.status for r in (first, second)] == ["exact", "exact"]
        assert len(made) == 2 and made[0] is not made[1]
        assert all(d.pinned is svc.pinned for d in made)
        charged = made[0].profiler.pinned_alloc_ms
        assert charged > 0
        assert made[1].profiler.pinned_alloc_ms == 0
        assert second.exec_ms == pytest.approx(first.exec_ms - charged, rel=1e-9)
        assert np.array_equal(second.labels, first.labels)
        assert svc.pinned.live_count == 0


class TestTypedRejections:
    def test_unknown_dataset(self):
        svc = _svc()
        r = svc.submit(Request("nope", eps=0.5, minpts=4, seq=0))
        assert r.rejected and r.error == "unknown_dataset"

    def test_queue_wait_past_deadline(self):
        # one worker, deep queue of slow requests, then a tight deadline
        svc = _svc(
            n_workers=1,
            admission=AdmissionConfig(max_queue=32, per_tenant_inflight=64),
        )
        for i, eps in enumerate((0.3, 0.4, 0.5, 0.6)):
            svc.submit(Request("ds", eps=eps, minpts=4, arrival_ms=0.0, seq=i))
        r = svc.submit(
            Request(
                "ds", eps=0.7, minpts=4, deadline_ms=1e-6,
                arrival_ms=0.0, seq=9,
            )
        )
        assert r.rejected and r.error == "deadline_exceeded"
        assert r.labels is None

    def test_queue_full_sheds(self):
        svc = _svc(
            n_workers=1,
            admission=AdmissionConfig(max_queue=1, per_tenant_inflight=64),
        )
        responses = [
            svc.submit(
                Request("ds", eps=0.3 + 0.01 * i, minpts=4,
                        arrival_ms=0.0, seq=i)
            )
            for i in range(6)
        ]
        codes = [r.error for r in responses if r.rejected]
        assert "overloaded" in codes

    def test_degradation_disabled_rejects_on_overload_hint(self):
        svc = _svc(
            n_workers=1,
            admission=AdmissionConfig(max_queue=8, high_water=0.25),
            degrade=False,
        )
        responses = [
            svc.submit(
                Request("ds", eps=0.3 + 0.01 * i, minpts=4,
                        arrival_ms=0.0, seq=i)
            )
            for i in range(8)
        ]
        assert any(r.rejected and r.error == "overloaded" for r in responses)


class TestRetryAndBreaker:
    def test_transient_fault_retried_to_exact(self):
        svc = _svc(fault_factory=_transfer_faults_first_attempt)
        r = svc.submit(Request("ds", eps=0.5, minpts=4, seq=0))
        assert r.status == "exact" and r.attempts == 2 and r.backoff_ms > 0
        direct = HybridDBSCAN().fit(_PTS_A, 0.5, 4)
        assert np.array_equal(r.labels, direct.labels)

    def test_fatal_fault_rejects_typed(self, monkeypatch):
        # fatal = non-device exception (classify_fault -> "fatal"):
        # no retry, no degraded fallback — typed rejection
        import repro.service.server as server_mod

        class Broken(HybridDBSCAN):
            def build_table(self, *a, **kw):
                raise ValueError("poisoned build")

        monkeypatch.setattr(server_mod, "HybridDBSCAN", Broken)
        svc = _svc()
        r = svc.submit(Request("ds", eps=0.5, minpts=4, seq=0))
        assert r.rejected and r.error == "execution_failed"
        assert "poisoned build" in r.error_detail
        assert r.attempts == 1  # fatal faults are not retried

    def test_sick_slot_quarantined_work_retargets(self):
        def slot0_sick(request, slot, attempt):
            if slot == 0:
                return FaultInjector(
                    [FaultSpec("transfer", times=None)],
                    seed=derive_seed(1, request.seq, attempt),
                )
            return None

        svc = _svc(fault_factory=slot0_sick, n_device_slots=2)
        # each miss tries the least-used slot 0 first, fails there and
        # retries on slot 1; the third failure in a row trips slot 0
        for seq, eps in enumerate((0.5, 0.6, 0.7)):
            assert svc.breaker.trips == 0
            r = svc.submit(
                Request("ds", eps=eps, minpts=4, arrival_ms=20.0 * seq, seq=seq)
            )
            assert r.status == "exact" and r.attempts == 2
        assert svc.breaker.trips == 1
        # slot 0 is quarantined: the next miss goes straight to slot 1
        r4 = svc.submit(
            Request("ds", eps=0.8, minpts=4, arrival_ms=60.0, seq=3)
        )
        assert r4.status == "exact"
        assert r4.attempts == 1 and r4.device_slot == 1

    def test_retries_exhausted_falls_back_to_sampled(self):
        def always(request, slot, attempt):
            return FaultInjector(
                [FaultSpec("transfer", times=None)],
                seed=derive_seed(2, request.seq, attempt),
            )

        svc = _svc(fault_factory=always)
        r = svc.submit(Request("ds", eps=0.5, minpts=4, seq=0))
        assert r.degraded and r.sample_fraction > 0 and not r.stale
        assert r.labels is not None and len(r.labels) == len(_PTS_A)

    def test_retries_exhausted_prefers_stale(self):
        def always(request, slot, attempt):
            return FaultInjector(
                [FaultSpec("transfer", times=None)],
                seed=derive_seed(3, request.seq, attempt),
            )

        svc = _svc()
        svc.submit(Request("ds", eps=0.5, minpts=4, arrival_ms=0.0, seq=0))
        svc.bump_epoch("ds")
        svc.config = ServeConfig(fault_factory=always)
        r = svc.submit(
            Request("ds", eps=0.5, minpts=4, arrival_ms=1000.0, seq=1)
        )
        assert r.degraded and r.stale and r.epoch == 0
        assert r.sample_fraction == 0


class TestDeterminism:
    def test_same_seed_same_trace_same_outcomes(self):
        def run():
            svc = _svc(
                seed=5, fault_factory=_transfer_faults_first_attempt,
                admission=AdmissionConfig(max_queue=4),
            )
            trace = make_trace(
                "ds", n_requests=20, eps_choices=[0.4, 0.6],
                minpts_choices=[4, 8], mean_interarrival_ms=0.5,
                deadline_ms=30.0, n_tenants=2, bump_every=7, seed=5,
            )
            res = svc.run_trace(trace)
            return [
                (r.status, r.error, r.cache, r.attempts,
                 round(r.latency_ms, 9))
                for r in res.responses
            ]

        assert run() == run()


class TestProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("req"), st.integers(0, 1), st.integers(0, 1)
                ),
                st.just(("bump",)),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_cache_served_bit_identical_across_invalidations(self, ops):
        """Any interleaving of requests and epoch bumps: every exact
        response equals a direct fit on that epoch's points — cache hits
        included."""
        svc = ClusteringService(
            ServeConfig(
                admission=AdmissionConfig(
                    max_queue=64, per_tenant_inflight=64
                )
            )
        )
        svc.register_dataset("ds", _PTS_A)
        points_by_epoch = {0: _PTS_A}
        epoch = 0
        t, seq = 0.0, 0
        direct: dict = {}
        for op in ops:
            t += 1000.0  # generous spacing: no overload in this property
            if op[0] == "bump":
                pts = _PTS_B if epoch % 2 == 0 else _PTS_A
                epoch = svc.bump_epoch("ds", pts)
                points_by_epoch[epoch] = pts
                continue
            eps = (0.4, 0.6)[op[1]]
            minpts = (4, 8)[op[2]]
            r = svc.submit(
                Request("ds", eps=eps, minpts=minpts, arrival_ms=t, seq=seq)
            )
            seq += 1
            assert r.status == "exact", (r.status, r.error_detail)
            key = (r.epoch, eps, minpts)
            if key not in direct:
                direct[key] = HybridDBSCAN().fit(
                    points_by_epoch[r.epoch], eps, minpts
                ).labels
            assert np.array_equal(r.labels, direct[key])

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_every_request_terminates_in_one_flagged_bucket(self, seed):
        """Under faults, bumps, and deadlines: no unhandled exceptions,
        and each response is exactly one of exact / degraded-flagged /
        typed-rejected."""

        def faults(request, slot, attempt):
            if request.seq % 3 == 0:
                return FaultInjector(
                    [FaultSpec("transfer", times=None)],
                    seed=derive_seed(seed, request.seq, attempt),
                )
            return None

        svc = ClusteringService(
            ServeConfig(
                seed=seed,
                fault_factory=faults,
                admission=AdmissionConfig(max_queue=3),
            )
        )
        svc.register_dataset("ds", _PTS_A)
        trace = make_trace(
            "ds", n_requests=14, eps_choices=[0.4, 0.6],
            minpts_choices=[4, 8], mean_interarrival_ms=0.5,
            deadline_ms=20.0, n_tenants=2, bump_every=5, seed=seed,
        )
        res = svc.run_trace(trace)
        assert len(res.responses) == 14
        for r in res.responses:
            assert r.status in ("exact", "degraded", "rejected")
            if r.rejected:
                assert r.error is not None and r.labels is None
            else:
                assert r.error is None and r.labels is not None
            if r.degraded:
                assert r.stale or r.sample_fraction > 0
            if r.status == "exact":
                assert not r.stale and r.sample_fraction == 0


class TestAccounting:
    def test_trace_result_dict(self):
        svc = _svc()
        trace = make_trace(
            "ds", n_requests=6, eps_choices=[0.5], minpts_choices=[4, 8],
            mean_interarrival_ms=100.0, seed=0,
        )
        res = svc.run_trace(trace)
        d = res.as_dict(with_responses=True)
        assert d["requests"] == 6
        assert d["exact"] == 6
        assert d["cache_hit_rate"] > 0  # repeated (epoch, eps) queries hit
        assert len(d["responses"]) == 6
        assert d["latency_p95_ms"] >= d["latency_p50_ms"]
