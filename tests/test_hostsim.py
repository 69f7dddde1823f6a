"""Tests for the simulated multicore host scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hostsim import schedule_devices, schedule_parallel, schedule_pipeline

durations_strategy = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), max_size=40
)


class TestScheduleParallel:
    def test_single_worker_is_serial(self):
        s = schedule_parallel([1.0, 2.0, 3.0], 1)
        assert s.makespan == s.busy == 6.0

    def test_perfect_split(self):
        s = schedule_parallel([1.0] * 8, 4)
        assert s.makespan == 2.0
        assert s.busy / s.makespan == 4.0

    def test_imbalanced_tail(self):
        # one long task dominates regardless of worker count
        s = schedule_parallel([10.0, 1.0, 1.0], 16)
        assert s.makespan == 10.0

    def test_in_order_dispatch(self):
        s = schedule_parallel([5.0, 1.0, 1.0], 2)
        # task 0 on w0; tasks 1, 2 share w1 -> makespan 5
        assert s.makespan == 5.0
        by_task = {iv.task: iv for iv in s.intervals}
        assert by_task[2].start == pytest.approx(1.0)

    def test_empty(self):
        assert schedule_parallel([], 4).makespan == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule_parallel([1.0], 0)
        with pytest.raises(ValueError):
            schedule_parallel([-1.0], 2)

    def test_utilization_bounds(self):
        s = schedule_parallel([1.0, 2.0, 3.0], 2)
        assert 0 < s.utilization <= 1

    @given(durations_strategy, st.integers(min_value=1, max_value=20))
    @settings(max_examples=80)
    def test_property_bounds(self, ds, n):
        """Makespan is between serial/n (perfect) and serial (worst),
        and at least the longest task."""
        s = schedule_parallel(ds, n)
        serial = sum(ds)
        longest = max(ds, default=0.0)
        assert s.makespan <= serial + 1e-9
        assert s.makespan >= serial / n - 1e-9
        assert s.makespan >= longest - 1e-9

    @given(durations_strategy)
    @settings(max_examples=40)
    def test_property_more_workers_never_slower(self, ds):
        prev = None
        for n in (1, 2, 4, 8):
            m = schedule_parallel(ds, n).makespan
            if prev is not None:
                assert m <= prev + 1e-9
            prev = m


class TestSchedulePipeline:
    def test_no_overlap_single_item(self):
        s = schedule_pipeline([2.0], [3.0], 1, queue_depth=1)
        assert s.makespan == 5.0

    def test_full_overlap_balanced(self):
        """With equal produce/consume costs, the steady state hides all
        but the pipeline fill — the paper's S2 design point."""
        n = 10
        s = schedule_pipeline([1.0] * n, [1.0] * n, 1, queue_depth=n)
        assert s.makespan == pytest.approx(n + 1.0)

    def test_producer_bound(self):
        s = schedule_pipeline([2.0] * 5, [0.1] * 5, 3, queue_depth=5)
        assert s.makespan == pytest.approx(10.0 + 0.1)

    def test_consumer_bound_extra_consumers_help(self):
        slow = schedule_pipeline([0.1] * 6, [3.0] * 6, 1, queue_depth=6)
        fast = schedule_pipeline([0.1] * 6, [3.0] * 6, 3, queue_depth=6)
        assert fast.makespan < slow.makespan

    def test_queue_depth_backpressure(self):
        """A bounded queue stalls the producer when consumers lag: at
        depth 1 the slow last build cannot start until item 1 is taken
        at 5.1, so it ends at 11.1 instead of 6.2."""
        ps, cs = [0.1, 0.1, 6.0], [5.0, 5.0, 0.1]
        free = schedule_pipeline(ps, cs, 1, queue_depth=3)
        bounded = schedule_pipeline(ps, cs, 1, queue_depth=1)
        assert free.makespan == pytest.approx(10.2)
        assert bounded.makespan == pytest.approx(11.2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            schedule_pipeline([1.0], [1.0, 2.0], 1, queue_depth=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule_pipeline([1.0], [1.0], 0, queue_depth=1)

    def test_queue_depth_zero_rejected(self):
        # depth 0 would index the consumer intervals before item i
        # exists — it is a deadlock, not a valid depth
        with pytest.raises(ValueError, match="queue_depth"):
            schedule_pipeline([1.0, 1.0], [1.0, 1.0], 1, queue_depth=0)
        with pytest.raises(ValueError, match="queue_depth"):
            schedule_pipeline([1.0], [1.0], 2, queue_depth=-1)

    def test_queue_depth_zero_rejected_in_pipeline_class(self):
        from repro.core import MultiClusterPipeline

        with pytest.raises(ValueError, match="queue_depth"):
            MultiClusterPipeline(queue_depth=0)

    def test_empty(self):
        assert schedule_pipeline([], [], 2, queue_depth=1).makespan == 0.0

    @given(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=25),
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=25),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=60)
    def test_property_bounds(self, ps, cs, n, depth):
        k = min(len(ps), len(cs))
        ps, cs = ps[:k], cs[:k]
        s = schedule_pipeline(ps, cs, n, queue_depth=depth)
        serial = sum(ps) + sum(cs)
        assert s.makespan <= serial + 1e-9
        # cannot beat either resource's total demand
        assert s.makespan >= sum(ps) - 1e-9
        assert s.makespan >= sum(cs) / n - 1e-9


def _intervals_disjoint(ivs):
    """Per-worker intervals never overlap (half-open)."""
    by_worker = {}
    for iv in ivs:
        by_worker.setdefault(iv.worker, []).append(iv)
    for group in by_worker.values():
        group.sort(key=lambda iv: iv.start)
        for a, b in zip(group, group[1:]):
            if a.end > b.start + 1e-9:
                return False
    return True


devices_case = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),  # build
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),  # merge
    ),
    max_size=30,
)


class TestScheduleDevices:
    def test_single_device_is_serial(self):
        s = schedule_devices(
            [1.0, 2.0, 3.0], [0, 0, 0], [0.5, 0.5, 0.5], n_devices=1
        )
        # builds back to back; merge increments hide behind later builds
        # except the last one
        assert s.build_makespan_s == 6.0
        assert s.makespan_s == pytest.approx(6.5)

    def test_two_devices_overlap(self):
        s = schedule_devices([2.0, 2.0], [0, 1], [0.0, 0.0], n_devices=2)
        assert s.makespan_s == pytest.approx(2.0)
        assert s.device_busy_s(0) == pytest.approx(2.0)
        assert s.device_busy_s(1) == pytest.approx(2.0)

    def test_merge_worker_is_serial_and_fifo(self):
        s = schedule_devices([1.0, 2.0], [0, 1], [5.0, 5.0], n_devices=2)
        by_task = {iv.task: iv for iv in s.merge_intervals}
        assert by_task[0].start == pytest.approx(1.0)
        # task 1's merge waits for the single merge worker, not just
        # its own build
        assert by_task[1].start == pytest.approx(6.0)
        assert s.makespan_s == pytest.approx(11.0)

    def test_exchange_prefix_and_finalize_tail(self):
        s = schedule_devices(
            [1.0], [0], [1.0], n_devices=1, exchange_s=0.5, finalize_s=0.25
        )
        assert s.build_intervals[0].start == pytest.approx(0.5)
        assert s.makespan_s == pytest.approx(0.5 + 1.0 + 1.0 + 0.25)

    def test_empty(self):
        s = schedule_devices([], [], [], n_devices=3)
        assert s.makespan_s == 0.0
        assert s.serial_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule_devices([1.0], [0], [0.0], n_devices=0)
        with pytest.raises(ValueError):
            schedule_devices([1.0], [2], [0.0], n_devices=2)
        with pytest.raises(ValueError):
            schedule_devices([-1.0], [0], [0.0], n_devices=1)
        with pytest.raises(ValueError):
            schedule_devices([1.0], [0, 1], [0.0], n_devices=2)
        with pytest.raises(ValueError):
            schedule_devices([1.0], [0], [1.0, 2.0], n_devices=1)
        with pytest.raises(ValueError):
            schedule_devices([1.0], [0], [0.0], n_devices=1, exchange_s=-1.0)

    @given(devices_case, st.integers(min_value=1, max_value=6))
    @settings(max_examples=80)
    def test_property_conservation_and_no_overlap(self, case, k):
        builds = [b for b, _ in case]
        merges = [m for _, m in case]
        devs = [i % k for i in range(len(case))]
        s = schedule_devices(builds, devs, merges, n_devices=k)
        # work conservation: serial_s is exactly the duration sum
        assert s.serial_s == pytest.approx(sum(builds) + sum(merges))
        # per-device build intervals never overlap; the single merge
        # worker's intervals never overlap
        assert _intervals_disjoint(s.build_intervals)
        assert _intervals_disjoint(s.merge_intervals)
        # every merge starts at/after its build completes
        ends = {iv.task: iv.end for iv in s.build_intervals}
        for iv in s.merge_intervals:
            assert iv.start >= ends[iv.task] - 1e-9

    @given(devices_case, st.integers(min_value=2, max_value=6))
    @settings(max_examples=60)
    def test_property_never_slower_than_one_device(self, case, k):
        """Any placement onto k devices beats (or ties) serializing
        everything onto one device — the overlapped-merge guarantee."""
        builds = [b for b, _ in case]
        merges = [m for _, m in case]
        one = schedule_devices(
            builds, [0] * len(case), merges, n_devices=1
        )
        for devs in (
            [i % k for i in range(len(case))],  # round-robin
            [min(i * k // max(len(case), 1), k - 1) for i in range(len(case))],
        ):  # contiguous
            s = schedule_devices(builds, devs, merges, n_devices=k)
            assert s.makespan_s <= one.makespan_s + 1e-9

    @given(devices_case)
    @settings(max_examples=40)
    def test_property_makespan_lower_bounds(self, case):
        builds = [b for b, _ in case]
        merges = [m for _, m in case]
        k = 3
        devs = [i % k for i in range(len(case))]
        s = schedule_devices(builds, devs, merges, n_devices=k)
        # cannot beat the busiest device or the merge worker's demand
        for d in range(k):
            assert s.makespan_s >= s.device_busy_s(d) - 1e-9
        assert s.makespan_s >= sum(merges) - 1e-9


class TestSchedulerAgreement:
    """The three schedulers are bookings on one clock, so their special
    cases must coincide."""

    @given(
        durations_strategy,
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60)
    def test_pipeline_without_production_is_parallel(self, cs, n, extra):
        # nothing to produce and a queue deep enough to never stall
        pipe = schedule_pipeline(
            [0.0] * len(cs), cs, n, queue_depth=max(1, len(cs) + extra)
        )
        par = schedule_parallel(cs, n)
        assert pipe.makespan == par.makespan
        assert pipe.intervals == par.intervals

    @given(
        durations_strategy,
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_one_device_without_merges_is_serial(self, builds, xs, fs):
        s = schedule_devices(
            builds,
            [0] * len(builds),
            [0.0] * len(builds),
            n_devices=1,
            exchange_s=xs,
            finalize_s=fs,
        )
        assert s.makespan_s == pytest.approx(xs + sum(builds) + fs)


class TestEndToEndModes:
    def test_reuse_simulate_speedup_monotone(self, blobs_points):
        """One run's measured per-variant times, scheduled on 1, 4 and
        16 workers: comparing three separately timed runs would race
        their wall clocks."""
        from repro.core import cluster_with_reuse

        r = cluster_with_reuse(
            blobs_points, 0.5, list(range(2, 18)), n_threads=4
        )
        times = [o.dbscan_s for o in r.outcomes]
        assert r.cluster_s == schedule_parallel(times, 4).makespan
        prev = None
        for nt in (1, 4, 16):
            makespan = schedule_parallel(times, nt).makespan
            if prev is not None:
                assert makespan <= prev + 1e-9
            prev = makespan

    def test_pipeline_simulate_not_slower_than_serial(self, blobs_points):
        from repro.core import MultiClusterPipeline, VariantSet

        vs = VariantSet.eps_sweep([0.3, 0.4, 0.5, 0.6])
        pipe = MultiClusterPipeline()
        seq = pipe.run(blobs_points, vs, pipelined=False)
        par = pipe.run(blobs_points, vs, pipelined=True)
        # modeled pipelined makespan cannot exceed its own serial parts
        assert par.total_s <= par.sum_build_s + par.sum_dbscan_s + 1e-9


class TestWorkerPool:
    def test_quotes_now_when_idle(self):
        from repro.hostsim import WorkerPool

        pool = WorkerPool(2)
        assert pool.peek_start(5.0) == 5.0

    def test_queues_when_saturated(self):
        from repro.hostsim import WorkerPool

        pool = WorkerPool(1)
        w0 = pool.commit(0.0, 10.0)
        assert w0 == 0
        # worker busy until 10: arrival at 3 queues until then
        assert pool.peek_start(3.0) == 10.0
        pool.commit(10.0, 5.0)
        assert pool.peek_start(3.0) == 15.0

    def test_two_workers_interleave(self):
        from repro.hostsim import WorkerPool

        pool = WorkerPool(2)
        pool.commit(0.0, 10.0)
        assert pool.peek_start(1.0) == 1.0  # second worker free
        pool.commit(1.0, 10.0)
        assert pool.peek_start(2.0) == 10.0  # both busy now

    def test_commit_validates(self):
        from repro.hostsim import WorkerPool

        pool = WorkerPool(1)
        with pytest.raises(ValueError):
            pool.commit(0.0, -1.0)
        pool.commit(5.0, 1.0)
        with pytest.raises(ValueError):
            pool.commit(4.0, 1.0)  # before the quoted free instant

    def test_accounting(self):
        from repro.hostsim import WorkerPool

        pool = WorkerPool(2)
        pool.commit(0.0, 4.0)
        pool.commit(0.0, 8.0)
        assert pool.busy == pytest.approx(12.0)
        assert pool.makespan == pytest.approx(8.0)
        assert pool.utilization == pytest.approx(12.0 / 16.0)

    def test_pinned_booking(self):
        from repro.hostsim import WorkerPool

        pool = WorkerPool(2)
        assert pool.commit(0.0, 4.0, worker=1) == 1
        assert pool.peek_start(0.0, 1) == 4.0
        # unpinned work still goes to the earliest-free worker
        assert pool.peek_start(0.0) == 0.0
        assert pool.commit(0.0, 1.0) == 0
        for bad in (-1, 2):
            with pytest.raises(ValueError, match="worker"):
                pool.peek_start(0.0, bad)
            with pytest.raises(ValueError, match="worker"):
                pool.commit(5.0, 1.0, worker=bad)
        assert len(pool.intervals) == 2
