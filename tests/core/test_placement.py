"""Tests for the multi-device placement layer (DESIGN.md §13).

Covers the locality placer, the collective halo-exchange model, the
halo merger's bit-identity with the whole-dataset ``fit``, and the
sharded executor at every device count — including placement ×
fault-injection runs whose labels must stay bit-identical to the
fault-free single-device path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    HybridDBSCAN,
    ShardConfig,
    cluster_sharded,
    collective_exchange,
    place_shards,
)
from repro.core.placement import IncrementalMerger, _optimal_contiguous_cuts
from repro.core.sharding import (
    make_shard_fault_factory,
    merge_shard_labels,
    plan_shards,
    run_shard,
)
from repro.gpusim import Device, FaultSpec


def _reference_labels(points, eps, minpts):
    return HybridDBSCAN().fit(points, eps, minpts).labels


def _shard_locals(points, eps, minpts, grid=(3, 3)):
    plan = plan_shards(
        points, eps, config=ShardConfig(shards_x=grid[0], shards_y=grid[1])
    )
    out = []
    for shard in plan.shards:
        device = Device()
        out.append(run_shard(plan, shard, minpts, device))
        device.close()
    return plan, out


class TestPlacer:
    def test_single_device_all_zero(self, uniform_points):
        plan = plan_shards(uniform_points, 0.3)
        p = place_shards(plan, 1)
        assert set(p.assignment.tolist()) == {0}
        assert p.n_used == 1

    def test_every_shard_assigned_exactly_one_device(self, uniform_points):
        plan = plan_shards(
            uniform_points, 0.3, config=ShardConfig(shards_x=4, shards_y=4)
        )
        for strat in ("locality", "round-robin"):
            p = place_shards(plan, 3, strat)
            assert len(p.assignment) == len(plan.shards)
            assert ((p.assignment >= 0) & (p.assignment < 3)).all()

    def test_locality_segments_are_curve_contiguous(self, uniform_points):
        """Locality assignment is monotone along the boustrophedon
        curve — each device owns one contiguous (hence connected)
        segment of adjacent tiles."""
        plan = plan_shards(
            uniform_points, 0.25, config=ShardConfig(shards_x=4, shards_y=4)
        )
        p = place_shards(plan, 3, "locality")
        along_curve = [int(p.assignment[i]) for i in p.curve]
        assert along_curve == sorted(along_curve)

    def test_round_robin_scatters(self, uniform_points):
        plan = plan_shards(
            uniform_points, 0.3, config=ShardConfig(shards_x=3, shards_y=3)
        )
        p = place_shards(plan, 3, "round-robin")
        assert p.assignment.tolist() == [i % 3 for i in range(len(plan.shards))]

    def test_more_devices_than_shards(self, uniform_points):
        plan = plan_shards(uniform_points, 0.3)  # 2x2 -> <= 4 shards
        p = place_shards(plan, 16, "locality")
        assert p.n_used <= len(plan.shards)

    def test_validation(self, uniform_points):
        plan = plan_shards(uniform_points, 0.3)
        with pytest.raises(ValueError):
            place_shards(plan, 0)
        with pytest.raises(ValueError):
            place_shards(plan, 2, "random")
        with pytest.raises(ValueError):
            ShardConfig(n_devices=0)
        with pytest.raises(ValueError):
            ShardConfig(placement="scatter")

    @given(
        st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=80)
    def test_property_contiguous_cuts_optimal_bottleneck(self, ws, k):
        segs = _optimal_contiguous_cuts(ws, k)
        assert len(segs) == len(ws)
        assert segs == sorted(segs)  # contiguous, monotone segment ids
        assert segs[-1] < k
        loads = {}
        for s, w in zip(segs, ws):
            loads[s] = loads.get(s, 0) + w
        bottleneck = max(loads.values())
        # the bottleneck never beats the trivial lower bounds
        assert bottleneck >= max(ws)
        assert bottleneck >= -(-sum(ws) // k)
        # and is non-increasing when k grows (monotone refinement)
        segs2 = _optimal_contiguous_cuts(ws, k + 1)
        loads2 = {}
        for s, w in zip(segs2, ws):
            loads2[s] = loads2.get(s, 0) + w
        assert max(loads2.values()) <= bottleneck


class TestCollectiveExchange:
    def test_single_device_no_traffic(self, uniform_points):
        plan = plan_shards(
            uniform_points, 0.3, config=ShardConfig(shards_x=3, shards_y=3)
        )
        x = collective_exchange(plan, place_shards(plan, 1))
        assert x.collective_points == 0
        assert x.modeled_s() == 0.0
        # staged volume counts every shard's full halo regardless
        assert x.staged_points == sum(len(s.halo_ids) for s in plan.shards)

    def test_locality_beats_round_robin(self, uniform_points):
        plan = plan_shards(
            uniform_points, 0.25, config=ShardConfig(shards_x=4, shards_y=4)
        )
        loc = collective_exchange(plan, place_shards(plan, 4, "locality"))
        rr = collective_exchange(plan, place_shards(plan, 4, "round-robin"))
        assert loc.collective_points < rr.collective_points

    def test_collective_never_exceeds_staged(self, uniform_points):
        plan = plan_shards(
            uniform_points, 0.25, config=ShardConfig(shards_x=4, shards_y=4)
        )
        for d in (2, 3, 4):
            for strat in ("locality", "round-robin"):
                x = collective_exchange(plan, place_shards(plan, d, strat))
                assert x.collective_points <= x.staged_points
                assert np.diagonal(x.matrix).sum() == 0

    def test_modeled_time_validation(self, uniform_points):
        plan = plan_shards(uniform_points, 0.3)
        x = collective_exchange(plan, place_shards(plan, 2))
        with pytest.raises(ValueError):
            x.modeled_s(bandwidth_gbs=0)


class TestIncrementalMerger:
    def test_bit_identical_to_barrier_merge(self, blobs_points):
        """The merge of the shard reductions equals the whole-dataset
        ``fit`` labels, in plan (sorted) order."""
        eps, minpts = 0.5, 4
        plan, locals_ = _shard_locals(blobs_points, eps, minpts)
        ref = _reference_labels(blobs_points, eps, minpts)
        m = IncrementalMerger(plan.n_points)
        for lr in locals_:
            m.absorb(lr)
        np.testing.assert_array_equal(m.finalize(), ref[plan.sort_order])

    def test_order_independent(self, uniform_points):
        eps, minpts = 0.35, 4
        plan, locals_ = _shard_locals(uniform_points, eps, minpts)
        barrier = merge_shard_labels(plan.n_points, locals_)
        rng = np.random.default_rng(7)
        for _ in range(4):
            order = rng.permutation(len(locals_))
            m = IncrementalMerger(plan.n_points)
            for i in order:
                m.absorb(locals_[i])
            np.testing.assert_array_equal(m.finalize(), barrier)

    def test_empty(self):
        m = IncrementalMerger(5)
        assert (m.finalize() == -1).all()

    def test_absorb_after_finalize_rejected(self, uniform_points):
        plan, locals_ = _shard_locals(uniform_points, 0.35, 4, grid=(2, 2))
        m = IncrementalMerger(plan.n_points)
        m.finalize()
        with pytest.raises(RuntimeError):
            m.absorb(locals_[0])


class TestMultiDeviceExecutor:
    @pytest.mark.parametrize("n_devices", [2, 3, 4])
    @pytest.mark.parametrize("strategy", ["locality", "round-robin"])
    def test_labels_bit_identical(self, blobs_points, n_devices, strategy):
        eps, minpts = 0.5, 4
        ref = _reference_labels(blobs_points, eps, minpts)
        res = cluster_sharded(
            blobs_points,
            eps,
            minpts,
            config=ShardConfig(
                shards_x=3, shards_y=3, n_devices=n_devices, placement=strategy
            ),
        )
        np.testing.assert_array_equal(res.labels, ref)
        assert res.placement is not None
        assert res.device_schedule is not None
        assert res.device_schedule.n_devices == n_devices

    def test_multi_device_makespan_not_worse_than_single(self, blobs_points):
        eps, minpts = 0.5, 4
        one = cluster_sharded(
            blobs_points, eps, minpts,
            config=ShardConfig(shards_x=3, shards_y=3, n_devices=1),
        )
        # compare modeled schedules over the same measured build times:
        # replay the single-device run's events on more devices
        from repro.hostsim import schedule_devices

        durations = [e.shard_s for e in one.events]
        base = one.device_schedule.makespan_s
        for k in (2, 3):
            devs = [i % k for i in range(len(durations))]
            s = schedule_devices(durations, devs, [0.0] * len(durations),
                                 n_devices=k, finalize_s=one.merge_s)
            assert s.makespan_s <= base + 1e-9

    def test_device_lost_reschedules_onto_survivors(self, blobs_points):
        eps, minpts = 0.5, 4
        ref = _reference_labels(blobs_points, eps, minpts)
        ff = make_shard_fault_factory(
            [FaultSpec(kind="device_lost")], seed=11, tiles=[(0, 0)]
        )
        res = cluster_sharded(
            blobs_points,
            eps,
            minpts,
            config=ShardConfig(
                shards_x=3, shards_y=3, n_devices=3, fault_factory=ff
            ),
        )
        np.testing.assert_array_equal(res.labels, ref)
        assert len(res.lost_devices) == 1
        dead = res.lost_devices[0]
        # nothing runs on the dead device after the loss event
        seen_loss = False
        for e in res.events:
            if e.error.startswith("DeviceLostError"):
                seen_loss = True
                continue
            if seen_loss:
                assert e.device != dead
        assert seen_loss
        assert res.recovery.fallback_placements >= 1

    def test_oom_quad_split_on_device_queue(self, blobs_points):
        eps, minpts = 0.5, 4
        ref = _reference_labels(blobs_points, eps, minpts)
        ff = make_shard_fault_factory(
            [FaultSpec(kind="device_oom")], seed=5, tiles=[(1, 1)]
        )
        res = cluster_sharded(
            blobs_points,
            eps,
            minpts,
            config=ShardConfig(
                shards_x=3,
                shards_y=3,
                n_devices=2,
                device_mem_bytes=64 << 20,
                fault_factory=ff,
            ),
        )
        np.testing.assert_array_equal(res.labels, ref)
        assert res.recovery.shard_splits >= 1
        # children ran on the parent's device
        parent_dev = next(
            e.device for e in res.events if e.outcome == "split"
        )
        child_devs = {
            e.device for e in res.events if e.generation > 0
        }
        assert child_devs == {parent_dev}

    def test_empty_input_zero_task_schedule(self):
        res = cluster_sharded(np.empty((0, 2)), 0.3, 4)
        assert len(res.labels) == 0
        assert res.n_clusters == 0
        assert res.device_schedule.makespan_s == 0.0
        assert res.device_schedule.build_intervals == ()
        assert res.makespan_s == 0.0

    def test_empty_input_still_validates(self):
        with pytest.raises(ValueError):
            cluster_sharded(np.empty((0, 2)), -1.0, 4)
        with pytest.raises(ValueError):
            cluster_sharded(np.empty((0, 3, 2)), 0.3, 4)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        grid=st.sampled_from([(2, 2), (3, 2), (3, 3)]),
        n_devices=st.sampled_from([2, 3]),
        strategy=st.sampled_from(["locality", "round-robin"]),
        fault=st.sampled_from([None, "device_lost", "device_oom"]),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_identity_across_placement_and_faults(
        self, seed, grid, n_devices, strategy, fault
    ):
        """Placement × fault injection never changes the labels: every
        combination stays bit-identical to the fault-free single-device
        components path."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 8, size=(500, 2))
        eps, minpts = 0.4, 4
        ref = _reference_labels(pts, eps, minpts)
        ff = (
            make_shard_fault_factory(
                [FaultSpec(kind=fault)], seed=seed, tiles=[(0, 0)]
            )
            if fault
            else None
        )
        res = cluster_sharded(
            pts,
            eps,
            minpts,
            config=ShardConfig(
                shards_x=grid[0],
                shards_y=grid[1],
                n_devices=n_devices,
                placement=strategy,
                device_mem_bytes=64 << 20,
                fault_factory=ff,
            ),
        )
        np.testing.assert_array_equal(res.labels, ref)


class TestOneExecutor:
    """``cluster_sharded`` is one executor for every device count."""

    @pytest.mark.parametrize("n_devices", [1, 2, 4])
    def test_every_device_count_is_placed_and_scheduled(
        self, blobs_points, n_devices
    ):
        eps, minpts = 0.5, 4
        res = cluster_sharded(
            blobs_points,
            eps,
            minpts,
            config=ShardConfig(shards_x=3, shards_y=3, n_devices=n_devices),
        )
        ds = res.device_schedule
        assert res.makespan_s == ds.makespan_s
        assert ds.n_devices == n_devices
        # one build interval per attempt event, on the event's device
        assert [iv.worker for iv in ds.build_intervals] == [
            e.device for e in res.events
        ]
        assert res.placement.n_devices == n_devices
        assert len(res.placement.assignment) == res.plan.n_shards
        assert res.exchange.n_devices == n_devices
        np.testing.assert_array_equal(
            res.labels, _reference_labels(blobs_points, eps, minpts)
        )

    def test_lost_sole_device_retries_on_a_fresh_device(self, blobs_points):
        """With one device there is no survivor to reschedule onto: the
        lost device's shard retries on a fresh device 0, nothing is
        reported lost, and the makespan is the device schedule's."""
        eps, minpts = 0.5, 4
        ff = make_shard_fault_factory(
            [FaultSpec(kind="device_lost")], seed=11, tiles=[(0, 0)]
        )
        res = cluster_sharded(
            blobs_points,
            eps,
            minpts,
            config=ShardConfig(
                shards_x=3, shards_y=3, n_devices=1, fault_factory=ff
            ),
        )
        np.testing.assert_array_equal(
            res.labels, _reference_labels(blobs_points, eps, minpts)
        )
        assert res.recovery.fallback_placements == 1
        assert res.lost_devices == []
        assert {e.device for e in res.events} == {0}
        assert len(res.device_schedule.build_intervals) == len(res.events)
        assert res.makespan_s == res.device_schedule.makespan_s


class TestMakespanAccounting:
    def test_failed_attempts_occupy_workers(self, blobs_points):
        """Regression: a retried shard's failed attempt must appear in
        the modeled schedule — the schedule has one build per supervised
        attempt, not one per successful shard."""
        eps, minpts = 0.5, 4
        ff = make_shard_fault_factory(
            [FaultSpec(kind="device_lost")], seed=3, tiles=[(0, 0)]
        )
        res = cluster_sharded(
            blobs_points,
            eps,
            minpts,
            config=ShardConfig(shards_x=3, shards_y=3, fault_factory=ff),
        )
        assert res.recovery.fallback_placements >= 1
        builds = res.device_schedule.build_intervals
        assert len(builds) == len(res.events)
        assert len(res.events) > len(res.shard_stats)
        # the schedule's total busy time includes the wasted attempts
        busy = sum(iv.end - iv.start for iv in builds)
        assert busy == pytest.approx(sum(e.shard_s for e in res.events))
        assert busy > sum(s.shard_s for s in res.shard_stats)
