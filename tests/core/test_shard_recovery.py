"""Shard-level fault recovery: quad-split halo invariants, the
supervised attempt loop (retry / split / fallback placement), recovery
accounting without double counting, and bit-identical labels under
injected wholesale faults."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchConfig,
    HybridDBSCAN,
    ShardConfig,
    ShardFailureError,
    cluster_sharded,
    make_shard_fault_factory,
    plan_shards,
    quad_split_shard,
)
from repro.core import sharding as sharding_mod
from repro.core.sharding import _global_cell_coords, exchange_halos
from repro.gpusim import DeviceMemoryError, FaultSpec, PinnedMemoryPool


def _pts(seed, n=220, spread=1.0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 2)) * spread


def _reference(pts, eps, minpts):
    return HybridDBSCAN().fit(pts, eps, minpts).labels


def _oom_on(*tiles, seed=0, **spec_kw):
    return make_shard_fault_factory(
        [FaultSpec("device_oom", **spec_kw)], seed=seed, tiles=tiles
    )


def _loss_on(*tiles, seed=0, **spec_kw):
    return make_shard_fault_factory(
        [FaultSpec("device_lost", **spec_kw)], seed=seed, tiles=tiles
    )


# ----------------------------------------------------------------------
# quad-split: the ε-aligned tile bisection and its halo invariants
# ----------------------------------------------------------------------
class TestQuadSplit:
    def _plan(self, seed=0, eps=0.08, grid=(2, 2), n=220):
        return plan_shards(
            _pts(seed, n=n), eps,
            ShardConfig(shards_x=grid[0], shards_y=grid[1]),
        )

    def test_children_partition_parent_interior(self):
        plan = self._plan()
        for shard in plan.shards:
            children = quad_split_shard(plan, shard)
            if not children:
                continue
            got = np.concatenate([c.interior_ids for c in children])
            assert sorted(got.tolist()) == sorted(shard.interior_ids.tolist())
            # interiors are pairwise disjoint
            assert len(got) == len(set(got.tolist()))

    def test_children_are_eps_aligned_subtiles(self):
        plan = self._plan()
        for shard in plan.shards:
            for c in quad_split_shard(plan, shard):
                assert shard.cx0 <= c.cx0 < c.cx1 <= shard.cx1
                assert shard.cy0 <= c.cy0 < c.cy1 <= shard.cy1
                assert c.generation == shard.generation + 1
                assert (c.tx, c.ty) == (shard.tx, shard.ty)  # lineage

    def test_child_halo_is_exchange_halos_ring(self):
        """A child's halo is exactly the one-cell ring the planner would
        compute for that tile — the §8 invariants hold verbatim."""
        plan = self._plan(seed=1, grid=(2, 3))
        cx, cy, _, _ = _global_cell_coords(plan.points, plan.eps)
        for shard in plan.shards:
            for c in quad_split_shard(plan, shard):
                ring = exchange_halos(cx, cy, (c.cx0, c.cx1, c.cy0, c.cy1))
                assert np.array_equal(np.sort(c.halo_ids), np.sort(ring))
                assert not set(c.halo_ids) & set(c.interior_ids)

    def test_child_halo_covers_eps_ball(self):
        """Every point within ε of a child interior point is in the
        child — the completeness guarantee the local tables rely on."""
        plan = self._plan(seed=2, eps=0.1, n=150)
        pts = plan.points
        for shard in plan.shards:
            for c in quad_split_shard(plan, shard):
                members = set(c.interior_ids) | set(c.halo_ids)
                for i in c.interior_ids:
                    d = np.linalg.norm(pts - pts[i], axis=1)
                    near = np.flatnonzero(d <= plan.eps)
                    assert set(near.tolist()) <= members, (c.key, i)

    def test_single_cell_tile_cannot_split(self):
        plan = self._plan(seed=3, eps=0.5, grid=(8, 8))
        one_cell = [
            s for s in plan.shards
            if s.cx1 - s.cx0 == 1 and s.cy1 - s.cy0 == 1
        ]
        assert one_cell, "expected single-cell tiles at this eps/grid"
        assert quad_split_shard(plan, one_cell[0]) == []

    def test_empty_children_dropped(self):
        plan = self._plan(seed=4, n=40)
        for shard in plan.shards:
            for c in quad_split_shard(plan, shard):
                assert len(c.interior_ids) > 0


# ----------------------------------------------------------------------
# the supervised attempt loop
# ----------------------------------------------------------------------
class TestSupervisor:
    EPS = 0.07
    MINPTS = 4

    def _run(self, pts, **cfg_kw):
        return cluster_sharded(
            pts, self.EPS, self.MINPTS,
            config=ShardConfig(shards_x=2, shards_y=2, **cfg_kw),
        )

    def test_wholesale_oom_splits_and_stays_identical(self):
        pts = _pts(20)
        ref = _reference(pts, self.EPS, self.MINPTS)
        res = self._run(pts, fault_factory=_oom_on((0, 0)))
        assert np.array_equal(res.labels, ref)
        rec = res.recovery
        assert rec.shard_splits >= 1
        assert any(e.outcome == "split" for e in res.events)

    def test_device_loss_retries_on_fallback(self):
        pts = _pts(21)
        ref = _reference(pts, self.EPS, self.MINPTS)
        res = self._run(pts, fault_factory=_loss_on((1, 0)))
        assert np.array_equal(res.labels, ref)
        rec = res.recovery
        assert rec.fallback_placements == 1
        assert rec.shard_splits == 0  # transient faults never split
        retry = [e for e in res.events if e.outcome == "retry"]
        assert len(retry) == 1 and retry[0].fault == "transient"

    def test_oom_with_split_disabled_escalates_grant(self):
        pts = _pts(22)
        ref = _reference(pts, self.EPS, self.MINPTS)
        res = self._run(
            pts, fault_factory=_oom_on((0, 0)), split_on_oom=False
        )
        assert np.array_equal(res.labels, ref)
        rec = res.recovery
        assert rec.shard_splits == 0
        assert rec.mem_escalations == 1
        assert rec.fallback_placements == 1

    def test_finished_shards_never_recomputed(self, monkeypatch):
        """A wholesale fault on the last-run shard must not re-run any
        completed shard: exactly one extra run_shard call in total."""
        pts = _pts(23)
        calls = []
        real = sharding_mod.run_shard

        def counting(plan, shard, *args, **kwargs):
            calls.append(shard.key)
            return real(plan, shard, *args, **kwargs)

        monkeypatch.setattr(sharding_mod, "run_shard", counting)
        res = self._run(pts, fault_factory=_loss_on((1, 1)))
        n_shards = len(res.shard_stats)
        assert len(calls) == n_shards + 1
        from collections import Counter
        per_shard = Counter(calls)
        failed_key = [k for k, v in per_shard.items() if v == 2]
        assert len(failed_key) == 1 and "(1,1)g0" in failed_key[0]
        assert all(v == 1 for k, v in per_shard.items() if k != failed_key[0])

    def test_fatal_fault_propagates_unchanged(self, monkeypatch):
        """A programming error is not retried, not split, not wrapped."""
        pts = _pts(24)
        calls = []
        real = sharding_mod.run_shard

        def flaky(plan, shard, *args, **kwargs):
            calls.append(shard.key)
            if (shard.tx, shard.ty) == (0, 0):
                raise ValueError("programming error, not a fault")
            return real(plan, shard, *args, **kwargs)

        monkeypatch.setattr(sharding_mod, "run_shard", flaky)
        with pytest.raises(ValueError, match="programming error"):
            self._run(pts, max_shard_retries=5)
        # one attempt only: the fatal classification short-circuits
        assert sum(1 for k in calls if "(0,0)" in k) == 1

    def test_lost_device_loses_no_staging(self, shard_attempt_devices):
        """A device lost mid-build returns its staging as the build
        unwinds: the shared pool ends with nothing checked out, no
        attempt reports a leak, and the retry reuses the mappings."""
        made = shard_attempt_devices
        pts = _pts(25)
        ref = _reference(pts, self.EPS, self.MINPTS)
        pool = PinnedMemoryPool()
        res = cluster_sharded(
            pts, self.EPS, self.MINPTS,
            config=ShardConfig(
                shards_x=2, shards_y=2,
                fault_factory=_loss_on((0, 0), batch_indices=[1]),
            ),
            batch_config=BatchConfig(min_buffer_size=16),
            sanitize=True,
            pinned=pool,
        )
        assert np.array_equal(res.labels, ref)
        # one device per attempt, in event order
        assert len(made) == len(res.events)
        assert all(d.pinned is pool for d in made)
        lost = next(i for i, e in enumerate(res.events) if e.outcome == "retry")
        assert res.events[lost].error.startswith("DeviceLostError")
        assert made[lost].pinned_borrower.peak_bytes > 0  # it had staged
        assert (pool.live_count, pool.used_bytes) == (0, 0)
        assert all(d.sanitizer.report.count("leak") == 0 for d in made)
        retry = made[lost + 1]
        assert res.events[lost + 1].attempt == 1
        assert retry.profiler.pinned_alloc_ms == 0

    def test_exhausted_budget_raises_typed_error(self):
        """An unlimited OOM with splitting disabled burns the retry
        budget and surfaces as ShardFailureError naming the shard."""
        pts = _pts(25)
        with pytest.raises(ShardFailureError) as ei:
            self._run(
                pts,
                fault_factory=_oom_on((0, 0), times=None),
                split_on_oom=False,
                max_shard_retries=2,
            )
        err = ei.value
        assert "(0,0)g0" in str(err)
        assert err.attempts == 3  # initial + 2 retries
        assert (err.shard.tx, err.shard.ty) == (0, 0)
        assert isinstance(err.__cause__, DeviceMemoryError)

    def test_zero_retry_budget(self):
        pts = _pts(26)
        with pytest.raises(ShardFailureError) as ei:
            self._run(
                pts,
                fault_factory=_loss_on((0, 0)),
                max_shard_retries=0,
            )
        assert ei.value.attempts == 1

    def test_injector_budget_spans_attempts(self):
        """``times=2`` on one shard costs two fallback placements — the
        injector persists across that shard's attempts."""
        pts = _pts(27)
        ref = _reference(pts, self.EPS, self.MINPTS)
        res = self._run(
            pts,
            fault_factory=_loss_on((0, 1), times=2),
            max_shard_retries=3,
        )
        assert np.array_equal(res.labels, ref)
        assert res.recovery.fallback_placements == 2

    def test_recursive_split_converges(self):
        """Injecting into split children too (generations > 1) exercises
        recursive splitting; labels still bit-identical."""
        pts = _pts(28)
        ref = _reference(pts, self.EPS, self.MINPTS)
        res = self._run(
            pts,
            fault_factory=make_shard_fault_factory(
                [FaultSpec("device_oom")], tiles=[(0, 0)], generations=2
            ),
        )
        assert np.array_equal(res.labels, ref)
        assert res.recovery.shard_splits >= 2

    def test_events_audit_trail_is_complete(self):
        pts = _pts(29)
        res = self._run(pts, fault_factory=_oom_on((0, 0)))
        ok = [e for e in res.events if e.outcome == "ok"]
        assert len(ok) == len(res.shard_stats)
        assert res.recovery.shard_attempts == len(res.events)
        for e in res.events:
            assert e.outcome in ("ok", "retry", "split", "failed")
            d = e.as_dict()
            assert d["tile"] == list(e.tile)
            assert "batch_recovery" in d

    def test_stats_carry_supervisor_accounting(self):
        pts = _pts(30)
        res = self._run(pts, fault_factory=_loss_on((0, 0)))
        retried = [s for s in res.shard_stats if s.attempts > 1]
        assert len(retried) == 1
        s = retried[0]
        assert s.fallbacks == 1
        d = s.as_dict()
        assert d["attempts"] == 2 and d["fallbacks"] == 1
        assert "failed_recovery" in d

    def test_genuine_oom_rescued_by_split(self):
        """A real (non-injected) capacity miss — the per-shard cap is
        too small for a 1x1 plan — is rescued by quad-splitting.  At
        8 B pairs the 1x1 plan peaks at 16,384 B of device memory and
        each quadrant at 8,192 B, so a 12,000 B cap misses once."""
        pts = _pts(31, n=400)
        ref = _reference(pts, self.EPS, self.MINPTS)
        res = cluster_sharded(
            pts, self.EPS, self.MINPTS,
            config=ShardConfig(
                shards_x=1, shards_y=1, device_mem_bytes=12_000,
            ),
        )
        assert np.array_equal(res.labels, ref)
        assert res.recovery.shard_splits >= 1
        assert res.max_peak_device_bytes <= 12_000 * 2**4  # grant cap


# ----------------------------------------------------------------------
# accounting: failed vs successful attempts never double-count
# ----------------------------------------------------------------------
class TestAccounting:
    def test_failed_and_successful_batch_recovery_separated(self):
        """Attempt 1 burns the per-batch transfer-retry budget (2
        retries) and dies; attempt 2 heals after one more retry.  The
        two retries land in ``failed_batch`` and the one in ``batch`` —
        nothing is counted twice."""
        pts = _pts(40)
        eps, minpts = 0.07, 4
        ref = _reference(pts, eps, minpts)
        # 4 firings scoped to batch 0: 3 on attempt 1 (budget is 2
        # retries), the last on attempt 2
        factory = make_shard_fault_factory(
            [FaultSpec("transfer", frozenset({0}), times=4)],
            tiles=[(0, 0)],
        )
        res = cluster_sharded(
            pts, eps, minpts,
            config=ShardConfig(
                shards_x=2, shards_y=2, fault_factory=factory,
            ),
            batch_config=BatchConfig(max_transfer_retries=2),
        )
        assert np.array_equal(res.labels, ref)
        rec = res.recovery
        assert rec.failed_batch.transfer_retries == 2
        assert rec.batch.transfer_retries == 1
        assert rec.fallback_placements == 1
        # the flat dict keeps the successful-side counters at top level
        d = rec.as_dict()
        assert d["transfer_retries"] == 1
        assert d["failed_batch"]["transfer_retries"] == 2

    def test_healthy_run_has_clean_recovery(self):
        pts = _pts(41)
        res = cluster_sharded(
            pts, 0.07, 4, config=ShardConfig(shards_x=2, shards_y=2)
        )
        rec = res.recovery
        assert rec.shard_attempts == len(res.shard_stats)
        assert rec.fallback_placements == 0
        assert rec.shard_splits == 0
        assert rec.failed_batch.recoveries == 0
        assert rec.wasted_s == 0.0 and rec.wasted_work_bytes == 0


# ----------------------------------------------------------------------
# the property: recovery never perturbs the clustering
# ----------------------------------------------------------------------
class TestRecoveryProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        sx=st.integers(1, 3),
        sy=st.integers(1, 3),
        kind=st.sampled_from(["device_oom", "device_lost", "transfer"]),
        split=st.booleans(),
        tx=st.integers(0, 2),
        ty=st.integers(0, 2),
    )
    def test_labels_identical_under_injected_faults(
        self, seed, sx, sy, kind, split, tx, ty
    ):
        """Across datasets, shard grids, fault kinds, target tiles, and
        recovery policies: the recovered run's labels are bit-identical
        to the fault-free reference (the tier-1 exactness claim)."""
        pts = _pts(seed, n=160)
        eps, minpts = 0.09, 4
        ref = _reference(pts, eps, minpts)
        factory = make_shard_fault_factory(
            [FaultSpec(kind)], seed=seed,
            tiles=[(tx % sx, ty % sy)],
        )
        res = cluster_sharded(
            pts, eps, minpts,
            config=ShardConfig(
                shards_x=sx, shards_y=sy,
                split_on_oom=split,
                max_shard_retries=3,
                fault_factory=factory,
            ),
        )
        assert np.array_equal(res.labels, ref)
        assert np.array_equal(
            np.sort(np.unique(res.labels)), np.sort(np.unique(ref))
        )


# ----------------------------------------------------------------------
# slowdown injection through the shard fault factory
# ----------------------------------------------------------------------
class TestShardSlowdown:
    def test_slowdown_bills_stall_without_changing_labels(self):
        """A latency-only fault wired through make_shard_fault_factory:
        the sharded run stays bit-identical and retry-free, but the
        slowed shards' devices bill injected stall ms."""
        pts = _pts(50, n=400)
        eps, minpts = 0.07, 4
        ref = _reference(pts, eps, minpts)
        base = make_shard_fault_factory(
            [FaultSpec("slowdown", times=None, delay_ms=4.0)],
            tiles=[(0, 0)],
        )
        handed_out = []

        def factory(shard):
            inj = base(shard)
            if inj is not None:
                handed_out.append(inj)
            return inj

        res = cluster_sharded(
            pts, eps, minpts,
            config=ShardConfig(
                shards_x=2, shards_y=2, fault_factory=factory,
            ),
        )
        assert np.array_equal(res.labels, ref)
        # latency is not a failure: no retries, no fallback devices
        assert res.recovery.fallback_placements == 0
        assert res.recovery.shard_splits == 0
        assert len(handed_out) == 1  # only tile (0, 0), generation 0
        assert handed_out[0].injected_delay_ms > 0
