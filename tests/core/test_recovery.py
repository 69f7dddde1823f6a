"""Per-batch overflow recovery: acceptance, accounting, and properties."""

import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchConfig, BatchPlanner
from repro.core.batching import build_neighbor_table, result_layout
from repro.gpusim import Device, FaultInjector, FaultSpec, TransferError
from repro.gpusim.memory import ResultBufferOverflow
from repro.index import GridIndex

N_BATCHES = 8
BUFFER = 800


def _points():
    rng = np.random.default_rng(42)
    return rng.random((400, 2)) * 6.0


def _grid():
    return GridIndex.build(_points(), 0.4)


def _staging_bytes():
    """Bytes of one worker's staging: ``BUFFER`` (key, value) pairs at
    the width the batching module stages these builds' pairs."""
    width, dtype = result_layout(len(_points()))
    return BUFFER * width * dtype.itemsize


def _cfg(**overrides):
    params = dict(
        static_threshold=1,
        static_buffer_size=BUFFER,
        min_buffer_size=128,
        alpha=0.0,
    )
    params.update(overrides)
    return BatchConfig(**params)


def _plan(cfg, n_batches=N_BATCHES):
    return BatchPlanner(cfg).plan_from_estimate(eb=1, ab=n_batches * BUFFER)


def _neighbors(table):
    return [sorted(table.neighbors(i).tolist()) for i in range(table.n_points)]


def _paged(nbytes):
    """Bytes of the whole pages a pooled mapping of ``nbytes`` takes."""
    return -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE


STAGING = _staging_bytes()


@pytest.fixture(scope="module")
def reference():
    """Fault-free build of the shared scenario (and its plan shape)."""
    cfg = _cfg()
    plan = _plan(cfg)
    assert plan.n_batches == N_BATCHES
    table, stats = build_neighbor_table(_grid(), Device(), config=cfg, plan=plan)
    assert stats.recovery.recoveries == 0
    return _neighbors(table)


class TestAcceptance:
    """ISSUE acceptance: 1 fault in >= 6 batches -> completed batches
    kept, identical table, exactly one recovery action."""

    def test_single_fault_recovers_without_restart(self, reference):
        cfg = _cfg()
        plan = _plan(cfg)
        faults = FaultInjector.overflow_at(3)
        table, stats = build_neighbor_table(
            _grid(), Device(), config=cfg, plan=plan, faults=faults
        )
        assert faults.total_injected == 1
        # completed batches were kept: only the failed batch re-ran,
        # as two split halves
        assert stats.n_batches_run == plan.n_batches + 1
        assert stats.recovery.splits + stats.recovery.regrows == 1
        assert stats.recovery.wasted_kernel_s > 0
        assert _neighbors(table) == reference

    def test_regrow_strategy_single_fault(self, reference):
        cfg = _cfg(recovery="regrow")
        plan = _plan(cfg)
        table, stats = build_neighbor_table(
            _grid(), Device(), config=cfg, plan=plan,
            faults=FaultInjector.overflow_at(3),
        )
        # a regrown batch re-runs whole: no extra unit appears
        assert stats.n_batches_run == plan.n_batches
        assert stats.recovery.regrows == 1
        assert stats.recovery.splits == 0
        assert _neighbors(table) == reference

    def test_injector_attached_to_device_is_used(self, reference):
        cfg = _cfg()
        plan = _plan(cfg)
        device = Device(faults=FaultInjector.overflow_at(2))
        table, stats = build_neighbor_table(
            _grid(), device, config=cfg, plan=plan
        )
        assert stats.recovery.recoveries == 1
        assert _neighbors(table) == reference

    def test_transfer_fault_retried(self, reference):
        cfg = _cfg()
        plan = _plan(cfg)
        table, stats = build_neighbor_table(
            _grid(), Device(), config=cfg, plan=plan,
            faults=FaultInjector.transfer_at(1),
        )
        assert stats.recovery.transfer_retries == 1
        assert stats.recovery.splits == stats.recovery.regrows == 0
        assert _neighbors(table) == reference

    def test_transfer_retries_bounded(self):
        cfg = _cfg(max_transfer_retries=2)
        plan = _plan(cfg)
        faults = FaultInjector(
            [FaultSpec("transfer", frozenset({1}), times=None)]
        )
        with pytest.raises(TransferError):
            build_neighbor_table(
                _grid(), Device(), config=cfg, plan=plan, faults=faults
            )


class TestRegrowBounds:
    def test_regrow_respects_free_bytes(self):
        """A pool too small to double the buffer refuses the regrow and
        the overflow surfaces instead of OOM-ing the device."""
        from repro.gpusim import DeviceSpec

        pts = np.ones((500, 2))  # every point has 500 neighbors > buffer
        grid = GridIndex.build(pts, 0.5)
        cfg = BatchConfig(
            static_threshold=1, static_buffer_size=400, min_buffer_size=400,
            alpha=0.0, n_streams=1, recovery="regrow",
        )
        plan = BatchPlanner(cfg).plan_from_estimate(eb=1, ab=400)
        # 10 KB pool: the (400, 2) int64 buffer (6400 B) fits, the
        # doubled one (12800 B) exceeds free + freed-old bytes
        small = Device(DeviceSpec(global_mem_bytes=10 * 1024))
        used_before = small.memory.used_bytes
        with pytest.raises(ResultBufferOverflow):
            build_neighbor_table(grid, small, config=cfg, plan=plan)
        assert small.memory.used_bytes == used_before

    def test_regrow_depth_bounded(self):
        """max_recovery_depth caps how often one unit may regrow."""
        pts = np.ones((500, 2))
        grid = GridIndex.build(pts, 0.5)
        cfg = BatchConfig(
            static_threshold=1, static_buffer_size=128, min_buffer_size=128,
            alpha=0.0, n_streams=1, recovery="regrow", max_recovery_depth=1,
        )
        plan = BatchPlanner(cfg).plan_from_estimate(eb=1, ab=128)
        with pytest.raises(ResultBufferOverflow):
            build_neighbor_table(grid, Device(), config=cfg, plan=plan)


class TestPinnedAccounting:
    def test_regrow_releases_old_pinned_staging(self, reference):
        """Regression: regrow used to orphan the pre-grow pinned staging
        buffer — the teardown freed only the current generation, so the
        pinned pool reported phantom residency forever after.  A forced
        regrow must leave zero live pinned buffers and a leak-free
        sanitized close."""
        cfg = _cfg(recovery="regrow")
        plan = _plan(cfg)
        device = Device(sanitize=True)
        table, stats = build_neighbor_table(
            _grid(), device, config=cfg, plan=plan,
            faults=FaultInjector.overflow_at(3),
        )
        assert stats.recovery.regrows == 1
        assert _neighbors(table) == reference
        assert device.pinned.live_count == 0
        assert device.pinned.used_bytes == 0
        assert device.pinned.peak_bytes > 0
        assert device.memory.used_bytes == 0
        report = device.close()  # sanitizer leak check (device + pinned)
        assert report.clean, report.render()

    def test_fault_free_build_releases_pinned(self):
        """A build returns every staging buffer; the pool keeps their
        mappings, one per worker in whole pages, until its owner closes."""
        cfg = _cfg()
        device = Device(sanitize=True)
        build_neighbor_table(_grid(), device, config=cfg, plan=_plan(cfg))
        assert (device.pinned.live_count, device.pinned.used_bytes) == (0, 0)
        assert device.pinned_borrower.used_bytes == 0
        assert device.pinned.held_count == cfg.n_streams
        assert device.pinned.held_bytes == cfg.n_streams * _paged(STAGING)
        assert device.close().clean
        assert device.pinned.held_bytes == 0

    def test_warm_builds_allocate_no_pinned_memory(self, reference):
        cfg = _cfg()
        device = Device(sanitize=True)
        charges = []
        for _ in range(4):
            ms = device.profiler.pinned_alloc_ms
            table, _ = build_neighbor_table(_grid(), device, config=cfg, plan=_plan(cfg))
            assert _neighbors(table) == reference
            charges.append(device.profiler.pinned_alloc_ms - ms)
        # the first build maps each worker's staging in whole pages; the
        # builds after it reuse the mappings
        assert charges[0] == pytest.approx(
            cfg.n_streams * device.cost.pinned_alloc_time_ms(_paged(STAGING)), rel=1e-12
        )
        assert charges[1:] == [0.0, 0.0, 0.0]
        assert device.pinned.held_count == cfg.n_streams
        report = device.close()
        assert report.clean, report.render()
        assert device.pinned.held_bytes == 0

    def test_larger_plan_charges_the_new_staging(self, reference):
        cfg = _cfg()
        device = Device()
        for _ in range(2):
            build_neighbor_table(_grid(), device, config=cfg, plan=_plan(cfg))
        held, ms = device.pinned.held_bytes, device.profiler.pinned_alloc_ms
        big = _cfg(static_buffer_size=4 * BUFFER)
        plan = BatchPlanner(big).plan_from_estimate(eb=1, ab=N_BATCHES * 4 * BUFFER)
        table, _ = build_neighbor_table(_grid(), device, config=big, plan=plan)
        assert _neighbors(table) == reference
        # each worker's mapping is replaced by a larger one, charged whole
        assert device.pinned.held_bytes - held == cfg.n_streams * (
            _paged(4 * STAGING) - _paged(STAGING)
        )
        assert device.profiler.pinned_alloc_ms - ms == pytest.approx(
            cfg.n_streams * device.cost.pinned_alloc_time_ms(_paged(4 * STAGING)),
            rel=1e-12,
        )
        assert device.pinned.held_count == cfg.n_streams
        # the smaller plan is carved from the grown staging
        ms = device.profiler.pinned_alloc_ms
        build_neighbor_table(_grid(), device, config=cfg, plan=_plan(cfg))
        assert device.profiler.pinned_alloc_ms == ms

    def test_regrow_in_a_warm_build_grows_held_staging(self, reference):
        cfg = _cfg(recovery="regrow")
        device = Device(sanitize=True)
        for _ in range(2):
            build_neighbor_table(_grid(), device, config=cfg, plan=_plan(cfg))
        held, ms = device.pinned.held_bytes, device.profiler.pinned_alloc_ms
        table, stats = build_neighbor_table(
            _grid(), device, config=cfg, plan=_plan(cfg),
            faults=FaultInjector.overflow_at(3),
        )
        assert stats.recovery.regrows == 1
        assert _neighbors(table) == reference
        assert device.pinned.live_count == 0
        # the regrown worker's mapping was replaced, not added to
        assert device.pinned.held_count == cfg.n_streams
        assert device.pinned.held_bytes - held == _paged(2 * STAGING) - _paged(STAGING)
        assert device.profiler.pinned_alloc_ms - ms == pytest.approx(
            device.cost.pinned_alloc_time_ms(_paged(2 * STAGING)), rel=1e-12
        )
        report = device.close()
        assert report.clean, report.render()

    def test_one_worker_regrow_charges_its_grown_mapping(self, reference):
        """A regrow returns a one-worker build's only staging buffer
        before checking out the larger one: the grown mapping replaces
        the returned one and is charged in whole pages, and the next
        build reuses it free."""
        cfg = _cfg(recovery="regrow", n_streams=1)
        device = Device(sanitize=True)
        table, stats = build_neighbor_table(
            _grid(), device, config=cfg, plan=_plan(cfg),
            faults=FaultInjector.overflow_at(3),
        )
        assert stats.recovery.regrows == 1
        assert _neighbors(table) == reference
        cost = device.cost.pinned_alloc_time_ms
        assert device.profiler.pinned_alloc_ms == pytest.approx(
            cost(_paged(STAGING)) + cost(_paged(2 * STAGING)), rel=1e-12
        )
        assert (device.pinned.held_count, device.pinned.held_bytes) == (1, _paged(2 * STAGING))
        assert device.pinned_borrower.peak_bytes == 2 * STAGING
        ms = device.profiler.pinned_alloc_ms
        build_neighbor_table(_grid(), device, config=cfg, plan=_plan(cfg))
        assert device.profiler.pinned_alloc_ms == ms
        report = device.close()
        assert report.clean, report.render()


FAULT_KINDS = st.sampled_from(["overflow", "transfer"])
STRATEGIES = st.sampled_from(["auto", "split", "regrow"])


class TestRecoveryProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(min_value=0, max_value=N_BATCHES - 1),
        kind=FAULT_KINDS,
        strategy=STRATEGIES,
        times=st.integers(min_value=1, max_value=2),
    )
    def test_recovered_table_equals_fault_free(
        self, reference, batch, kind, strategy, times
    ):
        """Whatever single fault is injected and whichever strategy
        recovers it, the final table is the fault-free table."""
        cfg = _cfg(recovery=strategy)
        plan = _plan(cfg)
        if kind == "transfer" and times > cfg.max_transfer_retries:
            times = cfg.max_transfer_retries
        faults = FaultInjector(
            [FaultSpec(kind, frozenset({batch}), times=times)]
        )
        table, stats = build_neighbor_table(
            _grid(), Device(), config=cfg, plan=plan, faults=faults
        )
        assert faults.total_injected >= 1
        assert stats.recovery.recoveries >= 1
        assert _neighbors(table) == reference

    @settings(max_examples=10, deadline=None)
    @given(
        batches=st.sets(
            st.integers(min_value=0, max_value=N_BATCHES - 1),
            min_size=2,
            max_size=4,
        )
    )
    def test_multiple_faulted_batches_recover(self, reference, batches):
        cfg = _cfg()
        plan = _plan(cfg)
        faults = FaultInjector(
            [FaultSpec("overflow", frozenset(batches), times=len(batches))]
        )
        table, stats = build_neighbor_table(
            _grid(), Device(), config=cfg, plan=plan, faults=faults
        )
        assert stats.recovery.recoveries >= 1
        assert _neighbors(table) == reference
