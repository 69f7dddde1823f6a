"""Tests for device global memory, result buffers and pinned memory."""

import mmap
import sys
import threading
import time

import numpy as np
import pytest

from repro.gpusim import Device, DeviceMemoryError, DeviceSpec, ResultBufferOverflow
from repro.gpusim.memory import GlobalMemoryPool, PinnedMemoryPool
from repro.gpusim.sanitizer import DoubleFreeError


class TestGlobalMemoryPool:
    def test_accounting(self):
        pool = GlobalMemoryPool(1000)
        pool.reserve(400)
        assert pool.used_bytes == 400
        assert pool.free_bytes == 600
        pool.release(400)
        assert pool.used_bytes == 0

    def test_oom_raises(self):
        pool = GlobalMemoryPool(100)
        with pytest.raises(DeviceMemoryError):
            pool.reserve(101)

    def test_oom_message_has_sizes(self):
        pool = GlobalMemoryPool(100)
        pool.reserve(60)
        with pytest.raises(DeviceMemoryError, match="40 B free"):
            pool.reserve(50)

    def test_peak_tracking(self):
        pool = GlobalMemoryPool(1000)
        pool.reserve(700)
        pool.release(700)
        pool.reserve(100)
        assert pool.peak_bytes == 700

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            GlobalMemoryPool(0)

    def test_allocate_fill(self):
        pool = GlobalMemoryPool(10**6)
        buf = pool.allocate(10, np.float64, fill=3.5)
        assert np.all(buf.data == 3.5)


class TestDeviceBuffer:
    def test_free_is_idempotent(self):
        # double-free is tolerated only on unsanitized devices (the
        # sanitizer flags it as a memcheck violation; see test_sanitizer)
        device = Device(sanitize=False)
        buf = device.allocate(100, np.float64)
        used = device.memory.used_bytes
        buf.free()
        buf.free()
        assert device.memory.used_bytes == used - 800

    def test_context_manager(self, device):
        before = device.memory.used_bytes
        with device.allocate(10, np.int64) as buf:
            assert device.memory.used_bytes == before + 80
        assert device.memory.used_bytes == before

    def test_shape_dtype(self, device):
        buf = device.allocate((5, 2), np.int32)
        assert buf.shape == (5, 2)
        assert buf.dtype == np.int32
        assert buf.nbytes == 40
        assert len(buf) == 5

    def test_device_oom(self, tiny_device):
        with pytest.raises(DeviceMemoryError):
            tiny_device.allocate(100_000, np.float64)


class TestLiveTracking:
    def test_pool_tracks_live_buffers(self, device):
        a = device.allocate(10, np.float64, name="a")
        b = device.allocate(10, np.float64, name="b")
        assert device.memory.live_count == 2
        a.free()
        leaked = device.leaked_buffers()
        assert [buf.buffer_id for buf in leaked] == [b.buffer_id]
        b.free()
        assert device.memory.live_count == 0
        assert device.leaked_buffers() == []

    def test_result_buffers_tracked(self, device):
        buf = device.allocate_result_buffer(10, np.int64)
        assert device.memory.live_count == 1
        buf.free()
        assert device.memory.live_count == 0


class TestResultBuffer:
    def test_reserve_sequence(self, device):
        buf = device.allocate_result_buffer(10, np.int64)
        assert buf.reserve(3) == 0
        assert buf.reserve(4) == 3
        assert buf.count == 7

    def test_overflow(self, device):
        buf = device.allocate_result_buffer(5, np.int64)
        buf.reserve(5)
        with pytest.raises(ResultBufferOverflow):
            buf.reserve(1)

    def test_overflow_message(self, device):
        buf = device.allocate_result_buffer(4, np.int64, name="R0")
        with pytest.raises(ResultBufferOverflow, match="R0"):
            buf.reserve(5)

    def test_reserved_prefix_is_the_view(self, device):
        buf = device.allocate_result_buffer(10, np.int64)
        buf.reserve(3)
        buf.data[:3] = [5, 6, 7]
        assert buf.view().tolist() == [5, 6, 7]

    def test_reset(self, device):
        buf = device.allocate_result_buffer(10, np.int64)
        buf.reserve(4)
        buf.reset()
        assert buf.count == 0
        assert len(buf.view()) == 0

    def test_pair_buffer_rows(self, device):
        buf = device.allocate_result_buffer((10, 2), np.int64)
        buf.reserve(2)
        buf.data[:2] = [[1, 2], [3, 4]]
        assert buf.view().tolist() == [[1, 2], [3, 4]]
        assert buf.capacity == 10

    def test_concurrent_reserve(self, device):
        import threading

        buf = device.allocate_result_buffer(8000, np.int64)
        offsets = []

        def worker():
            for _ in range(100):
                offsets.append(buf.reserve(10))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert buf.count == 8000
        assert sorted(offsets) == list(range(0, 8000, 10))


class TestTransfers:
    def test_roundtrip(self, device):
        host = np.arange(100, dtype=np.float64)
        buf = device.to_device(host)
        back = device.from_device(buf)
        assert np.array_equal(back, host)

    def test_transfer_records(self, device):
        host = np.arange(1000, dtype=np.float64)
        buf = device.to_device(host)
        device.from_device(buf)
        summary = device.profiler.summary()
        assert summary["transfers"] == 2
        assert summary["h2d_bytes"] == host.nbytes
        assert summary["d2h_bytes"] == host.nbytes

    def test_result_prefix_transfer(self, device):
        buf = device.allocate_result_buffer(100, np.int64)
        buf.reserve(7)
        buf.data[:7] = np.arange(7)
        out = device.from_device(buf)
        assert out.tolist() == list(range(7))

    def test_pinned_out_buffer(self, device):
        pinned = device.alloc_pinned(50, np.int64)
        assert pinned.mapped_bytes > 0
        buf = device.to_device(np.arange(20, dtype=np.int64))
        got = device.from_device(buf, out=pinned.data, pinned=True)
        assert got.tolist() == list(range(20))
        # pinned transfers are recorded as pinned
        assert device.profiler.transfers[-1].pinned

    def test_pinned_alloc_cost_accumulates(self, device):
        device.alloc_pinned(1024, np.float64)
        device.alloc_pinned(1024, np.float64)
        assert device.profiler.pinned_alloc_ms > 0

    def test_transfer_uses_stream(self, device):
        s = device.new_stream("io")
        device.to_device(np.arange(10.0), stream=s)
        assert device.profiler.transfers[-1].stream == "io"


def _build(device, n, shape=(100, 2)):
    """Check ``n`` buffers out at once and return them all: one build's
    worth of staging."""
    bufs = [device.alloc_pinned(shape, np.int64) for _ in range(n)]
    for b in bufs:
        b.free()
    return bufs


class TestPinnedStagingPool:
    def test_first_build_maps_whole_pages_and_keeps_them(self, device):
        bufs = _build(device, 3)
        assert [b.mapped_bytes for b in bufs] == [mmap.PAGESIZE] * 3
        assert all(len(b.staging) == mmap.PAGESIZE for b in bufs)
        assert device.profiler.pinned_alloc_ms == pytest.approx(
            3 * device.cost.pinned_alloc_time_ms(mmap.PAGESIZE), rel=1e-12
        )
        assert device.pinned.held_bytes == device.pinned.peak_bytes == 3 * mmap.PAGESIZE
        assert device.pinned.held_count == 3
        assert (device.pinned.live_count, device.pinned.used_bytes) == (0, 0)
        # the device's own high-water counts the bytes it checked out
        assert device.pinned_borrower.peak_bytes == 3 * 1600
        assert device.pinned_borrower.used_bytes == 0

    def test_warm_builds_reuse_staging_free_of_charge(self, device):
        first = _build(device, 3)
        charged = device.profiler.pinned_alloc_ms
        second = _build(device, 3)
        assert device.profiler.pinned_alloc_ms == charged
        assert [b.mapped_bytes for b in second] == [0] * 3
        assert {id(b.staging) for b in second} == {id(b.staging) for b in first}
        assert device.pinned.held_bytes == device.pinned.peak_bytes == 3 * mmap.PAGESIZE
        assert (device.pinned.live_count, device.pinned.used_bytes) == (0, 0)

    def test_growth_charges_the_whole_new_mapping(self, device):
        _build(device, 1)
        charged = device.profiler.pinned_alloc_ms
        (big,) = _build(device, 1, shape=(1000, 2))
        assert len(big.staging) == big.mapped_bytes == 4 * mmap.PAGESIZE
        assert device.profiler.pinned_alloc_ms == charged + device.cost.pinned_alloc_time_ms(
            4 * mmap.PAGESIZE
        )
        # the smaller mapping it replaced is dropped
        assert device.pinned.held_bytes == 4 * mmap.PAGESIZE

    def test_holds_no_more_buffers_than_were_checked_out_at_once(self, device):
        _build(device, 1)
        _build(device, 2)
        _build(device, 1, shape=(10_000, 2))
        for _ in range(4):
            _build(device, 1)
        assert device.pinned.held_count == 2

    def test_views_of_one_mapping_never_overlap_in_time(self, device):
        _build(device, 1)
        a = device.alloc_pinned(64, np.int64)
        b = device.alloc_pinned(64, np.int64)
        assert a.staging is not b.staging
        a.free()
        c = device.alloc_pinned(32, np.int64)
        assert c.staging is a.staging
        assert c.buffer_id != a.buffer_id

    def test_concurrent_checkouts_never_share_staging(self, device):
        """Stress: 8 threads check staging of three sizes in and out of
        one warm pool under a tiny switch interval; a mapping handed to
        two threads at once would show another thread's stamp."""
        _build(device, 1)
        stomped = []

        def worker(k):
            for _ in range(200):
                buf = device.alloc_pinned(64 * (1 + k % 3), np.int64)
                buf.data.fill(k)
                time.sleep(0)
                if not (buf.data == k).all():
                    stomped.append(k)
                buf.free()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert stomped == []
        assert (device.pinned.live_count, device.pinned.used_bytes) == (0, 0)
        assert 1 <= device.pinned.held_count <= 8

    def test_unreturned_pooled_buffer_is_a_leak_at_close(self):
        device = Device(sanitize=True)
        _build(device, 1)
        kept = device.alloc_pinned(64, np.int64, name="kept")
        report = device.close()
        assert report.count("leak") == 1
        assert "kept" in report.violations[-1].message
        # the leaked buffer's mapping stays with it
        assert device.pinned.held_bytes == len(kept.staging)

    def test_second_free_of_pooled_buffer_is_a_double_free(self):
        device = Device(sanitize=True)
        _build(device, 1)
        buf = device.alloc_pinned(64, np.int64)
        buf.free()
        with pytest.raises(DoubleFreeError):
            buf.free()
        # returned once: the next two checkouts get distinct mappings
        x, y = device.alloc_pinned(64, np.int64), device.alloc_pinned(64, np.int64)
        assert x.staging is not y.staging


class TestBorrowedPinnedPool:
    """A pool belongs to its host; devices borrow it."""

    def test_a_fresh_device_stages_through_the_hosts_mappings(self):
        pool = PinnedMemoryPool()
        _build(Device(pinned=pool), 2)
        fresh = Device(pinned=pool)
        bufs = _build(fresh, 2)
        assert [b.mapped_bytes for b in bufs] == [0, 0]
        assert fresh.profiler.pinned_alloc_ms == 0
        # a borrower's close leaves the host's mappings with the pool
        fresh.close()
        assert pool.held_count == 2

    def test_borrowed_double_free_goes_to_the_borrowers_sanitizer(self):
        pool = PinnedMemoryPool()
        other = Device(sanitize=True, sanitize_mode="record", pinned=pool)
        borrower = Device(sanitize=True, pinned=pool)
        _build(other, 1)
        buf = borrower.alloc_pinned(64, np.int64)
        buf.free()
        with pytest.raises(DoubleFreeError):
            buf.free()
        assert borrower.sanitizer.report.count("double-free") == 1
        assert other.sanitizer.report.clean

    def test_borrowers_close_reports_only_its_own_checkouts(self):
        pool = PinnedMemoryPool()
        mine = Device(sanitize=True, pinned=pool)
        theirs = Device(sanitize=True, pinned=pool)
        mine.alloc_pinned(64, np.int64, name="mine")
        held = theirs.alloc_pinned(64, np.int64, name="theirs")
        report = mine.close()
        assert report.count("leak") == 1
        assert "'mine'" in report.violations[-1].message
        # nothing of the pool went with the borrower
        assert (pool.live_count, pool.held_count) == (2, 2)
        held.free()
        assert theirs.close().clean

    def test_owners_close_reports_every_borrowers_checkouts(self):
        owner = Device(sanitize=True)
        borrower = Device(pinned=owner.pinned)
        borrower.alloc_pinned(64, np.int64, name="borrowed")
        report = owner.close()
        assert report.count("leak") == 1
        assert "'borrowed'" in report.violations[-1].message


class TestDeviceSpec:
    def test_k20c_defaults(self):
        spec = DeviceSpec()
        assert spec.sm_count == 13
        assert spec.global_mem_bytes == 5 * 1024**3
        assert spec.warp_size == 32

    def test_cost_model_scales_with_width(self):
        small = DeviceSpec(sm_count=1).cost_model()
        big = DeviceSpec(sm_count=13).cost_model()
        assert big.compute_rate_per_ms > small.compute_rate_per_ms

    def test_device_reset(self, device):
        device.to_device(np.arange(10.0))
        device.reset()
        assert device.profiler.summary()["transfers"] == 0
        assert device.timeline.makespan_ms == 0.0
