"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim import Device, DeviceSpec


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def blobs_points(rng):
    """Two well-separated Gaussian blobs plus sparse uniform noise."""
    a = rng.normal((0.0, 0.0), 0.4, (250, 2))
    b = rng.normal((8.0, 8.0), 0.4, (250, 2))
    noise = rng.random((60, 2)) * 12.0
    pts = np.vstack([a, b, noise])
    rng.shuffle(pts, axis=0)
    return pts


@pytest.fixture
def chain_points():
    """A 1-D chain of points spaced 0.4 apart — density-reachable at
    eps=0.5 end to end, so DBSCAN must join them into one cluster."""
    x = np.arange(50) * 0.4
    return np.column_stack([x, np.zeros_like(x)])


@pytest.fixture
def uniform_points(rng):
    return rng.random((400, 2)) * 6.0


@pytest.fixture
def device():
    return Device()


@pytest.fixture
def tiny_device():
    """Device with very little global memory, for OOM-path tests."""
    return Device(DeviceSpec(global_mem_bytes=64 * 1024))


@pytest.fixture
def shard_attempt_devices(monkeypatch):
    """Every device a sharded run makes, one per supervised attempt in
    event order, each with the staging buffers it checked out."""
    import repro.core.sharding as sharding

    made: list = []

    class Attempt(Device):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.staged: list = []
            made.append(self)

        def alloc_pinned(self, *args, **kwargs):
            buf = super().alloc_pinned(*args, **kwargs)
            self.staged.append(buf)
            return buf

    monkeypatch.setattr(sharding, "Device", Attempt)
    return made
