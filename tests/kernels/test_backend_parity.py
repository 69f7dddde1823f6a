"""The vector and interpreter backends agree exactly — pairs, counts and
every ``KernelCounters`` field — on inputs that sit on the ε boundary:
pairs exactly ε apart, points on cell edges, duplicates and coordinates
offset by 1e6.  The vector side also runs with ``NEIGHBOR_BLOCK`` cut
down to 1 and 7 candidates, so its blocks split cell ranges and points."""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import build_neighbor_table
from repro.gpusim import Device, launch
from repro.index import GridIndex
from repro.index import grid as grid_module
from repro.kernels import NeighborCountKernel

from .conftest import assert_rows_contiguous, run_global, run_shared, truth_pairs

#: ``NEIGHBOR_BLOCK`` values drawn by the properties (None keeps the
#: module's own)
blocks = st.sampled_from([None, 1, 7])


@contextmanager
def neighbor_block(block: int | None):
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(grid_module, "NEIGHBOR_BLOCK", block)
        yield


@st.composite
def boundary_inputs(draw) -> tuple[np.ndarray, float]:
    eps = draw(
        st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.1, 2.0))
    )
    offset = draw(st.sampled_from([0.0, 1e6]))
    # a lattice of ε/k steps: steps sit on or next to cell edges, and k
    # steps along an axis are ε apart — exactly in many cases (no offset,
    # or a binary ε), up to rounding otherwise; for k = 5, (3, 4) steps
    # are ε apart on the diagonal too.  Every backend must round alike.
    k = draw(st.sampled_from([1, 2, 5]))
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, 2 * k), st.integers(0, 2 * k)),
            min_size=1,
            max_size=20,
        )
    )
    free = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 4.0, allow_nan=False),
                st.floats(0.0, 4.0, allow_nan=False),
            ),
            max_size=8,
        )
    )
    pts = np.array(steps, dtype=np.float64) * (eps / k)
    if free:
        pts = np.vstack([pts, np.array(free, dtype=np.float64) * eps])
    dups = draw(st.lists(st.integers(0, len(pts) - 1), max_size=5))
    pts = np.vstack([pts, pts[dups]]) + offset
    return pts, eps


def counters_dict(res) -> dict[str, int]:
    return dataclasses.asdict(res.counters)


def run_count(device: Device, grid: GridIndex, ids: np.ndarray, backend: str):
    """Launch NeighborCountKernel; returns (e_b, LaunchResult)."""
    kernel = NeighborCountKernel()
    cfg = NeighborCountKernel.launch_config(len(ids), block_dim=32)
    counter = device.allocate(1, np.int64, fill=0)
    if backend == "vector":
        res = launch(kernel, cfg, device, grid=grid, sample_ids=ids, counter=counter)
    else:
        ga = grid.device_arrays()
        res = launch(
            kernel, cfg, device, backend="interpreter",
            D=ga["D"], A=ga["A"], G_min=ga["G_min"], G_max=ga["G_max"],
            eps=grid.eps, xmin=grid.xmin, ymin=grid.ymin,
            nx=grid.nx, ny=grid.ny, sample_ids=ids, counter=counter,
        )
    return int(counter.data[0]), res


@given(boundary_inputs(), st.integers(1, 3), blocks, st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_global_kernel_backends_identical(inp, n_batches, block, emit_distance, data):
    """The two backends write the same buffer, record for record, for
    int32 pairs and for annotated float64 rows, on a whole batch or on a
    masked recovery sub-unit of it; each point's row is contiguous, and
    every counter agrees (one atomic per row, each record charged its
    bytes / 4 stores)."""
    pts, eps = inp
    grid = GridIndex.build(pts, eps)
    batch = data.draw(st.integers(0, n_batches - 1))
    mask = None
    if data.draw(st.booleans()):
        ids = np.arange(batch, len(grid), n_batches)
        keep = data.draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
        mask = np.zeros(len(grid), dtype=bool)
        mask[ids[np.array(keep, dtype=bool)]] = True
    device = Device()
    with neighbor_block(block):
        _, rv, bv = run_global(
            device, grid, batch=batch, n_batches=n_batches, block_dim=32,
            emit_distance=emit_distance, point_mask=mask,
        )
    _, ri, bi = run_global(
        device, grid, backend="interpreter",
        batch=batch, n_batches=n_batches, block_dim=32,
        emit_distance=emit_distance, point_mask=mask,
    )
    assert np.array_equal(bv.view(), bi.view())
    assert_rows_contiguous(bi)
    assert counters_dict(rv) == counters_dict(ri)


@given(boundary_inputs(), st.integers(1, 3), st.sampled_from([32, 64]), st.data())
@settings(max_examples=40, deadline=None)
def test_shared_kernel_backends_identical(inp, n_batches, block_dim, data):
    """GPUCalcShared's backends write the same buffer record for record:
    the device code's counting pass lets each thread reserve its whole
    row, so rows stay contiguous although a block's threads find their
    hits in lockstep, tile by tile."""
    pts, eps = inp
    grid = GridIndex.build(pts, eps)
    batch = data.draw(st.integers(0, n_batches - 1))
    device = Device()
    _, rv, bv = run_shared(
        device, grid, batch=batch, n_batches=n_batches, block_dim=block_dim
    )
    _, ri, bi = run_shared(
        device, grid, backend="interpreter",
        batch=batch, n_batches=n_batches, block_dim=block_dim,
    )
    assert np.array_equal(bv.view(), bi.view())
    assert_rows_contiguous(bi)
    assert counters_dict(rv) == counters_dict(ri)


@pytest.mark.parametrize("block_dim", [32, 64])
@pytest.mark.parametrize("n_batches", [1, 2])
def test_shared_kernel_cells_larger_than_a_block(block_dim, n_batches):
    """A clump of 150 points in one cell pages several origin and
    comparison tiles per block; the buffers and counters still agree."""
    rng = np.random.default_rng(3)
    # the (0, 0) corner puts cell edges at multiples of ε, off the clump
    clump = rng.normal(0.75, 0.02, (150, 2))
    pts = np.vstack([[0.0, 0.0], clump, rng.random((30, 2)) * 3])
    grid = GridIndex.build(pts, 0.5)
    assert grid.stats().max_points_per_cell > block_dim * 2
    device = Device()
    _, rv, bv = run_shared(device, grid, n_batches=n_batches, block_dim=block_dim)
    _, ri, bi = run_shared(
        device, grid, backend="interpreter", n_batches=n_batches,
        block_dim=block_dim,
    )
    assert np.array_equal(bv.view(), bi.view())
    assert_rows_contiguous(bi)
    assert counters_dict(rv) == counters_dict(ri)


@given(boundary_inputs(), st.floats(0.05, 1.0), blocks)
@settings(max_examples=60, deadline=None)
def test_count_kernel_backends_identical(inp, fraction, block):
    pts, eps = inp
    grid = GridIndex.build(pts, eps)
    ids = np.unique(
        np.floor(np.linspace(0, len(grid) - 1, max(1, int(fraction * len(grid)))))
    ).astype(np.int64)
    device = Device()
    with neighbor_block(block):
        ev, rv = run_count(device, grid, ids, "vector")
    ei, ri = run_count(device, grid, ids, "interpreter")
    assert ev == ei
    assert counters_dict(rv) == counters_dict(ri)


@pytest.mark.parametrize("kernel", ["global", "shared", "count"])
def test_pair_exactly_eps_apart_where_pow_rounds_up(kernel):
    """At ε = 0.835449, glibc's ``pow`` (behind ``np.float64(ε) ** 2``)
    rounds one ulp above ``ε * ε``, so device code that squared with
    ``** 2`` lost the pair exactly ε apart that the vector backends keep."""
    eps = 0.835449
    grid = GridIndex.build(np.array([[0.0, 0.0], [eps, 0.0], [0.0, 3 * eps]]), eps)
    truth = truth_pairs(grid)
    assert len(truth) == 5  # the ε pair both ways + three self pairs
    device = Device()
    if kernel == "count":
        ids = np.arange(len(grid), dtype=np.int64)
        assert run_count(device, grid, ids, "vector")[0] == len(truth)
        assert run_count(device, grid, ids, "interpreter")[0] == len(truth)
        return
    run = run_global if kernel == "global" else run_shared
    assert run(device, grid)[0] == truth
    assert run(device, grid, backend="interpreter", block_dim=32)[0] == truth


@pytest.mark.parametrize(
    ("backend", "kernel"),
    [
        ("vector", "global"),
        ("vector", "shared"),
        ("interpreter", "global"),
        ("interpreter", "shared"),
    ],
)
@given(inp=boundary_inputs(), block=blocks)
@settings(max_examples=25, deadline=None)
def test_table_symmetric_without_repeats(backend, kernel, inp, block):
    """Every kernel squares ``(px - qx)`` and ``(py - qy)`` the same way
    in both directions, so the built ``T`` holds ``(j, i)`` for every
    ``(i, j)``, and no row lists a neighbor twice: the two
    preconditions of the host's directed-components pass."""
    pts, eps = inp
    grid = GridIndex.build(pts, eps)
    with neighbor_block(block):
        table, _ = build_neighbor_table(
            grid, Device(), kernel=kernel, backend=backend, block_dim=32
        )
    src, dst = table.edges()
    forward = np.sort(src * len(grid) + dst)
    assert np.all(forward[1:] != forward[:-1])
    assert np.array_equal(forward, np.sort(dst * len(grid) + src))
