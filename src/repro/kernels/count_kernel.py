"""The result-set-size estimation kernel of Section VI.

To size the batch buffers, the paper counts the neighbors within ε of a
uniformly distributed fraction ``f`` of the points (default 1%) — a
kernel "similar to Algorithm 2" that returns only a count ``e_b``, not a
result set, and therefore runs in negligible time.  The total result size
estimate is then ``a_b = e_b / f``.

Because the grid index stores points in spatial sort order, a *strided*
sample of point ids is a spatially uniform sample — the same property the
strided batch assignment exploits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.gpusim.costmodel import KernelCounters
from repro.gpusim.kernelapi import KernelContext
from repro.gpusim.launch import Kernel, LaunchConfig
from repro.gpusim.memory import DeviceBuffer
from repro.index.grid import GridIndex

__all__ = ["NeighborCountKernel", "sample_point_ids"]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.absint import KernelInvariants
    from repro.analysis.costmodel import CostContract


def sample_point_ids(n_points: int, fraction: float) -> np.ndarray:
    """An evenly spread (spatially uniform, given sorted points) sample
    of ids covering ``ceil(fraction * n_points)`` points.

    The ids are ``floor(linspace(0, n_points - 1, n_sample))`` — they
    always span the full extent of the (spatially sorted) point array.
    A truncated integer stride would never sample the array's tail when
    ``n_points % n_sample != 0``, biasing ``e_b``/``a_b`` low or high on
    datasets with a density gradient along the sort order.  Deterministic
    for a given ``(n_points, fraction)``.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    n_sample = max(1, int(np.ceil(fraction * n_points)))
    ids = np.floor(np.linspace(0, n_points - 1, n_sample)).astype(np.int64)
    # linspace spacing >= 1 keeps the floors distinct; unique guards the
    # degenerate n_sample == n_points edge against float rounding
    return np.unique(ids)


class NeighborCountKernel(Kernel):
    """Counts ε-neighbors of a sample; returns ``e_b``."""

    name = "NeighborCount"
    #: KC006 live-range estimate (repro analyze kernels)
    registers_per_thread = 17

    def value_invariants(self) -> "KernelInvariants":
        from repro.analysis.absint import KernelInvariants, RowRange

        return KernelInvariants(
            lengths={
                "D": "n",
                "A": "n",
                "G_min": "nx*ny",
                "G_max": "nx*ny",
                "sample_ids": "n_sample",
                "counter": "1",
            },
            scalars={
                "n": (1, None),
                "nx": (1, None),
                "ny": (1, None),
                "n_sample": (1, "n"),
            },
            elements={"A": (0, "n-1"), "sample_ids": (0, "n-1")},
            rows=(RowRange("G_min", "G_max", "A"),),
        )

    def cost_contract(self) -> "CostContract":
        from repro.analysis.costmodel import CostContract

        return CostContract(
            counter_bounds={
                "atomics": "1",
                "divergent_threads": "1",
                "global_loads": "27*n + 20",
            },
            trip_estimates={"a": "r_cell"},
            stats={"r_cell": "mean points per non-empty grid cell"},
        )

    def device_code(
        self,
        ctx: KernelContext,
        *,
        D: np.ndarray,
        A: np.ndarray,
        G_min: np.ndarray,
        G_max: np.ndarray,
        eps: float,
        xmin: float,
        ymin: float,
        nx: int,
        ny: int,
        sample_ids: np.ndarray,
        counter: DeviceBuffer,
    ) -> None:
        gid = ctx.global_id
        if gid >= len(sample_ids):
            ctx.count_divergent()
            return
        pid = int(sample_ids[gid])
        px, py = D[pid]
        ctx.count_global_load(2)
        eps2 = eps * eps
        cx = min(int((px - xmin) / eps), nx - 1)
        cy = min(int((py - ymin) / eps), ny - 1)
        local = 0
        for dy in (-1, 0, 1):
            yy = cy + dy
            if yy < 0 or yy >= ny:
                continue
            for dx in (-1, 0, 1):
                xx = cx + dx
                if xx < 0 or xx >= nx:
                    continue
                h = yy * nx + xx
                lo = G_min[h]
                ctx.count_global_load(2)
                if lo < 0:
                    continue
                for a in range(lo, G_max[h] + 1):
                    qx, qy = D[A[a]]
                    ctx.count_global_load(3)
                    ctx.count_distance()
                    if (px - qx) * (px - qx) + (py - qy) * (py - qy) <= eps2:
                        local += 1
        if local:
            ctx.atomic_add(counter, 0, local)

    def vector_impl(
        self,
        config: LaunchConfig,
        counters: KernelCounters,
        *,
        grid: GridIndex,
        sample_ids: np.ndarray,
        counter: DeviceBuffer | None = None,
    ) -> int:
        """Returns ``e_b`` — neighbors within ε over the sample."""
        ids = np.asarray(sample_ids, dtype=np.int64)
        pairs = grid.neighbor_pairs(ids)
        hits = pairs.n_hits
        counters.distance_calcs += pairs.n_candidates
        # cell-range loads are charged per *in-grid* neighbor cell only —
        # the SIMT path never touches G for out-of-grid cells, and the
        # Table-2 efficiency metrics compare these counters across backends
        counters.global_loads += (
            2 * len(ids) + 2 * pairs.n_cells + 3 * pairs.n_candidates
        )
        counters.atomics += len(ids)
        counters.divergent_threads += config.total_threads - len(ids)
        if counter is not None:
            counter.data[0] += hits
        return hits

    @staticmethod
    def launch_config(n_sample: int, *, block_dim: int = 256) -> LaunchConfig:
        return LaunchConfig.for_elements(max(1, n_sample), block_dim)
