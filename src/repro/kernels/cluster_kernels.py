"""Device-resident cluster formation over the neighbor table ``T``.

The paper leaves Algorithm 1 DBSCAN on the host; once the table build is
batched, sharded, and fault-hardened, that host pass is the last serial
phase of the pipeline.  These kernels move it onto the (simulated)
device as label-propagation union-find — the shape "Theoretically-
Efficient and Practical Parallel DBSCAN" (Wang, Gu, Shun) and the ArborX
GPU DBSCAN (Prokopenko et al.) use, and the same edge-based formulation
``merge_shard_labels`` already applies on the host:

* :class:`CoreFlagKernel` — one thread per point; classifies core points
  from the ``T`` row lengths (``|N_ε(p)| >= minpts``) and initializes
  each core's label to its own id (non-core to ``-1``).
* :class:`ClusterUnionFindKernel` — one round of min-label union-find
  over core–core edges.  Each core thread takes the minimum label over
  its core neighbors followed by one pointer jump (``labels[best]``).
  When its label strictly decreases it hooks — an atomic minimum lowers
  both its own slot and the slot of its old label, so a whole label
  tree joins per round — and bumps a device-side ``changed`` counter.
  The host relaunches until ``changed`` settles at 0.
* :class:`BorderAttachKernel` — attaches each border point to the label
  of its lowest-id core neighbor (the deterministic rule
  ``dbscan_from_table`` uses) and records that neighbor in an
  ``attach`` output array.

Determinism across backends: every write is a minimum of labels from
one component, so labels only ever *decrease*, are bounded below by the
component's minimum core id, and that minimum's own label never
changes; a round without a hook leaves equal labels on every core–core
edge — so the fixpoint is the per-component minimum core id for both
the Jacobi-style vector backend and the sequential-per-block interpreter
(Gauss–Seidel) backend, even though the two need different iteration
counts.  Both vector backends find their per-row minima as one
segmented ``np.minimum.reduceat`` over ``B``
(:func:`repro._nputil.row_minima`).
Per-launch load counters are structure-only (row lengths) and match
across backends; the union-find atomic counter (3 per hooking thread)
depends on the propagation schedule and legitimately differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro._nputil import multi_arange, no_core, row_minima
from repro.gpusim.costmodel import KernelCounters
from repro.gpusim.kernelapi import KernelContext, device_array
from repro.gpusim.launch import Kernel, LaunchConfig
from repro.gpusim.memory import DeviceBuffer

__all__ = ["BorderAttachKernel", "ClusterUnionFindKernel", "CoreFlagKernel"]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.absint import KernelInvariants
    from repro.analysis.costmodel import CostContract


class CoreFlagKernel(Kernel):
    """Core classification + label init from the ``T`` row lengths.

    ``core[p] = 1`` iff ``t_max[p] - t_min[p] + 1 >= minpts`` (and, when
    an ``eligible`` mask is given, ``eligible[p]`` — the sharded path
    restricts core status to interior points whose neighborhoods are
    complete).  ``labels[p]`` becomes ``p`` for cores, ``-1`` otherwise.
    """

    name = "CoreFlag"
    #: KC006 live-range estimate (repro analyze kernels)
    registers_per_thread = 8

    def value_invariants(self) -> "KernelInvariants":
        from repro.analysis.absint import KernelInvariants

        return KernelInvariants(
            lengths={
                "t_min": "n",
                "t_max": "n",
                "core": "n",
                "labels": "n",
                "eligible": "n",
            },
            scalars={"n": (1, None), "minpts": (1, None)},
        )

    def cost_contract(self) -> "CostContract":
        from repro.analysis.costmodel import CostContract

        return CostContract(
            counter_bounds={
                "global_loads": "3",
                "global_stores": "2",
                "divergent_threads": "1",
            },
        )

    def device_code(
        self,
        ctx: KernelContext,
        *,
        t_min: np.ndarray,
        t_max: np.ndarray,
        minpts: int,
        core: np.ndarray,
        labels: np.ndarray,
        eligible: np.ndarray | None = None,
    ) -> None:
        t_min = device_array(t_min)
        t_max = device_array(t_max)
        core = device_array(core)
        labels = device_array(labels)
        eligible = device_array(eligible)
        pid = ctx.global_id
        if pid >= len(t_min):
            ctx.count_divergent()
            return
        lo = t_min[pid]
        hi = t_max[pid]
        ctx.count_global_load(2)
        count = hi - lo + 1 if lo >= 0 else 0
        is_core = count >= minpts
        if eligible is not None:
            ctx.count_global_load(1)
            is_core = is_core and eligible[pid] != 0
        core[pid] = 1 if is_core else 0
        labels[pid] = pid if is_core else -1
        ctx.count_global_store(2)

    def vector_impl(
        self,
        config: LaunchConfig,
        counters: KernelCounters,
        *,
        t_min: np.ndarray | DeviceBuffer,
        t_max: np.ndarray | DeviceBuffer,
        minpts: int,
        core: np.ndarray | DeviceBuffer,
        labels: np.ndarray | DeviceBuffer,
        eligible: np.ndarray | DeviceBuffer | None = None,
    ) -> int:
        """Returns the number of core points."""
        tmin = device_array(t_min)
        tmax = device_array(t_max)
        c = device_array(core)
        lab = device_array(labels)
        elig = device_array(eligible)
        n = len(tmin)
        counts = np.where(tmin >= 0, tmax - tmin + 1, 0)
        is_core = counts >= minpts
        loads = 2 * n
        if elig is not None:
            is_core &= elig != 0
            loads += n
        c[:] = is_core
        lab[:] = np.where(is_core, np.arange(n, dtype=np.int64), -1)
        counters.global_loads += loads
        counters.global_stores += 2 * n
        counters.divergent_threads += config.total_threads - n
        return int(is_core.sum())

    @staticmethod
    def launch_config(n_points: int, *, block_dim: int = 256) -> LaunchConfig:
        return LaunchConfig.for_elements(max(1, n_points), block_dim)


class ClusterUnionFindKernel(Kernel):
    """One hook + jump round of min-label union-find over core edges.

    Each core thread scans its ``T`` row, takes the minimum label among
    core neighbors (rows include the point itself), then does one
    pointer jump through the best label found.  On a strict decrease it
    hooks: an atomic minimum writes the new label into its own slot *and*
    into the slot of its old label, so every vertex whose label still
    points at that old root follows it on its next jump.  Each hook
    bumps the device-side ``changed`` counter; the host relaunches until
    a round leaves every label fixed.  Both backends reach the same
    fixpoint regardless of intra-launch update order (module docstring).
    """

    name = "ClusterUnionFind"
    #: KC006 live-range estimate (repro analyze kernels)
    registers_per_thread = 12

    def value_invariants(self) -> "KernelInvariants":
        from repro.analysis.absint import KernelInvariants, RowRange

        return KernelInvariants(
            lengths={
                "t_min": "n",
                "t_max": "n",
                "core": "n",
                "labels": "n",
                "B": "m",
                "changed": "1",
            },
            scalars={"n": (1, None), "m": (1, None)},
            elements={"B": (0, "n-1"), "labels": (0, "n-1")},
            # core rows are non-empty (a core point neighbors itself)
            rows=(RowRange("t_min", "t_max", "B", empty=False),),
        )

    def cost_contract(self) -> "CostContract":
        from repro.analysis.costmodel import CostContract

        return CostContract(
            counter_bounds={"global_loads": "3*m + 5", "atomics": "3"},
            trip_estimates={"a": "r_row"},
            stats={"r_row": "mean neighbor-table row length (m / n)"},
        )

    def device_code(
        self,
        ctx: KernelContext,
        *,
        t_min: np.ndarray,
        t_max: np.ndarray,
        B: np.ndarray,
        core: np.ndarray,
        labels: np.ndarray,
        changed: DeviceBuffer,
    ) -> None:
        t_min = device_array(t_min)
        t_max = device_array(t_max)
        B = device_array(B)
        core = device_array(core)
        labels = device_array(labels)
        pid = ctx.global_id
        if pid >= len(core):
            ctx.count_divergent()
            return
        ctx.count_global_load(1)
        if core[pid] == 0:
            ctx.count_divergent()
            return
        lo = t_min[pid]
        hi = t_max[pid]
        old = labels[pid]
        ctx.count_global_load(3)
        best = old
        for a in range(lo, hi + 1):
            j = B[a]
            ctx.count_global_load(2)
            if core[j] != 0:
                m = labels[j]
                ctx.count_global_load(1)
                if m < best:
                    best = m
        # pointer jump: one hop through the best label's own label
        m = labels[best]
        ctx.count_global_load(1)
        if m < best:
            best = m
        if best < old:
            # hook: both slots take the minimum atomically — a plain
            # store could undo a smaller label another thread hooked in
            ctx.atomic_min(labels, pid, best)
            ctx.atomic_min(labels, old, best)
            ctx.atomic_add(changed, 0, 1)

    def vector_impl(
        self,
        config: LaunchConfig,
        counters: KernelCounters,
        *,
        t_min: np.ndarray | DeviceBuffer,
        t_max: np.ndarray | DeviceBuffer,
        B: np.ndarray | DeviceBuffer,
        core: np.ndarray | DeviceBuffer,
        labels: np.ndarray | DeviceBuffer,
        changed: np.ndarray | DeviceBuffer | None = None,
    ) -> int:
        """One Jacobi round over a label snapshot; returns changed count."""
        tmin = device_array(t_min)
        tmax = device_array(t_max)
        b = device_array(B)
        c = device_array(core)
        lab = device_array(labels)
        n = len(c)
        is_core = c != 0
        core_ids = np.flatnonzero(is_core)
        n_core = len(core_ids)
        counters.divergent_threads += (config.total_threads - n) + (n - n_core)
        counters.global_loads += n  # every in-range thread reads its flag
        if n_core == 0:
            return 0
        snapshot = lab.copy()
        none = no_core(snapshot.dtype)
        # B is at the id width; an int32 index gathers about half as fast
        # as one widened first
        vals = np.where(is_core, snapshot, none)[b.astype(np.intp, copy=False)]
        lo = tmin[core_ids]
        hi = tmax[core_ids]
        old = snapshot[core_ids]
        best = np.minimum(old, row_minima(vals, lo, hi))
        # pointer jump through the hooked label
        best = np.minimum(best, snapshot[best])
        hooks = best < old
        new = best[hooks]
        # the hooking threads' own slots still hold ``old`` > ``new``, so
        # their atomic minimum is a store; old roots may be shared
        lab[core_ids[hooks]] = new
        np.minimum.at(lab, old[hooks], new)
        n_changed = len(new)
        # the device code's loads: 3 per core thread, 2 per row entry, 1
        # per core entry of a core row, 1 for the jump.  Rows tile B, so
        # a core row's core entries are B's minus the non-core rows'
        # (those rows are short: under minpts unless ``eligible`` cut them)
        noncore = np.flatnonzero(~is_core & (tmin >= 0))
        in_noncore = multi_arange(tmin[noncore], tmax[noncore] - tmin[noncore] + 1)
        core_entries = np.count_nonzero(vals != none) - np.count_nonzero(
            vals[in_noncore] != none
        )
        counters.global_loads += (
            3 * n_core + 2 * int((hi - lo + 1).sum()) + core_entries + n_core
        )
        counters.atomics += 3 * n_changed
        if changed is not None:
            device_array(changed)[0] += n_changed
        return n_changed

    @staticmethod
    def launch_config(n_points: int, *, block_dim: int = 256) -> LaunchConfig:
        return LaunchConfig.for_elements(max(1, n_points), block_dim)


class BorderAttachKernel(Kernel):
    """Attach border points to their lowest-id core neighbor.

    Each non-core thread scans its ``T`` row for the minimum core point
    id, records it in ``attach`` (``-1`` when none — true noise), and
    copies that core's label.  Core labels are never written here, so a
    single launch suffices and the result is identical across backends.
    """

    name = "BorderAttach"
    #: KC006 live-range estimate (repro analyze kernels)
    registers_per_thread = 11

    def value_invariants(self) -> "KernelInvariants":
        from repro.analysis.absint import KernelInvariants, RowRange

        return KernelInvariants(
            lengths={
                "t_min": "n",
                "t_max": "n",
                "core": "n",
                "labels": "n",
                "attach": "n",
                "B": "m",
            },
            scalars={"n": (1, None), "m": (1, None)},
            elements={"B": (0, "n-1"), "labels": (0, "n-1")},
            rows=(RowRange("t_min", "t_max", "B"),),
        )

    def cost_contract(self) -> "CostContract":
        from repro.analysis.costmodel import CostContract

        return CostContract(
            counter_bounds={"global_loads": "2*m + 4"},
            trip_estimates={"a": "r_row"},
            stats={"r_row": "mean neighbor-table row length (m / n)"},
        )

    def device_code(
        self,
        ctx: KernelContext,
        *,
        t_min: np.ndarray,
        t_max: np.ndarray,
        B: np.ndarray,
        core: np.ndarray,
        labels: np.ndarray,
        attach: np.ndarray,
    ) -> None:
        t_min = device_array(t_min)
        t_max = device_array(t_max)
        B = device_array(B)
        core = device_array(core)
        labels = device_array(labels)
        attach = device_array(attach)
        pid = ctx.global_id
        if pid >= len(core):
            ctx.count_divergent()
            return
        ctx.count_global_load(1)
        if core[pid] != 0:
            ctx.count_divergent()
            return
        lo = t_min[pid]
        hi = t_max[pid]
        ctx.count_global_load(2)
        nearest = -1
        if lo >= 0:
            for a in range(lo, hi + 1):
                j = B[a]
                ctx.count_global_load(2)
                if core[j] != 0 and (nearest < 0 or j < nearest):
                    nearest = j
        attach[pid] = nearest
        ctx.count_global_store(1)
        if nearest >= 0:
            labels[pid] = labels[nearest]
            ctx.count_global_load(1)
            ctx.count_global_store(1)

    def vector_impl(
        self,
        config: LaunchConfig,
        counters: KernelCounters,
        *,
        t_min: np.ndarray | DeviceBuffer,
        t_max: np.ndarray | DeviceBuffer,
        B: np.ndarray | DeviceBuffer,
        core: np.ndarray | DeviceBuffer,
        labels: np.ndarray | DeviceBuffer,
        attach: np.ndarray | DeviceBuffer,
    ) -> int:
        """Returns the number of attached border points."""
        tmin = device_array(t_min)
        tmax = device_array(t_max)
        b = device_array(B)
        c = device_array(core)
        lab = device_array(labels)
        att = device_array(attach)
        n = len(c)
        is_core = c != 0
        noncore = np.flatnonzero(~is_core)
        counters.divergent_threads += (
            (config.total_threads - n) + (n - len(noncore))
        )
        counters.global_loads += n + 2 * len(noncore)
        valid = noncore[tmin[noncore] >= 0]
        lo = tmin[valid]
        hi = tmax[valid]
        none = no_core(np.int64)
        core_id = np.where(is_core, np.arange(n, dtype=np.int64), none)
        nearest = row_minima(core_id[b.astype(np.intp, copy=False)], lo, hi)
        found = nearest != none
        attached = valid[found]
        att[noncore] = -1
        att[attached] = nearest[found]
        lab[attached] = lab[nearest[found]]
        counters.global_loads += 2 * int((hi - lo + 1).sum()) + len(attached)
        counters.global_stores += len(noncore) + len(attached)
        return len(attached)

    @staticmethod
    def launch_config(n_points: int, *, block_dim: int = 256) -> LaunchConfig:
        return LaunchConfig.for_elements(max(1, n_points), block_dim)
