"""Multi-device shard placement, collective halo exchange, halo merge.

The sharding layer (:mod:`repro.core.sharding`) produces ε-aligned
tiles whose halos overlap their neighbors' interiors.  Running those
tiles on N simulated bounded devices raises three questions this module
answers:

1. **Which device gets which tile?**  :func:`place_shards` — either
   ``"round-robin"`` (the scatter baseline) or ``"locality"``: tiles are
   ordered along a boustrophedon space-filling curve of the tile grid
   (consecutive curve entries are grid neighbors) and the curve is cut
   into N *contiguous* segments balanced by estimated work (the optimal
   contiguous partition, found by binary search on the bottleneck).
   Adjacent tiles land on the same device, so their shared halo rings
   stay device-local and never cross the interconnect.
2. **What does the halo traffic look like?**  On a real multi-GPU
   system each device needs every halo point whose *owner* (the shard
   holding it as interior) lives on another device.  Rather than
   point-to-point staging per shard, :func:`collective_exchange` models
   one sparse all-to-all over the per-device boundary sets — each point
   shipped at most once per (owner device, needing device) pair, the
   shape of NCCL's ``sparse_all_to_all_push`` — and reports the traffic
   matrix, the deduplicated collective volume, and the naive staged
   volume it replaces.
3. **When does the merge run?**  :class:`IncrementalMerger` absorbs
   each shard's reduction arrays *as the shard completes* — only its
   exact interior core bits are recorded then — and forms the clusters
   in one sparse connected-components pass at finalize, once every
   shard's core status is known.  The result is independent of
   absorption order and bit-identical to the single-device
   :func:`~repro.core.table_dbscan.dbscan_from_table` — property-tested
   in ``tests/core/test_placement.py``.
"""

from __future__ import annotations

import numpy as np
from repro.core.sharding import PLACEMENT_STRATEGIES, ShardLocalResult, ShardPlan
from repro.core.table_dbscan import NOISE, components_labels

__all__ = [
    "DevicePlacement",
    "CollectiveExchange",
    "IncrementalMerger",
    "PLACEMENT_STRATEGIES",
    "place_shards",
    "collective_exchange",
]

#: bytes shipped per exchanged halo point (x, y float64 coordinates)
BYTES_PER_POINT = 16


# ----------------------------------------------------------------------
# the placer
# ----------------------------------------------------------------------
def _boustrophedon_order(plan: ShardPlan) -> list[int]:
    """Shard indices along a serpentine walk of the tile grid.

    Rows alternate direction, so consecutive curve entries are adjacent
    tiles (sharing an edge) except at row turns — where they are still
    grid neighbors vertically.  Contiguous curve segments are therefore
    connected tile blocks.
    """
    return sorted(
        range(len(plan.shards)),
        key=lambda i: (
            plan.shards[i].ty,
            plan.shards[i].tx
            if plan.shards[i].ty % 2 == 0
            else -plan.shards[i].tx,
        ),
    )


def _segments_needed(weights: list[int], cap: int) -> int:
    """Greedy pack count: contiguous segments each summing <= cap."""
    n_seg, acc = 1, 0
    for w in weights:
        if acc + w > cap:
            n_seg += 1
            acc = w
        else:
            acc += w
    return n_seg


def _optimal_contiguous_cuts(weights: list[int], k: int) -> list[int]:
    """Cut ``weights`` into <= k contiguous segments minimizing the max
    segment sum (binary search on the bottleneck + greedy packing).

    Returns the segment index of every position.  The optimal bottleneck
    is non-increasing in ``k`` — the monotonicity the makespan property
    tests rely on.
    """
    lo, hi = max(weights), sum(weights)
    while lo < hi:
        mid = (lo + hi) // 2
        if _segments_needed(weights, mid) <= k:
            hi = mid
        else:
            lo = mid + 1
    seg, acc, out = 0, 0, []
    for w in weights:
        if acc + w > lo:
            seg += 1
            acc = w
        else:
            acc += w
        out.append(seg)
    return out


class DevicePlacement:
    """Assignment of every planned shard to one of ``n_devices``."""

    def __init__(
        self,
        n_devices: int,
        strategy: str,
        assignment: np.ndarray,
        curve: tuple[int, ...],
        weights: tuple[int, ...],
    ):
        self.n_devices = int(n_devices)
        self.strategy = strategy
        #: per-``plan.shards`` index device id
        self.assignment = np.asarray(assignment, dtype=np.int64)
        #: shard indices in boustrophedon curve order
        self.curve = curve
        #: estimated work per shard (interior + halo point count)
        self.weights = weights

    def shards_of(self, device: int) -> list[int]:
        """Shard indices assigned to ``device``, in curve order."""
        return [i for i in self.curve if self.assignment[i] == device]

    @property
    def device_loads(self) -> list[int]:
        """Estimated work per device (sum of assigned shard weights)."""
        loads = [0] * self.n_devices
        for i, w in enumerate(self.weights):
            loads[int(self.assignment[i])] += w
        return loads

    @property
    def n_used(self) -> int:
        """Devices that actually received at least one shard."""
        return len(set(self.assignment.tolist()))

    def as_dict(self) -> dict:
        return {
            "n_devices": self.n_devices,
            "strategy": self.strategy,
            "assignment": self.assignment.tolist(),
            "device_loads": self.device_loads,
        }


def place_shards(
    plan: ShardPlan, n_devices: int, strategy: str = "locality"
) -> DevicePlacement:
    """Assign the plan's shards to ``n_devices`` simulated devices.

    ``"locality"`` cuts the boustrophedon tile curve into contiguous
    segments balanced by estimated work, so adjacent tiles (whose halo
    rings overlap each other's interiors) co-reside and their halo
    traffic never leaves the device.  ``"round-robin"`` deals shards
    out in plan order — the maximally scattered baseline the placement
    ablation compares against.
    """
    if n_devices < 1:
        raise ValueError("n_devices must be >= 1")
    if strategy not in PLACEMENT_STRATEGIES:
        raise ValueError(
            f"unknown placement strategy {strategy!r} "
            f"(expected one of {PLACEMENT_STRATEGIES})"
        )
    n = len(plan.shards)
    curve = tuple(_boustrophedon_order(plan))
    weights = tuple(
        len(s.interior_ids) + len(s.halo_ids) for s in plan.shards
    )
    assignment = np.zeros(n, dtype=np.int64)
    if n and n_devices > 1:
        if strategy == "round-robin":
            assignment = np.arange(n, dtype=np.int64) % n_devices
        else:
            curve_weights = [weights[i] for i in curve]
            segs = _optimal_contiguous_cuts(curve_weights, n_devices)
            for pos, i in enumerate(curve):
                assignment[i] = segs[pos]
    return DevicePlacement(
        n_devices=n_devices,
        strategy=strategy,
        assignment=assignment,
        curve=curve,
        weights=weights,
    )


# ----------------------------------------------------------------------
# collective halo exchange
# ----------------------------------------------------------------------
class CollectiveExchange:
    """Modeled sparse all-to-all over the per-device boundary sets."""

    def __init__(self, matrix: np.ndarray, staged_points: int):
        #: ``matrix[src, dst]`` — halo points device ``src`` ships to
        #: ``dst`` (deduplicated per destination; diagonal is zero)
        self.matrix = matrix
        #: naive per-shard point-to-point staging volume this collective
        #: replaces (every shard's full halo, duplicates included)
        self.staged_points = int(staged_points)

    @property
    def n_devices(self) -> int:
        return len(self.matrix)

    @property
    def collective_points(self) -> int:
        """Deduplicated cross-device halo volume (off-diagonal sum)."""
        return int(self.matrix.sum())

    @property
    def collective_bytes(self) -> int:
        return self.collective_points * BYTES_PER_POINT

    @property
    def staged_bytes(self) -> int:
        return self.staged_points * BYTES_PER_POINT

    def modeled_s(
        self,
        bandwidth_gbs: float = 32.0,
        latency_s: float = 5e-6,
    ) -> float:
        """α-β all-to-all time: per-peer latency plus the bottleneck
        device's max(send, recv) bytes over the link bandwidth."""
        if bandwidth_gbs <= 0:
            raise ValueError("bandwidth must be positive")
        if self.n_devices <= 1:
            return 0.0
        sent = self.matrix.sum(axis=1) * BYTES_PER_POINT
        recv = self.matrix.sum(axis=0) * BYTES_PER_POINT
        bottleneck = float(np.maximum(sent, recv).max())
        return latency_s * (self.n_devices - 1) + bottleneck / (
            bandwidth_gbs * 1e9
        )

    def as_dict(self) -> dict:
        return {
            "matrix": self.matrix.tolist(),
            "collective_points": self.collective_points,
            "collective_bytes": self.collective_bytes,
            "staged_points": self.staged_points,
            "staged_bytes": self.staged_bytes,
        }


def collective_exchange(
    plan: ShardPlan, placement: DevicePlacement
) -> CollectiveExchange:
    """Halo traffic of ``placement`` as one sparse all-to-all.

    Every halo point is interior to exactly one shard (its *owner*); a
    device needs the union of its shards' halo rings, and only the
    points owned elsewhere cross the interconnect.  Each such point is
    counted once per (owner device, needing device) pair — the
    collective ships the deduplicated boundary set, not one copy per
    requesting shard.
    """
    d = placement.n_devices
    matrix = np.zeros((d, d), dtype=np.int64)
    if plan.n_points == 0 or not plan.shards:
        return CollectiveExchange(matrix, staged_points=0)
    owner = np.full(plan.n_points, -1, dtype=np.int64)
    for i, s in enumerate(plan.shards):
        owner[s.interior_ids] = placement.assignment[i]
    staged = 0
    for dev in range(d):
        halos = [
            plan.shards[i].halo_ids for i in placement.shards_of(dev)
        ]
        if not halos:
            continue
        staged += sum(len(h) for h in halos)
        needed = np.unique(np.concatenate(halos))
        src = owner[needed]
        src = src[src >= 0]  # halo points outside every tile never occur
        counts = np.bincount(src, minlength=d)
        counts[dev] = 0  # device-local halos never cross the link
        matrix[:, dev] += counts
    return CollectiveExchange(matrix, staged_points=staged)


# ----------------------------------------------------------------------
# the halo merge
# ----------------------------------------------------------------------
class IncrementalMerger:
    """The halo merge of a sharded run, fed one shard at a time.

    :meth:`absorb` takes one completed :class:`ShardLocalResult` the
    moment its shard finishes: it sets the shard's exact interior core
    bits in the global core mask and keeps the shard's reduction
    arrays.  :meth:`finalize` then clusters in one pass: a single
    sparse connected-components over every shard's local component
    edges plus the cross edges whose halo endpoint is globally core,
    lowest-id border attachment over every shard's candidates, and
    :func:`~repro.core.table_dbscan.canonicalize_labels`.

    The merge graph and the candidate multiset do not depend on
    absorption order, so the labels equal
    :func:`~repro.core.table_dbscan.dbscan_from_table` on the whole
    dataset for any order the shards complete in.
    """

    def __init__(self, n_points: int):
        self.n_points = int(n_points)
        self._is_core = np.zeros(self.n_points, dtype=bool)
        self._locals: list[ShardLocalResult] = []
        self._finalized = False

    def absorb(self, lr: ShardLocalResult) -> None:
        """Classify one completed shard's interior; keep its arrays."""
        if self._finalized:
            raise RuntimeError("merger already finalized")
        self._is_core[lr.interior_ids[lr.interior_core]] = True
        self._locals.append(lr)

    def finalize(self) -> np.ndarray:
        """Union, attach borders, canonicalize.  Labels are in plan
        (sorted) order."""
        self._finalized = True
        is_core = self._is_core
        if not is_core.any():
            return np.full(self.n_points, NOISE, dtype=np.int64)

        # the merge graph: local component edges + cross edges whose
        # halo endpoint is globally core
        locals_ = self._locals
        edges = np.concatenate(
            [lr.comp_edges for lr in locals_]
            + [lr.cross_edges[is_core[lr.cross_edges[:, 1]]] for lr in locals_]
        )
        # border attachment: lowest-id core neighbor across ALL shards'
        # candidates (exact interior candidate + globally-core halo ones)
        att = np.concatenate(
            [lr.border_interior for lr in locals_]
            + [
                lr.border_halo_edges[is_core[lr.border_halo_edges[:, 1]]]
                for lr in locals_
            ]
        )
        return components_labels(
            is_core, edges[:, 0], edges[:, 1], att[:, 0], att[:, 1]
        )
