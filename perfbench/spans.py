"""Span shims for the traced run, the per-layer table and its trace file.

The program has no tracing of its own, so the traced run wraps the
public entry point of each layer from outside: every call to a shimmed
function opens a span (name, layer, wall start and end, parent span,
thread) and closes it when the call returns.  Wrappers on the
``gpusim`` profiler's ``record_*`` methods attribute each modeled-time
record (and each kernel's ``KernelCounters``) to the innermost span open
on the recording thread, so modeled time is split by layer exactly.

A span opened on a stream worker thread, which has no span of its own,
attaches to the span open on the thread that started the trace: the
table build that owns the worker pool.

If a shim's target no longer exists, :func:`install` raises
:class:`ShimTargetMissing`, so a rename cannot silently drop a layer.
Spans stay in memory until :func:`write_chrome_trace` writes them as
Chrome trace-event JSON (open it in https://ui.perfetto.dev or
``chrome://tracing``).
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Optional

__all__ = [
    "Span",
    "Tracer",
    "Target",
    "TARGETS",
    "ShimTargetMissing",
    "install",
    "self_seconds",
    "layer_metrics",
    "write_chrome_trace",
]


class ShimTargetMissing(RuntimeError):
    """A layer entry point named in :data:`TARGETS` does not exist."""


class Span:
    """One call into a layer."""

    __slots__ = ("attrs", "id", "layer", "name", "parent", "t0", "t1", "tid")

    def __init__(self, sid: int, name: str, layer: str, parent, tid: int):
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent: Optional[Span] = parent
        self.tid = tid
        self.t0 = 0.0
        self.t1: Optional[float] = None
        self.attrs: dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return (self.t1 if self.t1 is not None else self.t0) - self.t0


@dataclass(frozen=True)
class Record:
    """One ``gpusim`` profiler record, attributed to a span."""

    span: Optional[Span]
    #: "kernel" | "transfer" | "sort" | "pinned_alloc" | "stall"
    kind: str
    modeled_ms: float
    nbytes: int = 0
    distance_calcs: int = 0
    global_loads: int = 0
    global_stores: int = 0


class Tracer:
    """In-memory span store with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.records: list[Record] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[Span]] = {}
        self.root_tid = threading.get_ident()
        self.epoch = time.perf_counter()

    def current(self) -> Optional[Span]:
        """Innermost open span of this thread (a worker thread without
        spans falls back to the tracing thread's innermost span)."""
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack:
            return stack[-1]
        if tid != self.root_tid:
            root = self._stacks.get(self.root_tid)
            if root:
                return root[-1]
        return None

    def begin(self, name: str, layer: str) -> Span:
        tid = threading.get_ident()
        span = Span(next(self._ids), name, layer, self.current(), tid)
        self._stacks.setdefault(tid, []).append(span)
        self.spans.append(span)
        span.t0 = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        stack = self._stacks[span.tid]
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()

    def record(self, kind: str, modeled_ms: float, **counts: int) -> None:
        self.records.append(Record(self.current(), kind, modeled_ms, **counts))


# ----------------------------------------------------------------------
# shim targets: the public entry points of each layer
# ----------------------------------------------------------------------
Note = Callable[[Span, tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    #: ``"module:qualname"`` of the function or method to wrap
    path: str
    span: str
    layer: str
    #: reads counts off the call's arguments and return value
    note: Optional[Note] = None


def _note_build(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    table, stats = result
    span.attrs.update(
        batches=stats.n_batches_run,
        pairs=int(sum(stats.batch_sizes)),
        capacity=stats.n_batches_run * stats.plan.buffer_size,
        estimate=stats.plan.ab,
        actual=table.total_pairs,
        recoveries=stats.recovery.splits
        + stats.recovery.regrows
        + stats.recovery.transfer_retries,
    )


def _note_add_batch(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["pairs"] = len(args[1])


def _note_alloc_pinned(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["pinned_peak_bytes"] = args[0].pinned.peak_bytes


def _note_device_cluster(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["rounds"] = result.iterations


def _note_sharded(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    cfg = kwargs.get("config")
    span.attrs.update(
        n_devices=cfg.n_devices if cfg is not None else 1,
        shards=len(result.shard_stats),
        attempts=len(result.events),
        interior=int(sum(s.n_interior for s in result.shard_stats)),
        halo=int(sum(s.n_halo for s in result.shard_stats)),
        exchange_bytes=result.exchange.collective_bytes if result.exchange else 0,
    )


def _service(path: str, name: str) -> Target:
    return Target(path, f"service.{name}", "service")


TARGETS: tuple[Target, ...] = (
    Target("repro.index.grid:GridIndex.build", "index.build", "index"),
    Target("repro.core.batching:BatchPlanner.plan", "batching.plan", "batching"),
    Target(
        "repro.core.batching:build_neighbor_table", "batching.build", "batching",
        _note_build,
    ),
    Target("repro.gpusim.launch:launch", "kernels.launch", "kernels"),
    Target("repro.gpusim.thrust:sort_pairs", "gpusim.sort", "gpusim"),
    Target("repro.gpusim.device:Device.to_device", "gpusim.to_device", "gpusim"),
    Target("repro.gpusim.device:Device.from_device", "gpusim.from_device", "gpusim"),
    Target(
        "repro.gpusim.device:Device.alloc_pinned", "gpusim.alloc_pinned", "gpusim",
        _note_alloc_pinned,
    ),
    Target(
        "repro.core.neighbor_table:NeighborTable.add_batch",
        "neighbor_table.add_batch", "neighbor_table", _note_add_batch,
    ),
    Target(
        "repro.core.neighbor_table:NeighborTable.finalize",
        "neighbor_table.finalize", "neighbor_table",
    ),
    Target(
        "repro.core.table_dbscan:dbscan_from_table",
        "table_dbscan.dbscan_from_table", "table_dbscan",
    ),
    Target(
        "repro.core.device_cluster:device_cluster_table",
        "device_cluster.cluster_table", "device_cluster", _note_device_cluster,
    ),
    Target(
        "repro.core.sharding:cluster_sharded", "sharding.cluster_sharded",
        "sharding", _note_sharded,
    ),
    Target("repro.core.sharding:plan_shards", "sharding.plan", "sharding"),
    Target(
        "repro.core.sharding:run_shard_supervised", "sharding.run_shard_supervised",
        "sharding",
    ),
    Target("repro.core.sharding:run_shard", "sharding.run_shard", "sharding"),
    Target("repro.core.sharding:merge_shard_labels", "sharding.merge", "sharding"),
    Target("repro.core.placement:place_shards", "placement.place", "placement"),
    Target(
        "repro.core.placement:collective_exchange", "placement.exchange", "placement"
    ),
    Target(
        "repro.core.placement:IncrementalMerger.absorb", "placement.absorb",
        "placement",
    ),
    Target(
        "repro.core.placement:IncrementalMerger.finalize", "placement.finalize",
        "placement",
    ),
    _service("repro.service.server:ClusteringService.submit", "submit"),
    _service("repro.service.server:ClusteringService.bump_epoch", "bump_epoch"),
    _service("repro.service.admission:AdmissionController.admit", "admit"),
    _service("repro.service.admission:AdmissionController.commit", "admission_commit"),
    _service("repro.service.cache:ResultCache.get_labels", "cache.get_labels"),
    _service("repro.service.cache:ResultCache.get_table", "cache.get_table"),
    _service("repro.service.cache:ResultCache.put_labels", "cache.put_labels"),
    _service("repro.service.cache:ResultCache.put_table", "cache.put_table"),
    _service("repro.service.cache:ResultCache.has_stale", "cache.has_stale"),
    _service("repro.service.cache:ResultCache.stale_labels", "cache.stale_labels"),
    _service("repro.service.cache:ResultCache.stale_table", "cache.stale_table"),
    _service("repro.service.cache:ResultCache.evict_older", "cache.evict_older"),
    _service("repro.service.degrade:choose_mode", "degrade.choose_mode"),
    _service("repro.service.degrade:sampled_labels", "degrade.sampled_labels"),
    _service("repro.hostsim.queueing:WorkerPool.peek_start", "pool.peek_start"),
    _service("repro.hostsim.queueing:WorkerPool.commit", "pool.commit"),
)

#: profiler methods whose records are attributed to the current span
_SINKS = (
    "record_kernel",
    "record_transfer",
    "record_sort",
    "record_pinned_alloc",
    "record_stall",
)


def _wrap(fn: Callable, tracer: Tracer, target: Target) -> Callable:
    name, layer, note = target.span, target.layer, target.note

    def shim(*args, **kwargs):
        span = tracer.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if note is not None:
            note(span, args, kwargs, result)
        return result

    shim.__wrapped__ = fn  # type: ignore[attr-defined]
    return shim


def _resolve(path: str) -> tuple[Any, str, Any]:
    mod_name, _, qualname = path.partition(":")
    try:
        owner: Any = importlib.import_module(mod_name)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = (
            getattr(owner, attr)
            if isinstance(owner, ModuleType)
            else inspect.getattr_static(owner, attr)
        )
    except (ImportError, AttributeError) as exc:
        raise ShimTargetMissing(f"shim target {path} is missing: {exc}") from exc
    return owner, attr, raw


def _sink(tracer: Tracer, kind: str, orig: Callable) -> Callable:
    def sink(prof, rec_or_ms):
        orig(prof, rec_or_ms)
        if kind == "kernel":
            c = rec_or_ms.counters
            tracer.record(
                "kernel", rec_or_ms.modeled_ms,
                distance_calcs=c.distance_calcs,
                global_loads=c.global_loads, global_stores=c.global_stores,
            )
        elif kind in ("transfer", "sort"):
            tracer.record(
                kind, rec_or_ms.modeled_ms, nbytes=getattr(rec_or_ms, "nbytes", 0)
            )
        else:
            tracer.record(kind, float(rec_or_ms))

    return sink


def install(tracer: Tracer, targets: tuple[Target, ...] = TARGETS) -> Callable[[], None]:
    """Install every shim; returns the function that removes them.

    A module-level function is rebound in every loaded ``repro`` module
    that imported it by name, so callers that did ``from x import f``
    reach the shim too.
    """
    undo: list[tuple[Any, str, Any, bool]] = []

    def rebind(owner: Any, attr: str, new: Any) -> None:
        # a method inherited from a base class is shadowed, then deleted
        had = attr in vars(owner)
        undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, new)

    try:
        for target in targets:
            owner, attr, raw = _resolve(target.path)
            if isinstance(owner, ModuleType):
                shim = _wrap(raw, tracer, target)
                for mod in [
                    m for n, m in list(sys.modules.items())
                    if m is not None and (n == "repro" or n.startswith("repro."))
                ]:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            rebind(mod, key, shim)
            elif isinstance(raw, (classmethod, staticmethod)):
                rebind(owner, attr, type(raw)(_wrap(raw.__func__, tracer, target)))
            else:
                rebind(owner, attr, _wrap(raw, tracer, target))
        prof_cls = _resolve("repro.gpusim.profiler:Profiler")[2]
        for meth in _SINKS:
            orig = _resolve(f"repro.gpusim.profiler:Profiler.{meth}")[2]
            kind = meth.removeprefix("record_")
            rebind(prof_cls, meth, _sink(tracer, kind, orig))
    except BaseException:
        _undo(undo)
        raise
    return lambda: _undo(undo)


def _undo(undo: list) -> None:
    for owner, attr, old, had in reversed(undo):
        if had:
            setattr(owner, attr, old)
        else:
            delattr(owner, attr)
    undo.clear()


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _children(tracer: Tracer) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in tracer.spans:
        if s.parent is not None:
            kids.setdefault(s.parent.id, []).append(s)
    return kids


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the union of its children's intervals."""
    assert span.t1 is not None
    clipped = [
        (max(c.t0, span.t0), min(c.t1, span.t1))
        for c in children
        if c.t1 is not None and c.t1 > span.t0 and c.t0 < span.t1
    ]
    return span.duration - _union_length(clipped)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The per-layer table: ``name -> (value, unit)``.

    Times are self time per op (``op`` spans are the benchmark's own, one
    per op); counts are per op unless the unit says otherwise.  ``extra``
    carries the values measured outside the spans (untraced per-op
    times, service statistics, the overhead ratio); it must provide the
    names in :data:`EXTRA_METRICS`.
    """
    kids = _children(tracer)
    spans = [s for s in tracer.spans if s.t1 is not None]
    ops = [s for s in spans if s.layer == "op"]
    n_ops = len(ops)
    if not n_ops:
        raise ValueError("traced phase recorded no op spans")

    self_s: dict[str, float] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + self_seconds(s, kids.get(s.id, []))
        by_name.setdefault(s.name, []).append(s)

    def ms_per_op(*names: str) -> float:
        return 1000.0 * math.fsum(self_s.get(n, 0.0) for n in names) / n_ops

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in by_name.get(name, [])))

    def count(name: str) -> int:
        return len(by_name.get(name, []))

    def modeled(kind: str, within: Optional[str] = None) -> float:
        def inside(span: Optional[Span]) -> bool:
            while span is not None:
                if span.name == within:
                    return True
                span = span.parent
            return False

        return math.fsum(
            r.modeled_ms
            for r in tracer.records
            if r.kind == kind and (within is None or inside(r.span))
        )

    kernels = [r for r in tracer.records if r.kind == "kernel"]
    dist = float(sum(r.distance_calcs for r in kernels))
    table_pairs = attr_sum("neighbor_table.add_batch", "pairs")

    # worker busy share: per table build, each worker thread's busy
    # time (union of its spans) over the build's wall time per worker
    busy = capacity = 0.0
    for b in by_name.get("batching.build", []):
        per_thread: dict[int, list[tuple[float, float]]] = {}
        for c in kids.get(b.id, []):
            if c.name not in ("batching.plan", "gpusim.alloc_pinned") and c.t1:
                per_thread.setdefault(c.tid, []).append((c.t0, c.t1))
        busy += sum(_union_length(iv) for iv in per_thread.values())
        capacity += len(per_thread) * b.duration

    dc_calls = count("device_cluster.cluster_table")
    sharded = by_name.get("sharding.cluster_sharded", [])
    multi = [s for s in sharded if s.attrs.get("n_devices", 1) > 1]
    pinned_peak = max(
        (s.attrs.get("pinned_peak_bytes", 0) for s in by_name.get("gpusim.alloc_pinned", [])),
        default=0,
    )
    op_wall = math.fsum(s.duration for s in ops)
    op_self = math.fsum(self_seconds(s, kids.get(s.id, [])) for s in ops)
    service_names = [n for n in self_s if n.startswith("service.")]

    out: dict[str, tuple[float, str]] = {
        "index.ms": (ms_per_op("index.build"), "ms/op"),
        "batching.plan_ms": (ms_per_op("batching.plan"), "ms/op"),
        "batching.self_ms": (ms_per_op("batching.build"), "ms/op"),
        "batching.batches": (attr_sum("batching.build", "batches") / n_ops, "count/op"),
        "batching.buffer_fill": (
            _ratio(attr_sum("batching.build", "pairs"),
                   attr_sum("batching.build", "capacity")),
            "ratio",
        ),
        "batching.estimate_ratio": (
            _ratio(attr_sum("batching.build", "estimate"),
                   attr_sum("batching.build", "actual")),
            "ratio",
        ),
        "batching.recoveries": (
            attr_sum("batching.build", "recoveries") / n_ops, "count/op"
        ),
        "batching.worker_busy_share": (_ratio(busy, capacity), "ratio"),
        "kernels.ms": (ms_per_op("kernels.launch"), "ms/op"),
        "kernels.device_ms": (modeled("kernel") / n_ops, "ms/op"),
        "kernels.launches": (len(kernels) / n_ops, "count/op"),
        "kernels.dist_evals": (dist / n_ops, "count/op"),
        "kernels.hit_ratio": (_ratio(table_pairs, dist), "ratio"),
        "kernels.bytes": (
            4.0 * sum(r.global_loads + r.global_stores for r in kernels) / n_ops,
            "computed_B/op",
        ),
        "sort.ms": (ms_per_op("gpusim.sort"), "ms/op"),
        "sort.device_ms": (modeled("sort") / n_ops, "ms/op"),
        "transfer.ms": (ms_per_op("gpusim.to_device", "gpusim.from_device"), "ms/op"),
        "transfer.device_ms": (modeled("transfer") / n_ops, "ms/op"),
        "transfer.bytes": (
            float(sum(r.nbytes for r in tracer.records if r.kind == "transfer")) / n_ops,
            "B/op",
        ),
        "memory.pinned_alloc_device_ms": (modeled("pinned_alloc") / n_ops, "ms/op"),
        "memory.pinned_peak_mb": (pinned_peak / 1e6, "MB"),
        "neighbor_table.ms": (
            ms_per_op("neighbor_table.add_batch", "neighbor_table.finalize"), "ms/op"
        ),
        "neighbor_table.pairs": (table_pairs / n_ops, "count/op"),
        "table_dbscan.ms": (ms_per_op("table_dbscan.dbscan_from_table"), "ms/op"),
        "table_dbscan.calls": (count("table_dbscan.dbscan_from_table") / n_ops, "count/op"),
        "device_cluster.ms": (ms_per_op("device_cluster.cluster_table"), "ms/op"),
        "device_cluster.device_ms": (
            math.fsum(
                modeled(k, within="device_cluster.cluster_table")
                for k in ("kernel", "transfer", "sort", "pinned_alloc", "stall")
            ) / n_ops,
            "ms/op",
        ),
        "device_cluster.rounds": (
            _ratio(attr_sum("device_cluster.cluster_table", "rounds"), dc_calls),
            "count/call",
        ),
        "device_cluster.calls": (dc_calls / n_ops, "count/op"),
        "sharding.plan_ms": (ms_per_op("sharding.plan"), "ms/op"),
        "sharding.shard_ms": (
            ms_per_op("sharding.run_shard_supervised", "sharding.run_shard"), "ms/op"
        ),
        "sharding.merge_ms": (ms_per_op("sharding.merge"), "ms/op"),
        "sharding.executor_ms": (ms_per_op("sharding.cluster_sharded"), "ms/op"),
        "sharding.shards": (attr_sum("sharding.cluster_sharded", "shards") / n_ops, "count/op"),
        "sharding.attempts_per_shard": (
            _ratio(attr_sum("sharding.cluster_sharded", "attempts"),
                   attr_sum("sharding.cluster_sharded", "shards")),
            "ratio",
        ),
        "sharding.halo_ratio": (
            _ratio(attr_sum("sharding.cluster_sharded", "halo"),
                   attr_sum("sharding.cluster_sharded", "interior")),
            "ratio",
        ),
        "placement.ms": (ms_per_op("placement.place", "placement.exchange"), "ms/op"),
        "placement.absorb_ms": (ms_per_op("placement.absorb"), "ms/op"),
        "placement.finalize_ms": (ms_per_op("placement.finalize"), "ms/op"),
        "placement.exchange_mb": (
            _ratio(sum(s.attrs["exchange_bytes"] for s in multi) / 1e6, len(multi)),
            "MB/op",
        ),
        "service.self_ms": (ms_per_op(*service_names), "ms/op"),
        "trace.uncovered_share": (_ratio(op_self, op_wall), "ratio"),
    }
    for name, unit in EXTRA_METRICS.items():
        out[name] = (float(extra[name]), unit)
    return out


#: per-layer metrics measured outside the spans, with their units
EXTRA_METRICS: dict[str, str] = {
    "sharding.op_ms.1dev": "ms/op",
    "sharding.op_ms.4dev": "ms/op",
    "service.cache_hit_ratio": "ratio",
    "service.misses": "count/op",
    "service.invalidations": "count/op",
    "service.queue_ms_p95": "ms",
    "service.rejected": "count/op",
    "service.degraded": "count/op",
    "service.retries": "count/op",
    "service.utilization": "ratio",
    "trace.overhead": "ratio",
    "wall.variants_per_s": "1/s",
    "wall.setup_s": "s",
}


def write_chrome_trace(tracer: Tracer, path: Path) -> None:
    """Write the spans as Chrome trace-event JSON (``ph: "X"`` events,
    microseconds, one track per thread)."""
    own_ms: dict[int, list[float]] = {}
    for r in tracer.records:
        if r.span is not None:
            own_ms.setdefault(r.span.id, []).append(r.modeled_ms)
    tids: dict[int, int] = {}
    events: list[dict] = []
    for s in tracer.spans:
        if s.t1 is None:
            continue
        tid = tids.setdefault(s.tid, len(tids))
        args = {"id": s.id, "parent": s.parent.id if s.parent else None}
        if s.id in own_ms:
            args["own_device_ms"] = math.fsum(own_ms[s.id])
        args.update(s.attrs)
        events.append({
            "name": s.name,
            "cat": s.layer,
            "ph": "X",
            "ts": (s.t0 - tracer.epoch) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    for ident, tid in tids.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {
                "name": "main" if ident == tracer.root_tid else f"worker-{ident}"
            },
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
