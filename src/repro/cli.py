"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``cluster``
    HYBRID-DBSCAN one variant of a point file (or named dataset).
``sweep``
    Scenario S2: cluster a grid of ε values (optionally pipelined or via
    one annotated table).
``reuse``
    Scenario S3: one table, many minpts, concurrent workers.
``optics``
    Compute an OPTICS ordering and extract clusterings.
``info``
    Describe a dataset (size, extent, density profile).
``serve``
    Long-lived clustering service: replay a deterministic request trace
    through admission control, the epoch-keyed result cache,
    retry/backoff + circuit breaking, and graceful degradation.
``analyze kernels``
    kernelcheck: static verification of the registered device kernels
    (barrier divergence, shared-memory races, coalescing, occupancy,
    abstract-interpretation bounds proofs, register estimates).

Point inputs are either a path to a ``.npy``/``.csv`` file with x, y in
the first two columns, or one of the paper's dataset names
(SW1, SW4, SDSS1, SDSS2, SDSS3 — generated synthetically at
``--scale``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from repro import __version__
from repro.core import (
    BatchConfig,
    HybridDBSCAN,
    MultiClusterPipeline,
    ShardConfig,
    ShardFailureError,
    VariantSet,
    cluster_eps_sweep,
    cluster_sharded,
    cluster_with_reuse,
    extract_dbscan,
    optics,
)
from repro.data import DATASETS, dataset, density_profile, load_points
from repro.gpusim import Device, FaultInjector, FaultSpec, derive_seed

__all__ = ["main", "build_parser"]


def _load(source: str, scale: Optional[float]) -> np.ndarray:
    if source in DATASETS:
        return dataset(source, scale=scale)
    return load_points(source)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    for k, v in payload.items():
        print(f"{k}: {v}")


def _device(args, *, faults: Optional[FaultInjector] = None) -> Device:
    """Device honoring ``--sanitize`` (or GPUSAN); violations are
    recorded and reported at the end of the run, not raised mid-way."""
    return Device(
        faults=faults,
        sanitize=True if args.sanitize else None,
        sanitize_mode="record",
    )


def _attach_sanitizer_report(payload: dict, device: Device) -> None:
    report = device.close()
    if report is not None:
        payload["sanitizer"] = report.as_dict()
        if not report.clean:
            print(report.render(), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="HYBRID-DBSCAN (Gowanlock et al. 2017) reproduction CLI",
    )
    p.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("points", help="point file (.npy/.csv) or dataset name")
        sp.add_argument("--scale", type=float, default=None,
                        help="dataset scale for named datasets")
        sp.add_argument("--json", action="store_true", help="JSON output")
        sp.add_argument(
            "--sanitize", action="store_true",
            help="run under the gpusanitizer (racecheck/memcheck/"
                 "synccheck) and report violations (also: GPUSAN=1)",
        )

    c = sub.add_parser("cluster", help="cluster one (eps, minpts) variant")
    common(c)
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--minpts", type=int, default=4)
    c.add_argument("--kernel", choices=["global", "shared"], default="global")
    c.add_argument(
        "--cluster-on", choices=["host", "device"], default="host",
        help="where cluster formation runs: 'host' (Algorithm 4's CPU "
             "DBSCAN over T) or 'device' (union-find label kernels on "
             "the simulated GPU; labels bit-identical)",
    )
    c.add_argument("--labels-out", help="write labels to this .npy file")
    c.add_argument(
        "--recovery",
        choices=["auto", "split", "regrow"],
        default="auto",
        help="overflow recovery strategy for the batched table build",
    )
    c.add_argument(
        "--inject-overflow", type=int, nargs="*", metavar="BATCH", default=None,
        help="fault injection: overflow the result buffer at these batch "
             "indices (exercises the recovery path; with --shards, every "
             "shard gets its own derived-seed injector)",
    )
    c.add_argument(
        "--inject-transfer", type=int, nargs="*", metavar="BATCH", default=None,
        help="fault injection: fail the staging transfer of these batches",
    )
    c.add_argument(
        "--shards", type=int, nargs=2, metavar=("NX", "NY"), default=None,
        help="out-of-core mode: partition into NX x NY eps-aligned tiles "
             "with halo merge (labels identical to the single-device path)",
    )
    c.add_argument(
        "--devices", type=int, default=1,
        help="simulated bounded devices the shards are placed across "
             "(collective halo exchange, halo merge overlapped with "
             "the builds)",
    )
    c.add_argument(
        "--placement", choices=["locality", "round-robin"],
        default="locality",
        help="shard-to-device placement: 'locality' co-places adjacent "
             "tiles so shared halo rings stay device-local; "
             "'round-robin' is the scatter baseline",
    )
    c.add_argument(
        "--shard-mem-mb", type=float, default=None,
        help="per-shard device memory cap in MiB (out-of-core budget)",
    )
    c.add_argument(
        "--shard-retries", type=int, default=2,
        help="per-shard retry budget: wholesale shard faults are retried "
             "on a fresh fallback device this many times",
    )
    c.add_argument(
        "--shard-split-on-oom", action=argparse.BooleanOptionalAction,
        default=True,
        help="quad-split a shard's eps-aligned tile when it dies with a "
             "memory-shaped fault (device OOM / overflow beyond batch "
             "recovery) instead of only escalating the memory grant",
    )
    c.add_argument(
        "--inject-shard-oom", type=int, nargs=2, metavar=("TX", "TY"),
        action="append", default=None,
        help="fault injection (with --shards): fail tile (TX, TY) "
             "wholesale with a device OOM — exercises quad-split recovery",
    )
    c.add_argument(
        "--inject-shard-loss", type=int, nargs=2, metavar=("TX", "TY"),
        action="append", default=None,
        help="fault injection (with --shards): lose tile (TX, TY)'s "
             "device wholesale — exercises fallback-device retry",
    )
    c.add_argument(
        "--fault-seed", type=int, default=0,
        help="base seed for derived per-shard fault-injector streams",
    )

    s = sub.add_parser("sweep", help="scenario S2: eps sweep at fixed minpts")
    common(s)
    s.add_argument("--eps", type=float, nargs="+", required=True)
    s.add_argument("--minpts", type=int, default=4)
    s.add_argument("--pipelined", action="store_true")
    s.add_argument(
        "--annotated",
        action="store_true",
        help="one annotated table at max eps instead of per-eps tables",
    )

    r = sub.add_parser("reuse", help="scenario S3: one table, many minpts")
    common(r)
    r.add_argument("--eps", type=float, required=True)
    r.add_argument("--minpts", type=int, nargs="+", required=True)
    r.add_argument("--threads", type=int, default=16)

    o = sub.add_parser("optics", help="OPTICS ordering + extraction")
    common(o)
    o.add_argument("--eps", type=float, required=True,
                   help="generating distance (table eps)")
    o.add_argument("--minpts", type=int, default=4)
    o.add_argument("--extract", type=float, nargs="*", default=[],
                   help="extract DBSCAN clusterings at these eps values")

    i = sub.add_parser("info", help="describe a dataset")
    common(i)
    i.add_argument("--eps", type=float, default=None,
                   help="eps for the density profile (default: auto)")

    v = sub.add_parser(
        "serve",
        help="long-lived clustering service: replay a deterministic "
             "request trace through admission control, the epoch-keyed "
             "result cache, retry/backoff + circuit breaking, and "
             "graceful degradation",
    )
    common(v)
    v.add_argument("--requests", type=int, default=50,
                   help="synthetic trace length")
    v.add_argument("--eps", type=float, nargs="+", required=True,
                   help="eps values the trace draws from")
    v.add_argument("--minpts", type=int, nargs="+", default=[4],
                   help="minpts values the trace draws from")
    v.add_argument("--interarrival-ms", type=float, default=5.0,
                   help="mean request interarrival on the virtual clock "
                        "(smaller = more offered load)")
    v.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request deadline (virtual ms); omit for "
                        "best-effort")
    v.add_argument("--tenants", type=int, default=1)
    v.add_argument("--bump-every", type=int, default=0,
                   help="interleave a dataset epoch bump every N requests "
                        "(0 = never) — exercises cache invalidation and "
                        "stale degraded serving")
    v.add_argument("--workers", type=int, default=2,
                   help="simulated host workers")
    v.add_argument("--device-slots", type=int, default=2,
                   help="simulated device slots the circuit breaker "
                        "quarantines over")
    v.add_argument("--max-queue", type=int, default=8,
                   help="admission queue bound")
    v.add_argument("--no-degrade", action="store_true",
                   help="disable graceful degradation (typed rejection "
                        "instead of stale/sampled answers)")
    v.add_argument(
        "--inject-transfer-every", type=int, default=0, metavar="N",
        help="fault injection: every Nth request's first execution "
             "attempt suffers persistent transfer faults (exercises "
             "retry/backoff; 0 = off)",
    )
    v.add_argument(
        "--inject-slowdown-ms", type=float, default=0.0, metavar="MS",
        help="fault injection: stall every --slowdown-every'th request's "
             "device ops by MS virtual ms (no wall-clock sleep)",
    )
    v.add_argument("--slowdown-every", type=int, default=4, metavar="N",
                   help="period of --inject-slowdown-ms injection")
    v.add_argument("--seed", type=int, default=0,
                   help="trace + backoff-jitter seed")
    v.add_argument("--responses", action="store_true",
                   help="include the per-request response log in output")

    a = sub.add_parser(
        "analyze", help="static analysis of the simulated-GPU code"
    )
    asub = a.add_subparsers(dest="target", required=True)
    ak = asub.add_parser(
        "kernels",
        help="kernelcheck: KC001 barrier divergence, KC002 shared-memory "
             "races, KC003 coalescing (gathers classified by abstract "
             "interpretation), KC004 static occupancy, KC005 bounds proofs "
             "against each kernel's value_invariants() contract, KC006 "
             "live-range register estimates — over every registered kernel",
    )
    ak.add_argument("--format", choices=["text", "json"], default="text")
    ak.add_argument(
        "--fail-on", choices=["warn", "error"], default="error",
        dest="fail_on",
        help="exit 1 when findings at/above this severity exist",
    )
    ak.add_argument(
        "--block-dims", type=int, nargs="+", default=None, metavar="BD",
        help="block sizes the static occupancy table is evaluated at",
    )

    ac = asub.add_parser(
        "cost",
        help="KC007 symbolic cost models: per-kernel worst-case counter "
             "polynomials (trip counts from abstract interpretation × "
             "per-access transaction counts × divergence), plus the "
             "cost-ranked configuration lattice on a nominal workload",
    )
    ac.add_argument("--format", choices=["text", "json"], default="text")
    ac.add_argument(
        "--top-k", type=int, default=None, metavar="K", dest="top_k",
        help="cap the surviving-configuration frontier at K entries",
    )

    t = sub.add_parser(
        "tune",
        help="static launch-configuration pruning: rank the kernel × "
             "block-dim lattice by the KC007 cost model on the dataset's "
             "measured workload statistics and eliminate dominated "
             "configs",
    )
    common(t)
    t.add_argument("--eps", type=float, required=True,
                   help="eps the grid index (and hence the workload "
                        "statistics) is built at")
    t.add_argument("--safety", type=float, default=3.0,
                   help="cost-model calibration margin; a config is "
                        "eliminated only when predicted/safety still "
                        "exceeds best*safety")
    t.add_argument(
        "--top-k", type=int, default=None, metavar="K", dest="top_k",
        help="cap the surviving-configuration frontier at K entries",
    )
    t.add_argument(
        "--block-dims", type=int, nargs="+", default=None, metavar="BD",
        help="block sizes in the configuration lattice",
    )
    return p


def _cmd_cluster(args) -> int:
    pts = _load(args.points, args.scale)
    if args.shards is not None:
        return _cmd_cluster_sharded(args, pts)
    specs = []
    for kind, batches in (
        ("overflow", args.inject_overflow),
        ("transfer", args.inject_transfer),
    ):
        if batches is not None:
            specs.append(FaultSpec(kind, frozenset(batches)))
    device = _device(args, faults=FaultInjector(specs) if specs else None)
    res = HybridDBSCAN(
        device,
        kernel=args.kernel,
        batch_config=BatchConfig(recovery=args.recovery),
        cluster_on=args.cluster_on,
    ).fit(pts, args.eps, args.minpts)
    if args.labels_out:
        np.save(args.labels_out, res.labels)
    payload = {
        "points": len(pts),
        "eps": res.eps,
        "minpts": res.minpts,
        "clusters": res.n_clusters,
        "noise": res.n_noise,
        "pairs": res.total_pairs,
        "batches": res.n_batches,
        "cluster_on": args.cluster_on,
        "total_s": round(res.timings.total_s, 4),
        "gpu_s": round(res.timings.gpu_s, 4),
        "dbscan_s": round(res.timings.dbscan_s, 4),
        "recovery": res.recovery.as_dict(),
    }
    _attach_sanitizer_report(payload, device)
    _emit(payload, args.json)
    return 0


def _shard_fault_factory(args):
    """Per-shard injector factory from the CLI's fault flags.

    Batch-level specs (``--inject-overflow`` / ``--inject-transfer``)
    apply to every planner tile; wholesale faults
    (``--inject-shard-oom`` / ``--inject-shard-loss``) only to the
    listed tiles.  Each targeted shard gets its own injector with a
    deterministic seed derived from the shard's identity, so injection
    composes with ``--shards`` instead of being rejected.
    """
    batch_specs = []
    for kind, batches in (
        ("overflow", args.inject_overflow),
        ("transfer", args.inject_transfer),
    ):
        if batches is not None:
            batch_specs.append(FaultSpec(kind, frozenset(batches)))
    oom_tiles = {tuple(t) for t in (args.inject_shard_oom or [])}
    loss_tiles = {tuple(t) for t in (args.inject_shard_loss or [])}
    if not batch_specs and not oom_tiles and not loss_tiles:
        return None

    def factory(shard):
        if shard.generation > 0:
            return None  # one fault per lineage: split children run clean
        specs = list(batch_specs)
        if (shard.tx, shard.ty) in oom_tiles:
            specs.append(FaultSpec("device_oom"))
        if (shard.tx, shard.ty) in loss_tiles:
            specs.append(FaultSpec("device_lost"))
        if not specs:
            return None
        return FaultInjector(
            specs,
            seed=derive_seed(
                args.fault_seed,
                shard.tx, shard.ty, shard.generation,
                shard.cx0, shard.cx1, shard.cy0, shard.cy1,
            ),
        )

    return factory


def _cmd_cluster_sharded(args, pts: np.ndarray) -> int:
    nx, ny = args.shards
    cap = (
        int(args.shard_mem_mb * (1 << 20))
        if args.shard_mem_mb is not None
        else None
    )
    try:
        res = cluster_sharded(
            pts,
            args.eps,
            args.minpts,
            config=ShardConfig(
                shards_x=nx,
                shards_y=ny,
                n_devices=args.devices,
                placement=args.placement,
                device_mem_bytes=cap,
                max_shard_retries=args.shard_retries,
                split_on_oom=args.shard_split_on_oom,
                fault_factory=_shard_fault_factory(args),
            ),
            kernel=args.kernel,
            batch_config=BatchConfig(recovery=args.recovery),
            sanitize=True if args.sanitize else None,
            cluster_on=args.cluster_on,
        )
    except ShardFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.labels_out:
        np.save(args.labels_out, res.labels)
    ds = res.device_schedule
    payload = {
        "points": len(pts),
        "eps": res.eps,
        "minpts": res.minpts,
        "clusters": res.n_clusters,
        "noise": res.n_noise,
        "shards": len(res.shard_stats),
        "shard_grid": f"{nx}x{ny}",
        "cluster_on": args.cluster_on,
        "devices": args.devices,
        "serial_s": round(res.serial_s, 4),
        "makespan_s": round(res.makespan_s, 4),
        "merge_s": round(res.merge_s, 4),
        "peak_device_bytes": res.max_peak_device_bytes,
        "recovery": res.recovery.as_dict(),
        "per_shard": [s.as_dict() for s in res.shard_stats],
        "shard_events": [e.as_dict() for e in res.events],
        "placement": res.placement.as_dict(),
        "exchange": res.exchange.as_dict(),
        "lost_devices": res.lost_devices,
        "device_schedule": {
            "makespan_s": round(ds.makespan_s, 4),
            "build_makespan_s": round(ds.build_makespan_s, 4),
            "exchange_s": round(ds.exchange_s, 6),
            "finalize_s": round(ds.finalize_s, 6),
            "speedup": round(ds.speedup, 2),
            "utilization": round(ds.utilization, 3),
        },
    }
    _emit(payload, args.json)
    return 0


def _cmd_sweep(args) -> int:
    pts = _load(args.points, args.scale)
    hybrid = HybridDBSCAN(_device(args))
    if args.annotated:
        sweep = cluster_eps_sweep(pts, args.eps, args.minpts, hybrid=hybrid)
        payload = {
            "mode": "annotated",
            "build_s": round(sweep.build_s, 4),
            "total_s": round(sweep.total_s, 4),
            "results": [
                {"eps": o.eps, "clusters": o.n_clusters, "noise": o.n_noise}
                for o in sweep.outcomes
            ],
        }
    else:
        variants = VariantSet.eps_sweep(args.eps, args.minpts)
        res = MultiClusterPipeline(hybrid).run(
            pts, variants, pipelined=args.pipelined
        )
        payload = {
            "mode": "pipelined" if args.pipelined else "sequential",
            "total_s": round(res.total_s, 4),
            "recovery": res.recovery.as_dict(),
            "results": [
                {
                    "eps": o.variant.eps,
                    "clusters": o.n_clusters,
                    "noise": o.n_noise,
                }
                for o in res.outcomes
            ],
        }
    _attach_sanitizer_report(payload, hybrid.device)
    _emit(payload, args.json)
    return 0


def _cmd_reuse(args) -> int:
    pts = _load(args.points, args.scale)
    hybrid = HybridDBSCAN(_device(args))
    res = cluster_with_reuse(
        pts, args.eps, args.minpts, n_threads=args.threads, hybrid=hybrid
    )
    payload = {
        "eps": res.eps,
        "threads": res.n_threads,
        "build_s": round(res.build_s, 4),
        "cluster_s": round(res.cluster_s, 4),
        "thread_speedup": round(res.thread_speedup, 2),
        "results": [
            {"minpts": o.minpts, "clusters": o.n_clusters, "noise": o.n_noise}
            for o in res.outcomes
        ],
    }
    _attach_sanitizer_report(payload, hybrid.device)
    _emit(payload, args.json)
    return 0


def _cmd_optics(args) -> int:
    pts = _load(args.points, args.scale)
    h = HybridDBSCAN(_device(args))
    grid, table, _ = h.build_table(pts, args.eps, with_distances=True)
    result = optics(table, args.minpts)
    extractions = []
    for eps in args.extract:
        labels = extract_dbscan(result, eps)
        extractions.append(
            {
                "eps": eps,
                "clusters": int(labels.max()) + 1 if (labels >= 0).any() else 0,
                "noise": int((labels == -1).sum()),
            }
        )
    reach = result.reachability_plot()
    finite = reach[np.isfinite(reach)]
    payload = {
        "points": len(pts),
        "generating_eps": args.eps,
        "minpts": args.minpts,
        "finite_reachability": len(finite),
        "median_reachability": round(float(np.median(finite)), 5)
        if len(finite)
        else None,
        "extractions": extractions,
    }
    _attach_sanitizer_report(payload, h.device)
    _emit(payload, args.json)
    return 0


def _cmd_info(args) -> int:
    pts = _load(args.points, args.scale)
    span = pts.max(axis=0) - pts.min(axis=0)
    eps = args.eps or float(min(span) / 50)
    prof = density_profile(pts, eps)
    _emit(
        {
            "points": len(pts),
            "extent_x": round(float(span[0]), 4),
            "extent_y": round(float(span[1]), 4),
            "profile_eps": round(eps, 5),
            "mean_neighbors": round(prof.mean, 2),
            "median_neighbors": prof.median,
            "p95_neighbors": prof.p95,
            "max_neighbors": prof.max,
            "skewness_ratio": round(prof.skewness_ratio, 2),
        },
        args.json,
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.service import (
        AdmissionConfig,
        ClusteringService,
        ServeConfig,
        make_trace,
    )

    pts = _load(args.points, args.scale)

    fault_factory = None
    if args.inject_transfer_every or args.inject_slowdown_ms:
        def fault_factory(request, slot, attempt):
            specs = []
            if (
                args.inject_transfer_every
                and attempt == 0
                and request.seq % args.inject_transfer_every == 0
            ):
                specs.append(FaultSpec("transfer", times=None))
            if (
                args.inject_slowdown_ms
                and request.seq % args.slowdown_every == 0
            ):
                specs.append(
                    FaultSpec(
                        "slowdown", times=None,
                        delay_ms=args.inject_slowdown_ms,
                    )
                )
            if not specs:
                return None
            return FaultInjector(
                specs, seed=derive_seed(args.seed, request.seq, attempt)
            )

    svc = ClusteringService(
        ServeConfig(
            n_workers=args.workers,
            n_device_slots=args.device_slots,
            admission=AdmissionConfig(max_queue=args.max_queue),
            degrade=not args.no_degrade,
            seed=args.seed,
            sanitize=True if args.sanitize else None,
            fault_factory=fault_factory,
        )
    )
    svc.register_dataset(args.points, pts)
    trace = make_trace(
        args.points,
        n_requests=args.requests,
        eps_choices=args.eps,
        minpts_choices=args.minpts,
        mean_interarrival_ms=args.interarrival_ms,
        deadline_ms=args.deadline_ms,
        n_tenants=args.tenants,
        bump_every=args.bump_every,
        seed=args.seed,
    )
    result = svc.run_trace(trace)
    payload = {"points": len(pts)} | result.as_dict(
        with_responses=args.responses
    )
    _emit(payload, args.json)
    if not result.sanitizer_clean:
        print("sanitizer: violations recorded during serving",
              file=sys.stderr)
        return 1
    return 0


def _cmd_analyze_cost(args) -> int:
    from repro.analysis.costmodel import derive_cost
    from repro.analysis.tuner import NOMINAL_STATS, prune_configs
    from repro.kernels import shipped_kernels

    models = [m for k in shipped_kernels() if (m := derive_cost(k)) is not None]
    prune = prune_configs(NOMINAL_STATS, top_k=args.top_k)
    if args.format == "json":
        print(json.dumps(
            {
                "kernels": [m.to_dict() for m in models],
                "pruning": prune.to_dict(),
            },
            indent=2, sort_keys=True,
        ))
    else:
        for m in models:
            print("\n".join(m.render()))
            print()
        print("config pruning (nominal workload "
              f"n={NOMINAL_STATS.n}, r_cell={NOMINAL_STATS.r_cell:g}):")
        for r in prune.ranked:
            ms = f"{r.predicted_ms:.6f}" if r.feasible else "inf"
            mark = "x" if r.eliminated else "*" if r in prune.frontier else " "
            print(f"  {mark} {r.config.label:12s} {ms:>12} ms  {r.reason}")
    # unbounded shipped kernels are a gate failure
    return 0 if all(m.bounded for m in models) else 1


def _cmd_tune(args) -> int:
    from repro.analysis.tuner import (
        DEFAULT_TUNE_BLOCK_DIMS,
        WorkloadStats,
        prune_configs,
    )
    from repro.index import GridIndex

    pts = _load(args.points, args.scale)
    grid = GridIndex.build(pts, args.eps)
    stats = WorkloadStats.from_grid(grid)
    block_dims = tuple(args.block_dims) if args.block_dims else DEFAULT_TUNE_BLOCK_DIMS
    prune = prune_configs(
        stats, block_dims=block_dims, safety=args.safety, top_k=args.top_k
    )
    payload = prune.to_dict()
    best = prune.best
    payload["best"] = best.config.label if best is not None else None
    _emit(payload, args.json)
    return 0 if best is not None else 1


def _cmd_analyze(args) -> int:
    if args.target == "cost":
        return _cmd_analyze_cost(args)
    from repro.analysis.kernelcheck import (
        DEFAULT_BLOCK_DIMS,
        SEVERITY_ORDER,
        analyze_shipped,
        render_text,
        worst_severity,
    )

    block_dims = tuple(args.block_dims) if args.block_dims else DEFAULT_BLOCK_DIMS
    reports = analyze_shipped(block_dims=block_dims)
    if args.format == "json":
        print(json.dumps(
            [r.to_dict() for r in reports], indent=2, sort_keys=True
        ))
    else:
        print(render_text(reports))
    worst = worst_severity(reports)
    if worst is not None and SEVERITY_ORDER[worst] >= SEVERITY_ORDER[args.fail_on]:
        return 1
    return 0


_COMMANDS = {
    "cluster": _cmd_cluster,
    "sweep": _cmd_sweep,
    "reuse": _cmd_reuse,
    "optics": _cmd_optics,
    "info": _cmd_info,
    "serve": _cmd_serve,
    "analyze": _cmd_analyze,
    "tune": _cmd_tune,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
