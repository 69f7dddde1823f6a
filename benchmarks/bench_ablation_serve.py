"""Ablation — the long-lived clustering service under offered load.

The serving loop in front of HYBRID-DBSCAN trades latency for quality
under pressure: admission control sheds typed rejections, the
epoch-keyed cache absorbs repeats (the paper's S3 reuse as a service),
and graceful degradation swaps exact answers for flagged stale/sampled
ones before giving up.  This bench sweeps offered load (decreasing mean
interarrival on the virtual clock) over a fixed request mix and records
latency percentiles, shed rate, degraded rate, and cache hit rate per
load point, plus one faulted run (transient transfer faults + injected
slowdowns) exercising retry/backoff and the circuit breaker.

Asserted guarantees (the PR's acceptance criteria):

* every request terminates in exactly one of exact / degraded-flagged /
  typed-rejected — zero unhandled exceptions across the sweep;
* exact responses are bit-identical to a direct ``HybridDBSCAN.fit``;
* cache hit rate > 0 on repeated ``(epoch, eps)`` queries;
* shedding is load-responsive: zero at the lightest load, strictly
  positive at the heaviest.

The artifact is the ``BENCH_serve.json`` baseline.  Every field runs
on the virtual clock, so before overwriting it a run at the committed
scale checks every field against it: no status, rejection reason, cache
hit, breaker trip or latency of the replayed traces may move.
"""

from __future__ import annotations

import json

import numpy as np

from repro.bench import format_table, results_dir, save_json
from repro.core import HybridDBSCAN
from repro.gpusim import FaultInjector, FaultSpec, derive_seed
from repro.service import (
    AdmissionConfig,
    ClusteringService,
    Request,
    ServeConfig,
    make_trace,
)

from _bench_utils import BENCH_SCALE, bench_points, report

EPS_CHOICES = [0.04, 0.06]
MINPTS_CHOICES = [4, 8]
N_REQUESTS = 40
#: generous deadline for the faulted run (retry backoff must fit)
FAULT_DEADLINE_MS = 120.0
SEED = 17
BASELINE = "BENCH_serve"

# The sweep's deadline and interarrivals are derived at runtime from one
# probed exact build (modeled ms), so the load points stay meaningful at
# any REPRO_BENCH_SCALE: heaviest = 4x over the 2-worker service rate
# (queueing must shed), lightest = idle (nothing may shed).
DEADLINE_BUILDS = 8.0
INTERARRIVAL_BUILDS = [0.125, 0.5, 2.0, 100.0]


def _service(fault_factory=None) -> ClusteringService:
    return ClusteringService(
        ServeConfig(
            n_workers=2,
            admission=AdmissionConfig(max_queue=8, per_tenant_inflight=8),
            seed=SEED,
            fault_factory=fault_factory,
        )
    )


def _probe_build_ms(pts) -> float:
    """Modeled cost of one exact build at the sweep's most expensive
    eps — the unit the load points are expressed in."""
    svc = _service()
    svc.register_dataset("SW1", pts)
    r = svc.submit(
        Request(
            "SW1",
            eps=max(EPS_CHOICES),
            minpts=min(MINPTS_CHOICES),
            arrival_ms=0.0,
            seq=0,
        )
    )
    assert r.status == "exact" and r.exec_ms > 0
    return r.exec_ms


def _direct_labels(cache: dict, pts, eps: float, minpts: int):
    key = (eps, minpts)
    if key not in cache:
        cache[key] = HybridDBSCAN().fit(pts, eps, minpts).labels
    return cache[key]


def _check_terminal(responses, pts, direct_cache):
    for r in responses:
        assert r.status in ("exact", "degraded", "rejected"), r.status
        if r.rejected:
            assert r.error is not None and r.labels is None
        else:
            assert r.labels is not None and r.error is None
        if r.degraded:
            assert r.stale or r.sample_fraction > 0
        if r.status == "exact":
            ref = _direct_labels(
                direct_cache, pts, r.request.eps, r.request.minpts
            )
            assert np.array_equal(r.labels, ref), (
                r.request.eps, r.request.minpts, r.cache
            )


def _summarize(res) -> dict:
    return {
        "requests": len(res.responses),
        "exact": res.count("exact"),
        "degraded": res.count("degraded"),
        "rejected": res.count("rejected"),
        "shed_rate": res.shed_rate,
        "degraded_rate": res.degraded_rate,
        "cache_hit_rate": res.cache_hit_rate,
        "latency_p50_ms": res.latency_percentile(50),
        "latency_p95_ms": res.latency_percentile(95),
        "latency_p99_ms": res.latency_percentile(99),
        "utilization": res.utilization,
        "breaker_trips": res.breaker.get("trips", 0),
        "rejections": res.admission.get("rejections", {}),
    }


def check_against_baseline(payload: dict) -> None:
    """Fail when a run at the committed scale differs from the baseline
    in any field."""
    path = results_dir() / f"{BASELINE}.json"
    if not path.exists():
        return
    committed = json.loads(path.read_text())
    if committed["scale"] != BENCH_SCALE:
        return
    fresh = json.loads(json.dumps(payload))
    for key in committed.keys() | fresh.keys():
        assert fresh.get(key) == committed.get(key), (
            f"{key}: {fresh.get(key)}, baseline {committed.get(key)}"
        )


def test_ablation_serve(benchmark):
    pts = bench_points("SW1")
    direct_cache: dict = {}
    rows = []
    load_runs = []

    build_ms = _probe_build_ms(pts)
    deadline_ms = DEADLINE_BUILDS * build_ms
    interarrivals_ms = [b * build_ms for b in INTERARRIVAL_BUILDS]

    # ------------------------------------------------------------------
    # offered-load sweep (fault-free)
    # ------------------------------------------------------------------
    shed_by_load = {}
    for interarrival in interarrivals_ms:
        svc = _service()
        svc.register_dataset("SW1", pts)
        trace = make_trace(
            "SW1",
            n_requests=N_REQUESTS,
            eps_choices=EPS_CHOICES,
            minpts_choices=MINPTS_CHOICES,
            mean_interarrival_ms=interarrival,
            deadline_ms=deadline_ms,
            n_tenants=2,
            bump_every=3,  # rolling invalidation keeps misses flowing
            seed=SEED,
        )
        res = svc.run_trace(trace)
        assert len(res.responses) == N_REQUESTS
        _check_terminal(res.responses, pts, direct_cache)
        # repeated (epoch, eps) queries must hit the cache
        assert res.cache_hit_rate > 0, res.cache
        s = _summarize(res)
        s["interarrival_ms"] = interarrival
        s["faults"] = False
        shed_by_load[interarrival] = res.shed_rate
        load_runs.append(s)
        rows.append([
            round(interarrival, 3), "no", s["exact"], s["degraded"],
            s["rejected"],
            round(s["shed_rate"], 3),
            round(s["cache_hit_rate"], 3),
            round(s["latency_p50_ms"], 2),
            round(s["latency_p95_ms"], 2),
        ])

    lightest, heaviest = max(interarrivals_ms), min(interarrivals_ms)
    assert shed_by_load[lightest] == 0.0, shed_by_load
    assert shed_by_load[heaviest] > shed_by_load[lightest], shed_by_load

    # ------------------------------------------------------------------
    # faulted run: transient faults + slowdowns at moderate load
    # ------------------------------------------------------------------
    def faults(request, slot, attempt):
        specs = []
        if attempt == 0 and request.seq % 5 == 0:
            specs.append(FaultSpec("transfer", times=None))
        if request.seq % 3 == 0:
            specs.append(FaultSpec("slowdown", times=None, delay_ms=2.0))
        if not specs:
            return None
        return FaultInjector(
            specs, seed=derive_seed(SEED, request.seq, attempt)
        )

    svc = _service(fault_factory=faults)
    svc.register_dataset("SW1", pts)
    trace = make_trace(
        "SW1",
        n_requests=N_REQUESTS,
        eps_choices=EPS_CHOICES,
        minpts_choices=MINPTS_CHOICES,
        mean_interarrival_ms=1.0,
        deadline_ms=FAULT_DEADLINE_MS,
        n_tenants=2,
        bump_every=13,
        seed=SEED,
    )
    res = svc.run_trace(trace)
    _check_terminal(res.responses, pts, direct_cache)
    assert res.sanitizer_clean
    retried = [r for r in res.responses if r.attempts > 1]
    assert retried, "transient faults must exercise the retry path"
    assert all(r.backoff_ms > 0 for r in retried)
    faulted = _summarize(res)
    faulted["interarrival_ms"] = 1.0
    faulted["faults"] = True
    rows.append([
        "1", "yes", faulted["exact"], faulted["degraded"],
        faulted["rejected"],
        round(faulted["shed_rate"], 3),
        round(faulted["cache_hit_rate"], 3),
        round(faulted["latency_p50_ms"], 2),
        round(faulted["latency_p95_ms"], 2),
    ])

    # measured once for the pytest-benchmark record: one full overload
    # trace through the service (virtual clock; wall time is host work)
    def run_once():
        s2 = _service()
        s2.register_dataset("SW1", pts)
        return s2.run_trace(trace)

    benchmark.pedantic(run_once, rounds=1, iterations=1)

    report(
        format_table(
            ["interarrival ms", "faults", "exact", "degraded", "shed",
             "shed rate", "cache hit", "p50 ms", "p95 ms"],
            rows,
            title="Ablation: serving under offered load "
            f"(SW1, {N_REQUESTS} requests, build={build_ms:.3f}ms, "
            f"deadline={deadline_ms:.3f}ms)",
        )
    )
    payload = {
        "scale": BENCH_SCALE,
        "dataset": "SW1",
        "n_points": len(pts),
        "n_requests": N_REQUESTS,
        "eps_choices": EPS_CHOICES,
        "minpts_choices": MINPTS_CHOICES,
        "probe_build_ms": build_ms,
        "deadline_ms": deadline_ms,
        "load_sweep": load_runs,
        "faulted_run": faulted,
    }
    check_against_baseline(payload)
    save_json(BASELINE, payload)


def test_serve_exactness_spot_check():
    """Cache-served responses equal a direct fit (the bench's standing
    exactness probe, independent of the load sweep)."""
    pts = bench_points("SW1")
    svc = _service()
    svc.register_dataset("SW1", pts)
    eps, minpts = EPS_CHOICES[0], MINPTS_CHOICES[0]
    r_miss = svc.submit(
        Request("SW1", eps=eps, minpts=minpts, arrival_ms=0.0, seq=0)
    )
    r_hit = svc.submit(
        Request("SW1", eps=eps, minpts=minpts, arrival_ms=10_000.0, seq=1)
    )
    assert r_miss.cache == "miss" and r_hit.cache == "label_hit"
    direct = HybridDBSCAN().fit(pts, eps, minpts)
    assert np.array_equal(r_miss.labels, direct.labels)
    assert np.array_equal(r_hit.labels, direct.labels)
