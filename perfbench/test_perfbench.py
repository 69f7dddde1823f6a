"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spans  # noqa: E402
from perfbench.harness import run  # noqa: E402
from perfbench.measure import DeviceLedger  # noqa: E402
from perfbench.reference import LabelError, ReferenceDBSCAN, check_labels  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    EPS_REF,
    SDSS_NEIGHBORS,
    SDSS_POINTS,
    SDSS_SIDE,
    SW_NEIGHBORS,
    SW_POINTS,
    SW_SIDE,
    ServeSDSS,
    ShardSW,
    SweepSW,
    TraceSpec,
    _expected_labels,
    _points,
    calibrated_side,
    orient,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sweep-sw": lambda: SweepSW(n_points=2000, eps_list=(0.4, 1.2)),
    "shard-sw": lambda: ShardSW(n_points=3000, eps_list=(0.5,)),
    "serve-sdss": lambda: ServeSDSS(
        n_points=2000, trace=TraceSpec(n_requests=40, bump_every=15)
    ),
}

MODELED = (
    "device_ms_per_variant",
    "peak_device_mb",
    "latency_p50_ms",
    "latency_p95_ms",
    "slo_met_share",
)


def _tiny_run(name: str, seed: int = 3, trace: bool = False, out_dir=None):
    return run(TINY[name](), seed, 1, trace, out_dir=out_dir, setup_rounds=1)


def test_workload_names_match_benchmark_json():
    assert sorted(TINY) == sorted(w["name"] for w in BENCH["workloads"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_end_to_end_metric(name):
    res = _tiny_run(name)
    assert res.correct and res.failed == 0 and res.attempted >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: u for k, (_, u) in res.metrics.items()} == want
    for k, (v, _) in res.metrics.items():
        assert math.isfinite(v) and v > 0, k


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_emits_every_layer_metric(name, tmp_path):
    res = _tiny_run(name, trace=True, out_dir=tmp_path)
    assert res.correct
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: u for k, (_, u) in res.metrics.items()} == want
    assert res.metrics["trace.uncovered_share"][0] < 0.2
    trace = json.loads(next(tmp_path.glob("trace-*.json")).read_text())
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert complete and all(
        {"name", "cat", "ts", "dur", "pid", "tid"} <= e.keys() for e in complete
    )
    assert next(tmp_path.glob("layers-*.txt")).read_text().count("\n") == len(want)


@pytest.mark.parametrize("name", sorted(TINY))
def test_modeled_metrics_and_digests_repeat(name):
    a, b = _tiny_run(name), _tiny_run(name)
    assert a.digests == b.digests
    for k in MODELED:
        assert a.metrics[k][0] == pytest.approx(b.metrics[k][0], rel=1e-9), k
    assert _tiny_run(name, seed=4).digests["points"] != a.digests["points"]


class Corrupting(SweepSW):
    """Sweeps, then turns one clustered point of every answer into noise.
    At module level so that the set-up round can unpickle it."""

    def outcome(self, key, result, device_ms):
        out = super().outcome(key, result, device_ms)
        labels = out.labels.copy()
        labels[np.flatnonzero(labels >= 0)[0]] = -1
        return replace(out, labels=labels)


def test_corrupted_labels_fail_the_run():
    res = run(Corrupting(n_points=2000, eps_list=(0.8,)), 3, 1, False, setup_rounds=1)
    assert not res.correct


@pytest.fixture(scope="module")
def fitted():
    from repro import HybridDBSCAN
    from repro.data.synthetic import make_sw

    unit = make_sw(2500, seed=5)
    pts = unit * calibrated_side(unit, 60.0)
    labels = HybridDBSCAN(sanitize=False).fit(pts, 0.8, 4).labels
    return pts, labels, ReferenceDBSCAN(pts).reference(0.8, 4)


def test_reference_accepts_program_labels(fitted):
    _, labels, ref = fitted
    check_labels(labels, ref)


def _corruptions(labels, ref):
    core = np.flatnonzero(ref.core)
    border = np.flatnonzero(~ref.core & ~ref.noise)
    noise = np.flatnonzero(ref.noise)
    two = np.unique(labels[core])[:2]
    yield "core as noise", {core[0]: -1}
    yield "noise in a cluster", {noise[0]: labels[core[0]]}
    merged = labels.copy()
    merged[labels == two[1]] = two[0]
    yield "two clusters merged", merged
    far = [c for c in np.unique(labels[core]) if c != labels[border[0]]][-1]
    yield "border in a foreign cluster", {border[0]: far}


def test_reference_catches_each_corruption(fitted):
    _, labels, ref = fitted
    for what, change in _corruptions(labels, ref):
        bad = labels.copy()
        if isinstance(change, dict):
            for i, v in change.items():
                bad[i] = v
        else:
            bad = change
        with pytest.raises(LabelError):
            check_labels(bad, ref, what=what)


def test_calibrated_side_hits_the_density_target(fitted):
    from scipy.spatial import cKDTree

    pts = fitted[0]
    tree = cKDTree(pts)
    mean = tree.count_neighbors(tree, EPS_REF) / len(pts)
    assert mean == pytest.approx(60.0, rel=2e-3)


@pytest.mark.parametrize(
    "dataset, n, mean_neighbors, side",
    [
        ("make_sw", SW_POINTS, SW_NEIGHBORS, SW_SIDE),
        ("make_sdss", SDSS_POINTS, SDSS_NEIGHBORS, SDSS_SIDE),
    ],
)
def test_recorded_sides_meet_the_density_targets(dataset, n, mean_neighbors, side):
    import repro.data.synthetic as synthetic

    make = getattr(synthetic, dataset)
    for seed in (1, 2, 4):
        unit = _points(make, n, n, 1.0, seed).points
        assert calibrated_side(unit, mean_neighbors) == pytest.approx(side, rel=2e-3)


def test_orientations_keep_distances():
    unit = np.random.default_rng(0).random((50, 2))
    d = np.linalg.norm(unit[:, None] - unit[None], axis=-1)
    for seed in range(8):
        o = orient(unit, seed)
        np.testing.assert_allclose(np.linalg.norm(o[:, None] - o[None], axis=-1), d, atol=1e-12)


def test_shared_table_labels_equal_fit(fitted):
    from repro import HybridDBSCAN

    pts = fitted[0]
    keys = [(0.5, 5), (0.5, 20), (0.5, 60), (0.9, 10)]
    got = _expected_labels(HybridDBSCAN(sanitize=False), pts, keys)
    for eps, minpts in keys:
        fit = HybridDBSCAN(sanitize=False).fit(pts, eps, minpts).labels
        np.testing.assert_array_equal(got[eps, minpts], fit)


def test_profiler_delta_matches_device_ms_of_a_fresh_instance(fitted):
    from repro import HybridDBSCAN
    from repro.gpusim.device import Device

    pts = fitted[0]
    fresh = HybridDBSCAN(sanitize=False).fit(pts, 0.8, 4).timings.device_ms
    hybrid = HybridDBSCAN(sanitize=False)
    deltas = []
    with DeviceLedger(Device, [hybrid.device]) as ledger:
        for _ in range(3):
            ledger.begin()
            res = hybrid.fit(pts, 0.8, 4)
            deltas.append(ledger.end().device_ms)
    assert deltas == pytest.approx([fresh] * 3, rel=1e-12)
    # the instance's own figure accumulates over its life
    assert res.timings.device_ms == pytest.approx(3 * fresh, rel=1e-12)


def test_device_ledger_peak_is_the_largest_shard_peak(fitted):
    from repro import HybridDBSCAN
    from repro.core.sharding import ShardConfig
    from repro.gpusim.device import Device

    cfg = ShardConfig(shards_x=4, shards_y=4, n_devices=4)
    with DeviceLedger(Device) as ledger:
        ledger.begin()
        res = HybridDBSCAN(cluster_on="device", sanitize=False).fit_sharded(
            fitted[0], 0.8, 4, shard_config=cfg
        )
        usage = ledger.end()
    assert usage.peak_device_bytes == res.max_peak_device_bytes > 0
    assert usage.device_ms > 0


def test_missing_shim_target_fails_the_traced_run():
    bad = spans.Target("repro.core.batching:no_such_function", "x", "batching")
    with pytest.raises(spans.ShimTargetMissing):
        spans.install(spans.Tracer(), (*spans.TARGETS, bad))


def test_shims_are_removed_after_the_traced_run():
    import repro.core.batching as batching
    import repro.gpusim.device as device

    before = (batching.build_neighbor_table, vars(device.Device)["from_device"])
    uninstall = spans.install(spans.Tracer())
    assert batching.build_neighbor_table is not before[0]
    uninstall()
    assert (batching.build_neighbor_table, vars(device.Device)["from_device"]) == before
