"""Ablation — device-resident cluster formation (the union-find kernels).

The paper's Algorithm 4 builds ``T`` on the GPU but clusters on the
host; after the build side is batched and sharded, the host components
pass is the last serial phase.  This bench compares the cluster phase on
both sides across density regimes (eps sweep): the host CSR
connected-components wall time versus the device union-find kernels'
modeled device time (plus driver wall time and the round count the
``changed``-flag iteration needed), asserting at every density that the
two paths produce bit-identical labels.  The artifact is the
``BENCH_cluster_device.json`` baseline: before overwriting it, a run at
the committed scale checks its deterministic counts against it — no ε
may need more union-find rounds than recorded, and the core and cluster
counts must match exactly.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.bench import format_table, results_dir, save_json
from repro.core import HybridDBSCAN
from repro.core.device_cluster import device_cluster_table
from repro.core.table_dbscan import dbscan_from_table

from _bench_utils import BENCH_SCALE, bench_points, report

#: eps sweep — sparse to dense neighborhoods on the same dataset
EPS_VALUES = [0.02, 0.06, 0.12]
MINPTS = 4
BASELINE = "BENCH_cluster_device"


def check_against_baseline(densities: list[dict]) -> None:
    """Fail when a run at the committed scale regresses a count."""
    path = results_dir() / f"{BASELINE}.json"
    if not path.exists():
        return
    committed = json.loads(path.read_text())
    if committed["scale"] != BENCH_SCALE:
        return
    recorded = {d["eps"]: d for d in committed["densities"]}
    for d in densities:
        ref = recorded.get(d["eps"])
        if ref is None:
            continue
        assert d["uf_iterations"] <= ref["uf_iterations"], (
            f"eps={d['eps']}: {d['uf_iterations']} union-find rounds, "
            f"baseline {ref['uf_iterations']}"
        )
        for key in ("n_core", "clusters"):
            assert d[key] == ref[key], (
                f"eps={d['eps']}: {key} {d[key]}, baseline {ref[key]}"
            )


def test_ablation_cluster_device(benchmark):
    pts = bench_points("SW1")

    rows = []
    results = []
    last_table = None
    for eps in EPS_VALUES:
        h = HybridDBSCAN()
        _, table, _ = h.build_table(pts, eps)
        last_table = table

        t0 = time.perf_counter()
        host_labels = dbscan_from_table(table, MINPTS)
        host_s = time.perf_counter() - t0

        dres = device_cluster_table(
            table, MINPTS, device=h.device, backend=h.backend
        )
        # exactness: the device cluster phase is bit-identical at every
        # density regime
        assert np.array_equal(host_labels, dres.labels), eps

        mean_row = float(table.neighbor_counts().mean())
        rows.append([
            eps,
            round(mean_row, 1),
            int(dres.core.sum()),
            round(host_s * 1e3, 3),
            round(dres.device_ms, 3),
            round(dres.wall_s * 1e3, 3),
            dres.iterations,
        ])
        results.append({
            "eps": eps,
            "mean_row_len": mean_row,
            "n_core": int(dres.core.sum()),
            "clusters": int(host_labels.max()) + 1
            if (host_labels >= 0).any() else 0,
            "host_cluster_s": host_s,
            "device_cluster_modeled_ms": dres.device_ms,
            "device_cluster_wall_s": dres.wall_s,
            "uf_iterations": dres.iterations,
            "labels_identical": True,
        })

    benchmark.pedantic(
        lambda: device_cluster_table(last_table, MINPTS),
        rounds=1,
        iterations=1,
    )

    report(
        format_table(
            ["eps", "mean |row|", "cores", "host ms",
             "device modeled ms", "device wall ms", "UF rounds"],
            rows,
            title="Ablation: device-resident cluster formation "
            f"(SW1, minpts={MINPTS}; host components vs union-find kernels)",
        )
    )
    check_against_baseline(results)
    save_json(
        BASELINE,
        {
            "scale": BENCH_SCALE,
            "dataset": "SW1",
            "minpts": MINPTS,
            "n_points": len(pts),
            "eps_values": EPS_VALUES,
            "densities": results,
        },
    )
