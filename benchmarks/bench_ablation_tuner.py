"""Ablation — static cost-guided configuration pruning.

The KC007 cost model ranks the kernel × block-size lattice *before any
launch*; the tuner then eliminates configurations whose optimistic
prediction still loses to the best prediction's pessimistic band.  This
bench measures every lattice point on the bench datasets and checks the
tuner's contract: **the measured-fastest configuration is never
eliminated** — pruning only ever discards losers.  The artifact is the
``BENCH_tuner.json`` baseline: before overwriting it, a run at the
committed scale checks every deterministic field against it — each
shape's workload statistics, fastest configuration and frontier, and
each configuration's predicted and measured (modeled) ms and verdict.
"""

from __future__ import annotations

import json

import numpy as np

from repro.analysis.tuner import WorkloadStats, prune_configs
from repro.bench import format_table, results_dir, save_json
from repro.gpusim import Device, launch
from repro.index import GridIndex
from repro.kernels import GPUCalcGlobal, GPUCalcShared

from _bench_utils import BENCH_SCALE, bench_points, report

SHAPES = [("SW1", 0.5), ("SDSS1", 0.5)]
BLOCK_DIMS = (64, 128, 256, 512)
BASELINE = "BENCH_tuner"
#: the fields of a shape, and of each of its runs, that repeat exactly
#: from run to run (measured ms is the modeled clock, not wall time)
SHAPE_FIELDS = ("dataset", "eps", "stats", "fastest", "frontier")
RUN_FIELDS = ("config", "predicted_ms", "measured_ms", "eliminated")


def _measure(kind: str, grid: GridIndex, block_dim: int) -> float:
    device = Device()
    buf = device.allocate_result_buffer((600 * len(grid), 2), np.int64)
    if kind == "global":
        kernel = GPUCalcGlobal()
        cfg = GPUCalcGlobal.launch_config(len(grid), n_batches=1, block_dim=block_dim)
    else:
        kernel = GPUCalcShared()
        cfg = GPUCalcShared.launch_config(grid, block_dim=block_dim)
    res = launch(kernel, cfg, device, grid=grid, result=buf)
    return res.modeled_ms


def _run_shape(name: str, eps: float) -> dict:
    pts = bench_points(name)
    grid = GridIndex.build(pts, eps)
    stats = WorkloadStats.from_grid(grid)
    prune = prune_configs(stats, block_dims=BLOCK_DIMS)
    runs = []
    for r in prune.ranked:
        measured = (
            _measure(r.config.kernel, grid, r.config.block_dim)
            if r.feasible
            else None
        )
        runs.append(
            {
                "config": r.config.label,
                "predicted_ms": r.predicted_ms if r.feasible else None,
                "measured_ms": measured,
                "eliminated": r.eliminated,
            }
        )
    measured_runs = [u for u in runs if u["measured_ms"] is not None]
    fastest = min(measured_runs, key=lambda u: u["measured_ms"])
    return {
        "dataset": name,
        "eps": eps,
        "stats": stats.to_dict(),
        "safety": prune.safety,
        "runs": runs,
        "fastest": fastest["config"],
        "frontier": [r.config.label for r in prune.frontier],
    }


def check_against_baseline(shapes: list[dict]) -> None:
    """Fail when a run at the committed scale differs from the baseline
    in any deterministic field."""
    path = results_dir() / f"{BASELINE}.json"
    if not path.exists():
        return
    committed = json.loads(path.read_text())
    if committed["scale"] != BENCH_SCALE:
        return
    for shape, ref in zip(shapes, committed["shapes"], strict=True):
        for key in SHAPE_FIELDS:
            assert shape[key] == ref[key], (
                f"{shape['dataset']}: {key} {shape[key]}, baseline {ref[key]}"
            )
        for run, ref_run in zip(shape["runs"], ref["runs"], strict=True):
            for key in RUN_FIELDS:
                assert run[key] == ref_run[key], (
                    f"{shape['dataset']} {run['config']}: {key} {run[key]}, "
                    f"baseline {ref_run[key]}"
                )


def test_ablation_tuner(benchmark):
    shapes = [_run_shape(name, eps) for name, eps in SHAPES]

    rows = []
    for shape in shapes:
        for u in shape["runs"]:
            rows.append(
                [
                    shape["dataset"],
                    u["config"],
                    "-" if u["predicted_ms"] is None else round(u["predicted_ms"], 3),
                    "-" if u["measured_ms"] is None else round(u["measured_ms"], 3),
                    "pruned" if u["eliminated"] else
                    ("fastest" if u["config"] == shape["fastest"] else ""),
                ]
            )

    # the tuner's contract: pruning never discards the measured winner
    for shape in shapes:
        assert shape["fastest"] in shape["frontier"], (
            shape["dataset"], shape["fastest"], shape["frontier"],
        )

    benchmark.pedantic(
        lambda: _run_shape(*SHAPES[0]), rounds=1, iterations=1
    )

    report(
        format_table(
            ["Dataset", "config", "predicted ms", "measured ms", "verdict"],
            rows,
            title="Ablation: static config pruning (fastest must survive)",
        )
    )
    check_against_baseline(shapes)
    save_json(BASELINE, {"scale": BENCH_SCALE, "shapes": shapes})
