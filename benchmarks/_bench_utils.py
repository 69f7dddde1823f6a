"""Shared benchmark infrastructure.

Every bench regenerates one of the paper's tables or figures: it runs
the measurement, prints the paper-style rows at the end of the pytest
session, and persists a JSON artifact under ``benchmarks/results/``.

Environment knobs:

``REPRO_BENCH_SCALE``
    Dataset size scale for benches (default 0.005 — 1/200 of the
    paper's point counts; the sequential reference is pure Python).
``REPRO_TRIALS``
    Trials per measurement (default 1; the paper used 3).
"""

from __future__ import annotations

import os
import time
from typing import Callable

import numpy as np

from repro.baseline import sequential_dbscan
from repro.baseline.sequential_dbscan import IndexedPoints
from repro.data import dataset

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.005"))
N_TRIALS = int(os.environ.get("REPRO_TRIALS", "1"))

_reports: list[str] = []

# per-session caches so Fig. 3 / Fig. 4 / Fig. 6 don't re-run the slow
# sequential reference for the same configuration
_ref_cache: dict[tuple[str, float, int], float] = {}
_rtree_cache: dict[str, IndexedPoints] = {}
_points_cache: dict[str, np.ndarray] = {}


def report(text: str) -> None:
    """Queue a paper-style table for the end-of-session summary."""
    _reports.append(text)


def bench_points(name: str) -> np.ndarray:
    if name not in _points_cache:
        _points_cache[name] = dataset(name, scale=BENCH_SCALE)
    return _points_cache[name]


def bench_rtree(name: str) -> IndexedPoints:
    """Prebuilt R-tree per dataset (the paper excludes build time)."""
    if name not in _rtree_cache:
        _rtree_cache[name] = IndexedPoints(bench_points(name), "rtree")
    return _rtree_cache[name]


def ref_seconds(name: str, eps: float, minpts: int = 4) -> float:
    """Mean sequential-reference response time (cached per config)."""
    key = (name, round(eps, 10), minpts)
    if key not in _ref_cache:
        pts = bench_points(name)
        idx = bench_rtree(name)
        times = []
        for _ in range(N_TRIALS):
            t0 = time.perf_counter()
            sequential_dbscan(pts, eps, minpts, index=idx)
            times.append(time.perf_counter() - t0)
        _ref_cache[key] = sum(times) / len(times)
    return _ref_cache[key]


def timed(fn: Callable[[], object], n_trials: int = N_TRIALS) -> float:
    times = []
    for _ in range(n_trials):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sum(times) / len(times)


def recovery_summary(rec) -> str:
    """One-cell summary of a :class:`~repro.core.RecoveryStats` record."""
    parts = []
    for label, n in (
        ("split", rec.splits),
        ("regrow", rec.regrows),
        ("xfer-retry", rec.transfer_retries),
    ):
        if n:
            parts.append(f"{n} {label}")
    if not parts:
        return "clean"
    return ", ".join(parts) + f" ({rec.wasted_kernel_s * 1e3:.1f} ms wasted)"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _reports:
        return
    tr = terminalreporter
    tr.section("paper reproduction tables")
    tr.write_line(
        f"(REPRO_BENCH_SCALE={BENCH_SCALE}, trials={N_TRIALS}; "
        "absolute times are this machine's, shapes are the claim)"
    )
    for block in _reports:
        tr.write_line("")
        for line in block.splitlines():
            tr.write_line(line)
