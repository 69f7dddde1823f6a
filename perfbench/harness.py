"""Runs one workload end to end.

1. make the inputs from the seed (not timed);
2. set up ``SETUP_ROUNDS`` times, each in a fresh interpreter
   (``perfbench/setup_round.py``): from process start through ``import
   repro``, the workload's long-lived objects and one warm-up op; the
   median CPU seconds is ``setup_s``.  Then set up once more in this
   process, untimed;
3. the timed phase: a whole number of cycles of the op list, each op
   timed alone on the process CPU clock and the wall clock, with the
   resident-set high-water mark reset at the start of each cycle and
   read at its end;
4. with tracing, one more cycle with the span shims installed;
5. the label checks, outside every timed phase.
"""

from __future__ import annotations

import gc
import math
import pickle
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from perfbench import spans
from perfbench.measure import DeviceLedger, peak_rss_bytes, reset_peak_rss
from perfbench.reference import LabelError
from perfbench.workloads import Inputs, Outcome, Workload

__all__ = ["SETUP_ROUNDS", "Sample", "RunResult", "cycles_for", "run"]

SETUP_ROUND = Path(__file__).with_name("setup_round.py")

SETUP_ROUNDS = 3
#: the per-op median over cycles needs three, so that one cold or
#: disturbed cycle cannot set it
MIN_CYCLES = 3
#: the traced phase runs one cycle: its figures are per op and bound
#: nothing, and a run must stay short
TRACED_CYCLES = 1

#: end-to-end metric units, in report order
E2E_UNITS = {
    "variants_per_cpu_s": "1/s",
    "device_ms_per_variant": "ms",
    "peak_device_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "slo_met_share": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Sample:
    """One timed op."""

    key: tuple
    cycle: int
    index: int
    wall_s: float
    #: CPU seconds of the process (every thread) over the op
    cpu_s: float
    device_ms: float
    peak_device_bytes: int
    failed: bool
    latency_ms: Optional[float]
    slo_met: bool
    detail: dict


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    digests: dict[str, str]
    notes: dict[str, Any] = field(default_factory=dict)

    def line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()
            },
        }


def cycles_for(workload: Workload, seconds: float) -> int:
    """Whole cycles that fill about ``seconds`` — fixed per workload and
    run length, never a time limit, so two commits do the same work."""
    return max(MIN_CYCLES, round(seconds / workload.nominal_cycle_s))


class _LabelBook:
    """Distinct label arrays per ``(eps, minpts)``; an array equal to one
    already kept is checked by that one."""

    def __init__(self) -> None:
        self.arrays: dict[tuple, list[np.ndarray]] = {}

    def add(self, key: tuple, labels: np.ndarray) -> None:
        kept = self.arrays.setdefault(key, [])
        if not any(np.array_equal(a, labels) for a in kept):
            kept.append(labels)


def _time_set_ups(
    workload: Workload, inputs: Inputs, rounds: int
) -> tuple[list[float], list[float]]:
    """Set up ``workload`` in ``rounds`` fresh interpreters; for each,
    the CPU seconds the child used from its start until it was ready to
    run its first op, and the wall seconds from spawning it until then.
    The child reads the pickled workload and inputs from its standard
    input."""
    blob = pickle.dumps((workload, inputs))
    cpu, wall = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(SETUP_ROUND)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        ) as child:
            child.stdin.write(blob)
            child.stdin.close()
            line = child.stdout.readline()
            wall.append(time.perf_counter() - t0)
        word, _, seconds = line.decode().partition(" ")
        if word != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up round exited with status {child.returncode}")
        cpu.append(float(seconds))
    return cpu, wall


def _phase(
    workload: Workload,
    state: Any,
    cycles: int,
    ledger: DeviceLedger,
    book: _LabelBook,
    tracer: Optional[spans.Tracer] = None,
    rss: Optional[list[int]] = None,
) -> list[Sample]:
    """Run ``cycles`` cycles; with ``rss``, append each cycle's peak
    resident set to it."""
    samples: list[Sample] = []
    reported: set[tuple] = set()
    for c in range(cycles):
        if rss is not None:
            gc.collect()
            reset_peak_rss()
        for i, (key, thunk) in enumerate(workload.ops(state)):
            ledger.begin()
            span = tracer.begin("op", "op") if tracer is not None else None
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result, error = thunk(), None
            except Exception as exc:
                result, error = None, exc
            t1, c1 = time.perf_counter(), time.process_time()
            if span is not None:
                tracer.end(span)
            usage = ledger.end()
            if error is not None:
                out = Outcome(failed=True)
                if key not in reported:
                    reported.add(key)
                    print(f"op {key} raised:", file=sys.stderr)
                    traceback.print_exception(error, file=sys.stderr)
            else:
                out = workload.outcome(key, result, usage.device_ms)
            del result
            if out.labels is not None:
                book.add(out.label_key, out.labels)
            samples.append(
                Sample(
                    key=key, cycle=c, index=i, wall_s=t1 - t0, cpu_s=c1 - c0,
                    device_ms=usage.device_ms,
                    peak_device_bytes=usage.peak_device_bytes,
                    failed=out.failed, latency_ms=out.latency_ms,
                    slo_met=out.slo_met, detail=out.detail,
                )
            )
        if rss is not None:
            rss.append(peak_rss_bytes())
    return samples


def throughput(samples: list[Sample], clock: str = "cpu_s") -> float:
    """Ops per cycle over the sum of each op's median time across the
    cycles (``clock`` is ``"cpu_s"`` or ``"wall_s"``) — one disturbed op
    in one cycle does not move it."""
    times: dict[int, list[float]] = {}
    for s in samples:
        times.setdefault(s.index, []).append(getattr(s, clock))
    return len(times) / math.fsum(statistics.median(t) for t in times.values())


def _end_to_end(
    samples: list[Sample], setup_times: list[float], rss: list[int]
) -> dict[str, float]:
    lat = [s.latency_ms for s in samples if s.latency_ms is not None]
    return {
        "variants_per_cpu_s": throughput(samples),
        "device_ms_per_variant": math.fsum(s.device_ms for s in samples) / len(samples),
        "peak_device_mb": max(s.peak_device_bytes for s in samples) / 1e6,
        "latency_p50_ms": float(np.percentile(lat, 50)) if lat else 0.0,
        "latency_p95_ms": float(np.percentile(lat, 95)) if lat else 0.0,
        "slo_met_share": sum(s.slo_met for s in samples) / len(samples),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(rss) / 1e6,
    }


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    out_dir: Optional[Path] = None,
    setup_rounds: int = SETUP_ROUNDS,
) -> RunResult:
    inputs = workload.make_inputs(seed)
    setup_times, setup_walls = _time_set_ups(workload, inputs, setup_rounds)
    state = workload.setup(inputs)
    workload.warmup(state)
    device_cls = sys.modules["repro.gpusim.device"].Device
    cycles = cycles_for(workload, seconds)
    book = _LabelBook()

    rss: list[int] = []
    with DeviceLedger(device_cls, workload.long_lived_devices(state)) as ledger:
        samples = _phase(workload, state, cycles, ledger, book, rss=rss)
        traced: list[Sample] = []
        if trace:
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            try:
                gc.collect()
                traced = _phase(workload, state, TRACED_CYCLES, ledger, book, tracer)
            finally:
                uninstall()

    notes: dict[str, Any] = {
        "cycles": cycles,
        "ops_per_cycle": len(samples) // cycles,
        "cycle_op_s": [
            round(math.fsum(s.wall_s for s in samples if s.cycle == c), 4)
            for c in range(cycles)
        ],
        "latency_samples": sum(s.latency_ms is not None for s in samples),
        "setup_rounds_cpu_s": [round(t, 4) for t in setup_times],
        "setup_rounds_wall_s": [round(t, 4) for t in setup_walls],
        "variants_per_wall_s": throughput(samples, "wall_s"),
    }
    try:
        workload.check(inputs, book.arrays)
        correct = True
    except LabelError as exc:
        print(f"label check failed: {exc}", file=sys.stderr)
        correct = False
    notes["label_sets_checked"] = sum(len(v) for v in book.arrays.values())

    all_samples = samples + traced
    attempted = len(all_samples)
    failed = sum(s.failed for s in all_samples)
    if not trace:
        values = _end_to_end(samples, setup_times, rss)
        metrics = {k: (values[k], E2E_UNITS[k]) for k in E2E_UNITS}
    else:
        extra = {name: 0.0 for name in spans.EXTRA_METRICS}
        extra.update(workload.layer_extras(state, samples))
        extra["trace.overhead"] = throughput(traced) / throughput(samples)
        extra["wall.variants_per_s"] = throughput(samples, "wall_s")
        extra["wall.setup_s"] = statistics.median(setup_walls)
        metrics = spans.layer_metrics(tracer, extra)
        if out_dir is not None:
            stem = f"{workload.name}-seed{seed}"
            spans.write_chrome_trace(tracer, out_dir / f"trace-{stem}.json")
            _write_table(metrics, out_dir / f"layers-{stem}.txt")
            notes["trace_file"] = str(out_dir / f"trace-{stem}.json")
    return RunResult(
        correct=correct, attempted=attempted, failed=failed, metrics=metrics,
        digests=inputs.digests, notes=notes,
    )


def _write_table(metrics: dict[str, tuple[float, str]], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for name, (value, unit) in metrics.items():
            f.write(f"{name:32s} {value:14.6g}  {unit}\n")
