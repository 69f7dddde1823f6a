"""Cost-guided launch-configuration pruning (the static autotuner).

Consumes the KC007 symbolic cost models (:mod:`repro.analysis.costmodel`)
to rank the kernel × block-dim configuration lattice for a concrete
workload *before any launch*: each candidate's predicted milliseconds
comes from evaluating the kernel's cost polynomial at the workload's
binding with the same arithmetic the simulator charges.  Configurations
whose *optimistic* prediction (prediction ÷ safety) still exceeds the
best candidate's *pessimistic* prediction (prediction × safety) are
dominated and eliminated; the survivors' top-k is the frontier a
measured search would explore.  The safety factor absorbs the model's
calibration error, so the measured-fastest configuration is never
pruned as long as the model is within ``safety``× of the truth in both
directions (CI asserts this on the committed bench shapes).  The
lattice is the paper's two ε-neighborhood kernels, ``global``
(GPUCalcGlobal) and ``shared`` (GPUCalcShared), × block sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.analysis.costmodel import KernelCostModel, derive_cost
from repro.gpusim.device import DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.index.grid import GridIndex

__all__ = [
    "WorkloadStats",
    "TunerConfig",
    "RankedConfig",
    "PruneResult",
    "prune_configs",
    "predicted_ms",
    "DEFAULT_TUNE_BLOCK_DIMS",
]

DEFAULT_TUNE_BLOCK_DIMS: tuple[int, ...] = (64, 128, 256, 512)


@dataclass(frozen=True)
class WorkloadStats:
    """The workload statistics the cost bindings consume."""

    #: points in the grid
    n: int
    nx: int
    ny: int
    #: non-empty grid cells
    n_cells: int
    #: mean points per non-empty cell (the ``r_cell`` contract symbol)
    r_cell: float

    @classmethod
    def from_grid(cls, grid: "GridIndex") -> "WorkloadStats":
        """Measure the statistics from a built :class:`GridIndex`."""
        n = len(grid)
        n_cells = max(1, len(grid.nonempty_cells))
        return cls(n=n, nx=grid.nx, ny=grid.ny, n_cells=n_cells, r_cell=n / n_cells)

    def binding(self) -> dict[str, float]:
        """The launch-geometry-free part of a cost binding."""
        return {
            "n": float(self.n),
            "nx": float(self.nx),
            "ny": float(self.ny),
            "r_cell": float(self.r_cell),
            "n_batches": 1.0,
            "batch": 0.0,
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "n": self.n,
            "nx": self.nx,
            "ny": self.ny,
            "n_cells": self.n_cells,
            "r_cell": round(self.r_cell, 6),
        }


#: a nominal workload for data-free ranking (``repro analyze cost``):
#: a mid-size grid
NOMINAL_STATS = WorkloadStats(n=4096, nx=24, ny=24, n_cells=512, r_cell=8.0)


@dataclass(frozen=True)
class TunerConfig:
    """One point of the configuration lattice."""

    kernel: str  #: "global" | "shared"
    block_dim: int

    @property
    def label(self) -> str:
        return f"{self.kernel}@{self.block_dim}"


@dataclass(frozen=True)
class RankedConfig:
    """One configuration's predicted cost and pruning verdict."""

    config: TunerConfig
    predicted_ms: float
    feasible: bool
    eliminated: bool
    reason: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "kernel": self.config.kernel,
            "block_dim": self.config.block_dim,
            "predicted_ms": (
                round(self.predicted_ms, 9)
                if math.isfinite(self.predicted_ms)
                else None
            ),
            "feasible": self.feasible,
            "eliminated": self.eliminated,
            "reason": self.reason,
        }


@dataclass
class PruneResult:
    """Ranked lattice, surviving frontier, and the dominated set."""

    stats: WorkloadStats
    safety: float
    ranked: list[RankedConfig] = field(default_factory=list)
    #: cap on the frontier size (None = every survivor); the best
    #: configuration is always ranked first, so it is always included
    top_k: Optional[int] = None

    @property
    def frontier(self) -> list[RankedConfig]:
        survivors = [r for r in self.ranked if not r.eliminated]
        if self.top_k is not None:
            return survivors[: max(1, self.top_k)]
        return survivors

    @property
    def eliminated(self) -> list[RankedConfig]:
        return [r for r in self.ranked if r.eliminated]

    @property
    def best(self) -> Optional[RankedConfig]:
        return self.frontier[0] if self.frontier else None

    def to_dict(self) -> dict[str, object]:
        return {
            "stats": self.stats.to_dict(),
            "safety": self.safety,
            "top_k": self.top_k,
            "ranked": [r.to_dict() for r in self.ranked],
            "frontier": [r.config.label for r in self.frontier],
            "eliminated": [r.config.label for r in self.eliminated],
        }


#: derived models are pure functions of the (immutable) kernel source,
#: so one derivation serves every prune call in the process
_MODEL_CACHE: dict[str, KernelCostModel] = {}


def _cost_models() -> Mapping[str, KernelCostModel]:
    from repro.kernels import GPUCalcGlobal, GPUCalcShared

    if not _MODEL_CACHE:
        for key, kernel in (
            ("global", GPUCalcGlobal()),
            ("shared", GPUCalcShared()),
        ):
            model = derive_cost(kernel)
            assert model is not None  # both ship device code
            _MODEL_CACHE[key] = model
    return _MODEL_CACHE


def _geometry(kernel: str, stats: WorkloadStats, block_dim: int) -> tuple[int, int]:
    """(bdim, gdim) a launch of this kernel kind would use."""
    if kernel == "shared":
        return block_dim, max(1, stats.n_cells)
    return block_dim, max(1, -(-stats.n // block_dim))


def predicted_ms(
    kernel: str,
    stats: WorkloadStats,
    block_dim: int,
    *,
    spec: Optional[DeviceSpec] = None,
) -> float:
    """Predicted milliseconds for one configuration (``inf`` = infeasible)."""
    models = _cost_models()
    if kernel not in models:
        raise ValueError(f"unknown kernel kind {kernel!r}")
    model = models[kernel]
    bdim, gdim = _geometry(kernel, stats, block_dim)
    binding = stats.binding()
    binding["bdim"] = float(bdim)
    binding["gdim"] = float(gdim)
    try:
        return model.modeled_ms(binding, spec=spec)
    except ValueError:
        # occupancy rejected the configuration (footprint exceeds the SM)
        return math.inf


def prune_configs(
    stats: WorkloadStats,
    *,
    block_dims: Sequence[int] = DEFAULT_TUNE_BLOCK_DIMS,
    spec: Optional[DeviceSpec] = None,
    safety: float = 3.0,
    top_k: Optional[int] = None,
) -> PruneResult:
    """Rank the configuration lattice by predicted cost and prune it.

    A configuration is *dominated* — eliminated — when its optimistic
    prediction (÷ ``safety``) still exceeds the best configuration's
    pessimistic prediction (× ``safety``); a measured search need not
    visit it.  Infeasible configurations (occupancy rejects the
    launch) are always eliminated.
    """
    if safety < 1.0:
        raise ValueError("safety must be >= 1")
    entries = [
        (TunerConfig(kernel=kernel, block_dim=bd), predicted_ms(kernel, stats, bd, spec=spec))
        for kernel in _cost_models()
        for bd in block_dims
    ]
    entries.sort(key=lambda e: (e[1], e[0].kernel, e[0].block_dim))
    feasible = [ms for _, ms in entries if math.isfinite(ms)]
    best = feasible[0] if feasible else math.inf
    result = PruneResult(stats=stats, safety=safety, top_k=top_k)
    for cfg, ms in entries:
        if not math.isfinite(ms):
            result.ranked.append(
                RankedConfig(cfg, ms, feasible=False, eliminated=True,
                             reason="infeasible: occupancy rejects the launch")
            )
            continue
        dominated = ms / safety > best * safety
        reason = (
            f"dominated: optimistic {ms / safety:.6f} ms > best "
            f"pessimistic {best * safety:.6f} ms"
            if dominated
            else ""
        )
        result.ranked.append(
            RankedConfig(cfg, ms, feasible=True, eliminated=dominated,
                         reason=reason)
        )
    return result
