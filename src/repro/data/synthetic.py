"""Synthetic analogues of the paper's SW and SDSS datasets.

The paper's conclusions hinge on two distributional regimes:

* **SW** (ionospheric TEC from GPS receivers): *heavily over-dense* —
  most points concentrate in clumps around receiver sites over a sparse
  background ("SW- has many overdense regions as a function of the
  relative locations of GPS receivers");
* **SDSS** (galaxy samples): *near-uniform* with mild large-scale
  structure ("SDSS- is more uniformly distributed").

Generators produce the shape in a unit square and then **calibrate the
domain side length** so the mean ε-neighborhood size at the dataset's
reference ε matches the spec's target — this is what keeps the paper's
published ε sweeps meaningful at ``REPRO_SCALE``-reduced point counts.
All generation is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.scale import DATASETS, DatasetSpec, scaled_size
from repro.index.grid import GridIndex

__all__ = [
    "make_sw",
    "make_sdss",
    "dataset",
    "density_profile",
    "DensityProfile",
    "mean_neighbors",
]


# ----------------------------------------------------------------------
# shape generators (unit square)
# ----------------------------------------------------------------------
def make_sw(
    n: int,
    seed: int = 0,
    *,
    n_receivers: Optional[int] = None,
    clump_fraction: float = 0.75,
    clump_sigma: float = 0.008,
    domain: float = 1.0,
) -> np.ndarray:
    """SW-like points: dense Gaussian clumps around receiver sites.

    ``clump_fraction`` of the points gather around ``n_receivers``
    sites (receiver-weighted, so some sites are much denser than
    others); the rest is a uniform background.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    m = n_receivers or max(20, n // 2500)
    sites = rng.random((m, 2))
    # receivers observe different traffic: power-law weights
    weights = rng.pareto(1.5, m) + 1.0
    weights /= weights.sum()

    n_clump = int(round(clump_fraction * n))
    which = rng.choice(m, size=n_clump, p=weights)
    clump = sites[which] + rng.normal(0.0, clump_sigma, (n_clump, 2))
    background = rng.random((n - n_clump, 2))
    pts = np.vstack([clump, background])
    np.clip(pts, 0.0, 1.0, out=pts)
    rng.shuffle(pts, axis=0)
    return pts * domain


def make_sdss(
    n: int,
    seed: int = 0,
    *,
    blob_fraction: float = 0.25,
    n_blobs: Optional[int] = None,
    blob_sigma: float = 0.02,
    domain: float = 1.0,
) -> np.ndarray:
    """SDSS-like points: near-uniform field with mild soft blobs
    (large-scale-structure overdensities)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    k = n_blobs or max(30, n // 4000)
    centers = rng.random((k, 2))
    n_blob = int(round(blob_fraction * n))
    which = rng.integers(0, k, n_blob)
    blob = centers[which] + rng.normal(0.0, blob_sigma, (n_blob, 2))
    uniform = rng.random((n - n_blob, 2))
    pts = np.vstack([blob, uniform])
    np.clip(pts, 0.0, 1.0, out=pts)
    rng.shuffle(pts, axis=0)
    return pts * domain


# ----------------------------------------------------------------------
# density diagnostics and calibration
# ----------------------------------------------------------------------
def _sample_neighbor_counts(
    points: np.ndarray, eps: float, sample_fraction: float = 0.02
) -> np.ndarray:
    """Per-point ε-neighbor counts over a strided sample (vectorized)."""
    grid = GridIndex.build(points, eps)
    n = len(grid)
    stride = max(1, int(round(1 / max(sample_fraction, 1e-9))))
    ids = np.arange(0, n, stride, dtype=np.int64)
    keys = np.concatenate(grid.neighbor_pairs(ids).keys)
    # ids are multiples of stride, so keys // stride is the sample position
    return np.bincount(keys // stride, minlength=len(ids))


def mean_neighbors(
    points: np.ndarray, eps: float, sample_fraction: float = 0.02
) -> float:
    """Mean |N_ε(p)| over a sample (includes the point itself)."""
    return float(_sample_neighbor_counts(points, eps, sample_fraction).mean())


@dataclass(frozen=True)
class DensityProfile:
    """Neighborhood-size distribution diagnostics at a given ε."""

    eps: float
    mean: float
    median: float
    p95: float
    max: float

    @property
    def skewness_ratio(self) -> float:
        """max/mean — large for SW-like clumpy data, small for SDSS-like."""
        return self.max / self.mean if self.mean else 0.0


def density_profile(
    points: np.ndarray, eps: float, sample_fraction: float = 0.02
) -> DensityProfile:
    counts = _sample_neighbor_counts(points, eps, sample_fraction)
    return DensityProfile(
        eps=float(eps),
        mean=float(counts.mean()),
        median=float(np.median(counts)),
        p95=float(np.percentile(counts, 95)),
        max=float(counts.max()),
    )


def _calibrate_domain(
    unit_points: np.ndarray, eps_ref: float, target: float
) -> float:
    """Find the domain side L so mean |N_ε_ref| ≈ target.

    Mean neighborhood size decreases monotonically with L (density
    ~ n/L²), so a short bisection on log L converges quickly; counts
    are evaluated on a 2% sample.
    """
    # initial guess from the uniform approximation: target ≈ n π ε² / L²
    n = len(unit_points)
    L = float(np.sqrt(max(n * np.pi * eps_ref**2 / target, 1e-12)))
    lo, hi = L / 16, L * 16
    for _ in range(24):
        mid = float(np.sqrt(lo * hi))
        m = mean_neighbors(unit_points * mid, eps_ref)
        if abs(m - target) / target < 0.05:
            return mid
        if m > target:  # too dense -> grow the domain
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))


# per-process cache: calibration is deterministic but not free
_dataset_cache: dict[tuple[str, int, int], np.ndarray] = {}


def dataset(
    name: str, *, scale: Optional[float] = None, seed: int = 0
) -> np.ndarray:
    """Generate the named dataset at the current scale (cached).

    The result is density-calibrated: the mean ε-neighborhood at the
    spec's reference ε matches ``spec.target_neighbors`` within ~5%, so
    the paper's ε grids behave comparably on the scaled data.
    """
    spec: DatasetSpec = DATASETS[name]
    n = scaled_size(name, scale)
    key = (name, n, seed)
    if key in _dataset_cache:
        return _dataset_cache[key]
    if spec.family == "sw":
        unit = make_sw(n, seed=seed)
    else:
        unit = make_sdss(n, seed=seed)
    L = _calibrate_domain(unit, spec.eps_ref, spec.target_neighbors)
    pts = unit * L
    _dataset_cache[key] = pts
    return pts
