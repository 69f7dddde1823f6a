"""Host–GPU bandwidth sensitivity model (Section VIII future work).

The paper: *"host-GPU data transfers are a significant bottleneck;
therefore, future bandwidth increases will improve the relative
performance of HYBRID-DBSCAN"* and proposes modeling it.  The model here
decomposes one profiled HYBRID-DBSCAN run into

* ``compute_ms`` — kernel time (bandwidth-invariant; the kernels write
  each ε-row in place, so unlike the paper's Algorithm 4 no device sort
  runs between kernel and transfer),
* ``transfer_bytes`` — total host<->device traffic,
* ``host_ms`` — host-side table construction + DBSCAN (bandwidth-invariant),
* per-transfer latency,

and predicts the response time at any link bandwidth ``B`` as

``T(B) = host_ms + makespan(compute_ms, latency + bytes/B)``

where the makespan term accounts for the 3-stream overlap of compute
and transfer (perfect overlap bounds it below by ``max``, no overlap
above by ``sum``; the observed overlap efficiency is fitted from the
profiled timeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.hybrid_dbscan import HybridDBSCAN
from repro.gpusim.device import Device

__all__ = ["PhaseProfile", "BandwidthModel", "profile_run"]


@dataclass(frozen=True)
class PhaseProfile:
    """Bandwidth-relevant decomposition of one profiled run."""

    compute_ms: float
    transfer_bytes: int
    n_transfers: int
    transfer_latency_ms: float
    host_ms: float
    #: fraction of transfer time hidden behind compute in the profiled
    #: run (0 = fully serialized, 1 = fully overlapped)
    overlap_efficiency: float
    #: the bandwidth (GB/s) the profile was captured at
    profiled_bandwidth_gbs: float

    def transfer_ms_at(self, bandwidth_gbs: float) -> float:
        if bandwidth_gbs <= 0:
            raise ValueError("bandwidth must be positive")
        return (
            self.n_transfers * self.transfer_latency_ms
            + self.transfer_bytes / (bandwidth_gbs * 1e6)
        )


class BandwidthModel:
    """Predicts HYBRID-DBSCAN response time across link bandwidths."""

    def __init__(self, profile: PhaseProfile):
        self.profile = profile

    def device_phase_ms(self, bandwidth_gbs: float) -> float:
        """Modeled table-construction (device) phase: kernels + transfers
        under the profiled stream overlap."""
        p = self.profile
        t = p.transfer_ms_at(bandwidth_gbs)
        c = p.compute_ms
        # overlap interpolates between serialized (c + t) and ideal
        # (max(c, t)) according to the profiled overlap efficiency
        serialized = c + t
        ideal = max(c, t)
        return serialized - p.overlap_efficiency * (serialized - ideal)

    def predict_ms(self, bandwidth_gbs: float) -> float:
        """Modeled end-to-end response time (ms) at the given bandwidth."""
        return self.profile.host_ms + self.device_phase_ms(bandwidth_gbs)

    def speedup_vs_profiled(self, bandwidth_gbs: float) -> float:
        base = self.predict_ms(self.profile.profiled_bandwidth_gbs)
        return base / self.predict_ms(bandwidth_gbs)

    def device_speedup_vs_profiled(self, bandwidth_gbs: float) -> float:
        """Bandwidth sensitivity of the device phase alone — the term the
        paper's 'transfers are the bottleneck' claim concerns."""
        base = self.device_phase_ms(self.profile.profiled_bandwidth_gbs)
        return base / self.device_phase_ms(bandwidth_gbs)

    def sweep(
        self, bandwidths_gbs: Sequence[float]
    ) -> list[tuple[float, float, float, float]]:
        """(bandwidth, predicted_ms, end_to_end_speedup, device_speedup)
        rows for a bandwidth sweep."""
        return [
            (
                float(b),
                self.predict_ms(b),
                self.speedup_vs_profiled(b),
                self.device_speedup_vs_profiled(b),
            )
            for b in bandwidths_gbs
        ]

    def asymptote_ms(self) -> float:
        """Response time in the infinite-bandwidth limit (transfers cost
        only their launch latency)."""
        p = self.profile
        t_inf = p.n_transfers * p.transfer_latency_ms
        serialized = p.compute_ms + t_inf
        ideal = max(p.compute_ms, t_inf)
        return p.host_ms + serialized - p.overlap_efficiency * (serialized - ideal)

    def saturation_bandwidth_gbs(self, tolerance: float = 0.02) -> float:
        """Bandwidth beyond which response time improves < ``tolerance``
        relative to the infinite-bandwidth asymptote."""
        target = self.asymptote_ms() * (1 + tolerance)
        lo, hi = 0.1, 1e5
        for _ in range(80):
            mid = (lo * hi) ** 0.5
            if self.predict_ms(mid) <= target:
                hi = mid
            else:
                lo = mid
        return float(hi)


def profile_run(
    points: np.ndarray,
    eps: float,
    minpts: int,
    *,
    hybrid: Optional[HybridDBSCAN] = None,
) -> BandwidthModel:
    """Run HYBRID-DBSCAN once on a fresh profiler and fit the model."""
    h = hybrid or HybridDBSCAN(Device())
    device = h.device
    device.reset()
    result = h.fit(points, eps, minpts)
    prof = device.profiler
    tl = device.timeline

    compute_ms = prof.kernel_time_ms()
    transfer_ms = prof.transfer_time_ms()
    serialized = compute_ms + transfer_ms
    ideal = max(compute_ms, transfer_ms)
    observed = tl.makespan_ms
    if serialized - ideal > 1e-12:
        eff = float(np.clip((serialized - observed) / (serialized - ideal), 0, 1))
    else:
        eff = 1.0

    profile = PhaseProfile(
        compute_ms=compute_ms,
        transfer_bytes=prof.transfer_bytes(),
        n_transfers=len(prof.transfers),
        transfer_latency_ms=device.cost.transfer_latency_ms,
        host_ms=(result.timings.dbscan_s + result.timings.table_s) * 1e3,
        overlap_efficiency=eff,
        profiled_bandwidth_gbs=device.cost.pinned_bandwidth_gbs,
    )
    return BandwidthModel(profile)
