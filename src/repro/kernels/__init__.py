"""The paper's GPU kernels, run on the simulated device.

* :class:`~repro.kernels.global_kernel.GPUCalcGlobal` — Algorithm 2:
  one thread per point, global memory only, with the strided batching
  extension of Section VI.
* :class:`~repro.kernels.shared_kernel.GPUCalcShared` — Algorithm 3:
  one block per non-empty grid cell, origin/comparison cells paged
  through shared memory with block barriers.
* :class:`~repro.kernels.count_kernel.NeighborCountKernel` — the result
  set size estimator of Section VI (counts neighbors of an ``f``-sample).
* :mod:`repro.kernels.cluster_kernels` — device-resident cluster
  formation over ``T``: :class:`CoreFlagKernel` (core classification),
  :class:`ClusterUnionFindKernel` (iterated min-label union-find: a
  pointer jump per round, and each lowered label hooks its old root
  with an atomic minimum), :class:`BorderAttachKernel` (border
  attachment to the lowest-id core neighbor).

Every kernel :func:`shipped_kernels` registers has interpreter device
code and a vectorized backend, and the two produce identical results
(property-tested).
"""

from repro.gpusim.launch import Kernel
from repro.kernels.cluster_kernels import (
    BorderAttachKernel,
    ClusterUnionFindKernel,
    CoreFlagKernel,
)
from repro.kernels.count_kernel import NeighborCountKernel
from repro.kernels.global_kernel import GPUCalcGlobal, batch_point_ids
from repro.kernels.shared_kernel import GPUCalcShared

__all__ = [
    "BorderAttachKernel",
    "ClusterUnionFindKernel",
    "CoreFlagKernel",
    "GPUCalcGlobal",
    "GPUCalcShared",
    "NeighborCountKernel",
    "batch_point_ids",
    "shipped_kernels",
]


def shipped_kernels() -> list[Kernel]:
    """The registered kernel set, in launch order of the pipeline.

    This is the registry static analysis walks
    (``repro analyze kernels`` / :mod:`repro.analysis.kernelcheck`);
    a kernel missing here ships without its pre-launch verification.
    """
    return [
        NeighborCountKernel(),
        GPUCalcGlobal(),
        GPUCalcShared(),
        CoreFlagKernel(),
        ClusterUnionFindKernel(),
        BorderAttachKernel(),
    ]
