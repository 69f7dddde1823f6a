"""Seeded-violation kernel corpus for kernelcheck.

Each module defines Kernel subclasses whose ``device_code`` contains
exactly one intended defect; :data:`BAD_KERNELS` maps every corpus
kernel to the rule it must trigger.  The test suite asserts that
kernelcheck fires the expected rule on each (and that no *other* rule
fires, so the corpus doubles as a precision check).
"""

from tests.analysis.badkernels.kc001 import (
    BranchBarrierKernel,
    DivergentUnionFindKernel,
    EarlyReturnKernel,
    TidTripLoopKernel,
)
from tests.analysis.badkernels.kc002 import SharedRWRaceKernel, SharedWWRaceKernel
from tests.analysis.badkernels.kc003 import NonAffineKernel, StridedKernel
from tests.analysis.badkernels.kc004 import UndeclaredSharedKernel
from tests.analysis.badkernels.kc005 import (
    OobNegativeAtomicMinKernel,
    OobNegativeGatherKernel,
    OobOffByOneKernel,
    OobSharedWriteKernel,
    OobUnguardedKernel,
)
from tests.analysis.badkernels.kc006 import RegisterHogKernel
from tests.analysis.badkernels.kc007 import (
    CostContractLiarKernel,
    UnboundedLoopKernel,
)

#: (kernel instance, rule it must trigger)
BAD_KERNELS = [
    (BranchBarrierKernel(), "KC001"),
    (EarlyReturnKernel(), "KC001"),
    (DivergentUnionFindKernel(), "KC001"),
    (TidTripLoopKernel(), "KC001"),
    (SharedRWRaceKernel(), "KC002"),
    (SharedWWRaceKernel(), "KC002"),
    (StridedKernel(), "KC003"),
    (NonAffineKernel(), "KC003"),
    (UndeclaredSharedKernel(), "KC004"),
    (OobUnguardedKernel(), "KC005"),
    (OobOffByOneKernel(), "KC005"),
    (OobSharedWriteKernel(), "KC005"),
    (OobNegativeGatherKernel(), "KC005"),
    (OobNegativeAtomicMinKernel(), "KC005"),
    (RegisterHogKernel(), "KC006"),
    (UnboundedLoopKernel(), "KC007"),
    (CostContractLiarKernel(), "KC007"),
]

__all__ = [
    "BAD_KERNELS",
    "BranchBarrierKernel",
    "DivergentUnionFindKernel",
    "EarlyReturnKernel",
    "TidTripLoopKernel",
    "SharedRWRaceKernel",
    "SharedWWRaceKernel",
    "StridedKernel",
    "NonAffineKernel",
    "UndeclaredSharedKernel",
    "OobUnguardedKernel",
    "OobOffByOneKernel",
    "OobSharedWriteKernel",
    "OobNegativeGatherKernel",
    "OobNegativeAtomicMinKernel",
    "RegisterHogKernel",
    "UnboundedLoopKernel",
    "CostContractLiarKernel",
]
