"""The ten evaluation workloads (paper Table 3) plus the Fig 4 vec-add.

Every workload runs under the three configurations of the paper's
evaluation (``EngineMode.IN_CORE`` / ``NEAR_L3`` / ``AFF_ALLOC``),
computing functionally correct results while emitting the access trace
the simulator times.  ``WORKLOADS`` maps names to instances; a uniform
``run(mode, ...)`` entry point keeps the harness generic.
"""

from repro.workloads.base import (
    EngineMode,
    RunContext,
    Workload,
    WORKLOADS,
    make_context,
    run_workload,
)
# Imported for their ``@register`` side effect: each fills WORKLOADS.
from repro.workloads import vecadd as _vecadd  # noqa: F401
from repro.workloads import affine_kernels as _affine  # noqa: F401
from repro.workloads import graph_kernels as _graph  # noqa: F401
from repro.workloads import pointer_kernels as _pointer  # noqa: F401
from repro.workloads import phase_flip as _phase_flip  # noqa: F401
from repro.workloads import adversarial as _adversarial  # noqa: F401

__all__ = [
    "EngineMode",
    "RunContext",
    "Workload",
    "WORKLOADS",
    "make_context",
    "run_workload",
]
