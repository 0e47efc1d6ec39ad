"""Near-stream computing (NSC) baseline — the paper's §2 substrate.

Streams are long-term access patterns (affine, indirect, pointer-chasing)
that can be offloaded to L3-bank stream engines, migrating along the data
and forwarding operands to dependent streams.  This package provides:

* :mod:`repro.nsc.stream` — stream descriptors, the stream dependence
  graph (Fig 2) and the affine operand descriptor ``AffineIndex``;
* :mod:`repro.nsc.engine` — engine modes and the offload decision the
  core stream engine (SEcore) makes;
* :mod:`repro.nsc.executor` — the vectorized trace executor that turns
  kernel element traces into NoC messages, bank work, core work, and
  serialized chains, under either in-core or offloaded execution.
"""

from repro.nsc.stream import (
    AffineIndex,
    DepKind,
    StreamDef,
    StreamDep,
    StreamGraph,
    StreamKind,
)
from repro.nsc.engine import EngineMode, OffloadDecision, decide_offload
from repro.nsc.executor import StreamExecutor
from repro.nsc.compiler import (
    CompileError,
    CompiledKernel,
    ExecutionPlan,
    KernelBuilder,
    compile_kernel,
)

__all__ = [
    "StreamKind",
    "StreamDef",
    "StreamDep",
    "DepKind",
    "StreamGraph",
    "AffineIndex",
    "EngineMode",
    "OffloadDecision",
    "decide_offload",
    "StreamExecutor",
    "KernelBuilder",
    "compile_kernel",
    "CompiledKernel",
    "ExecutionPlan",
    "CompileError",
]
