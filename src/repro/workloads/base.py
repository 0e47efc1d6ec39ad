"""Workload plumbing: run contexts, the registry, the uniform entry point.

A :class:`RunContext` bundles everything one run needs — the machine, the
(optional) affinity allocator, the trace recorder, the stream executor —
and provides the allocation helper that makes workload code read like the
paper's listings: in ``AFF_ALLOC`` mode ``ctx.alloc(...)`` goes through
``malloc_aff`` with the given affinity spec, in the other modes the same
call is a plain ``malloc`` (the spec is ignored, as the baseline has no
way to express it).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.api import AffineArray, ArrayHandle, alloc_plain_array
from repro.core.policy import BankSelectPolicy, HybridPolicy
from repro.core.runtime import AffinityAllocator
from repro.machine import Machine
from repro.nsc.engine import EngineMode
from repro.nsc.executor import StreamExecutor
from repro.perf.model import PerfModel, RunResult
from repro.perf.stats import RunRecorder
from repro.scenario import attach_active

__all__ = ["EngineMode", "RunContext", "Workload", "WORKLOADS",
           "make_context", "run_workload", "register"]


@dataclass
class RunContext:
    """Everything one workload run needs."""

    machine: Machine
    mode: EngineMode
    recorder: RunRecorder
    executor: StreamExecutor
    allocator: Optional[AffinityAllocator] = None
    seed: int = 0

    # ------------------------------------------------------------------
    def alloc(self, elem_size: int, num_elem: int, name: str = "",
              align_to: Optional[ArrayHandle] = None, p: int = 1, q: int = 1,
              x: int = 0, partition: bool = False) -> ArrayHandle:
        """Allocate an array: affinity-aware in AFF_ALLOC, plain otherwise."""
        if self.mode.affinity_aware:
            assert self.allocator is not None
            spec = AffineArray(elem_size, num_elem, align_to=align_to,
                               align_p=p, align_q=q, align_x=x,
                               partition=partition)
            return self.allocator.malloc_affine(spec, name=name)
        return alloc_plain_array(self.machine, elem_size, num_elem, name=name)

    def cores_for(self, n: int) -> np.ndarray:
        """Block distribution of ``n`` iterations across the cores."""
        c = self.machine.num_cores
        return (np.arange(n, dtype=np.int64) * c // max(n, 1)).astype(np.int64)

    def cores_of_positions(self, pos: np.ndarray, total: int) -> np.ndarray:
        """Owning core for iteration positions out of ``total``."""
        c = self.machine.num_cores
        return (np.asarray(pos, dtype=np.int64) * c // max(total, 1)).astype(np.int64)

    def end_epoch(self, label: str) -> None:
        """Close one epoch: seal the phase, then (when an autoplace
        session attached a relayout state) run the migration engine's
        decide/apply loop on the sealed counters.  Without a state this
        is exactly ``recorder.end_phase(label)`` — static runs keep a
        byte-identical phase stream."""
        phase = self.recorder.end_phase(label)
        state = self.machine.relayout
        if state is not None:
            state.on_epoch_boundary(self.recorder, phase)

    def finish(self, label: str, reuse_fraction: float = 1.0,
               value=None) -> RunResult:
        result = PerfModel(self.machine).evaluate(
            self.recorder, label=label, reuse_fraction=reuse_fraction,
            value=value)
        tracer = self.machine.tracer
        if tracer is not None and self.allocator is not None:
            # The allocator is only reachable from the context, not the
            # machine, so its stats publish here (after evaluate mirrored
            # the recorder-side counters into the registry).
            tracer.on_alloc_stats(self.allocator.stats)
        return result


def make_context(mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
                 policy: Optional[BankSelectPolicy] = None,
                 seed: int = 0) -> RunContext:
    """Build a fresh machine + recorder + executor for one run.

    In-core and Near-L3 runs use realistic random page mapping for the
    heap (what an oblivious OS gives you); the affinity-aware run keeps
    the heap linear — its arrays come from interleave pools anyway.
    """
    heap_mode = "linear" if mode.affinity_aware else "random"
    machine = Machine(config, heap_mode=heap_mode, seed=seed)
    # Scenario layers (faults, relayout, trace, host interference) attach
    # their per-machine state here, in that fixed order: boot-phase
    # faults must apply before any allocation or other layer.
    attach_active(machine)
    recorder = RunRecorder(machine)
    executor = StreamExecutor(machine, recorder, mode)
    allocator = None
    if mode.affinity_aware:
        allocator = AffinityAllocator(machine,
                                      policy if policy is not None
                                      else HybridPolicy(5.0))
    return RunContext(machine, mode, recorder, executor, allocator, seed)


class Workload(abc.ABC):
    """One benchmark: parameters (Table 3 defaults) plus a traced run."""

    name: str = "abstract"
    layout_kind: str = ""  # Table 3 "Layout" column

    @abc.abstractmethod
    def default_params(self) -> Dict:
        """Table 3 parameters; a ``scale`` factor shrinks them uniformly."""

    @abc.abstractmethod
    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy: Optional[BankSelectPolicy] = None, scale: float = 1.0,
            seed: int = 0, **overrides) -> RunResult:
        """Execute under the given configuration; returns timed results."""

    def params(self, scale: float, **overrides) -> Dict:
        p = self.default_params()
        if scale != 1.0:
            for k, v in p.items():
                if k in self.SCALED_PARAMS:
                    p[k] = max(int(v * scale), 1)
        p.update(overrides)
        return p

    SCALED_PARAMS: tuple = ()

    def layout_plan(self, scale: float = 1.0, **overrides):
        """Static layout declaration for the afflint pre-flight.

        Returns a :class:`repro.analysis.plan.LayoutPlan` describing every
        affine allocation the workload will make (sizes resolved at the
        given scale), or ``None`` for workloads whose layout is data-driven
        (linked structures) and cannot be declared statically.
        """
        return None


WORKLOADS: Dict[str, Workload] = {}


def register(cls):
    """Class decorator: instantiate and add to the registry."""
    inst = cls()
    if inst.name in WORKLOADS:
        raise ValueError(f"duplicate workload {inst.name!r}")
    WORKLOADS[inst.name] = inst
    return cls


def run_workload(name: str, mode: EngineMode,
                 config: SystemConfig = DEFAULT_CONFIG,
                 policy: Optional[BankSelectPolicy] = None,
                 scale: float = 1.0, seed: int = 0, **overrides) -> RunResult:
    """Uniform entry point: ``run_workload("bfs_push", EngineMode.NEAR_L3)``."""
    try:
        wl = WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; "
                       f"available: {sorted(WORKLOADS)}") from None
    return wl.run(mode, config=config, policy=policy, scale=scale, seed=seed,
                  **overrides)
