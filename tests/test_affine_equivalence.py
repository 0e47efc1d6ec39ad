"""Line-run ``affine_kernel`` vs. its per-element reference original.

The shipped kernel translates, bank-maps and dedups once per line run;
:func:`tests.oracles.affine_kernel_reference` walks every element.
Both run on twin contexts built from the same seed, and every piece of
state the kernel can touch must come out byte-identical: the recorder's
bank/core arrays and scalars, per-class pair flits and message counts,
stream locality, relayout drift histograms, fault log records and trace
instants.  ``AffineIndex`` operands must also match the same call on the
index arrays they stand for.
"""

import dataclasses
from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.iot import MigrationEntry
from repro.arch.noc import MessageClass
from repro.config import DEFAULT_CONFIG
from repro.core.api import AddressView, ArrayHandle
from repro.faults import FaultPlan, fault_session
from repro.faults.plan import FaultEvent, FaultKind
from repro.nsc.engine import EngineMode
from repro.nsc.stream import AffineIndex
from repro.obs.tracer import TraceConfig, trace_session
from repro.relayout.engine import relayout_session
from repro.relayout.policy import RelayoutConfig
from repro.workloads.base import make_context
from tests.oracles import affine_kernel_reference

MODES = [EngineMode.IN_CORE, EngineMode.NEAR_L3, EngineMode.AFF_ALLOC]
WEIGHTS = [1.0, 0.0, 2.0, 0.1, 1.0 / 3.0]
REPEATS = [1.0, 4.0, 0.1, 1.0 / 3.0]
# The default credit window (1024 iterations) rarely splits a small
# trace; a short window makes the per-core credit counts observable.
CREDIT_ITERS = [DEFAULT_CONFIG.perf.credit_iters, 5]


def recorder_state(ctx) -> dict:
    """Everything the executor can write, as exact bytes/reprs."""
    rec = ctx.recorder
    state = {name: getattr(rec, name).tobytes() for name in (
        "bank_line_accesses", "bank_atomics", "bank_remote_reqs",
        "bank_near_ops", "core_ops", "core_serial_cycles")}
    for name in ("private_line_accesses", "stream_elem_accesses",
                 "stream_remote_accesses"):
        state[name] = float(getattr(rec, name)).hex()
    for cls in MessageClass:
        state[f"flits.{cls.name}"] = rec.traffic._pair_flits[cls].tobytes()
        state[f"messages.{cls.name}"] = float(rec.traffic._messages[cls]).hex()
    state["phases"] = [(p.label, p.bank_line_accesses.tobytes(),
                        p.bank_near_ops.tobytes(), p.core_ops.tobytes(),
                        p.private_line_accesses) for p in rec.phases]
    relayout = ctx.machine.relayout
    if relayout is not None:
        # The drift histograms are cleared at every epoch boundary, so
        # each epoch's are taken before it closes (see run_twin).
        state["migrations"] = list(ctx.machine.iot._mig)
    faults = ctx.machine.faults
    if faults is not None:
        state["fault_log"] = list(faults.log.records)
    tracer = ctx.machine.tracer
    if tracer is not None:
        state["trace"] = list(tracer.events)
    return state


def _handles(ctx, n_elem: int, rng, stride: int):
    """Four handles: a base array, an array aligned to it, an
    ``AddressView`` over a shuffled slice of the base array, and a padded
    array of ``stride``-byte slots whose base is not line-aligned."""
    a = ctx.alloc(4, n_elem, name="A")
    b = ctx.alloc(8, n_elem, name="B", align_to=a)
    view = AddressView(ctx.machine, a.addr_of(rng.permutation(n_elem)),
                       a.elem_size, name="V")
    base = ctx.machine.malloc(stride * n_elem + 64)
    padded = ArrayHandle(ctx.machine, base + 4, 4, n_elem, stride=stride,
                         name="P")
    return [a, b, view, padded]


def install_migration(ctx, handle, elem: int, shift: int) -> int:
    """Install a migration entry over ``handle`` from element ``elem`` and
    return its physical start.  A start that is only 4-byte aligned, or a
    ``shift`` below the line, shrinks the IOT granule."""
    start = int(ctx.machine.translate(handle.addr_of([elem]))[0])
    ctx.machine.iot.install_migration(MigrationEntry(
        start=start, end=start + 4 * 1000, shift=shift, offset=5))
    return start


def _index(kind, n: int, size: int, rng):
    """Index operand of one stream; an integer ``kind`` is the offset of
    an ``AffineIndex``."""
    if isinstance(kind, int):
        return AffineIndex(kind)
    base = np.arange(n, dtype=np.int64) % size
    if kind == "identity":
        return base
    if kind == "offset":
        return np.clip(base + int(rng.integers(-3, 4)), 0, size - 1)
    if kind == "strided":
        return (base * 3) % size
    return rng.permutation(size)[base]


def _cores(kind: str, ctx, n: int, rng) -> np.ndarray:
    if kind == "block":
        return ctx.cores_for(n)
    if kind == "shuffled":
        return rng.integers(0, ctx.machine.num_cores, size=n)
    return np.sort(rng.integers(0, ctx.machine.num_cores, size=n))


def run_twin(kernel, *, mode, seed, n, n_elem, core_kind, streams, out,
             ops_per_elem, repeat, credit_iters=CREDIT_ITERS[0], faults=None,
             relayout=False, trace=False, calls=2, stride=12, migrate=None):
    """Build a context under the requested sessions and drive ``kernel``
    through ``calls`` epochs; return the final recorder state.

    ``migrate`` is an optional ``(element, shift)`` migration over the
    base array, installed before the first call; under relayout it goes
    over a spare array instead, so relayout's own entries never overlap
    it."""
    with ExitStack() as stack:
        if faults is not None:
            stack.enter_context(fault_session(faults))
        if relayout:
            stack.enter_context(relayout_session(
                RelayoutConfig(min_accesses=0.0, drift_threshold=0.0,
                               dominance=0.0, cooldown_epochs=0)))
        if trace:
            stack.enter_context(trace_session(TraceConfig()))
        config = dataclasses.replace(DEFAULT_CONFIG, perf=dataclasses.replace(
            DEFAULT_CONFIG.perf, credit_iters=credit_iters))
        ctx = make_context(mode, config=config, seed=seed)
        rng = np.random.default_rng(seed)
        handles = _handles(ctx, n_elem, rng, stride)
        if migrate is not None:
            target = ctx.alloc(4, 2048, name="S") if relayout else handles[0]
            install_migration(ctx, target,
                              min(migrate[0], target.num_elem - 1), migrate[1])
        cores = _cores(core_kind, ctx, n, rng)
        ins = [(handles[h], _index(k, n, n_elem, rng)) for h, k in streams]
        dst = (handles[out[0]], _index(out[1], n, n_elem, rng)) if out else None
        drift = []
        for epoch in range(calls):
            kernel(ctx.executor, cores, ins, out=dst,
                   ops_per_elem=ops_per_elem, repeat=repeat)
            if ctx.machine.relayout is not None:
                drift.append(relayout_streams(ctx.machine.relayout))
            ctx.end_epoch(f"e{epoch}")
        return dict(recorder_state(ctx), drift=drift)


def relayout_streams(relayout) -> dict:
    """Relayout per-array drift accumulators, as exact bytes."""
    return {vaddr: (float(acc["total"]).hex(), float(acc["remote"]).hex(),
                    acc["hist"].tobytes())
            for vaddr, acc in relayout._streams.items()}


def shipped(executor, *args, **kw):
    executor.affine_kernel(*args, **kw)


def expanded(executor, cores, ins, out=None, **kw):
    """The shipped kernel on the index arrays that ``AffineIndex``
    operands stand for."""
    n = np.size(cores)

    def arrays(h, i):
        return (h, i.expand(n, h.num_elem) if isinstance(i, AffineIndex)
                else i)

    executor.affine_kernel(cores, [arrays(*p) for p in ins],
                           out=arrays(*out) if out else None, **kw)


def assert_same_state(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


def assert_twins_match(**case):
    assert_same_state(run_twin(shipped, **case),
                      run_twin(affine_kernel_reference, **case))


stream_specs = st.lists(
    st.tuples(st.integers(0, 2),
              st.sampled_from(["identity", "offset", "strided", "permuted"])),
    min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from(MODES), seed=st.integers(0, 2**16),
       n=st.integers(1, 3000), n_elem=st.integers(1, 2048),
       core_kind=st.sampled_from(["block", "shuffled", "sorted"]),
       streams=stream_specs,
       out=st.none() | st.tuples(
           st.integers(0, 2), st.sampled_from(["identity", "offset",
                                               "permuted"])),
       ops_per_elem=st.sampled_from(WEIGHTS),
       repeat=st.sampled_from(REPEATS),
       credit_iters=st.sampled_from(CREDIT_ITERS))
def test_clean_runs_match_reference(**case):
    assert_twins_match(**case)


@settings(max_examples=80, deadline=None)
@given(mode=st.sampled_from(MODES), seed=st.integers(0, 2**16),
       n=st.integers(1, 3000), n_elem=st.integers(1, 2048),
       core_kind=st.sampled_from(["block", "shuffled"]),
       streams=stream_specs,
       out=st.none() | st.tuples(st.integers(0, 2),
                                 st.sampled_from(["identity", "offset"])),
       ops_per_elem=st.sampled_from(WEIGHTS),
       repeat=st.sampled_from(REPEATS),
       credit_iters=st.sampled_from(CREDIT_ITERS),
       bank=st.integers(0, 63), rehome=st.booleans(),
       relayout=st.booleans(), trace=st.booleans())
def test_session_runs_match_reference(bank, rehome, **case):
    """Faults (re-homed and host-fallback), relayout and tracing attached."""
    plan = FaultPlan(events=(FaultEvent(FaultKind.BANK_FAIL, bank,
                                        rehome=rehome),))
    assert_twins_match(faults=plan, **case)


# Descriptor operands: any offset (|offset| >= n clamps a whole stream),
# over the base, aligned and padded arrays (the AddressView has no fixed
# stride).  Padded strides straddle the 2**g granule: 12 and 40 below
# it, 96 and 160 above.
descriptor_specs = st.lists(
    st.tuples(st.sampled_from([0, 1, 3]),
              st.integers(-8, 8) | st.integers(-4000, 4000)),
    min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(mode=st.sampled_from(MODES), seed=st.integers(0, 2**16),
       n=st.integers(1, 3000), n_elem=st.integers(1, 2048),
       core_kind=st.sampled_from(["block", "shuffled", "sorted"]),
       streams=descriptor_specs,
       out=st.none() | descriptor_specs.map(lambda specs: specs[0]),
       ops_per_elem=st.sampled_from(WEIGHTS),
       repeat=st.sampled_from(REPEATS),
       credit_iters=st.sampled_from(CREDIT_ITERS),
       stride=st.sampled_from([12, 40, 96, 160]),
       migrate=st.none() | st.tuples(st.integers(0, 2047),
                                     st.sampled_from([2, 3, 6])),
       bank=st.none() | st.integers(0, 63), rehome=st.booleans(),
       relayout=st.booleans(), trace=st.booleans())
def test_descriptor_operands_match_expanded_arrays(bank, rehome, **case):
    """``AffineIndex`` operands leave the same recorder, relayout, fault
    and trace state as their expanded index arrays, in the shipped kernel
    and in the per-element reference."""
    if bank is not None:
        case["faults"] = FaultPlan(events=(FaultEvent(
            FaultKind.BANK_FAIL, bank, rehome=rehome),))
    want = run_twin(expanded, **case)
    assert_same_state(run_twin(shipped, **case), want)
    assert_same_state(run_twin(affine_kernel_reference, **case), want)


@pytest.mark.parametrize("mode", MODES)
def test_stencil_shape_matches_reference(mode):
    """Neighbor descriptors over one array plus an aligned output: the
    stencils' call shape, at a size with long line runs."""
    assert_twins_match(mode=mode, seed=7, n=200_000, n_elem=200_000,
                       core_kind="block",
                       streams=[(0, -1), (0, 0), (0, 1), (1, -448)],
                       out=(1, 0), ops_per_elem=3.0, repeat=5.0)


def test_relayout_migrations_match_reference():
    """Relayout migration entries installed between epochs change the
    bank mapping mid-run; later epochs must still match."""
    case = dict(mode=EngineMode.AFF_ALLOC, seed=3, n=8192, n_elem=8192,
                core_kind="block", streams=[(0, "offset"), (1, "identity")],
                out=(1, "offset"), ops_per_elem=1.0, repeat=1.0,
                relayout=True, calls=4)
    want = run_twin(affine_kernel_reference, **case)
    assert want["migrations"] and all(want["drift"])
    assert run_twin(shipped, **case) == want
