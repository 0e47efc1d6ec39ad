"""Bank-select policies for irregular allocation (paper §5.2, Fig 13).

The hybrid policy scores every candidate bank by Eq. 4::

    score = avg_hops + H * (load / avg_load - 1)

where ``avg_hops`` is the mean Manhattan distance from the candidate to
the banks of the provided affinity addresses, ``load`` is the bank's live
irregular-allocation count, and ``H`` weights load balance against
affinity.  The bank with the minimum score wins (lowest id on ties, so
behaviour is deterministic and testable).

* ``Rnd``     — uniform random bank (affinity-oblivious).
* ``Lnr``     — round-robin (affinity-oblivious).
* ``Min-Hop`` — Eq. 4 with H = 0 (affinity only; Fig 13 shows its
  pathological single-bank layouts).
* ``Hybrid-H``— Eq. 4 with the given H (Hybrid-5 is the paper's default).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.analysis.diagnostics import NoHealthyBankError
from repro.core.load import LoadTracker
from repro.perf import kernels as _kernels

__all__ = [
    "BankSelectPolicy",
    "RandomPolicy",
    "LinearPolicy",
    "MinHopPolicy",
    "HybridPolicy",
    "policy_by_name",
]


class BankSelectPolicy(abc.ABC):
    """Chooses the banks for irregular allocations."""

    name: str = "abstract"

    @abc.abstractmethod
    def select_batch(self, sizes: np.ndarray, refs: np.ndarray,
                     rows: np.ndarray, load: LoadTracker,
                     mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Pick banks for ``n = sizes.size`` allocations issued back to
        back, commit them to ``load`` and return them.

        Args:
            sizes: ``(n,)`` affinity group sizes: allocation ``i``'s
                affinity is the next ``sizes[i]`` entries of ``refs``
                (possibly none).
            refs: rows of ``rows``, group after group; a negative ref
                ``-(p + 1)`` stands for the bank chosen for allocation
                ``p < i`` of this batch.
            rows: ``(r, num_banks)`` hop rows, bank-indexed when a ref
                is negative (the runtime passes the transposed hop
                table: ``rows[b]`` is every bank's distance to ``b``).
            load: the live tracker; each choice shifts the balance term
                for the next one, and every chosen bank is recorded.
            mask: optional boolean healthy-bank vector (chaos fault
                injection); ``False`` banks are failed and must never be
                chosen.  ``None`` (the healthy default) takes the exact
                original scoring path.  Raises
                :class:`NoHealthyBankError` when every bank is masked.
        """

    def reset(self) -> None:
        """Clear any per-run state (RNG position, round-robin counter)."""

    @staticmethod
    def _healthy_indices(mask: np.ndarray) -> np.ndarray:
        allowed = np.flatnonzero(mask)
        if allowed.size == 0:
            raise NoHealthyBankError("every candidate bank is failed/masked")
        return allowed

    @staticmethod
    def _penalty_row(mask: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """The fault mask folded into Eq. 4's additive 0/inf penalty row
        (None on the healthy path, which then scores untouched)."""
        if mask is None:
            return None
        BankSelectPolicy._healthy_indices(mask)  # raises if all failed
        return np.where(np.asarray(mask, dtype=bool), 0.0, np.inf)


class RandomPolicy(BankSelectPolicy):
    name = "Rnd"

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def select_batch(self, sizes, refs, rows, load, mask=None) -> np.ndarray:
        n = np.size(sizes)
        if mask is not None:
            allowed = self._healthy_indices(mask)
            banks = allowed[self._rng.integers(0, allowed.size, size=n)]
        else:
            banks = self._rng.integers(0, load.num_banks, size=n)
        load.record_many(np.bincount(banks, minlength=load.num_banks))
        return banks.astype(np.int64)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)


class LinearPolicy(BankSelectPolicy):
    name = "Lnr"

    def __init__(self):
        self._next = 0

    def select_batch(self, sizes, refs, rows, load, mask=None) -> np.ndarray:
        n = np.size(sizes)
        if mask is not None:
            allowed = self._healthy_indices(mask)
            banks = allowed[(self._next + np.arange(n)) % allowed.size]
        else:
            banks = (self._next + np.arange(n)) % load.num_banks
        self._next = int((self._next + n) % load.num_banks)
        load.record_many(np.bincount(banks, minlength=load.num_banks))
        return banks.astype(np.int64)

    def reset(self) -> None:
        self._next = 0


class HybridPolicy(BankSelectPolicy):
    """Eq. 4 with load weight H."""

    def __init__(self, h: float):
        if h < 0:
            raise ValueError("H must be non-negative")
        self.h = float(h)
        self.name = f"Hybrid-{h:g}" if h > 0 else "Min-Hop"

    def select_batch(self, sizes, refs, rows, load, mask=None) -> np.ndarray:
        """Sequential Eq. 4 over a batch, with the load updating as it goes.

        Every choice shifts the load the next choice sees, so the loop
        is irreducible — but not unoptimizable: the active kernel
        backend's ``eq4`` (:mod:`repro.perf.kernels`) runs it either as
        chunked *speculative* evaluation (python backend — exact, see
        DESIGN §12) or as a compiled scalar loop (C backend), both
        bit-identical to the naive expression, on a private working copy
        of the loads.  The masked (degraded) variant folds the fault
        mask into an additive 0/inf penalty row, leaving the healthy
        path untouched.
        """
        chosen = _kernels.get_backend().eq4(
            sizes, refs, rows, load.loads, self.h, self._penalty_row(mask))
        load.record_many(np.bincount(chosen, minlength=load.num_banks))
        return chosen


class MinHopPolicy(HybridPolicy):
    """Affinity-only policy (H = 0)."""

    name = "Min-Hop"

    def __init__(self):
        super().__init__(0.0)


def policy_by_name(name: str, seed: int = 0) -> BankSelectPolicy:
    """Construct a policy from its Fig 13 label (e.g. ``"Hybrid-5"``)."""
    if name == "Rnd":
        return RandomPolicy(seed)
    if name == "Lnr":
        return LinearPolicy()
    if name in ("Min-Hop", "Min-Hops"):
        return MinHopPolicy()
    if name.startswith("Hybrid-"):
        return HybridPolicy(float(name.split("-", 1)[1]))
    raise ValueError(f"unknown policy {name!r}")
