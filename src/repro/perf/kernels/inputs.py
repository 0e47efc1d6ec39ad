"""The one input check every Eq. 4 kernel runs before its loop.

The C loops index raw memory and the python loops index numpy arrays,
so a malformed batch would read or write outside a buffer in one and
raise or read garbage in the other.  Both backends call
:func:`check_inputs` first instead: a malformed input raises
:class:`ValueError` before ``loads`` is touched.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["check_inputs"]


def check_inputs(loads: np.ndarray, penalty: Optional[np.ndarray], *,
                 mean_hops: Optional[np.ndarray] = None,
                 dist_t: Optional[np.ndarray] = None,
                 prev_ids: Optional[np.ndarray] = None,
                 head_banks: Optional[np.ndarray] = None,
                 offsets: Optional[np.ndarray] = None,
                 banks: Optional[np.ndarray] = None) -> None:
    """Raise :class:`ValueError` unless the given kernel inputs agree on
    the bank count ``nb = loads.size`` and every index they hold stays
    inside its buffer.

    * ``loads`` and ``penalty`` are ``(nb,)``, ``mean_hops`` is
      ``(n, nb)`` and ``dist_t`` is ``(nb, nb)``;
    * ``prev_ids`` and ``head_banks`` have one entry per allocation,
      ``prev_ids[i] < i`` and ``head_banks < nb`` (negative entries
      mean "none");
    * ``offsets`` rise from 0 to ``banks.size`` and ``banks`` lie in
      ``[0, nb)``.
    """
    if np.ndim(loads) != 1:
        raise ValueError(f"loads must be one-dimensional, "
                         f"got shape {np.shape(loads)}")
    nb = loads.size
    if penalty is not None and np.shape(penalty) != (nb,):
        raise ValueError(f"penalty must be ({nb},), "
                         f"got {np.shape(penalty)}")
    if mean_hops is not None and (np.ndim(mean_hops) != 2
                                  or np.shape(mean_hops)[1] != nb):
        raise ValueError(f"mean_hops must be (n, {nb}), "
                         f"got {np.shape(mean_hops)}")
    if dist_t is not None and np.shape(dist_t) != (nb, nb):
        raise ValueError(f"dist_t must be ({nb}, {nb}), "
                         f"got {np.shape(dist_t)}")
    if prev_ids is not None:
        n = np.size(prev_ids)
        if np.ndim(prev_ids) != 1 or np.shape(head_banks) != (n,):
            raise ValueError(f"prev_ids and head_banks must both be ({n},), "
                             f"got {np.shape(prev_ids)} and "
                             f"{np.shape(head_banks)}")
        if bool((np.asarray(prev_ids) >= np.arange(n)).any()):
            raise ValueError("prev_ids must reference earlier allocations")
        if n and int(np.max(head_banks)) >= nb:
            raise ValueError(f"head_banks must lie below {nb}")
    if offsets is not None:
        offs = np.asarray(offsets)
        if (offs.ndim != 1 or np.ndim(banks) != 1 or offs.size == 0
                or offs[0] != 0
                or offs[-1] != np.size(banks)
                or bool((offs[1:] < offs[:-1]).any())):
            raise ValueError("offsets must rise from 0 to banks.size")
        if np.size(banks) and (int(np.min(banks)) < 0
                               or int(np.max(banks)) >= nb):
            raise ValueError(f"affinity banks must lie in [0, {nb})")
