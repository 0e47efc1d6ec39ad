"""The one input check the Eq. 4 kernel runs before its loop.

The C loop indexes raw memory and the python loop indexes numpy arrays,
so a malformed batch would read or write outside a buffer in one and
raise or read garbage in the other.  Both backends call
:func:`check_inputs` first instead: a malformed input raises
:class:`ValueError` before ``loads`` is touched.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["check_inputs"]


def check_inputs(sizes: np.ndarray, refs: np.ndarray, rows: np.ndarray,
                 loads: np.ndarray, penalty: Optional[np.ndarray]) -> None:
    """Raise :class:`ValueError` unless an Eq. 4 batch agrees on the bank
    count ``nb = loads.size`` and every index it holds stays inside its
    buffer.

    * ``loads`` and ``penalty`` are ``(nb,)`` and ``rows`` is
      ``(r, nb)``;
    * ``sizes`` are non-negative and sum to ``refs.size``;
    * every ref lies below ``r``; a negative ref ``-(p + 1)`` in
      allocation ``i``'s group needs ``p < i`` and bank-indexed rows
      (``r == nb``), since it names the bank chosen for allocation
      ``p``.
    """
    if np.ndim(loads) != 1:
        raise ValueError(f"loads must be one-dimensional, "
                         f"got shape {np.shape(loads)}")
    nb = loads.size
    if penalty is not None and np.shape(penalty) != (nb,):
        raise ValueError(f"penalty must be ({nb},), "
                         f"got {np.shape(penalty)}")
    if np.ndim(rows) != 2 or np.shape(rows)[1] != nb:
        raise ValueError(f"rows must be (r, {nb}), got {np.shape(rows)}")
    if np.ndim(sizes) != 1 or np.ndim(refs) != 1:
        raise ValueError("sizes and refs must be one-dimensional")
    if sizes.size and (int(sizes.min()) < 0
                       or int(sizes.max()) > refs.size):
        raise ValueError(f"sizes must lie in [0, {refs.size}]")
    if int(sizes.sum()) != refs.size:
        raise ValueError(f"sizes sum to {int(sizes.sum())}, "
                         f"but there are {refs.size} refs")
    if not refs.size:
        return
    if int(refs.max()) >= rows.shape[0]:
        raise ValueError(f"refs must lie below {rows.shape[0]}")
    neg = refs < 0
    if neg.any():
        if rows.shape[0] != nb:
            raise ValueError("a negative ref names a chosen bank, so rows "
                             f"must be bank-indexed ({nb}, {nb})")
        owner = np.repeat(np.arange(sizes.size), sizes)[neg]
        if bool((-refs[neg] - 1 >= owner).any()):
            raise ValueError("a negative ref must name an earlier "
                             "allocation of the batch")
