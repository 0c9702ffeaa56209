"""Key-range detection over sorted batches.

ORDAGG and WINDOW aggregate *key ranges*: maximal runs of equal key values
in a sorted partition. This module computes the run boundaries vectorized.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..storage.batch import Batch
from ..storage.keys import key_change_flags


def ranges_of(
    batch: Batch, key_names: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, ends, codes): half-open run boundaries and per-row run ids.

    With no key columns the whole batch is one range.
    """
    n = len(batch)
    if not key_names:
        starts = np.array([0], dtype=np.int64)
        ends = np.array([n], dtype=np.int64)
        return starts, ends, np.zeros(n, dtype=np.int64)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    flags = key_change_flags([batch.column(name) for name in key_names])
    starts = np.flatnonzero(flags).astype(np.int64)
    ends = np.append(starts[1:], n).astype(np.int64)
    codes = np.cumsum(flags) - 1
    return starts, ends, codes.astype(np.int64)
