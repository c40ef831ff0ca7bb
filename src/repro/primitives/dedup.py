"""Duplicate-removal and grouping primitives (charged, vectorized).

"Duplicate removal" is named explicitly by the paper (§3) as a standard MPC
primitive; it is a sort followed by an adjacent-compare, so it inherits the
sample-sort round cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.graph import unique_pairs

from .sorting import SORT_ROUNDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import AMPCRuntime


def charged_unique(
    values: np.ndarray,
    runtime: "AMPCRuntime | None" = None,
    *,
    tag: str = "dedup",
) -> np.ndarray:
    """Sorted distinct values; charges one sample-sort pass."""
    if runtime is not None:
        runtime.charge(tag, rounds=SORT_ROUNDS, reads=values.size, writes=values.size)
    return np.unique(values)


def charged_unique_rows(
    rows: np.ndarray,
    runtime: "AMPCRuntime | None" = None,
    *,
    tag: str = "dedup-rows",
) -> np.ndarray:
    """Distinct rows of a 2-D array (e.g. deduplicating parallel edges)."""
    if runtime is not None:
        runtime.charge(tag, rounds=SORT_ROUNDS, reads=rows.shape[0], writes=rows.shape[0])
    if rows.size == 0:
        return rows
    if rows.shape[1] == 2 and np.issubdtype(rows.dtype, np.signedinteger):
        return unique_pairs(rows[:, 0], rows[:, 1]).astype(
            rows.dtype, copy=False
        )
    return np.unique(rows, axis=0)


def group_min(
    keys: np.ndarray,
    values: np.ndarray,
    payload: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-key minimum of ``values`` (with the winning row's ``payload``).

    Returns (unique_keys, min_values, payload_at_min). Used to keep the
    lightest parallel edge when contracting weighted graphs (only the
    lightest edge between two super-vertices can be in the MSF);
    uncharged, as the contraction that calls it.
    """
    if keys.size == 0:
        return keys, values, payload
    order = np.lexsort((values, keys))
    skeys, svals = keys[order], values[order]
    first = np.ones(skeys.size, dtype=bool)
    first[1:] = skeys[1:] != skeys[:-1]
    out_payload = payload[order][first] if payload is not None else None
    return skeys[first], svals[first], out_payload
