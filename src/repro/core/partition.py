"""Deterministic key placement for the distributed data store.

The AMPC model (paper §2.1, assumption 3) places key-value pairs on DDS
servers "randomly and independently", and the algorithms' key choices are
independent of that placement. We realize the placement with a deterministic
mixing hash seeded by the deployment seed: deterministic so runs are
reproducible, well-mixed so placement behaves like the random assignment the
model assumes (validated empirically in tests and the Lemma 2.1 benchmark).

Keys are scalars or flat tuples of ``int`` / ``str`` / ``bytes`` / ``float``.
"""

from __future__ import annotations

import zlib
from typing import Hashable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_GOLDEN_U64, _MULT1_U64, _MULT2_U64 = map(np.uint64, (_GOLDEN, _MULT1, _MULT2))
_SHIFT30, _SHIFT27, _SHIFT31 = map(np.uint64, (30, 27, 31))

# Memoized string-component mixes: the same handful of strings recur in
# every hashed key — namespaces ("succ", "deg", "adj", ...) in column
# placement sweeps and absent-key reads, ``("req", key)`` items in every
# serving tick's machine assignment — and their crc32 + splitmix showed
# up in profiles.
# A small LRU (dicts iterate in insertion order; re-inserting an entry
# moves it to the MRU end) so long sweeps over adversarial key streams
# keep the working set — the namespace strings — and evict the rest.
_STR_MIX_CACHE: dict[str, int] = {}
_STR_MIX_CACHE_MAX = 4096


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer: fast, well-distributed, stable.

    Unlike Python's built-in ``hash`` (randomized per process for strings),
    this is stable across processes, which keeps simulation runs and test
    expectations reproducible.
    """
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MULT1) & _MASK64
    x = ((x ^ (x >> 27)) * _MULT2) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _splitmix64_inplace(x: np.ndarray, scratch: np.ndarray) -> None:
    """One splitmix64 round over the uint64 array ``x``, in place.

    ``scratch`` is a same-shape uint64 buffer for the shifted copy, so a
    round allocates nothing (uint64 array arithmetic wraps silently).
    """
    x += _GOLDEN_U64
    np.right_shift(x, _SHIFT30, out=scratch)
    x ^= scratch
    x *= _MULT1_U64
    np.right_shift(x, _SHIFT27, out=scratch)
    x ^= scratch
    x *= _MULT2_U64
    np.right_shift(x, _SHIFT31, out=scratch)
    x ^= scratch


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over an integer array.

    Bit-exact parity with the scalar mixer: for any int64/uint64 array
    ``a``, ``splitmix64_array(a)[i] == splitmix64(int(a[i]) & 2**64-1)``.
    Signed inputs are reinterpreted as their two's-complement uint64
    values, matching the scalar path's ``& _MASK64``.
    """
    x = x.astype(np.uint64, copy=True)
    _splitmix64_inplace(x, np.empty_like(x))
    return x


def _mix_part(part: Hashable) -> int:
    """Map one key component to a 64-bit integer (tuples recurse)."""
    if isinstance(part, (int, np.integer)):
        return splitmix64(int(part) & _MASK64)
    if isinstance(part, str):
        cache = _STR_MIX_CACHE
        mixed = cache.get(part)
        if mixed is None:
            mixed = splitmix64(zlib.crc32(part.encode("utf-8")))
            if len(cache) >= _STR_MIX_CACHE_MAX:
                del cache[next(iter(cache))]  # evict the LRU entry
        else:
            del cache[part]
        cache[part] = mixed  # (re-)insert at the MRU end
        return mixed
    if isinstance(part, bytes):
        return splitmix64(zlib.crc32(part))
    if isinstance(part, (float, np.floating)):
        return splitmix64(hash(float(part)) & _MASK64)
    if isinstance(part, tuple):
        h = splitmix64(len(part) ^ 0x7E)
        for sub in part:
            h = splitmix64(h ^ _mix_part(sub))
        return h
    raise TypeError(f"unsupported key component type: {type(part).__name__}")


def key_hash(key: Hashable, seed: int = 0) -> int:
    """Stable 64-bit hash of a DDS key.

    Tuples are mixed component-wise; scalars hash directly. The seed
    perturbs the placement so different deployments use independent
    placements (as the model's random-assignment assumption requires).
    """
    h = splitmix64(seed & _MASK64)
    if isinstance(key, tuple):
        for part in key:
            h = splitmix64(h ^ _mix_part(part))
    else:
        h = splitmix64(h ^ _mix_part(key))
    return h


def server_of(key: Hashable, n_servers: int, seed: int = 0) -> int:
    """The DDS server responsible for ``key`` (paper §2.1, assumption 3)."""
    return key_hash(key, seed) % n_servers


def key_hash_array(
    parts: Sequence[Hashable | np.ndarray], seed: int = 0
) -> np.ndarray:
    """Vectorized :func:`key_hash` over column-decomposed keys.

    ``parts`` is the key laid out column-wise: each entry is either a
    scalar component shared by every key (e.g. a namespace string) or an
    int64 array of per-key components. All array entries must share one
    length ``k``; the result is a uint64 array ``h`` with ``h[i] ==
    key_hash(tuple(part_i for part in parts), seed)`` — and, for a single
    array entry, ``h[i] == key_hash(int(ids[i]), seed)``, since scalar
    ``key_hash`` mixes a 1-tuple and a bare scalar identically.
    """
    h: np.ndarray | np.uint64 = np.uint64(splitmix64(seed & _MASK64))
    for part in parts:
        if isinstance(part, np.ndarray):
            mixed: np.ndarray | np.uint64 = splitmix64_array(part)
        else:
            mixed = np.uint64(_mix_part(part))
        h = splitmix64_array(np.asarray(h ^ mixed, dtype=np.uint64))
        if h.ndim == 0:
            h = np.uint64(h)
    if not isinstance(h, np.ndarray) or h.ndim == 0:
        raise ValueError("key_hash_array needs at least one array component")
    return h


def server_of_array(
    parts: Sequence[Hashable | np.ndarray], n_servers: int, seed: int = 0
) -> np.ndarray:
    """Vectorized :func:`server_of`: one server id per decomposed key.

    Elementwise identical to calling ``server_of`` on each materialized
    key tuple (property-tested); used by the columnar DDS path to place
    whole key arrays with one hash sweep instead of per-key mixing.
    """
    return (key_hash_array(parts, seed) % np.uint64(n_servers)).astype(np.int64)


def replica_servers(
    key: Hashable, n_servers: int, seed: int = 0, replication: int = 1
) -> tuple[int, ...]:
    """The ``replication`` distinct DDS servers holding copies of ``key``.

    The first entry is the primary and equals :func:`server_of`, so a
    replication factor of 1 reproduces the unreplicated placement exactly.
    Backups are drawn by re-mixing the key hash until ``replication``
    distinct servers are found (capped at ``n_servers``), keeping the
    placement deterministic in (key, seed) — every deployment agrees on
    where to fail over without coordination.
    """
    k = min(max(replication, 1), n_servers)
    primary = server_of(key, n_servers, seed)
    if k == 1:
        return (primary,)
    servers = [primary]
    h = key_hash(key, seed)
    salt = 1
    while len(servers) < k:
        h = splitmix64(h ^ salt)
        salt += 1
        candidate = h % n_servers
        if candidate not in servers:
            servers.append(candidate)
    return tuple(servers)


def machine_of(item: Hashable, n_machines: int, seed: int = 0) -> int:
    """The worker machine an item (vertex, sample, list element) lands on.

    The paper repeatedly "randomly distributes" work items to machines
    (Algorithm 1 step 1a, Algorithm 4 step 2, ...); this is that assignment.
    A distinct seed-space from :func:`server_of` keeps work placement
    independent of data placement.
    """
    return key_hash(item, splitmix64(seed ^ 0xA5A5A5A5)) % n_machines


def partition_items(
    items: np.ndarray, n_machines: int, seed: int = 0
) -> np.ndarray:
    """Vectorized machine assignment for an integer item array.

    Returns an array ``a`` with ``a[i]`` the machine of ``items[i]``. Applies
    the same splitmix64 placement as :func:`machine_of` on integer items,
    vectorized with numpy uint64 arithmetic for large batches.
    """
    x = items.astype(np.uint64, copy=True)
    scratch = np.empty_like(x)
    # splitmix64 of item, then mix with the seeded state -- mirrors
    # machine_of(int_item) exactly so scalar and vector paths agree.
    _splitmix64_inplace(x, scratch)
    x ^= np.uint64(splitmix64(splitmix64(seed ^ 0xA5A5A5A5)))
    _splitmix64_inplace(x, scratch)
    return (x % np.uint64(n_machines)).astype(np.int64)
