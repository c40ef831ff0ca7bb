"""Shared Hypothesis strategies over :mod:`repro.graph.generators`.

Every property test in the suite draws its inputs from here instead of
hand-rolling ``st.integers`` + generator calls, so coverage is uniform:
each strategy draws a *family*, a *size*, and a *seed* and builds the
instance deterministically through the repo's own generators. Shrinking
therefore walks toward small sizes and low seeds while staying inside the
generator's guarantees (connectivity class, degree bounds, distinct
weights, ...).

This module requires the optional ``hypothesis`` package and is
intentionally NOT imported by :mod:`repro.verify` itself — import it from
test code only.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.graph import generators
from repro.graph.graph import Graph, WeightedGraph

__all__ = [
    "DDS_NAMESPACES",
    "column_ids",
    "dds_keys",
    "dds_values",
    "float_arrays",
    "forests",
    "graphs",
    "id_arrays",
    "id_batches",
    "linked_lists",
    "permutations",
    "seeds",
    "trees",
    "two_cycle_instances",
    "weighted_batches",
    "weighted_graphs",
    "weighted_graphs_with_seed",
]


def seeds(max_seed: int = 10_000) -> st.SearchStrategy[int]:
    """Deployment / generator seeds (shrink toward 0)."""
    return st.integers(0, max_seed)


# -- graph families ---------------------------------------------------------


def _er(draw, n: int, seed: int) -> Graph:
    max_m = n * (n - 1) // 2
    m = draw(st.integers(0, min(3 * n, max_m)))
    return generators.erdos_renyi_gnm(n, m, seed)


def _power_law(draw, n: int, seed: int) -> Graph:
    n = max(n, 2)  # preferential attachment needs n > k >= 1
    k = draw(st.integers(1, min(4, n - 1)))
    return generators.barabasi_albert(n, k, seed)


def _grid(draw, n: int, seed: int) -> Graph:
    rows = draw(st.integers(1, max(1, int(np.sqrt(n)))))
    cols = max(1, n // rows)
    g, _ = generators.relabel(generators.grid(rows, cols), seed)
    return g


def _tree(draw, n: int, seed: int) -> Graph:
    return generators.random_tree(n, seed)


def _forest(draw, n: int, seed: int) -> Graph:
    n_trees = draw(st.integers(1, max(1, n // 2)))
    return generators.random_forest(n, n_trees, seed)


def _cycles(draw, n: int, seed: int) -> Graph:
    if n < 3:
        g, _ = generators.relabel(generators.path(max(n, 1)), seed)
        return g
    lengths = []
    left = n
    while left >= 3:
        k = draw(st.integers(3, left))
        if left - k in (1, 2):
            k = left
        lengths.append(k)
        left -= k
    g, _ = generators.relabel(generators.union_of_cycles(lengths), seed)
    return g


def _path(draw, n: int, seed: int) -> Graph:
    g, _ = generators.relabel(generators.path(n), seed)
    return g


def _star(draw, n: int, seed: int) -> Graph:
    g, _ = generators.relabel(generators.star(max(n, 2)), seed)
    return g


_FAMILY_BUILDERS = {
    "er": _er,
    "power-law": _power_law,
    "grid": _grid,
    "tree": _tree,
    "forest": _forest,
    "cycles": _cycles,
    "path": _path,
    "star": _star,
}


@st.composite
def graphs(
    draw,
    min_n: int = 1,
    max_n: int = 60,
    families: tuple[str, ...] = ("er", "power-law", "grid", "tree",
                                 "forest", "cycles", "path", "star"),
) -> Graph:
    """An undirected graph from one of the named generator families."""
    unknown = set(families) - set(_FAMILY_BUILDERS)
    if unknown:
        raise ValueError(f"unknown graph families: {sorted(unknown)}")
    family = draw(st.sampled_from(families))
    n = draw(st.integers(max(min_n, 1), max_n))
    seed = draw(seeds())
    return _FAMILY_BUILDERS[family](draw, n, seed)


@st.composite
def weighted_graphs(
    draw,
    min_n: int = 1,
    max_n: int = 60,
    families: tuple[str, ...] = ("er", "power-law", "grid", "tree",
                                 "forest", "cycles"),
) -> WeightedGraph:
    """A graph with distinct random edge weights (MSF/affinity inputs)."""
    g = draw(graphs(min_n=min_n, max_n=max_n, families=families))
    return generators.with_random_weights(g, draw(seeds()))


@st.composite
def weighted_graphs_with_seed(
    draw,
    min_n: int = 1,
    max_n: int = 60,
    families: tuple[str, ...] = ("er", "power-law", "grid", "tree",
                                 "forest", "cycles"),
) -> tuple[WeightedGraph, int]:
    """A weighted graph plus a deployment seed — the input of a full
    batch-vs-scalar MSF parity cell (the weighted twin of the pairing
    connectivity property tests draw)."""
    g = draw(weighted_graphs(min_n=min_n, max_n=max_n, families=families))
    return g, draw(seeds())


@st.composite
def weighted_batches(
    draw,
    min_size: int = 0,
    max_size: int = 256,
) -> tuple[str, np.ndarray, np.ndarray]:
    """A ``(namespace, ids, values)`` triple with multi-word float rows —
    the shape the flat weighted-graph encoding writes (``(nbr, weight,
    edge_id)`` per adjacency slot) — for ``write_array`` properties."""
    namespace = draw(st.sampled_from(["adjw", "deg", "fv", "msf"]))
    ids = draw(id_arrays(min_size=min_size, max_size=max_size))
    width = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds()))
    nbr = rng.integers(0, 1 << 40, size=(ids.size, width)).astype(np.float64)
    nbr[:, min(1, width - 1)] = rng.standard_normal(ids.size)
    return namespace, ids, nbr if width > 1 else nbr[:, 0]


@st.composite
def trees(draw, min_n: int = 1, max_n: int = 60) -> Graph:
    """A single random tree."""
    n = draw(st.integers(max(min_n, 1), max_n))
    return generators.random_tree(n, draw(seeds()))


@st.composite
def forests(draw, min_n: int = 1, max_n: int = 60) -> Graph:
    """A random forest (possibly a single tree, possibly all singletons)."""
    n = draw(st.integers(max(min_n, 1), max_n))
    n_trees = draw(st.integers(1, max(1, n // 2)))
    return generators.random_forest(n, n_trees, draw(seeds()))


@st.composite
def linked_lists(draw, min_n: int = 1, max_n: int = 80) -> np.ndarray:
    """A successor array (``succ[tail] = -1``) with permuted element ids."""
    n = draw(st.integers(max(min_n, 1), max_n))
    return generators.linked_list(n, draw(seeds()))


@st.composite
def two_cycle_instances(
    draw, min_n: int = 6, max_n: int = 80
) -> tuple[Graph, bool]:
    """A 2-Cycle problem instance: ``(graph, is_two_cycles)``."""
    half = draw(st.integers(max(min_n, 6) // 2, max_n // 2))
    two = draw(st.booleans())
    return generators.two_cycle_instance(2 * half, two, draw(seeds()))


@st.composite
def permutations(draw, min_n: int = 1, max_n: int = 60) -> np.ndarray:
    """A permutation of 0..n-1 (vertex relabelings, priorities π)."""
    n = draw(st.integers(max(min_n, 1), max_n))
    return np.random.default_rng(draw(seeds())).permutation(n).astype(np.int64)


@st.composite
def float_arrays(
    draw,
    min_size: int = 1,
    max_size: int = 64,
    lo: float = -1e6,
    hi: float = 1e6,
) -> np.ndarray:
    """A finite float64 array (RMQ / prefix-sum / sorting inputs)."""
    values = draw(st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False, width=64),
        min_size=min_size, max_size=max_size,
    ))
    return np.asarray(values, dtype=np.float64)


#: The namespaces :func:`dds_keys` draws, each with the one row layout
#: :func:`dds_values` follows: int, float, int pair, and an (int, float)
#: pair, which reads back as a float row.
DDS_NAMESPACES = ("i", "f", "t", "m")


def dds_keys() -> st.SearchStrategy:
    """Word keys as algorithms use them: ``(namespace, id)`` and
    ``(namespace, id, slot)`` over :data:`DDS_NAMESPACES`, ids up to the
    int64 ends."""
    namespace = st.sampled_from(DDS_NAMESPACES)
    ids = st.one_of(
        st.integers(-3, 8), st.sampled_from([2**63 - 1, -(2**63)])
    )
    return st.one_of(
        st.tuples(namespace, ids),
        st.tuples(namespace, ids, st.integers(-2, 2)),
    )


def dds_values(namespace: str) -> st.SearchStrategy:
    """Values of ``namespace``'s row layout (see :data:`DDS_NAMESPACES`)."""
    integer = st.integers(-10_000, 10_000)
    real = st.floats(-100, 100, allow_nan=False)
    return {
        "i": integer, "f": real, "t": st.tuples(integer, integer),
        "m": st.tuples(integer, real),
    }[namespace]


@st.composite
def id_arrays(
    draw,
    min_size: int = 0,
    max_size: int = 256,
    lo: int = 0,
    hi: int = 1 << 40,
) -> np.ndarray:
    """An int64 id column for the batch DDS APIs (duplicates allowed).

    Ids span many orders of magnitude so the splitmix64 placement hash is
    exercised well past the small-key regime the graph algorithms use.
    """
    values = draw(st.lists(st.integers(lo, hi), min_size=min_size,
                           max_size=max_size))
    return np.asarray(values, dtype=np.int64)


@st.composite
def column_ids(
    draw, min_size: int = 0, max_size: int = 24, bound: int = 1 << 63
) -> np.ndarray:
    """An int64 id column that reaches both DDS index forms.

    Either clustered within +-8 of an arbitrary centre — with a handful of
    rows the key span is a small multiple of the row count, so the column
    gets a position table — or spread over all of ``[-bound, bound)``
    (wide span: sorted keys). Negatives, duplicates and, at the default
    ``bound``, the int64 extremes are all in range.
    """
    if draw(st.booleans()):
        centre = draw(st.integers(-bound + 8, bound - 9))
        lo, hi = centre - 8, centre + 8
    else:
        lo, hi = -bound, bound - 1
    return draw(id_arrays(min_size, max_size, lo=lo, hi=hi))


@st.composite
def id_batches(
    draw,
    min_size: int = 0,
    max_size: int = 256,
) -> tuple[str, np.ndarray, np.ndarray]:
    """A ``(namespace, ids, values)`` triple for ``write_array``."""
    namespace = draw(st.sampled_from(["succ", "len", "val", "adj", "fedge"]))
    ids = draw(id_arrays(min_size=min_size, max_size=max_size))
    kind = draw(st.sampled_from(["int", "float"]))
    rng = np.random.default_rng(draw(seeds()))
    if kind == "int":
        values = rng.integers(-(1 << 30), 1 << 30, size=ids.size)
    else:
        values = rng.standard_normal(ids.size)
    return namespace, ids, values
