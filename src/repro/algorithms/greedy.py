"""The truncated greedy query process (paper §5, Algorithms 3–5), once.

LFMIS, the lexicographically-first maximal matching and the greedy
vertex and edge colorings share one shape: order the items by a random
permutation π and give each item a value that is a function of its
earlier-π neighbors' values. Yoshida et al.'s query process (Algorithm
3) computes one item's value by recursing into its earlier neighbors in
π order; Algorithm 5 truncates it at ``cap`` recursive calls, and
Algorithm 4 iterates truncated queries until every item is settled.
Matching is that process on the line graph, and the colorings are the
same process where a query returns a color (§10).

:func:`truncated_query` is the one explicit-stack implementation. It
never branches on its caller; two small objects say what differs:

* a *stream* enumerates a node's earlier-π neighbors, in π order, in its
  algorithm's key layout, reading lazily (a query that stops early pays
  for no read past its stopping point), and says whether a node was
  settled by an earlier iteration:

  - :class:`CsrStream` — ``("deg", v) -> (deg, base)``,
    ``("nb", pos) -> (u, π_u)``: the flat π-sorted CSR of MIS and of the
    serving engine; :class:`CsrReplay` walks the same rows from a
    machine's local copy and records the keys its read cache would
    charge;
  - :class:`EarlierStream` — ``("edeg", v) -> deg``,
    ``("enb", v, i) -> (u, π_u)``: rows holding only earlier neighbors
    (vertex coloring; prior colors under ``("color", v)``);
  - :class:`IncidenceStream` — ``("ideg", v) -> deg``,
    ``("inc", v, i) -> (π_e, e)``: an edge's earlier adjacent edges are
    the lazy merge of its endpoints' π-sorted incidence rows (matching;
    edge coloring, prior colors under ``("ecolor", e)``);

* a *rule* turns neighbor values into the node's value:
  :class:`MisRule` (out as soon as one earlier neighbor is in) and
  :class:`ColorRule` (the smallest color no earlier neighbor has).

:func:`query_round` is the per-item iteration of matching and both
colorings, and :func:`settle` the iterate-until-settled loop all four
drivers run.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Any, Callable, Iterator

import numpy as np

UNKNOWN, OUT, IN = -1, 0, 1
_SENTINEL = (1 << 60, -1)


class Calls:
    """Recursive-call counter of one query (Proposition 5.1's quantity)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def truncated_query(
    root: int, cap: int, settled: dict, stream: Any, rule: Any, calls: Calls
) -> int:
    """TruncatedQuery (Algorithm 5): ``root``'s value, or ``UNKNOWN``
    when it would take more than ``cap`` recursive calls.

    ``settled`` is the machine's table of values it has determined
    (shared across the items it processes in a round): completed
    sub-queries land there, in the order they complete, because values
    are exact. ``calls`` counts recursive calls, the truncated one too.
    """
    value = settled.get(root)
    if value is None:
        value = stream.prior(root)
        if value is not None:
            settled[root] = value
    if value is not None:
        return value
    prior, earlier = stream.prior, stream.earlier
    start, see, finish = rule.start, rule.see, rule.finish
    budget = cap
    stack: list[tuple[int, Iterator[int], Any]] = []
    node = root
    while True:
        # A recursive call on `node`: Algorithm 5's unit of capacity.
        budget -= 1
        calls.value += 1
        if budget < 0:
            return UNKNOWN
        stack.append((node, earlier(node), start()))
        while True:
            node, nbrs, state = stack[-1]
            child = value = None
            for u in nbrs:
                value = settled.get(u)
                if value is None:
                    value = prior(u)
                    if value is None:
                        child = u
                        break
                    settled[u] = value
                value = see(state, value)
                if value is not None:
                    break
            if child is not None:
                node = child
                break
            if value is None:
                value = finish(state)
            # `node` settles; its value returns to its callers, which
            # may settle in turn.
            while True:
                settled[node] = value
                stack.pop()
                if not stack:
                    return value
                node, _nbrs, state = stack[-1]
                value = see(state, value)
                if value is None:
                    break


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


class MisRule:
    """LFMIS (and LFMM on the line graph): a node is out as soon as one
    earlier neighbor is in, and in once every earlier neighbor is out."""

    @staticmethod
    def start() -> None:
        return None

    @staticmethod
    def see(_state: None, value: int) -> int | None:
        return OUT if value == IN else None

    @staticmethod
    def finish(_state: None) -> int:
        return IN


class ColorRule:
    """Greedy coloring: the smallest color no earlier neighbor has."""

    start = staticmethod(set)

    @staticmethod
    def see(forbidden: set, color: int) -> None:
        forbidden.add(color)

    @staticmethod
    def finish(forbidden: set) -> int:
        color = 0
        while color in forbidden:
            color += 1
        return color


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


class CsrStream:
    """Flat π-sorted CSR: ``("deg", v) -> (deg, base)`` and
    ``("nb", base + i) -> (u, π_u)``, with every neighbor in the row; a
    row is scanned up to (and including) its first later neighbor."""

    __slots__ = ("read", "pi")

    def __init__(self, read: Callable[[Any], Any], pi: Any) -> None:
        self.read = read
        self.pi = pi

    def prior(self, _v: int) -> None:
        return None

    def earlier(self, v: int) -> Iterator[int]:
        read = self.read
        deg, base = read(("deg", v))
        pi_v = self.pi[v]
        for pos in range(base, base + deg):
            u, pi_u = read(("nb", pos))
            if pi_u > pi_v:
                return
            yield u


class CsrReplay(CsrStream):
    """:class:`CsrStream` over a machine's local copy of the rows.

    ``deg``, ``base`` and ``row_of`` address rows by vertex, ``indices``
    and ``nb_pi`` the flat entries (all plain lists). Reads are not
    issued but recorded: ``deg_keys`` / ``nb_keys`` hold each key once,
    in first-use order — exactly what the machine's read cache would
    have charged — for one ``charge_read_array`` per namespace.
    """

    __slots__ = ("deg", "base", "row_of", "indices", "nb_pi", "deg_keys",
                 "nb_keys")

    def __init__(self, deg, base, row_of, indices, nb_pi, pi) -> None:
        super().__init__(None, pi)
        self.deg, self.base, self.row_of = deg, base, row_of
        self.indices, self.nb_pi = indices, nb_pi
        self.deg_keys: dict[int, None] = {}
        self.nb_keys: dict[int, None] = {}

    def earlier(self, v: int) -> Iterator[int]:
        self.deg_keys[v] = None
        r = self.row_of[v]
        pi_v, nb_pi, nb_keys = self.pi[v], self.nb_pi, self.nb_keys
        for pos in range(self.base[r], self.base[r] + self.deg[r]):
            nb_keys[pos] = None
            if nb_pi[pos] > pi_v:
                return
            yield self.indices[pos]


class EarlierStream:
    """Rows of earlier neighbors only, π-sorted: ``("edeg", v) -> deg``
    and ``("enb", v, i) -> (u, π_u)``; values settled by an earlier
    iteration are ``("color", v)``."""

    __slots__ = ("read",)

    def __init__(self, read: Callable[[Any], Any]) -> None:
        self.read = read

    def prior(self, v: int) -> int | None:
        return self.read(("color", v))

    def earlier(self, v: int) -> Iterator[int]:
        read = self.read
        for i in range(read(("edeg", v)) or 0):
            yield read(("enb", v, i))[0]


class IncidenceStream:
    """An edge's earlier adjacent edges: the two-pointer merge of its
    endpoints' π-sorted incidence rows ``("ideg", v) -> deg``,
    ``("inc", v, i) -> (π_e, e)``, one read per step. ``prior`` names
    the namespace of values settled by an earlier iteration (None: the
    rows hold only unsettled edges)."""

    __slots__ = ("read", "edges", "pi", "prior_ns")

    def __init__(self, read, edges: np.ndarray, pi: np.ndarray,
                 prior: str | None = None) -> None:
        self.read = read
        self.edges = edges
        self.pi = pi
        self.prior_ns = prior

    def prior(self, e: int) -> int | None:
        if self.prior_ns is None:
            return None
        return self.read((self.prior_ns, e))

    def earlier(self, e: int) -> Iterator[int]:
        read = self.read
        u, v = int(self.edges[e, 0]), int(self.edges[e, 1])
        pi_e = self.pi[e]
        du = read(("ideg", u)) or 0
        dv = read(("ideg", v)) or 0
        iu = iv = 0
        while iu < du or iv < dv:
            head_u = read(("inc", u, iu)) if iu < du else _SENTINEL
            head_v = read(("inc", v, iv)) if iv < dv else _SENTINEL
            if head_u[1] == e:
                iu += 1
                continue
            if head_v[1] == e:
                iv += 1
                continue
            if head_u[0] <= head_v[0]:
                cand_pi, cand = head_u
                iu += 1
            else:
                cand_pi, cand = head_v
                iv += 1
            if cand_pi > pi_e:
                return
            yield cand


def incidence_pairs(
    edges: np.ndarray, pi: np.ndarray, keep: np.ndarray
) -> list[tuple[tuple, Any]]:
    """The :class:`IncidenceStream` rows of the ``keep`` edges, each
    sorted by π, as setup pairs."""
    eids = np.flatnonzero(keep)
    ends = edges[eids].reshape(-1)
    owners = np.repeat(eids, 2)
    order = np.lexsort((pi[owners], ends))
    ends, owners = ends[order], owners[order]
    verts, starts, counts = np.unique(ends, return_index=True,
                                      return_counts=True)
    slots = np.arange(ends.size) - np.repeat(starts, counts)
    rows = zip(verts.tolist(), counts.tolist())
    entries = zip(ends.tolist(), slots.tolist(), pi[owners].tolist(),
                  owners.tolist())
    return [(("ideg", v), d) for v, d in rows] + [
        (("inc", v, i), (p, e)) for v, i, p, e in entries
    ]


# ---------------------------------------------------------------------------
# the per-item round and the driver loop
# ---------------------------------------------------------------------------


def query_round(runtime, items: np.ndarray, setup, stream, rule, cap: int,
                namespace: str, *, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """One iteration as a per-item round: a truncated query per item on
    the machine's ``settled`` table, over ``stream(ctx.read)``; every
    value a machine newly settles is published once, in settling order,
    as ``(namespace, node) -> value``. Returns the harvested
    ``(nodes, values)``."""

    def worker(ctx, item: int) -> None:
        settled = ctx.scratch.setdefault("settled", {})
        truncated_query(item, cap, settled, stream(ctx.read), rule, Calls())
        done = ctx.scratch.get("published", 0)
        for node, value in islice(settled.items(), done, None):
            ctx.write((namespace, node), int(value))
        ctx.scratch["published"] = len(settled)

    result = runtime.round(items.tolist(), worker, setup=setup, tag=tag)
    return result.store.read_namespace(namespace)


def query_capacity(query_cap: int | None, size: int, epsilon: float) -> int:
    """Per-item recursive-call capacity of one iteration: ``query_cap``,
    or max(8, ⌈size^ε⌉), the paper's n^ε. Raises ValueError below 1 — a
    query that may make no call settles nothing."""
    if query_cap is None:
        return max(8, int(math.ceil(float(size) ** epsilon)))
    if query_cap < 1:
        raise ValueError(f"query_cap must be at least 1, got {query_cap}")
    return int(query_cap)


def settle(name: str, values: np.ndarray,
           step: Callable[[np.ndarray, int], Any], cap: int,
           max_iterations: int) -> int:
    """Algorithm 4's loop: while some entry of ``values`` is ``UNKNOWN``,
    run ``step(unknown ids, iteration)`` (1-based), which settles what it
    can into ``values``. Returns the number of iterations."""
    iterations = 0
    while True:
        unknown = np.flatnonzero(values == UNKNOWN).astype(np.int64)
        if unknown.size == 0:
            return iterations
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                f"{name} did not settle within {max_iterations} iterations: "
                f"{unknown.size} left at query_cap={cap}"
            )
        step(unknown, iterations)
