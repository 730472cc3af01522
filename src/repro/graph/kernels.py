"""Array-backed graph kernels: CSR compilation, Dijkstra, Lawler-Yen.

The dict-of-dicts :class:`~repro.graph.digraph.DiGraph` is the right
structure for *building* templates (arbitrary hashable nodes, cheap edge
masking), but it is a poor substrate for the paper's hot loop: Algorithm 1
runs one Dijkstra per spur node per candidate path, and every hop of every
relaxation pays dict hashing on node objects.  This module compiles a
DiGraph into a compressed-sparse-row (CSR) view — an int-interning table
plus flat numpy ``indptr``/``indices``/``weights`` arrays — and runs the
two kernels Algorithm 1 needs directly on it:

* **Dijkstra** with flat ``dist``/``prev`` arrays, integer heap
  entries, vectorized per-row relaxation, and banned nodes/edges
  expressed as boolean masks (no graph copies, no per-edge set lookups).
* **Yen's K-shortest paths with Lawler's optimization**: spurs start at
  the previous path's own spur index (earlier prefixes were exhausted when
  its parent was processed), root-path prefix costs are carried
  incrementally, banned spur continuations come from a prefix-indexed
  lookup table instead of rescanning every accepted/queued path, and heap
  ties break on a monotonic counter.  Every spur search is an A* search
  toward the target (below).

The compiled view is cached on the DiGraph keyed by its structural
version, which edge *masking* does not bump — so Algorithm 1's
disconnect-and-rerun rounds, and the runtime's copy-then-mask trial
pattern, reuse a single compilation.  Masked edges are folded into each
query's banned-edge mask instead.

Goal-directed spurs.  Yen's searches all end at one target, so
:meth:`CSRGraph.potential` computes ``h[v]``, the exact distance from
``v`` to the target on the view with no masks and no bans, once per
view and target (one reverse Dijkstra; ``DiGraph.copy`` shares the view,
so every disconnection round and every route to the same sink reuses
it).  Masks and bans only remove edges, so ``h`` never overestimates the
distance of any query on the view: it is admissible, and consistent,
``h(u) = min_v fl(w(u, v) + h(v)) <= fl(w(u, v) + h(v))`` for every
edge.  Nodes with ``h = inf`` cannot reach the target and are never
pushed.  The search carries the same left-to-right sums of edge
weights as plain Dijkstra, so a returned cost is the float sum of its
path.

Behavioral contract: given distinct path costs, these kernels return
exactly what the reference implementations in :mod:`repro.graph.dijkstra`
and :mod:`repro.graph.yen` return (the property suite in
``tests/test_graph_kernels.py`` cross-checks this, bans and all).  Under
cost ties the choice among equal-cost paths may differ, but not their
costs.  The A* heap orders entries by ``(g + h, g, node)``, which
treats costs that differ only by the rounding of ``g + h`` as ties, so
such costs match the reference's up to that rounding.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Hashable, Iterable

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.dijkstra import NoPathError

Node = Hashable
Edge = tuple[Node, Node]


class CSRGraph:
    """An immutable compressed-sparse-row view of a :class:`DiGraph`.

    ``nodes[i]`` is the original node object interned at index ``i``;
    ``index[node]`` inverts that.  Out-edges of node ``i`` occupy slots
    ``indptr[i]:indptr[i+1]`` of ``indices`` (successor indices) and
    ``weights``.  ``edge_slot`` maps an ``(u_index, v_index)`` pair to its
    slot, which is how banned-edge boolean masks are addressed.

    Masked edges of the source graph are *included* (with their true
    weights): masking is a per-query concern, served by
    :meth:`edge_mask`, so mask flips never invalidate the compilation.

    ``edge_slot`` and the per-target :meth:`potential` arrays are derived
    on first use and kept; two threads racing on a first use compute the
    same value, so the view stays safe to share.
    """

    __slots__ = (
        "nodes", "index", "indptr", "indptr_list", "indices", "weights",
        "_edge_slot", "_potentials",
    )

    def __init__(
        self,
        nodes: list[Node],
        index: dict[Node, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        self.nodes = nodes
        self.index = index
        self.indptr = indptr
        #: Plain-int mirror of ``indptr``: the Dijkstra pop loop reads two
        #: row bounds per pop, and list indexing beats numpy scalar access.
        self.indptr_list = indptr.tolist()
        self.indices = indices
        self.weights = weights
        self._edge_slot: dict[tuple[int, int], int] | None = None
        self._potentials: dict[int, np.ndarray] = {}

    @classmethod
    def from_digraph(cls, graph: DiGraph) -> CSRGraph:
        """Compile ``graph`` into CSR form (nodes in insertion order)."""
        nodes = list(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = list(graph.edges())
        m = len(edges)
        tails = np.fromiter((index[u] for u, _v, _w in edges), np.int64, m)
        heads = np.fromiter((index[v] for _u, v, _w in edges), np.int64, m)
        weights = np.fromiter((w for _u, _v, w in edges), np.float64, m)
        return cls._from_edges(nodes, index, tails, heads, weights)

    @classmethod
    def _from_edges(
        cls,
        nodes: list[Node],
        index: dict[Node, int],
        tails: np.ndarray,
        heads: np.ndarray,
        weights: np.ndarray,
    ) -> CSRGraph:
        """The view of index-space edges; each row keeps the edges' order."""
        order = np.argsort(tails, kind="stable")
        tails, heads, weights = tails[order], heads[order], weights[order]
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=len(nodes)), out=indptr[1:])
        return cls(nodes, index, indptr, heads, weights)

    @property
    def edge_slot(self) -> dict[tuple[int, int], int]:
        """The ``(u_index, v_index) -> slot`` map, built on first use.

        Views that only ever answer distance queries (such as
        :meth:`reversed`, which :meth:`potential` reads) never pay for
        the dict.
        """
        if self._edge_slot is None:
            self._edge_slot = dict(zip(
                zip(self._tails().tolist(), self.indices.tolist()),
                range(self.edge_count),
            ))
        return self._edge_slot

    @property
    def node_count(self) -> int:
        """Number of interned nodes."""
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Number of edge slots (masked edges of the source included)."""
        return int(self.indices.shape[0])

    def node_mask(self, banned: Iterable[Node]) -> np.ndarray | None:
        """A boolean node mask from a banned-node collection (None if empty).

        Nodes absent from the graph are ignored, matching the reference
        implementation's behaviour of never visiting them anyway.
        """
        mask: np.ndarray | None = None
        for node in banned:
            i = self.index.get(node)
            if i is None:
                continue
            if mask is None:
                mask = np.zeros(self.node_count, dtype=bool)
            mask[i] = True
        return mask

    def edge_mask(self, *banned_sets: Iterable[Edge] | None) -> np.ndarray | None:
        """A boolean edge-slot mask from banned-edge collections.

        Returns ``None`` when nothing maps to an existing edge.  Edges not
        present in the graph are ignored.
        """
        mask: np.ndarray | None = None
        for edges in banned_sets:
            if not edges:
                continue
            for u, v in edges:
                ui = self.index.get(u)
                vi = self.index.get(v)
                if ui is None or vi is None:
                    continue
                slot = self.edge_slot.get((ui, vi))
                if slot is None:
                    continue
                if mask is None:
                    mask = np.zeros(self.edge_count, dtype=bool)
                mask[slot] = True
        return mask

    def to_nodes(self, idx_path: list[int]) -> list[Node]:
        """Translate an index path back to original node objects."""
        nodes = self.nodes
        return [nodes[i] for i in idx_path]

    def _tails(self) -> np.ndarray:
        """The tail index of every edge slot."""
        return np.repeat(
            np.arange(self.node_count, dtype=np.int64), np.diff(self.indptr)
        )

    def reversed(self) -> CSRGraph:
        """The view of the reverse graph: every edge flipped, same nodes.

        Node interning is shared with this view, so index-space results
        of the two views line up.
        """
        return CSRGraph._from_edges(
            self.nodes, self.index, self.indices, self._tails(), self.weights,
        )

    def potential(self, dst: int) -> np.ndarray:
        """``h[v]``: the distance from ``v`` to ``dst``, by index.

        Computed on this view with no masks and no bans (one Dijkstra on
        the reverse view) and cached per target.  Masks and bans only
        remove edges, so ``h`` lower-bounds the distance to ``dst`` of
        every query on this view; ``inf`` marks nodes that cannot reach
        ``dst`` at all.
        """
        h = self._potentials.get(dst)
        if h is None:
            h, _prev = _run_dijkstra(self.reversed(), dst, -1, None, None)
            self._potentials[dst] = h
        return h


def csr_of(graph: DiGraph) -> CSRGraph:
    """The compiled CSR view of ``graph``, cached on its structural version.

    Mask/unmask operations do not invalidate the cache (they do not bump
    the structural version); adding/removing edges or nodes does.
    ``DiGraph.copy`` shares the cache with the original.
    """
    cached = graph._csr_cache
    if cached is not None and cached[0] == graph._version:
        return cached[1]  # type: ignore[return-value]
    csr = CSRGraph.from_digraph(graph)
    graph._csr_cache = (graph._version, csr)
    return csr


def _run_dijkstra(
    csr: CSRGraph,
    src: int,
    dst: int,
    banned_nodes: np.ndarray | None,
    banned_edges: np.ndarray | None,
    potential: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Array Dijkstra (A* under a ``potential``) from ``src``.

    Early-exits once ``dst`` is popped; ``dst`` may be ``-1`` for a full
    single-source run.  Returns ``(dist, prev)`` index-space arrays.

    ``potential`` is :meth:`CSRGraph.potential` of ``dst`` (``None``
    means zero, plain Dijkstra).  The heap is ordered by ``(g + h[v],
    g, v)``, where ``g`` is the same left-to-right sum of edge weights
    plain Dijkstra carries, so a returned cost is the float sum of its
    path's weights.  Nodes with ``h = inf`` cannot reach ``dst`` and get
    ``dist = -inf`` up front, like banned nodes: nothing beats ``-inf``,
    so they are never relaxed into and never pushed.

    Two classic Dijkstra structures are deliberately absent:

    * No decrease-key — superseded heap entries are pruned lazily on pop
      via ``g > dist[u]`` (a node's pushes carry strictly decreasing
      distances, so only its best entry survives the guard).
    * No visited array — relaxation is the strict improvement test
      ``nd < dist[v]``.  Under a zero or consistent potential a popped
      node is final and that test never passes for it again; should
      rounding in ``g + h`` ever pop a node before its best ``g``, the
      improvement re-pushes it and it is expanded again.
    """
    n = csr.node_count
    dist = np.full(n, np.inf)
    prev = np.full(n, -1, dtype=np.int64)
    if potential is not None:
        dist[np.isinf(potential)] = -np.inf
    if banned_nodes is not None:
        dist[banned_nodes] = -np.inf
    dist[src] = 0.0
    indptr, indices, weights = csr.indptr_list, csr.indices, csr.weights
    heap: list[tuple[float, float, int]] = [(0.0, 0.0, src)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        _f, g, u = pop(heap)
        if g > dist[u]:
            continue  # a stale (superseded) entry
        if u == dst:
            break
        lo, hi = indptr[u], indptr[u + 1]
        if lo == hi:
            continue
        nbrs = indices[lo:hi]
        nd = g + weights[lo:hi]
        better = nd < dist[nbrs]
        if banned_edges is not None:
            better &= ~banned_edges[lo:hi]
        vs = nbrs[better]
        if vs.size == 0:
            continue
        nds = nd[better]
        dist[vs] = nds
        prev[vs] = u
        fs = nds if potential is None else nds + potential[vs]
        for f, val, v in zip(fs.tolist(), nds.tolist(), vs.tolist()):
            push(heap, (f, val, v))
    return dist, prev


def csr_distances(csr: CSRGraph, source: Node) -> np.ndarray:
    """Distances from ``source`` to every node, in ``csr``'s index order.

    The array counterpart of :func:`repro.graph.dijkstra.shortest_path_tree`
    (``inf`` marks unreachable nodes instead of a missing key); a full
    single-source run with no bans.  Raises :class:`KeyError` when
    ``source`` is not a node.
    """
    try:
        src = csr.index[source]
    except KeyError:
        raise KeyError(f"source {source!r} not in graph") from None
    dist, _prev = _run_dijkstra(csr, src, -1, None, None)
    return dist


def _walk_back(prev: np.ndarray, src: int, dst: int) -> list[int]:
    path = [dst]
    while path[-1] != src:
        path.append(int(prev[path[-1]]))
    path.reverse()
    return path


def csr_shortest_path(
    graph: DiGraph,
    source: Node,
    target: Node,
    banned_nodes: frozenset[Node] | set[Node] | None = None,
    banned_edges: frozenset[Edge] | set[Edge] | None = None,
) -> tuple[list[Node], float]:
    """CSR-backed :func:`repro.graph.dijkstra.shortest_path` equivalent.

    Same contract: ``(path, cost)`` on success, :class:`NoPathError` when
    the target is unreachable under the restrictions, :class:`KeyError`
    when an endpoint is not a graph node.  Masked edges of ``graph`` are
    honoured via the query's banned-edge mask.
    """
    csr = csr_of(graph)
    try:
        src = csr.index[source]
    except KeyError:
        raise KeyError(f"source {source!r} not in graph") from None
    try:
        dst = csr.index[target]
    except KeyError:
        raise KeyError(f"target {target!r} not in graph") from None
    banned_nodes = banned_nodes or frozenset()
    if source in banned_nodes or target in banned_nodes:
        raise NoPathError(f"endpoint banned: {source!r} -> {target!r}")
    if src == dst:
        return [source], 0.0
    node_mask = csr.node_mask(banned_nodes)
    edge_mask = csr.edge_mask(graph.masked_edges, banned_edges)
    dist, prev = _run_dijkstra(csr, src, dst, node_mask, edge_mask)
    if not np.isfinite(dist[dst]):
        raise NoPathError(f"no path {source!r} -> {target!r}")
    return csr.to_nodes(_walk_back(prev, src, dst)), float(dist[dst])


def csr_k_shortest_paths(
    graph: DiGraph, source: Node, target: Node, k: int
) -> list[tuple[list[Node], float]]:
    """CSR-backed, Lawler-optimized Yen K-shortest loopless paths.

    Same contract as :func:`repro.graph.yen.k_shortest_paths`.  The whole
    search runs in index space; node objects are materialized once at the
    end.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    csr = csr_of(graph)
    try:
        src = csr.index[source]
    except KeyError:
        raise KeyError(f"source {source!r} not in graph") from None
    try:
        dst = csr.index[target]
    except KeyError:
        raise KeyError(f"target {target!r} not in graph") from None

    if src == dst:
        return [([source], 0.0)]
    base_mask = csr.edge_mask(graph.masked_edges)
    potential = csr.potential(dst)
    dist, prev = _run_dijkstra(csr, src, dst, None, base_mask, potential)
    if not np.isfinite(dist[dst]):
        return []
    first = _walk_back(prev, src, dst)

    n, m = csr.node_count, csr.edge_count
    weights, edge_slot = csr.weights, csr.edge_slot
    # Scratch masks, reused (and reset) across every spur query.
    edge_scratch = base_mask.copy() if base_mask is not None else np.zeros(m, dtype=bool)
    node_scratch = np.zeros(n, dtype=bool)

    # accepted[j] = (index path, cost); spur_index[j] = where it deviated
    # from its parent (Lawler's resume point, 0 for the first path).
    accepted: list[tuple[list[int], float]] = [(first, float(dist[dst]))]
    spur_index: list[int] = [0]
    seen: set[tuple[int, ...]] = {tuple(first)}
    counter = itertools.count()
    # Heap of (cost, tiebreak, index path, spur index of that path).
    candidates: list[tuple[float, int, list[int], int]] = []
    # prefix -> edge slots continuing any registered path past that prefix.
    # Registering both accepted and queued candidate paths mirrors the
    # reference implementation's per-spur scans in O(1) lookups.
    prefix_bans: dict[tuple[int, ...], list[int]] = {}

    def register(path: list[int]) -> None:
        for i in range(len(path) - 1):
            slot = edge_slot[(path[i], path[i + 1])]
            prefix_bans.setdefault(tuple(path[: i + 1]), []).append(slot)

    register(first)

    while len(accepted) < k:
        prev_path, _prev_cost = accepted[-1]
        start = spur_index[-1]
        # Incremental prefix costs: prefix_cost == weight(prev_path[:i+1]).
        prefix_cost = 0.0
        for j in range(start):
            prefix_cost += weights[edge_slot[(prev_path[j], prev_path[j + 1])]]
        for u in prev_path[:start]:
            node_scratch[u] = True
        for i in range(start, len(prev_path) - 1):
            if i > start:
                node_scratch[prev_path[i - 1]] = True
            banned_slots = prefix_bans.get(tuple(prev_path[: i + 1]), ())
            for slot in banned_slots:
                edge_scratch[slot] = True
            dist, prev = _run_dijkstra(
                csr, prev_path[i], dst, node_scratch, edge_scratch, potential
            )
            for slot in banned_slots:
                edge_scratch[slot] = False
            if base_mask is not None:
                # Restore base masks that overlapped this spur's bans.
                np.logical_or(edge_scratch, base_mask, out=edge_scratch)
            if np.isfinite(dist[dst]):
                spur_path = _walk_back(prev, prev_path[i], dst)
                total = prev_path[:i] + spur_path
                key = tuple(total)
                if key not in seen:
                    seen.add(key)
                    register(total)
                    heapq.heappush(
                        candidates,
                        (
                            prefix_cost + float(dist[dst]),
                            next(counter),
                            total,
                            i,
                        ),
                    )
            prefix_cost += weights[edge_slot[(prev_path[i], prev_path[i + 1])]]
        node_scratch[:] = False
        if not candidates:
            break
        cost, _, path, si = heapq.heappop(candidates)
        accepted.append((path, cost))
        spur_index.append(si)

    return [(csr.to_nodes(path), cost) for path, cost in accepted]
