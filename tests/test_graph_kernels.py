"""CSR graph kernels: structure, caching, and parity with the reference.

The contract under test: on graphs with distinct path costs, the
array-backed kernels (:mod:`repro.graph.kernels`) return *exactly* the
same paths and (to float tolerance) the same costs as the pure-Python
reference implementations.  The property suites below use continuous
random weights so cost ties are measure-zero and exact path-sequence
comparison is meaningful.  Under ties (the integer-weight suites) only
the cost sequence is fixed, and on the graphs Algorithm 1 queries the
goal-directed Yen must return exactly what the plain-Dijkstra Yen did.
"""

import dataclasses
import heapq
import itertools
import random

import numpy as np
import pytest

from repro.graph import (
    BACKEND_ENV_VAR,
    GRAPH_BACKENDS,
    DiGraph,
    NoPathError,
    k_shortest_paths,
    resolve_backend,
    shortest_path,
)
from repro.graph.dijkstra import shortest_path as ref_shortest_path
from repro.graph.dijkstra import shortest_path_tree
from repro.graph.kernels import (
    CSRGraph,
    _run_dijkstra,
    csr_distances,
    csr_k_shortest_paths,
    csr_of,
    csr_shortest_path,
)
from repro.graph.yen import k_shortest_paths as ref_k_shortest_paths


def diamond():
    """s -> {a, b} -> t with a cheap top route."""
    g = DiGraph()
    g.add_edge("s", "a", 1.0)
    g.add_edge("a", "t", 1.0)
    g.add_edge("s", "b", 2.0)
    g.add_edge("b", "t", 2.0)
    return g


def random_graph(seed: int, n_lo: int = 4, n_hi: int = 16) -> tuple[DiGraph, int]:
    """A random digraph with continuous weights (ties measure-zero)."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    g = DiGraph()
    for i in range(n):
        g.add_node(i)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.35:
                g.add_edge(u, v, rng.random() * 10.0)
    return g, n


class TestCSRStructure:
    def test_interning_follows_insertion_order(self):
        g = diamond()
        csr = CSRGraph.from_digraph(g)
        assert csr.nodes == ["s", "a", "t", "b"]
        assert csr.index == {"s": 0, "a": 1, "t": 2, "b": 3}
        assert csr.node_count == 4
        assert csr.edge_count == 4

    def test_rows_partition_edges(self):
        g = diamond()
        csr = CSRGraph.from_digraph(g)
        edges = set()
        for u in range(csr.node_count):
            for slot in range(csr.indptr[u], csr.indptr[u + 1]):
                v = int(csr.indices[slot])
                edges.add((csr.nodes[u], csr.nodes[v], float(csr.weights[slot])))
                assert csr.edge_slot[(u, v)] == slot
        assert edges == set(g.edges())

    def test_masked_edges_are_compiled_with_true_weights(self):
        g = diamond()
        g.mask_edge("s", "a")
        csr = CSRGraph.from_digraph(g)
        slot = csr.edge_slot[(csr.index["s"], csr.index["a"])]
        assert csr.weights[slot] == 1.0

    def test_node_mask_ignores_absent_nodes(self):
        csr = CSRGraph.from_digraph(diamond())
        assert csr.node_mask([]) is None
        assert csr.node_mask(["nope"]) is None
        mask = csr.node_mask(["a", "nope"])
        assert mask is not None and mask[csr.index["a"]]
        assert mask.sum() == 1

    def test_edge_mask_ignores_absent_edges(self):
        csr = CSRGraph.from_digraph(diamond())
        assert csr.edge_mask(None, frozenset()) is None
        assert csr.edge_mask({("t", "s")}) is None  # not an edge
        mask = csr.edge_mask({("s", "a"), ("t", "s")})
        assert mask is not None and mask.sum() == 1


class TestCSRCache:
    def test_repeated_compilation_is_cached(self):
        g = diamond()
        assert csr_of(g) is csr_of(g)

    def test_masking_does_not_invalidate(self):
        g = diamond()
        before = csr_of(g)
        g.mask_edge("s", "a")
        assert csr_of(g) is before
        g.clear_masks()
        assert csr_of(g) is before

    def test_structural_mutation_invalidates(self):
        g = diamond()
        before = csr_of(g)
        g.add_edge("a", "b", 9.0)
        assert csr_of(g) is not before

    def test_weight_change_invalidates(self):
        g = diamond()
        before = csr_of(g)
        g.set_weight("s", "a", 5.0)
        after = csr_of(g)
        assert after is not before
        slot = after.edge_slot[(after.index["s"], after.index["a"])]
        assert after.weights[slot] == 5.0

    def test_copy_shares_the_compiled_view(self):
        g = diamond()
        view = csr_of(g)
        assert csr_of(g.copy()) is view

    def test_copy_diverges_after_mutation(self):
        g = diamond()
        view = csr_of(g)
        h = g.copy()
        h.add_edge("a", "b", 1.0)
        assert csr_of(h) is not view
        assert csr_of(g) is view  # the original is untouched


class TestCSRDijkstraBehaviour:
    """The behaviour pins of tests/test_graph_dijkstra.py, on the kernel."""

    def test_min_path_on_diamond(self):
        assert csr_shortest_path(diamond(), "s", "t") == (["s", "a", "t"], 2.0)

    def test_source_equals_target(self):
        assert csr_shortest_path(diamond(), "s", "s") == (["s"], 0.0)

    def test_missing_endpoints_raise_keyerror(self):
        with pytest.raises(KeyError):
            csr_shortest_path(diamond(), "nope", "t")
        with pytest.raises(KeyError):
            csr_shortest_path(diamond(), "s", "nope")

    def test_banned_endpoint_raises(self):
        with pytest.raises(NoPathError):
            csr_shortest_path(diamond(), "s", "t", banned_nodes={"t"})

    def test_banned_node_reroutes(self):
        path, cost = csr_shortest_path(diamond(), "s", "t", banned_nodes={"a"})
        assert path == ["s", "b", "t"] and cost == 4.0

    def test_banned_edge_reroutes(self):
        path, _ = csr_shortest_path(
            diamond(), "s", "t", banned_edges={("s", "a")}
        )
        assert path == ["s", "b", "t"]

    def test_masked_edges_ignored(self):
        g = diamond()
        g.mask_edge("a", "t")
        path, _ = csr_shortest_path(g, "s", "t")
        assert path == ["s", "b", "t"]

    def test_unreachable_raises(self):
        g = diamond()
        g.add_node("island")
        with pytest.raises(NoPathError):
            csr_shortest_path(g, "s", "island")

    def test_zero_weight_edges(self):
        g = DiGraph()
        g.add_edge("s", "a", 0.0)
        g.add_edge("a", "t", 0.0)
        assert csr_shortest_path(g, "s", "t") == (["s", "a", "t"], 0.0)


class TestCSRYenBehaviour:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            csr_k_shortest_paths(diamond(), "s", "t", 0)

    def test_unreachable_returns_empty(self):
        g = diamond()
        g.add_node("island")
        assert csr_k_shortest_paths(g, "s", "island", 3) == []

    def test_source_equals_target(self):
        assert csr_k_shortest_paths(diamond(), "s", "s", 3) == [(["s"], 0.0)]

    def test_costs_nondecreasing_and_paths_simple(self):
        g, n = random_graph(99, 8, 12)
        paths = csr_k_shortest_paths(g, 0, n - 1, 12)
        costs = [c for _, c in paths]
        assert costs == sorted(costs)
        keys = {tuple(p) for p, _ in paths}
        assert len(keys) == len(paths)
        for p, _ in paths:
            assert len(set(p)) == len(p)

    def test_masked_edges_respected(self):
        g = diamond()
        g.mask_edge("s", "a")
        paths = csr_k_shortest_paths(g, "s", "t", 4)
        assert [p for p, _ in paths] == [["s", "b", "t"]]


class TestBackendDispatch:
    def test_backend_names(self):
        assert GRAPH_BACKENDS == ("auto", "csr", "reference")

    def test_auto_resolves_to_csr_with_numpy(self):
        assert resolve_backend("auto") == "csr"
        assert resolve_backend("csr") == "csr"
        assert resolve_backend("reference") == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("gpu")
        with pytest.raises(ValueError):
            shortest_path(diamond(), "s", "t", backend="gpu")

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert resolve_backend() == "reference"
        monkeypatch.setenv(BACKEND_ENV_VAR, "csr")
        assert resolve_backend() == "csr"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert resolve_backend("csr") == "csr"

    def test_reference_backend_is_the_reference_functions(self):
        g = diamond()
        assert shortest_path(g, "s", "t", backend="reference") == \
            ref_shortest_path(g, "s", "t")
        assert k_shortest_paths(g, "s", "t", 4, backend="reference") == \
            ref_k_shortest_paths(g, "s", "t", 4)

    def test_csr_backend_is_the_kernel(self):
        g = diamond()
        assert shortest_path(g, "s", "t", backend="csr") == \
            csr_shortest_path(g, "s", "t")


class TestDijkstraParity:
    """CSR vs reference on random graphs: identical outcomes."""

    @pytest.mark.parametrize("seed", range(40))
    def test_plain_queries_agree(self, seed):
        g, n = random_graph(seed)
        for target in (n - 1, n // 2):
            try:
                ref = ref_shortest_path(g, 0, target)
            except NoPathError:
                with pytest.raises(NoPathError):
                    csr_shortest_path(g, 0, target)
                continue
            got = csr_shortest_path(g, 0, target)
            assert got[0] == ref[0]
            assert got[1] == pytest.approx(ref[1], abs=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_banned_and_masked_queries_agree(self, seed):
        g, n = random_graph(seed, 6, 14)
        rng = random.Random(seed + 1000)
        edges = [(u, v) for u, v, _ in g.edges()]
        for u, v in rng.sample(edges, len(edges) // 5):
            g.mask_edge(u, v)
        banned_nodes = set(rng.sample(range(1, n - 1), min(2, n - 2)))
        banned_edges = set(rng.sample(edges, min(3, len(edges))))
        try:
            ref = ref_shortest_path(
                g, 0, n - 1, banned_nodes=banned_nodes, banned_edges=banned_edges
            )
        except NoPathError:
            with pytest.raises(NoPathError):
                csr_shortest_path(
                    g, 0, n - 1,
                    banned_nodes=banned_nodes, banned_edges=banned_edges,
                )
            return
        got = csr_shortest_path(
            g, 0, n - 1, banned_nodes=banned_nodes, banned_edges=banned_edges
        )
        assert got[0] == ref[0]
        assert got[1] == pytest.approx(ref[1], abs=1e-9)


class TestDistanceParity:
    """Single-source runs equal the reference distance map, bit for bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_forward_distances(self, seed):
        g, n = random_graph(seed)
        csr = csr_of(g)
        for source in range(n):
            ref = shortest_path_tree(g, source)
            dist = csr_distances(csr, source)
            for node in range(n):
                assert dist[csr.index[node]] == ref.get(node, np.inf)

    @pytest.mark.parametrize("seed", range(20))
    def test_reversed_view_matches_the_reverse_graph(self, seed):
        g, n = random_graph(seed)
        rev = DiGraph()
        for node in g.nodes():
            rev.add_node(node)
        for u, v, w in g.edges():
            rev.add_edge(v, u, w)
        view = csr_of(g).reversed()
        assert view.edge_count == g.edge_count
        for u, v, w in g.edges():
            slot = view.edge_slot[(view.index[v], view.index[u])]
            assert view.weights[slot] == w
        for target in range(n):
            ref = shortest_path_tree(rev, target)
            dist = csr_distances(view, target)
            for node in range(n):
                assert dist[view.index[node]] == ref.get(node, np.inf)

    def test_unknown_source_is_a_key_error(self):
        with pytest.raises(KeyError):
            csr_distances(csr_of(diamond()), "nowhere")


class TestYenParity:
    """CSR Lawler-Yen vs reference Yen: identical path sets and order."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_path_sequences_agree(self, seed, k):
        g, n = random_graph(seed)
        ref = ref_k_shortest_paths(g, 0, n - 1, k)
        got = csr_k_shortest_paths(g, 0, n - 1, k)
        assert [p for p, _ in got] == [p for p, _ in ref]
        assert [c for _, c in got] == pytest.approx(
            [c for _, c in ref], abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_masked_graphs_agree(self, seed):
        g, n = random_graph(seed, 6, 14)
        rng = random.Random(seed + 2000)
        edges = [(u, v) for u, v, _ in g.edges()]
        for u, v in rng.sample(edges, len(edges) // 4):
            g.mask_edge(u, v)
        ref = ref_k_shortest_paths(g, 0, n - 1, 6)
        got = csr_k_shortest_paths(g, 0, n - 1, 6)
        assert [p for p, _ in got] == [p for p, _ in ref]

    def test_exhausts_like_the_reference(self):
        g = DiGraph()
        g.add_edge("s", "a", 1.0)
        g.add_edge("a", "t", 1.5)
        g.add_edge("s", "t", 3.1)
        ref = ref_k_shortest_paths(g, "s", "t", 50)
        got = csr_k_shortest_paths(g, "s", "t", 50)
        assert [p for p, _ in got] == [p for p, _ in ref]
        assert [c for _, c in got] == pytest.approx([c for _, c in ref])
        assert len(got) == 2


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @st.composite
    def weighted_digraphs(draw):
        n = draw(st.integers(min_value=3, max_value=10))
        seed = draw(st.integers(min_value=0, max_value=2**31))
        rng = random.Random(seed)
        g = DiGraph()
        for i in range(n):
            g.add_node(i)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    g.add_edge(u, v, rng.random() * 5.0)
        return g, n

    class TestHypothesisParity:
        @given(weighted_digraphs())
        @settings(max_examples=60, deadline=None)
        def test_dijkstra_matches_reference(self, graph_n):
            g, n = graph_n
            try:
                ref = ref_shortest_path(g, 0, n - 1)
            except NoPathError:
                with pytest.raises(NoPathError):
                    csr_shortest_path(g, 0, n - 1)
                return
            got = csr_shortest_path(g, 0, n - 1)
            assert got[0] == ref[0]
            assert got[1] == pytest.approx(ref[1], abs=1e-9)

        @given(weighted_digraphs(), st.integers(min_value=1, max_value=8))
        @settings(max_examples=40, deadline=None)
        def test_yen_matches_reference(self, graph_n, k):
            g, n = graph_n
            ref = ref_k_shortest_paths(g, 0, n - 1, k)
            got = csr_k_shortest_paths(g, 0, n - 1, k)
            assert [p for p, _ in got] == [p for p, _ in ref]
            assert [c for _, c in got] == pytest.approx(
                [c for _, c in ref], abs=1e-9
            )


class TestKernelScratchState:
    """The reused scratch masks must not leak between queries."""

    def test_repeated_yen_queries_are_stable(self):
        g, n = random_graph(5)
        first = csr_k_shortest_paths(g, 0, n - 1, 5)
        second = csr_k_shortest_paths(g, 0, n - 1, 5)
        assert first == second

    def test_yen_then_dijkstra_unaffected(self):
        g, n = random_graph(6)
        try:
            before = csr_shortest_path(g, 0, n - 1)
        except NoPathError:
            before = None
        csr_k_shortest_paths(g, 0, n - 1, 6)
        if before is None:
            with pytest.raises(NoPathError):
                csr_shortest_path(g, 0, n - 1)
        else:
            assert csr_shortest_path(g, 0, n - 1) == before

    def test_dispatcher_default_matches_forced_backends(self):
        g, n = random_graph(7)
        auto = k_shortest_paths(g, 0, n - 1, 5)
        forced = k_shortest_paths(g, 0, n - 1, 5, backend="csr")
        assert auto == forced
        assert np.isfinite([c for _, c in auto]).all()


def integer_graph(
    seed: int, n_lo: int = 5, n_hi: int = 12, dead_ends: int = 0,
) -> tuple[DiGraph, int]:
    """A random digraph with weights in 0..3: zero-weight edges and cost
    ties everywhere.  ``dead_ends`` extra nodes are entered from the
    main part but never lead back to it, so they cannot reach any
    target there."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    g = DiGraph()
    for i in range(n + dead_ends):
        g.add_node(i)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.4:
                g.add_edge(u, v, float(rng.randint(0, 3)))
    for d in range(n, n + dead_ends):
        for u in rng.sample(range(n), 3):
            g.add_edge(u, d, float(rng.randint(0, 3)))
        if d > n:
            g.add_edge(d, d - 1, float(rng.randint(0, 3)))
    return g, n


class TestPotential:
    """The A* potential: exact distances to the target, cached per view."""

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_reverse_distances_and_is_consistent(self, seed):
        g, n = integer_graph(seed, dead_ends=2)
        rev = DiGraph()
        for node in g.nodes():
            rev.add_node(node)
        for u, v, w in g.edges():
            rev.add_edge(v, u, w)
        csr = csr_of(g)
        for target in range(n):
            h = csr.potential(csr.index[target])
            ref = shortest_path_tree(rev, target)
            for node in g.nodes():
                assert h[csr.index[node]] == ref.get(node, np.inf)
            for u, v, w in g.edges():
                assert h[csr.index[u]] <= w + h[csr.index[v]]
        assert np.isinf(csr.potential(csr.index[0])[csr.index[n]])

    @pytest.mark.parametrize("seed", range(5))
    def test_search_never_enters_nodes_that_cannot_reach_the_target(
        self, seed
    ):
        g, n = integer_graph(seed, dead_ends=3)
        csr = csr_of(g)
        dst = csr.index[n - 1]
        h = csr.potential(dst)
        dead = [csr.index[d] for d in range(n, n + 3)]
        assert np.isinf(h[dead]).all()
        _dist, prev = _run_dijkstra(csr, csr.index[0], dst, None, None, h)
        assert (prev[dead] == -1).all()

    def test_cached_on_the_view_and_shared_by_copies(self):
        g = diamond()
        csr = csr_of(g)
        h = csr.potential(csr.index["t"])
        assert csr.potential(csr.index["t"]) is h
        g.mask_edge("s", "a")
        assert csr_of(g.copy()).potential(csr.index["t"]) is h


class TestGoalDirectedYen:
    """Under ties the choice among equal-cost paths is free, but the cost
    sequence of the K cheapest loopless paths is not."""

    def assert_valid_and_cost_equal(self, g, source, target, k):
        ref = ref_k_shortest_paths(g, source, target, k)
        got = csr_k_shortest_paths(g, source, target, k)
        assert [c for _, c in got] == [c for _, c in ref]
        assert len({tuple(p) for p, _ in got}) == len(got)
        for path, cost in got:
            assert path[0] == source and path[-1] == target
            assert len(set(path)) == len(path)
            # inf when the path uses a masked edge.
            assert cost == g.subgraph_weight(path)

    @pytest.mark.parametrize("seed", range(40))
    def test_integer_weights(self, seed):
        g, n = integer_graph(seed)
        self.assert_valid_and_cost_equal(g, 0, n - 1, 8)

    @pytest.mark.parametrize("seed", range(20))
    def test_dead_ends_and_masks(self, seed):
        g, n = integer_graph(seed, dead_ends=3)
        rng = random.Random(seed + 3000)
        edges = [(u, v) for u, v, _ in g.edges()]
        for u, v in rng.sample(edges, len(edges) // 6):
            g.mask_edge(u, v)
        self.assert_valid_and_cost_equal(g, 0, n - 1, 8)
        # A source that cannot reach the target at all.
        assert csr_k_shortest_paths(g, n + 2, n - 1, 3) == []


def dijkstra_oracle(csr, src, dst, banned_nodes, banned_edges):
    """The plain (potential-free) array Dijkstra the A* search replaced."""
    dist = np.full(csr.node_count, np.inf)
    prev = np.full(csr.node_count, -1, dtype=np.int64)
    if banned_nodes is not None:
        dist[banned_nodes] = -np.inf
    dist[src] = 0.0
    indptr, indices, weights = csr.indptr_list, csr.indices, csr.weights
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == dst:
            break
        lo, hi = indptr[u], indptr[u + 1]
        if lo == hi:
            continue
        nbrs = indices[lo:hi]
        nd = d + weights[lo:hi]
        better = nd < dist[nbrs]
        if banned_edges is not None:
            better &= ~banned_edges[lo:hi]
        vs = nbrs[better]
        if vs.size == 0:
            continue
        nds = nd[better]
        dist[vs] = nds
        prev[vs] = u
        for v, val in zip(vs.tolist(), nds.tolist()):
            heapq.heappush(heap, (val, v))
    return dist, prev


def walk_back(prev, src, dst):
    path = [dst]
    while path[-1] != src:
        path.append(int(prev[path[-1]]))
    path.reverse()
    return path


def yen_oracle(graph, source, target, k):
    """The Lawler-Yen kernel as it ran on plain Dijkstra spurs."""
    csr = csr_of(graph)
    src, dst = csr.index[source], csr.index[target]
    base_mask = csr.edge_mask(graph.masked_edges)
    if src == dst:
        return [([source], 0.0)]
    dist, prev = dijkstra_oracle(csr, src, dst, None, base_mask)
    if not np.isfinite(dist[dst]):
        return []
    first = walk_back(prev, src, dst)
    weights, edge_slot = csr.weights, csr.edge_slot
    edge_scratch = (
        base_mask.copy() if base_mask is not None
        else np.zeros(csr.edge_count, dtype=bool)
    )
    node_scratch = np.zeros(csr.node_count, dtype=bool)
    accepted = [(first, float(dist[dst]))]
    spur_index = [0]
    seen = {tuple(first)}
    counter = itertools.count()
    candidates = []
    prefix_bans = {}

    def register(path):
        for i in range(len(path) - 1):
            slot = edge_slot[(path[i], path[i + 1])]
            prefix_bans.setdefault(tuple(path[: i + 1]), []).append(slot)

    register(first)
    while len(accepted) < k:
        prev_path, _ = accepted[-1]
        start = spur_index[-1]
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
            dist, prev = dijkstra_oracle(
                csr, prev_path[i], dst, node_scratch, edge_scratch
            )
            for slot in banned_slots:
                edge_scratch[slot] = False
            if base_mask is not None:
                np.logical_or(edge_scratch, base_mask, out=edge_scratch)
            if np.isfinite(dist[dst]):
                total = prev_path[:i] + walk_back(prev, prev_path[i], dst)
                key = tuple(total)
                if key not in seen:
                    seen.add(key)
                    register(total)
                    heapq.heappush(candidates, (
                        prefix_cost + float(dist[dst]), next(counter),
                        total, i,
                    ))
            prefix_cost += weights[edge_slot[(prev_path[i], prev_path[i + 1])]]
        node_scratch[:] = False
        if not candidates:
            break
        cost, _, path, si = heapq.heappop(candidates)
        accepted.append((path, cost))
        spur_index.append(si)
    return [(csr.to_nodes(path), cost) for path, cost in accepted]


class TestAlgorithmOneGraphs:
    """On the path-loss graphs Algorithm 1 actually queries, disconnection
    masks and all, the goal-directed kernel returns exactly what the
    plain-Dijkstra kernel returned: same paths, same float costs."""

    @staticmethod
    def pools_match_oracle(graph, routes, k_star):
        from repro.encoding.approximate import generate_candidate_pool

        queries = 0

        def yen(g, source, target, k):
            nonlocal queries
            queries += 1
            got = csr_k_shortest_paths(g, source, target, k)
            assert got == yen_oracle(g, source, target, k)
            return got

        for req in routes:
            generate_candidate_pool(graph, req, k_star, yen=yen)
        return queries

    def test_synthetic_template(self):
        from repro import RequirementSet, synthetic_template
        from repro.runtime.cache import build_weighted_graph

        instance = synthetic_template(20, 5, seed=1)
        reqs = RequirementSet()
        for sensor in instance.sensor_ids:
            reqs.require_route(sensor, instance.sink_id, replicas=2,
                               disjoint=True)
        graph = build_weighted_graph(instance.template)
        assert self.pools_match_oracle(graph, reqs.routes, 10) > len(reqs.routes)

    def test_campus_what_if_graph(self):
        from repro.runtime.cache import build_weighted_graph
        from repro.scenarios import apply_edits, default_registry, parse_edit

        base = default_registry().generate(
            "campus:buildings_x=2,buildings_y=2:0"
        )
        edited, _ = apply_edits(
            base, (parse_edit("add-wall:30,5,30,25,brick"),)
        )
        graph = build_weighted_graph(edited.template)
        # Disjoint replicas force the disconnection rounds.
        routes = [
            dataclasses.replace(req, replicas=2, disjoint=True)
            for req in edited.requirements.routes
        ]
        assert self.pools_match_oracle(graph, routes, 12) > len(routes)
