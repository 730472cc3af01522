"""Tests for the shared encoding interface and consistency wiring."""

import pytest

from repro.constraints.mapping import build_mapping
from repro.encoding import ApproximatePathEncoder
from repro.encoding.base import RoutingEncoding
from repro.library import default_catalog
from repro.milp import HighsSolver, Model
from repro.milp.solution import Solution, SolveStatus
from repro.network import RouteRequirement, small_grid_template


class TestRoutingEncoding:
    def test_empty_encoding_decodes_nothing(self):
        encoding = RoutingEncoding(edge_active={})
        solution = Solution(status=SolveStatus.OPTIMAL, objective=0.0)
        assert encoding.decode(solution) == []
        assert encoding.encoded_edges == []


class TestTopologyConsistency:
    @pytest.fixture()
    def solved(self):
        grid = small_grid_template(nx=4, ny=3)
        routes = [
            RouteRequirement(s, grid.sink_id, replicas=1, disjoint=False)
            for s in grid.sensor_ids
        ]
        model = Model()
        mapping = build_mapping(model, grid.template, default_catalog())
        encoding = ApproximatePathEncoder(k_star=5).encode(
            model, grid.template, routes, mapping.node_used
        )
        model.minimize(mapping.cost_expr())
        solution = HighsSolver().solve(model)
        assert solution.status.has_solution
        return grid, mapping, encoding, solution

    def test_edge_rows_follow_the_use_count(self):
        grid = small_grid_template(nx=4, ny=3)
        routes = [
            RouteRequirement(s, grid.sink_id, replicas=1, disjoint=False)
            for s in grid.sensor_ids
        ]
        model = Model()
        mapping = build_mapping(model, grid.template, default_catalog())
        encoding = ApproximatePathEncoder(k_star=5).encode(
            model, grid.template, routes, mapping.node_used
        )
        names = {row.name for row in model.constraints}
        counts = {len(uses) for uses in encoding.edge_uses.values()}
        assert 1 in counts and max(counts) > 1
        for (u, v), uses in encoding.edge_uses.items():
            tag = f"e[{u},{v}]"
            if len(uses) == 1:
                # One equality instead of two rows sharing a left-hand side.
                assert f"{tag}:eq_use" in names
                assert f"{tag}:ge_use0" not in names
                assert f"{tag}:le_uses" not in names
            else:
                assert f"{tag}:eq_use" not in names
                assert f"{tag}:le_uses" in names
                assert {f"{tag}:ge_use{k}" for k in range(len(uses))} <= names

    def test_active_edge_implies_used_endpoints(self, solved):
        grid, mapping, encoding, solution = solved
        for (u, v), var in encoding.edge_active.items():
            if solution.value_bool(var):
                assert solution.value_bool(mapping.node_used[u])
                assert solution.value_bool(mapping.node_used[v])

    def test_unused_optional_nodes_have_no_active_edges(self, solved):
        grid, mapping, encoding, solution = solved
        for node in grid.template.nodes:
            if node.fixed or solution.value_bool(mapping.node_used[node.id]):
                continue
            for (u, v), var in encoding.edge_active.items():
                if node.id in (u, v):
                    assert not solution.value_bool(var)

    def test_every_active_edge_has_a_use(self, solved):
        grid, mapping, encoding, solution = solved
        for edge, var in encoding.edge_active.items():
            if solution.value_bool(var):
                uses = encoding.edge_uses.get(edge, [])
                assert any(solution.value_bool(u) for u in uses)

    def test_no_free_floating_optional_nodes(self, solved):
        """Optional nodes marked used must have an incident active edge."""
        grid, mapping, encoding, solution = solved
        for node in grid.template.nodes:
            if node.fixed:
                continue
            if not solution.value_bool(mapping.node_used[node.id]):
                continue
            incident = [
                var for (u, v), var in encoding.edge_active.items()
                if node.id in (u, v)
            ]
            assert any(solution.value_bool(v) for v in incident)
