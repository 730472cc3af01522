"""Tests for the incremental what-if re-solve: exactness and reuse."""

import pytest

from repro.runtime import EncodeCache
from repro.scenarios import (
    apply_edits,
    cold_resolve,
    default_registry,
    incremental_resolve,
    parse_edit,
    prepare_cache,
)
from repro.scenarios.incremental import _delta_changes


def edge_changes(old, new):
    """Oracle: diff the two full templates' weighted edge maps."""
    old_edges = {(u, v): w for u, v, w in old.template.edges()}
    new_edges = {(u, v): w for u, v, w in new.template.edges()}
    out = {}
    for key in set(old_edges) | set(new_edges):
        w_old = old_edges.get(key)
        w_new = new_edges.get(key)
        if w_old != w_new:
            out[key] = (w_old, w_new)
    return out


def solve_then_edit(name: str, *edit_texts: str):
    """Cold-solve ``name``, apply the edits, return all the pieces."""
    scenario = default_registry().generate(name)
    cache = EncodeCache()
    base = scenario.explore(cache=cache)
    assert base.feasible
    edits = tuple(parse_edit(t) for t in edit_texts)
    edited, deltas = apply_edits(scenario, edits)
    return scenario, cache, base, edited, deltas


class TestExactness:
    """Incremental and cold re-solves must agree on the objective."""

    @pytest.mark.parametrize("name,edit_text", [
        ("campus:buildings_x=2,buildings_y=2:0", "add-wall:30,5,30,25,brick"),
        ("multifloor:floors=2,rooms_x=3:1", "remove-wall:2"),
        ("materials::0", "move-node:5,30.0,14.0"),
        ("reqmix::0", "set-min-snr:21"),
    ])
    def test_objective_matches_cold_resolve(self, name, edit_text):
        scenario, cache, base, edited, deltas = solve_then_edit(
            name, edit_text
        )
        incremental = incremental_resolve(
            scenario, edited, deltas,
            previous=base.architecture, cache=cache,
        )
        cold = cold_resolve(edited)
        assert incremental.feasible and cold.feasible
        assert incremental.objective_value == cold.objective_value

    def test_reach_transplant_matches_cold_resolve(self):
        scenario, cache, base, edited, deltas = solve_then_edit(
            "moving_target::0", "add-wall:20,2,20,20,concrete"
        )
        incremental = incremental_resolve(
            scenario, edited, deltas,
            previous=base.architecture, cache=cache,
        )
        cold = cold_resolve(edited)
        assert incremental.objective_value == cold.objective_value
        assert cache.counters.partial_count("pathloss") >= 1

    def test_disruptive_edit_still_exact(self):
        """A wall crossing everything aborts most replays, never wrongly."""
        scenario, cache, base, edited, deltas = solve_then_edit(
            "multifloor:floors=2,rooms_x=3:0", "add-wall:0,14,48,14,concrete"
        )
        incremental = incremental_resolve(
            scenario, edited, deltas,
            previous=base.architecture, cache=cache,
        )
        cold = cold_resolve(edited)
        assert incremental.feasible == cold.feasible
        if cold.feasible:
            assert incremental.objective_value == cold.objective_value


class TestPrepareCache:
    def test_transplants_and_counts(self):
        scenario, cache, base, edited, deltas = solve_then_edit(
            "campus:buildings_x=2,buildings_y=2:0",
            "add-wall:30,5,30,25,brick",
        )
        info = prepare_cache(scenario, edited, deltas, cache)
        assert info["graph_seeded"] == 1
        assert info["yen_routes_reused"] + info["yen_routes_aborted"] > 0
        assert cache.counters.partial_count() > 0

    def test_requirement_only_edit_seeds_nothing(self):
        scenario, cache, base, edited, deltas = solve_then_edit(
            "campus::0", "set-min-snr:22"
        )
        info = prepare_cache(scenario, edited, deltas, cache)
        assert info == {
            "graph_seeded": 0,
            "yen_routes_reused": 0,
            "yen_routes_aborted": 0,
            "yen_rounds_seeded": 0,
            "reach_seeded": 0,
        }
        # The keys did not change, so the re-solve hits the entries as-is.
        result = edited.explore(cache=cache)
        assert result.feasible
        assert cache.counters.hit_count("yen") > 0

    def test_seeded_rounds_are_hit_not_recomputed(self):
        scenario, cache, base, edited, deltas = solve_then_edit(
            "campus:buildings_x=2,buildings_y=2:0",
            "add-wall:30,5,30,25,brick",
        )
        info = prepare_cache(scenario, edited, deltas, cache)
        hits_before = cache.counters.hit_count("yen")
        result = edited.explore(
            cache=cache, previous=base.architecture,
        )
        assert result.feasible
        gained = cache.counters.hit_count("yen") - hits_before
        assert gained >= info["yen_rounds_seeded"]

    def test_cold_cache_seeds_nothing(self):
        scenario = default_registry().generate("campus::0")
        edits = (parse_edit("add-wall:30,5,30,25,brick"),)
        edited, deltas = apply_edits(scenario, edits)
        info = prepare_cache(scenario, edited, deltas, EncodeCache())
        assert info["graph_seeded"] == 0
        assert info["yen_rounds_seeded"] == 0


class TestDeltaChanges:
    """The replay's changed edges, composed from the edit deltas, equal
    a diff of the old and new templates."""

    @pytest.mark.parametrize("edit_texts", [
        ("add-wall:30,5,30,25,brick",),
        ("remove-wall:0",),
        ("move-node:9,16.5,14",),
        ("swap-device:relay-std=relay-lp",),
        ("set-replicas:0,1",),
        ("set-min-snr:21",),
        ("add-wall:30,5,30,25,brick", "move-node:9,16.5,14",
         "remove-wall:0"),
        ("move-node:9,16.5,14", "set-min-snr:21", "move-node:10,36,12",
         "add-wall:5,20,25,20,concrete", "swap-device:relay-std=relay-lp",
         "move-node:9,12,15"),
        # Edits undone later: their edges must drop out of the net change.
        ("add-wall:30,5,30,25,brick", "remove-wall:20"),
        ("move-node:9,16.5,14", "move-node:9,15,13"),
    ])
    def test_matches_template_diff(self, edit_texts):
        scenario = default_registry().generate(
            "campus:buildings_x=2,buildings_y=2:0"
        )
        edits = tuple(parse_edit(t) for t in edit_texts)
        edited, deltas = apply_edits(scenario, edits)
        assert _delta_changes(deltas) == edge_changes(scenario, edited)

    def test_undone_edits_leave_no_change(self):
        scenario = default_registry().generate(
            "campus:buildings_x=2,buildings_y=2:0"
        )
        edits = (parse_edit("add-wall:30,5,30,25,brick"),
                 parse_edit("remove-wall:20"))
        edited, deltas = apply_edits(scenario, edits)
        assert deltas[0].changed_edges
        assert _delta_changes(deltas) == {}


class TestWarmStart:
    def test_incremental_resolve_defaults_to_fresh_cache(self):
        scenario = default_registry().generate("campus::0")
        edited, deltas = apply_edits(
            scenario, (parse_edit("add-wall:30,5,30,25,brick"),)
        )
        result = incremental_resolve(scenario, edited, deltas)
        cold = cold_resolve(edited)
        assert result.objective_value == cold.objective_value
