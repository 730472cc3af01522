"""Tests for the what-if edit grammar and the patched-template parity."""

import pytest

from repro.scenarios import (
    ScenarioEdit,
    apply_edit,
    apply_edits,
    default_registry,
    parse_edit,
)


class TestParse:
    @pytest.mark.parametrize("text", [
        "add-wall:10,0,10,20,concrete",
        "add-wall:10,0,10,20,drywall",
        "add-wall:1.5,2.5,3.5,4.5,mystery,7.5",
        "remove-wall:3",
        "move-node:7,12.5,30.0",
        "swap-device:relay-std=relay-lp",
        "set-replicas:2,3",
        "set-min-snr:25.0",
    ])
    def test_spec_round_trips(self, text):
        edit = parse_edit(text)
        assert parse_edit(edit.spec()) == edit

    def test_add_wall_defaults_to_drywall(self):
        edit = parse_edit("add-wall:0,0,5,0")
        assert edit.args[4] == "drywall"

    @pytest.mark.parametrize("bad", [
        "teleport:1,2",                  # unknown kind
        "add-wall",                      # no args separator
        "add-wall:1,2,3",                # too few coordinates
        "add-wall:1,2,3,4,unobtainium",  # unknown material, no loss
        "remove-wall:first",             # non-integer index
        "move-node:a,b,c",
        "swap-device:solo",              # missing '='
        "set-replicas:1",                # missing count
        "set-min-snr:loud",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_edit(bad)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown edit kind"):
            ScenarioEdit("teleport", (1,))


class TestPatchedTemplateParity:
    """A patched template must equal a cold rebuild edge for edge."""

    @pytest.mark.parametrize("name,edit_text", [
        ("multifloor:floors=2,rooms_x=3:0", "add-wall:10,3,10,11,concrete"),
        ("multifloor:floors=2,rooms_x=3:0", "remove-wall:2"),
        ("multifloor:floors=2,rooms_x=3:0", "move-node:3,20.0,20.0"),
        ("campus:buildings_x=2,buildings_y=2:0", "add-wall:30,5,30,25,brick"),
        ("campus:buildings_x=2,buildings_y=2:0", "remove-wall:0"),
        ("materials::1", "move-node:5,30.0,14.0"),
        ("reqmix::0", "add-wall:25,2,25,20,glass"),
    ])
    def test_bitwise_equal_to_cold_rebuild(self, name, edit_text):
        scenario = default_registry().generate(name)
        edited, _delta = apply_edit(scenario, parse_edit(edit_text))
        rebuilt = edited.rebuilt()
        assert list(edited.template.edges()) == list(rebuilt.template.edges())
        assert edited.fingerprint() == rebuilt.fingerprint()

    def test_every_edit_kind_changes_the_fingerprint(self):
        scenario = default_registry().generate("reqmix::0")
        for text in [
            "add-wall:25,2,25,20,concrete",
            "remove-wall:1",
            "move-node:2,30.0,10.0",
            "swap-device:relay-std=relay-pa",
            "set-replicas:0,2",
            "set-min-snr:23",
        ]:
            edited, delta = apply_edit(scenario, parse_edit(text))
            assert edited.fingerprint() != scenario.fingerprint(), text
            assert edited.name == f"{scenario.name}+{delta.edit.spec()}"

    def test_edits_compose_in_order(self):
        scenario = default_registry().generate("campus::0")
        edits = (
            parse_edit("add-wall:30,5,30,25,brick"),
            parse_edit("set-min-snr:22"),
        )
        edited, deltas = apply_edits(scenario, edits)
        assert len(deltas) == 2
        assert deltas[0].template_changed and deltas[0].pathloss_changed
        assert not deltas[1].template_changed
        assert "+add-wall:" in edited.name and "+set-min-snr:" in edited.name

    def test_delta_reports_changed_edges(self):
        scenario = default_registry().generate("campus::0")
        _, delta = apply_edit(
            scenario, parse_edit("add-wall:30,5,30,25,brick")
        )
        assert delta.changed_edges
        old = {(u, v): w for u, v, w in scenario.template.edges()}
        for u, v, w_old, w_new in delta.changed_edges:
            assert old.get((u, v)) == w_old
            assert w_old != w_new


def _edge_diff(old, new):
    """Every directed link whose weight differs between two templates
    (``None`` for an absent link), sorted by ``(u, v)``: the full-diff
    oracle for ``EditDelta.changed_edges``."""
    old_edges = {(u, v): w for u, v, w in old.edges()}
    new_edges = {(u, v): w for u, v, w in new.edges()}
    out = []
    for key in sorted(set(old_edges) | set(new_edges)):
        w_old = old_edges.get(key)
        w_new = new_edges.get(key)
        if w_old != w_new:
            out.append((key[0], key[1], w_old, w_new))
    return tuple(out)


class TestChangedEdges:
    """``changed_edges`` read off the patched pairs equals a full diff."""

    @pytest.mark.parametrize("name,edit_text", [
        ("campus::0", "add-wall:30,5,30,25,brick"),
        ("campus::0", "remove-wall:0"),
        ("campus::0", "move-node:7,30.0,15.0"),
        ("multifloor:floors=2,rooms_x=3:0", "add-wall:10,3,10,11,concrete"),
        ("multifloor:floors=2,rooms_x=3:0", "remove-wall:2"),
        ("multifloor:floors=2,rooms_x=3:0", "move-node:3,20.0,20.0"),
        ("materials::1", "move-node:5,30.0,14.0"),
        ("reqmix::0", "add-wall:25,2,25,20,glass"),
    ])
    def test_matches_the_full_diff(self, name, edit_text):
        scenario = default_registry().generate(name)
        edited, delta = apply_edit(scenario, parse_edit(edit_text))
        assert delta.changed_edges
        assert delta.changed_edges == _edge_diff(
            scenario.template, edited.template
        )

    def test_mixed_chain_matches_per_step(self):
        scenario = default_registry().generate("campus::0")
        edits = [parse_edit(text) for text in (
            "add-wall:30,5,30,25,brick",
            "set-min-snr:22",
            "move-node:7,30.0,15.0",
            "remove-wall:0",
            "swap-device:relay-std=relay-lp",
            "add-wall:30,5,30,25,brick",
            "move-node:7,12.0,8.0",
        )]
        current = scenario
        for edit in edits:
            edited, delta = apply_edit(current, edit)
            assert delta.changed_edges == _edge_diff(
                current.template, edited.template
            ), edit.spec()
            current = edited


class TestEditErrors:
    def test_remove_wall_out_of_range(self):
        scenario = default_registry().generate("campus::0")
        with pytest.raises(ValueError, match="out of range"):
            apply_edit(scenario, parse_edit("remove-wall:999"))

    def test_move_node_unknown_or_outside(self):
        scenario = default_registry().generate("campus::0")
        with pytest.raises(ValueError, match="not in template"):
            apply_edit(scenario, parse_edit("move-node:999,5,5"))
        with pytest.raises(ValueError, match="outside the floor plan"):
            apply_edit(scenario, parse_edit("move-node:0,-100,5"))

    def test_swap_device_unknown_and_role_mismatch(self):
        scenario = default_registry().generate("campus::0")
        with pytest.raises(KeyError):
            apply_edit(scenario, parse_edit("swap-device:ghost=relay-std"))
        with pytest.raises(ValueError, match="role sets differ"):
            apply_edit(
                scenario, parse_edit("swap-device:relay-std=anchor-std")
            )
        with pytest.raises(ValueError, match="already in the library"):
            apply_edit(
                scenario, parse_edit("swap-device:relay-std=relay-ant")
            )

    def test_requirement_edits_rejected_on_localization(self):
        scenario = default_registry().generate("moving_target::0")
        with pytest.raises(ValueError, match="localization"):
            apply_edit(scenario, parse_edit("set-min-snr:25"))
        with pytest.raises(ValueError, match="localization"):
            apply_edit(scenario, parse_edit("set-replicas:0,2"))

    def test_set_replicas_route_out_of_range(self):
        scenario = default_registry().generate("campus::0")
        with pytest.raises(ValueError, match="out of range"):
            apply_edit(scenario, parse_edit("set-replicas:99,2"))
