"""Tests of the pipeline benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import harness
import run
from layers import LAYERS
from spans import REQUEST, Tracer, self_times
from workloads import WORKLOADS, generate_edits

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_times_subtract_direct_children():
    # request [0, 10] > a [1, 6] > b [2, 4]; request > a [7, 9]
    tracer = Tracer(clock=fake_clock([0, 1, 2, 4, 6, 7, 9, 10]))
    with tracer.span(REQUEST):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
    own = self_times(tracer.spans)
    assert own == {REQUEST: 3, "a": 5, "b": 2}
    assert sum(own.values()) == 10
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]


def test_wrap_records_counters_and_uninstall_restores():
    def double(x):
        return 2 * x

    owner = types.SimpleNamespace(double=double)

    def hook(tr, layer, call, args, kwargs):
        out = call()
        tr.count(layer, "in", args[0])
        return out

    tracer = Tracer()
    tracer.wrap(owner, "double", "layer.x", hook)
    assert owner.double(3) == 6
    assert tracer.calls() == {"layer.x": 1}
    assert tracer.counters["layer.x"]["in"] == 3
    tracer.uninstall()
    assert owner.double is double


def test_missing_wrap_target_is_reported_not_raised():
    tracer = Tracer()
    tracer.wrap(types.ModuleType("fake"), "gone", "layer.y")
    assert tracer.missing == [("layer.y", "fake.gone")]


def test_counter_mismatch_between_passes_is_flagged():
    first = harness.Record("k", 1.0, True, "", {"bb_nodes": 3})
    again = harness.Record("k", 1.2, True, "", {"bb_nodes": 3})
    drift = harness.Record("k", 1.0, True, "", {"bb_nodes": 4})
    assert harness.nondeterministic([first, again]) == []
    assert harness.nondeterministic([first, drift]) == ["k"]


@pytest.mark.parametrize("seconds, passes", [(5, 1), (24, 2), (26, 3)])
def test_timed_run_stops_at_the_nearest_pass(monkeypatch, seconds, passes):
    one_pass = [harness.Record("k", 10.0, True, "")]
    monkeypatch.setattr(harness, "run_pass", lambda *args: list(one_pass))
    records, made = harness.run_timed(None, None, {}, seconds)
    assert made == passes
    assert len(records) == passes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_seed_deterministic(name):
    workload = WORKLOADS[name]
    first = [item.key for item in workload.generate(3).items]
    assert first == [item.key for item in workload.generate(3).items]
    other = [item.key for item in workload.generate(4).items]
    assert sorted(first) == sorted(other) == sorted(workload.pool())
    assert len(set(first)) == len(first)


def test_edit_sequence_is_deterministic():
    base = WORKLOADS["whatif"].generate(0).extra["base"]
    edits = generate_edits(base, 12, random.Random("x"))
    assert edits == generate_edits(base, 12, random.Random("x"))
    assert edits != generate_edits(base, 12, random.Random("y"))
    assert {e.split(":")[0] for e in edits} <= {
        "add-wall", "move-node", "set-min-snr"
    }


def test_every_request_has_a_reference():
    references = json.loads((HERE / "references.json").read_text())
    for name, workload in WORKLOADS.items():
        state = workload.generate(0)
        keys = {item.key for item in state.items} | {state.warmup.key}
        assert keys == set(references[name])


def smoke_state(name):
    """Set up ``name`` with its pool cut to one request (two geometry
    edits for ``whatif``, so that Yen and the transplant both run)."""
    workload = WORKLOADS[name]
    references = json.loads((HERE / "references.json").read_text())[name]
    state = run.setup(workload, 0, references)
    if name == "whatif":
        pick = [
            next(i for i in state.items if i.key.startswith(kind))
            for kind in ("add-wall", "move-node")
        ]
    else:
        pick = state.items[:1]
    state.items = pick
    return workload, state, references


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_request(name):
    workload, state, references = smoke_state(name)
    untraced = harness.run_pass(workload, state, references)
    tracer = Tracer()
    traced = harness.run_pass(workload, state, references, tracer)
    assert all(r.ok for r in untraced + traced), [r.reason for r in traced]
    assert not tracer.missing
    # Every span outside a request root belongs to one.
    roots = [s for s in tracer.spans if s.parent < 0]
    assert {s.name for s in roots} == {REQUEST}
    metrics, absent = harness.per_layer(
        workload, tracer, traced, untraced,
        workload.cache_partial_reuse(state),
    )
    assert absent == []
    assert metrics["trace.unaccounted_ratio"] < 0.05
    assert metrics["trace.nondeterministic"] == 0
    assert metrics["milp.solver.solves"] >= len(traced)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(metrics)
    assert {f"{layer}.self_s" for layer in LAYERS} <= set(metrics)


def test_end_to_end_metrics_match_the_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert units == run.END_TO_END_UNITS
    record = harness.Record("k", 2.0, True, "")
    metrics = harness.end_to_end([record], 1.5, 100.0)
    assert set(metrics) == set(units)
    assert metrics["requests_per_s"] == 0.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "energy",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
