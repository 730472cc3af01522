"""Differential exactness harness for the solve accelerators.

Every combination of ``warm_start``, ``portfolio`` and ``cache`` — plus
``incremental`` with a previous architecture — must reach the objective
of the plain solve.  The energy objective is used because its optimum
differs per instance and the greedy warm start does not always hit it.
On the smallest instance the reference objective comes from the
from-scratch branch-and-bound instead of HiGHS, so the plain path is
checked too.
"""

import itertools

import pytest

import repro
from repro.library import default_catalog
from repro.milp import BranchAndBoundSolver
from repro.network import (
    LinkQualityRequirement,
    RequirementSet,
    small_grid_template,
    synthetic_template,
)

INSTANCES = {
    "grid-3x2": lambda: small_grid_template(3, 2),
    "grid-4x3": lambda: small_grid_template(4, 3),
    "synthetic-20x5": lambda: synthetic_template(20, 5, seed=6),
}

#: Every (warm_start, portfolio, cache) combination.
COMBINATIONS = [
    dict(zip(("warm_start", "portfolio", "cache"), flags))
    for flags in itertools.product((False, True), repeat=3)
]


def _problem(name):
    instance = INSTANCES[name]()
    reqs = RequirementSet()
    for sensor in instance.sensor_ids:
        reqs.require_route(sensor, instance.sink_id, replicas=2,
                           disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    return instance, reqs


def _solve(instance, reqs, **kwargs):
    result = repro.explore(
        instance.template, default_catalog(), reqs, objective="energy",
        k_star=5, **kwargs,
    )
    assert result.feasible
    return result


@pytest.fixture(scope="module")
def reference():
    """Per instance: the problem, the reference objective and the plain
    solve's architecture (the ``previous`` of the incremental run)."""
    cache = {}

    def get(name):
        if name not in cache:
            instance, reqs = _problem(name)
            plain = _solve(instance, reqs)
            objective = plain.objective_value
            if name == "grid-3x2":
                objective = _solve(
                    instance, reqs, solver=BranchAndBoundSolver()
                ).objective_value
            cache[name] = (instance, reqs, objective, plain.architecture)
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_every_accelerator_combination_reaches_one_objective(
    name, reference
):
    instance, reqs, objective, previous = reference(name)
    runs = {
        repr(flags): repro.SolveOptions(**flags) for flags in COMBINATIONS
    }
    runs["incremental"] = repro.SolveOptions(incremental=True)
    for label, options in runs.items():
        kwargs = {"previous": previous} if label == "incremental" else {}
        result = _solve(instance, reqs, options=options, **kwargs)
        assert result.objective_value == pytest.approx(
            objective, rel=1e-6, abs=1e-6
        ), label
        # The accelerators under test really ran (a portfolio result
        # carries the race record instead of the warm-start record).
        extra = result.solution.extra
        assert ("portfolio" in extra) == options.portfolio, label
        if not options.portfolio:
            warm = options.warm_start or options.incremental
            assert ("warm_start" in extra) == warm, label
