"""The benchmark's two closed-loop workloads.

Each workload owns a fixed *pool* of requests whose reference
objectives are recorded in ``references.json``.  The run's seed fixes
the order in which each pass visits the pool, so every run
measures the same work whatever its seed, and every request can be
checked against a recorded reference.

* ``energy`` — generate a Table 3 synthetic template (a fresh
  ``add_candidate_links`` pass) and ``repro.explore(objective="energy")``
  it with 2 disjoint replicas, SNR >= 20 dB and a 5-year lifetime.
  HiGHS branch-and-bound dominates; every cache lookup misses.
* ``whatif`` — one solved campus base plus a shared ``EncodeCache``;
  each request applies one edit (wall, moved relay or SNR change) and
  calls ``incremental_resolve``.  Yen, analysis, cache transplants and
  warm starts matter here, and the cache grows with each geometry edit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Item:
    """One pool request: a stable ``key`` plus what the request needs."""

    key: str
    payload: Any


@dataclass
class State:
    """A workload's generated inputs plus anything set-up solved."""

    items: list[Item]
    warmup: Item
    extra: dict[str, Any] = field(default_factory=dict)


class Workload:
    """Interface: generate a pool, prepare a pass, run and check one request."""

    name = ""
    #: Layers this workload must exercise (an absent one is flagged).
    expected: tuple[str, ...] = ()

    def pool(self) -> list[str]:
        """The keys of the fixed request pool, in canonical order."""
        raise NotImplementedError

    def generate(self, seed: int) -> State:
        """Build the pool's inputs, ordered by ``seed``."""
        raise NotImplementedError

    def start_pass(self, state: State) -> None:
        """Untimed preparation before each pass over the pool."""

    def request(self, state: State, item: Item) -> Any:
        """One request; returns a ``SynthesisResult``."""
        raise NotImplementedError

    def validation_inputs(self, state: State, item: Item) -> tuple[Any, Any]:
        """``(requirements, channel)`` that ``repro.validate`` checks."""
        raise NotImplementedError

    def cache_partial_reuse(self, state: State) -> int:
        """Cumulative ``partial_reuse`` of a cache shared across requests."""
        return 0

    def reference_solve(self, state: State, item: Item) -> Any:
        """The plain cold solve whose objective ``item`` must match."""
        result = self.request(state, item)
        return result, *self.validation_inputs(state, item)


def seeded_order(keys: list[str], seed: int) -> list[str]:
    """The pool keys in the order run ``seed`` visits them."""
    order = list(keys)
    random.Random(seed).shuffle(order)
    return order


def energy_problem(template_seed: int) -> tuple[Any, Any]:
    """The Table 3 energy problem on ``synthetic_template(20, 5)``."""
    import repro
    from repro.network.requirements import LifetimeRequirement

    instance = repro.synthetic_template(20, 5, seed=template_seed)
    reqs = repro.RequirementSet()
    for sensor in instance.sensor_ids:
        reqs.require_route(sensor, instance.sink_id, replicas=2, disjoint=True)
    reqs.link_quality = repro.LinkQualityRequirement(min_snr_db=20.0)
    reqs.lifetime = LifetimeRequirement(years=5.0)
    return instance, reqs


class EnergyWorkload(Workload):
    name = "energy"
    expected = (
        "network.weighting", "graph.yen", "encoding.routing",
        "analysis.problem", "analysis.model", "constraints.mapping",
        "constraints.link_quality", "constraints.energy",
        "milp.standard_form", "milp.solver", "core.decode", "core.explorer",
    )
    #: Template seeds whose solves take about the same time (2.2-2.6 s,
    #: 120-466 B&B nodes, on the machine in README.md), so the median
    #: request draws on every request of a run, not on one instance.
    POOL = (1, 3, 11, 17, 19, 22)
    #: The cheapest seed tried (34 B&B nodes) keeps set-up short.
    WARMUP_SEED = 6

    def pool(self) -> list[str]:
        return [self._key(s) for s in self.POOL]

    @staticmethod
    def _key(template_seed: int) -> str:
        return f"synthetic:20,5:{template_seed}"

    def generate(self, seed: int) -> State:
        items = [
            Item(key, int(key.rsplit(":", 1)[1]))
            for key in seeded_order(self.pool(), seed)
        ]
        return State(items, Item(self._key(self.WARMUP_SEED), self.WARMUP_SEED))

    def request(self, state: State, item: Item) -> Any:
        import repro

        instance, reqs = energy_problem(item.payload)
        state.extra["reqs"] = reqs
        return repro.explore(
            instance.template, repro.default_catalog(), reqs,
            objective="energy",
        )

    def validation_inputs(self, state: State, item: Item) -> tuple[Any, Any]:
        return state.extra["reqs"], None


#: Edit kinds and their weights in the what-if pool.
EDIT_MIX = (("add-wall", 2), ("move-node", 2), ("set-min-snr", 1))


def generate_edits(base: Any, count: int, rng: random.Random) -> list[str]:
    """``count`` edit specs on ``base``: 4-10 m brick walls, relays moved
    by up to 3 m, or a new minimum SNR between 14 and 20 dB."""
    bounds = base.plan.bounds
    relays = [
        n for n in base.template.nodes if n.role == "relay" and not n.fixed
    ]
    kinds = [k for k, weight in EDIT_MIX for _ in range(weight)]
    edits = []
    for _ in range(count):
        kind = rng.choice(kinds)
        if kind == "add-wall":
            length = rng.uniform(4.0, 10.0)
            angle = rng.uniform(0.0, math.pi)
            dx = 0.5 * length * math.cos(angle)
            dy = 0.5 * length * math.sin(angle)
            cx = rng.uniform(bounds.x_min + abs(dx), bounds.x_max - abs(dx))
            cy = rng.uniform(bounds.y_min + abs(dy), bounds.y_max - abs(dy))
            edits.append(
                f"add-wall:{cx - dx:.2f},{cy - dy:.2f},"
                f"{cx + dx:.2f},{cy + dy:.2f},brick"
            )
        elif kind == "move-node":
            node = rng.choice(relays)
            x = min(max(node.location.x + rng.uniform(-3.0, 3.0),
                        bounds.x_min), bounds.x_max)
            y = min(max(node.location.y + rng.uniform(-3.0, 3.0),
                        bounds.y_min), bounds.y_max)
            edits.append(f"move-node:{node.id},{x:.2f},{y:.2f}")
        else:
            edits.append(f"set-min-snr:{rng.uniform(14.0, 20.0):.1f}")
    return edits


class WhatIfWorkload(Workload):
    name = "whatif"
    expected = (
        "graph.yen", "encoding.routing", "analysis.problem",
        "analysis.model", "constraints.mapping", "constraints.link_quality",
        "milp.standard_form", "milp.solver", "core.decode", "core.explorer",
        "accel.warm_start", "scenarios.apply_edits",
        "scenarios.prepare_cache", "scenarios.resolve",
    )
    BASE = (
        "campus:buildings_x=3,buildings_y=3,k_star=24,"
        "sensors_per_building=4,street_relays=100:0"
    )
    POOL = 20
    EDIT_SEED = "whatif-edits"

    def _base(self) -> Any:
        from repro.scenarios import default_registry

        return default_registry().generate(self.BASE)

    def _edits(self, base: Any) -> list[str]:
        # One edit beyond the pool serves as the warm-up request.
        return generate_edits(
            base, self.POOL + 1, random.Random(self.EDIT_SEED)
        )

    def pool(self) -> list[str]:
        return self._edits(self._base())[: self.POOL]

    def generate(self, seed: int) -> State:
        from repro.scenarios import parse_edit

        base = self._base()
        edits = self._edits(base)
        items = [
            Item(spec, parse_edit(spec))
            for spec in seeded_order(edits[: self.POOL], seed)
        ]
        warm = Item(edits[self.POOL], parse_edit(edits[self.POOL]))
        return State(items, warm, {"base": base})

    def start_pass(self, state: State) -> None:
        """A fresh shared cache holding only the base solve's entries,
        so every pass sees the same cache contents."""
        from repro.runtime.cache import EncodeCache

        cache = EncodeCache()
        result = state.extra["base"].explore(cache=cache)
        state.extra["cache"] = cache
        state.extra["previous"] = result.architecture

    def request(self, state: State, item: Item) -> Any:
        import repro.scenarios

        base = state.extra["base"]
        edited, deltas = repro.scenarios.apply_edits(base, [item.payload])
        state.extra["edited"] = edited
        return repro.scenarios.incremental_resolve(
            base, edited, deltas,
            previous=state.extra["previous"], cache=state.extra["cache"],
        )

    def validation_inputs(self, state: State, item: Item) -> tuple[Any, Any]:
        edited = state.extra["edited"]
        return edited.requirements, edited.channel

    def cache_partial_reuse(self, state: State) -> int:
        return state.extra["cache"].counters.partial_count()

    def reference_solve(self, state: State, item: Item) -> Any:
        import repro.scenarios

        edited, _ = repro.scenarios.apply_edits(
            state.extra["base"], [item.payload]
        )
        result = repro.scenarios.cold_resolve(edited)
        return result, edited.requirements, edited.channel


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (EnergyWorkload(), WhatIfWorkload())
}
