"""The pipeline layers the traced run measures, and where each is wrapped.

Each wrap target is the name callers actually resolve at call time: a
``from x import f`` binding in the calling module, or a class attribute
for methods.  Wrapping ``repro.constraints.energy.build_energy`` would
miss the explorer's own ``build_energy`` binding, for example.
"""

from __future__ import annotations

from typing import Any

from spans import Tracer

#: Every layer the traced run reports, in pipeline order.
LAYERS = (
    "network.weighting",
    "graph.yen",
    "encoding.routing",
    "analysis.problem",
    "analysis.model",
    "constraints.mapping",
    "constraints.link_quality",
    "constraints.energy",
    "milp.standard_form",
    "milp.solver",
    "core.decode",
    "core.explorer",
    "accel.warm_start",
    "scenarios.apply_edits",
    "scenarios.prepare_cache",
    "scenarios.resolve",
)

#: Work counters each layer reports, as totals over the traced pass.
COUNTERS = {
    "network.weighting": ("calls", "edges"),
    "graph.yen": ("queries", "paths"),
    "constraints.mapping": ("rows",),
    "constraints.link_quality": ("rows",),
    "constraints.energy": ("rows",),
    "milp.standard_form": ("rows", "cols", "nnz"),
    "milp.solver": ("solves", "bb_nodes", "optimal"),
    "accel.warm_start": ("accepted",),
}


def _weighting(tr: Tracer, layer: str, call, args, kwargs) -> Any:
    template = args[0]
    before = template.edge_count
    out = call()
    tr.count(layer, "calls")
    tr.count(layer, "edges", template.edge_count - before)
    return out


def _yen(tr: Tracer, layer: str, call, args, kwargs) -> Any:
    out = call()
    tr.count(layer, "queries")
    tr.count(layer, "paths", len(out))
    return out


def _rows(tr: Tracer, layer: str, call, args, kwargs) -> Any:
    model = args[0]
    before = len(model.constraints)
    out = call()
    tr.count(layer, "rows", len(model.constraints) - before)
    return out


def _standard_form(tr: Tracer, layer: str, call, args, kwargs) -> Any:
    form = call()
    rows, cols = form.a_matrix.shape
    tr.count(layer, "rows", rows)
    tr.count(layer, "cols", cols)
    tr.count(layer, "nnz", form.a_matrix.nnz)
    return form


def _solver(tr: Tracer, layer: str, call, args, kwargs) -> Any:
    from repro.milp.solution import SolveStatus

    solution = call()
    tr.count(layer, "solves")
    tr.count(layer, "bb_nodes", solution.node_count)
    tr.count(layer, "optimal", solution.status is SolveStatus.OPTIMAL)
    return solution


def _warm_start(tr: Tracer, layer: str, call, args, kwargs) -> Any:
    warm = call()
    tr.count(layer, "accepted", warm is not None)
    return warm


def _prepare_cache(tr: Tracer, layer: str, call, args, kwargs) -> Any:
    info = call()
    tr.count(layer, "yen_reused", info["yen_routes_reused"])
    tr.count(layer, "yen_aborted", info["yen_routes_aborted"])
    return info


def _explorer_solve(tr: Tracer, layer: str, call, args, kwargs) -> Any:
    result = call()
    cache = args[0].cache
    tr.notes["cache_entries"] = len(cache) if cache is not None else 0
    return result


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points on ``tracer``."""
    import repro
    import repro.accel.warmstart
    import repro.core.explorer
    import repro.core.facade
    import repro.encoding.approximate
    import repro.milp.highs
    import repro.milp.model
    import repro.network.template
    import repro.runtime.cache
    import repro.scenarios
    import repro.scenarios.incremental

    explorer = repro.core.explorer
    wrap = tracer.wrap
    wrap(repro.network.template.Template, "add_candidate_links",
         "network.weighting", _weighting)
    # Uncached queries go through the encoder's binding, cached ones
    # through the cache's compute closure.
    wrap(repro.encoding.approximate, "k_shortest_paths", "graph.yen", _yen)
    wrap(repro.runtime.cache, "k_shortest_paths", "graph.yen", _yen)
    wrap(repro.encoding.approximate.ApproximatePathEncoder, "encode",
         "encoding.routing")
    wrap(explorer, "analyze_problem", "analysis.problem")
    wrap(explorer, "analyze_model", "analysis.model")
    wrap(explorer, "build_mapping", "constraints.mapping", _rows)
    wrap(explorer, "build_link_quality", "constraints.link_quality", _rows)
    wrap(explorer, "build_energy", "constraints.energy", _rows)
    wrap(repro.milp.model.Model, "to_standard_form", "milp.standard_form",
         _standard_form)
    wrap(repro.milp.highs.HighsSolver, "solve", "milp.solver", _solver)
    wrap(explorer, "decode_architecture", "core.decode")
    # The facade and the explorer's solve/build glue are one layer.
    wrap(repro, "explore", "core.explorer")
    wrap(repro.core.facade, "explore", "core.explorer")
    wrap(explorer.ExplorerBase, "solve", "core.explorer", _explorer_solve)
    # Imported inside ExplorerBase._solve_built at call time.
    wrap(repro.accel.warmstart, "compute_warm_start", "accel.warm_start",
         _warm_start)
    wrap(repro.scenarios, "apply_edits", "scenarios.apply_edits")
    wrap(repro.scenarios.incremental, "prepare_cache",
         "scenarios.prepare_cache", _prepare_cache)
    wrap(repro.scenarios, "incremental_resolve", "scenarios.resolve")
