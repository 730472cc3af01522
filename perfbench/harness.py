"""Request loop, correctness check and metric derivation.

One client on one thread sends each request after the previous one
returns (a closed loop).  Only the request call itself is timed; the
correctness check runs between requests, outside the timed interval.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import Any

from layers import COUNTERS, LAYERS, install
from spans import REQUEST, Tracer, self_times
from workloads import Item, State, Workload


@dataclass
class Record:
    """One request's outcome."""

    key: str
    seconds: float
    ok: bool
    reason: str
    #: Counters that must repeat exactly for the same code and input.
    counters: dict[str, int] = field(default_factory=dict)
    #: Size of the cache the request used, once it returned.
    cache_entries: int = 0


def relative_gap() -> float:
    """The default solver's relative optimality gap."""
    from repro.milp.highs import HighsSolver

    return HighsSolver().mip_rel_gap


def check(
    workload: Workload, state: State, item: Item, result: Any,
    reference: float | None,
) -> tuple[bool, str]:
    """Status, objective against the reference, and ``repro.validate``."""
    import repro
    from repro.milp.solution import SolveStatus

    if result.status is not SolveStatus.OPTIMAL:
        return False, f"status {result.status.name}"
    if reference is None:
        return False, "no recorded reference"
    # Two solves that each stop within the gap of the optimum agree to
    # within twice the gap.
    tolerance = 2 * relative_gap() * max(1.0, abs(reference))
    if abs(result.objective_value - reference) > tolerance:
        return False, (
            f"objective {result.objective_value!r} != reference {reference!r}"
        )
    requirements, channel = workload.validation_inputs(state, item)
    report = repro.validate(result.architecture, requirements, channel)
    if not report.ok:
        return False, f"validation: {report.violations[:3]}"
    return True, ""


def result_counters(result: Any) -> dict[str, int]:
    """Deterministic work counters readable from a result."""
    stats = result.model_stats
    cache = result.run_stats.cache
    return {
        "bb_nodes": int(result.solution.node_count),
        "rows": stats.num_constraints,
        "cols": stats.num_vars,
        "nnz": stats.num_nonzeros,
        "cache_hits": cache.hit_count(),
        "cache_misses": cache.miss_count(),
    }


def run_pass(
    workload: Workload, state: State, references: dict[str, float],
    tracer: Tracer | None = None,
) -> list[Record]:
    """One pass: every pool request once, in the seeded order.

    With a ``tracer`` the layer wrappers are installed for the requests
    only, after the pass's untimed preparation.
    """
    workload.start_pass(state)
    if tracer is not None:
        install(tracer)
    records = []
    try:
        for index, item in enumerate(state.items):
            # Each request starts from an empty young generation, so the
            # collections inside it fall at the same points in every run.
            gc.collect()
            timed: AbstractContextManager[None] = nullcontext()
            if tracer is not None:
                tracer.request = index
                timed = tracer.span(REQUEST)
            start = time.perf_counter()
            try:
                with timed:
                    result = workload.request(state, item)
            except Exception as exc:  # a raising request counts as failed
                records.append(Record(
                    item.key, time.perf_counter() - start, False, repr(exc)
                ))
                continue
            seconds = time.perf_counter() - start
            ok, reason = check(
                workload, state, item, result, references.get(item.key)
            )
            records.append(Record(
                item.key, seconds, ok, reason, result_counters(result),
                tracer.notes.get("cache_entries", 0) if tracer else 0,
            ))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def run_timed(
    workload: Workload, state: State, references: dict[str, float],
    seconds: float,
) -> tuple[list[Record], int]:
    """Whole passes over the pool, as many as fit ``seconds`` of request
    time to the nearest pass.

    Stopping only at pass boundaries keeps every run's mix of requests
    identical; rounding to the nearest pass, not up, keeps the run's
    length near ``seconds``.  Returns the records and the number of
    passes.
    """
    records: list[Record] = []
    passes = 0
    while True:
        records += run_pass(workload, state, references)
        passes += 1
        elapsed = sum(r.seconds for r in records)
        if elapsed + 0.5 * elapsed / passes >= seconds:
            return records, passes


def nondeterministic(records: list[Record]) -> list[str]:
    """Keys whose counters differ between two passes of one process."""
    seen: dict[str, dict[str, int]] = {}
    bad = []
    for r in records:
        if r.key in seen and seen[r.key] != r.counters:
            bad.append(r.key)
        seen.setdefault(r.key, r.counters)
    return bad


def end_to_end(
    records: list[Record], setup_s: float, peak_rss_mb: float,
) -> dict[str, float]:
    """The untraced run's metrics."""
    wall = sum(r.seconds for r in records)
    correct = sum(r.ok for r in records)
    return {
        "setup_s": setup_s,
        "request_p50_s": statistics.median(r.seconds for r in records),
        "requests_per_s": correct / wall,
        "correct_ratio": correct / len(records),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(
    workload: Workload, tracer: Tracer, traced: list[Record],
    untraced: list[Record], partial_reuse: int,
) -> tuple[dict[str, float], list[str]]:
    """The traced run's metrics plus the expected layers found absent."""
    n = len(traced)
    own = self_times(tracer.spans)
    c = tracer.counters
    wall = sum(r.seconds for r in traced)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own.get(layer, 0.0) / n
        for key in COUNTERS.get(layer, ()):
            out[f"{layer}.{key}"] = c[layer][key]
    reused = c["scenarios.prepare_cache"]["yen_reused"]
    aborted = c["scenarios.prepare_cache"]["yen_aborted"]
    out["scenarios.prepare_cache.yen_replay_ratio"] = (
        reused / (reused + aborted) if reused + aborted else 0.0
    )
    hits = sum(r.counters.get("cache_hits", 0) for r in traced)
    lookups = hits + sum(r.counters.get("cache_misses", 0) for r in traced)
    out["runtime.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["runtime.cache.partial_reuse"] = partial_reuse
    out["runtime.cache.entries"] = statistics.mean(
        r.cache_entries for r in traced
    )
    calls = tracer.calls()
    absent = [layer for layer in workload.expected if not calls.get(layer)]
    out["trace.unaccounted_ratio"] = own.get(REQUEST, 0.0) / wall
    out["trace.overhead_ratio"] = (
        wall / sum(r.seconds for r in untraced) - 1.0
    )
    out["trace.absent_layers"] = len(absent)
    out["trace.nondeterministic"] = len(
        nondeterministic(untraced + traced)
    )
    return out, absent
