"""The anytime portfolio racer: tabu vs. the exact solve.

Runs the exact MILP solve on a worker thread while the tabu synthesizer
searches on the calling thread; whichever side produces a feasible
design first defines the time-to-first-incumbent, and the exact side —
when it finishes with a solution at least as good — still wins the
returned assignment, so optimality proofs are never sacrificed.  When
the exact side times out or errors, the racer degrades to the tabu
incumbent instead of failing the run.

The merged convergence story lands on the returned solution:
``extra["incumbent_trajectory"]`` interleaves both sides' incumbents
(monotone non-increasing, each tagged with its ``source``), and
``extra["portfolio"]`` records who produced the first incumbent, when,
and who won.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.milp.solution import Solution, SolveStatus
from repro.telemetry.metrics import counter
from repro.telemetry.trace import span


def merge_trajectories(
    labeled: dict[str, list[dict[str, Any]]],
) -> list[dict[str, Any]]:
    """Merge per-source incumbent trajectories into one monotone curve.

    Events are ordered by ``elapsed_s`` (each side's clock starts at the
    race start, so the scales are commensurable); only genuine
    improvements survive, and every surviving event carries the
    ``source`` label of the solver that produced it — an event's own
    pre-existing ``source`` key wins over the outer label, so nested
    merges keep their attribution.
    """
    events: list[dict[str, Any]] = []
    for source, trajectory in labeled.items():
        for event in trajectory:
            if event.get("kind") != "incumbent":
                continue
            if event.get("incumbent") is None:
                continue
            tagged = dict(event)
            tagged.setdefault("source", source)
            events.append(tagged)
    events.sort(key=lambda e: float(e.get("elapsed_s", 0.0)))
    merged: list[dict[str, Any]] = []
    best = float("inf")
    for event in events:
        if float(event["incumbent"]) < best - 1e-12:
            best = float(event["incumbent"])
            merged.append(event)
    return merged


def race_portfolio(
    exact: Callable[[], Solution],
    synthesizer: Any,
    *,
    assignment_of: Callable[[Any], Solution | None] | None = None,
    objective_tol: float = 1e-9,
) -> Solution:
    """Race ``synthesizer`` against the ``exact`` thunk.

    ``exact`` must return a :class:`Solution` over the model's variable
    space.
    ``assignment_of`` lifts a tabu :class:`Architecture` into a full
    model assignment (the warm-start restricted solve); without it a
    tabu win degrades to an assignment-free FEASIBLE solution that still
    carries the architecture in ``extra``.
    """
    with span("accel.portfolio") as race_span:
        t0 = time.perf_counter()
        done = threading.Event()
        box: dict[str, Any] = {}

        def run_exact() -> None:
            try:
                box["solution"] = exact()
            except BaseException as err:  # noqa: BLE001 - reported below
                box["error"] = err
            finally:
                done.set()

        thread = threading.Thread(
            target=run_exact, name="repro-portfolio-exact", daemon=True
        )
        thread.start()
        tabu_result = synthesizer.synthesize(stop=done.is_set)
        thread.join()
        exact_elapsed = time.perf_counter() - t0
        if "error" in box:
            exact_solution = Solution(
                status=SolveStatus.ERROR,
                message=f"exact side crashed: {box['error']!r}",
            )
        else:
            exact_solution = box["solution"]

        exact_trajectory = list(
            exact_solution.extra.get("incumbent_trajectory", ())
        )
        if not exact_trajectory and exact_solution.x is not None:
            # Backends without progress callbacks (HiGHS through scipy)
            # contribute a single terminal incumbent event.
            exact_trajectory = [{
                "kind": "incumbent",
                "nodes": exact_solution.node_count,
                "incumbent": exact_solution.objective,
                "bound": None,
                "elapsed_s": round(exact_elapsed, 9),
            }]
        merged = merge_trajectories({
            getattr(synthesizer, "name", "tabu"): tabu_result.trajectory,
            "exact": exact_trajectory,
        })

        exact_obj = (
            exact_solution.objective
            if exact_solution.status.has_solution else float("inf")
        )
        exact_wins = (
            exact_solution.status.has_solution
            and (
                not tabu_result.feasible
                or exact_obj <= tabu_result.objective + objective_tol
            )
        )
        winner = "exact" if exact_wins else "tabu"
        if not exact_wins and not tabu_result.feasible:
            winner = "none"

        meta: dict[str, Any] = {
            "winner": winner,
            "exact_status": exact_solution.status.value,
            "exact_objective": (
                exact_solution.objective
                if exact_solution.status.has_solution else None
            ),
            "tabu_feasible": tabu_result.feasible,
            "tabu_objective": (
                tabu_result.objective if tabu_result.feasible else None
            ),
            "tabu_iterations": tabu_result.iterations,
            "exact_seconds": exact_elapsed,
        }
        if merged:
            meta["first_incumbent_s"] = float(merged[0]["elapsed_s"])
            meta["first_incumbent_source"] = str(merged[0]["source"])
        counter("accel.portfolio_races", winner=winner).inc()

        if exact_wins:
            solution = exact_solution
        elif tabu_result.feasible:
            solution = None
            if assignment_of is not None:
                solution = assignment_of(tabu_result.architecture)
            if solution is None:
                solution = Solution(
                    status=SolveStatus.FEASIBLE,
                    objective=tabu_result.objective,
                    solve_time=exact_elapsed,
                    mip_gap=float("inf"),
                    message=(
                        "portfolio degraded to the tabu incumbent "
                        f"(exact side: {exact_solution.status.value})"
                    ),
                )
                solution.extra["tabu_architecture"] = (
                    tabu_result.architecture
                )
            else:
                solution.message = (
                    "portfolio: tabu incumbent beat the exact side "
                    f"({exact_solution.status.value})"
                )
            solution.extra.setdefault(
                "solve_attempts",
                exact_solution.extra.get("solve_attempts", []),
            )
        else:
            solution = exact_solution
        solution.extra["incumbent_trajectory"] = merged
        solution.extra["portfolio"] = meta
        race_span.set_attributes(
            winner=winner,
            first_incumbent_s=meta.get("first_incumbent_s"),
        )
        return solution
