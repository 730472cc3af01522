"""MILP acceleration: warm starts and the anytime portfolio.

The exact solve is the dominant cost on large templates; this package
attacks it from two sides, both orthogonal to the encodings:

* :mod:`repro.accel.warmstart` — a greedy primal heuristic that rounds a
  feasible topology out of the Yen candidate pools and completes it into
  a full assignment via a small restricted MILP (the (MI)LP-based primal
  heuristic pattern), fed to the backends through
  ``Model.hints["warm_start"]``;
* :mod:`repro.accel.tabu` / :mod:`repro.accel.portfolio` — an anytime
  tabu synthesizer raced against the exact solve, first acceptable
  incumbent wins immediately while the exact solve keeps publishing
  improvements through :class:`~repro.telemetry.progress.SolveProgress`.

Both are opt-in through ``SolveOptions(warm_start=, portfolio=)`` and
are advisory by construction: every heuristic product
is re-validated before a backend may act on it, so a bug here can cost
speed but never correctness.
"""

from repro.accel.portfolio import merge_trajectories, race_portfolio
from repro.accel.tabu import TabuResult, TabuSynthesizer
from repro.accel.warmstart import (
    WarmStart,
    attach_warm_start,
    compute_warm_start,
    greedy_selection,
)

__all__ = [
    "TabuResult",
    "TabuSynthesizer",
    "WarmStart",
    "attach_warm_start",
    "compute_warm_start",
    "greedy_selection",
    "merge_trajectories",
    "race_portfolio",
]
