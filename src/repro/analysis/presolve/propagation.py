"""Activity-based bound propagation and big-M coefficient strengthening.

These are the classic feasibility-preserving row passes of a MILP
presolve (cf. Achterberg et al., "Presolve reductions in MIP"):

* **Bound propagation** — for each row ``lo <= a.x <= hi`` and each
  column ``j`` with coefficient ``a_j``, the residual activity of the
  other terms implies a bound on ``x_j``; integer columns round the
  implied bound inward.  Iterated to a fixpoint this is exactly the
  Heuristic-mode bound tightening of the WAN-router wiring solver.
* **Redundancy / infeasibility detection** — a row whose activity
  interval lies inside its bounds is implied by the bounds alone and is
  dropped; one whose activity interval cannot meet its bounds proves the
  model infeasible outright.
* **Coefficient (big-M) strengthening** — on a one-sided row, a binary
  whose coefficient is larger than the residual activity requires can be
  shrunk (shifting the bound for "relaxing at one" indicators) without
  changing the integer-feasible set, tightening the LP relaxation.

All passes are pure interval arithmetic over the working state: O(nnz)
per sweep, no LP.
"""

from __future__ import annotations

import math

from repro.analysis.presolve.state import (
    TOL,
    Activity,
    PresolveState,
    WorkRow,
    scaled_tol,
)
from repro.milp.model import Model

_INF = float("inf")

#: Minimum relative improvement before a tightened bound is applied —
#: guards the fixpoint loop against crawling by epsilons.
_MIN_IMPROVE = 1e-7

#: Slack below which coefficient strengthening is not worth the rewrite.
_MIN_STRENGTHEN = 1e-6


def _tighten_upper(state: PresolveState, j: int, bound: float) -> bool:
    """Apply ``x_j <= bound`` if it improves the current upper bound.

    A NaN bound implies nothing.  It arises from an infinite row bound
    or coefficient (``inf / inf``, ``inf - inf``) or a NaN variable
    bound; integer rounding is skipped for infinite bounds.
    """
    if math.isnan(bound):
        return False
    if state.integer[j] and math.isfinite(bound):
        bound = math.floor(bound + 1e-6)
    current = state.upper[j]
    if bound >= current - _MIN_IMPROVE * max(1.0, abs(current)):
        return False
    state.upper[j] = bound
    if bound < state.lower[j] - scaled_tol(bound):
        state.mark_infeasible(
            f"bounds of {state.names[j]!r} crossed during propagation "
            f"([{state.lower[j]:g}, {bound:g}])"
        )
    return True


def _tighten_lower(state: PresolveState, j: int, bound: float) -> bool:
    """Apply ``x_j >= bound`` if it improves the current lower bound.

    A NaN bound implies nothing (see :func:`_tighten_upper`).
    """
    if math.isnan(bound):
        return False
    if state.integer[j] and math.isfinite(bound):
        bound = math.ceil(bound - 1e-6)
    current = state.lower[j]
    if bound <= current + _MIN_IMPROVE * max(1.0, abs(current)):
        return False
    state.lower[j] = bound
    if bound > state.upper[j] + scaled_tol(bound):
        state.mark_infeasible(
            f"bounds of {state.names[j]!r} crossed during propagation "
            f"([{bound:g}, {state.upper[j]:g}])"
        )
    return True


def _propagate_row(state: PresolveState, row: WorkRow) -> tuple[int, bool]:
    """One propagation sweep over ``row``.

    Returns ``(bounds_tightened, removed)``; flags infeasibility on the
    state when the activity interval cannot meet the row bounds.
    """
    act = state.activity(row)
    lo, hi = row.lower, row.upper
    # Infeasible by interval arithmetic alone.
    if act.min > hi + scaled_tol(hi) or act.max < lo - scaled_tol(lo):
        state.mark_infeasible(
            f"row {row.name or '?'}: activity interval "
            f"[{act.min:g}, {act.max:g}] cannot meet bounds "
            f"[{lo:g}, {hi:g}]"
        )
        return 0, False
    # Redundant: implied by the variable bounds alone.
    if ((lo == -_INF or act.min >= lo - scaled_tol(lo))
            and (hi == _INF or act.max <= hi + scaled_tol(hi))):
        row.alive = False
        return 0, True
    tightened = 0
    for j, coeff in list(row.coeffs.items()):
        if coeff == 0.0:
            continue
        if hi != _INF:
            residual = state.residual_min(row, act, j)
            if residual != -_INF:
                implied = (hi - residual) / coeff
                if coeff > 0.0:
                    if _tighten_upper(state, j, implied):
                        tightened += 1
                elif _tighten_lower(state, j, implied):
                    tightened += 1
        if lo != -_INF:
            residual = state.residual_max(row, act, j)
            if residual != _INF:
                implied = (lo - residual) / coeff
                if coeff > 0.0:
                    if _tighten_lower(state, j, implied):
                        tightened += 1
                elif _tighten_upper(state, j, implied):
                    tightened += 1
        if state.infeasible is not None:
            return tightened, False
        if tightened:
            # Bounds moved under this row; refresh the activity so later
            # columns see the tightened interval.
            act = state.activity(row)
    return tightened, False


def propagate(state: PresolveState) -> tuple[int, int]:
    """One full bound-propagation sweep over every live row.

    Returns ``(bounds_tightened, rows_removed)``.
    """
    tightened = 0
    removed = 0
    for row in state.rows:
        if not row.alive:
            continue
        row_tightened, row_removed = _propagate_row(state, row)
        tightened += row_tightened
        removed += 1 if row_removed else 0
        if state.infeasible is not None:
            break
    return tightened, removed


def strengthen_coefficients(state: PresolveState) -> int:
    """Big-M / coefficient strengthening over one-sided rows.

    Works on the canonical ``d.x >= L`` orientation (``<=`` rows are
    negated in and back out).  For a binary ``j`` with ``d_j > 0`` whose
    slack ``s = m + d_j - L`` is positive (``m`` the residual minimum),
    the coefficient shrinks to ``L - m``; for ``d_j < 0`` the
    coefficient and the bound both shift by the slack ``m - L`` — the
    classic tightening of ``e >= d - M(1-b)`` to the tightest implied M.
    The integer-feasible set is unchanged; the LP relaxation tightens.

    Returns the number of coefficients strengthened.
    """
    changed = 0
    for row in state.rows:
        if not row.alive or not row.one_sided:
            continue
        changed += _strengthen_row(state, row)
    return changed


def _strengthen_row(state: PresolveState, row: WorkRow) -> int:
    """Strengthen one one-sided row in place; returns change count."""
    geq = row.upper == _INF
    changed = 0
    for j in list(row.coeffs.keys()):
        if not state.is_binary(j):
            continue
        plan = strengthened_coefficient(state, row, j)
        if plan is None:
            continue
        new_coeff, new_bound = plan
        if new_coeff == 0.0:
            del row.coeffs[j]
        else:
            row.coeffs[j] = new_coeff if geq else -new_coeff
        if geq:
            row.lower = new_bound
        else:
            row.upper = -new_bound
        changed += 1
        if not row.coeffs:
            row.alive = False
            break
    return changed


def strengthened_coefficient(
    state: PresolveState, row: WorkRow, j: int,
) -> tuple[float, float] | None:
    """The strengthening a one-sided ``row`` admits on binary ``j``.

    Returns ``(new_coeff, new_bound)`` in the canonical ``d.x >= L``
    orientation — the caller negates back for ``<=`` rows — or ``None``
    when the coefficient is already as tight as the activity bounds can
    prove.  This is the single source of truth consulted by both the
    transforming pass above and the ``model.loose-big-m`` lint rule.
    """
    if not row.one_sided:
        return None
    geq = row.upper == _INF
    coeff = row.coeffs.get(j, 0.0)
    if coeff == 0.0:
        return None
    d_j = coeff if geq else -coeff
    bound = row.lower if geq else -row.upper
    if not math.isfinite(bound):
        return None
    act = state.activity(row)
    if geq:
        residual = state.residual_min(row, act, j)
    else:
        # For a <= row the canonical form negates every term, so the
        # canonical residual minimum is minus the residual maximum.
        residual_max = state.residual_max(row, act, j)
        residual = -residual_max if residual_max != _INF else -_INF
    if residual == -_INF:
        return None
    if d_j > 0.0:
        slack = residual + d_j - bound
        if slack <= max(_MIN_STRENGTHEN, TOL * abs(d_j)):
            return None
        new_coeff = bound - residual
        if new_coeff <= TOL:
            # The rest alone satisfies the row: it is redundant, not a
            # loose big-M; leave it for the redundancy pass.
            return None
        return new_coeff, bound
    slack = residual - bound
    if slack <= max(_MIN_STRENGTHEN, TOL * abs(d_j)):
        return None
    new_coeff = d_j + slack
    new_bound = bound + slack
    if new_coeff >= -TOL:
        # The indicator side went vacuous: the row is redundant.
        return None
    return new_coeff, new_bound


def propagated_bounds(
    model: Model, *, max_rounds: int = 5,
) -> tuple[list[float], list[float], int]:
    """Fixpoint-propagated variable bounds of ``model``.

    A read-only convenience for analysis rules: runs the bound
    propagation above on a throwaway working state (never mutating
    ``model``) and returns ``(lower, upper, bounds_tightened)`` in the
    model's variable order.  Rows the propagation removes or proves
    infeasible are irrelevant here — only the bounds are reported.
    """
    state = PresolveState(model)
    total = 0
    for _ in range(max_rounds):
        tightened, _removed = propagate(state)
        total += tightened
        if not tightened or state.infeasible is not None:
            break
    return list(state.lower), list(state.upper), total


__all__ = [
    "Activity",
    "propagate",
    "propagated_bounds",
    "strengthen_coefficients",
    "strengthened_coefficient",
]
