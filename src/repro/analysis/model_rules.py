"""Model-level analysis rules: a built MILP before the solver sees it.

All rules here are interval-arithmetic checks over the variable bounds
and constraint rows, read from one shared array pass
(:class:`~repro.analysis.model_scan.ModelScan`) over the model's standard
form — no per-row Python loop, no LP relaxation.  They catch the
model-construction bugs that otherwise surface as an opaque
``infeasible`` (or as silent slack): contradictory bounds, rows no
assignment can satisfy, rows implied by the bounds alone, variables the
model never constrains, big-M constants larger than the tightest value
the bounds imply, and duplicated left-hand sides.  Python work is left
to formatting the findings.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import numpy.typing as npt

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.model_scan import ModelScan, tolerance
from repro.analysis.rules import ModelRule, model_rule

_INF = float("inf")


@model_rule
class VariableBoundsRule(ModelRule):
    """Variable bounds must be orderable and finite where integrality needs."""

    rule_id = "model.variable-bounds"
    default_severity = Severity.ERROR
    title = "variable bounds are contradictory or missing"
    example = (
        "a variable with ``lower=1, upper=0`` (empty domain) or a general "
        "integer left unbounded above"
    )
    hint = "fix the bounds where the variable is created"

    def check_scan(self, scan: ModelScan) -> Iterator[Diagnostic]:
        lower, upper = scan.form.x_lower, scan.form.x_upper
        nan = np.isnan(lower) | np.isnan(upper)
        crossed = lower > upper
        unbounded_integer = (
            (scan.form.integrality == 1) & ~scan.binary
            & (np.isinf(lower) | np.isinf(upper))
        )
        variables = scan.model.variables
        for j in np.flatnonzero(nan | crossed | unbounded_integer).tolist():
            var = variables[j]
            if nan[j]:
                yield self.diagnostic(
                    f"bound is NaN: [{var.lower}, {var.upper}]",
                    location=f"var {var.name!r}", variable=var.name,
                )
            elif crossed[j]:
                yield self.diagnostic(
                    f"lower bound {var.lower:g} exceeds upper bound "
                    f"{var.upper:g}: the domain is empty",
                    location=f"var {var.name!r}", variable=var.name,
                )
            else:
                yield self.diagnostic(
                    f"general integer variable is unbounded "
                    f"([{var.lower:g}, {var.upper:g}]); branch-and-bound "
                    f"cannot enumerate an infinite lattice efficiently",
                    location=f"var {var.name!r}",
                    severity=Severity.INFO,
                    hint="give integer variables finite bounds",
                    variable=var.name,
                )


@model_rule
class ForeignVariableRule(ModelRule):
    """Rows and objective may only reference registered variables."""

    rule_id = "model.foreign-variable"
    default_severity = Severity.ERROR
    title = "a row references a variable the model does not own"
    example = (
        "building a constraint from variables of one ``Model`` and adding "
        "it to another — the index resolves to a different column there"
    )
    hint = "create all variables on the model the constraint is added to"

    def check_scan(self, scan: ModelScan) -> Iterator[Diagnostic]:
        n = len(scan.model.variables)
        for i, bad in scan.foreign_rows.items():
            yield self.diagnostic(
                f"references variable index(es) {bad} but the model "
                f"has {n} variable(s)",
                location=scan.location(i),
                indices=bad,
            )
        bad = scan.foreign_objective
        if bad:
            yield self.diagnostic(
                f"objective references variable index(es) {bad} but the "
                f"model has {n} variable(s)",
                location="objective",
                indices=bad,
            )


@model_rule
class TrivialInfeasibilityRule(ModelRule):
    """No row may be unsatisfiable for every assignment within bounds."""

    rule_id = "model.trivial-infeasibility"
    default_severity = Severity.WARNING
    title = "a row cannot be satisfied by any assignment within bounds"
    example = (
        "``x + y >= 3`` over two binaries, or a coverage row demanding "
        "more anchors than it has candidate variables"
    )
    hint = (
        "the whole model is infeasible because of this row alone; fix the "
        "requirement or the bounds that make it impossible"
    )

    def check_scan(self, scan: ModelScan) -> Iterator[Diagnostic]:
        lo, hi = scan.form.b_lower, scan.form.b_upper
        act_lo, act_hi = scan.declared_activity
        with np.errstate(invalid="ignore"):
            upper_limit = hi + tolerance(hi)
            lower_limit = lo - tolerance(lo)
        crossed = lo > upper_limit
        attainable = ~crossed & ~(np.isnan(act_lo) | np.isnan(act_hi))
        too_high = attainable & (act_lo > upper_limit)
        too_low = attainable & ~too_high & (act_hi < lower_limit)
        for k in np.flatnonzero(crossed | too_high | too_low).tolist():
            i = int(scan.row_ids[k])
            where = scan.location(i)
            lo_k, hi_k = float(lo[k]), float(hi[k])
            activity = (float(act_lo[k]), float(act_hi[k]))
            if crossed[k]:
                yield self.diagnostic(
                    f"row bounds are crossed: lower {lo_k:g} > upper "
                    f"{hi_k:g}",
                    location=where, row=i,
                )
            elif too_high[k]:
                yield self.diagnostic(
                    f"smallest attainable activity {activity[0]:g} already "
                    f"exceeds the upper bound {hi_k:g}",
                    location=where, row=i, activity=activity,
                )
            else:
                yield self.diagnostic(
                    f"largest attainable activity {activity[1]:g} cannot "
                    f"reach the lower bound {lo_k:g}",
                    location=where, row=i, activity=activity,
                )


@model_rule
class VacuousConstraintRule(ModelRule):
    """Rows implied by the variable bounds alone are dead weight."""

    rule_id = "model.vacuous-constraint"
    default_severity = Severity.INFO
    title = "a row is implied by the variable bounds alone"
    example = (
        "``x + y >= 0`` over two binaries — every assignment within "
        "bounds already satisfies it"
    )
    hint = "drop the row; it only inflates the matrix"

    def check_scan(self, scan: ModelScan) -> Iterator[Diagnostic]:
        lo, hi = scan.form.b_lower, scan.form.b_upper
        act_lo, act_hi = scan.declared_activity
        with np.errstate(invalid="ignore"):
            lower_ok = (lo == -_INF) | (act_lo >= lo - tolerance(lo))
            upper_ok = (hi == _INF) | (act_hi <= hi + tolerance(hi))
        vacuous = (
            lower_ok & upper_ok & ~(np.isnan(act_lo) | np.isnan(act_hi))
        )
        constraints = scan.model.constraints
        for k in np.flatnonzero(vacuous).tolist():
            i = int(scan.row_ids[k])
            # A row whose terms all have zero coefficients still counts;
            # only a row without terms is skipped.
            if not scan.row_nnz[k] and not constraints[i].expr.coeffs:
                continue
            yield self.diagnostic(
                f"activity range [{float(act_lo[k]):g}, "
                f"{float(act_hi[k]):g}] always lies within the row bounds "
                f"[{float(lo[k]):g}, {float(hi[k]):g}]",
                location=scan.location(i), row=i,
            )


@model_rule
class UnusedVariableRule(ModelRule):
    """Every variable should appear in a row or the objective."""

    rule_id = "model.unused-variable"
    default_severity = Severity.WARNING
    title = "variables appear in no row and no objective term"
    example = (
        "a binary created by an encoder but never wired into any "
        "constraint — the solver branches on pure noise"
    )
    hint = "remove the variables or wire them into the model"

    def check_scan(self, scan: ModelScan) -> Iterator[Diagnostic]:
        variables = scan.model.variables
        n = len(variables)
        used = scan.form.c != 0.0
        used[scan.form.a_matrix.indices] = True
        for i in scan.foreign_rows:
            for idx, coeff in scan.model.constraints[i].expr.coeffs.items():
                if coeff != 0.0 and 0 <= idx < n:
                    used[idx] = True
        unused = [variables[j].name for j in np.flatnonzero(~used).tolist()]
        if unused:
            shown = ", ".join(unused[:8])
            if len(unused) > 8:
                shown += f", ... ({len(unused) - 8} more)"
            yield self.diagnostic(
                f"{len(unused)} variable(s) unused: {shown}",
                location=f"model {scan.model.name!r}",
                variables=unused,
            )


@model_rule
class LooseBigMRule(ModelRule):
    """Indicator big-M constants should be as tight as the bounds allow.

    The activity analysis runs over *fixpoint-propagated* bounds
    (:func:`repro.analysis.propagation.propagated_bounds`), not the raw
    declared bounds.  This retires a whole class of false positives: a
    row like ``c - 50*b >= -44`` looks like a loose M=50 against
    ``c in [0, 10]``, but when another row forces ``c >= 6`` the
    indicator side is *vacuous* — the row is implied for both values of
    ``b``, the correct fix is deleting it (``model.vacuous-constraint``
    territory), and no M-shrinking advice applies.  With propagated
    bounds the tightest implied constant collapses to ~0 there and the
    rule stays silent.

    Propagation can only acquit, so it runs only when the declared
    bounds already convict some row — models without a loose-looking
    indicator row never pay for the fixpoint.
    """

    rule_id = "model.loose-big-m"
    default_severity = Severity.WARNING
    title = "an indicator's big-M is larger than the bounds require"
    example = (
        "``c >= 5 - 50*(1 - b)`` with ``c in [0, 10]`` — M=50 where M=5 "
        "suffices, which weakens the LP relaxation"
    )
    hint = "shrink the constant to the reported tightest implied value"

    #: Report only when the slack is material (absolute and relative);
    #: micro-coefficient indicator rows (piecewise tails) are numerical
    #: noise, not modelling bugs.
    _ABS_SLACK = 1e-4
    _REL_SLACK = 0.01

    def check_scan(self, scan: ModelScan) -> Iterator[Diagnostic]:
        lo, hi = scan.form.b_lower, scan.form.b_upper
        # Normalize one-sided rows to `sum(d * x) >= bound` form: d = a
        # for `a.x >= lo`, d = -a for `a.x <= hi`.
        lower_sided = (lo != -_INF) & (hi == _INF)
        upper_sided = (lo == -_INF) & (hi != _INF)
        # Big-M analysis targets the classic indicator shape: exactly
        # one binary relaxing a bound over a continuous expression.
        # Rows with several binaries (device-selection hulls) or none
        # couple through other constraints (assignment equalities),
        # which interval analysis cannot see, so they are skipped to
        # avoid false positives.
        rows, cols, coeffs = scan.terms
        on_binary = scan.binary[cols]
        m = lo.shape[0]
        binaries = np.bincount(rows[on_binary], minlength=m)
        others = np.bincount(rows[~on_binary], minlength=m)
        indicator = (
            (lower_sided | upper_sided) & (binaries == 1) & (others > 0)
        )
        if not indicator.any():
            return
        binary_col = np.zeros(m, dtype=np.int64)
        big_m = np.zeros(m)
        binary_col[rows[on_binary]] = cols[on_binary]
        big_m[rows[on_binary]] = np.abs(coeffs[on_binary])
        with np.errstate(invalid="ignore"):
            bound = np.where(lower_sided, lo, -hi)
            # At the binary's relaxing value the row must hold for every
            # assignment; slack beyond that proves the constant is larger
            # than needed.  The *declared* bounds decide whether the
            # constant looks like a modelling bug.
            act_lo = _normalized_min(lower_sided, scan.declared_activity)
            slack = act_lo + big_m - bound
            tightest = big_m - slack
            relative = self._REL_SLACK * big_m
            loose = (
                indicator & np.isfinite(act_lo) & np.isfinite(bound)
                & (slack > np.where(relative > self._ABS_SLACK, relative,
                                    self._ABS_SLACK))
                & (tightest > self._ABS_SLACK)
            )
            if not loose.any():
                return
            # The propagated bounds can only acquit: when they show the
            # indicator side is vacuous (the row holds for either binary
            # value given what the other rows force), the right fix is
            # deleting the row, not shrinking M, so the finding is
            # suppressed as a false positive.
            prop_lo = _normalized_min(lower_sided, scan.propagated_activity)
            prop_tightest = big_m - (prop_lo + big_m - bound)
            acquitted = np.isfinite(prop_lo) & (
                prop_tightest <= self._ABS_SLACK
            )
        variables = scan.model.variables
        for k in np.flatnonzero(loose & ~acquitted).tolist():
            i = int(scan.row_ids[k])
            var = variables[int(binary_col[k])]
            yield self.diagnostic(
                f"coefficient {float(big_m[k]):g} on binary "
                f"{var.name!r} exceeds the tightest implied "
                f"big-M {float(tightest[k]):g}",
                location=scan.location(i),
                row=i,
                variable=var.name,
                coefficient=float(big_m[k]),
                tightest=float(tightest[k]),
            )


def _normalized_min(
    lower_sided: npt.NDArray[np.bool_],
    activity: tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]],
) -> npt.NDArray[np.float64]:
    """Minimum of ``d.x``: the row's minimum, or minus its maximum.

    Negating every term of a sum negates the sum exactly (IEEE rounding
    is sign-symmetric), so ``-max(a.x)`` is the left-to-right sum over
    ``d = -a`` up to the sign of a zero result, which no threshold sees.
    """
    low, high = activity
    return np.where(lower_sided, low, -high)


@model_rule
class DuplicateRowRule(ModelRule):
    """Rows sharing one left-hand side should be merged."""

    rule_id = "model.duplicate-row"
    default_severity = Severity.INFO
    title = "several rows share the same left-hand side"
    example = (
        "adding ``x + y <= 1`` and ``x + y >= 1`` as separate rows instead "
        "of one equality (or one range row)"
    )
    hint = "merge the rows into a single range constraint"

    def check_scan(self, scan: ModelScan) -> Iterator[Diagnostic]:
        constraints = scan.model.constraints
        for indices in _duplicate_groups(scan):
            names = [
                constraints[i].name or f"#{i}" for i in indices[:4]
            ]
            shown = ", ".join(names)
            if len(indices) > 4:
                shown += f", ... ({len(indices) - 4} more)"
            yield self.diagnostic(
                f"{len(indices)} rows share one left-hand side: {shown}",
                location=scan.location(indices[0]),
                rows=indices,
            )


def _duplicate_groups(scan: ModelScan) -> list[list[int]]:
    """Model rows sharing one left-hand side, grouped, in row order.

    A row's left-hand side is its set of ``(column, coefficient)``
    nonzeros — one canonical CSR row.  Each row is hashed by summing a
    64-bit mix of its entries (wrapping integer sums, so order-free and
    exact), rows are bucketed by ``(hash, nonzero count)``, and only
    buckets of two or more rows are compared entry by entry.  Rows with
    a NaN coefficient never equal another row.  Foreign rows take part
    through their nonzeros as written (their foreign indices included).
    """
    a = scan.form.a_matrix
    indptr = a.indptr.astype(np.int64)
    cols = a.indices.astype(np.int64)
    vals = a.data
    ids = scan.row_ids
    if scan.foreign_rows:
        extra_cols: list[int] = []
        extra_vals: list[float] = []
        extra_nnz: list[int] = []
        for i in scan.foreign_rows:
            terms = sorted(
                (idx, coeff)
                for idx, coeff in scan.model.constraints[i].expr.coeffs.items()
                if coeff != 0.0
            )
            extra_cols.extend(idx for idx, _ in terms)
            extra_vals.extend(coeff for _, coeff in terms)
            extra_nnz.append(len(terms))
        cols = np.concatenate([cols, np.array(extra_cols, dtype=np.int64)])
        vals = np.concatenate([vals, np.array(extra_vals, dtype=float)])
        indptr = np.concatenate(
            [indptr, indptr[-1] + np.cumsum(extra_nnz, dtype=np.int64)]
        )
        ids = np.concatenate(
            [ids, np.array(list(scan.foreign_rows), dtype=np.int64)]
        )
    nnz = np.diff(indptr)
    rows = np.repeat(np.arange(nnz.shape[0]), nnz)
    mixed = np.zeros(cols.shape[0] + 1, dtype=np.uint64)
    np.cumsum(_mix(cols, vals), out=mixed[1:])
    row_hash = mixed[indptr[1:]] - mixed[indptr[:-1]]
    has_nan = np.bincount(rows[np.isnan(vals)], minlength=nnz.shape[0]) > 0
    eligible = np.flatnonzero((nnz > 0) & ~has_nan)
    order = eligible[np.lexsort((nnz[eligible], row_hash[eligible]))]
    same = (row_hash[order[1:]] == row_hash[order[:-1]]) & (
        nnz[order[1:]] == nnz[order[:-1]]
    )
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    ends = np.append(starts[1:], order.shape[0])
    shared = ends - starts > 1
    groups: list[list[int]] = []
    for start, end in zip(starts[shared].tolist(), ends[shared].tolist()):
        exact: dict[bytes, list[int]] = {}
        for r in order[start:end].tolist():
            lo, hi = indptr[r], indptr[r + 1]
            key = cols[lo:hi].tobytes() + vals[lo:hi].tobytes()
            exact.setdefault(key, []).append(int(ids[r]))
        groups.extend(
            sorted(members) for members in exact.values() if len(members) > 1
        )
    groups.sort()
    return groups


def _mix(
    cols: npt.NDArray[np.int64], vals: npt.NDArray[np.float64],
) -> npt.NDArray[np.uint64]:
    """A 64-bit hash of each ``(column, coefficient)`` entry (splitmix64)."""
    x = vals.view(np.uint64) ^ (
        cols.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    )
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))
