"""One array pass over a built model, shared by every model rule.

:class:`ModelScan` reads a :class:`~repro.milp.model.Model` through its
shared :class:`~repro.milp.model.StandardForm` — the same assembly the
warm-start heuristic and the solver backends use — and derives what the
rules in :mod:`repro.analysis.model_rules` need as whole-model arrays:
row activity intervals, per-row term counts, binary masks.  Each derived
array is computed on first use, so a single rule pays only for what it
reads, and :func:`~repro.analysis.analyzer.analyze_model` builds one scan
for all of them.

Row activities are summed term by term in each row's expression order
(``StandardForm.term_order``) starting from ``0.0``, so every activity is
bit-identical to a per-term Python loop; thresholds compared against
them therefore decide exactly as such a loop would.

A model whose rows or objective reference variables it does not own
(only reachable by editing a model past :meth:`Model.add`'s checks) has
no standard form.  The scan then reads a copy without the offending rows
and objective terms (:attr:`owned`, which bound propagation runs on too),
maps row positions back through :attr:`row_ids`, and records the foreign
references for ``model.foreign-variable``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any

import numpy as np
import numpy.typing as npt
from scipy import sparse

from repro.analysis import propagation
from repro.milp.expr import LinExpr
from repro.milp.model import ForeignIndexError, Model, StandardForm

FloatArray = npt.NDArray[np.float64]
BoolArray = npt.NDArray[np.bool_]
IndexArray = npt.NDArray[np.integer[Any]]


class ModelScan:
    """Whole-model arrays of a built model, for the model rules."""

    def __init__(self, model: Model) -> None:
        self.model = model
        #: Row position -> its variable indices the model does not own.
        self.foreign_rows: dict[int, list[int]] = {}
        #: Objective variable indices the model does not own.
        self.foreign_objective: list[int] = []
        #: The model the arrays describe: ``model`` itself, or its copy
        #: without foreign references.
        self.owned = model
        row_ids = np.arange(len(model.constraints))
        try:
            form = model.to_standard_form()
        except ForeignIndexError as err:
            self.foreign_rows = err.rows
            self.foreign_objective = err.objective
            self.owned, row_ids = _owned_part(model, err)
            form = self.owned.to_standard_form()
        #: The standard form the arrays come from.
        self.form: StandardForm = form
        #: Model row position of each standard-form row.
        self.row_ids: IndexArray = row_ids

    # -- variables -----------------------------------------------------------

    @cached_property
    def binary(self) -> BoolArray:
        """Integer variables with 0/1 bounds (``Var.is_binary``)."""
        form = self.form
        return (
            (form.integrality == 1)
            & (form.x_lower == 0.0)
            & (form.x_upper == 1.0)
        )

    # -- rows ----------------------------------------------------------------

    @cached_property
    def terms(self) -> tuple[IndexArray, IndexArray, FloatArray]:
        """``(row, column, coefficient)`` of every nonzero, rows as written."""
        a = self.form.a_matrix
        order = self.form.term_order
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        return rows, a.indices[order], a.data[order]

    @cached_property
    def row_nnz(self) -> IndexArray:
        """Nonzero count of each row."""
        return np.diff(self.form.a_matrix.indptr)

    def row_sums(self, values: FloatArray) -> FloatArray:
        """Per-row sums of per-term ``values`` given in :attr:`terms` order.

        Accumulated left to right from ``0.0`` (a CSR mat-vec against
        ones), which rounds exactly like ``total += value`` over the
        row's terms.
        """
        a = self.form.a_matrix
        summed = sparse.csr_matrix(
            (values, self.terms[1], a.indptr), shape=a.shape,
        )
        return np.asarray(summed @ np.ones(a.shape[1]), dtype=np.float64)

    def activity(
        self, lower: FloatArray, upper: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        """Each row's activity interval over the given variable bounds.

        A positive coefficient takes the lower bound into the row's
        minimum, anything else (negative or NaN) the upper bound.
        """
        _rows, cols, coeffs = self.terms
        positive = coeffs > 0.0
        with np.errstate(invalid="ignore"):
            low = coeffs * np.where(positive, lower[cols], upper[cols])
            high = coeffs * np.where(positive, upper[cols], lower[cols])
        return self.row_sums(low), self.row_sums(high)

    @cached_property
    def declared_activity(self) -> tuple[FloatArray, FloatArray]:
        """Row activity intervals over the declared variable bounds."""
        return self.activity(self.form.x_lower, self.form.x_upper)

    @cached_property
    def propagated_activity(self) -> tuple[FloatArray, FloatArray]:
        """Row activity intervals over fixpoint-propagated bounds.

        Runs :func:`repro.analysis.propagation.propagated_bounds` on
        :attr:`owned`, so only read it when a finding depends on it.
        """
        lower, upper, _ = propagation.propagated_bounds(self.owned)
        return self.activity(
            np.array(lower, dtype=float), np.array(upper, dtype=float),
        )

    def location(self, row: int) -> str:
        """How findings name model row ``row``."""
        name = self.model.constraints[row].name
        return f"row {name!r}" if name else f"row #{row}"


def tolerance(reference: FloatArray) -> FloatArray:
    """Feasibility tolerance scaled to the magnitude of ``reference``.

    ``1e-9`` for infinite references, else ``1e-9 * max(1, |reference|)``
    (NaN counts as magnitude 1, as Python's ``max`` would have it).
    """
    magnitude = np.abs(reference)
    scaled = 1e-9 * np.where(magnitude > 1.0, magnitude, 1.0)
    return np.where(np.isinf(reference), 1e-9, scaled)


def _owned_part(
    model: Model, err: ForeignIndexError,
) -> tuple[Model, IndexArray]:
    """``model`` without its foreign references, and its rows' positions."""
    foreign = {id(model.constraints[i]) for i in err.rows}
    owned, _ = model.relaxed_copy(lambda row: id(row) in foreign)
    if err.objective:
        n = len(model.variables)
        owned.minimize(LinExpr({
            idx: coeff for idx, coeff in model.objective.coeffs.items()
            if 0 <= idx < n
        }))
    row_ids = np.array(
        [i for i in range(len(model.constraints)) if i not in err.rows],
        dtype=np.int64,
    )
    return owned, row_ids
