"""The MILP model container.

A :class:`Model` owns a variable table, a constraint list and a (minimized)
linear objective, and assembles them into the sparse standard form consumed
by the solver backends:

    minimize    c @ x
    subject to  b_lo <= A @ x <= b_hi
                lb <= x <= ub,  x_i integer for i in integrality

The rows are assembled once and the form is cached on the model, shared
by every consumer (the model analyzer, the warm-start heuristic and the
solver backends), so its arrays are read-only.

Problem-size statistics (variable/constraint/nonzero counts) are first-class
because the paper's Tables 3-4 report them directly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt
from scipy import sparse

from repro.milp.expr import Constraint, LinExpr, Var


@dataclass(frozen=True)
class StandardForm:
    """Matrix standard form of a model, ready for a solver backend.

    Every array is read-only, ``a_matrix``'s included: the form is cached
    on its model and shared, so copy an array before modifying it.
    ``a_matrix`` is canonical CSR (column indices sorted within each row,
    explicit zeros dropped).  ``term_order`` lists, row by row, where each
    of the row's terms sits in ``a_matrix.data``, in the order the row's
    expression holds them: ``a_matrix.data[term_order]`` replays every row
    as written, which a pass that must round exactly like a per-term loop
    needs.
    """

    c: npt.NDArray[np.float64]
    a_matrix: sparse.csr_matrix
    b_lower: npt.NDArray[np.float64]
    b_upper: npt.NDArray[np.float64]
    x_lower: npt.NDArray[np.float64]
    x_upper: npt.NDArray[np.float64]
    integrality: npt.NDArray[np.int8]  # 1 where the variable is integer, else 0
    term_order: npt.NDArray[np.intp]


class ForeignIndexError(ValueError):
    """Rows or the objective reference variables the model does not own.

    :meth:`Model.add` rejects such rows, so only a model edited past its
    checks gets here.  ``rows`` maps each offending row's position to its
    sorted foreign indices; ``objective`` holds the objective's.
    """

    def __init__(
        self, model: str, rows: dict[int, list[int]], objective: list[int],
    ) -> None:
        where = [f"row #{i}" for i in list(rows)[:4]]
        if objective:
            where.append("the objective")
        super().__init__(
            f"model {model!r}: {', '.join(where)} reference(s) variables "
            f"the model does not own"
        )
        self.rows = rows
        self.objective = objective


def _read_only(*arrays: npt.NDArray[Any]) -> None:
    for array in arrays:
        array.flags.writeable = False


@dataclass(frozen=True)
class _RowBlock:
    """The row half of a standard form, cached on its model."""

    key: tuple[int, int]
    a_matrix: sparse.csr_matrix
    b_lower: npt.NDArray[np.float64]
    b_upper: npt.NDArray[np.float64]
    term_order: npt.NDArray[np.intp]


@dataclass(frozen=True)
class ModelStats:
    """Size statistics reported in the paper's scalability tables."""

    num_vars: int
    num_binary: int
    num_constraints: int
    num_nonzeros: int

    def __str__(self) -> str:
        return (
            f"{self.num_vars} vars ({self.num_binary} binary), "
            f"{self.num_constraints} constraints, {self.num_nonzeros} nonzeros"
        )


class Model:
    """A mixed integer linear program under construction."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._vars: list[Var] = []
        self._constraints: list[Constraint] = []
        self._objective = LinExpr()
        self._names_seen: set[str] = set()
        self._rows: _RowBlock | None = None
        self._form: StandardForm | None = None
        #: Advisory facts attached to the model by analysis passes —
        #: backends may exploit hints but must stay correct ignoring
        #: them, and must re-validate anything a hint claims.  Known keys:
        #:
        #: ``warm_start`` (dict)
        #:     A candidate assignment over *this* model's variable space:
        #:     ``{"x": sequence of len(variables) floats,
        #:     "objective": float (user space), "source": str}``.
        #:     Backends must check it against bounds, integrality and
        #:     all rows before adopting it as an incumbent.
        self.hints: dict[str, Any] = {}

    # -- variables -----------------------------------------------------------

    def add_var(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = float("inf"),
        integer: bool = False,
    ) -> Var:
        """Add a variable and return its handle.

        Names must be unique; encoders build names from structured keys
        (e.g. ``x[path3][4,7]``) so a collision indicates an encoder bug.
        """
        if math.isnan(lower) or math.isnan(upper):
            raise ValueError(
                f"variable {name!r}: bounds must not be NaN "
                f"([{lower}, {upper}])"
            )
        if lower > upper:
            raise ValueError(f"variable {name!r}: lower {lower} > upper {upper}")
        if name in self._names_seen:
            raise ValueError(f"duplicate variable name {name!r}")
        self._names_seen.add(name)
        var = Var(len(self._vars), name, float(lower), float(upper), integer)
        self._vars.append(var)
        return var

    def binary(self, name: str) -> Var:
        """Add a 0/1 variable."""
        return self.add_var(name, 0.0, 1.0, integer=True)

    def continuous(
        self, name: str, lower: float = float("-inf"), upper: float = float("inf"),
    ) -> Var:
        """Add a continuous variable (unbounded by default)."""
        return self.add_var(name, lower, upper, integer=False)

    def integer(
        self, name: str, lower: float = 0.0, upper: float = float("inf"),
    ) -> Var:
        """Add a general integer variable."""
        return self.add_var(name, lower, upper, integer=True)

    # -- constraints and objective --------------------------------------------

    def _check_registered(self, expr: LinExpr, what: str) -> None:
        """Reject expressions referencing variables this model doesn't own.

        Constraints are stored by variable *index*; an index from another
        model (or a hand-built one) would silently alias an unrelated
        column in the standard form, so it is rejected here instead.
        """
        n = len(self._vars)
        for idx in expr.coeffs:
            if not 0 <= idx < n:
                raise ValueError(
                    f"{what} references variable index {idx}, but model "
                    f"{self.name!r} has {n} variable(s); was the variable "
                    f"created on a different model?"
                )

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint built from expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "expected a Constraint (did the comparison collapse to bool?)"
            )
        if name:
            constraint.name = name
        self._check_registered(
            constraint.expr, f"constraint {constraint.name!r}"
        )
        self._constraints.append(constraint)
        return constraint

    def add_range(
        self, expr: LinExpr | Var, lower: float, upper: float, name: str = "",
    ) -> Constraint:
        """Add ``lower <= expr <= upper`` in one row."""
        if lower > upper:
            raise ValueError(
                f"range row {name!r}: lower {lower} > upper {upper}"
            )
        if isinstance(expr, Var):
            expr = expr + 0.0
        self._check_registered(expr, f"range row {name!r}")
        constraint = Constraint(expr, lower, upper, name)
        self._constraints.append(constraint)
        return constraint

    def minimize(self, objective: LinExpr | Var) -> None:
        """Set the (minimized) objective."""
        if isinstance(objective, Var):
            objective = objective + 0.0
        self._check_registered(objective, "objective")
        self._objective = objective

    def maximize(self, objective: LinExpr | Var) -> None:
        """Set a maximized objective (stored negated)."""
        if isinstance(objective, Var):
            objective = objective + 0.0
        self._check_registered(objective, "objective")
        self._objective = objective * -1.0

    @property
    def objective(self) -> LinExpr:
        """The minimized objective expression."""
        return self._objective

    @property
    def variables(self) -> list[Var]:
        """The variable table, in index order."""
        return self._vars

    @property
    def constraints(self) -> list[Constraint]:
        """All constraints, in insertion order."""
        return self._constraints

    def var_by_name(self, name: str) -> Var:
        """Look up a variable by its unique name (O(n); debugging aid)."""
        for var in self._vars:
            if var.name == name:
                return var
        raise KeyError(f"no variable named {name!r}")

    def relaxed_copy(
        self, defer: "Callable[[Constraint], bool]",
    ) -> "tuple[Model, list[Constraint]]":
        """A working copy without the rows selected by ``defer``.

        The copy shares this model's variable handles (immutable, same
        index space) and objective, and starts from a snapshot of its
        hints; its constraint list holds only the rows ``defer`` did
        *not* select.  The deferred rows are returned, and their variable
        indices stay valid in the copy, so a caller may :meth:`add` them
        back.
        """
        clone = Model(f"{self.name}:relaxed")
        clone._vars = list(self._vars)
        clone._names_seen = set(self._names_seen)
        clone._objective = self._objective
        clone.hints = dict(self.hints)
        deferred: list[Constraint] = []
        for constraint in self._constraints:
            if defer(constraint):
                deferred.append(constraint)
            else:
                clone._constraints.append(constraint)
        return clone, deferred

    # -- assembly --------------------------------------------------------------

    def stats(self) -> ModelStats:
        """Size statistics without building matrices."""
        nonzeros = sum(len(c.expr.coeffs) for c in self._constraints)
        num_binary = sum(1 for v in self._vars if v.is_binary)
        return ModelStats(
            num_vars=len(self._vars),
            num_binary=num_binary,
            num_constraints=len(self._constraints),
            num_nonzeros=nonzeros,
        )

    def to_standard_form(self) -> StandardForm:
        """The sparse standard form, cached and shared by its consumers.

        Rows and variables are only ever appended, so their counts
        version the assembled rows: they are rebuilt only after
        :meth:`add`, :meth:`add_range` or variable creation.  The
        objective vector, variable bounds and integrality are cheap and
        re-read on every call, since the objective may be replaced and a
        :class:`Var`'s bounds reassigned to fix it; while they are
        unchanged the same form object comes back.

        Raises :class:`ForeignIndexError` when a row or the objective
        references a variable index the model does not own.
        """
        n = len(self._vars)
        coeffs = self._objective.coeffs
        obj_idx = np.fromiter(coeffs.keys(), np.int64, len(coeffs))
        obj_foreign = sorted(obj_idx[(obj_idx < 0) | (obj_idx >= n)].tolist())
        try:
            rows = self._row_block()
        except ForeignIndexError as err:
            raise ForeignIndexError(self.name, err.rows, obj_foreign) from None
        if obj_foreign:
            raise ForeignIndexError(self.name, {}, obj_foreign)
        c = np.zeros(n)
        c[obj_idx] = np.fromiter(coeffs.values(), np.float64, len(coeffs))
        bounds = np.array(
            [(v.lower, v.upper) for v in self._vars], dtype=float,
        ).reshape(n, 2)
        integrality = np.fromiter(
            (1 if v.is_integer else 0 for v in self._vars), np.int8, n,
        )
        form = self._form
        if (
            form is not None
            and form.a_matrix is rows.a_matrix
            and np.array_equal(form.c, c, equal_nan=True)
            and np.array_equal(form.x_lower, bounds[:, 0], equal_nan=True)
            and np.array_equal(form.x_upper, bounds[:, 1], equal_nan=True)
            and np.array_equal(form.integrality, integrality)
        ):
            return form
        x_lower = bounds[:, 0].copy()
        x_upper = bounds[:, 1].copy()
        _read_only(c, x_lower, x_upper, integrality)
        self._form = StandardForm(
            c=c,
            a_matrix=rows.a_matrix,
            b_lower=rows.b_lower,
            b_upper=rows.b_upper,
            x_lower=x_lower,
            x_upper=x_upper,
            integrality=integrality,
            term_order=rows.term_order,
        )
        return self._form

    def _row_block(self) -> _RowBlock:
        """The assembled rows for the current row and variable counts."""
        key = (len(self._constraints), len(self._vars))
        if self._rows is not None and self._rows.key == key:
            return self._rows
        n = len(self._vars)
        m = len(self._constraints)
        cols: list[int] = []
        vals: list[float] = []
        lengths: list[int] = []
        lowers: list[float] = []
        uppers: list[float] = []
        for constraint in self._constraints:
            coeffs, lo, hi = constraint.normalized()
            cols.extend(coeffs)
            vals.extend(coeffs.values())
            lengths.append(len(coeffs))
            lowers.append(lo)
            uppers.append(hi)
        col = np.fromiter(cols, np.int64, len(cols))
        val = np.fromiter(vals, np.float64, len(vals))
        row = np.repeat(np.arange(m), lengths)
        bad = (col < 0) | (col >= n)
        if bad.any():
            foreign: dict[int, list[int]] = {}
            for i, idx in zip(row[bad].tolist(), col[bad].tolist()):
                foreign.setdefault(i, []).append(idx)
            raise ForeignIndexError(
                self.name, {i: sorted(idx) for i, idx in foreign.items()}, [],
            )
        b_lower = np.array(lowers, dtype=float)
        b_upper = np.array(uppers, dtype=float)
        keep = val != 0.0
        row, col, val = row[keep], col[keep], val[keep]
        # Insertion order within each row -> canonical (column-sorted).
        canonical = np.lexsort((col, row))
        term_order = np.empty_like(canonical)
        term_order[canonical] = np.arange(canonical.shape[0])
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=m), out=indptr[1:])
        index_dtype = np.int32 if max(n, indptr[-1]) < 2**31 else np.int64
        a_matrix = sparse.csr_matrix(
            (
                val[canonical],
                col[canonical].astype(index_dtype),
                indptr.astype(index_dtype),
            ),
            shape=(m, n),
        )
        a_matrix.has_canonical_format = True
        _read_only(
            a_matrix.data, a_matrix.indices, a_matrix.indptr,
            b_lower, b_upper, term_order,
        )
        self._rows = _RowBlock(key, a_matrix, b_lower, b_upper, term_order)
        return self._rows
