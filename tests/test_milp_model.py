"""Tests for model assembly into standard form."""

import numpy as np
import pytest

from repro.analysis import analyze_model
from repro.milp import (
    BranchAndBoundSolver,
    HighsSolver,
    Model,
    SolveStatus,
    lin_sum,
)
from repro.milp.expr import Constraint, LinExpr
from repro.milp.model import ForeignIndexError


@pytest.fixture()
def model():
    return Model("asm")


class TestVariables:
    def test_duplicate_names_rejected(self, model):
        model.binary("x")
        with pytest.raises(ValueError, match="duplicate"):
            model.binary("x")

    def test_crossed_bounds_rejected(self, model):
        with pytest.raises(ValueError):
            model.add_var("x", lower=2.0, upper=1.0)

    def test_indices_sequential(self, model):
        vars_ = [model.binary(f"x{i}") for i in range(5)]
        assert [v.index for v in vars_] == list(range(5))

    def test_var_by_name(self, model):
        x = model.binary("x")
        assert model.var_by_name("x") is x
        with pytest.raises(KeyError):
            model.var_by_name("y")

    def test_nan_bounds_rejected(self, model):
        with pytest.raises(ValueError, match="NaN"):
            model.add_var("x", lower=float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            model.add_var("y", upper=float("nan"))


class TestForeignVariables:
    def test_add_rejects_variable_from_another_model(self, model):
        other = Model("other")
        for _ in range(3):
            other.binary(f"pad{_}")
        alien = other.binary("alien")  # index 3; `model` owns none
        with pytest.raises(ValueError, match="different model"):
            model.add(alien + 0.0 >= 1, name="bad")

    def test_add_range_rejects_foreign_expression(self, model):
        other = Model("other")
        other.binary("pad")
        alien = other.binary("alien")
        with pytest.raises(ValueError, match="different model"):
            model.add_range(alien + 0.0, 0.0, 1.0, name="bad")

    def test_objective_rejects_foreign_expression(self, model):
        other = Model("other")
        other.binary("pad")
        alien = other.binary("alien")
        with pytest.raises(ValueError, match="different model"):
            model.minimize(alien + 0.0)
        with pytest.raises(ValueError, match="different model"):
            model.maximize(alien + 0.0)

    def test_same_index_from_another_model_is_accepted(self, model):
        # Index-aliasing across models is undetectable by construction
        # checks; only out-of-range indexes can be rejected here.
        x = model.binary("x")
        other = Model("other")
        other_x = other.binary("ox")
        assert other_x.index == x.index
        model.add(other_x + 0.0 <= 1)


class TestConstraints:
    def test_add_range_rejects_crossed_bounds(self, model):
        x = model.binary("x")
        with pytest.raises(ValueError, match="lower"):
            model.add_range(x, 2.0, 1.0, name="crossed")

    def test_add_requires_constraint(self, model):
        with pytest.raises(TypeError):
            model.add(True)  # e.g. accidental `x <= x` python-level bool

    def test_add_range(self, model):
        x = model.binary("x")
        con = model.add_range(x + 0.0, 0.25, 0.75, name="rng")
        assert con.lower == 0.25 and con.upper == 0.75
        assert con.name == "rng"

    def test_named_constraint(self, model):
        x = model.binary("x")
        con = model.add(x <= 1, name="cap")
        assert con.name == "cap"


class TestObjective:
    def test_maximize_negates(self, model):
        x = model.binary("x")
        model.maximize(2 * x)
        assert model.objective.coeffs[x.index] == -2.0

    def test_minimize_var_directly(self, model):
        x = model.continuous("x", 0, 1)
        model.minimize(x)
        assert model.objective.coeffs[x.index] == 1.0


class TestStandardForm:
    def test_matrix_shape_and_content(self, model):
        x = model.binary("x")
        y = model.continuous("y", -1.0, 2.0)
        model.add(x + 2 * y <= 4)
        model.add(x - y >= -1)
        model.add(x + y == 1)
        model.minimize(x + 3 * y)
        form = model.to_standard_form()
        assert form.a_matrix.shape == (3, 2)
        np.testing.assert_allclose(form.c, [1.0, 3.0])
        np.testing.assert_allclose(form.x_lower, [0.0, -1.0])
        np.testing.assert_allclose(form.x_upper, [1.0, 2.0])
        np.testing.assert_array_equal(form.integrality, [1, 0])
        dense = form.a_matrix.toarray()
        np.testing.assert_allclose(dense[0], [1.0, 2.0])
        assert form.b_upper[0] == 4.0 and form.b_lower[0] == -np.inf
        assert form.b_lower[1] == -1.0 and form.b_upper[1] == np.inf
        assert form.b_lower[2] == form.b_upper[2] == 1.0

    def test_constant_folded_into_bounds(self, model):
        x = model.binary("x")
        model.add(x + 5 <= 7)
        form = model.to_standard_form()
        assert form.b_upper[0] == pytest.approx(2.0)

    def test_empty_model(self, model):
        form = model.to_standard_form()
        assert form.a_matrix.shape == (0, 0)

    def test_zero_coefficients_dropped(self, model):
        x, y = model.binary("x"), model.binary("y")
        model.add(x + 0 * y <= 1)
        form = model.to_standard_form()
        assert form.a_matrix.nnz == 1


class TestStats:
    def test_counts(self, model):
        x = model.binary("x")
        y = model.continuous("y", 0, 1)
        model.add(x + y <= 1)
        stats = model.stats()
        assert stats.num_vars == 2
        assert stats.num_binary == 1
        assert stats.num_constraints == 1
        assert stats.num_nonzeros == 2
        assert "2 vars" in str(stats)


def small_model() -> Model:
    m = Model("shared")
    x = m.binary("x")
    y = m.continuous("y", -1.0, 2.0)
    m.add(x + 2 * y <= 4, name="cap")
    m.add(y + x >= 0.5, name="cover")
    m.minimize(x + 3 * y)
    return m


def _arrays(form):
    a = form.a_matrix
    return [
        form.c, form.b_lower, form.b_upper, form.x_lower, form.x_upper,
        form.integrality, form.term_order, a.data, a.indices, a.indptr,
    ]


class TestSharedStandardForm:
    def test_arrays_are_read_only(self):
        form = small_model().to_standard_form()
        for array in _arrays(form):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_unchanged_model_returns_the_same_form(self):
        m = small_model()
        assert m.to_standard_form() is m.to_standard_form()

    def test_adding_a_row_invalidates(self):
        m = small_model()
        before = m.to_standard_form()
        m.add(m.variables[0] <= 1, name="extra")
        after = m.to_standard_form()
        assert after is not before
        assert after.a_matrix.shape == (3, 2)
        assert before.a_matrix.shape == (2, 2)

    def test_adding_a_range_row_invalidates(self):
        m = small_model()
        before = m.to_standard_form()
        m.add_range(m.variables[1], -0.5, 0.5, name="band")
        after = m.to_standard_form()
        assert after.a_matrix.shape[0] == before.a_matrix.shape[0] + 1
        assert after.b_lower[-1] == -0.5 and after.b_upper[-1] == 0.5

    def test_adding_a_variable_invalidates(self):
        m = small_model()
        before = m.to_standard_form()
        m.binary("z")
        after = m.to_standard_form()
        assert after.a_matrix.shape == (2, 3)
        assert after.c.shape == (3,)
        assert before.c.shape == (2,)

    def test_a_new_objective_invalidates(self):
        m = small_model()
        before = m.to_standard_form()
        m.maximize(m.variables[1])
        after = m.to_standard_form()
        assert after is not before
        np.testing.assert_array_equal(after.c, [0.0, -1.0])
        np.testing.assert_array_equal(before.c, [1.0, 3.0])
        m.minimize(m.variables[0])
        np.testing.assert_array_equal(m.to_standard_form().c, [1.0, 0.0])

    def test_reassigned_variable_bounds_are_read_again(self):
        m = small_model()
        before = m.to_standard_form()
        y = m.variables[1]
        y.lower = y.upper = 1.5  # fix by bounds, as the gadget tests do
        after = m.to_standard_form()
        assert after is not before
        assert after.x_lower[1] == after.x_upper[1] == 1.5
        assert after.a_matrix is before.a_matrix  # the rows are reused

    def test_relaxed_copy_gets_its_own_form(self):
        m = small_model()
        original = m.to_standard_form()
        clone, deferred = m.relaxed_copy(lambda row: row.name == "cover")
        assert [row.name for row in deferred] == ["cover"]
        relaxed = clone.to_standard_form()
        assert relaxed is not original
        assert relaxed.a_matrix.shape == (1, 2)
        clone.add(deferred[0])
        assert clone.to_standard_form().a_matrix.shape == (2, 2)
        assert m.to_standard_form() is original

    def test_term_order_replays_rows_as_written(self):
        m = Model()
        a, b, c = m.binary("a"), m.binary("b"), m.binary("c")
        m.add(LinExpr({c.index: 3.0, a.index: 1.0, b.index: 2.0}) <= 9)
        m.add(LinExpr({b.index: 5.0, a.index: 4.0}) >= 0)
        form = m.to_standard_form()
        np.testing.assert_array_equal(form.a_matrix.indices, [0, 1, 2, 0, 1])
        np.testing.assert_array_equal(
            form.a_matrix.data[form.term_order], [3.0, 1.0, 2.0, 5.0, 4.0]
        )

    def test_foreign_indices_are_refused(self):
        m = Model("corrupt")
        m.binary("x")
        m._constraints.append(Constraint(LinExpr({0: 1.0, 7: 0.0}), 0, 1))
        m._objective = LinExpr({-1: 2.0})
        with pytest.raises(ForeignIndexError) as info:
            m.to_standard_form()
        assert info.value.rows == {0: [7]}
        assert info.value.objective == [-1]


def knapsack_model():
    m = Model("knapsack")
    values = [6, 5, 4, 3]
    weights = [4, 3, 2, 1.5]
    xs = [m.binary(f"x{i}") for i in range(4)]
    m.add(lin_sum([w * x for w, x in zip(weights, xs)]) <= 6)
    m.maximize(lin_sum([v * x for v, x in zip(values, xs)]))
    return m


@pytest.mark.parametrize(
    "solver", [HighsSolver(), BranchAndBoundSolver()], ids=lambda s: s.name,
)
class TestSolversOnTheSharedForm:
    """The backends read the cached form the analyzer built first."""

    def test_solution_unchanged_after_analysis(self, solver):
        fresh = solver.solve(knapsack_model())
        shared = knapsack_model()
        analyze_model(shared)
        first = solver.solve(shared)
        second = solver.solve(shared)
        for sol in (first, second):
            assert sol.status == SolveStatus.OPTIMAL
            assert sol.objective == fresh.objective
            np.testing.assert_array_equal(sol.x, fresh.x)

    def test_warm_started_solution_unchanged(self, solver):
        fresh = solver.solve(knapsack_model())
        shared = knapsack_model()
        analyze_model(shared)
        shared.hints["warm_start"] = {
            "x": list(fresh.x), "objective": fresh.objective,
            "source": "test",
        }
        sol = solver.solve(shared)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(fresh.objective)
        assert sol.extra["warm_start"]["status"] == "accepted"
