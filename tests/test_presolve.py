"""Tests for the presolve engine (repro.analysis.presolve).

Three layers:

* unit tests per reduction pass on tiny hand-built MILPs,
* engine/postsolve integration (objective exactness, infeasibility
  proofs, solver wiring, the B&B bound hint),
* hypothesis-randomized round-trips: presolve a random feasible MILP,
  solve the reduced model, postsolve, and check the restored assignment
  is feasible in the *original* model with the exact same objective as
  solving the original directly.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import Severity
from repro.analysis.presolve import (
    PRESOLVE_MODES,
    ColumnMerge,
    PostsolveMap,
    combinatorial_lower_bound,
    presolve,
    propagated_bounds,
    restores_cleanly,
)
from repro.analysis.presolve.bounds import _covering_gain
from repro.analysis.presolve.propagation import (
    propagate,
    strengthen_coefficients,
    strengthened_coefficient,
)
from repro.analysis.presolve.reductions import (
    detect_implied_integrality,
    fix_constant_columns,
    merge_duplicate_rows,
    merge_parallel_columns,
)
from repro.analysis.presolve.state import PresolveState
from repro.analysis.presolve.symmetry import break_symmetry, find_orbits
from repro.core import DataCollectionExplorer
from repro.core.options import SolveOptions
from repro.milp import BranchAndBoundSolver, HighsSolver, SolveStatus
from repro.milp.expr import LinExpr
from repro.milp.model import Model
from repro.milp.solution import Solution
from repro.resilience.watchdog import ResilientSolver

FEAS_TOL = 1e-6


def assert_feasible(model: Model, x, tol: float = FEAS_TOL) -> None:
    """``x`` satisfies every bound, row and integrality of ``model``."""
    form = model.to_standard_form()
    x = np.asarray(x, dtype=float)
    assert x.shape[0] == form.c.shape[0]
    assert np.all(x >= form.x_lower - tol), "lower bound violated"
    assert np.all(x <= form.x_upper + tol), "upper bound violated"
    integral = np.flatnonzero(form.integrality == 1)
    assert np.all(
        np.abs(x[integral] - np.round(x[integral])) <= 1e-5
    ), "integrality violated"
    if form.a_matrix.shape[0]:
        ax = form.a_matrix @ x
        scale = 1.0 + np.abs(ax)
        assert np.all(ax >= form.b_lower - tol * scale), "row lower violated"
        assert np.all(ax <= form.b_upper + tol * scale), "row upper violated"


def objective_at(model: Model, x) -> float:
    obj = model.objective
    return obj.constant + sum(c * float(x[j]) for j, c in obj.coeffs.items())


# -- propagation --------------------------------------------------------------


class TestPropagation:
    def test_tightens_implied_bounds(self):
        m = Model("prop")
        x = m.continuous("x", 0.0, 100.0)
        y = m.continuous("y", 0.0, 100.0)
        m.add(x + y <= 10, name="cap")
        m.minimize(x + y)
        state = PresolveState(m)
        tightened, _ = propagate(state)
        assert tightened >= 2
        assert state.upper[x.index] == pytest.approx(10.0)
        assert state.upper[y.index] == pytest.approx(10.0)

    def test_integer_bounds_are_rounded(self):
        m = Model("round")
        n = m.integer("n", 0.0, 10.0)
        m.add(2 * n <= 7, name="half")
        m.minimize(-1 * n)
        state = PresolveState(m)
        propagate(state)
        assert state.upper[n.index] == pytest.approx(3.0)  # floor(3.5)

    def test_removes_redundant_rows(self):
        m = Model("redundant")
        x = m.binary("x")
        y = m.binary("y")
        m.add(x + y <= 5, name="slack")  # max activity is 2
        m.minimize(x + y)
        state = PresolveState(m)
        _, removed = propagate(state)
        assert removed == 1
        assert not state.rows[0].alive

    def test_detects_interval_infeasibility(self):
        m = Model("conflict")
        x = m.binary("x")
        y = m.binary("y")
        m.add(x + y >= 3, name="impossible")
        m.minimize(x + y)
        state = PresolveState(m)
        propagate(state)
        assert state.infeasible is not None

    def test_propagated_bounds_helper_is_read_only(self):
        m = Model("helper")
        x = m.continuous("x", 0.0, 50.0)
        m.add(x <= 5, name="cap")
        m.minimize(x)
        lower, upper, total = propagated_bounds(m)
        assert upper[x.index] == pytest.approx(5.0)
        assert total >= 1
        assert m.variables[x.index].upper == 50.0  # untouched

    @staticmethod
    def _nan_implied_model(integer: bool) -> Model:
        """``-inf*v0`` makes ``inf - inf`` residuals: NaN implied bounds.

        The integer case is the minimal model a randomized search found
        raising ``ValueError`` from ``math.ceil`` on the NaN.
        """
        inf = float("inf")
        m = Model("nan-implied")
        if integer:
            v0 = m.integer("v0", -inf, -10.0)
        else:
            v0 = m.continuous("v0", -inf, -10.0)
        v1 = m.binary("v1")
        m.add_range(LinExpr({v0.index: -inf}), -inf, -inf, name="r0")
        m.add(v0 - 50 * v1 <= -44, name="r1")
        return m

    @pytest.mark.parametrize("integer", [True, False])
    def test_nan_implied_bound_implies_nothing(self, integer):
        m = self._nan_implied_model(integer)
        lower, upper, _ = propagated_bounds(m)
        assert not any(math.isnan(b) for b in lower + upper)
        # The only finite implication: v0 <= -44 + 50*v1 <= 6 is looser
        # than the declared -10, so v0 keeps its declared bounds.
        assert lower[0] == -float("inf") and upper[0] == -10.0

    def test_analyzer_reports_on_nan_implied_bound_model(self):
        from repro.analysis import analyze_model

        analyze_model(self._nan_implied_model(integer=True))


# -- coefficient strengthening ------------------------------------------------


class TestStrengthening:
    def test_big_m_coefficient_shrinks(self):
        # c <= 10*x with c in [0, 6]: the 10 is provably loose, the
        # strengthened row is c <= 6*x.
        m = Model("bigm")
        x = m.binary("x")
        c = m.continuous("c", 0.0, 6.0)
        m.add(c - 10 * x <= 0, name="indicator")
        m.minimize(c)
        state = PresolveState(m)
        plan = strengthened_coefficient(state, state.rows[0], x.index)
        assert plan is not None
        applied = strengthen_coefficients(state)
        assert applied == 1
        row = state.rows[0]
        # Normalized `>=` form: 10x - c >= 0 became 6x - c >= 0.
        assert abs(row.coeffs[x.index]) == pytest.approx(6.0)

    def test_tight_coefficient_untouched(self):
        m = Model("tight")
        x = m.binary("x")
        c = m.continuous("c", 0.0, 6.0)
        m.add(c - 6 * x <= 0, name="indicator")
        m.minimize(c)
        state = PresolveState(m)
        assert strengthen_coefficients(state) == 0

    def test_strengthening_preserves_the_optimum(self):
        m = Model("bigm-opt")
        x = m.binary("x")
        c = m.continuous("c", 0.0, 6.0)
        m.add(c - 10 * x <= 0, name="indicator")
        m.add(c >= 4, name="demand")
        m.minimize(5 * x + c)
        raw = BranchAndBoundSolver().solve(m)
        result = presolve(m, mode="reduce")
        reduced = BranchAndBoundSolver().solve(result.model)
        assert reduced.objective == pytest.approx(raw.objective)


# -- fixing and merging -------------------------------------------------------


class TestFixing:
    def test_collapsed_bounds_fix_the_column(self):
        m = Model("collapsed")
        x = m.continuous("x", 3.0, 3.0)
        y = m.continuous("y", 0.0, 10.0)
        m.add(x + y <= 8, name="cap")
        m.minimize(y)
        state = PresolveState(m)
        assert fix_constant_columns(state) == 1
        assert state.fixed[x.index] == pytest.approx(3.0)
        # x substituted out: the row became y <= 5.
        assert x.index not in state.rows[0].coeffs
        assert state.rows[0].upper == pytest.approx(5.0)

    def test_unused_column_fixed_at_cheap_bound(self):
        m = Model("unused")
        x = m.continuous("x", 2.0, 9.0)  # in no row
        y = m.binary("y")
        m.add(y >= 1, name="force")
        m.minimize(3 * x + y)
        state = PresolveState(m)
        fix_constant_columns(state)
        assert state.fixed[x.index] == pytest.approx(2.0)  # c>0 -> lower


class TestDuplicateRows:
    def test_scaled_copies_merge(self):
        m = Model("dup")
        x = m.continuous("x", 0.0, 10.0)
        y = m.continuous("y", 0.0, 10.0)
        m.add(x + y <= 8, name="a")
        m.add(2 * x + 2 * y <= 12, name="b")  # tighter after scaling
        m.minimize(-1 * (x + y))
        state = PresolveState(m)
        assert merge_duplicate_rows(state) == 1
        live = state.live_rows()
        assert len(live) == 1
        # Intersection keeps the tighter x + y <= 6 (up to the scale of
        # whichever row survived).
        row = live[0]
        pivot = row.coeffs[x.index]
        assert row.upper / pivot == pytest.approx(6.0)

    def test_contradictory_copies_prove_infeasibility(self):
        m = Model("dup-bad")
        x = m.continuous("x", 0.0, 10.0)
        y = m.continuous("y", 0.0, 10.0)
        m.add(x + y >= 6, name="a")
        m.add(x + y <= 2, name="b")
        m.minimize(x)
        state = PresolveState(m)
        merge_duplicate_rows(state)
        assert state.infeasible is not None


class TestParallelColumns:
    def make_parallel(self):
        m = Model("par")
        a = m.binary("a")
        b = m.binary("b")
        m.add(a + b >= 1, name="cover")
        m.minimize(2 * a + 2 * b)
        return m, a, b

    def test_identical_columns_merge(self):
        m, a, b = self.make_parallel()
        state = PresolveState(m)
        assert merge_parallel_columns(state) == 1
        assert len(state.merges) == 1
        merge = state.merges[0]
        assert {merge.kept, merge.dropped} == {a.index, b.index}
        # The keeper's bounds widened to the aggregate range [0, 2].
        assert state.upper[merge.kept] == pytest.approx(2.0)

    def test_merge_round_trips_through_the_solver(self):
        m, _, _ = self.make_parallel()
        result = presolve(m, mode="reduce")
        solution = BranchAndBoundSolver().solve(result.model)
        restored = result.postsolve.restore(solution)
        assert_feasible(m, restored.x)
        assert objective_at(m, restored.x) == pytest.approx(
            restored.objective
        )
        assert restored.objective == pytest.approx(2.0)

    def test_objective_mismatch_blocks_the_merge(self):
        m = Model("not-par")
        a = m.binary("a")
        b = m.binary("b")
        m.add(a + b >= 1, name="cover")
        m.minimize(2 * a + 3 * b)  # different costs: not interchangeable
        state = PresolveState(m)
        assert merge_parallel_columns(state) == 0


class TestImpliedIntegrality:
    def test_equality_with_integer_rest_implies_integrality(self):
        m = Model("implied")
        n = m.integer("n", 0.0, 5.0)
        c = m.continuous("c", 0.0, 10.0)
        m.add(c + 2 * n == 6, name="link")
        m.minimize(c)
        state = PresolveState(m)
        assert detect_implied_integrality(state) == 1
        assert state.integer[c.index]

    def test_fractional_bound_blocks_it(self):
        m = Model("frac")
        n = m.integer("n", 0.0, 5.0)
        c = m.continuous("c", 0.0, 10.0)
        m.add(c + 2 * n == 6.5, name="link")
        m.minimize(c)
        state = PresolveState(m)
        assert detect_implied_integrality(state) == 0


# -- symmetry -----------------------------------------------------------------


def symmetric_cover_model(k: int = 4) -> Model:
    """k interchangeable binaries, pick at least two, unit cost each."""
    m = Model("sym")
    xs = [m.binary(f"x{i}") for i in range(k)]
    expr = xs[0] + 0.0
    for v in xs[1:]:
        expr = expr + v
    m.add(expr >= 2, name="pick2")
    m.minimize(expr)
    return m


class TestSymmetry:
    def test_interchangeable_binaries_form_one_orbit(self):
        state = PresolveState(symmetric_cover_model(4))
        orbits = find_orbits(state)
        assert any(len(orbit) == 4 for orbit in orbits)

    def test_distinct_costs_break_the_orbit(self):
        m = Model("asym")
        a = m.binary("a")
        b = m.binary("b")
        m.add(a + b >= 1, name="cover")
        m.minimize(a + 2 * b)
        state = PresolveState(m)
        assert not find_orbits(state)

    def test_lex_rows_preserve_the_optimum(self):
        m = symmetric_cover_model(5)
        raw = BranchAndBoundSolver().solve(m)
        state = PresolveState(m)
        found, broken, added = break_symmetry(state)
        assert found >= 1 and added >= 1
        reduced, postsolve = state.extract()
        solution = BranchAndBoundSolver().solve(reduced)
        assert solution.objective == pytest.approx(raw.objective)
        restored = postsolve.restore(solution)
        assert_feasible(m, restored.x)


# -- combinatorial lower bound ------------------------------------------------


class TestCombinatorialBound:
    def test_covering_bound_beats_the_trivial_bound(self):
        m = Model("cover")
        xs = [m.binary(f"x{i}") for i in range(5)]
        expr = xs[0] + 0.0
        for v in xs[1:]:
            expr = expr + v
        m.add(expr >= 3, name="pick3")
        m.minimize(xs[0] + xs[1] + xs[2] + xs[3] + xs[4])
        state = PresolveState(m)
        bound = combinatorial_lower_bound(state)
        assert bound == pytest.approx(3.0)  # trivial bound would be 0

    def test_bound_never_exceeds_the_optimum(self):
        m = Model("cover-mixed")
        xs = [m.binary(f"x{i}") for i in range(4)]
        expr = xs[0] + 0.0
        for v in xs[1:]:
            expr = expr + v
        m.add(expr >= 2, name="pick2")
        m.minimize(3 * xs[0] + 1 * xs[1] + 4 * xs[2] + 2 * xs[3])
        state = PresolveState(m)
        bound = combinatorial_lower_bound(state)
        optimum = BranchAndBoundSolver().solve(m).objective
        assert bound is not None
        assert bound <= optimum + 1e-9
        assert bound == pytest.approx(3.0)  # 1 + 2, the two cheapest

    def test_covering_gain_ignores_free_columns(self):
        m = Model("free")
        xs = [m.binary(f"x{i}") for i in range(3)]
        expr = xs[0] + 0.0
        for v in xs[1:]:
            expr = expr + v
        m.add(expr >= 2, name="pick2")
        m.minimize(5 * xs[0] - 1 * xs[1] + 2 * xs[2])
        state = PresolveState(m)
        # x1 has negative cost (free to set): only one more pick needed,
        # and the cheapest positive cost is 2.
        gain = _covering_gain(state, state.rows[0].coeffs, 2)
        assert gain == pytest.approx(2.0)


# -- postsolve ----------------------------------------------------------------


class TestPostsolve:
    def test_fixed_values_apply_before_merge_splits(self):
        # Regression: a merge keeper that is *later* fixed must still be
        # split over the dropped column, so restore() has to write fixed
        # values before undoing merges.
        mapping = PostsolveMap(
            n_original=2,
            fixed={0: 2.0},
            column_of={},
            merges=[ColumnMerge(
                kept=0, dropped=1,
                dropped_lower=0.0, dropped_upper=1.0,
                rest_lower=0.0, rest_upper=1.0,
                integer=True,
            )],
            original_objective=LinExpr({0: 1.0, 1: 1.0}),
        )
        restored = mapping.restore(Solution(
            status=SolveStatus.OPTIMAL, objective=2.0,
            x=np.zeros(0),
        ))
        assert restored.x[0] == pytest.approx(1.0)
        assert restored.x[1] == pytest.approx(1.0)

    def test_integer_split_keeps_both_parts_in_bounds(self):
        mapping = PostsolveMap(
            n_original=2,
            fixed={},
            column_of={0: 0},
            merges=[ColumnMerge(
                kept=0, dropped=1,
                dropped_lower=0.0, dropped_upper=3.0,
                rest_lower=1.0, rest_upper=3.0,
                integer=True,
            )],
            original_objective=LinExpr({0: 1.0, 1: 1.0}),
        )
        for total in (1.0, 2.0, 4.0, 6.0):
            restored = mapping.restore(Solution(
                status=SolveStatus.OPTIMAL, objective=total,
                x=np.array([total]),
            ))
            part, rest = restored.x[1], restored.x[0]
            assert part + rest == pytest.approx(total)
            assert 0.0 <= part <= 3.0
            assert 1.0 <= rest <= 3.0
            assert part == pytest.approx(round(part))

    def test_statusonly_solutions_pass_through(self):
        mapping = PostsolveMap(
            n_original=3, fixed={0: 1.0}, column_of={1: 0, 2: 1},
        )
        bare = Solution(status=SolveStatus.INFEASIBLE)
        assert mapping.restore(bare) is bare

    def test_forward_maps_into_the_reduced_space(self):
        mapping = PostsolveMap(
            n_original=3, fixed={0: 1.0}, column_of={1: 0, 2: 1},
        )
        reduced = mapping.forward(np.array([1.0, 4.0, 5.0]))
        assert reduced is not None
        np.testing.assert_allclose(reduced, [4.0, 5.0])

    def test_forward_rejects_wrong_length_and_fixed_disagreement(self):
        mapping = PostsolveMap(
            n_original=3, fixed={0: 1.0}, column_of={1: 0, 2: 1},
        )
        assert mapping.forward(np.array([1.0, 4.0])) is None
        # A start disagreeing with a presolve-fixed column is stale for
        # the reduced model: drop it, never misreport it.
        assert mapping.forward(np.array([0.0, 4.0, 5.0])) is None

    def test_forward_folds_merged_columns_into_the_kept_one(self):
        mapping = PostsolveMap(
            n_original=2,
            fixed={},
            column_of={0: 0},
            merges=[ColumnMerge(
                kept=0, dropped=1,
                dropped_lower=0.0, dropped_upper=3.0,
                rest_lower=1.0, rest_upper=3.0,
                integer=True,
            )],
            original_objective=LinExpr({0: 1.0, 1: 1.0}),
        )
        reduced = mapping.forward(np.array([2.0, 1.0]))
        np.testing.assert_allclose(reduced, [3.0])

    def test_forward_restore_round_trip_on_a_real_model(self):
        m = smoke_model()
        result = presolve(m, mode="reduce")
        original = HighsSolver().solve(m)
        reduced = result.postsolve.forward(original.x)
        assert reduced is not None
        restored = result.postsolve.restore(Solution(
            status=SolveStatus.OPTIMAL,
            objective=original.objective, x=reduced,
        ))
        # The round trip reproduces an assignment with the exact same
        # objective under the original model.
        value = m.objective.constant + sum(
            coeff * restored.x[j]
            for j, coeff in m.objective.coeffs.items()
        )
        assert value == pytest.approx(original.objective)


# -- engine -------------------------------------------------------------------


def smoke_model() -> Model:
    """Symmetric binaries + a loose big-M indicator + a fixed column."""
    m = Model("smoke")
    xs = [m.binary(f"x{i}") for i in range(4)]
    c = m.continuous("c", 0.0, 6.0)
    fixed = m.continuous("fixed", 2.0, 2.0)
    picks = xs[0] + 0.0
    for v in xs[1:]:
        picks = picks + v
    m.add(picks >= 2, name="pick2")
    m.add(c - 50 * xs[0] <= 0, name="indicator")
    m.add(c >= 4 - 50 * (1 - xs[0]), name="demand")
    m.add(fixed >= 1, name="fixed-row")
    m.minimize(2 * picks + c + fixed)
    return m


class TestEngine:
    def test_mode_off_is_identity(self):
        m = smoke_model()
        result = presolve(m, mode="off")
        assert result.model is m
        assert result.postsolve.identity
        assert not result.report.reduced_anything

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError, match="presolve mode"):
            presolve(smoke_model(), mode="aggressive")
        assert PRESOLVE_MODES == ("off", "reduce", "full")

    @pytest.mark.parametrize("mode", ["reduce", "full"])
    def test_reductions_reported_and_objective_exact(self, mode):
        m = smoke_model()
        raw = BranchAndBoundSolver().solve(m)
        result = presolve(m, mode=mode)
        report = result.report
        assert report.mode == mode
        assert report.reduced_anything
        assert report.vars_fixed >= 1
        assert report.cols_after < report.cols_before
        solution = HighsSolver().solve(result.model)
        restored = result.postsolve.restore(solution)
        assert restored.objective == pytest.approx(raw.objective)
        assert_feasible(m, restored.x)
        assert restores_cleanly(result.postsolve, solution)

    def test_original_model_is_never_mutated(self):
        m = smoke_model()
        before = [(v.lower, v.upper, v.is_integer) for v in m.variables]
        rows_before = len(m.constraints)
        presolve(m, mode="full")
        assert [(v.lower, v.upper, v.is_integer) for v in m.variables] \
            == before
        assert len(m.constraints) == rows_before

    def test_infeasibility_is_proved_not_solved(self):
        m = Model("doomed")
        x = m.binary("x")
        y = m.binary("y")
        m.add(x + y >= 3, name="impossible")
        m.minimize(x + y)
        result = presolve(m, mode="full")
        assert result.proved_infeasible
        assert result.report.infeasible_reason
        diag = result.report.to_diagnostic()
        assert diag.severity is Severity.ERROR
        assert diag.rule_id == "presolve.infeasible"

    def test_bound_hint_lands_on_the_reduced_model(self):
        m = symmetric_cover_model(6)
        result = presolve(m, mode="reduce")
        hint = result.model.hints.get("objective_lower_bound")
        assert hint == pytest.approx(2.0)

    def test_report_diagnostic_is_info_when_feasible(self):
        result = presolve(smoke_model(), mode="reduce")
        diag = result.report.to_diagnostic()
        assert diag.severity is Severity.INFO
        assert diag.rule_id == "presolve.report"
        assert diag.data["cols"]["after"] == result.report.cols_after


class TestBnBHint:
    def test_hint_stops_the_search_early_and_stays_optimal(self):
        m = symmetric_cover_model(6)
        raw = BranchAndBoundSolver().solve(m)
        m.hints["objective_lower_bound"] = raw.objective
        hinted = BranchAndBoundSolver().solve(m)
        assert hinted.status == SolveStatus.OPTIMAL
        assert hinted.objective == pytest.approx(raw.objective)
        assert hinted.node_count <= raw.node_count

    def test_unreachably_low_hint_is_harmless(self):
        m = symmetric_cover_model(5)
        raw = BranchAndBoundSolver().solve(m)
        m.hints["objective_lower_bound"] = raw.objective - 100.0
        hinted = BranchAndBoundSolver().solve(m)
        assert hinted.status == SolveStatus.OPTIMAL
        assert hinted.objective == pytest.approx(raw.objective)


# -- options / explorer / watchdog wiring -------------------------------------


class TestWiring:
    def test_options_validate_the_mode(self):
        assert SolveOptions(presolve="reduce").presolve == "reduce"
        with pytest.raises(ValueError, match="presolve"):
            SolveOptions(presolve="yes")

    def test_explorer_presolve_matches_off(
        self, grid_instance, library, grid_requirements
    ):
        base = DataCollectionExplorer(
            grid_instance.template, library, grid_requirements
        ).solve("cost")
        for mode in ("reduce", "full"):
            result = DataCollectionExplorer(
                grid_instance.template, library, grid_requirements,
                presolve=mode,
            ).solve("cost")
            assert result.status == SolveStatus.OPTIMAL
            assert result.solution.objective == pytest.approx(
                base.solution.objective
            )
            presolve_diags = [
                d for d in result.diagnostics
                if d.rule_id == "presolve.report"
            ]
            assert len(presolve_diags) == 1
            assert presolve_diags[0].data["rows"]["after"] \
                <= presolve_diags[0].data["rows"]["before"]

    def test_build_keeps_the_original_model(
        self, grid_instance, library, grid_requirements
    ):
        explorer = DataCollectionExplorer(
            grid_instance.template, library, grid_requirements,
            presolve="reduce",
        )
        built = explorer.build("cost")
        assert built.presolve is not None
        assert not built.model.name.endswith(":presolved")
        assert built.presolve.model.name.endswith(":presolved")

    def test_resilient_solver_runs_presolve(self):
        m = smoke_model()
        raw = HighsSolver().solve(m)
        solver = ResilientSolver(HighsSolver(), presolve="reduce")
        solution = solver.solve(m)
        assert solution.status == SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(raw.objective)
        assert len(solution.x) == len(m.variables)

    def test_resilient_solver_reports_proved_infeasibility(self):
        m = Model("doomed")
        x = m.binary("x")
        y = m.binary("y")
        m.add(x + y >= 3, name="impossible")
        m.minimize(x + y)
        solution = ResilientSolver(HighsSolver(), presolve="full").solve(m)
        assert solution.status == SolveStatus.INFEASIBLE
        assert "presolve" in solution.message


# -- randomized round-trips ---------------------------------------------------


@st.composite
def random_milp(draw):
    """A small random MILP guaranteed feasible by construction: row
    bounds are anchored around a random in-bounds assignment."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    n_rows = draw(st.integers(1, 6))
    m = Model("random")
    anchor = []
    for j in range(n):
        kind = draw(st.sampled_from(["binary", "integer", "continuous"]))
        if kind == "binary":
            var = m.binary(f"v{j}")
        elif kind == "integer":
            var = m.integer(f"v{j}", 0.0, float(rng.integers(1, 6)))
        else:
            var = m.continuous(f"v{j}", 0.0, float(rng.uniform(1.0, 8.0)))
        if var.is_integer:
            anchor.append(float(rng.integers(var.lower, var.upper + 1)))
        else:
            anchor.append(float(rng.uniform(var.lower, var.upper)))
    for i in range(n_rows):
        support = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        coeffs = {int(j): float(rng.integers(-4, 5)) or 1.0 for j in support}
        expr = LinExpr(coeffs)
        at_anchor = sum(c * anchor[j] for j, c in coeffs.items())
        lo = at_anchor - float(rng.uniform(0.0, 6.0))
        hi = at_anchor + float(rng.uniform(0.0, 6.0))
        if draw(st.booleans()):
            lo = float("-inf")
        m.add_range(expr, lo, hi, name=f"r{i}")
    obj = LinExpr(
        {j: float(rng.integers(-5, 6)) for j in range(n)},
        float(rng.integers(-3, 4)),
    )
    m.minimize(obj)
    return m


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(model=random_milp(), mode=st.sampled_from(["reduce", "full"]))
def test_presolve_round_trip_is_exact(model, mode):
    """Postsolved solutions are feasible in the original model and hit
    exactly the objective of solving the original directly."""
    raw = BranchAndBoundSolver().solve(model)
    assert raw.status == SolveStatus.OPTIMAL  # feasible by construction
    result = presolve(model, mode=mode)
    assert not result.proved_infeasible
    report = result.report
    assert report.cols_after <= report.cols_before
    assert report.rows_after <= report.rows_before + report.lex_rows_added
    solution = BranchAndBoundSolver().solve(result.model)
    assert solution.status == SolveStatus.OPTIMAL
    restored = result.postsolve.restore(solution)
    assert_feasible(model, restored.x)
    assert restored.objective == pytest.approx(raw.objective, abs=1e-6)
    assert objective_at(model, restored.x) == pytest.approx(
        restored.objective, abs=1e-6
    )
    assert restores_cleanly(result.postsolve, solution)
    hint = result.model.hints.get("objective_lower_bound")
    if hint is not None:
        assert hint <= raw.objective + 1e-6


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(model=random_milp())
def test_propagated_bounds_never_cut_off_solutions(model):
    """The read-only propagation helper only ever *implies* bounds: the
    optimal assignment of the original model satisfies them."""
    raw = BranchAndBoundSolver().solve(model)
    assert raw.status == SolveStatus.OPTIMAL
    lower, upper, _ = propagated_bounds(model)
    for j, value in enumerate(raw.x):
        assert value >= lower[j] - 1e-6
        assert value <= upper[j] + 1e-6
