"""Unit tests for the model-level analyzer rules.

Each rule gets a positive case (the finding fires) and a negative case
(a sound model stays silent), on tiny hand-built MILPs.  A differential
suite then checks the array rules against a per-row reference
implementation (one Python loop per rule and row, kept below as the
oracle) on random models and on the pipeline's real models.
"""

import importlib
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import Severity, analyze_model
from repro.analysis.model_rules import (
    DuplicateRowRule,
    ForeignVariableRule,
    LooseBigMRule,
    TrivialInfeasibilityRule,
    UnusedVariableRule,
    VacuousConstraintRule,
    VariableBoundsRule,
)
from repro.analysis.rules import model_rules
from repro.milp.expr import Constraint, LinExpr
from repro.milp.model import Model


def sound_model() -> Model:
    """A small healthy MILP no rule should complain about."""
    m = Model("sound")
    x = m.binary("x")
    y = m.binary("y")
    c = m.continuous("c", 0.0, 10.0)
    m.add(x + y >= 1, name="pick")
    m.add(c >= 5 - 5 * (1 - x), name="indicator")  # tight big-M
    m.minimize(c + x + y)
    return m


class TestVariableBounds:
    def test_fires_on_crossed_bounds(self):
        m = Model()
        var = m.continuous("bad", 0.0, 1.0)
        var.lower, var.upper = 2.0, 1.0  # corrupt post-construction
        finds = list(VariableBoundsRule().check(m))
        assert len(finds) == 1
        assert finds[0].severity is Severity.ERROR

    def test_fires_on_nan_bound(self):
        m = Model()
        var = m.continuous("nan", 0.0, 1.0)
        var.upper = float("nan")
        finds = list(VariableBoundsRule().check(m))
        assert len(finds) == 1
        assert "NaN" in finds[0].message

    def test_unbounded_general_integer_is_info(self):
        m = Model()
        m.integer("n")  # default upper is +inf
        finds = list(VariableBoundsRule().check(m))
        assert len(finds) == 1
        assert finds[0].severity is Severity.INFO

    def test_silent_on_sound_model(self):
        assert not list(VariableBoundsRule().check(sound_model()))


class TestForeignVariable:
    def test_fires_on_alien_row_and_objective(self):
        m = Model()
        m.binary("x")
        # Bypass Model.add's validation to simulate a pre-validation model.
        m._constraints.append(
            Constraint(LinExpr({7: 1.0}), 0.0, 1.0, "alien")
        )
        m._objective = LinExpr({9: 1.0})
        finds = list(ForeignVariableRule().check(m))
        assert len(finds) == 2
        assert {f.location for f in finds} == {"row 'alien'", "objective"}

    def test_silent_on_sound_model(self):
        assert not list(ForeignVariableRule().check(sound_model()))


class TestTrivialInfeasibility:
    def test_fires_when_activity_cannot_reach_bound(self):
        m = Model()
        x = m.binary("x")
        y = m.binary("y")
        m.add(x + y >= 3, name="impossible")
        finds = list(TrivialInfeasibilityRule().check(m))
        assert len(finds) == 1
        assert finds[0].severity is Severity.WARNING
        assert "cannot reach" in finds[0].message

    def test_fires_on_crossed_row_bounds(self):
        m = Model()
        x = m.binary("x")
        m._constraints.append(
            Constraint(x + 0.0, 2.0, 1.0, "crossed")
        )
        finds = list(TrivialInfeasibilityRule().check(m))
        assert len(finds) == 1
        assert "crossed" in finds[0].message

    def test_silent_on_sound_model(self):
        assert not list(TrivialInfeasibilityRule().check(sound_model()))


class TestVacuousConstraint:
    def test_fires_on_row_implied_by_bounds(self):
        m = Model()
        x = m.binary("x")
        y = m.binary("y")
        m.add(x + y >= 0, name="vacuous")
        finds = list(VacuousConstraintRule().check(m))
        assert len(finds) == 1
        assert finds[0].severity is Severity.INFO

    def test_silent_on_sound_model(self):
        assert not list(VacuousConstraintRule().check(sound_model()))


class TestUnusedVariable:
    def test_fires_once_with_aggregate_list(self):
        m = Model()
        x = m.binary("x")
        for i in range(3):
            m.binary(f"dead{i}")
        m.add(x >= 0.5, name="use-x")
        finds = list(UnusedVariableRule().check(m))
        assert len(finds) == 1
        assert finds[0].data["variables"] == ["dead0", "dead1", "dead2"]

    def test_silent_on_sound_model(self):
        assert not list(UnusedVariableRule().check(sound_model()))


class TestLooseBigM:
    def test_fires_with_tightest_value(self):
        m = Model()
        b = m.binary("b")
        c = m.continuous("c", 0.0, 10.0)
        # c >= 5 - 50*(1-b): M=50 where the bounds imply M=5 suffices.
        m.add(c >= 5 - 50 * (1 - b), name="loose")
        finds = list(LooseBigMRule().check(m))
        assert len(finds) == 1
        assert abs(finds[0].data["tightest"] - 5.0) < 1e-9

    def test_silent_when_tight(self):
        assert not list(LooseBigMRule().check(sound_model()))

    def test_skips_multi_binary_rows(self):
        m = Model()
        b1 = m.binary("b1")
        b2 = m.binary("b2")
        c = m.continuous("c", 0.0, 10.0)
        # The binaries couple elsewhere (e.g. b1 + b2 == 1), which
        # interval analysis cannot see; the rule must stay out.
        m.add(c >= 5 - 50 * (1 - b1) - 50 * (1 - b2), name="hull")
        assert not list(LooseBigMRule().check(m))


class TestDuplicateRow:
    def test_fires_on_shared_left_hand_side(self):
        m = Model()
        x = m.binary("x")
        y = m.binary("y")
        m.add(x + y <= 1, name="le")
        m.add(x + y >= 1, name="ge")
        m.minimize(x + y)
        finds = list(DuplicateRowRule().check(m))
        assert len(finds) == 1
        assert finds[0].data["rows"] == [0, 1]

    def test_silent_on_sound_model(self):
        assert not list(DuplicateRowRule().check(sound_model()))


class TestAnalyzeModel:
    def test_registry_has_every_rule(self):
        ids = {rule.rule_id for rule in model_rules()}
        assert {
            "model.variable-bounds", "model.foreign-variable",
            "model.trivial-infeasibility", "model.vacuous-constraint",
            "model.unused-variable", "model.loose-big-m",
            "model.duplicate-row",
        } <= ids

    def test_sound_model_is_clean(self):
        report = analyze_model(sound_model())
        assert report.ok
        assert not report.diagnostics
        assert report.seconds > 0.0

    def test_report_aggregates_all_findings(self):
        m = Model()
        x = m.binary("x")
        y = m.binary("y")
        m.binary("dead")
        m.add(x + y >= 3, name="impossible")
        m.add(x + y >= 0, name="vacuous")
        report = analyze_model(m)
        assert {"model.trivial-infeasibility", "model.vacuous-constraint",
                "model.unused-variable"} <= set(report.rule_ids)
        assert report.ok  # warnings and infos only: nothing blocking


# -- differential suite: the per-row reference rules --------------------------

_INF = float("inf")


def _tol(reference):
    if math.isinf(reference):
        return 1e-9
    return 1e-9 * max(1.0, abs(reference))


def _row_location(index, constraint):
    if constraint.name:
        return f"row {constraint.name!r}"
    return f"row #{index}"


def _valid_indices(coeffs, n):
    return all(0 <= idx < n for idx in coeffs)


def _activity(coeffs, variables):
    lo = hi = 0.0
    for idx, coeff in coeffs.items():
        if coeff == 0.0:
            continue
        var = variables[idx]
        if coeff > 0.0:
            lo += coeff * var.lower
            hi += coeff * var.upper
        else:
            lo += coeff * var.upper
            hi += coeff * var.lower
    return lo, hi


def _reference_variable_bounds(rule, model):
    for var in model.variables:
        if math.isnan(var.lower) or math.isnan(var.upper):
            yield rule.diagnostic(
                f"bound is NaN: [{var.lower}, {var.upper}]",
                location=f"var {var.name!r}", variable=var.name,
            )
        elif var.lower > var.upper:
            yield rule.diagnostic(
                f"lower bound {var.lower:g} exceeds upper bound "
                f"{var.upper:g}: the domain is empty",
                location=f"var {var.name!r}", variable=var.name,
            )
        elif var.is_integer and not var.is_binary and (
            math.isinf(var.lower) or math.isinf(var.upper)
        ):
            yield rule.diagnostic(
                f"general integer variable is unbounded "
                f"([{var.lower:g}, {var.upper:g}]); branch-and-bound "
                f"cannot enumerate an infinite lattice efficiently",
                location=f"var {var.name!r}",
                severity=Severity.INFO,
                hint="give integer variables finite bounds",
                variable=var.name,
            )


def _reference_foreign_variable(rule, model):
    n = len(model.variables)
    for i, constraint in enumerate(model.constraints):
        bad = sorted(
            idx for idx in constraint.expr.coeffs if not 0 <= idx < n
        )
        if bad:
            yield rule.diagnostic(
                f"references variable index(es) {bad} but the model "
                f"has {n} variable(s)",
                location=_row_location(i, constraint),
                indices=bad,
            )
    bad = sorted(idx for idx in model.objective.coeffs if not 0 <= idx < n)
    if bad:
        yield rule.diagnostic(
            f"objective references variable index(es) {bad} but the "
            f"model has {n} variable(s)",
            location="objective",
            indices=bad,
        )


def _reference_trivial_infeasibility(rule, model):
    n = len(model.variables)
    for i, constraint in enumerate(model.constraints):
        coeffs, lo, hi = constraint.normalized()
        if not _valid_indices(coeffs, n):
            continue
        where = _row_location(i, constraint)
        if lo > hi + _tol(hi):
            yield rule.diagnostic(
                f"row bounds are crossed: lower {lo:g} > upper {hi:g}",
                location=where, row=i,
            )
            continue
        act_lo, act_hi = _activity(coeffs, model.variables)
        if math.isnan(act_lo) or math.isnan(act_hi):
            continue
        if act_lo > hi + _tol(hi):
            yield rule.diagnostic(
                f"smallest attainable activity {act_lo:g} already "
                f"exceeds the upper bound {hi:g}",
                location=where, row=i, activity=(act_lo, act_hi),
            )
        elif act_hi < lo - _tol(lo):
            yield rule.diagnostic(
                f"largest attainable activity {act_hi:g} cannot reach "
                f"the lower bound {lo:g}",
                location=where, row=i, activity=(act_lo, act_hi),
            )


def _reference_vacuous_constraint(rule, model):
    n = len(model.variables)
    for i, constraint in enumerate(model.constraints):
        coeffs, lo, hi = constraint.normalized()
        if not coeffs or not _valid_indices(coeffs, n):
            continue
        act_lo, act_hi = _activity(coeffs, model.variables)
        if math.isnan(act_lo) or math.isnan(act_hi):
            continue
        lower_ok = lo == -_INF or act_lo >= lo - _tol(lo)
        upper_ok = hi == _INF or act_hi <= hi + _tol(hi)
        if lower_ok and upper_ok:
            yield rule.diagnostic(
                f"activity range [{act_lo:g}, {act_hi:g}] always lies "
                f"within the row bounds [{lo:g}, {hi:g}]",
                location=_row_location(i, constraint), row=i,
            )


def _reference_unused_variable(rule, model):
    used = {
        idx for idx, coeff in model.objective.coeffs.items()
        if coeff != 0.0
    }
    for constraint in model.constraints:
        for idx, coeff in constraint.expr.coeffs.items():
            if coeff != 0.0:
                used.add(idx)
    unused = [var.name for var in model.variables if var.index not in used]
    if unused:
        shown = ", ".join(unused[:8])
        if len(unused) > 8:
            shown += f", ... ({len(unused) - 8} more)"
        yield rule.diagnostic(
            f"{len(unused)} variable(s) unused: {shown}",
            location=f"model {model.name!r}",
            variables=unused,
        )


def _reference_loose_big_m(rule, model):
    from repro.analysis.propagation import propagated_bounds

    n = len(model.variables)
    # Propagation over rows that reference foreign variables would index
    # past the variable table; like the array rule, propagate over the
    # rows the model owns.
    owned, _ = model.relaxed_copy(
        lambda row: not _valid_indices(row.expr.coeffs, n)
    )
    if n:
        prop_lower, prop_upper, _ = propagated_bounds(owned)
    else:
        prop_lower = [v.lower for v in model.variables]
        prop_upper = [v.upper for v in model.variables]
    for i, constraint in enumerate(model.constraints):
        coeffs, lo, hi = constraint.normalized()
        if not _valid_indices(coeffs, n):
            continue
        if lo != -_INF and hi == _INF:
            d, bound = coeffs, lo
        elif lo == -_INF and hi != _INF:
            d = {idx: -c for idx, c in coeffs.items()}
            bound = -hi
        else:
            continue
        binaries = []
        has_continuous = False
        for idx, coeff in d.items():
            if coeff == 0.0:
                continue
            var = model.variables[idx]
            if var.is_binary:
                binaries.append((var, coeff))
            else:
                has_continuous = True
        if len(binaries) != 1 or not has_continuous:
            continue
        act_lo, _ = _activity(d, model.variables)
        prop_act_lo = 0.0
        for idx, coeff in d.items():
            if coeff == 0.0:
                continue
            prop_act_lo += coeff * (
                prop_lower[idx] if coeff > 0.0 else prop_upper[idx]
            )
        if not math.isfinite(act_lo) or not math.isfinite(bound):
            continue
        for var, coeff in binaries:
            slack = act_lo + abs(coeff) - bound
            tightest = abs(coeff) - slack
            prop_tightest = abs(coeff) - (
                prop_act_lo + abs(coeff) - bound
            )
            if math.isfinite(prop_act_lo) and (
                prop_tightest <= rule._ABS_SLACK
            ):
                continue
            if (slack > max(rule._ABS_SLACK, rule._REL_SLACK * abs(coeff))
                    and tightest > rule._ABS_SLACK):
                yield rule.diagnostic(
                    f"coefficient {abs(coeff):g} on binary "
                    f"{var.name!r} exceeds the tightest implied "
                    f"big-M {tightest:g}",
                    location=_row_location(i, constraint),
                    row=i,
                    variable=var.name,
                    coefficient=abs(coeff),
                    tightest=tightest,
                )


def _reference_duplicate_row(rule, model):
    groups = {}
    rows = model.constraints
    for i, constraint in enumerate(rows):
        coeffs = constraint.normalized()[0]
        signature = tuple(
            sorted((idx, c) for idx, c in coeffs.items() if c != 0.0)
        )
        if signature:
            groups.setdefault(signature, []).append(i)
    for indices in groups.values():
        if len(indices) < 2:
            continue
        names = [rows[i].name or f"#{i}" for i in indices[:4]]
        shown = ", ".join(names)
        if len(indices) > 4:
            shown += f", ... ({len(indices) - 4} more)"
        yield rule.diagnostic(
            f"{len(indices)} rows share one left-hand side: {shown}",
            location=_row_location(indices[0], rows[indices[0]]),
            rows=list(indices),
        )


_REFERENCE = {
    "model.variable-bounds": _reference_variable_bounds,
    "model.foreign-variable": _reference_foreign_variable,
    "model.trivial-infeasibility": _reference_trivial_infeasibility,
    "model.vacuous-constraint": _reference_vacuous_constraint,
    "model.unused-variable": _reference_unused_variable,
    "model.loose-big-m": _reference_loose_big_m,
    "model.duplicate-row": _reference_duplicate_row,
}


def _as_records(diagnostics):
    """Everything a finding carries, reprs included (catches float types)."""
    return [
        (d.rule_id, d.severity, d.message, d.location, d.hint, repr(d.data))
        for d in diagnostics
    ]


def assert_matches_reference(model):
    """The array rules report exactly what the per-row rules report."""
    expected = []
    for rule in model_rules():
        expected.extend(_REFERENCE[rule.rule_id](rule, model))
    actual = analyze_model(model).diagnostics
    assert _as_records(actual) == _as_records(expected)


#: Coefficients whose sums round differently in different orders, plus
#: infinities (inf * 0 and inf - inf make NaN activities) and zeros.
_COEFFS = (
    0.0, 1.0, -1.0, 0.1, 0.2, 0.3, -0.7, 1 / 3, 2.5, 50.0, -50.0, 1e-5,
    1e6, _INF, -_INF,
)
_BOUNDS = (-_INF, -10.0, -1.5, 0.0, 0.1, 1.0, 2.5, 10.0, _INF)
_ROW_BOUNDS = (-_INF, -44.0, -1.0, 0.0, 0.3, 1.0, 5.0, _INF)


@st.composite
def random_models(draw):
    """Small models with every shape the rules special-case.

    Rows draw their left-hand sides from a small pool (so duplicates
    are common) and re-order its terms (so rows sharing a left-hand side
    are written differently).  Some variable bounds are corrupted past
    ``add_var``'s checks, and rows and objectives may reference foreign
    indices, as a model edited past ``Model.add`` can.
    """
    m = Model("random")
    n = draw(st.integers(0, 6))
    for j in range(n):
        kind = draw(st.sampled_from(["binary", "continuous", "integer"]))
        if kind == "binary":
            m.binary(f"v{j}")
            continue
        lo, hi = sorted(draw(st.lists(
            st.sampled_from(_BOUNDS), min_size=2, max_size=2,
        )))
        if kind == "continuous":
            m.continuous(f"v{j}", lo, hi)
        else:
            m.integer(f"v{j}", lo, hi)
    for var in m.variables:
        corruption = draw(st.sampled_from([None] * 8 + ["crossed", "nan"]))
        if corruption == "crossed":
            var.lower, var.upper = 2.0, 1.0
        elif corruption == "nan":
            var.upper = float("nan")
    indices = st.sampled_from(list(range(n)) * 6 + [-1, n, n + 3])
    lhs = st.dictionaries(indices, st.sampled_from(_COEFFS), max_size=5)
    pool = draw(st.lists(lhs, min_size=1, max_size=4))
    for r in range(draw(st.integers(0, 10))):
        lhs_terms = list(draw(st.sampled_from(pool)).items())
        terms = draw(st.permutations(lhs_terms))
        lo = draw(st.sampled_from(_ROW_BOUNDS))
        hi = draw(st.sampled_from(_ROW_BOUNDS))
        if draw(st.booleans()):
            lo, hi = min(lo, hi), max(lo, hi)
        constant = draw(st.sampled_from([0.0, 0.0, 0.5, -3.0, 0.1]))
        name = draw(st.sampled_from(["", f"r{r}"]))
        m._constraints.append(
            Constraint(LinExpr(dict(terms), constant), lo, hi, name)
        )
    m._objective = LinExpr(draw(lhs))
    return m


class TestDifferential:
    """Array rules vs the per-row reference: identical reports."""

    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(random_models())
    def test_random_models(self, model):
        assert_matches_reference(model)

    def test_docstring_case_is_still_acquitted(self, monkeypatch):
        calls = _count_propagation(monkeypatch)
        m = Model()
        b = m.binary("b")
        c = m.continuous("c", 0.0, 10.0)
        # c >= 50*b - 44 looks like a loose M=50 on c in [0, 10] ...
        m.add(c - 50 * b >= -44, name="indicator")
        assert [
            d.data["tightest"] for d in LooseBigMRule().check(m)
        ] == [6.0]
        # ... until another row forces c >= 6: the row is vacuous.
        m.add(c >= 6, name="force")
        assert not list(LooseBigMRule().check(m))
        assert calls == [1, 1]
        assert_matches_reference(m)

    def test_propagation_skipped_without_a_candidate(self, monkeypatch):
        calls = _count_propagation(monkeypatch)
        assert not analyze_model(sound_model()).diagnostics
        m = Model()
        b = m.binary("b")
        c = m.continuous("c", 0.0, 10.0)
        m.add(c - 50 * b >= -44, name="indicator")
        analyze_model(m)
        assert calls == [1]


def _count_propagation(monkeypatch):
    """Record each propagated_bounds call (one entry per call)."""
    module = importlib.import_module("repro.analysis.propagation")
    calls = []
    real = module.propagated_bounds

    def counted(model, **kwargs):
        calls.append(1)
        return real(model, **kwargs)

    monkeypatch.setattr(module, "propagated_bounds", counted)
    return calls


# -- differential suite: the pipeline's real models ---------------------------

_TABLE1_SPEC = """
has_paths(sensors, sink, replicas=2, disjoint=true)
min_signal_to_noise(20)
min_network_lifetime(5)
tdma(slots=16, slot_ms=1, report_s=30)
battery(mah=3000, packet_bytes=50)
"""


def _campus_whatif_model():
    """One wall added to the campus base of the what-if benchmark."""
    from repro.core.facade import build_explorer
    from repro.scenarios import apply_edits, default_registry, parse_edit

    base = default_registry().generate(
        "campus:buildings_x=3,buildings_y=3,k_star=24,"
        "sensors_per_building=4,street_relays=100:0"
    )
    edited, _ = apply_edits(base, [parse_edit("add-wall:30,5,30,25,brick")])
    explorer = build_explorer(
        edited.template, edited.library, edited.requirements,
        channel=edited.channel, k_star=edited.k_star, plan=edited.plan,
    )
    explorer.analyze = False
    return explorer.build(edited.objective).model


def _energy_model():
    """The Table 3 energy problem on ``synthetic_template(20, 5)``."""
    import repro
    from repro.core.facade import build_explorer
    from repro.network.requirements import LifetimeRequirement

    instance = repro.synthetic_template(20, 5, seed=1)
    reqs = repro.RequirementSet()
    for sensor in instance.sensor_ids:
        reqs.require_route(sensor, instance.sink_id, replicas=2, disjoint=True)
    reqs.link_quality = repro.LinkQualityRequirement(min_snr_db=20.0)
    reqs.lifetime = LifetimeRequirement(years=5.0)
    explorer = build_explorer(instance.template, repro.default_catalog(), reqs)
    explorer.analyze = False
    return explorer.build("energy").model


def _table1_models():
    """The office building of Table 1 under its three objectives."""
    from repro import (
        ApproximatePathEncoder,
        DataCollectionExplorer,
        ObjectiveSpec,
        data_collection_template,
        default_catalog,
    )
    from repro.spec import compile_spec

    instance = data_collection_template(n_sensors=20, n_relay_candidates=60)
    compiled = compile_spec(_TABLE1_SPEC, instance.template)
    explorer = DataCollectionExplorer(
        instance.template, default_catalog(), compiled.requirements,
        encoder=ApproximatePathEncoder(k_star=10), analyze=False,
    )
    combined = ObjectiveSpec.combine(
        weights={"cost": 0.5, "energy": 0.5},
        scales={"cost": 1000.0, "energy": 0.01},
    )
    return {
        f"table1-{name}": explorer.build(objective).model
        for name, objective in (
            ("cost", "cost"), ("energy", "energy"), ("combined", combined),
        )
    }


@pytest.fixture(scope="module")
def real_models():
    return {
        "campus-whatif": _campus_whatif_model(),
        "energy": _energy_model(),
        **_table1_models(),
    }


class TestDifferentialRealModels:
    @pytest.mark.parametrize("name", [
        "campus-whatif", "energy", "table1-cost", "table1-energy",
        "table1-combined",
    ])
    def test_report_matches_reference(self, real_models, name):
        assert_matches_reference(real_models[name])

    def test_campus_whatif_needs_no_propagation(self, real_models,
                                                monkeypatch):
        calls = _count_propagation(monkeypatch)
        analyze_model(real_models["campus-whatif"])
        assert calls == []

    def test_single_use_edges_draw_no_duplicate_rows(self, real_models):
        report = analyze_model(real_models["campus-whatif"])
        assert "model.duplicate-row" not in report.rule_ids
