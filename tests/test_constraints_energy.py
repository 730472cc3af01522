"""Tests for the energy/lifetime constraints (3a)-(3b)."""

import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import repro.core.explorer as explorer_module
from repro.channel.etx import build_etx_curve
from repro.constraints import EnergyVars, lifetime_budget_ma_ms
from repro.core import DataCollectionExplorer, ObjectiveSpec
from repro.core.explorer import decode_architecture
from repro.encoding import ApproximatePathEncoder
from repro.library import default_catalog
from repro.milp import BranchAndBoundSolver, HighsSolver
from repro.milp.expr import LinExpr, lin_sum
from repro.network import (
    LifetimeRequirement,
    LinkQualityRequirement,
    PowerConfig,
    RequirementSet,
    TdmaConfig,
    small_grid_template,
    synthetic_template,
)
from repro.validation import node_charge_ma_ms, validate


@pytest.fixture()
def grid():
    return small_grid_template(nx=4, ny=3, spacing=10.0)


def make_requirements(instance, years=5.0, replicas=2):
    reqs = RequirementSet()
    for s in instance.sensor_ids:
        reqs.require_route(
            s, instance.sink_id, replicas=replicas, disjoint=replicas > 1
        )
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    reqs.lifetime = LifetimeRequirement(years=years)
    return reqs


class TestBudget:
    def test_budget_formula(self):
        tdma = TdmaConfig(report_interval_s=30.0)
        power = PowerConfig(battery_mah=3000.0)
        budget = lifetime_budget_ma_ms(LifetimeRequirement(5.0), tdma, power)
        # battery mA*ms divided by reports in 5 years.
        reports = 5 * 365.25 * 24 * 3600 / 30.0
        assert budget == pytest.approx(power.battery_ma_ms / reports)

    def test_longer_lifetime_smaller_budget(self):
        tdma, power = TdmaConfig(), PowerConfig()
        b5 = lifetime_budget_ma_ms(LifetimeRequirement(5.0), tdma, power)
        b10 = lifetime_budget_ma_ms(LifetimeRequirement(10.0), tdma, power)
        assert b10 == pytest.approx(b5 / 2.0)


class TestEnergyModel:
    def test_milp_charge_upper_bounds_exact_charge(self, grid):
        """The MILP's (PWL, per-use chain) charge must dominate the
        validator's exact nonlinear recomputation on the decoded design,
        and its awake+sleep part must equal the exact value."""
        self._check_decoded_charges(grid, "energy")

    def test_awake_sleep_charge_exact_under_cost_objective(self, grid):
        """The convex-hull awake+sleep charge is exact at every integer
        point, not only where the energy objective pushes it down."""
        self._check_decoded_charges(grid, "cost")

    @staticmethod
    def _check_decoded_charges(grid, objective):
        reqs = make_requirements(grid)
        explorer = DataCollectionExplorer(
            grid.template, default_catalog(), reqs,
            encoder=ApproximatePathEncoder(k_star=6),
        )
        built = explorer.build(objective)
        solution = HighsSolver().solve(built.model)
        assert solution.status.has_solution
        arch = decode_architecture(
            solution, built, grid.template, default_catalog()
        )
        tdma = reqs.tdma
        checked = 0
        for node_id, charge_expr in built.energy.node_charge.items():
            if node_id not in arch.sizing:
                continue
            device = arch.device_of(node_id)
            slots = len(arch.tx_uses(node_id)) + len(arch.rx_uses(node_id))
            exact_awake_sleep = (
                device.active_ma * tdma.slot_ms * slots
                + device.sleep_ma * (tdma.report_interval_ms
                                     - tdma.slot_ms * slots)
            )
            awake_sleep_expr = _without_radio_terms(built.model, charge_expr)
            # Equal up to HiGHS' 1e-6 integrality/feasibility tolerance
            # on each term (a binary may sit at 1 - 1e-6).
            tol = 1e-6 * sum(abs(c) for c in awake_sleep_expr.coeffs.values())
            assert solution.value(awake_sleep_expr) == pytest.approx(
                exact_awake_sleep, abs=tol
            )
            milp_charge = solution.value(charge_expr)
            exact = node_charge_ma_ms(arch, reqs, node_id)
            assert milp_charge >= exact * (1 - 1e-5) - 1e-3
            checked += 1
        assert checked == len(arch.sizing)

    def test_lifetime_requirement_validated(self, grid):
        reqs = make_requirements(grid, years=5.0)
        result = DataCollectionExplorer(
            grid.template, default_catalog(), reqs
        ).solve("cost")
        assert result.feasible
        report = validate(result.architecture, reqs)
        assert report.ok, report.violations
        assert report.min_lifetime_years >= 5.0

    def test_stricter_lifetime_costs_more(self, grid):
        cheap = DataCollectionExplorer(
            grid.template, default_catalog(), make_requirements(grid, 2.0)
        ).solve("cost")
        strict = DataCollectionExplorer(
            grid.template, default_catalog(), make_requirements(grid, 10.0)
        ).solve("cost")
        assert cheap.feasible and strict.feasible
        assert (
            strict.architecture.dollar_cost
            >= cheap.architecture.dollar_cost - 1e-9
        )

    def test_impossible_lifetime_infeasible(self, grid):
        # Even an idle low-power node cannot last 200 years on 2xAA.
        reqs = make_requirements(grid, years=200.0)
        result = DataCollectionExplorer(
            grid.template, default_catalog(), reqs
        ).solve("cost")
        assert not result.feasible

    def test_energy_objective_prefers_low_power_parts(self, grid):
        reqs = make_requirements(grid)
        explorer = DataCollectionExplorer(
            grid.template, default_catalog(), reqs
        )
        cost_opt = explorer.solve("cost")
        energy_opt = explorer.solve("energy")
        assert cost_opt.feasible and energy_opt.feasible
        report_cost = validate(cost_opt.architecture, reqs)
        report_energy = validate(energy_opt.architecture, reqs)
        assert (report_energy.total_charge_ma_ms
                <= report_cost.total_charge_ma_ms + 1e-6)
        assert (energy_opt.architecture.dollar_cost
                >= cost_opt.architecture.dollar_cost - 1e-9)

    def test_sink_exempt_from_lifetime(self, grid):
        reqs = make_requirements(grid)
        result = DataCollectionExplorer(
            grid.template, default_catalog(), reqs
        ).solve("cost")
        report = validate(result.architecture, reqs)
        assert grid.sink_id not in report.lifetimes_years

    def test_slot_demand_counted_per_route_use(self, grid):
        """Node slot counts in the MILP equal the decoded route uses."""
        reqs = make_requirements(grid)
        explorer = DataCollectionExplorer(
            grid.template, default_catalog(), reqs,
        )
        built = explorer.build("cost")
        solution = HighsSolver().solve(built.model)
        arch = decode_architecture(
            solution, built, grid.template, default_catalog()
        )
        for node_id, k_expr in built.energy.slot_count.items():
            if node_id not in arch.sizing:
                continue
            expected = len(arch.tx_uses(node_id)) + len(arch.rx_uses(node_id))
            assert solution.value(k_expr) == pytest.approx(expected)


def _without_radio_terms(model, charge_expr):
    """A node's awake+sleep charge: its charge minus the per-use terms."""
    radio = {
        var.index for var in model.variables
        if var.name.startswith(("wtx[", "wrx["))
    }
    return LinExpr(
        {idx: c for idx, c in charge_expr.coeffs.items() if idx not in radio},
        charge_expr.constant,
    )


# -- differential exactness against the chained big-M encoding ----------------


def _chained_build_energy(
    model, template, mapping, encoding, lq, tdma, power,
    lifetime=None, etx_curve=None,
):
    """The previous (3a)-(3b) encoding, kept as a test oracle.

    Awake and sleep charge are variables chained below by one big-M row
    per device, ``qsleep >= s_d*(T - t_slot*k) - s_d*T*(1 - m_d)``; there
    are no radio-charge floor rows.  Exact at integer points like the
    convex-hull encoding, but with a much weaker LP relaxation.
    """
    curve = etx_curve or build_etx_curve(
        power.packet_bytes, template.link_type.modulation
    )
    airtime_ms = template.link_type.packet_airtime_ms(power.packet_bytes)
    etx_cap = curve.etx_at(curve.snr_floor)
    energy = EnergyVars(etx_curve=curve)

    tx_uses, rx_uses, tx_charge_terms, rx_charge_terms = {}, {}, {}, {}
    for (u, v), e_var in encoding.edge_active.items():
        uses = encoding.edge_uses.get((u, v), [])
        if not uses:
            continue
        snr = lq.snr((u, v))
        snr_lo, snr_hi = lq.snr_bounds((u, v))
        etx = model.continuous(f"etx[{u},{v}]", 1.0, etx_cap)
        energy.etx[(u, v)] = etx
        for s_idx, seg in enumerate(curve.pwl.segments):
            seg_max = max(seg.value_at(snr_lo), seg.value_at(snr_hi))
            big_m = max(0.0, seg_max - 1.0)
            model.add(
                etx >= seg.slope * snr + seg.intercept - big_m * (1 - e_var),
                f"etx[{u},{v}]:seg{s_idx}",
            )
        floor_m = curve.snr_floor - snr_lo
        if floor_m > 0:
            model.add(
                snr >= curve.snr_floor - floor_m * (1 - e_var),
                f"etx[{u},{v}]:snr_floor",
            )
        tx_devs = mapping.devices_for(u)
        rx_devs = mapping.devices_for(v)
        qtx_ub = max((d.radio_tx_ma for d in tx_devs), default=0.0)
        qrx_ub = max((d.radio_rx_ma for d in rx_devs), default=0.0)
        qtx_ub *= airtime_ms * etx_cap
        qrx_ub *= airtime_ms * etx_cap
        qtx = model.continuous(f"qtx[{u},{v}]", 0.0, qtx_ub)
        qrx = model.continuous(f"qrx[{u},{v}]", 0.0, qrx_ub)
        for dev in tx_devs:
            m_var = mapping.assign[u][dev.name]
            coeff = dev.radio_tx_ma * airtime_ms
            model.add(
                qtx >= coeff * etx - coeff * etx_cap * (1 - m_var),
                f"qtx[{u},{v}]:{dev.name}",
            )
        for dev in rx_devs:
            m_var = mapping.assign[v][dev.name]
            coeff = dev.radio_rx_ma * airtime_ms
            model.add(
                qrx >= coeff * etx - coeff * etx_cap * (1 - m_var),
                f"qrx[{u},{v}]:{dev.name}",
            )
        for k, use in enumerate(uses):
            w_tx = model.continuous(f"wtx[{u},{v}][{k}]", 0.0, qtx_ub)
            model.add(
                w_tx >= qtx - qtx_ub * (1 - use), f"wtx[{u},{v}][{k}]:on"
            )
            w_rx = model.continuous(f"wrx[{u},{v}][{k}]", 0.0, qrx_ub)
            model.add(
                w_rx >= qrx - qrx_ub * (1 - use), f"wrx[{u},{v}][{k}]:on"
            )
            tx_charge_terms.setdefault(u, []).append(w_tx)
            rx_charge_terms.setdefault(v, []).append(w_rx)
            tx_uses.setdefault(u, []).append(use)
            rx_uses.setdefault(v, []).append(use)

    slots_per_report = tdma.slots * (
        tdma.report_interval_ms / tdma.superframe_ms
    )
    budget = (
        lifetime_budget_ma_ms(lifetime, tdma, power)
        if lifetime is not None
        else None
    )
    for node_id in sorted(set(tx_uses) | set(rx_uses)):
        uses = tx_uses.get(node_id, []) + rx_uses.get(node_id, [])
        k_expr = lin_sum(uses)
        energy.slot_count[node_id] = k_expr
        k_ub = float(len(uses))
        if k_ub > slots_per_report:
            model.add(
                k_expr <= slots_per_report, f"k[{node_id}]:schedulable"
            )
            k_ub = slots_per_report
        devices = mapping.devices_for(node_id)
        qact_ub = max((d.active_ma for d in devices), default=0.0)
        qact_ub *= tdma.slot_ms * k_ub
        qact = model.continuous(f"qact[{node_id}]", 0.0, max(qact_ub, 0.0))
        qsleep_ub = max((d.sleep_ma for d in devices), default=0.0)
        qsleep_ub *= tdma.report_interval_ms
        qsleep = model.continuous(
            f"qsleep[{node_id}]", 0.0, max(qsleep_ub, 0.0)
        )
        for dev in devices:
            m_var = mapping.assign[node_id][dev.name]
            act_coeff = dev.active_ma * tdma.slot_ms
            model.add(
                qact >= act_coeff * k_expr - act_coeff * k_ub * (1 - m_var),
                f"qact[{node_id}]:{dev.name}",
            )
            sleep_time = tdma.report_interval_ms - tdma.slot_ms * k_expr
            big_m = dev.sleep_ma * tdma.report_interval_ms
            model.add(
                qsleep >= dev.sleep_ma * sleep_time - big_m * (1 - m_var),
                f"qsleep[{node_id}]:{dev.name}",
            )
        charge = (
            lin_sum(tx_charge_terms.get(node_id, []))
            + lin_sum(rx_charge_terms.get(node_id, []))
            + qact
            + qsleep
        )
        energy.node_charge[node_id] = charge
        if budget is not None:
            role = template.node(node_id).role
            if role not in lifetime.mains_roles:
                model.add(charge <= budget, f"lifetime[{node_id}]")
    return energy


#: HiGHS' relative gap; two optimal objectives agree within twice it.
_GAP = HighsSolver().mip_rel_gap


def _build_pair(monkeypatch, instance, reqs, objective):
    """The (hull, chained) models of one problem, from one explorer."""
    explorer = DataCollectionExplorer(
        instance.template, default_catalog(), reqs, analyze=False,
    )
    hull = explorer.build(objective)
    with monkeypatch.context() as patch:
        patch.setattr(explorer_module, "build_energy", _chained_build_energy)
        chained = explorer.build(objective)
    return hull, chained


def _lp_bound(model):
    """The LP-relaxation optimum of ``model``."""
    form = model.to_standard_form()
    result = milp(
        form.c,
        constraints=LinearConstraint(form.a_matrix, form.b_lower,
                                     form.b_upper),
        bounds=Bounds(form.x_lower, form.x_upper),
    )
    assert result.status == 0, result.message
    return result.fun + model.objective.constant


def _assert_same_optimum(a, b):
    assert a == pytest.approx(b, rel=2 * _GAP, abs=2 * _GAP)


_DIFF_INSTANCES = {
    "grid-4x3": lambda: small_grid_template(nx=4, ny=3, spacing=10.0),
    "synthetic-20-5-s1": lambda: synthetic_template(20, 5, seed=1),
    "synthetic-20-5-s6": lambda: synthetic_template(20, 5, seed=6),
}


class TestChainedOracle:
    """The convex-hull encoding against the chained big-M one."""

    @pytest.mark.parametrize("name", sorted(_DIFF_INSTANCES))
    def test_objectives_match_and_root_bound_tightens(
        self, monkeypatch, name,
    ):
        instance = _DIFF_INSTANCES[name]()
        reqs = make_requirements(instance)
        optima = {}
        for term in ("cost", "energy"):
            optima[term] = self._compare(monkeypatch, instance, reqs, term)
        combined = ObjectiveSpec.combine(
            weights={"cost": 0.5, "energy": 0.5},
            scales={term: max(value, 1e-9) for term, value in optima.items()},
        )
        self._compare(monkeypatch, instance, reqs, combined)

    @staticmethod
    def _compare(monkeypatch, instance, reqs, objective):
        hull, chained = _build_pair(monkeypatch, instance, reqs, objective)
        hull_sol = HighsSolver().solve(hull.model)
        chained_sol = HighsSolver().solve(chained.model)
        assert hull_sol.status.has_solution, hull_sol.status
        assert chained_sol.status.has_solution, chained_sol.status
        _assert_same_optimum(hull_sol.objective, chained_sol.objective)
        hull_lp = _lp_bound(hull.model)
        chained_lp = _lp_bound(chained.model)
        assert hull_lp >= chained_lp - 1e-6 * max(1.0, abs(chained_lp))
        assert hull_lp <= hull_sol.objective * (1 + 2 * _GAP) + 1e-6
        return hull_sol.objective

    def test_energy_root_gap_closes(self, monkeypatch):
        """The hull's root bound is strictly tighter on the energy model."""
        instance = synthetic_template(20, 5, seed=1)
        hull, chained = _build_pair(
            monkeypatch, instance, make_requirements(instance), "energy",
        )
        assert _lp_bound(hull.model) > 1.5 * _lp_bound(chained.model)

    def test_branch_and_bound_agrees(self, monkeypatch):
        instance = small_grid_template(nx=3, ny=2, spacing=10.0)
        reqs = make_requirements(instance, replicas=1)
        hull, chained = _build_pair(monkeypatch, instance, reqs, "energy")
        bnb = BranchAndBoundSolver().solve(hull.model)
        oracle = HighsSolver().solve(chained.model)
        assert bnb.status.has_solution, bnb.status
        assert oracle.status.has_solution, oracle.status
        _assert_same_optimum(bnb.objective, oracle.objective)
        _assert_same_optimum(
            bnb.objective, HighsSolver().solve(hull.model).objective
        )
