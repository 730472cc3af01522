"""Energy-consumption and lifetime constraints — (3a)-(3b) of the paper.

Charge accounting (unit: mA*ms) is per *reporting interval*: under the
collision-free TDMA protocol a node wakes only in its own TX/RX slots once
per report and sleeps otherwise (see DESIGN.md for why this reproduces the
paper's multi-year lifetimes).  For node *i*:

    Q_i = sum of per-use TX charges + per-use RX charges
          + c_active_i * t_slot * k_i                      (awake slots)
          + c_sleep_i  * (T_report - t_slot * k_i)         (sleep time)

where ``k_i`` is the number of slot-uses (one per TX and one per RX as in
the paper) and each radio use costs ``c_radio * airtime * ETX`` — the
(3b) product with the expected-transmission count from the link's SNR.

The device-dependent products are encoded without big-M where it costs
the LP relaxation most:

* **Awake and sleep charge** use the convex hull of the device
  disjunction.  The slot count is split per candidate device,
  ``k[i][d] <= k_ub * m[d][i]`` and ``sum_d k[i][d] == k_i``, so

      qact_i   = sum_d c_active_d * t_slot * k[i][d]
      qsleep_i = sum_d c_sleep_d * (T_report * m[d][i] - t_slot * k[i][d])

  are linear expressions, exact at integer points and the hull of the
  per-device charges in the LP (a fixed node pays its full sleep floor
  at the root instead of a device-averaged fraction of it).
* **Per-packet radio charges** keep one lower-bound row per device,
  ``qtx >= c_d * etx - c_d * ETX_cap * (1 - m_d)``, which the ETX term
  needs.  Because ``etx >= 1``, each edge end also gets one
  device-aggregated floor row

      qtx[u,v] >= sum_d c_d * m[d][u] - max_d c_d * (1 - e[u,v])

  (``c_d = c_radio_d * airtime``) that the LP cannot spread across
  devices.
* **Per-use charges** ``w >= q - q_ub * (1 - use)`` and the ETX chords
  are lower-bound chains: charge only ever appears on the burden side —
  the lifetime budget (3a) and the energy-minimization objective — so
  the solver settles each on its active lower bound.

The lifetime requirement itself is the linear budget

    Q_i * (L* / T_report) <= battery_charge      for battery-powered roles,

exactly (3a) after multiplying out the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channel.etx import EtxCurve, build_etx_curve
from repro.constraints.link_quality import LinkQualityVars
from repro.constraints.mapping import MappingVars
from repro.encoding.base import Edge, RoutingEncoding
from repro.milp.expr import LinExpr, Var, lin_sum
from repro.milp.model import Model
from repro.network.requirements import LifetimeRequirement, PowerConfig, TdmaConfig
from repro.network.template import Template


@dataclass
class EnergyVars:
    """Charge expressions (mA*ms per reporting interval) per node."""

    node_charge: dict[int, LinExpr] = field(default_factory=dict)
    slot_count: dict[int, LinExpr] = field(default_factory=dict)
    etx: dict[Edge, Var] = field(default_factory=dict)
    etx_curve: EtxCurve | None = None

    def total_charge(self) -> LinExpr:
        """Network-wide charge per reporting interval (energy objective)."""
        total = LinExpr()
        for expr in self.node_charge.values():
            total = total + expr
        return total


def lifetime_budget_ma_ms(
    lifetime: LifetimeRequirement, tdma: TdmaConfig, power: PowerConfig,
) -> float:
    """Max allowed per-report charge for the battery to last ``years``."""
    lifetime_ms = lifetime.years * 365.25 * 24 * 3600 * 1000.0
    reports = lifetime_ms / tdma.report_interval_ms
    return power.battery_ma_ms / reports


def build_energy(
    model: Model,
    template: Template,
    mapping: MappingVars,
    encoding: RoutingEncoding,
    lq: LinkQualityVars,
    tdma: TdmaConfig,
    power: PowerConfig,
    lifetime: LifetimeRequirement | None = None,
    etx_curve: EtxCurve | None = None,
) -> EnergyVars:
    """Add the energy model for every node touched by encoded edges."""
    curve = etx_curve or build_etx_curve(
        power.packet_bytes, template.link_type.modulation
    )
    airtime_ms = template.link_type.packet_airtime_ms(power.packet_bytes)
    etx_cap = curve.etx_at(curve.snr_floor)
    energy = EnergyVars(etx_curve=curve)

    # --- per-edge ETX variables and per-use radio charges -------------------
    tx_uses: dict[int, list[Var]] = {}
    rx_uses: dict[int, list[Var]] = {}
    tx_charge_terms: dict[int, list[Var]] = {}
    rx_charge_terms: dict[int, list[Var]] = {}

    for (u, v), e_var in encoding.edge_active.items():
        uses = encoding.edge_uses.get((u, v), [])
        if not uses:
            continue
        snr = lq.snr((u, v))
        snr_lo, snr_hi = lq.snr_bounds((u, v))

        # ETX variable with PWL lower bounds, active only when the edge is.
        etx = model.continuous(f"etx[{u},{v}]", 1.0, etx_cap)
        energy.etx[(u, v)] = etx
        for s_idx, seg in enumerate(curve.pwl.segments):
            # Worst slack needed when the edge is inactive: the segment's
            # largest value over the SNR range, down to the ETX floor of 1.
            seg_max = max(seg.value_at(snr_lo), seg.value_at(snr_hi))
            big_m = max(0.0, seg_max - 1.0)
            model.add(
                etx >= seg.slope * snr + seg.intercept - big_m * (1 - e_var),
                f"etx[{u},{v}]:seg{s_idx}",
            )
        # The PWL is only valid above its SNR floor; an active edge must
        # clear it (an implied link-quality floor of the energy model).
        floor_m = curve.snr_floor - snr_lo
        if floor_m > 0:
            model.add(
                snr >= curve.snr_floor - floor_m * (1 - e_var),
                f"etx[{u},{v}]:snr_floor",
            )

        # Per-packet radio charges, lower-bounded per candidate device.
        tx_coeffs = {
            d.name: d.radio_tx_ma * airtime_ms for d in mapping.devices_for(u)
        }
        rx_coeffs = {
            d.name: d.radio_rx_ma * airtime_ms for d in mapping.devices_for(v)
        }
        qtx_ub = max(tx_coeffs.values(), default=0.0) * etx_cap
        qrx_ub = max(rx_coeffs.values(), default=0.0) * etx_cap
        qtx = model.continuous(f"qtx[{u},{v}]", 0.0, qtx_ub)
        qrx = model.continuous(f"qrx[{u},{v}]", 0.0, qrx_ub)
        _add_radio_charge(
            model, qtx, mapping.assign[u], tx_coeffs, etx, etx_cap, e_var,
        )
        _add_radio_charge(
            model, qrx, mapping.assign[v], rx_coeffs, etx, etx_cap, e_var,
        )

        # One charge term per route use of the edge.
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

    # --- per-node active/sleep charges and lifetime budgets ------------------
    slots_per_report = tdma.slots * (
        tdma.report_interval_ms / tdma.superframe_ms
    )
    budget = (
        lifetime_budget_ma_ms(lifetime, tdma, power)
        if lifetime is not None
        else None
    )

    touched = sorted(set(tx_uses) | set(rx_uses))
    for node_id in touched:
        uses = tx_uses.get(node_id, []) + rx_uses.get(node_id, [])
        k_expr = lin_sum(uses)
        energy.slot_count[node_id] = k_expr
        k_ub = float(len(uses))
        # TDMA schedulability: slot-uses must fit the reporting interval.
        if k_ub > slots_per_report:
            model.add(
                k_expr <= slots_per_report, f"k[{node_id}]:schedulable"
            )
            k_ub = slots_per_report

        # Convex hull of the device disjunction: the slot count split
        # per candidate device makes awake and sleep charge linear.
        qact = LinExpr()
        qsleep = LinExpr()
        split = LinExpr()
        for dev in mapping.devices_for(node_id):
            m_var = mapping.assign[node_id][dev.name]
            k_dev = model.continuous(f"k[{node_id}][{dev.name}]", 0.0, k_ub)
            model.add(
                k_dev <= k_ub * m_var, f"k[{node_id}][{dev.name}]:on"
            )
            split.add_term(k_dev, 1.0)
            qact.add_term(k_dev, dev.active_ma * tdma.slot_ms)
            qsleep.add_term(m_var, dev.sleep_ma * tdma.report_interval_ms)
            qsleep.add_term(k_dev, -dev.sleep_ma * tdma.slot_ms)
        model.add(split == k_expr, f"k[{node_id}]:split")

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


def _add_radio_charge(
    model: Model,
    charge: Var,
    assign: dict[str, Var],
    coeffs: dict[str, float],
    etx: Var,
    etx_cap: float,
    e_var: Var,
) -> None:
    """Lower-bound one edge end's per-packet charge ``c_d * etx``.

    One big-M row per candidate device ``d`` (``c_d`` is its radio
    current times the airtime) carries the ETX term.  One
    device-aggregated floor row, valid because an active edge has
    ``etx >= 1``,

        charge >= sum_d c_d * m[d] - max_d c_d * (1 - e)

    keeps the LP from spreading ``m`` across devices to dodge the charge.
    A node without candidate devices can never carry an edge: no rows.
    """
    if not coeffs:
        return
    floor = LinExpr()
    for name, coeff in coeffs.items():
        m_var = assign[name]
        model.add(
            charge >= coeff * etx - coeff * etx_cap * (1 - m_var),
            f"{charge.name}:{name}",
        )
        floor.add_term(m_var, coeff)
    big_m = max(coeffs.values())
    model.add(
        charge >= floor - big_m * (1 - e_var), f"{charge.name}:floor"
    )
