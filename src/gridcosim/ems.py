"""Greedy priority-stack dispatch for behind-the-meter flexibility.

Per step, the battery set-point is chosen to (1) respect any hard DSO
import/export limit, then (2) minimize the grid exchange for owner
self-consumption, then (3) track an external target (VPP schedule or an
external set-point) with whatever headroom remains inside (1) and the
battery's power/energy limits.

Sign conventions: battery set-point > 0 charges; grid exchange > 0 imports.
Power balance at every decision: grid = load - pv + battery.
State of charge update: soc' = soc + (eta_c * max(p, 0) - max(-p, 0) / eta_d) * dt.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

MODE_IDLE = "idle"
MODE_SELF_CONSUMPTION = "self_consumption"
MODE_VPP_TRACKING = "vpp_tracking"
MODE_EXTERNAL_SETPOINT = "external_setpoint"
MODE_DSO_INFEASIBLE = "dso_infeasible"

BINDING_NONE = "none"
BINDING_DSO = "dso"
BINDING_BATTERY_POWER = "battery_power"
BINDING_BATTERY_ENERGY = "battery_energy"


class EmsError(Exception):
    pass


@dataclass(frozen=True)
class Battery:
    capacity_kwh: float
    p_max_kw: float
    eta_charge: float
    eta_discharge: float
    soc_kwh: float

    def __post_init__(self):
        if not 0.0 < self.eta_charge <= 1.0 or not 0.0 < self.eta_discharge <= 1.0:
            raise EmsError("efficiencies must be in (0, 1]")
        if not 0.0 <= self.soc_kwh <= self.capacity_kwh:
            raise EmsError("soc outside [0, capacity]")
        if self.p_max_kw < 0:
            raise EmsError("p_max_kw must be >= 0")


@dataclass(frozen=True)
class DsoLimit:
    p_max_import_kw: float
    p_max_export_kw: float
    t_start: int = 0
    t_end: int | None = None  # None = whole horizon

    def active_at(self, t: int) -> bool:
        return t >= self.t_start and (self.t_end is None or t < self.t_end)


@dataclass(frozen=True)
class VppSchedule:
    target_p_kw: float
    t_start: int = 0
    t_end: int | None = None

    def active_at(self, t: int) -> bool:
        return t >= self.t_start and (self.t_end is None or t < self.t_end)


@dataclass(frozen=True)
class EmsDecision:
    t: int
    battery_setpoint_kw: float
    grid_exchange_kw: float
    active_mode: str
    binding_constraint: str


def battery_limits(battery: Battery, dt_h: float) -> tuple[float, float, str, str]:
    """Feasible set-point interval [p_lo, p_hi] and which limit shapes each end."""
    charge_energy_cap = (battery.capacity_kwh - battery.soc_kwh) / (
        battery.eta_charge * dt_h
    )
    discharge_energy_cap = battery.soc_kwh * battery.eta_discharge / dt_h
    p_hi = min(battery.p_max_kw, charge_energy_cap)
    p_lo = -min(battery.p_max_kw, discharge_energy_cap)
    hi_kind = (
        BINDING_BATTERY_POWER
        if battery.p_max_kw <= charge_energy_cap
        else BINDING_BATTERY_ENERGY
    )
    lo_kind = (
        BINDING_BATTERY_POWER
        if battery.p_max_kw <= discharge_energy_cap
        else BINDING_BATTERY_ENERGY
    )
    return p_lo, p_hi, lo_kind, hi_kind


def apply_setpoint(battery: Battery, p_kw: float, dt_h: float) -> Battery:
    """Battery state after running at p_kw for dt_h hours (clamped to SoC bounds)."""
    delta = (
        battery.eta_charge * max(p_kw, 0.0) - max(-p_kw, 0.0) / battery.eta_discharge
    ) * dt_h
    soc = min(max(battery.soc_kwh + delta, 0.0), battery.capacity_kwh)
    return replace(battery, soc_kwh=soc)


def ems_step(
    battery: Battery | None,
    t: int,
    dt_s: int,
    load_kw: float,
    pv_kw: float,
    dso_limits: tuple[DsoLimit, ...] = (),
    vpp_schedules: tuple[VppSchedule, ...] = (),
    external_setpoint_kw: float | None = None,
) -> tuple[EmsDecision, Battery | None]:
    """One dispatch decision plus the updated battery state."""
    net = load_kw - pv_kw
    dt_h = dt_s / 3600.0
    if battery is None or battery.p_max_kw == 0.0:
        decision = EmsDecision(
            t=t, battery_setpoint_kw=0.0, grid_exchange_kw=net,
            active_mode=MODE_IDLE, binding_constraint=BINDING_NONE,
        )
        return decision, battery

    p_lo, p_hi, lo_kind, hi_kind = battery_limits(battery, dt_h)

    dso = next((d for d in dso_limits if d.active_at(t)), None)
    if dso is not None:
        d_lo = -dso.p_max_export_kw - net
        d_hi = dso.p_max_import_kw - net
    else:
        d_lo, d_hi = float("-inf"), float("inf")

    if dso is not None and (d_lo > p_hi or d_hi < p_lo):
        # DSO window cannot be met even at the battery's limit: saturate toward it.
        p = p_hi if d_lo > p_hi else p_lo
        binding = hi_kind if d_lo > p_hi else lo_kind
        decision = EmsDecision(
            t=t, battery_setpoint_kw=p, grid_exchange_kw=net + p,
            active_mode=MODE_DSO_INFEASIBLE, binding_constraint=binding,
        )
        return decision, apply_setpoint(battery, p, dt_h)

    vpp = next((v for v in vpp_schedules if v.active_at(t)), None)
    if external_setpoint_kw is not None:
        p_raw = external_setpoint_kw
        mode = MODE_EXTERNAL_SETPOINT
    elif vpp is not None:
        p_raw = vpp.target_p_kw - net
        mode = MODE_VPP_TRACKING
    else:
        p_raw = -net
        mode = MODE_SELF_CONSUMPTION

    p = p_raw
    binding = BINDING_NONE
    if p > min(p_hi, d_hi):
        if d_hi < p_hi:
            p, binding = d_hi, BINDING_DSO
        else:
            p, binding = p_hi, hi_kind
    elif p < max(p_lo, d_lo):
        if d_lo > p_lo:
            p, binding = d_lo, BINDING_DSO
        else:
            p, binding = p_lo, lo_kind

    decision = EmsDecision(
        t=t, battery_setpoint_kw=p, grid_exchange_kw=net + p,
        active_mode=mode, binding_constraint=binding,
    )
    return decision, apply_setpoint(battery, p, dt_h)


@dataclass
class Kpi:
    import_kwh: float
    export_kwh: float
    peak_import_kw: float
    dso_violations: int
    vpp_tracking_error_kwh: float


@dataclass
class KpiReport:
    run: Kpi
    baseline: Kpi


def _kpi(
    decisions, dt_s: int,
    dso_limits: tuple[DsoLimit, ...],
    vpp_schedules: tuple[VppSchedule, ...],
) -> Kpi:
    dt_h = dt_s / 3600.0
    import_kwh = export_kwh = peak = error = 0.0
    violations = 0
    for decision in decisions:
        g = decision.grid_exchange_kw
        import_kwh += max(g, 0.0) * dt_h
        export_kwh += max(-g, 0.0) * dt_h
        peak = max(peak, g)
        dso = next((d for d in dso_limits if d.active_at(decision.t)), None)
        if dso is not None and (
            g > dso.p_max_import_kw + 1e-9 or -g > dso.p_max_export_kw + 1e-9
        ):
            violations += 1
        vpp = next((v for v in vpp_schedules if v.active_at(decision.t)), None)
        if vpp is not None:
            error += abs(g - vpp.target_p_kw) * dt_h
    return Kpi(
        import_kwh=import_kwh, export_kwh=export_kwh, peak_import_kw=max(peak, 0.0),
        dso_violations=violations, vpp_tracking_error_kwh=error,
    )


def evaluate_run(
    decisions, baseline, dt_s: int,
    dso_limits: tuple[DsoLimit, ...] = (),
    vpp_schedules: tuple[VppSchedule, ...] = (),
) -> KpiReport:
    """KPIs for a decision trace against its battery-disabled baseline."""
    decisions = list(decisions)
    baseline = list(baseline)
    if len(decisions) != len(baseline) or any(
        a.t != b.t for a, b in zip(decisions, baseline)
    ):
        raise EmsError("decision traces cover different horizons")
    return KpiReport(
        run=_kpi(decisions, dt_s, dso_limits, vpp_schedules),
        baseline=_kpi(baseline, dt_s, dso_limits, vpp_schedules),
    )
