"""Newton-Raphson AC power flow in polar per-unit coordinates.

Constant-PQ injections, flat start, tolerance 1e-8 pu on the largest P/Q
mismatch, at most 20 iterations. Buses cut off from the slack by open
switches are reported as islanded (de-energized) rather than solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .model import GridModel, connected_buses

TOLERANCE_PU = 1e-8
MAX_ITERATIONS = 20


class PowerFlowError(Exception):
    pass


class UnknownElement(PowerFlowError):
    pass


class UnconvergedSolution(PowerFlowError):
    pass


@dataclass(frozen=True)
class BranchFlow:
    p_from_kw: float
    q_from_kvar: float
    p_to_kw: float
    q_to_kvar: float
    i_ka: float
    loading_percent: float


@dataclass(frozen=True)
class Measurement:
    p_kw: float
    q_kvar: float
    v_pu: float
    i_ka: float
    loading_percent: float

    def value(self, fieldname: str) -> float:
        mapping = {
            "p_kw": self.p_kw,
            "q_kvar": self.q_kvar,
            "p_from_kw": self.p_kw,
            "q_from_kvar": self.q_kvar,
            "v_pu": self.v_pu,
            "i_ka": self.i_ka,
            "loading_percent": self.loading_percent,
        }
        if fieldname not in mapping:
            raise UnknownElement(f"no measurable field '{fieldname}'")
        return mapping[fieldname]


@dataclass
class PowerFlowSolution:
    converged: bool
    iterations: int
    max_mismatch_pu: float
    vm_pu: dict[str, float]
    va_rad: dict[str, float]
    branch_flows: dict[tuple[str, str], BranchFlow]  # (kind, id) -> flow
    injections_kw: dict[str, tuple[float, float]]    # applied per-bus (p_kw, q_kvar)
    slack_p_kw: float
    slack_q_kvar: float
    islanded_buses: list[str] = field(default_factory=list)
    losses_kw: float = 0.0
    losses_kvar: float = 0.0


def _branch_admittances(model: GridModel, energized: set[str]):
    """Per-unit series admittance and tap ratio for every conducting branch."""
    branches = []
    for line in model.lines:
        if not line.in_service:
            continue
        if line.from_bus not in energized or line.to_bus not in energized:
            continue
        kv = model.bus(line.from_bus).nominal_kv
        z_base = kv * kv / model.base_mva
        z = complex(line.r_ohm, line.x_ohm) / z_base
        branches.append(("line", line.id, line.from_bus, line.to_bus, 1.0 / z, 1.0))
    for trafo in model.trafos:
        if trafo.hv_bus not in energized or trafo.lv_bus not in energized:
            continue
        s_rated_mva = trafo.s_rated_kva / 1000.0
        xk = math.sqrt(trafo.vk_percent**2 - trafo.vkr_percent**2)
        z = complex(trafo.vkr_percent / 100.0, xk / 100.0) * (
            model.base_mva / s_rated_mva
        )
        branches.append(
            ("trafo", trafo.id, trafo.hv_bus, trafo.lv_bus, 1.0 / z, trafo.tap_ratio)
        )
    return branches


def _jacobian(ybus, vm, v, i_bus, out) -> None:
    """Fill `out` with the Newton Jacobian [dP/dθ dP/d|V|; dQ/dθ dQ/d|V|]
    over the PQ buses (every bus but the slack at index 0), at voltages
    `v` = `vm`·e^(jθ) with bus currents `i_bus` = Y·V.

    Complex-matrix derivatives of S = diag(V)·conj(Y·V), from R. D.
    Zimmerman, MATPOWER Technical Note 2 (2010):
      dS/dθ   = j·diag(V)·conj(diag(I) − Y·diag(V))
      dS/d|V| = diag(V)·conj(Y·diag(V/|V|)) + conj(diag(I))·diag(V/|V|)
    """
    npq = len(v) - 1
    y_pq, v_pq, i_pq = ybus[1:, 1:], v[1:], i_bus[1:]
    v_dir = v_pq / vm[1:]
    ds_dva = 1j * v_pq[:, None] * np.conj(np.diag(i_pq) - y_pq * v_pq)
    ds_dvm = v_pq[:, None] * np.conj(y_pq * v_dir) + np.diag(np.conj(i_pq) * v_dir)
    out[:npq, :npq] = ds_dva.real
    out[:npq, npq:] = ds_dvm.real
    out[npq:, :npq] = ds_dva.imag
    out[npq:, npq:] = ds_dvm.imag


def run_power_flow(
    model: GridModel,
    injections: Mapping[str, tuple[float, float]] | None = None,
    line_status: Mapping[str, bool] | None = None,
) -> PowerFlowSolution:
    """Solve the AC power flow for per-bus net injections in kW/kvar.

    `injections` maps bus id to net (p_kw, q_kvar), generation positive;
    non-slack buses default to zero injection. `line_status` switches lines
    in or out for this solve without touching the model.
    """
    if line_status:
        model = model.with_line_status(dict(line_status))
    injections = dict(injections or {})
    for bus_id in injections:
        if bus_id not in model.bus_index:
            raise UnknownElement(f"injection references unknown bus '{bus_id}'")

    energized = connected_buses(model, model.slack_bus.id, switching=True)
    islanded = sorted(set(model.bus_index) - energized)
    solve_buses = [b for b in model.buses if b.id in energized]
    slack_id = model.slack_bus.id
    pq_buses = [b.id for b in solve_buses if b.id != slack_id]
    index = {bus_id: i for i, bus_id in enumerate([slack_id] + pq_buses)}
    n = len(index)

    ybus = np.zeros((n, n), dtype=complex)
    branches = _branch_admittances(model, energized)
    for _kind, _bid, from_bus, to_bus, y, tap in branches:
        i, j = index[from_bus], index[to_bus]
        ybus[i, i] += y / (tap * tap)
        ybus[j, j] += y
        ybus[i, j] -= y / tap
        ybus[j, i] -= y / tap

    base_kw = model.base_mva * 1000.0
    npq = n - 1
    spec = np.zeros(2 * npq)  # [P; Q] specified at the PQ buses, per unit
    for bus_id, (p_kw, q_kvar) in injections.items():
        if bus_id in index and bus_id != slack_id:
            k = index[bus_id] - 1
            spec[k] = p_kw / base_kw
            spec[npq + k] = q_kvar / base_kw

    vm = np.ones(n)
    vm[0] = model.slack_bus.vm_setpoint_pu
    va = np.zeros(n)
    jac = np.empty((2 * npq, 2 * npq))

    converged = False
    iterations = 0
    max_mismatch = math.inf
    for iteration in range(1, MAX_ITERATIONS + 1):
        iterations = iteration
        v = vm * np.exp(1j * va)
        i_bus = ybus @ v
        s = v * np.conj(i_bus)
        mismatch = spec - np.concatenate([s.real[1:], s.imag[1:]])
        max_mismatch = float(np.max(np.abs(mismatch))) if npq else 0.0
        if max_mismatch < TOLERANCE_PU:
            converged = True
            break
        _jacobian(ybus, vm, v, i_bus, jac)
        try:
            dx = np.linalg.solve(jac, mismatch)
        except np.linalg.LinAlgError:
            break
        va[1:] += dx[:npq]
        vm[1:] += dx[npq:]

    v = vm * np.exp(1j * va)
    vm_pu = {bus_id: 0.0 for bus_id in islanded}
    va_rad = {bus_id: 0.0 for bus_id in islanded}
    for bus_id, i in index.items():
        vm_pu[bus_id] = float(vm[i])
        va_rad[bus_id] = float(va[i])

    branch_flows: dict[tuple[str, str], BranchFlow] = {}
    loss = 0.0 + 0.0j
    for kind, bid, from_bus, to_bus, y, tap in branches:
        vf, vt = v[index[from_bus]], v[index[to_bus]]
        i_from = (y / tap) * (vf / tap - vt)
        i_to = y * (vt - vf / tap)
        s_from = vf * np.conj(i_from)
        s_to = vt * np.conj(i_to)
        loss += s_from + s_to
        kv_from = model.bus(from_bus).nominal_kv
        i_base_ka = model.base_mva / (math.sqrt(3.0) * kv_from)
        i_ka = float(abs(i_from)) * i_base_ka
        if kind == "line":
            limit = model.element("line", bid).max_i_ka
            loading = 100.0 * i_ka / limit if limit > 0 else 0.0
        else:
            s_rated_mva = model.element("trafo", bid).s_rated_kva / 1000.0
            s_from_mva = float(abs(s_from)) * model.base_mva
            loading = 100.0 * s_from_mva / s_rated_mva
        branch_flows[(kind, bid)] = BranchFlow(
            p_from_kw=float(s_from.real) * base_kw,
            q_from_kvar=float(s_from.imag) * base_kw,
            p_to_kw=float(s_to.real) * base_kw,
            q_to_kvar=float(s_to.imag) * base_kw,
            i_ka=i_ka,
            loading_percent=loading,
        )
    for line in model.lines:
        if ("line", line.id) not in branch_flows:
            branch_flows[("line", line.id)] = BranchFlow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for trafo in model.trafos:
        if ("trafo", trafo.id) not in branch_flows:
            branch_flows[("trafo", trafo.id)] = BranchFlow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    s_slack = v[0] * np.conj(ybus[0] @ v) if n else 0.0
    applied = {
        bus_id: injections.get(bus_id, (0.0, 0.0))
        for bus_id in model.bus_index
        if bus_id in energized and bus_id != slack_id
    }
    return PowerFlowSolution(
        converged=converged,
        iterations=iterations,
        max_mismatch_pu=float(max_mismatch),
        vm_pu=vm_pu,
        va_rad=va_rad,
        branch_flows=branch_flows,
        injections_kw=applied,
        slack_p_kw=float(np.real(s_slack)) * base_kw,
        slack_q_kvar=float(np.imag(s_slack)) * base_kw,
        islanded_buses=islanded,
        losses_kw=float(loss.real) * base_kw,
        losses_kvar=float(loss.imag) * base_kw,
    )


def measurements_at(
    model: GridModel,
    solution: PowerFlowSolution,
    kind: str,
    elem_id: str,
    element_values: Mapping[tuple[str, str], tuple[float, float]] | None = None,
) -> Measurement:
    """Engineering-unit measurement for one element of a converged solution."""
    if not solution.converged:
        raise UnconvergedSolution("cannot take measurements from a non-converged solution")
    element = model.element(kind, elem_id)
    if element is None:
        raise UnknownElement(f"no {kind} '{elem_id}' in the model")
    if kind == "bus":
        if elem_id == model.slack_bus.id:
            p, q = solution.slack_p_kw, solution.slack_q_kvar
        else:
            p, q = solution.injections_kw.get(elem_id, (0.0, 0.0))
        return Measurement(
            p_kw=p,
            q_kvar=q,
            v_pu=solution.vm_pu[elem_id],
            i_ka=0.0,
            loading_percent=0.0,
        )
    if kind in ("line", "trafo"):
        flow = solution.branch_flows[(kind, elem_id)]
        from_bus = element.from_bus if kind == "line" else element.hv_bus
        return Measurement(
            p_kw=flow.p_from_kw,
            q_kvar=flow.q_from_kvar,
            v_pu=solution.vm_pu[from_bus],
            i_ka=flow.i_ka,
            loading_percent=flow.loading_percent,
        )
    # load / sgen: element-level applied values, bus voltage
    p, q = (element_values or {}).get((kind, elem_id), (element.p_kw, element.q_kvar))
    return Measurement(
        p_kw=p,
        q_kvar=q,
        v_pu=solution.vm_pu[element.bus],
        i_ka=0.0,
        loading_percent=0.0,
    )
