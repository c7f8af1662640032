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


_NO_FLOW = BranchFlow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class _Plan:
    """The topology-dependent parts of a solve for one switching state.

    Buses are numbered in solve order: the slack, then the energized PQ buses
    in model order. Ybus's PQ block is kept as COO entries (`rows`, `cols`,
    `vals`, all bus numbers >= 1) holding its nonzeros and its whole
    diagonal; `jac_index` are the flat positions in the Jacobian of the
    entries' [dP/dθ, dP/d|V|, dQ/dθ, dQ/d|V|]. The branch arrays hold one
    entry per conducting branch, in `keys` order.
    """

    open_lines: frozenset[str]
    islanded: list[str]
    order: list[str]
    index: dict[str, int]
    ybus: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    diag: np.ndarray      # positions of the diagonal entries, bus 1 first
    jac_index: np.ndarray
    keys: list[tuple[str, str]]
    f: np.ndarray         # from (HV) bus number
    t: np.ndarray         # to (LV) bus number
    y: np.ndarray         # series admittance, per unit
    y_tap: np.ndarray     # y / tap
    tap: np.ndarray
    i_base_ka: np.ndarray  # current base at the from bus
    limit: np.ndarray     # max_i_ka of a line (inf if none), rated MVA of a trafo
    is_line: np.ndarray
    dead_flows: dict[tuple[str, str], BranchFlow]


def _plan(model: GridModel, line_status: Mapping[str, bool]) -> _Plan:
    """The plan for `model` with `line_status` switching lines in or out:
    the model's last plan if the same lines are open, else a new one that
    replaces it."""
    for line_id in line_status:
        if model.element("line", line_id) is None:
            raise UnknownElement(f"line_status references unknown line '{line_id}'")
    open_lines = frozenset(
        line.id for line in model.lines if not line_status.get(line.id, line.in_service)
    )
    plan = model.last_plan
    if plan is None or plan.open_lines != open_lines:
        plan = model.last_plan = _build_plan(model, open_lines)
    return plan


def _build_plan(model: GridModel, open_lines: frozenset[str]) -> _Plan:
    slack_id = model.slack_bus.id
    energized = connected_buses(model, slack_id, open_lines)
    order = [slack_id] + [b.id for b in model.buses if b.id in energized and b.id != slack_id]
    index = {bus_id: i for i, bus_id in enumerate(order)}

    keys, ends, ys, y_taps, taps, i_base_ka, limits = [], [], [], [], [], [], []
    dead_flows = {}

    def add(kind, elem_id, from_bus, to_bus, z, tap, limit):
        if from_bus not in energized or to_bus not in energized:
            dead_flows[(kind, elem_id)] = _NO_FLOW
            return
        keys.append((kind, elem_id))
        ends.append((index[from_bus], index[to_bus]))
        ys.append(1.0 / z)
        y_taps.append(ys[-1] / tap)
        taps.append(tap)
        i_base_ka.append(model.base_mva / (math.sqrt(3.0) * model.bus(from_bus).nominal_kv))
        limits.append(limit)

    for line in model.lines:
        if line.id in open_lines:
            dead_flows[("line", line.id)] = _NO_FLOW
            continue
        kv = model.bus(line.from_bus).nominal_kv
        z_base = kv * kv / model.base_mva
        add("line", line.id, line.from_bus, line.to_bus,
            complex(line.r_ohm, line.x_ohm) / z_base, 1.0,
            line.max_i_ka if line.max_i_ka > 0 else math.inf)
    for trafo in model.trafos:
        s_rated_mva = trafo.s_rated_kva / 1000.0
        xk = math.sqrt(trafo.vk_percent**2 - trafo.vkr_percent**2)
        z = complex(trafo.vkr_percent / 100.0, xk / 100.0) * (model.base_mva / s_rated_mva)
        add("trafo", trafo.id, trafo.hv_bus, trafo.lv_bus, z, trafo.tap_ratio, s_rated_mva)

    # Ybus, summed in branch order: the ff, tt, ft and tf terms of each branch
    n = len(order)
    ybus = np.zeros((n, n), dtype=complex)
    at = np.array([(i, i, j, j, i, j, j, i) for i, j in ends], dtype=np.intp).reshape(-1, 2)
    terms = [(y / (tap * tap), y, -y_tap, -y_tap) for y, y_tap, tap in zip(ys, y_taps, taps)]
    np.add.at(ybus, (at[:, 0], at[:, 1]), np.array(terms, dtype=complex).ravel())

    npq = n - 1
    pattern = ybus[1:, 1:] != 0
    np.fill_diagonal(pattern, True)
    r, c = np.nonzero(pattern)
    side = 2 * npq
    jac_index = np.concatenate(
        [r * side + c, r * side + npq + c, (npq + r) * side + c, (npq + r) * side + npq + c]
    )
    ends_arr = np.array(ends, dtype=np.intp).reshape(-1, 2)
    return _Plan(
        open_lines=open_lines,
        islanded=sorted(set(model.bus_index) - energized),
        order=order,
        index=index,
        ybus=ybus,
        rows=r + 1,
        cols=c + 1,
        vals=ybus[r + 1, c + 1],
        diag=np.flatnonzero(r == c),
        jac_index=jac_index,
        keys=keys,
        f=ends_arr[:, 0],
        t=ends_arr[:, 1],
        y=np.array(ys, dtype=complex),
        y_tap=np.array(y_taps, dtype=complex),
        tap=np.array(taps, dtype=float),
        i_base_ka=np.array(i_base_ka, dtype=float),
        limit=np.array(limits, dtype=float),
        is_line=np.array([kind == "line" for kind, _id in keys], dtype=bool),
        dead_flows=dead_flows,
    )


def _jacobian(plan: _Plan, vm, v, i_bus, out) -> None:
    """Write the Newton Jacobian [dP/dθ dP/d|V|; dQ/dθ dQ/d|V|] over the PQ
    buses (every bus but the slack at number 0) into `out` at Ybus's
    pattern, at voltages `v` = `vm`·e^(jθ) with bus currents `i_bus` = Y·V.
    `out` must be zero off the pattern.

    Complex-matrix derivatives of S = diag(V)·conj(Y·V), from R. D.
    Zimmerman, MATPOWER Technical Note 2 (2010), taken entry by entry:
      dS/dθ   = j·diag(V)·conj(diag(I) − Y·diag(V))
      dS/d|V| = diag(V)·conj(Y·diag(V/|V|)) + conj(diag(I))·diag(V/|V|)
    """
    r, c, y, d = plan.rows, plan.cols, plan.vals, plan.diag
    v_r, v_dir = v[r], v / vm
    diag_term = np.zeros(len(r), dtype=complex)  # the diag(...) terms, row by row
    diag_term[d] = i_bus[1:]
    ds_dva = 1j * v_r * np.conj(diag_term - y * v[c])
    diag_term[d] = np.conj(i_bus[1:]) * v_dir[1:]
    ds_dvm = v_r * np.conj(y * v_dir[c]) + diag_term
    out.flat[plan.jac_index] = np.concatenate(
        [ds_dva.real, ds_dvm.real, ds_dva.imag, ds_dvm.imag]
    )


def run_power_flow(
    model: GridModel,
    injections: Mapping[str, tuple[float, float]] | None = None,
    line_status: Mapping[str, bool] | None = None,
) -> PowerFlowSolution:
    """Solve the AC power flow for per-bus net injections in kW/kvar.

    `injections` maps bus id to net (p_kw, q_kvar), generation positive;
    non-slack buses default to zero injection. `line_status` switches lines
    in or out for this solve without touching the model's lines.
    """
    injections = dict(injections or {})
    for bus_id in injections:
        if bus_id not in model.bus_index:
            raise UnknownElement(f"injection references unknown bus '{bus_id}'")
    plan = _plan(model, line_status or {})
    index, ybus = plan.index, plan.ybus
    slack_id = model.slack_bus.id
    n = len(index)

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
    jac = np.zeros((2 * npq, 2 * npq))

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
        _jacobian(plan, vm, v, i_bus, jac)
        try:
            dx = np.linalg.solve(jac, mismatch)
        except np.linalg.LinAlgError:
            break
        va[1:] += dx[:npq]
        vm[1:] += dx[npq:]

    v = vm * np.exp(1j * va)
    vm_pu = dict.fromkeys(plan.islanded, 0.0)
    vm_pu.update(zip(plan.order, vm.tolist()))
    va_rad = dict.fromkeys(plan.islanded, 0.0)
    va_rad.update(zip(plan.order, va.tolist()))

    # branch flows, in the order of operations of the per-branch formulas
    vf, vt = v[plan.f], v[plan.t]
    i_from = plan.y_tap * (vf / plan.tap - vt)
    i_to = plan.y * (vt - vf / plan.tap)
    s_from = vf * np.conj(i_from)
    s_to = vt * np.conj(i_to)
    loss = np.cumsum(np.concatenate([[0j], s_from + s_to]))[-1]  # summed in branch order
    i_ka = np.hypot(i_from.real, i_from.imag) * plan.i_base_ka
    s_from_mva = np.hypot(s_from.real, s_from.imag) * model.base_mva
    loading = 100.0 * np.where(plan.is_line, i_ka, s_from_mva) / plan.limit
    branch_flows = dict(zip(plan.keys, map(
        BranchFlow,
        (s_from.real * base_kw).tolist(),
        (s_from.imag * base_kw).tolist(),
        (s_to.real * base_kw).tolist(),
        (s_to.imag * base_kw).tolist(),
        i_ka.tolist(),
        loading.tolist(),
    )))
    branch_flows.update(plan.dead_flows)

    s_slack = v[0] * np.conj(ybus[0] @ v)
    applied = {bus_id: injections.get(bus_id, (0.0, 0.0)) for bus_id in plan.order[1:]}
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
        islanded_buses=list(plan.islanded),
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
