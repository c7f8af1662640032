"""Newton-Raphson AC power flow in polar per-unit coordinates.

Constant-PQ injections, flat start, tolerance 1e-8 pu on the largest P/Q
mismatch, at most 20 iterations. Buses cut off from the slack by open
switches are reported as islanded (de-energized) rather than solved.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .model import GridModel, connected_buses

TOLERANCE_PU = 1e-8
MAX_ITERATIONS = 20


class PowerFlowError(Exception):
    pass


class _BusView(Mapping):
    """A read-only per-bus view: bus id -> `values[position[bus id]]`."""

    __slots__ = ("_position", "_values")

    def __init__(self, position: Mapping[str, int], values: list):
        self._position, self._values = position, values

    def __getitem__(self, bus_id):
        return self._values[self._position[bus_id]]

    def __iter__(self):
        return iter(self._position)

    def __len__(self):
        return len(self._position)


@dataclass
class PowerFlowSolution:
    converged: bool
    iterations: int
    max_mismatch_pu: float
    vm_pu: Mapping[str, float]                        # every bus; 0.0 if islanded
    va_rad: Mapping[str, float]
    # per branch row: p_from_kw, q_from_kvar, i_ka, loading_percent; the
    # last row, all zeros, is every dead (open or cut off) branch's
    branch_flows: np.ndarray
    branch_rows: Mapping[tuple[str, str], int]       # (kind, id) -> row
    injections_kw: Mapping[str, tuple[float, float]]  # applied per energized PQ bus (p_kw, q_kvar)
    slack_p_kw: float
    slack_q_kvar: float
    islanded_buses: list[str] = field(default_factory=list)
    losses_kw: float = 0.0


# A layer is eliminated only if it holds at least this many buses. A layer
# costs a fixed number of numpy calls and saves the dense solve the time
# that its buses add to the core. Measured on binary trees whose core is
# about as large as the layer (2-vCPU VM, numpy 2.4): a layer of 8, 16 or
# 32 buses cost 26, 36 or 51 us and saved 4, 18 or 154 us. Smaller layers
# would slow the solve down. The pinned 3- to 36-bus grids and a 40-bus
# binary tree get none.
MIN_LAYER_BUSES = 32


@dataclass(frozen=True)
class _Layer:
    """Leaf buses that `_eliminate` takes out together. A leaf is a PQ bus
    with one neighbour left, its parent; no two leaves of a layer are
    neighbours. `*_block` are the positions in the compact Jacobian of 2x2
    blocks, row by row [θθ, θ|V|, |V|θ, |V||V|], except `leaf_block`, which
    lists them in the adjugate's order [|V||V|, θ|V|, |V|θ, θθ]. `*_rhs` are
    the positions [[θ], [|V|]] in the Newton step. `linked` picks the leaves
    whose parent is a PQ bus rather than the slack (a slice if all are); the
    rows of `down`, `up`, `parent_block` and `parent_rhs` belong to those
    leaves."""

    leaf_block: np.ndarray    # D_l, (L, 4)
    leaf_rhs: np.ndarray      # (L, 2, 1)
    linked: np.ndarray | slice
    down: np.ndarray          # B_lp: leaf rows, parent columns
    up: np.ndarray            # B_pl: parent rows, leaf columns
    parent_block: np.ndarray  # D_p
    parent_rhs: np.ndarray


@dataclass
class _Plan:
    """The topology-dependent parts of a solve for one switching state.

    Buses are numbered in solve order: the slack, then the energized PQ buses
    in model order. Ybus's PQ block is kept as entries (`rows`, `cols`,
    `vals`, all bus numbers >= 1) holding its nonzeros and its whole
    diagonal, row by row; `diag` are the positions of the diagonal ones.
    The compact Jacobian holds, for these entries in turn, every dP/dθ,
    then every dP/d|V|, dQ/dθ and dQ/d|V|. `layers` are the leaf layers
    `_eliminate` takes out, leaves first; what is left, the core, is
    scattered from the compact positions `core_src` to the flat positions
    `core_dst` of an m×m matrix, and `core_rhs` are its positions in the
    Newton step. The branch arrays hold one entry per conducting branch, in
    row order; `branch_rows` gives each branch its row, -1 for a dead one.

    At the flat start every solve of the plan has the same bus currents,
    `flat_i_bus`, and so the same Jacobian; its elimination is made at the
    first solve that needs it and kept in `flat_elimination`.
    """

    open_lines: frozenset[str]
    line_status: dict[str, bool]  # the last `line_status` that gave `open_lines`
    islanded: list[str]
    order: list[str]
    bus_position: dict[str, int]  # bus id -> solve number, n if islanded
    pq_position: dict[str, int]   # PQ bus id -> solve number - 1
    ybus: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    diag: np.ndarray
    layers: tuple[_Layer, ...]
    core_src: np.ndarray
    core_dst: np.ndarray
    core_rhs: np.ndarray
    flat_vm: np.ndarray
    flat_i_bus: np.ndarray
    branch_rows: dict[tuple[str, str], int]
    f: np.ndarray         # from (HV) bus number
    t: np.ndarray         # to (LV) bus number
    y: np.ndarray         # series admittance, per unit
    y_tap: np.ndarray     # y / tap
    tap: np.ndarray
    i_base_ka: np.ndarray  # current base at the from bus
    limit: np.ndarray     # max_i_ka of a line (inf if none), rated MVA of a trafo
    is_line: np.ndarray
    flat_elimination: tuple | None = None


def _plan(model: GridModel, line_status: Mapping[str, bool]) -> _Plan:
    """The plan for `model` with `line_status` switching lines in or out:
    the model's last plan if the same lines are open, else a new one that
    replaces it."""
    plan = model.last_plan
    if plan is not None and line_status == plan.line_status:
        return plan
    for line_id in line_status:
        if model.element("line", line_id) is None:
            raise PowerFlowError(f"line_status references unknown line '{line_id}'")
    open_lines = frozenset(
        line.id for line in model.lines if not line_status.get(line.id, line.in_service)
    )
    if plan is None or plan.open_lines != open_lines:
        plan = model.last_plan = _build_plan(model, open_lines)
    plan.line_status = dict(line_status)
    return plan


def _build_plan(model: GridModel, open_lines: frozenset[str]) -> _Plan:
    slack_id = model.slack_bus.id
    energized = connected_buses(model, slack_id, open_lines)
    order = [slack_id] + [b.id for b in model.buses if b.id in energized and b.id != slack_id]
    index = {bus_id: i for i, bus_id in enumerate(order)}
    islanded = sorted(set(model.bus_index) - energized)

    branch_rows = {}
    f, t, ys, y_taps, taps, kv_from, limits, terms = [], [], [], [], [], [], [], []

    def add(kind, elem_id, from_bus, to_bus, z, tap, limit):
        if from_bus not in energized or to_bus not in energized:
            branch_rows[(kind, elem_id)] = -1
            return
        branch_rows[(kind, elem_id)] = len(f)
        f.append(index[from_bus])
        t.append(index[to_bus])
        y = 1.0 / z
        y_tap = y / tap
        ys.append(y)
        y_taps.append(y_tap)
        taps.append(tap)
        kv_from.append(model.bus(from_bus).nominal_kv)
        limits.append(limit)
        terms.extend((y / (tap * tap), y, -y_tap, -y_tap))  # Ybus's ff, tt, ft and tf terms

    for line in model.lines:
        if line.id in open_lines:
            branch_rows[("line", line.id)] = -1
            continue
        kv = model.bus(line.from_bus).nominal_kv
        z_base = kv * kv / model.base_mva
        add("line", line.id, line.from_bus, line.to_bus,
            complex(line.r_ohm, line.x_ohm) / z_base, 1.0,
            line.max_i_ka if line.max_i_ka > 0 else math.inf)
    live_lines = len(f)
    for trafo in model.trafos:
        s_rated_mva = trafo.s_rated_kva / 1000.0
        xk = math.sqrt(trafo.vk_percent**2 - trafo.vkr_percent**2)
        z = complex(trafo.vkr_percent / 100.0, xk / 100.0) * (model.base_mva / s_rated_mva)
        add("trafo", trafo.id, trafo.hv_bus, trafo.lv_bus, z, trafo.tap_ratio, s_rated_mva)

    # Ybus, summed in branch order: the ff, tt, ft and tf terms of each branch
    n = len(order)
    f, t = np.array(f, dtype=np.intp), np.array(t, dtype=np.intp)
    at = np.stack([f, t, f, t], axis=1) * n + np.stack([f, t, t, f], axis=1)
    ybus = np.zeros((n, n), dtype=complex)
    np.add.at(ybus.reshape(-1), at.ravel(), np.array(terms, dtype=complex))

    # Ybus's pattern from the branch list, as keys row * n + column sorted
    # row by row: the neighbour pairs, each once, then the PQ block with its
    # whole diagonal
    pairs = np.sort(np.concatenate([f * n + t, t * n + f]))
    fr, to = np.divmod(pairs, n)
    kept = (fr != to) & np.concatenate([[True], pairs[1:] != pairs[:-1]])
    pairs, fr, to = pairs[kept], fr[kept], to[kept]
    keys = np.sort(np.concatenate([pairs[(fr > 0) & (to > 0)], np.arange(1, n) * (n + 1)]))
    rows, cols = np.divmod(keys, n)

    def blocks(i, j):  # compact positions, a row of four each, of the 2x2 blocks at i, j
        return np.searchsorted(keys, i * n + j)[:, None] + len(keys) * _QUARTERS

    npq = n - 1
    layers, core = _leaf_layers(fr, to, npq, blocks)
    flat_vm = np.ones(n)
    flat_vm[0] = model.slack_bus.vm_setpoint_pu
    return _Plan(
        open_lines=open_lines,
        line_status={},
        islanded=islanded,
        order=order,
        bus_position={**dict.fromkeys(islanded, n), **index},
        pq_position={bus_id: i for i, bus_id in enumerate(order[1:])},
        ybus=ybus,
        rows=rows,
        cols=cols,
        vals=ybus[rows, cols],
        diag=np.flatnonzero(rows == cols),
        layers=layers,
        **_core_scatter(rows - 1, cols - 1, core, npq),
        flat_vm=flat_vm,
        flat_i_bus=ybus @ (flat_vm * np.exp(1j * np.zeros(n))),
        branch_rows=branch_rows,
        f=f,
        t=t,
        y=np.array(ys, dtype=complex),
        y_tap=np.array(y_taps, dtype=complex),
        tap=np.array(taps, dtype=float),
        i_base_ka=model.base_mva / (math.sqrt(3.0) * np.array(kv_from, dtype=float)),
        limit=np.array(limits, dtype=float),
        is_line=np.arange(len(f)) < live_lines,
    )


_QUARTERS = np.arange(4)
_HALVES = np.array([[0], [1]])


def _core_scatter(r, c, core, npq: int) -> dict[str, np.ndarray]:
    """The core's positions, given its PQ numbers `core`: `core_rhs` in the
    Newton step, and `core_src` / `core_dst`, where the compact Jacobian's
    entries at PQ rows `r` and columns `c` (PQ numbers: bus number - 1)
    that lie in the core go in the flat m×m core matrix. Its rows and
    columns are the θ of the core buses, then their |V|."""
    size = len(core)
    at = np.full(npq, -1)
    at[core] = np.arange(size)
    kept = np.flatnonzero((at[r] >= 0) & (at[c] >= 0))
    row_half, col_half = np.divmod(_QUARTERS, 2)
    return {
        "core_rhs": np.concatenate([core, npq + core]),
        "core_src": (len(r) * _QUARTERS[:, None] + kept).ravel(),
        "core_dst": ((row_half[:, None] * size + at[r[kept]]) * 2 * size
                     + col_half[:, None] * size + at[c[kept]]).ravel(),
    }


def _leaf_layers(fr, to, npq: int, blocks) -> tuple[tuple[_Layer, ...], np.ndarray]:
    """Peel leaf layers off the bus graph whose neighbour pairs are `fr`,
    `to` (bus numbers, sorted by `fr`) while a layer holds at least
    MIN_LAYER_BUSES buses. `blocks(i, j)` gives the compact Jacobian
    positions of the 2x2 blocks at bus numbers `i`, `j`. Returns the layers
    and the PQ numbers of the buses left, the core.

    Tinney & Walker, Proc. IEEE 55(11), 1967: a bus with one neighbour is
    eliminated without fill, changing only its neighbour's diagonal block.
    Counting degrees finds each layer in one O(nnz) pass. Since the graph
    stays connected to the slack, which is never peeled, no two leaves of
    one layer are neighbours.
    """
    degree = np.bincount(fr, minlength=npq + 1)
    alive = np.ones(npq + 1, dtype=bool)
    leaves = np.flatnonzero(degree[1:] == 1) + 1
    layers = []
    while len(leaves) >= MIN_LAYER_BUSES:
        in_layer = np.zeros(npq + 1, dtype=bool)
        in_layer[leaves] = True
        parents = to[in_layer[fr] & alive[to]]  # one per leaf, in leaf order
        alive[leaves] = False
        np.subtract.at(degree, parents, 1)
        linked = np.flatnonzero(parents != 0)
        leaf, parent = leaves[linked], parents[linked]
        layers.append(_Layer(
            leaf_block=blocks(leaves, leaves)[:, [3, 1, 2, 0]],
            leaf_rhs=_step_rows(npq, leaves - 1),
            linked=slice(None) if len(linked) == len(leaves) else linked,
            down=blocks(leaf, parent),
            up=blocks(parent, leaf),
            parent_block=blocks(parent, parent),
            parent_rhs=_step_rows(npq, parent - 1),
        ))
        is_parent = np.zeros(npq + 1, dtype=bool)
        is_parent[parent] = True
        leaves = np.flatnonzero(is_parent & (degree == 1))
    return tuple(layers), np.flatnonzero(alive[1:])


def _step_rows(npq: int, i) -> np.ndarray:
    """Positions [[θ], [|V|]] in the Newton step of PQ numbers `i`."""
    return i[:, None, None] + npq * _HALVES


_ADJUGATE_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


def _eliminate(plan: _Plan, jac: np.ndarray) -> tuple:
    """Eliminate the plan's leaf layers from the compact Jacobian `jac`: for
    each leaf l with parent p, a Schur complement takes B_pl·D_l⁻¹·B_lp from
    D_p, in place in `jac`. Returns per layer (D_l⁻¹, D_l⁻¹·B_lp, B_pl), and
    the core that is left as a dense m×m matrix in the order of the plan's
    `core_rhs`; with no layer that is the whole Jacobian in natural order.

    A leaf block whose determinant is 0 or not finite raises
    `np.linalg.LinAlgError`.
    """
    layers = []
    for layer in plan.layers:
        adj = jac[layer.leaf_block]  # [d, b, c, a] of D_l = [[a, b], [c, d]]
        det = adj[:, 0] * adj[:, 3] - adj[:, 1] * adj[:, 2]
        if not (np.isfinite(det).all() and det.all()):
            raise np.linalg.LinAlgError("singular leaf block")
        d_inv = (adj * (_ADJUGATE_SIGN / det[:, None])).reshape(-1, 2, 2)
        g = d_inv[layer.linked] @ jac[layer.down].reshape(-1, 2, 2)
        up = jac[layer.up].reshape(-1, 2, 2)
        np.subtract.at(jac, layer.parent_block, (up @ g).reshape(-1, 4))
        layers.append((d_inv, g, up))
    m = len(plan.core_rhs)
    core = np.zeros(m * m)
    core[plan.core_dst] = jac[plan.core_src]
    return layers, core.reshape(m, m)


def _solve(plan: _Plan, elimination: tuple, rhs) -> np.ndarray:
    """The Newton step for `rhs` from `_eliminate`'s result: the leaf layers
    take B_pl·D_l⁻¹·r_l from r_p, layer by layer, the core is solved densely
    and the layers back-substituted, last layer first."""
    eliminated, core = elimination
    rhs = rhs.copy()
    steps = []  # per layer: D_l⁻¹·r_l
    for layer, (d_inv, _g, up) in zip(plan.layers, eliminated):
        y = d_inv @ rhs[layer.leaf_rhs]
        np.subtract.at(rhs, layer.parent_rhs, up @ y[layer.linked])
        steps.append(y)
    x = np.empty_like(rhs)
    x[plan.core_rhs] = np.linalg.solve(core, rhs[plan.core_rhs])
    for layer, (_d_inv, g, _up), y in zip(reversed(plan.layers), reversed(eliminated),
                                          reversed(steps)):
        y[layer.linked] -= g @ x[layer.parent_rhs]
        x[layer.leaf_rhs] = y
    return x


def _jacobian(plan: _Plan, vm, v, i_bus) -> np.ndarray:
    """The compact Newton Jacobian [dP/dθ dP/d|V|; dQ/dθ dQ/d|V|] over the PQ
    buses (every bus but the slack at number 0), at Ybus's pattern, at
    voltages `v` = `vm`·e^(jθ) with bus currents `i_bus` = Y·V.

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
    return np.concatenate([ds_dva.real, ds_dvm.real, ds_dva.imag, ds_dvm.imag])


_NO_INJECTION = (0.0, 0.0)


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
    injections = injections or {}
    if not injections.keys() <= model.bus_index.keys():
        unknown = next(bus_id for bus_id in injections if bus_id not in model.bus_index)
        raise PowerFlowError(f"injection references unknown bus '{unknown}'")
    plan = _plan(model, line_status or {})
    ybus = plan.ybus
    n = len(plan.order)

    base_kw = model.base_mva * 1000.0
    npq = n - 1
    applied = list(map(injections.get, plan.pq_position, repeat(_NO_INJECTION)))
    # [P; Q] specified at the PQ buses, in solve order, per unit
    spec = np.fromiter(chain.from_iterable(applied), float, 2 * npq).reshape(npq, 2).T.ravel()
    spec /= base_kw

    vm = plan.flat_vm.copy()
    va = np.zeros(n)

    converged = False
    iterations = 0
    max_mismatch = math.inf
    for iteration in range(1, MAX_ITERATIONS + 1):
        iterations = iteration
        v = vm * np.exp(1j * va)
        i_bus = plan.flat_i_bus if iteration == 1 else ybus @ v
        s = v * np.conj(i_bus)
        mismatch = spec - np.concatenate([s.real[1:], s.imag[1:]])
        max_mismatch = float(np.max(np.abs(mismatch))) if npq else 0.0
        if max_mismatch < TOLERANCE_PU:
            converged = True
            break
        try:
            if iteration == 1:  # the flat start: one elimination for every solve of the plan
                if plan.flat_elimination is None:
                    plan.flat_elimination = _eliminate(plan, _jacobian(plan, vm, v, i_bus))
                elimination = plan.flat_elimination
            else:
                elimination = _eliminate(plan, _jacobian(plan, vm, v, i_bus))
            dx = _solve(plan, elimination, mismatch)
        except np.linalg.LinAlgError:
            break
        va[1:] += dx[:npq]
        vm[1:] += dx[npq:]

    v = vm * np.exp(1j * va)

    # branch flows, in the order of operations of the per-branch formulas
    vf, vt = v[plan.f], v[plan.t]
    i_from = plan.y_tap * (vf / plan.tap - vt)
    i_to = plan.y * (vt - vf / plan.tap)
    s_from = vf * np.conj(i_from)
    s_to = vt * np.conj(i_to)
    loss = np.cumsum(np.concatenate([[0j], s_from + s_to]))[-1]  # summed in branch order
    i_ka = np.hypot(i_from.real, i_from.imag) * plan.i_base_ka
    s_from_mva = np.hypot(s_from.real, s_from.imag) * model.base_mva
    flows = np.zeros((len(plan.f) + 1, 4))  # the last row is the dead branches'
    flows[:-1] = np.stack([s_from.real * base_kw, s_from.imag * base_kw, i_ka,
                           100.0 * np.where(plan.is_line, i_ka, s_from_mva) / plan.limit],
                          axis=1)

    s_slack = v[0] * np.conj(ybus[0] @ v)
    return PowerFlowSolution(
        converged=converged,
        iterations=iterations,
        max_mismatch_pu=float(max_mismatch),
        vm_pu=_BusView(plan.bus_position, vm.tolist() + [0.0]),
        va_rad=_BusView(plan.bus_position, va.tolist() + [0.0]),
        branch_flows=flows,
        branch_rows=plan.branch_rows,
        injections_kw=_BusView(plan.pq_position, applied),
        slack_p_kw=float(np.real(s_slack)) * base_kw,
        slack_q_kvar=float(np.imag(s_slack)) * base_kw,
        islanded_buses=list(plan.islanded),
        losses_kw=float(loss.real) * base_kw,
    )


# the fields a monitor datapoint may read, per element kind; a branch's
# p_kw and q_kvar are its from-end flow
_BRANCH_FIELDS = (
    "p_kw", "q_kvar", "p_from_kw", "q_from_kvar", "v_pu", "i_ka", "loading_percent",
)
MONITOR_FIELDS = {
    "bus": ("p_kw", "q_kvar", "v_pu"),
    "line": _BRANCH_FIELDS,
    "trafo": _BRANCH_FIELDS,
    "load": ("p_kw", "q_kvar", "v_pu"),
    "sgen": ("p_kw", "q_kvar", "v_pu"),
}
# branch field -> column of PowerFlowSolution.branch_flows
_FLOW_COLUMN = {"p_kw": 0, "p_from_kw": 0, "q_kvar": 1, "q_from_kvar": 1,
                "i_ka": 2, "loading_percent": 3}


def measurements_at(
    model: GridModel,
    solution: PowerFlowSolution,
    kind: str,
    elem_id: str,
    fieldname: str,
    element_values: Mapping[tuple[str, str], tuple[float, float]] | None = None,
) -> float:
    """One field of MONITOR_FIELDS of one element of a converged solution,
    in engineering units. `v_pu` is the voltage at the element's bus; a
    line's from bus, a trafo's HV bus. A bus's `p_kw`/`q_kvar` are the slack
    power for the slack bus, else the applied injection; a load's or sgen's
    are its applied value (`element_values`, else the model's), 0.0 on an
    islanded bus."""
    if not solution.converged:
        raise PowerFlowError("cannot take measurements from a non-converged solution")
    element = model.element(kind, elem_id)
    if element is None:
        raise PowerFlowError(f"no {kind} '{elem_id}' in the model")
    if fieldname not in MONITOR_FIELDS[kind]:
        raise PowerFlowError(f"no measurable field '{fieldname}' of a {kind}")
    if kind in ("line", "trafo"):
        if fieldname == "v_pu":
            return solution.vm_pu[element.from_bus if kind == "line" else element.hv_bus]
        row = solution.branch_rows[(kind, elem_id)]
        return float(solution.branch_flows[row, _FLOW_COLUMN[fieldname]])
    bus = elem_id if kind == "bus" else element.bus
    if fieldname == "v_pu":
        return solution.vm_pu[bus]
    if kind == "bus":
        if elem_id == model.slack_bus.id:
            p, q = solution.slack_p_kw, solution.slack_q_kvar
        else:
            p, q = solution.injections_kw.get(elem_id, (0.0, 0.0))
    elif bus in solution.islanded_buses:
        p, q = 0.0, 0.0
    else:
        p, q = (element_values or {}).get((kind, elem_id), (element.p_kw, element.q_kvar))
    return float(p if fieldname == "p_kw" else q)
