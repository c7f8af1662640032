import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ATTACK_DEMO, FEEDER7, FLEX_DEMO, SCADA_BURST, TREE_FEEDER
from gridcosim.configfile import ConfigError
from gridcosim.grid import powerflow
from gridcosim.grid.model import (
    MONITOR_FIELDS,
    Bus,
    GridModel,
    Line,
    Trafo,
    ValidationError,
    load_grid,
    parse_grid,
    validate,
)
from gridcosim.grid.powerflow import (
    PowerFlowError,
    _eliminate,
    _jacobian,
    _plan,
    _solve,
    measurements_at,
    run_power_flow,
)
from gridcosim.grid.profiles import (
    bus_injections,
    element_values_at,
    load_profiles,
    parse_profiles,
)

TWO_BUS = """
[grid]
base_mva = 1.0
[bus]
a  nominal_kv=20.0 type=slack
b  nominal_kv=20.0 type=pq
[line]
l1  from=a to=b r_ohm=40.0 x_ohm=80.0 max_i_ka=0.4
[load]
ld  bus=b p_kw=100.0 q_kvar=50.0
"""


def two_bus_model(z_pu: complex, kv=20.0, base_mva=1.0) -> GridModel:
    z_base = kv * kv / base_mva
    model = GridModel(
        buses=[Bus("a", kv, "slack"), Bus("b", kv, "pq")],
        lines=[Line("l1", "a", "b", z_pu.real * z_base, z_pu.imag * z_base, 1.0)],
        trafos=[], loads=[], sgens=[], base_mva=base_mva,
    )
    validate(model)
    return model


def fixed_point_v2(z_pu: complex, s_pu: complex, tol=1e-10, max_iter=500):
    """Independent 2-bus oracle: V2 <- 1 - z * conj(S) / conj(V2)."""
    v2 = 1.0 + 0.0j
    for _ in range(max_iter):
        nxt = 1.0 - z_pu * np.conj(s_pu) / np.conj(v2)
        if abs(nxt - v2) < tol:
            return nxt
        v2 = nxt
    return None


class TestModel:
    def test_two_bus_file(self):
        model = parse_grid(TWO_BUS)
        assert len(model.buses) == 2 and len(model.lines) == 1
        assert model.slack_bus.id == "a"
        assert model.branch_count == len(model.buses) - 1

    def test_zero_impedance_rejected(self):
        bad = TWO_BUS.replace("r_ohm=40.0 x_ohm=80.0", "r_ohm=0 x_ohm=0")
        with pytest.raises(ValidationError) as err:
            parse_grid(bad)
        assert err.value.kind == "NonPositiveImpedance"

    def test_no_slack_rejected(self):
        bad = TWO_BUS.replace("type=slack", "type=pq")
        with pytest.raises(ValidationError) as err:
            parse_grid(bad)
        assert err.value.kind == "NoSlack"

    def test_disconnected_rejected(self):
        bad = TWO_BUS + "\n[bus]\nc nominal_kv=20.0 type=pq\n"
        with pytest.raises(ValidationError) as err:
            parse_grid(bad)
        assert err.value.kind in ("Disconnected", "NotRadial")

    def test_meshed_needs_flag(self):
        meshed = TWO_BUS + "\n[line]\nl2 from=a to=b r_ohm=40.0 x_ohm=80.0 max_i_ka=0.4\n"
        with pytest.raises(ValidationError) as err:
            parse_grid(meshed)
        assert err.value.kind == "NotRadial"
        parse_grid(meshed.replace("base_mva = 1.0", "base_mva = 1.0\nmeshed = true"))

    def test_missing_key_is_parse_error(self):
        with pytest.raises(ConfigError):
            parse_grid("[bus]\na type=slack\n")

    def test_feeder7_fixture(self, feeder7_path):
        model = load_grid(feeder7_path)
        assert len(model.buses) == 7
        assert len(model.lines) == 6
        assert model.branch_count == len(model.buses) - 1


def branch_readings(model, solution) -> dict:
    """Every field of every line and trafo, through the reader."""
    return {(kind, e.id, f): measurements_at(model, solution, kind, e.id, f)
            for kind, elements in (("line", model.lines), ("trafo", model.trafos))
            for e in elements for f in MONITOR_FIELDS[kind]}


class TestPowerFlow:
    def test_flat_no_load_exact_one_iteration(self):
        model = two_bus_model(0.1 + 0.2j)
        solution = run_power_flow(model, {})
        assert solution.converged
        assert solution.iterations == 1
        assert solution.vm_pu == {"a": 1.0, "b": 1.0}
        assert solution.va_rad == {"a": 0.0, "b": 0.0}
        assert measurements_at(model, solution, "line", "l1", "p_from_kw") == 0.0
        assert measurements_at(model, solution, "line", "l1", "i_ka") == 0.0

    def test_two_bus_matches_fixed_point_oracle(self):
        z, s = 0.1 + 0.2j, 0.1 + 0.05j
        model = two_bus_model(z)
        solution = run_power_flow(model, {"b": (-s.real * 1000, -s.imag * 1000)})
        oracle = fixed_point_v2(z, s)
        assert solution.converged
        assert abs(solution.vm_pu["b"] - abs(oracle)) < 1e-9
        assert solution.vm_pu["b"] == pytest.approx(0.979, abs=5e-4)

    def test_branch_flow_matches_oracle(self):
        z, s = 0.1 + 0.2j, 0.1 + 0.05j
        model = two_bus_model(z)
        solution = run_power_flow(model, {"b": (-s.real * 1000, -s.imag * 1000)})
        v2 = fixed_point_v2(z, s)
        i_from = np.conj(s / v2)
        s_from_kw = (1.0 * np.conj(i_from)).real * 1000.0
        p_kw = measurements_at(model, solution, "line", "l1", "p_kw")
        assert p_kw == pytest.approx(s_from_kw, rel=1e-3)

    def test_conservation_identity(self, feeder7_path):
        model = load_grid(feeder7_path)
        injections = bus_injections(model, element_values_at(model, None, 0))
        solution = run_power_flow(model, injections)
        assert solution.converged
        total_inj = sum(p for p, _q in solution.injections_kw.values())
        residual_kw = solution.slack_p_kw + total_inj - solution.losses_kw
        assert abs(residual_kw) < 1e-6 * model.base_mva * 1000  # 1e-6 pu

    def test_oracle_equivalence_seeded_sweep(self):
        rng = np.random.default_rng(20260811)
        checked = 0
        for _ in range(200):
            zmag = rng.uniform(0.01, 0.3)
            zang = rng.uniform(0.3, 1.4)  # r/x mix, keeps r,x > 0
            smag = rng.uniform(0.0, 0.3)
            sang = rng.uniform(-0.5, 0.5)
            z = zmag * np.exp(1j * zang)
            s = smag * np.exp(1j * sang)
            oracle = fixed_point_v2(z, s)
            model = two_bus_model(z)
            solution = run_power_flow(model, {"b": (-s.real * 1000, -s.imag * 1000)})
            if oracle is None or not solution.converged:
                continue
            checked += 1
            assert abs(solution.vm_pu["b"] - abs(oracle)) < 1e-6
        assert checked > 150  # the sweep must actually exercise the solver

    def test_leaf_load_increase_never_raises_leaf_voltage(self, feeder7_path):
        model = load_grid(feeder7_path)
        base_values = element_values_at(model, None, 0)
        previous = None
        for p_extra in (0.0, 100.0, 200.0, 400.0):
            values = dict(base_values)
            p, q = values[("load", "ld6")]
            values[("load", "ld6")] = (p + p_extra, q)
            solution = run_power_flow(model, bus_injections(model, values))
            assert solution.converged
            vm = solution.vm_pu["b6"]
            if previous is not None:
                assert vm <= previous + 1e-12
            previous = vm

    def test_open_switch_islands_downstream(self, feeder7_path):
        model = load_grid(feeder7_path)
        solution = run_power_flow(model, {}, line_status={"ln4": False})
        assert solution.converged
        assert solution.islanded_buses == ["b4", "b5", "b6"]
        assert solution.vm_pu["b5"] == 0.0
        assert measurements_at(model, solution, "line", "ln5", "p_from_kw") == 0.0

    def test_switching_back_and_forth_matches_fresh_models(self, feeder7_path):
        # one model keeps the plan of its last switching state; each solve
        # must equal a solve on a model that never saw another state
        model = load_grid(feeder7_path)
        injections = bus_injections(model, element_values_at(model, None, 0))
        for line_status in ({"ln4": False}, {}, {"ln4": False}):
            solution = run_power_flow(model, injections, line_status)
            fresh_model = load_grid(feeder7_path)
            fresh = run_power_flow(fresh_model, injections, line_status)
            assert solution.converged and fresh.converged
            assert solution.vm_pu == fresh.vm_pu
            assert branch_readings(model, solution) == branch_readings(fresh_model, fresh)
            assert solution.islanded_buses == fresh.islanded_buses
            assert bool(solution.islanded_buses) == ("ln4" in line_status)

    def test_unknown_line_in_line_status_rejected(self, feeder7_path):
        model = load_grid(feeder7_path)
        with pytest.raises(PowerFlowError, match="line_status references unknown line 'ln99'"):
            run_power_flow(model, {}, line_status={"ln99": False})

    def test_unconverged_reported_not_raised(self):
        model = two_bus_model(0.01 + 0.3j)
        solution = run_power_flow(model, {"b": (-5000.0, -2000.0)})  # far beyond loadability
        assert not solution.converged
        assert solution.max_mismatch_pu > 1e-8
        with pytest.raises(PowerFlowError, match="cannot take measurements from a non-converged"):
            measurements_at(model, solution, "bus", "b", "v_pu")

    def test_measurements(self):
        model = two_bus_model(0.1 + 0.2j)
        solution = run_power_flow(model, {})
        assert measurements_at(model, solution, "bus", "a", "p_kw") == pytest.approx(0.0, abs=1e-9)
        assert measurements_at(model, solution, "bus", "a", "v_pu") == 1.0
        with pytest.raises(PowerFlowError, match="no bus 'zz' in the model"):
            measurements_at(model, solution, "bus", "zz", "v_pu")

    def test_measurement_value_by_field(self):
        model = two_bus_model(0.1 + 0.2j)
        solution = run_power_flow(model, {"b": (-100.0, -50.0)})
        p, q, i_ka, loading = solution.branch_flows[solution.branch_rows[("line", "l1")]]
        values = [measurements_at(model, solution, "line", "l1", f)
                  for f in ("p_kw", "q_kvar", "p_from_kw", "q_from_kvar", "v_pu",
                            "i_ka", "loading_percent")]
        assert values == [p, q, p, q, solution.vm_pu["a"], i_ka, loading]
        assert len(set(values)) == 5 and all(type(v) is float for v in values)
        with pytest.raises(PowerFlowError, match="no measurable field 'p_to_kw' of a line"):
            measurements_at(model, solution, "line", "l1", "p_to_kw")

    def test_trafo_loading_definition(self):
        kv_hv, kv_lv = 20.0, 0.4
        model = GridModel(
            buses=[Bus("h", kv_hv, "slack"), Bus("l", kv_lv, "pq")],
            lines=[],
            trafos=[Trafo("t1", "h", "l", s_rated_kva=630, vk_percent=6.0, vkr_percent=1.2)],
            loads=[], sgens=[], base_mva=1.0,
        )
        validate(model)
        solution = run_power_flow(model, {"l": (-300.0, -100.0)})
        assert solution.converged
        p, q, loading = (measurements_at(model, solution, "trafo", "t1", f)
                         for f in ("p_from_kw", "q_from_kvar", "loading_percent"))
        s_flow_kva = (p**2 + q**2) ** 0.5
        assert loading == pytest.approx(100.0 * s_flow_kva / 630.0, rel=1e-9)


# A 20 kV ring feeding a 0.4 kV street through an off-nominal-tap transformer.
MESHED_TAP = """
[grid]
base_mva = 1.0
meshed = true
[bus]
h0  nominal_kv=20.0 type=slack vm_pu=1.02
h1  nominal_kv=20.0 type=pq
h2  nominal_kv=20.0 type=pq
h3  nominal_kv=20.0 type=pq
l1  nominal_kv=0.4 type=pq
l2  nominal_kv=0.4 type=pq
[line]
r01  from=h0 to=h1 r_ohm=0.60 x_ohm=0.90 max_i_ka=0.4
r12  from=h1 to=h2 r_ohm=0.80 x_ohm=1.10 max_i_ka=0.4
r23  from=h2 to=h3 r_ohm=0.50 x_ohm=0.70 max_i_ka=0.4
r30  from=h3 to=h0 r_ohm=0.90 x_ohm=1.20 max_i_ka=0.4
s12  from=l1 to=l2 r_ohm=0.04 x_ohm=0.03 max_i_ka=0.27
[trafo]
t1  hv_bus=h2 lv_bus=l1 s_rated_kva=630 vk_percent=6.0 vkr_percent=1.2 tap_position=-2
[load]
d1  bus=h1 p_kw=900 q_kvar=300
d3  bus=h3 p_kw=600 q_kvar=250
d5  bus=l2 p_kw=250 q_kvar=80
[sgen]
pv4  bus=l1 p_kw=40 q_kvar=0
"""


def reference_ybus(model: GridModel):
    """Bus order (slack first, then model order) and per-unit admittance
    matrix, built from the element data independently of the solver."""
    order = [model.slack_bus.id] + [b.id for b in model.buses if b.type != "slack"]
    index = {bus_id: i for i, bus_id in enumerate(order)}
    ybus = np.zeros((len(order), len(order)), dtype=complex)

    def add(from_bus, to_bus, y, tap):
        f, t = index[from_bus], index[to_bus]
        ybus[f, f] += y / tap**2
        ybus[t, t] += y
        ybus[f, t] -= y / tap
        ybus[t, f] -= y / tap

    for line in model.lines:
        z_base = model.bus(line.from_bus).nominal_kv ** 2 / model.base_mva
        add(line.from_bus, line.to_bus, z_base / complex(line.r_ohm, line.x_ohm), 1.0)
    for trafo in model.trafos:
        xk = (trafo.vk_percent**2 - trafo.vkr_percent**2) ** 0.5
        z = complex(trafo.vkr_percent, xk) / 100.0 * model.base_mva * 1000.0 / trafo.s_rated_kva
        add(trafo.hv_bus, trafo.lv_bus, 1.0 / z, trafo.tap_ratio)
    return order, ybus


def binary_tree_feeder(n_buses: int, seed: int) -> str:
    """20 kV feeder: bus b<i> hangs off b<(i-1)//2>, one load per PQ bus."""
    rng = np.random.default_rng(seed)
    out = ["[grid]", "base_mva = 1.0", "[bus]", "b0  nominal_kv=20.0 type=slack"]
    out += [f"b{i}  nominal_kv=20.0 type=pq" for i in range(1, n_buses)]
    out.append("[line]")
    for i in range(1, n_buses):
        r, x = rng.uniform(0.1, 0.4), rng.uniform(0.08, 0.3)
        out.append(f"l{i}  from=b{(i - 1) // 2} to=b{i} r_ohm={r:.4f} x_ohm={x:.4f} max_i_ka=0.4")
    out.append("[load]")
    for i in range(1, n_buses):
        p = rng.uniform(20.0, 60.0)
        out.append(f"d{i}  bus=b{i} p_kw={p:.3f} q_kvar={0.3 * p:.3f}")
    return "\n".join(out) + "\n"


def dense_jacobian(plan, jac) -> np.ndarray:
    """The compact Jacobian `jac` scattered into a dense (2·npq)² matrix:
    its quarters dP/dθ, dP/d|V|, dQ/dθ, dQ/d|V| at Ybus's PQ entries."""
    npq, nnz = len(plan.order) - 1, len(plan.rows)
    dense = np.zeros((2 * npq, 2 * npq))
    for quarter, (row_half, col_half) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        dense[row_half * npq + plan.rows - 1, col_half * npq + plan.cols - 1] = \
            jac[quarter * nnz:(quarter + 1) * nnz]
    return dense


class TestNewtonJacobian:
    def test_jacobian_matches_central_differences(self):
        model = parse_grid(MESHED_TAP)
        injections = bus_injections(model, element_values_at(model, None, 0))
        solution = run_power_flow(model, injections)
        assert solution.converged
        order, ybus = reference_ybus(model)
        vm = np.array([solution.vm_pu[b] for b in order])
        va = np.array([solution.va_rad[b] for b in order])
        assert np.ptp(vm) > 0.01 and np.ptp(va) > 0.01  # a non-flat state
        npq = len(order) - 1

        def pq_injections(x):
            m, a = vm.copy(), va.copy()
            a[1:], m[1:] = x[:npq], x[npq:]
            v = m * np.exp(1j * a)
            s = v * np.conj(ybus @ v)
            return np.concatenate([s.real[1:], s.imag[1:]])

        # The reference matrix is the solver's: the solved state meets the
        # specified injections through it.
        base_kw = model.base_mva * 1000.0
        spec = np.array([injections[b][k] / base_kw for k in (0, 1) for b in order[1:]])
        x0 = np.concatenate([va[1:], vm[1:]])
        np.testing.assert_allclose(pq_injections(x0), spec, rtol=0, atol=1e-8)

        h = 1e-6
        numeric = np.column_stack([
            (pq_injections(x0 + h * e) - pq_injections(x0 - h * e)) / (2 * h)
            for e in np.eye(2 * npq)
        ])
        v = vm * np.exp(1j * va)
        plan = _plan(model, {})
        assert plan.order == order
        jac = dense_jacobian(plan, _jacobian(plan, vm, v, ybus @ v))
        np.testing.assert_allclose(jac, numeric, rtol=1e-6)

    @pytest.mark.parametrize("grid_text", [MESHED_TAP, binary_tree_feeder(127, seed=7)],
                             ids=["meshed_tap", "radial_127"])
    def test_pattern_jacobian_equals_dense_formula_bit_for_bit(self, grid_text):
        model = parse_grid(grid_text)
        solution = run_power_flow(model, bus_injections(model, element_values_at(model, None, 0)))
        assert solution.converged
        plan = _plan(model, {})
        npq = len(plan.order) - 1
        flat_vm = np.ones(npq + 1)
        flat_vm[0] = model.slack_bus.vm_setpoint_pu
        solved_vm = np.array([solution.vm_pu[b] for b in plan.order])
        solved_va = np.array([solution.va_rad[b] for b in plan.order])
        for vm, va in ((flat_vm, np.zeros(npq + 1)), (solved_vm, solved_va)):
            v = vm * np.exp(1j * va)
            i_bus = plan.ybus @ v
            # the dense complex-matrix form of MATPOWER TN2, over the PQ buses
            y_pq, v_pq, i_pq = plan.ybus[1:, 1:], v[1:], i_bus[1:]
            v_dir = v_pq / vm[1:]
            ds_dva = 1j * v_pq[:, None] * np.conj(np.diag(i_pq) - y_pq * v_pq)
            ds_dvm = v_pq[:, None] * np.conj(y_pq * v_dir) + np.diag(np.conj(i_pq) * v_dir)
            dense = np.block([[ds_dva.real, ds_dvm.real], [ds_dva.imag, ds_dvm.imag]])
            jac = dense_jacobian(plan, _jacobian(plan, vm, v, i_bus))
            assert np.array_equal(jac.view(np.int64), dense.view(np.int64))

    def test_large_radial_feeder_conserves_power(self):
        model = parse_grid(binary_tree_feeder(127, seed=7))
        values = element_values_at(model, None, 0)
        solution = run_power_flow(model, bus_injections(model, values))
        assert solution.converged
        assert len(solution.vm_pu) == 127 and not solution.islanded_buses
        loads_kw = sum(p for (kind, _id), (p, _q) in values.items() if kind == "load")
        assert solution.losses_kw > 0.0
        residual_kw = solution.slack_p_kw - (loads_kw + solution.losses_kw)
        assert abs(residual_kw) < 1e-6 * model.base_mva * 1000  # 1e-6 pu


def sweep_oracle(model: GridModel, injections, tol=1e-14, max_iter=200):
    """Independent N-bus oracle for a radial grid: the backward/forward sweep
    (Kersting's ladder method; Shirmohammadi et al., IEEE Trans. PWRS 3(2),
    1988). It walks the tree from the slack, with every branch's from (HV)
    bus upstream, and models a trafo as an ideal t:1 ratio on its HV side
    followed by its series impedance. Returns |V| by bus and the branch
    current magnitude in kA at the from bus, by (kind, id)."""
    base_kw = model.base_mva * 1000.0
    branches = {}  # downstream bus -> (key, upstream bus, z_pu, tap, from-bus kA base)
    for line in model.lines:
        kv = model.bus(line.from_bus).nominal_kv
        z = complex(line.r_ohm, line.x_ohm) * model.base_mva / kv**2
        branches[line.to_bus] = (("line", line.id), line.from_bus, z, 1.0, kv)
    for trafo in model.trafos:
        xk = math.sqrt(trafo.vk_percent**2 - trafo.vkr_percent**2)
        z = complex(trafo.vkr_percent, xk) / 100.0 * model.base_mva * 1000.0 / trafo.s_rated_kva
        branches[trafo.lv_bus] = (("trafo", trafo.id), trafo.hv_bus, z, trafo.tap_ratio,
                                  model.bus(trafo.hv_bus).nominal_kv)
    slack = model.slack_bus
    order, children = [slack.id], {}
    for bus, (_key, up, _z, _tap, _kv) in branches.items():
        children.setdefault(up, []).append(bus)
    for bus in order:  # breadth first: every bus after its upstream bus
        order.extend(children.get(bus, []))
    assert len(order) == len(model.buses)
    load = {bus: -complex(p, q) / base_kw for bus, (p, q) in injections.items()}
    v = dict.fromkeys(order, complex(slack.vm_setpoint_pu))
    for _ in range(max_iter):
        current = {}  # into each branch's impedance, on its downstream side
        for bus in reversed(order[1:]):
            current[bus] = np.conj(load.get(bus, 0j) / v[bus]) + sum(
                current[child] / branches[child][3] for child in children.get(bus, []))
        step = 0.0
        for bus in order[1:]:
            _key, up, z, tap, _kv = branches[bus]
            new = v[up] / tap - z * current[bus]
            step, v[bus] = max(step, abs(new - v[bus])), new
        if step < tol:
            break
    else:
        raise AssertionError("sweep did not converge")
    i_ka = {key: abs(current[bus] / tap) * model.base_mva / (math.sqrt(3.0) * kv)
            for bus, (key, _up, _z, tap, kv) in branches.items()}
    return {bus: abs(v[bus]) for bus in order}, i_ka


def _grid_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _bundle_grid_text(scenario_path):
    return _grid_text(os.path.join(os.path.dirname(scenario_path), "grid.txt"))


TAPPED_7 = _bundle_grid_text(ATTACK_DEMO).replace("tap_position=0", "tap_position=-2")


class TestSweepOracle:
    @pytest.mark.parametrize("grid_text", [
        _grid_text(FEEDER7),
        TAPPED_7,
        binary_tree_feeder(127, seed=7),
        binary_tree_feeder(511, seed=11),
        binary_tree_feeder(1023, seed=13),
    ], ids=["feeder7", "tapped_7", "radial_127", "radial_511", "radial_1023"])
    def test_newton_matches_backward_forward_sweep(self, grid_text):
        model = parse_grid(grid_text)
        injections = bus_injections(model, element_values_at(model, None, 0))
        solution = run_power_flow(model, injections)
        assert solution.converged
        vm, i_ka = sweep_oracle(model, injections)
        assert vm.keys() == solution.vm_pu.keys()
        np.testing.assert_allclose([solution.vm_pu[b] for b in vm], list(vm.values()),
                                   rtol=0, atol=1e-9)
        assert np.ptp(list(vm.values())) > 1e-3  # a loaded grid, not the flat start
        np.testing.assert_allclose(
            [measurements_at(model, solution, *key, "i_ka") for key in i_ka],
            list(i_ka.values()), rtol=1e-7, atol=0)

    def test_tap_moves_the_lv_voltage(self):
        untapped = parse_grid(TAPPED_7.replace("tap_position=-2", "tap_position=0"))
        tapped = parse_grid(TAPPED_7)
        lv = [run_power_flow(m, bus_injections(m, element_values_at(m, None, 0))).vm_pu["lv4"]
              for m in (untapped, tapped)]
        assert lv[1] - lv[0] > 0.04  # a -5 % ratio raises the LV side by about 5 %


def meshed_tree_feeder(n_buses: int, seed: int) -> str:
    """`binary_tree_feeder` with one more line, closing a loop of nine buses
    through b7 (b130 and b140 hang off b7's two subtrees)."""
    text = binary_tree_feeder(n_buses, seed)
    text = text.replace("base_mva = 1.0", "base_mva = 1.0\nmeshed = true")
    return text.replace("[load]", "loop  from=b130 to=b140 r_ohm=0.2 x_ohm=0.15 max_i_ka=0.4\n[load]")


def tree_with_slack_leaves(n_buses: int, seed: int, n_leaves: int) -> str:
    """`binary_tree_feeder` with `n_leaves` more loaded buses hung straight
    off the slack, so that a leaf layer mixes slack and PQ parents."""
    out = [binary_tree_feeder(n_buses, seed)]
    for k in range(n_leaves):
        out.append(f"[bus]\ns{k}  nominal_kv=20.0 type=pq\n"
                   f"[line]\nls{k}  from=b0 to=s{k} r_ohm=0.3 x_ohm=0.2 max_i_ka=0.4\n"
                   f"[load]\nds{k}  bus=s{k} p_kw=30.0 q_kvar=9.0\n")
    return "".join(out)


def jacobian_at(plan, vm, va):
    """The compact Jacobian at `vm`, `va`."""
    v = vm * np.exp(1j * va)
    return _jacobian(plan, vm, v, plan.ybus @ v)


def peeled_solve(plan, jac, rhs):
    """The Newton step for `rhs` through the plan's leaf elimination."""
    return _solve(plan, _eliminate(plan, jac), rhs)


def solved_state(model, line_status):
    solution = run_power_flow(model, bus_injections(model, element_values_at(model, None, 0)),
                              line_status)
    assert solution.converged
    plan = _plan(model, line_status)
    return (plan, np.array([solution.vm_pu[b] for b in plan.order]),
            np.array([solution.va_rad[b] for b in plan.order]))


class TestPeeledSolve:
    @pytest.mark.parametrize("grid_text, line_status", [
        (binary_tree_feeder(127, seed=7), {}),
        (binary_tree_feeder(255, seed=3), {}),
        (meshed_tree_feeder(255, seed=3), {}),
        (meshed_tree_feeder(255, seed=3), {"l64": False}),
        (meshed_tree_feeder(255, seed=3), {"loop": False}),
        (tree_with_slack_leaves(127, seed=7, n_leaves=8), {}),
    ], ids=["radial_127", "radial_255", "meshed_255", "meshed_255_l64_open",
            "meshed_255_loop_open", "radial_127_slack_leaves"])
    def test_matches_dense_solve(self, grid_text, line_status):
        model = parse_grid(grid_text)
        plan, vm, va = solved_state(model, line_status)
        assert plan.layers and not plan.islanded
        rng = np.random.default_rng(5)
        flat_vm = np.full_like(vm, 1.0)
        for state in ((flat_vm, np.zeros_like(va)), (vm, va)):
            jac = jacobian_at(plan, *state)
            rhs = rng.standard_normal(2 * len(vm) - 2)
            dense = np.linalg.solve(dense_jacobian(plan, jac), rhs)
            peeled = peeled_solve(plan, jac.copy(), rhs.copy())
            np.testing.assert_allclose(peeled, dense, rtol=1e-10, atol=1e-12 * np.abs(dense).max())

    def test_meshed_loop_stays_in_the_core(self):
        plan = _plan(parse_grid(meshed_tree_feeder(255, seed=3)), {})
        core = {plan.order[k + 1] for k in plan.core_rhs[: len(plan.core_rhs) // 2]}
        assert {"b7", "b15", "b16", "b31", "b34", "b64", "b69", "b130", "b140"} <= core

    def test_pinned_tree_feeder_gets_leaf_layers(self):
        """The one golden-pinned bundle whose solves take the layer path."""
        plan, _vm, _va = solved_state(parse_grid(_bundle_grid_text(TREE_FEEDER)), {})
        assert [len(layer.leaf_rhs) for layer in plan.layers] == [64, 32]

    @pytest.mark.parametrize("grid_text", [
        _grid_text(FEEDER7),
        _bundle_grid_text(ATTACK_DEMO),
        _bundle_grid_text(FLEX_DEMO),
        _bundle_grid_text(SCADA_BURST),
        binary_tree_feeder(40, seed=7),
    ], ids=["feeder7", "attack_demo", "flex_demo", "scada_burst", "radial_40"])
    def test_pinned_grids_get_no_layer_and_the_dense_solve(self, grid_text):
        model = parse_grid(grid_text)
        plan, vm, va = solved_state(model, {})
        assert plan.layers == ()
        jac = jacobian_at(plan, vm, va)
        rhs = np.random.default_rng(5).standard_normal(2 * len(vm) - 2)
        dense = np.linalg.solve(dense_jacobian(plan, jac), rhs)
        assert np.array_equal(peeled_solve(plan, jac, rhs).view(np.int64), dense.view(np.int64))

    # a zero block, or a non-finite dP/dθ entry (leaf_block lists it last)
    @pytest.mark.parametrize("bad, entries", [(0.0, slice(None)), (math.nan, 3), (math.inf, 3)],
                             ids=["zero", "nan", "inf"])
    def test_singular_leaf_block_raises(self, bad, entries):
        model = parse_grid(binary_tree_feeder(127, seed=7))
        plan, vm, va = solved_state(model, {})
        jac = jacobian_at(plan, vm, va)
        jac[plan.layers[0].leaf_block[3, entries]] = bad
        with pytest.raises(np.linalg.LinAlgError):
            peeled_solve(plan, jac, np.ones(2 * len(vm) - 2))

    def test_singular_leaf_block_ends_the_solve_unconverged(self, monkeypatch):
        model = parse_grid(binary_tree_feeder(127, seed=7))
        injections = bus_injections(model, element_values_at(model, None, 0))
        jacobian = powerflow._jacobian

        def singular_leaf(plan, vm, v, i_bus):
            jac = jacobian(plan, vm, v, i_bus)
            jac[plan.layers[0].leaf_block[0]] = 0.0
            return jac

        monkeypatch.setattr(powerflow, "_jacobian", singular_leaf)
        solution = run_power_flow(model, injections)
        assert not solution.converged
        assert solution.iterations == 1 and solution.max_mismatch_pu > 1e-8


def solution_bits(solution) -> tuple:
    """A solve's iterations and its float64 results as integers: |V| and θ
    by bus, the branch flows and the slack power."""
    buses = sorted(solution.vm_pu)
    floats = np.concatenate([[solution.vm_pu[b] for b in buses],
                             [solution.va_rad[b] for b in buses],
                             solution.branch_flows.ravel(),
                             [solution.slack_p_kw, solution.slack_q_kvar]])
    return solution.iterations, buses, floats.view(np.int64).tolist()


def scaled_injections(model, factor):
    values = element_values_at(model, None, 0)
    return bus_injections(model, {key: (factor * p, factor * q) for key, (p, q) in values.items()})


KEPT_ELIMINATION_GRIDS = pytest.mark.parametrize("grid_text, line_status", [
    (binary_tree_feeder(127, seed=7), {}),
    (binary_tree_feeder(255, seed=3), {}),
    (meshed_tree_feeder(255, seed=3), {}),
    (meshed_tree_feeder(255, seed=3), {"l64": False}),
    (meshed_tree_feeder(255, seed=3), {"loop": False}),
    (tree_with_slack_leaves(127, seed=7, n_leaves=8), {}),
    (binary_tree_feeder(1023, seed=13), {}),
], ids=["radial_127", "radial_255", "meshed_255", "meshed_255_l64_open",
        "meshed_255_loop_open", "radial_127_slack_leaves", "radial_1023"])


class TestKeptFlatStart:
    """A plan keeps the flat start's elimination for its later solves; each
    of them must give, bit for bit, what a freshly loaded model gives."""

    @KEPT_ELIMINATION_GRIDS
    def test_solving_a_plan_again_is_bit_identical(self, grid_text, line_status):
        model = parse_grid(grid_text)
        first = run_power_flow(model, scaled_injections(model, 1.0), line_status)
        plan = model.last_plan
        assert first.converged and plan.flat_elimination is not None
        heavier = run_power_flow(model, scaled_injections(model, 1.3), line_status)
        again = run_power_flow(model, scaled_injections(model, 1.0), line_status)
        assert model.last_plan is plan
        assert solution_bits(again) == solution_bits(first)
        fresh = parse_grid(grid_text)
        assert solution_bits(first) == solution_bits(
            run_power_flow(fresh, scaled_injections(fresh, 1.0), line_status))
        fresh = parse_grid(grid_text)
        assert solution_bits(heavier) == solution_bits(
            run_power_flow(fresh, scaled_injections(fresh, 1.3), line_status))
        assert heavier.converged and solution_bits(heavier) != solution_bits(first)

    def test_switching_a_line_matches_fresh_models(self):
        text = meshed_tree_feeder(255, seed=3)
        model = parse_grid(text)
        plans = []
        for line_status in ({}, {"loop": True}, {"l64": False}, {"l64": True}, {"l64": False}):
            solution = run_power_flow(model, scaled_injections(model, 1.0), line_status)
            fresh = parse_grid(text)
            assert solution_bits(solution) == solution_bits(
                run_power_flow(fresh, scaled_injections(fresh, 1.0), line_status))
            assert not solution.islanded_buses
            plans.append(model.last_plan)
        assert plans[1] is plans[0]          # the same open lines: the same plan
        assert plans[2].open_lines == {"l64"} and plans[3] is not plans[0]

    def test_a_solve_allocates_no_dense_jacobian(self):
        """The first solve of a 1023-bus plan, its flat-start elimination
        included, stays far below the 33.5 MB a dense Jacobian would take."""
        model = parse_grid(binary_tree_feeder(1023, seed=13))
        injections = scaled_injections(model, 1.0)
        _plan(model, {})
        tracemalloc.start()
        try:
            solution = run_power_flow(model, injections)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert solution.converged and model.last_plan.flat_elimination is not None
        assert peak < 2 * 2**20


STEP_PROFILE = "t_seconds,element_id,field,value\n0,ld,p_kw,5.0\n3600,ld,p_kw,8.0\n"


class TestProfiles:
    def test_step_hold(self):
        profiles = parse_profiles(STEP_PROFILE)
        profile = profiles[("ld", "p_kw")]
        assert profile.value_at(1800) == 5.0
        assert profile.value_at(3600) == 8.0
        assert profile.value_at(7200) == 8.0

    def test_first_sample_hold_before_t0(self):
        profiles = parse_profiles("t_seconds,element_id,field,value\n600,ld,p_kw,5.0\n")
        assert profiles[("ld", "p_kw")].value_at(0) == 5.0

    def test_apply_profiles_injections(self):
        model = parse_grid(TWO_BUS)
        profiles = parse_profiles(STEP_PROFILE)
        injections = bus_injections(model, element_values_at(model, profiles, 1800))
        assert injections["b"] == (-5.0, -50.0)
        injections = bus_injections(model, element_values_at(model, profiles, 3600))
        assert injections["b"] == (-8.0, -50.0)

    def test_untouched_elements_keep_file_values(self):
        model = parse_grid(TWO_BUS)
        injections = bus_injections(model, element_values_at(model, {}, 0))
        assert injections["b"] == (-100.0, -50.0)

    def test_command_over_profile_over_file_value(self):
        model = parse_grid(TWO_BUS)
        profiles = parse_profiles(
            "t_seconds,element_id,field,value\n0,ld,p_kw,5.0\n0,ld,q_kvar,7.0\n"
        )
        assert element_values_at(model, profiles, 0) == {("load", "ld"): (5.0, 7.0)}
        values = element_values_at(model, profiles, 0, {("ld", "p_kw"): 9.0})
        assert values == {("load", "ld"): (9.0, 7.0)}

    def test_ved_channel_profile_leaves_grid_elements_alone(self):
        model = parse_grid(TWO_BUS)
        profiles = parse_profiles(
            "t_seconds,element_id,field,value\n0,home1,load_kw,3.0\n0,home1,pv_kw,1.0\n"
        )
        assert element_values_at(model, profiles, 0) == {("load", "ld"): (100.0, 50.0)}

    def test_load_profiles_csv(self, feeder7_profiles_path):
        profiles = load_profiles(feeder7_profiles_path)
        assert ("ld2", "p_kw") in profiles
        assert profiles[("pv6", "p_kw")].value_at(0) == 0.0


HEADER = "t_seconds,element_id,field,value\n"


# (CSV text, line the error names, what its message says)
@pytest.mark.parametrize("text, lineno, message", [
    ("t_seconds,element,field,value\n0,ld,p_kw,5.0\n", 1,
     "expected header t_seconds,element_id,field,value"),
    (HEADER + "0,ld,p_kw,5.0\n900,ld,p_kw\n", 3,
     "expected 4 fields t_seconds,element_id,field,value"),
    (HEADER + "0,ld,p_kw,5.0\n9x,ld,p_kw,6.0\n", 3, "t_seconds: expected an integer, got '9x'"),
    (HEADER + "0,ld,p_kw,nan\n", 2, "value must be finite, got 'nan'"),
    # a quoted field spans lines 3 and 4; the bad value stands on line 4
    (HEADER + '0,ld,p_kw,5.0\n900,"l\nd",p_kw,nan\n', 4, "value must be finite, got 'nan'"),
], ids=["bad_header", "three_fields", "t_not_an_integer", "value_nan", "quoted_field_spans_lines"])
def test_profile_errors_name_their_line(text, lineno, message):
    with pytest.raises(ConfigError) as info:
        parse_profiles(text, source="p.csv")
    assert info.value.lineno == lineno
    assert str(info.value) == f"p.csv:{lineno}: {message}"


PROFILE_SAMPLES = st.lists(
    st.tuples(
        st.integers(1, 10**6),  # time step from the previous row
        st.sampled_from(["ld", "pv", "b7"]),
        st.sampled_from(["p_kw", "q_kvar"]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=30,
)
BAD_T = ["x", "1.5", "", "1e3", "0x10"]
BAD_VALUE = ["x", "nan", "inf", "-inf", "", "1.5.5"]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(samples=PROFILE_SAMPLES, start=st.integers(-10**12, 10**12), data=st.data())
def test_profile_fields_parse_and_a_corrupt_field_names_its_row(samples, start, data):
    """Every field of a valid CSV parses to the int or float it spells, and
    one corrupted field raises a ConfigError at that row's line."""
    rows, t = [], start
    for step, element, fieldname, value in samples:
        t += step
        rows.append([str(t), element, fieldname, repr(value)])
    profiles = parse_profiles(HEADER + "".join(",".join(row) + "\n" for row in rows))
    expected = {}
    for t_text, element, fieldname, value_text in rows:
        times, values = expected.setdefault((element, fieldname), ([], []))
        times.append(int(t_text))
        values.append(float(value_text))
    assert len(profiles) == len(expected)
    for (element, fieldname), (times, values) in expected.items():
        profile = profiles[(element, fieldname)]
        assert profile.times == times and profile.values == values
        assert all(type(t) is int for t in profile.times)
        assert all(type(v) is float for v in profile.values)

    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    column, bad = data.draw(st.one_of(
        st.tuples(st.just(0), st.sampled_from(BAD_T)),
        st.tuples(st.just(3), st.sampled_from(BAD_VALUE)),
    ), label="corruption")
    rows[i][column] = bad
    with pytest.raises(ConfigError) as info:
        parse_profiles(HEADER + "".join(",".join(row) + "\n" for row in rows), source="p.csv")
    assert info.value.lineno == i + 2
    assert str(info.value).startswith(f"p.csv:{i + 2}: ")
