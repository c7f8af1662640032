import itertools

import numpy as np
import pytest

from gridcosim.ems import (
    BINDING_BATTERY_POWER,
    BINDING_DSO,
    BINDING_NONE,
    MODE_DSO_INFEASIBLE,
    MODE_SELF_CONSUMPTION,
    Battery,
    DsoLimit,
    EmsError,
    VppSchedule,
    apply_setpoint,
    ems_step,
    evaluate_run,
)


def battery(capacity=10.0, p_max=5.0, eta_c=0.95, eta_d=0.95, soc=5.0):
    return Battery(
        capacity_kwh=capacity, p_max_kw=p_max,
        eta_charge=eta_c, eta_discharge=eta_d, soc_kwh=soc,
    )


class TestStep:
    def test_surplus_absorbed_for_zero_exchange(self):
        decision, b = ems_step(battery(), 0, 900, load_kw=3.0, pv_kw=5.0)
        assert decision.battery_setpoint_kw == 2.0
        assert decision.grid_exchange_kw == 0.0
        assert decision.active_mode == MODE_SELF_CONSUMPTION
        assert decision.binding_constraint == BINDING_NONE

    def test_soc_update_formula(self):
        b = apply_setpoint(battery(soc=5.0, eta_c=0.95), 2.0, dt_h=0.25)
        assert b.soc_kwh == pytest.approx(5.475)

    def test_discharge_reduces_soc_with_efficiency(self):
        b = apply_setpoint(battery(soc=5.0, eta_d=0.8), -2.0, dt_h=0.5)
        assert b.soc_kwh == pytest.approx(5.0 - 2.0 * 0.5 / 0.8)

    def test_infeasible_dso_limit_saturates_and_flags(self):
        dso = DsoLimit(p_max_import_kw=4.0, p_max_export_kw=5.0)
        decision, _ = ems_step(
            battery(p_max=5.0, soc=9.0), 0, 900, load_kw=10.0, pv_kw=0.0,
            dso_limits=(dso,),
        )
        assert decision.battery_setpoint_kw == -5.0
        assert decision.grid_exchange_kw == 5.0  # still over the 4 kW limit
        assert decision.active_mode == MODE_DSO_INFEASIBLE
        assert decision.binding_constraint == BINDING_BATTERY_POWER

    def test_feasible_dso_limit_respected(self):
        dso = DsoLimit(p_max_import_kw=4.0, p_max_export_kw=5.0)
        decision, _ = ems_step(
            battery(p_max=8.0, soc=9.0), 0, 900, load_kw=10.0, pv_kw=0.0,
            dso_limits=(dso,),
        )
        assert decision.grid_exchange_kw <= 4.0 + 1e-12

    def test_vpp_target_tracked_within_dso(self):
        vpp = VppSchedule(target_p_kw=3.0)
        decision, _ = ems_step(
            battery(soc=5.0), 0, 900, load_kw=1.0, pv_kw=0.0, vpp_schedules=(vpp,),
        )
        assert decision.grid_exchange_kw == pytest.approx(3.0)
        dso = DsoLimit(p_max_import_kw=2.0, p_max_export_kw=5.0)
        decision, _ = ems_step(
            battery(soc=5.0), 0, 900, load_kw=1.0, pv_kw=0.0,
            dso_limits=(dso,), vpp_schedules=(vpp,),
        )
        assert decision.grid_exchange_kw <= 2.0 + 1e-12
        assert decision.binding_constraint == BINDING_DSO

    def test_external_setpoint_honored_next_step_semantics(self):
        decision, b = ems_step(
            battery(soc=5.0), 0, 900, load_kw=0.0, pv_kw=0.0,
            external_setpoint_kw=-2.0,
        )
        assert decision.battery_setpoint_kw == -2.0
        assert decision.grid_exchange_kw == -2.0  # exported
        assert b.soc_kwh < 5.0

    def test_power_balance_identity(self):
        for load, pv in itertools.product((0.0, 2.5, 7.0), (0.0, 3.0, 6.0)):
            decision, _ = ems_step(battery(), 0, 900, load_kw=load, pv_kw=pv)
            assert decision.grid_exchange_kw == pytest.approx(
                load - pv + decision.battery_setpoint_kw, abs=1e-12
            )

    def test_invalid_battery_rejected(self):
        with pytest.raises(EmsError):
            Battery(capacity_kwh=10, p_max_kw=5, eta_charge=1.2, eta_discharge=1, soc_kwh=0)
        with pytest.raises(EmsError):
            Battery(capacity_kwh=10, p_max_kw=5, eta_charge=1, eta_discharge=1, soc_kwh=11)


def simulate(battery_state, series, dt_s=900, dso=(), vpp=()):
    decisions = []
    for i, (load, pv) in enumerate(series):
        decision, battery_state = ems_step(
            battery_state, i * dt_s, dt_s, load, pv, dso_limits=dso, vpp_schedules=vpp,
        )
        decisions.append(decision)
    return decisions, battery_state


def seeded_series(rng, n=40):
    load = rng.uniform(0.0, 8.0, size=n)
    pv = np.clip(rng.normal(3.0, 2.5, size=n), 0.0, None)
    return list(zip(load.tolist(), pv.tolist()))


class TestProperties:
    def test_soc_bounds_never_violated(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            series = seeded_series(rng)
            b = battery(capacity=8.0, p_max=4.0, soc=rng.uniform(0, 8))
            state = b
            for i, (load, pv) in enumerate(series):
                decision, state = ems_step(state, i * 900, 900, load, pv)
                assert -1e-9 <= state.soc_kwh <= state.capacity_kwh + 1e-9

    def test_dso_dominance_exhaustive_grid(self):
        # whenever the limit is feasible given battery limits, it is satisfied
        # regardless of any VPP target
        nets = (-6.0, -2.0, 0.0, 2.0, 6.0)
        limits = (1.0, 3.0, 8.0)
        targets = (-4.0, 0.0, 4.0)
        p_maxes = (2.0, 5.0, 10.0)
        for net, limit, target, p_max in itertools.product(nets, limits, targets, p_maxes):
            b = battery(capacity=100.0, p_max=p_max, soc=50.0, eta_c=1.0, eta_d=1.0)
            dso = DsoLimit(p_max_import_kw=limit, p_max_export_kw=limit)
            feasible = (-limit <= net + p_max) and (net - p_max <= limit)
            decision, _ = ems_step(
                b, 0, 900, load_kw=max(net, 0.0), pv_kw=max(-net, 0.0),
                dso_limits=(dso,), vpp_schedules=(VppSchedule(target_p_kw=target),),
            )
            g = decision.grid_exchange_kw
            if feasible:
                assert -limit - 1e-9 <= g <= limit + 1e-9, (net, limit, target, p_max)

    def test_larger_battery_never_raises_peak_import(self):
        # holds whenever stored energy is not the binding limit; greedy
        # dispatch can break it when a bigger battery runs itself empty
        # before the true peak, so the sweep keeps energy ample
        rng = np.random.default_rng(7)
        for _ in range(10):
            series = seeded_series(rng)
            peaks = []
            for p_max in (1.0, 2.0, 4.0, 8.0):
                b = battery(capacity=1e6, p_max=p_max, soc=5e5)
                decisions, _ = simulate(b, series)
                peaks.append(max(max(d.grid_exchange_kw, 0.0) for d in decisions))
            assert all(b <= a + 1e-9 for a, b in zip(peaks, peaks[1:]))

    def test_greedy_dispatch_peak_counterexample_documented(self):
        # the energy-bound regime genuinely violates peak monotonicity:
        # frozen here so the scoping above stays honest
        series = [(5.0, 0.0)] * 4 + [(8.0, 0.0)]
        small, _ = simulate(battery(capacity=10.0, p_max=1.0, soc=3.0), series)
        large, _ = simulate(battery(capacity=10.0, p_max=4.0, soc=3.0), series)
        peak_small = max(d.grid_exchange_kw for d in small)
        peak_large = max(d.grid_exchange_kw for d in large)
        assert peak_large > peak_small


class TestEvaluate:
    def test_baseline_equals_itself_zero_deltas(self):
        series = [(2.0, 0.0)] * 8
        decisions, _ = simulate(None, series)
        report = evaluate_run(decisions, decisions, 900)
        assert report.run == report.baseline

    def test_energy_integration(self):
        series = [(1.0, 0.0)] * 4  # constant 1 kW over 1 h at 900 s steps
        decisions, _ = simulate(None, series)
        report = evaluate_run(decisions, decisions, 900)
        assert report.run.import_kwh == pytest.approx(1.0)

    def test_sunny_day_battery_reduces_import(self):
        rng = np.random.default_rng(20)
        hours = np.arange(0, 24, 0.25)
        pv = np.clip(np.sin((hours - 6) * np.pi / 12), 0, None) * 4.0
        load = 1.0 + 1.5 * (hours > 17) + 0.5 * (hours < 7)
        series = list(zip(load.tolist(), pv.tolist()))
        with_batt, _ = simulate(battery(soc=1.0), series)
        without, _ = simulate(None, series)
        report = evaluate_run(with_batt, without, 900)
        assert report.run.import_kwh < report.baseline.import_kwh

    def test_horizon_mismatch(self):
        series = [(1.0, 0.0)] * 4
        decisions, _ = simulate(None, series)
        with pytest.raises(EmsError, match="decision traces cover different horizons"):
            evaluate_run(decisions, decisions[:-1], 900)
