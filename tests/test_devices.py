import pytest

from gridcosim import devices, iec104, netsim
from gridcosim.devices import (
    DataPoint,
    ManipulationRule,
    Mtu,
    NegativeConfirm,
    Rtu,
    RtuConfig,
    UnknownIoa,
    to_f32,
)
from gridcosim.pcap import FIN

PAIR = """
[host mtu]
interface = 10.0.1.10 10.0.1.0/24
account = operator admin

[host field1]
interface = 10.0.2.11 10.0.2.0/24
service = iec104 2404
account = root admin

[switch sw]
[link]
l1 a=mtu b=sw latency_ms=1
l2 a=field1 b=sw latency_ms=1
"""


def make_map():
    return {dp.ioa: dp for dp in (
        DataPoint(101, "monitor", "trafo", "t1", "p_from_kw"),
        DataPoint(102, "monitor", "trafo", "t1", "q_from_kvar"),
        DataPoint(201, "control", "sgen", "pv1", "p_kw"),
        DataPoint(202, "control", "line", "sw3", "status"),
    )}


@pytest.fixture
def rig():
    network = netsim.parse_topology(PAIR)
    config = RtuConfig(
        name="r1", host="field1", common_address=1,
        datapoints=make_map(), report_period=60,
    )
    rtu = Rtu(config, network)
    mtu = Mtu(network, "mtu", step_size=60)
    mtu.attach_rtu("r1", "10.0.2.11")
    return network, rtu, mtu


MEAS = {("trafo:t1", "p_from_kw"): 55.0, ("trafo:t1", "q_from_kvar"): 20.0}


class TestReporting:
    def test_plain_report_value(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        rtu.step(0, MEAS)
        assert [(r.ioa, r.value) for r in mtu.archive] == [(101, 55.0), (102, 20.0)]
        assert rtu.truth_rows[0] == (0, "trafo:t1", "p_from_kw", 55.0)

    def test_override_scales_wire_not_truth(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        rtu.install_override("scale", [101, 102], factor=0.5)
        rtu.step(0, MEAS)
        assert [(r.ioa, r.value) for r in mtu.archive] == [(101, 27.5), (102, 10.0)]
        assert rtu.truth_rows[0][3] == 55.0
        assert 101 in rtu.overrides and 201 not in rtu.overrides

    def test_buffered_reports_flush_in_order_on_start(self, rig):
        network, rtu, mtu = rig
        # session down: MTU has not connected yet
        for t in (0, 60, 120):
            rtu.step(t, {("trafo:t1", "p_from_kw"): float(t), ("trafo:t1", "q_from_kvar"): 0.0})
        assert len(rtu.buffer) == 6  # 3 periods x 2 points
        mtu.start(180)
        values = [r.value for r in mtu.archive if r.ioa == 101]
        assert values == [0.0, 60.0, 120.0]

    def test_buffer_drops_oldest_beyond_limit(self, rig):
        network, rtu, mtu = rig
        for t in range(0, 60 * 60, 60):  # 60 periods x 2 points = 120 > 100
            rtu.step(t, {("trafo:t1", "p_from_kw"): float(t), ("trafo:t1", "q_from_kvar"): 0.0})
        assert len(rtu.buffer) == devices.REPORT_BUFFER_LIMIT

    def test_reports_wait_in_buffer_while_window_full(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        rtu.session.state.unacked_sent = iec104.K_UNACKED_LIMIT
        rtu.step(0, MEAS)
        assert mtu.archive == [] and len(rtu.buffer) == 2
        assert [row[2] for row in rtu.truth_rows] == ["p_from_kw", "q_from_kvar"]

    def test_scale_applied_at_acquisition(self):
        network = netsim.parse_topology(PAIR)
        scaled = RtuConfig(
            name="r2", host="field1", common_address=2,
            datapoints={1: DataPoint(1, "monitor", "bus", "b", "p_kw", scale=0.001)},
            report_period=60,
        )
        rtu = Rtu(scaled, network)
        mtu = Mtu(network, "mtu", step_size=60)
        mtu.attach_rtu("r2", "10.0.2.11")
        mtu.start(0)
        rtu.step(0, {("bus:b", "p_kw"): 1234.5})
        value = to_f32(1234.5 * 0.001)
        assert rtu.truth_rows == [(0, "bus:b", "p_kw", value)]
        assert [(r.ioa, r.value) for r in mtu.archive] == [(1, value)]


class TestPollAndCommand:
    def test_poll_archives_all_monitor_points(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        rtu.step(0, MEAS)
        before = len(mtu.archive)
        rows = mtu.poll("r1", 60)
        assert len(rows) == 2
        assert len(mtu.archive) == before + 2
        assert mtu._poll_deadline["r1"] is None  # act-con arrived

    def test_poll_timeout_after_three_steps(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        for link in network.links:
            link.up = False
        rows = mtu.poll("r1", 60)
        assert rows == []
        for t in (120, 180, 240):
            mtu.step(t, {})
        assert (240, "timeout", "r1") in mtu.events

    def test_poll_without_window_sends_nothing_and_times_out(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        mtu._sessions["r1"].state.unacked_sent = iec104.K_UNACKED_LIMIT
        logged = len(network.packet_log)
        assert mtu.poll("r1", 60) == []
        assert len(network.packet_log) == logged
        for t in (120, 180, 240):
            mtu.step(t, {})
        assert (240, "timeout", "r1") in mtu.events

    def test_command_without_window_is_logged_unconfirmed(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        mtu._sessions["r1"].state.unacked_sent = iec104.K_UNACKED_LIMIT
        assert mtu.command("r1", 201, 10.0, 0, control_map=make_map()) is False
        assert mtu.command_log[-1].confirmed is False
        assert rtu.step(60, MEAS) == {}

    # an error in the RTU's own reply faults the run; only what the RTU
    # received can make it hang up instead
    @pytest.mark.parametrize("error", [RuntimeError, iec104.Iec104Error])
    def test_non_network_error_in_poll_is_a_fault(self, error, rig, monkeypatch):
        from gridcosim.kernel import Kernel, SimulatorDescriptor, SimulatorFault

        network, rtu, _ = rig
        mtu = Mtu(network, "mtu", step_size=60, poll_period=60)
        mtu.attach_rtu("r1", "10.0.2.11")
        mtu.start(0)

        def broken_reply(_request):
            raise error("interrogation bug")

        monkeypatch.setattr(rtu, "_interrogation_reply", broken_reply)
        kernel = Kernel(60)
        kernel.register_simulator(SimulatorDescriptor(id="mtu"), mtu.step)
        with pytest.raises(SimulatorFault) as err:
            kernel.run(120)
        assert err.value.sim_id == "mtu" and err.value.step_time == 60
        assert type(err.value.cause) is error and str(err.value.cause) == "interrogation bug"

    def test_setpoint_command_actuates_next_step(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        confirmed = mtu.command("r1", 201, 10.0, 0, control_map=make_map())
        assert confirmed
        outputs = rtu.step(60, MEAS)
        assert outputs[("sgen:pv1", "p_kw")] == 10.0
        assert mtu.command_log[-1].confirmed

    def test_switch_command(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        mtu.command("r1", 202, 0.0, 0, control_map=make_map())
        outputs = rtu.step(60, MEAS)
        assert outputs[("line:sw3", "status")] == 0.0

    def test_command_to_monitor_ioa_rejected_locally(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        with pytest.raises(UnknownIoa):
            mtu.command("r1", 101, 1.0, 0, control_map=make_map())

    def test_unmapped_ioa_negative_confirm(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        with pytest.raises(NegativeConfirm):
            mtu.command("r1", 999, 1.0, 0)
        assert mtu.command_log[-1].confirmed is False


class TestSessionConnection:
    def test_second_connection_gets_no_session(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        intruder = network.open_connection("mtu", "10.0.2.11", devices.IEC104_PORT, at_s=30)
        intruder.send(b"GET / HTTP/1.1\r\n\r\n", at_s=30)
        assert intruder.closed
        assert network.packet_log[-4].src_port == devices.IEC104_PORT  # the RTU's FIN
        rtu.step(60, MEAS)
        assert [(r.t, r.ioa) for r in mtu.archive] == [(60, 101), (60, 102)]

    def test_malformed_apdu_closes_the_session_connection(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        conn = mtu._sessions["r1"].conn
        conn.send(b"\x68\x04\x07\x01\x00\x00", at_s=30)  # U-frame with a stray bit
        assert conn.closed and rtu.session is None
        rtu.step(60, MEAS)
        assert mtu.archive == [] and len(rtu.buffer) == 2

    @staticmethod
    def _interrogation():
        return iec104.Asdu(iec104.C_IC_NA_1, iec104.COT_ACTIVATION, 0,
                           (iec104.InfoObject(0, iec104.QOI_STATION),))

    def _assert_rtu_hung_up(self, network, rtu, conn):
        assert conn.closed and rtu.session is None
        fin = network.packet_log[-4]
        assert fin.src_port == devices.IEC104_PORT and fin.tcp_flags & FIN
        rtu.step(60, MEAS)
        assert len(rtu.buffer) == 2

    def test_out_of_sequence_i_frame_closes_the_session_connection(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        session = mtu._sessions["r1"]
        session.put(iec104.i_frame(5, 0, self._interrogation()), at_s=30)
        self._assert_rtu_hung_up(network, rtu, session.conn)
        assert mtu.archive == []

    def test_i_frame_before_startdt_closes_the_session_connection(self, rig):
        network, rtu, _ = rig
        conn = network.open_connection("mtu", "10.0.2.11", devices.IEC104_PORT, at_s=0)
        conn.send(iec104.encode(iec104.i_frame(0, 0, self._interrogation())), at_s=30)
        self._assert_rtu_hung_up(network, rtu, conn)

    @pytest.mark.parametrize("payload, message", [
        (b"\x68\x04\x07\x01\x00\x00", "malformed U-frame control field 07010000"),
        (iec104.encode(iec104.i_frame(7, 0, iec104.Asdu(
            iec104.M_ME_NC_1, iec104.COT_SPONTANEOUS, 1, (iec104.InfoObject(101, 1.0),)))),
         r"I-frame N\(S\)=7, expected 0"),
    ], ids=["malformed", "out_of_sequence"])
    def test_violation_at_the_mtu_end_raises(self, payload, message, rig):
        _, rtu, mtu = rig
        mtu.start(0)
        with pytest.raises(iec104.Iec104Error, match=message):
            rtu.session.conn.send(payload, at_s=30, from_server=True)
        assert not rtu.session.conn.closed


class TestManipulationRules:
    def test_scale_offset_freeze(self):
        rule = ManipulationRule(kind="scale", factor=0.5)
        assert rule.apply(1, 55.0) == 27.5
        rule = ManipulationRule(kind="offset", delta=-3.0)
        assert rule.apply(1, 55.0) == 52.0
        rule = ManipulationRule(kind="freeze", frozen={1: 41.0})
        assert rule.apply(1, 99.0) == 41.0

    def test_freeze_captures_last_sent(self, rig):
        network, rtu, mtu = rig
        mtu.start(0)
        rtu.step(0, MEAS)
        rtu.install_override("freeze", [101])
        rtu.step(60, {("trafo:t1", "p_from_kw"): 99.0, ("trafo:t1", "q_from_kvar"): 1.0})
        values = [r.value for r in mtu.archive if r.ioa == 101]
        assert values == [55.0, 55.0]

    def test_fdi_stealth_preserves_ratio(self):
        rule = ManipulationRule(kind="fdi_stealth", factor=0.8)
        p, q = 60.0, 24.0
        wp, wq = rule.apply(1, to_f32(p)), rule.apply(2, to_f32(q))
        assert wq / wp == pytest.approx(q / p, rel=1e-6)


class TestSwitchIslanding:
    def test_open_feeder_switch_islands_downstream(self):
        # 3-bus fixture: g0 --swline-- g1 --tail-- g2(load); opening swline
        # leaves g1/g2 unserved on the next grid step
        from gridcosim.grid.powerflow import run_power_flow
        from gridcosim.grid.model import Bus, GridModel, Line, Load, validate
        from gridcosim.kernel import Kernel, SimulatorDescriptor
        from gridcosim.scenario import GridSimulator

        model = GridModel(
            buses=[Bus("g0", 20.0, "slack"), Bus("g1", 20.0, "pq"), Bus("g2", 20.0, "pq")],
            lines=[
                Line("swline", "g0", "g1", 0.5, 0.8, 0.4),
                Line("tail", "g1", "g2", 0.5, 0.8, 0.4),
            ],
            trafos=[], loads=[Load("ld", "g2", 100.0, 30.0)], sgens=[], base_mva=1.0,
        )
        validate(model)
        network = netsim.parse_topology(PAIR)
        config = RtuConfig(
            name="r1", host="field1", common_address=1,
            datapoints={
                101: DataPoint(101, "monitor", "bus", "g2", "v_pu"),
                202: DataPoint(202, "control", "line", "swline", "status"),
            },
            report_period=60,
        )
        rtu = Rtu(config, network)
        mtu = Mtu(network, "mtu", step_size=60)
        mtu.attach_rtu("r1", "10.0.2.11")
        grid_sim = GridSimulator(
            model, None,
            monitored=[("bus", "g2", "v_pu")],
            controllable=[("line", "swline", "status")],
            ved_buses={},
        )
        kernel = Kernel(60)
        # registered after the grid, the RTU reads the grid's outputs of the
        # same step, and the grid the RTU's of the step before: none until
        # the RTU first actuates the switch, which leaves it as it is
        kernel.register_simulator(
            SimulatorDescriptor(id="grid"), lambda t, values: grid_sim.step(t, values["rtu"])
        )
        kernel.register_simulator(
            SimulatorDescriptor(id="rtu"), lambda t, values: rtu.step(t, values["grid"])
        )

        def mtu_step(t, _inputs):
            if t == 0:
                mtu.start(0)
            if t == 60:
                mtu.command("r1", 202, 0.0, 60, control_map=config.datapoints)
            return {}

        kernel.register_simulator(SimulatorDescriptor(id="mtu"), mtu_step)
        # command at t=60 lands mid-step: the RTU emits the actuation at its
        # t=120 step, and the grid, registered before it, reads it at 180
        kernel.run(240)
        # the switch state the grid last solved with islands g1 and g2
        solution = run_power_flow(grid_sim.model, {}, grid_sim.line_status)
        assert solution.islanded_buses == ["g1", "g2"]
        assert solution.vm_pu["g2"] == 0.0
        # command-log precedes the actuation (causality)
        assert mtu.command_log[0].t == 60
        g2_voltages = [r.value for r in mtu.archive if r.ioa == 101]
        assert g2_voltages[-1] == 0.0 and g2_voltages[0] > 0.9

    def test_load_and_sgen_on_an_islanded_bus_read_zero(self):
        # the same 3-bus feeder with a PV unit beside the load on g2: once
        # swline opens, g2 is dead, and so is what its elements exchange
        from gridcosim.grid.model import Bus, GridModel, Line, Load, Sgen, validate
        from gridcosim.scenario import GridSimulator

        model = GridModel(
            buses=[Bus("g0", 20.0, "slack"), Bus("g1", 20.0, "pq"), Bus("g2", 20.0, "pq")],
            lines=[
                Line("swline", "g0", "g1", 0.5, 0.8, 0.4),
                Line("tail", "g1", "g2", 0.5, 0.8, 0.4),
            ],
            trafos=[], loads=[Load("ld", "g2", 100.0, 30.0)],
            sgens=[Sgen("pv", "g2", 20.0, 5.0)], base_mva=1.0,
        )
        validate(model)
        monitored = [("load", "ld", "p_kw"), ("load", "ld", "q_kvar"),
                     ("sgen", "pv", "p_kw"), ("sgen", "pv", "q_kvar"),
                     ("bus", "g2", "p_kw"), ("bus", "g2", "v_pu"), ("bus", "g0", "p_kw")]
        grid_sim = GridSimulator(model, None, monitored=monitored,
                                 controllable=[("line", "swline", "status")], ved_buses={})
        closed = grid_sim.step(0, {})
        assert [closed[(f"{kind}:{elem_id}", f)] for kind, elem_id, f in monitored[:4]] == [
            100.0, 30.0, 20.0, 5.0]
        assert closed[("bus:g0", "p_kw")] > 80.0
        opened = grid_sim.step(60, {("line:swline", "status"): 0.0})
        assert all(opened[(f"{kind}:{elem_id}", f)] == 0.0 for kind, elem_id, f in monitored)
