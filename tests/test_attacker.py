import pytest

from gridcosim import netsim
from gridcosim.attacker import AttackError, AttackPlan, Attacker, Stage
from gridcosim.devices import (
    DataPoint,
    DataPointMap,
    DeviceError,
    Rtu,
    RtuConfig,
    UnknownIoa,
)
from gridcosim.pcap import SYN

FIELD_NET = """
[host rtu1]
interface = 10.0.2.11 10.0.2.0/24
service = ssh 22
service = telnet 23
service = http 80 rce=CVE-2099-0101
service = iec104 2404
account = root admin
account = www-data user
suid = backup-tool vuln=CVE-2099-0102

[host rtu2]
interface = 10.0.2.12 10.0.2.0/24
service = ssh 22
service = iec104 2404
account = root admin

[host kali]
interface = 10.0.2.99 10.0.2.0/24
account = sam user

[switch sw]
[link]
l1 a=rtu1 b=sw latency_ms=1
l2 a=rtu2 b=sw latency_ms=1
l3 a=kali b=sw latency_ms=1
"""

FULL_PLAN = AttackPlan(
    foothold="kali",
    stages=(
        Stage("scan", "10.0.2.0/24"),
        Stage("rce", "http"),
        Stage("pe", "suid"),
        Stage("manipulate", "scale factor=0.5"),
    ),
    start_time=0,
)


def run_to_end(agent: Attacker) -> list:
    """Step the attacker, one stage per step, until its plan is done."""
    while not agent.done:
        agent.step(agent.plan.start_time, {})
    return agent.trace


def run_plan(network, plan: AttackPlan) -> list:
    return run_to_end(Attacker(network, plan))


@pytest.fixture
def network():
    net = netsim.parse_topology(FIELD_NET)
    config = RtuConfig(
        name="r1", host="rtu1", common_address=1,
        datapoints=DataPointMap(entries=[
            DataPoint(101, "monitor", "trafo", "t1", "p_from_kw"),
            DataPoint(102, "monitor", "trafo", "t1", "q_from_kvar"),
            DataPoint(201, "control", "line", "l1", "status"),
        ]),
        report_period=60,
    )
    rtu = Rtu(config, net)
    net._test_rtu = rtu  # test harness backdoor
    return net


ORDER_MESSAGE = "stages must appear in S1 < S2 < S3 < S4 order"


class TestPlanValidation:
    def test_reordered_stages_rejected(self):
        with pytest.raises(AttackError, match=ORDER_MESSAGE):
            AttackPlan(foothold="kali", stages=(Stage("pe", "suid"), Stage("rce", "http")))

    def test_duplicate_stage_rejected(self):
        with pytest.raises(AttackError, match=ORDER_MESSAGE):
            AttackPlan(foothold="kali", stages=(Stage("rce", "http"), Stage("rce", "http")))

    def test_later_stages_may_be_omitted(self):
        AttackPlan(foothold="kali", stages=(Stage("scan", "10.0.2.0/24"), Stage("rce", "http")))


class TestStages:
    def test_full_chain_succeeds(self, network):
        trace = run_plan(network, FULL_PLAN)
        assert [e.stage for e in trace] == ["S1", "S2", "S3", "S4"]
        assert all(e.outcome == "success" for e in trace)
        rtu = network._test_rtu
        assert 101 in rtu.overrides and 102 in rtu.overrides

    @pytest.mark.parametrize("manipulation, param, value", [
        ("scale factor=0.123456789", "factor", 0.123456789),
        ("offset delta=1234567", "delta", 1234567),
    ], ids=["factor", "delta"])
    def test_parameters_reach_the_rtu_exactly(self, network, manipulation, param, value):
        # six significant digits would install 0.123457 and 1.23457e+06
        plan = AttackPlan(foothold="kali",
                          stages=FULL_PLAN.stages[:3] + (Stage("manipulate", manipulation),))
        assert all(e.outcome == "success" for e in run_plan(network, plan))
        overrides = network._test_rtu.overrides
        assert set(overrides) == {101, 102}
        assert all(getattr(rule, param) == value for rule in overrides.values())

    def test_manipulation_reaches_the_rtu_as_written(self, network):
        plan = AttackPlan(foothold="kali", stages=FULL_PLAN.stages[:3] + (
            Stage("manipulate", "scale factor=0.450"),))
        agent = Attacker(network, plan)
        trace = run_to_end(agent)
        assert (trace[-1].target, trace[-1].outcome) == ("scale", "success")
        assert "root@rtu1$ rtu-override install scale factor=0.450" in agent.transcript[-2]
        assert {rule.factor for rule in network._test_rtu.overrides.values()} == {0.45}

    def test_scan_fills_knowledge(self, network):
        agent = Attacker(network, FULL_PLAN)
        agent.step(0, {})
        assert "10.0.2.11" in agent.knowledge
        ports = {p for p, _k, _b in agent.knowledge["10.0.2.11"]}
        assert ports == {22, 23, 80, 2404}

    def test_scan_probes_in_pcap(self, network):
        agent = Attacker(network, FULL_PLAN)
        before = len(network.packet_log)
        agent.step(0, {})
        probes = [r for r in network.packet_log[before:] if r.tcp_flags == SYN]
        # 2 reachable hosts x default port list
        assert len(probes) == 2 * len(netsim.COMMON_SCAN_PORTS)

    def test_rce_opens_www_data_session(self, network):
        agent = Attacker(network, FULL_PLAN)
        agent.step(0, {})
        agent.step(60, {})
        session = agent.session
        assert session.host == "rtu1"
        assert session.user == "www-data"
        assert session.privilege == "user"
        exploit = [r for r in network.packet_log if b"cmd=whoami" in r.payload]
        assert len(exploit) == 1  # byte-visible exactly once

    def test_rce_without_target_fails(self, network):
        plan = AttackPlan(foothold="kali", stages=(Stage("rce", "http"),))
        trace = run_plan(network, plan)  # no scan first: knowledge empty
        assert trace[0].outcome == "failure(NoTarget)"

    def test_rce_on_service_without_vulnerability_fails(self, network):
        plan = AttackPlan(
            foothold="kali",
            stages=(Stage("scan", "10.0.2.0/24"), Stage("rce", "port:22")),
        )
        trace = run_plan(network, plan)
        assert trace[0].outcome == "success"
        assert trace[1].outcome == "failure(NotVulnerable)"
        assert len(trace) == 2

    def test_pe_without_session_fails(self, network):
        plan = AttackPlan(foothold="kali", stages=(Stage("pe", "suid"),))
        trace = run_plan(network, plan)
        assert "NoSession" in trace[0].outcome

    def test_pe_without_vector_fails_then_s4_denied(self, network):
        # rtu2 has ssh but no usable vectors; craft a plan that lands there.
        # give rtu2 an RCE on a second http service for this test
        host = network.hosts["rtu2"]
        host.services.append(
            netsim.Service(port=80, kind="http", run_as="www-data", rce="CVE-2099-5555")
        )
        plan = AttackPlan(
            foothold="kali",
            stages=(
                Stage("scan", "10.0.2.0/24"),
                Stage("rce", "10.0.2.12"),
                Stage("pe", "suid"),
                Stage("manipulate", "scale factor=0.5"),
            ),
        )
        agent = Attacker(network, plan)
        trace = run_to_end(agent)
        assert [e.stage for e in trace] == ["S1", "S2", "S3"]
        assert "NoVector" in trace[2].outcome
        assert agent.session.host == "rtu2"
        assert agent.session.privilege == "user"

    def test_manipulate_before_pe_denied(self, network):
        plan = AttackPlan(
            foothold="kali",
            stages=(
                Stage("scan", "10.0.2.0/24"),
                Stage("rce", "http"),
                Stage("manipulate", "scale factor=0.5"),
            ),
        )
        trace = run_plan(network, plan)
        assert "PermissionDenied" in trace[-1].outcome
        assert not network._test_rtu.overrides

    def test_pe_leaves_no_wire_trace(self, network):
        agent = Attacker(network, FULL_PLAN)
        agent.step(0, {})
        agent.step(60, {})
        before = len(network.packet_log)
        agent.step(120, {})  # S3
        assert len(network.packet_log) == before
        assert any("find / -perm -4000" in line for line in agent.transcript)

    def test_sudoers_path(self, network):
        host = network.hosts["rtu1"]
        host.sudoers_scripts.append("maint.sh")
        host.host_vulnerabilities.append(
            netsim.Vulnerability(id="CVE-2099-0103", kind="pe_sudoers",
                                 locus="maint.sh")
        )
        plan = AttackPlan(
            foothold="kali",
            stages=(Stage("scan", "10.0.2.0/24"), Stage("rce", "http"), Stage("pe", "sudoers")),
        )
        agent = Attacker(network, plan)
        trace = run_to_end(agent)
        assert all(e.outcome == "success" for e in trace)
        assert any("sudo -l" in line for line in agent.transcript)
        assert any("maint.sh" in line for line in agent.transcript)

    def test_stage_gating_over_generated_plans(self, network):
        # every prefix-with-gap plan fails at the first stage whose
        # prerequisite state is missing
        gapped = [
            (Stage("rce", "http"),),
            (Stage("pe", "suid"),),
            (Stage("manipulate", "scale factor=0.5"),),
            (Stage("scan", "10.0.2.0/24"), Stage("pe", "suid")),
        ]
        for stages in gapped:
            net = netsim.parse_topology(FIELD_NET)
            RtuConfig_ = RtuConfig(
                name="r1", host="rtu1", common_address=1,
                datapoints=DataPointMap(entries=[DataPoint(101, "monitor", "trafo", "t1", "p_from_kw")]),
                report_period=60,
            )
            Rtu(RtuConfig_, net)
            trace = run_plan(net, AttackPlan(foothold="kali", stages=stages))
            failures = [e for e in trace if e.outcome != "success"]
            assert len(failures) == 1
            assert trace[-1] == failures[0]  # plan aborts at the failure


class TestRtuOverrideCommand:
    """`rtu-override install` reads its options with the scenario's strict
    parser: a malformed command names its bad token and installs nothing."""

    @pytest.fixture
    def root_shell(self, network):
        session = network.open_session("10.0.2.11", 80)
        network.escalate(session, "suid")
        return network, session

    def test_well_formed_command_installs(self, root_shell):
        network, session = root_shell
        output = network.exec_command(
            session, "rtu-override install scale factor=0.5 targets=101")
        assert output == "override scale installed on 1 points"
        overrides = network._test_rtu.overrides
        assert overrides[101].factor == 0.5 and 102 not in overrides

    @pytest.mark.parametrize("args, bad", [
        ("scale factr=0.5", "factr"),
        ("scale factor=0.5 stray", "stray"),
        ("", "usage"),
        ("scale factor=abc", "abc"),
        ("scale delta=5", "delta"),
        ("offset factor=0.5", "factor"),
        ("freeze factor=0.5", "factor"),
        ("scale factor=0.5 targets=101,101", "targets names IOA 101 twice"),
    ], ids=["misspelled_option", "stray_token", "no_kind", "factor_not_a_number",
            "scale_takes_no_delta", "offset_takes_no_factor", "freeze_takes_no_factor",
            "repeated_target"])
    def test_malformed_command_installs_nothing(self, root_shell, args, bad):
        network, session = root_shell
        with pytest.raises(DeviceError, match=bad):
            network.exec_command(session, f"rtu-override install {args}")
        assert not network._test_rtu.overrides

    def test_unmapped_target_installs_nothing(self, root_shell):
        network, session = root_shell
        with pytest.raises(UnknownIoa, match="999"):
            network.exec_command(session, "rtu-override install scale targets=101,999")
        assert not network._test_rtu.overrides

    def test_control_target_installs_nothing(self, root_shell):
        # an override changes reported values; a control point reports none
        network, session = root_shell
        with pytest.raises(UnknownIoa, match="IOA 201 is not a monitor point"):
            network.exec_command(session, "rtu-override install scale factor=0.5 targets=201")
        assert not network._test_rtu.overrides
