"""CLI exit codes on malformed input: exit 1 with a message, never a traceback."""

import os
import re
import shutil

import pytest

from gridcosim import cli
from gridcosim.pcap import ACK, PSH, PacketRecord, write_pcap

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIOS_DIR = os.path.join(os.path.dirname(HERE), "scenarios")

# (demo, text to replace, replacement, header of the section that holds it)
MALFORMED = {
    "status_not_readable": (
        "attack_demo", "monitor trafo:tr1:p_from_kw", "monitor trafo:tr1:status", "[rtu rtu1]"),
    "field_not_readable_for_kind": (
        "attack_demo", "monitor bus:lv1:v_pu", "monitor bus:lv1:i_ka", "[rtu rtu1]"),
    "bad_direction": (
        "attack_demo", "101 monitor trafo:tr1:p_from_kw", "101 read trafo:tr1:p_from_kw",
        "[rtu rtu1]"),
    "duplicate_ioa": (
        "attack_demo", "102 monitor trafo:tr1:q_from_kvar", "101 monitor trafo:tr1:q_from_kvar",
        "[rtu rtu1]"),
    "scale_not_a_number": (
        "attack_demo", "p_from_kw scale=1.0", "p_from_kw scale=abc", "[rtu rtu1]"),
    "targets_not_integers": (
        "attack_demo", "targets=all", "targets=x", "[attack]"),
    "scan_without_subnet": (
        "attack_demo", "stage = scan 10.0.2.0/24", "stage = scan", "[attack]"),
    "stages_out_of_order": (
        "attack_demo", "stage = rce http\nstage = pe suid", "stage = pe suid\nstage = rce http",
        "[attack]"),
    "unknown_manipulation_kind": (
        "attack_demo", "manipulate scale factor=0.5", "manipulate bogus", "[attack]"),
    "field_controlled_by_two_rtus": (
        "attack_demo", "103 monitor bus:lv1:v_pu scale=1.0 unit=pu",
        "103 monitor bus:lv1:v_pu scale=1.0 unit=pu\ndatapoint = 301 control sgen:pv1:p_kw",
        "[rtu rtu2]"),
    "dso_without_export": (
        "flex_demo", "dso = import=5 export=5", "dso = import=5", "[ems home1]"),
    "negative_capacity": (
        "flex_demo", "capacity_kwh=10", "capacity_kwh=-1", "[ved home1]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_validate_rejects_malformed_scenario_with_file_and_line(case, tmp_path, capsys):
    demo, old, new, header = MALFORMED[case]
    bundle = tmp_path / demo
    shutil.copytree(os.path.join(SCENARIOS_DIR, demo), bundle)
    scenario_file = bundle / "scenario.txt"
    text = scenario_file.read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    scenario_file.write_text(text)
    lineno = text.splitlines().index(header) + 1

    assert cli.main(["validate", str(scenario_file)]) == 1
    err = capsys.readouterr().err
    assert f"{scenario_file}:{lineno}: " in err
    assert "Traceback" not in err


def _capture(path, payloads):
    records = [
        PacketRecord(t_us=1000 * (i + 1), src_ip="10.0.2.11", dst_ip="10.0.1.10",
                     src_port=2404, dst_port=40000, tcp_flags=PSH | ACK, payload=payload)
        for i, payload in enumerate(payloads)
    ]
    write_pcap(path, records)
    return path


STARTDT_ACT = bytes.fromhex("680407000000")


def test_pcap_dump_ok(tmp_path, capsys):
    path = _capture(tmp_path / "ok.pcap", [STARTDT_ACT])
    assert cli.main(["pcap-dump", str(path)]) == 0
    assert "STARTDT_act" in capsys.readouterr().out


def _bad_magic(path):
    data = path.read_bytes()
    path.write_bytes(b"\x00\x00\x00\x00" + data[4:])


def _truncated_record(path):
    data = path.read_bytes()
    path.write_bytes(data[:-3])


@pytest.mark.parametrize("corrupt", [_bad_magic, _truncated_record], ids=["bad_magic", "truncated"])
def test_pcap_dump_corrupt_file_exits_1(corrupt, tmp_path, capsys):
    path = _capture(tmp_path / "bad.pcap", [STARTDT_ACT])
    corrupt(path)
    assert cli.main(["pcap-dump", str(path)]) == 1
    assert re.match(r"error: .*bad\.pcap: ", capsys.readouterr().err)


def test_pcap_dump_corrupt_apdu_exits_1(tmp_path, capsys):
    # start byte, then a length octet below the 4-octet minimum
    path = _capture(tmp_path / "apdu.pcap", [STARTDT_ACT, b"\x68\x02\x00\x00"])
    assert cli.main(["pcap-dump", str(path)]) == 1
    assert "length octet 2" in capsys.readouterr().err


# (demo, bundle file, text to replace, replacement, line the error must name)
MALFORMED_INPUT = {
    "bus_vm_pu_not_a_number": (
        "attack_demo", "grid.txt", "mv0  nominal_kv=20.0  type=slack",
        "mv0  nominal_kv=20.0  type=slack  vm_pu=abc", "mv0  nominal_kv=20.0  type=slack  vm_pu=abc"),
    "service_port_not_an_integer": (
        "attack_demo", "topology.txt", "service = telnet 23", "service = telnet abc",
        "[host rtu1]"),
    "firewall_port_not_an_integer": (
        "attack_demo", "topology.txt", "[switch sw_ctrl]",
        "[firewall]\nallow = 10.0.1.0/24 10.0.2.0/24 port=x\n[switch sw_ctrl]", "[firewall]"),
    "firewall_cidr_malformed": (
        "attack_demo", "topology.txt", "[switch sw_ctrl]",
        "[firewall]\nallow = 10.0.1.0/24 garbage\n[switch sw_ctrl]", "[firewall]"),
}


def _edit_bundle(tmp_path, demo, filename, old, new):
    bundle = tmp_path / demo
    shutil.copytree(os.path.join(SCENARIOS_DIR, demo), bundle)
    path = bundle / filename
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return bundle / "scenario.txt", path


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUT))
def test_validate_rejects_malformed_grid_or_topology_with_file_and_line(case, tmp_path, capsys):
    demo, filename, old, new, anchor = MALFORMED_INPUT[case]
    scenario_file, path = _edit_bundle(tmp_path, demo, filename, old, new)
    lineno = path.read_text().splitlines().index(anchor) + 1

    assert cli.main(["validate", str(scenario_file)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:{lineno}: " in err
    assert "Traceback" not in err


# (text to replace in attack_demo's topology.txt, replacement, message fragment)
INVALID_NETWORK = {
    "interface_outside_subnet": (
        "interface = 10.0.2.12 10.0.2.0/24", "interface = 10.0.3.12 10.0.2.0/24",
        "not inside subnet"),
    "duplicate_ip": (
        "interface = 10.0.2.12 10.0.2.0/24", "interface = 10.0.2.11 10.0.2.0/24",
        "assigned twice"),
    "interface_ip_malformed": (
        "interface = 10.0.2.12 10.0.2.0/24", "interface = 10.0.2.x 10.0.2.0/24",
        "does not appear to be"),
    "host_without_path": ("lk6  a=kali b=sw_field latency_ms=1", "", "without a network path"),
}


@pytest.mark.parametrize("case", sorted(INVALID_NETWORK))
def test_validate_rejects_invalid_network(case, tmp_path, capsys):
    old, new, message = INVALID_NETWORK[case]
    scenario_file, _ = _edit_bundle(tmp_path, "attack_demo", "topology.txt", old, new)

    assert cli.main(["validate", str(scenario_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: ") and message in err
    assert "Traceback" not in err
