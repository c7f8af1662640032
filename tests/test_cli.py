"""CLI exit codes on malformed input: exit 1 with a message, never a traceback."""

import contextlib
import io
import os
import re
import shutil
import string
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcosim import cli, pcap
from gridcosim.configfile import ConfigError
from gridcosim.pcap import ACK, PSH, PacketRecord, write_pcap
from gridcosim.scenario import load_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIOS_DIR = os.path.join(os.path.dirname(HERE), "scenarios")

# (demo, text to replace, replacement, text of the one line the error must name:
# the edited entry, the later of two conflicting entries, or the section
# header for a rule about the whole section)
MALFORMED = {
    "status_not_readable": (
        "attack_demo", "monitor trafo:tr1:p_from_kw", "monitor trafo:tr1:status",
        "trafo:tr1:status"),
    "field_not_readable_for_kind": (
        "attack_demo", "monitor bus:lv1:v_pu", "monitor bus:lv1:i_ka", "bus:lv1:i_ka"),
    "bad_direction": (
        "attack_demo", "101 monitor trafo:tr1:p_from_kw", "101 read trafo:tr1:p_from_kw",
        "101 read"),
    "duplicate_ioa": (
        "attack_demo", "102 monitor trafo:tr1:q_from_kvar", "101 monitor trafo:tr1:q_from_kvar",
        "101 monitor trafo:tr1:q_from_kvar"),
    "scale_not_a_number": (
        "attack_demo", "p_from_kw scale=1.0", "p_from_kw scale=abc", "scale=abc"),
    "datapoint_scale_nan": (
        "attack_demo", "p_from_kw scale=1.0", "p_from_kw scale=nan", "scale=nan"),
    "ioa_out_of_range": (
        "attack_demo", "datapoint = 103 monitor", "datapoint = 16777216 monitor",
        "16777216 monitor"),
    "ioa_of_400_digits": (
        "attack_demo", "datapoint = 103 monitor", "datapoint = 1" + "0" * 400 + " monitor",
        "0" * 400),
    "horizon_past_capture_seconds": (
        "attack_demo", "horizon_s = 3600", "horizon_s = 4294967340", "horizon_s = 4294967340"),
    "common_address_out_of_range": (
        "attack_demo", "common_address = 1", "common_address = 65537",
        "common_address = 65537"),
    "datapoint_stray_token": (
        "attack_demo", "q_from_kvar scale=1.0", "q_from_kvar 1.0", "q_from_kvar 1.0"),
    "datapoint_repeated_option": (
        "attack_demo", "v_pu scale=1.0 unit=pu\n\n[rtu rtu2]",
        "v_pu scale=1.0 unit=pu scale=2.0\n\n[rtu rtu2]", "scale=2.0"),
    "repeated_single_valued_key": (
        "attack_demo", "step_s = 60", "step_s = 60\nstep_s = 30", "step_s = 30"),
    "targets_not_integers": (
        "attack_demo", "targets=all", "targets=x", "targets=x"),
    "targets_repeated": (
        "attack_demo", "targets=all", "targets=101,101", "targets=101,101"),
    "scan_without_subnet": (
        "attack_demo", "stage = scan 10.0.2.0/24", "stage = scan", "stage = scan"),
    "scan_subnet_prefix_too_long": (
        "attack_demo", "stage = scan 10.0.2.0/24", "stage = scan 10.0.0.0/33",
        "stage = scan 10.0.0.0/33"),
    "scan_subnet_host_bits_set": (
        "attack_demo", "stage = scan 10.0.2.0/24", "stage = scan 10.0.2.1/24",
        "stage = scan 10.0.2.1/24"),
    "unknown_pe_method": (
        "attack_demo", "stage = pe suid", "stage = pe root", "stage = pe root"),
    "stages_out_of_order": (
        "attack_demo", "stage = rce http\nstage = pe suid", "stage = pe suid\nstage = rce http",
        "[attack]"),
    "unknown_manipulation_kind": (
        "attack_demo", "manipulate scale factor=0.5", "manipulate bogus", "manipulate bogus"),
    "option_not_taken_by_kind": (
        "attack_demo", "manipulate scale factor=0.5", "manipulate scale delta=5",
        "manipulate scale delta=5"),
    "manipulate_scale_factor_nan": (
        "attack_demo", "manipulate scale factor=0.5", "manipulate scale factor=nan",
        "factor=nan"),
    "field_controlled_by_two_rtus": (
        "attack_demo", "103 monitor bus:lv1:v_pu scale=1.0 unit=pu",
        "103 monitor bus:lv1:v_pu scale=1.0 unit=pu\ndatapoint = 301 control sgen:pv1:p_kw",
        "201 control sgen:pv1:p_kw"),
    "second_rtu_section": (  # the extra space only makes the anchor line unique
        "attack_demo", "[rtu rtu2]", "[rtu  rtu1]", "[rtu  rtu1]"),
    "second_ved_section": (
        "flex_demo", "[ems home1]", "[ved  home1]\nhost = home1\nbus = fb2\n\n[ems home1]",
        "[ved  home1]"),
    "report_period_zero": (
        "flex_demo", "report_period_s = 900", "report_period_s = 0", "report_period_s = 0"),
    "poll_period_not_multiple": (
        "attack_demo", "poll_period_s = 900", "poll_period_s = 90", "poll_period_s = 90"),
    "poll_period_negative": (
        "attack_demo", "poll_period_s = 900", "poll_period_s = -300", "poll_period_s = -300"),
    "second_ems_section": (  # the extra space only makes the anchor line unique
        "flex_demo", "dso = import=5 export=5", "dso = import=5 export=5\n[ems  home1]",
        "[ems  home1]"),
    "dso_without_export": (
        "flex_demo", "dso = import=5 export=5", "dso = import=5", "dso = import=5"),
    "negative_capacity": (
        "flex_demo", "capacity_kwh=10", "capacity_kwh=-1", "capacity_kwh=-1"),
    "unknown_key": (
        "attack_demo", "poll_period_s = 900", "poll_period = 900", "poll_period = 900"),
    "removed_seed_key": (
        "attack_demo", "step_s = 60", "step_s = 60\nseed = 7", "seed = 7"),
    "unknown_section": ("attack_demo", "[attack]", "[attak]", "[attak]"),
    "row_in_key_value_section": (
        "attack_demo", "host = mtu", "host = mtu\npolling", "polling"),
    "unknown_datapoint_option": (
        "attack_demo", "p_from_kw scale=1.0", "p_from_kw scale=1.0 sacle=2", "sacle=2"),
    "unknown_stage_option": (
        "attack_demo", "stage = rce http", "stage = rce http port=80", "port=80"),
    "unknown_battery_option": (
        "flex_demo", "soc_kwh=2", "soc_kwh=2 soc=3", "soc=3"),
    "dso_window_ends_before_it_starts": (
        "flex_demo", "dso = import=5 export=5", "dso = import=5 export=5 from=7200 to=3600",
        "from=7200 to=3600"),
    "vpp_window_is_empty": (
        "flex_demo", "dso = import=5 export=5",
        "dso = import=5 export=5\nvpp = target=2 from=600 to=600",
        "vpp = target=2"),
    "unknown_dso_option": (
        "flex_demo", "dso = import=5 export=5", "dso = import=5 export=5 form=0", "form=0"),
    "control_field_not_actuatable": (
        "attack_demo", "201 control sgen:pv1:p_kw scale=1.0",
        "201 control sgen:pv1:v_pu scale=1.0", "sgen:pv1:v_pu"),
    # the same rules on a datapoint line without options
    "plain_ioa_not_an_integer": (
        "attack_demo", "datapoint = 202 control", "datapoint = x2 control", "x2 control"),
    "plain_ioa_out_of_range": (
        "attack_demo", "datapoint = 202 control", "datapoint = 16777216 control",
        "16777216 control"),
    "plain_two_part_reference": (
        "attack_demo", "control line:lline3:status", "control line:lline3", "line:lline3"),
    "plain_unknown_element": (
        "attack_demo", "control line:lline3:status", "control line:nope:status", "line:nope"),
    "plain_bad_direction": (
        "attack_demo", "202 control line:lline3:status", "202 toggle line:lline3:status",
        "202 toggle"),
    "plain_field_not_actuatable": (
        "attack_demo", "202 control line:lline3:status", "202 control bus:lv4:v_pu",
        "control bus:lv4"),
    "plain_repeated_ioa": (
        "attack_demo", "202 control line:lline3:status", "101 control line:lline3:status",
        "line:lline3"),
    "plain_two_tokens": (
        "attack_demo", "202 control line:lline3:status", "202 control", "202 control"),
}


# what the message of a MALFORMED case says: every datapoint case, and every
# case where a run would otherwise break a rule that only load_scenario checks
MESSAGES = {
    "status_not_readable": "rtu 'rtu1': IOA 101: 'trafo:tr1:status' is not readable",
    "field_not_readable_for_kind": "rtu 'rtu1': IOA 103: 'bus:lv1:i_ka' is not readable",
    "bad_direction": "rtu 'rtu1': IOA 101: bad direction 'read'",
    "duplicate_ioa": "rtu 'rtu1': IOA 101 assigned twice within one RTU",
    "scale_not_a_number": "scale: expected a number, got 'abc'",
    "datapoint_scale_nan": "scale must be finite, got 'nan'",
    "ioa_out_of_range": "IOA 16777216 outside 0..16777215",
    "datapoint_stray_token": "expected key=value token, got '1.0'",
    "datapoint_repeated_option": "duplicate attribute 'scale'",
    "unknown_datapoint_option": "'datapoint': unknown option 'sacle'",
    "control_field_not_actuatable": "rtu 'rtu2': IOA 201: 'sgen:pv1:v_pu' is not actuatable",
    "plain_ioa_not_an_integer": "ioa: expected an integer, got 'x2'",
    "plain_ioa_out_of_range": "IOA 16777216 outside 0..16777215",
    "plain_two_part_reference": "bad element reference 'line:lline3'",
    "plain_unknown_element": "rtu 'rtu2' IOA 202: line:nope is not in the grid",
    "plain_bad_direction": "rtu 'rtu2': IOA 202: bad direction 'toggle'",
    "plain_field_not_actuatable": "rtu 'rtu2': IOA 202: 'bus:lv4:v_pu' is not actuatable",
    "plain_repeated_ioa": "rtu 'rtu2': IOA 101 assigned twice within one RTU",
    "plain_two_tokens": "datapoint = <ioa> <monitor|control> <kind>:<element>:<field> ...",
    "field_controlled_by_two_rtus":
        "rtu 'rtu2' IOA 201: sgen:pv1:p_kw is already controlled by rtu 'rtu1' (line 22)",
    "second_rtu_section": "second [rtu rtu1] section",
    "second_ved_section": "second [ved home1] section",
    "scan_subnet_prefix_too_long": "stage scan: '10.0.0.0/33' does not appear to be",
    "scan_subnet_host_bits_set": "stage scan: 10.0.2.1/24 has host bits set",
    "unknown_pe_method": "unknown pe method 'root'",
    "ioa_of_400_digits": "IOA 1" + "0" * 400 + " outside 0..16777215",
    "horizon_past_capture_seconds":
        "horizon_s 4294967340 is past the capture's last second 4294967295",
}


def _edit_bundle(tmp_path, demo, filename, old, new):
    bundle = tmp_path / demo
    shutil.copytree(os.path.join(SCENARIOS_DIR, demo), bundle)
    path = bundle / filename
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return bundle / "scenario.txt", path


def _line_of(text, anchor):
    lines = [i for i, line in enumerate(text.splitlines(), start=1) if anchor in line]
    assert len(lines) == 1, anchor
    return lines[0]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_validate_rejects_malformed_scenario_with_file_and_line(case, tmp_path, capsys):
    demo, old, new, anchor = MALFORMED[case]
    scenario_file, _ = _edit_bundle(tmp_path, demo, "scenario.txt", old, new)
    lineno = _line_of(scenario_file.read_text(), anchor)

    assert cli.main(["validate", str(scenario_file)]) == 1
    err = capsys.readouterr().err
    assert f"{scenario_file}:{lineno}: " in err
    assert MESSAGES.get(case, "") in err
    assert "Traceback" not in err


def test_removed_seed_key_says_so(tmp_path, capsys):
    scenario_file, _ = _edit_bundle(tmp_path, "attack_demo", "scenario.txt",
                                    "step_s = 60", "step_s = 60\nseed = 7")
    assert cli.main(["validate", str(scenario_file)]) == 1
    assert "'seed' was removed" in capsys.readouterr().err


def test_repeated_target_ioa_is_named(tmp_path, capsys):
    scenario_file, _ = _edit_bundle(tmp_path, "attack_demo", "scenario.txt",
                                    "targets=all", "targets=101,102,101")
    assert cli.main(["validate", str(scenario_file)]) == 1
    assert "targets names IOA 101 twice" in capsys.readouterr().err


@pytest.mark.parametrize("until", ["0", "-60"])
def test_run_rejects_non_positive_until_before_writing(until, tmp_path, capsys):
    scenario_file = os.path.join(SCENARIOS_DIR, "attack_demo", "scenario.txt")
    out = tmp_path / "out"
    assert cli.main(["run", scenario_file, "--out", str(out), "--until", until]) == 1
    assert "--until must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_run_exits_2_when_the_capture_cannot_hold_a_packet_time(monkeypatch, tmp_path, capsys):
    """A network clock past the capture's last second is a runtime fault:
    the horizon check at load time cannot see how far the clock leads."""
    monkeypatch.setattr(pcap, "_T_US_END", 60_000_000)
    scenario_file = os.path.join(SCENARIOS_DIR, "attack_demo", "scenario.txt")
    assert cli.main(["run", scenario_file, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime fault: packet time ") and "Traceback" not in err


def test_run_exits_2_when_out_lies_under_a_regular_file(tmp_path, capsys):
    scenario_file = os.path.join(SCENARIOS_DIR, "attack_demo", "scenario.txt")
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert cli.main(["run", scenario_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime fault: ") and str(out) in err and "Traceback" not in err


def test_run_exits_2_naming_the_power_flow_error_of_a_solve_that_does_not_converge(
        tmp_path, capsys):
    scenario_file, _ = _edit_bundle(tmp_path, "attack_demo", "grid.txt",
                                    "q_kvar=9.0", "q_kvar=1e9")
    assert cli.main(["validate", str(scenario_file)]) == 0
    assert cli.main(["run", str(scenario_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "PowerFlowError('power flow did not converge at t=0" in err
    assert "Traceback" not in err


def test_import_of_the_cli_leaves_numpy_out():
    code = "import sys, gridcosim.cli, gridcosim.devices; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "False\n"


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


def test_pcap_dump_decodes_an_apdu_split_across_segments(tmp_path, capsys):
    # a 20-octet M_ME_NC_1 I-frame (IOA 100, value 1.5) in a 7- and a 13-octet segment
    frame = bytes.fromhex("681200000000" "0d0103000100" "640000" "0000c03f" "00")
    path = _capture(tmp_path / "split.pcap", [STARTDT_ACT, frame[:7], frame[7:]])
    assert cli.main(["pcap-dump", str(path)]) == 0
    out = capsys.readouterr().out
    assert "data:" not in out
    assert out.count("iec104: ") == 2
    assert "iec104: I n(s)=0 n(r)=0 M_ME_NC_1 cot=3 ca=1 ioa=100 value=1.5" in out


def _bad_magic(path):
    data = path.read_bytes()
    path.write_bytes(b"\x00\x00\x00\x00" + data[4:])


def _truncated_record(path):
    data = path.read_bytes()
    path.write_bytes(data[:-3])


# byte offsets into a one-record capture: 24-octet global header, 16-octet
# record header, 14-octet Ethernet header, then IPv4 and TCP
_IP_AT = 24 + 16 + 14
_TCP_AT = _IP_AT + 20


def _patch(offset, data):
    def corrupt(path):
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(data)] = data
        path.write_bytes(bytes(raw))
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _bad_magic,
    _truncated_record,
    _patch(_IP_AT + 2, b"\x00\x14"),  # total length 20: no room for a TCP header
    _patch(_IP_AT, b"\x4f"),  # IHL 15: a 60-octet IPv4 header
    _patch(_TCP_AT + 12, b"\xf0"),  # data offset 60 in a 26-octet segment
], ids=["bad_magic", "truncated", "ip_total_length_short", "ihl_over_frame",
        "tcp_data_offset_beyond_segment"])
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


# (demo, bundle file, text to replace, replacement, text of the line the error must name)
MALFORMED_INPUT = {
    "bus_vm_pu_not_a_number": (
        "attack_demo", "grid.txt", "mv0  nominal_kv=20.0  type=slack",
        "mv0  nominal_kv=20.0  type=slack  vm_pu=abc", "vm_pu=abc"),
    "service_port_not_an_integer": (
        "attack_demo", "topology.txt", "service = telnet 23", "service = telnet abc",
        "service = telnet abc"),
    "service_port_out_of_range": (
        "attack_demo", "topology.txt", "service = http 80 rce", "service = http 70000 rce",
        "service = http 70000"),
    "firewall_port_out_of_range": (
        "attack_demo", "topology.txt", "[switch sw_ctrl]",
        "[firewall]\nallow = 10.0.1.0/24 10.0.2.0/24 port=70000\n[switch sw_ctrl]", "port=70000"),
    "service_stray_token": (
        "attack_demo", "topology.txt", "service = http 80 rce", "service = http 80 x rce",
        "service = http 80 x"),
    "suid_without_value": (
        "attack_demo", "topology.txt", "suid = backup-tool vuln=CVE-2099-0102", "suid =",
        "suid ="),
    "sudoers_without_value": (
        "attack_demo", "topology.txt", "account = sam user", "account = sam user\nsudoers =",
        "sudoers ="),
    "link_latency_nan": (
        "attack_demo", "topology.txt", "b=sw_field latency_ms=2", "b=sw_field latency_ms=nan",
        "latency_ms=nan"),
    "link_latency_inf": (
        "attack_demo", "topology.txt", "b=sw_field latency_ms=2", "b=sw_field latency_ms=inf",
        "latency_ms=inf"),
    "link_to_unknown_node": (
        "attack_demo", "topology.txt", "lk5  a=der1", "lk5  a=ghost", "lk5  a=ghost"),
    "firewall_port_not_an_integer": (
        "attack_demo", "topology.txt", "[switch sw_ctrl]",
        "[firewall]\nallow = 10.0.1.0/24 10.0.2.0/24 port=x\n[switch sw_ctrl]", "port=x"),
    "firewall_cidr_malformed": (
        "attack_demo", "topology.txt", "[switch sw_ctrl]",
        "[firewall]\nallow = 10.0.1.0/24 garbage\n[switch sw_ctrl]", "garbage"),
    "profile_value_not_a_number": (
        "attack_demo", "profiles.csv", "900,l2,p_kw,33.5", "900,l2,p_kw,abc", "abc"),
    "profile_value_inf": (
        "attack_demo", "profiles.csv", "900,l2,p_kw,33.5", "900,l2,p_kw,inf", "900,l2,p_kw,inf"),
    "line_r_ohm_nan": (
        "attack_demo", "grid.txt", "lline2  from=lv2 to=lv3 r_ohm=0.04",
        "lline2  from=lv2 to=lv3 r_ohm=nan", "r_ohm=nan"),
    "load_p_kw_inf": (
        "attack_demo", "grid.txt", "l2      bus=lv2 p_kw=30.0", "l2      bus=lv2 p_kw=inf",
        "p_kw=inf"),
    "grid_unknown_bus": (
        "attack_demo", "grid.txt", "lline3  from=lv3 to=lv4", "lline3  from=lv3 to=ghost",
        "to=ghost"),
    "grid_duplicate_id_names_second_row": (
        "attack_demo", "grid.txt", "l3      bus=lv3", "l2      bus=lv3", "l2      bus=lv3"),
    "grid_negative_impedance": (
        "attack_demo", "grid.txt", "lline2  from=lv2 to=lv3 r_ohm=0.04",
        "lline2  from=lv2 to=lv3 r_ohm=-0.04", "r_ohm=-0.04"),
    "grid_line_between_voltage_levels": (
        "attack_demo", "grid.txt", "lline3  from=lv3 to=lv4", "lline3  from=lv3 to=mv2",
        "from=lv3 to=mv2"),
    "grid_trafo_unknown_bus": (
        "attack_demo", "grid.txt", "hv_bus=mv2", "hv_bus=ghost", "hv_bus=ghost"),
    "grid_trafo_vk_zero": (
        "attack_demo", "grid.txt", "vk_percent=6.0", "vk_percent=0", "vk_percent=0"),
    "grid_trafo_rating_zero": (
        "attack_demo", "grid.txt", "s_rated_kva=630", "s_rated_kva=0", "s_rated_kva=0"),
    "grid_trafo_vkr_above_vk": (
        "attack_demo", "grid.txt", "vkr_percent=1.2", "vkr_percent=7.0", "vkr_percent=7.0"),
    "grid_load_unknown_bus": (
        "attack_demo", "grid.txt", "l4      bus=lv4", "l4      bus=ghost", "bus=ghost"),
    "grid_sgen_unknown_bus": (
        "attack_demo", "grid.txt", "pv1  bus=lv4", "pv1  bus=ghost", "bus=ghost"),
    "grid_second_slack": (
        "attack_demo", "grid.txt", "mv1  nominal_kv=20.0  type=pq",
        "mv1  nominal_kv=20.0  type=slack", "mv1  nominal_kv=20.0  type=slack"),
    "grid_unknown_attribute": (
        "attack_demo", "grid.txt", "mv0  nominal_kv=20.0  type=slack",
        "mv0  nominal_kv=20.0  type=slack  vm=1.02", "vm=1.02"),
    "link_unknown_attribute": (
        "attack_demo", "topology.txt", "b=sw_field latency_ms=2", "b=sw_field latncy_ms=2",
        "latncy_ms=2"),
    "service_unknown_option": (
        "attack_demo", "topology.txt", "service = telnet 23", "service = telnet 23 baner=x",
        "baner=x"),
    "topology_unknown_section": (
        "attack_demo", "topology.txt", "[switch sw_ctrl]", "[swich sw_ctrl]", "[swich sw_ctrl]"),
    "grid_base_mva_zero": (
        "attack_demo", "grid.txt", "base_mva = 1.0", "base_mva = 0", "base_mva = 0"),
    "grid_bus_nominal_kv_zero": (
        "attack_demo", "grid.txt", "mv0  nominal_kv=20.0", "mv0  nominal_kv=0",
        "mv0  nominal_kv=0 "),
    "profile_time_goes_backwards": (
        "attack_demo", "profiles.csv", "1800,l2,p_kw,36.0", "600,l2,p_kw,36.0",
        "600,l2,p_kw"),
    "grid_trafo_tap_ratio_zero": (
        "attack_demo", "grid.txt", "tap_position=0", "tap_position=-40", "tap_position=-40"),
}


# what the message of a MALFORMED_INPUT case says, where the grid's
# validator has more than one rule for the element the case edits
INPUT_MESSAGES = {
    "grid_line_between_voltage_levels": "connects buses of different nominal voltage",
    "grid_trafo_unknown_bus": "trafo 'tr1' references unknown bus",
    "grid_trafo_vk_zero": "has non-positive vk or rating",
    "grid_trafo_rating_zero": "has non-positive vk or rating",
    "grid_trafo_vkr_above_vk": "needs 0 <= vkr <= vk",
    "grid_load_unknown_bus": "'l4' references unknown bus",
    "grid_sgen_unknown_bus": "'pv1' references unknown bus",
    "service_port_out_of_range": "http service port 70000 outside 0..65535",
    "firewall_port_out_of_range": "allow: port 70000 outside 0..65535",
    "grid_base_mva_zero": "base_mva must be positive, got 0.0",
    "grid_bus_nominal_kv_zero": "bus 'mv0': nominal_kv must be positive",
    "grid_trafo_tap_ratio_zero":
        "trafo 'tr1': tap ratio must be positive, tap_position -40 gives 0",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUT))
def test_validate_rejects_malformed_grid_or_topology_with_file_and_line(case, tmp_path, capsys):
    demo, filename, old, new, anchor = MALFORMED_INPUT[case]
    scenario_file, path = _edit_bundle(tmp_path, demo, filename, old, new)
    lineno = _line_of(path.read_text(), anchor)

    assert cli.main(["validate", str(scenario_file)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:{lineno}: " in err
    assert INPUT_MESSAGES.get(case, "") in err
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


FUZZ_TARGETS = [
    (demo, filename)
    for demo in ("attack_demo", "flex_demo")
    for filename in ("scenario.txt", "topology.txt", "grid.txt")
]
FUZZ_TOKENS = st.one_of(
    st.sampled_from(["=", "x=", "=y", "a=b", "k=v=w", "nan", "inf", "-1", "0", "[x]", "#"]),
    st.text(alphabet=string.ascii_letters + string.digits + "=.:,-_/[]# ", max_size=10),
)


@pytest.fixture(scope="module")
def fuzz_bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for demo in ("attack_demo", "flex_demo"):
        shutil.copytree(os.path.join(SCENARIOS_DIR, demo), root / demo)
    return root


def _mutate(lines, data):
    """Delete or duplicate one line, or drop or replace one of its tokens or
    the value of one of its k=v tokens."""
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    mutation = data.draw(st.sampled_from(["delete", "duplicate", "drop", "replace", "value"]))
    if mutation == "delete":
        return lines[:i] + lines[i + 1:]
    if mutation == "duplicate":
        return lines[:i + 1] + lines[i:]
    tokens = lines[i].split()
    if not tokens:
        return lines
    j = data.draw(st.integers(0, len(tokens) - 1), label="token")
    if mutation == "drop":
        del tokens[j]
    elif mutation == "value" and "=" in tokens[j]:
        key = tokens[j].partition("=")[0]
        tokens[j] = key + "=" + data.draw(FUZZ_TOKENS, label="value")
    else:
        tokens[j] = data.draw(FUZZ_TOKENS, label="replacement")
    return lines[:i] + [" ".join(tokens)] + lines[i + 1:]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_bundle_exits_0_or_1_and_names_the_faulty_line(fuzz_bundles, data):
    """A one-line mutation of a shipped bundle never makes `validate` raise.
    A ConfigError names the mutated file, or the scenario entry that refers
    into it (a deleted host makes that entry dangle), and a line of that file.
    A bundle `validate` accepts runs to exit 0, or to exit 2 on a power flow
    that does not converge, and never raises."""
    demo, filename = data.draw(st.sampled_from(FUZZ_TARGETS), label="file")
    scenario_file = fuzz_bundles / demo / "scenario.txt"
    path = fuzz_bundles / demo / filename
    original = path.read_text()
    path.write_text("\n".join(_mutate(original.splitlines(), data)) + "\n")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["validate", str(scenario_file)])
        assert status in (0, 1)
        if status == 0:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = cli.main(["run", str(scenario_file), "--out", str(fuzz_bundles / "out")])
            assert status == 0 or (status == 2 and "PowerFlowError" in err.getvalue()), \
                err.getvalue()
            assert "Traceback" not in err.getvalue()
        try:
            load_scenario(scenario_file)
        except ConfigError as exc:
            assert exc.source in (str(path), str(scenario_file)), exc
            if exc.lineno is not None:
                with open(exc.source, encoding="utf-8") as fh:
                    assert 1 <= exc.lineno <= len(fh.read().splitlines()), exc
        except cli._VALIDATION_ERRORS:
            pass
    finally:
        path.write_text(original)
