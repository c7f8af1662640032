import csv
import gc
import hashlib
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from conftest import HASHED_OUTPUTS
from gridcosim import cli, devices, scenario as scenario_mod
from gridcosim.configfile import ConfigError
from gridcosim.devices import ArchiveRow, CommandLogRow
from gridcosim.ems import EmsDecision
from gridcosim.kernel import KernelError, SimulatorFault
from gridcosim.scenario import (
    ARTIFACTS,
    GridSimulator,
    load_scenario,
    run_scenario,
)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def edited_copy(scenario_path, bundle, filename, edit):
    """Copy the scenario's bundle to `bundle`, passing the text of
    `filename` through `edit`; returns the copy's scenario file."""
    shutil.copytree(os.path.dirname(scenario_path), bundle)
    path = bundle / filename
    path.write_text(edit(path.read_text()))
    return bundle / "scenario.txt"


def assert_archive_equals_truth(scenario, outdir):
    """Every archived value equals the ground truth of its point at its time."""
    truth = {
        (r["t"], r["element"], r["field"]): r["value"]
        for r in read_csv(os.path.join(outdir, "ground_truth.csv"))
    }
    iomap = {}
    for config in scenario.rtus:
        for dp in config.monitor:
            iomap[(config.name, str(dp.ioa))] = (dp.entity, dp.fieldname)
    archive = read_csv(os.path.join(outdir, "archive.csv"))
    assert archive
    for row in archive:
        entity, fieldname = iomap[(row["rtu"], row["ioa"])]
        assert truth[(row["t"], entity, fieldname)] == row["value"]


class TestLoad:
    def test_attack_demo_loads(self, attack_demo_path):
        scenario = load_scenario(attack_demo_path)
        assert scenario.mtu is not None
        assert len(scenario.rtus) == 2
        assert scenario.attack_plan is not None
        assert len(scenario.attack_plan.stages) == 4
        assert scenario.horizon_s == 3600 and scenario.step_s == 60

    def test_missing_grid_element_is_dangling_reference(self, attack_demo_path, tmp_path):
        bundle = tmp_path / "broken"
        shutil.copytree(os.path.dirname(attack_demo_path), bundle)
        scenario_file = bundle / "scenario.txt"
        text = scenario_file.read_text().replace("trafo:tr1:p_from_kw", "trafo:nope:p_from_kw")
        scenario_file.write_text(text)
        with pytest.raises(ConfigError, match="trafo:nope is not in the grid") as info:
            load_scenario(scenario_file)
        assert info.value.lineno == 19

    def test_missing_host_is_dangling_reference(self, attack_demo_path, tmp_path):
        bundle = tmp_path / "broken2"
        shutil.copytree(os.path.dirname(attack_demo_path), bundle)
        scenario_file = bundle / "scenario.txt"
        text = scenario_file.read_text().replace("foothold = kali", "foothold = ghost")
        scenario_file.write_text(text)
        with pytest.raises(ConfigError, match="foothold 'ghost' is not in the topology") as info:
            load_scenario(scenario_file)
        assert info.value.lineno == 33

    def test_unknown_profile_target_rejected(self, attack_demo_path, tmp_path):
        bundle = tmp_path / "broken3"
        shutil.copytree(os.path.dirname(attack_demo_path), bundle)
        with open(bundle / "profiles.csv", "a") as fh:
            fh.write("0,nosuch,p_kw,1.0\n")
        with pytest.raises(ConfigError, match="nosuch.p_kw matches no grid element") as info:
            load_scenario(bundle / "scenario.txt")
        assert info.value.lineno == 9

    def test_flex_demo_loads(self, flex_demo_path):
        scenario = load_scenario(flex_demo_path)
        assert scenario.attack_plan is None
        assert len(scenario.veds) == 1
        assert scenario.ems_configs["home1"].dso_limits


class TestRun:
    def test_outputs_present_and_manifest_verifies(self, attack_demo_path, tmp_path):
        import hashlib

        scenario = load_scenario(attack_demo_path)
        out = run_scenario(scenario, outdir=str(tmp_path / "out"))
        assert sorted(os.listdir(out.outdir)) == sorted(
            [*HASHED_OUTPUTS, "run_report.txt", "manifest.txt"])
        for name, digest in out.manifest.items():
            with open(os.path.join(out.outdir, name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest

    @pytest.mark.parametrize("fault_at", [None, 1200])
    def test_manifest_hashes_the_files_on_disk(self, attack_demo_path, tmp_path,
                                               monkeypatch, fault_at):
        # each hash is taken while its file is written: it must be the
        # sha256 of the file on disk, for the partial artifacts of a run
        # that faults mid-way too
        if fault_at is not None:
            step = GridSimulator.step

            def failing_step(self, t, inputs):
                if t == fault_at:
                    raise RuntimeError("injected fault")
                return step(self, t, inputs)

            monkeypatch.setattr(GridSimulator, "step", failing_step)
        outdir = tmp_path / "out"
        try:
            run_scenario(load_scenario(attack_demo_path), outdir=str(outdir))
        except SimulatorFault as exc:
            assert exc.step_time == fault_at
        else:
            assert fault_at is None
        listed = {name: digest for digest, name in
                  (line.split() for line in (outdir / "manifest.txt").read_text().splitlines())}
        on_disk = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                   for name in HASHED_OUTPUTS}
        assert listed == {**on_disk, "run_report.txt": "-"}
        truth_times = {int(r["t"]) for r in read_csv(outdir / "ground_truth.csv")}
        assert max(truth_times) == (fault_at or 3600) - 60

    @pytest.mark.parametrize("name, row, line", [
        ("ground_truth.csv", (60, "bus:b1", "v_pu", np.float64(0.5)), "60,bus:b1,v_pu,0.5\n"),
        ("archive.csv", ArchiveRow(60, "rtu1", 101, np.float64(0.5), 0), "60,rtu1,101,0.5,0\n"),
        ("commands.csv", CommandLogRow(60, "rtu1", 201, np.float64(0.5), True),
         "60,rtu1,201,0.5,True\n"),
        ("ems_decisions.csv",
         ("home1", EmsDecision(60, np.float64(0.5), np.float64(-0.5), "idle", "none")),
         "60,home1,0.5,-0.5,idle,none\n"),
    ])
    def test_float_column_writes_numpy_scalar_as_number(self, name, row, line):
        # repr(np.float64(0.5)) is 'np.float64(0.5)' under numpy 2
        assert ARTIFACTS[name].line(row) == line

    @pytest.mark.parametrize("name, row, line", [
        ("ground_truth.csv", lambda v: (60, "bus:b1", "v_pu", v), "60,bus:b1,v_pu,{0}\n"),
        ("archive.csv", lambda v: ArchiveRow(60, "rtu1", 101, v, 0), "60,rtu1,101,{0},0\n"),
        ("commands.csv", lambda v: CommandLogRow(60, "rtu1", 201, v, True),
         "60,rtu1,201,{0},True\n"),
        ("ems_decisions.csv", lambda v: ("home1", EmsDecision(60, v, v, "idle", "none")),
         "60,home1,{0},{0},idle,none\n"),
    ])
    def test_float_column_keeps_the_sign_of_zero_and_writes_nan(self, name, row, line):
        # -0.0 == 0.0, so a table of texts keyed by value must not merge them
        values = [-0.0, 0.0, -0.0, float("nan"), float("nan"), np.float64(0.5), 0.5,
                  np.float64(-0.0), 0.0]
        texts = ["-0.0", "0.0", "-0.0", "nan", "nan", "0.5", "0.5", "-0.0", "0.0"]
        assert [ARTIFACTS[name].line(row(v)) for v in values] == [line.format(t) for t in texts]

    def test_flush_of_many_distinct_values_writes_each_exactly(self, tmp_path):
        values = [float(np.float32(i * 0.001 - 3.0)) for i in range(6000)]
        values += [-0.0, 0.0, float("nan"), *values[:50], -0.0]
        assert len(set(values)) > scenario_mod.FLOAT_TEXTS_LIMIT  # more than the memo keeps
        rows = {name: () for name in ARTIFACTS}
        rows["capture.pcap"] = []
        rows["ground_truth.csv"] = [(60, "bus:b1", "v_pu", v) for v in values]
        rows["archive.csv"] = [ArchiveRow(60, "rtu1", 101, np.float64(v), 0) for v in values]
        scenario_mod._write_artifacts(str(tmp_path), rows)
        expected = [repr(float(v)) for v in values]
        truth = (tmp_path / "ground_truth.csv").read_text().splitlines()[1:]
        archive = (tmp_path / "archive.csv").read_text().splitlines()[1:]
        assert [line.rsplit(",", 1)[1] for line in truth] == expected
        assert [line.split(",")[3] for line in archive] == expected

    def test_until_overrides_horizon(self, attack_demo_path, tmp_path):
        scenario = load_scenario(attack_demo_path)
        out = run_scenario(scenario, outdir=str(tmp_path / "out"), until=300)
        truth = read_csv(os.path.join(out.outdir, "ground_truth.csv"))
        assert max(int(r["t"]) for r in truth) == 240

    @pytest.mark.parametrize("until", [0, -60])
    def test_non_positive_until_rejected_before_writing(self, attack_demo_path, tmp_path,
                                                        until):
        out = tmp_path / "out"
        with pytest.raises(KernelError, match="until must be > 0"):
            run_scenario(load_scenario(attack_demo_path), outdir=str(out), until=until)
        assert not out.exists()

    def test_no_attack_archive_equals_truth(self, attack_demo_path, tmp_path):
        scenario = replace(load_scenario(attack_demo_path), attack_plan=None)
        out = run_scenario(scenario, outdir=str(tmp_path / "clean"))
        assert_archive_equals_truth(scenario, out.outdir)
        trace = read_csv(os.path.join(out.outdir, "attack_trace.csv"))
        assert trace == []

    def test_failed_override_fails_stage_s4_not_the_run(self, attack_demo_path, tmp_path):
        scenario_file = edited_copy(
            attack_demo_path, tmp_path / "bad_target", "scenario.txt",
            lambda text: text.replace("targets=all", "targets=999"),
        )
        outdir = tmp_path / "bad_target_out"
        assert cli.main(["run", str(scenario_file), "--out", str(outdir)]) == 0
        trace = read_csv(outdir / "attack_trace.csv")
        assert [(r["stage"], r["outcome"]) for r in trace[-1:]] == [("S4", "failure(UnknownIoa)")]
        assert_archive_equals_truth(load_scenario(scenario_file), outdir)

    def test_rce_on_iec104_port_fails_stage_s2_not_the_run(self, attack_demo_path, tmp_path):
        # the exploit's HTTP request reaches the RTU's IEC 104 port, which
        # hangs up on it and keeps reporting to the MTU
        scenario_file = edited_copy(
            attack_demo_path, tmp_path / "rce_iec104", "scenario.txt",
            lambda text: text.replace("stage = rce http", "stage = rce port:2404"),
        )
        outdir = tmp_path / "rce_iec104_out"
        assert cli.main(["run", str(scenario_file), "--out", str(outdir)]) == 0
        trace = read_csv(outdir / "attack_trace.csv")
        assert [(r["stage"], r["outcome"]) for r in trace] == [
            ("S1", "success"), ("S2", "failure(NotVulnerable)"),
        ]
        transcript = (outdir / "attack_transcript.log").read_text()
        assert "[t=660]   connection closed without a response\n" in transcript
        truth = read_csv(outdir / "ground_truth.csv")
        assert len(read_csv(outdir / "archive.csv")) == len(truth) == 315
        assert_archive_equals_truth(load_scenario(scenario_file), outdir)

    def test_pcap_dump_shows_non_iec104_payload_on_port_2404_as_data(
            self, attack_demo_path, tmp_path, capsys):
        scenario_file = edited_copy(
            attack_demo_path, tmp_path / "rce_iec104", "scenario.txt",
            lambda text: text.replace("stage = rce http", "stage = rce port:2404"),
        )
        outdir = tmp_path / "rce_iec104_out"
        assert cli.main(["run", str(scenario_file), "--out", str(outdir)]) == 0
        capsys.readouterr()
        assert cli.main(["pcap-dump", str(outdir / "capture.pcap")]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("      data: 'GET /cgi-bin/exec?cmd=whoami HTTP/1.1\\r\\n"
                         "Host: 10.0.2.11\\r\\nUser'")
        assert lines[at - 1].endswith(" -> 10.0.2.11:2404 [PSH|ACK] len=79")
        # every record after the exploit's request is still listed and decoded
        assert any(" M_ME_NC_1 " in line for line in lines[at:])
        assert lines[-1] == "446 records"

    def test_ved_power_beyond_16_bits_runs_to_horizon(self, flex_demo_path, tmp_path):
        # pv_kw x80 peaks at 360 kW, beyond the +-327.67 kW of a 16-bit
        # register in units of 10 W
        def scale_pv(text):
            head, *rows = text.splitlines()
            for i, (t, ved, field, value) in enumerate(row.split(",") for row in rows):
                if field == "pv_kw":
                    rows[i] = f"{t},{ved},{field},{float(value) * 80}"
            return "\n".join([head, *rows]) + "\n"

        scenario_file = edited_copy(flex_demo_path, tmp_path / "big_pv", "profiles.csv", scale_pv)
        scenario = load_scenario(scenario_file)
        assert max(scenario.profiles[("home1", "pv_kw")].values) == 360.0
        outdir = tmp_path / "big_pv_out"
        assert cli.main(["run", str(scenario_file), "--out", str(outdir)]) == 0
        for name in (*HASHED_OUTPUTS, "run_report.txt", "manifest.txt"):
            assert (outdir / name).is_file(), name
        decisions = read_csv(outdir / "ems_decisions.csv")
        assert int(decisions[-1]["t"]) == scenario.horizon_s - scenario.step_s

    def test_fdi_stealth_preserves_power_factor(self, attack_demo_path, tmp_path):
        bundle = tmp_path / "stealth"
        shutil.copytree(os.path.dirname(attack_demo_path), bundle)
        scenario_file = bundle / "scenario.txt"
        text = scenario_file.read_text().replace(
            "stage = manipulate scale factor=0.5 targets=all",
            "stage = manipulate fdi_stealth factor=0.8 targets=all",
        )
        scenario_file.write_text(text)
        scenario = load_scenario(scenario_file)
        out = run_scenario(scenario, outdir=str(tmp_path / "stealth_out"))

        truth = {
            (int(r["t"]), r["element"], r["field"]): float(r["value"])
            for r in read_csv(os.path.join(out.outdir, "ground_truth.csv"))
        }
        archive = {}
        for row in read_csv(os.path.join(out.outdir, "archive.csv")):
            archive.setdefault((int(row["t"]), row["rtu"]), {})[int(row["ioa"])] = float(
                row["value"]
            )
        checked = 0
        for (t, rtu), points in archive.items():
            if rtu != "rtu1" or t < 840 or 101 not in points or 102 not in points:
                continue
            wire_ratio = points[102] / points[101]
            true_p = truth[(t, "trafo:tr1", "p_from_kw")]
            true_q = truth[(t, "trafo:tr1", "q_from_kvar")]
            assert wire_ratio == pytest.approx(true_q / true_p, rel=1e-6)
            assert points[101] == pytest.approx(0.8 * true_p, rel=1e-6)
            checked += 1
        assert checked >= 10

    def test_flex_demo_kpis_and_benign_pcap(self, flex_demo_path, tmp_path):
        from gridcosim.pcap import read_pcap

        scenario = load_scenario(flex_demo_path)
        out = run_scenario(scenario, outdir=str(tmp_path / "flex"))
        assert "kpi.home1.import_kwh" in out.report_text
        report = out.kpi_reports["home1"]
        assert report.run.import_kwh < report.baseline.import_kwh
        records = read_pcap(os.path.join(out.outdir, "capture.pcap"))
        iec_ports = {2404}
        for record in records:
            assert record.src_port in iec_ports or record.dst_port in iec_ports
        decisions = read_csv(os.path.join(out.outdir, "ems_decisions.csv"))
        assert len(decisions) == 96  # 24 h at 900 s

    def test_ved_exchange_visible_at_feeder_head(self, flex_demo_path, tmp_path):
        # the smart home's exchange is part of the physical feeder load
        scenario = load_scenario(flex_demo_path)
        out = run_scenario(scenario, outdir=str(tmp_path / "flex2"))
        truth = read_csv(os.path.join(out.outdir, "ground_truth.csv"))
        head_p = {
            int(r["t"]): float(r["value"])
            for r in truth
            if r["element"] == "bus:fb0" and r["field"] == "p_kw"
        }
        decisions = {int(r["t"]): float(r["grid_kw"])
                     for r in read_csv(os.path.join(out.outdir, "ems_decisions.csv"))}
        # feeder head power moves with the household exchange (same sign drift)
        ts = sorted(set(head_p) & set(decisions))
        assert len(ts) == 96
        # at a time with pv surplus, household exports and head power dips
        noon = 43200
        assert decisions[noon] <= 0.0


@pytest.fixture
def solves(monkeypatch):
    """A list that grows by one entry per power-flow solve, counted at the
    name the grid simulator calls."""
    calls = []
    solve = scenario_mod.run_power_flow

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scenario_mod, "run_power_flow", counted)
    return calls


def bits(outputs):
    """The outputs with each value as its exact bits (-0.0 differs from 0.0)."""
    return {key: float(value).hex() for key, value in outputs.items()}


class TestGridMemo:
    """The grid re-solves only a step whose inputs differ, bit for bit, from
    the last step it solved; any other step returns that step's outputs."""

    MONITORED = [("bus", "lv4", "v_pu"), ("sgen", "pv1", "p_kw"), ("trafo", "tr1", "p_from_kw")]

    def grid_sim(self, attack_demo_path, controllable):
        scenario = load_scenario(attack_demo_path)
        return GridSimulator(scenario.grid_model, None, self.MONITORED, controllable, {})

    def test_attack_demo_solves_once_per_profile_change(self, attack_demo_path, tmp_path,
                                                         solves):
        # profiles change every 900 s and the kernel steps every 60 s
        out = run_scenario(load_scenario(attack_demo_path), outdir=str(tmp_path / "out"))
        assert len({r["t"] for r in read_csv(os.path.join(out.outdir, "ground_truth.csv"))}) == 60
        assert len(solves) == 4

    def test_line_that_opens_and_closes_resolves_each_time(self, attack_demo_path, solves):
        sim = self.grid_sim(attack_demo_path, [("line", "lline3", "status")])
        status = ("line:lline3", "status")
        before = bits(sim.step(0, {}))
        opened = bits(sim.step(60, {status: 0.0}))
        closed = bits(sim.step(120, {status: 1.0}))
        still_closed = bits(sim.step(180, {}))
        assert len(solves) == 3
        assert opened != before
        assert closed == before == still_closed

    def test_negative_zero_override_is_a_miss(self, attack_demo_path, solves):
        setpoint = ("sgen:pv1", "p_kw")
        sim = self.grid_sim(attack_demo_path, [("sgen", "pv1", "p_kw")])
        sim.step(0, {setpoint: 0.0})
        outputs = sim.step(60, {setpoint: -0.0})
        assert len(solves) == 2
        assert bits(outputs)[setpoint] == (-0.0).hex()
        fresh = self.grid_sim(attack_demo_path, [("sgen", "pv1", "p_kw")])
        assert bits(outputs) == bits(fresh.step(60, {setpoint: -0.0}))


BROKEN_GRID = """
[grid]
base_mva = 1.0
[bus]
a  nominal_kv=20.0 type=slack
b  nominal_kv=20.0 type=pq
[line]
l1  from=a to=b r_ohm=4.0 x_ohm=120.0 max_i_ka=0.4
[load]
ld  bus=b p_kw=900000.0 q_kvar=400000.0
"""

BROKEN_TOPOLOGY = """
[host mtu]
interface = 10.0.1.10 10.0.1.0/24
[host field1]
interface = 10.0.2.11 10.0.2.0/24
service = iec104 2404
[switch sw]
[link]
l1 a=mtu b=sw latency_ms=1
l2 a=field1 b=sw latency_ms=1
"""

BROKEN_SCENARIO = """
[scenario]
name = diverges
horizon_s = 300
step_s = 60
grid_file = grid.txt
topology_file = topology.txt

[mtu]
host = mtu

[rtu r1]
host = field1
common_address = 1
report_period_s = 60
datapoint = 101 monitor bus:b:v_pu
"""


@pytest.fixture
def broken_bundle(tmp_path):
    (tmp_path / "grid.txt").write_text(BROKEN_GRID)
    (tmp_path / "topology.txt").write_text(BROKEN_TOPOLOGY)
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(BROKEN_SCENARIO)
    return scenario_file


class TestFaultHandling:
    def test_simulator_fault_preserves_partial_outputs(self, broken_bundle, tmp_path):
        scenario = load_scenario(broken_bundle)
        outdir = tmp_path / "fault_out"
        with pytest.raises(SimulatorFault) as err:
            run_scenario(scenario, outdir=str(outdir))
        assert err.value.sim_id == "grid"
        assert (outdir / "capture.pcap").exists()
        assert (outdir / "run_report.txt").exists()
        assert "fault:" in (outdir / "run_report.txt").read_text()

    def test_cli_exit_code_2_on_fault(self, broken_bundle, tmp_path, capsys):
        assert cli.main(
            ["run", str(broken_bundle), "--out", str(tmp_path / "cli_fault")]
        ) == 2
        assert "runtime fault" in capsys.readouterr().err

    def test_value_beyond_float32_faults_the_rtu_step(self, attack_demo_path, tmp_path,
                                                      capsys):
        scenario_file = edited_copy(
            attack_demo_path, tmp_path / "big_scale", "scenario.txt",
            lambda text: text.replace("103 monitor bus:lv1:v_pu scale=1.0",
                                      "103 monitor bus:lv1:v_pu scale=1e39"),
        )
        outdir = tmp_path / "big_scale_out"
        assert cli.main(["run", str(scenario_file), "--out", str(outdir)]) == 2
        assert ("simulator 'rtu_rtu1' failed at t=0: "
                "OverflowError('float too large to pack with f format')"
                in capsys.readouterr().err)
        # the RTU's step fails before any point is reported: the partial
        # artifacts hold the connection set-up and the CSV headers only
        listed = dict(reversed(line.split("  ")) for line in
                      (outdir / "manifest.txt").read_text().splitlines())
        assert listed == {
            "archive.csv": "de29ffdb91e26e54530765c842308777b7238e5e76c2de9183d1311fd8acf312",
            "attack_trace.csv":
                "cae3037c828165ee042e775c8b5edd1cad3b9d93053b2056d1644202ec2f8b88",
            "attack_transcript.log":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "capture.pcap": "acc530668c8bc60b2d229281130b1899bfc81d70fdada5c34b3236c628f739c8",
            "commands.csv": "423c1bf4e8f0bb08bf2040c7e70541d89e9162959a11f34c316db6d6f99a2a3b",
            "ems_decisions.csv":
                "bfb71dbbef8804dfd7be73d96e25a47aafc43f9b4cc6847d04c33b67e792edaf",
            "ground_truth.csv":
                "7dbfebfcde67c777ecfc571d67d92e959575453cde3d3e119b450460156785ae",
            "run_report.txt": "-",
        }


SWITCHED_GRID = """
[grid]
base_mva = 1.0
[bus]
b0  nominal_kv=20.0 type=slack
b1  nominal_kv=20.0 type=pq
b2  nominal_kv=20.0 type=pq
[line]
swline  from=b0 to=b1 r_ohm=0.5 x_ohm=0.8 max_i_ka=0.4
tail    from=b1 to=b2 r_ohm=0.5 x_ohm=0.8 max_i_ka=0.4
[load]
ld  bus=b2 p_kw=100.0 q_kvar=30.0
"""

SWITCHED_SCENARIO = """
[scenario]
name = switched
horizon_s = 360
step_s = 60
grid_file = grid.txt
topology_file = topology.txt

[mtu]
host = mtu

[rtu r1]
host = field1
common_address = 1
report_period_s = 60
datapoint = 101 monitor bus:b2:v_pu
datapoint = 201 control line:swline:status
"""


def test_switch_command_reaches_the_grid_one_step_after_the_rtu_emits_it(
        tmp_path, monkeypatch):
    # The MTU opens swline at its t=120 step, which runs after the RTU's:
    # the RTU actuates at once and emits the switch state at its next step,
    # and the grid, which steps before the RTUs, solves with it one step
    # later, so b2 goes dark in the ground truth then and not before
    (tmp_path / "grid.txt").write_text(SWITCHED_GRID)
    (tmp_path / "topology.txt").write_text(BROKEN_TOPOLOGY)
    (tmp_path / "scenario.txt").write_text(SWITCHED_SCENARIO)
    scenario = load_scenario(tmp_path / "scenario.txt")
    control_map = scenario.rtus[0].datapoints
    switch = ("line:swline", "status")

    mtu_step = devices.Mtu.step

    def commanding_step(self, t, inputs):
        outputs = mtu_step(self, t, inputs)
        if t == 120:
            assert self.command("r1", 201, 0.0, t, control_map=control_map)
        return outputs

    rtu_step, emitted = devices.Rtu.step, {}

    def recording_rtu_step(self, t, inputs):
        outputs = rtu_step(self, t, inputs)
        if outputs:
            emitted[t] = dict(outputs)
        return outputs

    grid_step, read = GridSimulator.step, {}

    def recording_grid_step(self, t, inputs):
        read[t] = inputs.get(switch)
        return grid_step(self, t, inputs)

    monkeypatch.setattr(devices.Mtu, "step", commanding_step)
    monkeypatch.setattr(devices.Rtu, "step", recording_rtu_step)
    monkeypatch.setattr(GridSimulator, "step", recording_grid_step)
    outdir = tmp_path / "out"
    run_scenario(scenario, outdir=str(outdir))

    assert emitted == {180: {switch: 0.0}}
    # nothing is read at t=0 or before the RTU emits; then the last value stays
    assert read == {0: None, 60: None, 120: None, 180: None, 240: 0.0, 300: 0.0}
    voltage = {int(r["t"]): float(r["value"]) for r in read_csv(outdir / "ground_truth.csv")}
    assert sorted(voltage) == [0, 60, 120, 180, 240, 300]
    assert all(voltage[t] > 0.9 for t in (0, 60, 120, 180))
    assert voltage[240] == voltage[300] == 0.0
    assert [(r["t"], r["confirmed"]) for r in read_csv(outdir / "commands.csv")] == [
        ("120", "True")]


def test_truth_rows_of_one_field_keep_rtu_order(attack_demo_path, tmp_path):
    # rtu2 monitors rtu1's bus:lv1:v_pu at a thousandth of its scale: at each
    # time its rows follow rtu1's, though their values are smaller
    scenario_file = edited_copy(
        attack_demo_path, tmp_path / "shared_field", "scenario.txt",
        lambda text: text.replace(
            "datapoint = 201 control",
            "datapoint = 104 monitor bus:lv1:v_pu scale=0.001\ndatapoint = 201 control"),
    )
    outdir = tmp_path / "shared_field_out"
    run_scenario(load_scenario(scenario_file), outdir=str(outdir))
    by_time = {}
    for r in read_csv(outdir / "ground_truth.csv"):
        if (r["element"], r["field"]) == ("bus:lv1", "v_pu"):
            by_time.setdefault(int(r["t"]), []).append(float(r["value"]))
    assert sorted(by_time) == list(range(0, 3600, 60))
    for t, values in by_time.items():
        polls = 2 if t and t % 900 == 0 else 1  # a general interrogation repeats each point
        assert len(values) == 2 * polls
        assert all(v > 0.5 for v in values[:polls]), t
        assert all(v < 0.002 for v in values[polls:]), t


@pytest.mark.parametrize(
    "bundle, faults",
    [("attack_demo_path", False), ("flex_demo_path", False),
     ("scada_burst_path", False), ("broken_bundle", True)],
)
def test_finished_run_leaves_no_reference_cycles(request, tmp_path, bundle, faults):
    """A run's object graph is freed by reference counting as soon as the
    run returns or raises, so back-to-back runs keep memory bounded without
    waiting for the cyclic collector."""
    scenario_file = request.getfixturevalue(bundle)
    gc.collect()
    gc.disable()
    try:
        try:
            run_scenario(load_scenario(scenario_file), outdir=str(tmp_path / "out"))
        except SimulatorFault:
            assert faults
        else:
            assert not faults
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestCli:
    def test_validate_ok(self, attack_demo_path, capsys):
        assert cli.main(["validate", attack_demo_path]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("[scenario]\nname = x\n")
        assert cli.main(["validate", str(bad)]) == 1

    def test_run_and_dump(self, attack_demo_path, tmp_path, capsys):
        outdir = str(tmp_path / "cli_out")
        assert cli.main(["run", attack_demo_path, "--out", outdir, "--until", "600"]) == 0
        captured = capsys.readouterr()
        assert "scenario: attack_demo" in captured.out
        assert cli.main(["pcap-dump", os.path.join(outdir, "capture.pcap")]) == 0
        dump = capsys.readouterr().out
        assert "STARTDT_act" in dump
        assert "M_ME_NC_1" in dump

    def test_run_missing_scenario(self, capsys):
        assert cli.main(["run", "/nonexistent/scenario.txt"]) == 1
