"""Seeded input generators for the benchmark workloads.

Every generator empties its directory, writes scenario, grid, topology and
profile files into it and returns one `Variant` per scenario. The program
sees only these files; the same seed always produces byte-identical inputs.

Each workload keeps the shape that makes one layer dominate (bus count,
points per RTU, step and report periods) but runs only a few steps, so that
one `run_scenario` call takes under a second on a shared 2-core machine and
a timed run collects dozens of samples.
"""

from __future__ import annotations

import math
import os
import random
import shutil
from dataclasses import dataclass

MONITOR_LINE_FIELDS = (
    "p_kw", "q_kvar", "p_from_kw", "q_from_kvar", "v_pu", "i_ka", "loading_percent",
)

# feeder_grid: a binary-tree MV feeder where power flow does almost all work.
FEEDER_BUSES = 127            # full binary tree of depth 7
FEEDER_STEP_S = 900           # 15-min load profiles and steps
FEEDER_HORIZON_S = 4500       # five steps, so the hourly MTU poll fires once
FEEDER_POLL_S = 3600
FEEDER_RTU_POINTS = 6

# scada_fleet: ~1000 monitored line fields, so IEC 104, netsim and PCAP work.
FLEET_BUSES = 40
FLEET_RTUS = 7
FLEET_POINTS_PER_RTU = 150    # above the 100-entry RTU report buffer
FLEET_STEP_S = 60
FLEET_POLL_S = 300            # general interrogation every fifth step
FLEET_HORIZON_S = 360         # six steps, one interrogation

# bundled_sweep: many short runs of the shipped scenarios' variants.
# Each seed deals out these MTU poll periods to its variants in a seeded
# order, so every seed's set writes the same number of frames and rows.
SWEEP_ATTACK_POLLS_S = (300, 600, 900, 900, 1200)
SWEEP_FLEX_POLLS_S = (0, 3600, 7200)


@dataclass(frozen=True)
class Variant:
    name: str
    scenario_path: str
    outdir: str


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _radial_feeder(rng: random.Random, n_buses: int) -> tuple[str, list[str], dict[str, float]]:
    """20 kV binary-tree feeder: bus b<i> hangs off b<(i-1)//2> via line l<i>,
    with one load per non-slack bus. Returns (grid text, line ids, load p_kw
    by load id).

    Impedances and loads vary with the seed only within narrow bands, so
    that every seed's power flows take the same number of Newton iterations
    and a seed changes the inputs but not the amount of work.
    """
    lines_out = ["[grid]", "base_mva = 1.0", "", "[bus]", "b0  nominal_kv=20.0  type=slack"]
    lines_out += [f"b{i}  nominal_kv=20.0  type=pq" for i in range(1, n_buses)]
    lines_out += ["", "[line]"]
    line_ids = []
    for i in range(1, n_buses):
        r = rng.uniform(0.08, 0.15)
        x = rng.uniform(0.06, 0.12)
        lines_out.append(
            f"l{i}  from=b{(i - 1) // 2} to=b{i} r_ohm={r:.4f} x_ohm={x:.4f} max_i_ka=0.40"
        )
        line_ids.append(f"l{i}")
    lines_out += ["", "[load]"]
    loads = {}
    for i in range(1, n_buses):
        p = rng.uniform(15.0, 30.0)
        lines_out.append(f"d{i}  bus=b{i} p_kw={p:.3f} q_kvar={0.25 * p:.3f}")
        loads[f"d{i}"] = p
    return "\n".join(lines_out) + "\n", line_ids, loads


def _load_profiles(rng: random.Random, loads: dict[str, float], horizon_s: int) -> str:
    """15-min p_kw samples per load: its base value on a daily shape, with
    seeded noise of +-5 %."""
    rows = ["t_seconds,element_id,field,value"]
    for load_id, base in loads.items():
        for t in range(0, horizon_s + 1, 900):
            shape = 0.8 + 0.2 * math.sin(2.0 * math.pi * t / 86400.0)
            rows.append(f"{t},{load_id},p_kw,{base * shape * rng.uniform(0.95, 1.05):.3f}")
    return "\n".join(rows) + "\n"


def _scada_topology(n_rtus: int) -> str:
    """Control-centre MTU behind one switch, RTUs behind a field switch."""
    out = ["[host mtu]", "interface = 10.0.1.10 10.0.1.0/24", "account = operator admin", ""]
    for k in range(1, n_rtus + 1):
        out += [
            f"[host rtu{k}]",
            f"interface = 10.0.2.{10 + k} 10.0.2.0/24",
            "service = iec104 2404",
            "account = root admin",
            "",
        ]
    out += ["[switch sw_ctrl]", "[switch sw_field]", "", "[link]"]
    out.append("lk0  a=mtu b=sw_ctrl latency_ms=1")
    out.append("lk1  a=sw_ctrl b=sw_field latency_ms=2")
    out += [f"lr{k}  a=rtu{k} b=sw_field latency_ms=1" for k in range(1, n_rtus + 1)]
    return "\n".join(out) + "\n"


def _scenario_text(name: str, horizon_s: int, step_s: int, poll_s: int,
                   rtus: list[list[str]]) -> str:
    out = [
        "[scenario]",
        f"name = {name}",
        f"horizon_s = {horizon_s}",
        f"step_s = {step_s}",
        "grid_file = grid.txt",
        "topology_file = topology.txt",
        "profiles_file = profiles.csv",
        "",
        "[mtu]",
        "host = mtu",
        f"poll_period_s = {poll_s}",
    ]
    for k, points in enumerate(rtus, start=1):
        out += [
            "",
            f"[rtu rtu{k}]",
            f"host = rtu{k}",
            f"common_address = {k}",
            f"report_period_s = {step_s}",
        ]
        out += [f"datapoint = {1000 + i} monitor {ref}" for i, ref in enumerate(points)]
    return "\n".join(out) + "\n"


def _write_scada_scenario(directory: str, rng: random.Random, name: str, n_buses: int,
                          horizon_s: int, step_s: int, poll_s: int,
                          rtu_points) -> Variant:
    grid_text, line_ids, loads = _radial_feeder(rng, n_buses)
    rtus = rtu_points(rng, line_ids)
    _write(os.path.join(directory, "grid.txt"), grid_text)
    _write(os.path.join(directory, "profiles.csv"), _load_profiles(rng, loads, horizon_s))
    _write(os.path.join(directory, "topology.txt"), _scada_topology(len(rtus)))
    path = os.path.join(directory, "scenario.txt")
    _write(path, _scenario_text(name, horizon_s, step_s, poll_s, rtus))
    return Variant(name=name, scenario_path=path, outdir=os.path.join(directory, "out"))


def feeder_grid(seed: int, directory: str) -> list[Variant]:
    """One RTU with a handful of points on a 127-bus feeder: power flow dominates."""

    def points(rng, line_ids):
        refs = ["bus:b0:p_kw", "bus:b0:q_kvar"]
        for line_id in rng.sample(line_ids, FEEDER_RTU_POINTS - len(refs)):
            refs.append(f"line:{line_id}:{rng.choice(MONITOR_LINE_FIELDS)}")
        return [refs]

    rng = random.Random(f"feeder_grid/{seed}")
    _fresh_dir(directory)
    return [_write_scada_scenario(directory, rng, "feeder_grid", FEEDER_BUSES,
                                  FEEDER_HORIZON_S, FEEDER_STEP_S, FEEDER_POLL_S, points)]


def scada_fleet(seed: int, directory: str) -> list[Variant]:
    """~1000 line fields over 7 RTUs on a 40-bus feeder: the SCADA path dominates."""

    def points(rng, line_ids):
        pool = [f"line:{line_id}:{field}" for line_id in line_ids for field in MONITOR_LINE_FIELDS]
        return [rng.sample(pool, FLEET_POINTS_PER_RTU) for _ in range(FLEET_RTUS)]

    rng = random.Random(f"scada_fleet/{seed}")
    _fresh_dir(directory)
    return [_write_scada_scenario(directory, rng, "scada_fleet", FLEET_BUSES,
                                  FLEET_HORIZON_S, FLEET_STEP_S, FLEET_POLL_S, points)]


def _attack_variant(rng: random.Random, poll: int, attack: bool) -> str:
    out = [
        "[scenario]",
        "name = attack_variant",
        "horizon_s = 3600",
        "step_s = 60",
        "grid_file = grid.txt",
        "topology_file = topology.txt",
        "profiles_file = profiles.csv",
        "",
        "[mtu]",
        "host = mtu",
        f"poll_period_s = {poll}",
        "",
        "[rtu rtu1]",
        "host = rtu1",
        "common_address = 1",
        "report_period_s = 60",
        "datapoint = 101 monitor trafo:tr1:p_from_kw scale=1.0 unit=kW",
        "datapoint = 102 monitor trafo:tr1:q_from_kvar scale=1.0 unit=kvar",
        "datapoint = 103 monitor bus:lv1:v_pu scale=1.0 unit=pu",
        "",
        "[rtu rtu2]",
        "host = rtu2",
        "common_address = 2",
        "report_period_s = 60",
        "datapoint = 101 monitor sgen:pv1:p_kw scale=1.0 unit=kW",
        "datapoint = 102 monitor bus:lv4:v_pu scale=1.0 unit=pu",
        "datapoint = 201 control sgen:pv1:p_kw scale=1.0 unit=kW",
        "datapoint = 202 control line:lline3:status",
    ]
    if attack:
        kind = rng.choice(("scale", "offset", "freeze", "fdi_stealth"))
        if kind == "offset":
            params = f" delta={rng.uniform(-50.0, 50.0):.2f}"
        elif kind == "freeze":
            params = ""
        else:
            params = f" factor={rng.uniform(0.3, 0.9):.3f}"
        targets = rng.choice(("all", "101", "101,102", "102,103", "101,103"))
        out += [
            "",
            "[attack]",
            "foothold = kali",
            f"start_time_s = {60 * rng.randrange(0, 31)}",
            "stage = scan 10.0.2.0/24",
            "stage = rce http",
            "stage = pe suid",
            f"stage = manipulate {kind}{params} targets={targets}",
        ]
    return "\n".join(out) + "\n"


def _flex_variant(rng: random.Random, poll: int) -> str:
    soc = rng.uniform(0.0, 10.0)
    limit = rng.uniform(3.0, 8.0)
    return "\n".join([
        "[scenario]",
        "name = flex_variant",
        "horizon_s = 86400",
        "step_s = 900",
        "grid_file = grid.txt",
        "topology_file = topology.txt",
        "profiles_file = profiles.csv",
        "",
        "[mtu]",
        "host = mtu",
        f"poll_period_s = {poll}",
        "",
        "[rtu rtu_feeder]",
        "host = rtu_feeder",
        "common_address = 1",
        "report_period_s = 900",
        "datapoint = 101 monitor bus:fb0:p_kw scale=1.0 unit=kW",
        "datapoint = 102 monitor bus:fb0:v_pu scale=1.0 unit=pu",
        "",
        "[ved home1]",
        "host = home1",
        "bus = fb2",
        "battery = capacity_kwh=10 p_max_kw=5 eta_charge=0.95 eta_discharge=0.95 "
        f"soc_kwh={soc:.3f}",
        "",
        "[ems home1]",
        f"dso = import={limit:.3f} export={limit:.3f}",
    ]) + "\n"


def bundled_sweep(seed: int, directory: str, scenarios_dir: str) -> list[Variant]:
    """Seeded variants of the shipped attack_demo and flex_demo, run back to back.

    The grid, topology and profile files are copied from the shipped
    scenarios; each scenario file is generated. The mix is fixed (five
    attack_demo variants, the last without attack, then three flex_demo
    variants) and the seed varies only what leaves the amount of work alone:
    which variant gets which poll period, attack start, manipulation kind,
    factor and targets, battery state of charge and DSO limit.
    """
    rng = random.Random(f"bundled_sweep/{seed}")
    _fresh_dir(directory)
    attack_polls = rng.sample(SWEEP_ATTACK_POLLS_S, len(SWEEP_ATTACK_POLLS_S))
    flex_polls = rng.sample(SWEEP_FLEX_POLLS_S, len(SWEEP_FLEX_POLLS_S))
    texts = [("attack_demo", _attack_variant(rng, poll, attack=k < len(attack_polls) - 1))
             for k, poll in enumerate(attack_polls)]
    texts += [("flex_demo", _flex_variant(rng, poll)) for poll in flex_polls]
    variants = []
    for k, (base, text) in enumerate(texts):
        name = f"v{k}_{base}"
        vdir = os.path.join(directory, name)
        os.makedirs(vdir)
        for filename in ("grid.txt", "topology.txt", "profiles.csv"):
            shutil.copyfile(os.path.join(scenarios_dir, base, filename),
                            os.path.join(vdir, filename))
        path = os.path.join(vdir, "scenario.txt")
        _write(path, text)
        variants.append(Variant(name=name, scenario_path=path, outdir=os.path.join(vdir, "out")))
    return variants
