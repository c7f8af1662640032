"""Scenario loading and end-to-end runs: one declarative file wires the grid,
the emulated network, field devices, the attacker and EMS units into the
kernel in step order, and every run flushes a reproducible artifact set
(PCAP, CSVs, transcript, report, manifest).

Scenario file schema (see configfile for the line and `k=v` option grammar:
options in [brackets] follow the leading values, any other token is an
error, and a key that is not marked repeatable may be given once; a
section, key or option not listed here is an error at its line, and so is
the removed `seed`):

  [scenario]
  name = <token>                  # optional
  horizon_s = <int>               # a positive multiple of step_s
  step_s = <int>
  grid_file = <path>
  topology_file = <path>
  profiles_file = <path>          # optional
  outdir = <path>                 # optional; default out

  [mtu]
  host = <topology host>
  poll_period_s = <int>           # optional; 0 (default) = spontaneous reporting only,
                                  # else a positive multiple of step_s

  [rtu <name>]
  host = <topology host>
  common_address = <int>          # 0..65535
  report_period_s = <int>         # a positive multiple of step_s
  datapoint = <ioa> <monitor|control> <kind>:<element>:<field> [scale=<f>] [unit=<text>]
                                  # repeatable; fields per kind: grid.powerflow.MONITOR_FIELDS /
                                  # devices.CONTROL_FIELDS; an element field has one controller

  [ved <name>]
  host = <topology host>
  bus = <grid bus>
  battery = capacity_kwh=<f> p_max_kw=<f> [eta_charge=<f>] [eta_discharge=<f>] [soc_kwh=<f>]

  [ems <ved-name>]
  dso = import=<kW> export=<kW> [from=<s>] [to=<s>]      # repeatable; to > from
  vpp = target=<kW> [from=<s>] [to=<s>]                  # repeatable; to > from

  [attack]
  foothold = <topology host>
  start_time_s = <int>            # optional
  stage = scan <subnet>            # repeatable, in this order
  stage = rce <selector>
  stage = pe <suid|sudoers>       # attacker.PE_METHODS
  stage = manipulate <kind> [factor=<f>] [delta=<f>] [targets=all|<ioa,..>]
                                  # scale and fdi_stealth take factor, offset takes
                                  # delta, freeze neither (devices.MANIPULATION_KINDS);
                                  # targets are monitor IOAs, default all
"""

from __future__ import annotations

import hashlib
import ipaddress
import os
import struct
from collections import namedtuple
from dataclasses import dataclass, field, replace
from itertools import chain, islice

from . import attacker as attacker_mod
from . import devices, ems, iec104, netsim
from .configfile import (
    ConfigError,
    Entry,
    Section,
    check_kinds,
    parse_config,
    sections_of,
    single_section,
)
from .grid.model import GridModel, load_grid
from .grid.powerflow import measurements_at, run_power_flow
from .grid.profiles import ProfileSet, bus_injections, element_values_at, load_profiles
from .kernel import Kernel, SimulatorDescriptor, SimulatorFault

GROUND_TRUTH_CSV = "ground_truth.csv"
ARCHIVE_CSV = "archive.csv"
COMMANDS_CSV = "commands.csv"
ATTACK_TRACE_CSV = "attack_trace.csv"
ATTACK_TRANSCRIPT = "attack_transcript.log"
EMS_DECISIONS_CSV = "ems_decisions.csv"
PCAP_FILE = "capture.pcap"
RUN_REPORT = "run_report.txt"
MANIFEST = "manifest.txt"

# the keys each section kind may hold; any other section or key is an error
SECTION_KEYS = {
    "scenario": ("name", "horizon_s", "step_s", "grid_file", "topology_file",
                 "profiles_file", "outdir"),
    "mtu": ("host", "poll_period_s"),
    "rtu": ("host", "common_address", "report_period_s", "datapoint"),
    "ved": ("host", "bus", "battery"),
    "ems": ("dso", "vpp"),
    "attack": ("foothold", "start_time_s", "stage"),
}
DATAPOINT_OPTIONS = frozenset(("scale", "unit"))
BATTERY_OPTIONS = frozenset(
    ("capacity_kwh", "p_max_kw", "eta_charge", "eta_discharge", "soc_kwh")
)

WRITE_BATCH = 1024  # lines per write to a text artifact
FLOAT_TEXTS_LIMIT = 4096  # distinct values whose text one flush keeps


class _FloatTexts(dict):
    """value -> repr(float(value)), the text of a float column: exact, and
    plain for a numpy scalar too. A run's CSV values repeat, and repr costs
    far more than a dict lookup, so each text is made once and kept, up to
    FLOAT_TEXTS_LIMIT of them, until _write_artifacts clears the table; the
    text of a value does not depend on the run, so a kept one is never
    stale. Zero is never kept: -0.0 == 0.0, so one key would serve both
    signs. A NaN is kept under its own object, which no other NaN equals."""

    def __missing__(self, value) -> str:
        text = repr(float(value))
        if value and len(self) < FLOAT_TEXTS_LIMIT:
            self[value] = text
        return text


_float_text = _FloatTexts()

# One entry per file a run writes but the manifest, in writing order: a CSV's
# header line ("" for plain text), the format of one row as a line (None for
# the capture, which netsim.write_pcap writes), and whether the manifest
# hashes the file. A float column is written by _float_text; run_report.txt
# carries wall-clock timing, so the manifest lists it but never hashes it.
Artifact = namedtuple("Artifact", "header line hashed", defaults=(True,))
ARTIFACTS = {
    PCAP_FILE: Artifact("", None),
    GROUND_TRUTH_CSV: Artifact(
        "t,element,field,value\n",
        lambda r: f"{r[0]},{r[1]},{r[2]},{_float_text[r[3]]}\n",
    ),
    ARCHIVE_CSV: Artifact(
        "t,rtu,ioa,value,quality\n",
        lambda r: f"{r.t},{r.rtu},{r.ioa},{_float_text[r.value]},{r.quality}\n",
    ),
    COMMANDS_CSV: Artifact(
        "t,rtu,ioa,value,confirmed\n",
        lambda r: f"{r.t},{r.rtu},{r.ioa},{_float_text[r.value]},{r.confirmed}\n",
    ),
    ATTACK_TRACE_CSV: Artifact(
        "t,stage,action,target,outcome\n",
        lambda e: f"{e.t},{e.stage},{e.action},{e.target},{e.outcome}\n",
    ),
    ATTACK_TRANSCRIPT: Artifact("", "{}\n".format),
    EMS_DECISIONS_CSV: Artifact(  # (ved, decision) pairs
        "t,ved,battery_kw,grid_kw,mode,binding\n",
        lambda r: f"{r[1].t},{r[0]},{_float_text[r[1].battery_setpoint_kw]},"
                  f"{_float_text[r[1].grid_exchange_kw]},{r[1].active_mode},"
                  f"{r[1].binding_constraint}\n",
    ),
    RUN_REPORT: Artifact("", "{}\n".format, hashed=False),
}


@dataclass
class MtuConfig:
    host: str
    poll_period: int = 0


@dataclass
class VedConfig:
    name: str
    host: str
    bus: str
    battery: ems.Battery | None = None


@dataclass
class EmsConfig:
    ved: str
    dso_limits: tuple[ems.DsoLimit, ...] = ()
    vpp_schedules: tuple[ems.VppSchedule, ...] = ()


@dataclass
class Scenario:
    name: str
    horizon_s: int
    step_s: int
    topology_file: str
    mtu: MtuConfig | None
    rtus: list[devices.RtuConfig]
    veds: list[VedConfig]
    ems_configs: dict[str, EmsConfig]
    attack_plan: attacker_mod.AttackPlan | None
    outdir: str
    grid_model: GridModel = field(repr=False)
    profiles: ProfileSet | None = field(repr=False)


def _named_sections(sections: list[Section], kind: str) -> list[Section]:
    """The `[kind <name>]` sections; each needs a name of its own."""
    found = sections_of(sections, kind)
    for i, section in enumerate(found):
        if not section.name:
            raise section.error(f"[{kind}] section needs a name")
        if any(other.name == section.name for other in found[:i]):
            raise section.error(f"second [{kind} {section.name}] section")
    return found


def _known(section: Section, key: str, names, where: str) -> Entry:
    """The required entry `key`, whose value must be one of `names`."""
    entry = section.entry(key, required=True)
    if entry.value not in names:
        raise entry.error(f"{key} '{entry.value}' is not in the {where}")
    return entry


def _parse_datapoint(entry: Entry) -> devices.DataPoint:
    (ioa, direction, ref), opts = entry.split(
        3, "datapoint = <ioa> <monitor|control> <kind>:<element>:<field> ...",
        DATAPOINT_OPTIONS,
    )
    parts = ref.split(":")
    if len(parts) != 3:
        raise entry.error(f"bad element reference '{ref}'")
    ioa = entry.convert(ioa, "ioa", int)
    if not 0 <= ioa <= iec104.IOA_MAX:
        raise entry.error(f"IOA {ioa} outside 0..{iec104.IOA_MAX}")
    return devices.DataPoint(
        ioa=ioa,
        direction=direction,
        element_kind=parts[0],
        element_id=parts[1],
        fieldname=parts[2],
        scale=opts.get_float("scale", 1.0),
        unit=opts.get("unit", ""),
    )


def _parse_stage(entry: Entry) -> attacker_mod.Stage:
    """A stage keeps its argument as written: a manipulation's options reach
    the RTU as text, checked here by the RTU's own parser. A scan subnet
    must parse as `Network.scan_subnet` parses it, host bits clear."""
    (kind, target), opts = entry.split(2, "stage = <scan|rce|pe|manipulate> <argument> ...")
    if kind not in attacker_mod.STAGE_KINDS:
        raise entry.error(f"unknown stage kind '{kind}'")
    arg = entry.value.split(maxsplit=1)[1]
    if kind == "manipulate":
        devices.parse_manipulation(replace(entry, value=arg))
    elif opts.attrs:
        raise entry.error(f"stage {kind} takes no options")
    elif kind == "scan":
        try:
            ipaddress.ip_network(target)
        except ValueError as exc:
            raise entry.error(f"stage scan: {exc}") from None
    elif kind == "pe" and target not in attacker_mod.PE_METHODS:
        raise entry.error(f"unknown pe method '{target}'")
    return attacker_mod.Stage(kind, arg)


def _parse_window(entry: Entry, keys: tuple[str, ...]) -> tuple:
    """The required `keys` as floats, then the from/to window, which must
    hold at least one second."""
    _, opts = entry.split(options={*keys, "from", "to"})
    values = [opts.get_float(key) for key in keys]
    start, end = opts.get_int("from", 0), opts.get_int("to", None)
    if end is not None and end <= start:
        raise entry.error(f"window to={end} is not after from={start}")
    return (*values, start, end)


def load_scenario(path) -> Scenario:
    source = str(path)
    base_dir = os.path.dirname(os.path.abspath(source))
    with open(path, "r", encoding="utf-8") as fh:
        sections = parse_config(fh.read(), source)
    check_kinds(sections, SECTION_KEYS)
    for section in sections:
        if section.kind == "scenario":
            for entry in section.get_all("seed"):
                raise entry.error("'seed' was removed: runs take no seed, delete this line")
        section.only(*SECTION_KEYS[section.kind])

    head = single_section(sections, "scenario")
    if head is None:
        raise ConfigError("missing [scenario] section", source)

    def resolve(key: str, required: bool = True) -> str | None:
        entry = head.entry(key, required)
        if entry is None:
            return None
        file_path = os.path.join(base_dir, entry.value)
        if not os.path.isfile(file_path):
            raise entry.error(f"{key}: file not found: {file_path}")
        return file_path

    name = head.get("name", "scenario")
    horizon_s = head.get_int("horizon_s")
    step_s = head.get_int("step_s")
    outdir = head.get("outdir", "out")
    if horizon_s <= 0 or step_s <= 0 or horizon_s % step_s:
        raise head.error("horizon_s must be a positive multiple of step_s")

    grid_model = load_grid(resolve("grid_file"))
    topology_file = resolve("topology_file")
    network = netsim.load_topology(topology_file)
    profiles_file = resolve("profiles_file", required=False)
    profiles = load_profiles(profiles_file) if profiles_file else None

    mtu_section = single_section(sections, "mtu")
    mtu_config = None
    if mtu_section is not None:
        poll_period = mtu_section.get_int("poll_period_s", 0)
        if poll_period < 0 or poll_period % step_s:
            raise mtu_section.entry("poll_period_s").error(
                "poll_period_s must be 0 or a positive multiple of step_s"
            )
        mtu_config = MtuConfig(
            host=_known(mtu_section, "host", network.hosts, "topology").value,
            poll_period=poll_period,
        )

    rtus: list[devices.RtuConfig] = []
    controllers: dict[tuple[str, str], tuple[str, int]] = {}  # (entity, field) -> rtu, line
    for section in _named_sections(sections, "rtu"):
        host = _known(section, "host", network.hosts, "topology")
        if network.hosts[host.value].service_on(devices.IEC104_PORT) is None:
            raise host.error(f"rtu '{section.name}' host lacks an iec104 service")
        report_period = section.get_int("report_period_s")
        if report_period <= 0 or report_period % step_s:
            raise section.entry("report_period_s").error(
                f"rtu '{section.name}': report_period_s must be a positive multiple of step_s"
            )
        datapoints = devices.DataPointMap(entries=[])
        for entry in section.get_all("datapoint"):
            dp = _parse_datapoint(entry)
            try:
                datapoints.add(dp)
            except devices.DeviceError as exc:
                raise entry.error(f"rtu '{section.name}': {exc}") from None
            if grid_model.element(dp.element_kind, dp.element_id) is None:
                raise entry.error(
                    f"rtu '{section.name}' IOA {dp.ioa}: {dp.entity} is not in the grid"
                )
            if dp.direction == "control":
                target = (dp.entity, dp.fieldname)
                if target in controllers:
                    rtu, lineno = controllers[target]
                    raise entry.error(
                        f"rtu '{section.name}' IOA {dp.ioa}: {dp.entity}:{dp.fieldname} "
                        f"is already controlled by rtu '{rtu}' (line {lineno})"
                    )
                controllers[target] = (section.name, entry.lineno)
        address = section.entry("common_address", required=True)
        common_address = address.convert(address.value, "common_address", int)
        if not 0 <= common_address <= iec104.COMMON_ADDRESS_MAX:
            raise address.error(
                f"common_address {common_address} outside 0..{iec104.COMMON_ADDRESS_MAX}")
        rtus.append(
            devices.RtuConfig(
                name=section.name,
                host=host.value,
                common_address=common_address,
                datapoints=datapoints,
                report_period=report_period,
            )
        )

    veds: list[VedConfig] = []
    for section in _named_sections(sections, "ved"):
        battery = None
        entry = section.entry("battery")
        if entry is not None:
            _, opts = entry.split(options=BATTERY_OPTIONS)
            try:
                battery = ems.Battery(
                    capacity_kwh=opts.get_float("capacity_kwh"),
                    p_max_kw=opts.get_float("p_max_kw"),
                    eta_charge=opts.get_float("eta_charge", 1.0),
                    eta_discharge=opts.get_float("eta_discharge", 1.0),
                    soc_kwh=opts.get_float("soc_kwh", 0.0),
                )
            except ems.EmsError as exc:
                raise entry.error(f"ved '{section.name}' battery: {exc}") from None
        veds.append(
            VedConfig(
                name=section.name,
                host=_known(section, "host", network.hosts, "topology").value,
                bus=_known(section, "bus", grid_model.bus_index, "grid").value,
                battery=battery,
            )
        )
    ved_names = {v.name for v in veds}

    ems_configs: dict[str, EmsConfig] = {}
    for section in _named_sections(sections, "ems"):
        if section.name not in ved_names:
            raise section.error(f"ems section for unknown ved '{section.name}'")
        ems_configs[section.name] = EmsConfig(
            ved=section.name,
            dso_limits=tuple(
                ems.DsoLimit(*_parse_window(entry, ("import", "export")))
                for entry in section.get_all("dso")
            ),
            vpp_schedules=tuple(
                ems.VppSchedule(*_parse_window(entry, ("target",)))
                for entry in section.get_all("vpp")
            ),
        )

    attack_section = single_section(sections, "attack")
    attack_plan = None
    if attack_section is not None:
        foothold = _known(attack_section, "foothold", network.hosts, "topology").value
        stages = tuple(_parse_stage(entry) for entry in attack_section.get_all("stage"))
        start_time = attack_section.get_int("start_time_s", 0)
        try:
            attack_plan = attacker_mod.AttackPlan(
                foothold=foothold, stages=stages, start_time=start_time
            )
        except attacker_mod.AttackError as exc:
            raise attack_section.error(str(exc)) from None

    # profile targets must resolve against the grid or a ved load/pv channel
    if profiles is not None:
        grid_targets = {
            (e.id, f)
            for e in grid_model.loads + grid_model.sgens
            for f in ("p_kw", "q_kvar")
        }
        for element_id, fieldname in profiles.profiles:
            if (element_id, fieldname) in grid_targets:
                continue
            if element_id in ved_names and fieldname in ("load_kw", "pv_kw"):
                continue
            raise head.entry("profiles_file").error(
                f"profile target {element_id}.{fieldname} matches no grid element or ved"
            )

    return Scenario(
        name=name, horizon_s=horizon_s, step_s=step_s, topology_file=topology_file,
        mtu=mtu_config, rtus=rtus, veds=veds, ems_configs=ems_configs,
        attack_plan=attack_plan, outdir=outdir,
        grid_model=grid_model, profiles=profiles,
    )


class GridSimulator:
    """Kernel simulator around the power-flow core. `step` takes one dict of
    the VED exchanges and the RTU controls; it applies profiles, command
    overrides and exchanges, then returns the monitored measurements.
    A step whose inputs equal, bit for bit, those of the last step solved
    returns that step's outputs: every solve starts flat, so a second solve
    would repeat it exactly."""

    def __init__(self, model: GridModel, profiles: ProfileSet | None,
                 monitored: list[tuple[str, str, str]],
                 controllable: list[tuple[str, str, str]],
                 ved_buses: dict[str, str]):
        self.model = model
        self.profiles = profiles
        self.monitored = monitored
        self.controllable = controllable
        self.ved_buses = ved_buses
        self.command_overrides: dict[tuple[str, str], float] = {}
        self.line_status: dict[str, bool] = {}
        # the inputs of the last step solved, and the outputs it produced
        self._memo_key = None
        self._memo_outputs: dict = {}

    def step(self, t: int, inputs: dict) -> dict:
        for kind, elem_id, fieldname in self.controllable:
            value = inputs.get((f"{kind}:{elem_id}", fieldname))
            if value is None:
                continue
            if kind == "line" and fieldname == "status":
                self.line_status[elem_id] = value >= 0.5
            else:
                self.command_overrides[(elem_id, fieldname)] = value
        element_values = element_values_at(
            self.model, self.profiles, t, self.command_overrides
        )
        exchanges = [inputs.get((f"ved:{ved_name}", "grid_kw"), 0.0) or 0.0
                     for ved_name in self.ved_buses]
        # packed doubles tell -0.0 from 0.0, which the CSVs write apart
        numbers = [*chain.from_iterable(element_values.values()), *exchanges]
        key = (struct.pack(f"{len(numbers)}d", *numbers),
               tuple(sorted(self.line_status.items())))
        if key == self._memo_key:
            return self._memo_outputs
        extra = {}
        for bus, exchange in zip(self.ved_buses.values(), exchanges):
            p, q = extra.get(bus, (0.0, 0.0))
            extra[bus] = (p - exchange, q)  # import draws power from the bus
        injections = bus_injections(self.model, element_values, extra)
        solution = run_power_flow(self.model, injections, self.line_status)
        if not solution.converged:
            raise RuntimeError(
                f"power flow did not converge at t={t} "
                f"(mismatch {solution.max_mismatch_pu:.3e} pu)"
            )
        outputs = {
            (f"{kind}:{elem_id}", fieldname):
                measurements_at(self.model, solution, kind, elem_id, fieldname, element_values)
            for kind, elem_id, fieldname in self.monitored
        }
        self._memo_key, self._memo_outputs = key, outputs
        return outputs


class EmsSimulator:
    """Kernel simulator for one VED: profile-driven load/pv, battery
    dispatch, and a parallel battery-disabled baseline trace. It reads no
    inputs and returns the VED's grid exchange."""

    def __init__(self, config: VedConfig, ems_config: EmsConfig | None,
                 profiles: ProfileSet | None, step_s: int):
        self.config = config
        self.ems_config = ems_config or EmsConfig(ved=config.name)
        self.profiles = profiles
        self.step_s = step_s
        self.battery = config.battery
        self.decisions: list[ems.EmsDecision] = []
        self.baseline: list[ems.EmsDecision] = []

    def _profile_value(self, fieldname: str, t: int) -> float:
        if self.profiles is None:
            return 0.0
        profile = self.profiles.get(self.config.name, fieldname)
        return profile.value_at(t) if profile is not None else 0.0

    def step(self, t: int, _inputs: dict) -> dict:
        load_kw = self._profile_value("load_kw", t)
        pv_kw = self._profile_value("pv_kw", t)
        decision, self.battery = ems.ems_step(
            self.battery, t, self.step_s, load_kw, pv_kw,
            dso_limits=self.ems_config.dso_limits,
            vpp_schedules=self.ems_config.vpp_schedules,
        )
        baseline_decision, _ = ems.ems_step(
            None, t, self.step_s, load_kw, pv_kw,
            dso_limits=self.ems_config.dso_limits,
            vpp_schedules=self.ems_config.vpp_schedules,
        )
        self.decisions.append(decision)
        self.baseline.append(baseline_decision)
        return {(f"ved:{self.config.name}", "grid_kw"): decision.grid_exchange_kw}


@dataclass
class RunOutputs:
    outdir: str
    manifest: dict[str, str]
    report_text: str
    kpi_reports: dict[str, ems.KpiReport]


def _write_lines(path: str, lines) -> str:
    """Write `lines` to `path` as UTF-8, WRITE_BATCH at a time; returns the
    sha256 of the bytes written. Every line but a "" header ends in a
    newline, so a batch is empty only once `lines` is exhausted."""
    digest = hashlib.sha256()
    lines = iter(lines)
    with open(path, "wb") as fh:
        while batch := "".join(islice(lines, WRITE_BATCH)).encode():
            digest.update(batch)
            fh.write(batch)
    return digest.hexdigest()


def _write_artifacts(outdir: str, rows: dict) -> dict[str, str]:
    """Write each artifact of ARTIFACTS from `rows[name]`, then the manifest;
    returns the manifest, artifact name -> sha256."""
    manifest = {}
    try:
        for name, (header, line, hashed) in ARTIFACTS.items():
            path = os.path.join(outdir, name)
            if line is None:
                netsim.write_pcap(path, rows[name])
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
            else:
                digest = _write_lines(path, chain((header,), map(line, rows[name])))
            if hashed:
                manifest[name] = digest
    finally:
        _float_text.clear()
    _write_lines(os.path.join(outdir, MANIFEST),
                 (f"{manifest.get(name, '-')}  {name}\n" for name in sorted(ARTIFACTS)))
    return manifest


def run_scenario(
    scenario: Scenario,
    outdir: str | None = None,
    until: int | None = None,
) -> RunOutputs:
    outdir = outdir or scenario.outdir
    horizon = scenario.horizon_s if until is None else until

    grid_model = scenario.grid_model
    profiles = scenario.profiles
    network = netsim.load_topology(scenario.topology_file)

    monitored = sorted(
        {
            (dp.element_kind, dp.element_id, dp.fieldname)
            for config in scenario.rtus
            for dp in config.datapoints.monitor
        }
    )
    controllable = sorted(
        {
            (dp.element_kind, dp.element_id, dp.fieldname)
            for config in scenario.rtus
            for dp in config.datapoints.control
        }
    )
    ved_buses = {v.name: v.bus for v in scenario.veds}

    # registration order is step order: the grid reads the EMS exchanges of
    # this step and the RTU controls of the step before, each RTU the grid
    kernel = Kernel(scenario.step_s)

    ems_sims: dict[str, EmsSimulator] = {}
    for ved_config in scenario.veds:
        sim = EmsSimulator(
            ved_config, scenario.ems_configs.get(ved_config.name), profiles,
            scenario.step_s,
        )
        ems_sims[ved_config.name] = sim
        kernel.register_simulator(SimulatorDescriptor(id=f"ems_{ved_config.name}"), sim.step)

    grid_sim = GridSimulator(grid_model, profiles, monitored, controllable, ved_buses)
    grid_sources = [f"ems_{name}" for name in ved_buses]
    grid_sources += [f"rtu_{config.name}" for config in scenario.rtus]

    def grid_step(t: int, values: dict) -> dict:
        return grid_sim.step(t, {attr: value for sim_id in grid_sources
                                 for attr, value in values[sim_id].items()})

    kernel.register_simulator(SimulatorDescriptor(id="grid"), grid_step)

    rtu_sims: dict[str, devices.Rtu] = {}
    for config in scenario.rtus:
        rtu = devices.Rtu(config, network)
        rtu_sims[config.name] = rtu
        kernel.register_simulator(
            SimulatorDescriptor(id=f"rtu_{config.name}"),
            lambda t, values, rtu=rtu: rtu.step(t, values["grid"]),
        )

    mtu = None
    if scenario.mtu is not None:
        mtu = devices.Mtu(
            network, scenario.mtu.host, scenario.step_s,
            poll_period=scenario.mtu.poll_period,
        )
        for config in scenario.rtus:
            mtu.attach_rtu(config.name, network.hosts[config.host].primary_ip())
        kernel.register_simulator(
            SimulatorDescriptor(id="mtu"),
            mtu.step,
        )

    attack_agent = None
    if scenario.attack_plan is not None:
        attack_agent = attacker_mod.Attacker(network, scenario.attack_plan)
        kernel.register_simulator(
            SimulatorDescriptor(id="attacker"),
            attack_agent.step,
        )

    fault: SimulatorFault | None = None
    try:
        report = kernel.run(horizon)
    except SimulatorFault as exc:
        fault = exc
        report = None

    network.close_all(horizon)

    # -- flush outputs (also on fault: partial artifacts are preserved) -----
    kpi_reports = {
        name: ems.evaluate_run(
            sim.decisions, sim.baseline, scenario.step_s,
            dso_limits=sim.ems_config.dso_limits,
            vpp_schedules=sim.ems_config.vpp_schedules,
        )
        for name, sim in ems_sims.items() if sim.decisions
    }

    report_lines = [f"scenario: {scenario.name}"]
    if fault is not None:
        report_lines.append(f"fault: {fault}")
    elif report is not None:
        report_lines.append(report.to_text().rstrip())
    for name, kpi in sorted(kpi_reports.items()):
        report_lines += [
            f"kpi.{name}.import_kwh: {kpi.run.import_kwh:.6f}",
            f"kpi.{name}.export_kwh: {kpi.run.export_kwh:.6f}",
            f"kpi.{name}.peak_import_kw: {kpi.run.peak_import_kw:.6f}",
            f"kpi.{name}.dso_violations: {kpi.run.dso_violations}",
            f"kpi.{name}.vpp_tracking_error_kwh: {kpi.run.vpp_tracking_error_kwh:.6f}",
            f"kpi.{name}.baseline_import_kwh: {kpi.baseline.import_kwh:.6f}",
            f"kpi.{name}.baseline_peak_import_kw: {kpi.baseline.peak_import_kw:.6f}",
        ]

    # truth rows sort by (t, element, field), stable, so the rows of one
    # point at one time keep their RTU order; each (element, field) is given
    # its place in that order once, and the sort compares ints
    places = {key: i for i, key in enumerate(sorted(
        {(dp.entity, dp.fieldname) for config in scenario.rtus for dp in config.datapoints.monitor}
    ))}
    n_places = len(places)
    rows = {
        PCAP_FILE: network.packet_log,
        GROUND_TRUTH_CSV: sorted(
            chain.from_iterable(rtu.truth_rows for rtu in rtu_sims.values()),
            key=lambda r: r[0] * n_places + places[r[1], r[2]],
        ),
        ARCHIVE_CSV: mtu.archive if mtu is not None else (),
        COMMANDS_CSV: mtu.command_log if mtu is not None else (),
        ATTACK_TRACE_CSV: attack_agent.trace if attack_agent is not None else (),
        ATTACK_TRANSCRIPT: attack_agent.transcript if attack_agent is not None else (),
        EMS_DECISIONS_CSV: sorted(
            ((name, d) for name, sim in ems_sims.items() for d in sim.decisions),
            key=lambda pair: (pair[1].t, pair[0]),
        ),
        RUN_REPORT: report_lines,
    }
    # the directory is made only now, so a run the kernel refuses (until <= 0)
    # leaves none behind
    os.makedirs(outdir, exist_ok=True)
    manifest = _write_artifacts(outdir, rows)

    if fault is not None:
        # the fault's traceback holds this frame: drop the local that
        # would close the loop and pin the whole run
        try:
            raise fault
        finally:
            fault = None

    return RunOutputs(
        outdir=outdir,
        manifest=manifest,
        report_text="\n".join(report_lines) + "\n",
        kpi_reports=kpi_reports,
    )
