"""Grid model for a radial MV/LV feeder: buses, lines, transformers, loads, DERs.

Grid-file schema (see configfile for the line grammar): one section per
element class, one row per element. A section or attribute not listed here
is an error at its line, and so is a row that breaks a grid invariant
(`validate`): a missing bus, a bad impedance, a second slack bus or a
repeated id (at the second row). A rule about the whole grid (no slack bus,
a loop without `meshed = true`) names the file.

  [grid]
  base_mva = 1.0
  meshed = false            # optional, defaults to false

  [bus]
  <id>  nominal_kv=<kV>  type=<slack|pq>  [vm_pu=<pu>]

  [line]
  <id>  from=<bus> to=<bus> r_ohm=<ohm> x_ohm=<ohm> max_i_ka=<kA> [status=<closed|open>]

  [trafo]
  <id>  hv_bus=<bus> lv_bus=<bus> s_rated_kva=<kVA> vk_percent=<%> vkr_percent=<%> [tap_position=<int>]

  [load]
  <id>  bus=<bus> p_kw=<kW> q_kvar=<kvar>

  [sgen]
  <id>  bus=<bus> p_kw=<kW> q_kvar=<kvar>
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..configfile import ConfigError, check_kinds, parse_config, sections_of, single_section

TAP_STEP_PERCENT = 2.5  # voltage ratio change per transformer tap position


class ValidationError(ConfigError):
    """Grid model violates a structural invariant; `kind` names which one and
    `element` the offending element (None for a rule about the whole grid).
    `parse_grid` reports it at the element's row of the grid file."""

    def __init__(self, kind: str, message: str, element=None,
                 source: str = "<grid>", lineno: int | None = None):
        super().__init__(f"{kind}: {message}", source, lineno)
        self.kind = kind
        self.detail = message
        self.element = element


NO_SLACK = "NoSlack"
MULTIPLE_SLACK = "MultipleSlack"
DISCONNECTED = "Disconnected"
NON_POSITIVE_IMPEDANCE = "NonPositiveImpedance"
NOT_RADIAL = "NotRadial"
DUPLICATE_ID = "DuplicateId"
UNKNOWN_BUS = "UnknownBus"
VOLTAGE_MISMATCH = "VoltageMismatch"


@dataclass(frozen=True)
class Bus:
    id: str
    nominal_kv: float
    type: str  # "slack" | "pq"
    vm_setpoint_pu: float = 1.0


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    r_ohm: float
    x_ohm: float
    max_i_ka: float
    in_service: bool = True


@dataclass(frozen=True)
class Trafo:
    id: str
    hv_bus: str
    lv_bus: str
    s_rated_kva: float
    vk_percent: float
    vkr_percent: float
    tap_position: int = 0

    @property
    def tap_ratio(self) -> float:
        return 1.0 + self.tap_position * TAP_STEP_PERCENT / 100.0


@dataclass(frozen=True)
class Load:
    id: str
    bus: str
    p_kw: float
    q_kvar: float


@dataclass(frozen=True)
class Sgen:
    id: str
    bus: str
    p_kw: float
    q_kvar: float


@dataclass
class GridModel:
    buses: list[Bus]
    lines: list[Line]
    trafos: list[Trafo]
    loads: list[Load]
    sgens: list[Sgen]
    base_mva: float = 1.0
    meshed: bool = False

    bus_index: dict[str, int] = field(init=False, repr=False)
    _elements: dict[str, dict[str, object]] = field(init=False, repr=False)
    # the power flow's plan for the switching state it solved last
    last_plan: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.bus_index = {bus.id: i for i, bus in enumerate(self.buses)}
        self._elements = {
            kind: {elem.id: elem for elem in pool}
            for kind, pool in (
                ("bus", self.buses),
                ("line", self.lines),
                ("trafo", self.trafos),
                ("load", self.loads),
                ("sgen", self.sgens),
            )
        }

    @property
    def slack_bus(self) -> Bus:
        return next(b for b in self.buses if b.type == "slack")

    @property
    def branch_count(self) -> int:
        return len(self.lines) + len(self.trafos)

    def bus(self, bus_id: str) -> Bus:
        return self.buses[self.bus_index[bus_id]]

    def element(self, kind: str, elem_id: str):
        """The element of `kind` with id `elem_id`, or None."""
        return self._elements.get(kind, {}).get(elem_id)


def _check_unique(elements, what: str):
    seen = set()
    for elem in elements:
        if elem.id in seen:
            raise ValidationError(DUPLICATE_ID, f"duplicate {what} id '{elem.id}'", elem)
        seen.add(elem.id)


def validate(model: GridModel) -> None:
    _check_unique(model.buses, "bus")
    _check_unique(model.lines + model.trafos + model.loads + model.sgens, "element")
    slacks = [b for b in model.buses if b.type == "slack"]
    if not slacks:
        raise ValidationError(NO_SLACK, "grid needs exactly one slack bus")
    if len(slacks) > 1:
        raise ValidationError(MULTIPLE_SLACK, "grid needs exactly one slack bus", slacks[1])
    bus_ids = set(model.bus_index)
    for line in model.lines:
        if line.from_bus not in bus_ids or line.to_bus not in bus_ids:
            raise ValidationError(UNKNOWN_BUS, f"line '{line.id}' references unknown bus", line)
        if line.r_ohm <= 0 and line.x_ohm <= 0:
            raise ValidationError(
                NON_POSITIVE_IMPEDANCE, f"line '{line.id}' has no positive impedance", line
            )
        if line.r_ohm < 0 or line.x_ohm < 0:
            raise ValidationError(
                NON_POSITIVE_IMPEDANCE, f"line '{line.id}' has a negative impedance term", line
            )
        if model.bus(line.from_bus).nominal_kv != model.bus(line.to_bus).nominal_kv:
            raise ValidationError(
                VOLTAGE_MISMATCH,
                f"line '{line.id}' connects buses of different nominal voltage", line,
            )
    for trafo in model.trafos:
        if trafo.hv_bus not in bus_ids or trafo.lv_bus not in bus_ids:
            raise ValidationError(
                UNKNOWN_BUS, f"trafo '{trafo.id}' references unknown bus", trafo
            )
        if trafo.vk_percent <= 0 or trafo.s_rated_kva <= 0:
            raise ValidationError(
                NON_POSITIVE_IMPEDANCE, f"trafo '{trafo.id}' has non-positive vk or rating",
                trafo,
            )
        if trafo.vkr_percent < 0 or trafo.vkr_percent > trafo.vk_percent:
            raise ValidationError(
                NON_POSITIVE_IMPEDANCE, f"trafo '{trafo.id}' needs 0 <= vkr <= vk", trafo
            )
    for elem in model.loads + model.sgens:
        if elem.bus not in bus_ids:
            raise ValidationError(UNKNOWN_BUS, f"'{elem.id}' references unknown bus", elem)

    # Connectivity over all branches, regardless of switching state.
    seen = connected_buses(model, model.buses[0].id)
    if len(seen) != len(model.buses):
        missing = sorted(bus_ids - seen)
        first = next(b for b in model.buses if b.id not in seen)
        raise ValidationError(DISCONNECTED, f"buses not connected to the grid: {missing}", first)
    if not model.meshed and model.branch_count != len(model.buses) - 1:
        raise ValidationError(
            NOT_RADIAL,
            f"{model.branch_count} branches for {len(model.buses)} buses; "
            "flag 'meshed = true' to allow loops",
        )


def connected_buses(model: GridModel, start: str,
                    open_lines: frozenset[str] = frozenset()) -> set[str]:
    """Buses reachable from `start` when the lines in `open_lines` conduct nothing."""
    adjacency: dict[str, list[str]] = {b.id: [] for b in model.buses}
    for line in model.lines:
        if line.id not in open_lines:
            adjacency[line.from_bus].append(line.to_bus)
            adjacency[line.to_bus].append(line.from_bus)
    for trafo in model.trafos:
        adjacency[trafo.hv_bus].append(trafo.lv_bus)
        adjacency[trafo.lv_bus].append(trafo.hv_bus)
    seen: set[str] = set()
    stack = [start]
    while stack:
        bus_id = stack.pop()
        if bus_id in seen:
            continue
        seen.add(bus_id)
        stack.extend(adjacency[bus_id])
    return seen


# the attributes a row of each element section may carry
ROW_ATTRS = {
    "bus": frozenset(("nominal_kv", "type", "vm_pu")),
    "line": frozenset(("from", "to", "r_ohm", "x_ohm", "max_i_ka", "status")),
    "trafo": frozenset(
        ("hv_bus", "lv_bus", "s_rated_kva", "vk_percent", "vkr_percent", "tap_position")
    ),
    "load": frozenset(("bus", "p_kw", "q_kvar")),
    "sgen": frozenset(("bus", "p_kw", "q_kvar")),
}
GRID_SECTIONS = ("grid", *ROW_ATTRS)


def parse_grid(text: str, source: str = "<grid>") -> GridModel:
    sections = parse_config(text, source)
    check_kinds(sections, GRID_SECTIONS)
    for section in sections:
        if section.kind == "grid":
            section.only("base_mva", "meshed")
        else:
            section.only(rows=ROW_ATTRS[section.kind])
    head = single_section(sections, "grid")
    base_mva = head.get_float("base_mva", 1.0) if head is not None else 1.0
    meshed = head.get_bool("meshed", False) if head is not None else False

    buses, lines, trafos, loads, sgens = [], [], [], [], []
    for section in sections_of(sections, "bus"):
        for row in section.rows:
            bus_type = row.require("type")
            if bus_type not in ("slack", "pq"):
                raise row.error(f"bus '{row.id}': type must be slack or pq")
            buses.append(
                Bus(
                    id=row.id,
                    nominal_kv=row.get_float("nominal_kv"),
                    type=bus_type,
                    vm_setpoint_pu=row.get_float("vm_pu", 1.0),
                )
            )
    for section in sections_of(sections, "line"):
        for row in section.rows:
            lines.append(
                Line(
                    id=row.id,
                    from_bus=row.require("from"),
                    to_bus=row.require("to"),
                    r_ohm=row.get_float("r_ohm"),
                    x_ohm=row.get_float("x_ohm"),
                    max_i_ka=row.get_float("max_i_ka"),
                    in_service=row.get_bool("status", True),
                )
            )
    for section in sections_of(sections, "trafo"):
        for row in section.rows:
            trafos.append(
                Trafo(
                    id=row.id,
                    hv_bus=row.require("hv_bus"),
                    lv_bus=row.require("lv_bus"),
                    s_rated_kva=row.get_float("s_rated_kva"),
                    vk_percent=row.get_float("vk_percent"),
                    vkr_percent=row.get_float("vkr_percent"),
                    tap_position=row.get_int("tap_position", 0),
                )
            )
    for kind, pool in (("load", loads), ("sgen", sgens)):
        cls = Load if kind == "load" else Sgen
        for section in sections_of(sections, kind):
            for row in section.rows:
                pool.append(
                    cls(
                        id=row.id,
                        bus=row.require("bus"),
                        p_kw=row.get_float("p_kw"),
                        q_kvar=row.get_float("q_kvar"),
                    )
                )
    model = GridModel(
        buses=buses,
        lines=lines,
        trafos=trafos,
        loads=loads,
        sgens=sgens,
        base_mva=base_mva,
        meshed=meshed,
    )
    try:
        validate(model)
    except ValidationError as exc:
        raise ValidationError(exc.kind, exc.detail, exc.element, source,
                              _lineno_of(sections, model, exc.element)) from None
    return model


def _lineno_of(sections, model: GridModel, element) -> int | None:
    """The line of the row `element` was read from: the i-th element of a
    kind comes from the i-th row of that kind's sections."""
    pools = (("bus", model.buses), ("line", model.lines), ("trafo", model.trafos),
             ("load", model.loads), ("sgen", model.sgens))
    for kind, pool in pools:
        for i, elem in enumerate(pool):
            if elem is element:
                rows = [row for section in sections_of(sections, kind) for row in section.rows]
                return rows[i].lineno
    return None


def load_grid(path) -> GridModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid(fh.read(), source=str(path))
