"""Virtual field devices: RTUs and the polling MTU.

An RTU maps grid measurements and actuators to IEC 104 data points and
reports over the emulated network; values are digitized to float32 at
acquisition (the wire float width). Manipulation rules installed on an RTU
change only what goes on the wire; the ground-truth log keeps the
unmanipulated digitized values, and manipulated points are flagged
in-memory, never on the wire.
"""

from __future__ import annotations

import functools
import struct
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from . import iec104
from .configfile import ConfigError, Entry
from .grid.powerflow import MONITOR_FIELDS
from .netsim import NetError, Network, TcpConnection

REPORT_BUFFER_LIMIT = 100
POLL_TIMEOUT_STEPS = 3

IEC104_PORT = 2404

# actuatable fields per grid element kind (the readable ones: MONITOR_FIELDS)
CONTROL_FIELDS = {
    "line": ("status",),
    "load": ("p_kw", "q_kvar"),
    "sgen": ("p_kw", "q_kvar"),
}

# manipulation kind -> the options it takes, in a scenario stage and in
# `rtu-override install`
MANIPULATION_KINDS = {
    "scale": ("factor", "targets"),
    "offset": ("delta", "targets"),
    "freeze": ("targets",),
    "fdi_stealth": ("factor", "targets"),
}
OVERRIDE_USAGE = "usage: install <kind> [factor=F] [delta=D] [targets=all|ioa,..]"


def parse_manipulation(entry: Entry) -> tuple[str, tuple[int, ...] | None, dict[str, float]]:
    """The kind, target IOAs (None = all monitor points) and rule parameters
    of a manipulation `<kind> [options]`; a ConfigError at the entry's line
    for an unknown kind, an option the kind does not take, a bad value, or
    an IOA named twice in `targets`."""
    (kind,), opts = entry.split(1, OVERRIDE_USAGE)
    takes = MANIPULATION_KINDS.get(kind)
    if takes is None:
        raise entry.error(f"unknown manipulation kind '{kind}'")
    for key in opts.attrs:
        if key not in takes:
            raise entry.error(f"manipulation {kind} takes no option '{key}'")
    targets = opts.get("targets", "all")
    ioas = None
    if targets != "all":
        ioas = tuple(opts.convert(part, "targets", int) for part in targets.split(","))
        for i, ioa in enumerate(ioas):
            if ioa in ioas[:i]:
                raise entry.error(f"targets names IOA {ioa} twice")
    return kind, ioas, {key: opts.get_float(key) for key in opts.attrs if key != "targets"}


def to_f32(value: float) -> float:
    """Round to the nearest float32, returned as float (wire precision)."""
    return struct.unpack("<f", struct.pack("<f", value))[0]


class DeviceError(Exception):
    pass


class UnknownIoa(DeviceError):
    pass


class NegativeConfirm(DeviceError):
    pass


@dataclass(frozen=True)
class DataPoint:
    ioa: int
    direction: str      # monitor | control
    element_kind: str   # bus | line | trafo | load | sgen
    element_id: str
    fieldname: str
    scale: float = 1.0
    unit: str = ""

    @cached_property
    def entity(self) -> str:
        """`<kind>:<id>`, built once: every step and truth row reuses it."""
        return f"{self.element_kind}:{self.element_id}"


@dataclass
class DataPointMap:
    entries: list[DataPoint]

    def __post_init__(self):
        points, self.entries, self._by_ioa = self.entries, [], {}
        for dp in points:
            self.add(dp)

    def add(self, dp: DataPoint) -> None:
        if dp.ioa in self._by_ioa:
            raise DeviceError(f"IOA {dp.ioa} assigned twice within one RTU")
        if dp.direction not in ("monitor", "control"):
            raise DeviceError(f"IOA {dp.ioa}: bad direction '{dp.direction}'")
        monitor = dp.direction == "monitor"
        allowed = (MONITOR_FIELDS if monitor else CONTROL_FIELDS).get(dp.element_kind, ())
        if dp.fieldname not in allowed:
            raise DeviceError(
                f"IOA {dp.ioa}: '{dp.entity}:{dp.fieldname}' is not "
                f"{'readable' if monitor else 'actuatable'}"
            )
        self._by_ioa[dp.ioa] = dp
        self.entries.append(dp)

    @property
    def monitor(self) -> list[DataPoint]:
        return [dp for dp in self.entries if dp.direction == "monitor"]

    @property
    def control(self) -> list[DataPoint]:
        return [dp for dp in self.entries if dp.direction == "control"]

    def point(self, ioa: int) -> DataPoint | None:
        return self._by_ioa.get(ioa)


@dataclass
class ManipulationRule:
    kind: str                      # a MANIPULATION_KINDS key
    factor: float = 1.0
    delta: float = 0.0
    frozen: dict[int, float] = field(default_factory=dict)

    def apply(self, ioa: int, value: float) -> float:
        if self.kind == "freeze":
            return self.frozen.setdefault(ioa, value)
        if self.kind == "offset":
            return to_f32(value + self.delta)
        return to_f32(value * self.factor)  # scale, fdi_stealth


@dataclass
class RtuConfig:
    name: str
    host: str
    common_address: int
    datapoints: DataPointMap
    report_period: int


class _SessionEnd:
    """One end of an IEC 104 session: the connection, its sequence state and
    the received bytes not yet decoded. `server` is the controlled station's
    end, which hangs up on a malformed or out-of-sequence APDU; at the
    controlling station's end that error propagates."""

    def __init__(self, conn: TcpConnection, server: bool):
        self.conn = conn
        self.server = server
        self.state = iec104.ConnectionState()
        self.rx = b""

    def send(self, asdu: iec104.Asdu, at_s: int | None = None):
        self.put(self.state.send(asdu), at_s)

    def put(self, apdu: iec104.Apdu, at_s: int | None = None):
        self.conn.send(iec104.encode(apdu), at_s, self.server)

    def receive(self, payload: bytes):
        """Yield each APDU that `payload` completes, once the session's
        reply to it is on the wire; a hang-up yields nothing more."""
        rx = self.rx + payload if self.rx else payload
        try:
            apdus, used = iec104.decode_stream(rx)
            self.rx = rx[used:] if used < len(rx) else b""
            for apdu in apdus:
                reply = self.state.received(apdu)
                if reply is not None:
                    self.put(reply)
                yield apdu
        except iec104.Iec104Error:
            if not self.server:
                raise
            self.conn.close(from_server=True)


class Rtu:
    """Controlled-station field device bridging grid values onto IEC 104."""

    def __init__(self, config: RtuConfig, network: Network):
        self.config = config
        self.network = network
        self.session: _SessionEnd | None = None
        self.overrides: dict[int, ManipulationRule] = {}
        self.current: dict[int, float] = {}        # digitized truth per monitor IOA
        self.last_sent: dict[int, float] = {}      # last wire value per IOA
        self.buffer: deque = deque(maxlen=REPORT_BUFFER_LIMIT)
        self.truth_rows: list[tuple[int, str, str, float]] = []
        self._pending_outputs: dict[tuple[str, str], float] = {}
        # ((entity, field), IOA, scale) per monitor point, in map order
        self._monitor = [((dp.entity, dp.fieldname), dp.ioa, dp.scale)
                         for dp in config.datapoints.monitor]
        network.register_handler(config.host, IEC104_PORT, self)
        network.register_command(config.host, "rtu-override", self._override_hook)

    # -- kernel simulator --------------------------------------------------

    def step(self, t: int, inputs: dict) -> dict:
        ioas, values = [], []
        for key, ioa, scale in self._monitor:
            raw = inputs.get(key)
            if raw is not None:
                ioas.append(ioa)
                values.append(raw * scale)
        # one float32 round trip for all of them, as to_f32 does for one
        f32 = f"<{len(values)}f"
        self.current.update(zip(ioas, struct.unpack(f32, struct.pack(f32, *values))))
        if t % self.config.report_period == 0:
            self.report(t)
        outputs = self._pending_outputs
        self._pending_outputs = {}
        return outputs

    # -- reporting ---------------------------------------------------------

    def _send_points(self, t: int, cot: int, at_s: int | None = None):
        """One M_ME_NC_1 ASDU per acquired monitor point, logging its truth
        row and wire value: sent while the session can take an I-frame, else
        appended to the buffer, the one place a point waits."""
        current, overrides, last_sent = self.current, self.overrides, self.last_sent
        log_truth, buffer = self.truth_rows.append, self.buffer
        common_address = self.config.common_address
        Asdu, InfoObject, M_ME_NC_1 = iec104.Asdu, iec104.InfoObject, iec104.M_ME_NC_1
        for (entity, fieldname), ioa, _ in self._monitor:
            truth = current.get(ioa)
            if truth is None:
                continue
            rule = overrides.get(ioa)
            wire = truth if rule is None else rule.apply(ioa, truth)
            log_truth((t, entity, fieldname, truth))
            last_sent[ioa] = wire
            asdu = Asdu(M_ME_NC_1, cot, common_address, (InfoObject(ioa, wire, 0),))
            session = self.session
            if session is not None and session.state.can_send:
                session.send(asdu, at_s)
            else:
                buffer.append(asdu)

    def report(self, t: int):
        """Spontaneous transmission of every monitor point."""
        self._send_points(t, iec104.COT_SPONTANEOUS, t)

    # -- network handler (MTU side opens the connection) --------------------
    # The RTU serves one controlling station: the first connection carries
    # the session until the RTU hangs up on it, and any other connection is
    # hung up on at its first bytes. Buffered points go out when a
    # STARTDT_act starts the session, and on no other receive: the MTU sends
    # its S-frame before it archives the I-frame that prompted it, so points
    # drained on that S-frame would be archived out of order.

    def on_connect(self, conn: TcpConnection):
        if self.session is None:
            self.session = _SessionEnd(conn, server=True)

    def on_client_data(self, conn: TcpConnection, payload: bytes):
        session = self.session
        if session is None or conn is not session.conn:
            conn.close(from_server=True)
            return
        for apdu in session.receive(payload):
            asdu = apdu.asdu
            if apdu.kind == "U" and apdu.u_function == iec104.U_STARTDT_ACT:
                while self.buffer and session.state.can_send:
                    session.send(self.buffer.popleft())
            elif asdu is None:  # S-frame or another U-frame
                continue
            elif asdu.type_id == iec104.C_IC_NA_1 and asdu.cot == iec104.COT_ACTIVATION:
                self._interrogation_reply(asdu)
            elif asdu.type_id in (iec104.C_SC_NA_1, iec104.C_SE_NC_1):
                self._actuate(asdu)
        if conn.closed:  # the session end hung up
            self.session = None

    def _reply(self, request: iec104.Asdu, cot: int):
        self.session.send(iec104.Asdu(
            type_id=request.type_id, cot=cot,
            common_address=self.config.common_address, objects=request.objects,
        ))

    def _interrogation_reply(self, request: iec104.Asdu):
        t = self.network.now_s
        self._reply(request, iec104.COT_ACTCON)
        self._send_points(t, iec104.COT_INTERROGATED)
        self._reply(request, iec104.COT_ACTTERM)

    def _actuate(self, asdu: iec104.Asdu):
        obj = asdu.objects[0]
        dp = self.config.datapoints.point(obj.ioa)
        if dp is None or dp.direction != "control":
            self._reply(asdu, iec104.COT_UNKNOWN_IOA)
            return
        if asdu.type_id == iec104.C_SC_NA_1:
            value = float(int(obj.value) & 0x01)
        else:
            value = float(obj.value) * dp.scale
        self._pending_outputs[(dp.entity, dp.fieldname)] = value
        self._reply(asdu, iec104.COT_ACTCON)

    # -- attacker-facing override hook --------------------------------------

    def _override_hook(self, args: list[str]) -> str:
        command = Entry("rtu-override", None, "install", " ".join(args[1:]))
        try:
            if args[:1] != ["install"]:
                raise command.error(OVERRIDE_USAGE)
            kind, targets, params = parse_manipulation(command)
        except ConfigError as exc:
            raise DeviceError(str(exc)) from None
        if targets is None:
            targets = [dp.ioa for dp in self.config.datapoints.monitor]
        self.install_override(kind, targets, **params)
        return f"override {kind} installed on {len(targets)} points"

    def install_override(self, kind: str, target_ioas, factor: float = 1.0,
                         delta: float = 0.0):
        """Install one rule on every target, or on none if any is not a
        monitor point."""
        rule = ManipulationRule(kind=kind, factor=factor, delta=delta)
        for ioa in target_ioas:
            dp = self.config.datapoints.point(ioa)
            if dp is None or dp.direction != "monitor":
                raise UnknownIoa(f"IOA {ioa} is not a monitor point on {self.config.name}")
        for ioa in target_ioas:
            if kind == "freeze" and ioa in self.last_sent:
                rule.frozen[ioa] = self.last_sent[ioa]
            self.overrides[ioa] = rule


@dataclass(slots=True)
class ArchiveRow:
    t: int
    rtu: str
    ioa: int
    value: float
    quality: int


@dataclass(slots=True)
class CommandLogRow:
    t: int
    rtu: str
    ioa: int
    value: float
    confirmed: bool


class Mtu:
    """Controlling station: keeps sessions to all RTUs, archives their reports."""

    def __init__(self, network: Network, host: str, step_size: int,
                 poll_period: int = 0):
        self.network = network
        self.host = host
        self.step_size = step_size
        self.poll_period = poll_period
        self.archive: list[ArchiveRow] = []
        self.command_log: list[CommandLogRow] = []
        self.events: list[tuple[int, str, str]] = []
        self._rtus: dict[str, str] = {}                    # name -> IP, in attach order
        self._sessions: dict[str, _SessionEnd] = {}        # name -> session, once connected
        self._poll_deadline: dict[str, int | None] = {}    # name -> when the open poll times out
        self._last_confirm: dict[str, iec104.Asdu | None] = {}
        self._started = False

    def attach_rtu(self, name: str, ip: str):
        self._rtus[name] = ip
        self._poll_deadline[name] = None

    def start(self, t: int = 0):
        """Open all RTU connections and begin data transfer."""
        self._started = True
        for name, ip in self._rtus.items():
            try:
                conn = self.network.open_connection(self.host, ip, IEC104_PORT, at_s=t)
            except NetError:
                self.events.append((t, "connect-failed", name))
                continue
            session = self._sessions[name] = _SessionEnd(conn, server=False)
            conn.on_data = functools.partial(self._on_data, name)
            session.put(session.state.start(), at_s=t)

    def _on_data(self, name: str, payload: bytes):
        t = self.network.now_s
        for apdu in self._sessions[name].receive(payload):
            if apdu.kind != "I":
                continue
            asdu = apdu.asdu
            if asdu.type_id == iec104.M_ME_NC_1:
                for obj in asdu.objects:
                    self.archive.append(ArchiveRow(t, name, obj.ioa, obj.value, obj.quality))
            elif asdu.cot == iec104.COT_ACTCON:
                if asdu.type_id == iec104.C_IC_NA_1:
                    self._poll_deadline[name] = None
                self._last_confirm[name] = asdu
            elif asdu.cot == iec104.COT_UNKNOWN_IOA:
                self._last_confirm[name] = asdu

    # -- kernel simulator ----------------------------------------------------

    def step(self, t: int, _inputs: dict) -> dict:
        if not self._started:
            self.start(t)
        for name, deadline in self._poll_deadline.items():
            if deadline is not None and t >= deadline:
                self._poll_deadline[name] = None
                self.events.append((t, "timeout", name))
        if self.poll_period and t and t % self.poll_period == 0:
            for name in self._rtus:
                self.poll(name, t)
        return {}

    # -- operations ----------------------------------------------------------

    def poll(self, name: str, t: int) -> list[ArchiveRow]:
        """General interrogation of one RTU; returns the newly archived rows."""
        before = len(self.archive)
        request = iec104.Asdu(
            type_id=iec104.C_IC_NA_1, cot=iec104.COT_ACTIVATION, common_address=0,
            objects=(iec104.InfoObject(ioa=0, value=iec104.QOI_STATION),),
        )
        self._poll_deadline[name] = t + POLL_TIMEOUT_STEPS * self.step_size
        session = self._sessions.get(name)
        if session is None or session.conn.closed or not session.state.can_send:
            return []
        try:
            # delivery is synchronous: the act-con arrives inside this call
            # and clears the deadline via _on_data
            session.send(request, at_s=t)
        except NetError:
            return []
        return self.archive[before:]

    def command(self, name: str, ioa: int, value: float, t: int,
                control_map: DataPointMap | None = None) -> bool:
        """Switch or set-point command to one RTU data point."""
        if name not in self._rtus:
            raise DeviceError(f"no RTU '{name}' attached")
        if control_map is not None:
            dp = control_map.point(ioa)
            if dp is None or dp.direction != "control":
                raise UnknownIoa(f"IOA {ioa} is not a control point")
            type_id = iec104.C_SC_NA_1 if dp.fieldname == "status" else iec104.C_SE_NC_1
        else:
            type_id = iec104.C_SE_NC_1
        wire = int(value) & 0x01 if type_id == iec104.C_SC_NA_1 else float(value)
        request = iec104.Asdu(
            type_id=type_id, cot=iec104.COT_ACTIVATION,
            common_address=0, objects=(iec104.InfoObject(ioa=ioa, value=wire),),
        )
        self._last_confirm[name] = None
        session = self._sessions.get(name)
        if session is not None and session.state.can_send:
            session.send(request, at_s=t)
        confirm = self._last_confirm.get(name)
        confirmed = confirm is not None and confirm.cot == iec104.COT_ACTCON
        self.command_log.append(
            CommandLogRow(t=t, rtu=name, ioa=ioa, value=value, confirmed=confirmed)
        )
        if confirm is not None and confirm.cot == iec104.COT_UNKNOWN_IOA:
            raise NegativeConfirm(f"RTU {name} rejected IOA {ioa}")
        return confirmed
