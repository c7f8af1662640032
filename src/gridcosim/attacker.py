"""Scripted multi-stage attacker: scan, remote code execution, privilege
escalation, measurement manipulation.

The attacker is deterministic and plan-driven; one stage executes per
simulation step once the start time is reached, each gated on the previous
stage's success. A failed stage aborts the rest of the plan. Privilege
escalation is host-local: it shows up in the attacker's transcript but
never on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import devices, netsim


class AttackError(Exception):
    pass


class PlanOrderError(AttackError):
    pass


@dataclass(frozen=True)
class ScanStage:
    subnet: str


@dataclass(frozen=True)
class RceStage:
    selector: str  # service kind, "port:<n>", or an IP address


@dataclass(frozen=True)
class PeStage:
    method: str  # suid | sudoers


@dataclass(frozen=True)
class ManipulationStrategy:
    kind: str                       # a devices.MANIPULATION_KINDS key
    factor: float = 1.0
    delta: float = 0.0
    target_ioas: tuple[int, ...] | None = None  # None = all monitor points

    def __post_init__(self):
        if self.kind not in devices.MANIPULATION_KINDS:
            raise AttackError(f"unknown manipulation kind '{self.kind}'")

    def to_command(self) -> str:
        parts = ["rtu-override", "install", self.kind]
        param = devices.MANIPULATION_KINDS[self.kind]
        if param is not None:
            parts.append(f"{param}={getattr(self, param)!r}")
        if self.target_ioas is None:
            parts.append("targets=all")
        else:
            parts.append("targets=" + ",".join(str(i) for i in self.target_ioas))
        return " ".join(parts)


@dataclass(frozen=True)
class ManipulateStage:
    strategy: ManipulationStrategy


Stage = ScanStage | RceStage | PeStage | ManipulateStage

_STAGE_RANK = {ScanStage: 1, RceStage: 2, PeStage: 3, ManipulateStage: 4}
_STAGE_NAME = {ScanStage: "S1", RceStage: "S2", PeStage: "S3", ManipulateStage: "S4"}


@dataclass(frozen=True)
class AttackPlan:
    foothold: str
    stages: tuple[Stage, ...]
    start_time: int = 0

    def __post_init__(self):
        ranks = [_STAGE_RANK[type(stage)] for stage in self.stages]
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise PlanOrderError("stages must appear in S1 < S2 < S3 < S4 order")


@dataclass(frozen=True)
class TraceEvent:
    t: int
    stage: str
    action: str
    target: str
    outcome: str  # "success" or "failure(<reason>)"

    @property
    def success(self) -> bool:
        return self.outcome == "success"


class Attacker:
    """One kernel-registered simulator executing the plan against the network."""

    def __init__(self, network: netsim.Network, plan: AttackPlan):
        self.network = network
        self.plan = plan
        self.knowledge: dict[str, list[tuple[int, str, str]]] = {}  # scan report
        self.session: netsim.Session | None = None
        self.current_stage = 0
        self.trace: list[TraceEvent] = []
        self.transcript: list[str] = []
        self.done = len(plan.stages) == 0

    # -- kernel simulator ----------------------------------------------------

    def step(self, t: int, _inputs: dict) -> dict:
        if self.done or t < self.plan.start_time:
            return {}
        self._execute(self.plan.stages[self.current_stage], t)
        return {}

    # -- stage dispatch --------------------------------------------------------

    def _execute(self, stage: Stage, t: int):
        name = _STAGE_NAME[type(stage)]
        try:
            if isinstance(stage, ScanStage):
                action, target = "scan", stage.subnet
                self.stage_scan(stage.subnet, t)
            elif isinstance(stage, RceStage):
                action, target = "rce", stage.selector
                target = self.stage_rce(stage.selector, t)
            elif isinstance(stage, PeStage):
                action, target = "pe", stage.method
                self.stage_pe(stage.method, t)
            else:
                action, target = "manipulate", stage.strategy.kind
                self.stage_manipulate(stage.strategy, t)
        except (netsim.NetError, devices.DeviceError, AttackError) as exc:
            reason = str(exc) if type(exc) is AttackError else type(exc).__name__
            self.trace.append(
                TraceEvent(t=t, stage=name, action=action, target=target,
                           outcome=f"failure({reason})")
            )
            self._log(t, f"{name} {action} failed: {reason}: {exc}")
            self.done = True
            return
        self.trace.append(
            TraceEvent(t=t, stage=name, action=action, target=target, outcome="success")
        )
        self.current_stage += 1
        if self.current_stage >= len(self.plan.stages):
            self.done = True

    def _log(self, t: int, line: str):
        self.transcript.append(f"[t={t}] {line}")

    # -- stages ----------------------------------------------------------------

    def stage_scan(self, subnet: str, t: int):
        self.knowledge = self.network.scan_subnet(self.plan.foothold, subnet, at_s=t)
        self._log(t, f"S1 scan {subnet}")
        for ip, services in self.knowledge.items():
            ports = " ".join(f"{port}/{kind}" for port, kind, _ in services)
            self._log(t, f"  {ip}: open [{ports}]" if ports else f"  {ip}: no open ports")

    def _select_target(self, selector: str) -> tuple[str, int] | None:
        for ip, services in self.knowledge.items():
            for port, kind, _banner in services:
                if selector == kind or selector == f"port:{port}":
                    return ip, port
                # an address selector aims at the host's web interface
                if selector == ip and kind == "http":
                    return ip, port
        return None

    def stage_rce(self, selector: str, t: int) -> str:
        match = self._select_target(selector)
        if match is None:
            raise AttackError("NoTarget")
        ip, port = match
        request = (
            f"GET /cgi-bin/exec?cmd=whoami HTTP/1.1\r\n"
            f"Host: {ip}\r\nUser-Agent: sam/1.0\r\n\r\n"
        ).encode()
        conn = self.network.open_connection(self.plan.foothold, ip, port, at_s=t)
        response = bytearray()
        conn.on_data = response.extend
        conn.send(request, at_s=t)
        conn.close()
        text = bytes(response).decode(errors="replace")
        self._log(t, f"S2 rce http://{ip}:{port}/cgi-bin/exec?cmd=whoami")
        status = text.split("\r\n", 1)[0]
        if " 200 " not in status + " ":
            self._log(t, f"  {status or 'connection closed without a response'}")
            raise AttackError("NotVulnerable")
        body = text.split("\r\n\r\n", 1)[1].strip() if "\r\n\r\n" in text else ""
        user = body.splitlines()[-1].strip() if body else "unknown"
        self._log(t, f"  {user}")
        try:
            self.session = self.network.open_session(ip, port)
        except netsim.NoVector:
            raise AttackError("NotVulnerable") from None
        return f"{ip}:{port}"

    def _session(self) -> netsim.Session:
        if self.session is None:
            raise AttackError("NoSession")
        return self.session

    def stage_pe(self, method: str, t: int):
        session = self._session()
        if method not in ("suid", "sudoers"):
            raise AttackError(f"unknown pe method '{method}'")
        command = "find / -perm -4000" if method == "suid" else "sudo -l"
        output = self.network.exec_command(session, command)
        self._log(t, f"S3 pe via {method}")
        self._log(t, f"  {session.user}@{session.host}$ {command}")
        for line in output.splitlines():
            self._log(t, f"  {line}")
        try:
            vuln = self.network.escalate(session, method)
        except netsim.NoVector:
            raise AttackError("NoVector") from None
        self._log(t, f"  exploiting {vuln.id} ({vuln.kind}) -> root shell")
        self._log(t, f"  {session.user}@{session.host}$ whoami")
        self._log(t, f"  {self.network.exec_command(session, 'whoami')}")

    def stage_manipulate(self, strategy: ManipulationStrategy, t: int):
        session = self._session()
        command = strategy.to_command()
        try:
            output = self.network.exec_command(session, command)
        except netsim.PermissionDenied:
            raise AttackError("PermissionDenied") from None
        except netsim.UnknownCommand:
            raise AttackError("NotAnRtu") from None
        self._log(t, f"S4 manipulate ({strategy.kind})")
        self._log(t, f"  {session.user}@{session.host}$ {command}")
        self._log(t, f"  {output}")

