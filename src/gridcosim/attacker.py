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


# the stage kinds in plan order; a stage's name is S1..S4 by its position
STAGE_KINDS = ("scan", "rce", "pe", "manipulate")
PE_METHODS = ("suid", "sudoers")


@dataclass(frozen=True)
class Stage:
    kind: str  # a STAGE_KINDS entry
    arg: str   # subnet, target selector, pe method, or `<manipulation kind> [options]`


@dataclass(frozen=True)
class AttackPlan:
    foothold: str
    stages: tuple[Stage, ...]
    start_time: int = 0

    def __post_init__(self):
        ranks = [STAGE_KINDS.index(stage.kind) for stage in self.stages]
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise AttackError("stages must appear in S1 < S2 < S3 < S4 order")


@dataclass(frozen=True)
class TraceEvent:
    t: int
    stage: str
    action: str
    target: str
    outcome: str  # "success" or "failure(<reason>)"


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
        name = f"S{STAGE_KINDS.index(stage.kind) + 1}"
        action = stage.kind
        target = stage.arg.split()[0]  # a manipulation is traced by its kind alone
        try:
            target = getattr(self, f"stage_{action}")(stage.arg, t) or target
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

    def stage_manipulate(self, manipulation: str, t: int):
        session = self._session()
        command = f"rtu-override install {manipulation}"
        try:
            output = self.network.exec_command(session, command)
        except netsim.PermissionDenied:
            raise AttackError("PermissionDenied") from None
        except netsim.UnknownCommand:
            raise AttackError("NotAnRtu") from None
        self._log(t, f"S4 manipulate ({manipulation.split()[0]})")
        self._log(t, f"  {session.user}@{session.host}$ {command}")
        self._log(t, f"  {output}")
