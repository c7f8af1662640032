"""In-process emulation of the IT/OT network.

Hosts, switches and links are built from a topology file; TCP is modeled as
a reliable in-order byte stream with synthetic handshake/teardown records;
every segment is appended to a packet log that exports as a classic PCAP.
Services are behavioral stubs (banner or scripted request/response), and
hosts carry a small privilege model (accounts, SUID binaries, sudoers
scripts) with attachable vulnerabilities. A service with an RCE weakness
opens a shell as its `run_as` user; the shell knows `whoami`,
`find / -perm -4000`, `sudo -l` and the admin-only commands that devices
register on their host.

Topology file schema (see configfile for the line and `k=v` option grammar:
options in [brackets] follow the leading values, any other token is an
error; every host and firewall entry is repeatable; a section, key or option
not listed here is an error at its line):

  [host <name>]
  interface = <ip> <cidr>
  service = <kind> <port> [banner=<text>] [run_as=<user>] [rce=<vuln-id>]
  account = <user> <user|admin>
  suid = <binary> [vuln=<vuln-id>]
  sudoers = <script> [vuln=<vuln-id>]

  [switch <name>]

  [link]
  <id>  a=<node> b=<node> [latency_ms=<ms >= 0>]

  [firewall]
  deny = <src-cidr> <dst-cidr> [port=<port>]
  allow = <src-cidr> <dst-cidr> [port=<port>]
"""

from __future__ import annotations

import ipaddress
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .configfile import check_kinds, parse_config, sections_of
# run_scenario writes the capture through the name netsim.write_pcap
from .pcap import ACK, FIN, PSH, RST, SYN, PacketRecord, write_pcap  # noqa: F401

SERVICE_KINDS = ("ssh", "telnet", "http", "snmp", "iec104")

DEFAULT_BANNERS = {
    "ssh": "SSH-2.0-OpenSSH_7.6p1",
    "telnet": "Ubuntu 18.04 LTS",
    "http": "nginx/1.18.0",
    "snmp": "SNMPv2-agent",
    "iec104": "IEC104-telecontrol",
}

DEFAULT_SERVICE_USERS = {"http": "www-data"}

COMMON_SCAN_PORTS = (21, 22, 23, 80, 102, 161, 502, 2404)

EPHEMERAL_PORT_BASE = 40000
ISN_BASE = 10000
ISN_STRIDE = 1000

US_PER_S = 1_000_000


class NetError(Exception):
    pass


class Unreachable(NetError):
    pass


class ConnectionRefused(NetError):
    pass


class UnknownCommand(NetError):
    pass


class PermissionDenied(NetError):
    pass


class NoVector(NetError):
    pass


@dataclass(frozen=True)
class Vulnerability:
    id: str
    kind: str                 # pe_suid | pe_sudoers
    locus: str                # binary/script name


@dataclass
class Service:
    port: int
    kind: str
    banner: str = ""
    run_as: str = "root"
    rce: str = ""             # id of its command-injection weakness, "" for none

    def __post_init__(self):
        if not self.banner:
            self.banner = DEFAULT_BANNERS.get(self.kind, self.kind)


@dataclass
class Host:
    name: str
    interfaces: list[tuple[str, str]] = field(default_factory=list)  # (ip, cidr)
    services: list[Service] = field(default_factory=list)
    accounts: list[tuple[str, str]] = field(default_factory=list)    # (user, privilege)
    suid_binaries: list[str] = field(default_factory=list)
    sudoers_scripts: list[str] = field(default_factory=list)
    host_vulnerabilities: list[Vulnerability] = field(default_factory=list)
    command_hooks: dict[str, Callable[[list[str]], str]] = field(default_factory=dict)

    def service_on(self, port: int) -> Service | None:
        for service in self.services:
            if service.port == port:
                return service
        return None

    def privilege_of(self, user: str) -> str:
        for name, privilege in self.accounts:
            if name == user:
                return privilege
        return "user"

    def primary_ip(self) -> str:
        return self.interfaces[0][0]


class Link:
    """A bidirectional link; setting `up` clears the route memo of the
    network it belongs to."""

    def __init__(self, id: str, a: str, b: str, latency_us: int):
        self.id = id
        self.a = a
        self.b = b
        self.latency_us = latency_us
        self._up = True
        self._routes: dict | None = None  # set by Network.add_link

    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        self._up = value
        if self._routes:
            self._routes.clear()


@dataclass
class FirewallRule:
    action: str     # allow | deny
    src_net: ipaddress.IPv4Network | ipaddress.IPv6Network
    dst_net: ipaddress.IPv4Network | ipaddress.IPv6Network
    port: int | None = None


@dataclass
class Session:
    host: str
    user: str
    privilege: str


class TcpConnection:
    """One emulated TCP connection; both ends may send on the byte stream.

    The server end receives through its service's handler, the client end
    through `on_data(payload)`, which the client sets once `open_connection`
    has returned (so it does not see what the server sends on connect)."""

    def __init__(self, network, client_host, client_ip, client_port,
                 server_host, server_ip, server_port, latency_us):
        self.network = network
        self.client_host = client_host
        self.client_ip = client_ip
        self.client_port = client_port
        self.server_host = server_host
        self.server_ip = server_ip
        self.server_port = server_port
        self.latency_us = latency_us
        index = network._next_conn_index()
        self.client_seq = ISN_BASE + 2 * index * ISN_STRIDE
        self.server_seq = ISN_BASE + (2 * index + 1) * ISN_STRIDE
        self.closed = False
        self.handler = None
        self.on_data: Callable[[bytes], None] | None = None

    def _record(self, from_client: bool, flags: int, payload: bytes, t_us: int):
        size = len(payload) + (1 if flags & (SYN | FIN) else 0)
        if from_client:
            record = PacketRecord(t_us, self.client_ip, self.server_ip, self.client_port,
                                  self.server_port, flags, payload, self.client_seq,
                                  self.server_seq if flags & ACK else 0)
            self.client_seq += size
        else:
            record = PacketRecord(t_us, self.server_ip, self.client_ip, self.server_port,
                                  self.client_port, flags, payload, self.server_seq,
                                  self.client_seq if flags & ACK else 0)
            self.server_seq += size
        self.network.packet_log.append(record)

    def send(self, payload: bytes, at_s: int | None = None, from_server: bool = False):
        """Send bytes on the stream; the peer handler sees them after one path latency."""
        if self.closed:
            raise NetError("connection is closed")
        network = self.network
        if network.path_latency_us(self.client_host, self.server_host) is None:
            raise Unreachable(
                f"path between {self.client_host} and {self.server_host} is down"
            )
        # latency is never negative, so delivery never moves the clock back
        network._now_us = deliver_us = network._clock(at_s) + self.latency_us
        self._record(not from_server, PSH | ACK, payload, deliver_us)
        if from_server:
            if self.on_data is not None:
                self.on_data(payload)
        elif self.handler is not None:
            self.handler.on_client_data(self, payload)

    def close(self, at_s: int | None = None, from_server: bool = False):
        """Four-way teardown, started by the client or by the server."""
        if self.closed:
            return
        t = self.network._clock(at_s)
        lat = self.latency_us
        by_client = not from_server
        self._record(by_client, FIN | ACK, b"", t + lat)
        self._record(from_server, ACK, b"", t + 2 * lat)
        self._record(from_server, FIN | ACK, b"", t + 3 * lat)
        self._record(by_client, ACK, b"", t + 4 * lat)
        self.network._advance(t + 4 * lat)
        self.closed = True


class Network:
    def __init__(self):
        self.hosts: dict[str, Host] = {}
        self.switches: list[str] = []
        self.links: list[Link] = []
        self.firewall_rules: list[FirewallRule] = []
        self.packet_log: list[PacketRecord] = []
        self.ip_table: dict[str, str] = {}
        self._adjacency: dict[str, list[tuple[str, Link]]] = {}
        # (src host, dst host) -> path latency or None, for the current link states
        self._routes: dict[tuple[str, str], int | None] = {}
        self._handlers: dict[tuple[str, int], object] = {}
        self._connections: list[TcpConnection] = []
        self._conn_count = 0
        self._ephemeral = EPHEMERAL_PORT_BASE
        self._now_us = 0

    # -- construction ------------------------------------------------------

    def add_host(self, host: Host):
        if host.name in self._adjacency:
            raise NetError(f"duplicate node name '{host.name}'")
        for ip, cidr in host.interfaces:
            if ip in self.ip_table:
                raise NetError(f"ip {ip} assigned twice")
            try:
                inside = ipaddress.ip_address(ip) in ipaddress.ip_network(cidr)
            except ValueError as exc:
                raise NetError(f"{host.name}: {exc}") from None
            if not inside:
                raise NetError(f"{host.name}: ip {ip} not inside subnet {cidr}")
            self.ip_table[ip] = host.name
        self.hosts[host.name] = host
        self._adjacency[host.name] = []

    def add_switch(self, name: str):
        if name in self._adjacency:
            raise NetError(f"duplicate node name '{name}'")
        self.switches.append(name)
        self._adjacency[name] = []

    def add_link(self, link: Link):
        for end in (link.a, link.b):
            if end not in self._adjacency:
                raise NetError(f"link '{link.id}' references unknown node '{end}'")
        self.links.append(link)
        link._routes = self._routes
        self._routes.clear()
        self._adjacency[link.a].append((link.b, link))
        self._adjacency[link.b].append((link.a, link))

    def validate(self):
        if not self.hosts:
            raise NetError("topology has no hosts")
        first = next(iter(self.hosts))
        unreachable = [
            name for name in self.hosts if self.path_latency_us(first, name) is None
        ]
        if unreachable:
            raise NetError(f"hosts without a network path: {sorted(unreachable)}")

    # -- routing -----------------------------------------------------------

    def host_of_ip(self, ip: str) -> Host | None:
        name = self.ip_table.get(ip)
        return self.hosts.get(name) if name else None

    def path_latency_us(self, src_host: str, dst_host: str) -> int | None:
        """BFS hop-count route; returns summed link latency, None if unroutable.

        Results are memoised until a link is added or its `up` changes."""
        routes = self._routes
        key = (src_host, dst_host)
        if key not in routes:
            routes[key] = self._walk(src_host, dst_host)
        return routes[key]

    def _walk(self, src_host: str, dst_host: str) -> int | None:
        if src_host == dst_host:
            return 0
        best: dict[str, int] = {src_host: 0}
        queue = deque([src_host])
        while queue:
            node = queue.popleft()
            for peer, link in self._adjacency[node]:
                if not link.up or peer in best:
                    continue
                best[peer] = best[node] + link.latency_us
                if peer == dst_host:
                    return best[peer]
                queue.append(peer)
        return None

    def _firewall_allows(self, src_ip: str, dst_ip: str, port: int) -> bool:
        src = ipaddress.ip_address(src_ip)
        dst = ipaddress.ip_address(dst_ip)
        for rule in self.firewall_rules:
            if rule.port is not None and rule.port != port:
                continue
            if src in rule.src_net and dst in rule.dst_net:
                return rule.action == "allow"
        return True

    def _route_or_raise(self, src_host: str, dst_ip: str, port: int) -> tuple[Host, int]:
        dst = self.host_of_ip(dst_ip)
        if dst is None:
            raise Unreachable(f"no host owns {dst_ip}")
        latency = self.path_latency_us(src_host, dst.name)
        if latency is None:
            raise Unreachable(f"no path from {src_host} to {dst_ip}")
        src_ip = self.hosts[src_host].primary_ip()
        if not self._firewall_allows(src_ip, dst_ip, port):
            raise Unreachable(f"firewall denies {src_ip} -> {dst_ip}:{port}")
        return dst, latency

    # -- clock -------------------------------------------------------------

    def _clock(self, at_s: int | None) -> int:
        now_us = self._now_us
        if at_s is not None and at_s * US_PER_S > now_us:
            self._now_us = now_us = at_s * US_PER_S
        return now_us

    @property
    def now_s(self) -> int:
        """The network clock in whole seconds."""
        return self._now_us // US_PER_S

    def _advance(self, t_us: int):
        self._now_us = max(self._now_us, t_us)

    def _next_conn_index(self) -> int:
        self._conn_count += 1
        return self._conn_count - 1

    def _next_ephemeral(self) -> int:
        self._ephemeral += 1
        return self._ephemeral - 1

    # -- services ----------------------------------------------------------

    def register_handler(self, host_name: str, port: int, handler):
        """Attach a stateful handler object to a listening service."""
        host = self.hosts[host_name]
        if host.service_on(port) is None:
            raise NetError(f"{host_name} has no service on port {port}")
        self._handlers[(host_name, port)] = handler

    def _handler_for(self, host: Host, service: Service):
        handler = self._handlers.get((host.name, service.port))
        if handler is not None:
            return handler
        if service.kind == "http":
            return HttpHandler(self, host, service)
        return BannerHandler(service)

    # -- transport ---------------------------------------------------------

    def open_connection(self, src_host: str, dst_ip: str, dst_port: int,
                        at_s: int | None = None) -> TcpConnection:
        dst, latency = self._route_or_raise(src_host, dst_ip, dst_port)
        t = self._clock(at_s)
        src_ip = self.hosts[src_host].primary_ip()
        conn = TcpConnection(
            self, src_host, src_ip, self._next_ephemeral(),
            dst.name, dst_ip, dst_port, latency,
        )
        service = dst.service_on(dst_port)
        if service is None:
            conn._record(True, SYN, b"", t + latency)
            conn._record(False, RST | ACK, b"", t + 2 * latency)
            self._advance(t + 2 * latency)
            raise ConnectionRefused(f"{dst_ip}:{dst_port} has no listener")
        conn._record(True, SYN, b"", t + latency)
        conn._record(False, SYN | ACK, b"", t + 2 * latency)
        conn._record(True, ACK, b"", t + 3 * latency)
        self._advance(t + 3 * latency)
        conn.handler = self._handler_for(dst, service)
        self._connections.append(conn)
        conn.handler.on_connect(conn)
        return conn

    def close_all(self, at_s: int | None = None):
        """Close every connection and end the run's use of the network.

        Handlers and command hooks point back at the devices, which point
        at the network and their connections; dropping those references
        here lets the finished run be freed by reference counting."""
        for conn in self._connections:
            conn.close(at_s)
            conn.handler = conn.on_data = None
        self._connections.clear()
        self._handlers.clear()
        for host in self.hosts.values():
            host.command_hooks.clear()

    # -- scanning ----------------------------------------------------------

    def scan_subnet(self, from_host: str, subnet: str,
                    ports=COMMON_SCAN_PORTS, at_s: int | None = None) -> dict:
        """TCP SYN scan of every registered address in `subnet` except our own.

        Each probe logs a SYN and either a SYN-ACK (open) or RST (closed).
        """
        net = ipaddress.ip_network(subnet)
        own_ips = {ip for ip, _ in self.hosts[from_host].interfaces}
        targets = sorted(
            (ip for ip in self.ip_table if ipaddress.ip_address(ip) in net and ip not in own_ips),
            key=ipaddress.ip_address,
        )
        if targets and all(
            self.path_latency_us(from_host, self.ip_table[ip]) is None for ip in targets
        ):
            raise Unreachable(f"no route from {from_host} into {subnet}")
        report: dict[str, list[tuple[int, str, str]]] = {}
        src_ip = self.hosts[from_host].primary_ip()
        for ip in targets:
            host = self.host_of_ip(ip)
            latency = self.path_latency_us(from_host, host.name)
            if latency is None:
                continue
            open_ports = []
            for port in sorted(ports):
                t = self._clock(at_s)
                probe = PacketRecord(
                    t_us=t + latency, src_ip=src_ip, dst_ip=ip,
                    src_port=self._next_ephemeral(), dst_port=port,
                    tcp_flags=SYN, payload=b"", seq=0, ack=0,
                )
                self.packet_log.append(probe)
                service = host.service_on(port)
                allowed = self._firewall_allows(src_ip, ip, port)
                flags = SYN | ACK if (service is not None and allowed) else RST | ACK
                self.packet_log.append(
                    PacketRecord(
                        t_us=t + 2 * latency, src_ip=ip, dst_ip=src_ip,
                        src_port=port, dst_port=probe.src_port,
                        tcp_flags=flags, payload=b"", seq=0, ack=1,
                    )
                )
                self._advance(t + 2 * latency)
                if service is not None and allowed:
                    open_ports.append((port, service.kind, service.banner))
            report[ip] = open_ports
        return report

    # -- sessions and shell ------------------------------------------------

    def open_session(self, ip: str, port: int) -> Session:
        """Open a shell as the service's user through its RCE weakness."""
        host = self.host_of_ip(ip)
        service = host.service_on(port) if host is not None else None
        if service is None or not service.rce:
            raise NoVector(f"{ip}:{port} has no RCE weakness")
        return Session(host.name, service.run_as, host.privilege_of(service.run_as))

    def escalate(self, session: Session, method: str) -> Vulnerability:
        """Privilege escalation through an attached pe_suid/pe_sudoers weakness."""
        host = self.hosts[session.host]
        kind = "pe_suid" if method == "suid" else "pe_sudoers"
        pool = host.suid_binaries if method == "suid" else host.sudoers_scripts
        for vuln in host.host_vulnerabilities:
            if vuln.kind == kind and vuln.locus in pool:
                session.privilege = "admin"
                session.user = "root"
                return vuln
        raise NoVector(f"{session.host} has no exploitable {kind} vector")

    def exec_command(self, session: Session, cmdline: str) -> str:
        """Evaluate the fixed shell vocabulary in a session; returns its output."""
        host = self.hosts[session.host]
        argv = cmdline.split()
        if not argv:
            raise UnknownCommand("empty command line")
        cmd = argv[0]
        if cmd == "whoami":
            return session.user
        if cmd == "find" and argv[1:4] == ["/", "-perm", "-4000"]:
            return "\n".join(f"/usr/local/bin/{name}" for name in host.suid_binaries)
        if cmd == "sudo" and argv[1:] == ["-l"]:
            if not host.sudoers_scripts:
                return f"Sorry, user {session.user} may not run sudo on {host.name}."
            lines = [f"User {session.user} may run the following commands on {host.name}:"]
            lines += [f"    (root) NOPASSWD: /usr/local/sbin/{s}" for s in host.sudoers_scripts]
            return "\n".join(lines)
        hook = host.command_hooks.get(cmd)
        if hook is None:
            raise UnknownCommand(f"command not recognized: {cmd}")
        if session.privilege != "admin":
            raise PermissionDenied(f"'{cmd}' requires admin privilege")
        return hook(argv[1:])

    def register_command(self, host_name: str, name: str, hook: Callable[[list[str]], str]):
        """Add an admin-only shell command `hook(args) -> output` to a host."""
        self.hosts[host_name].command_hooks[name] = hook


class BannerHandler:
    """Connect-time banner push for ssh/telnet/snmp-style services."""

    def __init__(self, service: Service):
        self.service = service

    def on_connect(self, conn: TcpConnection):
        conn.send((self.service.banner + "\r\n").encode(), from_server=True)

    def on_client_data(self, conn: TcpConnection, payload: bytes):
        pass


class HttpHandler:
    """Minimal HTTP request/response stub with an optional command-injection CGI."""

    def __init__(self, network: Network, host: Host, service: Service):
        self.network = network
        self.host = host
        self.service = service
        self.buffer = b""

    def on_connect(self, conn: TcpConnection):
        pass

    def _respond(self, conn: TcpConnection, status: str, body: str):
        payload = (
            f"HTTP/1.1 {status}\r\n"
            f"Server: {self.service.banner}\r\n"
            f"Content-Type: text/plain\r\n"
            f"Content-Length: {len(body.encode())}\r\n"
            f"\r\n{body}"
        ).encode()
        conn.send(payload, from_server=True)

    def on_client_data(self, conn: TcpConnection, payload: bytes):
        self.buffer += payload
        if b"\r\n\r\n" not in self.buffer:
            return
        request, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        line = request.split(b"\r\n", 1)[0].decode(errors="replace")
        parts = line.split()
        if len(parts) != 3 or parts[0] != "GET":
            self._respond(conn, "400 Bad Request", "bad request\n")
            return
        path = parts[1]
        if path.startswith("/cgi-bin/exec?cmd="):
            command = path[len("/cgi-bin/exec?cmd="):].replace("+", " ")
            if not self.service.rce:
                self._respond(conn, "404 Not Found", "no such endpoint\n")
                return
            user = self.service.run_as
            session = Session(self.host.name, user, self.host.privilege_of(user))
            try:
                output = self.network.exec_command(session, command)
            except (UnknownCommand, PermissionDenied) as exc:
                self._respond(conn, "500 Internal Server Error", f"{exc}\n")
                return
            self._respond(conn, "200 OK", output + "\n")
            return
        self._respond(conn, "200 OK", f"<html>{self.service.banner}</html>\n")


TOPOLOGY_SECTIONS = ("host", "switch", "link", "firewall")
HOST_KEYS = ("interface", "service", "account", "suid", "sudoers")
LINK_ATTRS = frozenset(("a", "b", "latency_ms"))


def parse_topology(text: str, source: str = "<topology>") -> Network:
    network = Network()
    sections = parse_config(text, source)
    check_kinds(sections, TOPOLOGY_SECTIONS)
    for section in sections_of(sections, "host"):
        if not section.name:
            raise section.error("host section needs a name")
        section.only(*HOST_KEYS)
        host = Host(name=section.name)
        for entry in section.entries:
            if entry.key == "interface":
                tokens = entry.value.split()
                if len(tokens) != 2:
                    raise entry.error("interface = <ip> <cidr>")
                host.interfaces.append((tokens[0], tokens[1]))
            elif entry.key == "service":
                (kind, port_raw), opts = entry.split(
                    2, f"service = <{'|'.join(SERVICE_KINDS)}> <port> ...",
                    ("banner", "run_as", "rce"),
                )
                if kind not in SERVICE_KINDS:
                    raise entry.error(f"unknown service kind '{kind}'")
                port = entry.convert(port_raw, f"{kind} service port", int)
                if any(s.port == port for s in host.services):
                    raise entry.error(f"host '{host.name}' repeats service port {port}")
                host.services.append(Service(
                    port=port, kind=kind,
                    banner=opts.get("banner", ""),
                    run_as=opts.get("run_as", DEFAULT_SERVICE_USERS.get(kind, "root")),
                    rce=opts.get("rce", ""),
                ))
            elif entry.key == "account":
                tokens = entry.value.split()
                if len(tokens) != 2 or tokens[1] not in ("user", "admin"):
                    raise entry.error("account = <user> <user|admin>")
                host.accounts.append((tokens[0], tokens[1]))
            else:  # suid or sudoers
                (name,), opts = entry.split(
                    1, f"{entry.key} = <name> [vuln=<id>]", ("vuln",)
                )
                if entry.key == "suid":
                    host.suid_binaries.append(name)
                    vuln_kind = "pe_suid"
                else:
                    host.sudoers_scripts.append(name)
                    vuln_kind = "pe_sudoers"
                if vuln := opts.get("vuln"):
                    host.host_vulnerabilities.append(
                        Vulnerability(id=vuln, kind=vuln_kind, locus=name)
                    )
        if not host.interfaces:
            raise section.error(f"host '{host.name}' has no interface")
        network.add_host(host)
    for section in sections_of(sections, "switch"):
        if not section.name:
            raise section.error("switch section needs a name")
        section.only()
        network.add_switch(section.name)
    for section in sections_of(sections, "link"):
        section.only(rows=LINK_ATTRS)
        for row in section.rows:
            latency_ms = row.get_float("latency_ms", 0.0)
            if latency_ms < 0:
                raise row.error("latency_ms must be >= 0")
            try:
                network.add_link(
                    Link(id=row.id, a=row.require("a"), b=row.require("b"),
                         latency_us=int(latency_ms * 1000))
                )
            except NetError as exc:
                raise row.error(str(exc)) from None
    for section in sections_of(sections, "firewall"):
        section.only("allow", "deny")
        for entry in section.entries:
            cidrs, opts = entry.split(2, f"{entry.key} = <src-cidr> <dst-cidr> [port=N]",
                                      ("port",))
            try:
                src_net, dst_net = (ipaddress.ip_network(cidr) for cidr in cidrs)
            except ValueError as exc:
                raise entry.error(f"{entry.key}: {exc}") from None
            network.firewall_rules.append(
                FirewallRule(action=entry.key, src_net=src_net, dst_net=dst_net,
                             port=opts.get_int("port", None))
            )
    network.validate()
    return network


def load_topology(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read(), source=str(path))

