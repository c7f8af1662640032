import pytest

from gridcosim.netsim import (
    ConnectionRefused,
    NetError,
    NoVector,
    PermissionDenied,
    Unreachable,
    UnknownCommand,
    parse_topology,
)
from gridcosim.pcap import ACK, PSH, RST, SYN, read_pcap, write_pcap

STAR = """
[host h1]
interface = 10.0.0.1 10.0.0.0/24
service = ssh 22
account = root admin

[host h2]
interface = 10.0.0.2 10.0.0.0/24
service = http 80 rce=CVE-2099-1111
account = root admin
account = www-data user
suid = backup-tool vuln=CVE-2099-2222

[host h3]
interface = 10.0.0.3 10.0.0.0/24
account = user1 user
sudoers = maint.sh vuln=CVE-2099-3333
service = telnet 23

[switch sw]

[link]
l1 a=h1 b=sw latency_ms=1
l2 a=h2 b=sw latency_ms=1
l3 a=h3 b=sw latency_ms=1
"""


@pytest.fixture
def star():
    return parse_topology(STAR)


class TestTopology:
    def test_pairwise_latency_is_sum(self, star):
        assert star.path_latency_us("h1", "h2") == 2000
        assert star.path_latency_us("h2", "h3") == 2000

    def test_duplicate_ip_rejected(self):
        with pytest.raises(NetError, match=r"ip 10\.0\.0\.1 assigned twice"):
            parse_topology(STAR.replace("10.0.0.2 ", "10.0.0.1 ", 1))

    def test_disconnected_host_rejected(self):
        text = STAR + "\n[host lone]\ninterface = 10.0.9.1 10.0.9.0/24\n"
        with pytest.raises(NetError, match=r"hosts without a network path: \['lone'\]"):
            parse_topology(text)

    def test_fig2_style_topology_reachability(self):
        text = """
[host mtu]
interface = 10.0.1.10 10.0.1.0/24
[host rtu1]
interface = 10.0.2.11 10.0.2.0/24
service = iec104 2404
[host rtu2]
interface = 10.0.2.12 10.0.2.0/24
service = iec104 2404
[host der1]
interface = 10.0.2.13 10.0.2.0/24
[host kali]
interface = 10.0.2.99 10.0.2.0/24
[switch edge]
[link]
l1 a=mtu b=edge latency_ms=1
l2 a=rtu1 b=edge latency_ms=1
l3 a=rtu2 b=edge latency_ms=1
l4 a=der1 b=edge latency_ms=1
l5 a=kali b=edge latency_ms=1
"""
        network = parse_topology(text)
        assert len(network.hosts) == 5
        names = list(network.hosts)
        for a in names:
            for b in names:
                assert network.path_latency_us(a, b) is not None


class TestTransport:
    def test_send_to_listener_delivers_after_latency(self, star):
        conn = star.open_connection("h1", "10.0.0.3", 23, at_s=10)
        sent_us = star.packet_log[-1].t_us  # the telnet banner sets the clock
        conn.send(b"hello")
        record = star.packet_log[-1]
        assert record.payload == b"hello"
        assert record.t_us - sent_us == 2000

    def test_send_to_closed_port_refused_with_rst(self, star):
        with pytest.raises(ConnectionRefused):
            star.open_connection("h1", "10.0.0.3", 9999, at_s=0)
        assert star.packet_log[-1].tcp_flags & RST

    def test_in_order_delivery_on_one_connection(self, star):
        received = []

        class Collector:
            def on_connect(self, conn):
                pass

            def on_client_data(self, conn, data):
                received.append(data)

        star.register_handler("h3", 23, Collector())
        conn = star.open_connection("h1", "10.0.0.3", 23, at_s=0)
        conn.send(b"first")
        conn.send(b"second")
        assert received == [b"first", b"second"]
        log_payloads = [r.payload for r in star.packet_log if r.payload]
        assert log_payloads.index(b"first") < log_payloads.index(b"second")

    def test_handshake_recorded_as_three_flag_records(self, star):
        before = len(star.packet_log)
        star.open_connection("h1", "10.0.0.2", 80, at_s=0)
        syn, synack, ack = star.packet_log[before : before + 3]
        assert syn.tcp_flags == SYN and syn.payload == b""
        assert synack.tcp_flags == SYN | ACK
        assert ack.tcp_flags == ACK

    def test_timestamps_non_decreasing(self, star):
        star.open_connection("h1", "10.0.0.2", 80, at_s=0)
        star.open_connection("h3", "10.0.0.2", 80, at_s=0)
        star.scan_subnet("h1", "10.0.0.0/24", ports=(22, 80), at_s=1)
        times = [r.t_us for r in star.packet_log]
        assert times == sorted(times)

    def test_unreachable_when_link_down(self, star):
        star.links[0].up = False  # h1 <-> sw
        with pytest.raises(Unreachable):
            star.open_connection("h1", "10.0.0.2", 80, at_s=0)

    def test_send_follows_link_state_both_ways(self, star):
        conn = star.open_connection("h1", "10.0.0.3", 23, at_s=0)
        conn.send(b"up")  # the route is now memoised
        star.links[2].up = False  # h3 <-> sw
        with pytest.raises(Unreachable):
            conn.send(b"down")
        assert star.path_latency_us("h1", "h3") is None
        star.links[2].up = True
        conn.send(b"up again")
        assert star.packet_log[-1].payload == b"up again"
        assert star.path_latency_us("h1", "h3") == 2000

    def test_send_clock_and_sequence_bookkeeping(self, star):
        class Quiet:
            def on_connect(self, conn):
                pass

            def on_client_data(self, conn, data):
                pass

        star.register_handler("h3", 23, Quiet())
        conn = star.open_connection("h1", "10.0.0.3", 23, at_s=5)
        latency = star.path_latency_us("h1", "h3")
        handshake_ack = star.packet_log[-1]
        assert handshake_ack.t_us == 5_000_000 + 3 * latency  # the clock after connecting
        client_seq, server_seq = handshake_ack.seq, handshake_ack.ack
        sends = [
            (b"abc", 1, False, 5_000_000 + 4 * latency),  # an earlier at_s keeps the clock
            (b"de", None, False, 5_000_000 + 5 * latency),
            (b"fghi", 9, False, 9_000_000 + latency),     # a later at_s moves it forward
            (b"reply", None, True, 9_000_000 + 2 * latency),
            (b"j", 9, False, 9_000_000 + 3 * latency),
        ]
        for payload, at_s, from_server, t_us in sends:
            conn.send(payload, at_s=at_s, from_server=from_server)
            record = star.packet_log[-1]
            assert record.t_us == t_us  # clock + path latency
            assert record.payload == payload and record.tcp_flags == PSH | ACK
            if from_server:
                assert (record.src_ip, record.src_port) == ("10.0.0.3", 23)
                assert (record.seq, record.ack) == (server_seq, client_seq)
                server_seq += len(payload)
            else:
                assert (record.dst_ip, record.dst_port) == ("10.0.0.3", 23)
                assert (record.seq, record.ack) == (client_seq, server_seq)
                client_seq += len(payload)
        assert star.now_s == 9
        conn.close()
        fin = star.packet_log[-4]
        assert (fin.t_us, fin.seq, fin.ack) == (9_000_000 + 4 * latency, client_seq, server_seq)


class TestScan:
    def test_scan_reports_open_ports_with_banners(self, star):
        report = star.scan_subnet("h1", "10.0.0.0/24", at_s=0)
        assert set(report) == {"10.0.0.2", "10.0.0.3"}  # own ip excluded
        assert ("80", "http") in {(str(p), k) for p, k, _b in report["10.0.0.2"]}
        banners = {b for _p, _k, b in report["10.0.0.2"]}
        assert any("nginx" in b for b in banners)

    def test_probe_count_is_hosts_times_ports(self, star):
        ports = (22, 23, 80, 2404)
        before = len(star.packet_log)
        star.scan_subnet("h1", "10.0.0.0/24", ports=ports, at_s=0)
        probes = [
            r for r in star.packet_log[before:] if r.tcp_flags == SYN
        ]
        assert len(probes) == 2 * len(ports)  # N hosts x P ports
        # every probe got exactly one answer (SYN-ACK or RST)
        answers = [
            r for r in star.packet_log[before:] if r.tcp_flags in (SYN | ACK, RST | ACK)
        ]
        assert len(answers) == len(probes)

    def test_empty_subnet_empty_report(self, star):
        report = star.scan_subnet("h1", "10.0.99.0/24", at_s=0)
        assert report == {}

    def test_firewall_blocks_scanned_port(self):
        network = parse_topology(
            STAR + "\n[firewall]\ndeny = 10.0.0.0/24 10.0.0.0/24 port=23\n"
        )
        report = network.scan_subnet("h1", "10.0.0.0/24", ports=(23, 80), at_s=0)
        assert report["10.0.0.3"] == []
        assert [p for p, _k, _b in report["10.0.0.2"]] == [80]


class TestShell:
    def rce_session(self, network):
        return network.open_session("10.0.0.2", 80)

    def test_whoami(self, star):
        session = self.rce_session(star)
        assert star.exec_command(session, "whoami") == "www-data"

    def test_find_suid_lists_configured_binaries(self, star):
        session = self.rce_session(star)
        output = star.exec_command(session, "find / -perm -4000")
        assert output == "/usr/local/bin/backup-tool"

    def test_sudo_l_lists_scripts_or_denies(self, star):
        session = self.rce_session(star)
        assert "may not run sudo" in star.exec_command(session, "sudo -l")

    def test_unknown_command(self, star):
        session = self.rce_session(star)
        with pytest.raises(UnknownCommand):
            star.exec_command(session, "nmap -sS 10.0.0.0/24")

    def test_admin_hook_denied_for_user(self, star):
        star.register_command("h2", "rtu-override", lambda args: "ok")
        session = self.rce_session(star)
        with pytest.raises(PermissionDenied):
            star.exec_command(session, "rtu-override install scale factor=0.5")

    def test_escalate_via_suid(self, star):
        session = self.rce_session(star)
        assert session.privilege == "user"
        vuln = star.escalate(session, "suid")
        assert vuln.id == "CVE-2099-2222"
        assert session.privilege == "admin"

    def test_escalate_without_vector_fails(self, star):
        session = self.rce_session(star)
        with pytest.raises(NoVector):
            star.escalate(session, "sudoers")  # h2 has a suid vector only

    def test_session_only_via_attached_vulnerability(self, star):
        with pytest.raises(NoVector):
            star.open_session("10.0.0.1", 22)  # ssh has no RCE


class TestHttp:
    def request(self, network, segments, ip="10.0.0.2"):
        conn = network.open_connection("h1", ip, 80, at_s=0)
        response = bytearray()
        conn.on_data = response.extend
        for segment in segments:
            conn.send(segment)
        return bytes(response).decode()

    def test_request_split_across_segments(self, star):
        first, second = b"GET /cgi-bin/exec?cmd=who", b"ami HTTP/1.1\r\n\r\n"
        assert self.request(star, [first]) == ""
        response = self.request(star, [first, second])
        assert response.startswith("HTTP/1.1 200 OK\r\n") and response.endswith("\r\nwww-data\n")

    def test_non_get_request_is_bad(self, star):
        response = self.request(star, [b"POST / HTTP/1.1\r\n\r\n"])
        assert response.startswith("HTTP/1.1 400 Bad Request\r\n")
        assert response.endswith("\r\nbad request\n")

    def test_exec_without_rce_is_not_found(self):
        network = parse_topology(STAR.replace("http 80 rce=CVE-2099-1111", "http 80"))
        response = self.request(network, [b"GET /cgi-bin/exec?cmd=whoami HTTP/1.1\r\n\r\n"])
        assert response.startswith("HTTP/1.1 404 Not Found\r\n")
        assert response.endswith("\r\nno such endpoint\n")

    @pytest.mark.parametrize("cmd, message", [
        ("nmap", "command not recognized: nmap"),
        ("rtu-override+install", "'rtu-override' requires admin privilege"),
    ], ids=["unknown", "not_admin"])
    def test_failed_command_is_a_server_error(self, cmd, message, star):
        star.register_command("h2", "rtu-override", lambda args: "ok")
        request = f"GET /cgi-bin/exec?cmd={cmd} HTTP/1.1\r\n\r\n".encode()
        response = self.request(star, [request])
        assert response.startswith("HTTP/1.1 500 Internal Server Error\r\n")
        assert response.endswith(f"\r\n{message}\n")

    def test_plain_get_serves_the_banner_page(self, star):
        response = self.request(star, [b"GET / HTTP/1.1\r\n\r\n"])
        banner = star.hosts["h2"].service_on(80).banner
        assert response.startswith("HTTP/1.1 200 OK\r\n")
        assert response.endswith(f"\r\n<html>{banner}</html>\n")


class TestPcapExport:
    def test_export_and_reimport(self, star, tmp_path):
        star.open_connection("h1", "10.0.0.2", 80, at_s=0)
        star.close_all(at_s=1)
        path = tmp_path / "cap.pcap"
        count = write_pcap(path, star.packet_log)
        back = read_pcap(path)
        assert len(back) == count == len(star.packet_log)

    def test_every_received_byte_logged_exactly_once(self, star):
        received = []

        class Collector:
            def on_connect(self, conn):
                pass

            def on_client_data(self, conn, data):
                received.append(bytes(data))

        star.register_handler("h3", 23, Collector())
        conn = star.open_connection("h1", "10.0.0.3", 23, at_s=0)
        conn.send(b"alpha")
        conn.send(b"beta")
        logged = [bytes(r.payload) for r in star.packet_log if r.payload]
        for chunk in received:
            assert logged.count(chunk) == 1
