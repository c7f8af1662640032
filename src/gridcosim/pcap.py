"""Classic libpcap file synthesis from abstract packet records.

Frames are reconstructed as Ethernet II / IPv4 / TCP with correct length
fields and checksums so the capture dissects cleanly in standard tools.
Global header: magic 0xa1b2c3d4, version 2.4, linktype 1 (Ethernet).

A run sends many segments over few flows, so the per-direction part of a
frame is built once: `_flow` caches, per (source, destination) address pair,
the Ethernet header (MACs derived from the addresses), the 8 address bytes
that the IPv4 header and the TCP pseudo-header share, and the sums of the
words of both checksums that do not change from frame to frame. The cache is
a bounded `functools.lru_cache`; an evicted flow is simply built again.

Each checksum is the Internet checksum (RFC 1071), the complement of the
ones'-complement sum of the big-endian 16-bit words. As 2**16 = 1 (mod
0xFFFF), that sum is congruent to the plain sum of the fields, a 32-bit field
or the payload read as one big-endian integer included (RFC 1624). Both headers
hold a non-zero word, whose sum folds to 0xFFFF, never to 0, so the checksum is
the negated sum modulo 0xFFFF.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
LINKTYPE_ETHERNET = 1
SNAPLEN = 65535

ETHERTYPE_IPV4 = 0x0800
IP_PROTO_TCP = 6
IP_TTL = 64

# TCP flag bits
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10

FLAG_NAMES = (("FIN", FIN), ("SYN", SYN), ("RST", RST), ("PSH", PSH), ("ACK", ACK))

FLOW_CACHE_SIZE = 4096

WRITE_BATCH = 1024  # records per write to the capture file

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
# Ethernet header; IPv4: version/IHL, DSCP/ECN, total length, id, flags (DF),
# TTL, protocol, checksum, source and destination addresses; TCP: source
# port, destination port, seq, ack, data offset (5 words), flags, window,
# checksum, urgent pointer
_FRAME_HEADER = struct.Struct(">14sBBHHHBBH8sHHIIBBHHH")
_IP_CONSTANT_WORDS = 0x4500 + 0x4000 + (IP_TTL << 8 | IP_PROTO_TCP)  # version/IHL, DF, TTL/proto
_TCP_CONSTANT_WORDS = IP_PROTO_TCP + 0x5000 + 0xFFFF  # pseudo-header protocol, offset, window


def flags_text(flags: int) -> str:
    names = [name for name, bit in FLAG_NAMES if flags & bit]
    return "|".join(names) if names else "none"


@dataclass(slots=True)
class PacketRecord:
    """One captured segment; timestamps are microseconds since scenario start."""

    t_us: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    tcp_flags: int
    payload: bytes = b""
    seq: int = 0
    ack: int = 0


class PcapError(Exception):
    pass


def _ip_bytes(ip: str) -> bytes:
    parts = ip.split(".")
    if len(parts) != 4:
        raise PcapError(f"bad IPv4 address {ip!r}")
    return bytes(int(p) for p in parts)


@functools.lru_cache(maxsize=FLOW_CACHE_SIZE)
def _flow(src_ip: str, dst_ip: str) -> tuple[bytes, bytes, int, int]:
    """Ethernet header, source+destination address bytes, and the constant
    word sums of the IPv4 header and of the TCP pseudo-header and header,
    for one direction."""
    src = _ip_bytes(src_ip)
    dst = _ip_bytes(dst_ip)
    # locally administered MACs derived from the IPs: stable and collision-free
    eth = b"\x02\x00" + dst + b"\x02\x00" + src + ETHERTYPE_IPV4.to_bytes(2, "big")
    addrs = src + dst
    addr_sum = int.from_bytes(addrs, "big")
    return eth, addrs, _IP_CONSTANT_WORDS + addr_sum, _TCP_CONSTANT_WORDS + addr_sum


def build_frame(record: PacketRecord, ip_id: int) -> bytes:
    """Synthesize the Ethernet/IPv4/TCP frame for one record."""
    eth, addrs, ip_sum, tcp_sum = _flow(record.src_ip, record.dst_ip)
    payload = record.payload
    tcp_len = 20 + len(payload)
    ip_id &= 0xFFFF
    sport, dport = record.src_port, record.dst_port
    seq, ack = record.seq & 0xFFFFFFFF, record.ack & 0xFFFFFFFF
    flags = record.tcp_flags & 0x3F
    # an odd-length payload is padded with one zero byte
    tcp_sum += (tcp_len + sport + dport + seq + ack + flags
                + (int.from_bytes(payload, "big") << (len(payload) & 1) * 8))
    ip_sum += 20 + tcp_len + ip_id
    return _FRAME_HEADER.pack(
        eth, 0x45, 0, 20 + tcp_len, ip_id, 0x4000, IP_TTL, IP_PROTO_TCP, -ip_sum % 0xFFFF,
        addrs, sport, dport, seq, ack, 5 << 4, flags, 65535, -tcp_sum % 0xFFFF, 0,
    ) + payload


def write_pcap(path, records) -> int:
    """Write records to `path` in classic pcap format; returns the record count.

    Records are built and written WRITE_BATCH at a time, so memory does not
    grow with the capture."""
    count = 0
    with open(path, "wb") as fh:
        fh.write(
            _GLOBAL_HEADER.pack(
                PCAP_MAGIC,
                PCAP_VERSION[0],
                PCAP_VERSION[1],
                0,  # thiszone
                0,  # sigfigs
                SNAPLEN,
                LINKTYPE_ETHERNET,
            )
        )
        batch = []
        last_t = -1
        pack_header = _RECORD_HEADER.pack
        for record in records:
            t_us = record.t_us
            if t_us < last_t:
                raise PcapError("packet timestamps must be non-decreasing")
            last_t = t_us
            count += 1
            frame = build_frame(record, count)
            size = len(frame)
            batch += (pack_header(t_us // 1_000_000, t_us % 1_000_000, size, size), frame)
            if not count % WRITE_BATCH:
                fh.write(b"".join(batch))
                batch.clear()
        fh.write(b"".join(batch))
    return count


def read_pcap(path) -> list[PacketRecord]:
    """Read back a capture written by write_pcap (strict, Ethernet/IPv4/TCP only)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 24:
        raise PcapError("file shorter than the pcap global header")
    magic, vmaj, vmin, _tz, _sig, _snap, linktype = _GLOBAL_HEADER.unpack_from(data)
    if magic != PCAP_MAGIC:
        raise PcapError(f"bad magic 0x{magic:08x}")
    if (vmaj, vmin) != PCAP_VERSION or linktype != LINKTYPE_ETHERNET:
        raise PcapError("unsupported pcap version or linktype")
    records = []
    offset = 24
    while offset < len(data):
        if offset + 16 > len(data):
            raise PcapError("truncated record header")
        ts_sec, ts_usec, incl_len, orig_len = _RECORD_HEADER.unpack_from(data, offset)
        offset += 16
        if incl_len != orig_len or offset + incl_len > len(data):
            raise PcapError("truncated or sliced record")
        frame = data[offset : offset + incl_len]
        offset += incl_len
        if len(frame) < 54:
            raise PcapError("frame shorter than Ethernet+IPv4+TCP headers")
        if struct.unpack(">H", frame[12:14])[0] != ETHERTYPE_IPV4:
            raise PcapError("not an IPv4 frame")
        ip = frame[14:34]
        ihl = (ip[0] & 0x0F) * 4
        total_len = struct.unpack(">H", ip[2:4])[0]
        if ip[0] >> 4 != 4 or ihl < 20 or ip[9] != IP_PROTO_TCP:
            raise PcapError(f"not an IPv4/TCP header: version {ip[0] >> 4}, "
                            f"IHL {ihl // 4}, protocol {ip[9]}")
        if 14 + total_len > len(frame) or total_len < ihl + 20:
            raise PcapError(f"IPv4 total length {total_len} outside {ihl + 20}..{len(frame) - 14}")
        src_ip = ".".join(str(b) for b in ip[12:16])
        dst_ip = ".".join(str(b) for b in ip[16:20])
        tcp = frame[14 + ihl : 14 + total_len]
        src_port, dst_port = struct.unpack(">HH", tcp[:4])
        seq, ack = struct.unpack(">II", tcp[4:12])
        data_off = (tcp[12] >> 4) * 4
        if not 20 <= data_off <= len(tcp):
            raise PcapError(f"TCP data offset {data_off} outside the {len(tcp)}-byte segment")
        flags = tcp[13] & 0x3F
        payload = tcp[data_off:]
        records.append(
            PacketRecord(
                t_us=ts_sec * 1_000_000 + ts_usec,
                src_ip=src_ip,
                dst_ip=dst_ip,
                src_port=src_port,
                dst_port=dst_port,
                tcp_flags=flags,
                payload=payload,
                seq=seq,
                ack=ack,
            )
        )
    return records
