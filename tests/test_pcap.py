import struct
from dataclasses import replace

import pytest

from gridcosim.pcap import (
    ACK,
    FIN,
    PSH,
    RST,
    SYN,
    TIME_S_MAX,
    PacketRecord,
    PcapError,
    build_frame,
    read_pcap,
    write_pcap,
)


def record(t_us=1000, payload=b"", flags=SYN, sport=40000, dport=2404):
    return PacketRecord(
        t_us=t_us, src_ip="10.0.0.1", dst_ip="10.0.0.2",
        src_port=sport, dst_port=dport, tcp_flags=flags,
        payload=payload, seq=100, ack=200,
    )


def ones_complement_sum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def checksum_fields(frame: bytes) -> tuple[int, int]:
    """The IPv4 and TCP checksums that `frame` carries."""
    return struct.unpack(">H", frame[24:26])[0], struct.unpack(">H", frame[50:52])[0]


def word_sum_checksums(frame: bytes) -> tuple[int, int]:
    """The IPv4 and TCP checksums of `frame` recomputed as RFC 1071 word
    sums, over the headers with their checksum fields zeroed."""
    ip = frame[14:34]
    total_len = struct.unpack(">H", ip[2:4])[0]
    tcp = frame[34 : 14 + total_len]
    pseudo = ip[12:20] + struct.pack(">BBH", 0, 6, len(tcp))
    ip_csum = ~ones_complement_sum(ip[:10] + b"\x00\x00" + ip[12:]) & 0xFFFF
    tcp_csum = ~ones_complement_sum(pseudo + tcp[:16] + b"\x00\x00" + tcp[18:]) & 0xFFFF
    return ip_csum, tcp_csum


@pytest.mark.parametrize("data", [
    b"", b"\x01", b"\x00\x00", b"\xff", b"\xff" * 2, b"\xff" * 3, b"\xff" * 64,
    b"\xff" * 65, b"\x80\x00" * 40, bytes(range(256)), bytes(range(255)),
    b"\xff\xfe" + b"\x00\x01",
], ids=lambda data: f"{len(data)}B-{data[:2].hex()}")
def test_checksum_matches_word_sum(data):
    # all-0xFF payloads make the payload's word sum a multiple of 0xFFFF,
    # and odd lengths are padded with one zero byte
    frame = build_frame(record(payload=data, flags=PSH | ACK), ip_id=1)
    assert frame[54:] == data
    assert checksum_fields(frame) == word_sum_checksums(frame)


@pytest.mark.parametrize("ip_id, seq, ack, flags", [
    (65535, 0, 0, SYN),
    (65536, 2**32 - 1, 2**32 - 1, SYN | ACK),
    (70000, 2**32, 2**32 + 1, FIN),
    (2, 2**40 + 3, 2**33, FIN | ACK),
    (3, 2**32 + 2**31, 7, RST),
    (4, 5, 2**32 - 1, RST | ACK),
])
@pytest.mark.parametrize("payload", [b"", b"\x01", b"\x68\x04"])
def test_frame_checksums_with_wrapped_fields(ip_id, seq, ack, flags, payload):
    # the frame carries ip_id mod 2**16 and seq/ack mod 2**32
    rec = replace(record(payload=payload, flags=flags), seq=seq, ack=ack)
    frame = build_frame(rec, ip_id)
    assert struct.unpack(">H", frame[18:20])[0] == ip_id % 2**16
    assert struct.unpack(">II", frame[38:46]) == (seq % 2**32, ack % 2**32)
    assert frame[47] == flags
    assert checksum_fields(frame) == word_sum_checksums(frame)


def test_word_sum_of_0xffff_gives_checksum_0():
    # a non-zero ones'-complement sum folds to 0xFFFF, never to 0, so a
    # header whose words sum to 0xFFFF carries the checksum 0: choose the IP
    # id and a 2-byte payload that complete each sum to 0xFFFF
    ip_csum, tcp_csum = checksum_fields(build_frame(record(payload=b"\x00\x00"), ip_id=0))
    frame = build_frame(record(payload=tcp_csum.to_bytes(2, "big")), ip_id=ip_csum)
    assert checksum_fields(frame) == word_sum_checksums(frame) == (0, 0)


def test_empty_log_is_24_byte_file(tmp_path):
    path = tmp_path / "empty.pcap"
    assert write_pcap(path, []) == 0
    data = path.read_bytes()
    assert len(data) == 24
    magic, vmaj, vmin = struct.unpack("<IHH", data[:8])
    assert (magic, vmaj, vmin) == (0xA1B2C3D4, 2, 4)
    assert struct.unpack("<I", data[20:24])[0] == 1  # linktype ethernet


def test_single_record_file_length(tmp_path):
    payload = b"\x68\x04\x07\x00\x00\x00"
    path = tmp_path / "one.pcap"
    write_pcap(path, [record(payload=payload, flags=PSH | ACK)])
    frame_len = 14 + 20 + 20 + len(payload)
    assert path.stat().st_size == 24 + 16 + frame_len


def test_ip_and_tcp_checksums_verify():
    frame = build_frame(record(payload=b"hello", flags=PSH | ACK), ip_id=1)
    ip_header = frame[14:34]
    assert ones_complement_sum(ip_header) == 0xFFFF
    total_len = struct.unpack(">H", ip_header[2:4])[0]
    tcp = frame[34 : 14 + total_len]
    pseudo = ip_header[12:20] + struct.pack(">BBH", 0, 6, len(tcp))
    assert ones_complement_sum(pseudo + tcp) == 0xFFFF


def test_timestamps_must_not_decrease(tmp_path):
    with pytest.raises(PcapError):
        write_pcap(tmp_path / "bad.pcap", [record(t_us=2000), record(t_us=1000)])


def test_record_time_past_the_32_bit_seconds_is_refused(tmp_path):
    last = (TIME_S_MAX + 1) * 1_000_000 - 1
    path = tmp_path / "edge.pcap"
    assert write_pcap(path, [record(t_us=0), record(t_us=last)]) == 2
    assert read_pcap(path)[1].t_us == last
    with pytest.raises(PcapError, match=f"packet time {last + 1} us is past second {TIME_S_MAX}"):
        write_pcap(tmp_path / "bad.pcap", [record(t_us=0), record(t_us=last + 1)])


def test_roundtrip_through_reader(tmp_path):
    records = [
        record(t_us=1_500_000, flags=SYN),
        record(t_us=1_501_000, payload=b"abc", flags=PSH | ACK),
    ]
    path = tmp_path / "rt.pcap"
    write_pcap(path, records)
    back = read_pcap(path)
    assert len(back) == 2
    assert back[0].tcp_flags == SYN and back[0].payload == b""
    assert back[1].payload == b"abc"
    assert back[1].t_us == 1_501_000
    assert back[1].src_ip == "10.0.0.1" and back[1].dst_port == 2404
    assert back[1].seq == 100 and back[1].ack == 200
