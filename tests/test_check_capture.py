"""tests/check_capture.py passes the capture of every pinned scenario, and
fails on a copy of one with a single field corrupted."""

import os
import struct

import pytest

import check_capture
from conftest import PINNED
from gridcosim.scenario import load_scenario, run_scenario


def _capture(tmp_path, name):
    outputs = run_scenario(load_scenario(PINNED[name]), outdir=str(tmp_path / name))
    return os.path.join(outputs.outdir, "capture.pcap")


def test_pinned_captures_pass(tmp_path, capsys):
    paths = [_capture(tmp_path, name) for name in sorted(PINNED)]
    for path in paths:
        errors, frames, apdus = check_capture.check(path)
        assert errors == [] and frames > 0 and apdus > 0, path
    assert check_capture.main(paths) == 0
    assert capsys.readouterr().out.endswith(f"in {len(paths)} captures, 0 faults\n")


def _segments(data):
    """(frame offset, TCP header offset, payload offset, frame end) per frame."""
    for start, size in check_capture.records(data):
        tcp = start + 14 + (data[start + 14] & 0x0F) * 4
        yield start, tcp, tcp + (data[tcp + 12] >> 4) * 4, start + size


def _third_i_frame(data):
    """The segment of the third I-frame in the direction of port 2404 that
    carries the most I-frames."""
    by_direction = {}
    for start, tcp, payload, end in _segments(data):
        if payload < end and data[payload + 2] & 0x01 == 0:
            direction = bytes(data[start + 26:start + 34] + data[tcp:tcp + 4])
            if struct.unpack_from(">H", data, tcp)[0] == check_capture.IEC104_PORT:
                by_direction.setdefault(direction, []).append((start, tcp, payload, end))
    return max(by_direction.values(), key=len)[2]


def _refresh_tcp_checksum(buf, start, tcp, _payload, end):
    struct.pack_into(">H", buf, tcp + 16, 0)
    pseudo = buf[start + 26:start + 34] + struct.pack(">BBH", 0, 6, end - tcp)
    struct.pack_into(">H", buf, tcp + 16, 0xFFFF - check_capture.word_sum(pseudo + buf[tcp:end]))


# name -> (segment offset it starts from: 0 frame, 1 TCP header, 2 payload,
# 3 frame end; octet offset from there; the octet's new value; whether the TCP
# checksum is made right again, so that only the field's own check can fail;
# the fault the checker must name)
CORRUPTIONS = {
    "ipv4_header_bit": (0, 22, lambda octet: octet ^ 0x01, False, "checksum"),  # TTL
    "tcp_header_bit": (1, 14, lambda octet: octet ^ 0x01, False, "checksum"),   # window
    "last_payload_bit": (3, -1, lambda octet: octet ^ 0x01, False, "checksum"),
    "tcp_seq": (1, 7, lambda octet: octet ^ 0x01, True, "TCP seq"),
    "start_octet": (2, 0, lambda octet: 0x69, True, "start octet"),
    "vsq": (2, 7, lambda octet: 2, True, "object count"),
    "n_s": (2, 2, lambda octet: octet ^ 0x02, True, "N(S)"),  # bit 0 of N(S)
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_capture_fails(tmp_path, corruption):
    part, offset, change, refresh, fault = CORRUPTIONS[corruption]
    with open(_capture(tmp_path, "scada_burst"), "rb") as fh:
        buf = bytearray(fh.read())
    segment = _third_i_frame(buf)
    buf[segment[part] + offset] = change(buf[segment[part] + offset])
    if refresh:
        _refresh_tcp_checksum(buf, *segment)
    path = tmp_path / "corrupted.pcap"
    path.write_bytes(bytes(buf))
    errors, _, _ = check_capture.check(str(path))
    assert errors and all(fault in error for error in errors), errors
    assert check_capture.main([str(path)]) == 1
