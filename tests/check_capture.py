"""Check the frames of libpcap captures, with the standard library alone.

It shares no code with `gridcosim.pcap` or `gridcosim.iec104`, so a fault in
the frame builder or the codec cannot hide from it. Each capture is read once.

- Every frame: the IPv4 header checksum and the TCP checksum (RFC 1071).
- Every TCP direction: a segment's sequence number is the previous one plus
  the previous payload length, plus one for SYN or FIN. RST segments are
  exempt, as a port scan's replies carry sequence number 0.
- Every direction of a port-2404 flow, reassembled: each APDU starts with
  0x68; an I-frame's length octet is 10 + count x (3 + element size) of its
  type id (SQ=0), an S- or U-frame's is 4; no bytes are left over; and the
  N(S) of consecutive I-frames steps by 1 modulo 32 768.

Usage: python tests/check_capture.py CAPTURE...
It names each fault and exits 1 if it finds any.
"""

import struct
import sys

IEC104_PORT = 2404
SEQ_MODULO = 32768
ELEMENT_SIZE = {1: 1, 13: 5, 45: 1, 50: 5, 100: 1}  # per IEC 104 type id
SYN_OR_FIN = 0x03
RST = 0x04


def word_sum(data: bytes) -> int:
    """The ones'-complement sum of the big-endian 16-bit words of `data`."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def records(data: bytes):
    """Yield the (offset, size) of each frame after the 24-octet global header."""
    offset = 24
    while offset < len(data):
        size = struct.unpack_from("<I", data, offset + 8)[0]
        yield offset + 16, size
        offset += 16 + size


def apdu_error(apdu: bytes) -> str | None:
    if apdu[0] != 0x68:
        return "no 0x68 start octet"
    if apdu[2] & 0x01:
        return None if apdu[1] == 4 else "S- or U-frame length octet is not 4"
    if apdu[1] < 10 or apdu[6] not in ELEMENT_SIZE or apdu[7] & 0x80:
        return "I-frame header is short, of an unknown type or SQ=1"
    if apdu[1] != 10 + apdu[7] * (3 + ELEMENT_SIZE[apdu[6]]):
        return "I-frame length octet does not match its object count"
    return None


def stream_errors(stream: bytes) -> tuple[list[str], int]:
    """The faults in one direction's IEC 104 byte stream, and its APDU count."""
    pos = apdus = 0
    last_ns = None
    while pos < len(stream):
        end = pos + 2 + stream[pos + 1] if pos + 1 < len(stream) else pos + 2
        apdus += 1
        if end > len(stream):
            return [f"APDU at {pos}: the capture ends inside this APDU"], apdus
        error = apdu_error(stream[pos:end])
        if error:  # nothing after a bad APDU can be framed
            return [f"APDU at {pos}: {error}"], apdus
        if stream[pos + 2] & 0x01 == 0:
            ns = struct.unpack_from("<H", stream, pos + 2)[0] >> 1
            if last_ns is not None and ns != (last_ns + 1) % SEQ_MODULO:
                return [f"APDU at {pos}: I-frame N(S)={ns} after N(S)={last_ns}"], apdus
            last_ns = ns
        pos = end
    return [], apdus


def check(path: str) -> tuple[list[str], int, int]:
    """The faults found in one capture, its frame count and its APDU count."""
    with open(path, "rb") as fh:
        data = fh.read()
    errors = []
    next_seq = {}  # TCP direction -> the sequence number its next segment carries
    streams = {}   # port-2404 direction -> its payloads in order
    index = -1
    for index, (start, size) in enumerate(records(data)):
        frame = data[start:start + size]
        ip = frame[14:14 + (frame[14] & 0x0F) * 4]
        tcp = frame[14 + len(ip):14 + struct.unpack(">H", ip[2:4])[0]]
        pseudo = ip[12:20] + struct.pack(">BBH", 0, ip[9], len(tcp))
        if word_sum(ip) != 0xFFFF or word_sum(pseudo + tcp) != 0xFFFF:
            errors.append(f"{path}: frame {index}: bad IPv4 or TCP checksum")
        sport, dport, seq = struct.unpack(">HHI", tcp[:8])
        flags = tcp[13]
        payload = tcp[(tcp[12] >> 4) * 4:]
        key = (ip[12:16], sport, ip[16:20], dport)
        if not flags & RST:
            expected = next_seq.get(key)
            if expected is not None and seq != expected:
                errors.append(f"{path}: frame {index}: TCP seq {seq}, expected {expected}")
            next_seq[key] = (seq + len(payload) + (1 if flags & SYN_OR_FIN else 0)) % 2**32
        if IEC104_PORT in (sport, dport) and payload:
            streams.setdefault(key, []).append(payload)
    apdus = 0
    for (_, sport, _, dport), payloads in streams.items():
        faults, count = stream_errors(b"".join(payloads))
        errors += [f"{path}: {sport} -> {dport}: {fault}" for fault in faults]
        apdus += count
    return errors, index + 1, apdus


def main(paths: list[str]) -> int:
    frames = apdus = 0
    errors = []
    for path in paths:
        faults, frame_count, apdu_count = check(path)
        errors += faults
        frames += frame_count
        apdus += apdu_count
    for error in errors:
        print(error)
    print(f"{frames} frames and {apdus} IEC 104 APDUs in {len(paths)} captures, "
          f"{len(errors)} faults")
    return 1 if errors or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
