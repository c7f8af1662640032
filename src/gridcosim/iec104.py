"""IEC 60870-5-104 codec and connection state machine (telecontrol subset).

Supported ASDU types:
  1   M_SP_NA_1  single-point information
  13  M_ME_NC_1  measured value, short float
  45  C_SC_NA_1  single command
  50  C_SE_NC_1  set-point command, short float
  100 C_IC_NA_1  (general) interrogation command

Fixed profile: 2-octet cause of transmission (cause + originator), 2-octet
common address, 3-octet information object address, k=12, w=8.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Literal

START_BYTE = 0x68
MAX_LENGTH = 253
MIN_LENGTH = 4
SEQ_MODULO = 32768

K_UNACKED_LIMIT = 12  # k: max I-frames sent without acknowledgement
W_ACK_THRESHOLD = 8   # w: received I-frames that force an S-frame ack

# Type identifiers
M_SP_NA_1 = 1
M_ME_NC_1 = 13
C_SC_NA_1 = 45
C_SE_NC_1 = 50
C_IC_NA_1 = 100

TYPE_NAMES = {
    M_SP_NA_1: "M_SP_NA_1",
    M_ME_NC_1: "M_ME_NC_1",
    C_SC_NA_1: "C_SC_NA_1",
    C_SE_NC_1: "C_SE_NC_1",
    C_IC_NA_1: "C_IC_NA_1",
}

# Information-element size per type (after the 3-octet IOA)
_ELEMENT_SIZE = {
    M_SP_NA_1: 1,
    M_ME_NC_1: 5,
    C_SC_NA_1: 1,
    C_SE_NC_1: 5,
    C_IC_NA_1: 1,
}

# Causes of transmission
COT_SPONTANEOUS = 3
COT_ACTIVATION = 6
COT_ACTCON = 7
COT_ACTTERM = 10
COT_INTERROGATED = 20
COT_UNKNOWN_IOA = 47

# U-frame function octets (control octet 1)
U_STARTDT_ACT = 0x07
U_STARTDT_CON = 0x0B
U_STOPDT_ACT = 0x13
U_STOPDT_CON = 0x23
U_TESTFR_ACT = 0x43
U_TESTFR_CON = 0x83

U_NAMES = {
    U_STARTDT_ACT: "STARTDT_act",
    U_STARTDT_CON: "STARTDT_con",
    U_STOPDT_ACT: "STOPDT_act",
    U_STOPDT_CON: "STOPDT_con",
    U_TESTFR_ACT: "TESTFR_act",
    U_TESTFR_CON: "TESTFR_con",
}

QOI_STATION = 20  # qualifier of interrogation: station interrogation


class Iec104Error(Exception):
    pass


class Oversize(Iec104Error):
    pass


class InvalidSequence(Iec104Error):
    pass


class BadStartByte(Iec104Error):
    pass


class LengthOutOfRange(Iec104Error):
    pass


class UnknownTypeId(Iec104Error):
    def __init__(self, type_id: int):
        super().__init__(f"unknown ASDU type id {type_id}")
        self.type_id = type_id


class TruncatedAsdu(Iec104Error):
    pass


class ProtocolViolation(Iec104Error):
    pass


class NeedMoreBytes(Iec104Error):
    """Decode input is a valid prefix; `needed` more bytes complete the APDU."""

    def __init__(self, needed: int):
        super().__init__(f"need {needed} more bytes")
        self.needed = needed


@dataclass(frozen=True)
class InfoObject:
    """One information object: address plus a type-dependent value/quality pair.

    value: float for measured values and set-points, int (raw octet) for
    single points, commands and interrogation qualifiers.
    quality: quality/qualifier octet where the type carries one, else 0.
    """

    ioa: int
    value: float | int = 0
    quality: int = 0


@dataclass(frozen=True)
class Asdu:
    type_id: int
    cot: int
    common_address: int
    objects: tuple[InfoObject, ...]
    originator: int = 0

    def __post_init__(self):
        if self.type_id not in _ELEMENT_SIZE:
            raise UnknownTypeId(self.type_id)
        if not 1 <= len(self.objects) <= 127:
            raise Iec104Error("ASDU must carry between 1 and 127 objects")


FrameKind = Literal["I", "S", "U"]


@dataclass(frozen=True)
class Apdu:
    kind: FrameKind
    send_seq: int = 0
    recv_seq: int = 0
    u_function: int = 0
    asdu: Asdu | None = None


def i_frame(send_seq: int, recv_seq: int, asdu: Asdu) -> Apdu:
    return Apdu(kind="I", send_seq=send_seq, recv_seq=recv_seq, asdu=asdu)


def s_frame(recv_seq: int) -> Apdu:
    return Apdu(kind="S", recv_seq=recv_seq)


def u_frame(function: int) -> Apdu:
    if function not in U_NAMES:
        raise Iec104Error(f"unknown U function 0x{function:02x}")
    return Apdu(kind="U", u_function=function)


def _pack_ioa(ioa: int) -> bytes:
    if not 0 <= ioa <= 0xFFFFFF:
        raise Iec104Error(f"IOA {ioa} outside 3-octet range")
    return struct.pack("<I", ioa)[:3]


def _pack_object(type_id: int, obj: InfoObject) -> bytes:
    head = _pack_ioa(obj.ioa)
    if type_id == M_SP_NA_1:
        return head + bytes([(obj.quality & 0xF0) | (int(obj.value) & 0x01)])
    if type_id == M_ME_NC_1:
        return head + struct.pack("<f", float(obj.value)) + bytes([obj.quality & 0xFF])
    if type_id == C_SC_NA_1:
        return head + bytes([int(obj.value) & 0xFF])
    if type_id == C_SE_NC_1:
        return head + struct.pack("<f", float(obj.value)) + bytes([obj.quality & 0xFF])
    if type_id == C_IC_NA_1:
        return head + bytes([int(obj.value) & 0xFF])
    raise UnknownTypeId(type_id)


def _unpack_object(type_id: int, buf: bytes) -> InfoObject:
    ioa = struct.unpack("<I", buf[:3] + b"\x00")[0]
    body = buf[3:]
    if type_id == M_SP_NA_1:
        return InfoObject(ioa=ioa, value=body[0] & 0x01, quality=body[0] & 0xF0)
    if type_id == M_ME_NC_1:
        return InfoObject(ioa=ioa, value=struct.unpack("<f", body[:4])[0], quality=body[4])
    if type_id == C_SC_NA_1:
        return InfoObject(ioa=ioa, value=body[0])
    if type_id == C_SE_NC_1:
        return InfoObject(ioa=ioa, value=struct.unpack("<f", body[:4])[0], quality=body[4])
    if type_id == C_IC_NA_1:
        return InfoObject(ioa=ioa, value=body[0])
    raise UnknownTypeId(type_id)


def encode_asdu(asdu: Asdu) -> bytes:
    header = struct.pack(
        "<BBBBH",
        asdu.type_id,
        len(asdu.objects) & 0x7F,  # VSQ: SQ=0, object count
        asdu.cot & 0xFF,
        asdu.originator & 0xFF,
        asdu.common_address & 0xFFFF,
    )
    return header + b"".join(_pack_object(asdu.type_id, o) for o in asdu.objects)


def decode_asdu(buf: bytes) -> Asdu:
    if len(buf) < 6:
        raise TruncatedAsdu("ASDU header needs 6 octets")
    type_id, vsq, cot, originator, common_address = struct.unpack("<BBBBH", buf[:6])
    if type_id not in _ELEMENT_SIZE:
        raise UnknownTypeId(type_id)
    if vsq & 0x80:
        raise TruncatedAsdu("sequence-of-elements VSQ not supported")
    count = vsq & 0x7F
    if count < 1:
        raise TruncatedAsdu("VSQ object count must be >= 1")
    obj_size = 3 + _ELEMENT_SIZE[type_id]
    body = buf[6:]
    if len(body) != count * obj_size:
        raise TruncatedAsdu(
            f"expected {count * obj_size} object octets, got {len(body)}"
        )
    objects = tuple(
        _unpack_object(type_id, body[i * obj_size : (i + 1) * obj_size])
        for i in range(count)
    )
    return Asdu(
        type_id=type_id,
        cot=cot,
        common_address=common_address,
        objects=objects,
        originator=originator,
    )


def _check_seq(seq: int) -> int:
    if not 0 <= seq < SEQ_MODULO:
        raise InvalidSequence(f"sequence number {seq} outside 0..32767")
    return seq


def encode(apdu: Apdu) -> bytes:
    """Encode one APDU: start byte, length octet, 4 control octets, ASDU."""
    if apdu.kind == "I":
        if apdu.asdu is None:
            raise Iec104Error("I-frame needs an ASDU")
        control = struct.pack(
            "<HH", _check_seq(apdu.send_seq) << 1, _check_seq(apdu.recv_seq) << 1
        )
        body = control + encode_asdu(apdu.asdu)
    elif apdu.kind == "S":
        body = struct.pack("<HH", 0x0001, _check_seq(apdu.recv_seq) << 1)
    elif apdu.kind == "U":
        if apdu.u_function not in U_NAMES:
            raise Iec104Error(f"unknown U function 0x{apdu.u_function:02x}")
        body = bytes([apdu.u_function, 0, 0, 0])
    else:
        raise Iec104Error(f"unknown frame kind {apdu.kind!r}")
    if len(body) > MAX_LENGTH:
        raise Oversize(f"APDU length {len(body)} exceeds {MAX_LENGTH}")
    return bytes([START_BYTE, len(body)]) + body


def decode(buf: bytes) -> tuple[Apdu, int]:
    """Decode one APDU from the head of `buf`; returns (apdu, octets consumed).

    Raises NeedMoreBytes when `buf` holds only a prefix; nothing is consumed.
    Never reads past the declared length.
    """
    if len(buf) < 2:
        raise NeedMoreBytes(2 - len(buf))
    if buf[0] != START_BYTE:
        raise BadStartByte(f"expected 0x68, got 0x{buf[0]:02x}")
    length = buf[1]
    if not MIN_LENGTH <= length <= MAX_LENGTH:
        raise LengthOutOfRange(f"length octet {length} outside {MIN_LENGTH}..{MAX_LENGTH}")
    total = 2 + length
    if len(buf) < total:
        raise NeedMoreBytes(total - len(buf))
    ctrl = buf[2:6]
    payload = bytes(buf[6:total])
    if ctrl[0] & 0x01 == 0:
        send_seq = struct.unpack("<H", ctrl[0:2])[0] >> 1
        recv_seq = struct.unpack("<H", ctrl[2:4])[0] >> 1
        asdu = decode_asdu(payload)
        return i_frame(send_seq, recv_seq, asdu), total
    if ctrl[0] & 0x03 == 0x01:
        if length != 4:
            raise LengthOutOfRange("S-frame length must be 4")
        recv_seq = struct.unpack("<H", ctrl[2:4])[0] >> 1
        return s_frame(recv_seq), total
    if length != 4:
        raise LengthOutOfRange("U-frame length must be 4")
    if ctrl[0] not in U_NAMES or ctrl[1] or ctrl[2] or ctrl[3]:
        raise ProtocolViolation(f"malformed U-frame control field {ctrl.hex()}")
    return u_frame(ctrl[0]), total


def decode_stream(buf: bytes) -> tuple[list[Apdu], int]:
    """Decode as many complete APDUs as the buffer holds; returns (apdus, consumed)."""
    apdus: list[Apdu] = []
    offset = 0
    while offset < len(buf):
        try:
            apdu, used = decode(buf[offset:])
        except NeedMoreBytes:
            break
        apdus.append(apdu)
        offset += used
    return apdus, offset


@dataclass
class ConnectionState:
    """Sequence/keep-alive state for one side of a 104 connection.

    The controlling station (MTU) opens data transfer with STARTDT_act;
    the controlled station (RTU) confirms. I-frames flow only while started.
    """

    role: Literal["controlling", "controlled"]
    started: bool = False
    vs: int = 0              # next send sequence number
    vr: int = 0              # next expected receive sequence number
    unacked_sent: int = 0    # our I-frames not yet acknowledged by the peer
    unacked_recv: int = 0    # peer I-frames we have not yet acknowledged
    start_pending: bool = False
    pending: deque = field(default_factory=deque)  # ASDUs waiting for start/window

    def _emit_i(self, asdu: Asdu) -> Apdu:
        apdu = i_frame(self.vs, self.vr, asdu)
        self.vs = (self.vs + 1) % SEQ_MODULO
        self.unacked_sent += 1
        self.unacked_recv = 0  # N(R) piggybacks the ack
        return apdu

    def _flush(self) -> list[Apdu]:
        out = []
        while self.pending and self.unacked_sent < K_UNACKED_LIMIT:
            out.append(self._emit_i(self.pending.popleft()))
        return out

    def send(self, asdu: Asdu) -> list[Apdu]:
        """Queue an ASDU for transmission; returns the APDUs to put on the wire."""
        if not self.started:
            self.pending.append(asdu)
            if self.role == "controlling" and not self.start_pending:
                self.start_pending = True
                return [u_frame(U_STARTDT_ACT)]
            return []
        self.pending.append(asdu)
        return self._flush()

    def _apply_ack(self, recv_seq: int) -> None:
        acked_base = (self.vs - self.unacked_sent) % SEQ_MODULO
        delta = (recv_seq - acked_base) % SEQ_MODULO
        if delta > self.unacked_sent:
            raise ProtocolViolation(
                f"N(R)={recv_seq} acknowledges frames never sent (unacked={self.unacked_sent})"
            )
        self.unacked_sent -= delta

    def received(self, apdu: Apdu) -> list[Apdu]:
        """Process one received APDU; returns APDUs to put on the wire."""
        if apdu.kind == "U":
            if apdu.u_function == U_STARTDT_ACT:
                self.started = True
                return [u_frame(U_STARTDT_CON)] + self._flush()
            if apdu.u_function == U_STARTDT_CON:
                if self.start_pending:
                    self.start_pending = False
                    self.started = True
                return self._flush()
            if apdu.u_function == U_STOPDT_ACT:
                self.started = False
                return [u_frame(U_STOPDT_CON)]
            if apdu.u_function == U_TESTFR_ACT:
                return [u_frame(U_TESTFR_CON)]
            return []  # STOPDT_con / TESTFR_con
        if apdu.kind == "S":
            self._apply_ack(apdu.recv_seq)
            return self._flush()
        # I-frame
        if not self.started:
            raise ProtocolViolation("I-frame received before STARTDT")
        if apdu.send_seq != self.vr:
            raise ProtocolViolation(
                f"I-frame N(S)={apdu.send_seq}, expected {self.vr}"
            )
        self.vr = (self.vr + 1) % SEQ_MODULO
        self._apply_ack(apdu.recv_seq)
        self.unacked_recv += 1
        out = self._flush()  # an emitted I-frame piggybacks the ack
        if self.unacked_recv >= W_ACK_THRESHOLD:
            self.unacked_recv = 0
            out.append(s_frame(self.vr))
        return out
