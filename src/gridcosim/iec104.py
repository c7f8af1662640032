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
from dataclasses import dataclass
from typing import Literal

START_BYTE = 0x68
MAX_LENGTH = 253
MIN_LENGTH = 4
SEQ_MODULO = 32768
IOA_MAX = 0xFFFFFF              # 3-octet information object address
COMMON_ADDRESS_MAX = 0xFFFF     # 2-octet common address

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


class NeedMoreBytes(Iec104Error):
    """Decode input is a valid prefix; `needed` more bytes complete the APDU."""

    def __init__(self, needed: int):
        super().__init__(f"need {needed} more bytes")
        self.needed = needed


@dataclass(slots=True)
class InfoObject:
    """One information object: address plus a type-dependent value/quality pair.

    value: float for measured values and set-points, int (raw octet) for
    single points, commands and interrogation qualifiers.
    quality: quality/qualifier octet where the type carries one, else 0.
    """

    ioa: int
    value: float | int = 0
    quality: int = 0


# slots, not frozen: every report segment builds an InfoObject, an Asdu and
# an Apdu on each side, and a frozen dataclass pays object.__setattr__ per field.
# `encode` checks the type id and the 1..127 object count; `decode` builds
# only ASDUs that pass both.
@dataclass(slots=True)
class Asdu:
    type_id: int
    cot: int
    common_address: int
    objects: tuple[InfoObject, ...]
    originator: int = 0


FrameKind = Literal["I", "S", "U"]


@dataclass(slots=True)
class Apdu:
    kind: FrameKind
    send_seq: int = 0
    recv_seq: int = 0
    u_function: int = 0
    asdu: Asdu | None = None


def i_frame(send_seq: int, recv_seq: int, asdu: Asdu) -> Apdu:
    return Apdu("I", send_seq, recv_seq, 0, asdu)


def s_frame(recv_seq: int) -> Apdu:
    return Apdu("S", 0, recv_seq)


def u_frame(function: int) -> Apdu:
    if function not in U_NAMES:
        raise Iec104Error(f"unknown U function 0x{function:02x}")
    return Apdu("U", 0, 0, function)


# start byte, length octet, control octets 1-2 and 3-4 (little-endian words)
_APCI = struct.Struct("<BBHH")
_FLOAT_TYPES = (M_ME_NC_1, C_SE_NC_1)


class _IFrameStructs(dict):
    """(type id, object count) -> the Struct of the whole I-frame: the APCI;
    type id, VSQ, cause, originator, common address; then per object the IOA
    as its low 16 bits and high octet and the information element (a short
    float and a quality octet, or one octet: SIQ, SCO or QOI). Built on first
    use; only frames within MAX_LENGTH are kept."""

    def __missing__(self, key: tuple[int, int]) -> struct.Struct:
        type_id, count = key
        if type_id not in _ELEMENT_SIZE:
            raise Iec104Error(f"unknown ASDU type id {type_id}")
        length = 10 + count * (3 + _ELEMENT_SIZE[type_id])
        if length > MAX_LENGTH:
            raise Iec104Error(f"APDU length {length} exceeds {MAX_LENGTH}")
        obj = "HBfB" if type_id in _FLOAT_TYPES else "HBB"
        frame = self[key] = struct.Struct("<BBHHBBBBH" + obj * count)
        return frame


_I_FRAMES = _IFrameStructs()


def _check_seq(seq: int) -> int:
    if not 0 <= seq < SEQ_MODULO:
        raise Iec104Error(f"sequence number {seq} outside 0..32767")
    return seq


def encode(apdu: Apdu) -> bytes:
    """Encode one APDU: start byte, length octet, 4 control octets, ASDU."""
    kind = apdu.kind
    if kind == "I":
        asdu = apdu.asdu
        if asdu is None:
            raise Iec104Error("I-frame needs an ASDU")
        type_id, objects, common_address = asdu.type_id, asdu.objects, asdu.common_address
        if not 1 <= len(objects) <= 127:
            raise Iec104Error("ASDU must carry between 1 and 127 objects")
        fields = [START_BYTE, 0, _check_seq(apdu.send_seq) << 1, _check_seq(apdu.recv_seq) << 1,
                  type_id, len(objects), asdu.cot & 0xFF, asdu.originator & 0xFF,
                  common_address]  # VSQ: SQ=0, object count
        if not 0 <= common_address <= COMMON_ADDRESS_MAX:
            raise Iec104Error(f"common address {common_address} outside 2-octet range")
        for obj in objects:
            ioa = obj.ioa
            if not 0 <= ioa <= IOA_MAX:
                raise Iec104Error(f"IOA {ioa} outside 3-octet range")
            if type_id in _FLOAT_TYPES:
                fields += (ioa & 0xFFFF, ioa >> 16, float(obj.value), obj.quality & 0xFF)
            elif type_id == M_SP_NA_1:
                fields += (ioa & 0xFFFF, ioa >> 16, obj.quality & 0xF0 | int(obj.value) & 0x01)
            else:
                fields += (ioa & 0xFFFF, ioa >> 16, int(obj.value) & 0xFF)
        frame = _I_FRAMES[type_id, len(objects)]
        fields[1] = frame.size - 2
        return frame.pack(*fields)
    if kind == "S":
        return _APCI.pack(START_BYTE, 4, 0x0001, _check_seq(apdu.recv_seq) << 1)
    if kind == "U":
        if apdu.u_function not in U_NAMES:
            raise Iec104Error(f"unknown U function 0x{apdu.u_function:02x}")
        return bytes((START_BYTE, 4, apdu.u_function, 0, 0, 0))
    raise Iec104Error(f"unknown frame kind {kind!r}")


def decode(buf: bytes, offset: int = 0) -> tuple[Apdu, int]:
    """Decode one APDU starting at `buf[offset]`; returns (apdu, octets consumed).

    Raises NeedMoreBytes when the rest of `buf` holds only a prefix; nothing
    is consumed. Never reads past the declared length.
    """
    available = len(buf) - offset
    if available < 2:
        raise NeedMoreBytes(2 - available)
    if buf[offset] != START_BYTE:
        raise Iec104Error(f"expected 0x68, got 0x{buf[offset]:02x}")
    length = buf[offset + 1]
    if not MIN_LENGTH <= length <= MAX_LENGTH:
        raise Iec104Error(f"length octet {length} outside {MIN_LENGTH}..{MAX_LENGTH}")
    total = 2 + length
    if available < total:
        raise NeedMoreBytes(total - available)
    if buf[offset + 2] & 0x01 == 0:
        if length < 10:
            raise Iec104Error("ASDU header needs 6 octets")
        type_id, vsq = buf[offset + 6], buf[offset + 7]
        if type_id not in _ELEMENT_SIZE:
            raise Iec104Error(f"unknown ASDU type id {type_id}")
        if vsq & 0x80:
            raise Iec104Error("sequence-of-elements VSQ not supported")
        if vsq < 1:
            raise Iec104Error("VSQ object count must be >= 1")
        body = vsq * (3 + _ELEMENT_SIZE[type_id])
        if length - 10 != body:
            raise Iec104Error(f"expected {body} object octets, got {length - 10}")
        values = _I_FRAMES[type_id, vsq].unpack_from(buf, offset)
        if type_id in _FLOAT_TYPES:
            if vsq == 1:  # a report's one object: no list to build
                objects = (InfoObject(values[9] | values[10] << 16, values[11], values[12]),)
            else:
                objects = tuple([InfoObject(values[i] | values[i + 1] << 16, values[i + 2],
                                            values[i + 3]) for i in range(9, len(values), 4)])
        elif type_id == M_SP_NA_1:
            objects = tuple([InfoObject(values[i] | values[i + 1] << 16, values[i + 2] & 0x01,
                                        values[i + 2] & 0xF0) for i in range(9, len(values), 3)])
        else:
            objects = tuple([InfoObject(values[i] | values[i + 1] << 16, values[i + 2])
                             for i in range(9, len(values), 3)])
        asdu = Asdu(type_id, values[6], values[8], objects, values[7])
        return Apdu("I", values[2] >> 1, values[3] >> 1, 0, asdu), total
    _, _, control_1, control_2 = _APCI.unpack_from(buf, offset)
    if length != 4:
        kind = "S" if control_1 & 0x03 == 0x01 else "U"
        raise Iec104Error(f"{kind}-frame length must be 4")
    if control_1 & 0x03 == 0x01:
        return s_frame(control_2 >> 1), total
    function = control_1 & 0xFF
    if function not in U_NAMES or control_1 >> 8 or control_2:
        ctrl = bytes(buf[offset + 2 : offset + 6])
        raise Iec104Error(f"malformed U-frame control field {ctrl.hex()}")
    return u_frame(function), total


def decode_stream(buf: bytes) -> tuple[list[Apdu], int]:
    """Decode as many complete APDUs as the buffer holds; returns (apdus, consumed)."""
    apdus: list[Apdu] = []
    offset = 0
    end = len(buf)
    while offset < end:
        try:
            apdu, used = decode(buf, offset)
        except NeedMoreBytes:
            break
        apdus.append(apdu)
        offset += used
    return apdus, offset


@dataclass
class ConnectionState:
    """Sequence/keep-alive state for one side of a 104 connection.

    The controlling station (MTU) opens data transfer with STARTDT_act
    (`start`); the controlled station (RTU) confirms. An I-frame goes out
    only while `can_send` holds; what cannot go out waits with the caller.
    """

    started: bool = False
    vs: int = 0              # next send sequence number
    vr: int = 0              # next expected receive sequence number
    unacked_sent: int = 0    # our I-frames not yet acknowledged by the peer
    unacked_recv: int = 0    # peer I-frames we have not yet acknowledged
    start_pending: bool = False

    @property
    def can_send(self) -> bool:
        """Data transfer is started and the k window admits one more I-frame."""
        return self.started and self.unacked_sent < K_UNACKED_LIMIT

    def send(self, asdu: Asdu) -> Apdu:
        """The I-frame that carries `asdu`; an Iec104Error unless `can_send`."""
        if not self.can_send:
            raise Iec104Error(
                "I-frame sent before STARTDT" if not self.started
                else f"I-frame sent with k={K_UNACKED_LIMIT} I-frames unacknowledged")
        apdu = i_frame(self.vs, self.vr, asdu)
        self.vs = (self.vs + 1) % SEQ_MODULO
        self.unacked_sent += 1
        self.unacked_recv = 0  # N(R) piggybacks the ack
        return apdu

    def start(self) -> Apdu:
        """Ask the peer to start data transfer; returns the STARTDT_act."""
        self.start_pending = True
        return u_frame(U_STARTDT_ACT)

    def _apply_ack(self, recv_seq: int) -> None:
        acked_base = (self.vs - self.unacked_sent) % SEQ_MODULO
        delta = (recv_seq - acked_base) % SEQ_MODULO
        if delta > self.unacked_sent:
            raise Iec104Error(
                f"N(R)={recv_seq} acknowledges frames never sent (unacked={self.unacked_sent})"
            )
        self.unacked_sent -= delta

    def received(self, apdu: Apdu) -> Apdu | None:
        """Process one received APDU; returns the APDU to put on the wire, if any."""
        if apdu.kind == "U":
            if apdu.u_function == U_STARTDT_ACT:
                self.started = True
                return u_frame(U_STARTDT_CON)
            if apdu.u_function == U_STARTDT_CON:
                if self.start_pending:
                    self.start_pending = False
                    self.started = True
                return None
            if apdu.u_function == U_STOPDT_ACT:
                self.started = False
                return u_frame(U_STOPDT_CON)
            if apdu.u_function == U_TESTFR_ACT:
                return u_frame(U_TESTFR_CON)
            return None  # STOPDT_con / TESTFR_con
        if apdu.kind == "S":
            self._apply_ack(apdu.recv_seq)
            return None
        # I-frame
        if not self.started:
            raise Iec104Error("I-frame received before STARTDT")
        if apdu.send_seq != self.vr:
            raise Iec104Error(f"I-frame N(S)={apdu.send_seq}, expected {self.vr}")
        self.vr = (self.vr + 1) % SEQ_MODULO
        self._apply_ack(apdu.recv_seq)
        self.unacked_recv += 1
        if self.unacked_recv >= W_ACK_THRESHOLD:
            self.unacked_recv = 0
            return s_frame(self.vr)
        return None
