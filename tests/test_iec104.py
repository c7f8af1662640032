import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from gridcosim import iec104
from gridcosim.iec104 import (
    Asdu,
    ConnectionState,
    InfoObject,
    Iec104Error,
    NeedMoreBytes,
    decode,
    decode_stream,
    encode,
    i_frame,
    s_frame,
    u_frame,
)

# Byte vectors assembled octet-by-octet from the APCI/ASDU field layout and
# frozen here; the acceptance suite re-verifies them through an independent
# dissector.
STARTDT_ACT_BYTES = bytes.fromhex("680407000000")
S_FRAME_NR3_BYTES = bytes.fromhex("680401000600")
MEAS_IFRAME_BYTES = bytes.fromhex("681200000000" "0d0103000100" "640000" "0000c03f" "00")


def meas_asdu(ioa=100, value=1.5, cot=iec104.COT_SPONTANEOUS, ca=1):
    return Asdu(
        type_id=iec104.M_ME_NC_1, cot=cot, common_address=ca,
        objects=(InfoObject(ioa=ioa, value=value, quality=0),),
    )


class TestCodec:
    def test_startdt_act_bytes(self):
        assert encode(u_frame(iec104.U_STARTDT_ACT)) == STARTDT_ACT_BYTES

    def test_s_frame_bytes(self):
        assert encode(s_frame(3)) == S_FRAME_NR3_BYTES

    def test_measurement_i_frame_bytes(self):
        assert encode(i_frame(0, 0, meas_asdu())) == MEAS_IFRAME_BYTES

    def test_bad_start_byte(self):
        with pytest.raises(Iec104Error, match="expected 0x68, got 0x69"):
            decode(b"\x69\x04\x07\x00\x00\x00")

    def test_unknown_type_id(self):
        frame = bytearray(encode(i_frame(0, 0, meas_asdu())))
        frame[6] = 200
        with pytest.raises(Iec104Error, match="unknown ASDU type id 200"):
            decode(bytes(frame))

    def test_partial_input_needs_more_bytes(self):
        frame = encode(i_frame(4, 2, meas_asdu()))
        for cut in range(len(frame)):
            with pytest.raises(NeedMoreBytes) as err:
                decode(frame[:cut])
            assert err.value.needed == (2 - cut if cut < 2 else len(frame) - cut)

    def test_decode_does_not_read_past_declared_length(self):
        frame = encode(s_frame(7)) + b"\xff\xff trailing garbage"
        apdu, used = decode(frame)
        assert apdu == s_frame(7)
        assert used == 6

    def test_all_u_functions_roundtrip(self):
        for function in iec104.U_NAMES:
            apdu, used = decode(encode(u_frame(function)))
            assert apdu == u_frame(function) and used == 6

    def test_stream_reassembly_arbitrary_split(self):
        apdus = [
            u_frame(iec104.U_STARTDT_ACT),
            i_frame(0, 0, meas_asdu(ioa=7, value=-2.25)),
            s_frame(1),
            i_frame(
                1, 0,
                Asdu(
                    type_id=iec104.C_SC_NA_1, cot=iec104.COT_ACTIVATION,
                    common_address=3, objects=(InfoObject(ioa=9, value=1),),
                ),
            ),
        ]
        stream = b"".join(encode(a) for a in apdus)
        for split in range(len(stream) + 1):
            buffer = b""
            decoded = []
            for chunk in (stream[:split], stream[split:]):
                buffer += chunk
                got, used = decode_stream(buffer)
                decoded.extend(got)
                buffer = buffer[used:]
            assert decoded == apdus
            assert buffer == b""


    @pytest.mark.parametrize("ioa", [0, 0xFFFFFF])
    @pytest.mark.parametrize("type_id", [iec104.M_ME_NC_1, iec104.C_SE_NC_1])
    def test_float_object_roundtrip_at_ioa_bounds(self, type_id, ioa):
        asdu = Asdu(type_id=type_id, cot=iec104.COT_ACTIVATION, common_address=7,
                    objects=(InfoObject(ioa=ioa, value=-1.5, quality=0x80),))
        apdu = i_frame(3, 4, asdu)
        raw = encode(apdu)
        assert raw[12:15] == ioa.to_bytes(3, "little")
        assert decode(raw) == (apdu, 20)

    def test_ioa_beyond_three_octets_rejected(self):
        with pytest.raises(iec104.Iec104Error, match="outside 3-octet range"):
            encode(i_frame(0, 0, meas_asdu(ioa=0x1000000)))

    def test_stream_cut_at_every_offset(self):
        apdus = [
            u_frame(iec104.U_STARTDT_CON),
            *(i_frame(n, 0, meas_asdu(ioa=n, value=n / 4)) for n in range(3)),
            s_frame(9),
            i_frame(3, 1, Asdu(type_id=iec104.M_SP_NA_1, cot=iec104.COT_INTERROGATED,
                               common_address=2,
                               objects=(InfoObject(1, 1, 0x10), InfoObject(2, 0, 0)))),
        ]
        stream = b"".join(encode(a) for a in apdus)
        buffer, decoded = b"", []
        for i in range(len(stream)):
            buffer += stream[i : i + 1]
            got, used = decode_stream(buffer)
            decoded.extend(got)
            buffer = buffer[used:]
        assert decoded == apdus and buffer == b""


def _raw_i_frame(asdu: bytes) -> bytes:
    """An I-frame with N(S) = N(R) = 0 around the given ASDU octets."""
    return bytes((0x68, 4 + len(asdu), 0, 0, 0, 0)) + asdu


# one M_ME_NC_1 object: IOA 100, value 1.5, quality 0
_FLOAT_OBJECT_BYTES = bytes.fromhex("640000" "0000c03f" "00")


def _objects(type_id, count):
    value = 1.5 if type_id in (iec104.M_ME_NC_1, iec104.C_SE_NC_1) else 1
    return tuple(InfoObject(ioa=n, value=value) for n in range(count))


class TestCodecErrors:
    @pytest.mark.parametrize("asdu, message", [
        (bytes((13, 1, 3, 0, 1)), "ASDU header needs 6 octets"),
        (bytes((13, 0x81, 3, 0, 1, 0)) + _FLOAT_OBJECT_BYTES,
         "sequence-of-elements VSQ not supported"),
        (bytes((13, 0x00, 3, 0, 1, 0)) + _FLOAT_OBJECT_BYTES, "VSQ object count must be >= 1"),
        (bytes((13, 0x02, 3, 0, 1, 0)) + _FLOAT_OBJECT_BYTES,  # 2 declared, 1 present
         "expected 16 object octets, got 8"),
        (bytes((13, 0x01, 3, 0, 1, 0)) + _FLOAT_OBJECT_BYTES[:-1],
         "expected 8 object octets, got 7"),
    ], ids=["under_6_octets", "sq_bit", "zero_count", "count_above_body", "body_short"])
    def test_truncated_asdu(self, asdu, message):
        with pytest.raises(Iec104Error, match=message):
            decode(_raw_i_frame(asdu))

    @pytest.mark.parametrize("type_id,count", [
        (iec104.M_ME_NC_1, 31), (iec104.C_SE_NC_1, 31),
        (iec104.M_SP_NA_1, 61), (iec104.C_SC_NA_1, 61), (iec104.C_IC_NA_1, 61),
    ])
    def test_oversize(self, type_id, count):
        asdu = Asdu(type_id, iec104.COT_SPONTANEOUS, 1, _objects(type_id, count))
        length = 10 + count * (8 if type_id in (iec104.M_ME_NC_1, iec104.C_SE_NC_1) else 4)
        with pytest.raises(Iec104Error, match=f"APDU length {length} exceeds 253"):
            encode(i_frame(0, 0, asdu))

    @pytest.mark.parametrize("type_id,count", [
        (iec104.M_ME_NC_1, 30), (iec104.C_SE_NC_1, 30),
        (iec104.M_SP_NA_1, 60), (iec104.C_SC_NA_1, 60), (iec104.C_IC_NA_1, 60),
    ])
    def test_largest_asdu_fits(self, type_id, count):
        apdu = i_frame(0, 0, Asdu(type_id, iec104.COT_SPONTANEOUS, 1, _objects(type_id, count)))
        raw = encode(apdu)
        assert len(raw) == 252 and raw[1] == 250
        assert decode(raw) == (apdu, 252)

    @pytest.mark.parametrize("apdu, seq", [
        (i_frame(32768, 0, meas_asdu()), 32768), (i_frame(0, 32768, meas_asdu()), 32768),
        (i_frame(-1, 0, meas_asdu()), -1), (s_frame(32768), 32768),
    ], ids=["ns_32768", "nr_32768", "ns_negative", "s_frame_nr_32768"])
    def test_sequence_number_out_of_range(self, apdu, seq):
        with pytest.raises(Iec104Error, match=rf"sequence number {seq} outside 0\.\.32767"):
            encode(apdu)

    @pytest.mark.parametrize("ca", [65536, -1])
    def test_common_address_out_of_range(self, ca):
        with pytest.raises(Iec104Error, match="common address"):
            encode(i_frame(0, 0, meas_asdu(ca=ca)))

    def test_ioa_below_zero_rejected(self):
        with pytest.raises(Iec104Error, match="outside 3-octet range"):
            encode(i_frame(0, 0, meas_asdu(ioa=-1)))

    def test_type_id_changed_after_construction_rejected(self):
        asdu = meas_asdu()
        asdu.type_id = 2
        with pytest.raises(Iec104Error, match="unknown ASDU type id 2"):
            encode(i_frame(0, 0, asdu))

    def test_i_frame_without_asdu_rejected(self):
        with pytest.raises(Iec104Error, match="needs an ASDU"):
            encode(iec104.Apdu("I"))

    @pytest.mark.parametrize("raw, message", [
        (bytes((0x68, 3, 7, 0, 0)), r"length octet 3 outside 4\.\.253"),
        (bytes((0x68, 254)) + bytes(254), r"length octet 254 outside 4\.\.253"),
        (bytes((0x68, 5, 1, 0, 0, 0, 0)), "S-frame length must be 4"),
        (bytes((0x68, 5, 7, 0, 0, 0, 0)), "U-frame length must be 4"),
    ], ids=["length_3", "length_254", "s_frame_length_5", "u_frame_length_5"])
    def test_length_out_of_range(self, raw, message):
        with pytest.raises(Iec104Error, match=message):
            decode(raw)

    @pytest.mark.parametrize("control", [
        "0f000000",  # no such U function
        "07010000",  # second control octet set
        "07000100",  # third control octet set
    ])
    def test_malformed_u_frame(self, control):
        with pytest.raises(Iec104Error, match=f"malformed U-frame control field {control}"):
            decode(bytes.fromhex("6804" + control))

    @pytest.mark.parametrize("objects", [(), tuple(InfoObject(n) for n in range(128))],
                             ids=["no_object", "128_objects"])
    def test_asdu_object_count(self, objects):
        with pytest.raises(Iec104Error, match="between 1 and 127"):
            encode(i_frame(0, 0, Asdu(iec104.C_IC_NA_1, iec104.COT_ACTIVATION, 0, objects)))

    def test_asdu_unknown_type(self):
        with pytest.raises(Iec104Error, match="unknown ASDU type id 2"):
            encode(i_frame(0, 0, Asdu(2, iec104.COT_SPONTANEOUS, 0, (InfoObject(1),))))


# Reference I-frame builder, octet by octet from the field layout of
# IEC 60870-5-104 and IEC 60870-5-101 (SQ=0, 2-octet COT, 2-octet common
# address, 3-octet IOA); it shares no code with the codec.
def _f32_octets(value: float) -> bytes:
    """IEEE 754 binary32, little-endian, of a normal value that binary32 holds exactly."""
    if value == 0:
        return bytes(3) + bytes((0x80 if math.copysign(1.0, value) < 0 else 0,))
    mantissa, exponent = math.frexp(abs(value))  # abs(value) = mantissa * 2**exponent
    fraction = (mantissa * 2 - 1) * 2**23
    assert fraction.is_integer() and 1 <= exponent + 126 <= 254
    bits = (value < 0) << 31 | (exponent + 126) << 23 | int(fraction)
    return bits.to_bytes(4, "little")


def _reference_i_frame(ns, nr, type_id, cot, originator, ca, objects) -> bytes:
    body = bytearray()
    for ioa, value, quality in objects:
        body += ioa.to_bytes(3, "little")
        if type_id in (iec104.M_ME_NC_1, iec104.C_SE_NC_1):
            body += _f32_octets(value) + (quality & 0xFF).to_bytes(1, "little")
        elif type_id == iec104.M_SP_NA_1:
            body += ((quality & 0xF0) | (value & 0x01)).to_bytes(1, "little")
        else:
            body += (value & 0xFF).to_bytes(1, "little")
    asdu = (type_id.to_bytes(1, "little") + len(objects).to_bytes(1, "little")
            + cot.to_bytes(1, "little") + originator.to_bytes(1, "little")
            + ca.to_bytes(2, "little") + bytes(body))
    return (b"\x68" + (4 + len(asdu)).to_bytes(1, "little")
            + (ns << 1).to_bytes(2, "little") + (nr << 1).to_bytes(2, "little") + asdu)


LAYOUT_CASES = {
    iec104.M_SP_NA_1: [(1, 1, 0x10), (0x0203, 0, 0x80), (0xFFFFFF, 3, 0x9F), (7, 2, 0x0F)],
    iec104.M_ME_NC_1: [(100, 1.5, 0), (0x010203, -2.25, 0x80), (0xFFFFFF, 1000.0, 0x01)],
    iec104.C_SC_NA_1: [(9, 1, 0), (0x123456, 0x81, 0)],
    iec104.C_SE_NC_1: [(0, 0.15625, 0), (65536, -65504.0, 0x80), (3, -0.0, 0x7F)],
    iec104.C_IC_NA_1: [(0, iec104.QOI_STATION, 0), (5, 0xFF, 0)],
}


@pytest.mark.parametrize("type_id", sorted(LAYOUT_CASES), ids=iec104.TYPE_NAMES.get)
def test_multi_object_i_frame_layout(type_id):
    objects = LAYOUT_CASES[type_id]
    asdu = Asdu(type_id, iec104.COT_INTERROGATED, 0xBEEF,
                tuple(InfoObject(*obj) for obj in objects), originator=0x42)
    raw = encode(i_frame(0x1234, 0x7FFF, asdu))
    assert raw == _reference_i_frame(0x1234, 0x7FFF, type_id, iec104.COT_INTERROGATED,
                                     0x42, 0xBEEF, objects)
    if type_id == iec104.M_SP_NA_1:
        # value & 1 and quality & 0xF0 share the one SIQ octet
        assert [raw[15 + 4 * n] for n in range(len(objects))] == [0x11, 0x80, 0x91, 0x00]


def _max_objects(type_id):
    """The most objects of one type an I-frame carries within 253 octets."""
    return (iec104.MAX_LENGTH - 10) // (3 + (5 if type_id in (iec104.M_ME_NC_1,
                                                               iec104.C_SE_NC_1) else 1))


OBJECT_VALUES = {
    iec104.M_SP_NA_1: st.integers(0, 1),
    iec104.M_ME_NC_1: st.floats(width=32, allow_nan=False, allow_infinity=False),
    iec104.C_SC_NA_1: st.integers(0, 255),
    iec104.C_SE_NC_1: st.floats(width=32, allow_nan=False, allow_infinity=False),
    iec104.C_IC_NA_1: st.integers(0, 255),
}


@st.composite
def apdus(draw):
    kind = draw(st.sampled_from(["I", "S", "U"]))
    if kind == "U":
        return u_frame(draw(st.sampled_from(sorted(iec104.U_NAMES))))
    if kind == "S":
        return s_frame(draw(st.integers(0, 32767)))
    type_id = draw(st.sampled_from(sorted(OBJECT_VALUES)))
    quality = (
        draw(st.sampled_from([0x00, 0x10, 0x40, 0x80, 0xF0]))
        if type_id == iec104.M_SP_NA_1
        else draw(st.integers(0, 255)) if type_id in (iec104.M_ME_NC_1, iec104.C_SE_NC_1)
        else 0
    )
    objects = tuple(
        InfoObject(
            ioa=draw(st.integers(0, 0xFFFFFF)),
            value=draw(OBJECT_VALUES[type_id]),
            quality=quality,
        )
        for _ in range(draw(st.integers(1, _max_objects(type_id))))
    )
    asdu = Asdu(
        type_id=type_id,
        cot=draw(st.integers(0, 255)),
        common_address=draw(st.integers(0, 0xFFFF)),
        objects=objects,
        originator=draw(st.integers(0, 255)),
    )
    return i_frame(
        draw(st.integers(0, 32767)), draw(st.integers(0, 32767)), asdu
    )


@settings(max_examples=300, deadline=None)
@given(apdus())
def test_roundtrip_property(apdu):
    raw = encode(apdu)
    decoded, used = decode(raw)
    assert used == len(raw)
    assert decoded == apdu


class TestSession:
    def test_controlled_confirms_startdt(self):
        state = ConnectionState()
        out = state.received(u_frame(iec104.U_STARTDT_ACT))
        assert out == u_frame(iec104.U_STARTDT_CON)
        assert state.started and state.can_send

    def test_i_frame_before_start_is_violation(self):
        state = ConnectionState()
        with pytest.raises(Iec104Error, match="I-frame received before STARTDT"):
            state.received(i_frame(0, 0, meas_asdu()))

    def test_testfr_act_answered(self):
        state = ConnectionState(started=True)
        assert state.received(u_frame(iec104.U_TESTFR_ACT)) == u_frame(iec104.U_TESTFR_CON)

    def test_controlling_emits_startdt_before_first_i_frame(self):
        state = ConnectionState()
        assert state.start() == u_frame(iec104.U_STARTDT_ACT)
        assert not state.can_send
        with pytest.raises(Iec104Error, match="I-frame sent before STARTDT"):
            state.send(meas_asdu())
        assert state.received(u_frame(iec104.U_STARTDT_CON)) is None
        assert state.can_send
        assert state.send(meas_asdu()).kind == "I"
        assert state.vs == 1

    def test_thirteenth_unacked_send_blocked(self):
        state = ConnectionState(started=True)
        emitted = [state.send(meas_asdu()) for _ in range(iec104.K_UNACKED_LIMIT)]
        assert [a.send_seq for a in emitted] == list(range(iec104.K_UNACKED_LIMIT))
        assert not state.can_send
        with pytest.raises(Iec104Error, match="I-frame sent with k=12 I-frames unacknowledged"):
            state.send(meas_asdu())
        assert state.vs == iec104.K_UNACKED_LIMIT
        # the ack reopens the window
        assert state.received(s_frame(12)) is None
        assert state.can_send and state.unacked_sent == 0

    def test_s_frame_emitted_after_w_received(self):
        state = ConnectionState(started=True)
        *quiet, last = [state.received(i_frame(i, 0, meas_asdu()))
                        for i in range(iec104.W_ACK_THRESHOLD)]
        assert quiet == [None] * (iec104.W_ACK_THRESHOLD - 1)
        assert last == s_frame(iec104.W_ACK_THRESHOLD)
        assert state.vr == iec104.W_ACK_THRESHOLD

    def test_ack_of_unsent_frames_is_violation(self):
        state = ConnectionState(started=True)
        state.send(meas_asdu())
        with pytest.raises(Iec104Error, match=r"N\(R\)=5 acknowledges frames never sent"):
            state.received(s_frame(5))

    def test_sequence_numbers_wrap(self):
        state = ConnectionState(started=True, vs=32767)
        out = state.send(meas_asdu())
        assert out.send_seq == 32767
        assert state.vs == 0

    def test_out_of_order_receive_is_violation(self):
        state = ConnectionState(started=True)
        state.received(i_frame(0, 0, meas_asdu()))
        with pytest.raises(Iec104Error, match=r"I-frame N\(S\)=5, expected 1"):
            state.received(i_frame(5, 0, meas_asdu()))

    def test_vr_monotone_modulo_wrap(self):
        state = ConnectionState(started=True, vr=32766)
        seen = []
        for seq in (32766, 32767, 0, 1):
            state.received(i_frame(seq, 0, meas_asdu()))
            seen.append(state.vr)
        assert seen == [32767, 0, 1, 2]


SIDES = ("mtu", "rtu")
PEER = {"mtu": "rtu", "rtu": "mtu"}


class SessionPair(RuleBasedStateMachine):
    """A controlling and a controlled `ConnectionState` joined by two in-order
    channels that hold frames in flight. Every frame crosses as the bytes of
    `encode` and is read back with `decode`. The pair starts anywhere in the
    sequence space, so N(S) and N(R) wrap."""

    @initialize(mtu_vs=st.integers(0, iec104.SEQ_MODULO - 1),
                rtu_vs=st.integers(0, iec104.SEQ_MODULO - 1))
    def open(self, mtu_vs, rtu_vs):
        self.state = {"mtu": ConnectionState(vs=mtu_vs, vr=rtu_vs),
                      "rtu": ConnectionState(vs=rtu_vs, vr=mtu_vs)}
        self.wire = {"mtu": deque(), "rtu": deque()}  # frames in flight from each side
        self.sent = {"mtu": [], "rtu": []}            # IOAs of the I-frames each side sent
        self.got = {"mtu": [], "rtu": []}             # IOAs of the I-frames each side received
        self.next_ioa = 0
        self._put("mtu", self.state["mtu"].start())

    def _put(self, side, apdu):
        if apdu is None:
            return
        if apdu.kind == "I":
            self.sent[side].append(apdu.asdu.objects[0].ioa)
        self.wire[side].append(encode(apdu))

    @rule(side=st.sampled_from(SIDES), count=st.integers(1, 40))
    def send(self, side, count):
        """Send up to `count` ASDUs, while `can_send` holds."""
        state = self.state[side]
        for _ in range(count):
            if not state.can_send:
                vs = state.vs
                message = "with k=12 I-frames" if state.started else "before STARTDT"
                with pytest.raises(Iec104Error, match=f"I-frame sent {message}"):
                    state.send(meas_asdu())
                assert state.vs == vs
                break
            self._put(side, state.send(meas_asdu(ioa=self.next_ioa)))
            self.next_ioa += 1

    @rule(side=st.sampled_from(SIDES))
    def testfr(self, side):
        self._put(side, u_frame(iec104.U_TESTFR_ACT))

    @rule(side=st.sampled_from(SIDES), count=st.integers(1, 50))
    def deliver(self, side, count):
        peer = PEER[side]
        wire = self.wire[side]
        for _ in range(min(count, len(wire))):
            raw = wire.popleft()
            apdu, used = decode(raw)
            assert used == len(raw)
            if apdu.kind == "I":
                self.got[peer].append(apdu.asdu.objects[0].ioa)
            self._put(peer, self.state[peer].received(apdu))

    @invariant()
    def windows_hold(self):
        for state in self.state.values():
            assert state.unacked_sent <= iec104.K_UNACKED_LIMIT
            assert state.unacked_recv < iec104.W_ACK_THRESHOLD

    @invariant()
    def received_in_order(self):
        for side, peer in PEER.items():
            got = self.got[peer]
            assert got == self.sent[side][:len(got)]
            if not self.wire[side]:
                assert got == self.sent[side]

SessionPair.TestCase.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
TestSessionPair = SessionPair.TestCase
