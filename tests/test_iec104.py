import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcosim import iec104
from gridcosim.iec104 import (
    Asdu,
    BadStartByte,
    ConnectionState,
    InfoObject,
    NeedMoreBytes,
    ProtocolViolation,
    UnknownTypeId,
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
        with pytest.raises(BadStartByte):
            decode(b"\x69\x04\x07\x00\x00\x00")

    def test_unknown_type_id(self):
        frame = bytearray(encode(i_frame(0, 0, meas_asdu())))
        frame[6] = 200
        with pytest.raises(UnknownTypeId) as err:
            decode(bytes(frame))
        assert err.value.type_id == 200

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
        for _ in range(draw(st.integers(1, 5)))
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
        assert out == [u_frame(iec104.U_STARTDT_CON)]
        assert state.started

    def test_i_frame_before_start_is_violation(self):
        state = ConnectionState()
        with pytest.raises(ProtocolViolation):
            state.received(i_frame(0, 0, meas_asdu()))

    def test_testfr_act_answered(self):
        state = ConnectionState(started=True)
        assert state.received(u_frame(iec104.U_TESTFR_ACT)) == [u_frame(iec104.U_TESTFR_CON)]

    def test_controlling_emits_startdt_before_first_i_frame(self):
        state = ConnectionState()
        assert state.start() == [u_frame(iec104.U_STARTDT_ACT)]
        assert state.send(meas_asdu()) == []
        out = state.received(u_frame(iec104.U_STARTDT_CON))
        assert [a.kind for a in out] == ["I"]
        assert state.vs == 1

    def test_thirteenth_unacked_send_blocked(self):
        state = ConnectionState(started=True)
        emitted = []
        for _ in range(13):
            emitted.extend(state.send(meas_asdu()))
        assert len(emitted) == iec104.K_UNACKED_LIMIT
        assert len(state.pending) == 1
        # the ack releases the blocked frame
        released = state.received(s_frame(12))
        assert [a.kind for a in released] == ["I"]
        assert state.unacked_sent == 1

    def test_s_frame_emitted_after_w_received(self):
        state = ConnectionState(started=True)
        emissions = []
        for i in range(iec104.W_ACK_THRESHOLD):
            emissions = state.received(i_frame(i, 0, meas_asdu()))
        assert emissions == [s_frame(iec104.W_ACK_THRESHOLD)]
        assert state.vr == iec104.W_ACK_THRESHOLD

    def test_ack_of_unsent_frames_is_violation(self):
        state = ConnectionState(started=True)
        state.send(meas_asdu())
        with pytest.raises(ProtocolViolation):
            state.received(s_frame(5))

    def test_sequence_numbers_wrap(self):
        state = ConnectionState(started=True, vs=32767)
        out = state.send(meas_asdu())
        assert out[0].send_seq == 32767
        assert state.vs == 0

    def test_out_of_order_receive_is_violation(self):
        state = ConnectionState(started=True)
        state.received(i_frame(0, 0, meas_asdu()))
        with pytest.raises(ProtocolViolation):
            state.received(i_frame(5, 0, meas_asdu()))

    def test_vr_monotone_modulo_wrap(self):
        state = ConnectionState(started=True, vr=32766)
        seen = []
        for seq in (32766, 32767, 0, 1):
            state.received(i_frame(seq, 0, meas_asdu()))
            seen.append(state.vr)
        assert seen == [32767, 0, 1, 2]
