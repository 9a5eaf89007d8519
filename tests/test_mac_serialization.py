"""Wire-format round trips, including hypothesis-driven fuzzing."""

import pytest
from hypothesis import given, strategies as st

from repro.mac.addresses import MacAddress
from repro.mac.frames import (
    AckFrame,
    AssocRequestFrame,
    AssocResponseFrame,
    AuthFrame,
    BeaconFrame,
    CtsFrame,
    DataFrame,
    DeauthFrame,
    NullDataFrame,
    ProbeRequestFrame,
    ProbeResponseFrame,
    QosNullFrame,
    RtsFrame,
)
from repro.mac.serialization import FrameFormatError, deserialize, serialize
from repro.phy.crc import append_fcs, fcs_is_valid

# Unicast, non-zero MACs (the all-zero address encodes "field absent" on
# our wire format, matching how ACK/CTS omit addresses).
macs = st.binary(min_size=6, max_size=6).map(
    lambda raw: MacAddress(bytes([raw[0] & 0xFE]) + raw[1:5] + bytes([raw[5] | 0x01]))
)
sequences = st.integers(0, 4095)
ssids = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")), max_size=16
)


class TestControlFrames:
    @given(macs)
    def test_ack_round_trip(self, ra):
        frame = AckFrame(ra)
        wire = serialize(frame)
        assert len(wire) == 14
        back = deserialize(wire)
        assert back.is_ack and back.addr1 == ra

    @given(macs, st.integers(0, 0x7FFF))
    def test_cts_round_trip(self, ra, duration):
        wire = serialize(CtsFrame(ra, duration))
        back = deserialize(wire)
        assert back.is_cts and back.duration_us == duration

    @given(macs, macs, st.integers(0, 0x7FFF))
    def test_rts_round_trip(self, ra, ta, duration):
        wire = serialize(RtsFrame(ra, ta, duration))
        assert len(wire) == 20
        back = deserialize(wire)
        assert back.is_rts and back.addr1 == ra and back.addr2 == ta


class TestDataFrames:
    @given(macs, macs, sequences)
    def test_null_round_trip(self, ra, ta, sequence):
        frame = NullDataFrame(addr1=ra, addr2=ta)
        frame.sequence = sequence
        back = deserialize(serialize(frame))
        assert back.is_null_data
        assert back.addr1 == ra and back.addr2 == ta
        assert back.sequence == sequence

    @given(macs, macs, st.binary(max_size=256))
    def test_data_payload_round_trip(self, ra, ta, body):
        frame = DataFrame(addr1=ra, addr2=ta, body=body, to_ds=True)
        back = deserialize(serialize(frame))
        assert back.body == body and back.to_ds

    @given(macs, macs)
    def test_qos_null_round_trip(self, ra, ta):
        frame = QosNullFrame(addr1=ra, addr2=ta)
        back = deserialize(serialize(frame))
        assert back.is_null_data and back.subtype == 12

    def test_flags_round_trip(self):
        frame = DataFrame(
            addr1=MacAddress("02:00:00:00:00:01"),
            addr2=MacAddress("02:00:00:00:00:02"),
            retry=True,
            power_management=True,
            more_data=True,
            protected=True,
            from_ds=True,
        )
        back = deserialize(serialize(frame))
        assert back.retry and back.power_management and back.more_data
        assert back.protected and back.from_ds


class TestManagementFrames:
    @given(macs, ssids, sequences)
    def test_beacon_round_trip(self, bssid, ssid, sequence):
        frame = BeaconFrame(addr2=bssid, ssid=ssid, beacon_interval_tu=200)
        frame.sequence = sequence
        back = deserialize(serialize(frame))
        assert back.is_beacon and back.ssid == ssid
        assert back.beacon_interval_tu == 200
        assert back.sequence == sequence

    @given(macs, ssids)
    def test_probe_request_round_trip(self, ta, ssid):
        back = deserialize(serialize(ProbeRequestFrame(addr2=ta, ssid=ssid)))
        assert back.ssid == ssid

    @given(macs, macs, ssids)
    def test_probe_response_round_trip(self, ra, ta, ssid):
        frame = ProbeResponseFrame(addr1=ra, addr2=ta, ssid=ssid)
        back = deserialize(serialize(frame))
        assert isinstance(back, ProbeResponseFrame) and back.ssid == ssid

    @given(macs, macs, st.integers(1, 2), st.integers(0, 10))
    def test_auth_round_trip(self, ra, ta, auth_seq, status):
        frame = AuthFrame(addr1=ra, addr2=ta, auth_sequence=auth_seq, status=status)
        back = deserialize(serialize(frame))
        assert back.auth_sequence == auth_seq and back.status == status

    @given(macs, macs, ssids)
    def test_assoc_request_round_trip(self, ra, ta, ssid):
        frame = AssocRequestFrame(addr1=ra, addr2=ta, ssid=ssid)
        back = deserialize(serialize(frame))
        assert back.ssid == ssid

    @given(macs, macs, st.integers(0, 5), st.integers(1, 100))
    def test_assoc_response_round_trip(self, ra, ta, status, aid):
        frame = AssocResponseFrame(addr1=ra, addr2=ta, status=status, association_id=aid)
        back = deserialize(serialize(frame))
        assert back.status == status and back.association_id == aid

    @given(macs, macs, st.integers(1, 30), sequences)
    def test_deauth_round_trip(self, ra, ta, reason, sequence):
        frame = DeauthFrame(addr1=ra, addr2=ta, reason=reason)
        frame.sequence = sequence
        back = deserialize(serialize(frame))
        assert back.is_deauth and back.reason == reason and back.sequence == sequence


class TestWireProperties:
    @given(macs, macs, st.binary(max_size=128))
    def test_serialized_length_matches_wire_length(self, ra, ta, body):
        frame = DataFrame(addr1=ra, addr2=ta, body=body)
        assert len(serialize(frame)) == frame.wire_length()

    @given(macs, ssids)
    def test_beacon_length_matches(self, bssid, ssid):
        frame = BeaconFrame(addr2=bssid, ssid=ssid)
        assert len(serialize(frame)) == frame.wire_length()

    @given(macs, macs)
    def test_serialized_frames_pass_fcs(self, ra, ta):
        assert fcs_is_valid(serialize(NullDataFrame(addr1=ra, addr2=ta)))

    @given(macs, macs, st.integers(0, 27), st.integers(0, 7))
    def test_corruption_rejected(self, ra, ta, index, bit):
        wire = bytearray(serialize(NullDataFrame(addr1=ra, addr2=ta)))
        wire[index % len(wire)] ^= 1 << bit
        with pytest.raises(FrameFormatError):
            deserialize(bytes(wire))


class TestMalformedInput:
    def test_empty(self):
        with pytest.raises(FrameFormatError):
            deserialize(b"")

    def test_too_short(self):
        with pytest.raises(FrameFormatError):
            deserialize(b"\x00" * 8)

    @given(st.binary(min_size=0, max_size=64))
    def test_random_bytes_never_crash(self, junk):
        try:
            deserialize(junk)
        except FrameFormatError:
            pass  # rejection is the expected path

    def test_check_fcs_false_allows_corrupt(self):
        wire = bytearray(
            serialize(
                NullDataFrame(
                    addr1=MacAddress("02:00:00:00:00:01"),
                    addr2=MacAddress("02:00:00:00:00:02"),
                )
            )
        )
        wire[-1] ^= 0xFF  # corrupt the FCS only
        frame = deserialize(bytes(wire), check_fcs=False)
        assert frame.is_null_data

    def test_reserved_frame_type_is_a_format_error(self):
        # Type bits 11 are reserved; with a valid FCS the parser must
        # reject them as malformed, not leak FrameType's ValueError.
        body = bytes([0x0C, 0x00]) + b"\x00" * 22
        with pytest.raises(FrameFormatError, match="reserved frame type"):
            deserialize(append_fcs(body))

    @given(
        st.one_of(
            st.binary(min_size=0, max_size=60),
            # Protocol version 0 with any type/subtype, so most examples
            # get past the first header check into the typed parsers.
            st.builds(
                lambda type_subtype, rest: bytes([type_subtype << 2]) + rest,
                st.integers(0, 63),
                st.binary(min_size=0, max_size=59),
            ),
        )
    )
    def test_valid_fcs_parses_or_raises_format_error(self, body):
        # The FCS gate is passed, so every outcome other than a frame or
        # FrameFormatError would crash a receiver mid-simulation.
        try:
            deserialize(append_fcs(body))
        except FrameFormatError:
            pass

    @given(st.integers(0, 15), st.binary(min_size=8, max_size=40))
    def test_every_reserved_type_header_rejected(self, subtype, rest):
        first = (0x03 << 2) | (subtype << 4)
        with pytest.raises(FrameFormatError):
            deserialize(append_fcs(bytes([first, 0x00]) + rest))
