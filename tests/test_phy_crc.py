"""CRC-32 FCS: vectors, a from-scratch oracle, and algebraic properties.

Production :func:`repro.phy.crc.crc32` delegates to zlib; the table-driven
implementation below is written from the polynomial alone and serves as
the independent reference it is checked against.
"""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.phy.crc import append_fcs, crc32, fcs_is_valid, fcs_of, strip_fcs

#: Reflected polynomial for IEEE CRC-32.
_POLYNOMIAL = 0xEDB88320


def _build_table():
    table = []
    for byte in range(256):
        value = byte
        for _ in range(8):
            if value & 1:
                value = (value >> 1) ^ _POLYNOMIAL
            else:
                value >>= 1
        table.append(value)
    return table


_TABLE = _build_table()


def reference_crc32(data: bytes, initial: int = 0) -> int:
    """Table-driven IEEE CRC-32 (reflected, init and xorout 0xFFFFFFFF)."""
    crc = initial ^ 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


class TestKnownVectors:
    def test_check_value(self):
        # The canonical CRC-32 check value for "123456789".
        assert crc32(b"123456789") == 0xCBF43926
        assert reference_crc32(b"123456789") == 0xCBF43926

    def test_empty(self):
        assert crc32(b"") == 0
        assert reference_crc32(b"") == 0

    def test_single_byte(self):
        assert crc32(b"\x00") == reference_crc32(b"\x00") == zlib.crc32(b"\x00")


class TestZlibEquivalence:
    @given(st.binary(min_size=0, max_size=2048))
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)


class TestReferenceOracle:
    @given(st.binary(min_size=0, max_size=2048))
    def test_matches_table_driven_reference(self, data):
        assert crc32(data) == reference_crc32(data)

    @given(st.binary(max_size=512), st.integers(0, 0xFFFFFFFF))
    def test_initial_matches_reference(self, data, initial):
        assert crc32(data, initial) == reference_crc32(data, initial)

    @given(st.binary(max_size=512), st.binary(max_size=512))
    def test_chaining(self, a, b):
        assert crc32(b, crc32(a)) == crc32(a + b)
        assert reference_crc32(b, reference_crc32(a)) == reference_crc32(a + b)

    @given(st.binary(max_size=256))
    def test_fcs_of_matches_reference(self, body):
        assert fcs_of(body) == reference_crc32(body).to_bytes(4, "little")


class TestFcsRoundTrip:
    @given(st.binary(min_size=0, max_size=512))
    def test_append_then_validate(self, body):
        assert fcs_is_valid(append_fcs(body))

    @given(st.binary(min_size=0, max_size=512))
    def test_strip_recovers_body(self, body):
        assert strip_fcs(append_fcs(body)) == body

    @given(st.binary(min_size=4, max_size=256), st.integers(0, 255))
    def test_single_byte_corruption_detected(self, body, flip):
        psdu = bytearray(append_fcs(body))
        index = flip % len(psdu)
        psdu[index] ^= 0x01
        assert not fcs_is_valid(bytes(psdu))

    def test_too_short_is_invalid(self):
        assert not fcs_is_valid(b"abc")
        assert not fcs_is_valid(b"")

    def test_strip_raises_on_bad_fcs(self):
        with pytest.raises(ValueError):
            strip_fcs(b"hello wrong fcs!")

    def test_fcs_is_little_endian_on_wire(self):
        body = b"frame"
        expected = reference_crc32(body).to_bytes(4, "little")
        assert fcs_of(body) == expected
