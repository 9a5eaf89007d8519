"""802.11 wire format: frame objects ⇄ on-air bytes.

The attacker's injector (``repro.core.injector``) builds frames exactly the
way Scapy does in the paper — by emitting standards-conformant bytes with
arbitrary header fields — and the victim's receive chain parses those bytes
back.  Keeping a real serializer in the loop (rather than passing Python
objects around) means a fake frame is fake *only* in its field values, not
in its format: it passes the FCS check like any legitimate frame, which is
the precondition for the PHY to acknowledge it.

Layout implemented (IEEE 802.11-2016 §9):

* Frame Control (2 B): version/type/subtype + flag bits;
* Duration/ID (2 B, little-endian microseconds);
* 1–3 addresses depending on type; Sequence Control for long formats;
* type-specific body (management fixed fields + information elements);
* FCS (CRC-32, little-endian).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.mac.addresses import MacAddress
from repro.mac.frames import (
    FCS_BYTES,
    SUBTYPE_ACK,
    SUBTYPE_ASSOC_REQUEST,
    SUBTYPE_ASSOC_RESPONSE,
    SUBTYPE_AUTH,
    SUBTYPE_BEACON,
    SUBTYPE_CTS,
    SUBTYPE_DEAUTH,
    SUBTYPE_NULL,
    SUBTYPE_PROBE_REQUEST,
    SUBTYPE_PROBE_RESPONSE,
    SUBTYPE_QOS_DATA,
    SUBTYPE_QOS_NULL,
    SUBTYPE_RTS,
    AckFrame,
    AssocRequestFrame,
    AssocResponseFrame,
    AuthFrame,
    BeaconFrame,
    CtsFrame,
    DataFrame,
    DeauthFrame,
    Frame,
    FrameType,
    NullDataFrame,
    ProbeRequestFrame,
    ProbeResponseFrame,
    QosNullFrame,
    RtsFrame,
)
from repro.phy.crc import append_fcs, fcs_is_valid

# Frame Control flag bits (second FC byte).
_FLAG_TO_DS = 0x01
_FLAG_FROM_DS = 0x02
_FLAG_RETRY = 0x08
_FLAG_PWR_MGT = 0x10
_FLAG_MORE_DATA = 0x20
_FLAG_PROTECTED = 0x40

# Type bits ``11`` are reserved: no FrameType, no parse.
_RESERVED_TYPE = 0x03

# Information element identifiers.
_IE_SSID = 0
_IE_SUPPORTED_RATES = 1

#: Basic OFDM rates advertised in beacons/probes (rate·2 | 0x80 basic flag).
_DEFAULT_RATES_IE = bytes([0x8C, 0x98, 0xB0])


class FrameFormatError(ValueError):
    """Raised when bytes cannot be parsed as an 802.11 frame."""


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _frame_control(frame: Frame) -> bytes:
    first = (int(frame.ftype) << 2) | (frame.subtype << 4)
    flags = 0
    if frame.to_ds:
        flags |= _FLAG_TO_DS
    if frame.from_ds:
        flags |= _FLAG_FROM_DS
    if frame.retry:
        flags |= _FLAG_RETRY
    if frame.power_management:
        flags |= _FLAG_PWR_MGT
    if frame.more_data:
        flags |= _FLAG_MORE_DATA
    if frame.protected:
        flags |= _FLAG_PROTECTED
    return bytes([first, flags])


def _sequence_control(frame: Frame) -> bytes:
    value = ((frame.sequence & 0x0FFF) << 4) | (frame.fragment & 0x0F)
    return struct.pack("<H", value)


def _encode_ie(element_id: int, payload: bytes) -> bytes:
    if len(payload) > 255:
        raise FrameFormatError(f"IE {element_id} payload too long: {len(payload)}")
    return bytes([element_id, len(payload)]) + payload


def _encode_ssid_ies(ssid: str) -> bytes:
    return _encode_ie(_IE_SSID, ssid.encode("utf-8")) + _encode_ie(
        _IE_SUPPORTED_RATES, _DEFAULT_RATES_IE
    )


def _parse_ies(data: bytes) -> List[Tuple[int, bytes]]:
    elements = []
    offset = 0
    while offset + 2 <= len(data):
        element_id, length = data[offset], data[offset + 1]
        offset += 2
        if offset + length > len(data):
            raise FrameFormatError("truncated information element")
        elements.append((element_id, data[offset : offset + length]))
        offset += length
    if offset != len(data):
        raise FrameFormatError("trailing bytes after information elements")
    return elements


def _find_ssid(elements: List[Tuple[int, bytes]]) -> str:
    for element_id, payload in elements:
        if element_id == _IE_SSID:
            return payload.decode("utf-8", errors="replace")
    return ""


def _management_body(frame: Frame) -> bytes:
    if isinstance(frame, (BeaconFrame, ProbeResponseFrame)):
        fixed = struct.pack(
            "<QHH", 0, frame.beacon_interval_tu, frame.capabilities
        )
        return fixed + _encode_ssid_ies(frame.ssid)
    if isinstance(frame, ProbeRequestFrame):
        return _encode_ssid_ies(frame.ssid)
    if isinstance(frame, AuthFrame):
        return struct.pack("<HHH", frame.algorithm, frame.auth_sequence, frame.status)
    if isinstance(frame, AssocRequestFrame):
        fixed = struct.pack("<HH", frame.capabilities, frame.listen_interval)
        return fixed + _encode_ssid_ies(frame.ssid)
    if isinstance(frame, AssocResponseFrame):
        return struct.pack(
            "<HHH", frame.capabilities, frame.status, frame.association_id
        )
    if isinstance(frame, DeauthFrame):
        return struct.pack("<H", frame.reason)
    return frame.body


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def serialize(frame: Frame) -> bytes:
    """Render ``frame`` as its on-air PSDU, FCS included."""
    fc = _frame_control(frame)
    duration = struct.pack("<H", frame.duration_us & 0xFFFF)
    if frame.is_control:
        if frame.is_rts:
            if frame.addr2 is None:
                raise FrameFormatError("RTS requires a transmitter address")
            header = fc + duration + frame.addr1.bytes + frame.addr2.bytes
        elif frame.is_cts or frame.is_ack:
            header = fc + duration + frame.addr1.bytes
        else:
            raise FrameFormatError(
                f"unsupported control subtype {frame.subtype}"
            )
        return append_fcs(header)

    addr2 = frame.addr2.bytes if frame.addr2 is not None else b"\x00" * 6
    addr3 = frame.addr3.bytes if frame.addr3 is not None else b"\x00" * 6
    header = fc + duration + frame.addr1.bytes + addr2 + addr3
    header += _sequence_control(frame)
    if frame.is_data and frame.subtype in (SUBTYPE_QOS_DATA, SUBTYPE_QOS_NULL):
        header += struct.pack("<H", 0)  # QoS Control (TID 0)
    body = _management_body(frame) if frame.is_management else frame.body
    return append_fcs(header + body)


# ----------------------------------------------------------------------
# Deserialization
# ----------------------------------------------------------------------
def deserialize(psdu: bytes, check_fcs: bool = True) -> Frame:
    """Parse an on-air PSDU back into a typed :class:`Frame`.

    ``check_fcs=False`` lets monitor-mode tools inspect corrupt captures.
    """
    if check_fcs and not fcs_is_valid(psdu):
        raise FrameFormatError("FCS check failed")
    data = psdu[:-FCS_BYTES]
    if len(data) < 10:
        raise FrameFormatError(f"frame too short: {len(data)} bytes")
    first, flags = data[0], data[1]
    if first & 0x03 != 0:
        raise FrameFormatError("unsupported 802.11 protocol version")
    type_bits = (first >> 2) & 0x03
    if type_bits == _RESERVED_TYPE:
        raise FrameFormatError("reserved frame type")
    ftype = FrameType(type_bits)
    subtype = (first >> 4) & 0x0F
    duration = struct.unpack_from("<H", data, 2)[0]
    addr1 = MacAddress(data[4:10])

    if ftype is FrameType.CONTROL:
        frame = _parse_control(subtype, addr1, data)
    else:
        frame = _parse_long(ftype, subtype, addr1, data)

    frame.duration_us = duration
    frame.to_ds = bool(flags & _FLAG_TO_DS)
    frame.from_ds = bool(flags & _FLAG_FROM_DS)
    frame.retry = bool(flags & _FLAG_RETRY)
    frame.power_management = bool(flags & _FLAG_PWR_MGT)
    frame.more_data = bool(flags & _FLAG_MORE_DATA)
    frame.protected = bool(flags & _FLAG_PROTECTED)
    return frame


def _parse_control(subtype: int, addr1: MacAddress, data: bytes) -> Frame:
    if subtype == SUBTYPE_ACK:
        if len(data) != 10:
            raise FrameFormatError(f"bad ACK length {len(data)}")
        return AckFrame(addr1)
    if subtype == SUBTYPE_CTS:
        if len(data) != 10:
            raise FrameFormatError(f"bad CTS length {len(data)}")
        return CtsFrame(addr1)
    if subtype == SUBTYPE_RTS:
        if len(data) != 16:
            raise FrameFormatError(f"bad RTS length {len(data)}")
        return RtsFrame(addr1, MacAddress(data[10:16]))
    raise FrameFormatError(f"unsupported control subtype {subtype}")


def _zero_to_none(raw: bytes) -> Optional[MacAddress]:
    return None if raw == b"\x00" * 6 else MacAddress(raw)


def _parse_long(
    ftype: FrameType, subtype: int, addr1: MacAddress, data: bytes
) -> Frame:
    if len(data) < 24:
        raise FrameFormatError(f"frame too short for long header: {len(data)}")
    addr2 = _zero_to_none(data[10:16])
    addr3 = _zero_to_none(data[16:22])
    seq_control = struct.unpack_from("<H", data, 22)[0]
    fragment = seq_control & 0x0F
    sequence = (seq_control >> 4) & 0x0FFF
    offset = 24
    if ftype is FrameType.DATA and subtype in (SUBTYPE_QOS_DATA, SUBTYPE_QOS_NULL):
        offset += 2
    body = data[offset:]

    if ftype is FrameType.DATA:
        frame = _parse_data(subtype, addr1, addr2, addr3, body)
    else:
        frame = _parse_management(subtype, addr1, addr2, addr3, body)
    frame.sequence = sequence
    frame.fragment = fragment
    return frame


def _parse_data(
    subtype: int,
    addr1: MacAddress,
    addr2: Optional[MacAddress],
    addr3: Optional[MacAddress],
    body: bytes,
) -> Frame:
    common = dict(addr1=addr1, addr2=addr2, addr3=addr3)
    if subtype == SUBTYPE_NULL:
        return NullDataFrame(**common)
    if subtype == SUBTYPE_QOS_NULL:
        return QosNullFrame(**common)
    frame = DataFrame(subtype=subtype, body=body, **common)
    return frame


def _parse_management(
    subtype: int,
    addr1: MacAddress,
    addr2: Optional[MacAddress],
    addr3: Optional[MacAddress],
    body: bytes,
) -> Frame:
    common = dict(addr1=addr1, addr2=addr2, addr3=addr3)
    if subtype in (SUBTYPE_BEACON, SUBTYPE_PROBE_RESPONSE):
        if len(body) < 12:
            raise FrameFormatError("beacon/probe-response body too short")
        _, interval, capabilities = struct.unpack_from("<QHH", body, 0)
        ssid = _find_ssid(_parse_ies(body[12:]))
        cls = BeaconFrame if subtype == SUBTYPE_BEACON else ProbeResponseFrame
        return cls(
            ssid=ssid,
            beacon_interval_tu=interval,
            capabilities=capabilities,
            **common,
        )
    if subtype == SUBTYPE_PROBE_REQUEST:
        ssid = _find_ssid(_parse_ies(body))
        return ProbeRequestFrame(ssid=ssid, **common)
    if subtype == SUBTYPE_AUTH:
        if len(body) < 6:
            raise FrameFormatError("authentication body too short")
        algorithm, auth_seq, status = struct.unpack_from("<HHH", body, 0)
        return AuthFrame(
            algorithm=algorithm, auth_sequence=auth_seq, status=status, **common
        )
    if subtype == SUBTYPE_ASSOC_REQUEST:
        if len(body) < 4:
            raise FrameFormatError("association request body too short")
        capabilities, listen = struct.unpack_from("<HH", body, 0)
        ssid = _find_ssid(_parse_ies(body[4:]))
        return AssocRequestFrame(
            ssid=ssid, capabilities=capabilities, listen_interval=listen, **common
        )
    if subtype == SUBTYPE_ASSOC_RESPONSE:
        if len(body) < 6:
            raise FrameFormatError("association response body too short")
        capabilities, status, aid = struct.unpack_from("<HHH", body, 0)
        return AssocResponseFrame(
            capabilities=capabilities, status=status, association_id=aid, **common
        )
    if subtype == SUBTYPE_DEAUTH:
        if len(body) < 2:
            raise FrameFormatError("deauthentication body too short")
        (reason,) = struct.unpack_from("<H", body, 0)
        return DeauthFrame(reason=reason, **common)
    # Unrecognized management subtype: keep it generic but round-trippable.
    frame = Frame(ftype=FrameType.MANAGEMENT, subtype=subtype, body=body, **common)
    return frame
