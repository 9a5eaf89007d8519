"""CRC-32 frame check sequence.

Every 802.11 frame ends in a 4-byte FCS computed with the IEEE CRC-32
(polynomial 0x04C11DB7, reflected, initial value and final XOR of
0xFFFFFFFF — the same CRC used by Ethernet and zlib).  This check is the
*entirety* of what a receiver validates before acknowledging a frame: a
fake frame with a correct FCS is, to the PHY, a perfectly good frame.

:func:`crc32` delegates to :func:`zlib.crc32`, which computes exactly
this CRC (same reflected polynomial, initial value, final XOR and
``initial`` chaining) in C; every injected frame is checked on the
simulator's hot path.  The test suite keeps an independent from-scratch
table-driven implementation as the oracle it cross-checks against.
"""

from __future__ import annotations

import zlib


def crc32(data: bytes, initial: int = 0) -> int:
    """IEEE CRC-32 of ``data``, continuing from the CRC ``initial``."""
    return zlib.crc32(data, initial)


def fcs_of(frame_body: bytes) -> bytes:
    """The 4-byte FCS for a MAC header+body, little-endian as on the wire."""
    return crc32(frame_body).to_bytes(4, "little")


def append_fcs(frame_body: bytes) -> bytes:
    """Return ``frame_body`` with its FCS appended (the on-air PSDU)."""
    return frame_body + fcs_of(frame_body)


def fcs_is_valid(psdu: bytes) -> bool:
    """Check the trailing FCS of an on-air PSDU.

    Frames shorter than the FCS itself are malformed and invalid.
    """
    if len(psdu) < 4:
        return False
    body, fcs = psdu[:-4], psdu[-4:]
    return fcs_of(body) == fcs


def strip_fcs(psdu: bytes) -> bytes:
    """Drop a validated FCS; raises ``ValueError`` if the FCS is wrong."""
    if not fcs_is_valid(psdu):
        raise ValueError("FCS check failed")
    return psdu[:-4]
