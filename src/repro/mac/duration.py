"""Duration/ID (NAV) computation.

The Duration field of a frame tells third-party receivers how long the
medium will stay busy after the frame ends, so they can defer (virtual
carrier sense).  For a simple data frame that is SIFS + ACK airtime; for
an RTS it covers the whole CTS + data + ACK exchange.  Correct durations
matter to the reproduction because the fake null frames the attacker
injects carry a plausible Duration, exactly like Scapy-crafted frames do,
and because the CTS the victim sends in the RTS/CTS variant derives its
duration from the attacker's RTS.
"""

from __future__ import annotations

import functools
import math

from repro.phy.constants import Band, sifs
from repro.phy.plcp import ack_airtime, cts_airtime, frame_airtime
from repro.phy.rates import ack_rate_for


def _to_duration_us(seconds: float) -> int:
    """Round a duration up to whole microseconds, clamped to the field max."""
    return min(int(math.ceil(seconds * 1e6)), 0x7FFF)


@functools.lru_cache(maxsize=None)
def data_frame_duration_us(rate_mbps: float, band: Band = Band.GHZ_2_4) -> int:
    """NAV for a unicast data/management frame: SIFS + the responding ACK.

    Memoized: a pure function over the finite (rate, band) domain.
    """
    response_rate = ack_rate_for(rate_mbps)
    return _to_duration_us(sifs(band) + ack_airtime(response_rate))


def rts_duration_us(
    data_length_bytes: int,
    data_rate_mbps: float,
    band: Band = Band.GHZ_2_4,
) -> int:
    """NAV carried by an RTS: 3×SIFS + CTS + pending data + ACK."""
    control_rate = ack_rate_for(data_rate_mbps)
    total = (
        3.0 * sifs(band)
        + cts_airtime(control_rate)
        + frame_airtime(data_length_bytes, data_rate_mbps)
        + ack_airtime(control_rate)
    )
    return _to_duration_us(total)


def cts_duration_us(rts_duration_field_us: int, rate_mbps: float, band: Band = Band.GHZ_2_4) -> int:
    """NAV carried by the responding CTS: the RTS NAV minus SIFS and CTS."""
    remaining = rts_duration_field_us * 1e-6 - sifs(band) - cts_airtime(rate_mbps)
    return max(_to_duration_us(max(remaining, 0.0)), 0)
