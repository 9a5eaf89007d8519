"""PLCP framing and airtime computation.

Airtime matters in three places of the reproduction:

* the medium needs each frame's on-air duration to model occupancy,
  collisions, and the SIFS-separated data→ACK exchange;
* the power model integrates TX/RX power over exact airtimes to produce the
  Figure 6 consumption curve;
* the defense analysis compares the SIFS budget with the time the receiver
  actually has between end-of-frame and the ACK deadline.

The OFDM math follows IEEE 802.11-2016 §17.4.3: a 20 µs preamble+SIGNAL,
then ``ceil((16 + 8·L + 6) / N_DBPS)`` 4 µs symbols for an L-byte PSDU.
"""

from __future__ import annotations

import functools
import math

from repro.phy.constants import (
    DSSS_LONG_PREAMBLE,
    HT_PREAMBLE_EXTRA,
    OFDM_PREAMBLE,
    OFDM_SERVICE_BITS,
    OFDM_SYMBOL,
    OFDM_TAIL_BITS,
    PhyType,
)
from repro.phy.rates import rate_info

#: Wire length of an ACK frame: Frame Control (2) + Duration (2) + RA (6)
#: + FCS (4).
ACK_LENGTH_BYTES = 14

#: Wire length of a CTS frame (same layout as an ACK).
CTS_LENGTH_BYTES = 14

#: Wire length of an RTS frame: FC + Duration + RA + TA + FCS.
RTS_LENGTH_BYTES = 20


def ofdm_symbol_count(length_bytes: int, bits_per_symbol: int) -> int:
    """Number of OFDM data symbols for an ``length_bytes`` PSDU."""
    if length_bytes < 0:
        raise ValueError(f"length must be non-negative, got {length_bytes!r}")
    payload_bits = OFDM_SERVICE_BITS + 8 * length_bytes + OFDM_TAIL_BITS
    return math.ceil(payload_bits / bits_per_symbol)


@functools.lru_cache(maxsize=4096)
def frame_airtime(length_bytes: int, rate_mbps: float) -> float:
    """On-air duration (seconds) of an ``length_bytes`` PSDU at a rate.

    Covers DSSS (long preamble), legacy OFDM, and HT mixed-mode (legacy
    preamble plus HT-SIG/HT-STF/HT-LTF overhead).  Memoized (bounded): a
    pure function evaluated for every transmission, over the few
    (length, rate) pairs a run actually uses.
    """
    info = rate_info(rate_mbps)
    if info.phy is PhyType.DSSS:
        return DSSS_LONG_PREAMBLE + (8.0 * length_bytes) / (rate_mbps * 1e6)
    preamble = OFDM_PREAMBLE
    if info.phy is PhyType.HT:
        preamble += HT_PREAMBLE_EXTRA
    symbols = ofdm_symbol_count(length_bytes, info.bits_per_symbol)
    return preamble + symbols * OFDM_SYMBOL


def ack_airtime(rate_mbps: float) -> float:
    """Airtime of an ACK at ``rate_mbps`` (a legacy basic rate)."""
    return frame_airtime(ACK_LENGTH_BYTES, rate_mbps)


def cts_airtime(rate_mbps: float) -> float:
    """Airtime of a CTS at ``rate_mbps``."""
    return frame_airtime(CTS_LENGTH_BYTES, rate_mbps)


def rts_airtime(rate_mbps: float) -> float:
    """Airtime of an RTS at ``rate_mbps``."""
    return frame_airtime(RTS_LENGTH_BYTES, rate_mbps)
