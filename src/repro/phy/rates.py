"""802.11 rate tables and ACK-rate selection.

Two facts from the paper live here:

* **Control responses use legacy basic rates.**  An ACK (or CTS) is sent at
  the highest rate in the basic-rate set that is less than or equal to the
  rate of the frame being acknowledged (IEEE 802.11-2016 §10.6.6.5).  This
  is why the paper measures CSI with an ESP32 — the Intel 5300 CSI tool
  cannot report CSI for legacy-rate frames (footnote 3).
* Rate-dependent **SNR requirements** drive the frame-error model used by
  the medium, so probes fail realistically at wardriving distances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.phy.constants import PhyType


@dataclass(frozen=True)
class RateInfo:
    """One PHY rate."""

    mbps: float
    phy: PhyType
    modulation: str
    coding_rate: str
    bits_per_symbol: int  # data bits per OFDM symbol (N_DBPS); 0 for DSSS
    min_snr_db: float  # SNR needed for ~1% PER at 1000 B (textbook values)


#: Legacy OFDM (802.11a/g) rate set.  N_DBPS from IEEE 802.11-2016 Table 17-4.
OFDM_RATES: Dict[float, RateInfo] = {
    6.0: RateInfo(6.0, PhyType.OFDM, "BPSK", "1/2", 24, 5.0),
    9.0: RateInfo(9.0, PhyType.OFDM, "BPSK", "3/4", 36, 6.0),
    12.0: RateInfo(12.0, PhyType.OFDM, "QPSK", "1/2", 48, 8.0),
    18.0: RateInfo(18.0, PhyType.OFDM, "QPSK", "3/4", 72, 10.0),
    24.0: RateInfo(24.0, PhyType.OFDM, "16-QAM", "1/2", 96, 13.0),
    36.0: RateInfo(36.0, PhyType.OFDM, "16-QAM", "3/4", 144, 17.0),
    48.0: RateInfo(48.0, PhyType.OFDM, "64-QAM", "2/3", 192, 21.0),
    54.0: RateInfo(54.0, PhyType.OFDM, "64-QAM", "3/4", 216, 23.0),
}

#: DSSS/CCK (802.11b) rate set.
DSSS_RATES: Dict[float, RateInfo] = {
    1.0: RateInfo(1.0, PhyType.DSSS, "DBPSK", "-", 0, 2.0),
    2.0: RateInfo(2.0, PhyType.DSSS, "DQPSK", "-", 0, 4.0),
    5.5: RateInfo(5.5, PhyType.DSSS, "CCK", "-", 0, 6.0),
    11.0: RateInfo(11.0, PhyType.DSSS, "CCK", "-", 0, 8.0),
}

#: Mandatory (basic) rate sets used for control responses.
BASIC_RATES_OFDM: Tuple[float, ...] = (6.0, 12.0, 24.0)
BASIC_RATES_DSSS: Tuple[float, ...] = (1.0, 2.0)

ALL_RATES: Dict[float, RateInfo] = {**DSSS_RATES, **OFDM_RATES}


def rate_info(mbps: float) -> RateInfo:
    """Look up a rate; raises ``ValueError`` for unknown rates."""
    try:
        return ALL_RATES[float(mbps)]
    except KeyError:
        raise ValueError(f"unknown 802.11 rate {mbps!r} Mb/s") from None


@functools.lru_cache(maxsize=None)
def ack_rate_for(data_rate_mbps: float) -> float:
    """Rate at which the ACK/CTS responding to a frame is transmitted.

    The highest basic rate that does not exceed the eliciting frame's rate,
    chosen within the same PHY family; falls back to the lowest basic rate
    when the eliciting frame was already at the bottom of the table.
    Memoized: a pure function over the finite rate table, called once per
    acknowledged frame.
    """
    info = rate_info(data_rate_mbps)
    basics = BASIC_RATES_DSSS if info.phy is PhyType.DSSS else BASIC_RATES_OFDM
    eligible = [rate for rate in basics if rate <= data_rate_mbps]
    return max(eligible) if eligible else min(basics)


def is_legacy_rate(mbps: float) -> bool:
    """True for DSSS and legacy OFDM rates (everything in our tables).

    The Intel 5300 CSI-tool model (``repro.baselines.csitool``) refuses to
    produce CSI for frames at these rates, mirroring footnote 3.
    """
    return float(mbps) in ALL_RATES


def min_snr_db(mbps: float) -> float:
    """SNR required to decode ``mbps`` with high probability."""
    return rate_info(mbps).min_snr_db
