"""Correctness checks run on every rep of every workload.

Two kinds:

* invariants that hold for any seed (the paper's claims and the
  workload's shape), so a held-out seed is checked as strictly as the
  default one;
* pinned simulated statistics for each workload's default seed
  (``pins.json``), which catch any change to what the simulator does.

A rep that fails any check counts toward ``failed_share``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List

from perfbench.workloads import Workload

PINS_PATH = pathlib.Path(__file__).resolve().parent / "pins.json"

#: SIFS on 2.4 GHz: every ACK must be scheduled exactly this long after
#: the frame that elicited it.
SIFS_US = 10.0


def load_pins() -> Dict[str, Dict[str, object]]:
    with PINS_PATH.open() as fh:
        return json.load(fh)


def rx_per_tx(stats: Dict[str, object]) -> float:
    """Arrivals (delivered or dropped) per transmission."""
    tx = stats["transmissions"]
    return (stats["deliveries"] + stats["drops"]) / tx if tx else 0.0


def _fig6(stats: Dict[str, object]) -> List[str]:
    problems = []
    powers = dict(zip(stats["rates_pps"], stats["power_mw"]))
    if not 5.0 <= powers[0.0] <= 15.0:
        problems.append(f"baseline power {powers[0.0]:.2f} mW is not ~10 mW")
    if not 330.0 <= powers[900.0] <= 390.0:
        problems.append(f"900 pkt/s power {powers[900.0]:.2f} mW is not ~360 mW")
    if not 200.0 <= powers[50.0] <= 260.0:
        problems.append(f"50 pkt/s power {powers[50.0]:.2f} mW is not ~230 mW")
    # Above the 10 pkt/s power-save knee the flood keeps the radio awake
    # once a fake frame lands in a listen window.  A sleeping ESP8266
    # hears only during DTIM listen windows, so at 25 pkt/s catching the
    # first frame can outlast the 1 s settle: there the radio must be
    # awake most of the window; from 50 pkt/s (the pinned region of
    # benchmarks/bench_figure6_battery_drain.py) it must never sleep.
    for rate, sleep in zip(stats["rates_pps"], stats["sleep_fraction"]):
        limit = 0.05 if rate >= 50.0 else 0.5
        if rate > 10.0 and sleep >= limit:
            problems.append(f"radio not pinned awake at {rate:g} pkt/s (sleep {sleep})")
    return problems


def _survey(stats: Dict[str, object]) -> List[str]:
    problems = []
    if not stats["probed_within_discovered"]:
        problems.append("a probed device was never discovered")
    if not stats["responded_within_probed"]:
        problems.append("a responding device was never probed")
    if stats["responded"] == 0:
        problems.append("no device responded")
    return problems


def check(
    workload: Workload, seed: int, city: int, stats: Dict[str, object], pins
) -> List[str]:
    """Every problem found in one rep's statistics (empty when correct)."""
    problems: List[str] = []
    if stats["ack_gap_us_min"] != SIFS_US or stats["ack_gap_us_max"] != SIFS_US:
        problems.append(
            f"ACK gap {stats['ack_gap_us_min']}..{stats['ack_gap_us_max']} us, "
            f"not exactly SIFS ({SIFS_US} us)"
        )
    low, high = workload.rx_per_tx_band
    shape = rx_per_tx(stats)
    if not low <= shape <= high:
        problems.append(
            f"workload shape: {shape:.2f} receivers per transmission, "
            f"outside [{low}, {high}]"
        )
    if workload.name == "fig6-flood":
        problems += _fig6(stats)
    else:
        problems += _survey(stats)
    if workload.name == "metro-tiled" and stats["recoveries"] != 0:
        problems.append(f"{stats['recoveries']} tile worker recoveries")
    pinned = pins.get(workload.name)
    if pinned is not None and seed == pinned["seed"]:
        for key, want in pinned["cities"][city].items():
            if stats.get(key) != want:
                problems.append(f"pinned {key}: got {stats.get(key)!r}, want {want!r}")
    return problems
