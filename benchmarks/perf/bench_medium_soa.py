"""SoA delivery microbenchmark: one sender, thousands of receivers.

The purest measurement of the medium's struct-of-arrays hot path: a
single channel packed with static receivers and one sender transmitting
repeatedly.  The first transmission pays the cold SoA build, the numpy
range gate and budget resolution; the rest exercise the warm
delivery-cache path — the shape every wardrive beacon takes.  The
receivers have no batch sink, so every arrival is handed up through
``on_reception``.
"""

from __future__ import annotations

from benchmarks.perf.harness import BenchOutcome

import time

from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.world import Position
from repro.telemetry import MetricsRegistry

N_RECEIVERS = 5000
FRAME_DURATION_S = 3e-4
FRAME_INTERVAL_S = 1e-3


class _Frame:
    __slots__ = ()

    @staticmethod
    def wire_length() -> int:
        return 200


class _SinkRadio:
    """Bare RadioPort: static position, counts receptions, no MAC."""

    __slots__ = ("name", "channel", "rx_sensitivity_dbm", "_position",
                 "static_position", "received")

    def __init__(self, name: str, position: Position) -> None:
        self.name = name
        self.channel = 1
        self.rx_sensitivity_dbm = -92.0
        self._position = position
        self.static_position = position
        self.received = 0

    def current_position(self, time: float) -> Position:
        return self._position

    def on_reception(self, reception) -> None:
        self.received += 1


def _run_one(n_receivers: int, transmissions: int):
    """Build the world, fire ``transmissions`` broadcasts, time the run."""
    engine = Engine()
    medium = Medium(engine)
    sender = _SinkRadio("tx", Position(300.0, 210.0, 3.0))
    medium.attach(sender)
    receivers = []
    for index in range(n_receivers):
        # Deterministic scatter over ~600 x 420 m (no RNG needed).
        x = (index * 37) % 600
        y = (index * 73) % 420
        radio = _SinkRadio(f"r{index:04d}", Position(x, y, 3.0))
        medium.attach(radio)
        receivers.append(radio)

    frame = _Frame()

    def send() -> None:
        medium.transmit(sender, frame, FRAME_DURATION_S, 20.0, 6.0)
        if engine.now < (transmissions - 0.5) * FRAME_INTERVAL_S:
            engine.call_after(FRAME_INTERVAL_S, send)

    engine.call_after(FRAME_INTERVAL_S, send)
    start = time.perf_counter()
    engine.run_until((transmissions + 1.0) * FRAME_INTERVAL_S)
    wall = time.perf_counter() - start
    receptions = sum(radio.received for radio in receivers)
    return wall, receptions


def bench_medium_soa(quick: bool) -> BenchOutcome:
    n_receivers = N_RECEIVERS if quick else 4 * N_RECEIVERS
    transmissions = 50 if quick else 200
    metrics = MetricsRegistry()
    setup_start = time.perf_counter()
    setup_s = time.perf_counter() - setup_start

    wall, receptions = _run_one(n_receivers, transmissions)
    return BenchOutcome(
        outputs={
            "receivers": n_receivers,
            "transmissions": transmissions,
            "receptions": receptions,
            "vectorized_s": wall,
        },
        metrics=metrics,
        setup_s=setup_s,
    )
