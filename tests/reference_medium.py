"""A from-scratch reference medium: the differential oracle for ``Medium``.

``repro.sim.medium.Medium`` is built for speed: per-channel indexes,
epoch-keyed link and delivery caches, struct-of-arrays range gates, one
arrival span per transmission behind two slice-mode event batches, and a
lane pre-filter that accounts for most arrivals without ever building a
``Reception``.  This module is the same physics written the obvious way,
so the tests can hold the fast medium to it byte for byte:

* every transmission walks every attached radio on the sender's channel,
  reading positions and path loss fresh (the configured model plus
  ``propagation_delay_to``) — no link, delivery or SoA caches;
* each in-range receiver gets one two-phase event via ``engine.post``:
  the arrival start joins the receiver's air state (half duplex, capture),
  then re-posts itself for the arrival end one airtime later;
* the arrival end flips the FER coin (``rng.random()``, in arrival-end
  order), counts ``medium.frames.*``, samples CSI, and hands every
  arrival up through ``radio.on_reception`` — no lanes, no batch sinks.

It implements the surface the protocol stack uses: ``attach``,
``detach``, ``retune``, ``reposition``, ``note_addressing_changed``,
``transmit``, ``is_busy_for``, ``rssi_between``, ``has_radio`` and the
``trace``.  Only the public data types come from ``repro.sim.medium``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.sim.medium import CorruptionReason, Reception, Transmission

NOISE_FLOOR_DBM = -95.0
CAPTURE_THRESHOLD_DB = 10.0


def free_space_loss_db(tx, rx, frequency_hz: float) -> float:
    """Friis path loss, clamped below 1 m."""
    distance = max(tx.distance_to(rx), 1.0)
    wavelength = 299_792_458.0 / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance / wavelength)


class _Arrival:
    """One frame arriving at one receiver; its own two-phase event."""

    def __init__(self, medium: "ReferenceMedium", radio, transmission, rssi_dbm):
        self.medium = medium
        self.radio = radio
        self.transmission = transmission
        self.rssi_dbm = rssi_dbm
        self.reason: Optional[CorruptionReason] = None
        self.air: Optional[list] = None
        self.started = False

    def __call__(self) -> None:
        if self.started:
            self.medium._arrival_end(self)
        else:
            self.started = True
            self.medium._arrival_start(self)


class ReferenceMedium:
    """Drop-in ``Medium`` with no caches, no batching and no lanes."""

    def __init__(
        self,
        engine,
        frequency_hz: float = 2.437e9,
        path_loss_db: Optional[Callable] = None,
        fer: Optional[Callable[[float, float, int], float]] = None,
        csi_model: Optional[Callable] = None,
        trace=None,
        noise_floor_dbm: float = NOISE_FLOOR_DBM,
        capture_threshold_db: float = CAPTURE_THRESHOLD_DB,
        rng: Optional[np.random.Generator] = None,
        metrics=None,
    ) -> None:
        self.engine = engine
        self.frequency_hz = frequency_hz
        self.path_loss = path_loss_db or (
            lambda tx, rx: free_space_loss_db(tx, rx, self.frequency_hz)
        )
        self.fer = fer
        self.csi_model = csi_model
        self.trace = trace
        self.noise_floor_dbm = noise_floor_dbm
        self.capture_threshold_db = capture_threshold_db
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.metrics = metrics if metrics is not None else getattr(engine, "metrics", None)
        self.counters = {}
        if self.metrics is not None:
            for name in ("transmitted", "delivered", "dropped"):
                self.counters[name] = self.metrics.counter(f"medium.frames.{name}")
            self.counters["airtime"] = self.metrics.counter("medium.airtime_s")
        self.radios: Dict[str, object] = {}  # insertion order = attach order
        self.air: Dict[str, List[_Arrival]] = {}  # receiver -> live arrivals
        self.tx_until: Dict[str, float] = {}  # radio -> end of its own tx

    # -- membership ------------------------------------------------------
    def attach(self, radio) -> None:
        if radio.name in self.radios:
            raise ValueError(f"radio {radio.name!r} already attached")
        self.radios[radio.name] = radio
        self.air[radio.name] = []

    def detach(self, name: str) -> None:
        self.radios.pop(name, None)
        self.air.pop(name, None)
        self.tx_until.pop(name, None)

    def has_radio(self, name: str) -> bool:
        return name in self.radios

    # Nothing is cached or indexed, so there is nothing to keep in sync.
    def retune(self, name: str, channel: int) -> None:
        pass

    def reposition(self, name: str, static) -> None:
        pass

    def note_addressing_changed(self, name: str) -> None:
        pass

    # -- queries ---------------------------------------------------------
    def rssi_between(self, tx_name: str, rx_name: str, time: float) -> float:
        tx = self.radios[tx_name]
        rx = self.radios[rx_name]
        return 20.0 - self.path_loss(tx.current_position(time), rx.current_position(time))

    def is_busy_for(self, name: str, cca_threshold_dbm: float = -82.0) -> bool:
        return any(a.rssi_dbm >= cca_threshold_dbm for a in self.air.get(name, ()))

    # -- transmission ----------------------------------------------------
    def _count(self, name: str, amount=1) -> None:
        counter = self.counters.get(name)
        if counter is not None:
            counter.value += amount

    def transmit(self, sender, frame, duration, power_dbm, rate_mbps) -> Transmission:
        if duration <= 0.0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        now = self.engine.now
        tx_position = sender.current_position(now)
        transmission = Transmission(
            sender.name, frame, now, duration, power_dbm, rate_mbps,
            sender.channel, tx_position,
        )
        self._count("transmitted")
        self._count("airtime", duration)
        # Half duplex: the sender's receiver is deaf while it transmits.
        self.tx_until[sender.name] = max(self.tx_until.get(sender.name, 0.0), now + duration)
        for arrival in self.air.get(sender.name, ()):
            arrival.reason = CorruptionReason.RECEIVER_TRANSMITTING
        if self.trace is not None:
            self.trace.add(
                time=now,
                source=str(getattr(frame, "trace_source", lambda: sender.name)()),
                destination=str(getattr(frame, "trace_destination", lambda: "?")()),
                info=str(getattr(frame, "trace_info", lambda: type(frame).__name__)()),
                channel=sender.channel,
                length=getattr(frame, "wire_length", lambda: None)(),
            )
        targets = []
        for radio in self.radios.values():  # attachment order
            if radio.name == sender.name or radio.channel != sender.channel:
                continue
            rx_position = radio.current_position(now)
            rssi = power_dbm - self.path_loss(tx_position, rx_position)
            if rssi >= radio.rx_sensitivity_dbm:
                delay = tx_position.propagation_delay_to(rx_position)
                targets.append((delay, radio, rssi))
        # Stable sort: equal delays keep attachment order.
        targets.sort(key=lambda target: target[0])
        for delay, radio, rssi in targets:
            self.engine.post(now + delay, _Arrival(self, radio, transmission, rssi))
        return transmission

    # -- arrival lifecycle -----------------------------------------------
    def _arrival_start(self, arrival: _Arrival) -> None:
        name = arrival.radio.name
        air = self.air.setdefault(name, [])
        if self.tx_until.get(name, -1.0) > self.engine.now:
            arrival.reason = CorruptionReason.RECEIVER_TRANSMITTING
        live = [a for a in air if a.reason is None]
        if live:
            strongest = max(a.rssi_dbm for a in live)
            if arrival.rssi_dbm >= strongest + self.capture_threshold_db:
                for a in live:
                    a.reason = CorruptionReason.CAPTURED_BY_STRONGER
            elif arrival.rssi_dbm <= strongest - self.capture_threshold_db:
                arrival.reason = CorruptionReason.LOCKED_ON_STRONGER
            else:
                arrival.reason = CorruptionReason.COLLISION
                for a in live:
                    a.reason = CorruptionReason.COLLISION
        air.append(arrival)
        arrival.air = air
        self.engine.post(self.engine.now + arrival.transmission.duration, arrival)

    def _arrival_end(self, arrival: _Arrival) -> None:
        if arrival in arrival.air:
            arrival.air.remove(arrival)
        radio = arrival.radio
        if radio.name not in self.radios:
            return  # detached mid-flight
        transmission = arrival.transmission
        snr = arrival.rssi_dbm - self.noise_floor_dbm
        fcs_ok = arrival.reason is None
        if fcs_ok and self.fer is not None:
            length = getattr(transmission.frame, "wire_length", lambda: 0)() or 0
            probability = self.fer(snr, transmission.rate_mbps, length)
            if probability > 0.0 and self.rng.random() < probability:
                fcs_ok = False
        self._count("delivered" if fcs_ok else "dropped")
        now = self.engine.now
        csi = None
        if self.csi_model is not None:
            csi = self.csi_model(transmission.sender, radio.name, now)
        while_transmitting = arrival.reason is CorruptionReason.RECEIVER_TRANSMITTING
        radio.on_reception(
            Reception(
                frame=transmission.frame,
                transmission=transmission,
                rssi_dbm=arrival.rssi_dbm,
                snr_db=snr,
                start=transmission.start,
                end=now,
                fcs_ok=fcs_ok,
                collided=arrival.reason is not None and not while_transmitting,
                while_transmitting=while_transmitting,
                csi=csi,
            )
        )
