"""The attacker's monitor-mode dongle (RTL8812AU class).

The paper's attacker hardware is a $12 Realtek RTL8812AU USB dongle in
monitor mode: it sniffs every frame on the channel and injects arbitrary
crafted frames (via Scapy).  Two properties of monitor mode matter and
are modelled here:

* a monitor interface **never acknowledges anything** — its MAC filter is
  bypassed entirely, so frames addressed to the spoofed attacker MAC go
  unanswered (which is why the AP in Figure 3 retransmits its deauths);
* injected frames skip normal MAC queueing — they go straight to the
  radio, optionally without carrier sense, with any header fields the
  attacker likes (spoofed transmitter address included).

Injection accepts either typed frames or raw PSDU bytes; raw bytes travel
as a :class:`RawPsdu` and are parsed by the victim's receive chain, so
the serializer is genuinely on the attack path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional

from repro.devices.base import Device, DeviceKind
from repro.mac.ack_engine import AckEngineConfig
from repro.mac.frames import Frame
from repro.mac.serialization import FrameFormatError, deserialize, serialize
from repro.sim.medium import Reception


@dataclass
class RawPsdu:
    """On-air bytes, as injected by the attacker.

    Receivers parse ``psdu`` through :func:`repro.mac.serialization.
    deserialize`.  Every consumer of the bytes — the medium's lane
    pre-filter (:meth:`dest_u64`), each receiver's AckEngine and the
    trace hooks — reads one memoized decode (:attr:`decoded`), so a frame
    heard by N receivers is checked and parsed once, not N+1 times.
    Received frames are treated as immutable everywhere, so sharing the
    decoded instance is safe.
    """

    psdu: bytes

    def wire_length(self) -> int:
        return len(self.psdu)

    @cached_property
    def decoded(self) -> Optional[Frame]:
        """The parsed frame, or ``None`` when the FCS fails or the bytes
        are malformed; decoded on first use and memoized."""
        try:
            return deserialize(self.psdu)
        except FrameFormatError:
            return None

    def dest_u64(self) -> Optional[int]:
        """Receiver address for the medium's batch pre-filter, or ``None``
        when the bytes don't parse (every receiver then takes the scalar
        path and applies its own malformed-frame handling)."""
        frame = self.decoded
        return frame.dest_u64() if frame is not None else None

    def trace_source(self) -> str:
        frame = self.decoded
        return frame.trace_source() if frame is not None else "(raw)"

    def trace_destination(self) -> str:
        frame = self.decoded
        return frame.trace_destination() if frame is not None else "(raw)"

    def trace_info(self) -> str:
        frame = self.decoded
        return frame.trace_info() if frame is not None else "Malformed frame"


SnifferCallback = Callable[[Frame, Reception], None]


class MonitorDongle(Device):
    """Monitor-mode capture + raw injection."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("kind", DeviceKind.MONITOR)
        config = kwargs.pop("ack_config", None)
        if config is None:
            config = AckEngineConfig()
        config.promiscuous = True
        kwargs["ack_config"] = config
        super().__init__(*args, **kwargs)
        self._listeners: List[SnifferCallback] = []
        self.injected = 0

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def add_listener(self, callback: SnifferCallback) -> None:
        """Subscribe to every decoded frame the dongle overhears."""
        self._listeners.append(callback)

    def _account_frame(self, frame: Frame, reception: Reception) -> None:
        super()._account_frame(frame, reception)
        for listener in self._listeners:
            listener(frame, reception)

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def inject(
        self,
        frame: Frame,
        rate_mbps: float = 6.0,
        as_bytes: bool = True,
    ) -> None:
        """Put a crafted frame on the air immediately (no DCF, no retry).

        ``as_bytes`` (the default) serializes through the real wire format
        so the victim parses attacker-controlled bytes, exactly like a
        Scapy injection; disable it only for unit tests that want to
        short-circuit serialization.
        """
        self.injected += 1
        if as_bytes:
            payload: object = RawPsdu(serialize(frame))
            self.radio.transmit(payload, rate_mbps, length_bytes=frame.wire_length())
        else:
            self.radio.transmit(frame, rate_mbps)

    def inject_bytes(self, psdu: bytes, rate_mbps: float = 6.0) -> None:
        """Inject raw attacker-controlled bytes (may be malformed)."""
        self.injected += 1
        self.radio.transmit(RawPsdu(bytes(psdu)), rate_mbps, length_bytes=len(psdu))
