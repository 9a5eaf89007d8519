"""The PHY-level acknowledgement engine — the Polite WiFi root cause.

IEEE 802.11 requires that a receiver start transmitting the ACK exactly one
SIFS after the end of any correctly-received (FCS-passing) unicast frame
addressed to it, and a CTS one SIFS after any RTS.  SIFS is 10 µs at
2.4 GHz — far too short to consult the MAC, the driver, or the operating
system, let alone run CCMP decryption (200–700 µs).  The consequence the
paper discovers is that this automaton answers *strangers*: a fake,
unencrypted frame from a device that was never part of the network is
acknowledged like any other, because the only checks that fit in the
deadline are the CRC and the receiver-address match.

:class:`AckEngine` implements exactly that automaton.  Politeness is not a
hard-coded "vulnerability flag": it emerges from implementing the standard
faithfully.  The ablation hooks (:attr:`AckEngineConfig.validate_before_ack`)
model the *hypothetical* checking device of Section 2.2 so the benchmarks
can show why it cannot meet the deadline.

Everything above this module (association state, blocklists, deauth logic,
802.11w) runs *after* the ACK decision — which is why the access point in
Figure 3 deauthenticates the attacker and still acknowledges its frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.mac.addresses import MacAddress
from repro.mac.frames import AckFrame, CtsFrame, Frame, FrameType
# ``deserialize`` is unused here but stays importable: the benchmark's
# layer tracer (perfbench/layers.py) wraps ``repro.mac.ack_engine.deserialize``.
from repro.mac.serialization import deserialize  # noqa: F401
from repro.phy.constants import Band, sifs
from repro.phy.plcp import cts_airtime
from repro.phy.radio import Radio, _SLEEP
from repro.phy.rates import ack_rate_for
from repro.sim.medium import LANE_FCS_FAIL, LANE_NOT_FOR_ME, Reception

#: How many (transmitter, sequence) pairs the duplicate cache remembers.
_DUPLICATE_CACHE_SIZE = 64


@dataclass
class AckEngineConfig:
    """Behavioural knobs of the receive-side PHY/low-MAC automaton.

    The defaults model every real device the paper tested.  The other
    settings exist purely for the defense-feasibility ablations:

    ``validate_before_ack``
        The hypothetical device that verifies frame legitimacy before
        acknowledging.  The ``validator`` callback returns
        ``(is_legitimate, decode_time_s)``; the ACK (if the frame proves
        legitimate) is only transmitted after the decode time, so it
        always misses the SIFS deadline (the transmitter will long since
        have declared the frame lost).
    ``respond_to_rts``
        Disable to model a device that somehow suppressed CTS responses —
        the standard does not permit this, since control frames cannot be
        encrypted and channel reservation must work network-wide.
    """

    band: Band = Band.GHZ_2_4
    respond_to_rts: bool = True
    validate_before_ack: bool = False
    validator: Optional[Callable[[Frame], Tuple[bool, float]]] = None
    promiscuous: bool = False


@dataclass
class AckEngineStats:
    """Counters the tests and benchmarks assert on."""

    frames_seen: int = 0
    fcs_failures: int = 0
    acks_sent: int = 0
    cts_sent: int = 0
    acks_suppressed_by_validation: int = 0
    late_acks: int = 0
    duplicates_dropped: int = 0
    passed_up: int = 0


class AckEngine:
    """Receive-side automaton bound to one radio.

    Wire-up: the engine installs itself as the radio's ``frame_handler``;
    the device's upper MAC subscribes via :attr:`mac_handler` (data and
    management frames that survive duplicate filtering) and
    :attr:`control_handler` (ACK/CTS addressed to us, consumed by the
    retransmitting transmitter).
    """

    def __init__(
        self,
        radio: Radio,
        mac_address: MacAddress,
        config: Optional[AckEngineConfig] = None,
        metrics=None,
    ) -> None:
        self.radio = radio
        self.mac_address = MacAddress(mac_address)
        self.config = config if config is not None else AckEngineConfig()
        self.stats = AckEngineStats()
        # Default to the simulation-wide registry threaded through the
        # engine/medium, so instrumenting the Engine instruments every
        # device's ACK automaton with shared counters.
        self.metrics = metrics if metrics is not None else radio.medium.metrics
        self._ctr_acks = None
        self._ctr_cts = None
        self._hist_gap = None
        if self.metrics is not None:
            self._ctr_acks = self.metrics.counter(
                "ack.acks_sent", "acknowledgements transmitted"
            )
            self._ctr_cts = self.metrics.counter(
                "ack.cts_sent", "clear-to-send responses transmitted"
            )
            self._hist_gap = self.metrics.histogram(
                "ack.response_gap_us",
                "gap between frame end and the scheduled ACK/CTS (us); "
                "SIFS unless a validation ablation delays it",
                buckets=(10.0, 16.0, 25.0, 50.0, 100.0, 250.0, 1000.0),
            )
        self.mac_handler: Optional[Callable[[Frame, Reception], None]] = None
        self.control_handler: Optional[Callable[[Frame, Reception], None]] = None
        self.sniffer_handler: Optional[Callable[[Frame, Reception], None]] = None
        # Passivity contracts for the batched reception fast lanes (see
        # install_sniffer / install_mac_handler).  The identity fields
        # remember which handler the contract was made for: code that
        # later assigns `sniffer_handler` / `mac_handler` directly (tests
        # do) breaks the identity match and every arrival falls back to
        # the scalar path — never an incorrect fast verdict.
        self._passive_sniffer: Optional[Callable] = None
        self._sniffer_passive_check: Optional[Callable[[], bool]] = None
        self._passive_mac: Optional[Callable] = None
        self._mac_passive_probe: Optional[Callable[[tuple], bool]] = None
        #: (ftype, subtype) -> probe verdict, cleared when the contract
        #: is reinstalled.  The probe itself memoizes per device class;
        #: this engine-local mirror just skips the call on the hot lane.
        self._passive_keys: Dict[tuple, bool] = {}
        self._duplicate_cache: Dict[Tuple[MacAddress, int, int], None] = {}
        # Hot-path caches: the config flag and own-address bytes are
        # immutable after construction and read on every reception.
        self._promiscuous = self.config.promiscuous
        self._mac_value = self.mac_address._value
        # A (nonstandard) group-bit own address would tie with the
        # group-destination test; the fast lanes refuse to guess and the
        # scalar path keeps its exact address-match semantics.
        self._group_mac = bool(self._mac_value[0] & 0x01)
        radio.frame_handler = self._on_reception
        # Assigning frame_handler cleared the batch hook; install ours
        # after it, plus the receive MAC the medium's vectorized
        # pre-filter classifies against.  The radio attached before this
        # engine existed, so tell the medium the addressing changed.
        radio.frame_handler_batch = self._on_reception_lane
        radio.rx_mac_u64 = int.from_bytes(self._mac_value, "big")
        medium = getattr(radio, "medium", None)
        if medium is not None:
            note = getattr(medium, "note_addressing_changed", None)
            if note is not None:
                note(radio.name)

    # ------------------------------------------------------------------
    # Handler installation (batch-lane passivity contracts)
    # ------------------------------------------------------------------
    def install_sniffer(
        self,
        handler: Callable[[Frame, Reception], None],
        passive_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Set :attr:`sniffer_handler`, optionally with a passivity contract.

        ``passive_check()`` returning ``True`` promises that ``handler``
        currently has no observable effect for any frame, so the batched
        fast lanes may skip invoking it.  It is re-evaluated per span
        (cheap attribute checks), letting passivity change at runtime.
        """
        self.sniffer_handler = handler
        self._passive_sniffer = handler if passive_check is not None else None
        self._sniffer_passive_check = passive_check

    def install_mac_handler(
        self,
        handler: Callable[[Frame, Reception], None],
        passive_probe: Optional[Callable[[tuple], bool]] = None,
    ) -> None:
        """Set :attr:`mac_handler`, optionally with a passivity contract.

        ``passive_probe((ftype, subtype))`` returning ``True`` promises
        that ``handler`` is a no-op for group frames of that type — the
        wardrive's dominant traffic (beacons heard by hundreds of idle
        stations), which then never leaves the counter-only fast lane.
        """
        self.mac_handler = handler
        self._passive_mac = handler if passive_probe is not None else None
        self._mac_passive_probe = passive_probe
        self._passive_keys = {}

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_reception_lane(self, lane: int, span, index: int) -> bool:
        """Batched fast path: account for a pre-classified arrival.

        Installed as the radio's ``frame_handler_batch``, which the
        medium caches directly as the delivery sink — so the radio-level
        contract (the sleep drop, the ``frames_delivered`` bump) is
        applied here rather than in :meth:`Radio.on_reception_batch`.
        Consumes the lanes whose scalar handling is pure counter
        arithmetic — below-FCS, clean-but-not-for-me, and group frames
        whose handlers are contractually passive — and returns ``False``
        for everything else (for-me unicast with its ACK scheduling,
        promiscuous capture, any non-passive handler), sending the
        medium through the byte-identical scalar path instead.  Mutates
        nothing before returning ``False``.
        """
        radio = self.radio
        if radio._state is _SLEEP:
            radio.frames_dropped_asleep += 1
            return True
        stats = self.stats
        if lane == LANE_FCS_FAIL:
            stats.frames_seen += 1
            stats.fcs_failures += 1
            radio.frames_delivered += 1
            return True
        if self._promiscuous:
            return False
        sniffer = self.sniffer_handler
        if sniffer is not None and (
            sniffer is not self._passive_sniffer
            or not self._sniffer_passive_check()
        ):
            return False
        if lane == LANE_NOT_FOR_ME:
            stats.frames_seen += 1
            radio.frames_delivered += 1
            return True
        # LANE_GROUP: delivered to the MAC handler in the scalar path —
        # consumable only when that handler is contractually passive for
        # this frame type (or absent).
        if self._group_mac:
            return False
        handler = self.mac_handler
        if handler is None:
            stats.frames_seen += 1
            stats.passed_up += 1
            radio.frames_delivered += 1
            return True
        key = span.frame_key
        if handler is self._passive_mac and key is not None:
            # The probe's verdict is structural (which methods the device
            # class overrides) and permanently memoized per class, so the
            # per-engine memo here cannot go stale ahead of it.
            verdict = self._passive_keys.get(key)
            if verdict is None:
                verdict = self._mac_passive_probe(key)
                self._passive_keys[key] = verdict
            if verdict:
                stats.frames_seen += 1
                stats.passed_up += 1
                radio.frames_delivered += 1
                return True
        return False

    def _on_reception(self, reception: Reception) -> None:
        stats = self.stats
        stats.frames_seen += 1
        if not reception.fcs_ok:
            # The PHY silently discards frames that fail the CRC; nothing
            # above ever learns they existed, and no ACK is generated.
            stats.fcs_failures += 1
            return
        payload = reception.frame
        # A RawPsdu memoizes its own decode, so every receiver of one
        # transmission shares one FCS check and parse.
        frame = payload if isinstance(payload, Frame) else getattr(payload, "decoded", None)
        if frame is None:
            stats.fcs_failures += 1
            return
        if self.sniffer_handler is not None:
            self.sniffer_handler(frame, reception)
        if self._promiscuous:
            # Monitor-mode interfaces capture everything and answer nothing.
            return
        addr1 = frame.addr1
        if addr1._value != self._mac_value:
            if addr1._value[0] & 0x01:  # group bit: multicast/broadcast
                # _pass_up inlined: group frames dominate the wardrive
                # receive path (beacons/probes heard by hundreds of radios).
                stats.passed_up += 1
                handler = self.mac_handler
                if handler is not None:
                    handler(frame, reception)
            return

        # --- From here on the frame is addressed to us and passed the FCS.
        # This is the entirety of what fits inside SIFS.
        if frame.ftype is FrameType.CONTROL:
            self._handle_control(frame, reception)
            return
        self._schedule_ack(frame, reception)
        self._pass_up_unicast(frame, reception)

    # ------------------------------------------------------------------
    # Control responses
    # ------------------------------------------------------------------
    def _handle_control(self, frame: Frame, reception: Reception) -> None:
        if frame.is_rts and self.config.respond_to_rts:
            self._schedule_cts(frame, reception)
            return
        if (frame.is_ack or frame.is_cts) and self.control_handler is not None:
            self.control_handler(frame, reception)

    def _schedule_cts(self, rts: Frame, reception: Reception) -> None:
        """CTS one SIFS after the RTS — mandatory, unencryptable, and the
        reason Polite WiFi survives even a hypothetical instant validator."""
        gap = sifs(self.config.band)
        rate = ack_rate_for(reception.rate_mbps)
        remaining = rts.duration_us * 1e-6 - gap - cts_airtime(rate)
        cts = CtsFrame(
            ra=rts.addr2 if rts.addr2 is not None else rts.addr1,
            duration_us=max(int(remaining * 1e6), 0),
        )

        def send() -> None:
            self.radio.transmit(cts, rate)
            self.stats.cts_sent += 1
            if self._ctr_cts is not None:
                self._ctr_cts.inc()

        if self._hist_gap is not None:
            self._hist_gap.observe(gap * 1e6)
        self.radio.medium.engine.call_after(gap, send)

    def _schedule_ack(self, frame: Frame, reception: Reception) -> None:
        if not frame.needs_ack:
            return
        rate = ack_rate_for(reception.rate_mbps)
        ack = AckFrame(ra=frame.addr2 if frame.addr2 is not None else frame.addr1)
        gap = sifs(self.config.band)

        if self.config.validate_before_ack:
            # Hypothetical checking device (Section 2.2 ablation): the ACK
            # waits for full frame validation.  Decode takes 200-700 us,
            # so the ACK — when it comes at all — is hopelessly late.
            validator = self.config.validator
            if validator is None:
                raise RuntimeError(
                    "validate_before_ack requires a validator callback"
                )
            legitimate, decode_time = validator(frame)
            if not legitimate:
                self.stats.acks_suppressed_by_validation += 1
                return
            if decode_time > gap:
                self.stats.late_acks += 1
            gap = max(gap, decode_time)

        def send() -> None:
            self.radio.transmit(ack, rate)
            self.stats.acks_sent += 1
            if self._ctr_acks is not None:
                self._ctr_acks.inc()

        if self._hist_gap is not None:
            self._hist_gap.observe(gap * 1e6)
        self.radio.medium.engine.call_after(gap, send)

    # ------------------------------------------------------------------
    # Pass-up to the real MAC (runs long after the ACK decision)
    # ------------------------------------------------------------------
    def _pass_up_unicast(self, frame: Frame, reception: Reception) -> None:
        key = None
        if frame.addr2 is not None:
            key = (frame.addr2, frame.sequence, frame.fragment)
        if frame.retry and key is not None and key in self._duplicate_cache:
            # Duplicates are *still acknowledged* (the ACK already went out
            # above); they are merely not delivered twice.
            self.stats.duplicates_dropped += 1
            return
        if key is not None:
            self._duplicate_cache[key] = None
            while len(self._duplicate_cache) > _DUPLICATE_CACHE_SIZE:
                self._duplicate_cache.pop(next(iter(self._duplicate_cache)))
        self.stats.passed_up += 1
        if self.mac_handler is not None:
            self.mac_handler(frame, reception)

    def _pass_up(self, frame: Frame, reception: Reception) -> None:
        self.stats.passed_up += 1
        if self.mac_handler is not None:
            self.mac_handler(frame, reception)
