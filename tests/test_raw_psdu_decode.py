"""Injected raw bytes are decoded once per transmission, for every consumer.

A :class:`RawPsdu` is read by the medium's lane pre-filter, by the trace
hooks and by the AckEngine of every receiver.  All of them share one
memoized decode: one FCS check and one parse per transmission.
"""

import pytest

import repro.devices.dongle as dongle_module
from repro.devices.dongle import MonitorDongle, RawPsdu
from repro.mac.addresses import ATTACKER_FAKE_MAC
from repro.mac.frames import NullDataFrame
from repro.mac.serialization import serialize
from repro.phy.crc import append_fcs
from repro.sim.world import Position

from tests.conftest import fresh_mac


@pytest.fixture
def parse_calls(monkeypatch):
    """Count calls of the decoder RawPsdu uses."""
    calls = []
    original = dongle_module.deserialize

    def counting(psdu, *args, **kwargs):
        calls.append(psdu)
        return original(psdu, *args, **kwargs)

    monkeypatch.setattr(dongle_module, "deserialize", counting)
    return calls


def _recording_receivers(make_station, make_dongle):
    """Two stations and two monitor dongles that record every frame."""
    stations = [make_station(x=0.0), make_station(x=1.0)]
    monitors = [make_dongle(x=2.0), make_dongle(x=3.0)]
    seen = {}
    for station in stations:
        # Assigning the sniffer directly breaks its passivity contract,
        # so every arrival takes the scalar path and sees a frame object.
        station.ack_engine.sniffer_handler = (
            lambda frame, reception, name=station.name: seen.setdefault(name, []).append(frame)
        )
    for monitor in monitors:
        monitor.add_listener(
            lambda frame, reception, name=monitor.name: seen.setdefault(name, []).append(frame)
        )
    return stations, monitors, seen


class TestDecodeOnce:
    def test_one_parse_for_every_receiver_and_the_trace(
        self, engine, trace, make_station, make_dongle, parse_calls
    ):
        stations, monitors, seen = _recording_receivers(make_station, make_dongle)
        attacker = make_dongle(x=5.0)
        psdu = serialize(NullDataFrame(addr1=stations[0].mac, addr2=ATTACKER_FAKE_MAC))
        attacker.inject_bytes(psdu)
        engine.run_until(0.01)

        assert len(parse_calls) == 1
        receivers = [s.name for s in stations] + [m.name for m in monitors]
        frames = [seen[name][0] for name in receivers]
        assert all(frame is frames[0] for frame in frames)
        assert frames[0].addr1 == stations[0].mac
        # The trace read the same decode: source and info come from it.
        injected = [r for r in trace if r.source == str(ATTACKER_FAKE_MAC)]
        assert injected and "Null function" in injected[0].info
        assert stations[0].ack_engine.stats.acks_sent == 1

    def test_malformed_bytes_trace_raw_and_count_as_fcs_failures(
        self, engine, trace, make_station, make_dongle, parse_calls
    ):
        stations, monitors, seen = _recording_receivers(make_station, make_dongle)
        attacker = make_dongle(x=5.0)
        attacker.inject_bytes(b"\xff" * 30)  # FCS fails
        engine.run_until(0.01)

        assert len(parse_calls) == 1
        assert seen == {}
        record = trace[0]
        assert (record.source, record.destination) == ("(raw)", "(raw)")
        assert record.info == "Malformed frame"
        for device in stations + monitors:
            assert device.ack_engine.stats.fcs_failures == 1
            assert device.ack_engine.stats.acks_sent == 0

    def test_memo_holds_the_failure_too(self, parse_calls):
        raw = RawPsdu(b"garbage")
        assert raw.decoded is None
        assert raw.dest_u64() is None
        assert raw.trace_info() == "Malformed frame"
        assert len(parse_calls) == 1


class TestReservedFrameType:
    def test_valid_fcs_reserved_type_counted_as_malformed(
        self, engine, medium, rng, make_station
    ):
        # Type bits 11 with a valid FCS once escaped the parser as a bare
        # ValueError and crashed the run from inside the victim's AckEngine.
        station = make_station()
        attacker = MonitorDongle(
            mac=fresh_mac(), medium=medium, position=Position(5, 0), rng=rng
        )
        first = (0x03 << 2) | (0x04 << 4)
        header = bytes([first, 0x00, 0x00, 0x00]) + station.mac.bytes
        attacker.inject_bytes(append_fcs(header + bytes(ATTACKER_FAKE_MAC.bytes) + b"\x00" * 8))
        engine.run_until(0.1)
        assert station.ack_engine.stats.fcs_failures == 1
        assert station.ack_engine.stats.acks_sent == 0
