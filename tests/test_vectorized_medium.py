"""The medium against the from-scratch reference medium, byte for byte.

``tests/reference_medium.py`` re-implements the medium's physics the
obvious way: one two-phase event per receiver, no caches, no lanes,
every arrival handed up through ``radio.on_reception``.  The contracts
pinned here:

* across an equivalence matrix of the medium's model switches (SNR FER
  model with a seeded medium RNG, CSI model, log-distance path loss),
  the Figure 2 probe exchange and a Table 2-shaped wardrive produce
  **byte-identical** traces, outputs, per-radio reception tallies and
  ``medium.frames.*`` counters on both media;
* ad-hoc queries (``rssi_between`` / ``is_busy_for``) read the same
  epoch-keyed budgets as the delivery path, so they can never drift from
  what a transmission actually experiences;
* the caches and SoA index survive arbitrary mid-run attach / detach /
  retune / reposition / receive-MAC changes (property-tested against the
  reference): cache patching and index compaction never change who hears
  what, or when, or how clean.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.sim.medium as medium_module
from repro.mac.ack_engine import AckEngine
from repro.mac.addresses import MacAddress
from repro.mac.frames import NullDataFrame
from repro.phy.radio import Radio
from repro.phy.signal import SnrFerModel
from repro.scenario import run_scenario
from repro.sim.engine import Engine, EventBatch
from repro.sim.medium import Medium
from repro.sim.trace import FrameTrace
from repro.sim.world import Position
from repro.telemetry.registry import MetricsRegistry
from tests.reference_medium import ReferenceMedium
from tests.test_sim_medium import _frame

#: (fer, csi, log_distance): the medium's model switches.  FER runs seed
#: the medium RNG, so the coin flips are compared draw for draw; CSI runs
#: are the only ones whose spans carry no fast lanes.
MATRIX = [
    (fer, csi, log_distance)
    for fer in (False, True)
    for csi in (False, True)
    for log_distance in (False, True)
]

WARDRIVE_PARAMS = {
    "population_scale": 0.01,
    "keep_all_vendors": False,
    "blocks_x": 4,
    "blocks_y": 3,
}


def index_batch(engine, fn, base, shift, offsets):
    """An EventBatch whose slice handler calls ``fn(i)`` per item index.

    The handler drains one item at a time and stops at the first item
    the engine must not run yet — past the run limit, at/after the heap
    head, or after a stop request — as every slice handler must.
    """
    clock = engine.clock

    def handler(batch):
        i = batch.index
        n = len(batch.offsets)
        while True:
            fn(i)
            i += 1
            if i == n:
                return i
            t = batch.base + batch.offsets[i] + batch.shift
            if t > clock._now:
                heap = engine._heap
                if (
                    t > engine._run_limit
                    or engine._stopped
                    or (heap and t >= heap[0][0])
                ):
                    return i
                clock._now = t

    return EventBatch(engine, handler, base, shift, offsets)


def run_on(medium_cls, monkeypatch, name, **kwargs):
    """Run scenario ``name`` with every Medium built as ``medium_cls``.

    Returns ``(result, observed)`` where ``observed`` is everything the
    two media must agree on besides the trace and outputs: the
    ``medium.frames.*`` counters and every radio's and ACK engine's
    reception tallies, in construction order.
    """
    radios, ack_engines = [], []
    radio_init, ack_init = Radio.__init__, AckEngine.__init__

    def collect_radio(self, *args, **kw):
        radio_init(self, *args, **kw)
        radios.append(self)

    def collect_ack(self, *args, **kw):
        ack_init(self, *args, **kw)
        ack_engines.append(self)

    metrics = MetricsRegistry()
    with monkeypatch.context() as patched:
        patched.setattr(medium_module, "Medium", medium_cls)
        patched.setattr(Radio, "__init__", collect_radio)
        patched.setattr(AckEngine, "__init__", collect_ack)
        result = run_scenario(name, quiet=True, metrics=metrics, **kwargs)
    counters = metrics.snapshot()["counters"]
    observed = {
        "frames": {k: v for k, v in counters.items() if k.startswith("medium.")},
        "radios": [
            (r.name, r.frames_sent, r.frames_delivered, r.frames_dropped_asleep)
            for r in radios
        ],
        "acks": [dataclasses.astuple(a.stats) for a in ack_engines],
    }
    return result, observed


def assert_same_run(monkeypatch, name, **kwargs):
    fast, fast_seen = run_on(Medium, monkeypatch, name, **kwargs)
    ref, ref_seen = run_on(ReferenceMedium, monkeypatch, name, **kwargs)
    assert fast.ctx.trace.to_jsonl() == ref.ctx.trace.to_jsonl()
    assert fast.outputs == ref.outputs
    assert fast_seen == ref_seen
    assert fast_seen["frames"]["medium.frames.delivered"] > 0
    return fast, ref


def _switches(fer: bool, csi: bool, log_distance: bool) -> dict:
    overrides = {}
    if fer:
        overrides.update(fer="snr", seed_medium=True)
    if csi:
        overrides["csi"] = True
    if log_distance:
        overrides["path_loss"] = {"kind": "log_distance"}
    return overrides


# ----------------------------------------------------------------------
# The equivalence matrix, against the reference medium
# ----------------------------------------------------------------------
class TestEquivalenceMatrix:
    @pytest.mark.parametrize("fer,csi,log_distance", MATRIX)
    def test_figure2_trace_byte_identical(self, monkeypatch, fer, csi, log_distance):
        assert_same_run(monkeypatch, "probe", **_switches(fer, csi, log_distance))

    @pytest.mark.parametrize("fer,csi,log_distance", MATRIX)
    def test_wardrive_trace_byte_identical(self, monkeypatch, fer, csi, log_distance):
        # Static city + driving rig: exercises the static delivery cache,
        # the changelog patcher (lazy activation), the per-transmission
        # mobile merge, and — with the switches — FER coin flips, CSI
        # sampling and the full-bucket scan of a custom path-loss model.
        fast, _ = assert_same_run(
            monkeypatch,
            "wardrive",
            trace=True,
            params=dict(WARDRIVE_PARAMS),
            **_switches(fer, csi, log_distance),
        )
        assert int(fast.outputs["discovered"]) > 0


# ----------------------------------------------------------------------
# Query paths read the delivery-path budgets
# ----------------------------------------------------------------------
class TestQueryPathsMatchDelivery:
    def test_rssi_between_matches_delivered_rssi(self, engine):
        # A stateful path-loss model (frozen per-link shadowing) makes any
        # out-of-band model re-invocation visible: a second draw for the
        # same link would disagree with what the delivery saw.
        from repro.channel.propagation import ShadowedPathLoss

        medium = Medium(
            engine,
            path_loss_db=ShadowedPathLoss(rng=np.random.default_rng(7)),
        )
        tx = Radio("tx", medium, Position(0, 0), tx_power_dbm=20.0)
        rx = Radio("rx", medium, Position(12, 5))
        seen = []
        rx.frame_handler = lambda r: seen.append(r.rssi_dbm)

        # Query first (primes the link cache), then deliver, then query
        # again: all three must agree exactly.
        before = medium.rssi_between("tx", "rx", engine.now)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        after = medium.rssi_between("tx", "rx", engine.now)
        assert len(seen) == 1
        assert seen[0] == before == after

    def test_is_busy_for_uses_delivered_rssi(self, engine):
        medium = Medium(engine)
        tx = Radio("tx", medium, Position(0, 0), tx_power_dbm=20.0)
        rx = Radio("rx", medium, Position(30, 0))
        rssi = medium.rssi_between("tx", "rx", engine.now)
        verdicts = {}

        def check():
            verdicts["below"] = medium.is_busy_for("rx", rssi - 1.0)
            verdicts["above"] = medium.is_busy_for("rx", rssi + 1.0)

        tx.transmit(_frame(), 6.0, length_bytes=1000)
        engine.call_after(100e-6, check)  # mid-flight
        engine.run_until(0.01)
        # The CCA comparison uses the very same RSSI the arrival carries.
        assert verdicts == {"below": True, "above": False}

    def test_queries_agree_across_modes(self, engine):
        # The cached query path against the reference's fresh model call,
        # for a static pair and a moving receiver.
        ref_engine = Engine()
        fast = Medium(engine)
        ref = ReferenceMedium(ref_engine)
        for medium in (fast, ref):
            Radio("a", medium, Position(0, 0))
            Radio("b", medium, Position(25, 40))
            Radio("m", medium, lambda t: Position(3.0 + 100.0 * t, 7.0))
        for time in (0.0, 0.5, 0.5, 1.25):
            for pair in (("a", "b"), ("b", "a"), ("a", "m"), ("m", "b")):
                assert fast.rssi_between(*pair, time) == ref.rssi_between(*pair, time)
        for name in ("a", "b", "m"):
            assert fast.is_busy_for(name) is ref.is_busy_for(name) is False

    def test_rssi_between_unattached_name_raises_key_error(self, engine):
        medium = Medium(engine)
        Radio("a", medium, Position(0, 0))
        ghost = Radio("ghost", medium, Position(5, 0))
        medium.detach("ghost")
        with pytest.raises(KeyError):
            medium.rssi_between("a", "ghost", 0.0)
        with pytest.raises(KeyError):
            medium.rssi_between(ghost.name, "a", 0.0)


# ----------------------------------------------------------------------
# Mid-run mutation sweep against the reference (property-based)
# ----------------------------------------------------------------------
CHANNELS = (1, 6, 11)
BROADCAST = "ff:ff:ff:ff:ff:ff"
NOBODY = "02:0f:00:00:00:00"


def _mutation_run(ops, medium_cls, fer: bool):
    """Scripted world: periodic transmissions + a mutation schedule.

    Radios 0-2 send (at -20 dBm, so 54 Mb/s frames sit on the SNR FER
    model's slope), 3-5 log every reception they are handed, and 6-8 run
    ACK engines — their batch sinks take the fast lanes on the production
    medium.  Returns the full observable surface: the exact reception
    log, per-radio and per-ACK-engine tallies, the ``medium.frames.*``
    counters and the frame trace.
    """
    metrics = MetricsRegistry()
    engine = Engine(metrics=metrics)
    trace = FrameTrace()
    medium = medium_cls(
        engine,
        trace=trace,
        fer=SnrFerModel() if fer else None,
        rng=np.random.default_rng(1234),
    )
    radios = [
        Radio(
            f"r{i}",
            medium,
            Position(7.0 * (i % 3), 9.0 * (i // 3)),
            channel=CHANNELS[i % 3],
            tx_power_dbm=-20.0 if i < 3 else 20.0,
        )
        for i in range(9)
    ]
    log = []
    for radio in radios[:6]:
        radio.frame_handler = lambda rec, name=radio.name: log.append(
            (
                name,
                rec.transmission.sender,
                rec.start,
                rec.end,
                rec.rssi_dbm,
                rec.snr_db,
                rec.fcs_ok,
                rec.collided,
                rec.while_transmitting,
            )
        )
    acks = {
        i: [AckEngine(radios[i], MacAddress(f"02:ac:00:00:00:0{i}"))]
        for i in range(6, 9)
    }

    def apply(op):
        kind, target, arg = op
        radio = radios[target]
        attached = medium.has_radio(radio.name)
        if kind == "retune" and attached:
            radio.channel = CHANNELS[arg % 3]
        elif kind == "reposition" and attached:
            x, y = 3.0 * (arg % 7), 2.0 * (arg % 5)
            if arg % 2:
                radio._position = lambda t, x=x, y=y: Position(x + 4000.0 * t, y)
            else:
                radio._position = Position(x, y)
        elif kind == "detach" and attached:
            medium.detach(radio.name)
        elif kind == "attach" and not attached:
            medium.attach(radio)
        elif kind == "mac":
            k = 6 + target % 3
            acks[k].append(AckEngine(radios[k], MacAddress(f"02:ac:00:00:{arg:02x}:0{k}")))

    def send(k, s):
        sender = radios[s]
        if not medium.has_radio(sender.name):
            return
        pick = (k + s) % 5
        if pick < 3:
            dst = str(acks[6 + pick][-1].mac_address)
        else:
            dst = BROADCAST if pick == 3 else NOBODY
        frame = NullDataFrame(
            addr1=MacAddress(dst), addr2=MacAddress(f"02:00:00:00:00:1{s}")
        )
        sender.transmit(frame, 54.0 if k % 2 else 6.0, length_bytes=200)

    # Three sends per millisecond; mutations alternate between landing
    # *mid-flight* (60 us after the first send, while 6 Mb/s frames are
    # still on the air) and between transmissions.
    for k, op in enumerate(ops):
        offset = 60e-6 if k % 2 == 0 else 600e-6
        engine.call_at(1e-3 * (k + 0.5) + offset, lambda op=op: apply(op))
    for k in range(len(ops) + 2):
        for s in (0, 1, 2):
            engine.call_at(1e-3 * (k + 0.5) + 17e-6 * s, lambda k=k, s=s: send(k, s))
    engine.run_until(1e-3 * (len(ops) + 4))
    counters = metrics.snapshot()["counters"]
    return {
        "log": log,
        "radios": [
            (r.frames_sent, r.frames_delivered, r.frames_dropped_asleep) for r in radios
        ],
        "acks": [dataclasses.astuple(a.stats) for k in sorted(acks) for a in acks[k]],
        "frames": {k: v for k, v in counters.items() if k.startswith("medium.")},
        "trace": trace.to_jsonl(),
    }


_op = st.tuples(
    st.sampled_from(["retune", "reposition", "detach", "attach", "mac"]),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=20),
)


class TestSoACompaction:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(_op, min_size=1, max_size=8), fer=st.booleans())
    def test_mutation_sweep_is_mode_invariant(self, ops, fer):
        fast = _mutation_run(ops, Medium, fer)
        ref = _mutation_run(ops, ReferenceMedium, fer)
        assert fast == ref

    def test_sweep_reaches_fer_drops(self):
        # The sweep's geometry is only useful if its FER coin flips
        # actually drop frames.
        ops = [("mac", 0, 3), ("reposition", 4, 5), ("retune", 7, 1)]
        fast = _mutation_run(ops, Medium, fer=True)
        assert any(not fcs_ok for *_, fcs_ok, _c, _w in fast["log"])
        assert fast["frames"]["medium.frames.dropped"] > 0
        assert fast == _mutation_run(ops, ReferenceMedium, fer=True)

    def test_detach_reattach_compacts_and_restores(self, engine):
        medium = Medium(engine)
        radios = [Radio(f"x{i}", medium, Position(float(i), 0)) for i in range(5)]
        tx = radios[0]
        heard = []
        for r in radios[1:]:
            r.frame_handler = lambda rec, n=r.name: heard.append(n)
        medium.detach("x2")
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert sorted(heard) == ["x1", "x3", "x4"]
        heard.clear()
        medium.attach(radios[2])
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.02)
        assert sorted(heard) == ["x1", "x2", "x3", "x4"]


class TestDeliveryEdgeCases:
    def test_mobile_receiver_of_an_empty_static_list_draws_fer(self, engine):
        # The sender's static list is empty (nobody static in range), so
        # the only receiver is a mobile merged in per transmission; its
        # arrival must still take the FER coin.
        medium = Medium(engine, fer=lambda snr, rate, length: 1.0)
        tx = Radio("tx", medium, Position(0, 0))
        Radio("far", medium, Position(1e6, 0))
        rig = Radio("rig", medium, lambda t: Position(5.0 + t, 0))
        seen = []
        rig.frame_handler = lambda rec: seen.append(rec.fcs_ok)
        tx.transmit(_frame(), 6.0)
        engine.run_until(0.01)
        assert seen == [False]

    def test_receiver_readdressed_mid_flight(self):
        # The frame is addressed to a MAC the receiver only takes on
        # while the frame is on the air: it is the *new* ACK engine that
        # must see it (and ACK it) when the arrival ends, as on the
        # reference medium — not the engine the delivery list cached.
        def run(medium_cls):
            engine = Engine()
            medium = medium_cls(engine)
            sender = Radio("tx", medium, Position(0, 0))
            rx = Radio("rx", medium, Position(5, 0))
            engines = [AckEngine(rx, MacAddress("02:ac:00:00:00:01"))]
            frame = NullDataFrame(
                addr1=MacAddress("02:ac:00:00:00:02"),
                addr2=MacAddress("02:00:00:00:00:10"),
            )
            sender.transmit(frame, 6.0)  # ~50 us on the air
            engine.call_at(
                20e-6,
                lambda: engines.append(AckEngine(rx, MacAddress("02:ac:00:00:00:02"))),
            )
            engine.run_until(0.01)
            return [dataclasses.astuple(e.stats) for e in engines]

        fast = run(Medium)
        assert fast == run(ReferenceMedium)
        assert fast[1][0] == 1  # the new engine saw the frame...
        assert fast[0][0] == 0  # ...the replaced one did not

    def test_stop_mid_span_then_resume_matches_reference(self):
        # A handler stops the run at the first of three receivers that
        # share one arrival time; resuming must finish the span exactly
        # as the reference medium does.
        def run(medium_cls):
            engine = Engine()
            medium = medium_cls(engine)
            sender = Radio("tx", medium, Position(0, 0))
            spots = [1.0, 40.0, 80.0, 80.0, 80.0, 120.0]
            log = []
            for k, x in enumerate(spots):
                rx = Radio(f"rx{k}", medium, Position(x, 0))
                rx.frame_handler = lambda rec, k=k: (
                    log.append((k, rec.end, rec.rssi_dbm)),
                    k == 2 and engine.stop(),
                )
            sender.transmit(_frame(), 6.0)
            engine.run_until(0.01)
            engine.run_until(0.01)
            return log

        fast = run(Medium)
        assert fast == run(ReferenceMedium)
        assert [k for k, *_ in fast] == [0, 1, 2, 3, 4, 5]

    def test_wide_unicast_span_matches_reference(self):
        # More than 64 static receivers: lane classification compares the
        # destination against the numpy MAC mirror in one shot.
        def run(medium_cls):
            engine = Engine()
            medium = medium_cls(engine)
            sender = Radio("tx", medium, Position(0, 0))
            acks = [
                AckEngine(
                    Radio(f"sta{k}", medium, Position(3.0 + k % 10, k // 10)),
                    MacAddress(f"02:ac:00:00:01:{k:02x}"),
                )
                for k in range(80)
            ]
            for n, dst in enumerate(["02:ac:00:00:01:07", BROADCAST, NOBODY]):
                frame = NullDataFrame(
                    addr1=MacAddress(dst), addr2=MacAddress("02:00:00:00:00:10")
                )
                engine.call_at(1e-3 * n, lambda frame=frame: sender.transmit(frame, 6.0))
            engine.run_until(0.01)
            return [dataclasses.astuple(a.stats) for a in acks]

        fast = run(Medium)
        assert fast == run(ReferenceMedium)
        assert fast[7][2] == 1  # the addressed station ACKed

    def test_unattached_sender_matches_reference(self):
        def run(medium_cls):
            engine = Engine()
            medium = medium_cls(engine)
            static = Radio("a", medium, Position(0, 0))
            rig = Radio("rig", medium, lambda t: Position(4.0 + 1e4 * t, 0))
            ghost = Radio("ghost", medium, Position(0, 3))
            medium.detach("ghost")
            log = []
            for radio in (static, rig):
                radio.frame_handler = lambda rec, name=radio.name: log.append(
                    (name, rec.end, rec.rssi_dbm, rec.fcs_ok)
                )
            for k in range(3):
                engine.call_at(1e-3 * k, lambda: ghost.transmit(_frame(), 6.0))
            engine.run_until(0.01)
            return log

        fast = run(Medium)
        assert fast == run(ReferenceMedium)
        assert len(fast) == 6  # both attached radios hear all three


# ----------------------------------------------------------------------
# The SoA arrays themselves
# ----------------------------------------------------------------------
class TestChannelSoA:
    def test_mobile_rows_are_nan_and_gated_out(self, engine):
        medium = Medium(engine)
        Radio("s", medium, Position(1, 2, 3), channel=1)
        Radio("m", medium, lambda t: Position(t, 0), channel=1)
        soa = medium._channel_soa(1)
        assert soa.count == 2
        by_name = {e.name: i for i, e in enumerate(soa.entries)}
        assert np.array_equal(soa.xyz[by_name["s"]], [1.0, 2.0, 3.0])
        assert np.all(np.isnan(soa.xyz[by_name["m"]]))

    def test_limit2_cached_per_power_and_covers_scalar_range(self, engine):
        medium = Medium(engine)
        Radio("a", medium, Position(0, 0), channel=1, rx_sensitivity_dbm=-92.0)
        Radio("b", medium, Position(5, 0), channel=1, rx_sensitivity_dbm=-70.0)
        soa = medium._channel_soa(1)
        limit2 = soa.limit2(20.0)
        assert soa.limit2(20.0) is limit2  # cached per power
        assert soa.limit2(10.0) is not limit2
        # The squared gate must admit at least the exact scalar range:
        # dmax = (lambda / 4 pi) * 10^((P - sens) / 20), clamped to 1 m.
        wavelength = 299_792_458.0 / soa.freq_hz[0]
        for i, sens in enumerate(soa.sens_dbm):
            dmax = max(
                (wavelength / (4.0 * math.pi)) * 10.0 ** ((20.0 - sens) / 20.0),
                1.0,
            )
            assert limit2[i] >= dmax * dmax

    def test_rebuilt_after_version_bump(self, engine):
        medium = Medium(engine)
        r0 = Radio("a", medium, Position(0, 0), channel=1)
        Radio("b", medium, Position(5, 0), channel=1)
        first = medium._channel_soa(1)
        r0.channel = 6  # retune bumps both buckets' versions
        rebuilt = medium._channel_soa(1)
        assert rebuilt is not first
        assert rebuilt.count == 1
        assert rebuilt.entries[0].name == "b"


# ----------------------------------------------------------------------
# EventBatch items are addressed by index
# ----------------------------------------------------------------------
class TestEventBatchIndexMode:
    """The batch carries no payloads: its handler reads ``batch.index``."""

    def test_none_payloads_hand_the_handler_indices(self, engine):
        fired = []
        batch = index_batch(
            engine, lambda i: fired.append((engine.now, i)),
            base=1.0, shift=0.0, offsets=[0.0, 1e-6, 5e-6],
        )
        engine.post_batch(batch)
        engine.run_until(2.0)
        assert fired == [(1.0, 0), (1.0 + 1e-6, 1), (1.0 + 5e-6, 2)]

    def test_index_mode_pauses_and_resumes_like_payload_mode(self, engine):
        fired = []
        batch = index_batch(
            engine, fired.append, base=0.0, shift=0.0, offsets=[0.1, 0.3, 0.6],
        )
        engine.post_batch(batch)
        engine.run_until(0.4)
        assert fired == [0, 1]
        engine.run_until(1.0)
        assert fired == [0, 1, 2]

    def test_index_mode_yields_to_interleaving_events(self, engine):
        order = []
        batch = index_batch(
            engine, order.append, base=0.0, shift=0.0, offsets=[1.0, 3.0],
        )
        engine.post_batch(batch)
        engine.call_at(2.0, lambda: order.append("evt"))
        engine.run_until(4.0)
        assert order == [0, "evt", 1]
