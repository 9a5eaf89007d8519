"""Layer attribution for the traced benchmark run.

The traced run wraps the calls into each simulator layer at class (or
module) level, from this file only; no program source changes.  Every
wrapper is a span boundary: on entry and on exit the host time elapsed
since the previous boundary is charged to the layer on top of the span
stack.  A layer's *self time* is therefore its span time minus the time
covered by child spans (a transmit inside an ACK inside an arrival
slice is charged to ``medium``, not to ``mac`` or ``arrivals``).  Time
outside every span is charged to ``host``, so the self times of one
phase always sum to the phase's wall time; ``host`` is the unattributed
glue the fidelity check bounds.

Two phases are kept apart: ``setup`` (building the world) and ``run``
(first simulated event to the result).  A phase switch is itself a
boundary, so a span open across it is split correctly.

Per-receiver hooks are deliberately *not* wrapped: the AckEngine lane
hook (``AckEngine._on_reception_lane``) runs once per receiver per
transmission (~7.4M times in a full census) and a Python wrapper would
cost more than the hook itself, so ``mac.frames_seen`` is read from the
engines' own ``stats`` after the run instead (``AckEngine.__init__`` is
wrapped to collect the instances).  ``Radio.on_reception`` is counted,
not timed, for the same reason.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

HOST = "host"

#: Layer names, in report order (``host`` is the unattributed rest).
LAYERS = ("engine", "medium", "arrivals", "mac", "devices", "pipeline", "partition")


class LayerTracer:
    """Span stack with boundary-charged self time, per phase."""

    def __init__(self) -> None:
        self.setup: Dict[str, float] = {}
        self.run: Dict[str, float] = {}
        self._acc = self.setup
        self._stack: List[str] = [HOST]
        self._last = time.perf_counter()
        #: Inclusive per-call durations (seconds) of selected spans.
        self.durations: Dict[str, List[float]] = {}
        #: Plain event counts recorded at the wrapped boundaries.
        self.counts: Dict[str, int] = {}
        #: Objects collected at construction (``AckEngine`` instances).
        self.instances: Dict[str, list] = {}

    def _charge(self, now: float) -> None:
        top = self._stack[-1]
        acc = self._acc
        acc[top] = acc.get(top, 0.0) + (now - self._last)
        self._last = now

    def enter(self, layer: str) -> float:
        now = time.perf_counter()
        self._charge(now)
        self._stack.append(layer)
        return now

    def exit(self) -> float:
        now = time.perf_counter()
        self._charge(now)
        self._stack.pop()
        return now

    def start_run_phase(self) -> float:
        """Close the setup phase: later self time is charged to ``run``."""
        now = time.perf_counter()
        self._charge(now)
        self._acc = self.run
        return now

    def end_run_phase(self) -> float:
        """Charge the open span up to now, which ends the run phase."""
        now = time.perf_counter()
        self._charge(now)
        return now


# ----------------------------------------------------------------------
# Wrapper factories
# ----------------------------------------------------------------------
def _span(tracer: LayerTracer, layer: str, fn: Callable) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def _timed(tracer: LayerTracer, layer: str, key: str, fn: Callable) -> Callable:
    """A span that also records its inclusive duration under ``key``."""
    enter, exit_ = tracer.enter, tracer.exit
    record = tracer.durations.setdefault(key, []).append

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            record(exit_() - start)

    return wrapper


def _slice(tracer: LayerTracer, layer: str, fn: Callable) -> Callable:
    """Arrival-slice drain: a span plus slice and item counts."""
    enter, exit_ = tracer.enter, tracer.exit
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(span, batch):
        first = batch.index
        enter(layer)
        try:
            stop = fn(span, batch)
        finally:
            exit_()
        counts["arrivals.slices"] = counts.get("arrivals.slices", 0) + 1
        counts["arrivals.items"] = counts.get("arrivals.items", 0) + stop - first
        return stop

    return wrapper


def _counter(tracer: LayerTracer, key: str, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _collect(tracer: LayerTracer, key: str, fn: Callable) -> Callable:
    """``__init__`` wrapper remembering every constructed instance."""
    bucket = tracer.instances.setdefault(key, [])

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        bucket.append(self)

    return wrapper


def _probe(tracer: LayerTracer, layer: str, fn: Callable) -> Callable:
    """``PoliteWiFiProbe.probe_async``: a span plus probe/attempt counts."""
    enter, exit_ = tracer.enter, tracer.exit
    counts = tracer.counts

    def on_result_counter(on_result):
        def counted(result):
            counts["pipeline.attempts"] = (
                counts.get("pipeline.attempts", 0) + result.attempts
            )
            if result.responded:
                counts["pipeline.responded"] = counts.get("pipeline.responded", 0) + 1
            return on_result(result)

        return counted

    @functools.wraps(fn)
    def wrapper(self, target, on_result, *args, **kwargs):
        counts["pipeline.probes"] = counts.get("pipeline.probes", 0) + 1
        enter(layer)
        try:
            return fn(self, target, on_result_counter(on_result), *args, **kwargs)
        finally:
            exit_()

    return wrapper


def _listener_factory(tracer: LayerTracer, layer: str, fn: Callable) -> Callable:
    """``PassiveScanner._make_listener``: wrap the listener it returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _span(tracer, layer, fn(*args, **kwargs))

    return wrapper


# ----------------------------------------------------------------------
# The wrap table
# ----------------------------------------------------------------------
#: (module, attribute path, kind, layer, key).  ``kind`` selects the
#: wrapper; ``key`` names the duration list / counter it feeds.  This
#: table is the complete list of wrapped callables (README.md repeats
#: it).  In-process workloads install IN_PROCESS; the tiled workload
#: installs PARENT_SIDE only, because its engines run in forked workers
#: and per-tile layers need tracing inside the program (a later change).
IN_PROCESS: Tuple[Tuple[str, str, str, str, Optional[str]], ...] = (
    ("repro.sim.engine", "Engine.run_until", "span", "engine", None),
    ("repro.sim.medium", "Medium.transmit", "timed", "medium", "medium.transmit"),
    ("repro.sim.medium", "_ArrivalSpan.begin_slice", "slice", "arrivals", None),
    ("repro.sim.medium", "_ArrivalSpan.end_slice", "slice", "arrivals", None),
    ("repro.phy.radio", "Radio.on_reception", "count", "arrivals", "arrivals.scalar_upcalls"),
    ("repro.mac.ack_engine", "AckEngine.__init__", "collect", "mac", "ack_engines"),
    ("repro.mac.ack_engine", "AckEngine._on_reception", "span", "mac", None),
    ("repro.mac.ack_engine", "deserialize", "timed", "mac", "mac.parse"),
    ("repro.devices.dongle", "deserialize", "timed", "mac", "mac.parse"),
    ("repro.mac.transmitter", "MacTransmitter.send", "span", "mac", None),
    ("repro.mac.powersave", "PowerSaveController.note_activity", "span", "mac", None),
    ("repro.mac.powersave", "PowerSaveController._on_dtim", "span", "mac", None),
    ("repro.mac.powersave", "PowerSaveController._maybe_sleep", "span", "mac", None),
    ("repro.devices.access_point", "AccessPoint._beacon_tick", "span", "devices", None),
    ("repro.devices.station", "Station.probe_scan", "span", "devices", None),
    ("repro.devices.base", "Device._dispatch_frame", "span", "devices", None),
    ("repro.devices.power_model", "EnergyAccountant._on_state_change", "span", "devices", None),
    ("repro.devices.power_model", "EnergyAccountant.note_frame_received", "span", "devices", None),
    ("repro.core.injector", "FakeFrameInjector.inject", "span", "devices", None),
    ("repro.core.battery", "BatteryDrainAttack.measure_power", "span", "pipeline", None),
    ("repro.core.wardrive", "WardrivePipeline._on_discovery", "span", "pipeline", None),
    ("repro.core.wardrive", "WardrivePipeline._injector_wake", "span", "pipeline", None),
    ("repro.core.wardrive", "WardrivePipeline._on_probe_result", "span", "pipeline", None),
    ("repro.core.wardrive", "WardrivePipeline.finish", "span", "pipeline", None),
    ("repro.core.probe", "PoliteWiFiProbe.probe_async", "probe", "pipeline", None),
    ("repro.survey.scanner", "PassiveScanner._make_listener", "listener", "pipeline", None),
    ("repro.survey.city", "SyntheticCity._activation_tick", "timed", "pipeline", "city.activation"),
    ("repro.survey.city", "SyntheticCity.__init__", "timed", "pipeline", "city.build"),
)

PARENT_SIDE: Tuple[Tuple[str, str, str, str, Optional[str]], ...] = (
    ("repro.sim.partition", "run_partitioned_wardrive", "span", "partition", None),
    ("repro.sim.partition", "generate_specs", "timed", "pipeline", "city.build"),
    ("repro.sim.partition", "_TileFleet.__init__", "span", "partition", None),
    ("repro.sim.partition", "_TileFleet.shutdown", "span", "partition", None),
    ("repro.sim.partition", "_RemoteHost.poll_outbox", "timed", "partition", "partition.barrier"),
    ("repro.sim.partition", "_RemoteHost.finish", "timed", "partition", "partition.barrier"),
    ("repro.sim.partition", "_RemoteHost.push_inbox", "span", "partition", None),
    ("repro.sim.partition", "TileBus.ingest", "timed", "partition", "partition.bus"),
    ("repro.sim.partition", "TileBus.exchange", "timed", "partition", "partition.bus"),
)


def _make(tracer: LayerTracer, kind: str, layer: str, key, fn: Callable) -> Callable:
    if kind == "span":
        return _span(tracer, layer, fn)
    if kind == "timed":
        return _timed(tracer, layer, key, fn)
    if kind == "slice":
        return _slice(tracer, layer, fn)
    if kind == "count":
        return _counter(tracer, key, fn)
    if kind == "collect":
        return _collect(tracer, key, fn)
    if kind == "probe":
        return _probe(tracer, layer, fn)
    if kind == "listener":
        return _listener_factory(tracer, layer, fn)
    raise ValueError(f"unknown wrapper kind {kind!r}")


class Instrumentation:
    """Install a wrap table for one traced run; :meth:`remove` restores it.

    Wrappers are installed before the world is built, because several
    layers capture bound methods at construction (the AckEngine installs
    ``self._on_reception`` as the radio's handler).
    """

    def __init__(self, tracer: LayerTracer, table) -> None:
        self._saved: List[Tuple[object, str, object]] = []
        try:
            for module_name, path, kind, layer, key in table:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, _make(tracer, kind, layer, key, original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
