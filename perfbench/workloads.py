"""The benchmark's three workloads, built from the public scenario code.

Each workload runs one scenario at a time in this process (a closed
loop) and returns a :class:`Rep`: host timings split at the first
simulated event, plus the simulated statistics the correctness checks
and the traced-run fidelity check compare.  ``--seed`` feeds only the
``ScenarioSpec`` seed (and, through it, ``CityConfig.seed``).

* ``fig6-flood`` — the registered ``battery`` scenario over the paper's
  full rate ladder: one ESP8266, its AP and one attacker; about two
  receivers per transmission, so per-transmission fixed costs dominate.
* ``table2-dense`` — the full 5,328-device ``wardrive-full`` census at
  the paper's density, driven with ``WardrivePipeline.begin`` and cut
  with ``Engine.run_until`` once ``TABLE2_ARRIVALS`` frame arrivals have
  happened; about 48 receivers per transmission in the cut (54 over a
  whole drive), so fan-out reception dominates.  A run cycles three
  cities (``cities``).
* ``metro-tiled`` — ``wardrive-metro`` in the CI quick shape on a 2x2
  tile grid with two supervised workers; the only workload that runs
  ``repro.sim.partition``.
"""

from __future__ import annotations

import gc
import resource
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from perfbench.layers import LayerTracer

#: Figure 6's rate ladder (pkt/s) and the per-point measurement window.
FIG6_RATES = (0, 1, 5, 10, 25, 50, 100, 200, 400, 600, 900)
FIG6_DURATION_S = 10.0

#: The dense drive is cut at the first ``TABLE2_STEP_S`` boundary of
#: simulated time by which this many frame arrivals (delivered or
#: dropped) have happened: about 40 simulated seconds of a drive.  A cut
#: at a fixed simulated time would let the seed move the work, because
#: cities differ in how densely devices line the first streets (up to
#: ~18% at 60 simulated seconds); a fixed arrival budget keeps the work
#: of every city within one step of the same.
TABLE2_ARRIVALS = 400_000
TABLE2_STEP_S = 0.1
#: A drive that has not reached the budget by then has lost its shape.
TABLE2_MAX_S = 600.0

#: The ``wardrive-full`` scenario's city and pipeline defaults.
TABLE2_CITY = {
    "population_scale": 1.0,
    "keep_all_vendors": True,
    "beacon_interval": 0.6,
    "client_probe_interval": 2.5,
    "activate_radius_m": 75.0,
    "deactivate_radius_m": 110.0,
}
WARDRIVE = {"probe_attempts": 4, "max_probe_rounds": 8, "vehicle_speed_mps": 14.0}

#: ``wardrive-metro`` in the CI quick shape (``make metro-smoke``).
METRO_CITY = dict(TABLE2_CITY, blocks_x=12, blocks_y=8, max_devices=500)
METRO_PARTITION = {"tiles_x": 2, "tiles_y": 2, "tile_workers": 2, "epoch_s": 30.0}


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@dataclass
class Rep:
    """One scenario run."""

    setup_s: float
    run_s: float
    cpu_s: float
    stats: Dict[str, object]
    #: Set by the workload for the traced run's per-layer metrics.
    layer_inputs: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[LayerTracer] = None


class _Phases:
    """Setup/run split of one rep, shared with the tracer when traced."""

    def __init__(self, tracer: Optional[LayerTracer]) -> None:
        self.tracer = tracer
        gc.collect()
        self.cpu0 = cpu_seconds()
        self.t0 = time.perf_counter()
        self.t_run: Optional[float] = None

    def mark_run(self) -> None:
        """The first simulated event is next (idempotent)."""
        if self.t_run is None:
            tracer = self.tracer
            self.t_run = (
                time.perf_counter() if tracer is None else tracer.start_run_phase()
            )

    def finish(self, stats, layer_inputs=None) -> Rep:
        tracer = self.tracer
        end = time.perf_counter() if tracer is None else tracer.end_run_phase()
        if self.t_run is None:
            raise RuntimeError("workload never reached its first simulated event")
        return Rep(
            setup_s=self.t_run - self.t0,
            run_s=end - self.t_run,
            cpu_s=cpu_seconds() - self.cpu0,
            stats=stats,
            layer_inputs=layer_inputs or {},
            tracer=self.tracer,
        )


def _medium_stats(counters: Dict[str, float]) -> Dict[str, object]:
    tx = int(counters.get("medium.frames.transmitted", 0))
    delivered = int(counters.get("medium.frames.delivered", 0))
    dropped = int(counters.get("medium.frames.dropped", 0))
    return {
        "transmissions": tx,
        "deliveries": delivered,
        "drops": dropped,
        "acks_sent": int(counters.get("ack.acks_sent", 0)),
        "events": int(counters.get("engine.events.executed", 0)),
    }


def _gap(histograms) -> Dict[str, object]:
    gap = histograms.get("ack.response_gap_us") or {}
    return {"ack_gap_us_min": gap.get("min"), "ack_gap_us_max": gap.get("max")}


def _digest(*mac_sets) -> int:
    """CRC32 over the sorted 6-byte MACs of each set, in order."""
    blob = b"|".join(b",".join(sorted(macs)) for macs in mac_sets)
    return zlib.crc32(blob)


def _medium_layer_inputs(medium, snapshot) -> Dict[str, float]:
    gauge = snapshot["gauges"].get("engine.heap.depth") or {}
    return {
        "heap_max": float(gauge.get("max", 0)),
        "link_cache_hits": float(medium.link_cache_hits),
        "link_cache_misses": float(medium.link_cache_misses),
    }


# ----------------------------------------------------------------------
# fig6-flood
# ----------------------------------------------------------------------
def fig6_flood(seed: int, tracer: Optional[LayerTracer]) -> Rep:
    from repro.core.battery import BatteryDrainAttack
    from repro.scenario.context import SimContext
    from repro.scenario.registry import REGISTRY

    entry = REGISTRY.get("battery")
    params = entry.coerce_params(
        {"rates_pps": FIG6_RATES, "duration_s": FIG6_DURATION_S}
    )
    captured: Dict[str, list] = {}
    original_sweep = BatteryDrainAttack.__dict__["sweep"]

    def sweep(self, *args, **kwargs):
        points = original_sweep(self, *args, **kwargs)
        captured["points"] = points
        return points

    phases = _Phases(tracer)
    ctx = SimContext(entry.build_spec(seed=seed, params=params), quiet=True)
    engine = ctx.engine
    run_until = engine.run_until

    def first_event_marker(end_time: float) -> None:
        phases.mark_run()
        run_until(end_time)

    engine.run_until = first_event_marker
    BatteryDrainAttack.sweep = sweep
    try:
        outputs = entry.fn(ctx)
    finally:
        BatteryDrainAttack.sweep = original_sweep
    points = captured["points"]
    snapshot = ctx.metrics.snapshot()
    stats = _medium_stats(snapshot["counters"])
    stats.update(_gap(snapshot["histograms"]))
    stats.update(
        rates_pps=[p.rate_pps for p in points],
        power_mw=[round(p.average_power_mw, 6) for p in points],
        sleep_fraction=[round(p.sleep_fraction, 6) for p in points],
        frames_received=[p.frames_received for p in points],
        acks_per_point=[p.acks_transmitted for p in points],
        amplification=round(float(outputs["amplification"]), 6),
    )
    return phases.finish(stats, _medium_layer_inputs(ctx.medium, snapshot))


# ----------------------------------------------------------------------
# table2-dense
# ----------------------------------------------------------------------
def table2_dense(seed: int, tracer: Optional[LayerTracer]) -> Rep:
    from repro.core.wardrive import WardriveConfig, WardrivePipeline
    from repro.scenario.context import SimContext
    from repro.scenario.registry import REGISTRY
    from repro.survey.city import CityConfig, SyntheticCity

    spec = REGISTRY.get("wardrive-full").build_spec(seed=seed)
    phases = _Phases(tracer)
    ctx = SimContext(spec, quiet=True)
    city = SyntheticCity(
        ctx.engine, ctx.medium, CityConfig(seed=spec.seed, **TABLE2_CITY)
    )
    pipeline = WardrivePipeline(city, WardriveConfig(**WARDRIVE))
    delivered = ctx.metrics.counter("medium.frames.delivered")
    dropped = ctx.metrics.counter("medium.frames.dropped")
    engine = ctx.engine
    pipeline.begin()
    phases.mark_run()
    step = 0
    while delivered.value + dropped.value < TABLE2_ARRIVALS:
        step += 1
        if step * TABLE2_STEP_S > TABLE2_MAX_S:
            raise RuntimeError(
                f"table2-dense: {TABLE2_ARRIVALS} arrivals not reached "
                f"in {TABLE2_MAX_S} simulated s"
            )
        engine.run_until(step * TABLE2_STEP_S)
    results = pipeline.finish()
    snapshot = ctx.metrics.snapshot()
    discovered = {rec.mac.bytes for rec in results.discovered}
    probed = {mac.bytes for mac in results.probed}
    responded = {mac.bytes for mac in results.responded}
    stats = _medium_stats(snapshot["counters"])
    stats.update(_gap(snapshot["histograms"]))
    stats.update(
        cut_s=round(engine.now, 6),
        population=city.population,
        activations=city.activations,
        discovered=len(discovered),
        probed=len(probed),
        responded=len(responded),
        probed_within_discovered=probed <= discovered,
        responded_within_probed=responded <= probed,
        digest=_digest(discovered, probed, responded),
    )
    return phases.finish(stats, _medium_layer_inputs(ctx.medium, snapshot))


# ----------------------------------------------------------------------
# metro-tiled
# ----------------------------------------------------------------------
def metro_tiled(seed: int, tracer: Optional[LayerTracer]) -> Rep:
    from repro.core.wardrive import WardriveConfig
    from repro.scenario.context import SimContext
    from repro.scenario.registry import REGISTRY
    from repro.sim import partition
    from repro.survey.city import CityConfig

    spec = REGISTRY.get("wardrive-metro").build_spec(seed=seed)
    fleet_cls = partition._TileFleet
    original_init = fleet_cls.__dict__["__init__"]

    def fleet_started(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        phases.mark_run()

    phases = _Phases(tracer)
    ctx = SimContext(spec, quiet=True)
    fleet_cls.__init__ = fleet_started
    try:
        outcome = partition.run_partitioned_wardrive(
            ctx,
            CityConfig(seed=spec.seed, **METRO_CITY),
            WardriveConfig(**WARDRIVE),
            partition.PartitionConfig(**METRO_PARTITION),
        )
    finally:
        fleet_cls.__init__ = original_init
    merged = outcome.merged_snapshot
    stats = _medium_stats(merged["counters"])
    stats.update(_gap(merged["histograms"]))
    stats.update(
        population=outcome.population,
        tiles=outcome.tiles_x * outcome.tiles_y,
        tile_workers=outcome.tile_workers,
        epochs=outcome.epochs,
        discovered=len(outcome.discovered),
        probed=len(outcome.probed),
        responded=len(outcome.responded),
        probed_within_discovered=outcome.probed <= outcome.discovered,
        responded_within_probed=outcome.responded <= outcome.probed,
        digest=_digest(outcome.discovered, outcome.probed, outcome.responded),
        relay_messages=outcome.relay_messages,
        relay_halo_tx=outcome.relay_halo_tx,
        recoveries=outcome.recoveries,
    )
    gauge = merged["gauges"].get("engine.heap.depth") or {}
    layer_inputs = {
        "heap_max": float(gauge.get("max", 0)),
        "tile_engine_s": float(merged["counters"].get("engine.run.wall_time_s", 0.0)),
        "checkpoint_bytes": float(outcome.checkpoint_bytes),
    }
    return phases.finish(stats, layer_inputs)


#: Offset between the seeds of a run's cities.
CITY_SEED_STRIDE = 1_000_003


def city_seed(seed: int, city: int) -> int:
    """Scenario seed of city ``city`` of a run seeded ``seed``.

    City 0 is ``seed`` itself.  The arrival budget fixes how much a city
    simulates, but not how that work splits into transmissions, device
    activations and probes; averaging a few cities per run keeps that
    split from moving the host time with the seed.
    """
    return seed + city * CITY_SEED_STRIDE


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, Optional[LayerTracer]], Rep]
    #: The scenario's own seed; the pinned statistics are for this one.
    default_seed: int
    #: Band for ``medium.rx_per_tx`` (arrivals per transmission).
    rx_per_tx_band: tuple
    #: True when the workload's layers run in this process.
    in_process: bool
    #: Distinct cities (seeds) a run cycles through; see ``city_seed``.
    cities: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig6-flood", fig6_flood, 42, (1.8, 2.2), True),
        Workload("table2-dense", table2_dense, 2020, (40.0, 70.0), True, cities=3),
        Workload("metro-tiled", metro_tiled, 2020, (4.5, 7.0), False),
    )
}
