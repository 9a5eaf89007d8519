"""Built-in scenarios: the paper's headline results as registry entries.

Each scenario is the declarative successor of a hand-wired entry point:
the five ``python -m repro`` demos and the two campaign scenarios all
collapse onto the five entries here.  Every one is seeded, sized to finish in roughly a
second at its default parameters, campaign-safe (narration goes through
``ctx.say`` so workers stay silent), and parameterizable via
``--param k=v``.

* ``probe``    — Figure 2: fake null frame → ACK within one SIFS;
* ``deauth``   — Figure 3: the AP barks deauths and ACKs anyway;
* ``battery``  — Figure 6: power vs fake-frame rate on the ESP8266
  (parameters: ``rates_pps``, ``duration_s``, ``distance_m``);
* ``locate``   — ACK-timing trilateration of a victim device
  (parameters: ``probes_per_anchor``, ``area_m``);
* ``wardrive`` — Table 2 shape: synthetic city, discover → inject →
  verify (parameters: ``population_scale``, ``blocks_x``, ``blocks_y``,
  ``beacon_interval``, ``vehicle_speed_mps``, ``probe_attempts``, …);
* ``wardrive-full`` — Table 2 at full scale: all 5,328 devices from the
  186-vendor census (parameters: ``max_devices``, ``activate_radius_m``,
  ``beacon_interval``, ``vehicle_speed_mps``, ``probe_attempts``, …);
* ``wardrive-metro`` — the metro-scale census on the tiled multi-process
  medium (``docs/partitioning.md``; parameters: ``tiles_x``,
  ``tiles_y``, ``tile_workers``, ``epoch_s``, ``halo_m``,
  ``metro_scale``, ``blocks_x``, ``blocks_y``, ``max_devices``, …).
"""

from __future__ import annotations

from typing import Dict

from repro.scenario.context import SimContext
from repro.scenario.params import BoolParam, ChoiceParam, FloatParam, IntParam
from repro.scenario.registry import scenario
from repro.scenario.spec import PlacementSpec, ScenarioSpec

__all__ = [
    "probe",
    "deauth",
    "battery",
    "locate",
    "wardrive",
    "wardrive_full",
    "wardrive_metro",
]


@scenario(
    "probe",
    param_names=(),
    spec=ScenarioSpec(
        seed=0,
        trace=True,
        placements=[
            PlacementSpec(
                kind="station", role="victim", mac="f2:6e:0b:11:22:33", x=0, y=0
            ),
            PlacementSpec(
                kind="monitor_dongle", role="attacker",
                mac="02:dd:00:00:00:01", x=5, y=0,
            ),
        ],
    ),
    description="Figure 2 — a fake frame from a stranger is ACKed in one SIFS",
)
def probe(ctx: SimContext) -> Dict[str, object]:
    """The Figure 2 fake-frame → ACK exchange."""
    from repro.core.probe import PoliteWiFiProbe

    devices = ctx.place_devices()
    result = PoliteWiFiProbe(devices["attacker"]).probe(devices["victim"].mac)
    if ctx.verbose:
        ctx.say(ctx.trace.to_table())
        ctx.say(
            f"\nPolite WiFi: responded={result.responded}, "
            f"ACK after {result.ack_latency_s * 1e6:.0f} us"
        )
    return {
        "responded": int(result.responded),
        "attempts": result.attempts,
        "ack_latency_us": result.ack_latency_s * 1e6,
    }


@scenario(
    "deauth",
    param_names=(),
    spec=ScenarioSpec(
        seed=1,
        trace=True,
        duration_s=1.0,
        placements=[
            PlacementSpec(
                kind="access_point", role="ap", mac="0c:00:1e:00:00:01",
                x=0, y=0, z=2, options={"behavior": {"deauth_on_unknown": True}},
            ),
            PlacementSpec(
                kind="monitor_dongle", role="attacker",
                mac="02:dd:00:00:00:01", x=8, y=0,
            ),
        ],
    ),
    description="Figure 3 — the AP deauths the intruder yet still ACKs",
)
def deauth(ctx: SimContext) -> Dict[str, object]:
    """Figure 3: deauthentication bursts don't stop the ACKs."""
    from repro.core.injector import FakeFrameInjector

    devices = ctx.place_devices()
    FakeFrameInjector(devices["attacker"]).inject_null(devices["ap"].mac)
    ctx.run()
    deauths = ctx.trace.count_info("Deauthentication")
    acks = ctx.trace.count_info("Acknowledgement")
    if ctx.verbose:
        ctx.say(ctx.trace.to_table())
        ctx.say(
            f"\ndeauth frames: {deauths}, ACKs to the fake frame: {acks}"
        )
    return {"deauth_frames": deauths, "acks": acks}


@scenario(
    "battery",
    param_names=("rates_pps", "duration_s", "distance_m"),
    param_schema={
        # rates_pps stays schema-free: it is a sequence, which the typed
        # layer deliberately does not model yet.
        "duration_s": FloatParam(minimum=0.0, exclusive_minimum=True),
        "distance_m": FloatParam(minimum=0.0, exclusive_minimum=True),
    },
    spec=ScenarioSpec(seed=42),
    description="Figure 6 — battery-drain sweep against one ESP8266",
)
def battery(ctx: SimContext) -> Dict[str, object]:
    """Figure 6: power vs fake-frame rate on a power-save IoT device."""
    from repro.core.battery import BatteryDrainAttack
    from repro.devices.access_point import AccessPoint
    from repro.devices.dongle import MonitorDongle
    from repro.devices.esp import Esp8266Device
    from repro.mac.addresses import MacAddress
    from repro.sim.world import Position

    params = ctx.params
    rates = tuple(float(r) for r in params.get("rates_pps", (0, 50, 200)))
    duration_s = float(params.get("duration_s", 3.0))
    distance_m = float(params.get("distance_m", 12.0))

    # The attacker's distance is a parameter, so these placements stay in
    # code; all wiring still comes from the context.
    engine, medium, rng = ctx.engine, ctx.medium, ctx.rng
    ap = AccessPoint(
        mac=MacAddress("0c:00:1e:00:00:02"),
        medium=medium, position=Position(0, 0, 2), rng=rng,
        ssid="IoTNet", passphrase="iot network key",
    )
    victim = Esp8266Device(
        mac=MacAddress("02:e8:26:60:00:01"),
        medium=medium, position=Position(5, 0, 1), rng=rng,
    )
    victim.connect(ap.mac, "IoTNet", "iot network key")
    engine.run_until(1.0)
    victim.enter_power_save()
    attacker = MonitorDongle(
        mac=MacAddress("02:dd:00:00:00:02"),
        medium=medium, position=Position(distance_m, 0, 1), rng=rng,
    )
    attack = BatteryDrainAttack(attacker, victim)
    points = attack.sweep(rates_pps=rates, duration_s=duration_s)
    if ctx.verbose:
        ctx.say("rate (pkt/s)  power (mW)")
        for point in points:
            ctx.say(f"{point.rate_pps:>11.0f}  {point.average_power_mw:>9.1f}")
    peak = max(points, key=lambda p: p.average_power_mw)
    return {
        "baseline_power_mw": points[0].average_power_mw,
        "peak_power_mw": peak.average_power_mw,
        "amplification": BatteryDrainAttack.amplification(points),
        "acks_transmitted": sum(p.acks_transmitted for p in points),
        "frames_received": sum(p.frames_received for p in points),
    }


@scenario(
    "locate",
    param_names=("probes_per_anchor", "area_m"),
    param_schema={
        "probes_per_anchor": IntParam(minimum=1),
        "area_m": FloatParam(minimum=1.0),
    },
    spec=ScenarioSpec(
        seed=7,
        placements=[
            PlacementSpec(
                kind="station", role="victim", mac="f2:6e:0b:11:22:33",
                x=18.0, y=12.0, z=1.0,
            ),
            PlacementSpec(
                kind="monitor_dongle", role="attacker",
                mac="02:dd:00:00:00:03", x=0, y=0, z=1,
            ),
        ],
    ),
    description="ACK-timing trilateration of an uncooperative device",
)
def locate(ctx: SimContext) -> Dict[str, object]:
    """Localization through ACK time-of-flight from four anchors."""
    from repro.core.localization import AckRangingSensor, LocalizationAttack
    from repro.sim.world import Position

    params = ctx.params
    probes = int(params.get("probes_per_anchor", 60))
    area = float(params.get("area_m", 40.0))

    devices = ctx.place_devices()
    victim = devices["victim"]
    truth = victim.radio.current_position(0.0)
    attack = LocalizationAttack(AckRangingSensor(devices["attacker"]))
    result = attack.locate(
        victim.mac,
        anchor_positions=[
            Position(0, 0, 1), Position(area, 0, 1),
            Position(0, area, 1), Position(area, area, 1),
        ],
        probes_per_anchor=probes,
        truth=truth,
    )
    if ctx.verbose:
        for m in result.measurements:
            ctx.say(
                f"anchor ({m.anchor.x:4.0f},{m.anchor.y:4.0f})  "
                f"range {m.distance_m:6.2f} m  (+/-{m.standard_error_m:.2f})"
            )
        ctx.say(
            f"\nvictim at ({truth.x:.1f}, {truth.y:.1f}); "
            f"estimated ({result.estimated.x:.1f}, {result.estimated.y:.1f}); "
            f"error {result.error_m:.2f} m"
        )
    return {
        "error_m": result.error_m,
        "estimated_x": result.estimated.x,
        "estimated_y": result.estimated.y,
    }


@scenario(
    "wardrive",
    param_names=(
        "population_scale", "keep_all_vendors", "blocks_x", "blocks_y",
        "beacon_interval", "probe_attempts", "vehicle_speed_mps", "table_top",
    ),
    param_schema={
        "population_scale": FloatParam(minimum=0.0, exclusive_minimum=True, maximum=1.0),
        "keep_all_vendors": BoolParam(),
        "blocks_x": IntParam(minimum=1),
        "blocks_y": IntParam(minimum=1),
        "beacon_interval": FloatParam(minimum=0.01),
        "probe_attempts": IntParam(minimum=1),
        "vehicle_speed_mps": FloatParam(minimum=0.1),
        "table_top": IntParam(minimum=1),
    },
    spec=ScenarioSpec(seed=2020, seed_medium=True, spans=True),
    description="Table 2 shape — wardrive a seeded synthetic city",
)
def wardrive(ctx: SimContext) -> Dict[str, object]:
    """Miniature Section 3 wardrive over a seeded synthetic city."""
    from repro.core.wardrive import WardriveConfig, WardrivePipeline
    from repro.survey.city import CityConfig, SyntheticCity

    params = ctx.params
    with ctx.tracer.span("build-city"):
        city = SyntheticCity(
            ctx.engine,
            ctx.medium,
            CityConfig(
                seed=ctx.spec.seed,
                population_scale=float(params.get("population_scale", 0.01)),
                keep_all_vendors=bool(params.get("keep_all_vendors", False)),
                blocks_x=int(params.get("blocks_x", 2)),
                blocks_y=int(params.get("blocks_y", 2)),
                beacon_interval=float(params.get("beacon_interval", 0.5)),
            ),
        )
        pipeline = WardrivePipeline(
            city,
            WardriveConfig(
                probe_attempts=int(params.get("probe_attempts", 4)),
                vehicle_speed_mps=float(params.get("vehicle_speed_mps", 14.0)),
            ),
        )
    with ctx.tracer.span("drive"):
        results = pipeline.run()
    if ctx.verbose:
        ctx.say(results.to_table(top=int(params.get("table_top", 10))))
    return {
        "population": city.population,
        "discovered": results.total_discovered,
        "probed": len(results.probed),
        "responded": results.total_responded,
        "response_rate": results.response_rate,
    }


@scenario(
    "wardrive-full",
    param_names=(
        "max_devices", "beacon_interval", "client_probe_interval",
        "activate_radius_m", "deactivate_radius_m", "probe_attempts",
        "max_probe_rounds", "vehicle_speed_mps", "table_top",
    ),
    param_schema={
        "max_devices": IntParam(minimum=1),
        "beacon_interval": FloatParam(minimum=0.01),
        "client_probe_interval": FloatParam(minimum=0.01),
        "activate_radius_m": FloatParam(minimum=1.0),
        "deactivate_radius_m": FloatParam(minimum=1.0),
        "probe_attempts": IntParam(minimum=1),
        "max_probe_rounds": IntParam(minimum=1),
        "vehicle_speed_mps": FloatParam(minimum=0.1),
        "table_top": IntParam(minimum=1),
    },
    spec=ScenarioSpec(seed=2020, seed_medium=True, spans=True),
    description="Table 2 at full scale — 5,328 devices, 186 vendors, one city",
)
def wardrive_full(ctx: SimContext) -> Dict[str, object]:
    """The paper's full Section 3 survey: every Table 2 device, one drive.

    The full census (3,805 APs / 1,523 clients across 186 vendors) is
    generated up front; lazy activation keeps only devices near the
    vehicle attached, and the medium's batched arrival scheduling keeps
    the beacon fan-out to two heap entries per transmission, which is
    what makes the full city interactive.  ``max_devices`` caps the
    population for quick modes (CI) without changing the configuration.
    """
    from repro.core.wardrive import WardriveConfig, WardrivePipeline
    from repro.survey.city import CityConfig, SyntheticCity

    params = ctx.params
    max_devices = params.get("max_devices")
    with ctx.tracer.span("build-city"):
        city = SyntheticCity(
            ctx.engine,
            ctx.medium,
            CityConfig(
                seed=ctx.spec.seed,
                population_scale=1.0,
                keep_all_vendors=True,
                max_devices=int(max_devices) if max_devices is not None else None,
                beacon_interval=float(params.get("beacon_interval", 0.6)),
                client_probe_interval=float(
                    params.get("client_probe_interval", 2.5)
                ),
                activate_radius_m=float(params.get("activate_radius_m", 75.0)),
                deactivate_radius_m=float(params.get("deactivate_radius_m", 110.0)),
            ),
        )
        pipeline = WardrivePipeline(
            city,
            WardriveConfig(
                probe_attempts=int(params.get("probe_attempts", 4)),
                max_probe_rounds=int(params.get("max_probe_rounds", 8)),
                vehicle_speed_mps=float(params.get("vehicle_speed_mps", 14.0)),
            ),
        )
    vendors = len({spec.vendor for spec in city.specs})
    route = city.survey_route(pipeline.config.vehicle_speed_mps)
    ctx.say(
        f"city: {city.population} devices across {vendors} vendors; "
        f"route {route.duration:.0f} sim-seconds at "
        f"{pipeline.config.vehicle_speed_mps:g} m/s"
    )
    with ctx.tracer.span("drive"):
        results = pipeline.run()
    acked = results.responded & results.probed
    vendors_responded = len(
        {city.spec_of(mac).vendor for mac in acked if city.spec_of(mac) is not None}
    )
    if ctx.verbose:
        ctx.say(results.to_table(top=int(params.get("table_top", 15))))
    return {
        "population": city.population,
        "vendors": vendors,
        "discovered": results.total_discovered,
        "probed": len(results.probed),
        "responded": results.total_responded,
        "vendors_responded": vendors_responded,
        "response_rate": results.response_rate,
    }


@scenario(
    "wardrive-metro",
    param_names=(
        "tiles_x", "tiles_y", "tile_workers", "epoch_s", "halo_m",
        "metro_scale", "blocks_x", "blocks_y", "max_devices",
        "beacon_interval", "client_probe_interval", "activate_radius_m",
        "deactivate_radius_m", "probe_attempts", "max_probe_rounds",
        "vehicle_speed_mps", "supervise", "heartbeat_s",
        "heartbeat_timeout_s", "tile_retries", "chaos_kill_worker",
        "chaos_kill_epoch", "chaos_kill_phase",
    ),
    param_schema={
        "tiles_x": IntParam(minimum=1),
        "tiles_y": IntParam(minimum=1),
        "tile_workers": IntParam(minimum=1),
        "epoch_s": FloatParam(minimum=0.1),
        "halo_m": FloatParam(minimum=0.0),
        "metro_scale": FloatParam(minimum=0.0, exclusive_minimum=True),
        "blocks_x": IntParam(minimum=1),
        "blocks_y": IntParam(minimum=1),
        "max_devices": IntParam(minimum=1),
        "beacon_interval": FloatParam(minimum=0.01),
        "client_probe_interval": FloatParam(minimum=0.01),
        "activate_radius_m": FloatParam(minimum=1.0),
        "deactivate_radius_m": FloatParam(minimum=1.0),
        "probe_attempts": IntParam(minimum=1),
        "max_probe_rounds": IntParam(minimum=1),
        "vehicle_speed_mps": FloatParam(minimum=0.1),
        "supervise": BoolParam(),
        "heartbeat_s": FloatParam(minimum=0.01),
        "heartbeat_timeout_s": FloatParam(minimum=0.1),
        "tile_retries": IntParam(minimum=0),
        "chaos_kill_worker": IntParam(minimum=0),
        "chaos_kill_epoch": IntParam(minimum=0),
        "chaos_kill_phase": ChoiceParam(["boundary", "mid", "stop", "finish"]),
    },
    spec=ScenarioSpec(seed=2020, seed_medium=True, spans=True),
    description="Metro-scale census on the tiled multi-process medium",
)
def wardrive_metro(ctx: SimContext) -> Dict[str, object]:
    """A >=100k-device metro census on the spatially partitioned medium.

    The Table 2 census is scaled up ``metro_scale`` times over a larger
    street grid, cut into ``tiles_x x tiles_y`` tiles, and surveyed by
    one vehicle whose evidence crosses tile boundaries through the
    deterministic epoch bus (``repro.sim.partition``,
    ``docs/partitioning.md``).  ``tiles_x=tiles_y=1`` is byte-identical
    to the single-process ``wardrive-full`` path at matched city
    parameters; aggregates are tile- and worker-count independent
    (pinned by ``tests/test_partition.py``).  ``max_devices`` caps the
    population for quick modes without changing the configuration shape.
    """
    from repro.sim.partition import PartitionConfig, run_partitioned_wardrive
    from repro.core.wardrive import WardriveConfig
    from repro.survey.city import CityConfig

    params = ctx.params
    max_devices = params.get("max_devices")
    halo_m = float(params.get("halo_m", 0.0))
    city_config = CityConfig(
        seed=ctx.spec.seed,
        blocks_x=int(params.get("blocks_x", 48)),
        blocks_y=int(params.get("blocks_y", 32)),
        population_scale=float(params.get("metro_scale", 20.0)),
        keep_all_vendors=True,
        max_devices=int(max_devices) if max_devices is not None else None,
        beacon_interval=float(params.get("beacon_interval", 0.6)),
        client_probe_interval=float(params.get("client_probe_interval", 2.5)),
        activate_radius_m=float(params.get("activate_radius_m", 75.0)),
        deactivate_radius_m=float(params.get("deactivate_radius_m", 110.0)),
    )
    wardrive_config = WardriveConfig(
        probe_attempts=int(params.get("probe_attempts", 4)),
        max_probe_rounds=int(params.get("max_probe_rounds", 8)),
        vehicle_speed_mps=float(params.get("vehicle_speed_mps", 14.0)),
    )
    chaos = None
    if params.get("chaos_kill_worker") is not None:
        # Fault injection for the chaos smoke / tests: kill (or stall)
        # one worker once and let the supervisor recover it.
        chaos = {
            "worker": int(params["chaos_kill_worker"]),
            "epoch": int(params.get("chaos_kill_epoch", 1)),
            "phase": str(params.get("chaos_kill_phase", "mid")),
        }
    partition = PartitionConfig(
        tiles_x=int(params.get("tiles_x", 4)),
        tiles_y=int(params.get("tiles_y", 3)),
        tile_workers=int(params.get("tile_workers", 1)),
        epoch_s=float(params.get("epoch_s", 30.0)),
        halo_m=halo_m if halo_m > 0.0 else None,
        supervise=bool(params.get("supervise", True)),
        heartbeat_s=float(params.get("heartbeat_s", 0.5)),
        heartbeat_timeout_s=float(params.get("heartbeat_timeout_s", 30.0)),
        tile_retries=int(params.get("tile_retries", 2)),
        chaos=chaos,
    )
    with ctx.tracer.span("drive"):
        outcome = run_partitioned_wardrive(
            ctx, city_config, wardrive_config, partition
        )
    by_mac = {spec.mac.bytes: spec for spec in outcome.specs}
    vendors = len({spec.vendor for spec in outcome.specs})
    acked = outcome.responded & outcome.probed
    vendors_responded = len(
        {by_mac[mac].vendor for mac in acked if mac in by_mac}
    )
    ctx.say(
        f"metro: {outcome.population} devices across {vendors} vendors; "
        f"{outcome.tiles_x}x{outcome.tiles_y} tiles on "
        f"{outcome.tile_workers} worker(s), {outcome.epochs} epochs"
    )
    return {
        "population": outcome.population,
        "vendors": vendors,
        "discovered": len(outcome.discovered),
        "probed": len(outcome.probed),
        "responded": len(outcome.responded),
        "vendors_responded": vendors_responded,
        "response_rate": (len(acked) / len(outcome.probed)) if outcome.probed else 0.0,
        "tiles": outcome.tiles_x * outcome.tiles_y,
        "tile_workers": outcome.tile_workers,
        "epochs": outcome.epochs,
        "idle_epochs": outcome.idle_epochs,
        "halo_radios": outcome.halo_radios,
        "relay_messages": outcome.relay_messages,
        "relay_applied": outcome.relay_applied,
        "relay_halo_tx": outcome.relay_halo_tx,
        "tiles_clamped": outcome.tiles_clamped,
        "recoveries": outcome.recoveries,
    }
