"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig6-flood --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's scenario for ``--seconds`` seconds
after one untimed warm-up repetition and reports the end-to-end metrics
(medians over the repetitions of each city, averaged over the cities).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (medians over the traced ones) plus the tracing
overhead.  Every repetition is checked (``checks.py``); the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` and the exit code is non-zero when a check failed.  See
``perfbench/README.md`` for the metrics, workloads and wrapped calls.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Traced self times must account for the traced run_s within this share.
ATTRIBUTION_TOLERANCE = 0.05


def contract_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one metric list of ``BENCHMARK.json``."""
    with (ROOT / "BENCHMARK.json").open() as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def host_probe_s() -> float:
    """Fixed host-speed probe (pure-Python loop plus numpy); diagnostic only."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i & 7
    data = np.arange(1_000_000, dtype=np.float64)
    for _ in range(10):
        total += int(np.sqrt(data).sum())
    return time.perf_counter() - start


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(workload, rep) -> Dict[str, float]:
    """Per-layer metrics of one traced rep."""
    from perfbench.checks import rx_per_tx
    from perfbench.layers import LAYERS

    tracer = rep.tracer
    run = tracer.run
    stats = rep.stats
    counts = tracer.counts
    inputs = rep.layer_inputs
    tx = stats["transmissions"]
    arrivals = stats["deliveries"] + stats["drops"]
    events = stats["events"]
    m: Dict[str, float] = {}
    engine_s = run.get("engine", 0.0)
    m["engine.events"] = float(events)
    m["engine.self_s"] = engine_s
    m["engine.ns_per_event"] = engine_s / events * 1e9 if events else 0.0
    m["engine.heap_max"] = inputs.get("heap_max", 0.0)
    transmit_us = [d * 1e6 for d in tracer.durations.get("medium.transmit", [])]
    hits = inputs.get("link_cache_hits", 0.0)
    misses = inputs.get("link_cache_misses", 0.0)
    m["medium.tx"] = float(tx)
    m["medium.rx_per_tx"] = rx_per_tx(stats)
    m["medium.transmit_s"] = run.get("medium", 0.0)
    m["medium.transmit_us_p50"] = _percentile(transmit_us, 0.50)
    m["medium.transmit_us_p99"] = _percentile(transmit_us, 0.99)
    m["medium.link_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["medium.dropped_share"] = stats["drops"] / arrivals if arrivals else 0.0
    slices = counts.get("arrivals.slices", 0)
    m["arrivals.self_s"] = run.get("arrivals", 0.0)
    m["arrivals.slices"] = float(slices)
    m["arrivals.per_slice"] = counts.get("arrivals.items", 0) / slices if slices else 0.0
    m["arrivals.scalar_share"] = (
        counts.get("arrivals.scalar_upcalls", 0) / stats["deliveries"]
        if stats["deliveries"]
        else 0.0
    )
    engines = tracer.instances.get("ack_engines", [])
    m["mac.self_s"] = run.get("mac", 0.0)
    m["mac.parse_s"] = sum(tracer.durations.get("mac.parse", ()), 0.0)
    m["mac.frames_seen"] = float(sum(e.stats.frames_seen for e in engines))
    m["mac.acks_sent"] = float(stats["acks_sent"])
    m["devices.self_s"] = run.get("devices", 0.0)
    attempts = counts.get("pipeline.attempts", 0)
    m["pipeline.self_s"] = run.get("pipeline", 0.0)
    m["pipeline.probes"] = float(counts.get("pipeline.probes", 0))
    m["pipeline.probe_yield"] = (
        counts.get("pipeline.responded", 0) / attempts if attempts else 0.0
    )
    m["city.activation_s"] = sum(tracer.durations.get("city.activation", ()), 0.0)
    m["city.build_s"] = sum(tracer.durations.get("city.build", ()), 0.0)
    tile_engine_s = inputs.get("tile_engine_s", 0.0)
    workers = stats.get("tile_workers", 0)
    m["partition.barrier_wait_s"] = sum(tracer.durations.get("partition.barrier", ()), 0.0)
    m["partition.bus_s"] = sum(tracer.durations.get("partition.bus", ()), 0.0)
    m["partition.tile_engine_s"] = tile_engine_s
    m["partition.parallel_efficiency"] = (
        tile_engine_s / (workers * rep.run_s) if workers else 0.0
    )
    m["partition.halo_tx_share"] = stats.get("relay_halo_tx", 0) / tx if workers and tx else 0.0
    m["partition.epochs"] = float(stats.get("epochs", 0))
    m["partition.checkpoint_bytes"] = inputs.get("checkpoint_bytes", 0.0)
    attributed = sum(v for k, v in run.items() if k in LAYERS)
    m["trace.unattributed_share"] = 1.0 - attributed / rep.run_s
    return m


def _run_rep(workload, seed: int, traced: bool):
    from perfbench.layers import IN_PROCESS, PARENT_SIDE, Instrumentation, LayerTracer

    if not traced:
        return workload.run(seed, None)
    tracer = LayerTracer()
    table = IN_PROCESS if workload.in_process else PARENT_SIDE
    instrumentation = Instrumentation(tracer, table)
    try:
        return workload.run(seed, tracer)
    finally:
        instrumentation.remove()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.checks import check, load_pins
    from perfbench.workloads import WORKLOADS, city_seed, peak_rss_mb

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    pins = load_pins()
    probe_before = host_probe_s()

    # An untimed warm-up rep of city 0 (checked like any other) absorbs
    # first-run costs: imports, lazy caches, the allocator's first growth.
    # Then rep k runs city k // modes of the seed's cities, cycling; with
    # --trace 1 each city runs untraced, then traced (same statistics).
    modes = 2 if args.trace else 1
    reps: Dict[tuple, list] = {}
    references: Dict[int, dict] = {}
    layer_samples: List[Dict[str, float]] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        warmup = attempted == 0
        k = max(attempted - 1, 0)
        city = k // modes % workload.cities
        traced = not warmup and k % modes == 1
        attempted += 1
        try:
            rep = _run_rep(workload, city_seed(args.seed, city), traced)
        except Exception:
            traceback.print_exc()
            failed += 1
        else:
            problems = check(workload, args.seed, city, rep.stats, pins)
            reference = references.setdefault(city, rep.stats)
            if rep.stats != reference:
                problems.append(
                    f"simulated statistics of city {city} differ between runs"
                    + (" (traced vs untraced)" if args.trace else "")
                )
            if traced:
                rep_layers = layer_metrics(workload, rep)
                unattributed = rep_layers["trace.unattributed_share"]
                if abs(unattributed) > ATTRIBUTION_TOLERANCE:
                    problems.append(
                        f"layer self times miss {unattributed:.1%} of traced run_s "
                        f"(tolerance {ATTRIBUTION_TOLERANCE:.0%})"
                    )
            for problem in problems:
                print(f"CHECK FAILED [{workload.name} seed={args.seed}]: {problem}")
            if problems:
                failed += 1
            elif not warmup:
                reps.setdefault((traced, city), []).append(rep)
                if traced:
                    layer_samples.append(rep_layers)
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and attempted > modes * workload.cities:
            break
    probe_after = host_probe_s()

    def median_of(traced: bool, field: str) -> float:
        """Median ``field`` over the passing reps of each city of one mode,
        averaged over the cities (which differ in work)."""
        per_city = [
            _median([getattr(r, field) for r in group])
            for (mode, _), group in reps.items()
            if mode == traced
        ]
        return statistics.fmean(per_city) if per_city else 0.0

    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{attempted} runs (1 warm-up) in {elapsed:.1f} s"
    )
    for (traced, city), group in sorted(reps.items()):
        times = " ".join(f"{r.run_s:.3f}" for r in group)
        print(f"  city {city} {'traced' if traced else 'plain '} run_s: {times}")
    print(
        f"  host probe (diagnostic): {probe_before:.3f} s before, "
        f"{probe_after:.3f} s after"
    )
    if args.trace:
        values = {
            name: _median([m[name] for m in layer_samples])
            for name in (layer_samples[0] if layer_samples else ())
        }
        plain_run = median_of(False, "run_s")
        values["trace.overhead"] = (
            median_of(True, "run_s") / plain_run if plain_run else 0.0
        )
        units = contract_units("per_layer")
    else:
        values = {
            "run_s": median_of(False, "run_s"),
            "cpu_s": median_of(False, "cpu_s"),
            "setup_s": median_of(False, "setup_s"),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = contract_units("end_to_end")
    if failed == 0 and set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} are not both "
            "measured and listed in BENCHMARK.json"
        )
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'failed_share':32s} {failed / attempted:.6g} ({failed}/{attempted})")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
