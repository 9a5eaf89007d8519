"""Metric primitives: counters, gauges, and histograms.

These are deliberately minimal — a few machine words of state and one
attribute update per observation — because they sit on the simulator's
hottest paths (every scheduled event, every frame on the medium).  The
:class:`~repro.telemetry.registry.MetricsRegistry` owns instances and
turns them into plain-data snapshots; everything heavier (export, merge,
aggregation) operates on snapshots, never on live metric objects.

Naming convention: dotted lowercase paths, ``subsystem.object.verb``
(``engine.events.scheduled``, ``medium.frames.dropped``).  Metrics whose
value depends on the host machine rather than the simulation — wall-clock
timers — must carry ``wall_time`` in their name so campaign aggregation
can exclude them from determinism-sensitive output (see
:func:`~repro.telemetry.registry.merge_snapshots`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "default_buckets"]


def default_buckets() -> Tuple[float, ...]:
    """Exponential bucket bounds covering microseconds to kilo-units.

    Suitable both for latencies in seconds (1 µs … 10 s) and for small
    integer quantities; callers with specific ranges pass their own.
    """
    return tuple(10.0 ** e for e in range(-6, 4))


class Counter:
    """Monotonically increasing count (events, frames, ACKs...)."""

    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount!r})")
        self.value += amount

    def snapshot(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, value={self.value!r})"


class Gauge:
    """Point-in-time level (heap depth, queue length) with a high-water mark."""

    __slots__ = ("name", "description", "value", "max_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value: float = 0
        self.max_value: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value, "max": self.max_value}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name!r}, value={self.value!r}, max={self.max_value!r})"


class Histogram:
    """Distribution summary: count / sum / min / max plus bucket counts.

    Buckets are cumulative-style upper bounds (``value <= bound``); a
    final implicit ``+inf`` bucket catches the overflow.  Mergeable by
    summing counts, which is what campaign aggregation relies on.
    """

    __slots__ = ("name", "description", "count", "sum", "min", "max",
                 "bounds", "bucket_counts")

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.description = description
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        bounds = tuple(sorted(buckets)) if buckets is not None else default_buckets()
        if not bounds:
            raise ValueError(f"histogram {self.name!r} needs at least one bucket")
        self.bounds: Tuple[float, ...] = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value != value:  # NaN compares false everywhere: overflow
            self.bucket_counts[-1] += 1
            return
        # First bound with value <= bound; len(bounds) is the overflow.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": {
                _bound_label(bound): count
                for bound, count in zip(
                    self.bounds + (math.inf,), self.bucket_counts
                )
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.4g})"


def _bound_label(bound: float) -> str:
    """Stable JSON-safe label for a bucket upper bound."""
    return "+inf" if math.isinf(bound) else repr(bound)
