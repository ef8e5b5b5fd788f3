"""Unified observability for the PolarStore reproduction.

The simulator's evaluation story (Figs 7-16) is entirely about where
simulated microseconds and real bytes go: redo commit latency, GC write
amplification, per-layer compression decisions, tail latency.  This
package gives every subsystem one way to record those facts:

``repro.obs.metrics``
    :class:`MetricsRegistry` with :class:`Counter`, :class:`Gauge`, and a
    fixed-memory log-bucketed :class:`Histogram` (mergeable, p50/p95/p99),
    all keyed by name + labels, plus the list-compatible
    :class:`BoundedSeries` that bounds memory on long runs.

``repro.obs.tracing``
    An I/O :class:`Tracer` that threads a span context through one
    request's journey (buffer-pool miss -> storage node -> compression
    selector -> CSD device -> FTL -> NAND) and charges each layer's
    simulated microseconds to a named span.  Exclusive span times within
    one trace sum exactly to the request's end-to-end latency.

``repro.obs.export``
    JSON and Prometheus text-format exporters, backing the
    ``python -m repro metrics`` CLI command.

``repro.obs.events``
    The flight recorder: a bounded, sampled, deterministic ring of
    typed events (io, gc, commit, migration, fault, codec, scrub, db,
    election, net) stamped with simulated time; a JSONL dump behind
    ``python -m repro events``.

``repro.obs.scenarios``
    The seeded scenarios ``python -m repro events`` records.
"""

from repro.obs.metrics import (
    BoundedSeries,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import Span, Trace, Tracer
from repro.obs.export import to_json, to_prometheus
from repro.obs.events import FlightRecorder, RecordedEvent, recorder_active

__all__ = [
    "BoundedSeries",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RecordedEvent",
    "Span",
    "Trace",
    "Tracer",
    "recorder_active",
    "to_json",
    "to_prometheus",
]
