"""Open-loop Poisson load generation for the serving layer.

A closed-loop driver (send, wait, send) can never overload a server —
its offered load collapses to the server's completion rate, hiding
exactly the queueing behavior admission control exists to manage.  This
generator is **open-loop**: arrivals come from a seeded Poisson process
laid out entirely in *simulated* time, and every request is submitted
pipelined at its scheduled simulated arrival regardless of how many are
still in flight.  Offered
load is therefore an input, not an emergent property, and pushing the
rate past capacity produces real (deterministic) rejections.

Everything measurable flows through :mod:`repro.obs`: latency
percentiles from log-bucketed histograms and rejection/error counters,
judged by three SLO checks (p95 latency under a target, the rejection
and error ratios inside their budgets), one ``slo`` line each.  The
:class:`LoadReport` artifact is split into a ``sim`` section — a pure
function of the spec (seed included), byte-identical across runs, which
the CI ``net-smoke`` job double-runs and diffs — and a ``wall`` section
carrying the wall-clock numbers that legitimately vary.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.transport import AdmissionError, Transport
from repro.common.errors import ReproError
from repro.obs.metrics import MetricsRegistry

#: A run's SLO: its p95 latency (simulated µs) and its share of
#: rejected requests may not exceed these.
P95_TARGET_US = 50_000.0
REJECTION_BUDGET = 0.5


@dataclass(frozen=True)
class ArrivalSpec:
    """One seeded open-loop scenario: Poisson arrivals plus workload
    mix."""

    #: Mean offered load in requests per simulated second.
    rate_per_s: float = 2000.0
    requests: int = 1000
    seed: int = 0
    #: Workload mix: point reads, the rest split evenly between
    #: inserts and updates.
    read_fraction: float = 0.7
    #: Keyspace preloaded with ``bulk_load`` before the run.
    keys: int = 512
    value_bytes: int = 96
    table: str = "load"

    def validate(self) -> "ArrivalSpec":
        if self.rate_per_s <= 0:
            raise ReproError("rate_per_s must be positive")
        if self.requests < 1:
            raise ReproError("requests must be at least 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ReproError("read_fraction must be in [0, 1]")
        if self.keys < 1:
            raise ReproError("keys must be at least 1")
        return self


def build_schedule(spec: ArrivalSpec) -> List[float]:
    """Simulated arrival offsets in µs, strictly nondecreasing,
    deterministic in ``spec.seed``."""
    spec.validate()
    rng = random.Random(spec.seed)
    rate_us = spec.rate_per_s / 1e6  # arrivals per simulated µs
    out: List[float] = []
    t = 0.0
    for _ in range(spec.requests):
        t += rng.expovariate(rate_us)
        out.append(t)
    return out


def build_ops(spec: ArrivalSpec) -> List[Tuple[str, int]]:
    """The seeded op mix: one (op, key) per scheduled arrival."""
    rng = random.Random(spec.seed + 1)
    ops: List[Tuple[str, int]] = []
    for _ in range(spec.requests):
        key = rng.randrange(spec.keys)
        roll = rng.random()
        if roll < spec.read_fraction:
            ops.append(("select", key))
        elif roll < spec.read_fraction + (1.0 - spec.read_fraction) / 2.0:
            ops.append(("update", key))
        else:
            # Inserts land above the preloaded keyspace (fresh keys).
            ops.append(("insert", spec.keys + len(ops)))
    return ops


def _payload(spec: ArrivalSpec, key: int) -> bytes:
    seed_byte = (spec.seed + key) % 251
    return bytes(
        (seed_byte + i) % 256 for i in range(spec.value_bytes)
    )


@dataclass
class LoadReport:
    """Everything one load run measured, split sim vs wall."""

    spec: ArrivalSpec
    transport_kind: str = "unknown"
    requests: int = 0
    completed: int = 0
    rejected_server: int = 0
    rejected_client: int = 0
    errors: int = 0
    start_us: float = 0.0
    end_us: float = 0.0
    percentiles: Dict[str, float] = field(default_factory=dict)
    max_queue_depth: int = 0
    slo_passed: bool = True
    slo_lines: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    registry: Optional[MetricsRegistry] = None

    @property
    def sim_duration_us(self) -> float:
        return max(self.end_us - self.start_us, 0.0)

    @property
    def throughput_per_s(self) -> float:
        """Completions per *simulated* second (deterministic)."""
        if self.sim_duration_us <= 0:
            return 0.0
        return self.completed / (self.sim_duration_us / 1e6)

    def to_artifact(self) -> Dict[str, Any]:
        """``sim`` is byte-stable across runs of the same spec; ``wall``
        is the part a diff must ignore."""
        return {
            "sim": {
                "spec": asdict(self.spec),
                "transport": self.transport_kind,
                "requests": self.requests,
                "completed": self.completed,
                "rejected_server": self.rejected_server,
                "errors": self.errors,
                "sim_duration_us": round(self.sim_duration_us, 3),
                "throughput_per_s": round(self.throughput_per_s, 3),
                "latency_us": {
                    name: round(value, 3)
                    for name, value in sorted(self.percentiles.items())
                },
                "max_queue_depth": self.max_queue_depth,
                "slo_passed": self.slo_passed,
                "slo": list(self.slo_lines),
            },
            "wall": {
                "wall_s": round(self.wall_s, 6),
                "rejected_client": self.rejected_client,
            },
        }

    def to_json(self) -> str:
        return json.dumps(
            self.to_artifact(), indent=2, sort_keys=True
        ) + "\n"

    def write_artifact(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    def render(self) -> str:
        lines = [
            f"load: poisson x{self.requests} "
            f"@ {self.spec.rate_per_s:g}/s (seed {self.spec.seed}) "
            f"over {self.transport_kind}",
            f"  completed {self.completed}  "
            f"rejected(server) {self.rejected_server}  "
            f"rejected(client) {self.rejected_client}  "
            f"errors {self.errors}",
            f"  sim duration {self.sim_duration_us / 1e3:.1f} ms  "
            f"throughput {self.throughput_per_s:.0f}/s (sim)  "
            f"wall {self.wall_s:.2f} s",
        ]
        if self.percentiles:
            lines.append(
                "  latency  " + "  ".join(
                    f"{name} {value:.0f}us"
                    for name, value in sorted(self.percentiles.items())
                )
            )
        lines.append(
            f"  max queue depth {self.max_queue_depth}  "
            f"SLO {'PASS' if self.slo_passed else 'FAIL'}"
        )
        lines.extend(f"    {line}" for line in self.slo_lines)
        return "\n".join(lines)


def run_load(transport: Transport, spec: ArrivalSpec) -> LoadReport:
    """Drive one open-loop scenario through ``transport``.

    Preloads the keyspace (closed-loop ``bulk_load``), then submits
    every scheduled op pipelined at its simulated arrival.  Transports
    without a pipelined path (``LocalTransport``) fall back to
    closed-loop sync calls at the same arrival stamps — same workload,
    no overlap, no rejections.
    """
    spec.validate()
    registry = MetricsRegistry()
    latency = registry.histogram("net.load.latency_us")
    depth_hist = registry.histogram("net.load.queue_depth")
    requests_total = registry.counter("net.load.requests")
    rejected_counter = registry.counter("net.load.rejected")
    errors_counter = registry.counter("net.load.errors")
    report = LoadReport(
        spec=spec, transport_kind=transport.kind, registry=registry
    )
    wall_start = time.monotonic()

    transport.call("create_table", spec.table)
    preload = [(key, _payload(spec, key)) for key in range(spec.keys)]
    transport.call("bulk_load", spec.table, preload)
    t0 = transport.now_us
    report.start_us = t0

    schedule = build_schedule(spec)
    ops = build_ops(spec)
    pipelined = hasattr(transport, "submit")
    futures = []
    for offset, (op, key) in zip(schedule, ops):
        arrival = t0 + offset
        requests_total.inc()
        args: Tuple[Any, ...]
        if op == "select":
            args = (spec.table, key)
        else:
            args = (spec.table, key, _payload(spec, key))
        if pipelined:
            try:
                futures.append(transport.submit(op, *args,
                                                arrival_us=arrival))
            except AdmissionError:
                report.rejected_client += 1
                rejected_counter.inc()
        else:
            transport.advance_to(arrival)
            try:
                result = transport.call(op, *args)
            except AdmissionError:
                report.rejected_server += 1
                rejected_counter.inc()
            except ReproError:
                report.errors += 1
                errors_counter.inc()
            else:
                report.completed += 1
                latency.record(max(result.done_us - arrival, 0.0))
                report.end_us = max(report.end_us, result.done_us)

    if pipelined:
        report.end_us = transport.flush()
        for future in futures:
            response = transport.pool.wait(future)
            depth_hist.record(response.queue_depth)
            report.max_queue_depth = max(
                report.max_queue_depth, response.queue_depth
            )
            if response.rejected:
                report.rejected_server += 1
                rejected_counter.inc()
            elif response.ok:
                report.completed += 1
                latency.record(max(response.latency_us, 0.0))
                report.end_us = max(report.end_us, response.done_us)
            else:
                report.errors += 1
                errors_counter.inc()

    report.requests = spec.requests
    if latency.count:
        report.percentiles = {
            "p50": latency.p50,
            "p95": latency.p95,
            "p99": latency.p99,
            "max": latency.max,
        }

    total = requests_total.value
    checks = (
        ("net-load-p95",
         latency.percentile(95.0) if latency.count else 0.0, P95_TARGET_US),
        ("net-load-rejections",
         rejected_counter.value / total if total > 0 else 0.0,
         REJECTION_BUDGET),
        ("net-load-errors",
         errors_counter.value / total if total > 0 else 0.0, 0.0),
    )
    report.slo_passed = all(value <= target for _, value, target in checks)
    report.slo_lines = [
        f"{name}: {'ok' if value <= target else 'BREACH'} "
        f"(value {value:.3f}, target {target:.3f})"
        for name, value, target in checks
    ]
    report.wall_s = time.monotonic() - wall_start
    return report


__all__ = [
    "ArrivalSpec",
    "LoadReport",
    "build_ops",
    "build_schedule",
    "run_load",
]
