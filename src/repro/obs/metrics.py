"""Instruments and the registry that owns them.

Design constraints, in order:

* **Fixed memory.**  Benchmarks run millions of simulated operations; the
  seed's unbounded ``List[float]`` stats (``StorageNode.page_write_stats``
  and friends) grew without limit.  :class:`Histogram` uses log-spaced
  buckets so percentile queries cost O(buckets), never O(samples).
* **Mergeable.**  Replicas and processes each keep their own
  instruments; :meth:`MetricsRegistry.merge_states` folds their
  :meth:`MetricsRegistry.state` captures without touching raw samples.
* **Label-keyed.**  One metric name covers many instances
  (``csd.device.write_us{node="node-0", device="PolarCSD2.0"}``), exactly
  like Prometheus, so exporters need no special cases.

Percentiles use the same nearest-rank convention as
:func:`repro.common.latency.percentile`; a bucket's reported value is the
geometric midpoint of its bounds, so with the default growth factor of
1.04 the relative error is bounded by ~2%.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Upper end of every histogram's bucket range; larger values share the
#: last bucket.
MAX_VALUE = 1e12


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Base: a named, labeled measurement owned by one registry."""

    kind = "instrument"

    def __init__(self, name: str, labels: Optional[Dict[str, object]] = None):
        self.name = name
        self.labels: Dict[str, str] = {
            str(k): str(v) for k, v in (labels or {}).items()
        }

    def reset(self) -> None:
        raise NotImplementedError

    def payload(self) -> Dict:
        """The instrument's value(s) as a JSON-able dict."""
        raise NotImplementedError

    def describe(self) -> Dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "type": self.kind,
            **self.payload(),
        }


class Counter(Instrument):
    """Monotonically increasing value (ops, bytes, events)."""

    kind = "counter"

    def __init__(self, name: str, labels=None):
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self._value += amount

    # ``add`` reads better for byte counters.
    add = inc

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def payload(self) -> Dict:
        return {"value": self._value}


class Gauge(Instrument):
    """A point-in-time value, set directly."""

    kind = "gauge"
    _value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def payload(self) -> Dict:
        return {"value": self._value}


class Histogram(Instrument):
    """Fixed-memory log-bucketed distribution.

    Values below ``min_value`` land in bucket 0; above that, bucket ``i``
    covers ``[min_value * growth**(i-1), min_value * growth**i)``.  Bucket
    counts are kept sparsely (a dict), but the index range is clamped, so
    memory is bounded by the bucket universe regardless of sample count.
    Exact ``min``/``max``/``sum`` are tracked on the side, so ``mean`` and
    the distribution extremes are exact; only interior percentiles are
    approximated.
    """

    kind = "histogram"

    def __init__(self, name: str, labels=None, growth: float = 1.04,
                 min_value: float = 1e-3):
        super().__init__(name, labels)
        if growth <= 1.0:
            raise ValueError(f"growth factor must exceed 1, got {growth}")
        self.growth = growth
        self.min_value = min_value
        self._log_growth = math.log(growth)
        self._max_bucket = (
            int(math.log(MAX_VALUE / min_value) / self._log_growth) + 1
        )
        self._counts: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ---------------------------------------------------------

    def record(self, value: float) -> None:
        value = float(value)
        if value < 0.0:
            value = 0.0
        idx = self._bucket(value)
        self._counts[idx] = self._counts.get(idx, 0) + 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def _bucket(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        idx = int(math.log(value / self.min_value) / self._log_growth) + 1
        return min(idx, self._max_bucket)

    def _bucket_value(self, idx: int) -> float:
        if idx == 0:
            return self.min_value
        # Geometric midpoint of the bucket's bounds.
        return self.min_value * math.exp((idx - 0.5) * self._log_growth)

    def bucket_upper_bound(self, idx: int) -> float:
        if idx == 0:
            return self.min_value
        return self.min_value * math.exp(idx * self._log_growth)

    # -- summary -----------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile estimate; exact at the extremes."""
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile {pct} out of range")
        if self._count == 0:
            return 0.0
        if pct == 0.0:
            return self.min
        rank = math.ceil(pct / 100.0 * self._count)
        cumulative = 0
        for idx in sorted(self._counts):
            cumulative += self._counts[idx]
            if cumulative >= rank:
                estimate = self._bucket_value(idx)
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def reset(self) -> None:
        self._counts.clear()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- export ------------------------------------------------------------

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le_upper_bound, cumulative_count)`` pairs."""
        out: List[Tuple[float, int]] = []
        cumulative = 0
        for idx in sorted(self._counts):
            cumulative += self._counts[idx]
            out.append((self.bucket_upper_bound(idx), cumulative))
        return out

    def payload(self) -> Dict:
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class BoundedSeries:
    """A registry :class:`Histogram` behind the seed's stat-list name.

    ``append`` records a sample (fixed memory, real percentiles); the
    ``LatencyStats``-style accessors read the histogram back.
    """

    def __init__(self, histogram: Histogram):
        self.histogram = histogram

    def append(self, value: float) -> None:
        self.histogram.record(value)

    # LatencyStats-style accessors, so call sites migrate freely.

    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def mean_us(self) -> float:
        return self.histogram.mean

    @property
    def p95_us(self) -> float:
        return self.histogram.p95

    @property
    def p99_us(self) -> float:
        return self.histogram.p99


class _Instruments(Dict[Tuple[str, LabelKey], Instrument]):
    """Every instrument of one registry, keyed by (name, labels), with
    get-or-create.  The registry and its tracer share this store: the
    tracer holds the store rather than the registry that holds the
    tracer, so the two form no reference cycle."""

    def lookup(self, cls, name: str, labels: Dict) -> Optional[Instrument]:
        instrument = self.get((name, _label_key(labels)))
        if instrument is not None and not isinstance(instrument, cls):
            raise ValueError(
                f"{name}{dict(labels)} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def add(self, instrument: Instrument) -> Instrument:
        self[(instrument.name, _label_key(instrument.labels))] = instrument
        return instrument

    def histogram(self, name: str, growth: float = 1.04,
                  min_value: float = 1e-3, **labels) -> Histogram:
        return (self.lookup(Histogram, name, labels)
                or self.add(Histogram(name, labels, growth, min_value)))


class MetricsRegistry:
    """Owns every instrument of one simulation universe.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    the same (name, labels) twice returns the same object, so call sites
    never coordinate.  A :class:`~repro.obs.tracing.Tracer` is attached to
    each registry; components reach it as ``registry.tracer`` so span
    context flows through the stack without threading extra parameters.
    """

    def __init__(self) -> None:
        self._instruments = _Instruments()
        # Imported lazily to avoid a module cycle (tracing records spans
        # back into this registry's histograms).
        from repro.obs.tracing import Tracer

        self.tracer = Tracer(self._instruments)

    # -- get-or-create -----------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        store = self._instruments
        return (store.lookup(Counter, name, labels)
                or store.add(Counter(name, labels)))

    def gauge(self, name: str, **labels) -> Gauge:
        store = self._instruments
        return (store.lookup(Gauge, name, labels)
                or store.add(Gauge(name, labels)))

    def histogram(self, name: str, growth: float = 1.04,
                  min_value: float = 1e-3, **labels) -> Histogram:
        return self._instruments.histogram(
            name, growth, min_value, **labels
        )

    def series(self, name: str, **labels) -> BoundedSeries:
        """A histogram-backed replacement for a raw stats list."""
        return BoundedSeries(self.histogram(name, **labels))

    # -- introspection -----------------------------------------------------

    def get(self, name: str, **labels) -> Optional[Instrument]:
        return self._instruments.get((name, _label_key(labels)))

    def find(self, name: str) -> List[Instrument]:
        """Every labeled variant registered under ``name``."""
        return [
            inst for (n, _), inst in sorted(self._instruments.items())
            if n == name
        ]

    def instruments(self) -> List[Instrument]:
        return [inst for _, inst in sorted(self._instruments.items())]

    def __len__(self) -> int:
        return len(self._instruments)

    def reset(self) -> None:
        """Zero every instrument."""
        for instrument in self._instruments.values():
            instrument.reset()

    def snapshot(self) -> Dict:
        """The whole registry as a JSON-able dict."""
        return {"instruments": [i.describe() for i in self.instruments()]}

    # -- cross-process merge -----------------------------------------------

    def state(self) -> List[Dict]:
        """Every instrument as a picklable record.

        This is what crosses a process boundary (the end-to-end
        benchmark's serve child ships it to its parent): histograms
        carry their sparse bucket counts, and records are emitted in
        sorted instrument order so the stream itself is deterministic.
        """
        out: List[Dict] = []
        for inst in self.instruments():
            rec: Dict = {
                "name": inst.name,
                "labels": dict(inst.labels),
                "kind": inst.kind,
            }
            if isinstance(inst, Counter):
                rec["value"] = inst.value
            elif isinstance(inst, Histogram):
                rec.update(
                    growth=inst.growth,
                    min_value=inst.min_value,
                    counts={int(k): int(v) for k, v in inst._counts.items()},
                    count=inst._count,
                    sum=inst._sum,
                    min=inst._min,
                    max=inst._max,
                )
            elif isinstance(inst, Gauge):
                rec["value"] = inst.value
            else:  # pragma: no cover - no other kinds exist today
                rec["payload"] = inst.payload()
            out.append(rec)
        return out

    def merge_states(self, states: Iterable[Iterable[Dict]]) -> None:
        """Fold any number of :meth:`state` captures, order-independently.

        Records are grouped per instrument across every capture and each
        group folds in one pass: counters and histogram float sums
        reduce with a single ``math.fsum`` (correctly rounded over the
        whole multiset, so any permutation of the captures produces
        bit-identical results), bucket counts add per sorted key,
        and min/max fold.  Gauges take the group's last capture
        (same-name gauges from disjoint shards carry disjoint labels, so
        overwrite order never matters in practice).
        """
        grouped: Dict[tuple, List[Dict]] = {}
        for state in states:
            for rec in state:
                key = (rec["name"], _label_key(dict(rec["labels"])),
                       rec["kind"])
                grouped.setdefault(key, []).append(rec)
        for key in sorted(grouped, key=repr):
            recs = grouped[key]
            rec = recs[0]
            labels = dict(rec["labels"])
            kind = rec["kind"]
            if kind == "counter":
                self.counter(rec["name"], **labels).inc(
                    math.fsum(r["value"] for r in recs)
                )
            elif kind == "histogram":
                hist = self.histogram(
                    rec["name"], growth=rec["growth"],
                    min_value=rec["min_value"], **labels
                )
                for idx in sorted({i for r in recs for i in r["counts"]}):
                    hist._counts[idx] = hist._counts.get(idx, 0) + sum(
                        r["counts"].get(idx, 0) for r in recs
                    )
                hist._count += sum(r["count"] for r in recs)
                hist._sum = math.fsum(
                    [hist._sum] + [r["sum"] for r in recs]
                )
                hist._min = min([hist._min] + [r["min"] for r in recs])
                hist._max = max([hist._max] + [r["max"] for r in recs])
            elif kind == "gauge":
                self.gauge(rec["name"], **labels).set(recs[-1]["value"])
            else:  # pragma: no cover - no other kinds exist today
                raise ValueError(f"cannot merge instrument kind {kind!r}")
