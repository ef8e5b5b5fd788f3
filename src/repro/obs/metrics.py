"""Instruments and the registry that owns them.

Design constraints, in order:

* **Fixed memory.**  Benchmarks run millions of simulated operations; the
  seed's unbounded ``List[float]`` stats (``StorageNode.page_write_stats``
  and friends) grew without limit.  :class:`Histogram` uses log-spaced
  buckets so percentile queries cost O(buckets), never O(samples).
* **Mergeable.**  Replicas and shards each keep their own instruments;
  cluster-level views merge histograms without touching raw samples.
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
from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Cap on distinct label-sets per metric family.  High enough that every
#: in-repo scenario stays far below it; cluster-scale runs with runaway
#: per-key labels overflow into ``__other__`` instead of growing the
#: registry without bound.
MAX_LABEL_SETS = 256

#: Label value marking the shared overflow bucket of a capped family.
OVERFLOW_BUCKET = "__other__"


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
    """A point-in-time value, set directly or computed lazily.

    ``fn`` gauges sample live state (cache hit rates, FTL utilization) at
    snapshot time, so the hot path pays nothing for them.
    """

    kind = "gauge"

    def __init__(self, name: str, labels=None,
                 fn: Optional[Callable[[], float]] = None):
        super().__init__(name, labels)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def reset(self) -> None:
        if self._fn is None:
            self._value = 0.0

    def payload(self) -> Dict:
        return {"value": self.value}


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
                 min_value: float = 1e-3, max_value: float = 1e12):
        super().__init__(name, labels)
        if growth <= 1.0:
            raise ValueError(f"growth factor must exceed 1, got {growth}")
        self.growth = growth
        self.min_value = min_value
        self.max_value = max_value
        self._log_growth = math.log(growth)
        self._max_bucket = (
            int(math.log(max_value / min_value) / self._log_growth) + 1
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

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

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

    # -- merge -------------------------------------------------------------

    def _compatible(self, other: "Histogram") -> bool:
        return (
            self.growth == other.growth
            and self.min_value == other.min_value
            and self.max_value == other.max_value
        )

    def merged(self, other: "Histogram") -> "Histogram":
        """A new histogram holding both distributions (associative,
        commutative): ``a.merged(b)`` and ``b.merged(a)`` export the same
        bytes.  Bucket keys are folded in sorted order so the result's
        count-dict iteration order never depends on which side recorded
        first, and the sums are combined with :func:`math.fsum` (exactly
        rounded) so float accumulation order cannot leak into exports.
        """
        return Histogram.merged_many([self, other])

    @staticmethod
    def merged_many(parts: Iterable["Histogram"]) -> "Histogram":
        """Merge any number of compatible histograms, order-independently.

        Parallel snapshot merges fold one histogram per worker; the fold
        order (worker id, arrival order, ...) must never change the merged
        bytes.  Counts are summed per sorted bucket key and the value sums
        combined with ``math.fsum``, which returns the correctly rounded
        float sum regardless of permutation.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("merged_many needs at least one histogram")
        first = parts[0]
        for other in parts[1:]:
            if not first._compatible(other):
                raise ValueError(
                    f"cannot merge {first.name}: bucket layouts differ"
                )
        out = Histogram(first.name, first.labels, first.growth,
                        first.min_value, first.max_value)
        keys = sorted({idx for part in parts for idx in part._counts})
        for idx in keys:
            out._counts[idx] = sum(p._counts.get(idx, 0) for p in parts)
        out._count = sum(p._count for p in parts)
        out._sum = math.fsum(p._sum for p in parts)
        out._min = min(p._min for p in parts)
        out._max = max(p._max for p in parts)
        return out

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
    """A drop-in replacement for the seed's unbounded stat lists.

    Records every sample into a registry :class:`Histogram` (fixed
    memory, real percentiles) while keeping a bounded ring of the most
    recent raw samples so existing ``list(stats)`` consumers still work.
    ``len()`` reports the *total* recorded count since the last
    ``clear()``, matching the old list semantics for the common
    ``len(stats) == before + 1`` assertions; iteration yields only the
    retained window.
    """

    WINDOW = 4096

    def __init__(self, histogram: Histogram, window: int = WINDOW):
        self.histogram = histogram
        self._recent: deque = deque(maxlen=window)

    def append(self, value: float) -> None:
        self.histogram.record(value)
        self._recent.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.append(value)

    def clear(self) -> None:
        self.histogram.reset()
        self._recent.clear()

    def __len__(self) -> int:
        return self.histogram.count

    def __iter__(self) -> Iterator[float]:
        return iter(self._recent)

    def __bool__(self) -> bool:
        return self.histogram.count > 0

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


class MetricsRegistry:
    """Owns every instrument of one simulation universe.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    the same (name, labels) twice returns the same object, so call sites
    never coordinate.  A :class:`~repro.obs.tracing.Tracer` is attached to
    each registry; components reach it as ``registry.tracer`` so span
    context flows through the stack without threading extra parameters.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Instrument] = {}
        #: Cardinality guard: admitted label-sets per metric name.
        self._label_sets: Dict[str, int] = {}
        # Imported lazily to avoid a module cycle (tracing records spans
        # back into this registry's histograms).
        from repro.obs.tracing import Tracer

        self.tracer = Tracer(self)

    # -- get-or-create -----------------------------------------------------

    def _admit(self, name: str, labels: Dict) -> Tuple[Dict, bool]:
        """Cardinality guard: decide where a *new* label-set lands.

        Families below the cap admit the label-set as-is.  At the cap,
        the lookup is routed to the family's shared ``__other__`` bucket
        and ``obs.label_overflow{metric=...}`` counts the routed lookup,
        so saturation is visible instead of silent.
        """
        if self._label_sets.get(name, 0) < MAX_LABEL_SETS:
            self._label_sets[name] = self._label_sets.get(name, 0) + 1
            return labels, False
        self._bump_overflow(name)
        return {"overflow": OVERFLOW_BUCKET}, True

    def _bump_overflow(self, name: str) -> None:
        # Created directly (not via counter()) so the overflow counter
        # itself can never recurse through the admission check.
        key = ("obs.label_overflow", (("metric", name),))
        counter = self._instruments.get(key)
        if counter is None:
            counter = Counter("obs.label_overflow", {"metric": name})
            self._instruments[key] = counter
        counter.inc()

    def _get_or_create(self, cls, name: str, labels: Dict, **kwargs):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            labels, routed = self._admit(name, labels)
            if routed:
                key = (name, _label_key(labels))
                instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, labels, **kwargs)
                self._instruments[key] = instrument
        if not isinstance(instrument, cls):
            raise ValueError(
                f"{name}{dict(labels)} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def gauge_fn(self, name: str, fn: Callable[[], float], **labels) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            labels, routed = self._admit(name, labels)
            if routed:
                key = (name, _label_key(labels))
                instrument = self._instruments.get(key)
        if instrument is None:
            instrument = Gauge(name, labels, fn=fn)
            self._instruments[key] = instrument
        else:
            # Re-registration rebinds the callback: a rebuilt component
            # (e.g. a node recovered from WAL replay) must not leave the
            # gauge reading its dead predecessor's state.
            instrument._fn = fn
        return instrument

    def histogram(self, name: str, growth: float = 1.04,
                  min_value: float = 1e-3, **labels) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels, growth=growth, min_value=min_value
        )

    def series(self, name: str, window: int = BoundedSeries.WINDOW,
               **labels) -> BoundedSeries:
        """A bounded, histogram-backed replacement for a raw stats list."""
        return BoundedSeries(self.histogram(name, **labels), window=window)

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
        """Zero every instrument (callback gauges are unaffected)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def snapshot(self) -> Dict:
        """The whole registry as a JSON-able dict."""
        return {"instruments": [i.describe() for i in self.instruments()]}

    # -- cross-process merge -----------------------------------------------

    def state(self) -> List[Dict]:
        """Every instrument as a picklable, callback-free record.

        This is what crosses a process boundary (the end-to-end
        benchmark's serve child ships it to its parent): callback gauges
        are sampled at capture time (deterministic given the simulated
        state), histograms carry their sparse bucket counts, and records
        are emitted in sorted instrument order so the stream itself is
        deterministic.
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
                    max_value=inst.max_value,
                    counts={int(k): int(v) for k, v in inst._counts.items()},
                    count=inst._count,
                    sum=inst._sum,
                    min=inst._min,
                    max=inst._max,
                )
            elif isinstance(inst, Gauge):
                rec["value"] = inst.value  # samples fn-backed gauges
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
        and min/max fold.  Plain gauges take the group's last capture
        (same-name gauges from disjoint shards carry disjoint labels, so
        overwrite order never matters in practice); fn-backed local
        gauges are left alone so they keep sampling live state.
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
                gauge = self.gauge(rec["name"], **labels)
                if gauge._fn is None:
                    gauge.set(recs[-1]["value"])
            else:  # pragma: no cover - no other kinds exist today
                raise ValueError(f"cannot merge instrument kind {kind!r}")
