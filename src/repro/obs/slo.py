"""Declarative SLOs evaluated continuously over the metrics registry.

An :class:`SLO` spec says what "healthy" means — a latency percentile
under a target, an error ratio inside a budget, a burn rate over a
trailing window of a :class:`~repro.obs.timeseries.TimeSeries`, a count
above a floor, or an arbitrary invariant that yields violation strings.
The :class:`SLOEvaluator` evaluates a list of specs against one or more
registries, keeps a bounded history per spec (the dashboard's burn-rate
sparklines), emits ``slo`` channel alert/recovery events into the
flight recorder on status transitions, and produces a final
:class:`SLOReport` verdict.

All pass/fail logic in the repo flows through this one evaluator: the
chaos harness's six invariants (I1–I6) and the scenario SLOs are
expressed as specs — same violation strings, same order, one code path
deciding red or green.

Evaluation is read-only: specs merge histogram snapshots and read
counters but never create registry instruments, so an evaluator
attached to a run leaves the metrics snapshot (and hence the oracle
fingerprints of ``tests/perf``) untouched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.events import recorder_active
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.timeseries import TimeSeries


@dataclass(frozen=True)
class SLOStatus:
    """Outcome of evaluating one spec at one instant."""

    name: str
    ok: bool
    value: float
    target: float
    t_us: float
    detail: str = ""
    #: Exact violation strings (one per breach) — invariant specs carry
    #: several; threshold-style specs carry one when breached.
    violations: Tuple[str, ...] = ()


class SLO:
    """Base spec: subclasses implement :meth:`evaluate`."""

    name: str = "slo"
    description: str = ""

    def evaluate(
        self, registries: Sequence[MetricsRegistry], now_us: float
    ) -> SLOStatus:
        raise NotImplementedError

    # -- shared registry readers ------------------------------------------

    @staticmethod
    def _merged_histogram(
        registries: Sequence[MetricsRegistry], metric: str
    ) -> Optional[Histogram]:
        merged: Optional[Histogram] = None
        for registry in registries:
            for inst in registry.find(metric):
                hist = getattr(inst, "histogram", inst)
                if not isinstance(hist, Histogram):
                    continue
                merged = hist if merged is None else merged.merged(hist)
        return merged

    @staticmethod
    def _counter_total(
        registries: Sequence[MetricsRegistry], metric: str
    ) -> float:
        total = 0.0
        for registry in registries:
            for inst in registry.find(metric):
                total += float(getattr(inst, "value", 0.0))
        return total


class LatencySLO(SLO):
    """``percentile(metric) <= target_us`` over merged histograms."""

    def __init__(
        self,
        name: str,
        metric: str,
        percentile: float,
        target_us: float,
        min_count: int = 1,
    ) -> None:
        self.name = name
        self.metric = metric
        self.percentile = float(percentile)
        self.target_us = float(target_us)
        self.min_count = min_count
        self.description = (
            f"p{percentile:g}({metric}) <= {target_us:g}us"
        )

    def evaluate(self, registries, now_us) -> SLOStatus:
        hist = self._merged_histogram(registries, self.metric)
        count = hist.count if hist is not None else 0
        if hist is None or count < self.min_count:
            # Not enough signal yet: vacuously healthy.
            return SLOStatus(self.name, True, 0.0, self.target_us, now_us,
                             detail="no data")
        value = hist.percentile(self.percentile)
        ok = value <= self.target_us
        violations = ()
        if not ok:
            violations = (
                f"{self.name}: p{self.percentile:g}({self.metric}) "
                f"{value:.1f}us exceeds {self.target_us:.1f}us",
            )
        return SLOStatus(
            self.name, ok, value, self.target_us, now_us,
            detail=f"n={count}", violations=violations,
        )


class ErrorBudgetSLO(SLO):
    """``bad / max(total, 1) <= budget`` over counter families."""

    def __init__(
        self,
        name: str,
        bad_metric: str,
        total_metric: Optional[str] = None,
        budget: float = 0.0,
        message: Optional[Callable[[float, float], str]] = None,
    ) -> None:
        self.name = name
        self.bad_metric = bad_metric
        self.total_metric = total_metric
        self.budget = float(budget)
        self.message = message
        self.description = (
            f"{bad_metric}/{total_metric or 'op'} <= {budget:g}"
        )

    def evaluate(self, registries, now_us) -> SLOStatus:
        bad = self._counter_total(registries, self.bad_metric)
        if self.total_metric is None:
            ratio, total = bad, bad
        else:
            total = self._counter_total(registries, self.total_metric)
            ratio = bad / total if total > 0 else 0.0
        ok = ratio <= self.budget
        violations = ()
        if not ok:
            if self.message is not None:
                violations = (self.message(bad, total),)
            else:
                violations = (
                    f"{self.name}: error ratio {ratio:.4f} exceeds "
                    f"budget {self.budget:.4f} "
                    f"({bad:.0f} bad / {total:.0f} total)",
                )
        return SLOStatus(self.name, ok, ratio, self.budget, now_us,
                         violations=violations)


class BurnRateSLO(SLO):
    """Trailing-window burn rate over a :class:`TimeSeries`.

    ``allowed_per_window`` is the budgeted event mass per time-series
    window; the burn rate is ``observed / allowed`` averaged over the
    last ``windows`` windows.  Burn > ``max_burn`` breaches (the classic
    multi-window budget alarm, here over simulated time).
    """

    def __init__(
        self,
        name: str,
        metric: str,
        allowed_per_window: float,
        windows: int = 5,
        max_burn: float = 1.0,
    ) -> None:
        if allowed_per_window <= 0:
            raise ValueError("allowed_per_window must be positive")
        self.name = name
        self.metric = metric
        self.allowed_per_window = float(allowed_per_window)
        self.windows = windows
        self.max_burn = float(max_burn)
        self.description = (
            f"burn({metric}) <= {max_burn:g}x over {windows} windows"
        )

    def evaluate(self, registries, now_us) -> SLOStatus:
        points: List[Tuple[float, float]] = []
        for registry in registries:
            for inst in registry.find(self.metric):
                if isinstance(inst, TimeSeries):
                    points.extend(inst.points())
        points.sort()
        tail = points[-self.windows:] if points else []
        if not tail:
            return SLOStatus(self.name, True, 0.0, self.max_burn, now_us,
                             detail="no data")
        observed = sum(v for _, v in tail) / len(tail)
        burn = observed / self.allowed_per_window
        ok = burn <= self.max_burn
        violations = ()
        if not ok:
            violations = (
                f"{self.name}: burn rate {burn:.2f}x exceeds "
                f"{self.max_burn:.2f}x "
                f"({observed:.1f}/window vs {self.allowed_per_window:.1f} "
                f"budgeted)",
            )
        return SLOStatus(self.name, ok, burn, self.max_burn, now_us,
                         violations=violations)


class ThresholdSLO(SLO):
    """``value_fn() >= floor`` (or ``<= ceiling``) with an exact breach
    message — the shape the chaos schedule floors need."""

    def __init__(
        self,
        name: str,
        value_fn: Callable[[], float],
        floor: Optional[float] = None,
        ceiling: Optional[float] = None,
        message: Optional[Callable[[float], str]] = None,
    ) -> None:
        if (floor is None) == (ceiling is None):
            raise ValueError("exactly one of floor/ceiling is required")
        self.name = name
        self.value_fn = value_fn
        self.floor = floor
        self.ceiling = ceiling
        self.message = message
        bound = f">= {floor:g}" if floor is not None else f"<= {ceiling:g}"
        self.description = f"{name} {bound}"

    def evaluate(self, registries, now_us) -> SLOStatus:
        value = float(self.value_fn())
        if self.floor is not None:
            ok, target = value >= self.floor, self.floor
        else:
            ok, target = value <= self.ceiling, self.ceiling
        violations = ()
        if not ok:
            if self.message is not None:
                violations = (self.message(value),)
            else:
                violations = (
                    f"{self.name}: value {value:g} breaches "
                    f"{self.description}",
                )
        return SLOStatus(self.name, ok, value, target, now_us,
                         violations=violations)


class InvariantSLO(SLO):
    """Wraps a callable returning violation strings (empty = healthy).

    The escape hatch for pass/fail logic that is not a single scalar:
    the chaos harness's read-back and divergence sweeps collect exact
    violation strings during the run and this spec surfaces them
    verbatim, preserving message text and ordering.
    """

    def __init__(
        self,
        name: str,
        check: Callable[[], Iterable[str]],
        description: str = "",
    ) -> None:
        self.name = name
        self.check = check
        self.description = description or name

    def evaluate(self, registries, now_us) -> SLOStatus:
        violations = tuple(self.check())
        return SLOStatus(
            self.name, not violations, float(len(violations)), 0.0,
            now_us, violations=violations,
        )


@dataclass
class SLOReport:
    """Final verdict: every spec's last status, flattened violations."""

    statuses: List[SLOStatus] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.ok for s in self.statuses)

    def violations(self) -> List[str]:
        out: List[str] = []
        for status in self.statuses:
            out.extend(status.violations)
        return out

    def render(self) -> str:
        lines = []
        for s in self.statuses:
            mark = "OK  " if s.ok else "FAIL"
            lines.append(
                f"  [{mark}] {s.name}: value={s.value:.3f} "
                f"target={s.target:.3f}"
                + (f" ({s.detail})" if s.detail else "")
            )
            for v in s.violations:
                lines.append(f"         - {v}")
        verdict = "SLO verdict: PASS" if self.passed else "SLO verdict: FAIL"
        return "\n".join([verdict] + lines)


class SLOEvaluator:
    """Evaluates specs continuously; the one arbiter of pass/fail.

    ``registries`` may grow over a run (cluster shards each own one).
    Each :meth:`evaluate` records one history point per spec (bounded,
    for sparklines) and emits ``slo`` events into the active flight
    recorder on ok->breach (``alert``) and breach->ok (``recovered``)
    transitions.
    """

    def __init__(
        self,
        registries: Optional[Sequence[MetricsRegistry]] = None,
        specs: Optional[Sequence[SLO]] = None,
        history: int = 256,
    ) -> None:
        self.registries: List[MetricsRegistry] = list(registries or [])
        self.specs: List[SLO] = list(specs or [])
        self.history_limit = history
        self.history: Dict[str, deque] = {}
        self.last: Dict[str, SLOStatus] = {}
        self.evaluations = 0
        self.alerts = 0

    def add(self, spec: SLO) -> SLO:
        self.specs.append(spec)
        return spec

    def attach(self, registry: MetricsRegistry) -> None:
        if registry not in self.registries:
            self.registries.append(registry)

    def evaluate(self, now_us: float) -> List[SLOStatus]:
        self.evaluations += 1
        statuses = []
        rec = recorder_active()
        for spec in self.specs:
            status = spec.evaluate(self.registries, now_us)
            statuses.append(status)
            hist = self.history.setdefault(
                spec.name, deque(maxlen=self.history_limit)
            )
            hist.append((now_us, status.value, status.ok))
            previous = self.last.get(spec.name)
            if rec is not None:
                if status.ok and previous is not None and not previous.ok:
                    rec.emit(now_us, "slo", "recovered", slo=spec.name,
                             value=round(status.value, 3))
                elif not status.ok and (previous is None or previous.ok):
                    self.alerts += 1
                    rec.emit(
                        now_us, "slo", "alert", slo=spec.name,
                        value=round(status.value, 3),
                        target=round(status.target, 3),
                        breaches=len(status.violations),
                    )
            elif not status.ok and (previous is None or previous.ok):
                self.alerts += 1
            self.last[spec.name] = status
        return statuses

    def daemon(self, engine, interval_us: float = 20_000.0):
        """Generator for ``engine.spawn``: evaluate every ``interval_us``
        of simulated time until cancelled (keep the Process handle and
        ``cancel()`` it before any ``run_until_idle``)."""
        while True:
            yield engine.timeout(interval_us)
            self.evaluate(engine.now_us)

    def spawn_daemon(self, engine, interval_us: float = 20_000.0):
        return engine.spawn(
            self.daemon(engine, interval_us), name="slo-evaluator"
        )

    def report(self, now_us: float) -> SLOReport:
        """Final evaluation pass + verdict over every spec."""
        return SLOReport(statuses=self.evaluate(now_us))

    def sparkline_values(self, name: str) -> List[float]:
        return [value for _, value, _ in self.history.get(name, ())]


__all__ = [
    "BurnRateSLO",
    "ErrorBudgetSLO",
    "InvariantSLO",
    "LatencySLO",
    "SLO",
    "SLOEvaluator",
    "SLOReport",
    "SLOStatus",
    "ThresholdSLO",
]
