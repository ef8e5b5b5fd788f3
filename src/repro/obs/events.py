"""The flight recorder: a bounded ring of typed, sim-timestamped events.

Counters and histograms (``repro.obs.metrics``) answer "how much"; the
flight recorder answers "what happened, in what order".  Every layer of
the stack emits structured events into one process-wide recorder — page
I/O, FTL garbage collection, group-commit flushes, chunk migrations,
injected faults, codec selections, scrub repairs, elections — each
stamped with the *simulated* time at which it happened, so a dump reads
as the black box of a run: after a chaos failure,
``python -m repro events --load`` replays the history post-hoc.

Design constraints:

* **Zero cost when disabled.**  Call sites do ``rec = recorder_active()``
  and skip all field building when it returns ``None``; nothing is
  allocated, no instrument is touched.  Recording is opt-in per run
  (the ``events`` command).
* **Bounded.**  The ring holds ``capacity`` events; older events fall
  off the back (counted per channel, never silently).  Per-channel
  sampling knobs (``keep 1 in N``) cut hot channels like ``io`` down
  before they reach the ring.
* **Deterministic.**  Timestamps are simulated microseconds, sampling is
  counter-based (no RNG), and the dump is byte-stable for a seed — CI
  double-runs a scenario and diffs the dumps.
* **Outside the metrics universe.**  The recorder's own bookkeeping
  (emitted/sampled/dropped counts) lives in plain dicts, *not* registry
  instruments: enabling the recorder must not perturb a metrics
  snapshot, which the scenario table (``repro.obs.scenarios``)
  fingerprints.

The dump is JSONL: one event per line, ``t_us`` / ``channel`` / ``kind``
at the top level and the payload under ``fields``, so a payload field
named ``kind`` cannot shadow the event's own; :meth:`FlightRecorder.load`
reads it back.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

#: The event channels the stack emits on, one per subsystem concern.
CHANNELS = (
    "io",         # page writes/reads, redo commits (storage layer)
    "gc",         # FTL garbage-collection relocations (csd layer)
    "commit",     # group-commit pipeline flushes (storage layer)
    "migration",  # chunk migration phases (cluster layer)
    "fault",      # injected faults + chaos phase transitions
    "codec",      # compression algorithm selections
    "scrub",      # scrub sweeps and corruption repairs
    "db",         # compute-layer checkpoints
    "election",   # leader successions after a leader crash (storage layer)
    "net",        # serving-layer admissions/rejections/completions
)


@dataclass(frozen=True)
class RecordedEvent:
    """One structured fact at one simulated instant."""

    t_us: float
    channel: str
    kind: str
    fields: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            # Unrounded: a reload must render exactly as the live run.
            "t_us": float(self.t_us),
            "channel": self.channel,
            "kind": self.kind,
            "fields": dict(self.fields),
        }

    def render(self) -> str:
        extras = " ".join(
            f"{k}={self.fields[k]}" for k in sorted(self.fields)
        )
        return (
            f"[{self.t_us / 1e3:12.3f} ms] {self.channel:<9} "
            f"{self.kind:<18} {extras}"
        ).rstrip()


class FlightRecorder:
    """Bounded, sampled, deterministic event ring for one run."""

    def __init__(
        self,
        capacity: int = 65536,
        sample: Optional[Dict[str, int]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"recorder capacity must be positive: {capacity}")
        self.capacity = capacity
        #: channel -> keep 1 event in N (1 keeps all, 0 mutes the channel).
        self.sample: Dict[str, int] = dict(sample or {})
        self._ring: deque = deque(maxlen=capacity)
        # Plain-dict bookkeeping, deliberately NOT registry instruments:
        # enabling the recorder must not change any metrics snapshot.
        self.emitted: Dict[str, int] = {}
        self.sampled_out: Dict[str, int] = {}
        self.dropped: Dict[str, int] = {}
        self._seen: Dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def emit(self, t_us: float, channel: str, kind: str, /, **fields) -> None:
        """Record one event (subject to sampling and ring capacity).

        The first three parameters are positional-only so that ``kind``
        and friends stay usable as event field names (scrub and fault
        events carry a ``kind=`` payload field).
        """
        self._seen[channel] = self._seen.get(channel, 0) + 1
        n = self.sample.get(channel, 1)
        if n != 1:
            if n < 1 or (self._seen[channel] - 1) % n != 0:
                self.sampled_out[channel] = (
                    self.sampled_out.get(channel, 0) + 1
                )
                return
        if len(self._ring) == self.capacity:
            evicted = self._ring[0]
            self.dropped[evicted.channel] = (
                self.dropped.get(evicted.channel, 0) + 1
            )
        self._ring.append(RecordedEvent(float(t_us), channel, kind, fields))
        self.emitted[channel] = self.emitted.get(channel, 0) + 1

    def clear(self) -> None:
        self._ring.clear()
        self.emitted.clear()
        self.sampled_out.clear()
        self.dropped.clear()
        self._seen.clear()

    # -- query -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def total_emitted(self) -> int:
        return sum(self.emitted.values())

    def events(
        self,
        channel: Optional[str] = None,
        kind: Optional[str] = None,
        since_us: Optional[float] = None,
        until_us: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[RecordedEvent]:
        """Filtered view of the retained ring, oldest first."""
        out = [
            ev
            for ev in self._ring
            if (channel is None or ev.channel == channel)
            and (kind is None or ev.kind == kind)
            and (since_us is None or ev.t_us >= since_us)
            and (until_us is None or ev.t_us < until_us)
        ]
        if limit is not None:
            out = out[max(0, len(out) - limit):]
        return out

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-channel retained/sampled-out/dropped counts (sorted)."""
        channels = sorted(
            set(self.emitted) | set(self.sampled_out) | set(self.dropped)
        )
        return {
            ch: {
                "emitted": self.emitted.get(ch, 0),
                "sampled_out": self.sampled_out.get(ch, 0),
                "dropped": self.dropped.get(ch, 0),
            }
            for ch in channels
        }

    # -- dump --------------------------------------------------------------

    def dump_jsonl(self, path: str) -> str:
        """One compact JSON object per line; byte-stable per seed."""
        with open(path, "w", encoding="utf-8") as handle:
            for ev in self._ring:
                handle.write(
                    json.dumps(
                        ev.as_dict(), sort_keys=True,
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "FlightRecorder":
        """Read a JSONL dump back into a recorder for post-hoc
        filtering/replay."""
        rec = cls(capacity=1 << 22)
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                rec.emit(doc["t_us"], doc["channel"], doc["kind"],
                         **doc["fields"])
        return rec


# ---------------------------------------------------------------------------
# process-wide activation
# ---------------------------------------------------------------------------

_active: Optional[FlightRecorder] = None


def recorder_active() -> Optional[FlightRecorder]:
    """The process-wide recorder, or ``None`` when recording is off.

    This is the hot-path guard: call sites bail on ``None`` before
    building any event fields, so a disabled recorder costs one global
    load and one comparison.
    """
    return _active


def activate(**kwargs) -> FlightRecorder:
    """Install a process-wide recorder of ``FlightRecorder``'s keywords
    (every registry/volume shares it, so a cluster of shards lands in
    one ordered event stream)."""
    global _active
    _active = FlightRecorder(**kwargs)
    return _active


@contextmanager
def recording(**kwargs):
    """Scoped activation; restores the previous recorder on exit."""
    global _active
    previous = _active
    rec = activate(**kwargs)
    try:
        yield rec
    finally:
        _active = previous


def parse_sample_spec(spec: str) -> Dict[str, int]:
    """``"io=8,gc=1"`` -> ``{"io": 8, "gc": 1}`` (keep 1 in N)."""
    out: Dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad sample spec {part!r}: expected channel=N"
            )
        channel, _, n = part.partition("=")
        out[channel.strip()] = int(n)
    return out


def emit(t_us: float, channel: str, kind: str, /, **fields) -> None:
    """Convenience: emit into the active recorder (no-op when off)."""
    rec = _active
    if rec is not None:
        rec.emit(t_us, channel, kind, **fields)


__all__ = [
    "CHANNELS",
    "FlightRecorder",
    "RecordedEvent",
    "activate",
    "emit",
    "parse_sample_spec",
    "recording",
    "recorder_active",
]
