"""The flight recorder: a bounded ring of typed, sim-timestamped events.

Counters and histograms (``repro.obs.metrics``) answer "how much"; the
flight recorder answers "what happened, in what order".  Every layer of
the stack emits structured events into one process-wide recorder — page
I/O, FTL garbage collection, group-commit flushes, chunk migrations,
injected faults, codec selections, scrub repairs, SLO alerts — each
stamped with the *simulated* time at which it happened, so a dump reads
as the black box of a run: after a chaos failure or a missed SLO,
``python -m repro events --load`` replays the history post-hoc.

Design constraints:

* **Zero cost when disabled.**  Call sites do ``rec = recorder_active()``
  and skip all field building when it returns ``None``; nothing is
  allocated, no instrument is touched.  Recording is opt-in per run
  (the ``events``/``dash`` commands or ``REPRO_OBS=1``).
* **Bounded.**  The ring holds ``capacity`` events; older events fall
  off the back (counted per channel, never silently).  Per-channel
  sampling knobs (``keep 1 in N``) cut hot channels like ``io`` down
  before they reach the ring.
* **Deterministic.**  Timestamps are simulated microseconds, sampling is
  counter-based (no RNG), and both dump formats are byte-stable for a
  seed — CI double-runs a scenario and diffs the dumps.
* **Outside the metrics universe.**  The recorder's own bookkeeping
  (emitted/sampled/dropped counts) lives in plain dicts, *not* registry
  instruments: enabling the recorder must not perturb a metrics
  snapshot, which ``tests/perf/oracle.py`` fingerprints.

Two dump formats: JSONL (one event per line, greppable) and a compact
binary framing (magic + string tables + fixed-width records) for large
rings; :meth:`FlightRecorder.load` sniffs the magic and reads either.
"""

from __future__ import annotations

import json
import os
import struct
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

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
    "slo",        # SLO evaluator alerts/recoveries
    "election",   # consensus votes, term bumps, fences (consensus layer)
    "net",        # serving-layer admissions/rejections/completions
)

#: Binary dump magic (versioned; bump on format change).
_MAGIC = b"PSFR1\n"
#: Fixed-width record: t_us (f64), channel idx, kind idx, payload len.
_RECORD = struct.Struct("<dHHI")


@dataclass(frozen=True)
class RecordedEvent:
    """One structured fact at one simulated instant."""

    t_us: float
    channel: str
    kind: str
    fields: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "t_us": round(float(self.t_us), 3),
            "channel": self.channel,
            "kind": self.kind,
        }
        for key in sorted(self.fields):
            doc[key] = self.fields[key]
        return doc

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
        enabled: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"recorder capacity must be positive: {capacity}")
        self.capacity = capacity
        self.enabled = enabled
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
        if not self.enabled:
            return
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
        if limit is not None and limit >= 0:
            out = out[-limit:]
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

    # -- dumps -------------------------------------------------------------

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

    def dump_binary(self, path: str) -> str:
        """Magic + string tables + fixed-width records; byte-stable."""
        channels = sorted({ev.channel for ev in self._ring})
        kinds = sorted({ev.kind for ev in self._ring})
        ch_idx = {c: i for i, c in enumerate(channels)}
        kind_idx = {k: i for i, k in enumerate(kinds)}
        header = json.dumps(
            {
                "channels": channels,
                "kinds": kinds,
                "count": len(self._ring),
                "sample": {k: self.sample[k] for k in sorted(self.sample)},
                "summary": self.summary(),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(struct.pack("<I", len(header)))
            handle.write(header)
            for ev in self._ring:
                payload = json.dumps(
                    {k: ev.fields[k] for k in sorted(ev.fields)},
                    sort_keys=True,
                    separators=(",", ":"),
                ).encode("utf-8")
                handle.write(
                    _RECORD.pack(
                        round(float(ev.t_us), 3),
                        ch_idx[ev.channel],
                        kind_idx[ev.kind],
                        len(payload),
                    )
                )
                handle.write(payload)
        return path

    @classmethod
    def load(cls, path: str) -> "FlightRecorder":
        """Read a dump (binary or JSONL, sniffed by magic) back into a
        recorder for post-hoc filtering/replay."""
        with open(path, "rb") as handle:
            magic = handle.read(len(_MAGIC))
            if magic == _MAGIC:
                return cls._load_binary(handle, path)
        rec = cls(capacity=1 << 22)
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                t_us = doc.pop("t_us")
                channel = doc.pop("channel")
                kind = doc.pop("kind")
                rec.emit(t_us, channel, kind, **doc)
        return rec

    @classmethod
    def _load_binary(cls, handle, path: str) -> "FlightRecorder":
        (header_len,) = struct.unpack("<I", handle.read(4))
        header = json.loads(handle.read(header_len).decode("utf-8"))
        channels = header["channels"]
        kinds = header["kinds"]
        rec = cls(capacity=max(1, header.get("count", 1)))
        for _ in range(header["count"]):
            raw = handle.read(_RECORD.size)
            if len(raw) < _RECORD.size:
                raise ValueError(f"truncated event dump: {path}")
            t_us, ch, kind, payload_len = _RECORD.unpack(raw)
            payload = handle.read(payload_len)
            if len(payload) < payload_len:
                raise ValueError(f"truncated event dump: {path}")
            fields = json.loads(payload.decode("utf-8"))
            rec.emit(t_us, channels[ch], kinds[kind], **fields)
        # Restore the sampling config for inspection only AFTER replay —
        # the retained events already survived sampling once; applying
        # it again on load would thin them a second time.
        rec.sample = dict(header.get("sample", {}))
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


def activate(recorder: Optional[FlightRecorder] = None, **kwargs) -> FlightRecorder:
    """Install a process-wide recorder (every registry/volume shares it,
    so a cluster of shards lands in one ordered event stream)."""
    global _active
    _active = recorder if recorder is not None else FlightRecorder(**kwargs)
    return _active


def deactivate() -> None:
    global _active
    _active = None


@contextmanager
def recording(recorder: Optional[FlightRecorder] = None, **kwargs):
    """Scoped activation; restores the previous recorder on exit."""
    global _active
    previous = _active
    rec = activate(recorder, **kwargs)
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


def configure_from_env(env: Optional[Mapping[str, str]] = None) -> None:
    """Honour ``REPRO_OBS``: ``1``/``on`` activates a default recorder;
    ``capacity=N`` and ``sample=io:8;gc:1`` tune it; unset/``0`` leaves
    recording off (an already-active recorder is kept as-is)."""
    value = (env if env is not None else os.environ).get("REPRO_OBS", "")
    value = value.strip().lower()
    if not value or value in ("0", "off", "false"):
        return
    if _active is not None:
        return
    capacity = 65536
    sample: Dict[str, int] = {}
    if value not in ("1", "on", "true"):
        for part in value.split(","):
            key, _, val = part.strip().partition("=")
            if key == "capacity":
                capacity = int(val)
            elif key == "sample":
                sample = parse_sample_spec(val.replace(";", ",").replace(":", "="))
            else:
                raise ValueError(f"REPRO_OBS: unknown key {key!r}")
    activate(capacity=capacity, sample=sample)


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
    "configure_from_env",
    "deactivate",
    "emit",
    "parse_sample_spec",
    "recording",
    "recorder_active",
]
