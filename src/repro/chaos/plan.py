"""Seeded, schedulable data-fault injection at the block-device layer.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries — *what* to
inject (:class:`FaultKind`), *when* (a simulated-time window, every Nth
I/O, or a per-I/O probability), and *where* (a device-label scope plus an
optional LBA range).  The plan hands each device a
:class:`DeviceInjector` whose RNG is derived deterministically from the
plan seed and the device label, so the same seed replays the same faults
regardless of how many devices exist or in which order they do I/O.

Injected corruption is remembered in a :class:`FaultLedger` keyed by
(device label, block), which lets the detect-and-repair path attribute a
checksum failure back to the fault kind that caused it — the bookkeeping
behind the harness invariant "detected == repaired, per kind".

Fault model (all persistent faults mutate the device's stored bytes; the
device itself still reports success, exactly like real silent-corruption
hardware):

========================  ====================================================
``BIT_FLIP``              one random bit of the written buffer is inverted
``TORN_WRITE``            the write persists only its first 512 bytes; the
                          rest of the buffer reads back as zeros
``DROPPED_WRITE``         the device acks the write but persists nothing
``MISDIRECTED_WRITE``     the payload lands 1–8 blocks away from the target
                          LBA (corrupting a victim, starving the target)
``DEVICE_FAIL``           every I/O raises ``DeviceUnavailableError`` while
                          the rule's time window is active
``SLOW_IO``               the I/O completes correctly but with hundreds of
                          extra microseconds to several ms of service time
========================  ====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.checksum import crc32
from repro.common.errors import DeviceUnavailableError
from repro.common.units import LBA_SIZE
from repro.obs.events import recorder_active


class FaultKind(enum.Enum):
    BIT_FLIP = "bit_flip"
    TORN_WRITE = "torn_write"
    DROPPED_WRITE = "dropped_write"
    MISDIRECTED_WRITE = "misdirected_write"
    DEVICE_FAIL = "device_fail"
    SLOW_IO = "slow_io"


#: Kinds that silently damage stored bytes (detectable via checksums).
DATA_FAULT_KINDS = frozenset(
    {
        FaultKind.BIT_FLIP,
        FaultKind.TORN_WRITE,
        FaultKind.DROPPED_WRITE,
        FaultKind.MISDIRECTED_WRITE,
    }
)

#: Torn writes persist exactly this prefix of the buffer.  512 bytes is
#: small enough that the tear lands inside the compressed payload (or a
#: sealed log block's body) rather than in trailing zero padding.
TORN_WRITE_PREFIX = 512


@dataclass
class FaultRule:
    """One schedulable fault source.

    Trigger semantics (combined left to right):

    * the rule is dead once it has fired ``max_count`` times;
    * it is dormant outside ``[from_us, until_us)`` simulated time;
    * ``scope`` must be a substring of the device label (``""`` = every
      device; ``"node-1"`` = both devices of that node; ``":data"`` =
      every data device);
    * the I/O must overlap ``[lba_lo, lba_hi)`` (defaults span the disk);
    * if ``every_n`` is set, only every Nth I/O of the device qualifies;
    * if ``probability`` is set, a per-I/O coin toss decides;
    * with neither, the rule fires on every qualifying I/O — pair with
      ``max_count=1`` for an "at time T" one-shot.
    """

    kind: FaultKind
    probability: float = 0.0
    every_n: int = 0
    from_us: float = 0.0
    until_us: float = float("inf")
    scope: str = ""
    lba_lo: int = 0
    lba_hi: int = 1 << 62
    max_count: int = 1 << 31
    #: Median extra service time for ``SLOW_IO`` (actual spike is
    #: uniform in [0.5x, 1.5x] of this).
    slow_us: float = 8000.0
    #: Firings so far (shared plan-wide across devices).
    fired: int = 0

    def window_active(self, now_us: float) -> bool:
        return self.from_us <= now_us < self.until_us

    def qualifies(
        self,
        now_us: float,
        io_index: int,
        lba: Optional[int],
        n_blocks: int,
    ) -> bool:
        """Everything but the probability toss (which needs the RNG)."""
        if self.fired >= self.max_count:
            return False
        if not self.window_active(now_us):
            return False
        if lba is not None and not (
            lba < self.lba_hi and lba + n_blocks > self.lba_lo
        ):
            return False
        if self.every_n and io_index % self.every_n != 0:
            return False
        return True


class FaultLedger:
    """Maps corrupted blocks back to the fault kind that damaged them."""

    def __init__(self) -> None:
        self._blocks: Dict[Tuple[str, int], FaultKind] = {}

    def record(
        self, label: str, lba: int, n_blocks: int, kind: FaultKind
    ) -> None:
        for block in range(lba, lba + max(1, n_blocks)):
            self._blocks[(label, block)] = kind

    def clear(self, label: str, lba: int, n_blocks: int) -> None:
        """A clean write to these blocks replaces whatever was damaged."""
        for block in range(lba, lba + max(1, n_blocks)):
            self._blocks.pop((label, block), None)

    def kind_for_node(
        self, node: str, lba: int, n_blocks: int
    ) -> Optional[FaultKind]:
        """Attribute a corruption detected on ``node`` at an LBA range.

        Device labels are ``<node>:data`` / ``<node>:perf``; both are
        checked because the caller (the page read path) does not know
        which device the damaged bytes lived on.
        """
        if lba < 0:
            return None
        for role in ("data", "perf"):
            label = f"{node}:{role}"
            for block in range(lba, lba + max(1, n_blocks)):
                kind = self._blocks.get((label, block))
                if kind is not None:
                    return kind
        return None

    def clear_node(self, node: str, lba: int, n_blocks: int) -> None:
        """Forget damage after repair (the blocks were freed/rewritten)."""
        if lba < 0:
            return
        for role in ("data", "perf"):
            self.clear(f"{node}:{role}", lba, n_blocks)

    def __len__(self) -> int:
        return len(self._blocks)


class DeviceInjector:
    """Per-device fault executor, consulted by ``BlockDevice`` I/O."""

    def __init__(
        self,
        plan: "FaultPlan",
        label: str,
        rules: Sequence[FaultRule],
        rng: np.random.Generator,
    ) -> None:
        self.plan = plan
        self.label = label
        self.rng = rng
        self.io_index = 0
        self._fail_rules = [r for r in rules if r.kind is FaultKind.DEVICE_FAIL]
        self._data_rules = [r for r in rules if r.kind in DATA_FAULT_KINDS]
        self._slow_rules = [r for r in rules if r.kind is FaultKind.SLOW_IO]

    # -- hooks called by BlockDevice ---------------------------------------

    def begin_io(self, now_us: float) -> None:
        """Raise if a whole-device-failure window is active."""
        self.io_index += 1
        for rule in self._fail_rules:
            # Scope is re-checked live: the harness may retarget a rule
            # (e.g. point a dormant DEVICE_FAIL window at one node).
            if rule.scope and rule.scope not in self.label:
                continue
            if rule.window_active(now_us):
                self.plan.record_injection(
                    FaultKind.DEVICE_FAIL, self.label, once_per_rule=rule,
                    now_us=now_us,
                )
                raise DeviceUnavailableError(
                    f"{self.label}: device down "
                    f"(chaos window [{rule.from_us:.0f}, {rule.until_us:.0f}) µs)"
                )

    def on_write(
        self, now_us: float, lba: int, data: bytes
    ) -> Tuple[int, Optional[bytes], float]:
        """Return (store_lba, store_data, extra_service_us).

        ``store_data is None`` means the write is silently dropped.  At
        most one data fault applies per write so the ledger's attribution
        stays unambiguous; slow-I/O spikes compose on top.
        """
        extra_us = self._slow_extra(now_us)
        n_blocks = len(data) // LBA_SIZE
        store_lba, store_data = lba, data
        faulted = False
        for rule in self._data_rules:
            if rule.scope and rule.scope not in self.label:
                continue
            if not rule.qualifies(now_us, self.io_index, lba, n_blocks):
                continue
            if rule.probability and not (
                float(self.rng.random()) < rule.probability
            ):
                continue
            rule.fired += 1
            self.plan.record_injection(rule.kind, self.label, now_us=now_us)
            ledger = self.plan.ledger
            if rule.kind is FaultKind.BIT_FLIP:
                pos = int(self.rng.integers(len(data)))
                bit = 1 << int(self.rng.integers(8))
                store_data = (
                    data[:pos] + bytes([data[pos] ^ bit]) + data[pos + 1 :]
                )
                ledger.record(self.label, lba, n_blocks, rule.kind)
            elif rule.kind is FaultKind.TORN_WRITE:
                store_data = data[:TORN_WRITE_PREFIX] + b"\x00" * (
                    len(data) - TORN_WRITE_PREFIX
                )
                ledger.record(self.label, lba, n_blocks, rule.kind)
            elif rule.kind is FaultKind.DROPPED_WRITE:
                store_data = None
                ledger.record(self.label, lba, n_blocks, rule.kind)
            elif rule.kind is FaultKind.MISDIRECTED_WRITE:
                store_lba = lba + 1 + int(self.rng.integers(8))
                # Both the starved target and the overwritten victim are
                # now suspect.
                ledger.record(self.label, lba, n_blocks, rule.kind)
                ledger.record(self.label, store_lba, n_blocks, rule.kind)
            faulted = True
            break
        if not faulted:
            # A clean write over previously-damaged blocks heals them.
            self.plan.ledger.clear(self.label, lba, n_blocks)
        return store_lba, store_data, extra_us

    def on_read(self, now_us: float, lba: int, nbytes: int) -> float:
        """Extra service microseconds for this read (slow-I/O spikes)."""
        return self._slow_extra(now_us)

    # -- internals ----------------------------------------------------------

    def _slow_extra(self, now_us: float) -> float:
        total = 0.0
        for rule in self._slow_rules:
            if rule.scope and rule.scope not in self.label:
                continue
            if not rule.qualifies(now_us, self.io_index, None, 0):
                continue
            if rule.probability and not (
                float(self.rng.random()) < rule.probability
            ):
                continue
            rule.fired += 1
            self.plan.record_injection(
                FaultKind.SLOW_IO, self.label, now_us=now_us
            )
            total += rule.slow_us * (0.5 + float(self.rng.random()))
        return total


class FaultPlan:
    """A seeded fault schedule shared by every device in a volume."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rules: List[FaultRule] = []
        self.ledger = FaultLedger()
        #: kind value -> firings.
        self.injected: Dict[str, int] = {}
        self._announced: set = set()

    def add(self, rule: FaultRule) -> FaultRule:
        self.rules.append(rule)
        return rule

    def injector_for(self, label: str) -> DeviceInjector:
        """Build this device's injector with a label-derived RNG stream."""
        selected = [r for r in self.rules if r.scope in label]
        rng = np.random.default_rng(
            [self.seed & 0xFFFFFFFF, crc32(label.encode("utf-8"))]
        )
        return DeviceInjector(self, label, selected, rng)

    def attach_to_store(self, store) -> None:
        """Arm every device of a :class:`~repro.storage.store.PolarStore`."""
        store.attach_chaos(self)
        for node in store.nodes:
            self.attach_to_node(node)

    def attach_to_node(self, node) -> None:
        node.data_device.attach_chaos(self.injector_for(f"{node.name}:data"))
        node.perf_device.attach_chaos(self.injector_for(f"{node.name}:perf"))

    def quiesce(self, now_us: float) -> None:
        """Stop all future injection (close every rule's window).

        Convergence can only be asserted once faults stop: while rules
        stay live, the repairs themselves can be re-corrupted.
        """
        for rule in self.rules:
            rule.until_us = min(rule.until_us, now_us)

    def record_injection(
        self,
        kind: FaultKind,
        label: str,
        once_per_rule: Optional[FaultRule] = None,
        now_us: Optional[float] = None,
    ) -> None:
        if once_per_rule is not None:
            key = (id(once_per_rule), label)
            if key in self._announced:
                return
            self._announced.add(key)
        self.injected[kind.value] = self.injected.get(kind.value, 0) + 1
        rec = recorder_active()
        if rec is not None:
            rec.emit(
                now_us if now_us is not None else 0.0,
                "fault", "injected", kind=kind.value, device=label,
            )
