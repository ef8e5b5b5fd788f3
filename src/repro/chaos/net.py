"""Seeded, schedulable network-fault injection for the consensus plane.

:mod:`repro.chaos.plan` corrupts what devices *store*; this module breaks
what nodes *say to each other*.  A :class:`NetFaultPlan` is a list of
:class:`NetRule` entries — *what* to do to a message
(:class:`NetFaultKind`), *when* (a simulated-time window), and *where*
(source/destination node-id scopes).  The consensus fabric consults the
plan once per message; the volume's data-plane fan-out consults
:meth:`NetFaultPlan.blocked` so a partition severs replication the same
way it severs heartbeats.

Fault model:

========================  ==================================================
``PARTITION``             messages matching the rule are dropped for the
                          whole window; ``symmetric`` rules cut both
                          directions between the two groups, asymmetric
                          rules cut only ``src -> dst`` (the classic
                          one-way link that makes a follower disruptively
                          start elections it can win votes for)
``DROP``                  per-message coin toss: the message vanishes
``DELAY``                 per-message coin toss: delivery is late by
                          ``delay_us`` (uniform in [0.5x, 1.5x])
``DUPLICATE``             per-message coin toss: the message arrives twice
========================  ==================================================

Determinism: probabilistic rolls come from per-link RNG streams derived
from ``(seed, "net", src, dst)`` via :func:`repro.common.rng.derive_seed`,
so the same seed replays the same drops regardless of how many other
links exist.  Partition checks are pure window arithmetic and consume no
randomness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.common.rng import make_rng


class NetFaultKind(enum.Enum):
    PARTITION = "partition"
    DROP = "drop"
    DELAY = "delay"
    DUPLICATE = "duplicate"


@dataclass
class NetRule:
    """One schedulable message-fault source.

    ``src``/``dst`` are node-id sets (``None`` matches every node).  A
    symmetric ``PARTITION`` also matches the reversed direction, so one
    rule cuts the full link set between two groups.
    """

    kind: NetFaultKind
    from_us: float = 0.0
    until_us: float = float("inf")
    src: Optional[FrozenSet[int]] = None
    dst: Optional[FrozenSet[int]] = None
    symmetric: bool = False
    probability: float = 0.0
    delay_us: float = 500.0
    #: Firings so far (drops/delays/dups; partitions are windows, not
    #: counted events).
    fired: int = 0

    def window_active(self, now_us: float) -> bool:
        return self.from_us <= now_us < self.until_us

    def _matches_one_way(self, src: int, dst: int) -> bool:
        if self.src is not None and src not in self.src:
            return False
        if self.dst is not None and dst not in self.dst:
            return False
        return True

    def matches(self, src: int, dst: int) -> bool:
        if self._matches_one_way(src, dst):
            return True
        return self.symmetric and self._matches_one_way(dst, src)


@dataclass(frozen=True)
class NetVerdict:
    """What the plan decided for one message."""

    blocked: bool = False
    dropped: bool = False
    extra_delay_us: float = 0.0
    duplicates: int = 0


_CLEAN = NetVerdict()


class NetFaultPlan:
    """Deterministic message-fault schedule shared by fabric and volume."""

    def __init__(self, seed: int, rules: Optional[Iterable[NetRule]] = None):
        self.seed = seed
        self.rules: List[NetRule] = list(rules or ())
        #: Plain-dict bookkeeping (mirrors the flight recorder's
        #: discipline: consulting the plan must not touch a registry).
        self.blocked_messages = 0
        self.dropped_messages = 0
        self.delayed_messages = 0
        self.duplicated_messages = 0
        self._rngs: Dict[Tuple[int, int], object] = {}

    # -- schedule construction --------------------------------------------

    def add(self, rule: NetRule) -> NetRule:
        self.rules.append(rule)
        return rule

    def partition(
        self,
        group_a: Iterable[int],
        group_b: Iterable[int],
        from_us: float,
        until_us: float,
        symmetric: bool = True,
    ) -> NetRule:
        """Cut every link from ``group_a`` to ``group_b`` for the window
        (both directions when ``symmetric``)."""
        return self.add(NetRule(
            NetFaultKind.PARTITION,
            from_us=from_us,
            until_us=until_us,
            src=frozenset(group_a),
            dst=frozenset(group_b),
            symmetric=symmetric,
        ))

    def drop(
        self,
        probability: float,
        from_us: float = 0.0,
        until_us: float = float("inf"),
        src: Optional[Iterable[int]] = None,
        dst: Optional[Iterable[int]] = None,
    ) -> NetRule:
        return self.add(NetRule(
            NetFaultKind.DROP, from_us=from_us, until_us=until_us,
            src=None if src is None else frozenset(src),
            dst=None if dst is None else frozenset(dst),
            probability=probability,
        ))

    def delay(
        self,
        probability: float,
        delay_us: float,
        from_us: float = 0.0,
        until_us: float = float("inf"),
        src: Optional[Iterable[int]] = None,
        dst: Optional[Iterable[int]] = None,
    ) -> NetRule:
        return self.add(NetRule(
            NetFaultKind.DELAY, from_us=from_us, until_us=until_us,
            src=None if src is None else frozenset(src),
            dst=None if dst is None else frozenset(dst),
            probability=probability, delay_us=delay_us,
        ))

    def duplicate(
        self,
        probability: float,
        from_us: float = 0.0,
        until_us: float = float("inf"),
        src: Optional[Iterable[int]] = None,
        dst: Optional[Iterable[int]] = None,
    ) -> NetRule:
        return self.add(NetRule(
            NetFaultKind.DUPLICATE, from_us=from_us, until_us=until_us,
            src=None if src is None else frozenset(src),
            dst=None if dst is None else frozenset(dst),
            probability=probability,
        ))

    # -- consultation ------------------------------------------------------

    def blocked(self, src: int, dst: int, now_us: float) -> bool:
        """Is the ``src -> dst`` direction partitioned at ``now_us``?

        Pure window arithmetic — no RNG consumed — so the data plane can
        poll it without perturbing the message-level fault streams.
        """
        for rule in self.rules:
            if (
                rule.kind is NetFaultKind.PARTITION
                and rule.window_active(now_us)
                and rule.matches(src, dst)
            ):
                return True
        return False

    def _link_rng(self, src: int, dst: int):
        rng = self._rngs.get((src, dst))
        if rng is None:
            rng = make_rng(self.seed, "net", src, dst)
            self._rngs[(src, dst)] = rng
        return rng

    def judge(self, src: int, dst: int, now_us: float) -> NetVerdict:
        """Decide one message's fate (called once per send by the fabric)."""
        if self.blocked(src, dst, now_us):
            self.blocked_messages += 1
            return NetVerdict(blocked=True)
        dropped = False
        extra = 0.0
        duplicates = 0
        for rule in self.rules:
            if rule.kind is NetFaultKind.PARTITION:
                continue
            if not rule.window_active(now_us):
                continue
            if not rule._matches_one_way(src, dst):
                continue
            roll = self._link_rng(src, dst).random()
            if roll >= rule.probability:
                continue
            rule.fired += 1
            if rule.kind is NetFaultKind.DROP:
                dropped = True
                self.dropped_messages += 1
            elif rule.kind is NetFaultKind.DELAY:
                spread = self._link_rng(src, dst).uniform(0.5, 1.5)
                extra += rule.delay_us * spread
                self.delayed_messages += 1
            elif rule.kind is NetFaultKind.DUPLICATE:
                duplicates += 1
                self.duplicated_messages += 1
        if not dropped and extra == 0.0 and duplicates == 0:
            return _CLEAN
        return NetVerdict(
            dropped=dropped, extra_delay_us=extra, duplicates=duplicates
        )

    def counts(self) -> Dict[str, int]:
        return {
            "blocked": self.blocked_messages,
            "dropped": self.dropped_messages,
            "delayed": self.delayed_messages,
            "duplicated": self.duplicated_messages,
        }


__all__ = [
    "NetFaultKind",
    "NetFaultPlan",
    "NetRule",
    "NetVerdict",
]
