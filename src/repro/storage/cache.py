"""Byte-capacity LRU cache shared by the db and storage layers.

Backs the db buffer pool and the decompressed-segment buffer of the
heavy-compression path.  Eviction returns the evicted items so callers
can spill them.

Copy audit: ``get``/``peek``/``put`` store and hand back *references* —
no ``bytes()`` materialization happens in this layer; cached page images
stay immutable ``bytes`` shared by reference.  The read path's remaining
copies live in the callers and are at most one page each: the payload
trim in ``node`` (``bytes`` because the lz4 decoder indexes its input
per token) and the ``perpage_log.unseal_block`` body slice.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, List, Optional, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """LRU keyed cache bounded by total charged bytes."""

    def __init__(
        self,
        capacity_bytes: int,
        sizer: Optional[Callable[[V], int]] = None,
        metrics=None,
        metric_name: Optional[str] = None,
    ) -> None:
        """``metrics``/``metric_name`` optionally publish hit/miss
        counters to a :class:`~repro.obs.metrics.MetricsRegistry` (e.g.
        ``db.bufferpool.hits``)."""
        if capacity_bytes < 0:
            raise ValueError(f"negative capacity {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._sizer = sizer if sizer is not None else len
        self._items: "OrderedDict[K, Tuple[V, int]]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self._hit_ctr = self._miss_ctr = None
        if metrics is not None and metric_name is not None:
            self._hit_ctr = metrics.counter(f"{metric_name}.hits")
            self._miss_ctr = metrics.counter(f"{metric_name}.misses")

    # -- accessors -----------------------------------------------------------

    def get(self, key: K) -> Optional[V]:
        entry = self._items.get(key)
        if entry is None:
            self.misses += 1
            if self._miss_ctr is not None:
                self._miss_ctr.inc()
            return None
        self._items.move_to_end(key)
        self.hits += 1
        if self._hit_ctr is not None:
            self._hit_ctr.inc()
        return entry[0]

    def peek(self, key: K) -> Optional[V]:
        """Read without updating recency or hit counters."""
        entry = self._items.get(key)
        return entry[0] if entry else None

    def __contains__(self, key: K) -> bool:
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)

    @property
    def used_bytes(self) -> int:
        return self._used

    # -- mutation ---------------------------------------------------------------

    def put(self, key: K, value: V) -> List[Tuple[K, V]]:
        """Insert/replace; returns evicted ``(key, value)`` pairs."""
        size = self._sizer(value)
        if size > self.capacity_bytes:
            # Too large to cache: evict nothing, do not admit.
            return []
        old = self._items.pop(key, None)
        if old is not None:
            self._used -= old[1]
        self._items[key] = (value, size)
        self._used += size
        evicted: List[Tuple[K, V]] = []
        while self._used > self.capacity_bytes:
            victim_key = next(iter(self._items))
            victim_value, victim_size = self._items.pop(victim_key)
            self._used -= victim_size
            evicted.append((victim_key, victim_value))
        return evicted

    def remove(self, key: K) -> Optional[V]:
        entry = self._items.pop(key, None)
        if entry is None:
            return None
        self._used -= entry[1]
        return entry[0]

    def clear(self) -> None:
        self._items.clear()
        self._used = 0
