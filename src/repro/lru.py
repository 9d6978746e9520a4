"""The one bounded cache under every cache here.  How an entry is
bounded, evicted and locked is decided here; whether it is still *valid*
(a catalog epoch, change counts) is the caller's check, made outside the
lock, and a stale entry is dropped with :meth:`LRU.discard` naming the
value that was checked, so a fresher one stored meanwhile survives."""

from __future__ import annotations

import math
import threading
from collections import OrderedDict


class LRU:
    """A thread-safe least-recently-used map bounded by entry count
    (``maxsize``; 0 stores nothing) and optionally by the total
    ``weight`` of its entries. Values are never None."""

    def __init__(self, maxsize: int, max_weight: int | None = None):
        self.maxsize = maxsize
        self.max_weight = math.inf if max_weight is None else max_weight
        self.weight = 0
        self._entries: OrderedDict = OrderedDict()
        self._weights: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The value for ``key`` or None, refreshed as most recent."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def peek(self, key):
        """The value for ``key`` or None, its recency left alone."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key, value, weight: int = 0) -> int | None:
        """Evict oldest first until ``value`` fits both bounds, then
        store it as most recent; returns how many were evicted, or None
        (and stores nothing) when ``weight`` alone is over the bound.
        Evicting first keeps the bounds true even for unlocked readers
        of ``len`` and ``weight``."""
        if self.maxsize <= 0 or weight > self.max_weight:
            return None
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._pop(key)
            while (len(self._entries) >= self.maxsize
                   or self.weight + weight > self.max_weight):
                self._pop(next(iter(self._entries)))
                evicted += 1
            self._entries[key] = value
            self._weights[key] = weight
            self.weight += weight
        return evicted

    def discard(self, key, value) -> bool:
        """Drop ``key`` only while it maps to ``value`` itself."""
        with self._lock:
            if self._entries.get(key) is not value:
                return False
            self._pop(key)
        return True

    def drop(self, predicate) -> int:
        """Drop the entries whose value passes ``predicate``; how many."""
        with self._lock:
            keys = [k for k, v in self._entries.items() if predicate(v)]
            for key in keys:
                self._pop(key)
        return len(keys)

    def shed(self, target: int) -> tuple[int, int]:
        """Evict oldest first until ``target`` weight is freed or none is
        left; returns ``(entries evicted, weight freed)``."""
        evicted = freed = 0
        with self._lock:
            while self._entries and freed < target:
                freed += self._pop(next(iter(self._entries)))
                evicted += 1
        return evicted, freed

    def clear(self) -> int:
        """Drop every entry; returns how many there were."""
        return self.drop(lambda value: True)

    def items(self) -> list:
        """A copy of the ``(key, value)`` pairs, least recent first."""
        with self._lock:
            return list(self._entries.items())

    def _pop(self, key) -> int:
        del self._entries[key]
        weight = self._weights.pop(key)
        self.weight -= weight
        return weight
