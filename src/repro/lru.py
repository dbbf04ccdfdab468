"""A bounded least-recently-used cache for process-global memo tables.

Persistent process-pool workers live for a whole campaign, so every
process-global cache keyed by content is bounded: once ``size`` entries are
held, storing a new key evicts the entry that was read or stored longest
ago.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

V = TypeVar("V")


class LRUCache(Generic[V]):
    """Map of at most ``size`` entries; the least recently used goes first."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._entries: OrderedDict[Hashable, V] = OrderedDict()

    def get(self, key: Hashable) -> V | None:
        """The value stored under ``key`` (now most recent), else None."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: V) -> None:
        """Store ``value`` as most recent, evicting the oldest past ``size``."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.size:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership without touching recency."""
        return key in self._entries
