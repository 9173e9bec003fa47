"""An LRU result cache with hit/miss/eviction accounting.

The serving layer answers repeated queries from memory: traversal results are
deterministic for a fixed graph/options pair, so a cached answer is exactly
the answer a fresh traversal would produce.  The cache is a plain
``OrderedDict`` LRU — recency updated on hits, least-recently-used entry
evicted at capacity — with the counters the service reports per snapshot
(Zipf-skewed query streams make the hit rate the single biggest throughput
lever, so it must be observable).
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

__all__ = ["CacheStats", "LRUCache", "graph_token"]

_MISSING = object()

#: Process-wide registry of graph identity tokens.  ``id()`` can be recycled
#: after garbage collection, so cache keys built on it could alias two
#: different graphs; this registry hands every live graph object a distinct
#: monotone token instead, and a weakref finalizer retires the id-keyed
#: entry when the graph dies (graph classes are not hashable, so a
#: WeakKeyDictionary cannot hold them directly).
_GRAPH_TOKENS: dict[int, int] = {}
_NEXT_TOKEN = itertools.count(1)


def graph_token(graph) -> int:
    """A process-unique, stable identity token for a live graph object.

    Two simultaneously-live graphs never share a token (unlike ``id()``,
    which the allocator recycles), so cache keys that include the token
    cannot collide across graphs even when every run parameter matches.
    """
    key = id(graph)
    token = _GRAPH_TOKENS.get(key)
    if token is None:
        token = next(_NEXT_TOKEN)
        _GRAPH_TOKENS[key] = token
        weakref.finalize(graph, _GRAPH_TOKENS.pop, key, None)
    return token


@dataclass
class CacheStats:
    """Cumulative counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Entries currently resident (kept in sync by the cache).
    size: int = 0
    #: Maximum entries the cache will hold.
    capacity: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when nothing was looked up yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """Flat dictionary for reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    Parameters
    ----------
    capacity:
        Maximum number of resident entries; must be >= 1.  (A zero-capacity
        cache would silently turn every lookup into a miss — ask for what you
        mean instead: bypass the cache at the service level.)
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.stats = CacheStats(capacity=self._capacity)

    def get(self, key: Hashable, default=None):
        """Look up ``key``, counting a hit (and refreshing recency) or a miss."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.stats.misses += 1
            return default
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert or refresh ``key``, evicting the LRU entry at capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        if len(self._entries) >= self._capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = value
        self.stats.size = len(self._entries)

    def clear(self) -> int:
        """Drop every entry (counters are preserved — they are cumulative).

        Returns the number of entries dropped, which the serving layer
        reports as invalidations when a graph mutation bumps the epoch.
        """
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.size = 0
        return dropped
