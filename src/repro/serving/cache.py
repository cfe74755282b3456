"""LRU result cache for repeated/hot similarity queries.

Serving workloads are heavily skewed: the same query graph is typically
asked with the same thresholds many times (monitoring probes, popular
molecules, retry storms).  Because a GBDA answer is fully determined by the
triple *(canonical query branches, τ̂, γ)* — the branch multiset determines
both the GBDs against every database graph and the query's vertex count
(one branch per vertex) — answers can be cached on that key without ever
touching the query graph again.

The cache is a plain ``OrderedDict``-based LRU with hit/miss counters that
the serving statistics surface.  A lock makes it safe to share across the
thread-pool executor; the lock is dropped when pickling so engines stay
picklable.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import Dict, Hashable, Optional, Tuple

from repro.exceptions import ServingError

__all__ = ["QueryResultCache", "query_cache_key"]


def query_cache_key(
    query_branches: Counter,
    tau_hat: int,
    gamma: float,
    *,
    revision: int = 0,
    model_version: int = 0,
    top_k: Optional[int] = None,
) -> Tuple:
    """Build the canonical cache key of one similarity query.

    The branch multiset is canonicalised as a frozenset of
    ``(branch_key, count)`` items — order-free and hashable regardless of
    the label types — and combined with the two thresholds, the top-k mode
    (``None`` for thresholded answers), and the *state* the answer was
    computed against: the database ``revision`` and the offline
    ``model_version``.  A GBDA answer is only determined by the query triple
    *given* those two; keying them in means an engine copy that lost its
    add-hook (e.g. an unpickled copy whose database grew via ``add_many``)
    can never serve a stale pre-add result set — the key simply stops
    matching.
    """
    return (
        frozenset(query_branches.items()),
        int(tau_hat),
        float(gamma),
        None if top_k is None else int(top_k),
        int(revision),
        int(model_version),
    )


class QueryResultCache:
    """A bounded LRU mapping query keys to :class:`~repro.db.query.QueryAnswer`.

    Parameters
    ----------
    capacity:
        Maximum number of answers retained; the least-recently-used entry is
        evicted when the cache is full.  Must be positive — use ``None`` for
        the engine's ``cache_size`` to disable caching entirely.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ServingError("cache capacity must be a positive integer")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    # lookup / insertion
    # ------------------------------------------------------------------ #
    def get(self, key: Hashable):
        """Return the cached answer for ``key`` (None on miss); counts the access."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Insert ``value`` under ``key``, evicting the LRU entry if needed."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (the hit/miss counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (entries are preserved)."""
        with self._lock:
            self.hits = 0
            self.misses = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, float]:
        """Return a *consistent* snapshot of counters and occupancy.

        Taken under the cache lock: the asyncio server scrapes this from
        the event loop while the thread-offloaded scoring path is
        hitting/evicting concurrently, so hits/misses/size must be read in
        one critical section — unlocked reads could pair a pre-increment
        ``hits`` with a post-increment ``misses`` and report an impossible
        hit rate.
        """
        with self._lock:
            hits, misses, size = self.hits, self.misses, len(self._entries)
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "size": size,
            "capacity": self.capacity,
        }

    # ------------------------------------------------------------------ #
    # pickling (the lock is not picklable; recreate it on load)
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return (
            f"<QueryResultCache size={len(self)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses}>"
        )
