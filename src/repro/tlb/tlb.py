"""Set-associative TLB with LRU replacement.

Used for every TLB level in Table I (L1 vector/scalar/instruction, L2,
GMMU cache / last-level TLB) and for the IOMMU-side TLB variant of the
Figure 19 study.  Values are arbitrary payloads — the GPM levels store
:class:`~repro.mem.page.PageTableEntry` objects.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


class SetAssociativeTLB:
    """A ``num_sets x num_ways`` TLB with per-set LRU.

    Each set is a dict ordered by recency (least recent first): Python
    dicts preserve insertion order, so popping the first key evicts LRU and
    re-inserting on hit refreshes recency.
    """

    __slots__ = (
        "name",
        "num_sets",
        "num_ways",
        "latency",
        "_sets",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(
        self,
        name: str,
        num_sets: int,
        num_ways: int,
        latency: int = 1,
    ) -> None:
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError(
                f"{name}: sets/ways must be positive, got {num_sets}x{num_ways}"
            )
        self.name = name
        self.num_sets = num_sets
        self.num_ways = num_ways
        self.latency = latency
        self._sets: List[Dict[int, Any]] = [{} for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _set_of(self, vpn: int) -> Dict[int, Any]:
        return self._sets[vpn % self.num_sets]

    def lookup(self, vpn: int) -> Optional[Any]:
        """Return the payload for ``vpn`` (refreshing LRU) or None."""
        entry_set = self._sets[vpn % self.num_sets]
        payload = entry_set.pop(vpn, None)
        if payload is None:
            self.misses += 1
            return None
        entry_set[vpn] = payload  # re-insert as most recent
        self.hits += 1
        return payload

    def peek(self, vpn: int) -> Optional[Any]:
        """Lookup without touching recency or counters."""
        return self._set_of(vpn).get(vpn)

    def insert(self, vpn: int, payload: Any) -> Optional[Tuple[int, Any]]:
        """Insert a mapping; returns the evicted (vpn, payload) if any."""
        entry_set = self._set_of(vpn)
        evicted = None
        if vpn not in entry_set and len(entry_set) >= self.num_ways:
            victim_vpn = next(iter(entry_set))
            evicted = (victim_vpn, entry_set.pop(victim_vpn))
            self.evictions += 1
        entry_set.pop(vpn, None)
        entry_set[vpn] = payload
        return evicted

    def invalidate(self, vpn: int) -> bool:
        return self._set_of(vpn).pop(vpn, None) is not None

    def flush(self) -> int:
        """Invalidate everything; returns the number of dropped entries."""
        dropped = sum(len(s) for s in self._sets)
        self._sets = [{} for _ in range(self.num_sets)]
        return dropped

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.num_sets * self.num_ways

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    @property
    def stats(self) -> dict:
        """Counter-style export for the metrics registry."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "occupancy": self.occupancy,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeTLB({self.name!r}, {self.num_sets}x{self.num_ways}, "
            f"hit_rate={self.hit_rate():.3f})"
        )
