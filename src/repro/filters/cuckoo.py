"""Cuckoo filter (Fan et al., CoNEXT'14).

A space-efficient approximate-membership structure with deletion support:
items are stored as small fingerprints in one of two candidate buckets
(partial-key cuckoo hashing), and insertion relocates fingerprints on
collision like cuckoo hashing does.  Guarantees: no false negatives for
inserted-and-not-deleted items; false positives bounded by the fingerprint
width; deletion is exact for inserted items.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Tuple

from repro.errors import CapacityError
from repro.filters.fingerprint import mix64

_DEFAULT_MAX_KICKS = 500

# splitmix64 constants, duplicated from repro.filters.fingerprint so
# ``_hash_triple`` can inline all three mixes (bit-identical results —
# tests/test_filters_cuckoo.py cross-checks against the helper functions).
_MASK64 = (1 << 64) - 1
_FP_SEED = 0xC2B2AE3D27D4EB4F
_IDX_SEED = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _hash_triple(item: int, fp_mask: int, index_mask: int) -> Tuple[int, int, int]:
    """``(fingerprint, index1, index2)`` of ``item``, the three splitmix64
    mixes inlined: bit-identical to :func:`fingerprint_of`,
    :meth:`CuckooFilter._index1` and :meth:`CuckooFilter._alt_index`, at
    one call instead of six."""
    z = (item + _FP_SEED) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    fingerprint = ((z ^ (z >> 31)) & fp_mask) or 1
    z = (item + _IDX_SEED) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    index1 = (z ^ (z >> 31)) & index_mask
    z = (fingerprint + _IDX_SEED) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return fingerprint, index1, (index1 ^ z ^ (z >> 31)) & index_mask


class CuckooFilter:
    """A cuckoo filter over non-negative integer items (VPNs).

    Parameters
    ----------
    capacity:
        Target number of items; bucket count is the next power of two of
        ``capacity / slots_per_bucket`` so index arithmetic is a mask.
    fingerprint_bits:
        Width of stored fingerprints (false-positive rate roughly
        ``2 * slots_per_bucket / 2**fingerprint_bits``).
    slots_per_bucket:
        Bucket associativity (4 is the standard design point).
    """

    __slots__ = (
        "num_buckets",
        "fingerprint_bits",
        "slots_per_bucket",
        "max_kicks",
        "_buckets",
        "_rng",
        "_index_mask",
        "_fp_mask",
        "_hash_cache",
        "size",
        "lookups",
        "insert_failures",
    )

    def __init__(
        self,
        capacity: int,
        fingerprint_bits: int = 12,
        slots_per_bucket: int = 4,
        max_kicks: int = _DEFAULT_MAX_KICKS,
        seed: int = 7,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if slots_per_bucket <= 0:
            raise ValueError(f"slots_per_bucket must be positive, got {slots_per_bucket}")
        if not 1 <= fingerprint_bits <= 32:
            raise ValueError(
                f"fingerprint_bits must be in [1,32], got {fingerprint_bits}"
            )
        buckets_needed = max(1, -(-capacity // slots_per_bucket))
        self.num_buckets = 1 << (buckets_needed - 1).bit_length()
        self.fingerprint_bits = fingerprint_bits
        self.slots_per_bucket = slots_per_bucket
        self.max_kicks = max_kicks
        # Buckets materialise lazily: a wafer instantiates one filter per
        # GPM and most buckets stay empty at benchmark scales, so the
        # eager list-of-lists was a measurable slice of system setup.
        self._buckets: Dict[int, List[int]] = {}
        self._rng = random.Random(seed)
        self._index_mask = self.num_buckets - 1
        self._fp_mask = (1 << fingerprint_bits) - 1
        #: item -> (fingerprint, index1, index2).  These depend only on
        #: the item and the filter geometry — never on filter contents —
        #: so caching them is behaviour-neutral; repeated probes of hot
        #: VPNs skip all three splitmix64 mixes.
        self._hash_cache: Dict[int, Tuple[int, int, int]] = {}
        self.size = 0
        self.lookups = 0
        self.insert_failures = 0

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def _index1(self, item: int) -> int:
        return mix64(item) & (self.num_buckets - 1)

    def _alt_index(self, index: int, fingerprint: int) -> int:
        return (index ^ mix64(fingerprint)) & (self.num_buckets - 1)

    def _hash_parts(self, item: int) -> Tuple[int, int, int]:
        """(fingerprint, index1, index2) for ``item``, via the cache.

        Shared by insert/contains/delete so an item hashed once (usually
        by the ``contains`` guard preceding an insert) never pays the
        three splitmix64 mixes again.
        """
        cached = self._hash_cache.get(item)
        if cached is None:
            cached = self._hash_cache[item] = _hash_triple(
                item, self._fp_mask, self._index_mask
            )
        return cached

    def _bucket(self, index: int) -> List[int]:
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = []
        return bucket

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def insert(self, item: int) -> bool:
        """Insert ``item``; returns False if the filter is too full.

        Duplicate insertions store duplicate fingerprints (the filter
        supports multiplicity up to ``2 * slots_per_bucket``); callers in
        this package guard with ``contains`` to keep one copy per item.
        """
        fingerprint, index1, index2 = self._hash_parts(item)
        for index in (index1, index2):
            bucket = self._bucket(index)
            if len(bucket) < self.slots_per_bucket:
                bucket.append(fingerprint)
                self.size += 1
                return True
        # Kick-out relocation.
        index = self._rng.choice((index1, index2))
        for _ in range(self.max_kicks):
            bucket = self._buckets[index]
            victim_slot = self._rng.randrange(len(bucket))
            fingerprint, bucket[victim_slot] = bucket[victim_slot], fingerprint
            index = self._alt_index(index, fingerprint)
            bucket = self._bucket(index)
            if len(bucket) < self.slots_per_bucket:
                bucket.append(fingerprint)
                self.size += 1
                return True
        self.insert_failures += 1
        return False

    def insert_many(self, items: Iterable[int]) -> None:
        """Insert every item in order, exactly as repeated :meth:`insert`.

        Bulk page installation calls this once per GPM.  Hashes are
        computed without filling the memo (an installed page is probed
        later, if ever), and an item whose two buckets are both full
        falls back to :meth:`insert` for the kick-out walk, so buckets,
        ``size``, ``insert_failures`` and the kick-out random stream
        match the one-at-a-time sequence.
        """
        buckets = self._buckets
        slots = self.slots_per_bucket
        fp_mask = self._fp_mask
        index_mask = self._index_mask
        inserted = 0
        for item in items:
            fingerprint, index1, index2 = _hash_triple(item, fp_mask, index_mask)
            bucket = buckets.get(index1)
            if bucket is None:
                buckets[index1] = [fingerprint]
            elif len(bucket) < slots:
                bucket.append(fingerprint)
            else:
                bucket = buckets.get(index2)
                if bucket is None:
                    buckets[index2] = [fingerprint]
                elif len(bucket) < slots:
                    bucket.append(fingerprint)
                else:
                    self.insert(item)
                    continue
            inserted += 1
        self.size += inserted

    def contains(self, item: int) -> bool:
        """Approximate membership: no false negatives, rare false positives.

        The memo lookup is inlined rather than going through
        :meth:`_hash_parts` — this is the hottest probe in the translation
        path (one call per L2 TLB miss).
        """
        self.lookups += 1
        cached = self._hash_cache.get(item)
        if cached is None:
            cached = self._hash_cache[item] = _hash_triple(
                item, self._fp_mask, self._index_mask
            )
        fingerprint, index1, index2 = cached
        buckets = self._buckets
        bucket = buckets.get(index1)
        if bucket is not None and fingerprint in bucket:
            return True
        bucket = buckets.get(index2)
        return bucket is not None and fingerprint in bucket

    def delete(self, item: int) -> bool:
        """Remove one copy of ``item``; returns False if absent."""
        fingerprint, index1, index2 = self._hash_parts(item)
        for index in (index1, index2):
            bucket = self._buckets.get(index)
            if bucket is not None and fingerprint in bucket:
                bucket.remove(fingerprint)
                self.size -= 1
                return True
        return False

    def insert_or_raise(self, item: int) -> None:
        if not self.insert(item):
            raise CapacityError(
                f"cuckoo filter full (size={self.size}, "
                f"buckets={self.num_buckets}x{self.slots_per_bucket})"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def load_factor(self) -> float:
        return self.size / (self.num_buckets * self.slots_per_bucket)

    def expected_false_positive_rate(self) -> float:
        """The analytic bound ~ 2b / 2^f at full occupancy, scaled by load."""
        bound = 2 * self.slots_per_bucket / (1 << self.fingerprint_bits)
        return bound * max(self.load_factor, 1e-9)

    def __contains__(self, item: int) -> bool:
        return self.contains(item)

    def __len__(self) -> int:
        return self.size
