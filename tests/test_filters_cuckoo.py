"""Tests for the cuckoo filter, including hypothesis property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError
from repro.filters.cuckoo import CuckooFilter, _hash_triple
from repro.filters.fingerprint import fingerprint_of, mix64


class TestFingerprint:
    def test_mix64_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_mix64_spreads_bits(self):
        outputs = {mix64(i) & 0xFF for i in range(256)}
        assert len(outputs) > 128  # well distributed in the low byte

    def test_fingerprint_nonzero(self):
        for item in range(10_000):
            assert fingerprint_of(item, 8) != 0

    def test_fingerprint_width(self):
        for item in range(1000):
            assert fingerprint_of(item, 12) < (1 << 12)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            fingerprint_of(1, 0)
        with pytest.raises(ValueError):
            fingerprint_of(1, 40)


class TestCuckooFilterBasics:
    def test_insert_then_contains(self):
        filt = CuckooFilter(capacity=128)
        assert filt.insert(42)
        assert 42 in filt

    def test_absent_item_mostly_not_contained(self):
        filt = CuckooFilter(capacity=1024, fingerprint_bits=16)
        for item in range(100):
            filt.insert(item)
        false_positives = sum(
            1 for probe in range(10_000, 11_000) if filt.contains(probe)
        )
        assert false_positives < 10  # ~0.1% expected at 16-bit fingerprints

    def test_delete_removes(self):
        filt = CuckooFilter(capacity=128)
        filt.insert(7)
        assert filt.delete(7)
        assert len(filt) == 0

    def test_delete_absent_returns_false(self):
        filt = CuckooFilter(capacity=128)
        assert not filt.delete(99)

    def test_size_tracks_inserts_and_deletes(self):
        filt = CuckooFilter(capacity=128)
        for item in range(10):
            filt.insert(item)
        filt.delete(0)
        assert len(filt) == 9

    def test_kickout_insertion_under_load(self):
        filt = CuckooFilter(capacity=64, slots_per_bucket=4)
        inserted = sum(1 for item in range(60) if filt.insert(item))
        assert inserted == 60
        for item in range(60):
            assert item in filt

    def test_insert_failure_when_overfull(self):
        filt = CuckooFilter(capacity=8, slots_per_bucket=2, max_kicks=16)
        failures = 0
        for item in range(200):
            if not filt.insert(item):
                failures += 1
        assert failures > 0
        assert filt.insert_failures == failures

    def test_insert_or_raise(self):
        filt = CuckooFilter(capacity=8, slots_per_bucket=2, max_kicks=4)
        with pytest.raises(CapacityError):
            for item in range(500):
                filt.insert_or_raise(item)

    def test_load_factor(self):
        filt = CuckooFilter(capacity=128, slots_per_bucket=4)
        for item in range(64):
            filt.insert(item)
        assert 0 < filt.load_factor <= 1.0

    def test_expected_fp_rate_positive(self):
        filt = CuckooFilter(capacity=128)
        filt.insert(1)
        assert 0 < filt.expected_false_positive_rate() < 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CuckooFilter(capacity=0)


class TestCuckooFilterProperties:
    @given(st.sets(st.integers(min_value=0, max_value=2**40), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives(self, items):
        filt = CuckooFilter(capacity=1024)
        inserted = [item for item in items if filt.insert(item)]
        for item in inserted:
            assert filt.contains(item)

    @given(st.sets(st.integers(min_value=0, max_value=2**40), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_delete_after_insert_always_succeeds(self, items):
        filt = CuckooFilter(capacity=1024)
        inserted = [item for item in items if filt.insert(item)]
        for item in inserted:
            assert filt.delete(item)
        assert len(filt) == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32), max_size=100),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_size_never_negative_and_bounded(self, items, slots):
        filt = CuckooFilter(capacity=64, slots_per_bucket=slots)
        for item in items:
            filt.insert(item)
        assert 0 <= len(filt) <= filt.num_buckets * slots

    @given(st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=100, deadline=None)
    def test_alt_index_is_involution(self, item):
        """Partial-key cuckooing: alt(alt(i)) == i, so relocation works."""
        filt = CuckooFilter(capacity=256)
        fingerprint = fingerprint_of(item, filt.fingerprint_bits)
        index1 = filt._index1(item)
        index2 = filt._alt_index(index1, fingerprint)
        assert filt._alt_index(index2, fingerprint) == index1

    @given(
        st.integers(min_value=0, max_value=2**48),
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=4096),
    )
    @settings(max_examples=200, deadline=None)
    def test_inlined_hash_matches_helpers(self, item, bits, capacity):
        """``_hash_triple`` (used by insert/contains/insert_many) inlines
        fingerprint_of, _index1 and _alt_index bit for bit."""
        filt = CuckooFilter(capacity=capacity, fingerprint_bits=bits)
        fingerprint = fingerprint_of(item, bits)
        index1 = filt._index1(item)
        assert _hash_triple(item, filt._fp_mask, filt._index_mask) == (
            fingerprint, index1, filt._alt_index(index1, fingerprint)
        )


def _filter_state(filt):
    return (
        filt._buckets, filt.size, filt.insert_failures, filt._rng.getstate()
    )


class TestInsertMany:
    """Bulk insertion must leave exactly the state repeated ``insert``
    leaves, kick-out random stream included."""

    @pytest.mark.parametrize("capacity, slots, max_kicks, count", [
        (1024, 4, 500, 700),   # roomy: no kick-outs
        (64, 4, 500, 64),      # full load: kick-outs that succeed
        (8, 2, 16, 200),       # over-full: kick-outs and failures
    ])
    def test_matches_repeated_insert(self, capacity, slots, max_kicks, count):
        items = [item * 7919 + 3 for item in range(count)]
        one = CuckooFilter(capacity, slots_per_bucket=slots, max_kicks=max_kicks)
        for item in items:
            one.insert(item)
        bulk = CuckooFilter(capacity, slots_per_bucket=slots, max_kicks=max_kicks)
        bulk.insert_many(items)
        assert _filter_state(bulk) == _filter_state(one)
        if capacity == 8:
            assert bulk.insert_failures > 0

    def test_extends_a_populated_filter(self):
        one = CuckooFilter(64, slots_per_bucket=4)
        bulk = CuckooFilter(64, slots_per_bucket=4)
        for filt in (one, bulk):
            for item in range(30):
                filt.insert(item)
        for item in range(30, 80):
            one.insert(item)
        bulk.insert_many(range(30, 80))
        assert _filter_state(bulk) == _filter_state(one)

    def test_does_not_fill_the_hash_memo(self):
        filt = CuckooFilter(capacity=1024)
        filt.insert_many(range(100))
        assert not filt._hash_cache
        assert all(item in filt for item in range(100))

    def test_invalid_fingerprint_width_rejected(self):
        with pytest.raises(ValueError):
            CuckooFilter(capacity=8, fingerprint_bits=0)
        with pytest.raises(ValueError):
            CuckooFilter(capacity=8, fingerprint_bits=33)
