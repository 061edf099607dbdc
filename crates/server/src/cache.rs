//! A sharded LRU cache for distance answers.
//!
//! Point queries in a serving workload are heavily skewed, so a small cache
//! in front of label decoding pays for itself. The cache is sharded to keep
//! lock contention low under concurrent callers: each shard is an
//! independent LRU behind its own mutex, and keys hash to shards with a
//! multiplicative mix so adjacent vertex pairs spread out.
//!
//! Shards store entries in a plain `Vec` threaded into an intrusive
//! doubly-linked list (indices, not pointers), so an LRU touch is a few
//! index swaps and no allocation.
//!
//! Every shard counts its own hits, misses, insertions and evictions
//! under the shard lock ([`CacheStats`]), so the cache is self-auditing:
//! `hits + misses` equals the number of lookups ever made and
//! `insertions - evictions` equals the current occupancy, exactly, even
//! under concurrent churn.

use std::collections::HashMap;
use std::sync::Mutex;

use hl_graph::sync::lock_unpoisoned;
use hl_graph::Distance;

const NIL: usize = usize::MAX;

struct Entry {
    key: u64,
    value: Distance,
    prev: usize,
    next: usize,
}

struct LruShard {
    map: HashMap<u64, usize>,
    entries: Vec<Entry>,
    head: usize,
    tail: usize,
    capacity: usize,
    stats: CacheStats,
}

/// Point-in-time counters for a cache (or one shard of it). Maintained
/// under the shard lock, so within a shard they are exactly consistent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// New entries added (refreshing an existing key does not count).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    fn add(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
    }
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        // A zero-capacity shard would make `insert`'s eviction arm index
        // `entries[NIL]`: with `entries.len() == capacity == 0` the "full"
        // branch runs while `tail` is still NIL. Floor at one entry so the
        // invariant "full shard => non-empty list" holds for every caller.
        let capacity = capacity.max(1);
        LruShard {
            map: HashMap::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            stats: CacheStats::default(),
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.entries[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.entries[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn get(&mut self, key: u64) -> Option<Distance> {
        let Some(&idx) = self.map.get(&key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(self.entries[idx].value)
    }

    fn insert(&mut self, key: u64, value: Distance) {
        if let Some(&idx) = self.map.get(&key) {
            self.entries[idx].value = value;
            if idx != self.head {
                self.unlink(idx);
                self.push_front(idx);
            }
            return;
        }
        self.stats.insertions += 1;
        let idx = if self.entries.len() < self.capacity {
            self.entries.push(Entry {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.entries.len() - 1
        } else {
            // Evict the least-recently-used entry and reuse its slot.
            self.stats.evictions += 1;
            let idx = self.tail;
            self.unlink(idx);
            self.map.remove(&self.entries[idx].key);
            self.entries[idx].key = key;
            self.entries[idx].value = value;
            if self.map.len() == self.map.capacity() {
                // Eviction churn has spent the table's spare slots on
                // tombstones, and the insert below would double it — once
                // per shard, which moved a serving daemon's peak RSS by a
                // third. A shard never holds more than `capacity` keys, so
                // re-index the entries into the table it was built with.
                self.map.clear();
                let slots = self.entries.iter().enumerate();
                self.map.extend(slots.map(|(i, e)| (e.key, i)));
            }
            idx
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// A thread-safe LRU cache split over power-of-two many shards.
pub struct ShardedLruCache {
    shards: Vec<Mutex<LruShard>>,
    mask: u64,
}

impl ShardedLruCache {
    /// Creates a cache holding about `capacity` entries across `shards`
    /// shards. The shard count is rounded up to a power of two; every
    /// shard holds at least one entry, so the effective floor on the
    /// total capacity is the rounded shard count — `new(0, 8)` is a
    /// working 8-entry cache, not a cache that panics on first insert.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedLruCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            mask: shards as u64 - 1,
        }
    }

    /// Packs an unordered vertex pair into a cache key. Normalizing to
    /// `(min, max)` means `(u, v)` and `(v, u)` share an entry, which is
    /// sound because all labelings here answer symmetric distances.
    pub fn pair_key(u: u32, v: u32) -> u64 {
        let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
        (lo as u64) << 32 | hi as u64
    }

    fn shard(&self, key: u64) -> &Mutex<LruShard> {
        // Fibonacci hashing spreads sequential keys across shards.
        let mixed = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        &self.shards[(mixed & self.mask) as usize]
    }

    /// Looks up a key, refreshing its recency on hit.
    pub fn get(&self, key: u64) -> Option<Distance> {
        lock_unpoisoned(self.shard(key)).get(key)
    }

    /// Inserts or refreshes a key, evicting the shard's LRU entry if full.
    pub fn insert(&self, key: u64, value: Distance) {
        lock_unpoisoned(self.shard(key)).insert(key, value)
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_unpoisoned(s).len()).sum()
    }

    /// Aggregated counters across all shards. Each shard's contribution
    /// is exact; the sum is a consistent-enough snapshot under load.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.add(&lock_unpoisoned(shard).stats);
        }
        total
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let cache = ShardedLruCache::new(64, 4);
        assert_eq!(cache.get(7), None);
        cache.insert(7, 42);
        assert_eq!(cache.get(7), Some(42));
        cache.insert(7, 43);
        assert_eq!(cache.get(7), Some(43));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn pair_key_is_symmetric() {
        assert_eq!(
            ShardedLruCache::pair_key(3, 9),
            ShardedLruCache::pair_key(9, 3)
        );
        assert_ne!(
            ShardedLruCache::pair_key(3, 9),
            ShardedLruCache::pair_key(3, 8)
        );
    }

    #[test]
    fn evicts_least_recently_used() {
        // Single shard of capacity 2 makes the eviction order observable.
        let cache = ShardedLruCache::new(2, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(1), Some(10)); // 2 is now LRU
        cache.insert(3, 30);
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(1), Some(10));
        assert_eq!(cache.get(3), Some(30));
    }

    #[test]
    fn zero_capacity_shard_still_works() {
        // Regression: a shard constructed with capacity 0 used to take
        // the eviction arm on its *first* insert — `entries` was "full"
        // at length 0 — and index `entries[NIL]`. The floor in
        // `LruShard::new` makes it a one-entry LRU instead.
        let mut shard = LruShard::new(0);
        shard.insert(1, 10);
        shard.insert(2, 20); // second insert exercises the eviction arm
        assert_eq!(shard.get(2), Some(20));
        assert_eq!(shard.get(1), None, "older entry was evicted");
        assert_eq!(shard.len(), 1);
    }

    #[test]
    fn eviction_churn_never_grows_the_table() {
        let mut shard = LruShard::new(64);
        let built_with = shard.map.capacity();
        for k in 0..100_000u64 {
            shard.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k);
            assert!(shard.map.capacity() <= built_with, "grew at insert {k}");
            assert_eq!(shard.get(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)), Some(k));
        }
        assert_eq!(shard.len(), 64);
    }

    #[test]
    fn capacity_smaller_than_shard_count_survives_churn() {
        // `new(3, 8)` hands each of 8 shards ceil(3/8) = 1 entry;
        // `new(0, 8)` relies on the documented floor. Both must absorb
        // heavy churn (every shard's eviction path) without panicking.
        for cache in [ShardedLruCache::new(0, 8), ShardedLruCache::new(3, 8)] {
            for k in 0..1_000u64 {
                cache.insert(k, k);
            }
            assert!(cache.len() <= 8, "one entry per shard at most");
            let stats = cache.stats();
            assert_eq!(stats.insertions - stats.evictions, cache.len() as u64);
        }
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        let cache = ShardedLruCache::new(128, 8);
        for k in 0..10_000u64 {
            cache.insert(k, k * 2);
        }
        assert!(cache.len() <= 128 + 8); // per-shard rounding slack
                                         // The most recent keys per shard must still be present.
        let mut hits = 0;
        for k in 9_900..10_000u64 {
            if cache.get(k) == Some(k * 2) {
                hits += 1;
            }
        }
        assert!(hits > 0);
    }
}
