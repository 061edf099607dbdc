//! A sharded, set-associative LRU cache for distance answers.
//!
//! Point queries in a serving workload are heavily skewed, so a small cache
//! in front of label decoding pays for itself. The cache is sharded to keep
//! lock contention low under concurrent callers: each shard sits behind its
//! own mutex, and keys hash to shards with a multiplicative mix so adjacent
//! vertex pairs spread out.
//!
//! A shard is two flat arrays, `keys` and `values`, cut into sets of up to
//! `WAYS` (8) slots, plus one occupancy byte per set. The same mix picks a
//! key's set, so a lookup is one lock and a scan of one set: no hash table,
//! no list to relink. Each set is an exact LRU of its own — the entry used
//! most recently sits first, a hit rotates it to the front, and an insert
//! into a full set drops the last slot. On a Zipf stream that costs about
//! a point of hit ratio against one LRU over the whole cache.
//!
//! Every shard counts its own hits, misses, insertions and evictions
//! under the shard lock ([`CacheStats`]), so the cache is self-auditing:
//! `hits + misses` equals the number of lookups ever made and
//! `insertions - evictions` equals the current occupancy, exactly, even
//! under concurrent churn.

use std::sync::Mutex;

use hl_graph::sync::lock_unpoisoned;
use hl_graph::Distance;

/// Most slots in a set: a lookup compares at most this many keys.
const WAYS: usize = 8;

struct LruShard {
    /// `sets × ways` keys; set `s` is the slots from `s * ways`, most
    /// recently used first, of which the first `used[s]` are live.
    keys: Vec<u64>,
    /// The distance of the key in the same slot.
    values: Vec<Distance>,
    used: Vec<u8>,
    ways: usize,
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
    /// A shard of at most `capacity` entries and at least one. Below
    /// `WAYS` entries it is one set of `capacity` ways; above, the
    /// capacity rounds down to whole sets.
    fn new(capacity: usize) -> Self {
        let ways = capacity.clamp(1, WAYS);
        let slots = capacity.max(1) / ways * ways;
        LruShard {
            keys: vec![0; slots],
            values: vec![0; slots],
            used: vec![0; slots / ways],
            ways,
            stats: CacheStats::default(),
        }
    }

    /// The first slot of the set `mixed` picks (multiply-high of the
    /// 32-bit mix onto the set count), its occupancy, and the way `key`
    /// holds in it, if any.
    fn find(&self, key: u64, mixed: u64) -> (usize, usize, Option<usize>) {
        let set = ((mixed * self.used.len() as u64) >> 32) as usize;
        let (base, used) = (set * self.ways, usize::from(self.used[set]));
        let way = self.keys[base..base + used].iter().position(|&k| k == key);
        (base, used, way)
    }

    /// Moves slot `way` of the set at `base` to the front, shifting the
    /// slots ahead of it back by one.
    fn promote(&mut self, base: usize, way: usize) {
        self.keys[base..=base + way].rotate_right(1);
        self.values[base..=base + way].rotate_right(1);
    }

    fn get(&mut self, key: u64, mixed: u64) -> Option<Distance> {
        let (base, _, Some(way)) = self.find(key, mixed) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.promote(base, way);
        Some(self.values[base])
    }

    fn insert(&mut self, key: u64, value: Distance, mixed: u64) {
        let (base, used, found) = self.find(key, mixed);
        let way = found.unwrap_or_else(|| {
            self.stats.insertions += 1;
            if used < self.ways {
                self.used[base / self.ways] += 1;
                used
            } else {
                // Full: the last slot holds the set's LRU entry, and the
                // new key takes it.
                self.stats.evictions += 1;
                used - 1
            }
        });
        self.promote(base, way);
        self.keys[base] = key;
        self.values[base] = value;
    }

    fn len(&self) -> usize {
        self.used.iter().map(|&n| usize::from(n)).sum()
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
        let per_shard = capacity.div_ceil(shards);
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

    /// The shard `key` lives in, and its 32-bit mix: Fibonacci hashing
    /// spreads sequential keys, the mix's low bits pick the shard and its
    /// high bits the set within it.
    fn locate(&self, key: u64) -> (&Mutex<LruShard>, u64) {
        let mixed = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        (&self.shards[(mixed & self.mask) as usize], mixed)
    }

    /// Looks up a key, refreshing its recency on hit.
    pub fn get(&self, key: u64) -> Option<Distance> {
        let (shard, mixed) = self.locate(key);
        lock_unpoisoned(shard).get(key, mixed)
    }

    /// Inserts or refreshes a key, evicting its set's LRU entry if full.
    pub fn insert(&self, key: u64, value: Distance) {
        let (shard, mixed) = self.locate(key);
        lock_unpoisoned(shard).insert(key, value, mixed)
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
    use std::collections::{BTreeMap, HashMap, VecDeque};

    use hl_graph::rng::Xorshift64;

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

    /// The reference the cache must equal op for op: every set of every
    /// shard an exact LRU, a `VecDeque` most recently used first.
    struct PerSetLru {
        sets: HashMap<(u64, u64), VecDeque<(u64, Distance)>>,
        ways: usize,
        stats: CacheStats,
    }

    impl PerSetLru {
        fn set(&mut self, cache: &ShardedLruCache, key: u64) -> &mut VecDeque<(u64, Distance)> {
            let (shard, mixed) = cache.locate(key);
            let sets = lock_unpoisoned(shard).used.len() as u64;
            let at = (mixed & cache.mask, (mixed * sets) >> 32);
            self.sets.entry(at).or_default()
        }

        fn get(&mut self, cache: &ShardedLruCache, key: u64) -> Option<Distance> {
            let set = self.set(cache, key);
            let Some(way) = set.iter().position(|&(k, _)| k == key) else {
                self.stats.misses += 1;
                return None;
            };
            let entry = set.remove(way)?;
            set.push_front(entry);
            self.stats.hits += 1;
            Some(entry.1)
        }

        fn insert(&mut self, cache: &ShardedLruCache, key: u64, value: Distance) {
            let ways = self.ways;
            let set = self.set(cache, key);
            let (mut insertions, mut evictions) = (0, 0);
            if let Some(way) = set.iter().position(|&(k, _)| k == key) {
                set.remove(way);
            } else {
                insertions += 1;
                if set.len() == ways {
                    set.pop_back();
                    evictions += 1;
                }
            }
            set.push_front((key, value));
            self.stats.insertions += insertions;
            self.stats.evictions += evictions;
        }

        fn len(&self) -> usize {
            self.sets.values().map(VecDeque::len).sum()
        }
    }

    #[test]
    fn matches_a_per_set_lru_model() {
        // Capacities below one set (`new(0, 8)`, `new(3, 1)`), exactly one
        // set, and many; key universes from twice to eight times the
        // capacity, so refreshes, hits and evictions all happen.
        for (capacity, shards) in [(0, 8), (3, 1), (3, 8), (WAYS, 1), (100, 2), (1024, 4)] {
            for seed in 0..4u64 {
                let cache = ShardedLruCache::new(capacity, shards);
                let ways = lock_unpoisoned(&cache.shards[0]).ways;
                let mut model = PerSetLru {
                    sets: HashMap::new(),
                    ways,
                    stats: CacheStats::default(),
                };
                let mut rng = Xorshift64::seed_from_u64(seed);
                let universe = (capacity.max(shards) as u64) << (1 + seed % 3);
                for op in 0..20_000 {
                    let key = rng.gen_u64_below(universe);
                    let what = format!("new({capacity}, {shards}) seed {seed} op {op} key {key}");
                    if rng.gen_bool() {
                        assert_eq!(cache.get(key), model.get(&cache, key), "{what}");
                    } else {
                        let value = rng.next_u64();
                        cache.insert(key, value);
                        model.insert(&cache, key, value);
                    }
                    assert_eq!(cache.stats(), model.stats, "{what}");
                    assert_eq!(cache.len(), model.len(), "{what}");
                }
                let stats = cache.stats();
                assert_eq!(stats.insertions - stats.evictions, cache.len() as u64);
                assert!(stats.evictions > 0 && stats.hits > 0);
            }
        }
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
            assert_eq!(cache.len(), 8, "one entry per shard");
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
        // 16 entries a shard, none over.
        assert!(cache.len() <= 128);
        // The most recent keys per set must still be present.
        let mut hits = 0;
        for k in 9_900..10_000u64 {
            if cache.get(k) == Some(k * 2) {
                hits += 1;
            }
        }
        assert!(hits > 0);
    }

    /// One exact LRU over the whole capacity: recency stamps in a
    /// `BTreeMap`, oldest first.
    struct ExactLru {
        stamp_of: HashMap<u64, u64>,
        by_stamp: BTreeMap<u64, u64>,
        capacity: usize,
        clock: u64,
    }

    impl ExactLru {
        /// Touches `key`, inserting it on a miss; `true` on a hit.
        fn touch(&mut self, key: u64) -> bool {
            self.clock += 1;
            let hit = match self.stamp_of.insert(key, self.clock) {
                Some(old) => self.by_stamp.remove(&old).is_some(),
                None => false,
            };
            self.by_stamp.insert(self.clock, key);
            if self.by_stamp.len() > self.capacity {
                if let Some((_, oldest)) = self.by_stamp.pop_first() {
                    self.stamp_of.remove(&oldest);
                }
            }
            hit
        }
    }

    #[test]
    fn zipf_hit_ratio_stays_near_exact_lru() {
        // The serving shape: Zipf(1.0) over 2^20 distinct vertex pairs
        // into the engine's 2^16-entry, 4-shard cache. Fill with one half
        // of the stream, count the other.
        const KEYS: u32 = 1 << 20;
        const CAPACITY: usize = 1 << 16;
        const HALF: usize = 1 << 18;
        let mut cumulative = Vec::with_capacity(KEYS as usize);
        let mut total = 0.0;
        for rank in 1..=KEYS {
            total += 1.0 / f64::from(rank);
            cumulative.push(total);
        }
        let mut rng = Xorshift64::seed_from_u64(1);
        let mut pool: Vec<u64> = (0..KEYS)
            .map(|i| ShardedLruCache::pair_key(i >> 10, 1024 + (i & 1023)))
            .collect();
        rng.shuffle(&mut pool);

        let cache = ShardedLruCache::new(CAPACITY, 4);
        let mut exact = ExactLru {
            stamp_of: HashMap::new(),
            by_stamp: BTreeMap::new(),
            capacity: CAPACITY,
            clock: 0,
        };
        let (mut ours, mut theirs) = (0u32, 0u32);
        for i in 0..2 * HALF {
            let x = rng.gen_f64() * total;
            let key = pool[cumulative.partition_point(|&c| c <= x).min(pool.len() - 1)];
            let hit = cache.get(key).is_some();
            if !hit {
                cache.insert(key, 0);
            }
            let exact_hit = exact.touch(key);
            if i >= HALF {
                ours += u32::from(hit);
                theirs += u32::from(exact_hit);
            }
        }
        let (ours, theirs) = (
            f64::from(ours) / HALF as f64,
            f64::from(theirs) / HALF as f64,
        );
        assert!(
            (theirs - ours).abs() <= 0.015,
            "set-associative {ours:.4} vs exact LRU {theirs:.4}"
        );
    }
}
