//! The answer cache: canonical-keyed, FIFO-evicted, hit/miss counted.
//!
//! Keys combine the dataset fingerprint (so a cache never serves answers
//! across datasets), the query's canonical hash (which already encodes the
//! series, k, mode parameters and budget — see
//! [`hydra_core::query::Query::canonical_hash`]) and a coarse mode tag kept
//! separate for observability. Everything is deterministic: the map is a
//! `BTreeMap` (no seeded hashing), eviction is FIFO in insertion order, and
//! a hit returns a clone of exactly the bytes the cold path inserted — the
//! agreement tests assert hit ≡ cold bit-for-bit.

use hydra_core::{AnswerSet, Guarantee, QueryStats};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// The cache key: (dataset fingerprint, canonical query hash, mode tag),
/// ordered field by field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// [`hydra_storage::snapshot::dataset_fingerprint`] of the served dataset.
    pub dataset_fingerprint: u64,
    /// [`hydra_core::query::Query::canonical_hash`] of the query.
    pub query_hash: u64,
    /// The coarse mode discriminant (exact / ng / ε / δ-ε), redundant with
    /// the canonical hash but kept visible for per-mode cache accounting.
    pub mode_tag: u8,
}

// Written out rather than derived: a derived `PartialOrd` calls each
// field's `partial_cmp`, which the float-partial-cmp contract lint bans.
impl Ord for CacheKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let fields = |k: &Self| (k.dataset_fingerprint, k.query_hash, k.mode_tag);
        fields(self).cmp(&fields(other))
    }
}

impl PartialOrd for CacheKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A cached answer: the merged scatter-gather result, minus wall-clock (a
/// hit costs no engine time; the service stamps its own serving time).
#[derive(Clone, Debug)]
pub struct CachedAnswer {
    /// The merged answer set.
    pub answers: AnswerSet,
    /// The merged guarantee.
    pub guarantee: Guarantee,
    /// The summed per-shard work counters of the cold run.
    pub stats: QueryStats,
}

/// Hit/miss/eviction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over lookups, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }
}

/// A bounded, deterministic answer cache. Capacity 0 disables caching (every
/// lookup is a miss, inserts are dropped), which is also the configuration
/// the agreement tests use to compare against cold runs.
#[derive(Debug)]
pub struct AnswerCache {
    capacity: usize,
    map: BTreeMap<CacheKey, CachedAnswer>,
    /// Insertion order, for FIFO eviction.
    order: VecDeque<CacheKey>,
    stats: CacheStats,
}

impl AnswerCache {
    /// A cache holding at most `capacity` answers.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: BTreeMap::new(),
            order: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// Looks up a key, counting the outcome. Hits return a clone of the
    /// inserted answer — but only when the entry's guarantee
    /// [`covers`](Guarantee::covers) the `required` one. An entry that is
    /// *weaker* than what a cold run would attain (e.g. a
    /// [`Guarantee::Partial`] answer cached during an outage, looked up
    /// after recovery) is a **miss**, never served: caching must not launder
    /// a degraded answer into a full one. Pass [`Guarantee::None`] to accept
    /// any entry.
    pub fn get(&mut self, key: &CacheKey, required: &Guarantee) -> Option<CachedAnswer> {
        match self.map.get(key) {
            Some(hit) if hit.guarantee.covers(required) => {
                self.stats.hits += 1;
                Some(hit.clone())
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up a key with no strength requirement: the stale-fallback path,
    /// which explicitly *wants* a possibly-degraded answer (and re-tags it
    /// honestly). Counts like [`AnswerCache::get`].
    pub fn get_any(&mut self, key: &CacheKey) -> Option<CachedAnswer> {
        self.get(key, &Guarantee::None)
    }

    /// Inserts an answer, evicting the oldest entry when full. Re-inserting
    /// an existing key replaces the value without changing its eviction slot.
    pub fn insert(&mut self, key: CacheKey, answer: CachedAnswer) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key, answer).is_some() {
            self.stats.insertions += 1;
            return;
        }
        self.order.push_back(key);
        self.stats.insertions += 1;
        while self.map.len() > self.capacity {
            // order and map stay in sync: every mapped key is queued once.
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
    }

    /// Whether an entry exists under `key` (no stats are counted).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.map.contains_key(key)
    }

    /// The running hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The number of cached answers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(q: u64) -> CacheKey {
        CacheKey {
            dataset_fingerprint: 7,
            query_hash: q,
            mode_tag: 0,
        }
    }

    fn answer(tag: usize) -> CachedAnswer {
        let mut heap = hydra_core::KnnHeap::new(1);
        heap.offer(tag, tag as f64);
        CachedAnswer {
            answers: heap.into_answer_set(),
            guarantee: Guarantee::Exact,
            stats: QueryStats::default(),
        }
    }

    #[test]
    fn hits_return_the_inserted_answer_and_count() {
        let mut cache = AnswerCache::new(4);
        assert!(cache.get(&key(1), &Guarantee::None).is_none());
        cache.insert(key(1), answer(11));
        let hit = cache.get(&key(1), &Guarantee::None).expect("hit");
        assert_eq!(hit.answers.nearest().unwrap().id, 11);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                insertions: 1,
                evictions: 0
            }
        );
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_is_fifo_in_insertion_order() {
        let mut cache = AnswerCache::new(2);
        cache.insert(key(1), answer(1));
        cache.insert(key(2), answer(2));
        cache.insert(key(3), answer(3));
        assert_eq!(cache.len(), 2);
        assert!(
            cache.get(&key(1), &Guarantee::None).is_none(),
            "oldest evicted first"
        );
        assert!(cache.get(&key(2), &Guarantee::None).is_some());
        assert!(cache.get(&key(3), &Guarantee::None).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut cache = AnswerCache::new(0);
        cache.insert(key(1), answer(1));
        assert!(cache.is_empty());
        assert!(cache.get(&key(1), &Guarantee::None).is_none());
    }

    #[test]
    fn keys_distinguish_dataset_and_mode() {
        let mut cache = AnswerCache::new(4);
        cache.insert(key(1), answer(1));
        let other_dataset = CacheKey {
            dataset_fingerprint: 8,
            ..key(1)
        };
        let other_mode = CacheKey {
            mode_tag: 1,
            ..key(1)
        };
        assert!(cache.get(&other_dataset, &Guarantee::None).is_none());
        assert!(cache.get(&other_mode, &Guarantee::None).is_none());
    }

    #[test]
    fn reinserting_a_key_replaces_without_duplicating_the_slot() {
        let mut cache = AnswerCache::new(2);
        cache.insert(key(1), answer(1));
        cache.insert(key(1), answer(9));
        cache.insert(key(2), answer(2));
        assert_eq!(cache.len(), 2, "no duplicate eviction slot");
        assert_eq!(
            cache
                .get(&key(1), &Guarantee::None)
                .unwrap()
                .answers
                .nearest()
                .unwrap()
                .id,
            9
        );
    }

    #[test]
    fn weaker_entries_are_never_served_for_a_stronger_requirement() {
        // The guarantee-laundering regression: a Partial answer cached
        // during an outage must not satisfy a post-recovery full lookup.
        let mut cache = AnswerCache::new(4);
        let mut degraded = answer(1);
        degraded.guarantee = Guarantee::partial(1, 2, Guarantee::Exact);
        cache.insert(key(1), degraded);
        assert!(
            cache.get(&key(1), &Guarantee::Exact).is_none(),
            "a Partial entry is a miss for an Exact requirement"
        );
        assert_eq!(cache.stats().misses, 1, "the rejection counts as a miss");
        assert!(
            cache.get_any(&key(1)).is_some(),
            "the stale-fallback path still reaches it"
        );

        // An equal-or-stronger entry is served.
        cache.insert(key(2), answer(2));
        assert!(cache.get(&key(2), &Guarantee::Exact).is_some());
        assert!(cache
            .get(
                &key(2),
                &Guarantee::Truncated {
                    examined_fraction: 0.0
                }
            )
            .is_some());
    }
}
