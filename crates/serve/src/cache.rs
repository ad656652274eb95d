//! The answer cache: canonical-keyed, SIEVE-evicted, hit/miss counted.
//!
//! Keys combine the dataset fingerprint (so a cache never serves answers
//! across datasets), the query's canonical hash (which already encodes the
//! series, k, mode parameters and budget — see
//! [`hydra_core::query::Query::canonical_hash`]) and a coarse mode tag kept
//! separate for observability. Everything is deterministic: the map is a
//! `BTreeMap` (no seeded hashing), and a hit returns a clone of exactly the
//! bytes the cold path inserted — the agreement tests assert hit ≡ cold
//! bit-for-bit.
//!
//! Eviction is SIEVE (Zhang et al., NSDI '24): entries queue in insertion
//! order, every counted hit sets the entry's `visited` bit, and a hand
//! walking from the oldest entry clears set bits and evicts the first entry
//! whose bit is clear, resuming where it stopped. So a query asked again
//! stays cached however long ago it was inserted, while one asked once
//! leaves in insertion order, as under FIFO.

use hydra_core::{AnswerSet, Guarantee, QueryStats};
use std::collections::{btree_map, BTreeMap, VecDeque};

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
    map: BTreeMap<CacheKey, Entry>,
    /// Insertion order, oldest first: SIEVE's queue. Every mapped key is
    /// queued exactly once.
    order: VecDeque<CacheKey>,
    /// SIEVE's hand: the position in `order` the next eviction looks at
    /// first.
    hand: usize,
    stats: CacheStats,
}

/// A cached answer and its SIEVE bit.
#[derive(Debug)]
struct Entry {
    answer: CachedAnswer,
    /// Set by a counted hit, cleared when the hand passes.
    visited: bool,
}

impl AnswerCache {
    /// A cache holding at most `capacity` answers.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: BTreeMap::new(),
            order: VecDeque::new(),
            hand: 0,
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
    /// any entry. A hit marks the entry visited; a miss marks nothing.
    pub fn get(&mut self, key: &CacheKey, required: &Guarantee) -> Option<CachedAnswer> {
        match self.map.get_mut(key) {
            Some(hit) if hit.answer.guarantee.covers(required) => {
                hit.visited = true;
                self.stats.hits += 1;
                Some(hit.answer.clone())
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

    /// Inserts an answer, unvisited, evicting one other entry when full.
    /// Re-inserting an existing key replaces the value and keeps its eviction
    /// slot and its visited bit.
    pub fn insert(&mut self, key: CacheKey, answer: CachedAnswer) {
        if self.capacity == 0 {
            return;
        }
        self.stats.insertions += 1;
        match self.map.entry(key) {
            btree_map::Entry::Occupied(mut entry) => entry.get_mut().answer = answer,
            btree_map::Entry::Vacant(slot) => {
                slot.insert(Entry {
                    answer,
                    visited: false,
                });
                self.order.push_back(key);
                if self.map.len() > self.capacity {
                    self.evict();
                }
            }
        }
    }

    /// Evicts one entry other than the newest, which was just inserted: the
    /// hand walks from where it last stopped towards the newest entry,
    /// wrapping to the oldest before reaching it, clears every visited bit
    /// it passes and evicts the first unvisited entry. It then rests on the
    /// entry after the evicted one.
    fn evict(&mut self) {
        let candidates = self.order.len().saturating_sub(1);
        loop {
            if self.hand >= candidates {
                self.hand = 0;
            }
            let Some(&key) = self.order.get(self.hand) else {
                return; // nothing cached
            };
            if let btree_map::Entry::Occupied(mut entry) = self.map.entry(key) {
                if entry.get().visited {
                    entry.get_mut().visited = false;
                    self.hand += 1;
                    continue;
                }
                entry.remove();
            }
            self.order.remove(self.hand);
            self.stats.evictions += 1;
            return;
        }
    }

    /// Whether an entry exists under `key` (no stats are counted, no bit is
    /// set).
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
    fn without_hits_eviction_follows_insertion_order() {
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
    fn a_hit_entry_survives_a_turnover_of_unvisited_entries() {
        let mut cache = AnswerCache::new(3);
        for q in 1..=3 {
            cache.insert(key(q), answer(q as usize));
        }
        assert!(cache.get(&key(1), &Guarantee::None).is_some());
        cache.insert(key(4), answer(4));
        assert!(cache.contains(&key(1)), "the visited entry is kept");
        assert!(!cache.contains(&key(2)), "the oldest unvisited entry goes");
        // Every other entry turns over; the once-hit entry stays, its bit
        // now clear.
        for q in 5..=20 {
            cache.insert(key(q), answer(q as usize));
            assert!(cache.contains(&key(1)), "kept through insert {q}");
            assert!(!cache.contains(&key(q - 2)), "insert {q} evicts {}", q - 2);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 17);
    }

    #[test]
    fn the_hand_resumes_where_the_last_eviction_stopped() {
        let mut cache = AnswerCache::new(4);
        for q in 1..=4 {
            cache.insert(key(q), answer(q as usize));
        }
        assert!(cache.get(&key(1), &Guarantee::None).is_some());
        assert!(cache.get(&key(2), &Guarantee::None).is_some());
        // The hand clears 1 and 2 and evicts 3, resting on 4.
        cache.insert(key(5), answer(5));
        assert!(!cache.contains(&key(3)));
        // Restarted from the oldest, the hand would evict 1 (its bit is now
        // clear); resumed, it evicts 4, then 5.
        cache.insert(key(6), answer(6));
        assert!(!cache.contains(&key(4)));
        assert!(cache.contains(&key(1)) && cache.contains(&key(2)));
        cache.insert(key(7), answer(7));
        assert!(!cache.contains(&key(5)));
        assert!(cache.contains(&key(1)) && cache.contains(&key(2)));
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn a_weaker_guarantee_miss_and_contains_set_no_bit() {
        let mut cache = AnswerCache::new(2);
        let mut degraded = answer(1);
        degraded.guarantee = Guarantee::partial(1, 2, Guarantee::Exact);
        cache.insert(key(1), degraded);
        cache.insert(key(2), answer(2));
        assert!(cache.get(&key(1), &Guarantee::Exact).is_none());
        assert!(cache.contains(&key(1)));
        // Had either set 1's bit, the hand would pass it and evict 2.
        cache.insert(key(3), answer(3));
        assert!(!cache.contains(&key(1)), "the unvisited oldest entry goes");
        assert!(cache.contains(&key(2)) && cache.contains(&key(3)));
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn a_reinsert_keeps_its_slot_and_its_bit() {
        let mut cache = AnswerCache::new(3);
        for q in 1..=3 {
            cache.insert(key(q), answer(q as usize));
        }
        assert!(cache.get(&key(1), &Guarantee::None).is_some());
        cache.insert(key(1), answer(9));
        cache.insert(key(2), answer(8));
        // The hand passes 1 (its bit survived the re-insert) and evicts 2,
        // which kept the slot ahead of 3.
        cache.insert(key(4), answer(4));
        assert!(!cache.contains(&key(2)));
        assert!(cache.contains(&key(3)) && cache.contains(&key(4)));
        let kept = cache.get(&key(1), &Guarantee::None).expect("kept");
        assert_eq!(kept.answers.nearest().unwrap().id, 9, "value replaced");
        assert_eq!(cache.stats().insertions, 6);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_one_holds_the_newest_entry() {
        let mut cache = AnswerCache::new(1);
        cache.insert(key(1), answer(1));
        assert!(cache.get(&key(1), &Guarantee::None).is_some());
        // The hand clears 1's bit, wraps and evicts it: the only slot goes
        // to the newcomer, visited or not.
        cache.insert(key(2), answer(2));
        assert!(!cache.contains(&key(1)));
        assert!(cache.get(&key(2), &Guarantee::None).is_some());
        cache.insert(key(2), answer(7));
        assert_eq!(cache.len(), 1);
        cache.insert(key(3), answer(3));
        assert!(!cache.contains(&key(2)) && cache.contains(&key(3)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn a_zipf_stream_keeps_its_hot_keys() {
        // `serve_zipf`'s request shape: 4 096 keys in 20 strata (key mod
        // 20), the strata taking turns, and within a stratum zipf(1.0) over
        // its members, drawn from a seeded splitmix64. Through 256 entries
        // this hits about 0.45 of the time under SIEVE and 0.31 under FIFO.
        const KEYS: usize = 4096;
        const STRATA: usize = 20;
        let mut state = 5_u64;
        let mut uniform = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1_u64 << 53) as f64
        };
        let cumulative: Vec<Vec<f64>> = (0..STRATA)
            .map(|stratum| {
                let members = (KEYS - stratum).div_ceil(STRATA);
                let mut sums: Vec<f64> = (1..=members)
                    .scan(0.0, |total, rank| {
                        *total += 1.0 / rank as f64;
                        Some(*total)
                    })
                    .collect();
                let total = sums[members - 1];
                sums.iter_mut().for_each(|c| *c /= total);
                sums
            })
            .collect();
        let mut cache = AnswerCache::new(256);
        for request in 0..9_000 {
            let stratum = request % STRATA;
            let u = uniform();
            let rank = cumulative[stratum]
                .partition_point(|&c| c <= u)
                .min(cumulative[stratum].len() - 1);
            let q = key((stratum + STRATA * rank) as u64);
            if cache.get(&q, &Guarantee::None).is_none() {
                cache.insert(q, answer(0));
            }
        }
        let hit_rate = cache.stats().hit_rate();
        assert!(hit_rate >= 0.40, "hit rate {hit_rate:.3}");
        assert_eq!(cache.len(), 256);
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
