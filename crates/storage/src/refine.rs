//! One filter-and-refine driver, shared by the scan-side methods.
//!
//! UCR-Suite, MASS, Stepwise, ADS+ (SIMS) and the VA+file answer a query the
//! same way — the filter-and-refine pipeline of ParIS and MESSI: sweep a
//! summary (or nothing), order the candidates, and refine them under a
//! best-so-far with a budget. [`search`] is that query frame, written once:
//! it owns the run clock, the thread-scoped I/O delta recorded into the
//! stats, the k-NN heap, the budget meter and the final guarantee. Inside
//! it a method visits candidates through a [`Refiner`] in one of four
//! orders, each taking the same per-candidate step — budget check, counted
//! read, kernel, then `offer` or an early abandon:
//!
//! * **storage order** ([`Refiner::storage_order`]): one counted sequential
//!   pass (UCR-Suite, MASS), after a ParIS-style pre-pass at `threads > 1`
//!   for a kernel that does not abandon (MASS);
//! * **skip-sequential runs** over a bounds array
//!   ([`Refiner::skip_sequential`]): ADS+'s SIMS — a seed of the `2k`
//!   best-bounded series, then runs at page granularity that bridge
//!   bounded-out series and never re-read a seeded one;
//! * **lazily ranked by bound** ([`Refiner::ranked`] over a
//!   [`LazyRanking`]): the VA+file;
//! * an **explicit id list** ([`Refiner::ids`]): ADS+'s ng-approximate
//!   leaf and Stepwise's survivors.
//!
//! The corpus is in memory, so refinement waits on DRAM whenever the
//! hardware prefetcher cannot guess the next series. Each order therefore
//! hints the series it will refine next with `DatasetStore::prefetch`,
//! which no counter sees: the storage-order pass prefetches four series
//! ahead (inside [`DatasetStore::try_scan_all`]), the skip-sequential order
//! prefetches its whole seed before refining it and the candidates four
//! ahead inside each run, and the ranked and id-list orders prefetch the
//! next candidate while they refine the current one.
//!
//! A method keeps only what really differs: its bound source and its refine
//! kernel ([`EarlyAbandon`] or [`Full`] over a generic closure), so no dynamic
//! dispatch enters the per-candidate loop. The tree indexes answer through
//! the other driver, [`crate::best_first`], which orders candidates
//! best-first over a tree inside this same frame and refines each leaf
//! entry with this same step.
//!
//! Refinement visits candidates in increasing lower-bound order in the
//! ranked order and stops after a small prefix (≈7 % of a 100k-series file
//! on random-walk data, `k` candidates in ng-approximate mode), so sorting
//! every bound is mostly wasted. [`LazyRanking`] is an incremental
//! quicksort: it partitions the candidates around medians down to a small
//! leading run, sorts that run, and only partitions further when the
//! consumer asks past it — `O(n)` up front, `O(log n)` amortized per
//! candidate drawn.

use crate::best_first::EntryFilter;
use crate::store::PREFETCH_AHEAD;
use crate::DatasetStore;
use hydra_core::parallel::map_chunks;
use hydra_core::{
    AnswerMode, AnswerSet, BudgetMeter, KnnHeap, Query, QueryStats, Result, RunClock,
};
use std::ops::ControlFlow;

/// A refine kernel: the squared Euclidean distance from the query to one
/// candidate's values — [`EarlyAbandon`] or [`Full`].
pub trait RefineKernel {
    /// Whether the kernel early-abandons against the squared best-so-far. A
    /// kernel that does not abandon is always run against `+∞`, so its
    /// result does not depend on the best-so-far.
    const ABANDONS: bool;

    /// The squared distance to `values`, or `None` when the kernel abandoned
    /// above the squared `threshold`.
    fn squared(&mut self, values: &[f32], threshold: f64) -> Option<f64>;
}

/// An early-abandoning kernel: `f(values, threshold)` is the squared
/// distance, or `None` once a partial sum exceeds the squared `threshold`.
pub struct EarlyAbandon<F>(pub F);

impl<F: FnMut(&[f32], f64) -> Option<f64>> RefineKernel for EarlyAbandon<F> {
    const ABANDONS: bool = true;
    fn squared(&mut self, values: &[f32], threshold: f64) -> Option<f64> {
        (self.0)(values, threshold)
    }
}

/// A kernel that computes every squared distance in full: `f(values)`.
pub struct Full<F>(pub F);

impl<F: FnMut(&[f32]) -> f64> RefineKernel for Full<F> {
    const ABANDONS: bool = false;
    fn squared(&mut self, values: &[f32], _: f64) -> Option<f64> {
        Some((self.0)(values))
    }
}

/// The state of one query inside [`search`]: the best-so-far, the budget
/// and the stats every visiting order shares.
pub struct Refiner<'a> {
    /// The query's stats, for the work a method's bound source does.
    pub stats: &'a mut QueryStats,
    pub(crate) store: &'a DatasetStore,
    mode: AnswerMode,
    pub(crate) heap: KnnHeap,
    pub(crate) meter: BudgetMeter,
    pub(crate) filter: EntryFilter,
}

/// Answers `query` as its `k` nearest neighbours over `store`: `body` sweeps
/// the method's bounds and visits candidates through the [`Refiner`], and
/// the frame records the query's CPU time and the raw-file I/O this thread
/// observed into `stats` and tags the answer with the mode's guarantee — or
/// `Truncated` once the budget tripped.
pub fn search(
    store: &DatasetStore,
    query: &Query,
    k: usize,
    stats: &mut QueryStats,
    body: impl FnOnce(&mut Refiner<'_>) -> Result<()>,
) -> Result<AnswerSet> {
    let clock = RunClock::start();
    // Thread-scoped snapshot: under a parallel workload each worker must
    // observe only its own raw-file traffic.
    let before = store.thread_io_snapshot();
    let mut refiner = Refiner {
        stats,
        store,
        mode: query.mode(),
        heap: KnnHeap::new(k),
        meter: BudgetMeter::new(query.budget(), store.len()),
        filter: EntryFilter::new(query),
    };
    body(&mut refiner)?;
    let stats = refiner.stats;
    stats.cpu_time += clock.elapsed();
    let io = store.thread_io_snapshot().since(&before);
    stats.record_io(io.sequential_pages, io.random_pages, io.bytes_read);
    let guarantee = refiner
        .meter
        .guarantee(refiner.mode.guarantee(), stats.raw_series_examined);
    Ok(refiner.heap.into_answer_set().with_guarantee(guarantee))
}

impl Refiner<'_> {
    /// Whether the budget stops the search before the next candidate.
    pub(crate) fn should_stop(&mut self) -> bool {
        self.meter
            .should_stop(self.stats.raw_series_examined, !self.heap.is_empty())
    }

    /// The prune threshold `bsf · shrink` (`shrink = δ/(1+ε)`, 1 for exact
    /// search, so ε = 0 is bit-identical to it).
    pub(crate) fn limit(&self) -> f64 {
        self.heap.threshold() * self.filter.shrink
    }

    /// Refines one candidate whose read is already counted: the kernel at
    /// the current threshold — or the `precomputed` squared distance of a
    /// kernel that does not abandon — then `offer`, or an early abandon. In
    /// debug builds a finite lower `bound` (−∞ where the order has none),
    /// less `ENTRY_SLACK`, is asserted not to exceed a finite distance
    /// computed in full. Returns that distance (`None` for an early
    /// abandon).
    pub(crate) fn refine<K: RefineKernel>(
        &mut self,
        id: usize,
        bound: f64,
        values: &[f32],
        kernel: &mut K,
        precomputed: Option<f64>,
    ) -> Option<f64> {
        self.stats.record_raw_series_examined(1);
        let threshold = if K::ABANDONS {
            self.heap.threshold_squared()
        } else {
            f64::INFINITY
        };
        let squared = precomputed.or_else(|| kernel.squared(values, threshold));
        let Some(distance) = squared.map(f64::sqrt) else {
            self.stats.record_early_abandon();
            return None;
        };
        debug_assert!(
            !(bound.is_finite() && distance.is_finite()) || self.filter.floor(bound) <= distance,
            "series {id}: lower bound {bound} above its distance {distance}"
        );
        self.heap.offer(id, distance);
        Some(distance)
    }

    /// Storage order: one counted sequential pass over the whole store.
    ///
    /// `kernel` makes one kernel per pass. A kernel that does not abandon
    /// (MASS) computes the same squared distance whatever the best-so-far,
    /// so with `threads > 1` the candidate range is first split ParIS-style
    /// into one contiguous chunk per worker, every worker computes its
    /// chunk's distances from the in-memory dataset (no store traffic), and
    /// the counted pass offers those values instead of calling the kernel —
    /// answers, budget stops, faults and I/O are the same bits for every
    /// thread count. An abandoning kernel (UCR-Suite) always runs the
    /// counted pass alone: its work depends on the best-so-far, and a
    /// pre-pass on two threads lost to it.
    pub fn storage_order<K: RefineKernel>(
        &mut self,
        threads: usize,
        kernel: impl Fn() -> K + Sync,
    ) -> Result<()> {
        let store = self.store;
        let precomputed: Vec<Option<f64>> = if threads > 1 && !K::ABANDONS {
            let dataset = store.dataset();
            map_chunks(store.len(), threads, |range| {
                let mut kernel = kernel();
                range
                    .map(|id| kernel.squared(dataset.series(id).values(), f64::INFINITY))
                    .collect()
            })
        } else {
            Vec::new()
        };
        let mut kernel = kernel();
        store.try_scan_all(|id, series| {
            if self.should_stop() {
                return Ok(ControlFlow::Break(()));
            }
            let precomputed = precomputed.get(id).copied().flatten();
            self.refine(
                id,
                f64::NEG_INFINITY,
                series.values(),
                &mut kernel,
                precomputed,
            );
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(())
    }

    /// SIMS' visiting order over `bounds` (one lower bound per series, in
    /// storage order).
    ///
    /// First the seed: the `min(2k, n)` best-bounded series, in ascending
    /// `(bound, id)` order (a NaN bound ranks as `−∞`, as in
    /// [`LazyRanking`]), one random read each, so the best-so-far is tight
    /// before any run is sized. Then skip-sequential runs over the rest: a
    /// run starts at the next unseeded candidate whose bound is below
    /// `bsf · shrink` and continues through bounded-out series as long as
    /// the next candidate starts no later than the page after the run's last
    /// page. Such bridged series are read and charged but neither refined
    /// nor counted as examined; a seeded series ends a run, so no series is
    /// refined twice, and a run that resumes on the page the last one ended
    /// on pays no seek for it. A budget caps the candidates a run refines at
    /// the reads it has left. The seed starts with a seek, so the counters
    /// never depend on where an earlier read on this thread left the head.
    pub fn skip_sequential(&mut self, bounds: &[f64], mut kernel: impl RefineKernel) -> Result<()> {
        let n = bounds.len();
        self.store.seek();
        let mut seeded = vec![false; n];
        let seeds = smallest(bounds, SEED_PER_K.saturating_mul(self.heap.k()));
        for &id in &seeds {
            self.store.prefetch(id);
        }
        for id in seeds {
            if self.should_stop() {
                return Ok(());
            }
            seeded[id] = true;
            let series = self.store.try_read_series(id)?;
            self.refine(id, bounds[id], series.values(), &mut kernel, None);
        }
        let store = self.store;
        let mut id = 0usize;
        while !self.should_stop() {
            let (full, limit) = (self.heap.is_full(), self.limit());
            let candidate = |i: usize| !(seeded[i] || full && bounds[i] >= limit);
            let Some(start) = (id..n).find(|&i| candidate(i)) else {
                break;
            };
            let budget = self.meter.limit().map_or(usize::MAX, |limit| {
                limit.saturating_sub(self.stats.raw_series_examined).max(1) as usize
            });
            let (mut end, mut refined) = (start + 1, 1);
            while refined < budget {
                let reach = store.page_range(end - 1).1 + 1;
                let next = (end..n)
                    .take_while(|&i| !seeded[i] && store.page_range(i).0 <= reach)
                    .find(|&i| candidate(i));
                let Some(next) = next else { break };
                end = next + 1;
                refined += 1;
            }
            let run = store.try_read_run(start, end - start)?;
            let prefetch = |i: usize| {
                if i < end && candidate(i) {
                    store.prefetch(i);
                }
            };
            (start..start + PREFETCH_AHEAD).for_each(prefetch);
            for (sid, series) in (start..).zip(run) {
                prefetch(sid + PREFETCH_AHEAD);
                if candidate(sid) {
                    self.refine(sid, bounds[sid], series.values(), &mut kernel, None);
                }
            }
            id = end;
        }
        Ok(())
    }

    /// Candidates in increasing lower-bound order, one random read each,
    /// until the next bound exceeds `bsf · shrink`; in ng-approximate mode
    /// only the `k` best-ranked candidates are refined.
    pub fn ranked(
        &mut self,
        ranking: impl Iterator<Item = (f64, usize)>,
        mut kernel: impl RefineKernel,
    ) -> Result<()> {
        let ng = self.mode == AnswerMode::NgApproximate;
        let take = if ng { self.heap.k() } else { usize::MAX };
        let mut ranking = ranking.take(take).peekable();
        while let Some((bound, id)) = ranking.next() {
            if self.heap.is_full() && bound > self.limit() {
                break;
            }
            if self.should_stop() {
                break;
            }
            if let Some(&(_, next)) = ranking.peek() {
                self.store.prefetch(next);
            }
            let series = self.store.try_read_series(id)?;
            self.refine(id, bound, series.values(), &mut kernel, None);
        }
        Ok(())
    }

    /// The series of `ids`, in order, one read each.
    pub fn ids(
        &mut self,
        ids: impl IntoIterator<Item = usize>,
        mut kernel: impl RefineKernel,
    ) -> Result<()> {
        let mut ids = ids.into_iter().peekable();
        while let Some(id) = ids.next() {
            if self.should_stop() {
                break;
            }
            if let Some(&next) = ids.peek() {
                self.store.prefetch(next);
            }
            let series = self.store.try_read_series(id)?;
            self.refine(id, f64::NEG_INFINITY, series.values(), &mut kernel, None);
        }
        Ok(())
    }
}

/// The skip-sequential seed refines this many best-bounded series per
/// neighbour asked for, so the heap is full before any run is sized. On the
/// benchmark's ADS+ service (k = 10, seeds 1–7), 2k read 6 % less modelled
/// HDD time than k on every seed; fixed seeds of 30 and 100 (the leaf
/// capacity) came within 1.2 % of 2k, but a fixed size leaves the heap
/// under-full once k exceeds it.
const SEED_PER_K: usize = 2;

/// The ids of the `m` smallest `(bound, id)` keys of `bounds` (a NaN bound
/// ranks as `−∞`), in ascending order: one pass that keeps at most `2m`
/// keys, halving them with a selection whenever the buffer fills, so the
/// cost is `O(n)` and nothing of size `n` is sorted.
fn smallest(bounds: &[f64], m: usize) -> Vec<usize> {
    let m = m.min(bounds.len());
    if m == 0 {
        return Vec::new();
    }
    let mut kept: Vec<Entry> = Vec::with_capacity(2 * m);
    // Once set, every key at or above the cutoff orders after `m` kept
    // entries: ids only grow, so a tie on the key loses on the id. `coarse`
    // is the cutoff as a bound: a bound above it is out without its key.
    let mut cutoff = i64::MAX;
    let mut coarse = f64::INFINITY;
    for (id, &bound) in bounds.iter().enumerate() {
        if bound > coarse {
            continue;
        }
        let key = rank_key(bound);
        if key >= cutoff {
            continue;
        }
        if kept.len() == 2 * m {
            kept.select_nth_unstable(m - 1);
            kept.truncate(m);
            cutoff = kept[m - 1].0;
            coarse = f64::from_bits(total_order_key(cutoff) as u64);
            if key >= cutoff {
                continue;
            }
        }
        kept.push((key, id));
    }
    kept.sort_unstable();
    kept.truncate(m);
    kept.into_iter().map(|(_, id)| id).collect()
}

/// Runs at most this long are sorted outright instead of partitioned.
const SORT_RUN: usize = 256;

/// `(key, id)` where `key` orders like `f64::total_cmp` on the bound.
type Entry = (i64, usize);

/// The transformation `f64::total_cmp` applies before comparing as integers;
/// it is its own inverse.
#[inline]
fn total_order_key(bits: i64) -> i64 {
    bits ^ ((((bits >> 63) as u64) >> 1) as i64)
}

/// The ranking key of a lower bound: its `total_cmp` place, with a NaN bound
/// — which bounds nothing — ranked as `−∞`.
#[inline]
fn rank_key(bound: f64) -> i64 {
    let bound = if bound.is_nan() {
        f64::NEG_INFINITY
    } else {
        bound
    };
    total_order_key(bound.to_bits() as i64)
}

/// Yields `(lower_bound, id)` in ascending `(total_cmp, id)` order, sorting
/// only as far as it is drained. Reusable across queries via
/// [`LazyRanking::reset`].
///
/// The order is **exactly** the stable full sort by lower bound: ascending
/// under `f64::total_cmp`, ties broken by ascending series id, except that
/// a NaN bound — which bounds nothing — is ranked as `−∞`, so it can never
/// end a refinement before its candidate is refined. Since `(bound, id)`
/// keys are all distinct the unstable partitioning cannot reorder anything.
#[derive(Default)]
pub struct LazyRanking {
    entries: Vec<Entry>,
    /// `entries[..sorted]` are in final order; `next` of them were yielded.
    sorted: usize,
    next: usize,
    /// Ends of partitioned regions, innermost last: every entry before a
    /// boundary orders before every entry after it.
    boundaries: Vec<usize>,
}

impl LazyRanking {
    /// Loads the bounds of series `0..bounds.len()`, discarding any previous
    /// ranking but keeping its allocations.
    pub fn reset(&mut self, bounds: &[f64]) {
        self.entries.clear();
        self.entries.extend(
            bounds
                .iter()
                .enumerate()
                .map(|(id, &lb)| (rank_key(lb), id)),
        );
        self.sorted = 0;
        self.next = 0;
        self.boundaries.clear();
        self.boundaries.push(bounds.len());
    }

    /// Puts the run after the sorted prefix into final order.
    fn sort_next_run(&mut self) {
        while self.boundaries.last() == Some(&self.sorted) {
            self.boundaries.pop();
        }
        let Some(&end) = self.boundaries.last() else {
            return;
        };
        let mut end = end;
        while end - self.sorted > SORT_RUN {
            let mid = (end - self.sorted) / 2;
            self.entries[self.sorted..end].select_nth_unstable(mid);
            end = self.sorted + mid;
            self.boundaries.push(end);
        }
        self.entries[self.sorted..end].sort_unstable();
        self.sorted = end;
    }
}

impl Iterator for LazyRanking {
    type Item = (f64, usize);

    fn next(&mut self) -> Option<(f64, usize)> {
        if self.next == self.sorted {
            self.sort_next_run();
        }
        let &(key, id) = self.entries.get(self.next)?;
        self.next += 1;
        Some((f64::from_bits(total_order_key(key) as u64), id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::distance::{squared_euclidean, squared_euclidean_early_abandon};
    use hydra_core::{Budget, Dataset, Guarantee, Series};

    const LEN: usize = 8;
    const N: usize = 16;

    /// `N` pseudo-random series of `LEN` values (distinct distances to any
    /// query), a query, and each series' true distance to it.
    fn tiny() -> (DatasetStore, Query, Vec<f64>) {
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        };
        let flat: Vec<f32> = (0..N * LEN).map(|_| next()).collect();
        let query: Vec<f32> = (0..LEN).map(|_| next()).collect();
        let store = DatasetStore::new(Dataset::from_flat(flat, LEN));
        let distances = (0..N)
            .map(|id| squared_euclidean(&query, store.dataset().series(id).values()).sqrt())
            .collect();
        (store, Query::knn(Series::new(query), 1), distances)
    }

    /// The `k` nearest series by true distance, ids included.
    fn brute_force(distances: &[f64], k: usize) -> AnswerSet {
        let mut heap = KnnHeap::new(k);
        for (id, &d) in distances.iter().enumerate() {
            heap.offer(id, d);
        }
        heap.into_answer_set()
    }

    fn ids(answers: &AnswerSet) -> Vec<usize> {
        answers.iter().map(|a| a.id).collect()
    }

    /// The four visiting orders over the whole store (storage order serial
    /// and on 3 workers), each with a kernel; `bounds` feed the bounded ones.
    const ORDERS: [&str; 5] = ["storage", "storage3", "skip", "ranked", "ids"];

    fn run(
        store: &DatasetStore,
        query: &Query,
        order: &str,
        bounds: &[f64],
        stats: &mut QueryStats,
    ) -> AnswerSet {
        let q = query.values();
        let abandoning = || EarlyAbandon(|v: &[f32], t| squared_euclidean_early_abandon(q, v, t));
        let exact = || Full(|v: &[f32]| squared_euclidean(q, v));
        let k = query.k().unwrap();
        search(store, query, k, stats, |r| match order {
            "storage" => r.storage_order(1, abandoning),
            "storage3" => r.storage_order(3, exact),
            "skip" => r.skip_sequential(bounds, abandoning()),
            "ranked" => {
                let mut ranking = LazyRanking::default();
                ranking.reset(bounds);
                r.ranked(ranking, exact())
            }
            _ => r.ids(0..store.len(), exact()),
        })
        .unwrap()
    }

    #[test]
    fn every_order_matches_brute_force_up_to_and_beyond_k_equals_n() {
        let (store, query, distances) = tiny();
        // Valid, loose bounds: half of each true distance.
        let bounds: Vec<f64> = distances.iter().map(|d| d / 2.0).collect();
        for k in [1, 3, N - 1, N, N + 5] {
            let expected = brute_force(&distances, k);
            let query = Query::knn(query.series().clone(), k);
            for order in ORDERS {
                let mut stats = QueryStats::default();
                let got = run(&store, &query, order, &bounds, &mut stats);
                assert_eq!(ids(&got), ids(&expected), "{order} k={k}");
                assert!(got.distances_match(&expected, 1e-9), "{order} k={k}");
                assert_eq!(got.guarantee(), Guarantee::Exact, "{order} k={k}");
                if k >= N {
                    // An under-full heap prunes nothing: every series is read
                    // and refined in full.
                    assert_eq!(stats.raw_series_examined, N as u64, "{order} k={k}");
                    assert_eq!(stats.early_abandons, 0, "{order} k={k}");
                    assert_eq!(stats.bytes_read, (N * LEN * 4) as u64, "{order} k={k}");
                }
            }
        }
    }

    #[test]
    fn a_zero_budget_refines_one_candidate_and_truncates() {
        let (store, query, distances) = tiny();
        let bounds: Vec<f64> = distances.iter().map(|d| d / 2.0).collect();
        let query = query.with_budget(Some(Budget::raw_reads(0)));
        // The ranked order and the skip-sequential seed start from the
        // smallest bound, i.e. the true nearest neighbour; every other order
        // from series 0.
        let nearest = ids(&brute_force(&distances, 1))[0];
        for order in ORDERS {
            let mut stats = QueryStats::default();
            let got = run(&store, &query, order, &bounds, &mut stats);
            let first = if matches!(order, "ranked" | "skip") {
                nearest
            } else {
                0
            };
            assert_eq!(ids(&got), vec![first], "{order}");
            assert_eq!(got.nearest().unwrap().distance, distances[first], "{order}");
            assert_eq!(stats.raw_series_examined, 1, "{order}");
            let examined_fraction = 1.0 / N as f64;
            let truncated = Guarantee::Truncated { examined_fraction };
            assert_eq!(got.guarantee(), truncated, "{order}");
        }
    }

    #[test]
    fn an_empty_candidate_list_reads_nothing_and_answers_nothing() {
        let (store, query, _) = tiny();
        let exact = || Full(|v: &[f32]| squared_euclidean(query.values(), v));
        for order in ["ids", "skip", "ranked"] {
            let mut stats = QueryStats::default();
            let got = search(&store, &query, 3, &mut stats, |r| match order {
                "ids" => r.ids([], exact()),
                "skip" => r.skip_sequential(&[], exact()),
                _ => r.ranked(std::iter::empty(), exact()),
            })
            .unwrap();
            assert!(got.is_empty(), "{order}");
            assert_eq!(got.guarantee(), Guarantee::Exact, "{order}");
            assert_eq!(stats.work_counters(), [0; 8], "{order}");
        }
    }

    /// A skip-sequential pass over 16 series of 8 values whose every value
    /// is its id, four series (128 bytes) to a page, for the zero query at
    /// `k = 1`: the ids the kernel refined, in order, and the stats.
    /// `bounds` uses `SEED` for the two series the seed takes, `IN` for a
    /// candidate and `OUT` for a bounded-out series.
    fn page_granular(bounds: &[f64], budget: Option<u64>) -> (Vec<usize>, QueryStats) {
        let flat: Vec<f32> = (0..N * LEN).map(|i| (i / LEN) as f32).collect();
        let store = DatasetStore::with_page_bytes(Dataset::from_flat(flat, LEN), 4 * LEN * 4);
        let query =
            Query::knn(Series::new(vec![0.0; LEN]), 1).with_budget(budget.map(Budget::raw_reads));
        let mut refined = Vec::new();
        let mut stats = QueryStats::default();
        let kernel = Full(|v: &[f32]| {
            refined.push(v[0] as usize);
            squared_euclidean(query.values(), v)
        });
        search(&store, &query, 1, &mut stats, |r| {
            r.skip_sequential(bounds, kernel)
        })
        .unwrap();
        (refined, stats)
    }

    const SEED: f64 = -1.0;
    const IN: f64 = 0.0;
    const OUT: f64 = f64::INFINITY;

    /// Bounds with the seed on series 14 and 15 (page 3) and candidates at
    /// `ids`; every other series is bounded out.
    fn candidates(ids: &[usize]) -> Vec<f64> {
        let mut bounds = vec![OUT; N];
        bounds[14] = SEED;
        bounds[15] = SEED;
        for &id in ids {
            bounds[id] = IN;
        }
        bounds
    }

    const SERIES_BYTES: u64 = (LEN * 4) as u64;

    #[test]
    fn a_run_bridges_bounded_out_series_up_to_the_page_after_its_last() {
        // Candidates 4 and 6 share page 1: one run over 4..=6, one seek.
        // Series 5 is bridged: read and charged, never refined or counted.
        let (refined, stats) = page_granular(&candidates(&[4, 6]), None);
        assert_eq!(refined, vec![14, 15, 4, 6]);
        assert_eq!(stats.raw_series_examined, 4);
        // Two seed reads (the second re-reads page 3), then the run's seek.
        assert_eq!(stats.random_page_accesses, 3);
        assert_eq!(stats.sequential_page_accesses, 0);
        assert_eq!(stats.bytes_read, (2 + 3) * SERIES_BYTES);
        // Candidate 9 starts on page 2, the page after the run's last: the
        // run bridges 5..=8 and reads on sequentially.
        let (refined, stats) = page_granular(&candidates(&[4, 9]), None);
        assert_eq!(refined, vec![14, 15, 4, 9]);
        assert_eq!(stats.raw_series_examined, 4);
        assert_eq!(stats.random_page_accesses, 3);
        assert_eq!(stats.sequential_page_accesses, 1);
        assert_eq!(stats.bytes_read, (2 + 6) * SERIES_BYTES);
        // Candidate 13 starts on page 3, two past the run's last: a new run.
        let (refined, stats) = page_granular(&candidates(&[4, 13]), None);
        assert_eq!(refined, vec![14, 15, 4, 13]);
        assert_eq!(stats.random_page_accesses, 4);
        assert_eq!(stats.sequential_page_accesses, 0);
        assert_eq!(stats.bytes_read, 4 * SERIES_BYTES);
    }

    #[test]
    fn a_seeded_series_ends_a_run_and_the_next_resumes_on_its_page() {
        // Series 5 is seeded, between candidates 4 and 6 of page 1: it is
        // refined once, by the seed, and the run after it pays no seek.
        let mut bounds = candidates(&[4, 6]);
        bounds[14] = OUT;
        bounds[5] = SEED;
        let (refined, stats) = page_granular(&bounds, None);
        assert_eq!(refined, vec![5, 15, 4, 6]);
        assert_eq!(stats.raw_series_examined, 4);
        // Seeds on pages 1 and 3, the run over 4 seeks back to page 1, and
        // the run over 6 resumes there.
        assert_eq!(stats.random_page_accesses, 3);
        assert_eq!(stats.sequential_page_accesses, 0);
        assert_eq!(stats.bytes_read, 4 * SERIES_BYTES);
    }

    #[test]
    fn a_budget_caps_the_refined_candidates_of_a_run_not_the_bridged_ones() {
        // Four reads: two for the seed and two for one run, which bridges
        // 5..=8 to reach candidate 9 and stops before candidate 10.
        let (refined, stats) = page_granular(&candidates(&[4, 9, 10]), Some(4));
        assert_eq!(refined, vec![14, 15, 4, 9]);
        assert_eq!(stats.raw_series_examined, 4);
        assert_eq!(stats.bytes_read, (2 + 6) * SERIES_BYTES);
    }

    #[test]
    fn nan_bounds_never_prune_their_candidate() {
        let (store, query, distances) = tiny();
        let k = 3;
        let query = Query::knn(query.series().clone(), k);
        let expected = brute_force(&distances, k);
        // Tight bounds everywhere but on the true answers, whose bounds are
        // NaN of either sign: neither order may rank or skip them away.
        let mut bounds: Vec<f64> = distances.iter().map(|d| d * 0.999).collect();
        for (rank, id) in ids(&expected).into_iter().enumerate() {
            bounds[id] = if rank % 2 == 0 { f64::NAN } else { -f64::NAN };
        }
        for order in ["skip", "ranked"] {
            let mut stats = QueryStats::default();
            let got = run(&store, &query, order, &bounds, &mut stats);
            assert_eq!(ids(&got), ids(&expected), "{order}");
            assert!(got.distances_match(&expected, 1e-9), "{order}");
        }
    }

    /// The ranking [`LazyRanking`] stands in for — a stable full sort by
    /// bound, a NaN bound ranked as `−∞` — as the reference, in bits.
    fn full_sort_bits(bounds: &[f64]) -> Vec<(u64, usize)> {
        let sane = bounds
            .iter()
            .map(|&lb| if lb.is_nan() { f64::NEG_INFINITY } else { lb });
        let mut ranked: Vec<(f64, usize)> = sane.zip(0..).collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranked
            .into_iter()
            .map(|(lb, id)| (lb.to_bits(), id))
            .collect()
    }

    fn lcg_bounds(n: usize, seed: u64, distinct: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % distinct) as f64 * 0.25
            })
            .collect()
    }

    #[test]
    fn every_prefix_matches_the_stable_full_sort() {
        let mut ranking = LazyRanking::default();
        // Few distinct values: long runs of ties that only the id breaks.
        for (n, distinct) in [
            (0usize, 1u64),
            (1, 1),
            (255, 3),
            (256, 1),
            (257, 7),
            (5000, 40),
            (5000, 1 << 30),
        ] {
            let bounds = lcg_bounds(n, 17 + n as u64, distinct);
            let expected = full_sort_bits(&bounds);
            for take in [0usize, 1, n / 3, n] {
                ranking.reset(&bounds);
                let got: Vec<(u64, usize)> = ranking
                    .by_ref()
                    .take(take)
                    .map(|(lb, id)| (lb.to_bits(), id))
                    .collect();
                assert_eq!(
                    got,
                    expected[..take.min(n)],
                    "n={n} distinct={distinct} take={take}"
                );
            }
            ranking.reset(&bounds);
            assert_eq!(ranking.by_ref().count(), n);
            assert!(ranking.next().is_none());
        }
    }

    #[test]
    fn the_seed_is_the_prefix_of_the_stable_full_sort() {
        for (n, distinct) in [
            (0usize, 1u64),
            (1, 1),
            (700, 3),
            (5000, 40),
            (5000, 1 << 30),
        ] {
            let mut bounds = lcg_bounds(n, 29 + n as u64, distinct);
            for (i, special) in [f64::NAN, -0.0, 0.0, f64::NEG_INFINITY, -f64::NAN]
                .into_iter()
                .enumerate()
            {
                if i * 131 < n {
                    bounds[i * 131] = special;
                }
            }
            let expected: Vec<usize> = full_sort_bits(&bounds).iter().map(|&(_, id)| id).collect();
            for m in [1, 3, 20, 256, n, n + 7] {
                let got = smallest(&bounds, m);
                assert_eq!(got, expected[..m.min(n)], "n={n} distinct={distinct} m={m}");
            }
        }
    }

    #[test]
    fn nan_bounds_rank_first_and_the_rest_keep_their_total_cmp_place() {
        let mut bounds = lcg_bounds(1000, 5, 50);
        for (i, special) in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::NAN,
            f64::MIN_POSITIVE / 2.0,
        ]
        .into_iter()
        .enumerate()
        {
            bounds[i * 97] = special;
            bounds[i * 97 + 1] = special;
        }
        let mut ranking = LazyRanking::default();
        ranking.reset(&bounds);
        let got: Vec<(u64, usize)> = ranking.map(|(lb, id)| (lb.to_bits(), id)).collect();
        assert_eq!(got, full_sort_bits(&bounds));
        // The six NaN bounds and the two −∞ ones lead, by id.
        let leading: Vec<usize> = got[..8].iter().map(|&(_, id)| id).collect();
        assert_eq!(leading, vec![0, 1, 97, 98, 291, 292, 582, 583]);
    }
}
