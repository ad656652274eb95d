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
//!   pass (UCR-Suite, MASS), with the ParIS-style pre-pass at `threads > 1`;
//! * **skip-sequential runs** over a bounds array
//!   ([`Refiner::skip_sequential`]): ADS+ step 3;
//! * **lazily ranked by bound** ([`Refiner::ranked`] over a
//!   [`LazyRanking`]): the VA+file;
//! * an **explicit id list** ([`Refiner::ids`]): the ADS+ seed leaf and
//!   Stepwise's survivors.
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
use crate::DatasetStore;
use hydra_core::parallel::map_chunks;
use hydra_core::{
    replay_outcome, AnswerMode, AnswerSet, BudgetMeter, KnnHeap, Outcome, Query, QueryStats,
    Result, RunClock, SharedBsf,
};
use std::ops::ControlFlow;

/// A refine kernel: the squared Euclidean distance from the query to one
/// candidate's values — [`EarlyAbandon`] or [`Full`].
pub trait RefineKernel {
    /// Whether the kernel early-abandons against the squared best-so-far. An
    /// abandoning kernel returns `None` if and only if the full squared sum
    /// exceeds the threshold (the contract [`replay_outcome`] rests on); a
    /// kernel that does not abandon is always run against `+∞`.
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
    /// the current threshold — or a worker's recorded `outcome`, replayed —
    /// then `offer`, or an early abandon. In debug builds a finite lower
    /// `bound` (−∞ where the order has none), less `ENTRY_SLACK`, is
    /// asserted not to exceed a finite distance computed in full. Returns
    /// that distance (`None` for an early abandon).
    pub(crate) fn refine<K: RefineKernel>(
        &mut self,
        id: usize,
        bound: f64,
        values: &[f32],
        kernel: &mut K,
        outcome: Option<Outcome>,
    ) -> Option<f64> {
        self.stats.record_raw_series_examined(1);
        let threshold = if K::ABANDONS {
            self.heap.threshold_squared()
        } else {
            f64::INFINITY
        };
        let squared = match outcome {
            Some(outcome) => replay_outcome(outcome, threshold, |t| kernel.squared(values, t)),
            None => kernel.squared(values, threshold),
        };
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
    /// `kernel` makes one kernel per pass. With `threads > 1` the candidate
    /// range is first split ParIS-style into one contiguous chunk per
    /// worker: every worker evaluates the in-memory dataset (no store
    /// traffic) against the tighter of its own heap and the [`SharedBsf`],
    /// recording one [`Outcome`] per candidate, and the counted pass decides
    /// each candidate from its outcome via [`replay_outcome`] — so answers,
    /// `early_abandons`, budget stops, faults and I/O are the same bits for
    /// every thread count.
    pub fn storage_order<K: RefineKernel>(
        &mut self,
        threads: usize,
        kernel: impl Fn() -> K + Sync,
    ) -> Result<()> {
        let store = self.store;
        let outcomes: Vec<Outcome> = if threads > 1 {
            let dataset = store.dataset();
            let k = self.heap.k();
            let bsf = SharedBsf::new(f64::INFINITY);
            map_chunks(store.len(), threads, |range| {
                let mut kernel = kernel();
                let mut local = KnnHeap::new(k);
                range
                    .map(|id| {
                        let threshold = local.threshold_squared().min(bsf.get());
                        match kernel.squared(dataset.series(id).values(), threshold) {
                            Some(sq) => {
                                local.offer(id, sq.sqrt());
                                bsf.update_min(local.threshold_squared());
                                Outcome::Computed(sq)
                            }
                            None => Outcome::Abandoned { threshold },
                        }
                    })
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
            let outcome = outcomes.get(id).copied();
            self.refine(id, f64::NEG_INFINITY, series.values(), &mut kernel, outcome);
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(())
    }

    /// Skip-sequential runs over `bounds` (one lower bound per series, in
    /// storage order): contiguous runs of candidates whose bound is below
    /// `bsf · shrink` are each read as one run (one seek, then sequential
    /// pages) and refined; a candidate whose bound reaches it is skipped. A
    /// budget caps a run at the reads it has left, so a nearly exhausted
    /// budget never pays for unread series.
    pub fn skip_sequential(&mut self, bounds: &[f64], mut kernel: impl RefineKernel) -> Result<()> {
        let mut id = 0usize;
        while id < bounds.len() {
            if self.should_stop() {
                break;
            }
            let limit = self.limit();
            let bounded_out = |bound: f64| self.heap.is_full() && bound >= limit;
            if bounded_out(bounds[id]) {
                id += 1;
                continue;
            }
            let start = id;
            let max_run = self.meter.limit().map_or(usize::MAX, |limit| {
                limit.saturating_sub(self.stats.raw_series_examined).max(1) as usize
            });
            while id < bounds.len() && id - start < max_run && !bounded_out(bounds[id]) {
                id += 1;
            }
            let run = self.store.try_read_run(start, id - start)?;
            for (sid, series) in (start..).zip(run) {
                self.refine(sid, bounds[sid], series.values(), &mut kernel, None);
            }
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
        for (bound, id) in ranking.take(take) {
            if self.heap.is_full() && bound > self.limit() {
                break;
            }
            if self.should_stop() {
                break;
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
        for id in ids {
            if self.should_stop() {
                break;
            }
            let series = self.store.try_read_series(id)?;
            self.refine(id, f64::NEG_INFINITY, series.values(), &mut kernel, None);
        }
        Ok(())
    }
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
        self.entries
            .extend(bounds.iter().enumerate().map(|(id, &lb)| {
                let lb = if lb.is_nan() { f64::NEG_INFINITY } else { lb };
                (total_order_key(lb.to_bits() as i64), id)
            }));
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
        // The ranked order starts from the smallest bound, i.e. the true
        // nearest neighbour; every other order from series 0.
        let nearest = ids(&brute_force(&distances, 1))[0];
        for order in ORDERS {
            let mut stats = QueryStats::default();
            let got = run(&store, &query, order, &bounds, &mut stats);
            let first = if order == "ranked" { nearest } else { 0 };
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
