//! The UCR-Suite-style optimized sequential scan, adapted to exact whole
//! matching (the paper's baseline method).
//!
//! For every candidate series read sequentially from the store, the scan
//! computes the squared Euclidean distance with reordered early abandoning
//! against the current best-so-far. It performs exactly one full sequential
//! pass over the dataset per query, which makes its I/O profile the reference
//! point every index is compared against.

use hydra_core::distance::{
    squared_euclidean_multi_reordered, squared_euclidean_reordered, QueryOrder,
};
use hydra_core::{
    AnswerSet, AnsweringMethod, BatchAnswering, Error, KnnHeap, MethodDescriptor, ModeCapabilities,
    Query, QueryStats, Result, RunClock,
};
use hydra_storage::refine::{self, EarlyAbandon};
use hydra_storage::DatasetStore;
use std::ops::ControlFlow;
use std::sync::Arc;

/// The optimized serial-scan baseline.
#[derive(Clone)]
pub struct UcrScan {
    store: Arc<DatasetStore>,
}

impl UcrScan {
    /// Creates a scan over the given store.
    pub fn new(store: Arc<DatasetStore>) -> Self {
        Self { store }
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// The number of series scanned per query.
    pub fn num_series(&self) -> usize {
        self.store.len()
    }

    /// The typed errors the serial path reports for `query`, in its order;
    /// `Ok(k)` when the query can be scanned.
    fn validate(&self, query: &Query) -> Result<usize> {
        if self.store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        query.expect_len(self.store.series_length())?;
        if !query.mode().is_exact() {
            return Err(Error::unsupported_mode("UCR-Suite", query.mode()));
        }
        query.knn_k("UCR-Suite")
    }
}

impl AnsweringMethod for UcrScan {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor {
            name: "UCR-Suite",
            representation: "raw",
            is_index: false,
            modes: ModeCapabilities::exact_only(),
        }
    }

    /// One counted sequential pass with reordered early abandoning against
    /// the best-so-far, in storage order through [`refine`]. Serial:
    /// `threads` is ignored, because each distance's work depends on the
    /// best-so-far (README "Intra-query parallelism & SIMD").
    fn search(&self, query: &Query, _threads: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
        let k = self.validate(query)?;
        let order = QueryOrder::new(query.values());
        refine::search(&self.store, query, k, stats, |refiner| {
            refiner.storage_order(1, || {
                EarlyAbandon(|values: &[f32], threshold| {
                    squared_euclidean_reordered(query.values(), values, &order, threshold)
                })
            })
        })
    }

    fn batch_answering(&self) -> Option<&dyn BatchAnswering> {
        Some(self)
    }
}

impl BatchAnswering for UcrScan {
    /// The batched scan: **one** counted sequential pass over the dataset
    /// evaluates every query of the batch against each candidate
    /// (query-major, the candidate stays cache-resident across the Q inner
    /// kernels), with each query early-abandoning against its own
    /// best-so-far.
    ///
    /// Candidates are visited in the same storage order as the serial scan,
    /// through the same fallible read path, and each query's best-so-far
    /// evolves independently; every query is charged the shared pass's
    /// observed I/O, exactly as its serial pass observes its own. Answers
    /// and per-query counters are therefore bit-identical to the per-query
    /// loop — only the *physical* traffic shrinks from Q passes to one.
    fn answer_batch(&self, queries: &[Query], stats: &mut [QueryStats]) -> Result<Vec<AnswerSet>> {
        let ks = queries
            .iter()
            .map(|query| self.validate(query))
            .collect::<Result<Vec<usize>>>()?;
        let before = self.store.thread_io_snapshot();
        let clock = RunClock::start();
        let query_values: Vec<&[f32]> = queries.iter().map(|q| q.values()).collect();
        let orders: Vec<QueryOrder> = query_values.iter().map(|q| QueryOrder::new(q)).collect();
        let mut heaps: Vec<KnnHeap> = ks.iter().map(|&k| KnnHeap::new(k)).collect();
        let mut thresholds = vec![f64::INFINITY; queries.len()];
        let mut distances: Vec<Option<f64>> = vec![None; queries.len()];
        self.store.try_scan_all(|id, series| {
            for (threshold, heap) in thresholds.iter_mut().zip(&heaps) {
                *threshold = heap.threshold_squared();
            }
            squared_euclidean_multi_reordered(
                &query_values,
                &orders,
                series.values(),
                &thresholds,
                &mut distances,
            );
            for ((distance, heap), stats) in distances.iter().zip(&mut heaps).zip(stats.iter_mut())
            {
                stats.record_raw_series_examined(1);
                match distance {
                    Some(sq) => {
                        heap.offer(id, sq.sqrt());
                    }
                    None => stats.record_early_abandon(),
                }
            }
            Ok(ControlFlow::Continue(()))
        })?;
        // Per-query wall time inside a shared pass is ill-defined; each
        // query reports an even share of it.
        let cpu_share = clock.elapsed() / queries.len().max(1) as u32;
        let delta = self.store.thread_io_snapshot().since(&before);
        for stats in stats.iter_mut() {
            stats.record_io(delta.sequential_pages, delta.random_pages, delta.bytes_read);
            stats.cpu_time += cpu_share;
        }
        Ok(heaps.into_iter().map(KnnHeap::into_answer_set).collect())
    }
}

/// Brute-force exact k-NN over an in-memory dataset, without any I/O
/// accounting or early abandoning. Used as the ground-truth oracle in tests
/// and experiments.
pub fn brute_force_knn(dataset: &hydra_core::Dataset, query: &[f32], k: usize) -> AnswerSet {
    let mut heap = KnnHeap::new(k);
    for (i, s) in dataset.iter().enumerate() {
        heap.offer(i, hydra_core::distance::euclidean(query, s.values()));
    }
    heap.into_answer_set()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::{Dataset, Series};
    use hydra_data::RandomWalkGenerator;

    fn store(count: usize, len: usize) -> Arc<DatasetStore> {
        Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(11, len).dataset(count),
        ))
    }

    #[test]
    fn descriptor_matches_table1() {
        let scan = UcrScan::new(store(10, 32));
        let d = scan.descriptor();
        assert_eq!(d.name, "UCR-Suite");
        assert!(!d.is_index);
        assert_eq!(scan.num_series(), 10);
    }

    #[test]
    fn scan_matches_brute_force_for_1nn_and_knn() {
        let s = store(300, 64);
        let scan = UcrScan::new(s.clone());
        let queries = RandomWalkGenerator::new(99, 64).series_batch(10);
        for q in &queries {
            for k in [1usize, 5, 10] {
                let expected = brute_force_knn(s.dataset(), q.values(), k);
                let got = scan.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert!(got.distances_match(&expected, 1e-6), "k={k} mismatch");
            }
        }
    }

    #[test]
    fn one_corrupt_nan_series_does_not_poison_knn_answers() {
        // Regression: a NaN distance offered while the heap is under-full
        // (series 0 is scanned first) used to become the heap top once the
        // heap filled, reject every later candidate, and silently corrupt
        // the k-NN answer. The finite k-NN must come back intact.
        let len = 32usize;
        let count = 50usize;
        let mut values = Vec::new();
        for s in RandomWalkGenerator::new(17, len).series_batch(count) {
            values.extend_from_slice(s.values());
        }
        for v in &mut values[..len] {
            *v = f32::NAN;
        }
        let s = Arc::new(DatasetStore::new(Dataset::from_flat(values, len)));
        let q = RandomWalkGenerator::new(4, len).series(0);
        let k = 5;
        let ans = brute_force_knn(s.dataset(), q.values(), k);
        assert_eq!(ans.len(), k);
        assert!(ans.iter().all(|a| a.id != 0 && a.distance.is_finite()));
        // The answers are exactly the k-NN over the 49 finite series.
        let mut expected: Vec<f64> = s
            .dataset()
            .iter()
            .skip(1)
            .map(|series| hydra_core::distance::euclidean(q.values(), series.values()))
            .collect();
        expected.sort_by(f64::total_cmp);
        let got: Vec<f64> = ans.iter().map(|a| a.distance).collect();
        assert_eq!(got, &expected[..k]);
        // The counted early-abandoning scan agrees with the oracle.
        let scan = UcrScan::new(s.clone());
        let scanned = scan.answer_simple(&Query::knn(q, k)).unwrap();
        assert!(scanned.distances_match(&ans, 1e-6));
    }

    #[test]
    fn scan_finds_exact_duplicate_at_distance_zero() {
        let s = store(100, 32);
        let scan = UcrScan::new(s.clone());
        let target = s.dataset().series(42).to_owned_series();
        let ans = scan
            .answer_simple(&Query::nearest_neighbor(target))
            .unwrap();
        assert_eq!(ans.nearest().unwrap().id, 42);
        assert!(ans.nearest().unwrap().distance < 1e-6);
    }

    #[test]
    fn scan_reads_whole_dataset_sequentially() {
        let s = store(200, 256);
        let scan = UcrScan::new(s.clone());
        let q = RandomWalkGenerator::new(5, 256).series(0);
        let mut stats = QueryStats::default();
        scan.answer(&Query::nearest_neighbor(q), &mut stats)
            .unwrap();
        assert_eq!(stats.raw_series_examined, 200);
        assert_eq!(
            stats.random_page_accesses, 1,
            "a scan seeks once then streams"
        );
        assert_eq!(stats.bytes_read, 200 * 256 * 4);
        assert!(
            stats.early_abandons > 0,
            "early abandoning should trigger on most candidates"
        );
    }

    #[test]
    fn batched_scan_is_bit_identical_and_amortizes_the_physical_pass() {
        use hydra_core::{Parallelism, QueryEngine};
        let queries: Vec<Query> = RandomWalkGenerator::new(55, 128)
            .series_batch(6)
            .into_iter()
            .map(|s| Query::knn(s, 3))
            .collect();
        let s1 = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(11, 128).dataset(200),
        ));
        let mut serial =
            QueryEngine::new(Box::new(UcrScan::new(s1.clone())), s1.len()).with_io_source(s1);
        let serial_answers: Vec<_> = queries.iter().map(|q| serial.answer(q).unwrap()).collect();

        let s2 = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(11, 128).dataset(200),
        ));
        let mut batched = QueryEngine::new(Box::new(UcrScan::new(s2.clone())), s2.len())
            .with_io_source(s2.clone());
        let batch_answers = batched.answer_batch(&queries, Parallelism::Serial).unwrap();

        for (a, b) in serial_answers.iter().zip(&batch_answers) {
            assert_eq!(a.answers, b.answers);
            assert_eq!(a.stats.raw_series_examined, b.stats.raw_series_examined);
            assert_eq!(a.stats.early_abandons, b.stats.early_abandons);
            assert_eq!(
                a.stats.sequential_page_accesses,
                b.stats.sequential_page_accesses
            );
            assert_eq!(a.stats.random_page_accesses, b.stats.random_page_accesses);
            assert_eq!(a.stats.bytes_read, b.stats.bytes_read);
        }
        // Physically the whole batch cost ONE pass over the file...
        let physical = batched.last_batch_io().expect("native kernel ran");
        assert_eq!(physical.total_pages(), s2.total_pages());
        assert_eq!(physical.random_pages, 1);
        // ...while each query's logical counters keep the full per-query pass.
        assert_eq!(
            batch_answers[0].stats.sequential_page_accesses,
            s2.total_pages() - 1
        );
    }

    #[test]
    fn budget_truncates_with_best_so_far_and_infinite_budget_is_identical() {
        use hydra_core::{Budget, Guarantee};
        let s = store(200, 64);
        let scan = UcrScan::new(s.clone());
        let q = Query::knn(RandomWalkGenerator::new(21, 64).series(0), 3);

        let mut unbudgeted_stats = QueryStats::default();
        let unbudgeted = scan.answer(&q, &mut unbudgeted_stats).unwrap();

        // A tiny budget: non-empty best-so-far, tagged Truncated.
        let tiny = q.clone().with_budget(Some(Budget::raw_reads(10)));
        let mut stats = QueryStats::default();
        let truncated = scan.answer(&tiny, &mut stats).unwrap();
        assert!(!truncated.is_empty());
        assert_eq!(stats.raw_series_examined, 10);
        match truncated.guarantee() {
            Guarantee::Truncated { examined_fraction } => {
                assert!((examined_fraction - 0.05).abs() < 1e-12);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Even a zero budget examines the first candidate.
        let zero = q.clone().with_budget(Some(Budget::raw_reads(0)));
        let mut stats = QueryStats::default();
        let ans = scan.answer(&zero, &mut stats).unwrap();
        assert!(!ans.is_empty());
        assert_eq!(stats.raw_series_examined, 1);

        // A budget covering the whole dataset is bit-identical to no budget.
        let huge = q.clone().with_budget(Some(Budget::raw_reads(u64::MAX)));
        let mut stats = QueryStats::default();
        let full = scan.answer(&huge, &mut stats).unwrap();
        assert_eq!(full, unbudgeted);
        assert_eq!(
            stats.raw_series_examined,
            unbudgeted_stats.raw_series_examined
        );
        assert_eq!(stats.early_abandons, unbudgeted_stats.early_abandons);
        assert_eq!(stats.bytes_read, unbudgeted_stats.bytes_read);
        assert_eq!(
            stats.sequential_page_accesses,
            unbudgeted_stats.sequential_page_accesses
        );
        assert_eq!(
            stats.random_page_accesses,
            unbudgeted_stats.random_page_accesses
        );
    }

    #[test]
    fn rejects_wrong_length_and_empty_dataset() {
        let s = store(10, 64);
        let scan = UcrScan::new(s);
        let err = scan.answer_simple(&Query::nearest_neighbor(Series::new(vec![0.0; 32])));
        assert!(matches!(
            err,
            Err(Error::LengthMismatch {
                expected: 64,
                actual: 32
            })
        ));

        let empty = Arc::new(DatasetStore::new(Dataset::empty(8)));
        let scan = UcrScan::new(empty);
        let err = scan.answer_simple(&Query::nearest_neighbor(Series::new(vec![0.0; 8])));
        assert!(matches!(err, Err(Error::EmptyDataset)));
    }

    #[test]
    fn brute_force_returns_sorted_k_answers() {
        let d = RandomWalkGenerator::new(3, 16).dataset(50);
        let q = RandomWalkGenerator::new(4, 16).series(0);
        let ans = brute_force_knn(&d, q.values(), 5);
        assert_eq!(ans.len(), 5);
        let dists: Vec<f64> = ans.iter().map(|a| a.distance).collect();
        let mut sorted = dists.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(dists, sorted);
    }
}
