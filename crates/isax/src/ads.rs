//! ADS+, the adaptive data series index, with the SIMS exact-search algorithm.
//!
//! ADS+ builds the iSAX tree using **only the summaries** of the raw series —
//! leaves hold series positions and SAX words, never raw values — which makes
//! index construction dramatically cheaper than iSAX2+ (the paper's Figure 6a).
//! The cost is shifted to query time. Exact search (and the ε and δ-ε modes)
//! uses SIMS:
//!
//! 1. the MINDIST lower bound between the query and *every* series' full-
//!    resolution iSAX summary is computed in memory;
//! 2. the `2k` series with the smallest bounds are read (random accesses)
//!    and refined first, so the best-so-far (bsf) is tight before any skip
//!    is decided — as MESSI and Hercules seed theirs from the best
//!    summaries rather than from one leaf;
//! 3. a skip-sequential pass over the raw file reads only the series whose
//!    lower bound is below the bsf, skipping (seeking over) the pruned ones
//!    at page granularity — a run bridges bounded-out series up to the page
//!    after its last one — and refines the bsf as it goes.
//!
//! The ng-approximate mode instead answers from one leaf: the tree descent
//! to the covering leaf (or the MINDIST-nearest one).
//!
//! Steps 2 and 3 (and the ng leaf) run through the scan-side driver,
//! [`hydra_storage::refine`] ([`Refiner::skip_sequential`] over the step-1
//! bounds, an id list for the leaf), which owns the query frame and the
//! budgeted per-candidate step; ADS+ supplies the descent, the sweep and
//! the kernels.
//!
//! Every skip is a random disk access — the behaviour that makes ADS+ the
//! fastest method to build but sensitive to seek latency on HDDs (and very
//! fast on SSDs), exactly the trade-off the paper analyses.
//!
//! [`Refiner::skip_sequential`]: hydra_storage::refine::Refiner::skip_sequential

use crate::tree::{IsaxTree, NodeKind};
use hydra_core::distance::{squared_euclidean, squared_euclidean_early_abandon};
use hydra_core::persist::{PersistentIndex, SnapshotSink, SnapshotSource};
use hydra_core::{
    parallel, AnswerMode, AnswerSet, AnsweringMethod, BuildOptions, Dataset, Error, ExactIndex,
    IndexFootprint, MethodDescriptor, ModeCapabilities, Query, QueryStats, Result,
};
use hydra_storage::refine::{self, EarlyAbandon, Full};
use hydra_storage::DatasetStore;
use hydra_transforms::sax::SaxParams;
use std::sync::Arc;

/// The ADS+ adaptive index.
pub struct AdsPlus {
    store: Arc<DatasetStore>,
    tree: IsaxTree,
    /// Full-cardinality SAX symbols of every series, `segments` per series in
    /// dataset order (the flat in-memory summary array SIMS sweeps).
    summaries: Vec<u16>,
}

impl AdsPlus {
    /// Builds the ADS+ index over an instrumented store.
    ///
    /// `options.build_threads` workers summarize the collection and build the
    /// root-child subtrees in parallel; the resulting tree is identical for
    /// every thread count (see [`IsaxTree::from_summaries`]).
    pub fn build_on_store(store: Arc<DatasetStore>, options: &BuildOptions) -> Result<Self> {
        if store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        options.validate(store.series_length())?;
        let threads = parallel::resolve_threads(options.build_threads);
        let max_bits = log2_ceil(options.alphabet_size).clamp(1, 16) as u8;
        let params = SaxParams::new(store.series_length(), options.segments, max_bits);
        // One sequential pass over the raw data (charged up front), then
        // summarization spread over the workers in dataset order.
        store.scan_all(|_, _| {});
        let summaries = crate::isax2plus::summarize(&store, &params, threads);
        let tree = IsaxTree::from_summaries(params, options.leaf_capacity, &summaries, threads);
        // Only the summaries are written out: the index is tiny on disk.
        let summary_bytes = store.len() * options.segments * 2;
        store.record_index_write(summary_bytes as u64);
        Ok(Self {
            store,
            tree,
            summaries,
        })
    }

    /// The underlying iSAX tree.
    pub fn tree(&self) -> &IsaxTree {
        &self.tree
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// SIMS step 1: the MINDIST lower bound from the query to every
    /// full-resolution summary, in dataset order, table-driven (see
    /// `hydra_transforms::sweep`).
    fn bounds(&self, query_paa: &[f32], stats: &mut QueryStats) -> Vec<f64> {
        let n = self.store.len();
        let mut bounds = Vec::new();
        self.tree
            .params()
            .sweep(query_paa, n)
            .sweep(&self.summaries, &mut bounds);
        stats.record_lower_bounds(n as u64);
        bounds
    }
}

fn log2_ceil(x: usize) -> u32 {
    (usize::BITS - x.next_power_of_two().leading_zeros()).saturating_sub(1)
}

impl AnsweringMethod for AdsPlus {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor {
            name: "ADS+",
            representation: "iSAX",
            is_index: true,
            modes: ModeCapabilities::all(),
        }
    }

    fn index_footprint(&self) -> Option<IndexFootprint> {
        Some(ExactIndex::footprint(self))
    }

    /// One serial SIMS query, visiting candidates through the scan-side
    /// driver: the MINDIST sweep of step 1, then the seed and the
    /// skip-sequential raw-file pass (steps 2 and 3), or the ng-approximate
    /// leaf. `threads` is ignored: splitting the sweep over two workers lost
    /// to the serial query (README "Intra-query parallelism & SIMD").
    fn search(&self, query: &Query, _threads: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
        query.expect_len(self.store.series_length())?;
        let k = query.knn_k("ADS+")?;
        refine::search(&self.store, query, k, stats, |refiner| {
            let params = self.tree.params();
            let query_paa = params.paa().transform(query.values());
            if query.mode() == AnswerMode::NgApproximate {
                // The whole answer comes from one leaf: the covering one, or
                // the MINDIST-nearest when the query's region was never
                // populated, so the mode always visits a leaf.
                let sax = params.sax_word_from_paa(&query_paa);
                let leaf = self
                    .tree
                    .locate_nearest_leaf(&query_paa, &sax.symbols, refiner.stats);
                if let Some(leaf) = leaf {
                    refiner.stats.record_leaf_visit();
                    if let NodeKind::Leaf { ids, .. } = &self.tree.node(leaf).kind {
                        let kernel =
                            Full(|values: &[f32]| squared_euclidean(query.values(), values));
                        refiner.ids(ids.iter().map(|&id| id as usize), kernel)?;
                    }
                }
                return Ok(());
            }
            let bounds = self.bounds(&query_paa, refiner.stats);
            refiner.skip_sequential(
                &bounds,
                EarlyAbandon(|values: &[f32], threshold| {
                    squared_euclidean_early_abandon(query.values(), values, threshold)
                }),
            )
        })
    }
}

impl ExactIndex for AdsPlus {
    fn build(dataset: &Dataset, options: &BuildOptions) -> Result<Self> {
        Self::build_on_store(Arc::new(DatasetStore::new(dataset.clone())), options)
    }

    fn footprint(&self) -> IndexFootprint {
        // Leaves hold summaries only: one u16 per segment per entry.
        self.tree.footprint(self.tree.params().segments() * 2)
    }

    fn num_series(&self) -> usize {
        self.store.len()
    }

    fn series_length(&self) -> usize {
        self.store.series_length()
    }
}

impl PersistentIndex for AdsPlus {
    type Context = Arc<DatasetStore>;

    fn snapshot_kind() -> &'static str {
        "adsplus/v1"
    }

    fn save_payload(&self, out: &mut dyn SnapshotSink) -> Result<()> {
        // The tree's leaves hold every series' full-cardinality SAX word, so
        // the in-memory summary array SIMS scans is NOT serialized separately:
        // the loader rebuilds it from the leaves (each id appears exactly
        // once), halving the snapshot size.
        self.tree.write_snapshot(out)
    }

    fn load_payload(store: Arc<DatasetStore>, input: &mut dyn SnapshotSource) -> Result<Self> {
        let tree = IsaxTree::read_snapshot(input)?;
        crate::isax2plus::validate_tree_against_store(&tree, &store)?;
        // Rebuild the dataset-order summary array from the leaf blocks
        // (validated above: every id in 0..n appears exactly once).
        let segments = tree.params().segments();
        let mut summaries = vec![0u16; store.len() * segments];
        for (ids, words) in tree.leaf_blocks() {
            for (&id, word) in ids.iter().zip(words.chunks_exact(segments)) {
                let at = id as usize * segments;
                summaries[at..at + segments].copy_from_slice(word);
            }
        }
        Ok(Self {
            store,
            tree,
            summaries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_data::RandomWalkGenerator;
    use hydra_scan::ucr::brute_force_knn;

    fn build(count: usize, len: usize, leaf: usize) -> (Arc<DatasetStore>, AdsPlus) {
        let store = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(71, len).dataset(count),
        ));
        let options = BuildOptions::default()
            .with_segments(16.min(len))
            .with_leaf_capacity(leaf)
            .with_alphabet_size(256);
        let index = AdsPlus::build_on_store(store.clone(), &options).unwrap();
        (store, index)
    }

    #[test]
    fn descriptor_matches_table1() {
        let (_, idx) = build(50, 64, 16);
        assert_eq!(idx.descriptor().name, "ADS+");
        assert_eq!(idx.descriptor().modes, ModeCapabilities::all());
    }

    #[test]
    fn build_writes_far_less_than_isax2plus() {
        let store = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(71, 64).dataset(300),
        ));
        let options = BuildOptions::default()
            .with_segments(16)
            .with_leaf_capacity(20);
        let _ads = AdsPlus::build_on_store(store.clone(), &options).unwrap();
        let ads_written = store.io_snapshot().bytes_written;

        let store2 = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(71, 64).dataset(300),
        ));
        let _isax = crate::Isax2Plus::build_on_store(store2.clone(), &options).unwrap();
        let isax_written = store2.io_snapshot().bytes_written;
        assert!(
            ads_written * 4 < isax_written,
            "ADS+ writes only summaries ({ads_written}) vs iSAX2+ materializing raw data ({isax_written})"
        );
    }

    #[test]
    fn exactness_against_brute_force() {
        let (store, idx) = build(500, 64, 25);
        for q in RandomWalkGenerator::new(171, 64).series_batch(15) {
            for k in [1usize, 5] {
                let expected = brute_force_knn(store.dataset(), q.values(), k);
                let got = idx.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert!(got.distances_match(&expected, 1e-4), "k={k}");
            }
        }
    }

    #[test]
    fn exactness_on_sald_like_length() {
        let (store, idx) = build(200, 128, 10);
        let q = RandomWalkGenerator::new(81, 128).series(9);
        let expected = brute_force_knn(store.dataset(), q.values(), 1);
        let got = idx.answer_simple(&Query::nearest_neighbor(q)).unwrap();
        assert!(got.distances_match(&expected, 1e-4));
    }

    #[test]
    fn sims_performs_skip_sequential_access() {
        // Plant near-duplicates of an off-dataset base series at scattered
        // positions. The seed (the two best-bounded series) sets a small but
        // non-zero bsf, so SIMS must seek to each scattered surviving
        // candidate while still pruning the bulk of the file.
        let len = 64;
        let gen = RandomWalkGenerator::new(71, len);
        let base = gen.series(5000);
        let planted = [200usize, 600, 1000, 1400, 1800];
        let mut data = Dataset::empty(len);
        for i in 0..2000usize {
            if let Some(rank) = planted.iter().position(|&p| p == i) {
                let mut v = base.values().to_vec();
                for (j, x) in v.iter_mut().enumerate() {
                    *x += 0.01 * (rank as f32 + 1.0) * ((j % 7) as f32 - 3.0);
                }
                data.push(&v);
            } else {
                data.push(gen.series(i as u64).values());
            }
        }
        let store = Arc::new(DatasetStore::new(data));
        let options = BuildOptions::default()
            .with_segments(16)
            .with_leaf_capacity(100)
            .with_alphabet_size(256);
        let idx = AdsPlus::build_on_store(store.clone(), &options).unwrap();
        store.reset_io();
        let mut stats = QueryStats::default();
        let ans = idx
            .answer(&Query::nearest_neighbor(base), &mut stats)
            .unwrap();
        assert_eq!(
            ans.nearest().unwrap().id,
            200,
            "least-perturbed planted copy must win"
        );
        // Strong pruning: most series are skipped...
        assert!(
            stats.pruning_ratio(2000) > 0.8,
            "ratio {}",
            stats.pruning_ratio(2000)
        );
        // ...at the price of multiple random accesses (skips).
        assert!(
            stats.random_page_accesses > 1,
            "skip-sequential scans should incur several seeks, got {}",
            stats.random_page_accesses
        );
    }

    #[test]
    fn every_series_is_read_once_when_k_reaches_the_dataset_size() {
        let (store, idx) = build(300, 64, 20);
        let q = RandomWalkGenerator::new(172, 64).series(3);
        for k in [300usize, 400] {
            let mut stats = QueryStats::default();
            let ans = idx.answer(&Query::knn(q.clone(), k), &mut stats).unwrap();
            assert_eq!(ans.len(), 300, "k={k}");
            assert_eq!(stats.raw_series_examined, 300, "k={k}");
            assert_eq!(stats.bytes_read, 300 * store.series_bytes() as u64, "k={k}");
        }
    }

    /// ROADMAP 7b, the `BoundSweep` site: a sweep bound above a distance the
    /// seed computes in full trips the driver's assertion.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "above its distance")]
    fn a_sweep_bound_above_a_seed_distance_fails_the_debug_assertion() {
        let (store, idx) = build(200, 64, 20);
        let q = RandomWalkGenerator::new(173, 64).series(1);
        let query = Query::knn(q, 3);
        let paa = idx.tree.params().paa().transform(query.values());
        let mut stats = QueryStats::default();
        let mut bounds = idx.bounds(&paa, &mut stats);
        // Every bound raised above the farthest distance: the seed's first
        // read is refined in full against an empty heap.
        let farthest = (0..store.len())
            .map(|id| squared_euclidean(query.values(), store.dataset().series(id).values()))
            .fold(0.0f64, f64::max)
            .sqrt();
        for bound in &mut bounds {
            *bound += farthest + 1.0;
        }
        let _ = refine::search(&store, &query, 3, &mut stats, |refiner| {
            refiner.skip_sequential(
                &bounds,
                Full(|v: &[f32]| squared_euclidean(query.values(), v)),
            )
        });
    }

    #[test]
    fn ng_approximate_answers_come_from_a_single_leaf() {
        let (store, idx) = build(600, 64, 30);
        let q = store.dataset().series(77).to_owned_series();
        let mut stats = QueryStats::default();
        let ans = idx
            .answer(
                &Query::nearest_neighbor(q).with_mode(AnswerMode::NgApproximate),
                &mut stats,
            )
            .unwrap();
        assert!(stats.leaves_visited <= 1);
        assert!(stats.raw_series_examined <= 31);
        assert_eq!(ans.nearest().unwrap().id, 77);
        assert_eq!(ans.guarantee(), hydra_core::Guarantee::None);
    }

    #[test]
    fn epsilon_zero_sims_is_bit_identical_to_exact() {
        let (_, idx) = build(400, 64, 20);
        for q in RandomWalkGenerator::new(175, 64).series_batch(4) {
            let exact_q = Query::knn(q, 5);
            let mut s1 = QueryStats::default();
            let mut s2 = QueryStats::default();
            let exact = idx.answer(&exact_q, &mut s1).unwrap();
            let zero = idx
                .answer(
                    &exact_q
                        .clone()
                        .with_mode(AnswerMode::EpsilonApproximate { epsilon: 0.0 }),
                    &mut s2,
                )
                .unwrap();
            assert_eq!(zero.answers(), exact.answers());
            assert_eq!(s1.raw_series_examined, s2.raw_series_examined);
            assert_eq!(s1.random_page_accesses, s2.random_page_accesses);
        }
    }

    #[test]
    fn footprint_is_summary_sized() {
        let (_, idx) = build(400, 64, 20);
        let fp = idx.footprint();
        assert!(
            fp.disk_bytes < 400 * 64 * 4 / 4,
            "ADS+ persists summaries, not raw data"
        );
        assert_eq!(fp.leaf_fill_factors.len(), fp.leaf_nodes);
        // Same tree shape as iSAX2+ for the same parameters (checked loosely:
        // node counts are equal because insertion order and policy are shared).
        let store2 = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(71, 64).dataset(400),
        ));
        let isax = crate::Isax2Plus::build_on_store(
            store2,
            &BuildOptions::default()
                .with_segments(16)
                .with_leaf_capacity(20),
        )
        .unwrap();
        assert_eq!(fp.total_nodes, isax.footprint().total_nodes);
    }

    #[test]
    fn rejects_empty_dataset_and_bad_query() {
        assert!(AdsPlus::build(&Dataset::empty(8), &BuildOptions::default()).is_err());
        let (_, idx) = build(20, 64, 8);
        assert!(idx
            .answer_simple(&Query::nearest_neighbor(hydra_core::Series::new(vec![
                0.0;
                16
            ])))
            .is_err());
    }
}
