//! # hydra-vafile
//!
//! The VA+file: a quantization-based filter file over DFT coefficients.
//!
//! Index construction computes, for every series, a compact cell approximation
//! (non-uniform bit allocation across DFT dimensions, k-means decision
//! intervals per dimension — see `hydra_transforms::vaplus`) and stores all
//! approximations in a flat "filter file". Exact search proceeds in two
//! phases:
//!
//! 1. **Filtering** — a sequential pass over the (small) filter file computes
//!    a lower bound for every candidate from a per-query table of cell terms;
//!    candidates are ranked by lower bound, lazily
//!    ([`hydra_storage::refine::LazyRanking`]). In memory the filter file is
//!    held segment-major in blocks of eight series, which the sweep bounds
//!    eight at a time ([`hydra_transforms::sweep`]); the snapshot keeps the
//!    series-by-series layout.
//! 2. **Refinement** — candidates are visited in increasing lower-bound order;
//!    the raw series of each surviving candidate is fetched (a random /
//!    skip-sequential access on the raw file) and its exact distance computed,
//!    until the next lower bound exceeds the best-so-far k-th distance. This
//!    is the ranked order of the scan-side driver,
//!    [`hydra_storage::refine`], which owns the query frame and the budgeted
//!    per-candidate step; the VA+file supplies its bounds and kernel.
//!
//! This is the access pattern responsible for the method's behaviour in the
//! paper: almost no sequential raw-data reads, a number of random accesses
//! proportional to the unpruned candidates, and excellent pruning thanks to
//! the tight, data-adaptive quantization.

// lib-unwrap (README "Contract lints"): library code returns typed errors.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use hydra_core::distance::squared_euclidean;
use hydra_core::persist::{PersistentIndex, SnapshotSink, SnapshotSource};
use hydra_core::{
    AnswerSet, AnsweringMethod, BuildOptions, Dataset, Error, ExactIndex, IndexFootprint,
    MethodDescriptor, ModeCapabilities, Query, QueryStats, Result,
};
use hydra_storage::refine::{self, Full, LazyRanking};
use hydra_storage::DatasetStore;
use hydra_transforms::{SummaryBlocks, VaPlusQuantizer};
use std::sync::Arc;

/// The VA+file index.
pub struct VaPlusFile {
    store: Arc<DatasetStore>,
    quantizer: VaPlusQuantizer,
    /// The filter file: every series' cell indices, in dataset order and
    /// blocked segment-major (`hydra_transforms::sweep`).
    cells: SummaryBlocks,
    approximation_bytes: usize,
}

impl VaPlusFile {
    /// Builds the VA+file over an instrumented store.
    ///
    /// `options.segments` is the number of DFT values retained and
    /// `options.segments * 8` bits form the default total budget (8 bits per
    /// dimension on average, as in the original method).
    pub fn build_on_store(store: Arc<DatasetStore>, options: &BuildOptions) -> Result<Self> {
        if store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        options.validate(store.series_length())?;
        let dims = options.segments;
        let total_bits = dims * 8;

        // Train the quantizer on a sample (first train_samples series).
        let sample_size = options.train_samples.clamp(1, store.len());
        let dataset = store.dataset();
        let sample: Vec<&[f32]> = (0..sample_size)
            .map(|i| dataset.series(i).values())
            .collect();
        let quantizer = VaPlusQuantizer::train(store.series_length(), dims, total_bits, sample);

        // One sequential pass to compute every approximation.
        let mut cells = SummaryBlocks::with_capacity(dims, store.len());
        store.scan_all(|_, series| {
            cells.push(&quantizer.cell(series.values()).cells);
        });
        let approximation_bytes = (store.len() * quantizer.bits_per_series()).div_ceil(8);
        store.record_index_write(approximation_bytes as u64);
        Ok(Self {
            store,
            quantizer,
            cells,
            approximation_bytes,
        })
    }

    /// The trained quantizer.
    pub fn quantizer(&self) -> &VaPlusQuantizer {
        &self.quantizer
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// Size of the approximation (filter) file in bytes.
    pub fn approximation_bytes(&self) -> usize {
        self.approximation_bytes
    }
}

impl AnsweringMethod for VaPlusFile {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor {
            name: "VA+file",
            representation: "DFT",
            is_index: true,
            modes: ModeCapabilities::all(),
        }
    }

    fn index_footprint(&self) -> Option<IndexFootprint> {
        Some(ExactIndex::footprint(self))
    }

    /// One serial VA+file query; `threads` is ignored (README "Intra-query
    /// parallelism & SIMD"). Phase 1 charges one (logical) sequential pass
    /// over the filter file and bounds every candidate with one table-driven
    /// sweep. Phase 2 refines in increasing lower-bound order
    /// ([`refine::Refiner::ranked`]): exact refinement stops when the next
    /// lower bound exceeds the best-so-far, the ε-relaxed modes as soon as it
    /// exceeds `bsf * shrink`, and the ng-approximate mode refines only the
    /// `k` best-ranked candidates (the VA+file has no leaves — its "one leaf
    /// visit" is the k-deep filter-file prefix).
    fn search(&self, query: &Query, _threads: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
        query.expect_len(self.store.series_length())?;
        let k = query.knn_k("VA+file")?;
        let approx_bytes = self.approximation_bytes as u64;
        let approx_pages = approx_bytes.div_ceil(self.store.page_bytes() as u64).max(1);
        refine::search(&self.store, query, k, stats, |refiner| {
            // Phase 1: scan the filter file (sequential, small) computing bounds.
            refiner.stats.record_io(approx_pages - 1, 1, approx_bytes);
            let n = self.store.len();
            let mut bounds = Vec::new();
            let q_dft = self.quantizer.dft(query.values());
            self.quantizer
                .sweep(&q_dft, n)
                .sweep(&self.cells, &mut bounds);
            refiner.stats.record_lower_bounds(n as u64);
            let mut ranking = LazyRanking::default();
            ranking.reset(&bounds);
            // Phase 2: mode-aware refinement.
            let kernel = Full(|values: &[f32]| squared_euclidean(query.values(), values));
            refiner.ranked(ranking, kernel)
        })
    }
}

impl ExactIndex for VaPlusFile {
    fn build(dataset: &Dataset, options: &BuildOptions) -> Result<Self> {
        Self::build_on_store(Arc::new(DatasetStore::new(dataset.clone())), options)
    }

    fn footprint(&self) -> IndexFootprint {
        IndexFootprint {
            total_nodes: 0,
            leaf_nodes: 0,
            memory_bytes: self.cells.len() * self.cells.dims() * std::mem::size_of::<u16>()
                + std::mem::size_of::<VaPlusQuantizer>(),
            disk_bytes: self.approximation_bytes,
            leaf_fill_factors: Vec::new(),
            leaf_depths: Vec::new(),
        }
    }

    fn num_series(&self) -> usize {
        self.store.len()
    }

    fn series_length(&self) -> usize {
        self.store.series_length()
    }
}

impl PersistentIndex for VaPlusFile {
    type Context = Arc<DatasetStore>;

    fn snapshot_kind() -> &'static str {
        "vafile/v1"
    }

    fn save_payload(&self, out: &mut dyn SnapshotSink) -> Result<()> {
        out.put_usize(self.quantizer.series_length())?;
        out.put_usize(self.quantizer.dims())?;
        for &b in self.quantizer.bits() {
            out.put_u8(b)?;
        }
        for d in 0..self.quantizer.dims() {
            for &boundary in self.quantizer.boundaries(d) {
                out.put_f64(boundary)?;
            }
        }
        out.put_usize(self.store.len())?;
        for i in 0..self.cells.len() {
            for c in self.cells.word(i) {
                out.put_u16(c)?;
            }
        }
        Ok(())
    }

    fn load_payload(store: Arc<DatasetStore>, input: &mut dyn SnapshotSource) -> Result<Self> {
        let series_length = input.get_usize()?;
        if series_length != store.series_length() {
            return Err(Error::InvalidSnapshot(format!(
                "snapshot is for series length {series_length}, store holds {}",
                store.series_length()
            )));
        }
        let dims = input.get_count(1)?;
        let mut bits = Vec::with_capacity(dims);
        for _ in 0..dims {
            let b = input.get_u8()?;
            if b > 16 {
                return Err(Error::InvalidSnapshot(format!(
                    "dimension quantized with {b} bits (the quantizer never exceeds 16)"
                )));
            }
            bits.push(b);
        }
        let mut boundaries = Vec::with_capacity(dims);
        for &b in &bits {
            let count = if b == 0 { 0 } else { (1usize << b) - 1 };
            let mut bounds = Vec::with_capacity(count);
            for _ in 0..count {
                bounds.push(input.get_f64()?);
            }
            boundaries.push(bounds);
        }
        let quantizer = VaPlusQuantizer::from_parts(series_length, dims, bits, boundaries);
        let num_cells = input.get_count(dims * 2)?;
        if num_cells != store.len() {
            return Err(Error::InvalidSnapshot(format!(
                "snapshot approximates {num_cells} series, store holds {}",
                store.len()
            )));
        }
        let mut cells = SummaryBlocks::with_capacity(dims, num_cells);
        let mut word = vec![0u16; dims];
        for _ in 0..num_cells {
            for (d, slot) in word.iter_mut().enumerate() {
                let cell = input.get_u16()?;
                // The bound table and `interval` index by the cell.
                if usize::from(cell) > quantizer.boundaries(d).len() {
                    return Err(Error::InvalidSnapshot(format!(
                        "cell {cell} in dimension {d} is outside its {} intervals",
                        quantizer.boundaries(d).len() + 1
                    )));
                }
                *slot = cell;
            }
            cells.push(&word);
        }
        let approximation_bytes = (num_cells * quantizer.bits_per_series()).div_ceil(8);
        Ok(Self {
            store,
            quantizer,
            cells,
            approximation_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::AnswerMode;
    use hydra_data::RandomWalkGenerator;
    use hydra_scan::ucr::brute_force_knn;

    fn build(count: usize, len: usize) -> (Arc<DatasetStore>, VaPlusFile) {
        let store = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(41, len).dataset(count),
        ));
        let options = BuildOptions::default()
            .with_segments(16)
            .with_train_samples(200);
        let index = VaPlusFile::build_on_store(store.clone(), &options).unwrap();
        (store, index)
    }

    #[test]
    fn descriptor_and_footprint() {
        let (_, idx) = build(100, 64);
        assert_eq!(idx.descriptor().name, "VA+file");
        assert!(idx.descriptor().is_index);
        let fp = idx.footprint();
        assert_eq!(fp.total_nodes, 0, "the VA+file builds no tree");
        assert!(fp.disk_bytes > 0);
        assert!(fp.memory_bytes > 0);
        assert_eq!(idx.num_series(), 100);
        assert_eq!(idx.series_length(), 64);
        assert!(idx.approximation_bytes() > 0);
        // The filter file is much smaller than the raw data.
        assert!(idx.approximation_bytes() < 100 * 64 * 4 / 2);
    }

    #[test]
    fn exactness_against_brute_force() {
        let (store, idx) = build(400, 64);
        for q in RandomWalkGenerator::new(97, 64).series_batch(15) {
            for k in [1usize, 5] {
                let expected = brute_force_knn(store.dataset(), q.values(), k);
                let got = idx.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert!(got.distances_match(&expected, 1e-4), "k={k}");
            }
        }
    }

    #[test]
    fn exactness_on_deep_like_length() {
        let (store, idx) = build(200, 96);
        let q = RandomWalkGenerator::new(3, 96).series(7);
        let expected = brute_force_knn(store.dataset(), q.values(), 1);
        let got = idx.answer_simple(&Query::nearest_neighbor(q)).unwrap();
        assert!(got.distances_match(&expected, 1e-4));
    }

    #[test]
    fn pruning_is_effective_on_easy_queries() {
        let (store, idx) = build(1000, 128);
        // A dataset member as query: the matching cell ranks first, so very
        // few raw series should be touched.
        let q = store.dataset().series(500).to_owned_series();
        let mut stats = QueryStats::default();
        let ans = idx.answer(&Query::nearest_neighbor(q), &mut stats).unwrap();
        assert_eq!(ans.nearest().unwrap().id, 500);
        assert!(
            stats.pruning_ratio(1000) > 0.95,
            "VA+ should prune aggressively, ratio {}",
            stats.pruning_ratio(1000)
        );
    }

    #[test]
    fn refinement_accesses_are_random() {
        let (store, idx) = build(300, 64);
        store.reset_io();
        let q = RandomWalkGenerator::new(7, 64).series(0);
        let mut stats = QueryStats::default();
        idx.answer(&Query::nearest_neighbor(q), &mut stats).unwrap();
        assert!(stats.random_page_accesses >= 1);
        assert!(stats.raw_series_examined >= 1);
        assert!(stats.lower_bounds_computed == 300);
    }

    #[test]
    fn ng_refines_only_k_candidates_and_epsilon_zero_is_bit_identical() {
        let (store, idx) = build(400, 64);
        let member = store.dataset().series(42).to_owned_series();
        let mut stats = QueryStats::default();
        let ng = idx
            .answer(
                &Query::knn(member, 3).with_mode(AnswerMode::NgApproximate),
                &mut stats,
            )
            .unwrap();
        assert!(stats.raw_series_examined <= 3, "ng refines at most k");
        assert_eq!(ng.guarantee(), hydra_core::Guarantee::None);
        // A member query's own cell ranks first, so the member is found.
        assert_eq!(ng.nearest().unwrap().id, 42);

        for q in RandomWalkGenerator::new(83, 64).series_batch(4) {
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
            // ε > 0 refines no more candidates than exact search.
            let mut s3 = QueryStats::default();
            let relaxed = idx
                .answer(
                    &exact_q
                        .clone()
                        .with_mode(AnswerMode::EpsilonApproximate { epsilon: 1.0 }),
                    &mut s3,
                )
                .unwrap();
            assert!(s3.raw_series_examined <= s1.raw_series_examined);
            let (a, e) = (relaxed.nearest().unwrap(), exact.nearest().unwrap());
            assert!(a.distance + 1e-9 >= e.distance);
            assert!(a.distance <= 2.0 * e.distance + 1e-9);
        }
    }

    /// What one refinement did: the `(bound bits, id)` sequence it drew, its
    /// answer, and the counted work.
    type RefineTrace = (Vec<(u64, usize)>, AnswerSet, u64, u64);

    /// Runs phase 2 over `ranked` through the driver on a cold head, as the
    /// engine would.
    fn refine_trace(
        idx: &VaPlusFile,
        query: &Query,
        ranked: impl Iterator<Item = (f64, usize)>,
    ) -> RefineTrace {
        let k = query.knn_k("VA+file").unwrap();
        let mut drawn = Vec::new();
        let mut stats = QueryStats::default();
        idx.store.seek();
        let ranked = ranked.inspect(|&(lb, id)| drawn.push((lb.to_bits(), id)));
        let kernel = Full(|values: &[f32]| squared_euclidean(query.values(), values));
        let answers = refine::search(&idx.store, query, k, &mut stats, |refiner| {
            refiner.ranked(ranked, kernel)
        })
        .unwrap();
        (
            drawn,
            answers,
            stats.raw_series_examined,
            stats.random_page_accesses,
        )
    }

    /// The ranking [`LazyRanking`] stands in for — a stable full sort by
    /// bound, a NaN bound ranked as `−∞` — as the reference.
    fn full_sort(bounds: &[f64]) -> Vec<(f64, usize)> {
        let sane = bounds
            .iter()
            .map(|&lb| if lb.is_nan() { f64::NEG_INFINITY } else { lb });
        let mut ranked: Vec<(f64, usize)> = sane.zip(0..).collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranked
    }

    #[test]
    fn lazy_ranking_refines_exactly_the_prefix_the_full_sort_would() {
        // Every series appears three times, so every bound ties twice and
        // only the id decides the order.
        let base = RandomWalkGenerator::new(41, 64).dataset(400);
        let mut data = Dataset::empty(64);
        for round in 0..3 {
            for i in 0..400 {
                data.push(base.series((i + round * 7) % 400).values());
            }
        }
        let store = Arc::new(DatasetStore::new(data));
        let options = BuildOptions::default()
            .with_segments(16)
            .with_train_samples(200);
        let idx = VaPlusFile::build_on_store(store.clone(), &options).unwrap();

        let modes = [
            (AnswerMode::Exact, None),
            (AnswerMode::EpsilonApproximate { epsilon: 0.5 }, None),
            (
                AnswerMode::DeltaEpsilon {
                    delta: 0.9,
                    epsilon: 0.25,
                },
                None,
            ),
            (AnswerMode::NgApproximate, None),
            (AnswerMode::Exact, Some(hydra_core::Budget::raw_reads(7))),
        ];
        let mut ranking = LazyRanking::default();
        for (qi, q) in RandomWalkGenerator::new(97, 64)
            .series_batch(6)
            .into_iter()
            .enumerate()
        {
            let q_dft = idx.quantizer.dft(q.values());
            let bounds: Vec<f64> = (0..idx.cells.len())
                .map(|i| {
                    let cell = hydra_transforms::VaPlusCell {
                        cells: idx.cells.word(i).collect(),
                    };
                    idx.quantizer.lower_bound(&q_dft, &cell)
                })
                .collect();
            // The same bounds with NaNs (either sign) planted among the ties.
            let mut poisoned = bounds.clone();
            for i in (qi..poisoned.len()).step_by(53) {
                poisoned[i] = if i % 2 == 0 { f64::NAN } else { -f64::NAN };
            }
            for (mode, budget) in modes {
                let query = Query::knn(q.clone(), 5).with_mode(mode).with_budget(budget);
                let ctx = format!("query {qi} {mode:?} budget {budget:?}");
                for bounds in [&bounds, &poisoned] {
                    let expected = refine_trace(&idx, &query, full_sort(bounds).into_iter());
                    ranking.reset(bounds);
                    let got = refine_trace(&idx, &query, ranking.by_ref());
                    assert_eq!(got, expected, "{ctx}");
                    assert!(!got.0.is_empty(), "{ctx}");
                }
                // And the whole query: same answers and counted work as the
                // full-sort pipeline over the per-pair bounds.
                let (_, answers, examined, random_pages) =
                    refine_trace(&idx, &query, full_sort(&bounds).into_iter());
                let mut stats = QueryStats::default();
                store.reset_io();
                let got = idx.answer(&query, &mut stats).unwrap();
                assert_eq!(got.answers(), answers.answers(), "{ctx}");
                assert_eq!(stats.raw_series_examined, examined, "{ctx}");
                // The filter pass charges one random page of its own.
                assert_eq!(stats.random_page_accesses, random_pages + 1, "{ctx}");
                assert_eq!(stats.lower_bounds_computed, 1200, "{ctx}");
            }
        }
    }

    #[test]
    fn build_via_exact_index_trait() {
        let dataset = RandomWalkGenerator::new(1, 32).dataset(50);
        let idx = VaPlusFile::build(&dataset, &BuildOptions::default().with_segments(8)).unwrap();
        assert_eq!(idx.num_series(), 50);
    }

    #[test]
    fn rejects_empty_and_bad_options() {
        let empty = Dataset::empty(16);
        assert!(VaPlusFile::build(&empty, &BuildOptions::default()).is_err());
        let data = RandomWalkGenerator::new(1, 8).dataset(10);
        let bad = BuildOptions::default().with_segments(64);
        assert!(VaPlusFile::build(&data, &bad).is_err());
    }

    #[test]
    fn rejects_wrong_query_length() {
        let (_, idx) = build(50, 64);
        let q = Query::nearest_neighbor(hydra_core::Series::new(vec![0.0; 32]));
        assert!(idx.answer_simple(&q).is_err());
    }

    #[test]
    fn payload_round_trip_restores_the_identical_filter_file() {
        let (store, idx) = build(200, 64);
        let mut payload: Vec<u8> = Vec::new();
        idx.save_payload(&mut payload).unwrap();
        let fresh = Arc::new(DatasetStore::new(store.dataset().clone()));
        let mut src = hydra_core::persist::SliceSource::new(&payload);
        let loaded = VaPlusFile::load_payload(fresh, &mut src).unwrap();
        assert_eq!(src.remaining(), 0, "payload fully consumed");
        assert_eq!(loaded.cells, idx.cells);
        assert_eq!(loaded.approximation_bytes(), idx.approximation_bytes());
        assert_eq!(loaded.quantizer.bits(), idx.quantizer.bits());
        for q in RandomWalkGenerator::new(5, 64).series_batch(4) {
            let query = Query::knn(q, 3);
            let mut s_built = QueryStats::default();
            let mut s_loaded = QueryStats::default();
            let a = idx.answer(&query, &mut s_built).unwrap();
            let b = loaded.answer(&query, &mut s_loaded).unwrap();
            assert_eq!(a, b, "answers must be bit-identical");
            assert_eq!(s_built.raw_series_examined, s_loaded.raw_series_examined);
            assert_eq!(
                s_built.lower_bounds_computed,
                s_loaded.lower_bounds_computed
            );
        }
    }

    #[test]
    fn payload_with_impossible_bit_counts_is_rejected_not_panicking() {
        let (store, idx) = build(100, 64);
        let mut payload: Vec<u8> = Vec::new();
        idx.save_payload(&mut payload).unwrap();
        // Layout: series_length (8) + dims (8), then one bits byte per
        // dimension. 20 bits per dimension is beyond what training can
        // produce and must be a typed error, not a shift overflow.
        payload[16] = 20;
        let fresh = Arc::new(DatasetStore::new(store.dataset().clone()));
        let mut src = hydra_core::persist::SliceSource::new(&payload);
        match VaPlusFile::load_payload(fresh, &mut src) {
            Err(Error::InvalidSnapshot(msg)) => assert!(msg.contains("bits"), "{msg}"),
            Err(other) => panic!("expected InvalidSnapshot, got {other}"),
            Ok(_) => panic!("an impossible bit count must be rejected"),
        }
    }

    #[test]
    fn payload_for_a_different_store_size_is_rejected() {
        let (_, idx) = build(200, 64);
        let mut payload: Vec<u8> = Vec::new();
        idx.save_payload(&mut payload).unwrap();
        let small = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(41, 64).dataset(50),
        ));
        let mut src = hydra_core::persist::SliceSource::new(&payload);
        match VaPlusFile::load_payload(small, &mut src) {
            Err(Error::InvalidSnapshot(_)) => {}
            Err(other) => panic!("expected InvalidSnapshot, got {other}"),
            Ok(_) => panic!("a mismatched store must be rejected"),
        }
    }
}
