//! ADS+, the adaptive data series index, with the SIMS exact-search algorithm.
//!
//! ADS+ builds the iSAX tree using **only the summaries** of the raw series —
//! leaves hold series positions and SAX words, never raw values — which makes
//! index construction dramatically cheaper than iSAX2+ (the paper's Figure 6a).
//! The cost is shifted to query time. Exact search (and the ε and δ-ε modes)
//! uses SIMS, here at two resolutions ([`Sims`]):
//!
//! 1. a **coarse pass** lower-bounds *every* series from the top 6 bits of
//!    its iSAX symbols, held as `u8` segment-major in blocks of 64 series:
//!    one per-query table of 16 × 64 MINDIST terms, quantized down to `u8`
//!    units and summed in `u16`, so a block's segment is one AVX-512 VBMI
//!    `vpermb` where the CPU has it, four AVX2 `vpshufb` lookups per 32
//!    series where it has AVX2 only ([`hydra_transforms::sweep`]). A coarse
//!    symbol's interval holds its full symbols', so the coarse bound never
//!    exceeds the full one (Seidl and Kriegel's optimal multi-step k-NN,
//!    with product quantization's register-held "fast scan" tables);
//! 2. **certified seeds**: the full bounds of the `2k` series with the
//!    lowest coarse sums give a cutoff `F`; every series whose coarse sum
//!    is within `F` is bounded at full resolution, and the seeds are the
//!    `2k` smallest of those — exactly the `2k` best full bounds of the
//!    whole collection, in `(bound, id)` order. They are read (random
//!    accesses) and refined first, so the best-so-far (bsf) is tight
//!    before any skip is decided — as MESSI and Hercules seed theirs from
//!    the best summaries rather than from one leaf;
//! 3. a **survivors-only skip-sequential pass**: every series whose coarse
//!    sum is below `bsf · shrink` survives, with its full bound; every
//!    other one has full ≥ coarse ≥ that limit, which only falls, so the
//!    pass would never refine it. The pass walks the survivors in file
//!    order, reads only those whose full bound is below the bsf, skipping
//!    (seeking over) the pruned ones at page granularity — a run bridges
//!    bounded-out series up to the page after its last one — and refines
//!    the bsf as it goes. It reads exactly the series and pages a pass
//!    over every full bound would.
//!
//! Each pass scales its threshold (`F`, then the post-seed limit) to about
//! a thousand units and re-runs when the scale it has leaves the threshold
//! too coarse or too fine. Once a quarter of the series need a full bound
//! (the hardest controlled queries), one blocked sweep bounds them all, the
//! coarse sums are freed and every series survives with its swept bound
//! ([`Survivors::Every`]), as in a single-resolution pass. A query whose PAA
//! holds a NaN or ±∞ has no coarse bound: every series is bounded at full
//! resolution.
//! `QueryStats::lower_bounds_computed` counts full-resolution bounds only.
//!
//! The ng-approximate mode instead answers from one leaf: the tree descent
//! to the covering leaf (or the MINDIST-nearest one).
//!
//! Steps 2 and 3 (and the ng leaf) run through the scan-side driver,
//! [`hydra_storage::refine`] ([`Refiner::skip_sequential`] over the seeds
//! and the survivors, an id list for the leaf), which owns the query frame
//! and the budgeted per-candidate step; ADS+ supplies the descent, the
//! bounds and the kernels.
//!
//! Every skip is a random disk access — the behaviour that makes ADS+ the
//! fastest method to build but sensitive to seek latency on HDDs (and very
//! fast on SSDs), exactly the trade-off the paper analyses.
//!
//! [`Refiner::skip_sequential`]: hydra_storage::refine::Refiner::skip_sequential

use crate::tree::{IsaxTree, NodeKind};
use hydra_core::distance::{squared_euclidean, squared_euclidean_early_abandon};
use hydra_core::persist::{PersistentIndex, SnapshotSink, SnapshotSource};
use hydra_core::simd::{self, Kernel};
use hydra_core::{
    parallel, AnswerMode, AnswerSet, AnsweringMethod, BuildOptions, Dataset, Error, ExactIndex,
    IndexFootprint, MethodDescriptor, ModeCapabilities, Query, QueryStats, Result,
};
use hydra_storage::refine::{self, smallest, EarlyAbandon, Full, Survivors};
use hydra_storage::DatasetStore;
use hydra_transforms::sax::SaxParams;
use hydra_transforms::{BoundSweep, CoarseArm, CoarseBlocks, CoarsePass, SummaryBlocks};
use std::sync::Arc;

/// The ADS+ adaptive index.
pub struct AdsPlus {
    store: Arc<DatasetStore>,
    tree: IsaxTree,
    /// Full-cardinality SAX symbols of every series, in dataset order and
    /// blocked segment-major (the in-memory summary array SIMS bounds).
    summaries: SummaryBlocks,
    /// The same symbols cut to their top bits, blocked by 64 (the array
    /// SIMS' coarse pass reads).
    coarse: CoarseBlocks,
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
        let summaries = SummaryBlocks::from_rows(options.segments, &summaries);
        // Only the summaries are written out: the index is tiny on disk.
        let summary_bytes = store.len() * options.segments * 2;
        store.record_index_write(summary_bytes as u64);
        Ok(Self::assemble(store, tree, summaries))
    }

    /// The index over `tree` and its dataset-order `summaries`, with the
    /// coarse array derived from them.
    fn assemble(store: Arc<DatasetStore>, tree: IsaxTree, summaries: SummaryBlocks) -> Self {
        let params = tree.params();
        let shift = params.max_bits() - params.coarse_bits();
        let coarse = CoarseBlocks::new(&summaries, u32::from(shift));
        Self {
            store,
            tree,
            summaries,
            coarse,
        }
    }

    /// The underlying iSAX tree.
    pub fn tree(&self) -> &IsaxTree {
        &self.tree
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }
}

/// A coarse limit below this many units per dimension resolves too little
/// (each term loses up to a unit to rounding): the pass re-runs at the
/// threshold's own scale.
const RERUN_BELOW_PER_DIM: u32 = 4;

/// A coarse limit above this many units per dimension leaves too many terms
/// at the cap: the pass re-runs at the threshold's own scale.
const RERUN_ABOVE_PER_DIM: u32 = 128;

/// One query's two-resolution SIMS bounds: the coarse sums of every
/// series, and the full-resolution bound of only the series they cannot
/// rule out. [`Sims::seeds`] certifies the seeds, then [`Sims::survivors`]
/// lists the series the skip-sequential pass may visit.
pub struct Sims<'a> {
    summaries: &'a SummaryBlocks,
    coarse: &'a CoarseBlocks,
    full: BoundSweep<'a>,
    pass: CoarsePass,
    /// The full bounds' dispatch tier.
    kernel: Kernel,
    /// The coarse pass's arm, picked by `kernel`.
    arm: CoarseArm,
    /// Whether every PAA value of the query is finite: a NaN or ±∞ one has
    /// no coarse bound, and every series is bounded in full.
    finite: bool,
    /// Every series' coarse sum at `pass.scale()`.
    sums: Vec<u16>,
    /// Full bounds computed and kept, ascending by id.
    bounded: Vec<(usize, f64)>,
    /// Every series' full bound, once so many are needed that one blocked
    /// sweep is cheaper than bounding them one at a time.
    dense: Vec<f64>,
    /// Full bounds computed.
    computed: u64,
}

impl<'a> Sims<'a> {
    /// The bounds of the query `query_paa` over `summaries` (full symbols
    /// of `params`) and their `coarse` array, on `kernel`'s arms.
    pub fn new(
        params: &'a SaxParams,
        summaries: &'a SummaryBlocks,
        coarse: &'a CoarseBlocks,
        query_paa: &[f32],
        kernel: Kernel,
    ) -> Self {
        Self {
            summaries,
            coarse,
            full: params.sweep(query_paa, summaries.len()),
            pass: params.coarse_pass(query_paa),
            kernel,
            arm: CoarseArm::for_kernel(kernel),
            finite: query_paa.iter().all(|v| v.is_finite()),
            sums: Vec::new(),
            bounded: Vec::new(),
            dense: Vec::new(),
            computed: 0,
        }
    }

    /// Full-resolution bounds computed so far: every series' when one
    /// blocked sweep bounded them all.
    pub fn computed(&self) -> u64 {
        self.computed
    }

    /// Re-runs the coarse pass at `scale`.
    fn rescale(&mut self, scale: f64) {
        self.pass.quantize(scale);
        self.pass.sums_with(self.arm, self.coarse, &mut self.sums);
    }

    /// Whether the current sums resolve `threshold` finely enough.
    fn resolves(&self, threshold: f64) -> bool {
        let dims = self.pass.dims() as u32;
        let limit = u32::from(self.pass.limit(threshold));
        (RERUN_BELOW_PER_DIM * dims..=RERUN_ABOVE_PER_DIM * dims).contains(&limit)
    }

    /// In debug builds: series `id`'s coarse sum is within the limit of its
    /// full `bound`, as the coarse bound's promise requires.
    fn check(&self, id: usize, bound: f64) {
        debug_assert!(
            self.sums[id] <= self.pass.limit(bound),
            "series {id}: coarse sum {} above the limit {} of its full bound {bound} (scale {})",
            self.sums[id],
            self.pass.limit(bound),
            self.pass.scale()
        );
    }

    /// Bounds every series in full in one blocked sweep, once per query.
    /// From then on every bound is read from `dense`, and neither `bounded`
    /// nor a coarse sum is, so both are freed: a query that bounds every
    /// series holds about what a single-resolution query would.
    fn bound_all(&mut self) {
        if self.dense.is_empty() {
            self.bounded = Vec::new();
            self.full
                .sweep_with(self.kernel, self.summaries, &mut self.dense);
            self.computed = self.dense.len() as u64;
            if cfg!(debug_assertions) && self.finite {
                for (id, &bound) in self.dense.iter().enumerate() {
                    self.check(id, bound);
                }
            }
            self.sums = Vec::new();
        }
    }

    /// The ids whose coarse sum is within the limit of `threshold`,
    /// ascending; `None`, with every series bounded in full, once `1 /
    /// DENSE_SHARE` of the series are (or every series already is bounded).
    fn within(&mut self, threshold: f64) -> Option<Vec<u32>> {
        if self.dense.is_empty() {
            let limit = self.pass.limit(threshold);
            let cap = self.summaries.len() / DENSE_SHARE;
            if let Some(ids) = at_most(&self.sums, limit, cap) {
                return Some(ids);
            }
            self.bound_all();
        }
        None
    }

    /// The `m` smallest full bounds computed, by `(bound, id)`.
    fn smallest_known(&self, m: usize) -> Vec<(usize, f64)> {
        if !self.dense.is_empty() {
            return smallest(&self.dense, m);
        }
        // `bounded` ascends by id, so a tie on the bound breaks by position
        // as it would by id.
        let bounds: Vec<f64> = self.bounded.iter().map(|&(_, bound)| bound).collect();
        (smallest(&bounds, m).into_iter())
            .map(|(at, _)| self.bounded[at])
            .collect()
    }

    /// SIMS step 2's seeds: exactly `smallest(full bounds, m)`, certified.
    /// Any `m` series' full bounds give a cutoff `F`, the largest of them:
    /// at least `m` series are bounded at or below it, so every seed is
    /// too, and every seed's coarse sum is within `F`'s limit. `F` comes
    /// from the series with the `m` lowest coarse sums; every series within
    /// its limit is bounded in full, and the seeds are their `m` smallest,
    /// in `(bound, id)` order. A pass whose scale leaves `F` unresolved
    /// re-runs at `F`'s own scale and picks again. A query whose PAA holds
    /// a NaN or ±∞ skips the coarse pass: every series is bounded in full,
    /// and every one survives.
    pub fn seeds(&mut self, m: usize) -> Vec<(usize, f64)> {
        let m = m.min(self.summaries.len());
        if !self.finite {
            self.bound_all();
        }
        if m == 0 || !self.dense.is_empty() {
            return self.smallest_known(m);
        }
        let mut scale = self.pass.scale_for(self.pass.provisional());
        let mut cutoff = f64::INFINITY;
        for _ in 0..MAX_SEED_PASSES {
            self.rescale(scale);
            // The ids of the `m` smallest `(sum, id)`, ascending.
            let mut lowest: Vec<u32> = (smallest(&self.sums, m).into_iter())
                .map(|(id, _)| id as u32)
                .collect();
            lowest.sort_unstable();
            if lowest.len() >= self.summaries.len() / DENSE_SHARE {
                self.bound_all();
            } else {
                self.bound_ids(&lowest, true, f64::INFINITY);
            }
            // The `m`-th smallest full bound known: the largest of `m`.
            cutoff = self.smallest_known(m)[m - 1].1;
            if !self.dense.is_empty() || self.resolves(cutoff) {
                break;
            }
            scale = self.pass.scale_for(cutoff);
        }
        if let Some(certified) = self.within(cutoff) {
            self.bound_ids(&certified, false, f64::INFINITY);
        }
        self.smallest_known(m)
    }

    /// SIMS step 3's survivors under the post-seed `limit`: every series
    /// whose full bound is not above it, with that bound, found among those
    /// whose coarse sum is within it (or, once so many are that every
    /// series is bounded in full, among all). Every other series has a full
    /// bound at or above `limit`, which only falls, so the skip-sequential
    /// pass would never refine it.
    pub fn survivors(&mut self, limit: f64) -> Survivors {
        if self.dense.is_empty() && limit.is_finite() && !self.resolves(limit) {
            self.rescale(self.pass.scale_for(limit));
        }
        match self.within(limit) {
            Some(ids) => {
                self.bound_ids(&ids, false, limit);
                std::mem::take(&mut self.bounded).into_iter().collect()
            }
            None => Survivors::Every(std::mem::take(&mut self.dense)),
        }
    }

    /// Leaves in `bounded` the full bounds of `ids` (ascending) that are at
    /// most `at_most` — with `keep`, beside those it already held —
    /// bounding each series at most once per query.
    fn bound_ids(&mut self, ids: &[u32], keep: bool, at_most: f64) {
        let mut known = std::mem::take(&mut self.bounded).into_iter().peekable();
        let mut merged = Vec::with_capacity(ids.len() + if keep { known.len() } else { 0 });
        for id in ids.iter().map(|&id| id as usize) {
            while let Some(entry) = known.next_if(|&(k, _)| k < id) {
                if keep {
                    merged.push(entry);
                }
            }
            let bound = match known.next_if(|&(k, _)| k == id) {
                Some((_, bound)) => bound,
                None => {
                    self.computed += 1;
                    self.full.bound(self.summaries, id)
                }
            };
            self.check(id, bound);
            if bound <= at_most {
                merged.push((id, bound));
            }
        }
        if keep {
            merged.extend(known);
        }
        self.bounded = merged;
    }
}

/// A query that needs the full bounds of at least `1 / DENSE_SHARE` of the
/// series sweeps them all: bounding one series alone costs two to four
/// times its share of a blocked sweep. The seeds and the survivors share
/// the threshold.
const DENSE_SHARE: usize = 4;

/// Coarse passes the seed certification runs at most.
const MAX_SEED_PASSES: u32 = 3;

/// Sums tested against a limit in one branch-free pass.
const SCAN_GROUP: usize = 32;

/// The ids whose sum is at most `limit`, ascending, or `None` when there
/// are `cap` or more: counted first (one vectorized compare per sum), so a
/// query that will bound every series in full collects no ids.
fn at_most(sums: &[u16], limit: u16, cap: usize) -> Option<Vec<u32>> {
    let count = sums
        .iter()
        .fold(0u32, |n, &sum| n + u32::from(sum <= limit)) as usize;
    if count >= cap {
        return None;
    }
    let mut ids = Vec::with_capacity(count);
    for (group, chunk) in (0u32..).step_by(SCAN_GROUP).zip(sums.chunks(SCAN_GROUP)) {
        let mut within = (0..)
            .zip(chunk)
            .fold(0u32, |mask, (i, &sum)| mask | u32::from(sum <= limit) << i);
        while within != 0 {
            ids.push(group + within.trailing_zeros());
            within &= within - 1;
        }
    }
    Some(ids)
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
    /// driver: the coarse pass and the certified seeds, then the
    /// survivors-only skip-sequential raw-file pass, or the ng-approximate
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
            let kernel = EarlyAbandon(|values: &[f32], threshold| {
                squared_euclidean_early_abandon(query.values(), values, threshold)
            });
            let (summaries, coarse) = (&self.summaries, &self.coarse);
            let mut sims = Sims::new(params, summaries, coarse, &query_paa, simd::active_kernel());
            let seeds = sims.seeds(refiner.seed_count());
            let result = refiner.skip_sequential(&seeds, |limit| sims.survivors(limit), kernel);
            refiner.stats.record_lower_bounds(sims.computed());
            result
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
        let mut summaries = SummaryBlocks::zeroed(segments, store.len());
        for (ids, words) in tree.leaf_blocks() {
            for (&id, word) in ids.iter().zip(words.chunks_exact(segments)) {
                summaries.set(id as usize, word);
            }
        }
        Ok(Self::assemble(store, tree, summaries))
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
        let mut bounds = Vec::new();
        (idx.tree.params().sweep(&paa, store.len())).sweep(&idx.summaries, &mut bounds);
        // Every bound raised above the farthest distance: the seed's first
        // read is refined in full against an empty heap.
        let farthest = (0..store.len())
            .map(|id| squared_euclidean(query.values(), store.dataset().series(id).values()))
            .fold(0.0f64, f64::max)
            .sqrt();
        for bound in &mut bounds {
            *bound += farthest + 1.0;
        }
        let _ = refine::search(&store, &query, 3, &mut QueryStats::default(), |refiner| {
            let seeds = smallest(&bounds, refiner.seed_count());
            refiner.skip_sequential(
                &seeds,
                |_| Survivors::Every(bounds.clone()),
                Full(|v: &[f32]| squared_euclidean(query.values(), v)),
            )
        });
    }

    /// A coarse sum above the limit of its series' full bound trips the
    /// `Sims` assertion: here every series' coarse symbols sit at the far
    /// end of each segment from the query.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "above the limit")]
    fn a_coarse_sum_above_its_full_bound_fails_the_debug_assertion() {
        let (_, mut idx) = build(200, 64, 20);
        let q = RandomWalkGenerator::new(174, 64).series(2);
        let paa = idx.tree.params().paa().transform(q.values());
        let far: Vec<u16> = paa.iter().map(|&v| if v > 0.0 { 0 } else { 255 }).collect();
        idx.coarse = CoarseBlocks::new(&SummaryBlocks::from_rows(16, &far.repeat(200)), 2);
        let _ = idx.answer_simple(&Query::knn(q, 3));
    }

    /// `n` words of 16 segments from the LCG of the driver's seed test, each
    /// symbol one of `distinct` values spread over the 256-symbol alphabet
    /// (both edge symbols included): long runs of tied bounds.
    fn lcg_words(n: usize, seed: u64, distinct: u64) -> Vec<u16> {
        let mut state = seed;
        let step = 255 / distinct.saturating_sub(1).max(1);
        (0..n * 16)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % distinct * step).min(255) as u16
            })
            .collect()
    }

    /// `Sims`' certified seeds are `smallest` over every full bound — ids,
    /// order and bound bits — and its survivors under a limit hold every
    /// series bounded below it, with its full bound, on both arms.
    fn assert_certified(params: &SaxParams, words: &[u16], query_paa: &[f32], label: &str) {
        let summaries = SummaryBlocks::from_rows(16, words);
        let n = summaries.len();
        let shift = u32::from(params.max_bits() - params.coarse_bits());
        let coarse = CoarseBlocks::new(&summaries, shift);
        let mut full = Vec::new();
        params.sweep(query_paa, n).sweep(&summaries, &mut full);
        let all = || full.iter().copied().enumerate();
        let bits = |pairs: &[(usize, f64)]| -> Vec<(usize, u64)> {
            pairs.iter().map(|&(id, b)| (id, b.to_bits())).collect()
        };
        for kernel in [Kernel::Portable, simd::detected_kernel()] {
            for m in [1, 3, 20, n] {
                let m = m.min(n);
                let mut sims = Sims::new(params, &summaries, &coarse, query_paa, kernel);
                let seeds = sims.seeds(m);
                let expected = smallest(&full, m);
                assert_eq!(bits(&seeds), bits(&expected), "{label} m={m} {kernel:?}");
                let limit = seeds.last().map_or(f64::INFINITY, |&(_, b)| b * 1.5);
                let survivors = sims.survivors(limit);
                let survivors: Vec<(usize, f64)> = survivors.iter().collect();
                let kept: Vec<(usize, f64)> = survivors
                    .iter()
                    .filter(|&&(_, b)| b < limit)
                    .copied()
                    .collect();
                let below: Vec<(usize, f64)> = all().filter(|&(_, b)| b < limit).collect();
                assert_eq!(bits(&kept), bits(&below), "{label} m={m} {kernel:?}");
                assert!(survivors.is_sorted_by_key(|&(id, _)| id), "{label}");
                for &(id, bound) in &survivors {
                    assert_eq!(bound.to_bits(), full[id].to_bits(), "{label} id={id}");
                }
                assert!(sims.computed <= n as u64, "{label}");
            }
        }
    }

    #[test]
    fn certified_seeds_are_the_smallest_full_bounds_on_tie_heavy_words() {
        let params = SaxParams::new(250, 16, 8);
        let query = RandomWalkGenerator::new(176, 250).series(4);
        let query_paa = params.paa().transform(query.values());
        for (n, distinct) in [(1usize, 1u64), (700, 3), (5000, 40), (5000, 256)] {
            let words = lcg_words(n, 29 + n as u64, distinct);
            assert_certified(
                &params,
                &words,
                &query_paa,
                &format!("n={n} distinct={distinct}"),
            );
        }
    }

    /// The golden search data: random walks of 250 values, 24 scattered
    /// copies of one series and five constant series, queried by walks, a
    /// member, the duplicated series, the zero series and a perturbed
    /// member.
    #[test]
    fn certified_seeds_are_the_smallest_full_bounds_on_duplicates_and_constants() {
        let walks = RandomWalkGenerator::new(1401, 250);
        let mut data = Dataset::empty(250);
        for i in 0..360u64 {
            data.push(walks.series(i).values());
            if i % 15 == 0 {
                data.push(walks.series(1000).values());
            }
        }
        for level in [0.0f32, 0.0, 0.0, 1.5, -2.0] {
            data.push(&vec![level; 250]);
        }
        let mut queries = RandomWalkGenerator::new(1402, 250).series_batch(2);
        queries.push(data.series(200).to_owned_series());
        queries.push(data.series(1).to_owned_series());
        queries.push(hydra_core::Series::new(vec![0.0; 250]));
        let params = SaxParams::new(250, 16, 8);
        let words: Vec<u16> = (0..data.len())
            .flat_map(|i| params.sax_word(data.series(i).values()).symbols)
            .collect();
        for (qi, q) in queries.iter().enumerate() {
            let query_paa = params.paa().transform(q.values());
            assert_certified(&params, &words, &query_paa, &format!("query {qi}"));
        }
    }

    #[test]
    fn sims_bounds_in_full_only_what_the_coarse_pass_cannot_rule_out() {
        let (store, idx) = build(4000, 64, 50);
        for q in RandomWalkGenerator::new(177, 64).series_batch(5) {
            let expected = brute_force_knn(store.dataset(), q.values(), 5);
            let mut stats = QueryStats::default();
            let got = idx.answer(&Query::knn(q, 5), &mut stats).unwrap();
            assert!(got.distances_match(&expected, 1e-4));
            assert!(
                stats.lower_bounds_computed < 2000,
                "{}",
                stats.lower_bounds_computed
            );
        }
    }

    #[test]
    fn a_query_with_a_non_finite_value_bounds_every_series_in_full() {
        let (store, idx) = build(300, 64, 20);
        for special in [f32::NAN, f32::INFINITY] {
            let mut values = RandomWalkGenerator::new(178, 64).series(0).into_values();
            values[5] = special;
            let mut stats = QueryStats::default();
            let got = idx
                .answer(&Query::knn(hydra_core::Series::new(values), 3), &mut stats)
                .unwrap();
            assert_eq!(got.len(), 3, "{special}");
            assert_eq!(stats.lower_bounds_computed, store.len() as u64, "{special}");
        }
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
