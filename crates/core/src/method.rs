//! The common interface implemented by every similarity search method.
//!
//! Each of the paper's ten methods — whether it is a sequential scan, a
//! multi-step filter or a pre-built index — answers whole-matching k-NN
//! queries in the [`AnswerMode`]s its [`ModeCapabilities`] declare. The
//! harness drives all of them through [`AnsweringMethod`]; methods that build
//! a persistent structure additionally implement [`ExactIndex`] and report
//! their footprint through [`IndexFootprint`].

use crate::knn::AnswerSet;
use crate::query::{AnswerMode, Query};
use crate::series::Dataset;
use crate::stats::QueryStats;
use crate::Result;

/// The set of [`AnswerMode`]s a method can answer, declared on its
/// [`MethodDescriptor`] and enforced at the engine boundary (a mode outside
/// the set is a typed [`crate::Error::UnsupportedMode`], never a silent exact
/// fallback).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModeCapabilities {
    /// Exact search (every method in the suite supports it).
    pub exact: bool,
    /// ng-approximate (single covering leaf) search.
    pub ng_approximate: bool,
    /// ε-approximate search (relaxed-pruning frontier traversal).
    pub epsilon_approximate: bool,
    /// δ-ε-approximate search (probabilistically relaxed ε search).
    pub delta_epsilon: bool,
}

impl ModeCapabilities {
    /// Exact search only (the scans and multi-step filters).
    pub const fn exact_only() -> Self {
        Self {
            exact: true,
            ng_approximate: false,
            epsilon_approximate: false,
            delta_epsilon: false,
        }
    }

    /// Every mode (the tree indexes).
    pub const fn all() -> Self {
        Self {
            exact: true,
            ng_approximate: true,
            epsilon_approximate: true,
            delta_epsilon: true,
        }
    }

    /// Whether queries in `mode` are answerable.
    pub fn supports(&self, mode: AnswerMode) -> bool {
        match mode {
            AnswerMode::Exact => self.exact,
            AnswerMode::NgApproximate => self.ng_approximate,
            AnswerMode::EpsilonApproximate { .. } => self.epsilon_approximate,
            AnswerMode::DeltaEpsilon { .. } => self.delta_epsilon,
        }
    }

    /// Whether any approximate mode is supported.
    pub fn any_approximate(&self) -> bool {
        self.ng_approximate || self.epsilon_approximate || self.delta_epsilon
    }
}

/// Static description of a method, mirroring Table 1 of the paper (extended
/// with the answering-mode capabilities of the sequel study).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodDescriptor {
    /// Canonical method name (e.g. `"iSAX2+"`, `"UCR-Suite"`).
    pub name: &'static str,
    /// The summarization / representation the method relies on
    /// (e.g. `"iSAX"`, `"EAPCA"`, `"raw"`).
    pub representation: &'static str,
    /// Whether the method builds a persistent index structure
    /// (false for sequential / multi-step scans).
    pub is_index: bool,
    /// The answering modes the method supports.
    pub modes: ModeCapabilities,
}

/// Options that control index construction, common across methods.
///
/// Not every method uses every knob: sequential scans ignore all of them, and
/// the leaf capacity is the paper's single most critical parameter (its
/// Figure 2 is devoted to tuning it per method).
#[derive(Clone, Debug, PartialEq)]
pub struct BuildOptions {
    /// Maximum number of series an index leaf may hold before splitting.
    pub leaf_capacity: usize,
    /// Number of segments / coefficients used by fixed-size summarizations
    /// (the paper fixes this to 16 for all methods).
    pub segments: usize,
    /// Alphabet size (cardinality) for symbolic summarizations
    /// (iSAX default 256, SFA tuned to 8 in the paper).
    pub alphabet_size: usize,
    /// Sample size used when a method learns breakpoints / quantization
    /// intervals from the data (SFA, VA+file, M-tree sampling).
    pub train_samples: usize,
    /// Number of worker threads index construction may use: `1` (the default)
    /// builds serially, `0` uses one thread per CPU, any other value is a
    /// fixed count. Tree methods guarantee the built index is identical for
    /// every thread count.
    pub build_threads: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            leaf_capacity: 100,
            segments: 16,
            alphabet_size: 256,
            train_samples: 1000,
            build_threads: 1,
        }
    }
}

impl BuildOptions {
    /// Sets the leaf capacity.
    pub fn with_leaf_capacity(mut self, leaf_capacity: usize) -> Self {
        self.leaf_capacity = leaf_capacity;
        self
    }

    /// Sets the number of segments / coefficients.
    pub fn with_segments(mut self, segments: usize) -> Self {
        self.segments = segments;
        self
    }

    /// Sets the alphabet size.
    pub fn with_alphabet_size(mut self, alphabet_size: usize) -> Self {
        self.alphabet_size = alphabet_size;
        self
    }

    /// Sets the number of training samples for learned quantizations.
    pub fn with_train_samples(mut self, train_samples: usize) -> Self {
        self.train_samples = train_samples;
        self
    }

    /// Sets the number of index-construction worker threads (`0` = one per
    /// CPU, `1` = serial).
    pub fn with_build_threads(mut self, build_threads: usize) -> Self {
        self.build_threads = build_threads;
        self
    }

    /// Validates the options against a dataset's series length.
    pub fn validate(&self, series_length: usize) -> Result<()> {
        if self.leaf_capacity == 0 {
            return Err(crate::Error::invalid_parameter(
                "leaf_capacity",
                "must be positive",
            ));
        }
        if self.segments == 0 {
            return Err(crate::Error::invalid_parameter(
                "segments",
                "must be positive",
            ));
        }
        if self.segments > series_length {
            return Err(crate::Error::invalid_parameter(
                "segments",
                format!("cannot exceed series length {series_length}"),
            ));
        }
        if self.alphabet_size < 2 {
            return Err(crate::Error::invalid_parameter(
                "alphabet_size",
                "must be at least 2",
            ));
        }
        Ok(())
    }
}

/// Structural footprint of an index, mirroring the measures of the paper's
/// Figure 8: node counts, memory / disk sizes, and leaf statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IndexFootprint {
    /// Total number of nodes (internal + leaf).
    pub total_nodes: usize,
    /// Number of leaf nodes.
    pub leaf_nodes: usize,
    /// Bytes of main memory occupied by the index structure (excluding raw data).
    pub memory_bytes: usize,
    /// Bytes occupied on (simulated) disk by index payloads.
    pub disk_bytes: usize,
    /// Fill factor of every leaf, as a fraction of the leaf capacity in `[0, 1]`.
    pub leaf_fill_factors: Vec<f64>,
    /// Depth of every leaf (root has depth 0).
    pub leaf_depths: Vec<usize>,
}

impl IndexFootprint {
    /// Mean leaf fill factor, or 0 if there are no leaves.
    pub fn mean_fill_factor(&self) -> f64 {
        if self.leaf_fill_factors.is_empty() {
            0.0
        } else {
            self.leaf_fill_factors.iter().sum::<f64>() / self.leaf_fill_factors.len() as f64
        }
    }

    /// Median leaf fill factor, or 0 if there are no leaves.
    pub fn median_fill_factor(&self) -> f64 {
        if self.leaf_fill_factors.is_empty() {
            return 0.0;
        }
        let mut v = self.leaf_fill_factors.clone();
        // total_cmp: a NaN fill factor (a degenerate leaf) must not scramble
        // the sort and with it which element lands in the middle.
        v.sort_by(|a, b| a.total_cmp(b));
        let mid = v.len() / 2;
        if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        }
    }

    /// Maximum leaf depth, or 0 if there are no leaves.
    pub fn max_leaf_depth(&self) -> usize {
        self.leaf_depths.iter().copied().max().unwrap_or(0)
    }

    /// Mean leaf depth, or 0 if there are no leaves.
    pub fn mean_leaf_depth(&self) -> f64 {
        if self.leaf_depths.is_empty() {
            0.0
        } else {
            self.leaf_depths.iter().sum::<usize>() as f64 / self.leaf_depths.len() as f64
        }
    }
}

/// A method able to answer whole-matching similarity queries.
///
/// The query's [`AnswerMode`] selects what `search` must deliver: in
/// [`AnswerMode::Exact`] it returns the *exact* answer set (the true k
/// nearest neighbours — the invariant validated throughout the test suite by
/// comparison against the brute-force scan); in the approximate modes it
/// returns a set tagged with the [`crate::knn::Guarantee`] it satisfies.
/// Queries in a mode outside [`MethodDescriptor::modes`] are rejected with a
/// typed [`crate::Error::UnsupportedMode`].
///
/// The trait is dyn-compatible: the engine and the bench registry drive all
/// ten methods of the paper uniformly as `Box<dyn AnsweringMethod>`.
///
/// `Send + Sync` are supertraits so that every built method can be shared
/// across the worker threads of [`crate::engine::QueryEngine::answer_workload`]
/// by reference: `search` takes `&self`, and any interior state a method needs
/// must therefore be thread-safe by construction.
pub trait AnsweringMethod: Send + Sync {
    /// Static description of the method (Table 1 row).
    fn descriptor(&self) -> MethodDescriptor;

    /// Answers a query in its requested mode with up to `threads` workers
    /// cooperating on it, recording work counters into `stats`. Every method
    /// has exactly this one answering body; `threads = 1` is the serial
    /// search.
    ///
    /// Only MASS splits work on `threads`: its distances are fixed and
    /// abandon-free, so workers precompute them from the in-memory dataset
    /// and its one counted pass offers them. Every other method searches
    /// serially whatever `threads` is, because on a 2-CPU host their
    /// fan-outs lost to the serial search (README "Intra-query parallelism
    /// & SIMD").
    ///
    /// # Contract (enforced by `tests/intra_query_agreement.rs`)
    ///
    /// For every supported [`AnswerMode`] and every `threads`, the returned
    /// `AnswerSet` (answers *and* guarantee) and the counters written into
    /// `stats` are **bit-identical** to `threads = 1`; only the wall-clock
    /// time fields may differ.
    fn search(&self, query: &Query, threads: usize, stats: &mut QueryStats) -> Result<AnswerSet>;

    /// Answers a query serially: `search(query, 1, stats)`.
    fn answer(&self, query: &Query, stats: &mut QueryStats) -> Result<AnswerSet> {
        self.search(query, 1, stats)
    }

    /// Answers a query, discarding statistics.
    fn answer_simple(&self, query: &Query) -> Result<AnswerSet> {
        let mut stats = QueryStats::default();
        self.answer(query, &mut stats)
    }

    /// The structural footprint, for methods that build an index.
    ///
    /// Sequential and multi-step scans return `None` (the default); index
    /// methods override this to expose [`ExactIndex::footprint`] through the
    /// trait object.
    fn index_footprint(&self) -> Option<IndexFootprint> {
        None
    }

    /// The method's native batch kernel, when it has one.
    ///
    /// The default is `None`: [`crate::engine::QueryEngine::answer_batch`]
    /// then answers the batch through the per-query loop, so every method
    /// keeps working unchanged. UCR-Suite, whose query is one full data
    /// pass, overrides this to share that pass across a batch.
    fn batch_answering(&self) -> Option<&dyn BatchAnswering> {
        None
    }
}

/// The opt-in batched answering capability: one shared data pass answers a
/// whole batch of queries.
///
/// The paper's cost model is dominated by data passes — a scan pays one full
/// sequential sweep *per query*. A method that can amortize that pass across
/// Q queries implements this trait and exposes it through
/// [`AnsweringMethod::batch_answering`]; methods without a native batch
/// kernel simply inherit the default (`None`) and the engine falls back to
/// the per-query loop.
///
/// # Contract (enforced by `tests/batch_agreement.rs`)
///
/// For every query `i`, the returned `AnswerSet` **and** the counters written
/// into `stats[i]` must be bit-identical to what the engine's serial
/// per-query path produces for `queries[i]` — including the store-reconciled
/// I/O attribution (see [`crate::stats::QueryStats::reconcile_io`]). Only the
/// wall-clock time fields may differ. The kernel must therefore keep each
/// query's best-so-far evolution independent and in the same candidate order
/// as the serial code path, and read through the same fallible store path,
/// so the batch meets the same faults and every query is charged the pages
/// its serial pass would observe.
///
/// Implementations may assume the engine has already routed modes (every
/// query's [`AnswerMode`] is within the method's capabilities) but must still
/// validate lengths and dataset emptiness; any error makes the engine rerun
/// the batch through the per-query loop, which reproduces the serial error
/// semantics exactly.
pub trait BatchAnswering: Send + Sync {
    /// Answers all `queries` in one shared pass, writing query `i`'s work
    /// counters into `stats[i]`.
    ///
    /// `stats` has the same length as `queries` (zero-initialized by the
    /// engine).
    fn answer_batch(&self, queries: &[Query], stats: &mut [QueryStats]) -> Result<Vec<AnswerSet>>;
}

/// An index structure built over a dataset ahead of query time.
///
/// Dyn-compatible: only the constructor is restricted to sized `Self`, so a
/// built index can also be handled as `Box<dyn ExactIndex>` where the
/// footprint accessors are needed without the answering interface.
pub trait ExactIndex: AnsweringMethod {
    /// Builds the index over `dataset` with the given options.
    fn build(dataset: &Dataset, options: &BuildOptions) -> Result<Self>
    where
        Self: Sized;

    /// Reports the structural footprint of the built index.
    fn footprint(&self) -> IndexFootprint;

    /// The number of series indexed.
    fn num_series(&self) -> usize;

    /// The series length the index was built for.
    fn series_length(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{Answer, KnnHeap};
    use crate::series::Series;

    #[test]
    fn build_options_builder_pattern() {
        let o = BuildOptions::default()
            .with_leaf_capacity(500)
            .with_segments(8)
            .with_alphabet_size(16)
            .with_train_samples(42)
            .with_build_threads(4);
        assert_eq!(o.leaf_capacity, 500);
        assert_eq!(o.segments, 8);
        assert_eq!(o.alphabet_size, 16);
        assert_eq!(o.train_samples, 42);
        assert_eq!(o.build_threads, 4);
        assert_eq!(BuildOptions::default().build_threads, 1, "serial default");
    }

    #[test]
    fn build_options_validation() {
        let ok = BuildOptions::default().with_segments(16);
        assert!(ok.validate(256).is_ok());
        assert!(
            ok.validate(8).is_err(),
            "segments larger than length must fail"
        );
        assert!(BuildOptions::default()
            .with_leaf_capacity(0)
            .validate(256)
            .is_err());
        assert!(BuildOptions::default()
            .with_segments(0)
            .validate(256)
            .is_err());
        assert!(BuildOptions::default()
            .with_alphabet_size(1)
            .validate(256)
            .is_err());
    }

    #[test]
    fn footprint_statistics() {
        let fp = IndexFootprint {
            total_nodes: 7,
            leaf_nodes: 4,
            memory_bytes: 1024,
            disk_bytes: 4096,
            leaf_fill_factors: vec![1.0, 0.5, 0.25, 0.25],
            leaf_depths: vec![1, 2, 2, 3],
        };
        assert!((fp.mean_fill_factor() - 0.5).abs() < 1e-12);
        assert!((fp.median_fill_factor() - 0.375).abs() < 1e-12);
        assert_eq!(fp.max_leaf_depth(), 3);
        assert!((fp.mean_leaf_depth() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_fill_factor_is_nan_safe() {
        // A NaN fill factor (a degenerate leaf) must sort deterministically
        // (total_cmp puts NaN last) instead of scrambling the median.
        let fp = IndexFootprint {
            leaf_fill_factors: vec![0.75, f64::NAN, 0.25],
            ..Default::default()
        };
        assert_eq!(fp.median_fill_factor(), 0.75);
        let fp = IndexFootprint {
            leaf_fill_factors: vec![f64::NAN, 0.5, 0.25, 1.0],
            ..Default::default()
        };
        // Sorted: 0.25, 0.5, 1.0, NaN → median of the two middle finite values.
        assert_eq!(fp.median_fill_factor(), 0.75);
    }

    #[test]
    fn mode_capabilities_sets() {
        let scans = ModeCapabilities::exact_only();
        assert!(scans.supports(crate::query::AnswerMode::Exact));
        assert!(!scans.supports(crate::query::AnswerMode::NgApproximate));
        assert!(!scans.any_approximate());
        let trees = ModeCapabilities::all();
        assert!(trees.supports(crate::query::AnswerMode::NgApproximate));
        assert!(trees.supports(crate::query::AnswerMode::EpsilonApproximate { epsilon: 0.1 }));
        assert!(trees.supports(crate::query::AnswerMode::DeltaEpsilon {
            delta: 0.9,
            epsilon: 0.1
        }));
        assert!(trees.any_approximate());
    }

    #[test]
    fn footprint_empty_is_zero() {
        let fp = IndexFootprint::default();
        assert_eq!(fp.mean_fill_factor(), 0.0);
        assert_eq!(fp.median_fill_factor(), 0.0);
        assert_eq!(fp.max_leaf_depth(), 0);
        assert_eq!(fp.mean_leaf_depth(), 0.0);
    }

    /// A trivial brute-force method used to exercise the trait default impls.
    struct BruteForce {
        data: Dataset,
    }

    impl AnsweringMethod for BruteForce {
        fn descriptor(&self) -> MethodDescriptor {
            MethodDescriptor {
                name: "BruteForce",
                representation: "raw",
                is_index: false,
                modes: ModeCapabilities::exact_only(),
            }
        }

        fn search(
            &self,
            query: &Query,
            _threads: usize,
            stats: &mut QueryStats,
        ) -> Result<AnswerSet> {
            let k = query.knn_k("BruteForce")?;
            let mut heap = KnnHeap::new(k);
            for (i, s) in self.data.iter().enumerate() {
                let d = crate::distance::euclidean(query.values(), s.values());
                stats.record_raw_series_examined(1);
                heap.offer(i, d);
            }
            Ok(heap.into_answer_set())
        }
    }

    #[test]
    fn answering_method_default_answer_simple() {
        let data = Dataset::from_flat(vec![0.0, 0.0, 1.0, 1.0, 5.0, 5.0], 2);
        let m = BruteForce { data };
        let q = Query::nearest_neighbor(Series::new(vec![0.9, 0.9]));
        let ans = m.answer_simple(&q).unwrap();
        assert_eq!(
            ans.nearest(),
            Some(Answer::new(1, ans.nearest().unwrap().distance))
        );
        assert_eq!(ans.nearest().unwrap().id, 1);
    }
}
