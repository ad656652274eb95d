//! A registry of the ten evaluated methods, buildable by name.
//!
//! [`MethodKind::build_boxed`] constructs any method as a
//! `Box<dyn AnsweringMethod>`, and [`MethodKind::engine`] wraps the result in
//! a measuring [`QueryEngine`] wired to the instrumented store — the single
//! code path the harness, the experiment binaries and the examples all drive.

use hydra_core::persist::PersistentIndex;
use hydra_core::{
    AnswerMode, AnsweringMethod, BuildOptions, Dataset, ModeCapabilities, QueryEngine, Result,
    RunClock,
};
use hydra_dstree::DsTree;
use hydra_isax::{AdsPlus, Isax2Plus};
use hydra_mtree::MTree;
use hydra_rtree::RStarTree;
use hydra_scan::{MassScan, Stepwise, UcrScan};
use hydra_serve::{QueryService, ServeConfig};
use hydra_sfa::SfaTrie;
use hydra_storage::{snapshot, DatasetStore};
use hydra_vafile::VaPlusFile;
use std::path::Path;
use std::sync::Arc;

/// The ten similarity search methods of the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// The optimized serial-scan baseline.
    UcrSuite,
    /// FFT-based whole-matching scan.
    Mass,
    /// Level-wise DHWT filter.
    Stepwise,
    /// DFT + non-uniform quantization filter file.
    VaPlusFile,
    /// iSAX tree with materialized leaves.
    Isax2Plus,
    /// Adaptive iSAX tree with SIMS skip-sequential exact search.
    AdsPlus,
    /// EAPCA-based adaptive tree.
    DsTree,
    /// Symbolic Fourier Approximation trie.
    SfaTrie,
    /// Spatial index over PAA summaries.
    RStarTree,
    /// Metric-space index.
    MTree,
}

impl MethodKind {
    /// All ten methods, in the order Table 1 lists them.
    pub const ALL: [MethodKind; 10] = [
        MethodKind::AdsPlus,
        MethodKind::DsTree,
        MethodKind::Isax2Plus,
        MethodKind::MTree,
        MethodKind::RStarTree,
        MethodKind::SfaTrie,
        MethodKind::VaPlusFile,
        MethodKind::UcrSuite,
        MethodKind::Mass,
        MethodKind::Stepwise,
    ];

    /// The six methods that survive the paper's individual evaluation
    /// (Section 4.3.2) and are compared in detail in Section 4.3.3.
    pub const BEST_SIX: [MethodKind; 6] = [
        MethodKind::AdsPlus,
        MethodKind::DsTree,
        MethodKind::Isax2Plus,
        MethodKind::SfaTrie,
        MethodKind::UcrSuite,
        MethodKind::VaPlusFile,
    ];

    /// The canonical display name.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::UcrSuite => "UCR-Suite",
            MethodKind::Mass => "MASS",
            MethodKind::Stepwise => "Stepwise",
            MethodKind::VaPlusFile => "VA+file",
            MethodKind::Isax2Plus => "iSAX2+",
            MethodKind::AdsPlus => "ADS+",
            MethodKind::DsTree => "DSTree",
            MethodKind::SfaTrie => "SFA trie",
            MethodKind::RStarTree => "R*-tree",
            MethodKind::MTree => "M-tree",
        }
    }

    /// Looks a method up by its canonical display name (the inverse of
    /// [`MethodKind::name`], which also matches the built method's
    /// `descriptor().name`).
    pub fn from_name(name: &str) -> Option<MethodKind> {
        MethodKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// True if the method builds a persistent index (false for scans and
    /// multi-step filters).
    pub fn is_index(&self) -> bool {
        !matches!(
            self,
            MethodKind::UcrSuite | MethodKind::Mass | MethodKind::Stepwise
        )
    }

    /// The answering modes this method supports (matches the built method's
    /// `descriptor().modes`, checked in the tests): the scans and multi-step
    /// filters are exact-only; the tree indexes and the VA+file answer every
    /// mode.
    pub fn modes(&self) -> ModeCapabilities {
        match self {
            MethodKind::UcrSuite | MethodKind::Mass | MethodKind::Stepwise => {
                ModeCapabilities::exact_only()
            }
            _ => ModeCapabilities::all(),
        }
    }

    /// Whether this method can answer queries in `mode`.
    pub fn supports_mode(&self, mode: AnswerMode) -> bool {
        self.modes().supports(mode)
    }

    /// Whether this method has a native batch kernel (matches the built
    /// method's `batch_answering()`, checked in the tests): UCR-Suite shares
    /// its one data pass across a batch; every other method answers batches
    /// through the engine's per-query fallback.
    pub fn supports_batch(&self) -> bool {
        matches!(self, MethodKind::UcrSuite)
    }

    /// Method-appropriate build options derived from shared defaults: the SFA
    /// trie uses the paper's tuned alphabet of 8, the R*-tree a smaller
    /// dimensionality, the M-tree a smaller leaf.
    pub fn tuned_options(&self, base: &BuildOptions, series_length: usize) -> BuildOptions {
        let mut o = base.clone();
        o.segments = o.segments.min(series_length);
        match self {
            MethodKind::SfaTrie => o.with_alphabet_size(8),
            MethodKind::RStarTree => {
                let segments = o.segments.min(8);
                o.with_segments(segments)
                    .with_leaf_capacity(base.leaf_capacity.clamp(2, 64))
            }
            MethodKind::MTree => o.with_leaf_capacity(base.leaf_capacity.clamp(2, 64)),
            _ => o,
        }
    }

    /// Builds this method over an instrumented store with (method-tuned)
    /// options, as the uniform dyn-dispatch interface.
    pub fn build_boxed_on_store(
        &self,
        store: Arc<DatasetStore>,
        options: &BuildOptions,
    ) -> Result<Box<dyn AnsweringMethod>> {
        let tuned = self.tuned_options(options, store.series_length());
        Ok(match self {
            MethodKind::UcrSuite => Box::new(UcrScan::new(store)),
            MethodKind::Mass => Box::new(MassScan::new(store)),
            MethodKind::Stepwise => Box::new(Stepwise::build(store)?),
            MethodKind::VaPlusFile => Box::new(VaPlusFile::build_on_store(store, &tuned)?),
            MethodKind::Isax2Plus => Box::new(Isax2Plus::build_on_store(store, &tuned)?),
            MethodKind::AdsPlus => Box::new(AdsPlus::build_on_store(store, &tuned)?),
            MethodKind::DsTree => Box::new(DsTree::build_on_store(store, &tuned)?),
            MethodKind::SfaTrie => Box::new(SfaTrie::build_on_store(store, &tuned)?),
            MethodKind::RStarTree => Box::new(RStarTree::build_on_store(store, &tuned)?),
            MethodKind::MTree => Box::new(MTree::build_on_store(store, &tuned)?),
        })
    }

    /// Builds this method over `dataset` (wrapping it in a fresh instrumented
    /// store) as the uniform dyn-dispatch interface.
    pub fn build_boxed(
        &self,
        dataset: &Dataset,
        options: &BuildOptions,
    ) -> Result<Box<dyn AnsweringMethod>> {
        self.build_boxed_on_store(Arc::new(DatasetStore::new(dataset.clone())), options)
    }

    /// Builds this method over an instrumented store and wraps it in a
    /// [`QueryEngine`] wired to the store's I/O counters.
    ///
    /// Construction time and I/O are measured and recorded on the engine, and
    /// the counters are reset afterwards so the first query starts clean.
    pub fn engine_on_store(
        &self,
        store: Arc<DatasetStore>,
        options: &BuildOptions,
    ) -> Result<QueryEngine> {
        store.reset_io();
        let clock = RunClock::start();
        let method = self.build_boxed_on_store(store.clone(), options)?;
        let build_time = clock.elapsed();
        let build_io = store.io_snapshot();
        store.reset_io();
        Ok(QueryEngine::new(method, store.len())
            .with_io_source(store)
            .with_build_measurement(build_time, build_io))
    }

    /// Builds this method over `dataset` and wraps it in a measuring
    /// [`QueryEngine`] (see [`MethodKind::engine_on_store`]).
    pub fn engine(&self, dataset: &Dataset, options: &BuildOptions) -> Result<QueryEngine> {
        self.engine_on_store(Arc::new(DatasetStore::new(dataset.clone())), options)
    }

    /// Whether this method can persist its built index as an on-disk snapshot
    /// (see [`hydra_core::persist::PersistentIndex`]).
    pub fn supports_snapshots(&self) -> bool {
        matches!(
            self,
            MethodKind::VaPlusFile
                | MethodKind::Isax2Plus
                | MethodKind::AdsPlus
                | MethodKind::DsTree
                | MethodKind::SfaTrie
        )
    }

    /// Builds this method with the snapshot cache under `index_dir`: a valid
    /// snapshot (matching dataset fingerprint and tuned build options) is
    /// loaded instead of rebuilding; otherwise the method is built fresh and
    /// a snapshot is saved for the next run. Methods without snapshot support
    /// always build fresh.
    ///
    /// Snapshot reads and writes go through real file I/O charged to the
    /// store's counters, so they show up in the build measurement exactly
    /// like the modelled index writes they replace.
    pub fn build_boxed_with_snapshot(
        &self,
        store: Arc<DatasetStore>,
        options: &BuildOptions,
        index_dir: &Path,
    ) -> Result<(Box<dyn AnsweringMethod>, SnapshotOutcome)> {
        let tuned = self.tuned_options(options, store.series_length());
        match self {
            MethodKind::VaPlusFile => {
                snapshot_cycle(store, &tuned, index_dir, VaPlusFile::build_on_store)
            }
            MethodKind::Isax2Plus => {
                snapshot_cycle(store, &tuned, index_dir, Isax2Plus::build_on_store)
            }
            MethodKind::AdsPlus => {
                snapshot_cycle(store, &tuned, index_dir, AdsPlus::build_on_store)
            }
            MethodKind::DsTree => snapshot_cycle(store, &tuned, index_dir, DsTree::build_on_store),
            MethodKind::SfaTrie => {
                snapshot_cycle(store, &tuned, index_dir, SfaTrie::build_on_store)
            }
            _ => {
                debug_assert!(
                    !self.supports_snapshots(),
                    "{}: supports_snapshots() promises a snapshot path this match does not provide",
                    self.name()
                );
                Ok((
                    self.build_boxed_on_store(store, options)?,
                    SnapshotOutcome::Unsupported,
                ))
            }
        }
    }

    /// Like [`MethodKind::engine_on_store`], but routed through the snapshot
    /// cache under `index_dir` (see [`MethodKind::build_boxed_with_snapshot`]).
    /// The engine's build measurement covers whichever path ran: a counted
    /// snapshot load, or a fresh build plus the snapshot save.
    pub fn engine_with_snapshot(
        &self,
        store: Arc<DatasetStore>,
        options: &BuildOptions,
        index_dir: &Path,
    ) -> Result<(QueryEngine, SnapshotOutcome)> {
        store.reset_io();
        let clock = RunClock::start();
        let (method, outcome) =
            self.build_boxed_with_snapshot(store.clone(), options, index_dir)?;
        let build_time = clock.elapsed();
        let build_io = store.io_snapshot();
        store.reset_io();
        let engine = QueryEngine::new(method, store.len())
            .with_io_source(store)
            .with_build_measurement(build_time, build_io);
        Ok((engine, outcome))
    }

    /// Builds a sharded [`QueryService`] serving this method: the dataset is
    /// partitioned into `config.shards` contiguous ranges and a fresh
    /// per-shard engine (see [`MethodKind::engine_on_store`]) is built over
    /// each partition.
    pub fn service(
        &self,
        dataset: &Dataset,
        options: &BuildOptions,
        config: ServeConfig,
    ) -> Result<QueryService> {
        let kind = *self;
        let options = options.clone();
        QueryService::build(dataset, config, move |_, store| {
            kind.engine_on_store(store, &options)
        })
    }

    /// Like [`MethodKind::service`], but each shard's engine goes through the
    /// snapshot cache (see [`MethodKind::engine_with_snapshot`]) under its own
    /// `<index_dir>/shard-<i>-of-<n>` directory, so a restarted service
    /// reloads its per-shard indexes instead of rebuilding them. The shard
    /// count is part of the directory name because each shard's snapshot is
    /// fingerprinted over its *partition*, not the full dataset: snapshots
    /// from different shard counts must not shadow each other.
    pub fn service_with_snapshot(
        &self,
        dataset: &Dataset,
        options: &BuildOptions,
        config: ServeConfig,
        index_dir: &Path,
    ) -> Result<QueryService> {
        let kind = *self;
        let options = options.clone();
        let index_dir = index_dir.to_path_buf();
        let shard_count = config.shards;
        QueryService::build(dataset, config, move |shard, store| {
            let shard_dir = index_dir.join(format!("shard-{shard}-of-{shard_count}"));
            kind.engine_with_snapshot(store, &options, &shard_dir)
                .map(|(engine, _)| engine)
        })
    }
}

/// How a snapshot-aware build satisfied the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotOutcome {
    /// The method does not persist snapshots; it was built fresh.
    Unsupported,
    /// A valid snapshot of `bytes` bytes was loaded; the rebuild was skipped.
    Loaded {
        /// Size of the snapshot file read.
        bytes: u64,
    },
    /// No snapshot existed yet; the index was built fresh and a snapshot of
    /// `bytes` bytes was saved.
    Saved {
        /// Size of the snapshot file written.
        bytes: u64,
    },
    /// A snapshot existed but was corrupt or stale: the damaged file was
    /// quarantined (renamed `*.corrupt`), the index rebuilt fresh, and a
    /// replacement snapshot of `bytes` bytes saved.
    Recovered {
        /// Size of the replacement snapshot file written.
        bytes: u64,
    },
}

impl SnapshotOutcome {
    /// Whether a snapshot load satisfied the build (the rebuild was skipped).
    pub fn loaded(&self) -> bool {
        matches!(self, SnapshotOutcome::Loaded { .. })
    }

    /// Whether a damaged snapshot was quarantined and replaced.
    pub fn recovered(&self) -> bool {
        matches!(self, SnapshotOutcome::Recovered { .. })
    }
}

/// One load-or-build-and-save round through the snapshot cache. A missing
/// file falls back to a fresh build and save; a damaged or stale file is
/// first quarantined (renamed `*.corrupt`) so the rebuilt snapshot replaces
/// it cleanly and the evidence survives for inspection, and the outcome is
/// reported as [`SnapshotOutcome::Recovered`].
fn snapshot_cycle<I, F>(
    store: Arc<DatasetStore>,
    tuned: &BuildOptions,
    index_dir: &Path,
    build: F,
) -> Result<(Box<dyn AnsweringMethod>, SnapshotOutcome)>
where
    I: PersistentIndex<Context = Arc<DatasetStore>> + 'static,
    F: FnOnce(Arc<DatasetStore>, &BuildOptions) -> Result<I>,
{
    #[expect(
        clippy::disallowed_methods,
        reason = "dir setup only; index bytes use the counted SnapshotSink"
    )]
    std::fs::create_dir_all(index_dir)?;
    // Hash the dataset exactly once per cycle: the same fingerprints name the
    // file and validate its header on load / stamp it on save.
    let dataset_fp = snapshot::dataset_fingerprint(store.dataset());
    let options_fp = snapshot::options_fingerprint(tuned);
    let path = index_dir.join(snapshot::snapshot_file_name(
        I::snapshot_kind(),
        dataset_fp,
        options_fp,
    ));
    match snapshot::load_index_with::<I>(store.clone(), dataset_fp, options_fp, &path) {
        Ok((index, bytes)) => Ok((Box::new(index), SnapshotOutcome::Loaded { bytes })),
        Err(load_err) => {
            let damaged = matches!(
                load_err,
                hydra_core::Error::InvalidSnapshot(_) | hydra_core::Error::StaleSnapshot(_)
            );
            if damaged {
                snapshot::quarantine(&path)?;
            }
            let index = build(store.clone(), tuned)?;
            let bytes = snapshot::save_index_with(&index, &store, dataset_fp, options_fp, &path)?;
            let outcome = if damaged {
                SnapshotOutcome::Recovered { bytes }
            } else {
                SnapshotOutcome::Saved { bytes }
            };
            Ok((Box::new(index), outcome))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::Query;
    use hydra_data::RandomWalkGenerator;

    #[test]
    fn every_registered_method_builds_and_answers() {
        let data = RandomWalkGenerator::new(1, 64).dataset(120);
        let options = BuildOptions::default()
            .with_leaf_capacity(16)
            .with_train_samples(50);
        let query = Query::nearest_neighbor(data.series(3).to_owned_series());
        for kind in MethodKind::ALL {
            let mut engine = kind.engine(&data, &options).unwrap();
            assert_eq!(engine.descriptor().name, kind.name());
            assert_eq!(
                engine.footprint().is_some(),
                kind.is_index(),
                "{}",
                kind.name()
            );
            let ans = engine.answer(&query).unwrap().answers;
            assert_eq!(
                ans.nearest().unwrap().id,
                3,
                "{} missed the member query",
                kind.name()
            );
            assert_eq!(engine.queries_answered(), 1);
        }
    }

    #[test]
    fn all_ten_methods_match_the_ucr_baseline_through_build_boxed() {
        // The registry smoke test: every MethodKind built through the uniform
        // dyn interface must answer k-NN queries with exactly the brute-force
        // scan's distances (the paper's exactness invariant).
        let data = RandomWalkGenerator::new(7, 96).dataset(250);
        let options = BuildOptions::default()
            .with_leaf_capacity(25)
            .with_train_samples(100);
        let baseline = MethodKind::UcrSuite.build_boxed(&data, &options).unwrap();
        let queries: Vec<Query> = RandomWalkGenerator::new(1234, 96)
            .series_batch(4)
            .into_iter()
            .map(|s| Query::knn(s, 5))
            .collect();
        let expected_answers: Vec<_> = queries
            .iter()
            .map(|q| baseline.answer_simple(q).unwrap())
            .collect();
        for kind in MethodKind::ALL {
            let method = kind.build_boxed(&data, &options).unwrap();
            for (qi, (query, expected)) in queries.iter().zip(&expected_answers).enumerate() {
                let got = method.answer_simple(query).unwrap();
                assert!(
                    got.distances_match(expected, 1e-4),
                    "{} diverged from UCR-Suite on query {qi}: {:?} vs {:?}",
                    kind.name(),
                    got.answers(),
                    expected.answers(),
                );
            }
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch directory under the system temp dir"
    )]
    fn snapshot_support_matches_the_snapshot_build_path() {
        // supports_snapshots() must agree with what build_boxed_with_snapshot
        // actually does for every method, or snapshot_check would silently
        // skip a persistent method's verification.
        let data = RandomWalkGenerator::new(1, 32).dataset(60);
        let options = BuildOptions::default()
            .with_leaf_capacity(10)
            .with_train_samples(30);
        let dir = std::env::temp_dir().join(format!("hydra-registry-snap-{}", std::process::id()));
        for kind in MethodKind::ALL {
            let store = Arc::new(DatasetStore::new(data.clone()));
            let (_, outcome) = kind.engine_with_snapshot(store, &options, &dir).unwrap();
            assert_eq!(
                outcome != SnapshotOutcome::Unsupported,
                kind.supports_snapshots(),
                "{}",
                kind.name()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch directory under the system temp dir"
    )]
    fn corrupt_snapshot_is_quarantined_and_the_next_run_loads_clean() {
        let data = RandomWalkGenerator::new(5, 32).dataset(80);
        let options = BuildOptions::default()
            .with_leaf_capacity(10)
            .with_train_samples(30);
        let dir =
            std::env::temp_dir().join(format!("hydra-registry-quarantine-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kind = MethodKind::DsTree;
        let store = || Arc::new(DatasetStore::new(data.clone()));

        // First run: no snapshot yet, built fresh and saved.
        let (_, first) = kind.engine_with_snapshot(store(), &options, &dir).unwrap();
        assert!(matches!(first, SnapshotOutcome::Saved { .. }));

        // Damage the snapshot file in place.
        let snap_path = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_none_or(|e| e != "corrupt"))
            .expect("snapshot file exists");
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap_path, &bytes).unwrap();

        // Second run: the damaged file is quarantined and replaced.
        let (_, second) = kind.engine_with_snapshot(store(), &options, &dir).unwrap();
        assert!(second.recovered(), "got {second:?}");
        let mut quarantined = snap_path.clone().into_os_string();
        quarantined.push(".corrupt");
        assert!(
            std::path::Path::new(&quarantined).exists(),
            "damaged file kept for inspection"
        );

        // Third run: the replacement snapshot loads clean.
        let (_, third) = kind.engine_with_snapshot(store(), &options, &dir).unwrap();
        assert!(third.loaded(), "got {third:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registry_mode_capabilities_match_the_built_descriptors() {
        let data = RandomWalkGenerator::new(1, 32).dataset(60);
        let options = BuildOptions::default()
            .with_leaf_capacity(10)
            .with_train_samples(30);
        for kind in MethodKind::ALL {
            let method = kind.build_boxed(&data, &options).unwrap();
            assert_eq!(
                method.descriptor().modes,
                kind.modes(),
                "{} capability drift between registry and descriptor",
                kind.name()
            );
            assert!(kind.supports_mode(AnswerMode::Exact), "{}", kind.name());
        }
    }

    #[test]
    fn registry_batch_capability_matches_the_built_methods() {
        let data = RandomWalkGenerator::new(1, 32).dataset(60);
        let options = BuildOptions::default()
            .with_leaf_capacity(10)
            .with_train_samples(30);
        for kind in MethodKind::ALL {
            let method = kind.build_boxed(&data, &options).unwrap();
            assert_eq!(
                method.batch_answering().is_some(),
                kind.supports_batch(),
                "{} batch-capability drift between registry and method",
                kind.name()
            );
        }
    }

    #[test]
    fn sharded_services_build_and_answer_for_any_method() {
        let data = RandomWalkGenerator::new(11, 48).dataset(90);
        let options = BuildOptions::default()
            .with_leaf_capacity(10)
            .with_train_samples(40);
        let query = Query::knn(data.series(7).to_owned_series(), 3);
        for kind in [MethodKind::UcrSuite, MethodKind::AdsPlus] {
            let unsharded = kind
                .engine(&data, &options)
                .unwrap()
                .answer(&query)
                .unwrap();
            let config = ServeConfig {
                shards: 3,
                ..ServeConfig::default()
            };
            let service = kind.service(&data, &options, config).unwrap();
            assert_eq!(service.shards().len(), 3, "{}", kind.name());
            let served = service.answer(query.clone()).unwrap();
            assert_eq!(
                served.answers,
                unsharded.answers,
                "{}: exact scatter-gather must match the unsharded engine",
                kind.name()
            );
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch directory under the system temp dir"
    )]
    fn snapshot_backed_services_reload_per_shard_indexes() {
        let data = RandomWalkGenerator::new(13, 32).dataset(60);
        let options = BuildOptions::default()
            .with_leaf_capacity(10)
            .with_train_samples(30);
        let dir =
            std::env::temp_dir().join(format!("hydra-registry-serve-snap-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = || ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        };
        let query = Query::knn(data.series(5).to_owned_series(), 4);
        let kind = MethodKind::DsTree;
        let cold = kind
            .service_with_snapshot(&data, &options, config(), &dir)
            .unwrap();
        let cold_answer = cold.answer(query.clone()).unwrap();
        // Each shard persisted under its own directory, keyed by shard count.
        for shard in 0..2 {
            let shard_dir = dir.join(format!("shard-{shard}-of-2"));
            assert!(shard_dir.is_dir(), "missing {}", shard_dir.display());
        }
        // A rebuilt service loads the per-shard snapshots and answers the same.
        let warm = kind
            .service_with_snapshot(&data, &options, config(), &dir)
            .unwrap();
        let warm_answer = warm.answer(query).unwrap();
        assert_eq!(warm_answer.answers, cold_answer.answers);
        assert_eq!(warm_answer.guarantee, cold_answer.guarantee);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn names_are_unique_and_best_six_is_a_subset() {
        let mut names: Vec<&str> = MethodKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 10);
        for k in MethodKind::BEST_SIX {
            assert!(MethodKind::ALL.contains(&k));
        }
    }

    #[test]
    fn tuned_options_respect_method_quirks() {
        let base = BuildOptions::default()
            .with_segments(16)
            .with_leaf_capacity(1000);
        assert_eq!(
            MethodKind::SfaTrie.tuned_options(&base, 256).alphabet_size,
            8
        );
        assert!(
            MethodKind::RStarTree
                .tuned_options(&base, 256)
                .leaf_capacity
                <= 64
        );
        assert!(MethodKind::MTree.tuned_options(&base, 256).leaf_capacity <= 64);
        assert_eq!(MethodKind::DsTree.tuned_options(&base, 8).segments, 8);
    }
}
