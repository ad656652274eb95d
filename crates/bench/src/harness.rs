//! The experiment runner: timed builds, timed query workloads, extrapolation,
//! and platform cost models.
//!
//! Every method is driven through the uniform [`QueryEngine`] built by the
//! registry; the harness only adds workload iteration, extrapolation and the
//! platform cost models on top. Builds and workloads take the run's
//! [`RunConfig`] explicitly: snapshot directory, fault seed, threads, mode,
//! batch size and budget all come from it.

use crate::cli::RunConfig;
use crate::registry::{MethodKind, SnapshotOutcome};
use hydra_core::{
    BuildOptions, Dataset, IoSnapshot, Query, QueryEngine, QueryStats, Result, RetryPolicy,
};
use hydra_data::QueryWorkload;
use hydra_storage::{CostModel, DatasetStore, FaultConfig, FaultPlan, StorageProfile};
use std::sync::Arc;
use std::time::Duration;

/// The hardware platform an experiment models (the paper's two servers plus
/// an in-memory setting).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Platform {
    /// RAID0 HDD server (fast sequential, expensive seeks).
    Hdd,
    /// SATA SSD server (cheap seeks, lower sequential throughput).
    Ssd,
    /// Dataset fits in memory.
    InMemory,
}

impl Platform {
    /// The cost model for this platform.
    pub fn cost_model(&self) -> CostModel {
        match self {
            Platform::Hdd => CostModel::for_profile(StorageProfile::Hdd),
            Platform::Ssd => CostModel::for_profile(StorageProfile::Ssd),
            Platform::InMemory => CostModel::for_profile(StorageProfile::InMemory),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Platform::Hdd => "HDD",
            Platform::Ssd => "SSD",
            Platform::InMemory => "in-memory",
        }
    }
}

/// Measurement of one index-construction run.
#[derive(Clone, Debug)]
pub struct BuildMeasurement {
    /// Which method was built.
    pub kind: MethodKind,
    /// Measured CPU (wall) time of the build (or of the snapshot load that
    /// replaced it).
    pub cpu_time: Duration,
    /// I/O counted during the build: one sequential read pass plus index
    /// writes for a fresh build, or the counted snapshot read for a load.
    pub io: IoSnapshot,
    /// The footprint of the built structure, if it is an index.
    pub footprint: Option<hydra_core::IndexFootprint>,
    /// How the snapshot cache participated (always
    /// [`SnapshotOutcome::Unsupported`] when no index directory is set).
    pub snapshot: SnapshotOutcome,
}

impl BuildMeasurement {
    /// The modelled total build time on `platform` (CPU + read I/O + writes).
    pub fn total_time(&self, platform: Platform) -> Duration {
        self.cpu_time + platform.cost_model().total_time(&self.io)
    }
}

/// Measurement of one query.
#[derive(Clone, Debug)]
pub struct QueryMeasurement {
    /// Measured CPU time.
    pub cpu_time: Duration,
    /// Work counters (pruning, leaf visits, I/O — reconciled by the engine).
    pub stats: QueryStats,
}

impl QueryMeasurement {
    /// The query's I/O, as reconciled into the stats by the engine.
    pub fn io(&self) -> IoSnapshot {
        self.stats.io_snapshot()
    }

    /// The modelled total time of this query on `platform`.
    pub fn total_time(&self, platform: Platform) -> Duration {
        self.cpu_time + platform.cost_model().io_time(&self.io())
    }
}

/// Aggregated measurement of a query workload run.
#[derive(Clone, Debug)]
pub struct WorkloadMeasurement {
    /// Which method answered the workload.
    pub kind: MethodKind,
    /// Per-query measurements, in workload order.
    pub queries: Vec<QueryMeasurement>,
    /// The dataset size the workload ran against (for pruning ratios).
    pub dataset_size: usize,
}

impl WorkloadMeasurement {
    /// Total modelled time of the workload on `platform`.
    pub fn total_time(&self, platform: Platform) -> Duration {
        self.queries.iter().map(|q| q.total_time(platform)).sum()
    }

    /// Total CPU time.
    pub fn cpu_time(&self) -> Duration {
        self.queries.iter().map(|q| q.cpu_time).sum()
    }

    /// Total modelled I/O time on `platform`.
    pub fn io_time(&self, platform: Platform) -> Duration {
        self.queries
            .iter()
            .map(|q| platform.cost_model().io_time(&q.io()))
            .sum()
    }

    /// Summed I/O counters across the workload.
    pub fn total_io(&self) -> IoSnapshot {
        let mut io = IoSnapshot::default();
        // Query-side writes are never charged (bytes_written stays zero).
        for q in &self.queries {
            let q_io = q.io();
            io.sequential_pages += q_io.sequential_pages;
            io.random_pages += q_io.random_pages;
            io.bytes_read += q_io.bytes_read;
        }
        io
    }

    /// Mean pruning ratio over the workload.
    pub fn mean_pruning_ratio(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries
            .iter()
            .map(|q| q.stats.pruning_ratio(self.dataset_size))
            .sum::<f64>()
            / self.queries.len() as f64
    }

    /// Per-query pruning ratios.
    pub fn pruning_ratios(&self) -> Vec<f64> {
        self.queries
            .iter()
            .map(|q| q.stats.pruning_ratio(self.dataset_size))
            .collect()
    }

    /// The paper's extrapolation to a larger workload: drop the 5 best / 5
    /// worst per-query times and multiply the trimmed mean by
    /// `target_queries`. Falls back to a plain mean when there are fewer than
    /// 11 queries.
    pub fn extrapolated_time(&self, platform: Platform, target_queries: usize) -> Duration {
        let times: Vec<f64> = self
            .queries
            .iter()
            .map(|q| q.total_time(platform).as_secs_f64())
            .collect();
        let total = QueryWorkload::extrapolate_total_seconds(&times, target_queries)
            .unwrap_or_else(|| {
                let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
                mean * target_queries as f64
            });
        Duration::from_secs_f64(total)
    }

    /// The average total time of the queries at the given indices (used for
    /// the Easy-20 / Hard-20 scenarios).
    pub fn mean_time_of(&self, indices: &[usize], platform: Platform) -> Duration {
        if indices.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = indices
            .iter()
            .map(|&i| self.queries[i].total_time(platform))
            .sum();
        total / indices.len() as u32
    }
}

/// Builds a method over `dataset` through the registry, returning the
/// measuring engine plus the build measurement.
///
/// With `cfg.index_dir` set, index methods load a valid snapshot instead of
/// rebuilding — keyed on the dataset fingerprint and the tuned build options
/// — and save one after a fresh build, so repeated sweeps pay the
/// construction cost once.
///
/// With a nonzero `cfg.fault_seed`, the store is built with a seeded
/// [`FaultPlan`] at [`FaultConfig::standard`] rates and the engine gets a
/// default retry policy that outlasts every planned transient, so any
/// experiment binary runs under chaos without code changes.
pub fn run_build(
    kind: MethodKind,
    dataset: &Dataset,
    options: &BuildOptions,
    cfg: &RunConfig,
) -> Result<(QueryEngine, BuildMeasurement)> {
    let store = match cfg.fault_seed {
        0 => DatasetStore::new(dataset.clone()),
        seed => DatasetStore::new(dataset.clone())
            .with_fault_plan(FaultPlan::seeded(seed, FaultConfig::standard())),
    };
    let store = Arc::new(store);
    let chaos = store.fault_plan().is_active();
    let (engine, snapshot) = match &cfg.index_dir {
        Some(dir) => kind.engine_with_snapshot(store, options, dir)?,
        None => (
            kind.engine_on_store(store, options)?,
            SnapshotOutcome::Unsupported,
        ),
    };
    let engine = if chaos {
        engine.with_retry_policy(RetryPolicy::new(4, 2))
    } else {
        engine
    };
    let measurement = BuildMeasurement {
        kind,
        cpu_time: engine.build_time(),
        io: engine.build_io(),
        footprint: engine.footprint(),
        snapshot,
    };
    Ok((engine, measurement))
}

/// Runs a 1-NN query workload through an engine under `cfg`'s thread count,
/// answering mode, query-batch size and per-query budget, measuring each
/// query.
///
/// With `cfg.batch == 0` the workload runs through the per-query
/// `answer_workload` driver; with `cfg.batch == N > 0` it runs through
/// `QueryEngine::answer_batch` in chunks of `N` queries, so methods with a
/// native batch kernel amortize one data pass per chunk. Either way the
/// engine resets each worker's counter shard before each query and
/// reconciles store-side traffic with the stats the method recorded itself,
/// so answers and per-query work counters are identical to the serial
/// per-query loop for every thread count and batch size (only wall-clock
/// `cpu_time` varies — batched runs report the amortized per-query share).
/// The method kind is recovered from the engine's descriptor, so it cannot
/// drift from the engine the caller passes. A mode outside the method's
/// capabilities is a typed `UnsupportedMode` error (the engine's strict
/// fallback policy), never a silent exact run.
pub fn run_queries(
    engine: &mut QueryEngine,
    workload: &QueryWorkload,
    cfg: &RunConfig,
) -> Result<WorkloadMeasurement> {
    let name = engine.descriptor().name;
    let kind = MethodKind::from_name(name).ok_or_else(|| {
        hydra_core::Error::invalid_parameter("engine", format!("unknown method {name:?}"))
    })?;
    let dataset_size = engine.dataset_size();
    let query_list: Vec<Query> = workload
        .queries()
        .iter()
        .map(|series| {
            Ok(Query::nearest_neighbor(series.clone())
                .try_with_mode(cfg.mode)?
                .with_budget(cfg.budget))
        })
        .collect::<Result<_>>()?;
    let answered = if cfg.batch == 0 {
        engine.answer_workload(&query_list, cfg.threads)?
    } else {
        let mut all = Vec::with_capacity(query_list.len());
        for chunk in query_list.chunks(cfg.batch) {
            all.extend(engine.answer_batch(chunk, cfg.threads)?);
        }
        all
    };
    let queries = answered
        .into_iter()
        .map(|answered| QueryMeasurement {
            cpu_time: answered.wall_time,
            stats: answered.stats,
        })
        .collect();
    Ok(WorkloadMeasurement {
        kind,
        queries,
        dataset_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::{AnswerMode, Parallelism};
    use hydra_data::{RandomWalkGenerator, WorkloadSpec};

    fn small_setup() -> (Dataset, QueryWorkload, BuildOptions) {
        let data = RandomWalkGenerator::new(3, 64).dataset(200);
        let workload = QueryWorkload::generate(
            "w",
            &data,
            &WorkloadSpec::controlled(5).with_num_queries(12),
        );
        let options = BuildOptions::default()
            .with_leaf_capacity(20)
            .with_train_samples(50);
        (data, workload, options)
    }

    #[test]
    fn build_and_query_measurements_are_populated() {
        let (data, workload, options) = small_setup();
        let (mut engine, build) =
            run_build(MethodKind::DsTree, &data, &options, &RunConfig::default()).unwrap();
        assert!(build.cpu_time > Duration::ZERO);
        assert!(build.io.bytes_written > 0, "index construction must write");
        assert!(build.footprint.is_some());
        let run = run_queries(&mut engine, &workload, &RunConfig::default()).unwrap();
        assert_eq!(run.kind, MethodKind::DsTree);
        assert_eq!(run.queries.len(), 12);
        assert!(run.total_time(Platform::Hdd) >= run.cpu_time());
        assert!(run.mean_pruning_ratio() > 0.0);
        assert_eq!(run.pruning_ratios().len(), 12);
        assert!(run.total_io().total_pages() > 0);
        // The engine aggregates the same workload internally.
        assert_eq!(engine.queries_answered(), 12);
        assert!((engine.mean_pruning_ratio() - run.mean_pruning_ratio()).abs() < 1e-9);
    }

    #[test]
    fn scan_has_zero_pruning_and_finite_times() {
        let (data, workload, options) = small_setup();
        let (mut engine, _) =
            run_build(MethodKind::UcrSuite, &data, &options, &RunConfig::default()).unwrap();
        let run = run_queries(&mut engine, &workload, &RunConfig::default()).unwrap();
        assert_eq!(run.mean_pruning_ratio(), 0.0);
        let t10k = run.extrapolated_time(Platform::Hdd, 10_000);
        let t100 = run.total_time(Platform::Hdd);
        assert!(t10k > t100);
    }

    #[test]
    fn platform_models_order_io_costs_sensibly() {
        let (data, workload, options) = small_setup();
        let (mut engine, _) =
            run_build(MethodKind::AdsPlus, &data, &options, &RunConfig::default()).unwrap();
        let run = run_queries(&mut engine, &workload, &RunConfig::default()).unwrap();
        // ADS+ is seek-heavy: the HDD I/O model must charge it more than SSD.
        assert!(run.io_time(Platform::Hdd) >= run.io_time(Platform::Ssd));
        assert_eq!(Platform::Hdd.name(), "HDD");
        assert_eq!(Platform::InMemory.name(), "in-memory");
    }

    #[test]
    fn parallel_workload_run_matches_serial_counters() {
        let (data, workload, options) = small_setup();
        let (mut serial_engine, _) = run_build(
            MethodKind::Isax2Plus,
            &data,
            &options,
            &RunConfig::default(),
        )
        .unwrap();
        let serial = run_queries(&mut serial_engine, &workload, &RunConfig::default()).unwrap();
        serial_engine.reset_totals();
        let threads = RunConfig {
            threads: Parallelism::Threads(4),
            ..RunConfig::default()
        };
        let parallel = run_queries(&mut serial_engine, &workload, &threads).unwrap();
        assert_eq!(parallel.queries.len(), serial.queries.len());
        for (s, p) in serial.queries.iter().zip(&parallel.queries) {
            assert_eq!(s.stats.raw_series_examined, p.stats.raw_series_examined);
            assert_eq!(s.stats.leaves_visited, p.stats.leaves_visited);
            assert_eq!(s.io(), p.io());
        }
        assert_eq!(parallel.total_io(), serial.total_io());
        assert!((parallel.mean_pruning_ratio() - serial.mean_pruning_ratio()).abs() < 1e-12);
    }

    #[test]
    fn batched_runs_match_per_query_runs() {
        let (data, workload, options) = small_setup();
        for kind in [MethodKind::UcrSuite, MethodKind::VaPlusFile] {
            let (mut engine, _) = run_build(kind, &data, &options, &RunConfig::default()).unwrap();
            let per_query = run_queries(&mut engine, &workload, &RunConfig::default()).unwrap();
            engine.reset_totals();
            // A batch size that does not divide the workload exercises the
            // remainder chunk too.
            let batch = RunConfig {
                batch: 5,
                ..RunConfig::default()
            };
            let batched = run_queries(&mut engine, &workload, &batch).unwrap();
            assert_eq!(batched.queries.len(), per_query.queries.len());
            for (a, b) in per_query.queries.iter().zip(&batched.queries) {
                assert_eq!(
                    a.stats.raw_series_examined,
                    b.stats.raw_series_examined,
                    "{}",
                    kind.name()
                );
                assert_eq!(a.io(), b.io(), "{}", kind.name());
            }
            assert_eq!(batched.total_io(), per_query.total_io(), "{}", kind.name());
        }
    }

    #[test]
    fn mode_aware_runs_route_through_the_engine() {
        let (data, workload, options) = small_setup();
        // A capable index answers ng-approximate with far less work.
        let (mut engine, _) =
            run_build(MethodKind::DsTree, &data, &options, &RunConfig::default()).unwrap();
        let exact = run_queries(&mut engine, &workload, &RunConfig::default()).unwrap();
        let ng_cfg = RunConfig {
            mode: AnswerMode::NgApproximate,
            ..RunConfig::default()
        };
        let ng = run_queries(&mut engine, &workload, &ng_cfg).unwrap();
        let exact_examined: u64 = exact
            .queries
            .iter()
            .map(|q| q.stats.raw_series_examined)
            .sum();
        let ng_examined: u64 = ng.queries.iter().map(|q| q.stats.raw_series_examined).sum();
        assert!(
            ng_examined < exact_examined,
            "{ng_examined} vs {exact_examined}"
        );
        // A scan rejects the mode with a typed error, never a silent run.
        let (mut scan, _) =
            run_build(MethodKind::UcrSuite, &data, &options, &RunConfig::default()).unwrap();
        assert!(matches!(
            run_queries(&mut scan, &workload, &ng_cfg),
            Err(hydra_core::Error::UnsupportedMode { .. })
        ));
    }

    #[test]
    fn mean_time_of_subsets() {
        let (data, workload, options) = small_setup();
        let (mut engine, _) = run_build(
            MethodKind::VaPlusFile,
            &data,
            &options,
            &RunConfig::default(),
        )
        .unwrap();
        let run = run_queries(&mut engine, &workload, &RunConfig::default()).unwrap();
        let all: Vec<usize> = (0..run.queries.len()).collect();
        let mean_all = run.mean_time_of(&all, Platform::Ssd);
        assert!(mean_all > Duration::ZERO);
        assert_eq!(run.mean_time_of(&[], Platform::Ssd), Duration::ZERO);
    }
}
