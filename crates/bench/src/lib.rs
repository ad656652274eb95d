//! # hydra-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation section (Section 4) on laptop-scale data.
//!
//! The harness is organized as:
//!
//! * [`registry`] — [`MethodKind`]: build any of the ten methods uniformly as
//!   a `Box<dyn AnsweringMethod>`, as a measuring `hydra_core::QueryEngine`
//!   over an instrumented store, or as a sharded `hydra_serve::QueryService`
//!   (fresh-built or loaded from per-shard snapshots);
//! * [`harness`] — the experiment runner: timed index construction, timed
//!   query workloads with per-query statistics, the paper's 10 000-query
//!   extrapolation rule, and platform cost models (HDD / SSD / in-memory);
//! * [`report`] — plain-text / CSV emitters for the result tables plus the
//!   uniform `BENCH_<name>.json` artifact writer every bench bin routes
//!   through;
//! * [`cli`] — [`RunConfig`]: every run setting, parsed once from the
//!   binary's flags and passed explicitly to the harness and the
//!   experiments — `--threads N`, `--index-dir DIR`, `--mode M`,
//!   `--batch N`, `--fault-seed N`, `--budget B`, `--scale S`, and
//!   `bench_serve`'s `--shards N`, `--deadline-ms D`, `--quorum Q` and
//!   `--shard-fault-seed N` (the flag table is in the module docs).
//!
//! Every figure and table has a dedicated binary under `src/bin/` (see
//! `DESIGN.md` for the experiment index); Criterion micro-benchmarks for the
//! hot kernels and the ablation studies live under `benches/`.

pub mod cli;
pub mod experiments;
pub mod harness;
pub mod registry;
pub mod report;

pub use cli::RunConfig;
pub use harness::{
    run_build, run_queries, BuildMeasurement, Platform, QueryMeasurement, WorkloadMeasurement,
};
pub use registry::{MethodKind, SnapshotOutcome};
pub use report::ResultTable;
