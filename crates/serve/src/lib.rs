//! # hydra-serve
//!
//! A sharded, async, cached query-serving service layer over the hydra
//! engines: the front-end that turns the suite's single-process library
//! calls into a request-serving system.
//!
//! The crate stacks five small layers:
//!
//! * [`executor`] — a vendored-minimal async executor with a deterministic
//!   FIFO task queue (the registry is offline, so no tokio), driven on the
//!   caller's thread as a pure function of the spawn/wake order.
//! * [`shard`] — per-shard [`EngineHandle`](hydra_core::EngineHandle)s over
//!   contiguous [`partition_dataset`](hydra_storage::partition_dataset)
//!   partitions, plus the scatter-gather k-NN merge. Exact k-NN is
//!   partition-decomposable, so the merged answer is bit-identical to a
//!   single unsharded engine; the serial [`scatter_gather`] reference defines
//!   the contract the async pipeline is tested against for every mode.
//! * [`cache`] — a deterministic (BTreeMap + SIEVE eviction) answer cache
//!   keyed on (dataset fingerprint, canonical query hash, mode), with
//!   hit/miss/eviction counters. SIEVE keeps an entry that was hit since
//!   the hand last passed it, so a hot query is not evicted on schedule.
//! * [`service`] — [`QueryService`]: admission control that sheds overload
//!   synchronously with typed [`Error::Overloaded`](hydra_core::Error)
//!   errors, deadline-to-[`Budget`](hydra_core::Budget) mapping so late
//!   queries degrade to [`Guarantee::Truncated`](hydra_core::Guarantee)
//!   instead of timing out, and the request pipeline gluing cache, scatter
//!   and gather onto the executor; the scatter runs a request's shards in
//!   parallel on min(shards, CPUs) threads, the caller among them.
//! * [`resilience`] — partial-failure handling: each shard is an
//!   independent seeded fault domain
//!   ([`FaultPlan::for_shard`](hydra_storage::FaultPlan::for_shard)) whose
//!   faults are keyed by read and retry attempt, so every shard is asked on
//!   every miss; [`QuorumPolicy`]-governed degraded merges are tagged
//!   [`Guarantee::Partial`](hydra_core::Guarantee), and each shard counts its
//!   successes and failures — same seed ⇒ same answers, same counters. The
//!   default [`ResilienceConfig`] is bit-identical to the strict
//!   pre-resilience service.
//!
//! The service is method-agnostic: shard engines are built through a caller
//! closure (see [`QueryService::build`]), so any of the suite's ten methods —
//! fresh-built or snapshot-loaded — serves unchanged. The `bench_serve` bin
//! in `hydra-bench` drives open-loop arrival ladders against this crate.

// Every unsafe operation inside an `unsafe fn` must sit in its own
// `unsafe {}` block with a `// SAFETY:` comment (enforced by clippy's
// `undocumented_unsafe_blocks`; see README "Contract lints").
#![deny(unsafe_op_in_unsafe_fn)]
// lib-unwrap (README "Contract lints"): library code returns typed errors.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cache;
pub mod executor;
pub mod resilience;
pub mod service;
pub mod shard;

pub use cache::{AnswerCache, CacheKey, CacheStats, CachedAnswer};
pub use executor::{yield_now, Executor, JoinHandle};
pub use resilience::{QuorumPolicy, ResilienceConfig, ShardHealthReport};
pub use service::{
    deadline_budget, QueryService, RequestHandle, ServeAnswer, ServeConfig, ServiceStats,
};
pub use shard::{merge_quorum, merge_shard_answers, scatter_gather, QuorumOutcome, ShardEngine};
