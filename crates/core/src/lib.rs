//! # hydra-core
//!
//! Core types and traits for the `hydra` data series similarity search benchmark
//! suite, a Rust reproduction of *"The Lernaean Hydra of Data Series Similarity
//! Search: An Experimental Evaluation of the State of the Art"* (PVLDB 2018).
//!
//! This crate defines:
//!
//! * the data series model ([`Series`], [`Dataset`]) and Z-normalization,
//! * Euclidean distance kernels, including the UCR-Suite optimizations
//!   (no square root, early abandoning, reordered early abandoning) in
//!   [`distance`], backed by the runtime-dispatched explicit SSE2/AVX2
//!   implementations in [`simd`] (portable 4-lane fallback, bit-identical
//!   across kernels, `HYDRA_SIMD=portable|native` override),
//! * the similarity query model (k-NN and r-range queries, whole matching,
//!   and the exact / ng-approximate / ε- / δ-ε-approximate answering modes of
//!   the sequel study) in [`query`],
//! * the common interface implemented by every method evaluated in the paper
//!   ([`AnsweringMethod`], whose one answering body
//!   [`AnsweringMethod::search`] takes the intra-query worker count as an
//!   argument, which only MASS splits work on, and [`ExactIndex`]) in
//!   [`method`],
//! * the unified dyn-dispatch query driver ([`QueryEngine`]) that answers and
//!   measures queries identically across all ten methods in [`engine`],
//!   including the intra-query driver ([`QueryEngine::answer_intra`]), the
//!   multi-threaded workload driver ([`QueryEngine::answer_workload`]) and
//!   the batched driver ([`QueryEngine::answer_batch`], backed by the opt-in
//!   [`method::BatchAnswering`] capability through which UCR-Suite shares
//!   one data pass across a whole batch of queries) built on the primitives
//!   in [`parallel`],
//! * the persistence interface ([`PersistentIndex`]) through which index
//!   methods snapshot their built structure to disk and reload it
//!   bit-identically in a later session (see `hydra_storage::snapshot` for
//!   the on-disk container format) in [`persist`],
//! * the measurement framework of the paper's Section 4.2: pruning ratio,
//!   tightness of the lower bound (TLB), index footprint, and timing breakdowns
//!   in [`stats`].
//!
//! All ten similarity search methods of the paper (UCR-Suite, MASS, Stepwise,
//! R*-tree, M-tree, VA+file, SFA trie, DSTree, iSAX2+, ADS+) are implemented in
//! sibling crates on top of these abstractions.

// Every unsafe operation inside an `unsafe fn` must sit in its own
// `unsafe {}` block with a `// SAFETY:` comment (enforced by clippy's
// `undocumented_unsafe_blocks`; see README "Contract lints").
#![deny(unsafe_op_in_unsafe_fn)]
// lib-unwrap (README "Contract lints"): library code returns typed errors.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod distance;
pub mod engine;
pub mod error;
pub mod hash;
pub mod knn;
pub mod method;
pub mod parallel;
pub mod persist;
pub mod query;
pub mod series;
pub mod simd;
pub mod stats;

pub use distance::{
    euclidean, euclidean_early_abandon, euclidean_reordered, squared_euclidean,
    squared_euclidean_early_abandon, QueryOrder,
};
pub use engine::{Completion, EngineAnswer, EngineHandle, IoSource, QueryEngine, RetryPolicy};
pub use error::{Error, Result};
pub use hash::Fnv1a;
pub use knn::{Answer, AnswerSet, BaseGuarantee, Guarantee, KnnHeap};
pub use method::{
    AnsweringMethod, BatchAnswering, BuildOptions, ExactIndex, IndexFootprint, MethodDescriptor,
    ModeCapabilities,
};
pub use parallel::Parallelism;
pub use persist::{PersistentIndex, SnapshotSink, SnapshotSource};
pub use query::{AnswerMode, Budget, BudgetMeter, MatchingKind, Query, QueryKind};
pub use series::{Dataset, Series, SeriesView};
pub use simd::Kernel;
pub use stats::{IoSnapshot, PruningStats, QueryStats, RunClock, TimeBreakdown, Tlb};
