//! The unified query engine: one driver for all ten methods.
//!
//! Every method in the suite — sequential scans, multi-step filters and
//! pre-built indexes alike — is answered through the same dyn-dispatch
//! interface here. A [`QueryEngine`] owns a built [`AnsweringMethod`] as a
//! trait object, an optional handle to the instrumented store's I/O counters
//! (the [`IoSource`] implemented by `hydra_storage::DatasetStore`), and the
//! running [`QueryStats`] aggregate across the queries it has answered.
//!
//! The engine enforces the measurement discipline the experiment harness
//! previously re-implemented per call site:
//!
//! * I/O counters are reset before each query and reconciled into the query's
//!   [`QueryStats`] afterwards — methods that charge their I/O through stats
//!   (leaf reads) and methods whose traffic is only visible to the store are
//!   accounted under the same rule (whichever recorded more pages wins, so
//!   neither path is lost);
//! * wall-clock time is measured around the dyn call;
//! * per-query stats are merged into a running total, giving workload-level
//!   aggregates (mean pruning ratio, total I/O) for free.

use crate::knn::{AnswerSet, Guarantee};
use crate::method::{AnsweringMethod, IndexFootprint, MethodDescriptor};
use crate::parallel::{self, Parallelism};
use crate::query::Query;
use crate::stats::{IoSnapshot, QueryStats, RunClock};
use crate::{Error, Result};
use std::sync::Arc;
use std::time::Duration;

/// A source of I/O counters observed around every query.
///
/// Implemented by `hydra_storage::DatasetStore`; defined here so the engine
/// can reconcile store-side traffic without depending on the storage crate.
///
/// The counters must be scoped per thread: the engine runs queries (and
/// batch chunks) concurrently over one source, and each worker resets and
/// reads only the traffic its own thread recorded, so one worker's reset
/// never wipes another's in-flight pages.
pub trait IoSource: Send + Sync {
    /// A point-in-time copy of the traffic recorded by the calling thread.
    fn thread_io_snapshot(&self) -> IoSnapshot;

    /// Resets the calling thread's counters (and its sequentiality tracking).
    fn reset_thread_io(&self);

    /// Announces which retry attempt (0-based) the calling thread is about to
    /// run, so fault-injecting sources can key their decisions on it (a
    /// transient fault clears after a planned number of attempts). The
    /// default is a no-op for fault-free sources.
    fn begin_attempt(&self, _attempt: u32) {}
}

/// How the engine re-attempts queries that fail with a *retriable* I/O error
/// (see [`Error::is_retriable`]).
///
/// Backoff is charged in deterministic cost-model units — random page
/// accesses, not wall clock — so retried runs stay bit-reproducible: before
/// retry `j` (1-based) the engine charges `backoff_pages << (j - 1)` random
/// pages to the query's stats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per query, including the first (≥ 1).
    pub max_attempts: u32,
    /// Base backoff charge in random pages, doubled on each further retry.
    pub backoff_pages: u64,
}

impl RetryPolicy {
    /// No retries: one attempt, no backoff (the default).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            backoff_pages: 0,
        }
    }

    /// A policy with `max_attempts` total attempts (clamped to ≥ 1) and a
    /// base backoff of `backoff_pages` random pages.
    pub fn new(max_attempts: u32, backoff_pages: u64) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            backoff_pages,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Whether a query ran to completion or was cut short by its
/// [`crate::query::Budget`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// The method finished its search; the answer satisfies the requested
    /// mode's guarantee.
    Complete,
    /// The method ran out of budget and returned its best-so-far answer
    /// (tagged [`Guarantee::Truncated`]).
    Truncated,
}

/// The result of one engine-driven query: the answers (tagged with the
/// guarantee they satisfy) plus the reconciled measurements.
#[derive(Clone, Debug)]
pub struct EngineAnswer {
    /// The answer set.
    pub answers: AnswerSet,
    /// The guarantee the answers actually satisfy (copied from the answer
    /// set).
    pub guarantee: Guarantee,
    /// Work counters for this query, with I/O reconciled against the store.
    pub stats: QueryStats,
    /// Wall-clock time of the dyn `answer` call.
    pub wall_time: Duration,
    /// How many attempts the engine made (1 unless a retriable I/O fault was
    /// retried under a [`RetryPolicy`]).
    pub attempts: u32,
}

impl EngineAnswer {
    /// Whether the query completed or was truncated by its budget (derived
    /// from the answer's guarantee).
    pub fn completion(&self) -> Completion {
        match self.guarantee {
            Guarantee::Truncated { .. } => Completion::Truncated,
            _ => Completion::Complete,
        }
    }
}

/// A built method plus everything needed to answer and measure queries
/// uniformly.
pub struct QueryEngine {
    method: Box<dyn AnsweringMethod>,
    io: Option<Arc<dyn IoSource>>,
    dataset_size: usize,
    build_time: Duration,
    build_io: IoSnapshot,
    retry: RetryPolicy,
    totals: QueryStats,
    queries_answered: u64,
    last_batch_io: Option<IoSnapshot>,
}

impl QueryEngine {
    /// Wraps a built method. `dataset_size` is the number of series the
    /// method answers over (the denominator of pruning ratios).
    pub fn new(method: Box<dyn AnsweringMethod>, dataset_size: usize) -> Self {
        Self {
            method,
            io: None,
            dataset_size,
            build_time: Duration::ZERO,
            build_io: IoSnapshot::default(),
            retry: RetryPolicy::none(),
            totals: QueryStats::default(),
            queries_answered: 0,
            last_batch_io: None,
        }
    }

    /// Attaches the store's I/O counters; they are reset before and read
    /// after every query.
    pub fn with_io_source(mut self, io: Arc<dyn IoSource>) -> Self {
        self.io = Some(io);
        self
    }

    /// Records what index construction cost (time and I/O), so downstream
    /// reporting can model build phases without a side channel.
    pub fn with_build_measurement(mut self, build_time: Duration, build_io: IoSnapshot) -> Self {
        self.build_time = build_time;
        self.build_io = build_io;
        self
    }

    /// Sets how retriable I/O faults are re-attempted (default:
    /// [`RetryPolicy::none`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The method's static description.
    pub fn descriptor(&self) -> MethodDescriptor {
        self.method.descriptor()
    }

    /// The structural footprint, when the method builds an index.
    pub fn footprint(&self) -> Option<IndexFootprint> {
        self.method.index_footprint()
    }

    /// The wrapped method.
    pub fn method(&self) -> &dyn AnsweringMethod {
        self.method.as_ref()
    }

    /// The number of series the engine answers over.
    pub fn dataset_size(&self) -> usize {
        self.dataset_size
    }

    /// Wall-clock time of index construction (zero for scans).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// I/O counted during index construction.
    pub fn build_io(&self) -> IoSnapshot {
        self.build_io
    }

    /// The number of queries answered so far.
    pub fn queries_answered(&self) -> u64 {
        self.queries_answered
    }

    /// The running total of per-query stats since construction (or the last
    /// [`QueryEngine::reset_totals`]).
    pub fn totals(&self) -> &QueryStats {
        &self.totals
    }

    /// Mean pruning ratio across the answered queries.
    pub fn mean_pruning_ratio(&self) -> f64 {
        if self.queries_answered == 0 || self.dataset_size == 0 {
            return 0.0;
        }
        let mean_examined = self.totals.raw_series_examined as f64 / self.queries_answered as f64;
        (1.0 - mean_examined / self.dataset_size as f64).clamp(0.0, 1.0)
    }

    /// Clears the running aggregate (e.g. between workloads).
    pub fn reset_totals(&mut self) {
        self.totals = QueryStats::default();
        self.queries_answered = 0;
    }

    /// Answers a query in its requested mode, measuring it and folding the
    /// stats into the running totals.
    pub fn answer(&mut self, query: &Query) -> Result<EngineAnswer> {
        let answered = measure(
            self.method.as_ref(),
            self.io.as_deref(),
            query,
            self.retry,
            1,
        )?;
        self.totals.merge(&answered.stats);
        self.queries_answered += 1;
        Ok(answered)
    }

    /// Answers one query with up to `parallelism` worker threads cooperating
    /// on it (intra-query parallelism), measuring it and folding the stats
    /// into the running totals exactly like [`QueryEngine::answer`].
    ///
    /// The worker count is just the `threads` argument of the method's one
    /// [`AnsweringMethod::search`], and only MASS splits work on it; every
    /// other method answers exactly as [`QueryEngine::answer`] does. The
    /// determinism contract of the suite extends here: for every method and
    /// thread count, the answer set, its guarantee and the per-query logical
    /// work counters are **bit-identical** to the serial path (only
    /// wall-clock times vary). Budgeted queries are searched with one
    /// thread.
    pub fn answer_intra(
        &mut self,
        query: &Query,
        parallelism: Parallelism,
    ) -> Result<EngineAnswer> {
        // Budgeted queries take the serial path: MASS's pre-pass computes
        // every distance, where a budget stops the counted pass early.
        let threads = if query.budget().is_none() {
            parallelism.worker_threads()
        } else {
            1
        };
        let answered = measure(
            self.method.as_ref(),
            self.io.as_deref(),
            query,
            self.retry,
            threads,
        )?;
        self.totals.merge(&answered.stats);
        self.queries_answered += 1;
        Ok(answered)
    }

    /// Answers a whole workload, spreading the queries over `parallelism`
    /// worker threads.
    ///
    /// Results come back **in workload order**, and the running totals are
    /// merged in workload order too, so the outcome is deterministic: for any
    /// thread count, the answer sets and the per-query work counters are
    /// identical to the serial loop (`cpu_time`/`io_time` naturally vary with
    /// scheduling). Per-query I/O stays exact under concurrency because every
    /// worker resets and reads only its own counter shard (see
    /// [`IoSource::thread_io_snapshot`]); the shards of the shared store still
    /// sum to the workload's true aggregate traffic.
    ///
    /// If any query fails, the stats of the queries *before* the first failing
    /// index are merged, later queries stop being issued, and the first error
    /// in workload order is returned (matching the serial loop).
    pub fn answer_workload(
        &mut self,
        queries: &[Query],
        parallelism: Parallelism,
    ) -> Result<Vec<EngineAnswer>> {
        let threads = parallelism.worker_threads().min(queries.len().max(1));
        if threads <= 1 {
            return queries.iter().map(|q| self.answer(q)).collect();
        }
        let method: &dyn AnsweringMethod = self.method.as_ref();
        let io = self.io.as_deref();
        let retry = self.retry;
        // Like the serial loop, stop issuing work after the first failure.
        // A worker that observes the flag marks its query skipped (`None`)
        // instead of answering it.
        let abort = std::sync::atomic::AtomicBool::new(false);
        let results: Vec<Option<Result<EngineAnswer>>> =
            parallel::map_indexed(queries.len(), threads, |i| {
                if abort.load(std::sync::atomic::Ordering::Relaxed) {
                    return None;
                }
                let result = measure(method, io, &queries[i], retry, 1);
                if result.is_err() {
                    abort.store(true, std::sync::atomic::Ordering::Relaxed);
                }
                Some(result)
            });
        let mut out = Vec::with_capacity(results.len());
        for (i, result) in results.into_iter().enumerate() {
            let answered = match result {
                Some(result) => result?,
                // A pre-error skip: the claim/abort-check race can skip an
                // index *below* the first failing one; the serial loop would
                // have answered it, so repair it here on the calling thread.
                // (Skips above the first error are unreachable: the `?` on
                // that error returns first.)
                None => measure(method, io, &queries[i], retry, 1)?,
            };
            self.totals.merge(&answered.stats);
            self.queries_answered += 1;
            out.push(answered);
        }
        Ok(out)
    }

    /// Answers a batch of queries through the method's native batch kernel,
    /// amortizing one shared data pass across the whole batch; methods
    /// without a kernel (see [`AnsweringMethod::batch_answering`]) fall back
    /// to the per-query loop of [`QueryEngine::answer_workload`].
    ///
    /// The determinism contract of the suite carries over: for every method,
    /// batch size and thread count, the answer sets and the per-query work
    /// counters are **bit-identical to the serial per-query loop** (only
    /// wall-clock times vary). Per-query counters keep their serial meaning —
    /// each query is charged the logical work it would have cost on its own —
    /// while the *physical* traffic of the shared pass (one pass per batch
    /// chunk instead of one per query) is observed at batch scope and exposed
    /// through [`QueryEngine::last_batch_io`].
    ///
    /// With `parallelism` > 1, the batch is split into contiguous chunks and
    /// the kernel runs thread-parallel *across* chunks — each worker
    /// amortizes one pass over its chunk, and results merge back in batch
    /// order.
    ///
    /// Mode routing matches the per-query path exactly: a query whose
    /// [`AnswerMode`](crate::query::AnswerMode) the method does not support
    /// is a typed [`Error::UnsupportedMode`], and a range query a typed
    /// [`Error::UnsupportedQuery`]; the queries before the first rejected one
    /// are answered and merged, like the serial loop. A method-level kernel
    /// error (length mismatch, empty dataset) reruns the batch through the
    /// per-query loop, which reproduces the serial error semantics exactly.
    pub fn answer_batch(
        &mut self,
        queries: &[Query],
        parallelism: Parallelism,
    ) -> Result<Vec<EngineAnswer>> {
        self.last_batch_io = None;
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let Some(kernel) = self.method.batch_answering() else {
            return self.answer_workload(queries, parallelism);
        };
        // Budgeted queries take the per-query loop: a batch kernel shares one
        // physical pass across the whole batch and cannot stop one member's
        // search early without perturbing the others' counters.
        if queries.iter().any(|q| q.budget().is_some()) {
            return self.answer_workload(queries, parallelism);
        }
        // Engine-boundary routing, mirroring `measure`: stop the batch at the
        // first rejected query — the serial loop answers the queries before
        // it, then surfaces its typed error.
        let descriptor = self.method.descriptor();
        let rejection = queries.iter().enumerate().find_map(|(i, query)| {
            let error = match query.knn_k(descriptor.name) {
                Err(e) => e,
                Ok(_) if descriptor.modes.supports(query.mode()) => return None,
                Ok(_) => Error::unsupported_mode(descriptor.name, query.mode()),
            };
            Some((i, error))
        });
        let routed = &queries[..rejection.as_ref().map_or(queries.len(), |(i, _)| *i)];
        match self.run_batch_kernel(kernel, routed, parallelism) {
            Ok((answers, physical_io)) => {
                for answered in &answers {
                    self.totals.merge(&answered.stats);
                    self.queries_answered += 1;
                }
                // `Some` means a native kernel actually ran; an empty routed
                // prefix (first query rejected) never reached the kernel.
                if !routed.is_empty() {
                    self.last_batch_io = Some(physical_io);
                }
                match rejection {
                    None => Ok(answers),
                    Some((_, e)) => Err(e),
                }
            }
            // A method-level error (length mismatch, empty dataset): the
            // kernel returns no partial results, so rerun through the
            // per-query loop, which answers the prefix before the failing
            // query and surfaces the first error in batch order — exactly
            // the serial semantics.
            Err(_) => self.answer_workload(queries, parallelism),
        }
    }

    /// Runs the native batch kernel over `queries`, thread-parallel across
    /// contiguous chunks, returning the answers in batch order plus the
    /// physical store traffic of all chunks.
    fn run_batch_kernel(
        &self,
        kernel: &dyn crate::method::BatchAnswering,
        queries: &[Query],
        parallelism: Parallelism,
    ) -> Result<(Vec<EngineAnswer>, IoSnapshot)> {
        let io = self.io.as_deref();
        let threads = parallelism.worker_threads().min(queries.len().max(1));
        if threads <= 1 {
            return run_batch_chunk(kernel, io, queries);
        }
        let ranges = parallel::split_ranges(queries.len(), threads);
        let chunks: Vec<Result<(Vec<EngineAnswer>, IoSnapshot)>> =
            parallel::map_indexed(ranges.len(), ranges.len(), |i| {
                run_batch_chunk(kernel, io, &queries[ranges[i].clone()])
            });
        let mut answers = Vec::with_capacity(queries.len());
        let mut physical = IoSnapshot::default();
        for chunk in chunks {
            let (chunk_answers, chunk_io) = chunk?;
            answers.extend(chunk_answers);
            physical.sequential_pages += chunk_io.sequential_pages;
            physical.random_pages += chunk_io.random_pages;
            physical.bytes_read += chunk_io.bytes_read;
            physical.bytes_written += chunk_io.bytes_written;
        }
        Ok((answers, physical))
    }

    /// The physical store traffic of the most recent
    /// [`QueryEngine::answer_batch`] call that ran a native batch kernel
    /// (summed over its thread chunks), or `None` when the last batch fell
    /// back to the per-query loop (or none ran yet).
    ///
    /// This is the batch-scoped accounting counterpart of the per-query
    /// logical counters: for a batched scan it records **one** sequential
    /// pass per chunk, while every query's own stats keep the full pass the
    /// serial loop would have charged it.
    pub fn last_batch_io(&self) -> Option<IoSnapshot> {
        self.last_batch_io
    }
}

/// A cheaply cloneable, shareable handle over a built method: the
/// serving-layer view of a [`QueryEngine`].
///
/// The engine itself owns mutable running aggregates (totals, query counts),
/// so sharing one across concurrent requests would serialize them behind a
/// lock. A handle drops the aggregates and keeps only the immutable parts —
/// the built method behind an `Arc`, the I/O source, the retry policy — so
/// cloning is two reference-count bumps and [`EngineHandle::answer`] takes
/// `&self`. Per-query measurement goes through the *same* `measure`
/// path as [`QueryEngine::answer`], so a handle's answers, guarantees and
/// reconciled stats are bit-identical to the engine it came from; callers
/// aggregate the returned [`EngineAnswer`]s themselves.
#[derive(Clone)]
pub struct EngineHandle {
    method: Arc<dyn AnsweringMethod>,
    io: Option<Arc<dyn IoSource>>,
    dataset_size: usize,
    retry: RetryPolicy,
}

impl EngineHandle {
    /// Answers a query in its requested mode, with exactly the per-query
    /// measurement discipline of [`QueryEngine::answer`] (same mode routing,
    /// I/O reset/reconciliation, retry loop and panic isolation).
    pub fn answer(&self, query: &Query) -> Result<EngineAnswer> {
        measure(
            self.method.as_ref(),
            self.io.as_deref(),
            query,
            self.retry,
            1,
        )
    }

    /// The method's static description.
    pub fn descriptor(&self) -> MethodDescriptor {
        self.method.descriptor()
    }

    /// The number of series the handle answers over.
    pub fn dataset_size(&self) -> usize {
        self.dataset_size
    }
}

impl std::fmt::Debug for EngineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHandle")
            .field("method", &self.descriptor().name)
            .field("dataset_size", &self.dataset_size)
            .finish_non_exhaustive()
    }
}

impl QueryEngine {
    /// Converts the engine into a cheaply cloneable [`EngineHandle`],
    /// discarding the running aggregates (totals, query counts, batch I/O)
    /// and keeping the built method, I/O source and retry policy.
    pub fn into_handle(self) -> EngineHandle {
        EngineHandle {
            method: Arc::from(self.method),
            io: self.io,
            dataset_size: self.dataset_size,
            retry: self.retry,
        }
    }
}

/// Runs the batch kernel over one contiguous chunk on the calling thread:
/// announces attempt 0 and resets the thread's I/O shard (as [`measure`]
/// does before a first attempt, so a stale attempt number left by an earlier
/// retried query cannot change fault decisions), times the kernel, collects
/// per-query stats, and snapshots the chunk's physical store traffic.
fn run_batch_chunk(
    kernel: &dyn crate::method::BatchAnswering,
    io: Option<&dyn IoSource>,
    queries: &[Query],
) -> Result<(Vec<EngineAnswer>, IoSnapshot)> {
    if queries.is_empty() {
        return Ok((Vec::new(), IoSnapshot::default()));
    }
    if let Some(io) = io {
        io.begin_attempt(0);
        io.reset_thread_io();
    }
    let mut stats = vec![QueryStats::default(); queries.len()];
    let clock = RunClock::start();
    // Panic isolation, like the per-query loop: a poisoned batch becomes a
    // typed internal error (answer_batch then reruns the per-query loop,
    // which reproduces serial error semantics).
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        kernel.answer_batch(queries, &mut stats)
    }));
    let answer_sets = match outcome {
        Ok(result) => result?,
        Err(panic) => return Err(Error::Internal(panic_message(panic))),
    };
    let wall_time = clock.elapsed();
    let physical = io.map(|io| io.thread_io_snapshot()).unwrap_or_default();
    debug_assert_eq!(answer_sets.len(), queries.len(), "kernel answered all");
    // Per-query wall time inside a shared pass is ill-defined; attribute the
    // chunk's elapsed time evenly (the amortized per-query cost).
    let per_query_wall = wall_time / queries.len() as u32;
    let answers = answer_sets
        .into_iter()
        .zip(stats)
        .map(|(answers, stats)| EngineAnswer {
            guarantee: answers.guarantee(),
            answers,
            stats,
            wall_time: per_query_wall,
            attempts: 1,
        })
        .collect();
    Ok((answers, physical))
}

/// Renders a payload caught by `catch_unwind` as a readable message.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "query panicked".to_string()
    }
}

/// The one measured call of the engine: enforces the method's mode and
/// query-kind capabilities, then — per attempt — resets the calling thread's
/// I/O shard, times the dyn [`AnsweringMethod::search`] at `threads` workers
/// (which only MASS splits work on), isolates its panics, and reconciles
/// store-side traffic into the stats. Every door of the engine and of
/// [`EngineHandle`] answers through it, so all of them produce identical
/// per-query measurements.
fn measure(
    method: &dyn AnsweringMethod,
    io: Option<&dyn IoSource>,
    query: &Query,
    retry: RetryPolicy,
    threads: usize,
) -> Result<EngineAnswer> {
    let descriptor = method.descriptor();
    // Range queries are a typed error at the engine boundary: no method in
    // the suite answers them (previously they silently became 1-NN queries).
    query.knn_k(descriptor.name)?;
    // An unsupported mode is a typed error too: an approximate request never
    // silently becomes a slower or differently-guaranteed answer.
    if !descriptor.modes.supports(query.mode()) {
        return Err(Error::unsupported_mode(descriptor.name, query.mode()));
    }
    let mut attempt: u32 = 1;
    let mut backoff_penalty: u64 = 0;
    loop {
        if let Some(io) = io {
            io.begin_attempt(attempt - 1);
            io.reset_thread_io();
        }
        let mut stats = QueryStats::default();
        let clock = RunClock::start();
        // Panic isolation: a poisoned query becomes a typed internal error
        // instead of unwinding through the workload driver.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            method.search(query, threads, &mut stats)
        }));
        let wall_time = clock.elapsed();
        match outcome {
            Err(panic) => return Err(Error::Internal(panic_message(panic))),
            Ok(Ok(answers)) => {
                if let Some(io) = io {
                    // Methods charge leaf reads through their stats; the store
                    // counters cover raw-file traffic. Keep whichever
                    // accounting path recorded more pages so neither is lost.
                    stats.reconcile_io(io.thread_io_snapshot());
                }
                if backoff_penalty > 0 {
                    // The accumulated backoff is part of this query's cost;
                    // charged after reconciliation so the max-wins rule cannot
                    // absorb it.
                    stats.record_io(0, backoff_penalty, 0);
                }
                return Ok(EngineAnswer {
                    guarantee: answers.guarantee(),
                    answers,
                    stats,
                    wall_time,
                    attempts: attempt,
                });
            }
            Ok(Err(e)) => {
                if e.is_retriable() && attempt < retry.max_attempts {
                    backoff_penalty = backoff_penalty.saturating_add(
                        retry
                            .backoff_pages
                            .checked_shl(attempt - 1)
                            .unwrap_or(u64::MAX),
                    );
                    attempt += 1;
                    continue;
                }
                return Err(e.with_attempts(attempt));
            }
        }
    }
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("method", &self.descriptor().name)
            .field("dataset_size", &self.dataset_size)
            .field("queries_answered", &self.queries_answered)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnHeap;
    use crate::method::MethodDescriptor;
    use crate::query::AnswerMode;
    use crate::series::{Dataset, Series};

    /// A brute-force method that examines every series.
    struct BruteForce {
        data: Dataset,
        io: Arc<FakeIo>,
    }

    impl AnsweringMethod for BruteForce {
        fn descriptor(&self) -> MethodDescriptor {
            MethodDescriptor {
                name: "BruteForce",
                representation: "raw",
                is_index: false,
                modes: crate::method::ModeCapabilities::exact_only(),
            }
        }

        fn search(&self, query: &Query, _: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
            self.io.record(self.data.len() as u64);
            let mut heap = KnnHeap::new(query.k().unwrap_or(1));
            for (i, s) in self.data.iter().enumerate() {
                stats.record_raw_series_examined(1);
                heap.offer(i, crate::distance::euclidean(query.values(), s.values()));
            }
            Ok(heap.into_answer_set())
        }
    }

    /// A thread-sharded page counter, like the store's, so workload tests
    /// exercise the real concurrent path of `answer_workload`.
    #[derive(Default)]
    struct FakeIo {
        #[expect(
            clippy::disallowed_types,
            reason = "test double of the thread-sharded store counters; keyed by thread, never iterated"
        )]
        pages: std::sync::Mutex<std::collections::HashMap<std::thread::ThreadId, u64>>,
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "test double of the thread-sharded store counters; keyed by thread, never iterated"
    )]
    impl FakeIo {
        fn record(&self, pages: u64) {
            *self
                .pages
                .lock()
                .unwrap()
                .entry(std::thread::current().id())
                .or_default() += pages;
        }

        fn snapshot_of(pages: u64) -> IoSnapshot {
            IoSnapshot {
                sequential_pages: pages,
                random_pages: 0,
                bytes_read: pages * 4096,
                bytes_written: 0,
            }
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "test double of the thread-sharded store counters; keyed by thread, never iterated"
    )]
    impl IoSource for FakeIo {
        fn thread_io_snapshot(&self) -> IoSnapshot {
            let pages = self
                .pages
                .lock()
                .unwrap()
                .get(&std::thread::current().id())
                .copied()
                .unwrap_or(0);
            Self::snapshot_of(pages)
        }

        fn reset_thread_io(&self) {
            self.pages
                .lock()
                .unwrap()
                .remove(&std::thread::current().id());
        }
    }

    fn engine() -> QueryEngine {
        let data = Dataset::from_flat(vec![0.0, 0.0, 1.0, 1.0, 5.0, 5.0, 9.0, 9.0], 2);
        let io = Arc::new(FakeIo::default());
        let size = data.len();
        QueryEngine::new(
            Box::new(BruteForce {
                data,
                io: io.clone(),
            }),
            size,
        )
        .with_io_source(io)
        .with_build_measurement(
            Duration::from_millis(3),
            IoSnapshot {
                bytes_written: 64,
                ..Default::default()
            },
        )
    }

    #[test]
    fn engine_answers_and_aggregates() {
        let mut e = engine();
        assert_eq!(e.descriptor().name, "BruteForce");
        assert_eq!(e.footprint(), None, "scans expose no footprint");
        assert_eq!(e.dataset_size(), 4);
        assert_eq!(e.build_time(), Duration::from_millis(3));
        assert_eq!(e.build_io().bytes_written, 64);

        let q = Query::nearest_neighbor(Series::new(vec![0.9, 0.9]));
        let a = e.answer(&q).unwrap();
        assert_eq!(a.answers.nearest().unwrap().id, 1);
        assert_eq!(a.stats.raw_series_examined, 4);
        // Store-side pages exceed the stats-side zero, so they win.
        assert_eq!(a.stats.sequential_page_accesses, 4);
        assert_eq!(a.stats.bytes_read, 4 * 4096);

        e.answer(&q).unwrap();
        assert_eq!(e.queries_answered(), 2);
        assert_eq!(e.totals().raw_series_examined, 8);
        // Brute force examines everything: zero pruning.
        assert_eq!(e.mean_pruning_ratio(), 0.0);

        e.reset_totals();
        assert_eq!(e.queries_answered(), 0);
        assert_eq!(e.totals().raw_series_examined, 0);
    }

    #[test]
    fn io_reconciliation_prefers_the_larger_recording() {
        /// A method that records more I/O into stats than the store observes.
        struct StatsHeavy;
        impl AnsweringMethod for StatsHeavy {
            fn descriptor(&self) -> MethodDescriptor {
                MethodDescriptor {
                    name: "StatsHeavy",
                    representation: "raw",
                    is_index: false,
                    modes: crate::method::ModeCapabilities::exact_only(),
                }
            }
            fn search(&self, _q: &Query, _: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
                stats.record_io(100, 10, 1 << 20);
                Ok(AnswerSet::default())
            }
        }
        let io = Arc::new(FakeIo::default());
        let mut e = QueryEngine::new(Box::new(StatsHeavy), 1).with_io_source(io);
        let q = Query::nearest_neighbor(Series::new(vec![0.0]));
        let a = e.answer(&q).unwrap();
        assert_eq!(a.stats.sequential_page_accesses, 100);
        assert_eq!(a.stats.random_page_accesses, 10);
        assert_eq!(a.stats.bytes_read, 1 << 20);
    }

    #[test]
    fn answer_workload_matches_the_serial_loop() {
        let queries: Vec<Query> = [
            [0.9f32, 0.9],
            [5.1, 5.1],
            [0.1, 0.1],
            [8.0, 8.0],
            [1.2, 0.8],
            [4.4, 4.6],
        ]
        .iter()
        .map(|v| Query::nearest_neighbor(Series::new(v.to_vec())))
        .collect();

        let mut serial = engine();
        let serial_answers: Vec<EngineAnswer> =
            queries.iter().map(|q| serial.answer(q).unwrap()).collect();

        let mut parallel = engine();
        let parallel_answers = parallel
            .answer_workload(&queries, Parallelism::Threads(3))
            .unwrap();

        assert_eq!(parallel_answers.len(), queries.len());
        for (s, p) in serial_answers.iter().zip(&parallel_answers) {
            assert_eq!(s.answers, p.answers);
            assert_eq!(s.stats.raw_series_examined, p.stats.raw_series_examined);
            assert_eq!(
                s.stats.sequential_page_accesses,
                p.stats.sequential_page_accesses
            );
            assert_eq!(s.stats.bytes_read, p.stats.bytes_read);
        }
        assert_eq!(parallel.queries_answered(), serial.queries_answered());
        assert_eq!(
            parallel.totals().raw_series_examined,
            serial.totals().raw_series_examined
        );
        assert_eq!(parallel.totals().bytes_read, serial.totals().bytes_read);
    }

    #[test]
    fn answer_workload_serial_fallback_and_empty_workload() {
        let mut e = engine();
        assert!(e
            .answer_workload(&[], Parallelism::Auto)
            .unwrap()
            .is_empty());
        let q = Query::nearest_neighbor(Series::new(vec![0.9, 0.9]));
        let answers = e
            .answer_workload(std::slice::from_ref(&q), Parallelism::Serial)
            .unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].answers.nearest().unwrap().id, 1);
        assert_eq!(e.queries_answered(), 1);
    }

    #[test]
    fn answer_workload_reports_the_first_error_in_workload_order() {
        /// Fails on queries whose first value is negative.
        struct Picky;
        impl AnsweringMethod for Picky {
            fn descriptor(&self) -> MethodDescriptor {
                MethodDescriptor {
                    name: "Picky",
                    representation: "raw",
                    is_index: false,
                    modes: crate::method::ModeCapabilities::exact_only(),
                }
            }
            fn search(&self, q: &Query, _: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
                if q.values()[0] < 0.0 {
                    return Err(crate::Error::EmptyDataset);
                }
                stats.record_raw_series_examined(1);
                Ok(AnswerSet::default())
            }
        }
        let mut e = QueryEngine::new(Box::new(Picky), 1);
        let queries: Vec<Query> = [1.0f32, 2.0, -3.0, 4.0, -5.0]
            .iter()
            .map(|&v| Query::nearest_neighbor(Series::new(vec![v])))
            .collect();
        let err = e.answer_workload(&queries, Parallelism::Threads(2));
        assert!(err.is_err());
        // Exactly the two queries before the first failure were merged.
        assert_eq!(e.queries_answered(), 2);
        assert_eq!(e.totals().raw_series_examined, 2);
    }

    /// A brute-force method with a native batch kernel: one shared "pass"
    /// (one FakeIo recording) answers the whole batch, while each query's
    /// stats keep the full per-query pass the serial path charges.
    struct BatchBruteForce {
        inner: BruteForce,
    }

    impl AnsweringMethod for BatchBruteForce {
        fn descriptor(&self) -> MethodDescriptor {
            self.inner.descriptor()
        }
        fn search(
            &self,
            query: &Query,
            threads: usize,
            stats: &mut QueryStats,
        ) -> Result<AnswerSet> {
            self.inner.search(query, threads, stats)
        }
        fn batch_answering(&self) -> Option<&dyn crate::method::BatchAnswering> {
            Some(self)
        }
    }

    impl crate::method::BatchAnswering for BatchBruteForce {
        fn answer_batch(
            &self,
            queries: &[Query],
            stats: &mut [QueryStats],
        ) -> Result<Vec<AnswerSet>> {
            let n = self.inner.data.len() as u64;
            // One physical pass for the whole chunk...
            self.inner.io.record(n);
            let mut out = Vec::with_capacity(queries.len());
            for (query, stats) in queries.iter().zip(stats.iter_mut()) {
                let mut heap = KnnHeap::new(query.knn_k("BruteForce")?);
                for (i, s) in self.inner.data.iter().enumerate() {
                    stats.record_raw_series_examined(1);
                    heap.offer(i, crate::distance::euclidean(query.values(), s.values()));
                }
                // ...while every query keeps the logical pass the serial
                // path reconciles into its stats.
                stats.record_io(n, 0, n * 4096);
                out.push(heap.into_answer_set());
            }
            Ok(out)
        }
    }

    fn batch_engine() -> QueryEngine {
        let data = Dataset::from_flat(vec![0.0, 0.0, 1.0, 1.0, 5.0, 5.0, 9.0, 9.0], 2);
        let io = Arc::new(FakeIo::default());
        let size = data.len();
        QueryEngine::new(
            Box::new(BatchBruteForce {
                inner: BruteForce {
                    data,
                    io: io.clone(),
                },
            }),
            size,
        )
        .with_io_source(io)
    }

    fn batch_queries() -> Vec<Query> {
        [
            [0.9f32, 0.9],
            [5.1, 5.1],
            [0.1, 0.1],
            [8.0, 8.0],
            [4.4, 4.6],
        ]
        .iter()
        .map(|v| Query::nearest_neighbor(Series::new(v.to_vec())))
        .collect()
    }

    #[test]
    fn answer_batch_matches_the_serial_loop_and_amortizes_physical_io() {
        let queries = batch_queries();
        let mut serial = batch_engine();
        let serial_answers: Vec<EngineAnswer> =
            queries.iter().map(|q| serial.answer(q).unwrap()).collect();

        for threads in [Parallelism::Serial, Parallelism::Threads(2)] {
            let mut batched = batch_engine();
            let batch_answers = batched.answer_batch(&queries, threads).unwrap();
            assert_eq!(batch_answers.len(), queries.len());
            for (s, b) in serial_answers.iter().zip(&batch_answers) {
                assert_eq!(s.answers, b.answers);
                assert_eq!(s.stats.raw_series_examined, b.stats.raw_series_examined);
                assert_eq!(
                    s.stats.sequential_page_accesses,
                    b.stats.sequential_page_accesses
                );
                assert_eq!(s.stats.bytes_read, b.stats.bytes_read);
            }
            assert_eq!(batched.queries_answered(), queries.len() as u64);
            assert_eq!(
                batched.totals().raw_series_examined,
                serial.totals().raw_series_examined
            );
            // Physical traffic: one pass per chunk, not one per query.
            let physical = batched.last_batch_io().expect("a native kernel ran");
            let chunks = match threads {
                Parallelism::Serial => 1,
                _ => 2,
            };
            assert_eq!(physical.sequential_pages, 4 * chunks);
            // Each query's logical stats still carry the full pass.
            assert_eq!(batch_answers[0].stats.sequential_page_accesses, 4);
        }
    }

    #[test]
    fn answer_batch_without_a_kernel_falls_back_to_the_per_query_loop() {
        let queries = batch_queries();
        let mut plain = engine();
        let answers = plain
            .answer_batch(&queries, Parallelism::Threads(2))
            .unwrap();
        assert_eq!(answers.len(), queries.len());
        assert_eq!(answers[0].answers.nearest().unwrap().id, 1);
        assert_eq!(plain.last_batch_io(), None, "no native kernel ran");
        assert_eq!(plain.queries_answered(), queries.len() as u64);
    }

    #[test]
    fn answer_batch_empty_batch_is_a_no_op() {
        let mut e = batch_engine();
        assert!(e.answer_batch(&[], Parallelism::Auto).unwrap().is_empty());
        assert_eq!(e.queries_answered(), 0);
        assert_eq!(e.last_batch_io(), None);
    }

    #[test]
    fn answer_batch_routes_unsupported_modes_like_the_serial_loop() {
        // Strict: the queries before the first unsupported mode are answered
        // and merged, then the typed error surfaces — exactly the per-query
        // path's behaviour.
        let mut e = batch_engine();
        let mut queries = batch_queries();
        queries[2] = queries[2].clone().with_mode(AnswerMode::NgApproximate);
        match e.answer_batch(&queries, Parallelism::Serial) {
            Err(Error::UnsupportedMode { method, mode }) => {
                assert_eq!(method, "BruteForce");
                assert_eq!(mode, AnswerMode::NgApproximate);
            }
            other => panic!("expected UnsupportedMode, got {other:?}"),
        }
        assert_eq!(e.queries_answered(), 2, "the prefix was answered");
        assert_eq!(e.totals().raw_series_examined, 8);
        assert!(
            e.last_batch_io().is_some(),
            "the kernel ran over the answered prefix"
        );

        // With the FIRST query rejected nothing reaches the kernel, so no
        // batch traffic is reported.
        let mut e = batch_engine();
        let mut queries = batch_queries();
        queries[0] = queries[0].clone().with_mode(AnswerMode::NgApproximate);
        assert!(e.answer_batch(&queries, Parallelism::Serial).is_err());
        assert_eq!(e.queries_answered(), 0);
        assert_eq!(e.last_batch_io(), None, "no kernel work ran");

        // Range queries are typed errors after the prefix, like the serial
        // loop.
        let mut e = batch_engine();
        let mut queries = batch_queries();
        queries[1] = Query::range(Series::new(vec![0.0, 0.0]), 1.0);
        assert!(matches!(
            e.answer_batch(&queries, Parallelism::Serial),
            Err(Error::UnsupportedQuery { .. })
        ));
        assert_eq!(e.queries_answered(), 1);
    }

    #[test]
    fn pruning_ratio_reflects_partial_examination() {
        /// Pretends to examine one series per query over a 10-series dataset.
        struct Pruner;
        impl AnsweringMethod for Pruner {
            fn descriptor(&self) -> MethodDescriptor {
                MethodDescriptor {
                    name: "Pruner",
                    representation: "raw",
                    is_index: true,
                    modes: crate::method::ModeCapabilities::exact_only(),
                }
            }
            fn search(&self, _q: &Query, _: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
                stats.record_raw_series_examined(1);
                Ok(AnswerSet::default())
            }
        }
        let mut e = QueryEngine::new(Box::new(Pruner), 10);
        let q = Query::nearest_neighbor(Series::new(vec![0.0]));
        e.answer(&q).unwrap();
        e.answer(&q).unwrap();
        assert!((e.mean_pruning_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn unsupported_modes_are_typed_errors_under_the_strict_policy() {
        let mut e = engine();
        let q = Query::nearest_neighbor(Series::new(vec![0.9, 0.9]))
            .with_mode(AnswerMode::NgApproximate);
        match e.answer(&q) {
            Err(Error::UnsupportedMode { method, mode }) => {
                assert_eq!(method, "BruteForce");
                assert_eq!(mode, AnswerMode::NgApproximate);
            }
            other => panic!("expected UnsupportedMode, got {other:?}"),
        }
        // The failed query is not counted.
        assert_eq!(e.queries_answered(), 0);
        // The workload driver surfaces the same error.
        assert!(matches!(
            e.answer_workload(std::slice::from_ref(&q), Parallelism::Threads(2)),
            Err(Error::UnsupportedMode { .. })
        ));
    }

    #[test]
    fn range_queries_are_typed_errors_at_the_engine_boundary() {
        let mut e = engine();
        let q = Query::range(Series::new(vec![0.9, 0.9]), 2.0);
        match e.answer(&q) {
            Err(Error::UnsupportedQuery { method, reason }) => {
                assert_eq!(method, "BruteForce");
                assert!(reason.contains("range"), "{reason}");
            }
            other => panic!("expected UnsupportedQuery, got {other:?}"),
        }
        assert_eq!(e.queries_answered(), 0);
    }

    #[test]
    fn handle_answers_match_the_engine_bit_for_bit() {
        let mut e = engine();
        let queries: Vec<Query> = [[0.9f32, 0.9], [5.1, 5.1], [8.0, 8.0]]
            .iter()
            .map(|v| Query::nearest_neighbor(Series::new(v.to_vec())))
            .collect();
        let engine_answers: Vec<EngineAnswer> =
            queries.iter().map(|q| e.answer(q).unwrap()).collect();

        let handle = engine().into_handle();
        assert_eq!(handle.descriptor().name, "BruteForce");
        assert_eq!(handle.dataset_size(), 4);
        let clone = handle.clone();
        for (q, expected) in queries.iter().zip(&engine_answers) {
            for h in [&handle, &clone] {
                let a = h.answer(q).unwrap();
                assert_eq!(a.answers, expected.answers);
                assert_eq!(a.guarantee, expected.guarantee);
                assert_eq!(
                    a.stats.raw_series_examined,
                    expected.stats.raw_series_examined
                );
                assert_eq!(
                    a.stats.sequential_page_accesses,
                    expected.stats.sequential_page_accesses
                );
                assert_eq!(a.stats.bytes_read, expected.stats.bytes_read);
                assert_eq!(a.attempts, expected.attempts);
            }
        }
        // The handle keeps the engine's mode routing: unsupported modes stay
        // typed errors.
        let q = Query::nearest_neighbor(Series::new(vec![0.9, 0.9]))
            .with_mode(AnswerMode::NgApproximate);
        assert!(matches!(
            handle.answer(&q),
            Err(Error::UnsupportedMode { .. })
        ));
    }

    #[test]
    fn engine_answers_carry_the_guarantee_tag() {
        let mut e = engine();
        let q = Query::nearest_neighbor(Series::new(vec![0.9, 0.9]));
        let a = e.answer(&q).unwrap();
        assert_eq!(a.guarantee, Guarantee::Exact);
        assert_eq!(a.answers.guarantee(), Guarantee::Exact);
    }
}
