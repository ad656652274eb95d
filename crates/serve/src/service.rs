//! The query service: admission control, deadline mapping, scatter-gather
//! dispatch and the answer cache, glued onto the executor.
//!
//! A request's life: [`QueryService::submit`] first applies **admission
//! control** — at most `queue_capacity` requests may be in flight, and the
//! excess is shed *synchronously* with a typed [`Error::Overloaded`] before
//! any work happens, so shedding order is a pure function of the arrival
//! order. Admitted requests with no explicit budget get one derived from the
//! configured **deadline**: the deadline's byte allowance under the storage
//! cost model, divided by the series size, becomes a raw-read [`Budget`] — a
//! late query degrades to a best-so-far answer tagged
//! [`Guarantee::Truncated`](hydra_core::Guarantee) instead of timing out.
//! The request future then consults the **answer cache** (keyed on dataset
//! fingerprint × canonical query hash × mode) and on a miss runs every shard
//! in parallel on min(shards, CPUs) threads (the caller plus helper threads
//! the service keeps parked between requests, all claiming shards from one
//! counter), gathers in shard order, and merges under the
//! [`QuorumPolicy`](crate::QuorumPolicy) via [`merge_quorum`] — with every
//! shard answering, the exact per-shard calls and
//! [`merge_shard_answers`](crate::merge_shard_answers) merge of the serial
//! [`scatter_gather`] reference, so the pipeline's answers are bit-identical
//! to it whatever the thread count.

use crate::cache::{AnswerCache, CacheKey, CacheStats, CachedAnswer};
use crate::executor::Executor;
use crate::resilience::{ResilienceConfig, ShardHealth, ShardHealthReport};
use crate::shard::{merge_quorum, scatter_gather, ShardEngine};
use hydra_core::{
    parallel, AnswerMode, AnswerSet, Budget, Dataset, EngineAnswer, Error, Guarantee, Query,
    QueryEngine, QueryStats, Result,
};
use hydra_storage::{partition_dataset, snapshot, CostModel, DatasetStore};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of engine shards the dataset is partitioned over (clamped to
    /// the dataset size; ≥ 1).
    pub shards: usize,
    /// Admission limit: the maximum number of requests in flight before
    /// submissions shed with [`Error::Overloaded`].
    pub queue_capacity: usize,
    /// Answer-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Default request deadline; mapped onto a raw-read budget for queries
    /// that carry none. `None` leaves queries unbudgeted.
    pub deadline_ms: Option<u64>,
    /// The storage cost model the deadline mapping prices reads with.
    pub cost_model: CostModel,
    /// Partial-failure policy: quorum, the retry override and the shard
    /// fault plan. The default is the strict pre-resilience behaviour (all
    /// shards must answer, nothing injected).
    pub resilience: ResilienceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            queue_capacity: 64,
            cache_capacity: 256,
            deadline_ms: None,
            cost_model: CostModel::ssd(),
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Admission/completion counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted past the queue.
    pub accepted: u64,
    /// Requests shed with [`Error::Overloaded`].
    pub shed: u64,
    /// Requests that produced an answer (hit or cold).
    pub completed: u64,
}

/// One served answer: the merged scatter-gather result plus serving
/// provenance.
#[derive(Clone, Debug)]
pub struct ServeAnswer {
    /// The merged answer set.
    pub answers: AnswerSet,
    /// The merged guarantee.
    pub guarantee: Guarantee,
    /// Summed per-shard work counters (zero-cost for cache hits).
    pub stats: QueryStats,
    /// Engine wall time of the cold run: the slowest shard's, because the
    /// scatter runs the shards in parallel (a lower bound on the scatter's
    /// elapsed time when shards outnumber CPUs); zero for hits.
    pub wall_time: Duration,
    /// Max attempts over the shards of the cold run; zero for hits.
    pub attempts: u32,
    /// Whether the answer came from the cache.
    pub from_cache: bool,
}

/// Handle to a submitted request; poll it after driving the executor.
pub struct RequestHandle {
    join: crate::executor::JoinHandle<Result<ServeAnswer>>,
}

impl std::fmt::Debug for RequestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestHandle")
            .field("finished", &self.join.is_finished())
            .finish()
    }
}

impl RequestHandle {
    /// Whether the request has finished (its result may already be taken).
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }

    /// Takes the result if the request has finished.
    pub fn try_take(&self) -> Option<Result<ServeAnswer>> {
        self.join.try_take()
    }
}

/// The shared service state request futures run against.
struct ServiceInner {
    shards: Arc<[ShardEngine]>,
    /// One outcome ledger per shard, indexed like `shards`.
    health: Vec<ShardHealth>,
    executor: Executor,
    cache: Mutex<AnswerCache>,
    config: ServeConfig,
    dataset_fingerprint: u64,
    total_size: usize,
    series_bytes: u64,
    /// The threads a miss's scatter shares its shards with.
    helpers: ScatterHelpers,
    in_flight: AtomicUsize,
    accepted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
}

/// The threads a miss's scatter runs on besides the caller: spawned with
/// the service, parked between requests, and joined when the last
/// [`QueryService`] clone is dropped. A miss publishes one [`ScatterJob`]
/// and claims shards from it like any helper, so it never waits for a
/// helper to be scheduled before work starts: when the other CPUs are busy,
/// the caller takes the remaining shards itself.
struct ScatterHelpers {
    mailbox: Arc<Mailbox>,
    threads: Vec<JoinHandle<()>>,
}

/// Where the helpers wait for the next job.
#[derive(Default)]
struct Mailbox {
    posted: std::sync::Mutex<Posted>,
    wake: Condvar,
}

/// The latest published job.
#[derive(Default)]
struct Posted {
    job: Option<Arc<ScatterJob>>,
    /// Bumped per publication, so a helper joins each job at most once.
    generation: u64,
    /// Set when the service is dropped: the helpers exit.
    closed: bool,
}

/// One miss's scatter: its query, the counter its shards are claimed from,
/// and their outcomes, signalled on `done` once all are in.
struct ScatterJob {
    query: Query,
    next: AtomicUsize,
    outcomes: std::sync::Mutex<Outcomes>,
    done: Condvar,
}

/// One outcome slot per shard, and how many are still empty.
struct Outcomes {
    slots: Vec<Option<Result<EngineAnswer>>>,
    missing: usize,
}

/// Locks a scatter mutex. No code panics while holding one, so a poisoned
/// lock would still guard consistent state.
fn lock<T>(mutex: &std::sync::Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ScatterHelpers {
    /// Starts up to `count` helpers over `shards`; a helper the OS refuses
    /// is simply not there, and the callers claim its share.
    fn spawn(count: usize, shards: &Arc<[ShardEngine]>) -> Self {
        let mailbox = Arc::new(Mailbox::default());
        let threads = (0..count)
            .filter_map(|i| {
                let (mailbox, shards) = (mailbox.clone(), shards.clone());
                std::thread::Builder::new()
                    .name(format!("hydra-scatter-{i}"))
                    .spawn(move || mailbox.serve(&shards))
                    .ok()
            })
            .collect();
        Self { mailbox, threads }
    }

    /// Answers `query` on every shard, on the caller and the helpers, and
    /// returns the outcomes in shard order.
    fn scatter(&self, shards: &[ShardEngine], query: &Query) -> Vec<Result<EngineAnswer>> {
        let job = Arc::new(ScatterJob {
            query: query.clone(),
            next: AtomicUsize::new(0),
            outcomes: std::sync::Mutex::new(Outcomes {
                slots: shards.iter().map(|_| None).collect(),
                missing: shards.len(),
            }),
            done: Condvar::new(),
        });
        if !self.threads.is_empty() {
            let mut posted = lock(&self.mailbox.posted);
            posted.job = Some(job.clone());
            posted.generation += 1;
            drop(posted);
            self.mailbox.wake.notify_all();
        }
        job.run(shards);
        // Every shard is claimed by now; wait for the helpers' outcomes.
        let mut outcomes = lock(&job.outcomes);
        while outcomes.missing > 0 {
            outcomes = job
                .done
                .wait(outcomes)
                .unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut outcomes.slots)
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(Error::Internal(
                        "a scattered shard left no outcome".to_string(),
                    ))
                })
            })
            .collect()
    }
}

impl Drop for ScatterHelpers {
    fn drop(&mut self) {
        lock(&self.mailbox.posted).closed = true;
        self.mailbox.wake.notify_all();
        for thread in self.threads.drain(..) {
            // A helper catches every shard's panic, so it only ever returns.
            let _ = thread.join();
        }
    }
}

impl Mailbox {
    /// A helper's life: wait for a job it has not joined yet, claim its
    /// shards, repeat until the service closes the mailbox.
    fn serve(&self, shards: &[ShardEngine]) {
        let mut joined = 0u64;
        loop {
            let job = {
                let mut posted = lock(&self.posted);
                while !posted.closed && posted.generation == joined {
                    posted = self
                        .wake
                        .wait(posted)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if posted.closed {
                    return;
                }
                joined = posted.generation;
                posted.job.clone()
            };
            if let Some(job) = job {
                job.run(shards);
            }
        }
    }
}

impl ScatterJob {
    /// Claims and answers shards until none is left. A panic that escapes
    /// a shard's engine becomes that shard's typed [`Error::Internal`], so
    /// every slot is filled and no thread waits on a lost shard.
    fn run(&self, shards: &[ShardEngine]) {
        loop {
            // The counter publishes nothing: the job reaches a helper under
            // the mailbox lock, and its outcomes go back under their own.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(shard) = shards.get(i) else {
                return;
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shard.answer(&self.query)
            }))
            .unwrap_or_else(|_| Err(Error::Internal(format!("shard {i} panicked"))));
            let mut outcomes = lock(&self.outcomes);
            outcomes.slots[i] = Some(outcome);
            outcomes.missing -= 1;
            if outcomes.missing == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// A sharded, cached, admission-controlled query service over one dataset.
/// Cloning shares all state (shards, cache, executor, counters).
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
}

impl QueryService {
    /// Builds a service: partitions `dataset` into `config.shards` contiguous
    /// shards, wraps each in its own instrumented store, and builds an engine
    /// per shard through `builder` (shard index, shard store) — the seam
    /// through which callers choose fresh builds or snapshot loads without
    /// this crate knowing any concrete method.
    pub fn build<F>(dataset: &Dataset, config: ServeConfig, builder: F) -> Result<QueryService>
    where
        F: Fn(usize, Arc<DatasetStore>) -> Result<QueryEngine>,
    {
        if config.queue_capacity == 0 {
            return Err(Error::invalid_parameter(
                "queue_capacity",
                "must admit at least one request",
            ));
        }
        let dataset_fingerprint = snapshot::dataset_fingerprint(dataset);
        let series_bytes = (dataset.series_length() * std::mem::size_of::<f32>()) as u64;
        let mut shards = Vec::new();
        let mut health = Vec::new();
        for (i, part) in partition_dataset(dataset, config.shards)?
            .into_iter()
            .enumerate()
        {
            // Each shard is an independent fault domain: its store carries
            // its own seeded fault stream, derived from the service-level
            // plan so one seed deterministically degrades shards
            // independently of each other (and of the shard count of other
            // runs).
            let store = Arc::new(
                DatasetStore::new(part.dataset)
                    .with_fault_plan(config.resilience.shard_faults.for_shard(i)),
            );
            let mut engine = builder(i, store)?;
            if let Some(retry) = config.resilience.retry {
                engine = engine.with_retry_policy(retry);
            }
            shards.push(ShardEngine {
                range: part.range,
                handle: engine.into_handle(),
            });
            health.push(ShardHealth::default());
        }
        let shards: Arc<[ShardEngine]> = shards.into();
        // A miss runs on the caller plus these helpers: min(shards, CPUs)
        // threads in all, the CPUs read once here because
        // `available_parallelism` re-reads the cgroup files per call.
        let helpers = parallel::available_threads()
            .min(shards.len())
            .saturating_sub(1);
        Ok(QueryService {
            inner: Arc::new(ServiceInner {
                helpers: ScatterHelpers::spawn(helpers, &shards),
                shards,
                health,
                executor: Executor::new(),
                cache: Mutex::new(AnswerCache::new(config.cache_capacity)),
                config,
                dataset_fingerprint,
                total_size: dataset.len(),
                series_bytes,
                in_flight: AtomicUsize::new(0),
                accepted: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                completed: AtomicU64::new(0),
            }),
        })
    }

    /// Submits a query. Sheds synchronously with [`Error::Overloaded`] when
    /// `queue_capacity` requests are already in flight; otherwise attaches
    /// the deadline-derived budget (if the query carries none and a deadline
    /// is configured) and spawns the request future. Drive the executor
    /// ([`QueryService::drive`] / [`QueryService::run_one`]) to make
    /// progress.
    pub fn submit(&self, query: Query) -> Result<RequestHandle> {
        let inner = &self.inner;
        // Admission under a CAS loop: the slot is claimed atomically, so the
        // capacity is never oversubscribed even under concurrent submitters.
        let mut current = inner.in_flight.load(Ordering::Acquire);
        loop {
            if current >= inner.config.queue_capacity {
                inner.shed.fetch_add(1, Ordering::Relaxed);
                return Err(Error::Overloaded {
                    capacity: inner.config.queue_capacity,
                });
            }
            match inner.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(now) => current = now,
            }
        }
        inner.accepted.fetch_add(1, Ordering::Relaxed);
        let query = match (query.budget(), inner.config.deadline_ms) {
            (None, Some(deadline_ms)) => query.with_budget(Some(deadline_budget(
                deadline_ms,
                inner.series_bytes,
                &inner.config.cost_model,
            ))),
            _ => query,
        };
        let state = inner.clone();
        let join = inner.executor.spawn(async move {
            let result = process_request(&state, &query);
            if result.is_ok() {
                state.completed.fetch_add(1, Ordering::Relaxed);
            }
            state.in_flight.fetch_sub(1, Ordering::AcqRel);
            result
        });
        Ok(RequestHandle { join })
    }

    /// Drives the executor on the calling thread until no task is ready.
    pub fn drive(&self) {
        self.inner.executor.run_until_idle();
    }

    /// Polls one ready task; `false` when none is ready. The load
    /// generator's event loop interleaves this with its arrival schedule.
    pub fn run_one(&self) -> bool {
        self.inner.executor.run_one()
    }

    /// Submit-and-drive convenience: answers one query to completion.
    pub fn answer(&self, query: Query) -> Result<ServeAnswer> {
        let handle = self.submit(query)?;
        self.drive();
        match handle.try_take() {
            Some(result) => result,
            None => Err(Error::Internal(
                "request did not complete after an idle drive".to_string(),
            )),
        }
    }

    /// The serial scatter-gather reference over the same shards: the answer
    /// the async pipeline must (and does — see `tests/serve_agreement.rs`)
    /// reproduce bit-for-bit.
    pub fn reference_answer(&self, query: &Query) -> Result<EngineAnswer> {
        scatter_gather(&self.inner.shards, self.inner.total_size, query)
    }

    /// The per-shard engines (ranges and handles), in shard order.
    pub fn shards(&self) -> &[ShardEngine] {
        &self.inner.shards
    }

    /// The total dataset size across all shards.
    pub fn dataset_size(&self) -> usize {
        self.inner.total_size
    }

    /// The served dataset's fingerprint (the cache-key component).
    pub fn dataset_fingerprint(&self) -> u64 {
        self.inner.dataset_fingerprint
    }

    /// Admission/completion counters.
    pub fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            accepted: self.inner.accepted.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
        }
    }

    /// Answer-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.lock().stats()
    }

    /// Per-shard outcome counters (successes, failures), in shard order.
    pub fn resilience_report(&self) -> Vec<ShardHealthReport> {
        self.inner.health.iter().map(ShardHealth::report).collect()
    }

    /// Requests currently in flight (admitted, not yet completed).
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::Acquire)
    }
}

/// The cache key of a query against this service's dataset.
fn cache_key(inner: &ServiceInner, query: &Query) -> CacheKey {
    CacheKey {
        dataset_fingerprint: inner.dataset_fingerprint,
        query_hash: query.canonical_hash(),
        mode_tag: mode_tag(query.mode()),
    }
}

/// The coarse mode discriminant of a cache key.
fn mode_tag(mode: AnswerMode) -> u8 {
    match mode {
        AnswerMode::Exact => 0,
        AnswerMode::NgApproximate => 1,
        AnswerMode::EpsilonApproximate { .. } => 2,
        AnswerMode::DeltaEpsilon { .. } => 3,
    }
}

/// The strongest guarantee a cold run of `query` could earn: the mode's
/// nominal guarantee, weakened to a truncation requirement when the query is
/// budgeted (a budgeted run may stop early). This is the bar a cache entry
/// must meet to be served — an entry *below* it (e.g. a
/// [`Guarantee::Partial`] answer cached during an outage) is recomputed, not
/// replayed, so caching never launders a degraded answer into a full one.
fn attainable_guarantee(query: &Query) -> Guarantee {
    let nominal = match query.mode() {
        AnswerMode::Exact => Guarantee::Exact,
        AnswerMode::NgApproximate => Guarantee::None,
        AnswerMode::EpsilonApproximate { epsilon } => Guarantee::EpsilonBound { epsilon },
        AnswerMode::DeltaEpsilon { delta, epsilon } => {
            Guarantee::ProbabilisticEpsilonBound { delta, epsilon }
        }
    };
    if query.budget().is_some() && !matches!(nominal, Guarantee::None) {
        // Any complete or truncated same-budget answer qualifies; only
        // strictly-weaker tags (None, Partial) are rejected.
        Guarantee::Truncated {
            examined_fraction: 0.0,
        }
    } else {
        nominal
    }
}

/// One request: strength-gated cache lookup, then a parallel scatter to every
/// shard, a quorum-checked gather, and on total failure a
/// stale-but-honestly-tagged cache fallback.
fn process_request(inner: &ServiceInner, query: &Query) -> Result<ServeAnswer> {
    let key = cache_key(inner, query);
    let required = attainable_guarantee(query);
    if let Some(hit) = inner.cache.lock().get(&key, &required) {
        return Ok(ServeAnswer {
            answers: hit.answers,
            guarantee: hit.guarantee,
            stats: hit.stats,
            wall_time: Duration::ZERO,
            attempts: 0,
            from_cache: true,
        });
    }
    // Scatter: every shard runs in parallel, one engine call each; shards
    // share no mutable state.
    let results = inner.helpers.scatter(&inner.shards, query);
    // Gather in shard order: the merge input order — and therefore the merge
    // itself — is deterministic regardless of completion order, and shard
    // errors surface in shard order exactly like the serial reference.
    let parts: Vec<_> = inner
        .shards
        .iter()
        .zip(&inner.health)
        .zip(results)
        .map(|((shard, health), outcome)| {
            health.record(outcome.is_ok());
            (shard.range.clone(), outcome)
        })
        .collect();
    let k = query.k().unwrap_or(1);
    let shards_total = parts.len() as u32;
    match merge_quorum(k, inner.total_size, parts, inner.config.resilience.quorum) {
        Ok(out) => {
            // Full merges always cache (upgrading any degraded entry);
            // Partial merges cache only into a vacant slot — they must never
            // overwrite a stronger answer, and the strength-gated lookup
            // keeps them from impersonating one. They exist in the cache
            // purely as last-resort stale-fallback material.
            let full = out.shards_answered == out.shards_total;
            let mut cache = inner.cache.lock();
            if full || !cache.contains(&key) {
                cache.insert(
                    key,
                    CachedAnswer {
                        answers: out.merged.answers.clone(),
                        guarantee: out.merged.guarantee,
                        stats: out.merged.stats.clone(),
                    },
                );
            }
            drop(cache);
            Ok(ServeAnswer {
                answers: out.merged.answers,
                guarantee: out.merged.guarantee,
                stats: out.merged.stats,
                wall_time: out.merged.wall_time,
                attempts: out.merged.attempts,
                from_cache: false,
            })
        }
        Err(e) => {
            // Quorum failed. Last resort: serve a stale cached answer for
            // this exact key, re-tagged as a zero-shard partial so the
            // degradation is visible — never silently, never untagged.
            if let Some(stale) = inner.cache.lock().get_any(&key) {
                let guarantee = Guarantee::partial(0, shards_total.max(1), stale.guarantee);
                return Ok(ServeAnswer {
                    answers: stale.answers.with_guarantee(guarantee),
                    guarantee,
                    stats: stale.stats,
                    wall_time: Duration::ZERO,
                    attempts: 0,
                    from_cache: true,
                });
            }
            Err(e)
        }
    }
}

/// Maps a deadline onto a raw-read budget under a storage cost model: the
/// bytes the model's sequential bandwidth delivers within the deadline,
/// divided by the series size, clamped to ≥ 1 read (the budget contract
/// never returns an empty answer). Each shard receives the full budget —
/// shards are independent stores that the scatter searches in parallel, so
/// the deadline bounds each shard's own I/O, not the sum.
pub fn deadline_budget(deadline_ms: u64, series_bytes: u64, model: &CostModel) -> Budget {
    let deadline_secs = deadline_ms as f64 / 1000.0;
    let bytes = deadline_secs * model.sequential_bytes_per_sec;
    let reads = (bytes / series_bytes.max(1) as f64).floor() as u64;
    Budget::raw_reads(reads.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::QuorumPolicy;
    use hydra_core::{AnsweringMethod, KnnHeap, MethodDescriptor, Series};
    use std::sync::atomic::AtomicU64;

    /// A brute-force k-NN over a store, so shard answers flow through the
    /// real counted-I/O path.
    fn scan_store(store: &DatasetStore, query: &Query, stats: &mut QueryStats) -> AnswerSet {
        let mut heap = KnnHeap::new(query.k().unwrap_or(1));
        for i in 0..store.len() {
            let s = store.read_series(i);
            stats.record_raw_series_examined(1);
            heap.offer(i, hydra_core::euclidean(query.values(), s.values()));
        }
        heap.into_answer_set()
    }

    fn descriptor(name: &'static str) -> MethodDescriptor {
        MethodDescriptor {
            name,
            representation: "raw",
            is_index: false,
            modes: hydra_core::ModeCapabilities::exact_only(),
        }
    }

    /// A store-reading brute-force scan.
    struct StoreScan {
        store: Arc<DatasetStore>,
    }

    impl AnsweringMethod for StoreScan {
        fn descriptor(&self) -> MethodDescriptor {
            descriptor("StoreScan")
        }

        fn search(&self, query: &Query, _: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
            Ok(scan_store(&self.store, query, stats))
        }
    }

    /// A scan that starts failing after `fail_from` calls (0 = always
    /// fails), for exercising the degraded paths deterministically.
    struct FlakyScan {
        store: Arc<DatasetStore>,
        fail_from: u64,
        calls: AtomicU64,
    }

    impl AnsweringMethod for FlakyScan {
        fn descriptor(&self) -> MethodDescriptor {
            descriptor("FlakyScan")
        }

        fn search(&self, query: &Query, _: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
            if self.calls.fetch_add(1, Ordering::Relaxed) >= self.fail_from {
                return Err(Error::EmptyDataset);
            }
            Ok(scan_store(&self.store, query, stats))
        }
    }

    fn flaky_engine(store: Arc<DatasetStore>, fail_from: u64) -> Result<QueryEngine> {
        let size = store.len();
        Ok(QueryEngine::new(
            Box::new(FlakyScan {
                store: store.clone(),
                fail_from,
                calls: AtomicU64::new(0),
            }),
            size,
        )
        .with_io_source(store))
    }

    /// A service whose shard `i` fails from its `fail_from[i]`-th call.
    fn degraded_service(config: ServeConfig, fail_from: &[u64]) -> QueryService {
        let fail_from = fail_from.to_vec();
        QueryService::build(&dataset(24), config, move |i, store| {
            flaky_engine(store, fail_from[i])
        })
        .expect("service builds")
    }

    fn dataset(len: usize) -> Dataset {
        let values: Vec<f32> = (0..len * 4).map(|v| (v % 17) as f32).collect();
        Dataset::from_flat(values, 4)
    }

    fn service(config: ServeConfig) -> QueryService {
        QueryService::build(&dataset(24), config, |_, store| {
            let size = store.len();
            Ok(QueryEngine::new(
                Box::new(StoreScan {
                    store: store.clone(),
                }),
                size,
            )
            .with_io_source(store))
        })
        .expect("service builds")
    }

    fn query(v: f32, k: usize) -> Query {
        Query::knn(Series::new(vec![v, v, v, v]), k)
    }

    #[test]
    fn sharded_service_matches_the_serial_reference() {
        for shards in [1, 2, 4] {
            let svc = service(ServeConfig {
                shards,
                cache_capacity: 0,
                ..ServeConfig::default()
            });
            assert_eq!(svc.shards().len(), shards);
            for k in [1, 3, 10] {
                let q = query(3.0, k);
                let reference = svc.reference_answer(&q).unwrap();
                let served = svc.answer(q).unwrap();
                assert_eq!(served.answers, reference.answers);
                assert_eq!(served.guarantee, reference.guarantee);
                assert_eq!(served.stats, reference.stats);
                assert!(!served.from_cache);
            }
        }
    }

    #[test]
    fn cache_hits_are_bit_identical_to_cold_answers() {
        let svc = service(ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        });
        let cold = svc.answer(query(5.0, 3)).unwrap();
        assert!(!cold.from_cache);
        let hit = svc.answer(query(5.0, 3)).unwrap();
        assert!(hit.from_cache);
        assert_eq!(hit.answers, cold.answers);
        assert_eq!(hit.guarantee, cold.guarantee);
        assert_eq!(hit.stats, cold.stats);
        assert_eq!(svc.cache_stats().hits, 1);
        assert_eq!(svc.cache_stats().misses, 1);

        // A different k (or mode) is a different key, not a stale hit.
        let other = svc.answer(query(5.0, 4)).unwrap();
        assert!(!other.from_cache);
    }

    #[test]
    fn overload_sheds_synchronously_and_in_arrival_order() {
        let svc = service(ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        // Submit without driving: the first two are admitted, the rest shed.
        let h1 = svc.submit(query(1.0, 1)).unwrap();
        let h2 = svc.submit(query(2.0, 1)).unwrap();
        for v in [3.0, 4.0, 5.0] {
            match svc.submit(query(v, 1)) {
                Err(Error::Overloaded { capacity }) => assert_eq!(capacity, 2),
                other => panic!("expected Overloaded, got {other:?}"),
            }
        }
        assert_eq!(svc.in_flight(), 2);
        svc.drive();
        assert!(h1.try_take().unwrap().is_ok());
        assert!(h2.try_take().unwrap().is_ok());
        assert_eq!(svc.in_flight(), 0);
        let stats = svc.service_stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.completed, 2);
        // Capacity freed: submissions are admitted again.
        assert!(svc.answer(query(6.0, 1)).is_ok());
    }

    #[test]
    fn deadline_budget_prices_reads_under_the_cost_model() {
        let model = CostModel::ssd();
        let b = deadline_budget(1000, 4096, &model);
        let expected = (model.sequential_bytes_per_sec / 4096.0).floor() as u64;
        assert_eq!(b.limit(), expected);
        // A vanishing deadline still buys one read: the budget contract
        // never returns an empty answer.
        assert_eq!(deadline_budget(0, 4096, &model).limit(), 1);
    }

    #[test]
    fn zero_capacity_queue_is_rejected_at_build_time() {
        let err = QueryService::build(
            &dataset(8),
            ServeConfig {
                queue_capacity: 0,
                ..ServeConfig::default()
            },
            |_, store| {
                let size = store.len();
                Ok(QueryEngine::new(Box::new(StoreScan { store }), size))
            },
        );
        assert!(matches!(err, Err(Error::InvalidParameter { .. })));
    }

    /// A scan whose every search waits at a rendezvous shared by all shards:
    /// each round of `parties` searches proceeds once all of them have
    /// arrived, or fails with a typed error after 5 s — so a serial scatter
    /// errors instead of hanging. With `panic_with` set, a search panics
    /// with it once the round has met.
    struct Rendezvous {
        store: Arc<DatasetStore>,
        arrived: Arc<AtomicUsize>,
        parties: usize,
        panic_with: Option<String>,
    }

    impl AnsweringMethod for Rendezvous {
        fn descriptor(&self) -> MethodDescriptor {
            descriptor("Rendezvous")
        }

        #[expect(
            clippy::disallowed_types,
            reason = "test timeout only; the answer never depends on it"
        )]
        fn search(&self, query: &Query, _: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
            let ticket = self.arrived.fetch_add(1, Ordering::SeqCst);
            let round_met = (ticket / self.parties + 1) * self.parties;
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while self.arrived.load(Ordering::SeqCst) < round_met {
                if std::time::Instant::now() >= deadline {
                    return Err(Error::Internal(
                        "rendezvous timed out: the shards ran one after another".to_string(),
                    ));
                }
                std::thread::yield_now();
            }
            if let Some(message) = &self.panic_with {
                panic!("{message}");
            }
            Ok(scan_store(&self.store, query, stats))
        }
    }

    /// A 2-shard service whose shards meet at one [`Rendezvous`]; shard `i`
    /// panics with `panic_with(i)` when that is `Some`.
    fn rendezvous_service(panic_with: impl Fn(usize) -> Option<String>) -> QueryService {
        let arrived = Arc::new(AtomicUsize::new(0));
        QueryService::build(
            &dataset(24),
            ServeConfig {
                shards: 2,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
            |i, store| {
                let size = store.len();
                Ok(QueryEngine::new(
                    Box::new(Rendezvous {
                        store: store.clone(),
                        arrived: arrived.clone(),
                        parties: 2,
                        panic_with: panic_with(i),
                    }),
                    size,
                )
                .with_io_source(store))
            },
        )
        .unwrap()
    }

    #[test]
    fn one_requests_shards_run_concurrently() {
        if parallel::available_threads() < 2 {
            eprintln!("skipped one_requests_shards_run_concurrently: needs at least 2 CPUs");
            return;
        }
        let svc = rendezvous_service(|_| None);
        // The same scan without the rendezvous, answered serially.
        let reference = service(ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        })
        .reference_answer(&query(3.0, 3))
        .unwrap();
        // Every request meets again: the helper is back, parked, between
        // requests.
        for _ in 0..3 {
            let served = svc
                .answer(query(3.0, 3))
                .expect("both shards of one request met at the rendezvous");
            assert_eq!(served.guarantee, Guarantee::Exact);
            assert_eq!(served.answers, reference.answers);
        }
    }

    #[test]
    fn a_shard_panicking_on_a_helper_is_a_typed_error_in_shard_order() {
        if parallel::available_threads() < 2 {
            eprintln!("skipped a_shard_panicking_on_a_helper_is_a_typed_error_in_shard_order: needs at least 2 CPUs");
            return;
        }
        // Both shards meet before they panic, so one of them panics on the
        // helper thread; the strict quorum reports the first in shard order.
        let svc = rendezvous_service(|i| Some(format!("shard {i} panicked on purpose")));
        for round in 0..2 {
            match svc.answer(query(3.0, 3)) {
                Err(Error::Internal(message)) => {
                    assert!(message.contains("shard 0"), "round {round}: {message}");
                }
                other => panic!("round {round}: expected a typed internal error, got {other:?}"),
            }
        }
        // The helper survived the first round's panic: the second round met
        // at the rendezvous instead of timing out, and both shards failed.
        for report in svc.resilience_report() {
            assert_eq!(report.failures, 2);
        }
    }

    #[test]
    fn dropping_the_last_service_clone_joins_its_helpers() {
        let svc = service(ServeConfig {
            shards: 4,
            cache_capacity: 0,
            ..ServeConfig::default()
        });
        let helpers = parallel::available_threads().min(4) - 1;
        assert_eq!(svc.inner.helpers.threads.len(), helpers);
        let clone = svc.clone();
        svc.answer(query(3.0, 3)).unwrap();
        // The helpers hold the shards until they exit.
        let shards = Arc::downgrade(&svc.inner.shards);
        drop(svc);
        assert!(shards.upgrade().is_some(), "a clone keeps the service up");
        clone.answer(query(4.0, 3)).unwrap();
        drop(clone);
        assert!(
            shards.upgrade().is_none(),
            "drop returned with a helper still holding the shards"
        );
    }

    const NEVER: u64 = u64::MAX;

    /// Everything one run of [`four_shard_script`] exposes, wall times aside:
    /// per-request outcomes, health reports and each shard's engine call
    /// count.
    type ScriptRun = (
        Vec<std::result::Result<(AnswerSet, Guarantee, QueryStats, u32), String>>,
        Vec<ShardHealthReport>,
        Vec<u64>,
    );

    /// Sixteen requests against four shards with a best-effort quorum: shard
    /// 0 is healthy, shards 1 and 3 fail on listed calls, shard 2 fails for
    /// good from its fourth call (index 3 up to the last of the sixteen
    /// calls it sees).
    fn four_shard_script() -> ScriptRun {
        let calls: Vec<Arc<AtomicU64>> = (0..4).map(|_| Arc::default()).collect();
        let svc = QueryService::build(
            &dataset(48),
            ServeConfig {
                shards: 4,
                cache_capacity: 0,
                resilience: ResilienceConfig {
                    quorum: QuorumPolicy::BestEffort,
                    ..ResilienceConfig::default()
                },
                ..ServeConfig::default()
            },
            |i, store| {
                let fail_calls = match i {
                    1 => vec![1, 4, 5],
                    2 => (3..16).collect(),
                    3 => vec![2],
                    _ => vec![],
                };
                call_fail_engine(store, fail_calls, calls[i].clone())
            },
        )
        .unwrap();
        let answers = (0..16)
            .map(|i| {
                svc.answer(query(i as f32, 3))
                    .map(|a| (a.answers, a.guarantee, a.stats, a.attempts))
                    .map_err(|e| format!("{e:?}"))
            })
            .collect();
        let calls = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        (answers, svc.resilience_report(), calls)
    }

    #[test]
    fn parallel_scatter_repeats_bit_identically() {
        let first = four_shard_script();
        let (answers, report, calls) = &first;
        for (i, (r, &c)) in report.iter().zip(calls).enumerate() {
            assert_eq!(c, 16, "shard {i}: one engine call per request");
            assert_eq!(c, r.successes + r.failures, "shard {i}: every call counted");
        }
        assert_eq!(report[2].failures, 13, "shard 2 kept being asked");
        assert!(
            answers
                .iter()
                .any(|a| matches!(a, Ok((_, Guarantee::Partial { .. }, ..)))),
            "some merges were partial"
        );
        for _ in 1..10 {
            assert_eq!(four_shard_script(), first);
        }
    }

    #[test]
    fn all_shards_quorum_propagates_a_failing_shard() {
        let svc = degraded_service(
            ServeConfig {
                shards: 2,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
            &[NEVER, 0],
        );
        match svc.answer(query(3.0, 2)) {
            Err(Error::EmptyDataset) => {}
            other => panic!("expected the shard error verbatim, got {other:?}"),
        }
        let report = svc.resilience_report();
        assert_eq!(report[0].successes, 1);
        assert_eq!(report[1].failures, 1);
    }

    #[test]
    fn met_quorum_serves_partial_tagged_survivors() {
        let svc = degraded_service(
            ServeConfig {
                shards: 2,
                cache_capacity: 0,
                resilience: ResilienceConfig {
                    quorum: QuorumPolicy::BestEffort,
                    ..ResilienceConfig::default()
                },
                ..ServeConfig::default()
            },
            &[NEVER, 0],
        );
        let healthy = degraded_service(
            ServeConfig {
                shards: 2,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
            &[NEVER, NEVER],
        );
        let degraded = svc.answer(query(3.0, 3)).unwrap();
        match degraded.guarantee {
            Guarantee::Partial {
                shards_answered: 1,
                shards_total: 2,
                inner,
            } => assert_eq!(Guarantee::from(inner), Guarantee::Exact),
            other => panic!("expected Partial 1/2, got {other:?}"),
        }
        assert!(!degraded.from_cache);
        // The survivors' answers are the healthy shard 0's k nearest: every
        // served id lies in shard 0's range.
        let shard0 = svc.shards()[0].range.clone();
        for a in degraded.answers.iter() {
            assert!(shard0.contains(&a.id), "id {} outside shard 0", a.id);
        }
        // And they agree with a healthy run's shard-0 candidates.
        let full = healthy.answer(query(3.0, 3)).unwrap();
        let full_shard0: Vec<usize> = full
            .answers
            .iter()
            .map(|a| a.id)
            .filter(|id| shard0.contains(id))
            .collect();
        for id in &full_shard0 {
            assert!(degraded.answers.iter().any(|a| a.id == *id));
        }
    }

    #[test]
    fn partial_answers_never_impersonate_full_ones_in_the_cache() {
        // Shard 1 always fails: every merge is Partial. With caching on,
        // the Partial entry must not be replayed as a full answer.
        let svc = degraded_service(
            ServeConfig {
                shards: 2,
                resilience: ResilienceConfig {
                    quorum: QuorumPolicy::BestEffort,
                    ..ResilienceConfig::default()
                },
                ..ServeConfig::default()
            },
            &[NEVER, 0],
        );
        let first = svc.answer(query(3.0, 2)).unwrap();
        assert!(matches!(first.guarantee, Guarantee::Partial { .. }));
        let second = svc.answer(query(3.0, 2)).unwrap();
        assert!(
            !second.from_cache,
            "the Partial entry is below the attainable guarantee: recomputed"
        );
        assert!(matches!(second.guarantee, Guarantee::Partial { .. }));
    }

    #[test]
    fn stale_cache_fallback_serves_tagged_when_quorum_fails_entirely() {
        // Shard 0 answers once then fails; shard 1 always fails.
        let svc = degraded_service(
            ServeConfig {
                shards: 2,
                resilience: ResilienceConfig {
                    quorum: QuorumPolicy::BestEffort,
                    ..ResilienceConfig::default()
                },
                ..ServeConfig::default()
            },
            &[1, 0],
        );
        let first = svc.answer(query(3.0, 2)).unwrap();
        assert!(matches!(
            first.guarantee,
            Guarantee::Partial {
                shards_answered: 1,
                ..
            }
        ));
        // Both shards now fail; quorum unmet — the cached partial is served
        // stale, re-tagged as a zero-shard partial.
        let stale = svc.answer(query(3.0, 2)).unwrap();
        assert!(stale.from_cache);
        match stale.guarantee {
            Guarantee::Partial {
                shards_answered: 0,
                shards_total: 2,
                ..
            } => {}
            other => panic!("expected zero-shard Partial, got {other:?}"),
        }
        assert_eq!(stale.answers.answers().len(), first.answers.answers().len());
        // A query never cached has nothing to fall back on: typed error.
        match svc.answer(query(9.0, 2)) {
            Err(Error::EmptyDataset) => {}
            other => panic!("expected the shard error, got {other:?}"),
        }
    }

    #[test]
    fn a_failing_shard_is_asked_on_every_request() {
        let svc = degraded_service(
            ServeConfig {
                shards: 2,
                cache_capacity: 0,
                resilience: ResilienceConfig {
                    quorum: QuorumPolicy::BestEffort,
                    ..ResilienceConfig::default()
                },
                ..ServeConfig::default()
            },
            &[NEVER, 0],
        );
        for i in 0..4 {
            let served = svc.answer(query(i as f32, 1)).unwrap();
            assert!(matches!(
                served.guarantee,
                Guarantee::Partial {
                    shards_answered: 1,
                    shards_total: 2,
                    ..
                }
            ));
        }
        let report = svc.resilience_report();
        assert_eq!(report[0].successes, 4, "the healthy shard answered each");
        assert_eq!(
            report[1].failures, 4,
            "the broken shard was asked each time"
        );
        // Under AllShards the broken shard's own typed error surfaces.
        let strict = degraded_service(
            ServeConfig {
                shards: 2,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
            &[NEVER, 0],
        );
        for i in 0..2 {
            match strict.answer(query(i as f32, 1)) {
                Err(Error::EmptyDataset) => {}
                other => panic!("expected shard 1's error, got {other:?}"),
            }
        }
    }

    /// A scan that fails exactly on the listed call indices and counts its
    /// calls in a counter the test keeps.
    struct CallFailScan {
        store: Arc<DatasetStore>,
        fail_calls: Vec<u64>,
        calls: Arc<AtomicU64>,
    }

    impl AnsweringMethod for CallFailScan {
        fn descriptor(&self) -> MethodDescriptor {
            descriptor("CallFailScan")
        }

        fn search(&self, query: &Query, _: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            if self.fail_calls.contains(&call) {
                return Err(Error::EmptyDataset);
            }
            Ok(scan_store(&self.store, query, stats))
        }
    }

    /// A scan on each shard's partition, failing on the listed call indices
    /// and counting its calls in `calls`.
    fn call_fail_engine(
        store: Arc<DatasetStore>,
        fail_calls: Vec<u64>,
        calls: Arc<AtomicU64>,
    ) -> Result<QueryEngine> {
        let size = store.len();
        Ok(QueryEngine::new(
            Box::new(CallFailScan {
                store: store.clone(),
                fail_calls,
                calls,
            }),
            size,
        )
        .with_io_source(store))
    }

    #[test]
    fn default_resilience_keeps_the_strict_service_bit_identical() {
        // The agreement contract: with ResilienceConfig::default() the
        // pipeline is exactly the pre-resilience one.
        let svc = service(ServeConfig {
            shards: 4,
            cache_capacity: 0,
            ..ServeConfig::default()
        });
        let q = query(3.0, 5);
        let reference = svc.reference_answer(&q).unwrap();
        let served = svc.answer(q).unwrap();
        assert_eq!(served.answers, reference.answers);
        assert_eq!(served.guarantee, reference.guarantee);
        assert_eq!(served.stats, reference.stats);
        for r in svc.resilience_report() {
            assert_eq!(
                r,
                ShardHealthReport {
                    successes: 1,
                    failures: 0,
                }
            );
        }
    }
}
