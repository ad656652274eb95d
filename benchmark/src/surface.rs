//! The only file of the benchmark that calls into the repository.
//!
//! Everything the workloads, probes and oracle need from the hydra crates is
//! wrapped here in the benchmark's own types, so a change to the repo's API
//! (ROADMAP item 2 folds five engine entry points into one) needs an edit to
//! this one file. Nothing here times anything except where the clock has to sit
//! directly next to the call it measures (`Engine::build`, the snapshot round
//! trip).

use hydra_bench::MethodKind;
use hydra_core::simd::{self, Kernel};
use hydra_core::{
    AnswerSet, BuildOptions, Dataset, EngineAnswer, Parallelism, Query, QueryEngine, QueryOrder,
    QueryStats,
};
use hydra_data::{QueryWorkload, RandomWalkGenerator, WorkloadSpec};
use hydra_dstree::DsTree;
use hydra_serve::{
    merge_shard_answers, scatter_gather, AnswerCache, CacheKey, CachedAnswer, Executor,
    QueryService, RequestHandle, ServeConfig,
};
use hydra_storage::{load_index, save_index, CostModel, DatasetStore};
use hydra_transforms::eapca::{uniform_segmentation, Eapca};
use hydra_transforms::{Paa, SaxParams, VaPlusQuantizer};
use std::cell::Cell;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Length of every series and query.
pub const SERIES_LEN: usize = 256;
/// Every query asks for this many nearest neighbours.
pub const K: usize = 10;
/// Seed of the dataset. Fixed, so the indexes — and with them every counter —
/// are the same for every `--seed`; the seed picks the queries.
pub const DATASET_SEED: u64 = 0xDA7A;

/// CPUs the process may use.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Name of the distance kernel every dispatched call uses in this process.
pub fn active_kernel() -> &'static str {
    simd::active_kernel().name()
}

/// The indexed collection, inside the one counted store every engine of a
/// run reads through. (A store per engine — `MethodKind::engine` — would copy
/// the 100 MB dataset five times per set-up; on a small VM the cost of
/// faulting that memory in varies more than anything else in `setup_s`. The
/// engine resets the store's counters, head position included, before every
/// query, and the engines run one at a time, so counters are unaffected.)
pub struct Corpus {
    store: Arc<DatasetStore>,
}

impl Corpus {
    fn of(data: Dataset) -> Self {
        Self {
            store: Arc::new(DatasetStore::new(data)),
        }
    }

    fn data(&self) -> &Dataset {
        self.store.dataset()
    }

    /// `rw-<n>-256`: `n` z-normalised random walks from the fixed seed.
    pub fn generate(n: usize) -> Self {
        Self::of(RandomWalkGenerator::new(DATASET_SEED, SERIES_LEN).dataset(n))
    }

    /// The first `n` series as a collection of their own (small probes).
    pub fn head(&self, n: usize) -> Self {
        let n = n.min(self.len());
        let flat = self.data().flat_values()[..n * SERIES_LEN].to_vec();
        Self::of(Dataset::from_flat(flat, SERIES_LEN))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.data().len()
    }

    /// Values of series `i` (uncounted: this is the oracle's and the probes'
    /// view, not a method's).
    pub fn series(&self, i: usize) -> &[f32] {
        self.data().series(i).values()
    }

    /// Bytes of raw data.
    pub fn raw_bytes(&self) -> usize {
        self.data().size_bytes()
    }
}

/// The queries of one run, all exact 10-NN.
pub struct Pool {
    queries: Vec<Query>,
}

impl Pool {
    /// `n` queries from `seed`: even positions hold Synth-Rand queries
    /// (`WorkloadSpec::random(seed)`), odd positions `*-Ctrl` queries
    /// (`WorkloadSpec::controlled(seed ^ 0xC7)`, cycling the ten-step noise
    /// ladder), so every stretch of twenty holds easy and hard queries alike.
    pub fn generate(corpus: &Corpus, seed: u64, n: usize) -> Self {
        let half = n.div_ceil(2);
        let random = QueryWorkload::generate(
            "Synth-Rand",
            corpus.data(),
            &WorkloadSpec::random(seed).with_num_queries(half),
        );
        let controlled = QueryWorkload::generate(
            "Synth-Ctrl",
            corpus.data(),
            &WorkloadSpec::controlled(seed ^ 0xC7).with_num_queries(half),
        );
        let mut queries: Vec<Query> = random
            .knn_queries(K)
            .zip(controlled.knn_queries(K))
            .flat_map(|(r, c)| [r, c])
            .collect();
        queries.truncate(n);
        Self { queries }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Values of query `i`.
    pub fn values(&self, i: usize) -> &[f32] {
        self.queries[i].values()
    }
}

/// The method set **M**.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// ADS+ — the adaptive index the serve layer was built around.
    AdsPlus,
    /// DSTree — one of the paper's three overall winners.
    DsTree,
    /// iSAX2+ — winner.
    Isax2Plus,
    /// VA+file — winner.
    VaPlus,
    /// UCR-Suite — the scan baseline and the reference for exactness.
    Ucr,
}

impl Method {
    /// **M**, in the order every round visits it.
    pub const ALL: [Method; 5] = [
        Method::AdsPlus,
        Method::DsTree,
        Method::Isax2Plus,
        Method::VaPlus,
        Method::Ucr,
    ];

    /// The key used in metric names.
    pub fn key(self) -> &'static str {
        match self {
            Method::AdsPlus => "adsplus",
            Method::DsTree => "dstree",
            Method::Isax2Plus => "isax2plus",
            Method::VaPlus => "vaplus",
            Method::Ucr => "ucr",
        }
    }

    fn kind(self) -> MethodKind {
        match self {
            Method::AdsPlus => MethodKind::AdsPlus,
            Method::DsTree => MethodKind::DsTree,
            Method::Isax2Plus => MethodKind::Isax2Plus,
            Method::VaPlus => MethodKind::VaPlusFile,
            Method::Ucr => MethodKind::UcrSuite,
        }
    }
}

/// Counted work of one op (`QueryStats`, the paper's pruning and access
/// measures).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Raw series whose true distance was computed.
    pub raw_examined: u64,
    /// Lower bounds computed.
    pub lower_bounds: u64,
    /// Index nodes visited (leaves + internal).
    pub nodes: u64,
    /// Sequential page accesses.
    pub seq_pages: u64,
    /// Random page accesses.
    pub rand_pages: u64,
    /// Bytes read.
    pub bytes_read: u64,
}

impl Work {
    fn of(stats: &QueryStats) -> Self {
        Self {
            raw_examined: stats.raw_series_examined,
            lower_bounds: stats.lower_bounds_computed,
            nodes: stats.leaves_visited + stats.internal_nodes_visited,
            seq_pages: stats.sequential_page_accesses,
            rand_pages: stats.random_page_accesses,
            bytes_read: stats.bytes_read,
        }
    }

    fn io_ms(&self, model: &CostModel) -> f64 {
        let io = hydra_core::IoSnapshot {
            sequential_pages: self.seq_pages,
            random_pages: self.rand_pages,
            bytes_read: self.bytes_read,
            bytes_written: 0,
        };
        model.io_time(&io).as_secs_f64() * 1e3
    }

    /// Modelled time of the counted accesses on the paper's HDD array.
    pub fn io_hdd_ms(&self) -> f64 {
        self.io_ms(&CostModel::hdd())
    }

    /// Modelled time of the counted accesses on the paper's SSD array.
    pub fn io_ssd_ms(&self) -> f64 {
        self.io_ms(&CostModel::ssd())
    }
}

/// One answered op.
#[derive(Clone, Debug)]
pub struct Answered {
    /// `(series id, distance)`, as returned.
    pub neighbors: Vec<(usize, f64)>,
    /// Counted work (for a cache hit: the work of the cold run it replays).
    pub work: Work,
    /// Time inside the layer below the one that was called: the method's
    /// `answer` for an engine call (`EngineAnswer.wall_time`), the summed
    /// per-shard method time for a served miss (`ServeAnswer.stats.cpu_time`;
    /// the shards run one after another on the single worker), zero for a hit.
    pub inner: Duration,
    /// Whether the answer came from the serve cache.
    pub from_cache: bool,
}

fn neighbors(answers: &AnswerSet) -> Vec<(usize, f64)> {
    answers.iter().map(|a| (a.id, a.distance)).collect()
}

fn answered(a: EngineAnswer) -> Answered {
    Answered {
        neighbors: neighbors(&a.answers),
        work: Work::of(&a.stats),
        inner: a.wall_time,
        from_cache: false,
    }
}

fn threads(n: usize) -> Parallelism {
    Parallelism::Threads(n)
}

/// One method built over the whole corpus, behind a measuring `QueryEngine`.
pub struct Engine {
    inner: QueryEngine,
    /// Which method.
    pub method: Method,
    /// Wall time of `MethodKind::engine_on_store` (the index build).
    pub build: Duration,
    /// `memory_bytes + disk_bytes` of the index; 0 for a scan.
    pub footprint_bytes: u64,
}

impl Engine {
    /// Builds `method` over `corpus` with `BuildOptions::default()`.
    pub fn build(method: Method, corpus: &Corpus) -> Result<Self, String> {
        let clock = Instant::now();
        let inner = method
            .kind()
            .engine_on_store(corpus.store.clone(), &BuildOptions::default())
            .map_err(|e| format!("building {}: {e}", method.key()))?;
        let build = clock.elapsed();
        let footprint_bytes = inner
            .footprint()
            .map_or(0, |f| (f.memory_bytes + f.disk_bytes) as u64);
        Ok(Self {
            inner,
            method,
            build,
            footprint_bytes,
        })
    }

    /// `QueryEngine::answer`.
    pub fn answer(&mut self, pool: &Pool, i: usize) -> Result<Answered, String> {
        self.inner
            .answer(&pool.queries[i])
            .map(answered)
            .map_err(|e| e.to_string())
    }

    /// The method's own `answer`, without the engine boundary around it.
    pub fn answer_direct(&self, pool: &Pool, i: usize) -> Result<(), String> {
        let mut stats = QueryStats::default();
        self.inner
            .method()
            .answer(&pool.queries[i], &mut stats)
            .map(|a| {
                black_box(a);
            })
            .map_err(|e| e.to_string())
    }

    /// `QueryEngine::answer_batch` over the pool queries `range`.
    pub fn answer_batch(
        &mut self,
        pool: &Pool,
        range: Range<usize>,
        n_threads: usize,
    ) -> Result<Vec<Answered>, String> {
        self.inner
            .answer_batch(&pool.queries[range], threads(n_threads))
            .map(|v| v.into_iter().map(answered).collect())
            .map_err(|e| e.to_string())
    }

    /// `QueryEngine::answer_intra`.
    pub fn answer_intra(
        &mut self,
        pool: &Pool,
        i: usize,
        n_threads: usize,
    ) -> Result<Answered, String> {
        self.inner
            .answer_intra(&pool.queries[i], threads(n_threads))
            .map(answered)
            .map_err(|e| e.to_string())
    }

    /// `QueryEngine::answer_workload` over the pool queries `range`.
    pub fn answer_workload(
        &mut self,
        pool: &Pool,
        range: Range<usize>,
        n_threads: usize,
    ) -> Result<Vec<Answered>, String> {
        self.inner
            .answer_workload(&pool.queries[range], threads(n_threads))
            .map(|v| v.into_iter().map(answered).collect())
            .map_err(|e| e.to_string())
    }
}

/// Why a submission produced no ticket.
pub enum Rejected {
    /// Shed by admission control (`Error::Overloaded`).
    Shed,
    /// Any other typed error.
    Failed(String),
}

/// A submitted request (`RequestHandle`).
pub struct Ticket {
    handle: RequestHandle,
}

impl Ticket {
    /// The answer, once the request has finished.
    pub fn try_take(&self) -> Option<Result<Answered, String>> {
        self.handle
            .try_take()
            .map(|r| r.map(served).map_err(|e| e.to_string()))
    }
}

fn served(a: hydra_serve::ServeAnswer) -> Answered {
    Answered {
        neighbors: neighbors(&a.answers),
        work: Work::of(&a.stats),
        inner: if a.from_cache {
            Duration::ZERO
        } else {
            a.stats.cpu_time
        },
        from_cache: a.from_cache,
    }
}

/// Cache and admission counters of a service (`cache_stats()`,
/// `service_stats()`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Cache lookups that hit.
    pub hits: u64,
    /// Cache lookups that missed.
    pub misses: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// Requests shed by admission control.
    pub shed: u64,
}

impl ServiceCounters {
    /// What was counted since `earlier`.
    pub fn since(&self, earlier: &ServiceCounters) -> ServiceCounters {
        ServiceCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            shed: self.shed - earlier.shed,
        }
    }
}

/// A sharded `QueryService` with the default `ServeConfig` (cache 256,
/// queue 64, one worker) apart from the shard count.
pub struct Service {
    inner: QueryService,
    /// Summed `memory_bytes + disk_bytes` of the per-shard indexes.
    pub footprint_bytes: u64,
}

impl Service {
    /// Builds a service of `method` over `corpus` split into `shards`.
    pub fn build(method: Method, corpus: &Corpus, shards: usize) -> Result<Self, String> {
        let config = ServeConfig {
            shards,
            ..ServeConfig::default()
        };
        let footprint = Cell::new(0u64);
        let options = BuildOptions::default();
        let inner = QueryService::build(corpus.data(), config, |_, store| {
            let engine = method.kind().engine_on_store(store, &options)?;
            if let Some(f) = engine.footprint() {
                footprint.set(footprint.get() + (f.memory_bytes + f.disk_bytes) as u64);
            }
            Ok(engine)
        })
        .map_err(|e| format!("building the {} service: {e}", method.key()))?;
        Ok(Self {
            inner,
            footprint_bytes: footprint.get(),
        })
    }

    /// `QueryService::answer`: submit, then drive on the caller's thread.
    pub fn answer(&self, pool: &Pool, i: usize) -> Result<Answered, String> {
        self.inner
            .answer(pool.queries[i].clone())
            .map(served)
            .map_err(|e| e.to_string())
    }

    /// `QueryService::submit`.
    pub fn submit(&self, pool: &Pool, i: usize) -> Result<Ticket, Rejected> {
        match self.inner.submit(pool.queries[i].clone()) {
            Ok(handle) => Ok(Ticket { handle }),
            Err(hydra_core::Error::Overloaded { .. }) => Err(Rejected::Shed),
            Err(e) => Err(Rejected::Failed(e.to_string())),
        }
    }

    /// `QueryService::run_one`: polls one ready task; false when none is.
    pub fn run_one(&self) -> bool {
        self.inner.run_one()
    }

    /// `cache_stats()` and `service_stats()`.
    pub fn counters(&self) -> ServiceCounters {
        let cache = self.inner.cache_stats();
        ServiceCounters {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            shed: self.inner.service_stats().shed,
        }
    }

    /// The serial scatter-gather over the service's shards (`scatter_gather`):
    /// the request path minus executor, cache and admission.
    pub fn scatter_gather(&self, pool: &Pool, i: usize) -> Result<Answered, String> {
        scatter_gather(
            self.inner.shards(),
            self.inner.dataset_size(),
            &pool.queries[i],
        )
        .map(|a| Answered {
            // Shards ran one after another: their summed method time.
            inner: a.stats.cpu_time,
            ..answered(a)
        })
        .map_err(|e| e.to_string())
    }

    /// The per-shard answers to query `i`, recorded for the merge probe.
    pub fn shard_parts(&self, pool: &Pool, i: usize) -> Result<ShardParts, String> {
        let mut parts = Vec::new();
        for shard in self.inner.shards() {
            let answer = shard.answer(&pool.queries[i]).map_err(|e| e.to_string())?;
            parts.push((shard.range.clone(), answer));
        }
        Ok(ShardParts {
            parts,
            total: self.inner.dataset_size(),
        })
    }
}

/// Recorded per-shard answers to one query.
pub struct ShardParts {
    parts: Vec<(Range<usize>, EngineAnswer)>,
    total: usize,
}

impl ShardParts {
    /// A copy to feed one `merge` call (the merge consumes its input).
    pub fn duplicate(&self) -> Self {
        Self {
            parts: self.parts.clone(),
            total: self.total,
        }
    }

    /// `merge_shard_answers`.
    pub fn merge(self) -> Vec<(usize, f64)> {
        neighbors(&merge_shard_answers(K, self.total, self.parts).answers)
    }
}

// --- core.simd -------------------------------------------------------------

/// The dispatch tiers, widest last. A tier the host lacks runs the widest one
/// it has (`squared_euclidean_with` downgrades).
pub const SIMD_TIERS: [&str; 3] = ["portable", "sse2", "avx2"];

/// `squared_euclidean_with` on tier `SIMD_TIERS[tier]`.
pub fn sq_euclid(tier: usize, a: &[f32], b: &[f32]) -> f64 {
    let kernel = [Kernel::Portable, Kernel::Sse2, Kernel::Avx2][tier];
    simd::squared_euclidean_with(kernel, a, b)
}

/// `squared_euclidean_early_abandon` on the active kernel.
pub fn sq_euclid_early_abandon(a: &[f32], b: &[f32], threshold: f64) -> Option<f64> {
    simd::squared_euclidean_early_abandon(a, b, threshold)
}

/// A query prepared for reordered early abandoning (`QueryOrder`).
pub struct Reordered<'a> {
    query: &'a [f32],
    order: QueryOrder,
}

impl<'a> Reordered<'a> {
    /// Sorts the query's dimensions by decreasing magnitude.
    pub fn new(query: &'a [f32]) -> Self {
        Self {
            query,
            order: QueryOrder::new(query),
        }
    }

    /// `squared_euclidean_reordered`.
    pub fn distance(&self, candidate: &[f32], threshold: f64) -> Option<f64> {
        hydra_core::distance::squared_euclidean_reordered(
            self.query,
            candidate,
            &self.order,
            threshold,
        )
    }
}

/// `interval_mindist_sq` on the active kernel.
pub fn interval_mindist(q: &[f32], low: &[f64], high: &[f64]) -> f64 {
    simd::interval_mindist_sq(q, low, high)
}

// --- transforms ------------------------------------------------------------

/// Summarizes one raw series (the result is dropped through `black_box`).
pub type SummarizeFn = Box<dyn Fn(&[f32])>;
/// The lower bound of pair `i`, from summaries computed beforehand.
pub type LowerBoundFn = Box<dyn Fn(usize) -> f64>;

/// One summarization, prepared over a fixed list of (query, candidate) pairs.
pub struct Summarization {
    /// Key used in metric names.
    pub key: &'static str,
    /// Summarizes one raw series.
    pub summarize: SummarizeFn,
    /// The lower bound of pair `i`.
    pub lower_bound: LowerBoundFn,
}

/// PAA, iSAX, EAPCA and VA+ with the defaults the methods use (16 segments,
/// 8 bits per symbol, 1 000 training samples), over `pairs` of
/// (pool query, corpus series).
pub fn summarizations(
    corpus: &Corpus,
    pool: &Pool,
    pairs: &[(usize, usize)],
) -> Vec<Summarization> {
    let options = BuildOptions::default();
    let segments = options.segments;
    let bits = 8u8;
    let q = |i: usize| pool.values(pairs[i].0);
    let c = |i: usize| corpus.series(pairs[i].1);
    let n = pairs.len();

    let paa = Paa::new(SERIES_LEN, segments);
    let q_paa: Vec<Vec<f32>> = (0..n).map(|i| paa.transform(q(i))).collect();
    let c_paa: Vec<Vec<f32>> = (0..n).map(|i| paa.transform(c(i))).collect();

    let sax = SaxParams::new(SERIES_LEN, segments, bits);
    let c_isax: Vec<_> = (0..n)
        .map(|i| sax.sax_word(c(i)).to_isax(bits, bits))
        .collect();

    let segmentation = uniform_segmentation(SERIES_LEN, segments);
    let q_eapca: Vec<Eapca> = (0..n)
        .map(|i| Eapca::compute(q(i), &segmentation))
        .collect();
    let c_eapca: Vec<Eapca> = (0..n)
        .map(|i| Eapca::compute(c(i), &segmentation))
        .collect();

    let va = VaPlusQuantizer::train(
        SERIES_LEN,
        segments,
        segments * usize::from(bits),
        (0..options.train_samples.min(corpus.len())).map(|i| corpus.series(i)),
    );
    let q_dft: Vec<Vec<f32>> = (0..n).map(|i| va.dft(q(i))).collect();
    let c_cell: Vec<_> = (0..n).map(|i| va.cell(c(i))).collect();

    let (paa_s, paa_l) = (paa.clone(), paa);
    let (sax_s, sax_l, q_paa_isax) = (sax.clone(), sax, q_paa.clone());
    let (seg_s, seg_l) = (segmentation.clone(), segmentation);
    let (va_s, va_l) = (va.clone(), va);
    vec![
        Summarization {
            key: "paa",
            summarize: Box::new(move |s| {
                black_box(paa_s.transform(s));
            }),
            lower_bound: Box::new(move |i| paa_l.lower_bound(&q_paa[i], &c_paa[i])),
        },
        Summarization {
            key: "isax",
            summarize: Box::new(move |s| {
                black_box(sax_s.sax_word(s));
            }),
            lower_bound: Box::new(move |i| sax_l.mindist_paa_to_isax(&q_paa_isax[i], &c_isax[i])),
        },
        Summarization {
            key: "eapca",
            summarize: Box::new(move |s| {
                black_box(Eapca::compute(s, &seg_s));
            }),
            lower_bound: Box::new(move |i| q_eapca[i].lower_bound(&c_eapca[i], &seg_l)),
        },
        Summarization {
            key: "vaplus",
            summarize: Box::new(move |s| {
                black_box(va_s.cell(s));
            }),
            lower_bound: Box::new(move |i| va_l.lower_bound(&q_dft[i], &c_cell[i])),
        },
    ]
}

// --- storage ---------------------------------------------------------------

/// A counted store over a corpus of its own copy (`DatasetStore`).
pub struct Store {
    inner: Arc<DatasetStore>,
}

impl Store {
    /// Wraps a copy of `corpus`.
    pub fn new(corpus: &Corpus) -> Self {
        Self {
            inner: Arc::new(DatasetStore::new(corpus.data().clone())),
        }
    }

    /// `read_series`: one counted random read.
    pub fn read_series(&self, id: usize) -> &[f32] {
        self.inner.read_series(id).values()
    }

    /// `scan_all`: one counted sequential pass that reads every value;
    /// returns their sum so the pass cannot be optimised away.
    pub fn scan_all(&self) -> f32 {
        let mut sum = 0.0f32;
        self.inner
            .scan_all(|_, s| sum += s.values().iter().sum::<f32>());
        sum
    }

    /// Bytes one pass reads.
    pub fn bytes(&self) -> usize {
        self.inner.len() * self.inner.series_bytes()
    }

    /// Builds a DSTree over the store and times `save_index` and `load_index`
    /// of its snapshot at `path`: (file bytes, save time, load time).
    pub fn snapshot_round_trip(&self, path: &Path) -> Result<(u64, Duration, Duration), String> {
        let options = BuildOptions::default();
        let index =
            DsTree::build_on_store(self.inner.clone(), &options).map_err(|e| e.to_string())?;
        let clock = Instant::now();
        let bytes = save_index(&index, &self.inner, &options, path).map_err(|e| e.to_string())?;
        let save = clock.elapsed();
        let clock = Instant::now();
        let loaded: DsTree =
            load_index(self.inner.clone(), &options, path).map_err(|e| e.to_string())?;
        let load = clock.elapsed();
        black_box(loaded);
        Ok((bytes, save, load))
    }
}

// --- serve.cache / serve.executor -------------------------------------------

/// An `AnswerCache` at the service's default capacity, filled to capacity
/// with copies of one recorded answer under distinct keys.
pub struct CacheProbe {
    cache: AnswerCache,
    entry: CachedAnswer,
    next_key: u64,
    capacity: u64,
}

impl CacheProbe {
    /// A full cache whose entries all hold `answer`.
    pub fn full(answer: &Answered) -> Self {
        let capacity = ServeConfig::default().cache_capacity as u64;
        let answers = AnswerSet::from_unsorted(
            answer
                .neighbors
                .iter()
                .map(|&(id, d)| hydra_core::Answer::new(id, d))
                .collect(),
        );
        let entry = CachedAnswer {
            guarantee: answers.guarantee(),
            answers,
            stats: QueryStats::default(),
        };
        let mut probe = Self {
            cache: AnswerCache::new(capacity as usize),
            entry,
            next_key: 0,
            capacity,
        };
        for _ in 0..capacity {
            probe.insert();
        }
        probe
    }

    fn key(n: u64) -> CacheKey {
        CacheKey {
            dataset_fingerprint: 0xBE7C,
            // Spread the keys over the map like query hashes would be.
            query_hash: n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            mode_tag: 0,
        }
    }

    /// `AnswerCache::insert` of a fresh key (evicts the oldest entry).
    pub fn insert(&mut self) {
        self.cache
            .insert(Self::key(self.next_key), self.entry.clone());
        self.next_key += 1;
    }

    /// `AnswerCache::get` of the `n`-th most recent key: a hit.
    pub fn get(&mut self, n: u64) -> bool {
        let key = Self::key(self.next_key - 1 - n % self.capacity);
        self.cache.get(&key, &self.entry.guarantee).is_some()
    }
}

/// The serve layer's FIFO executor.
pub struct ExecutorProbe {
    executor: Executor,
}

impl ExecutorProbe {
    /// A fresh executor.
    pub fn new() -> Self {
        Self {
            executor: Executor::new(),
        }
    }

    /// `Executor::spawn` of a ready no-op future, then `run_one`.
    pub fn spawn_and_run(&self) -> bool {
        let handle = self.executor.spawn(async {});
        self.executor.run_one();
        handle.is_finished()
    }
}
