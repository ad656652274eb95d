//! The probe lanes of a traced run: each layer's public functions timed from
//! outside, on inputs taken from the workload's corpus and query pool. They
//! run the same way after every workload, so a layer's numbers can be read
//! next to any workload's end-to-end result.

use crate::inputs::{stream, SplitMix64};
use crate::oracle;
use crate::stats::{mean, ms, percentile, us};
use crate::surface::{
    self, CacheProbe, Corpus, Engine, ExecutorProbe, Method, Pool, Rejected, Reordered, Service,
    Store, Ticket, SERIES_LEN, SIMD_TIERS,
};
use crate::workloads::{build_engines, Built, Setup, BATCH, THREADS};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Serial queries per method in the method lane: three blocks of 20 pool
/// positions; p90 leaves six beyond it.
const METHOD_LANE: usize = 60;
/// `answer_intra` queries per method.
const INTRA_LANE: usize = 20;
/// Distinct requests of the serve lanes.
const SERVE_LANE: usize = 32;
/// (query, candidate) pairs of the lower-bound probes.
const PAIRS: usize = 1000;
/// Candidates of the distance-kernel probes (1 MB: streams from L2, as a
/// scan's inner loop streams from memory).
const CANDIDATES: usize = 1024;
/// Series under the snapshot probe's DSTree.
const SNAPSHOT_SERIES: usize = 25_000;
/// Length of the open-loop overload lane.
const OVERLOAD: Duration = Duration::from_secs(4);

/// Named values, in the order they were measured.
pub type Metrics = Vec<(String, f64)>;

/// Mean ns per call: one warm-up batch, then batches of `calls` until 40 ms
/// have been measured.
fn ns_per_call(calls: usize, mut batch: impl FnMut()) -> f64 {
    batch();
    let clock = Instant::now();
    let mut batches = 0u64;
    while clock.elapsed() < Duration::from_millis(40) {
        batch();
        batches += 1;
    }
    clock.elapsed().as_nanos() as f64 / (batches * calls as u64) as f64
}

/// Runs every lane. Engines are taken from `setup` when the workload built
/// them and built here otherwise.
pub fn run(setup: &mut Setup, seed: u64, out_dir: &Path) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let corpus = &setup.corpus;
    let pool = &setup.pool;
    m.push((
        "data.gen_series_per_s".to_string(),
        corpus.len() as f64 / setup.generate.as_secs_f64(),
    ));
    simd(corpus, pool, &mut m);
    transforms(corpus, pool, seed, &mut m);
    storage(corpus, seed, out_dir, &mut m)?;
    let mut own_engines;
    let engines = match &mut setup.built {
        Built::Engines(engines) => engines,
        Built::Service(_) => {
            own_engines = build_engines(corpus)?;
            &mut own_engines
        }
    };
    methods(engines, pool, &mut m)?;
    engine_paths(engines, pool, &mut m)?;
    engine_overhead(corpus, pool, &mut m)?;
    serve(corpus, pool, seed, &mut m)?;
    Ok(m)
}

/// `core.simd`: ns per distance at length 256.
fn simd(corpus: &Corpus, pool: &Pool, m: &mut Metrics) {
    let q = pool.values(0);
    let n = CANDIDATES.min(corpus.len());
    for (tier, name) in SIMD_TIERS.iter().enumerate() {
        let ns = ns_per_call(n, || {
            for j in 0..n {
                black_box(surface::sq_euclid(tier, q, corpus.series(j)));
            }
        });
        m.push((format!("core.simd.sq_euclid_ns.{name}"), ns));
    }
    // The threshold a 10-NN search holds once it has seen these candidates:
    // the 10th smallest squared distance, so most candidates abandon early.
    let mut squared: Vec<f64> = (0..n)
        .map(|j| oracle::distance(q, corpus.series(j)).powi(2))
        .collect();
    squared.sort_by(|a, b| a.total_cmp(b));
    let threshold = squared[surface::K.min(n) - 1];
    let ns = ns_per_call(n, || {
        for j in 0..n {
            black_box(surface::sq_euclid_early_abandon(
                q,
                corpus.series(j),
                threshold,
            ));
        }
    });
    m.push(("core.simd.early_abandon_ns".to_string(), ns));
    let reordered = Reordered::new(q);
    let ns = ns_per_call(n, || {
        for j in 0..n {
            black_box(reordered.distance(corpus.series(j), threshold));
        }
    });
    m.push(("core.simd.reordered_ns".to_string(), ns));
    // A 16-dimensional interval bound, the shape of a SAX or VA+ cell.
    let dims = 16;
    let boxes: Vec<(Vec<f64>, Vec<f64>)> = (0..n)
        .map(|j| {
            let c = &corpus.series(j)[..dims];
            (
                c.iter().map(|&v| f64::from(v) - 0.25).collect(),
                c.iter().map(|&v| f64::from(v) + 0.25).collect(),
            )
        })
        .collect();
    let ns = ns_per_call(n, || {
        for (low, high) in &boxes {
            black_box(surface::interval_mindist(&q[..dims], low, high));
        }
    });
    m.push(("core.simd.interval_mindist_ns".to_string(), ns));
}

/// `transforms`: cost of summarizing and of one lower bound, and the
/// tightness of the lower bound (LB ÷ true distance) over seeded pairs.
fn transforms(corpus: &Corpus, pool: &Pool, seed: u64, m: &mut Metrics) {
    let mut rng = SplitMix64::derive(seed, stream::PAIRS);
    let pairs: Vec<(usize, usize)> = (0..PAIRS)
        .map(|_| (rng.below(pool.len()), rng.below(corpus.len())))
        .collect();
    let truth: Vec<f64> = pairs
        .iter()
        .map(|&(q, c)| oracle::distance(pool.values(q), corpus.series(c)))
        .collect();
    for s in surface::summarizations(corpus, pool, &pairs) {
        let ns = ns_per_call(pairs.len(), || {
            for &(_, c) in &pairs {
                (s.summarize)(corpus.series(c));
            }
        });
        m.push((format!("transforms.{}.summarize_ns", s.key), ns));
        let ns = ns_per_call(pairs.len(), || {
            for i in 0..pairs.len() {
                black_box((s.lower_bound)(i));
            }
        });
        m.push((format!("transforms.{}.lower_bound_ns", s.key), ns));
        let ratios: Vec<f64> = (0..pairs.len())
            .filter(|&i| truth[i] > 0.0)
            .map(|i| ((s.lower_bound)(i) / truth[i]).clamp(0.0, 1.0))
            .collect();
        m.push((format!("transforms.{}.tlb", s.key), mean(&ratios)));
    }
}

/// `storage`: counted reads, a sequential pass, and a snapshot round trip.
fn storage(corpus: &Corpus, seed: u64, out_dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let store = Store::new(corpus);
    let mut rng = SplitMix64::derive(seed, stream::PAIRS);
    let ids: Vec<usize> = (0..4096).map(|_| rng.below(corpus.len())).collect();
    let ns = ns_per_call(ids.len(), || {
        for &id in &ids {
            black_box(store.read_series(id)[SERIES_LEN - 1]);
        }
    });
    m.push(("storage.read_series_ns".to_string(), ns));
    let ns = ns_per_call(1, || {
        black_box(store.scan_all());
    });
    m.push((
        "storage.scan_gb_per_s".to_string(),
        store.bytes() as f64 / ns,
    ));
    drop(store);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join("dstree-probe.snapshot");
    let small = Store::new(&corpus.head(SNAPSHOT_SERIES));
    let (bytes, save, load) = small.snapshot_round_trip(&path)?;
    std::fs::remove_file(&path).ok();
    let mb = bytes as f64 / 1e6;
    m.push((
        "storage.snapshot_save_mb_per_s".to_string(),
        mb / save.as_secs_f64(),
    ));
    m.push((
        "storage.snapshot_load_mb_per_s".to_string(),
        mb / load.as_secs_f64(),
    ));
    Ok(())
}

/// `method.<m>`: build cost, footprint, serial query latency and the paper's
/// pruning and access measures, over the first `METHOD_LANE` pool queries.
fn methods(engines: &mut [Engine], pool: &Pool, m: &mut Metrics) -> Result<(), String> {
    let n = METHOD_LANE.min(pool.len());
    for engine in engines.iter_mut() {
        let key = engine.method.key();
        let mut latencies = Vec::with_capacity(n);
        let mut work = Vec::with_capacity(n);
        for i in 0..n {
            let clock = Instant::now();
            let answered = engine.answer(pool, i)?;
            latencies.push(ms(clock.elapsed()));
            work.push(answered.work);
        }
        let per_op =
            |f: fn(&surface::Work) -> u64| work.iter().map(|w| f(w) as f64).sum::<f64>() / n as f64;
        m.push((format!("method.{key}.build_s"), engine.build.as_secs_f64()));
        m.push((
            format!("method.{key}.footprint_bytes"),
            engine.footprint_bytes as f64,
        ));
        m.push((
            format!("method.{key}.query_p50_ms"),
            percentile(&latencies, 50.0),
        ));
        m.push((
            format!("method.{key}.query_p90_ms"),
            percentile(&latencies, 90.0),
        ));
        m.push((
            format!("method.{key}.raw_examined_per_op"),
            per_op(|w| w.raw_examined),
        ));
        m.push((
            format!("method.{key}.lower_bounds_per_op"),
            per_op(|w| w.lower_bounds),
        ));
        m.push((format!("method.{key}.nodes_per_op"), per_op(|w| w.nodes)));
        m.push((
            format!("method.{key}.seq_pages_per_op"),
            per_op(|w| w.seq_pages),
        ));
        m.push((
            format!("method.{key}.rand_pages_per_op"),
            per_op(|w| w.rand_pages),
        ));
    }
    Ok(())
}

/// `core.engine`: the three parallel entry points, per method, on 2 threads.
fn engine_paths(engines: &mut [Engine], pool: &Pool, m: &mut Metrics) -> Result<(), String> {
    for engine in engines.iter_mut() {
        let key = engine.method.key();
        let clock = Instant::now();
        black_box(engine.answer_batch(pool, 0..BATCH, THREADS)?);
        let batch = clock.elapsed();
        m.push((
            format!("core.engine.batch_ops_per_s.{key}"),
            BATCH as f64 / batch.as_secs_f64(),
        ));
        let mut latencies = Vec::with_capacity(INTRA_LANE);
        for i in 0..INTRA_LANE {
            let clock = Instant::now();
            black_box(engine.answer_intra(pool, i, THREADS)?);
            latencies.push(ms(clock.elapsed()));
        }
        m.push((
            format!("core.engine.intra_p50_ms.{key}"),
            percentile(&latencies, 50.0),
        ));
        let clock = Instant::now();
        black_box(engine.answer_workload(pool, 0..BATCH, THREADS)?);
        let workload = clock.elapsed();
        m.push((
            format!("core.engine.workload_ops_per_s.{key}"),
            BATCH as f64 / workload.as_secs_f64(),
        ));
    }
    Ok(())
}

/// `core.engine.overhead_us`: `QueryEngine::answer` minus the method's own
/// `answer` on the same queries (retry loop, `catch_unwind`, counter reset
/// and reconciliation). Measured over a 256-series slice of the corpus, where
/// a scan takes microseconds: against a 20 ms query the fixed cost would
/// drown in noise.
fn engine_overhead(corpus: &Corpus, pool: &Pool, m: &mut Metrics) -> Result<(), String> {
    let mut engine = Engine::build(Method::Ucr, &corpus.head(256))?;
    let queries = 64.min(pool.len());
    let (mut through, mut direct) = (Duration::ZERO, Duration::ZERO);
    let rounds = 40;
    for round in 0..=rounds {
        for i in 0..queries {
            let t0 = Instant::now();
            black_box(engine.answer(pool, i)?);
            let t1 = Instant::now();
            engine.answer_direct(pool, i)?;
            let t2 = Instant::now();
            // Round 0 warms up.
            if round > 0 {
                through += t1 - t0;
                direct += t2 - t1;
            }
        }
    }
    let calls = (rounds * queries) as f64;
    m.push((
        "core.engine.overhead_us".to_string(),
        (us(through) - us(direct)) / calls,
    ));
    Ok(())
}

/// `serve.*`: a 4-shard UCR-Suite service (no index to build; the serve
/// layer's own costs do not depend on the method behind the shards).
fn serve(corpus: &Corpus, pool: &Pool, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let service = Service::build(Method::Ucr, corpus, 4)?;
    let n = SERVE_LANE.min(pool.len());

    // Misses: the first request for each query. Overhead is what the request
    // costs beyond the shards' method time.
    let mut miss_overhead = Vec::with_capacity(n);
    let mut miss_latency = Vec::with_capacity(n);
    let mut recorded = None;
    for i in 0..n {
        let clock = Instant::now();
        let answered = service.answer(pool, i)?;
        let latency = clock.elapsed();
        if answered.from_cache {
            return Err(format!(
                "serve probe: first request for query {i} hit the cache"
            ));
        }
        miss_overhead.push(us(latency.saturating_sub(answered.inner)));
        miss_latency.push(latency);
        recorded.get_or_insert(answered);
    }
    m.push((
        "serve.service.miss_overhead_us".to_string(),
        mean(&miss_overhead),
    ));

    // Hits: the same requests again.
    let hit_ns = ns_per_call(n, || {
        for i in 0..n {
            black_box(service.answer(pool, i).is_ok());
        }
    });
    m.push(("serve.service.hit_path_us".to_string(), hit_ns / 1e3));

    // The serial scatter-gather alone: per-shard engine calls and the merge.
    let mut scatter_overhead = Vec::with_capacity(n);
    for i in 0..n {
        let clock = Instant::now();
        let answered = service.scatter_gather(pool, i)?;
        scatter_overhead.push(us(clock.elapsed().saturating_sub(answered.inner)));
    }
    m.push((
        "serve.shard.scatter_overhead_us".to_string(),
        mean(&scatter_overhead),
    ));

    // The merge alone, on recorded per-shard answers; the copy each call
    // consumes is timed separately and taken off.
    let parts: Vec<_> = (0..8.min(n))
        .map(|i| service.shard_parts(pool, i))
        .collect::<Result<_, _>>()?;
    let copy_and_merge = ns_per_call(parts.len(), || {
        for p in &parts {
            black_box(p.duplicate().merge());
        }
    });
    let copy = ns_per_call(parts.len(), || {
        for p in &parts {
            black_box(p.duplicate());
        }
    });
    m.push((
        "serve.shard.merge_us".to_string(),
        (copy_and_merge - copy) / 1e3,
    ));

    let executor = ExecutorProbe::new();
    let ns = ns_per_call(1000, || {
        for _ in 0..1000 {
            black_box(executor.spawn_and_run());
        }
    });
    m.push(("serve.executor.task_ns".to_string(), ns));

    let mut cache = CacheProbe::full(&recorded.expect("the serve lane answered a query"));
    let mut n_get = 0u64;
    let ns = ns_per_call(1000, || {
        for _ in 0..1000 {
            black_box(cache.get(n_get));
            n_get += 7;
        }
    });
    m.push(("serve.cache.get_ns".to_string(), ns));
    let ns = ns_per_call(1000, || {
        for _ in 0..1000 {
            cache.insert();
        }
    });
    m.push(("serve.cache.insert_ns".to_string(), ns));

    // Closed-loop rate of this service on misses, then twice that, open loop.
    let closed_rate = n as f64 / miss_latency.iter().sum::<Duration>().as_secs_f64();
    drop(service);
    overload(corpus, pool, seed, 2.0 * closed_rate, m)
}

/// The informational open-loop lane: seeded Poisson arrivals at `rate` for
/// `OVERLOAD` through `submit` / `run_one` on one thread. A request's latency
/// counts from when it was due, so a stalled generator cannot hide queueing;
/// how late the generator itself ran is reported beside it.
fn overload(
    corpus: &Corpus,
    pool: &Pool,
    seed: u64,
    rate: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let service = Service::build(Method::Ucr, corpus, 4)?;
    let mut gaps = SplitMix64::derive(seed, stream::ARRIVALS);
    let start = Instant::now();
    let mut due = Duration::from_secs_f64(gaps.exponential(1.0 / rate));
    let mut in_flight: Vec<(Duration, Ticket)> = Vec::new();
    let (mut arrivals, mut shed) = (0u64, 0u64);
    let mut max_late = Duration::ZERO;
    let mut latencies = Vec::new();
    loop {
        let now = start.elapsed();
        while due <= now && due < OVERLOAD {
            max_late = max_late.max(now - due);
            // 256 distinct queries: a second pass repeats keys, as users do.
            let query = arrivals as usize % 256.min(pool.len());
            arrivals += 1;
            match service.submit(pool, query) {
                Ok(ticket) => in_flight.push((due, ticket)),
                Err(Rejected::Shed) => shed += 1,
                Err(Rejected::Failed(e)) => return Err(format!("overload lane: {e}")),
            }
            due += Duration::from_secs_f64(gaps.exponential(1.0 / rate));
        }
        let progressed = service.run_one();
        let done_at = start.elapsed();
        let mut failure = None;
        in_flight.retain(|(due, ticket)| match ticket.try_take() {
            None => true,
            Some(Ok(_)) => {
                latencies.push(ms(done_at - *due));
                false
            }
            Some(Err(e)) => {
                failure = Some(e);
                false
            }
        });
        if let Some(e) = failure {
            return Err(format!("overload lane: {e}"));
        }
        if due >= OVERLOAD && in_flight.is_empty() {
            break;
        }
        if !progressed && in_flight.is_empty() {
            // Idle: nothing queued until the next arrival.
            std::thread::sleep((due.min(OVERLOAD)).saturating_sub(start.elapsed()));
        }
    }
    m.push((
        "serve.service.overload_shed_share".to_string(),
        shed as f64 / arrivals.max(1) as f64,
    ));
    m.push((
        "serve.service.overload_p95_ms".to_string(),
        percentile(&latencies, 95.0),
    ));
    m.push(("loadgen.max_late_ms".to_string(), ms(max_late)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::workloads::{set_up, Kind};

    #[test]
    fn probe_lanes_measure_every_probe_metric() {
        // Names main.rs derives from the traced workload instead.
        let from_workload = |name: &str| {
            name.starts_with("trace.")
                || name.starts_with("serve.cache.hit_rate")
                || name.starts_with("serve.cache.evictions")
                || name == "storage.seq_pages_per_op"
                || name == "storage.rand_pages_per_op"
        };
        let out =
            std::env::temp_dir().join(format!("hydra-benchmark-probes-{}", std::process::id()));
        // A serve workload: the lanes build their own engines.
        let mut setup = set_up(Kind::ServeScatter, 3, 1500).expect("set-up");
        let measured = run(&mut setup, 3, &out).expect("probes");
        std::fs::remove_dir_all(&out).ok();
        for m in spec::per_layer() {
            let found = measured.iter().filter(|(name, _)| *name == m.name).count();
            assert_eq!(found, usize::from(!from_workload(&m.name)), "{}", m.name);
        }
        for (name, value) in &measured {
            assert!(value.is_finite(), "{name} = {value}");
            if name.ends_with(".tlb") {
                assert!(
                    (0.0..=1.0).contains(value) && *value > 0.3,
                    "{name} = {value}"
                );
            }
        }
    }
}
