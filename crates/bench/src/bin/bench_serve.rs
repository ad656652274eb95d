//! BENCH-SERVE: the query-serving service-layer baseline.
//!
//! Drives open-loop arrival ladders against [`hydra_serve::QueryService`]:
//! requests arrive on a fixed schedule (independent of completions, so
//! queueing pressure is real), the executor drains between arrivals, and
//! each completed request's arrival-to-completion latency is recorded. Every
//! (shard count × offered load) cell serves a fresh service over the same
//! dataset and reports p50/p99 latency, completions, sheds and the answer
//! cache's hit rate; a second lane sweeps a deadline ladder and asserts that
//! deadline-bounded requests degrade to `Guarantee::Truncated` answers
//! instead of erroring; a third, chaos lane re-runs the shard ladder with
//! per-shard fault injection and engine retries, and reports availability,
//! degraded-answer counts and the served answers' p99.
//! Results go to stdout and to `BENCH_serve.json` so later PRs have a
//! serving trajectory to compare against.
//!
//! Takes the shared [`RunConfig`] flags: `--shards N` replaces the default
//! 1/2/4 shard ladder with the single count N, `--deadline-ms D` replaces
//! the default deadline ladder with the single deadline D (`0` skips the
//! deadline lane), `--quorum P` (`all` / `best-effort` / a count)
//! overrides the chaos lane's best-effort merge policy, and
//! `--shard-fault-seed S` overrides its fault seed (`0` runs the lane
//! fault-free). Latencies include scheduler queueing on the host, so
//! absolute numbers are only comparable within one machine.

use hydra_bench::registry::MethodKind;
use hydra_bench::RunConfig;
use hydra_core::{parallel, BuildOptions, Error, Guarantee, Query, RetryPolicy, RunClock};
use hydra_data::{QueryWorkload, RandomWalkGenerator, WorkloadSpec};
use hydra_serve::{
    deadline_budget, QueryService, QuorumPolicy, RequestHandle, ResilienceConfig, ServeConfig,
};
use hydra_storage::{FaultConfig, FaultPlan};
use std::fmt::Write as _;
use std::time::Duration;

const SERIES: usize = 2_000;
const LENGTH: usize = 128;
/// Distinct queries in the pool; requests cycle through it, so every pass
/// after the first can hit the answer cache.
const QUERY_POOL: usize = 16;
/// Requests per (shards, offered load) cell: three passes over the pool.
const REQUESTS: usize = 48;
const QUEUE_CAPACITY: usize = 32;
const CACHE_CAPACITY: usize = 256;
const SHARD_LADDER: [usize; 3] = [1, 2, 4];
const LOAD_LADDER: [f64; 3] = [100.0, 400.0, 1600.0];
const DEADLINE_LADDER: [u64; 3] = [1, 5, 1000];
const DEADLINE_REQUESTS: usize = 8;
/// Requests per chaos cell: three passes over the pool, closed-loop.
const CHAOS_REQUESTS: usize = 48;
/// Default per-shard fault seed for the chaos lane when `--shard-fault-seed`
/// is not given; the flag replaces it (`0` runs the lane fault-free).
const CHAOS_FAULT_SEED: u64 = 0xC4A05;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Takes every finished request out of `pending`, recording its
/// arrival-to-completion latency in milliseconds.
fn harvest(
    pending: &mut Vec<(RequestHandle, Duration)>,
    latencies: &mut Vec<f64>,
    clock: &RunClock,
) {
    pending.retain(|(handle, arrival)| match handle.try_take() {
        Some(result) => {
            result.expect("admitted request failed");
            latencies.push((clock.elapsed().saturating_sub(*arrival)).as_secs_f64() * 1e3);
            false
        }
        None => true,
    });
}

struct CellResult {
    completed: usize,
    shed: u64,
    cache_hit_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
}

struct ChaosCell {
    full: usize,
    partial: usize,
    errors: usize,
    availability: f64,
    p99_ms: f64,
}

/// One closed-loop chaos cell: every request runs to completion against a
/// faulted service; outcomes are either full answers, `Guarantee::Partial`
/// degraded answers, or typed errors — never panics.
fn run_chaos_cell(service: &QueryService, queries: &[Query]) -> ChaosCell {
    let mut full = 0usize;
    let mut partial = 0usize;
    let mut errors = 0usize;
    let mut latencies: Vec<f64> = Vec::new();
    for i in 0..CHAOS_REQUESTS {
        let clock = RunClock::start();
        match service.answer(queries[i % queries.len()].clone()) {
            Ok(answer) => {
                match answer.guarantee {
                    Guarantee::Partial { .. } => partial += 1,
                    _ => full += 1,
                }
                latencies.push(clock.elapsed().as_secs_f64() * 1e3);
            }
            Err(_) => errors += 1,
        }
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    ChaosCell {
        full,
        partial,
        errors,
        availability: (full + partial) as f64 / CHAOS_REQUESTS as f64,
        p99_ms: percentile(&latencies, 0.99),
    }
}

/// One open-loop cell: submits `REQUESTS` queries at `offered_qps` against a
/// fresh service, draining the executor between arrivals.
fn run_cell(service: &QueryService, queries: &[Query], offered_qps: f64) -> CellResult {
    let interarrival = Duration::from_secs_f64(1.0 / offered_qps);
    let clock = RunClock::start();
    let mut pending: Vec<(RequestHandle, Duration)> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut shed = 0u64;
    for i in 0..REQUESTS {
        let due = interarrival.mul_f64(i as f64);
        // Open loop: the arrival clock never waits for completions, only the
        // executor drains while we wait for the next arrival.
        while clock.elapsed() < due {
            if !service.run_one() {
                std::thread::sleep(Duration::from_micros(20));
            }
            harvest(&mut pending, &mut latencies, &clock);
        }
        let arrival = clock.elapsed();
        match service.submit(queries[i % queries.len()].clone()) {
            Ok(handle) => pending.push((handle, arrival)),
            Err(Error::Overloaded { .. }) => shed += 1,
            Err(other) => panic!("unexpected serve error: {other}"),
        }
    }
    service.drive();
    harvest(&mut pending, &mut latencies, &clock);
    assert!(pending.is_empty(), "drive() left requests unfinished");
    latencies.sort_by(|a, b| a.total_cmp(b));
    CellResult {
        completed: latencies.len(),
        shed,
        cache_hit_rate: service.cache_stats().hit_rate(),
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
    }
}

fn main() {
    let cfg = RunConfig::from_args();
    let shard_ladder: Vec<usize> = cfg.shards.map_or(SHARD_LADDER.to_vec(), |n| vec![n]);
    let deadline_ladder: Vec<u64> = match cfg.deadline_ms {
        Some(ms) => [ms].into_iter().filter(|&ms| ms > 0).collect(),
        None => DEADLINE_LADDER.to_vec(),
    };

    let data = RandomWalkGenerator::new(0xDA7A, LENGTH).dataset(SERIES);
    let workload = QueryWorkload::generate(
        "Synth-Rand",
        &data,
        &WorkloadSpec::random(0x5EED).with_num_queries(QUERY_POOL),
    );
    let queries: Vec<Query> = workload
        .queries()
        .iter()
        .map(|s| Query::nearest_neighbor(s.clone()))
        .collect();
    let options = BuildOptions::default()
        .with_segments(8)
        .with_leaf_capacity(100)
        .with_train_samples(1_000);
    let host_cpus = parallel::available_threads();
    let method = MethodKind::AdsPlus;
    println!(
        "serve baseline: {SERIES} series x {LENGTH}, {} via {REQUESTS} requests/cell \
         ({QUERY_POOL} distinct), queue {QUEUE_CAPACITY}, cache {CACHE_CAPACITY}, \
         {host_cpus} CPU(s)\n",
        method.name()
    );

    let mut serving_rows = String::new();
    for &shards in &shard_ladder {
        for &offered_qps in &LOAD_LADDER {
            // A fresh service per cell: cold cache, zeroed counters, so cells
            // are independent of ladder order.
            let config = ServeConfig {
                shards,
                queue_capacity: QUEUE_CAPACITY,
                cache_capacity: CACHE_CAPACITY,
                ..ServeConfig::default()
            };
            let service = method
                .service(&data, &options, config)
                .expect("build service");
            let cell = run_cell(&service, &queries, offered_qps);
            assert_eq!(
                cell.completed + cell.shed as usize,
                REQUESTS,
                "every request must complete or shed"
            );
            println!(
                "shards={shards}  offered {offered_qps:>6.0} q/s  completed {:>2}  shed {:>2}  \
                 hit-rate {:>5.1}%  p50 {:>8.3} ms  p99 {:>8.3} ms",
                cell.completed,
                cell.shed,
                cell.cache_hit_rate * 100.0,
                cell.p50_ms,
                cell.p99_ms
            );
            if !serving_rows.is_empty() {
                serving_rows.push_str(",\n");
            }
            let _ = write!(
                serving_rows,
                r#"    {{"shards": {shards}, "offered_qps": {offered_qps:.1}, "requests": {REQUESTS}, "completed": {}, "shed": {}, "cache_hit_rate": {:.4}, "p50_ms": {:.4}, "p99_ms": {:.4}}}"#,
                cell.completed, cell.shed, cell.cache_hit_rate, cell.p50_ms, cell.p99_ms
            );
        }
        println!();
    }

    // Deadline lane: a scan method under a per-request deadline must answer
    // every query (no errors); tight deadlines price to budgets below the
    // dataset size and so must degrade to Guarantee::Truncated.
    let mut deadline_rows = String::new();
    let deadline_method = MethodKind::UcrSuite;
    for &deadline_ms in &deadline_ladder {
        let config = ServeConfig {
            shards: 1,
            queue_capacity: QUEUE_CAPACITY,
            cache_capacity: 0, // hits would mask the deadline path
            deadline_ms: Some(deadline_ms),
            ..ServeConfig::default()
        };
        let budget_reads = deadline_budget(
            deadline_ms,
            (LENGTH * std::mem::size_of::<f32>()) as u64,
            &config.cost_model,
        )
        .limit();
        let service = deadline_method
            .service(&data, &options, config)
            .expect("build service");
        let mut truncated = 0usize;
        let mut exact = 0usize;
        for query in queries.iter().take(DEADLINE_REQUESTS) {
            let answer = service
                .answer(query.clone())
                .expect("deadline-bounded requests degrade, they do not error");
            match answer.guarantee {
                Guarantee::Truncated { .. } => truncated += 1,
                Guarantee::Exact => exact += 1,
                other => panic!("unexpected guarantee under deadline: {other:?}"),
            }
        }
        if budget_reads < SERIES as u64 {
            assert_eq!(
                truncated, DEADLINE_REQUESTS,
                "a budget below the dataset size must truncate every answer"
            );
        }
        println!(
            "deadline {deadline_ms:>4} ms  budget {budget_reads:>7} reads  \
             truncated {truncated}/{DEADLINE_REQUESTS}  exact {exact}/{DEADLINE_REQUESTS}"
        );
        if !deadline_rows.is_empty() {
            deadline_rows.push_str(",\n");
        }
        let _ = write!(
            deadline_rows,
            r#"    {{"deadline_ms": {deadline_ms}, "budget_reads": {budget_reads}, "requests": {DEADLINE_REQUESTS}, "truncated": {truncated}, "exact": {exact}, "errors": 0}}"#,
        );
    }

    // Chaos lane: the same service under per-shard fault injection. Each
    // shard draws from its own seeded fault domain; engine retries guard
    // every shard's sub-query, and the quorum policy decides how much of the
    // fleet must answer. `--quorum` overrides the lane's
    // best-effort default, `--shard-fault-seed` the default seed (0 runs the
    // lane fault-free as a plumbing check).
    let quorum = cfg.quorum.unwrap_or(QuorumPolicy::BestEffort);
    let fault_seed = cfg.shard_fault_seed.unwrap_or(CHAOS_FAULT_SEED);
    println!("\nchaos lane: quorum {quorum}, shard-fault seed {fault_seed:#x}");
    let mut chaos_rows = String::new();
    for &shards in &shard_ladder {
        let shard_faults = if fault_seed == 0 {
            FaultPlan::disabled()
        } else {
            FaultPlan::seeded(fault_seed, FaultConfig::standard())
        };
        let config = ServeConfig {
            shards,
            queue_capacity: QUEUE_CAPACITY,
            cache_capacity: CACHE_CAPACITY,
            resilience: ResilienceConfig {
                quorum,
                shard_faults,
                // Standard faults clear within 2 failed attempts; a 2-attempt
                // budget deliberately under-provisions so roughly half the
                // faulted keys persist into the quorum path instead of every
                // cell trivially reporting 100% availability.
                retry: Some(RetryPolicy::new(2, 4)),
            },
            ..ServeConfig::default()
        };
        let service = method
            .service(&data, &options, config)
            .expect("build service");
        let cell = run_chaos_cell(&service, &queries);
        assert_eq!(
            cell.full + cell.partial + cell.errors,
            CHAOS_REQUESTS,
            "every chaos request must answer or fail typed"
        );
        println!(
            "shards={shards}  full {:>2}  partial {:>2}  errors {:>2}  availability {:>5.1}%  \
             p99 {:>8.3} ms",
            cell.full,
            cell.partial,
            cell.errors,
            cell.availability * 100.0,
            cell.p99_ms,
        );
        if !chaos_rows.is_empty() {
            chaos_rows.push_str(",\n");
        }
        let _ = write!(
            chaos_rows,
            r#"    {{"shards": {shards}, "requests": {CHAOS_REQUESTS}, "full": {}, "partial": {}, "errors": {}, "availability": {:.4}, "p99_ms": {:.4}}}"#,
            cell.full, cell.partial, cell.errors, cell.availability, cell.p99_ms
        );
    }

    let shard_list = shard_ladder
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let load_list = LOAD_LADDER
        .iter()
        .map(|l| format!("{l:.1}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        r#"{{
  "bench": "serve_open_loop",
  "generated_by": "cargo run --release --bin bench_serve",
  "host_cpus": {host_cpus},
  "note": "open-loop arrivals; latencies include host scheduler queueing, comparable only within one machine",
  "dataset": {{"kind": "random-walk", "series": {SERIES}, "length": {LENGTH}}},
  "method": "{}",
  "queue_capacity": {QUEUE_CAPACITY},
  "cache_capacity": {CACHE_CAPACITY},
  "shard_ladder": [{shard_list}],
  "offered_load_ladder_qps": [{load_list}],
  "serving": [
{serving_rows}
  ],
  "deadline_method": "{}",
  "deadline": [
{deadline_rows}
  ],
  "chaos_quorum": "{quorum}",
  "chaos_fault_seed": {fault_seed},
  "chaos": [
{chaos_rows}
  ]
}}
"#,
        method.name(),
        deadline_method.name()
    );
    let path = hydra_bench::report::write_bench_artifact("serve", &json).expect("write json");
    println!("\nwrote {}", path.display());
}
