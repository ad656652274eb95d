//! `hydra-benchmark`: one seeded end-to-end benchmark of the hydra stack with
//! per-layer attribution. See `benchmark/README.md`.
//!
//! ```text
//! hydra-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hydra-benchmark list [--json]
//! hydra-benchmark compare <a.json> <b.json>
//! ```

mod compare;
mod inputs;
mod json;
mod oracle;
mod probes;
mod spec;
mod stats;
mod surface;
mod trace;
mod workloads;

use json::{number, quote};
use spec::Metric;
use stats::{median, percentile};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Kind, Run, Setup};

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

fn usage() -> &'static str {
    "usage: hydra-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
     \x20      hydra-benchmark list [--json]\n\
     \x20      hydra-benchmark compare <a.json> <b.json>\n\
     workloads: exact_serial exact_parallel serve_zipf serve_scatter"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("list") => match args.get(1).map(String::as_str) {
            None => Ok(emit(&list(), true)),
            Some("--json") => Ok(emit(&spec::manifest_json(), true)),
            Some(_) => Err(usage().to_string()),
        },
        Some("compare") => match (args.get(1), args.get(2), args.get(3)) {
            (Some(a), Some(b), None) => {
                compare::run(a, b).map(|(table, clean)| emit(&table, clean))
            }
            _ => Err(usage().to_string()),
        },
        _ => parse_run(&args).and_then(|options| run(&options)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Prints a finished report and passes `ok` through. A reader that closed the
/// pipe early (`list | head`) is not an error.
fn emit(report: &str, ok: bool) -> bool {
    let _ = std::io::stdout().lock().write_all(report.as_bytes());
    ok
}

fn list() -> String {
    let mut out = format!(
        "workloads (closed loop, one client, {} s each):\n",
        spec::RUN_SECONDS
    );
    for w in &spec::WORKLOADS {
        out.push_str(&format!("  {:<15} {}\n", w.name, w.why));
    }
    let row = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("{:.0} %", b * 100.0));
        format!(
            "  {:<42} {:<6} {:<7} {:<7} {bound}\n",
            m.name,
            m.unit,
            m.better.word(),
            format!("{:?}", m.kind).to_lowercase()
        )
    };
    out.push_str("end-to-end metrics (name, unit, better, kind, regression bound):\n");
    out.extend(spec::end_to_end().iter().map(row));
    out.push_str(&format!(
        "  (`compare` pairs runs by seed and holds a count to {:.0} %)\n",
        spec::PAIRED_COUNT_BOUND * 100.0
    ));
    out.push_str("per-layer metrics of a traced run (name, unit, better, kind):\n");
    out.extend(spec::per_layer().iter().map(row));
    out
}

struct Options {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = 7u64;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("bad --seconds {value} (0 < s <= 120)"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(Options {
        kind: kind.ok_or_else(|| usage().to_string())?,
        seed,
        seconds,
        trace,
    })
}

/// `benchmark/out/`, next to this package's manifest wherever it was built.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What a run reports besides its metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run(options: &Options) -> Result<bool, String> {
    let Options { kind, seed, .. } = *options;
    println!(
        "hydra-benchmark workload={} seed={seed} seconds={} trace={} host_cpus={} kernel={} dataset=rw-{}-{}",
        kind.name(),
        options.seconds,
        u8::from(options.trace),
        surface::host_cpus(),
        surface::active_kernel(),
        spec::CORPUS_SIZE,
        surface::SERIES_LEN,
    );
    let (specs, outcome) = if options.trace {
        (spec::per_layer(), traced(options)?)
    } else {
        (spec::end_to_end(), untraced(options)?)
    };
    let mut entries = Vec::with_capacity(specs.len());
    for m in &specs {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|&(_, v)| v)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        println!("{:<42} {:>16.6} {}", m.name, value, m.unit);
        entries.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&m.name),
            number(value),
            quote(m.unit)
        ));
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        entries.join(", ")
    );
    Ok(correct)
}

/// Checks a measured run and prints what it found; returns the failed count
/// (typed errors + shed + wrong answers).
fn check(setup: &Setup, run: &Run, seed: u64, label: &str) -> u64 {
    let (wrong, reasons) = workloads::verify(setup, run, seed);
    for e in run.error_samples.iter().chain(&reasons) {
        eprintln!("{label}: FAILED op: {e}");
    }
    println!(
        "{label}: attempted={} answered={} errors={} wrong={wrong} latency_samples={} counted_ops={} counted_cache_hits={} wall_s={:.3}",
        run.attempted,
        run.records.len(),
        run.errors,
        run.latencies_ms.len(),
        run.counted_records().len(),
        run.counted_records()
            .iter()
            .filter(|r| r.answered.from_cache)
            .count(),
        run.wall.as_secs_f64(),
    );
    run.errors + wrong
}

fn untraced(options: &Options) -> Result<Outcome, String> {
    let Options {
        kind,
        seed,
        seconds,
        ..
    } = *options;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous set-up first: peak memory is one set-up's.
        drop(setup.take());
        let built = workloads::set_up(kind, seed, spec::CORPUS_SIZE)?;
        setup_s.push(built.total.as_secs_f64());
        setup = Some(built);
    }
    let mut setup = setup.expect("SETUP_REPEATS > 0");
    println!("set-up times: {setup_s:?} s");
    let run = workloads::measure(&mut setup, seed, seconds, None);
    let failed = check(&setup, &run, seed, "measured");
    let wrong = failed - run.errors;
    let metrics = vec![
        ("setup_s".to_string(), median(&setup_s)),
        ("ops_per_s".to_string(), run.ops_per_s(wrong)),
        (
            "lat_p50_ms".to_string(),
            percentile(&run.latencies_ms, 50.0),
        ),
        (
            "lat_p95_ms".to_string(),
            percentile(&run.latencies_ms, 95.0),
        ),
        (
            "io_hdd_ms_per_op".to_string(),
            run.mean_work(|w| w.io_hdd_ms()),
        ),
        (
            "io_ssd_ms_per_op".to_string(),
            run.mean_work(|w| w.io_ssd_ms()),
        ),
        ("footprint_ratio".to_string(), setup.footprint_ratio()),
        ("peak_rss_mb".to_string(), peak_rss_mb()?),
    ];
    Ok(Outcome {
        attempted: run.attempted,
        failed,
        metrics,
    })
}

/// A traced run: the workload untraced, then — on a fresh set-up, so both
/// passes start from the same cache and index state — traced, each for the
/// whole run length and over the same counted ops, then the probe lanes.
fn traced(options: &Options) -> Result<Outcome, String> {
    let Options {
        kind,
        seed,
        seconds,
        ..
    } = *options;
    let mut setup = workloads::set_up(kind, seed, spec::CORPUS_SIZE)?;
    let plain = workloads::measure(&mut setup, seed, seconds, None);
    let mut failed = check(&setup, &plain, seed, "untraced pass");
    drop(setup);

    let mut setup = workloads::set_up(kind, seed, spec::CORPUS_SIZE)?;
    let mut tracer = trace::Tracer::new();
    let run = workloads::measure(&mut setup, seed, seconds, Some(&mut tracer));
    failed += check(&setup, &run, seed, "traced pass");

    let mut metrics = probes::run(&mut setup, seed, &out_dir())?;
    let ops = tracer.queries().max(1) as f64;
    let own = tracer.self_ns_by_layer();
    for layer in spec::TRACE_LAYERS {
        let ns = own.get(layer).copied().unwrap_or(0);
        metrics.push((
            format!("trace.self_ms_per_op.{layer}"),
            ns as f64 / 1e6 / ops,
        ));
    }
    let self_total: u64 = own.values().sum();
    metrics.push((
        "trace.self_time_coverage".to_string(),
        self_total as f64 / run.wall.as_nanos() as f64,
    ));
    metrics.push((
        "trace.overhead_share".to_string(),
        1.0 - run.ops_per_s(0) / plain.ops_per_s(0),
    ));
    metrics.push((
        "storage.seq_pages_per_op".to_string(),
        run.mean_work(|w| w.seq_pages as f64),
    ));
    metrics.push((
        "storage.rand_pages_per_op".to_string(),
        run.mean_work(|w| w.rand_pages as f64),
    ));
    // Exact workloads never touch the cache: zero lookups, zero evictions.
    let cache = run.prefix_counters.unwrap_or_default();
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    metrics.push((
        "serve.cache.hit_rate".to_string(),
        cache.hits as f64 / lookups,
    ));
    metrics.push((
        "serve.cache.evictions_per_op".to_string(),
        cache.evictions as f64 / lookups,
    ));

    let path = out_dir().join(format!("trace-{}.json", kind.name()));
    tracer
        .write(&path, kind.name(), seed)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(Outcome {
        attempted: plain.attempted + run.attempted,
        failed,
        metrics,
    })
}
