//! What the benchmark runs and reports: the workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metrics. `list`
//! prints these tables, `list --json` renders them as `BENCHMARK.json`, and a
//! test keeps the committed file equal to that rendering.

use crate::surface::{Method, SIMD_TIERS};

/// The command the driver runs from the root of a checkout. It appends the
/// run's flags, so the list ends with `--`: what follows goes to the binary,
/// not to cargo.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "hydra-benchmark",
    "--",
];

/// The directory that holds the benchmark and nothing else.
pub const PATH: &str = "benchmark";

/// How long one run measures. The driver's 92 runs, with their set-ups and two
/// builds, must end within 3 420 s; at 15 s they take about 2 550 s on the
/// reference box in its faster state (the README has the sum).
pub const RUN_SECONDS: u64 = 15;

/// What `compare` holds an end-to-end count to. It pairs runs by seed, and a
/// count repeats exactly for a seed, so any change is resolved; 2 % as
/// `footprint_ratio` has. The bounds of the modelled I/O times in
/// `BENCHMARK.json` are wider only because the driver compares medians over
/// runs with *different* seeds, whose queries differ in cost.
pub const PAIRED_COUNT_BOUND: f64 = 0.02;

/// Series in the common dataset `rw-100k-256` (≈100 MB raw).
pub const CORPUS_SIZE: usize = 100_000;

/// The summarizations probed in the `transforms` layer.
pub const SUMMARIZATIONS: [&str; 4] = ["paa", "isax", "eapca", "vaplus"];

/// The layers a traced workload's time is split over. Inside a service the
/// per-shard engine calls are not visible from outside, so a served request
/// has no `engine` time of its own: it counts under `serve`.
pub const TRACE_LAYERS: [&str; 3] = ["serve", "engine", "method"];

/// One named workload.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Why it is here (one line).
    pub why: &'static str,
}

/// The four workloads, all closed loop with one client.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "exact_serial",
        why: "Exact 10-NN through QueryEngine::answer on five methods in turn: traversal, lower bounds, distances and reads do all the work, serve none; control for every serve-side change.",
    },
    Workload {
        name: "exact_parallel",
        why: "Same five engines on 2 threads: answer_batch in chunks of 64 (throughput) then answer_intra (latency); shows changes to the batch, intra and workload-fallback paths that exact_serial bypasses.",
    },
    Workload {
        name: "serve_zipf",
        why: "ADS+ service, 2 shards, zipf(1.0) requests over 4096 queries, 16x the answer cache: repeated keys (hit rate 0.28), so cache policy and the hit path set throughput as much as the engine does.",
    },
    Workload {
        name: "serve_scatter",
        why: "DSTree service, 4 shards, uniform requests over 2048 queries: the cache is nearly bypassed and every request is a 4-way scatter, per-shard tree search and merge.",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `compare` treats a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Measured with a clock (or the allocator): compared by medians against
    /// a percentage bound.
    Timing,
    /// Counted by the program over a fixed set of ops: repeats exactly for a
    /// given seed, compared for equality.
    Count,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as printed.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Timing or count.
    pub kind: MetricKind,
}

fn metric(name: impl Into<String>, unit: &'static str, better: Better, kind: MetricKind) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: None,
        kind,
    }
}

/// The end-to-end metrics every workload reports. An *op* is one query or
/// request. A bound has to hold three times the widest spread (quartile
/// distance over median) seen on the 2-CPU reference box, both over identical
/// runs and over runs with ten different seeds, which is how the driver
/// measures it. The box switches between a faster and a slower state about
/// 12 % apart, for minutes at a time: six identical runs spread by up to
/// 20 % (`ops_per_s`, `exact_parallel`), so no timing bound below the
/// contract's maximum, 0.25, can be resolved here, however long a run is. The
/// modelled I/O times repeat exactly for a seed but move by up to 7.4 %
/// across seeds; `compare`, which pairs runs by seed, holds them to
/// [`PAIRED_COUNT_BOUND`] instead. The README has the measurements.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    use MetricKind::{Count, Timing};
    let bounded = |name: &str, unit, better, kind, bound| Metric {
        bound: Some(bound),
        ..metric(name, unit, better, kind)
    };
    vec![
        bounded("setup_s", "s", Lower, Timing, 0.25),
        bounded("ops_per_s", "1/s", Higher, Timing, 0.25),
        bounded("lat_p50_ms", "ms", Lower, Timing, 0.25),
        bounded("lat_p95_ms", "ms", Lower, Timing, 0.25),
        bounded("io_hdd_ms_per_op", "ms", Lower, Count, 0.25),
        bounded("io_ssd_ms_per_op", "ms", Lower, Count, 0.25),
        bounded("footprint_ratio", "ratio", Lower, Count, 0.02),
        bounded("peak_rss_mb", "MB", Lower, Timing, 0.05),
    ]
}

/// The per-layer metrics of a traced run. Workload-derived ones (`trace.*`,
/// the `storage.*_pages_per_op` counters, `serve.cache.hit_rate`,
/// `serve.cache.evictions_per_op`) describe the traced workload; the rest
/// come from the probe lanes, which run the same way after every workload.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    use MetricKind::{Count, Timing};
    let mut m = vec![metric("data.gen_series_per_s", "1/s", Higher, Timing)];
    for tier in SIMD_TIERS {
        m.push(metric(
            format!("core.simd.sq_euclid_ns.{tier}"),
            "ns",
            Lower,
            Timing,
        ));
    }
    for name in ["early_abandon_ns", "reordered_ns", "interval_mindist_ns"] {
        m.push(metric(format!("core.simd.{name}"), "ns", Lower, Timing));
    }
    for s in SUMMARIZATIONS {
        m.push(metric(
            format!("transforms.{s}.summarize_ns"),
            "ns",
            Lower,
            Timing,
        ));
        m.push(metric(
            format!("transforms.{s}.lower_bound_ns"),
            "ns",
            Lower,
            Timing,
        ));
        m.push(metric(
            format!("transforms.{s}.tlb"),
            "ratio",
            Higher,
            Count,
        ));
    }
    m.push(metric("storage.read_series_ns", "ns", Lower, Timing));
    m.push(metric("storage.scan_gb_per_s", "GB/s", Higher, Timing));
    m.push(metric(
        "storage.snapshot_save_mb_per_s",
        "MB/s",
        Higher,
        Timing,
    ));
    m.push(metric(
        "storage.snapshot_load_mb_per_s",
        "MB/s",
        Higher,
        Timing,
    ));
    m.push(metric("storage.seq_pages_per_op", "count", Lower, Count));
    m.push(metric("storage.rand_pages_per_op", "count", Lower, Count));
    for method in Method::ALL {
        let k = method.key();
        m.push(metric(format!("method.{k}.build_s"), "s", Lower, Timing));
        m.push(metric(
            format!("method.{k}.footprint_bytes"),
            "bytes",
            Lower,
            Count,
        ));
        m.push(metric(
            format!("method.{k}.query_p50_ms"),
            "ms",
            Lower,
            Timing,
        ));
        m.push(metric(
            format!("method.{k}.query_p90_ms"),
            "ms",
            Lower,
            Timing,
        ));
        for counter in [
            "raw_examined_per_op",
            "lower_bounds_per_op",
            "nodes_per_op",
            "seq_pages_per_op",
            "rand_pages_per_op",
        ] {
            m.push(metric(
                format!("method.{k}.{counter}"),
                "count",
                Lower,
                Count,
            ));
        }
    }
    m.push(metric("core.engine.overhead_us", "us", Lower, Timing));
    for method in Method::ALL {
        let k = method.key();
        m.push(metric(
            format!("core.engine.batch_ops_per_s.{k}"),
            "1/s",
            Higher,
            Timing,
        ));
        m.push(metric(
            format!("core.engine.intra_p50_ms.{k}"),
            "ms",
            Lower,
            Timing,
        ));
        m.push(metric(
            format!("core.engine.workload_ops_per_s.{k}"),
            "1/s",
            Higher,
            Timing,
        ));
    }
    m.push(metric("serve.shard.merge_us", "us", Lower, Timing));
    m.push(metric(
        "serve.shard.scatter_overhead_us",
        "us",
        Lower,
        Timing,
    ));
    m.push(metric("serve.executor.task_ns", "ns", Lower, Timing));
    m.push(metric("serve.cache.get_ns", "ns", Lower, Timing));
    m.push(metric("serve.cache.insert_ns", "ns", Lower, Timing));
    m.push(metric("serve.cache.hit_rate", "ratio", Higher, Count));
    m.push(metric(
        "serve.cache.evictions_per_op",
        "count",
        Lower,
        Count,
    ));
    m.push(metric("serve.service.hit_path_us", "us", Lower, Timing));
    m.push(metric(
        "serve.service.miss_overhead_us",
        "us",
        Lower,
        Timing,
    ));
    m.push(metric(
        "serve.service.overload_shed_share",
        "ratio",
        Lower,
        Timing,
    ));
    m.push(metric("serve.service.overload_p95_ms", "ms", Lower, Timing));
    m.push(metric("loadgen.max_late_ms", "ms", Lower, Timing));
    for layer in TRACE_LAYERS {
        m.push(metric(
            format!("trace.self_ms_per_op.{layer}"),
            "ms",
            Lower,
            Timing,
        ));
    }
    m.push(metric("trace.self_time_coverage", "ratio", Higher, Timing));
    m.push(metric("trace.overhead_share", "ratio", Lower, Timing));
    m
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    use crate::json::{number, quote};
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command = COMMAND.map(quote).join(", ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let entry = |m: &Metric| {
        let mut s = format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}",
            quote(&m.name),
            quote(m.unit),
            quote(m.better.word())
        );
        if let Some(bound) = m.bound {
            s.push_str(&format!(", \"bound\": {}", number(bound)));
        }
        s.push('}');
        s
    };
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        quote(PATH),
        list(workloads),
        list(end_to_end().iter().map(entry).collect()),
        list(per_layer().iter().map(entry).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(names.insert(m.name.clone()), "{} is used twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name));
            assert!(names.insert(w.name.to_string()), "{} is used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &e2e {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!((0.0..=0.25).contains(&bound), "{}", m.name);
        }
        assert!(layers.iter().all(|m| m.bound.is_none()));
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        assert!(COMMAND.len() <= 32);
        assert_eq!(
            COMMAND.last(),
            Some(&"--"),
            "run flags must reach the binary"
        );
    }

    #[test]
    fn manifest_has_exactly_the_contract_keys() {
        let text = manifest_json();
        assert!(text.len() <= 64 * 1024);
        let root = parse(&text).expect("manifest parses");
        let keys: Vec<&str> = root.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for m in root.get("end_to_end").unwrap().items() {
            let keys: Vec<&str> = m.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "unit", "better", "bound"]);
        }
        for m in root.get("per_layer").unwrap().items() {
            let keys: Vec<&str> = m.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "unit", "better"]);
        }
        for w in root.get("workloads").unwrap().items() {
            let keys: Vec<&str> = w.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "why"]);
        }
        assert_eq!(
            root.get("run_seconds"),
            Some(&Value::Number(RUN_SECONDS as f64))
        );
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            parse(&committed).expect("BENCHMARK.json parses"),
            parse(&manifest_json()).unwrap(),
            "regenerate with `hydra-benchmark list --json > BENCHMARK.json`"
        );
    }
}
