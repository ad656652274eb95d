//! End-to-end check of on-disk index persistence across process invocations.
//!
//! Builds every snapshot-capable method over a fixed seeded dataset through
//! the snapshot cache (`--index-dir`, default `snapshots/`), then rebuilds
//! each method fresh in-process and asserts that the cached engine answers
//! the whole workload with results and work counters **bit-identical** to
//! the rebuild. Run it twice:
//!
//! ```text
//! snapshot_check --index-dir snapshots                  # first run: builds + saves
//! snapshot_check --index-dir snapshots --expect-loaded  # second run: must LOAD every index
//! ```
//!
//! The second invocation is a separate process, so a pass proves the real
//! file round trip — not just an in-memory cache. Any disagreement or an
//! unexpected rebuild exits non-zero.

use hydra_bench::registry::{MethodKind, SnapshotOutcome};
use hydra_bench::{run_build, RunConfig};
use hydra_core::{BuildOptions, Query};
use hydra_data::{QueryWorkload, RandomWalkGenerator, WorkloadSpec};

fn main() {
    let mut cfg = RunConfig::from_args();
    let dir = cfg
        .index_dir
        .get_or_insert_with(|| "snapshots".into())
        .clone();

    let data = RandomWalkGenerator::new(0xC0FFEE, 96).dataset(600);
    let workload = QueryWorkload::generate(
        "persist",
        &data,
        &WorkloadSpec::controlled(7).with_num_queries(10),
    );
    let queries: Vec<Query> = workload
        .queries()
        .iter()
        .map(|s| Query::knn(s.clone(), 5))
        .collect();
    let options = BuildOptions::default()
        .with_leaf_capacity(25)
        .with_train_samples(150);

    let mut failures = 0usize;
    for kind in MethodKind::ALL {
        if !kind.supports_snapshots() {
            continue;
        }
        let (mut cached_engine, build) =
            run_build(kind, &data, &options, &cfg).expect("snapshot-aware build");
        let cached = cached_engine
            .answer_workload(&queries, cfg.threads)
            .expect("cached queries");

        // Fresh rebuild, bypassing the cache.
        let mut fresh_engine = kind.engine(&data, &options).expect("fresh build");
        let fresh = fresh_engine
            .answer_workload(&queries, cfg.threads)
            .expect("fresh queries");

        let mut ok = true;
        for (qi, (c, f)) in cached.iter().zip(&fresh).enumerate() {
            if c.answers != f.answers {
                eprintln!("FAIL {}: query {qi} answers diverge", kind.name());
                ok = false;
            }
            let (cs, fs) = (&c.stats, &f.stats);
            if cs.raw_series_examined != fs.raw_series_examined
                || cs.lower_bounds_computed != fs.lower_bounds_computed
                || cs.leaves_visited != fs.leaves_visited
                || cs.internal_nodes_visited != fs.internal_nodes_visited
                || cs.early_abandons != fs.early_abandons
                || cs.sequential_page_accesses != fs.sequential_page_accesses
                || cs.random_page_accesses != fs.random_page_accesses
                || cs.bytes_read != fs.bytes_read
            {
                eprintln!("FAIL {}: query {qi} work counters diverge", kind.name());
                ok = false;
            }
        }
        if cfg.expect_loaded && !build.snapshot.loaded() {
            eprintln!(
                "FAIL {}: expected a snapshot load, got {:?}",
                kind.name(),
                build.snapshot
            );
            ok = false;
        }
        let outcome = match build.snapshot {
            SnapshotOutcome::Loaded { bytes } => format!("loaded {bytes} B"),
            SnapshotOutcome::Saved { bytes } => format!("built fresh, saved {bytes} B"),
            SnapshotOutcome::Recovered { bytes } => {
                format!("quarantined damaged snapshot, rebuilt and saved {bytes} B")
            }
            SnapshotOutcome::Unsupported => "unsupported".to_string(),
        };
        let verdict = if ok { "OK" } else { "MISMATCH" };
        println!(
            "{verdict:8} {:10} {outcome} (dir: {})",
            kind.name(),
            dir.display()
        );
        if !ok {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("{failures} method(s) failed the persistence check");
        std::process::exit(1);
    }
    println!("all persistent methods agree with a fresh rebuild");
}
