//! EXP-ROBUST: the robustness study — a fault-rate × retry-policy × budget
//! ladder under seeded deterministic fault injection, over the three scans
//! plus the VA+file and ADS+. Reports per-cell success rate, mean attempts
//! per answered query, truncation fraction and the error ratio of degraded
//! answers against the fault-free exact baseline, plus a snapshot-recovery
//! phase counting quarantine-and-rebuild recoveries of corrupted on-disk
//! snapshots.
//!
//! The fault-free lane is validated bit-identical to today's behaviour on
//! the way (answers and work counters), and any query failure must surface
//! as a typed error — the binary panics otherwise.
//!
//! Writes `BENCH_robust.json` and `results/robustness.{csv,json}` (the JSON
//! is uploaded as a CI artifact by the `chaos-smoke` job).
//!
//! This binary sweeps the fault ladder itself, so `--fault-seed` and
//! `--budget` (which drive the per-figure binaries) have no effect here;
//! `--threads N` and `--scale S` apply as usual.

use hydra_bench::experiments::robustness;
use hydra_bench::report::{results_dir, write_json};
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let (table, json) = robustness(&cfg);
    println!("{}", table.to_text());

    let bench_path =
        hydra_bench::report::write_bench_artifact("robust", &json).expect("write json");
    println!("wrote {}", bench_path.display());

    let dir = results_dir();
    let csv_path = table.write_csv(&dir, "robustness").expect("write csv");
    println!("wrote {}", csv_path.display());
    let json_path = write_json(&dir, "robustness", &json).expect("write json");
    println!("wrote {}", json_path.display());
}
