//! EXP-APPROX: the approximate-answering trade-off (the sequel study's
//! headline figure) — ε sweep plus ng and δ-ε points over every mode-capable
//! method, reporting mean error ratio and speedup vs exact. Exact results are
//! validated unchanged along the way (the ε = 0 run must answer
//! bit-identically, or the binary aborts).
//!
//! Writes `results/approx_tradeoff.csv` and `results/approx_tradeoff.json`
//! (the JSON is uploaded as a CI artifact by the `approx-smoke` job).
//!
//! This binary sweeps the whole mode ladder itself, so `--mode` (which
//! drives the per-figure binaries) has no effect here.

use hydra_bench::experiments::approx_tradeoff;
use hydra_bench::report::{results_dir, write_json};
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let (table, json) = approx_tradeoff(&cfg);
    println!("{}", table.to_text());
    let dir = results_dir();
    let csv_path = table.write_csv(&dir, "approx_tradeoff").expect("write csv");
    println!("wrote {}", csv_path.display());
    let json_path = write_json(&dir, "approx_tradeoff", &json).expect("write json");
    println!("wrote {}", json_path.display());
}
