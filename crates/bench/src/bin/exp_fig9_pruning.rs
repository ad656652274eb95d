//! EXP-F9: regenerates Figure 9 (pruning ratio per method and workload).

use hydra_bench::experiments::fig9_pruning;
use hydra_bench::report::results_dir;
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let table = fig9_pruning(&cfg);
    println!("{}", table.to_text());
    let path = table
        .write_csv(&results_dir(), "fig9_pruning")
        .expect("write csv");
    println!("wrote {}", path.display());
}
