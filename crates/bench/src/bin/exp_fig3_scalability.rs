//! EXP-F3: regenerates Figure 3 (per-method scalability with dataset size,
//! CPU vs I/O breakdown).

use hydra_bench::experiments::fig3_scalability;
use hydra_bench::report::results_dir;
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let table = fig3_scalability(&cfg);
    println!("{}", table.to_text());
    let path = table
        .write_csv(&results_dir(), "fig3_scalability")
        .expect("write csv");
    println!("wrote {}", path.display());
}
