//! EXP-F10: regenerates Figure 10 (the recommendation matrix).

use hydra_bench::experiments::fig10_recommendations;
use hydra_bench::report::results_dir;
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let table = fig10_recommendations(&cfg);
    println!("{}", table.to_text());
    let path = table
        .write_csv(&results_dir(), "fig10_recommendations")
        .expect("write csv");
    println!("wrote {}", path.display());
}
