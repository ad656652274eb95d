//! EXP-F5: regenerates Figure 5 (scalability with increasing series lengths).

use hydra_bench::experiments::fig5_lengths;
use hydra_bench::report::results_dir;
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let table = fig5_lengths(&cfg);
    println!("{}", table.to_text());
    let path = table
        .write_csv(&results_dir(), "fig5_lengths")
        .expect("write csv");
    println!("wrote {}", path.display());
}
