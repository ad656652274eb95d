//! EXP-F2: regenerates Figure 2 (leaf-size parametrization).

use hydra_bench::experiments::fig2_leaf_size;
use hydra_bench::report::results_dir;
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let table = fig2_leaf_size(&cfg);
    println!("{}", table.to_text());
    let path = table
        .write_csv(&results_dir(), "fig2_leaf_size")
        .expect("write csv");
    println!("wrote {}", path.display());
}
