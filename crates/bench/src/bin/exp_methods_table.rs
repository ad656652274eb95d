//! EXP-T1: regenerates Table 1 (the method property matrix).

use hydra_bench::experiments::methods_table;
use hydra_bench::report::results_dir;
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let table = methods_table(&cfg);
    println!("{}", table.to_text());
    let path = table
        .write_csv(&results_dir(), "table1_methods")
        .expect("write csv");
    println!("wrote {}", path.display());
}
