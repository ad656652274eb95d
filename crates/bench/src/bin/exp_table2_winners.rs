//! EXP-T2: regenerates Table 2 (the best method per platform, dataset and
//! scenario).

use hydra_bench::experiments::table2_winners;
use hydra_bench::report::results_dir;
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let (table, _winners) = table2_winners(&cfg);
    println!("{}", table.to_text());
    let path = table
        .write_csv(&results_dir(), "table2_winners")
        .expect("write csv");
    println!("wrote {}", path.display());
}
