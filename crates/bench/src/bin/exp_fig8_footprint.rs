//! EXP-F8: regenerates Figure 8 (index footprint and tightness of the lower
//! bound).

use hydra_bench::experiments::{fig8_footprint, fig8_tlb};
use hydra_bench::report::results_dir;
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let footprint = fig8_footprint(&cfg);
    let tlb = fig8_tlb(&cfg);
    println!("{}", footprint.to_text());
    println!("{}", tlb.to_text());
    let dir = results_dir();
    println!(
        "wrote {}",
        footprint
            .write_csv(&dir, "fig8_footprint")
            .expect("csv")
            .display()
    );
    println!(
        "wrote {}",
        tlb.write_csv(&dir, "fig8_tlb").expect("csv").display()
    );
}
