//! EXP-F7: regenerates Figure 7 (scalability comparison, SSD model).

use hydra_bench::experiments::fig6_fig7_platform_comparison;
use hydra_bench::harness::Platform;
use hydra_bench::report::results_dir;
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let table = fig6_fig7_platform_comparison(&cfg, Platform::Ssd);
    println!("{}", table.to_text());
    let path = table
        .write_csv(&results_dir(), "fig7_ssd")
        .expect("write csv");
    println!("wrote {}", path.display());
}
