//! EXP-F4: regenerates Figure 4 (sequential and random disk accesses vs
//! dataset size and series length).

use hydra_bench::experiments::fig4_disk_accesses;
use hydra_bench::report::results_dir;
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let (by_size, by_length) = fig4_disk_accesses(&cfg);
    println!("{}", by_size.to_text());
    println!("{}", by_length.to_text());
    let dir = results_dir();
    println!(
        "wrote {}",
        by_size
            .write_csv(&dir, "fig4_disk_accesses_by_size")
            .expect("csv")
            .display()
    );
    println!(
        "wrote {}",
        by_length
            .write_csv(&dir, "fig4_disk_accesses_by_length")
            .expect("csv")
            .display()
    );
}
