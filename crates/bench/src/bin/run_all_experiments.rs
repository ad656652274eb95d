//! Runs every experiment in sequence (the full reproduction pass) and writes
//! all CSVs under `results/`. Control dataset sizes with `--scale`
//! (`smoke`, `small`, `full`); every other flag of [`RunConfig`] applies
//! too.

use hydra_bench::experiments as exp;
use hydra_bench::harness::Platform;
use hydra_bench::report::{results_dir, write_json};
use hydra_bench::RunConfig;

fn main() {
    let cfg = RunConfig::from_args();
    let dir = results_dir();
    println!(
        "running all experiments at scale {:?}; writing CSVs to {}\n",
        cfg.scale,
        dir.display()
    );

    let t1 = exp::methods_table(&cfg);
    println!("{}", t1.to_text());
    t1.write_csv(&dir, "table1_methods").unwrap();

    let f2 = exp::fig2_leaf_size(&cfg);
    println!("{}", f2.to_text());
    f2.write_csv(&dir, "fig2_leaf_size").unwrap();

    let f3 = exp::fig3_scalability(&cfg);
    println!("{}", f3.to_text());
    f3.write_csv(&dir, "fig3_scalability").unwrap();

    let (f4a, f4b) = exp::fig4_disk_accesses(&cfg);
    println!("{}", f4a.to_text());
    println!("{}", f4b.to_text());
    f4a.write_csv(&dir, "fig4_disk_accesses_by_size").unwrap();
    f4b.write_csv(&dir, "fig4_disk_accesses_by_length").unwrap();

    let f5 = exp::fig5_lengths(&cfg);
    println!("{}", f5.to_text());
    f5.write_csv(&dir, "fig5_lengths").unwrap();

    let f6 = exp::fig6_fig7_platform_comparison(&cfg, Platform::Hdd);
    println!("{}", f6.to_text());
    f6.write_csv(&dir, "fig6_hdd").unwrap();

    let f7 = exp::fig6_fig7_platform_comparison(&cfg, Platform::Ssd);
    println!("{}", f7.to_text());
    f7.write_csv(&dir, "fig7_ssd").unwrap();

    let f8 = exp::fig8_footprint(&cfg);
    println!("{}", f8.to_text());
    f8.write_csv(&dir, "fig8_footprint").unwrap();

    let f8f = exp::fig8_tlb(&cfg);
    println!("{}", f8f.to_text());
    f8f.write_csv(&dir, "fig8_tlb").unwrap();

    let f9 = exp::fig9_pruning(&cfg);
    println!("{}", f9.to_text());
    f9.write_csv(&dir, "fig9_pruning").unwrap();

    let (t2, _) = exp::table2_winners(&cfg);
    println!("{}", t2.to_text());
    t2.write_csv(&dir, "table2_winners").unwrap();

    let f10 = exp::fig10_recommendations(&cfg);
    println!("{}", f10.to_text());
    f10.write_csv(&dir, "fig10_recommendations").unwrap();

    let (approx, approx_json) = exp::approx_tradeoff(&cfg);
    println!("{}", approx.to_text());
    approx.write_csv(&dir, "approx_tradeoff").unwrap();
    write_json(&dir, "approx_tradeoff", &approx_json).unwrap();

    let (batch, batch_json) = exp::batch_amortization(&cfg);
    println!("{}", batch.to_text());
    batch.write_csv(&dir, "batch_amortization").unwrap();
    write_json(&dir, "batch_amortization", &batch_json).unwrap();

    println!("all experiments complete; CSVs in {}", dir.display());
}
