//! The experiment implementations, one function per table / figure of the
//! paper's evaluation section. Each returns [`ResultTable`]s that the
//! corresponding binary prints and writes to `results/*.csv`.
//!
//! Every function takes the run's [`RunConfig`]; its thread count, snapshot
//! directory, answering mode, batch size, fault seed and budget reach every
//! build and workload through [`default_options`], [`run_build`] and
//! [`run_queries`]. The experiments run on laptop-scale datasets whose sizes
//! the config's [`ExperimentScale`] sets (`--scale smoke|small|full`,
//! default `small`). Absolute numbers therefore differ
//! from the paper's multi-hundred-GB runs, but the *shapes* — which method
//! wins where, how access patterns change with size, length and hardware —
//! are what `EXPERIMENTS.md` tracks.

use crate::cli::RunConfig;
use crate::harness::{run_build, run_queries, Platform, WorkloadMeasurement};
use crate::registry::MethodKind;
use crate::report::{fmt_pct, fmt_secs, ResultTable};
use hydra_core::{AnswerMode, BuildOptions, Dataset, Query};
use hydra_data::{
    DomainDataset, DomainGenerator, QueryWorkload, RandomWalkGenerator, WorkloadSpec,
};
use hydra_transforms::eapca::{uniform_segmentation, Eapca};
use hydra_transforms::fft::{dft_lower_bound, dft_summary};
use hydra_transforms::sax::SaxParams;
use hydra_transforms::sfa::{SfaParams, SfaQuantizer};
use hydra_transforms::vaplus::VaPlusQuantizer;
use hydra_transforms::Paa;
use std::time::Duration;

/// Controls how large the experiment datasets are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentScale {
    /// The number of series in the "100GB-equivalent" reference dataset.
    pub base_series: usize,
    /// The number of queries per workload (the paper uses 100).
    pub queries: usize,
}

impl ExperimentScale {
    /// Tiny datasets for CI smoke runs.
    pub fn smoke() -> Self {
        Self {
            base_series: 1_000,
            queries: 10,
        }
    }

    /// The default laptop-scale setting.
    pub fn small() -> Self {
        Self {
            base_series: 10_000,
            queries: 50,
        }
    }

    /// A larger setting for longer runs.
    pub fn full() -> Self {
        Self {
            base_series: 50_000,
            queries: 100,
        }
    }

    /// The ladder of dataset sizes standing in for the paper's 25GB → 1TB
    /// sweep: 1/4×, 1/2×, 1×, 2.5× of the reference size.
    pub fn size_ladder(&self) -> Vec<usize> {
        vec![
            self.base_series / 4,
            self.base_series / 2,
            self.base_series,
            self.base_series * 5 / 2,
        ]
    }

    /// The series-length ladder standing in for the paper's 128 → 16384 sweep.
    pub fn length_ladder(&self) -> Vec<usize> {
        vec![64, 128, 256, 512]
    }
}

/// Default build options shared by the experiments.
///
/// The paper fixes 16 segments/coefficients for all fixed summarizations on
/// its 100M-series datasets. At laptop scale (10³–10⁵ series) a 16-segment
/// iSAX root has 2¹⁶ potential children — far more than there are series — so
/// every SAX-family leaf would hold a handful of series and query cost would
/// be dominated by per-leaf seeks, an artifact of the scale-down rather than
/// of the methods. The harness therefore scales the word length to 8 segments
/// (root fanout 256), keeping the ratio of fanout to collection size in the
/// same regime as the paper's setup; `fig8_tlb` keeps the paper's 16
/// coefficients since TLB is independent of tree geometry.
pub fn default_options(cfg: &RunConfig) -> BuildOptions {
    BuildOptions::default()
        .with_segments(8)
        .with_leaf_capacity(100)
        .with_train_samples(1_000)
        // Index builds use the same worker count as the query workloads
        // (`--threads`); the built indexes are identical for every thread
        // count, so measurements stay comparable.
        .with_build_threads(cfg.threads.worker_threads())
}

fn synth_dataset(count: usize, length: usize) -> Dataset {
    RandomWalkGenerator::new(0xDA7A, length).dataset(count)
}

fn rand_workload(dataset: &Dataset, queries: usize) -> QueryWorkload {
    QueryWorkload::generate(
        "Synth-Rand",
        dataset,
        &WorkloadSpec::random(0x5EED).with_num_queries(queries),
    )
}

fn ctrl_workload(name: &str, dataset: &Dataset, queries: usize) -> QueryWorkload {
    QueryWorkload::generate(
        name,
        dataset,
        &WorkloadSpec::controlled(0xC7A1).with_num_queries(queries),
    )
}

/// Table 1: the method property matrix, extended with the answering-mode
/// capability columns of the sequel study.
pub fn methods_table(cfg: &RunConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "Table 1 — similarity search methods and answering-mode capabilities",
        &[
            "method",
            "representation",
            "kind",
            "exact",
            "ng-approximate",
            "eps-approximate",
            "delta-eps-approximate",
        ],
    );
    let yes_no = |b: bool| if b { "yes" } else { "no" }.to_string();
    let data = synth_dataset(200, 64);
    for kind in MethodKind::ALL {
        let (engine, _) = run_build(kind, &data, &default_options(cfg), cfg).expect("build");
        let d = engine.descriptor();
        table.push_row(vec![
            d.name.to_string(),
            d.representation.to_string(),
            if d.is_index {
                "index"
            } else {
                "sequential/multi-step"
            }
            .to_string(),
            yes_no(d.modes.exact),
            yes_no(d.modes.ng_approximate),
            yes_no(d.modes.epsilon_approximate),
            yes_no(d.modes.delta_epsilon),
        ]);
    }
    table
}

/// Figure 2: leaf-size parametrization. For each tunable index, sweep the
/// leaf capacity and report (normalized) build and query times.
pub fn fig2_leaf_size(cfg: &RunConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 2 — leaf size parametrization (HDD model, times normalized per method)",
        &[
            "method",
            "leaf_capacity",
            "idx_time_s",
            "query_time_s",
            "normalized_total",
        ],
    );
    let dataset = synth_dataset(cfg.scale.base_series, 256);
    let workload = rand_workload(&dataset, cfg.scale.queries.min(20));
    let methods = [
        (MethodKind::AdsPlus, vec![50usize, 100, 500, 1000]),
        (MethodKind::DsTree, vec![50, 100, 500, 1000]),
        (MethodKind::Isax2Plus, vec![50, 100, 500, 1000]),
        (MethodKind::MTree, vec![2, 10, 25, 50]),
        (MethodKind::RStarTree, vec![8, 16, 32, 64]),
        (MethodKind::SfaTrie, vec![100, 500, 1000, 2000]),
    ];
    for (kind, capacities) in methods {
        let mut rows = Vec::new();
        let mut max_total = 0.0f64;
        for capacity in capacities {
            let options = default_options(cfg).with_leaf_capacity(capacity);
            let (mut engine, build) = run_build(kind, &dataset, &options, cfg).expect("build");
            let run = run_queries(&mut engine, &workload, cfg).expect("queries");
            let idx = build.total_time(Platform::Hdd).as_secs_f64();
            let query = run.total_time(Platform::Hdd).as_secs_f64();
            max_total = max_total.max(idx + query);
            rows.push((capacity, idx, query));
        }
        for (capacity, idx, query) in rows {
            table.push_row(vec![
                kind.name().to_string(),
                capacity.to_string(),
                format!("{idx:.4}"),
                format!("{query:.4}"),
                format!("{:.3}", (idx + query) / max_total.max(1e-12)),
            ]);
        }
    }
    table
}

/// Figure 3: per-method scalability with dataset size, with the CPU vs I/O
/// breakdown of build + 100-query workloads (HDD model).
pub fn fig3_scalability(cfg: &RunConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 3 — scalability with increasing dataset sizes (HDD model)",
        &[
            "method",
            "dataset_series",
            "idx_cpu_s",
            "idx_io_s",
            "query_cpu_s",
            "query_io_s",
            "total_s",
        ],
    );
    let model = Platform::Hdd;
    for kind in MethodKind::ALL {
        for &size in &cfg.scale.size_ladder() {
            // The paper stops M-tree / R*-tree / Stepwise / MASS runs beyond a
            // day; here everything completes, but keep the slow methods on the
            // smaller sizes so the full sweep stays fast.
            let slow = matches!(
                kind,
                MethodKind::MTree | MethodKind::RStarTree | MethodKind::Mass | MethodKind::Stepwise
            );
            if slow && size > cfg.scale.base_series {
                continue;
            }
            let dataset = synth_dataset(size, 256);
            let workload = rand_workload(&dataset, cfg.scale.queries.min(20));
            let (mut engine, build) =
                run_build(kind, &dataset, &default_options(cfg), cfg).expect("build");
            let run = run_queries(&mut engine, &workload, cfg).expect("queries");
            let idx_io = model.cost_model().total_time(&build.io);
            let total = build.cpu_time + idx_io + run.total_time(model);
            table.push_row(vec![
                kind.name().to_string(),
                size.to_string(),
                fmt_secs(build.cpu_time),
                fmt_secs(idx_io),
                fmt_secs(run.cpu_time()),
                fmt_secs(run.io_time(model)),
                fmt_secs(total),
            ]);
        }
    }
    table
}

/// Figure 4: number of sequential and random disk accesses per query for the
/// best six methods, across dataset sizes and series lengths.
pub fn fig4_disk_accesses(cfg: &RunConfig) -> (ResultTable, ResultTable) {
    let headers = &[
        "method",
        "x_value",
        "seq_pages_min",
        "seq_pages_median",
        "seq_pages_max",
        "rand_pages_min",
        "rand_pages_median",
        "rand_pages_max",
    ];
    let mut by_size = ResultTable::new(
        "Figure 4a/4c — disk accesses vs dataset size (series length 256)",
        headers,
    );
    let mut by_length = ResultTable::new(
        "Figure 4b/4d — disk accesses vs series length (reference dataset size)",
        headers,
    );
    let quantiles = |mut values: Vec<u64>| {
        values.sort_unstable();
        let min = *values.first().unwrap_or(&0);
        let max = *values.last().unwrap_or(&0);
        let median = values.get(values.len() / 2).copied().unwrap_or(0);
        (min, median, max)
    };
    let record =
        |table: &mut ResultTable, kind: MethodKind, x: String, run: &WorkloadMeasurement| {
            let seq: Vec<u64> = run
                .queries
                .iter()
                .map(|q| q.io().sequential_pages)
                .collect();
            let rand: Vec<u64> = run.queries.iter().map(|q| q.io().random_pages).collect();
            let (smin, smed, smax) = quantiles(seq);
            let (rmin, rmed, rmax) = quantiles(rand);
            table.push_row(vec![
                kind.name().to_string(),
                x,
                smin.to_string(),
                smed.to_string(),
                smax.to_string(),
                rmin.to_string(),
                rmed.to_string(),
                rmax.to_string(),
            ]);
        };
    for kind in MethodKind::BEST_SIX {
        for &size in &cfg.scale.size_ladder() {
            let dataset = synth_dataset(size, 256);
            let workload = rand_workload(&dataset, cfg.scale.queries.min(20));
            let (mut engine, _) =
                run_build(kind, &dataset, &default_options(cfg), cfg).expect("build");
            let run = run_queries(&mut engine, &workload, cfg).expect("queries");
            record(&mut by_size, kind, size.to_string(), &run);
        }
        for &length in &cfg.scale.length_ladder() {
            // Like the paper, the dataset *size in bytes* stays fixed while
            // the length varies, so longer series mean fewer of them.
            let count = (cfg.scale.base_series / 2 * 256 / length).max(200);
            let dataset = synth_dataset(count, length);
            let workload = rand_workload(&dataset, cfg.scale.queries.min(20));
            let (mut engine, _) =
                run_build(kind, &dataset, &default_options(cfg), cfg).expect("build");
            let run = run_queries(&mut engine, &workload, cfg).expect("queries");
            record(&mut by_length, kind, length.to_string(), &run);
        }
    }
    (by_size, by_length)
}

/// Figure 5: scalability with increasing series lengths (fixed dataset size,
/// 16 segments for all summarizations), Idx+Exact100 and Idx+Exact10K.
pub fn fig5_lengths(cfg: &RunConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 5 — scalability with increasing series lengths (HDD model)",
        &[
            "method",
            "series_length",
            "idx_plus_100_s",
            "idx_plus_10k_s",
        ],
    );
    let model = Platform::Hdd;
    for kind in MethodKind::BEST_SIX {
        for &length in &cfg.scale.length_ladder() {
            // Fixed dataset size in bytes (the paper's 100GB), so longer
            // series mean proportionally fewer of them.
            let count = (cfg.scale.base_series / 2 * 256 / length).max(200);
            let dataset = synth_dataset(count, length);
            let workload = rand_workload(&dataset, cfg.scale.queries.min(20));
            let (mut engine, build) =
                run_build(kind, &dataset, &default_options(cfg), cfg).expect("build");
            let run = run_queries(&mut engine, &workload, cfg).expect("queries");
            let idx = build.total_time(model);
            let q100 = run.extrapolated_time(model, 100);
            let q10k = run.extrapolated_time(model, 10_000);
            table.push_row(vec![
                kind.name().to_string(),
                length.to_string(),
                fmt_secs(idx + q100),
                fmt_secs(idx + q10k),
            ]);
        }
    }
    table
}

/// Figures 6 and 7: the scalability comparison of the best six methods for
/// the four scenarios (Idx, Exact100, Idx+Exact100, Idx+Exact10K) on a given
/// platform model.
pub fn fig6_fig7_platform_comparison(cfg: &RunConfig, platform: Platform) -> ResultTable {
    let mut table = ResultTable::new(
        format!(
            "Figures 6/7 — scalability comparison ({} model)",
            platform.name()
        ),
        &[
            "method",
            "dataset_series",
            "idx_s",
            "exact100_s",
            "idx_plus_100_s",
            "idx_plus_10k_s",
        ],
    );
    for kind in MethodKind::BEST_SIX {
        for &size in &cfg.scale.size_ladder() {
            let dataset = synth_dataset(size, 256);
            let workload = rand_workload(&dataset, cfg.scale.queries.min(20));
            let (mut engine, build) =
                run_build(kind, &dataset, &default_options(cfg), cfg).expect("build");
            let run = run_queries(&mut engine, &workload, cfg).expect("queries");
            let idx = build.total_time(platform);
            let exact100 = run.extrapolated_time(platform, 100);
            let exact10k = run.extrapolated_time(platform, 10_000);
            table.push_row(vec![
                kind.name().to_string(),
                size.to_string(),
                fmt_secs(idx),
                fmt_secs(exact100),
                fmt_secs(idx + exact100),
                fmt_secs(idx + exact10k),
            ]);
        }
    }
    table
}

/// Figure 8a–8e: index footprint (node counts, sizes, fill factors) across
/// dataset sizes.
pub fn fig8_footprint(cfg: &RunConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 8a-8e — index footprint vs dataset size",
        &[
            "method",
            "dataset_series",
            "total_nodes",
            "leaf_nodes",
            "memory_MB",
            "disk_MB",
            "median_fill",
            "max_depth",
        ],
    );
    let indexes = [
        MethodKind::AdsPlus,
        MethodKind::DsTree,
        MethodKind::Isax2Plus,
        MethodKind::SfaTrie,
        MethodKind::VaPlusFile,
    ];
    for kind in indexes {
        for &size in &cfg.scale.size_ladder() {
            let dataset = synth_dataset(size, 256);
            let (_, build) = run_build(kind, &dataset, &default_options(cfg), cfg).expect("build");
            let fp = build.footprint.expect("index footprint");
            table.push_row(vec![
                kind.name().to_string(),
                size.to_string(),
                fp.total_nodes.to_string(),
                fp.leaf_nodes.to_string(),
                format!("{:.2}", fp.memory_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.2}", fp.disk_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.3}", fp.median_fill_factor()),
                fp.max_leaf_depth().to_string(),
            ]);
        }
    }
    table
}

/// Figure 8f: tightness of the lower bound per summarization, across series
/// lengths (16 segments / coefficients, as in the paper).
///
/// The TLB here is measured per (query, candidate) pair — the ratio of the
/// summarization's lower bound to the true distance, averaged over a sample —
/// which preserves the ordering the paper reports (VA+/ADS+ tightest, SFA with
/// alphabet 8 loosest, DSTree/iSAX in between).
pub fn fig8_tlb(cfg: &RunConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 8f — tightness of the lower bound vs series length",
        &["method", "series_length", "tlb"],
    );
    let pairs = cfg.scale.queries.max(20);
    for &length in &cfg.scale.length_ladder() {
        let dataset = synth_dataset(2_000.min(cfg.scale.base_series), length);
        let workload = rand_workload(&dataset, pairs);
        let segments = 16.min(length);
        // Train the learned quantizers on a dataset sample.
        let sample: Vec<&[f32]> = (0..500.min(dataset.len()))
            .map(|i| dataset.series(i).values())
            .collect();
        let sfa = SfaQuantizer::train(
            SfaParams::new(length, segments).with_alphabet_size(8),
            sample.iter().copied(),
        );
        let va = VaPlusQuantizer::train(length, segments, segments * 8, sample.iter().copied());
        let sax = SaxParams::new(length, segments, 8);
        let paa = Paa::new(length, segments);
        let segmentation = uniform_segmentation(length, segments);

        let mut sums = [0.0f64; 6];
        let mut count = 0u64;
        for (qi, q) in workload.queries().iter().enumerate() {
            let cand = dataset.series((qi * 37) % dataset.len());
            let true_dist = hydra_core::distance::euclidean(q.values(), cand.values());
            if true_dist <= 0.0 {
                continue;
            }
            count += 1;
            let q_paa = paa.transform(q.values());
            let c_word = sax.sax_word(cand.values());
            // ADS+ / iSAX2+ use iSAX at full resolution.
            sums[0] += sax.mindist_paa_to_isax(&q_paa, &c_word.to_isax(8, 8)) / true_dist;
            // DSTree: EAPCA bound on the uniform segmentation.
            let qe = Eapca::compute(q.values(), &segmentation);
            let ce = Eapca::compute(cand.values(), &segmentation);
            sums[1] += qe.lower_bound(&ce, &segmentation) / true_dist;
            // SFA (alphabet 8).
            sums[2] += sfa.mindist(&sfa.dft(q.values()), &sfa.word(cand.values())) / true_dist;
            // VA+file.
            sums[3] += va.lower_bound(&va.dft(q.values()), &va.cell(cand.values())) / true_dist;
            // R*-tree: plain PAA bound.
            sums[4] += paa.lower_bound(&q_paa, &paa.transform(cand.values())) / true_dist;
            // DFT summary at 16 coefficients (MASS-style reference).
            sums[5] += dft_lower_bound(
                &dft_summary(q.values(), segments),
                &dft_summary(cand.values(), segments),
            ) / true_dist;
        }
        let names = [
            "ADS+/iSAX2+",
            "DSTree",
            "SFA",
            "VA+file",
            "R*-tree (PAA)",
            "DFT-16",
        ];
        for (i, name) in names.iter().enumerate() {
            table.push_row(vec![
                name.to_string(),
                length.to_string(),
                format!("{:.4}", (sums[i] / count as f64).min(1.0)),
            ]);
        }
    }
    table
}

/// Figure 9: pruning ratio of the five indexes across workloads (Synth-Rand,
/// Synth-Ctrl and the four domain-flavoured controlled workloads).
pub fn fig9_pruning(cfg: &RunConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 9 — pruning ratio per method and workload",
        &["method", "workload", "mean_pruning", "p25", "median", "p75"],
    );
    let indexes = [
        MethodKind::AdsPlus,
        MethodKind::Isax2Plus,
        MethodKind::DsTree,
        MethodKind::SfaTrie,
        MethodKind::VaPlusFile,
    ];
    let size = (cfg.scale.base_series / 2).max(1_000);
    // (name, dataset) pairs: synthetic plus the four domain stand-ins.
    let mut workloads: Vec<(String, Dataset, QueryWorkload)> = Vec::new();
    let synth = synth_dataset(size, 256);
    workloads.push((
        "Synth-Rand".to_string(),
        synth.clone(),
        rand_workload(&synth, cfg.scale.queries.min(30)),
    ));
    workloads.push((
        "Synth-Ctrl".to_string(),
        synth.clone(),
        ctrl_workload("Synth-Ctrl", &synth, cfg.scale.queries.min(30)),
    ));
    for domain in DomainDataset::ALL {
        let data = DomainGenerator::new(domain, 0xD0).dataset(size);
        let name = format!("{}-Ctrl", domain.name());
        let wl = ctrl_workload(&name, &data, cfg.scale.queries.min(30));
        workloads.push((name, data, wl));
    }
    for kind in indexes {
        for (name, dataset, workload) in &workloads {
            let (mut engine, _) =
                run_build(kind, dataset, &default_options(cfg), cfg).expect("build");
            let run = run_queries(&mut engine, workload, cfg).expect("queries");
            let mut ratios = run.pruning_ratios();
            ratios.sort_by(f64::total_cmp);
            let q = |p: f64| ratios[((ratios.len() - 1) as f64 * p).round() as usize];
            table.push_row(vec![
                kind.name().to_string(),
                name.clone(),
                fmt_pct(run.mean_pruning_ratio()),
                fmt_pct(q(0.25)),
                fmt_pct(q(0.5)),
                fmt_pct(q(0.75)),
            ]);
        }
    }
    table
}

/// One Table-2 scenario outcome: the winning method for each scenario column.
#[derive(Clone, Debug)]
pub struct ScenarioWinners {
    /// The dataset label ("Small", "Large", "Astro", ...).
    pub dataset: String,
    /// The platform the times were modelled for.
    pub platform: Platform,
    /// (scenario name, winning method name) pairs.
    pub winners: Vec<(&'static str, &'static str)>,
}

/// Table 2: the best method per {platform × dataset × scenario}.
pub fn table2_winners(cfg: &RunConfig) -> (ResultTable, Vec<ScenarioWinners>) {
    let mut table = ResultTable::new(
        "Table 2 — best method per scenario",
        &[
            "platform",
            "dataset",
            "Idx",
            "Exact100",
            "Idx+Exact100",
            "Idx+Exact10K",
            "Easy-20",
            "Hard-20",
        ],
    );
    // Datasets: a small (in-memory-like) and a large synthetic one, plus the
    // four domain stand-ins, all with controlled workloads as in the paper.
    let mut datasets: Vec<(String, Dataset)> = vec![
        (
            "Small".to_string(),
            synth_dataset(cfg.scale.base_series / 4, 256),
        ),
        (
            "Large".to_string(),
            synth_dataset(cfg.scale.base_series, 256),
        ),
    ];
    for domain in DomainDataset::ALL {
        datasets.push((
            domain.name().to_string(),
            DomainGenerator::new(domain, 0xD1).dataset(cfg.scale.base_series / 2),
        ));
    }
    let mut all_winners = Vec::new();
    for platform in [Platform::Hdd, Platform::Ssd] {
        for (name, dataset) in &datasets {
            let workload =
                ctrl_workload(&format!("{name}-Ctrl"), dataset, cfg.scale.queries.min(30));
            // Run every candidate method once.
            let mut runs: Vec<(MethodKind, Duration, WorkloadMeasurement)> = Vec::new();
            for kind in MethodKind::BEST_SIX {
                let (mut engine, build) =
                    run_build(kind, dataset, &default_options(cfg), cfg).expect("build");
                let run = run_queries(&mut engine, &workload, cfg).expect("queries");
                runs.push((kind, build.total_time(platform), run));
            }
            // Easy/hard query split by average pruning ratio across methods.
            let num_queries = workload.len();
            let mut scores = vec![0.0f64; num_queries];
            for (_, _, run) in &runs {
                for (i, r) in run.pruning_ratios().iter().enumerate() {
                    scores[i] += r / runs.len() as f64;
                }
            }
            let n_split = (num_queries / 5).max(1);
            let (easy, hard) = QueryWorkload::split_easy_hard(&scores, n_split);

            let winner_by = |key: &dyn Fn(&(MethodKind, Duration, WorkloadMeasurement)) -> f64| {
                runs.iter()
                    .min_by(|a, b| key(a).total_cmp(&key(b)))
                    .map(|(k, _, _)| k.name())
                    .unwrap_or("-")
            };
            let winners: Vec<(&'static str, &'static str)> = vec![
                ("Idx", winner_by(&|r| r.1.as_secs_f64())),
                (
                    "Exact100",
                    winner_by(&|r| r.2.extrapolated_time(platform, 100).as_secs_f64()),
                ),
                (
                    "Idx+Exact100",
                    winner_by(&|r| (r.1 + r.2.extrapolated_time(platform, 100)).as_secs_f64()),
                ),
                (
                    "Idx+Exact10K",
                    winner_by(&|r| (r.1 + r.2.extrapolated_time(platform, 10_000)).as_secs_f64()),
                ),
                (
                    "Easy-20",
                    winner_by(&|r| r.2.mean_time_of(&easy, platform).as_secs_f64()),
                ),
                (
                    "Hard-20",
                    winner_by(&|r| r.2.mean_time_of(&hard, platform).as_secs_f64()),
                ),
            ];
            table.push_row(vec![
                platform.name().to_string(),
                name.clone(),
                winners[0].1.to_string(),
                winners[1].1.to_string(),
                winners[2].1.to_string(),
                winners[3].1.to_string(),
                winners[4].1.to_string(),
                winners[5].1.to_string(),
            ]);
            all_winners.push(ScenarioWinners {
                dataset: name.clone(),
                platform,
                winners,
            });
        }
    }
    (table, all_winners)
}

/// Figure 10: the recommendation matrix (short/long series × in-memory/disk-
/// resident collections) for the Idx+Exact10K scenario on the HDD model.
pub fn fig10_recommendations(cfg: &RunConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 10 — recommended method (Idx + 10K queries, HDD model)",
        &["series_length", "collection", "recommended", "runner_up"],
    );
    let platform = Platform::Hdd;
    let cells = [
        (
            "short (256)",
            "in-memory (small)",
            256usize,
            cfg.scale.base_series / 4,
        ),
        (
            "short (256)",
            "disk-resident (large)",
            256,
            cfg.scale.base_series,
        ),
        (
            "long (2048)",
            "in-memory (small)",
            2048,
            cfg.scale.base_series / 16,
        ),
        (
            "long (2048)",
            "disk-resident (large)",
            2048,
            cfg.scale.base_series / 4,
        ),
    ];
    for (length_label, collection_label, length, size) in cells {
        let dataset = synth_dataset(size.max(500), length);
        let workload = rand_workload(&dataset, cfg.scale.queries.min(20));
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for kind in MethodKind::BEST_SIX {
            let (mut engine, build) =
                run_build(kind, &dataset, &default_options(cfg), cfg).expect("build");
            let run = run_queries(&mut engine, &workload, cfg).expect("queries");
            let total = build.total_time(platform) + run.extrapolated_time(platform, 10_000);
            totals.push((kind.name(), total.as_secs_f64()));
        }
        totals.sort_by(|a, b| a.1.total_cmp(&b.1));
        table.push_row(vec![
            length_label.to_string(),
            collection_label.to_string(),
            totals[0].0.to_string(),
            totals[1].0.to_string(),
        ]);
    }
    table
}

/// The mode ladder the approximate-answering trade-off sweeps: ng-approximate,
/// an ε ladder, and one δ-ε point (the sequel's headline figure shape).
pub fn approx_mode_ladder() -> Vec<AnswerMode> {
    vec![
        AnswerMode::NgApproximate,
        AnswerMode::EpsilonApproximate { epsilon: 0.05 },
        AnswerMode::EpsilonApproximate { epsilon: 0.1 },
        AnswerMode::EpsilonApproximate { epsilon: 0.25 },
        AnswerMode::EpsilonApproximate { epsilon: 0.5 },
        AnswerMode::EpsilonApproximate { epsilon: 1.0 },
        AnswerMode::DeltaEpsilon {
            delta: 0.9,
            epsilon: 0.5,
        },
    ]
}

/// The approximate-answering trade-off (the sequel study's headline figure):
/// for every mode-capable method, sweep ε (plus the ng and δ-ε points) and
/// report the mean error ratio and the speedup against the same method's
/// exact run — wall-clock and, deterministically, the ratio of raw series
/// examined. Exact results are validated unchanged on the way: the ε = 0 run
/// must answer bit-identically to the exact run, or this function panics.
///
/// Returns the result table plus a JSON rendering (written by the
/// `exp_approx_tradeoff` binary and uploaded as a CI artifact).
pub fn approx_tradeoff(cfg: &RunConfig) -> (ResultTable, String) {
    use std::fmt::Write as _;

    let dataset = synth_dataset(cfg.scale.base_series, 128);
    let workload = rand_workload(&dataset, cfg.scale.queries.min(20));
    let queries: Vec<Query> = workload
        .queries()
        .iter()
        .map(|s| Query::nearest_neighbor(s.clone()))
        .collect();

    let mut table = ResultTable::new(
        "Approximate answering trade-off — error ratio and speedup vs exact",
        &[
            "method",
            "mode",
            "mean_error_ratio",
            "speedup_wall",
            "examined_ratio",
            "mean_pruning",
        ],
    );
    let mut json_rows = String::new();
    for kind in MethodKind::ALL {
        if !kind.modes().any_approximate() {
            continue;
        }
        let mut engine = kind.engine(&dataset, &default_options(cfg)).expect("build");

        let exact = engine
            .answer_workload(&queries, cfg.threads)
            .expect("exact workload");
        let exact_wall: f64 = exact.iter().map(|a| a.wall_time.as_secs_f64()).sum();
        let exact_examined: u64 = exact.iter().map(|a| a.stats.raw_series_examined).sum();

        // Exact results validated unchanged: ε = 0 must be bit-identical.
        let zero_queries: Vec<Query> = queries
            .iter()
            .map(|q| {
                q.clone()
                    .with_mode(AnswerMode::EpsilonApproximate { epsilon: 0.0 })
            })
            .collect();
        let zero = engine
            .answer_workload(&zero_queries, cfg.threads)
            .expect("eps:0 workload");
        for (qi, (e, z)) in exact.iter().zip(&zero).enumerate() {
            assert_eq!(
                e.answers.answers(),
                z.answers.answers(),
                "{}: eps:0 diverged from exact on query {qi}",
                kind.name()
            );
            assert_eq!(
                e.stats.raw_series_examined,
                z.stats.raw_series_examined,
                "{}: eps:0 work diverged from exact on query {qi}",
                kind.name()
            );
        }

        for mode in approx_mode_ladder() {
            let mode_queries: Vec<Query> =
                queries.iter().map(|q| q.clone().with_mode(mode)).collect();
            let run = engine
                .answer_workload(&mode_queries, cfg.threads)
                .unwrap_or_else(|e| panic!("{} {mode} workload: {e}", kind.name()));
            let wall: f64 = run.iter().map(|a| a.wall_time.as_secs_f64()).sum();
            let examined: u64 = run.iter().map(|a| a.stats.raw_series_examined).sum();
            let mean_error_ratio = run
                .iter()
                .zip(&exact)
                .filter_map(|(a, e)| a.answers.error_ratio_vs(&e.answers))
                .sum::<f64>()
                / run.len().max(1) as f64;
            let speedup_wall = exact_wall / wall.max(1e-12);
            let examined_ratio = examined as f64 / exact_examined.max(1) as f64;
            let mean_pruning = run
                .iter()
                .map(|a| a.stats.pruning_ratio(dataset.len()))
                .sum::<f64>()
                / run.len().max(1) as f64;
            table.push_row(vec![
                kind.name().to_string(),
                mode.to_string(),
                format!("{mean_error_ratio:.4}"),
                format!("{speedup_wall:.2}"),
                format!("{examined_ratio:.4}"),
                fmt_pct(mean_pruning),
            ]);
            if !json_rows.is_empty() {
                json_rows.push_str(",\n");
            }
            let _ = write!(
                json_rows,
                r#"    {{"method": "{}", "mode": "{mode}", "mean_error_ratio": {mean_error_ratio:.6}, "speedup_wall": {speedup_wall:.4}, "examined_ratio": {examined_ratio:.6}, "mean_pruning": {mean_pruning:.6}}}"#,
                kind.name()
            );
        }
    }
    let json = format!(
        r#"{{
  "bench": "approx_tradeoff",
  "generated_by": "cargo run --release --bin exp_approx_tradeoff",
  "dataset": {{"kind": "random-walk", "series": {}, "length": 128}},
  "queries": {},
  "exact_validated": true,
  "rows": [
{json_rows}
  ]
}}
"#,
        cfg.scale.base_series,
        cfg.scale.queries.min(20),
    );
    (table, json)
}

/// The batch-size ladder of the batched-execution baseline (`0` is the
/// per-query loop the speedups are measured against).
pub const BATCH_LADDER: [usize; 4] = [1, 8, 64, 256];

/// The methods with native batch kernels, in ladder order: UCR-Suite (one
/// amortized data pass per batch).
pub fn batch_capable_methods() -> Vec<MethodKind> {
    MethodKind::ALL
        .into_iter()
        .filter(|k| k.supports_batch())
        .collect()
}

/// The batched-execution baseline: for every method with a native batch
/// kernel, run the same workload through the per-query loop and through
/// `QueryEngine::answer_batch` at each ladder batch size, reporting
/// throughput and the **physical** store traffic per query (the amortization
/// the batch kernels exist for: a scan's sequential pages per query shrink
/// ~1/B with batch size B, while per-query logical counters stay identical).
///
/// Answers are validated bit-identical to the per-query loop at every batch
/// size on the way — this function panics on any divergence.
///
/// Returns the result table plus a JSON rendering (`run_all_experiments`
/// writes both under `results/`).
pub fn batch_amortization(cfg: &RunConfig) -> (ResultTable, String) {
    use std::fmt::Write as _;

    // Enough queries that the larger ladder steps actually form full
    // batches at the default scales, without blowing up smoke runs.
    let num_queries = (cfg.scale.queries * 8).clamp(32, 256);
    let dataset = synth_dataset(cfg.scale.base_series, 128);
    let workload = rand_workload(&dataset, num_queries);
    let queries: Vec<Query> = workload
        .queries()
        .iter()
        .map(|s| Query::nearest_neighbor(s.clone()))
        .collect();

    let mut table = ResultTable::new(
        "Batched query execution — throughput and physical pages per query",
        &[
            "method",
            "batch",
            "wall_s",
            "queries_per_s",
            "speedup_vs_per_query",
            "seq_pages_per_query",
            "rand_pages_per_query",
        ],
    );
    let mut json_rows = String::new();
    for kind in batch_capable_methods() {
        let mut engine = kind.engine(&dataset, &default_options(cfg)).expect("build");

        // The per-query baseline wall time. Its physical traffic is emitted
        // from the batch=1 measurement below: batch 1 performs store reads
        // identical to the per-query loop (the determinism contract), and
        // using the store-observed counters keeps every row of a method on
        // the same physical scale (the logical per-query counters also
        // charge modelled filter-file passes that never touch the store).
        let clock = hydra_core::RunClock::start();
        let reference = engine
            .answer_workload(&queries, cfg.threads)
            .expect("per-query workload");
        let base_wall = clock.elapsed().as_secs_f64();
        let mut emit = |batch: usize, wall: f64, io: hydra_core::IoSnapshot| {
            let qps = num_queries as f64 / wall.max(1e-12);
            let speedup = base_wall / wall.max(1e-12);
            let seq_per_query = io.sequential_pages as f64 / num_queries as f64;
            let rand_per_query = io.random_pages as f64 / num_queries as f64;
            table.push_row(vec![
                kind.name().to_string(),
                if batch == 0 {
                    "per-query".to_string()
                } else {
                    batch.to_string()
                },
                format!("{wall:.4}"),
                format!("{qps:.1}"),
                format!("{speedup:.2}"),
                format!("{seq_per_query:.1}"),
                format!("{rand_per_query:.2}"),
            ]);
            if !json_rows.is_empty() {
                json_rows.push_str(",\n");
            }
            let _ = write!(
                json_rows,
                r#"    {{"method": "{}", "batch": {batch}, "wall_seconds": {wall:.6}, "queries_per_second": {qps:.2}, "speedup_vs_per_query": {speedup:.4}, "seq_pages_per_query": {seq_per_query:.4}, "rand_pages_per_query": {rand_per_query:.4}}}"#,
                kind.name()
            );
        };
        let mut ladder_rows: Vec<(usize, f64, hydra_core::IoSnapshot)> = Vec::new();
        for batch in BATCH_LADDER {
            engine.reset_totals();
            let mut physical = hydra_core::IoSnapshot::default();
            let mut answered = Vec::with_capacity(num_queries);
            let clock = hydra_core::RunClock::start();
            for chunk in queries.chunks(batch) {
                answered.extend(
                    engine
                        .answer_batch(chunk, cfg.threads)
                        .unwrap_or_else(|e| panic!("{} batch={batch}: {e}", kind.name())),
                );
                let io = engine
                    .last_batch_io()
                    .expect("batch-capable methods run their native kernel");
                physical.sequential_pages += io.sequential_pages;
                physical.random_pages += io.random_pages;
                physical.bytes_read += io.bytes_read;
            }
            let wall = clock.elapsed().as_secs_f64();
            // The determinism contract, validated on the way: every batch
            // size answers bit-identically to the per-query loop.
            for (qi, (r, b)) in reference.iter().zip(&answered).enumerate() {
                assert_eq!(
                    r.answers.answers(),
                    b.answers.answers(),
                    "{} batch={batch} diverged from the per-query loop on query {qi}",
                    kind.name()
                );
                assert_eq!(
                    r.stats.raw_series_examined,
                    b.stats.raw_series_examined,
                    "{} batch={batch} work counters diverged on query {qi}",
                    kind.name()
                );
            }
            ladder_rows.push((batch, wall, physical));
        }
        emit(0, base_wall, ladder_rows[0].2);
        for (batch, wall, physical) in ladder_rows {
            emit(batch, wall, physical);
        }
    }
    let json = format!(
        r#"{{
  "bench": "batch_execution",
  "generated_by": "cargo run --release --bin run_all_experiments",
  "host_cpus": {},
  "dataset": {{"kind": "random-walk", "series": {}, "length": 128}},
  "queries": {num_queries},
  "batch_ladder": [{}],
  "answers_validated_bit_identical": true,
  "rows": [
{json_rows}
  ]
}}
"#,
        hydra_core::parallel::available_threads(),
        cfg.scale.base_series,
        BATCH_LADDER
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    (table, json)
}

/// The per-read fault-rate ladder of the robustness study. `0.0` is the
/// fault-free control lane that must reproduce today's behaviour
/// bit-identically.
pub const FAULT_RATE_LADDER: [f64; 3] = [0.0, 0.02, 0.08];

/// The methods the robustness study sweeps: the three scans plus the two
/// snapshot-capable filter methods (VA+file and ADS+), covering both pure
/// sequential access and index-guided random access under faults.
pub fn robustness_methods() -> Vec<MethodKind> {
    vec![
        MethodKind::UcrSuite,
        MethodKind::Mass,
        MethodKind::Stepwise,
        MethodKind::VaPlusFile,
        MethodKind::AdsPlus,
    ]
}

/// The robustness study: a fault-rate × retry-policy × budget ladder under a
/// seeded deterministic [`hydra_storage::FaultPlan`], reporting per-cell
/// success rate, mean attempts per answered query, truncation fraction and
/// the error ratio of degraded answers against the fault-free exact baseline
/// — plus a snapshot-recovery phase that corrupts on-disk snapshots and
/// counts quarantine-and-rebuild recoveries across repeated load cycles.
///
/// Two contracts are asserted on the way (the function panics on violation):
/// the fault-free unbudgeted cell answers bit-identically to the baseline
/// with identical work counters, and every failed query in a faulted cell
/// surfaces as a typed I/O or internal error — never a panic.
///
/// Returns the result table plus a JSON rendering (written to
/// `BENCH_robust.json` and `results/robustness.json` by the `exp_robustness`
/// binary and uploaded as a CI artifact).
pub fn robustness(cfg: &RunConfig) -> (ResultTable, String) {
    use crate::registry::SnapshotOutcome;
    use hydra_core::{Budget, Completion, Error, RetryPolicy};
    use hydra_storage::{DatasetStore, FaultConfig, FaultPlan};
    use std::fmt::Write as _;
    use std::sync::Arc;

    const FAULT_SEED: u64 = 0xC1A05;
    let config_at = |rate: f64| FaultConfig {
        read_error: rate,
        bit_flip: rate / 2.0,
        latency: rate,
        latency_pages: 4,
        snapshot_corruption: (rate * 10.0).min(1.0),
        max_transient_attempts: 2,
    };

    let dataset = synth_dataset(cfg.scale.base_series, 128);
    let num_queries = cfg.scale.queries.min(20);
    let workload = rand_workload(&dataset, num_queries);
    let base_queries: Vec<Query> = workload
        .queries()
        .iter()
        .map(|s| Query::nearest_neighbor(s.clone()))
        .collect();

    // Retries beyond the planned max_transient_attempts always recover, so
    // the second lane demonstrates full degradation-free operation.
    let retry_ladder = [RetryPolicy::none(), RetryPolicy::new(4, 2)];
    let budget_ladder: [Option<Budget>; 2] = [
        None,
        Some(Budget::raw_reads((dataset.len() as u64 / 10).max(1))),
    ];
    let budget_label =
        |b: &Option<Budget>| b.map_or_else(|| "inf".to_string(), |b| b.limit().to_string());

    let mut table = ResultTable::new(
        "Robustness — fault rate × retry policy × budget (seeded deterministic faults)",
        &[
            "phase",
            "method",
            "fault_rate",
            "retries",
            "budget",
            "success_rate",
            "mean_attempts",
            "truncated",
            "err_vs_exact",
            "recovered_snapshots",
        ],
    );
    let mut json_rows = String::new();
    let mut json_snapshots = String::new();

    for kind in robustness_methods() {
        // The fault-free exact baseline every degraded cell is scored against.
        let mut baseline = kind.engine(&dataset, &default_options(cfg)).expect("build");
        let exact: Vec<_> = base_queries
            .iter()
            .map(|q| baseline.answer(q).expect("fault-free query"))
            .collect();

        for rate in FAULT_RATE_LADDER {
            for retry in retry_ladder {
                // Without faults the retry policy never engages — skip the
                // duplicate cells.
                if rate == 0.0 && retry.max_attempts > 1 {
                    continue;
                }
                for budget in budget_ladder {
                    let plan = if rate == 0.0 {
                        FaultPlan::disabled()
                    } else {
                        FaultPlan::seeded(FAULT_SEED, config_at(rate))
                    };
                    let store = Arc::new(DatasetStore::new(dataset.clone()).with_fault_plan(plan));
                    let mut engine = kind
                        .engine_on_store(store, &default_options(cfg))
                        .expect("build")
                        .with_retry_policy(retry);

                    let (mut ok, mut attempts, mut truncated) = (0usize, 0u64, 0usize);
                    let (mut err_sum, mut err_count) = (0.0f64, 0usize);
                    for (qi, q) in base_queries.iter().enumerate() {
                        match engine.answer(&q.clone().with_budget(budget)) {
                            Ok(a) => {
                                ok += 1;
                                attempts += u64::from(a.attempts);
                                if a.completion() == Completion::Truncated {
                                    truncated += 1;
                                }
                                if let Some(r) = a.answers.error_ratio_vs(&exact[qi].answers) {
                                    err_sum += r;
                                    err_count += 1;
                                }
                                if rate == 0.0 && budget.is_none() {
                                    assert_eq!(
                                        a.answers.answers(),
                                        exact[qi].answers.answers(),
                                        "{}: fault-free run diverged on query {qi}",
                                        kind.name()
                                    );
                                    assert_eq!(
                                        a.stats.raw_series_examined,
                                        exact[qi].stats.raw_series_examined,
                                        "{}: fault-free work counters diverged on query {qi}",
                                        kind.name()
                                    );
                                }
                            }
                            Err(e) => assert!(
                                matches!(e, Error::Io { .. } | Error::Internal(_)),
                                "{}: query {qi} failed with an untyped error: {e}",
                                kind.name()
                            ),
                        }
                    }
                    let total = base_queries.len();
                    let success_rate = ok as f64 / total.max(1) as f64;
                    let mean_attempts = attempts as f64 / ok.max(1) as f64;
                    let truncated_frac = truncated as f64 / ok.max(1) as f64;
                    let err_vs_exact = err_sum / err_count.max(1) as f64;
                    table.push_row(vec![
                        "queries".to_string(),
                        kind.name().to_string(),
                        format!("{rate}"),
                        retry.max_attempts.to_string(),
                        budget_label(&budget),
                        fmt_pct(success_rate),
                        format!("{mean_attempts:.2}"),
                        fmt_pct(truncated_frac),
                        format!("{err_vs_exact:.4}"),
                        "-".to_string(),
                    ]);
                    if !json_rows.is_empty() {
                        json_rows.push_str(",\n");
                    }
                    let _ = write!(
                        json_rows,
                        r#"    {{"method": "{}", "fault_rate": {rate}, "max_attempts": {}, "budget": "{}", "success_rate": {success_rate:.6}, "mean_attempts": {mean_attempts:.4}, "truncated_fraction": {truncated_frac:.6}, "err_vs_exact": {err_vs_exact:.6}}}"#,
                        kind.name(),
                        retry.max_attempts,
                        budget_label(&budget),
                    );
                }
            }
        }

        // Snapshot-recovery phase: under planned snapshot corruption a load
        // cycle must quarantine the damaged file, rebuild and re-save — never
        // serve a corrupt index or fail outright.
        if !kind.supports_snapshots() {
            continue;
        }
        for rate in FAULT_RATE_LADDER {
            if rate == 0.0 {
                continue;
            }
            let dir = std::env::temp_dir().join(format!(
                "hydra-robust-snap-{}-{}-{}",
                std::process::id(),
                kind.name(),
                (rate * 1000.0) as u64
            ));
            #[expect(
                clippy::disallowed_methods,
                reason = "harness scratch: clears snapshot dir between cycles"
            )]
            let _ = std::fs::remove_dir_all(&dir);
            let cycles = 3usize;
            let mut recovered = 0usize;
            for cycle in 0..cycles {
                let store = Arc::new(
                    DatasetStore::new(dataset.clone())
                        .with_fault_plan(FaultPlan::seeded(FAULT_SEED, config_at(rate))),
                );
                let (_, outcome) = kind
                    .engine_with_snapshot(store, &default_options(cfg), &dir)
                    .expect("snapshot cycle");
                match outcome {
                    SnapshotOutcome::Recovered { .. } => recovered += 1,
                    SnapshotOutcome::Saved { .. } => assert_eq!(
                        cycle,
                        0,
                        "{}: a later cycle rebuilt without quarantining",
                        kind.name()
                    ),
                    SnapshotOutcome::Loaded { .. } => {}
                    SnapshotOutcome::Unsupported => {
                        unreachable!("{} supports snapshots", kind.name())
                    }
                }
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "harness scratch: removes snapshot dir afterwards"
            )]
            let _ = std::fs::remove_dir_all(&dir);
            table.push_row(vec![
                "snapshot".to_string(),
                kind.name().to_string(),
                format!("{rate}"),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                format!("{recovered}/{}", cycles - 1),
            ]);
            if !json_snapshots.is_empty() {
                json_snapshots.push_str(",\n");
            }
            let _ = write!(
                json_snapshots,
                r#"    {{"method": "{}", "fault_rate": {rate}, "load_cycles": {}, "recovered": {recovered}}}"#,
                kind.name(),
                cycles - 1,
            );
        }
    }

    let json = format!(
        r#"{{
  "bench": "robustness",
  "generated_by": "cargo run --release --bin exp_robustness",
  "fault_seed": {FAULT_SEED},
  "dataset": {{"kind": "random-walk", "series": {}, "length": 128}},
  "queries": {num_queries},
  "fault_rate_ladder": [{}],
  "fault_free_validated_bit_identical": true,
  "rows": [
{json_rows}
  ],
  "snapshot_recovery": [
{json_snapshots}
  ]
}}
"#,
        cfg.scale.base_series,
        FAULT_RATE_LADDER
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    (table, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run without flags at a test-sized scale.
    fn at(base_series: usize, queries: usize) -> RunConfig {
        RunConfig {
            scale: ExperimentScale {
                base_series,
                queries,
            },
            ..RunConfig::default()
        }
    }

    fn tiny() -> RunConfig {
        at(400, 8)
    }

    #[test]
    fn scale_parsing_and_ladders() {
        assert_eq!(ExperimentScale::smoke().base_series, 1_000);
        assert!(ExperimentScale::full().base_series > ExperimentScale::small().base_series);
        let ladder = ExperimentScale::small().size_ladder();
        assert_eq!(ladder.len(), 4);
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            ExperimentScale::small().length_ladder(),
            vec![64, 128, 256, 512]
        );
    }

    #[test]
    fn methods_table_lists_all_ten() {
        let t = methods_table(&RunConfig::default());
        assert_eq!(t.num_rows(), 10);
        let text = t.to_text();
        assert!(text.contains("UCR-Suite"));
        assert!(text.contains("iSAX2+"));
        assert!(text.contains("delta-eps-approximate"));
    }

    #[test]
    fn approx_tradeoff_covers_every_capable_method_and_mode() {
        let (t, json) = approx_tradeoff(&tiny());
        let capable = MethodKind::ALL
            .iter()
            .filter(|k| k.modes().any_approximate())
            .count();
        assert_eq!(t.num_rows(), capable * approx_mode_ladder().len());
        assert!(json.contains("\"bench\": \"approx_tradeoff\""));
        assert!(json.contains("\"mode\": \"ng\""));
        assert!(json.contains("deltaeps:0.9,0.5"));
        // Every error ratio is at least 1 (approximate answers are never
        // better than exact). Index from the end of the line: the deltaeps
        // mode cell itself contains a (quoted) comma.
        for line in t.to_csv().lines().skip(1) {
            let ratio: f64 = line.rsplit(',').nth(3).unwrap().parse().unwrap();
            assert!(ratio >= 1.0 - 1e-9, "{line}");
        }
    }

    #[test]
    fn batch_amortization_shows_the_single_amortized_pass() {
        let cfg = tiny();
        let (t, json) = batch_amortization(&cfg);
        // One per-query baseline row plus one row per ladder step, for each
        // batch-capable method.
        assert_eq!(
            t.num_rows(),
            batch_capable_methods().len() * (BATCH_LADDER.len() + 1)
        );
        assert!(json.contains("\"bench\": \"batch_execution\""));
        assert!(json.contains("\"answers_validated_bit_identical\": true"));
        // The scan's physical sequential pages per query must shrink ~1/B:
        // at batch 8 the per-query share is at most a quarter of the
        // per-query loop's (it would be exactly 1/8th with perfectly
        // divisible chunks).
        let csv = t.to_csv();
        let seq_of = |batch: &str| -> f64 {
            csv.lines()
                .skip(1)
                .map(|l| l.split(',').collect::<Vec<_>>())
                .find(|c| c[0] == "UCR-Suite" && c[1] == batch)
                .map(|c| c[5].parse::<f64>().unwrap())
                .unwrap()
        };
        let per_query = seq_of("per-query");
        assert!(per_query > 0.0);
        // Each batch of B costs min(threads, B) physical passes (one per
        // thread chunk) instead of B, so the per-query share shrinks by
        // B / min(threads, B).
        let threads = cfg.threads.worker_threads() as f64;
        let expected_8 = per_query * threads.min(8.0) / 8.0;
        assert!(
            seq_of("8") <= expected_8 + 1.0,
            "batch=8 sequential pages per query did not amortize: {} vs {expected_8}",
            seq_of("8")
        );
        assert!(seq_of("64") < seq_of("8"));
        // No regression at batch 1: identical physical traffic.
        assert!((seq_of("1") - per_query).abs() < 1.0);
    }

    #[test]
    fn fig9_pruning_produces_rows_for_every_method_and_workload() {
        let t = fig9_pruning(&tiny());
        // 5 indexes x 6 workloads
        assert_eq!(t.num_rows(), 30);
    }

    #[test]
    fn fig8_tlb_orders_va_above_sfa() {
        let t = fig8_tlb(&at(600, 20));
        let csv = t.to_csv();
        // Extract the length-256 rows and compare VA+file vs SFA TLB.
        let mut va = 0.0;
        let mut sfa = 0.0;
        for line in csv.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            if cols[1] == "256" {
                if cols[0] == "VA+file" {
                    va = cols[2].parse::<f64>().unwrap();
                }
                if cols[0] == "SFA" {
                    sfa = cols[2].parse::<f64>().unwrap();
                }
            }
        }
        assert!(va > 0.0 && sfa > 0.0);
        assert!(
            va > sfa,
            "VA+file TLB ({va}) should exceed SFA's with alphabet 8 ({sfa})"
        );
    }

    #[test]
    fn table2_produces_winners_for_all_cells() {
        let (table, winners) = table2_winners(&at(300, 6));
        // 2 platforms x 6 datasets
        assert_eq!(table.num_rows(), 12);
        assert_eq!(winners.len(), 12);
        for w in &winners {
            assert_eq!(w.winners.len(), 6);
            assert!(!w.dataset.is_empty());
        }
    }
}
