//! `compare <a.json> <b.json>`: applies the benchmark's own bounds to two
//! result files written by `run.sh` (the ROADMAP's `bench_diff`).
//!
//! * A **timing** is compared by medians. Worse than the bound: `regressed`.
//!   Otherwise, when either side's quartile spread exceeds the bound, the
//!   pair is `unresolved` — unless every run of `b` reads better than every
//!   run of `a` (`improved`).
//! * A **count** repeats exactly for a seed, so runs are paired by seed and
//!   compared for equality: `same` or `changed`. Pairing leaves no noise, so
//!   an end-to-end count is `regressed` as soon as its paired values worsen
//!   by more than [`spec::PAIRED_COUNT_BOUND`]. A seed of `a` that `b` never
//!   ran leaves the count `unresolved`.
//! * Per-layer metrics have no bound and never fail a comparison.
//! * Two files measured with different run lengths are not compared.

use crate::json::{parse, Value};
use crate::spec::{self, Better, Metric, MetricKind};
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;

/// Values of one metric on one workload: (seed, value) per run.
type Samples = Vec<(u64, f64)>;
/// (workload, traced, metric) → samples.
type Table = BTreeMap<(String, bool, String), Samples>;

/// The run length a result file was measured with, and its samples.
fn load(path: &str, text: &str) -> Result<(f64, Table), String> {
    let doc = parse(text).map_err(|e| format!("{path}: {e}"))?;
    let seconds = doc
        .get("seconds")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{path}: no `seconds` number"))?;
    let runs = doc
        .get("runs")
        .ok_or_else(|| format!("{path}: no `runs` array"))?;
    let mut table = Table::new();
    for run in runs.items() {
        let field = |key: &str| {
            run.get(key)
                .ok_or_else(|| format!("{path}: a run lacks `{key}`"))
        };
        let workload = field("workload")?
            .as_str()
            .ok_or_else(|| format!("{path}: `workload` is not a string"))?;
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        let traced = field("trace")?.as_f64() == Some(1.0);
        let result = field("result")?;
        if result.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!(
                "{path}: {workload} seed {seed} did not run correctly"
            ));
        }
        for (name, m) in result.get("metrics").map_or(&[][..], Value::entries) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                table
                    .entry((workload.to_string(), traced, name.clone()))
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    Ok((seconds, table))
}

fn values(samples: &Samples) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v).collect()
}

/// The outcome for one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound and resolved.
    Ok,
    /// Every run of `b` better than every run of `a`.
    Improved,
    /// Count metric, equal on every paired seed.
    Same,
    /// Count metric, different on some seed (within the paired bound, if
    /// it has one).
    Changed,
    /// Spread wider than the bound, or a count whose seeds do not pair up:
    /// neither unchanged nor regressed.
    Unresolved,
    /// Worse than the bound.
    Regressed,
    /// No bound applies (per-layer timing).
    Info,
}

/// How much worse `b` is than `a`, as a share of `a` (negative when better).
fn worse(metric: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Every pair of values `a` and `b` measured with the same seed, or `None`
/// when `b` has no run for one of `a`'s seeds.
fn paired(a: &Samples, b: &Samples) -> Option<Vec<(f64, f64)>> {
    let mut pairs = Vec::new();
    for &(seed, v) in a {
        let before = pairs.len();
        pairs.extend(b.iter().filter(|&&(s, _)| s == seed).map(|&(_, w)| (v, w)));
        if pairs.len() == before {
            return None;
        }
    }
    Some(pairs)
}

/// Judges one metric from its samples on both sides: the verdict, and how
/// much worse `b` reads than `a` (by medians for a timing, the median over
/// the seed pairs for a count).
pub fn judge(metric: &Metric, a: &Samples, b: &Samples) -> (Verdict, f64) {
    let (va, vb) = (values(a), values(b));
    let by_median = worse(metric, median(&va), median(&vb));
    if metric.kind == MetricKind::Count {
        let Some(pairs) = paired(a, b) else {
            return (Verdict::Unresolved, by_median);
        };
        let each: Vec<f64> = pairs.iter().map(|&(v, w)| worse(metric, v, w)).collect();
        let by_pair = median(&each);
        let same = pairs.iter().all(|&(v, w)| v.to_bits() == w.to_bits());
        let verdict = match metric.bound {
            _ if same => Verdict::Same,
            Some(bound) if by_pair > bound.min(spec::PAIRED_COUNT_BOUND) => Verdict::Regressed,
            _ => Verdict::Changed,
        };
        return (verdict, by_pair);
    }
    let Some(bound) = metric.bound else {
        return (Verdict::Info, by_median);
    };
    if by_median > bound {
        return (Verdict::Regressed, by_median);
    }
    let spread = [&va, &vb]
        .into_iter()
        .filter_map(|v| quartile_spread(v))
        .fold(0.0, f64::max);
    let better = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_better = vb.iter().all(|&x| va.iter().all(|&y| better(x, y)));
    let verdict = if all_better {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, by_median)
}

/// Compares two result files: one row per workload and metric, and whether
/// nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    compare(path_a, &read(path_a)?, path_b, &read(path_b)?)
}

fn compare(
    path_a: &str,
    text_a: &str,
    path_b: &str,
    text_b: &str,
) -> Result<(String, bool), String> {
    let ((seconds_a, a), (seconds_b, b)) = (load(path_a, text_a)?, load(path_b, text_b)?);
    if seconds_a != seconds_b {
        return Err(format!(
            "{path_a} was measured with {seconds_a} s runs, {path_b} with {seconds_b} s runs: not comparable"
        ));
    }
    let specs: BTreeMap<String, Metric> = spec::end_to_end()
        .into_iter()
        .chain(spec::per_layer())
        .map(|m| (m.name.clone(), m))
        .collect();
    let mut table = format!(
        "{:<15} {:<42} {:>14} {:>14} {:>8}  verdict\n",
        "workload", "metric", "median a", "median b", "worse"
    );
    let mut clean = true;
    for ((workload, traced, name), sa) in &a {
        let Some(sb) = b.get(&(workload.clone(), *traced, name.clone())) else {
            table.push_str(&format!(
                "{workload:<15} {name:<42} missing from {path_b}\n"
            ));
            continue;
        };
        let Some(metric) = specs.get(name) else {
            continue;
        };
        let (verdict, worse) = judge(metric, sa, sb);
        clean &= verdict != Verdict::Regressed;
        table.push_str(&format!(
            "{workload:<15} {name:<42} {:>14.6} {:>14.6} {:>+7.1}%  {}\n",
            median(&values(sa)),
            median(&values(sb)),
            100.0 * worse,
            format!("{verdict:?}").to_lowercase()
        ));
    }
    Ok((table, clean))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(better: Better, bound: f64) -> Metric {
        Metric {
            name: "m".to_string(),
            unit: "ms",
            better,
            bound: Some(bound),
            kind: MetricKind::Timing,
        }
    }

    fn samples(values: &[f64]) -> Samples {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn timings_compare_by_median_against_the_bound() {
        let lat = timing(Better::Lower, 0.10);
        let a = samples(&[10.0, 10.1, 9.9, 10.0, 10.2]);
        let (verdict, worse) = judge(&lat, &a, &samples(&[10.3, 10.4, 10.2, 10.5, 10.3]));
        assert_eq!(verdict, Verdict::Ok);
        assert!((worse - 0.03).abs() < 1e-9, "{worse}");
        assert_eq!(
            judge(&lat, &a, &samples(&[11.5, 11.4, 11.6, 11.5, 11.7])).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lat, &a, &samples(&[9.0, 9.1, 8.9, 9.2, 9.0])).0,
            Verdict::Improved
        );
        // Direction flips for a throughput.
        let ops = timing(Better::Higher, 0.10);
        assert_eq!(
            judge(&ops, &a, &samples(&[8.0, 8.1, 8.2, 7.9, 8.0])).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&ops, &a, &samples(&[12.0, 12.1, 12.2, 11.9, 12.0])).0,
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let lat = timing(Better::Lower, 0.05);
        let noisy = samples(&[10.0, 12.0, 8.0, 11.0, 9.0]);
        assert_eq!(judge(&lat, &noisy, &noisy).0, Verdict::Unresolved);
    }

    #[test]
    fn counts_compare_exactly_per_seed() {
        // A bound as wide as the modelled I/O times carry in `BENCHMARK.json`.
        let mut count = timing(Better::Lower, 0.25);
        count.kind = MetricKind::Count;
        let a = vec![(7, 100.0), (8, 140.0)];
        assert_eq!(
            judge(&count, &a, &vec![(8, 140.0), (7, 100.0)]),
            (Verdict::Same, 0.0)
        );
        assert_eq!(
            judge(&count, &a, &vec![(7, 101.0), (8, 141.4)]).0,
            Verdict::Changed
        );
        // Paired by seed there is no noise: 5 % worse is a regression, far
        // inside the 25 % the medians over different seeds are allowed.
        let (verdict, worse) = judge(&count, &a, &vec![(7, 105.0), (8, 147.0)]);
        assert_eq!(verdict, Verdict::Regressed);
        assert!((worse - 0.05).abs() < 1e-9, "{worse}");
        assert_eq!(
            judge(&count, &a, &vec![(7, 95.0), (8, 133.0)]).0,
            Verdict::Changed
        );
        count.bound = None;
        assert_eq!(
            judge(&count, &a, &vec![(7, 150.0), (8, 190.0)]).0,
            Verdict::Changed
        );
        let mut info = timing(Better::Lower, 0.0);
        info.bound = None;
        assert_eq!(judge(&info, &a, &a).0, Verdict::Info);
    }

    #[test]
    fn counts_whose_seeds_do_not_pair_up_are_unresolved() {
        let mut count = timing(Better::Lower, 0.25);
        count.kind = MetricKind::Count;
        let a = vec![(7, 100.0), (8, 140.0)];
        // Disjoint seeds: equal values prove nothing.
        assert_eq!(
            judge(&count, &a, &vec![(21, 100.0), (22, 140.0)]).0,
            Verdict::Unresolved
        );
        // One of `a`'s seeds is missing from `b`.
        assert_eq!(judge(&count, &a, &vec![(7, 100.0)]).0, Verdict::Unresolved);
        // Extra seeds in `b` do not matter.
        assert_eq!(
            judge(&count, &a, &vec![(7, 100.0), (8, 140.0), (9, 1.0)]).0,
            Verdict::Same
        );
    }

    fn result_file(seconds: u32, seed: u32, hdd: f64) -> String {
        format!(
            "{{\"host_cpus\": 2, \"seconds\": {seconds}, \"runs\": [{{\"workload\": \"exact_serial\", \
             \"seed\": {seed}, \"trace\": 0, \"result\": {{\"correct\": true, \"attempted\": 1, \
             \"failed\": 0, \"metrics\": {{\"io_hdd_ms_per_op\": {{\"value\": {hdd}, \"unit\": \"ms\"}}}}}}}}]}}"
        )
    }

    #[test]
    fn files_compare_only_at_one_run_length() {
        let a = result_file(15, 7, 100.0);
        let (table, clean) = compare("a", &a, "b", &a).expect("same run length");
        assert!(clean && table.contains("same"), "{table}");
        let (table, clean) = compare("a", &a, "b", &result_file(15, 7, 110.0)).unwrap();
        assert!(!clean && table.contains("regressed"), "{table}");
        let (table, clean) = compare("a", &a, "b", &result_file(15, 8, 100.0)).unwrap();
        assert!(clean && table.contains("unresolved"), "{table}");
        let error = compare("a", &a, "b", &result_file(10, 7, 100.0)).unwrap_err();
        assert!(error.contains("not comparable"), "{error}");
    }
}
