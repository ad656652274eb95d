//! The one run configuration shared by every experiment binary.
//!
//! Each binary calls [`RunConfig::from_args`] once at the top of `main` and
//! passes the result explicitly — to [`crate::harness::run_build`],
//! [`crate::harness::run_queries`], [`crate::experiments::default_options`]
//! and every `experiments::*` function. Nothing travels through the process
//! environment. The suite avoids external argument-parsing crates; every flag
//! accepts both `--flag v` and `--flag=v`, and an unknown flag, a missing
//! value or a malformed value is an error naming the flag (exit status 2),
//! never a silent fallback that would record results under the wrong
//! configuration:
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--threads N` | serial | worker threads for query workloads *and* index builds; `0` = one per CPU |
//! | `--index-dir DIR` | none | snapshot directory: a valid index snapshot is *loaded* instead of rebuilt, and a fresh build saves one |
//! | `--mode M` | `exact` | answering mode, `exact` / `ng` / `eps:<v>` / `deltaeps:<d>,<e>`; a method that cannot answer it is a typed `UnsupportedMode` error |
//! | `--batch N` | `0` | run workloads through `QueryEngine::answer_batch` in chunks of `N` (`0` = per-query); answers and counters are identical either way |
//! | `--fault-seed N` | `0` | seeded [`hydra_storage::FaultPlan`] on the store plus a recovering retry policy (`0` = fault-free) |
//! | `--budget B` | `inf` | per-query raw-read budget; exhausted queries return best-so-far answers tagged `Guarantee::Truncated` |
//! | `--scale S` | `small` | experiment dataset sizes, `smoke` / `small` / `full` ([`ExperimentScale`]) |
//! | `--shards N` | ladder | `bench_serve`: a single shard count (≥ 1) instead of its 1/2/4 ladder |
//! | `--deadline-ms D` | ladder | `bench_serve`: a single request deadline instead of its ladder (`0` skips the deadline lane) |
//! | `--quorum Q` | lane default | `bench_serve`: the chaos lane's [`QuorumPolicy`], `all` / `best-effort` / a shard count |
//! | `--shard-fault-seed N` | lane default | `bench_serve`: the chaos lane's per-shard fault seed (`0` = fault-free) |
//! | `--expect-loaded` | off | `snapshot_check`: fail unless every index was loaded from its snapshot |
//!
//! A binary that sweeps a setting itself (`exp_approx_tradeoff` the modes,
//! `exp_robustness` the faults and budgets) ignores the matching flag.

use crate::experiments::ExperimentScale;
use hydra_core::{AnswerMode, Budget, Parallelism};
use hydra_serve::QuorumPolicy;
use std::path::PathBuf;

/// Every run setting of an experiment binary, parsed once from its flags.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// `--threads`: query-workload and index-build parallelism.
    pub threads: Parallelism,
    /// `--index-dir`: where index snapshots are loaded from and saved to.
    pub index_dir: Option<PathBuf>,
    /// `--mode`: the answering mode of every workload query.
    pub mode: AnswerMode,
    /// `--batch`: the query-batch size (`0` = per-query execution).
    pub batch: usize,
    /// `--fault-seed`: the store's fault-injection seed (`0` = fault-free).
    pub fault_seed: u64,
    /// `--budget`: the per-query raw-read budget (`None` = unbudgeted).
    pub budget: Option<Budget>,
    /// `--shards`: a fixed serving shard count (`None` = the bench's ladder).
    pub shards: Option<usize>,
    /// `--deadline-ms`: a fixed request deadline (`None` = the bench's
    /// ladder, `Some(0)` = no deadline lane).
    pub deadline_ms: Option<u64>,
    /// `--quorum`: the chaos lane's quorum policy (`None` = its default).
    pub quorum: Option<QuorumPolicy>,
    /// `--shard-fault-seed`: the chaos lane's fault seed (`None` = its
    /// default).
    pub shard_fault_seed: Option<u64>,
    /// `--scale`: experiment dataset sizes.
    pub scale: ExperimentScale,
    /// `--expect-loaded`: `snapshot_check` requires every index to load.
    pub expect_loaded: bool,
}

impl Default for RunConfig {
    /// The configuration of a binary run without flags.
    fn default() -> Self {
        Self {
            threads: Parallelism::Serial,
            index_dir: None,
            mode: AnswerMode::Exact,
            batch: 0,
            fault_seed: 0,
            budget: None,
            shards: None,
            deadline_ms: None,
            quorum: None,
            shard_fault_seed: None,
            scale: ExperimentScale::small(),
            expect_loaded: false,
        }
    }
}

impl RunConfig {
    /// Parses the process arguments; on an error prints it and exits with
    /// status 2.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2);
        })
    }

    /// Parses a flag list (without the program name). Every flag accepts
    /// `--flag v` and `--flag=v`; an unknown flag, a missing value or a
    /// malformed value is an error naming the flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--expect-loaded" {
                cfg.expect_loaded = true;
                continue;
            }
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
                None => (arg, None),
            };
            cfg.set(&flag, &inline.or_else(|| args.next()).unwrap_or_default())?;
        }
        Ok(cfg)
    }

    /// Sets the one setting `flag` names from its raw value.
    fn set(&mut self, flag: &str, raw: &str) -> Result<(), String> {
        let bad = |expected: &str| format!("invalid {flag} value {raw:?} (expected {expected})");
        match flag {
            "--threads" => {
                self.threads =
                    match number(raw).ok_or_else(|| bad("a number; 0 = one worker per CPU"))? {
                        0 => Parallelism::Auto,
                        1 => Parallelism::Serial,
                        n => Parallelism::Threads(n),
                    }
            }
            "--index-dir" if raw.trim().is_empty() => return Err(bad("a directory path")),
            "--index-dir" => self.index_dir = Some(PathBuf::from(raw)),
            "--mode" => {
                self.mode = AnswerMode::parse(raw)
                    .map_err(|_| bad("exact | ng | eps:<v> | deltaeps:<d>,<e>"))?
            }
            "--batch" => {
                self.batch = number(raw).ok_or_else(|| bad("a number; 0 = per-query execution"))?
            }
            "--fault-seed" => {
                self.fault_seed = number(raw).ok_or_else(|| bad("a number; 0 = no faults"))?
            }
            "--budget" => {
                self.budget = Budget::parse(raw).map_err(|_| bad("`inf` or a raw-read count"))?
            }
            "--shards" => {
                let shards = number(raw).filter(|&n| n >= 1);
                self.shards = Some(shards.ok_or_else(|| bad("a shard count >= 1"))?)
            }
            "--deadline-ms" => {
                self.deadline_ms = Some(number(raw).ok_or_else(|| bad("milliseconds; 0 = none"))?)
            }
            "--quorum" => {
                self.quorum = Some(
                    QuorumPolicy::parse(raw.trim())
                        .map_err(|_| bad("`all`, `best-effort`, or a shard count >= 1"))?,
                )
            }
            "--shard-fault-seed" => {
                self.shard_fault_seed =
                    Some(number(raw).ok_or_else(|| bad("a number; 0 = no faults"))?)
            }
            "--scale" => {
                self.scale = match raw.trim() {
                    "smoke" => ExperimentScale::smoke(),
                    "small" => ExperimentScale::small(),
                    "full" => ExperimentScale::full(),
                    _ => return Err(bad("smoke | small | full")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?} (expected one of {FLAGS})")),
        }
        Ok(())
    }
}

/// `raw` as a number, or `None` when it is not one.
fn number<T: std::str::FromStr>(raw: &str) -> Option<T> {
    raw.trim().parse().ok()
}

/// Every flag [`RunConfig::parse`] accepts.
const FLAGS: &str = "--threads --index-dir --mode --batch --fault-seed --budget --scale \
                     --shards --deadline-ms --quorum --shard-fault-seed --expect-loaded";

#[cfg(test)]
mod tests {
    use super::*;
    use Parallelism::{Auto, Serial, Threads};

    /// (group, argv, the config it parses to or the text its error contains).
    type Row = (&'static str, &'static str, Result<RunConfig, &'static str>);

    fn ok(set: impl FnOnce(&mut RunConfig)) -> Result<RunConfig, &'static str> {
        let mut cfg = RunConfig::default();
        set(&mut cfg);
        Ok(cfg)
    }

    /// The whole flag matrix: every flag in its `--f v`, `--f=v`,
    /// missing-value and malformed forms, plus the defaults and typos. Each
    /// test below checks one group of rows.
    #[rustfmt::skip]
    fn table() -> Vec<Row> {
        vec![
            ("defaults", "", ok(|_| {})),
            ("defaults", "--scale small", ok(|_| {})),
            ("defaults", "--scale smoke", ok(|c| c.scale = ExperimentScale::smoke())),
            ("defaults", "--scale=full", ok(|c| c.scale = ExperimentScale::full())),
            ("defaults", "--expect-loaded", ok(|c| c.expect_loaded = true)),
            ("defaults", "--threads 4 --batch=8 --mode ng", ok(|c| {
                c.threads = Threads(4);
                c.batch = 8;
                c.mode = AnswerMode::NgApproximate;
            })),
            ("typos", "--thread 4", Err(r#"unknown flag "--thread""#)),
            ("typos", "--scale smok", Err(r#"invalid --scale value "smok""#)),
            ("typos", "--scale", Err(r#"invalid --scale value """#)),
            ("typos", "snapshots", Err(r#"unknown flag "snapshots""#)),
            ("typos", "--threads --batch 8", Err(r#"invalid --threads value "--batch""#)),
            ("threads", "--threads 4", ok(|c| c.threads = Threads(4))),
            ("threads", "--threads=8", ok(|c| c.threads = Threads(8))),
            ("threads", "--threads 0", ok(|c| c.threads = Auto)),
            ("threads", "--threads 1", ok(|c| c.threads = Serial)),
            ("threads", "--threads", Err(r#"invalid --threads value """#)),
            ("threads", "--threads=", Err(r#"invalid --threads value """#)),
            ("threads", "--threads lots", Err(r#"invalid --threads value "lots""#)),
            ("index-dir", "--index-dir snapshots", ok(|c| c.index_dir = Some("snapshots".into()))),
            ("index-dir", "--index-dir=/tmp/idx", ok(|c| c.index_dir = Some("/tmp/idx".into()))),
            ("index-dir", "--index-dir", Err(r#"invalid --index-dir value """#)),
            ("index-dir", "--index-dir=", Err(r#"invalid --index-dir value """#)),
            ("mode", "--mode ng", ok(|c| c.mode = AnswerMode::NgApproximate)),
            ("mode", "--mode=eps:0.1", ok(|c| c.mode = AnswerMode::EpsilonApproximate { epsilon: 0.1 })),
            ("mode", "--mode deltaeps:0.9,0.25", ok(|c| {
                c.mode = AnswerMode::DeltaEpsilon { delta: 0.9, epsilon: 0.25 }
            })),
            ("mode", "--mode", Err(r#"invalid --mode value """#)),
            ("mode", "--mode sloppy", Err(r#"invalid --mode value "sloppy""#)),
            ("mode", "--mode eps:-1", Err(r#"invalid --mode value "eps:-1""#)),
            ("batch", "--batch 64", ok(|c| c.batch = 64)),
            ("batch", "--batch=8", ok(|c| c.batch = 8)),
            ("batch", "--batch 0", ok(|_| {})),
            ("batch", "--batch", Err(r#"invalid --batch value """#)),
            ("batch", "--batch many", Err(r#"invalid --batch value "many""#)),
            ("fault-seed", "--fault-seed 42", ok(|c| c.fault_seed = 42)),
            ("fault-seed", "--fault-seed=7", ok(|c| c.fault_seed = 7)),
            ("fault-seed", "--fault-seed", Err(r#"invalid --fault-seed value """#)),
            ("fault-seed", "--fault-seed chaos", Err(r#"invalid --fault-seed value "chaos""#)),
            ("budget", "--budget 500", ok(|c| c.budget = Some(Budget::raw_reads(500)))),
            ("budget", "--budget=inf", ok(|_| {})),
            ("budget", "--budget", Err(r#"invalid --budget value """#)),
            ("budget", "--budget soon", Err(r#"invalid --budget value "soon""#)),
            ("shards", "--shards 4", ok(|c| c.shards = Some(4))),
            ("shards", "--shards=2", ok(|c| c.shards = Some(2))),
            ("shards", "--shards", Err(r#"invalid --shards value """#)),
            ("shards", "--shards 0", Err(r#"invalid --shards value "0""#)),
            ("shards", "--shards many", Err(r#"invalid --shards value "many""#)),
            ("deadline-ms", "--deadline-ms 250", ok(|c| c.deadline_ms = Some(250))),
            ("deadline-ms", "--deadline-ms=0", ok(|c| c.deadline_ms = Some(0))),
            ("deadline-ms", "--deadline-ms", Err(r#"invalid --deadline-ms value """#)),
            ("deadline-ms", "--deadline-ms soon", Err(r#"invalid --deadline-ms value "soon""#)),
            ("quorum", "--quorum all", ok(|c| c.quorum = Some(QuorumPolicy::AllShards))),
            ("quorum", "--quorum=best-effort", ok(|c| c.quorum = Some(QuorumPolicy::BestEffort))),
            ("quorum", "--quorum 2", ok(|c| c.quorum = Some(QuorumPolicy::AtLeast(2)))),
            ("quorum", "--quorum", Err(r#"invalid --quorum value """#)),
            ("quorum", "--quorum 0", Err(r#"invalid --quorum value "0""#)),
            ("quorum", "--quorum most", Err(r#"invalid --quorum value "most""#)),
            ("shard-fault-seed", "--shard-fault-seed 42", ok(|c| c.shard_fault_seed = Some(42))),
            ("shard-fault-seed", "--shard-fault-seed=7", ok(|c| c.shard_fault_seed = Some(7))),
            ("shard-fault-seed", "--shard-fault-seed", Err(r#"invalid --shard-fault-seed value """#)),
            ("shard-fault-seed", "--shard-fault-seed chaos", Err(r#"invalid --shard-fault-seed value "chaos""#)),
        ]
    }

    fn check(group: &str) {
        let rows: Vec<Row> = table().into_iter().filter(|row| row.0 == group).collect();
        assert!(!rows.is_empty(), "no rows in group {group}");
        for (_, argv, want) in rows {
            let got = RunConfig::parse(argv.split_whitespace().map(str::to_string));
            match (&want, &got) {
                (Ok(want), Ok(got)) => assert_eq!(got, want, "{argv:?}"),
                (Err(text), Err(msg)) => assert!(msg.contains(text), "{argv:?}: {msg}"),
                _ => panic!("{argv:?}: expected {want:?}, got {got:?}"),
            }
        }
    }

    #[test]
    fn defaults_and_scale() {
        check("defaults");
    }

    #[test]
    fn missing_or_malformed_values_are_reported_not_ignored() {
        check("typos");
    }

    #[test]
    fn parses_separate_and_joined_forms() {
        check("threads");
    }

    #[test]
    fn parses_index_dir_forms() {
        check("index-dir");
    }

    #[test]
    fn parses_mode_forms() {
        check("mode");
    }

    #[test]
    fn parses_batch_forms() {
        check("batch");
    }

    #[test]
    fn parses_fault_seed_forms() {
        check("fault-seed");
    }

    #[test]
    fn parses_budget_forms() {
        check("budget");
    }

    #[test]
    fn parses_shards_forms() {
        check("shards");
    }

    #[test]
    fn parses_deadline_ms_forms() {
        check("deadline-ms");
    }

    #[test]
    fn parses_quorum_forms() {
        check("quorum");
    }

    #[test]
    fn parses_shard_fault_seed_forms() {
        check("shard-fault-seed");
    }
}
