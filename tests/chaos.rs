//! Chaos suite: seeded deterministic fault injection across the whole method
//! suite.
//!
//! The robustness contract, exercised over all ten methods and both
//! parallelism settings:
//!
//! * no panic ever escapes the engine — every query ends in an `Ok` answer or
//!   a **typed** error;
//! * the same fault seed produces the same outcome, run to run and across
//!   thread counts (fault decisions are pure functions of seed, key and
//!   attempt — never of scheduling);
//! * the intra-query and batch paths meet the same faults as the per-query
//!   path and report the same answers, counters and attempts;
//! * a disabled fault plan is **bit-identical** to a store without fault
//!   injection, answers and per-query work counters alike;
//! * a tight budget returns a non-empty best-so-far answer tagged
//!   `Guarantee::Truncated`, and a budget large enough to never trip is
//!   bit-identical to the unbudgeted path.

use hydra_bench::MethodKind;
use hydra_core::{
    Budget, Dataset, EngineAnswer, Error, Guarantee, Parallelism, Query, QueryEngine, RetryPolicy,
};
use hydra_data::RandomWalkGenerator;
use hydra_integration::{dataset, options};
use hydra_storage::{DatasetStore, FaultConfig, FaultPlan};
use std::sync::Arc;

const SEED: u64 = 0xBAD5EED;

/// An aggressive all-classes mix: enough faults that every method hits some,
/// every transient clearing within two attempts.
fn chaos_config() -> FaultConfig {
    FaultConfig {
        read_error: 0.05,
        bit_flip: 0.02,
        latency: 0.1,
        latency_pages: 4,
        snapshot_corruption: 0.0,
        max_transient_attempts: 2,
    }
}

/// A mix of member queries (heavy pruning) and independent random queries.
fn chaos_queries(data: &Dataset) -> Vec<Query> {
    let mut queries: Vec<Query> = RandomWalkGenerator::new(777, 64)
        .series_batch(4)
        .into_iter()
        .map(|s| Query::knn(s, 3))
        .collect();
    for i in [7usize, 133, 250] {
        queries.push(Query::nearest_neighbor(data.series(i).to_owned_series()));
    }
    queries
}

fn engine_with_plan(
    kind: MethodKind,
    data: &Dataset,
    plan: FaultPlan,
    retry: RetryPolicy,
) -> QueryEngine {
    let store = Arc::new(DatasetStore::new(data.clone()).with_fault_plan(plan));
    kind.engine_on_store(store, &options(64))
        .unwrap_or_else(|e| panic!("building {} failed: {e:?}", kind.name()))
        .with_retry_policy(retry)
}

/// A run-to-run comparable rendering of one answered query: answers (f64
/// `Debug` is round-trip exact, so string equality is bit equality), work
/// counters, attempts and the guarantee.
fn digest(a: &EngineAnswer) -> String {
    format!(
        "{:?} {:?} attempts={} {:?}",
        a.answers.answers(),
        a.stats.work_counters(),
        a.attempts,
        a.guarantee
    )
}

/// The outcome of one query under faults: an answer digest, or the typed
/// error — anything untyped panics the test.
fn outcome(kind: MethodKind, qi: usize, result: hydra_core::Result<EngineAnswer>) -> String {
    match result {
        Ok(a) => digest(&a),
        Err(Error::Io {
            retriable,
            attempts,
            ..
        }) => format!("io-error retriable={retriable} attempts={attempts}"),
        Err(Error::Internal(msg)) => format!("internal: {msg}"),
        Err(e) => panic!(
            "{}: query {qi} failed with an untyped error: {e}",
            kind.name()
        ),
    }
}

#[test]
fn seeded_faults_are_deterministic_and_every_failure_is_a_typed_error() {
    let data = dataset(300, 64, 42);
    let queries = chaos_queries(&data);
    // No retries: injected faults surface as typed per-query errors.
    for kind in MethodKind::ALL {
        let run = |_: usize| -> Vec<String> {
            let mut engine = engine_with_plan(
                kind,
                &data,
                FaultPlan::seeded(SEED, chaos_config()),
                RetryPolicy::none(),
            );
            queries
                .iter()
                .enumerate()
                .map(|(qi, q)| outcome(kind, qi, engine.answer(q)))
                .collect()
        };
        let (first, second) = (run(0), run(1));
        assert_eq!(
            first,
            second,
            "{}: the same seed produced different outcomes",
            kind.name()
        );
    }
}

#[test]
fn recovering_retries_answer_every_query_identically_across_parallelism() {
    let data = dataset(300, 64, 42);
    let queries = chaos_queries(&data);
    // max_attempts exceeds the planned failure bound (2), so every transient
    // clears and the whole workload must answer.
    let retry = RetryPolicy::new(4, 2);
    for kind in MethodKind::ALL {
        let run = |parallelism: Parallelism| -> Vec<String> {
            let mut engine =
                engine_with_plan(kind, &data, FaultPlan::seeded(SEED, chaos_config()), retry);
            engine
                .answer_workload(&queries, parallelism)
                .unwrap_or_else(|e| panic!("{} under recovering retries: {e}", kind.name()))
                .iter()
                .map(digest)
                .collect()
        };
        let serial = run(Parallelism::Serial);
        let threaded = run(Parallelism::Threads(4));
        let threaded_again = run(Parallelism::Threads(4));
        assert_eq!(
            serial,
            threaded,
            "{}: outcome depends on the thread count",
            kind.name()
        );
        assert_eq!(
            threaded,
            threaded_again,
            "{}: threaded outcome is not reproducible",
            kind.name()
        );
    }
}

#[test]
fn intra_and_batch_paths_meet_the_same_faults_as_answer() {
    let data = dataset(300, 64, 42);
    let queries = chaos_queries(&data);
    let retry = RetryPolicy::new(4, 2);
    // Latency only: nothing fails, so a batch kernel completes and must carry
    // every query's surcharge pages itself.
    let latency_only = FaultConfig {
        latency: 0.1,
        latency_pages: 4,
        ..FaultConfig::default()
    };
    for config in [chaos_config(), latency_only] {
        for kind in MethodKind::ALL {
            let engine = || engine_with_plan(kind, &data, FaultPlan::seeded(SEED, config), retry);
            let digests = |answers: Vec<EngineAnswer>| -> Vec<String> {
                answers.iter().map(digest).collect()
            };
            // Answered right before the serial batch on the same thread, so
            // the batch starts after a retried query's last attempt.
            let mut serial = engine();
            let expected: Vec<String> = queries
                .iter()
                .map(|q| digest(&serial.answer(q).unwrap()))
                .collect();
            let batch_serial = engine().answer_batch(&queries, Parallelism::Serial);
            let mut intra = engine();
            let intra: Vec<String> = queries
                .iter()
                .map(|q| digest(&intra.answer_intra(q, Parallelism::Threads(2)).unwrap()))
                .collect();
            let batch_threads = engine().answer_batch(&queries, Parallelism::Threads(2));
            let paths = [
                ("answer_batch(Serial)", digests(batch_serial.unwrap())),
                ("answer_intra(Threads(2))", intra),
                ("answer_batch(Threads(2))", digests(batch_threads.unwrap())),
            ];
            for (path, got) in paths {
                assert_eq!(
                    got,
                    expected,
                    "{}: {path} diverged from answer under {config:?}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn a_disabled_fault_plan_is_bit_identical_to_the_clean_store() {
    let data = dataset(300, 64, 42);
    let queries = chaos_queries(&data);
    for kind in MethodKind::ALL {
        let mut clean = kind.engine(&data, &options(64)).unwrap();
        let mut disabled =
            engine_with_plan(kind, &data, FaultPlan::disabled(), RetryPolicy::none());
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            let a = clean.answer_workload(&queries, parallelism).unwrap();
            let b = disabled.answer_workload(&queries, parallelism).unwrap();
            for (qi, (c, d)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    c.answers.answers(),
                    d.answers.answers(),
                    "{} answers diverged on query {qi} ({parallelism:?})",
                    kind.name()
                );
                assert_eq!(
                    c.stats.work_counters(),
                    d.stats.work_counters(),
                    "{} work counters diverged on query {qi} ({parallelism:?})",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn a_tight_budget_truncates_nonempty_and_a_loose_budget_changes_nothing() {
    let data = dataset(300, 64, 42);
    let queries = chaos_queries(&data);
    for kind in MethodKind::ALL {
        let mut engine = kind.engine(&data, &options(64)).unwrap();
        for (qi, q) in queries.iter().enumerate() {
            let unbudgeted = engine.answer(q).unwrap();
            // A budget of one raw read: examine the first candidate, then
            // stop with a non-empty best-so-far.
            let tight = engine
                .answer(&q.clone().with_budget(Some(Budget::raw_reads(1))))
                .unwrap();
            assert!(
                !tight.answers.answers().is_empty(),
                "{}: truncated query {qi} returned an empty answer",
                kind.name()
            );
            // Truncation is only guaranteed when the search actually wanted
            // more than one raw read — a perfectly pruned query (e.g. an
            // M-tree member query) legitimately completes within the budget.
            if unbudgeted.stats.raw_series_examined > 1 {
                assert!(
                    matches!(tight.guarantee, Guarantee::Truncated { .. }),
                    "{}: query {qi} under a 1-read budget reported {:?}",
                    kind.name(),
                    tight.guarantee
                );
            }
            // A budget the query can never exhaust is the unbudgeted path,
            // bit for bit.
            let loose = engine
                .answer(&q.clone().with_budget(Some(Budget::raw_reads(u64::MAX - 1))))
                .unwrap();
            assert_eq!(
                digest(&loose),
                digest(&unbudgeted),
                "{}: a never-tripping budget changed query {qi}",
                kind.name()
            );
        }
    }
}
