//! Chaos contract for the service resilience layer.
//!
//! Four promises, checked end-to-end through `hydra-serve`:
//!
//! 1. **Inert machinery** — with the fault plan disabled, the full
//!    resilience stack (retry override, `AllShards` quorum) is
//!    bit-identical to the strict pre-resilience service for **all ten
//!    methods** at 1/2/4 shards: same answers, same guarantees, same work
//!    counters. Resilience must cost nothing when nothing fails.
//! 2. **Honest degradation** — under injected faults a request either
//!    succeeds with a full-strength guarantee, succeeds tagged
//!    [`Guarantee::Partial`], or fails with a *typed* `Error::Io`. Never a
//!    panic, never an untagged degraded answer; under `AllShards` never a
//!    `Partial` at all.
//! 3. **Deterministic chaos** — the same fault seed reproduces the same
//!    per-query outcomes (answers, guarantees, counters, error strings) and
//!    the same shard-health reports, run to run. Wall-clock never
//!    influences any of it.
//! 4. **No memory of faults** — a shard's faults are keyed by read and
//!    retry attempt, so a query's outcome does not depend on what the
//!    service answered before: it is the same in every pass, and the same
//!    as on a fresh service asked nothing else. This is why the service
//!    calls every shard on every miss: skipping a shard that failed
//!    earlier could only turn an answerable sub-query into an error.

use hydra_bench::MethodKind;
use hydra_core::{AnswerMode, Error, Guarantee, Query, RetryPolicy};
use hydra_data::RandomWalkGenerator;
use hydra_integration::{dataset, options};
use hydra_serve::{QueryService, QuorumPolicy, ResilienceConfig, ServeConfig};
use hydra_storage::{FaultConfig, FaultPlan};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// An uncached config with the whole resilience stack armed.
fn resilient(shards: usize, faults: FaultPlan, quorum: QuorumPolicy) -> ServeConfig {
    ServeConfig {
        shards,
        cache_capacity: 0,
        resilience: ResilienceConfig {
            quorum,
            shard_faults: faults,
            // Two attempts deliberately under-provision against the fault
            // mixes used here (transients clear within two *failed*
            // attempts), so some faults persist into the quorum path.
            retry: Some(RetryPolicy::new(2, 4)),
        },
        ..ServeConfig::default()
    }
}

/// One query per answering mode (scans support only the exact one).
fn mode_queries(data: &hydra_core::Dataset, kind: MethodKind) -> Vec<Query> {
    let modes = [
        AnswerMode::Exact,
        AnswerMode::NgApproximate,
        AnswerMode::EpsilonApproximate { epsilon: 0.5 },
        AnswerMode::DeltaEpsilon {
            delta: 0.8,
            epsilon: 0.5,
        },
    ];
    modes
        .into_iter()
        .filter(|mode| kind.supports_mode(*mode))
        .map(|mode| Query::knn(data.series(42).to_owned_series(), 5).with_mode(mode))
        .collect()
}

/// A heavier-than-standard fault mix for the faulted sweeps: the small test
/// dataset and well-pruning indexes touch few raw keys per query, so the
/// CLI-grade `FaultConfig::standard()` rates would rarely bite here.
fn heavy_faults() -> FaultConfig {
    FaultConfig {
        read_error: 0.25,
        bit_flip: 0.05,
        latency: 0.05,
        latency_pages: 4,
        snapshot_corruption: 0.0,
        max_transient_attempts: 2,
    }
}

/// A pool of exact queries for the faulted sweeps.
fn chaos_queries(data: &hydra_core::Dataset) -> Vec<Query> {
    RandomWalkGenerator::new(4_242, data.series_length())
        .series_batch(6)
        .into_iter()
        .map(|s| Query::knn(s, 5))
        .chain([Query::nearest_neighbor(data.series(11).to_owned_series())])
        .collect()
}

/// One request's comparable outcome: the bit-identity fields of a success,
/// or the rendered typed error.
#[derive(Debug, PartialEq)]
enum Outcome {
    Answered {
        answers: hydra_core::AnswerSet,
        guarantee: Guarantee,
        counters: [u64; 8],
    },
    Failed(String),
}

fn run_sweep(service: &QueryService, queries: &[Query]) -> Vec<Outcome> {
    queries
        .iter()
        .map(|query| match service.answer(query.clone()) {
            Ok(answer) => Outcome::Answered {
                answers: answer.answers,
                guarantee: answer.guarantee,
                counters: answer.stats.work_counters(),
            },
            Err(err) => Outcome::Failed(err.to_string()),
        })
        .collect()
}

#[test]
fn fault_free_resilience_is_bit_identical_to_the_strict_service() {
    let data = dataset(400, 64, 90);
    let opts = options(64);
    for kind in MethodKind::ALL {
        for shards in SHARD_COUNTS {
            let strict = kind
                .service(
                    &data,
                    &opts,
                    ServeConfig {
                        shards,
                        cache_capacity: 0,
                        ..ServeConfig::default()
                    },
                )
                .unwrap();
            let armed = kind
                .service(
                    &data,
                    &opts,
                    resilient(shards, FaultPlan::disabled(), QuorumPolicy::AllShards),
                )
                .unwrap();
            let queries = mode_queries(&data, kind);
            for (qi, query) in queries.iter().enumerate() {
                let expected = strict.answer(query.clone()).unwrap();
                let served = armed.answer(query.clone()).unwrap();
                assert_eq!(
                    served.answers,
                    expected.answers,
                    "{} query {qi} at {shards} shards: armed answers diverged",
                    kind.name()
                );
                assert_eq!(
                    served.guarantee,
                    expected.guarantee,
                    "{} query {qi} at {shards} shards: armed guarantee diverged",
                    kind.name()
                );
                assert_eq!(
                    served.stats.work_counters(),
                    expected.stats.work_counters(),
                    "{} query {qi} at {shards} shards: armed counters diverged",
                    kind.name()
                );
            }
            // Every shard answered every request.
            for (si, report) in armed.resilience_report().iter().enumerate() {
                assert_eq!(report.failures, 0, "shard {si} recorded a failure");
                assert_eq!(
                    report.successes,
                    queries.len() as u64,
                    "shard {si} missed a request"
                );
            }
        }
    }
}

#[test]
fn faults_surface_only_as_typed_errors_or_partial_tagged_answers() {
    let data = dataset(400, 64, 91);
    let opts = options(64);
    let queries = chaos_queries(&data);
    let mut partials = 0usize;
    let mut failures = 0usize;
    // Best-effort degrades to Partial; the strict 4-of-4 quorum turns any
    // failing shard into a quorum-unmet typed error.
    let lanes = [
        (2, QuorumPolicy::BestEffort),
        (4, QuorumPolicy::BestEffort),
        (4, QuorumPolicy::AtLeast(4)),
    ];
    for (shards, quorum) in lanes {
        let plan = FaultPlan::seeded(0xC4A05, heavy_faults());
        let service = MethodKind::AdsPlus
            .service(&data, &opts, resilient(shards, plan, quorum))
            .unwrap();
        // Three passes over the pool.
        for pass in 0..3 {
            for (qi, query) in queries.iter().enumerate() {
                match service.answer(query.clone()) {
                    Ok(answer) => match answer.guarantee {
                        Guarantee::Partial {
                            shards_answered,
                            shards_total,
                            ..
                        } => {
                            partials += 1;
                            assert!(
                                (shards_answered as usize) < shards,
                                "pass {pass} query {qi}: a full gather must not be tagged"
                            );
                            assert_eq!(shards_total as usize, shards);
                        }
                        Guarantee::Exact => {}
                        other => panic!(
                            "pass {pass} query {qi}: unexpected guarantee {other:?} \
                             for an exact-mode request under faults"
                        ),
                    },
                    Err(err) => {
                        failures += 1;
                        assert!(
                            matches!(err, Error::Io { .. }),
                            "pass {pass} query {qi}: fault leaked as untyped error: {err}"
                        );
                    }
                }
            }
        }
    }
    // The premise of the test: this seed actually degrades some answers.
    assert!(partials > 0, "no Partial answers — faults never bit");
    assert!(failures > 0, "no typed failures — faults never bit");
}

#[test]
fn all_shards_quorum_never_serves_partial_answers() {
    let data = dataset(400, 64, 92);
    let opts = options(64);
    let plan = FaultPlan::seeded(0xC4A05, heavy_faults());
    let service = MethodKind::AdsPlus
        .service(&data, &opts, resilient(3, plan, QuorumPolicy::AllShards))
        .unwrap();
    let mut failures = 0usize;
    for query in chaos_queries(&data) {
        match service.answer(query) {
            Ok(answer) => assert!(
                !matches!(answer.guarantee, Guarantee::Partial { .. }),
                "AllShards must propagate failures, not degrade"
            ),
            Err(err) => {
                failures += 1;
                assert!(matches!(err, Error::Io { .. }));
            }
        }
    }
    assert!(failures > 0, "test premise: this seed fails some shard");
}

#[test]
fn the_same_seed_reproduces_answers_and_reports() {
    let data = dataset(400, 64, 93);
    let opts = options(64);
    let queries = chaos_queries(&data);
    let run = || {
        let plan = FaultPlan::seeded(0xFEED, heavy_faults());
        let service = MethodKind::VaPlusFile
            .service(&data, &opts, resilient(4, plan, QuorumPolicy::AtLeast(2)))
            .unwrap();
        let mut outcomes = Vec::new();
        for _ in 0..3 {
            outcomes.extend(run_sweep(&service, &queries));
        }
        (outcomes, service.resilience_report())
    };
    let (outcomes_a, reports_a) = run();
    let (outcomes_b, reports_b) = run();
    assert_eq!(outcomes_a, outcomes_b, "same seed, different outcomes");
    assert_eq!(reports_a, reports_b, "same seed, different health reports");
}

#[test]
fn a_query_gets_the_same_outcome_whatever_the_service_answered_before() {
    let data = dataset(400, 64, 94);
    let opts = options(64);
    let queries = chaos_queries(&data);
    let service = |shards| {
        let plan = FaultPlan::seeded(0xC4A05, heavy_faults());
        MethodKind::AdsPlus
            .service(
                &data,
                &opts,
                resilient(shards, plan, QuorumPolicy::BestEffort),
            )
            .unwrap()
    };
    let (mut partials, mut failures) = (0usize, 0usize);
    for shards in [2, 4] {
        let shared = service(shards);
        let passes: Vec<Vec<Outcome>> = (0..3).map(|_| run_sweep(&shared, &queries)).collect();
        for (qi, query) in queries.iter().enumerate() {
            let alone = run_sweep(&service(shards), std::slice::from_ref(query)).remove(0);
            for (pass, outcomes) in passes.iter().enumerate() {
                assert_eq!(
                    outcomes[qi], alone,
                    "{shards} shards, pass {pass}, query {qi}: the outcome depends on \
                     what the service answered before"
                );
            }
            match alone {
                Outcome::Answered {
                    guarantee: Guarantee::Partial { .. },
                    ..
                } => partials += 1,
                Outcome::Failed(_) => failures += 1,
                Outcome::Answered { .. } => {}
            }
        }
    }
    // The premise of the test: this seed degrades some answers and fails
    // some requests outright.
    assert!(partials > 0, "no Partial answers — faults never bit");
    assert!(failures > 0, "no failed requests — faults never bit");
}
