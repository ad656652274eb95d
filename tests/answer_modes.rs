//! First-class answering modes, end to end through the `QueryEngine`.
//!
//! The contract under test (ISSUE 4 / the sequel study's mode spectrum):
//!
//! * `EpsilonApproximate { epsilon: 0.0 }` answers are bit-identical to
//!   `Exact` for every capable method — answers *and* per-query work
//!   counters;
//! * ng-approximate answers have an error ratio ≥ 1.0 against the brute-force
//!   scan baseline (an approximate answer can never beat the exact one), and
//!   ε-approximate answers additionally respect the `(1 + ε)` bound;
//! * every mode agrees serial vs 4-thread through
//!   `QueryEngine::answer_workload`;
//! * scans are exact-only: an approximate request is a typed
//!   `Error::UnsupportedMode`, never a silent exact run;
//! * range queries are a typed `Error::UnsupportedQuery` at the engine
//!   boundary for all ten methods.

use hydra_bench::MethodKind;
use hydra_core::{AnswerMode, Error, Guarantee, Parallelism, Query, Series};
use hydra_data::RandomWalkGenerator;
use hydra_integration::{dataset, options};
use hydra_scan::ucr::brute_force_knn;

const LEN: usize = 64;

fn queries(count: usize) -> Vec<Series> {
    RandomWalkGenerator::new(4242, LEN).series_batch(count)
}

fn approx_modes() -> Vec<AnswerMode> {
    vec![
        AnswerMode::NgApproximate,
        AnswerMode::EpsilonApproximate { epsilon: 0.0 },
        AnswerMode::EpsilonApproximate { epsilon: 0.5 },
        AnswerMode::DeltaEpsilon {
            delta: 0.9,
            epsilon: 0.5,
        },
    ]
}

fn capable_methods() -> impl Iterator<Item = MethodKind> {
    MethodKind::ALL
        .into_iter()
        .filter(|k| k.modes().any_approximate())
}

#[test]
fn epsilon_zero_is_bit_identical_to_exact_for_every_capable_method() {
    let data = dataset(350, LEN, 4001);
    for kind in capable_methods() {
        let mut engine = kind.engine(&data, &options(LEN)).unwrap();
        for q in queries(5) {
            for k in [1usize, 5] {
                let exact_q = Query::knn(q.clone(), k);
                let exact = engine.answer(&exact_q).unwrap();
                let zero = engine
                    .answer(
                        &exact_q
                            .clone()
                            .with_mode(AnswerMode::EpsilonApproximate { epsilon: 0.0 }),
                    )
                    .unwrap();
                assert_eq!(
                    exact.answers.answers(),
                    zero.answers.answers(),
                    "{}: eps:0 answers diverged from exact (k={k})",
                    kind.name()
                );
                assert_eq!(
                    exact.stats.raw_series_examined,
                    zero.stats.raw_series_examined,
                    "{}: eps:0 examined different work (k={k})",
                    kind.name()
                );
                assert_eq!(
                    exact.stats.lower_bounds_computed,
                    zero.stats.lower_bounds_computed,
                    "{}: eps:0 computed different bounds (k={k})",
                    kind.name()
                );
                assert_eq!(
                    exact.stats.leaves_visited,
                    zero.stats.leaves_visited,
                    "{}: eps:0 visited different leaves (k={k})",
                    kind.name()
                );
                assert_eq!(exact.guarantee, Guarantee::Exact, "{}", kind.name());
                assert_eq!(
                    zero.guarantee,
                    Guarantee::EpsilonBound { epsilon: 0.0 },
                    "{}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn approximate_error_ratios_against_the_scan_baseline() {
    let data = dataset(350, LEN, 4002);
    for kind in capable_methods() {
        let mut engine = kind.engine(&data, &options(LEN)).unwrap();
        for q in queries(6) {
            let exact = brute_force_knn(&data, q.values(), 1);
            let exact_d = exact.nearest().unwrap().distance;
            for mode in approx_modes() {
                let approx = engine
                    .answer(&Query::nearest_neighbor(q.clone()).with_mode(mode))
                    .unwrap();
                let a = approx
                    .answers
                    .nearest()
                    .unwrap_or_else(|| panic!("{} returned no answer in {mode}", kind.name()));
                let ratio = approx.answers.error_ratio_vs(&exact).unwrap();
                assert!(
                    ratio >= 1.0 - 1e-9,
                    "{} {mode}: error ratio {ratio} < 1 — the approximate answer \
                     beat the brute-force scan",
                    kind.name()
                );
                // The ε guarantee: the answer is within (1+ε) of exact. The
                // δ-ε mode is probabilistic, so only the deterministic ε mode
                // is held to the bound here.
                if let AnswerMode::EpsilonApproximate { epsilon } = mode {
                    assert!(
                        a.distance <= (1.0 + epsilon) * exact_d + 1e-6,
                        "{} eps:{epsilon}: {} > (1+ε)·{exact_d}",
                        kind.name(),
                        a.distance
                    );
                }
                assert_eq!(approx.guarantee, mode.guarantee(), "{}", kind.name());
            }
        }
    }
}

#[test]
fn every_mode_agrees_serial_vs_four_threads_through_answer_workload() {
    let data = dataset(300, LEN, 4003);
    let workload: Vec<Query> = queries(8).into_iter().map(|s| Query::knn(s, 3)).collect();
    for kind in capable_methods() {
        for mode in approx_modes().into_iter().chain([AnswerMode::Exact]) {
            let moded: Vec<Query> = workload.iter().map(|q| q.clone().with_mode(mode)).collect();
            let mut serial_engine = kind.engine(&data, &options(LEN)).unwrap();
            let serial = serial_engine
                .answer_workload(&moded, Parallelism::Serial)
                .unwrap();
            let mut parallel_engine = kind.engine(&data, &options(LEN)).unwrap();
            let parallel = parallel_engine
                .answer_workload(&moded, Parallelism::Threads(4))
                .unwrap();
            for (qi, (s, p)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(
                    s.answers,
                    p.answers,
                    "{} {mode}: query {qi} diverged serial vs 4-thread",
                    kind.name()
                );
                assert_eq!(
                    s.stats.raw_series_examined,
                    p.stats.raw_series_examined,
                    "{} {mode}: query {qi} work diverged serial vs 4-thread",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn scans_reject_approximate_modes_with_typed_errors() {
    let data = dataset(120, LEN, 4004);
    let q = Query::nearest_neighbor(queries(1).remove(0));
    for kind in [MethodKind::UcrSuite, MethodKind::Mass, MethodKind::Stepwise] {
        assert!(!kind.modes().any_approximate());
        let mut engine = kind.engine(&data, &options(LEN)).unwrap();
        for mode in approx_modes() {
            match engine.answer(&q.clone().with_mode(mode)) {
                Err(Error::UnsupportedMode {
                    method,
                    mode: rejected,
                }) => {
                    assert_eq!(method, kind.name());
                    assert_eq!(rejected, mode);
                }
                other => panic!(
                    "{} must reject {mode} with UnsupportedMode, got {other:?}",
                    kind.name()
                ),
            }
        }
        // The methods themselves enforce the same boundary when driven
        // directly (defense in depth below the engine).
        let direct = kind.build_boxed(&data, &options(LEN)).unwrap();
        assert!(matches!(
            direct.answer_simple(&q.clone().with_mode(AnswerMode::NgApproximate)),
            Err(Error::UnsupportedMode { .. })
        ));
    }
}

#[test]
fn range_queries_are_typed_errors_for_all_ten_methods() {
    let data = dataset(120, LEN, 4006);
    let rq = Query::try_range(queries(1).remove(0), 5.0).unwrap();
    for kind in MethodKind::ALL {
        let mut engine = kind.engine(&data, &options(LEN)).unwrap();
        match engine.answer(&rq) {
            Err(Error::UnsupportedQuery { method, reason }) => {
                assert_eq!(method, kind.name());
                assert!(reason.contains("range"), "{}: {reason}", kind.name());
            }
            other => panic!(
                "{} must reject range queries with UnsupportedQuery, got {other:?}",
                kind.name()
            ),
        }
        // Driven directly, the methods reject range queries too: none of
        // them silently answers `k = 1` anymore.
        let direct = kind.build_boxed(&data, &options(LEN)).unwrap();
        assert!(
            matches!(
                direct.answer_simple(&rq),
                Err(Error::UnsupportedQuery { .. })
            ),
            "{}",
            kind.name()
        );
    }
}

#[test]
fn ng_approximate_visits_at_most_one_leaf_on_tree_methods() {
    let data = dataset(500, LEN, 4007);
    for kind in [
        MethodKind::DsTree,
        MethodKind::Isax2Plus,
        MethodKind::AdsPlus,
        MethodKind::SfaTrie,
        MethodKind::MTree,
        MethodKind::RStarTree,
    ] {
        let mut engine = kind.engine(&data, &options(LEN)).unwrap();
        let q = Query::nearest_neighbor(queries(1).remove(0)).with_mode(AnswerMode::NgApproximate);
        let a = engine.answer(&q).unwrap();
        assert!(
            a.stats.leaves_visited <= 1,
            "{}: ng visited {} leaves",
            kind.name(),
            a.stats.leaves_visited
        );
        assert_eq!(a.guarantee, Guarantee::None, "{}", kind.name());
    }
}
