//! Intra-query parallelism agreement across the whole suite.
//!
//! The central guarantee of the intra-query execution layer: for every one of
//! the ten methods, answering a single query through
//! `QueryEngine::answer_intra` with multiple worker threads returns answer
//! sets, guarantees and per-query work counters **bit-identical** to the
//! serial path. MASS is the one method whose `AnsweringMethod::search`
//! splits its work across the threads (a pre-pass of precomputed
//! distances); the other nine ignore them, so for those this pins that the
//! engine's intra-query door adds nothing of its own.

use hydra_bench::MethodKind;
use hydra_core::{AnswerMode, Parallelism, Query};
use hydra_data::RandomWalkGenerator;
use hydra_integration::{dataset, options};

#[test]
fn answer_intra_matches_serial_for_all_ten_methods_and_thread_counts() {
    let data = dataset(300, 64, 44);
    let opts = options(64);
    // A mix of independent random queries (little pruning) and member queries
    // (heavy pruning and early abandoning), plus the approximate modes for
    // the methods that support them.
    let mut queries: Vec<Query> = RandomWalkGenerator::new(779, 64)
        .series_batch(5)
        .into_iter()
        .map(|s| Query::knn(s, 3))
        .collect();
    for i in [7usize, 133, 250] {
        queries.push(Query::nearest_neighbor(data.series(i).to_owned_series()));
    }
    let approx_modes = [
        AnswerMode::NgApproximate,
        AnswerMode::EpsilonApproximate { epsilon: 0.5 },
        AnswerMode::DeltaEpsilon {
            delta: 0.8,
            epsilon: 0.5,
        },
    ];
    for mode in approx_modes {
        queries.push(Query::knn(data.series(42).to_owned_series(), 3).with_mode(mode));
    }

    for kind in MethodKind::ALL {
        let mut engine = kind.engine(&data, &opts).unwrap();
        let supported: Vec<&Query> = queries
            .iter()
            .filter(|q| kind.supports_mode(q.mode()))
            .collect();
        let serial: Vec<_> = supported
            .iter()
            .map(|q| engine.answer(q).unwrap())
            .collect();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            for (qi, (query, expected)) in supported.iter().zip(&serial).enumerate() {
                let got = engine.answer_intra(query, parallelism).unwrap();
                assert_eq!(
                    expected.answers,
                    got.answers,
                    "{} answers diverged on query {qi} at {parallelism:?}",
                    kind.name()
                );
                assert_eq!(
                    expected.answers.guarantee(),
                    got.answers.guarantee(),
                    "{} guarantee diverged on query {qi} at {parallelism:?}",
                    kind.name()
                );
                assert_eq!(
                    expected.stats.work_counters(),
                    got.stats.work_counters(),
                    "{} per-query stats diverged on query {qi} at {parallelism:?}",
                    kind.name()
                );
            }
        }
    }
}
