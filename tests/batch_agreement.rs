//! Batch-vs-serial agreement across the whole suite.
//!
//! The central guarantee of the batched execution layer: for every one of
//! the ten methods, answering a workload through `QueryEngine::answer_batch`
//! — whether through a native batch kernel (the scans, VA+file, ADS+) or
//! the per-query fallback (the tree indexes) — returns answer sets and
//! per-query work counters **identical** to the serial per-query loop, for
//! every batch size and thread count. Mixed `AnswerMode` batches are routed
//! or rejected exactly as the per-query path.

use hydra_bench::MethodKind;
use hydra_core::{AnswerMode, EngineAnswer, Error, Parallelism, Query};
use hydra_data::RandomWalkGenerator;
use hydra_integration::{dataset, options};

fn assert_batch_matches_serial(
    kind: MethodKind,
    serial: &[EngineAnswer],
    batched: &[EngineAnswer],
    label: &str,
) {
    assert_eq!(batched.len(), serial.len(), "{} {label}", kind.name());
    for (qi, (s, b)) in serial.iter().zip(batched).enumerate() {
        assert_eq!(
            s.answers.answers(),
            b.answers.answers(),
            "{} answers diverged on query {qi} ({label})",
            kind.name()
        );
        assert_eq!(
            s.guarantee,
            b.guarantee,
            "{} guarantee diverged on query {qi} ({label})",
            kind.name()
        );
        assert_eq!(
            s.stats.work_counters(),
            b.stats.work_counters(),
            "{} per-query stats diverged on query {qi} ({label})",
            kind.name()
        );
    }
}

#[test]
fn answer_batch_is_bit_identical_to_the_serial_loop_for_all_ten_methods() {
    let data = dataset(300, 64, 44);
    let opts = options(64);
    // A mix of member queries (heavy pruning), random queries, and mixed k
    // values in one batch.
    let mut queries: Vec<Query> = RandomWalkGenerator::new(779, 64)
        .series_batch(6)
        .into_iter()
        .enumerate()
        .map(|(i, s)| Query::knn(s, 1 + (i % 3) * 2))
        .collect();
    for i in [7usize, 133, 250] {
        queries.push(Query::nearest_neighbor(data.series(i).to_owned_series()));
    }

    for kind in MethodKind::ALL {
        let mut engine = kind.engine(&data, &opts).unwrap();
        let serial: Vec<_> = queries.iter().map(|q| engine.answer(q).unwrap()).collect();
        let serial_totals = engine.totals().work_counters();

        // The batch size × thread count cross product, including a size that
        // does not divide the workload and the whole-workload batch.
        for batch in [1usize, 3, queries.len()] {
            for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
                let mut batched_engine = kind.engine(&data, &opts).unwrap();
                let mut batched = Vec::with_capacity(queries.len());
                for chunk in queries.chunks(batch) {
                    batched.extend(batched_engine.answer_batch(chunk, parallelism).unwrap());
                }
                let label = format!("batch={batch} {parallelism:?}");
                assert_batch_matches_serial(kind, &serial, &batched, &label);
                assert_eq!(
                    batched_engine.totals().work_counters(),
                    serial_totals,
                    "{} workload totals diverged ({label})",
                    kind.name()
                );
                assert_eq!(batched_engine.queries_answered(), queries.len() as u64);
                // Native kernels report their batch-scoped physical traffic;
                // fallback methods report none.
                assert_eq!(
                    batched_engine.last_batch_io().is_some(),
                    kind.supports_batch(),
                    "{} ({label})",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn empty_batches_are_no_ops_for_every_method() {
    let data = dataset(80, 32, 45);
    for kind in MethodKind::ALL {
        let mut engine = kind.engine(&data, &options(32)).unwrap();
        assert!(engine
            .answer_batch(&[], Parallelism::Threads(4))
            .unwrap()
            .is_empty());
        assert_eq!(engine.queries_answered(), 0, "{}", kind.name());
        assert_eq!(engine.last_batch_io(), None, "{}", kind.name());
    }
}

#[test]
fn mixed_mode_batches_are_routed_like_the_per_query_path() {
    let data = dataset(250, 64, 46);
    let opts = options(64);
    let series = RandomWalkGenerator::new(780, 64).series_batch(4);
    let mixed: Vec<Query> = vec![
        Query::knn(series[0].clone(), 3),
        Query::knn(series[1].clone(), 2).with_mode(AnswerMode::NgApproximate),
        Query::knn(series[2].clone(), 3).with_mode(AnswerMode::EpsilonApproximate { epsilon: 0.3 }),
        Query::knn(series[3].clone(), 1).with_mode(AnswerMode::DeltaEpsilon {
            delta: 0.9,
            epsilon: 0.25,
        }),
    ];

    // Mode-capable methods answer the whole mixed batch, bit-identically to
    // the per-query loop — including the batch-kernel methods VA+file and
    // ADS+, whose shared sweeps must compose with per-query modes.
    for kind in MethodKind::ALL
        .into_iter()
        .filter(|k| k.modes().any_approximate())
    {
        let mut engine = kind.engine(&data, &opts).unwrap();
        let serial: Vec<_> = mixed.iter().map(|q| engine.answer(q).unwrap()).collect();
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            let mut batched_engine = kind.engine(&data, &opts).unwrap();
            let batched = batched_engine.answer_batch(&mixed, parallelism).unwrap();
            assert_batch_matches_serial(kind, &serial, &batched, &format!("{parallelism:?}"));
        }
    }

    // Exact-only methods reject the first non-exact query with the same
    // typed error and the same answered prefix as the per-query loop.
    for kind in [MethodKind::UcrSuite, MethodKind::Mass, MethodKind::Stepwise] {
        let mut serial_engine = kind.engine(&data, &opts).unwrap();
        let serial_err = serial_engine
            .answer_workload(&mixed, Parallelism::Serial)
            .unwrap_err();
        let serial_answered = serial_engine.queries_answered();
        let serial_totals = serial_engine.totals().work_counters();

        let mut batched_engine = kind.engine(&data, &opts).unwrap();
        match batched_engine.answer_batch(&mixed, Parallelism::Serial) {
            Err(Error::UnsupportedMode { method, mode }) => {
                assert_eq!(method, kind.name());
                assert_eq!(mode, AnswerMode::NgApproximate);
                assert!(
                    matches!(serial_err, Error::UnsupportedMode { .. }),
                    "{}",
                    kind.name()
                );
            }
            other => panic!("{}: expected UnsupportedMode, got {other:?}", kind.name()),
        }
        assert_eq!(
            batched_engine.queries_answered(),
            serial_answered,
            "{}: the answered prefix must match the per-query loop",
            kind.name()
        );
        assert_eq!(
            batched_engine.totals().work_counters(),
            serial_totals,
            "{}: prefix totals must match the per-query loop",
            kind.name()
        );
    }
}

#[test]
fn range_queries_in_a_batch_are_typed_errors_after_the_answered_prefix() {
    let data = dataset(100, 32, 47);
    let mut queries: Vec<Query> = RandomWalkGenerator::new(781, 32)
        .series_batch(2)
        .into_iter()
        .map(Query::nearest_neighbor)
        .collect();
    queries.push(Query::range(
        RandomWalkGenerator::new(782, 32).series(0),
        2.0,
    ));
    for kind in MethodKind::ALL {
        let mut engine = kind.engine(&data, &options(32)).unwrap();
        assert!(
            matches!(
                engine.answer_batch(&queries, Parallelism::Serial),
                Err(Error::UnsupportedQuery { .. })
            ),
            "{}",
            kind.name()
        );
        assert_eq!(engine.queries_answered(), 2, "{}", kind.name());
    }
}
