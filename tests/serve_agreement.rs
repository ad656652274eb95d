//! Service-layer agreement across the whole suite.
//!
//! The central guarantees of `hydra-serve`, checked for every one of the ten
//! methods:
//!
//! 1. **Unsharded identity** — a one-shard service answers every supported
//!    mode **bit-identically** to the bare `QueryEngine`: same answer sets,
//!    same guarantees, same deterministic work counters. The service adds
//!    scheduling, never semantics.
//! 2. **Exact-mode sharding** — in exact mode the scatter-gather merge over
//!    2 and 4 shards reproduces the unsharded answers and guarantee
//!    bit-identically (exact k-NN is partition-decomposable). Approximate
//!    modes legitimately change answers under sharding (each shard's index
//!    structure differs), so they are held to guarantee 3 instead.
//! 3. **Pipeline identity** — for *every* mode and shard count, the async
//!    admitted/cached pipeline returns exactly what the serial
//!    `reference_answer` scatter-gather computes: the executor reorders
//!    work, never results.
//! 4. **Cache transparency** — a cache hit is bit-identical to its cold
//!    answer apart from the `from_cache` provenance.
//! 5. **Deterministic shedding** — admission is a pure function of arrival
//!    order: with the queue full, exactly the overflow requests shed, in
//!    order, with a typed error.
//! 6. **Deadline degradation** — deadline-bounded requests return truncated
//!    answers instead of errors.

use hydra_bench::MethodKind;
use hydra_core::{AnswerMode, Error, Guarantee, Query};
use hydra_data::RandomWalkGenerator;
use hydra_integration::{dataset, options};
use hydra_serve::ServeConfig;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// An uncached service config: the pipeline tests compare cold answers.
fn uncached(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        cache_capacity: 0,
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
    let mut queries = Vec::new();
    for mode in modes {
        if !kind.supports_mode(mode) {
            continue;
        }
        queries.push(Query::knn(data.series(42).to_owned_series(), 5).with_mode(mode));
        queries.push(
            Query::knn(
                RandomWalkGenerator::new(991, data.series_length())
                    .series_batch(1)
                    .remove(0),
                5,
            )
            .with_mode(mode),
        );
    }
    queries
}

#[test]
fn one_shard_service_is_bit_identical_to_the_engine_for_all_methods_and_modes() {
    let data = dataset(400, 64, 77);
    let opts = options(64);
    for kind in MethodKind::ALL {
        let mut engine = kind.engine(&data, &opts).unwrap();
        let service = kind.service(&data, &opts, uncached(1)).unwrap();
        for (qi, query) in mode_queries(&data, kind).iter().enumerate() {
            let expected = engine.answer(query).unwrap();
            let served = service.answer(query.clone()).unwrap();
            assert_eq!(
                served.answers,
                expected.answers,
                "{} query {qi}: one-shard answers diverged",
                kind.name()
            );
            assert_eq!(
                served.guarantee,
                expected.guarantee,
                "{} query {qi}: one-shard guarantee diverged",
                kind.name()
            );
            assert_eq!(
                served.stats.work_counters(),
                expected.stats.work_counters(),
                "{} query {qi}: one-shard work counters diverged",
                kind.name()
            );
            assert!(!served.from_cache);
        }
    }
}

#[test]
fn exact_scatter_gather_matches_the_unsharded_engine_at_every_shard_count() {
    let data = dataset(400, 64, 78);
    let opts = options(64);
    let queries: Vec<Query> = RandomWalkGenerator::new(881, 64)
        .series_batch(3)
        .into_iter()
        .map(|s| Query::knn(s, 5))
        .chain([Query::nearest_neighbor(data.series(9).to_owned_series())])
        .collect();
    for kind in MethodKind::ALL {
        let mut engine = kind.engine(&data, &opts).unwrap();
        let expected: Vec<_> = queries.iter().map(|q| engine.answer(q).unwrap()).collect();
        for shards in SHARD_COUNTS {
            let service = kind.service(&data, &opts, uncached(shards)).unwrap();
            for (qi, (query, exp)) in queries.iter().zip(&expected).enumerate() {
                let served = service.answer(query.clone()).unwrap();
                assert_eq!(
                    served.answers,
                    exp.answers,
                    "{} query {qi} at {shards} shards: exact answers diverged",
                    kind.name()
                );
                assert_eq!(
                    served.guarantee,
                    exp.guarantee,
                    "{} query {qi} at {shards} shards: guarantee diverged",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn the_async_pipeline_matches_the_serial_reference_for_every_mode_and_shard_count() {
    let data = dataset(400, 64, 79);
    let opts = options(64);
    // Index methods cover all four modes; one scan covers the exact-only
    // path. The full cross-method sweep lives in the exact-mode test above.
    for kind in [
        MethodKind::AdsPlus,
        MethodKind::DsTree,
        MethodKind::UcrSuite,
    ] {
        for shards in SHARD_COUNTS {
            let service = kind.service(&data, &opts, uncached(shards)).unwrap();
            for (qi, query) in mode_queries(&data, kind).iter().enumerate() {
                let reference = service.reference_answer(query).unwrap();
                let served = service.answer(query.clone()).unwrap();
                assert_eq!(
                    served.answers,
                    reference.answers,
                    "{} query {qi} at {shards} shards: pipeline diverged from reference",
                    kind.name()
                );
                assert_eq!(served.guarantee, reference.guarantee);
                assert_eq!(
                    served.stats.work_counters(),
                    reference.stats.work_counters(),
                    "{} query {qi} at {shards} shards: pipeline counters diverged",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn cache_hits_are_bit_identical_to_their_cold_answers() {
    let data = dataset(300, 64, 80);
    let opts = options(64);
    let config = ServeConfig {
        shards: 2,
        cache_capacity: 32,
        ..ServeConfig::default()
    };
    let service = MethodKind::VaPlusFile
        .service(&data, &opts, config)
        .unwrap();
    let query = Query::knn(data.series(17).to_owned_series(), 5);
    let cold = service.answer(query.clone()).unwrap();
    assert!(!cold.from_cache);
    let hit = service.answer(query).unwrap();
    assert!(hit.from_cache, "the second identical request must hit");
    assert_eq!(hit.answers, cold.answers);
    assert_eq!(hit.guarantee, cold.guarantee);
    assert_eq!(hit.stats, cold.stats);
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn shedding_is_a_pure_function_of_arrival_order() {
    let data = dataset(200, 32, 81);
    let opts = options(32);
    let config = ServeConfig {
        shards: 2,
        queue_capacity: 2,
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let service = MethodKind::UcrSuite.service(&data, &opts, config).unwrap();
    let queries: Vec<Query> = (0..5)
        .map(|i| Query::knn(data.series(i * 3).to_owned_series(), 3))
        .collect();
    // Submit without driving: the first `queue_capacity` requests are
    // admitted, every later arrival sheds synchronously with a typed error.
    let mut handles = Vec::new();
    for (i, query) in queries.iter().enumerate() {
        match service.submit(query.clone()) {
            Ok(handle) => {
                assert!(i < 2, "request {i} should have been shed");
                handles.push(handle);
            }
            Err(Error::Overloaded { capacity }) => {
                assert!(i >= 2, "request {i} shed while the queue had room");
                assert_eq!(capacity, 2);
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    let stats = service.service_stats();
    assert_eq!((stats.accepted, stats.shed), (2, 3));
    service.drive();
    for handle in &handles {
        assert!(handle.try_take().unwrap().is_ok());
    }
    // Capacity freed: the next request is admitted again.
    assert!(service.submit(queries[4].clone()).is_ok());
}

#[test]
fn deadline_bounded_requests_degrade_to_truncated_answers() {
    let data = dataset(400, 64, 82);
    let opts = options(64);
    let config = ServeConfig {
        shards: 2,
        cache_capacity: 0,
        // A deliberately slow model (25k series reads per second) prices the
        // 1 ms deadline to a raw-read budget far below the dataset size, so
        // the scan cannot finish: it must still answer, tagged truncated.
        deadline_ms: Some(1),
        cost_model: hydra_storage::CostModel {
            seek_latency: std::time::Duration::ZERO,
            sequential_bytes_per_sec: 64.0 * 4.0 * 25_000.0,
            profile: hydra_storage::StorageProfile::InMemory,
        },
        ..ServeConfig::default()
    };
    let budget = hydra_serve::deadline_budget(1, 64 * 4, &config.cost_model).limit();
    assert!(
        budget < 400,
        "test premise: the deadline budget ({budget}) must undercut the dataset"
    );
    let service = MethodKind::UcrSuite.service(&data, &opts, config).unwrap();
    let query = Query::knn(
        RandomWalkGenerator::new(883, 64).series_batch(1).remove(0),
        5,
    );
    let served = service.answer(query).unwrap();
    assert!(
        matches!(served.guarantee, Guarantee::Truncated { .. }),
        "expected a truncated answer, got {:?}",
        served.guarantee
    );
    assert!(
        !served.answers.is_empty(),
        "a truncated answer still returns the best-so-far neighbors"
    );
}
