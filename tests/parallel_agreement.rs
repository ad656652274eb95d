//! Parallel-vs-serial agreement across the whole suite.
//!
//! The central guarantee of the parallel execution layer: for every one of the
//! ten methods, running a workload through `QueryEngine::answer_workload` with
//! multiple worker threads returns answer sets and per-query work counters
//! **identical** to the serial loop, and parallel index construction builds
//! the same index as a serial build.

use hydra_bench::MethodKind;
use hydra_core::{Parallelism, Query};
use hydra_data::RandomWalkGenerator;
use hydra_integration::{dataset, options};

#[test]
fn answer_workload_at_4_threads_matches_the_serial_loop_for_all_ten_methods() {
    let data = dataset(300, 64, 42);
    let opts = options(64);
    // A mix of member queries (heavy pruning) and independent random queries.
    let mut queries: Vec<Query> = RandomWalkGenerator::new(777, 64)
        .series_batch(6)
        .into_iter()
        .map(|s| Query::knn(s, 3))
        .collect();
    for i in [7usize, 133, 250] {
        queries.push(Query::nearest_neighbor(data.series(i).to_owned_series()));
    }

    for kind in MethodKind::ALL {
        let mut engine = kind.engine(&data, &opts).unwrap();
        let serial: Vec<_> = queries.iter().map(|q| engine.answer(q).unwrap()).collect();
        let serial_totals = engine.totals().work_counters();
        engine.reset_totals();
        let parallel = engine
            .answer_workload(&queries, Parallelism::Threads(4))
            .unwrap();

        assert_eq!(parallel.len(), serial.len(), "{}", kind.name());
        for (qi, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.answers.answers(),
                p.answers.answers(),
                "{} answers diverged on query {qi}",
                kind.name()
            );
            assert_eq!(
                s.stats.work_counters(),
                p.stats.work_counters(),
                "{} per-query stats diverged on query {qi}",
                kind.name()
            );
        }
        assert_eq!(
            engine.totals().work_counters(),
            serial_totals,
            "{} workload totals diverged",
            kind.name()
        );
        // reset_totals cleared the serial run's count before the parallel run.
        assert_eq!(engine.queries_answered(), queries.len() as u64);
    }
}

#[test]
fn parallel_index_builds_match_serial_builds() {
    let data = dataset(400, 64, 43);
    let tree_methods = [
        MethodKind::DsTree,
        MethodKind::Isax2Plus,
        MethodKind::AdsPlus,
        MethodKind::SfaTrie,
    ];
    let queries: Vec<Query> = RandomWalkGenerator::new(778, 64)
        .series_batch(5)
        .into_iter()
        .map(|s| Query::knn(s, 3))
        .collect();
    for kind in tree_methods {
        let serial = kind
            .engine(&data, &options(64).with_build_threads(1))
            .unwrap();
        let mut parallel = kind
            .engine(&data, &options(64).with_build_threads(4))
            .unwrap();
        let (fp_s, fp_p) = (serial.footprint().unwrap(), parallel.footprint().unwrap());
        assert_eq!(fp_p.total_nodes, fp_s.total_nodes, "{}", kind.name());
        assert_eq!(fp_p.leaf_nodes, fp_s.leaf_nodes, "{}", kind.name());
        assert_eq!(fp_p.disk_bytes, fp_s.disk_bytes, "{}", kind.name());
        let sorted = |mut v: Vec<usize>| {
            v.sort();
            v
        };
        assert_eq!(
            sorted(fp_p.leaf_depths.clone()),
            sorted(fp_s.leaf_depths.clone()),
            "{}",
            kind.name()
        );
        let mut serial = serial;
        for (qi, q) in queries.iter().enumerate() {
            let a = serial.answer(q).unwrap().answers;
            let b = parallel.answer(q).unwrap().answers;
            assert!(
                a.distances_match(&b, 1e-12),
                "{} parallel-built index diverged on query {qi}",
                kind.name()
            );
        }
    }
}
