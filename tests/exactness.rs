//! The central invariant of the study: every method, sequential or indexed,
//! returns the exact nearest neighbours — the same distances the brute-force
//! scan produces.

use hydra_core::Query;
use hydra_data::{DomainDataset, DomainGenerator, QueryWorkload, WorkloadSpec};
use hydra_integration::{all_methods, dataset};
use hydra_scan::ucr::brute_force_knn;

#[test]
fn every_method_is_exact_on_random_walk_data() {
    let data = dataset(300, 64, 2024);
    let methods = all_methods(&data);
    let queries = QueryWorkload::generate(
        "Synth-Rand",
        &data,
        &WorkloadSpec::random(7).with_num_queries(8),
    );
    for (name, method) in &methods {
        for q in queries.queries() {
            let expected = brute_force_knn(&data, q.values(), 1);
            let got = method
                .answer_simple(&Query::nearest_neighbor(q.clone()))
                .unwrap();
            assert!(
                got.distances_match(&expected, 1e-3),
                "{name} returned a non-exact 1-NN answer: {:?} vs {:?}",
                got.nearest(),
                expected.nearest()
            );
        }
    }
}

#[test]
fn every_method_is_exact_for_k_greater_than_one() {
    let data = dataset(250, 64, 55);
    let methods = all_methods(&data);
    let queries = QueryWorkload::generate(
        "Synth-Ctrl",
        &data,
        &WorkloadSpec::controlled(11).with_num_queries(6),
    );
    for (name, method) in &methods {
        for q in queries.queries() {
            for k in [3usize, 10] {
                let expected = brute_force_knn(&data, q.values(), k);
                let got = method.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert_eq!(got.len(), k, "{name} returned fewer than k answers");
                assert!(
                    got.distances_match(&expected, 1e-3),
                    "{name} diverged from brute force at k={k}"
                );
            }
        }
    }
}

#[test]
fn every_method_is_exact_when_k_reaches_the_dataset_size() {
    // A serve shard can hold fewer series than a query asks for: every
    // method must then return all of them, in brute-force order.
    let n = 30;
    let data = dataset(n, 64, 91);
    let methods = all_methods(&data);
    let queries = QueryWorkload::generate(
        "Synth-Rand",
        &data,
        &WorkloadSpec::random(13).with_num_queries(3),
    );
    for (name, method) in &methods {
        for q in queries.queries() {
            for k in [n - 1, n, n + 10] {
                let expected = brute_force_knn(&data, q.values(), k);
                let got = method.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert_eq!(got.len(), k.min(n), "{name} at k={k} over {n} series");
                assert!(
                    got.distances_match(&expected, 1e-3),
                    "{name} diverged from brute force at k={k} over {n} series"
                );
            }
        }
    }
}

#[test]
fn every_method_is_exact_on_every_domain_dataset() {
    // The four domain stand-ins exercise very different summarizability
    // profiles (smooth, periodic, bursty, high-entropy); exactness must hold
    // on all of them.
    for domain in DomainDataset::ALL {
        let generator = DomainGenerator::new(domain, 99).with_series_length(64);
        let data = generator.dataset(200);
        let methods = all_methods(&data);
        let queries = QueryWorkload::generate(
            format!("{}-Ctrl", domain.name()),
            &data,
            &WorkloadSpec::controlled(3).with_num_queries(4),
        );
        for (name, method) in &methods {
            for q in queries.queries() {
                let expected = brute_force_knn(&data, q.values(), 1);
                let got = method
                    .answer_simple(&Query::nearest_neighbor(q.clone()))
                    .unwrap();
                assert!(
                    got.distances_match(&expected, 1e-3),
                    "{name} non-exact on {} data",
                    domain.name()
                );
            }
        }
    }
}

#[test]
fn member_queries_return_distance_zero_for_every_method() {
    let data = dataset(200, 64, 77);
    let methods = all_methods(&data);
    for (name, method) in &methods {
        for id in [0usize, 99, 199] {
            let q = data.series(id).to_owned_series();
            let got = method.answer_simple(&Query::nearest_neighbor(q)).unwrap();
            let nearest = got.nearest().unwrap();
            assert!(
                nearest.distance < 1e-3,
                "{name} failed to find the exact duplicate of series {id}"
            );
        }
    }
}
