//! The correctness oracle: the benchmark's own arithmetic, independent of
//! the code it measures.

use crate::surface::{Corpus, K};

/// Euclidean distance accumulated in f64.
pub fn distance(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

fn close(reported: f64, expected: f64, relative: f64) -> bool {
    (reported - expected).abs() <= relative * expected.abs().max(1e-3)
}

/// Checks the shape of one answer: exactly `K` neighbours, ids unique and
/// inside the corpus, distances ascending, and each reported distance equal
/// (relative 1e-4) to a recomputation against the stored series.
pub fn check_shape(
    corpus: &Corpus,
    query: &[f32],
    neighbors: &[(usize, f64)],
) -> Result<(), String> {
    if neighbors.len() != K {
        return Err(format!("{} neighbours, expected {K}", neighbors.len()));
    }
    for (rank, &(id, reported)) in neighbors.iter().enumerate() {
        if id >= corpus.len() {
            return Err(format!("id {id} is outside the corpus"));
        }
        if neighbors[..rank].iter().any(|&(other, _)| other == id) {
            return Err(format!("id {id} appears twice"));
        }
        if rank > 0 && reported < neighbors[rank - 1].1 {
            return Err(format!("distances descend at rank {rank}"));
        }
        let expected = distance(query, corpus.series(id));
        if !close(reported, expected, 1e-4) {
            return Err(format!(
                "id {id}: reported distance {reported}, recomputed {expected}"
            ));
        }
    }
    Ok(())
}

/// Whether two answers agree on distances rank by rank within `tolerance`
/// (ids may differ between exact methods when candidates tie).
pub fn distances_match(a: &[(usize, f64)], b: &[f64], tolerance: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x.1 - y).abs() <= tolerance)
}

/// The distances of the true `K` nearest neighbours of each query, by brute
/// force over the whole corpus on `threads` threads.
pub fn brute_force(corpus: &Corpus, queries: &[&[f32]], threads: usize) -> Vec<Vec<f64>> {
    let threads = threads.clamp(1, queries.len().max(1));
    let chunk = queries.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || part.iter().map(|q| knn(corpus, q)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

fn knn(corpus: &Corpus, query: &[f32]) -> Vec<f64> {
    // The K smallest distances so far, ascending.
    let mut best: Vec<f64> = Vec::with_capacity(K + 1);
    for i in 0..corpus.len() {
        let d = distance(query, corpus.series(i));
        if best.len() < K || d < best[K - 1] {
            let at = best.partition_point(|&b| b <= d);
            best.insert(at, d);
            best.truncate(K);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_finds_a_member_query_at_distance_zero() {
        let corpus = Corpus::generate(300);
        let queries = [corpus.series(17), corpus.series(250)];
        for threads in [1, 2] {
            let found = brute_force(&corpus, &queries, threads);
            assert_eq!(found.len(), 2);
            for d in &found {
                assert_eq!(d.len(), K);
                assert_eq!(d[0], 0.0);
                assert!(d.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn shape_check_rejects_each_kind_of_damage() {
        let corpus = Corpus::generate(64);
        let query = corpus.series(3).to_vec();
        let mut good: Vec<(usize, f64)> = (0..corpus.len())
            .map(|i| (i, distance(&query, corpus.series(i))))
            .collect();
        good.sort_by(|a, b| a.1.total_cmp(&b.1));
        good.truncate(K);
        assert_eq!(check_shape(&corpus, &query, &good), Ok(()));

        let short = &good[..K - 1];
        assert!(check_shape(&corpus, &query, short).is_err());
        let mut repeated = good.clone();
        repeated[4] = repeated[3];
        assert!(check_shape(&corpus, &query, &repeated).is_err());
        let mut outside = good.clone();
        outside[K - 1].0 = corpus.len();
        assert!(check_shape(&corpus, &query, &outside).is_err());
        let mut swapped = good.clone();
        swapped.swap(1, 8);
        assert!(check_shape(&corpus, &query, &swapped).is_err());
        let mut wrong = good.clone();
        wrong[K - 1].1 *= 1.01;
        assert!(check_shape(&corpus, &query, &wrong).is_err());
    }

    #[test]
    fn distance_matching_is_rank_by_rank() {
        let a = [(1, 1.0), (2, 2.0)];
        assert!(distances_match(&a, &[1.0004, 2.0], 1e-3));
        assert!(!distances_match(&a, &[1.01, 2.0], 1e-3));
        assert!(!distances_match(&a, &[1.0], 1e-3));
    }
}
