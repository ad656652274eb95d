//! MASS adapted to exact whole matching.
//!
//! MASS (Mueen's Algorithm for Similarity Search) computes, for subsequence
//! matching, the distance profile between a query and every subsequence of a
//! long series using FFT-based dot products. Following the paper, we adapt it
//! to whole matching: for every candidate series `C` the squared Euclidean
//! distance is computed as
//!
//! ```text
//! ED²(Q, C) = ||Q||² + ||C||² − 2·(Q · C)
//! ```
//!
//! where the dot product `Q · C` is evaluated in the frequency domain
//! (`Q · C = Σ_k conj(F(Q))_k · F(C)_k / n`, by Parseval/correlation theorem).
//! This keeps the spirit of the original algorithm — trading extra CPU
//! (Fourier transforms) for a branch-free, abandon-free computation — and
//! reproduces its observed behaviour in the study: a very high CPU cost and
//! one sequential pass of I/O per query.

use hydra_core::{
    AnswerSet, AnsweringMethod, Error, MethodDescriptor, ModeCapabilities, Query, QueryStats,
    Result,
};
use hydra_storage::refine::{self, Full};
use hydra_storage::DatasetStore;
use hydra_transforms::fft::{Complex, Fft};
use std::sync::Arc;

/// The MASS whole-matching scan.
#[derive(Clone)]
pub struct MassScan {
    store: Arc<DatasetStore>,
    fft: Fft,
}

impl MassScan {
    /// Creates a MASS scan over the given store.
    pub fn new(store: Arc<DatasetStore>) -> Self {
        let fft = Fft::new(store.series_length().max(1));
        Self { store, fft }
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// `ED²(Q, C) = ||Q||² + ||C||² − 2·(Q · C)` for one candidate, with the
    /// dot product taken over the spectra: `Q·C = (1/n) Σ conj(F(Q))·F(C)`.
    /// `c_spec` is the caller's spectrum scratch, reused across candidates
    /// so the hot loop performs no per-candidate allocation. Cancellation
    /// can leave a tiny negative sum, clamped to 0; a NaN (a NaN value in
    /// the candidate or the query) stays NaN, so such a candidate ranks
    /// last, as under the other kernels, and never as an exact match.
    fn squared_distance(
        &self,
        q_spec: &[Complex],
        q_norm_sq: f64,
        values: &[f32],
        c_spec: &mut Vec<Complex>,
    ) -> f64 {
        self.fft.forward_real_into(values, c_spec);
        let c_norm_sq: f64 = values.iter().map(|&v| (v as f64) * (v as f64)).sum();
        let mut dot = 0.0f64;
        for (q, c) in q_spec.iter().zip(c_spec.iter()) {
            dot += q.re * c.re + q.im * c.im;
        }
        dot /= values.len() as f64;
        let squared = q_norm_sq + c_norm_sq - 2.0 * dot;
        if squared.is_nan() {
            squared
        } else {
            squared.max(0.0)
        }
    }
}

impl AnsweringMethod for MassScan {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor {
            name: "MASS",
            representation: "DFT",
            is_index: false,
            modes: ModeCapabilities::exact_only(),
        }
    }

    /// One counted sequential pass offering every candidate's distance, in
    /// storage order through [`refine`]. Each distance is a fixed,
    /// pruning-free computation, so with `threads > 1` the workers compute,
    /// from the in-memory dataset, the exact squared distance the pass
    /// would, and the counted pass offers the precomputed values — answers,
    /// budget stops, faults and I/O are the same bits for every thread
    /// count. MASS is the one method that splits a query: its FFT per
    /// candidate is CPU-bound enough for two workers to win.
    fn search(&self, query: &Query, threads: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
        if self.store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let n = self.store.series_length();
        query.expect_len(n)?;
        if !query.mode().is_exact() {
            return Err(Error::unsupported_mode("MASS", query.mode()));
        }
        let k = query.knn_k("MASS")?;
        refine::search(&self.store, query, k, stats, |refiner| {
            let q_spec = &self.fft.forward_real(query.values());
            let q_norm_sq: f64 = query
                .values()
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum();
            refiner.storage_order(threads, || {
                let mut c_spec = Vec::with_capacity(n);
                Full(move |values: &[f32]| {
                    self.squared_distance(q_spec, q_norm_sq, values, &mut c_spec)
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ucr::{brute_force_knn, UcrScan};
    use hydra_core::Series;
    use hydra_data::RandomWalkGenerator;

    fn store(count: usize, len: usize) -> Arc<DatasetStore> {
        Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(21, len).dataset(count),
        ))
    }

    #[test]
    fn descriptor_matches_table1() {
        let m = MassScan::new(store(5, 16));
        assert_eq!(m.descriptor().name, "MASS");
        assert_eq!(m.descriptor().representation, "DFT");
        assert!(!m.descriptor().is_index);
    }

    #[test]
    fn mass_matches_brute_force_on_power_of_two_lengths() {
        let s = store(200, 64);
        let m = MassScan::new(s.clone());
        for q in RandomWalkGenerator::new(77, 64).series_batch(5) {
            let expected = brute_force_knn(s.dataset(), q.values(), 3);
            let got = m.answer_simple(&Query::knn(q, 3)).unwrap();
            assert!(
                got.distances_match(&expected, 1e-3),
                "distances diverge: {got:?} vs {expected:?}"
            );
        }
    }

    #[test]
    fn mass_matches_brute_force_on_non_power_of_two_lengths() {
        // Deep1B-like length 96 exercises the direct DFT path.
        let s = store(100, 96);
        let m = MassScan::new(s.clone());
        let q = RandomWalkGenerator::new(78, 96).series(0);
        let expected = brute_force_knn(s.dataset(), q.values(), 1);
        let got = m.answer_simple(&Query::nearest_neighbor(q)).unwrap();
        assert!(got.distances_match(&expected, 1e-3));
        assert_eq!(got.nearest().unwrap().id, expected.nearest().unwrap().id);
    }

    #[test]
    fn self_query_returns_zero_distance() {
        let s = store(50, 32);
        let m = MassScan::new(s.clone());
        let target = s.dataset().series(7).to_owned_series();
        let ans = m.answer_simple(&Query::nearest_neighbor(target)).unwrap();
        assert_eq!(ans.nearest().unwrap().id, 7);
        assert!(ans.nearest().unwrap().distance < 1e-3);
    }

    #[test]
    fn io_profile_is_one_sequential_pass() {
        let s = store(100, 128);
        let m = MassScan::new(s.clone());
        let mut stats = QueryStats::default();
        m.answer(
            &Query::nearest_neighbor(RandomWalkGenerator::new(5, 128).series(0)),
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.raw_series_examined, 100);
        assert_eq!(stats.random_page_accesses, 1);
        assert!(stats.cpu_time.as_nanos() > 0);
    }

    #[test]
    fn a_nan_series_is_never_an_exact_match_at_any_thread_count() {
        // 200 random walks plus, as id 200, a copy of the query with one
        // NaN value: its squared distance is NaN, which must not clamp to 0.
        let mut data = RandomWalkGenerator::new(21, 64).dataset(200);
        let q = RandomWalkGenerator::new(77, 64).series(0);
        let mut poisoned = q.values().to_vec();
        poisoned[10] = f32::NAN;
        data.push(&poisoned);
        let s = Arc::new(DatasetStore::new(data));
        let query = Query::knn(q, 3);
        let expected = UcrScan::new(s.clone()).answer_simple(&query).unwrap();
        let expected_ids: Vec<usize> = expected.iter().map(|a| a.id).collect();
        assert!(!expected_ids.contains(&200));
        let m = MassScan::new(s);
        for threads in [1, 2, 4] {
            let got = m
                .search(&query, threads, &mut QueryStats::default())
                .unwrap();
            let ids: Vec<usize> = got.iter().map(|a| a.id).collect();
            assert_eq!(ids, expected_ids, "threads {threads}");
            assert!(got.distances_match(&expected, 1e-3), "threads {threads}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let m = MassScan::new(store(10, 64));
        assert!(m
            .answer_simple(&Query::nearest_neighbor(Series::new(vec![0.0; 16])))
            .is_err());
    }
}
