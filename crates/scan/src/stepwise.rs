//! The Stepwise multi-step filter method.
//!
//! Stepwise pre-processes the collection by storing, for every series, its
//! orthonormal Haar (DHWT) coefficients arranged *vertically*: level 0 of all
//! series first, then level 1 of all series, and so on. At query time the
//! method reads one level at a time and maintains, for every surviving
//! candidate, a lower and an upper bound of its true distance derived from the
//! coefficient prefix seen so far. Candidates whose lower bound exceeds the
//! smallest known upper bound are discarded. After the last level (or when few
//! enough candidates survive) the remaining candidates are refined with the
//! exact Euclidean distance on the raw data, charged as random accesses.
//!
//! Compared with indexes, the method trades tree traversal for level-wise
//! sequential reads plus a final random-access refinement step — the access
//! pattern responsible for its high cost in the paper's evaluation.

use hydra_core::distance::squared_euclidean;
use hydra_core::{
    AnswerSet, AnsweringMethod, Error, MethodDescriptor, ModeCapabilities, Query, QueryStats,
    Result,
};
use hydra_storage::refine::{self, Full};
use hydra_storage::DatasetStore;
use hydra_transforms::HaarTransform;
use std::sync::Arc;

/// The Stepwise method: level-wise DHWT filtering plus raw-data refinement.
pub struct Stepwise {
    store: Arc<DatasetStore>,
    haar: HaarTransform,
    /// Per-level coefficient storage: `levels[l][i]` holds the coefficients of
    /// level `l` (of length `2^(l-1)`, level 0 has length 1) for series `i`.
    levels: Vec<Vec<Vec<f32>>>,
    /// Residual energy of each series beyond each level prefix:
    /// `residual[l][i]` = squared norm of coefficients after level `l`.
    residuals: Vec<Vec<f64>>,
    preprocessing_bytes: u64,
}

impl Stepwise {
    /// Pre-processes the collection: computes and stores the level-wise DHWT
    /// coefficients of every series.
    pub fn build(store: Arc<DatasetStore>) -> Result<Self> {
        if store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let haar = HaarTransform::new(store.series_length());
        let num_levels = haar.levels() + 1; // level 0 .. levels()
        let n = store.len();
        let mut levels: Vec<Vec<Vec<f32>>> = vec![Vec::with_capacity(n); num_levels];
        let mut residuals: Vec<Vec<f64>> = vec![vec![0.0; n]; num_levels];
        let mut written = 0u64;
        store.scan_all(|id, series| {
            let coeffs = haar.transform(series.values());
            for level in 0..num_levels {
                let lo = if level == 0 { 0 } else { 1usize << (level - 1) };
                let hi = 1usize << level;
                levels[level].push(coeffs[lo..hi.min(coeffs.len())].to_vec());
                let rest: f64 = coeffs[hi.min(coeffs.len())..]
                    .iter()
                    .map(|&v| (v as f64) * (v as f64))
                    .sum();
                residuals[level][id] = rest;
                written += ((hi - lo) * std::mem::size_of::<f32>()) as u64;
            }
        });
        store.record_index_write(written);
        Ok(Self {
            store,
            haar,
            levels,
            residuals,
            preprocessing_bytes: written,
        })
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// The number of DHWT levels stored.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Bytes of pre-processed coefficient storage.
    pub fn preprocessing_bytes(&self) -> u64 {
        self.preprocessing_bytes
    }

    /// The level-wise filter: reads one coefficient level at a time (a
    /// sequential pass over the level file, charged to `stats`), maintains
    /// every surviving candidate's prefix lower bound and residual upper
    /// bound, and kills each candidate whose lower bound exceeds the `k`-th
    /// smallest upper bound. Returns which candidates survive.
    fn filter_levels(&self, query: &Query, k: usize, stats: &mut QueryStats) -> Vec<bool> {
        let q_coeffs = self.haar.transform(query.values());
        let n = self.store.len();

        // Running squared prefix distance per candidate, plus alive flags;
        // the upper-bound scratch is allocated once and reused across levels.
        let mut prefix_sq = vec![0.0f64; n];
        let mut alive: Vec<bool> = vec![true; n];
        let mut alive_count = n;
        let mut uppers = Vec::with_capacity(n);

        for (level, (coefficients, residuals)) in
            self.levels.iter().zip(&self.residuals).enumerate()
        {
            let lo = if level == 0 { 0 } else { 1usize << (level - 1) };
            let hi = (1usize << level).min(q_coeffs.len());
            let q_rest: f64 = q_coeffs[hi..]
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>();
            // Reading this level's coefficients for the alive candidates is a
            // sequential pass over the level file.
            let level_bytes = (alive_count * (hi - lo) * std::mem::size_of::<f32>()) as u64;
            let level_pages = level_bytes.div_ceil(self.store.page_bytes() as u64).max(1);
            stats.record_io(level_pages.saturating_sub(1), 1, level_bytes);

            // Update prefix distances and collect the finite upper bounds.
            uppers.clear();
            for id in (0..n).filter(|&id| alive[id]) {
                let mut add = 0.0f64;
                for (j, &c) in coefficients[id].iter().enumerate() {
                    let d = (q_coeffs[lo + j] - c) as f64;
                    add += d * d;
                }
                prefix_sq[id] += add;
                stats.record_lower_bounds(1);
                let rest = residuals[id].sqrt() + q_rest.sqrt();
                let upper = (prefix_sq[id] + rest * rest).sqrt();
                if upper.is_finite() {
                    uppers.push(upper);
                }
            }
            // Keep the k-th best upper bound as the pruning threshold (so a
            // k-NN query never prunes a potential member of the answer set)
            // and kill every candidate whose lower bound exceeds it. With
            // fewer than k finite upper bounds nothing can be pruned.
            let threshold = if uppers.len() < k {
                f64::INFINITY
            } else {
                *uppers.select_nth_unstable_by(k - 1, f64::total_cmp).1
            };
            for (flag, p_sq) in alive.iter_mut().zip(&prefix_sq) {
                if *flag && p_sq.sqrt() > threshold + 1e-9 {
                    *flag = false;
                    alive_count -= 1;
                }
            }
        }
        alive
    }
}

impl AnsweringMethod for Stepwise {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor {
            name: "Stepwise",
            representation: "DHWT",
            is_index: false,
            modes: ModeCapabilities::exact_only(),
        }
    }

    /// Reads the coefficient levels one at a time, pruning on the prefix
    /// bounds, then refines the survivors on the raw data through
    /// [`refine`], one random read each. Each level depends on the previous
    /// level's pruning, so there is nothing to split across workers:
    /// `threads` is ignored.
    fn search(&self, query: &Query, _threads: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
        query.expect_len(self.store.series_length())?;
        if !query.mode().is_exact() {
            return Err(Error::unsupported_mode("Stepwise", query.mode()));
        }
        let k = query.knn_k("Stepwise")?;
        refine::search(&self.store, query, k, stats, |refiner| {
            let alive = self.filter_levels(query, k, refiner.stats);
            let survivors = alive
                .iter()
                .enumerate()
                .filter(|(_, &a)| a)
                .map(|(id, _)| id);
            refiner.ids(
                survivors,
                Full(|values: &[f32]| squared_euclidean(query.values(), values)),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ucr::brute_force_knn;
    use hydra_core::Series;
    use hydra_data::RandomWalkGenerator;

    fn store(count: usize, len: usize) -> Arc<DatasetStore> {
        Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(31, len).dataset(count),
        ))
    }

    #[test]
    fn descriptor_matches_table1() {
        let s = Stepwise::build(store(10, 16)).unwrap();
        assert_eq!(s.descriptor().name, "Stepwise");
        assert_eq!(s.descriptor().representation, "DHWT");
    }

    #[test]
    fn build_stores_all_levels() {
        let s = Stepwise::build(store(10, 64)).unwrap();
        assert_eq!(s.num_levels(), 7); // 64 = 2^6 -> levels 0..=6
        assert!(s.preprocessing_bytes() > 0);
    }

    #[test]
    fn exactness_against_brute_force() {
        let st = store(300, 64);
        let s = Stepwise::build(st.clone()).unwrap();
        for q in RandomWalkGenerator::new(87, 64).series_batch(10) {
            for k in [1usize, 3] {
                let expected = brute_force_knn(st.dataset(), q.values(), k);
                let got = s.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert!(
                    got.distances_match(&expected, 1e-4),
                    "k={k}: {got:?} vs {expected:?}"
                );
            }
        }
    }

    #[test]
    fn exactness_on_non_power_of_two_length() {
        let st = store(150, 96);
        let s = Stepwise::build(st.clone()).unwrap();
        let q = RandomWalkGenerator::new(88, 96).series(0);
        let expected = brute_force_knn(st.dataset(), q.values(), 1);
        let got = s.answer_simple(&Query::nearest_neighbor(q)).unwrap();
        assert!(got.distances_match(&expected, 1e-4));
    }

    #[test]
    fn filtering_prunes_most_candidates() {
        let st = store(500, 128);
        let s = Stepwise::build(st.clone()).unwrap();
        // A query equal to a dataset member has a zero-distance match, so the
        // filter should discard the overwhelming majority of candidates.
        let q = st.dataset().series(123).to_owned_series();
        let mut stats = QueryStats::default();
        let ans = s.answer(&Query::nearest_neighbor(q), &mut stats).unwrap();
        assert_eq!(ans.nearest().unwrap().id, 123);
        assert!(
            stats.raw_series_examined < 50,
            "expected strong pruning, examined {}",
            stats.raw_series_examined
        );
        assert!(stats.pruning_ratio(500) > 0.9);
    }

    #[test]
    fn refinement_uses_random_accesses() {
        let st = store(200, 64);
        let s = Stepwise::build(st.clone()).unwrap();
        st.reset_io();
        let q = RandomWalkGenerator::new(12, 64).series(1);
        let mut stats = QueryStats::default();
        s.answer(&Query::nearest_neighbor(q), &mut stats).unwrap();
        let io = st.io_snapshot();
        assert!(io.random_pages >= 1, "refinement reads are random accesses");
    }

    #[test]
    fn reported_pages_count_the_level_file_and_the_refinement_reads() {
        use hydra_core::QueryEngine;
        let st = store(2000, 256);
        let s = Stepwise::build(st.clone()).unwrap();
        let query = Query::knn(RandomWalkGenerator::new(9, 256).series(0), 10);
        // The level-file pages alone, as the filter charges them.
        let mut levels = QueryStats::default();
        s.filter_levels(&query, 10, &mut levels);
        let mut engine = QueryEngine::new(Box::new(s), st.len()).with_io_source(st.clone());
        st.reset_io();
        let reported = engine.answer(&query).unwrap().stats;
        // What the raw file saw: the survivors' refinement reads.
        let refinement = st.io_snapshot();
        assert!(refinement.random_pages > 0 && levels.random_page_accesses > 0);
        assert_eq!(
            reported.sequential_page_accesses,
            levels.sequential_page_accesses + refinement.sequential_pages
        );
        assert_eq!(
            reported.random_page_accesses,
            levels.random_page_accesses + refinement.random_pages
        );
        assert_eq!(
            reported.bytes_read,
            levels.bytes_read + refinement.bytes_read
        );
    }

    #[test]
    fn rejects_bad_query_length_and_empty_build() {
        let s = Stepwise::build(store(10, 32)).unwrap();
        assert!(s
            .answer_simple(&Query::nearest_neighbor(Series::new(vec![0.0; 8])))
            .is_err());
        let empty = Arc::new(DatasetStore::new(hydra_core::Dataset::empty(8)));
        assert!(Stepwise::build(empty).is_err());
    }
}
