//! VA+ vector approximation: non-uniform bit allocation + per-dimension
//! k-means scalar quantization over DFT coefficients.
//!
//! The VA+file improves the classic VA-file in two ways (Section 3.1/3.2 of
//! the paper): it first decorrelates the series with an energy-compacting
//! transform (the paper substitutes DFT for KLT for efficiency — we do the
//! same), then
//!
//! 1. allocates the total bit budget **non-uniformly**: dimensions with higher
//!    energy (variance) receive more bits;
//! 2. chooses the decision intervals of each dimension by **k-means** (Lloyd's
//!    algorithm on scalars) rather than equi-depth binning.
//!
//! The per-dimension cell boundaries yield a lower-bounding distance from a
//! query to any approximation cell, exactly as in the VA-file.

use crate::fft::dft_summary;
use crate::sweep::BoundSweep;

/// A trained VA+ quantizer.
#[derive(Clone, Debug)]
pub struct VaPlusQuantizer {
    series_length: usize,
    dims: usize,
    /// Bits allocated to each dimension (possibly zero).
    bits: Vec<u8>,
    /// Per-dimension sorted cell boundaries (len = 2^bits - 1); dimensions
    /// with zero bits have an empty boundary list (single cell).
    boundaries: Vec<Vec<f64>>,
}

/// The quantized approximation of one series: one cell index per dimension.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VaPlusCell {
    /// Cell index of each dimension.
    pub cells: Vec<u16>,
}

impl VaPlusCell {
    /// The number of dimensions.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the cell vector is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

impl VaPlusQuantizer {
    /// Trains a VA+ quantizer.
    ///
    /// * `dims` — number of DFT values retained per series (the paper uses
    ///   the same 16 as the other fixed summarizations);
    /// * `total_bits` — total bit budget distributed across dimensions
    ///   (classic VA-file uses 8 bits/dim uniformly; VA+ distributes them by
    ///   energy);
    /// * `sample` — training sample of raw series.
    ///
    /// # Panics
    /// Panics if the sample is empty or parameters are degenerate.
    pub fn train<'a, I>(series_length: usize, dims: usize, total_bits: usize, sample: I) -> Self
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        assert!(dims >= 1, "dims must be at least 1");
        assert!(
            total_bits >= dims,
            "need at least one bit per dimension on average"
        );
        // Gather DFT summaries column-wise.
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); dims];
        for series in sample {
            assert_eq!(series.len(), series_length, "sample series length mismatch");
            let summary = dft_summary(series, dims);
            for (d, &v) in summary.iter().enumerate() {
                columns[d].push(v as f64);
            }
        }
        assert!(!columns[0].is_empty(), "training sample must be non-empty");

        let bits = allocate_bits(&columns, total_bits);
        let boundaries = columns
            .iter()
            .zip(bits.iter())
            .map(|(col, &b)| {
                if b == 0 {
                    Vec::new()
                } else {
                    kmeans_boundaries(col, 1usize << b)
                }
            })
            .collect();
        Self {
            series_length,
            dims,
            bits,
            boundaries,
        }
    }

    /// Reassembles a quantizer from previously trained state (the inverse of
    /// reading it back through [`VaPlusQuantizer::bits`] and
    /// [`VaPlusQuantizer::boundaries`]) — used by index snapshots, which
    /// persist the trained tables rather than retraining on load.
    ///
    /// # Panics
    /// Panics if the per-dimension vectors disagree with `dims` or a boundary
    /// list has the wrong length for its bit count.
    pub fn from_parts(
        series_length: usize,
        dims: usize,
        bits: Vec<u8>,
        boundaries: Vec<Vec<f64>>,
    ) -> Self {
        assert_eq!(bits.len(), dims, "one bit count per dimension");
        assert_eq!(boundaries.len(), dims, "one boundary list per dimension");
        for (d, (&b, bounds)) in bits.iter().zip(boundaries.iter()).enumerate() {
            let expected = if b == 0 { 0 } else { (1usize << b) - 1 };
            assert_eq!(
                bounds.len(),
                expected,
                "dimension {d}: {b} bits need {expected} boundaries"
            );
        }
        Self {
            series_length,
            dims,
            bits,
            boundaries,
        }
    }

    /// The number of retained dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The sorted decision boundaries of dimension `d` (empty for a zero-bit
    /// dimension).
    pub fn boundaries(&self, d: usize) -> &[f64] {
        &self.boundaries[d]
    }

    /// The series length the quantizer expects.
    pub fn series_length(&self) -> usize {
        self.series_length
    }

    /// Bits allocated per dimension.
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }

    /// The DFT summary of a raw series (the exact representation the cells
    /// quantize).
    pub fn dft(&self, series: &[f32]) -> Vec<f32> {
        debug_assert_eq!(series.len(), self.series_length);
        dft_summary(series, self.dims)
    }

    /// Quantizes a DFT summary into a cell vector.
    pub fn cell_from_dft(&self, dft: &[f32]) -> VaPlusCell {
        debug_assert_eq!(dft.len(), self.dims);
        let cells = dft
            .iter()
            .enumerate()
            .map(|(d, &v)| {
                let b = &self.boundaries[d];
                let mut c = 0usize;
                while c < b.len() && (v as f64) > b[c] {
                    c += 1;
                }
                c as u16
            })
            .collect();
        VaPlusCell { cells }
    }

    /// Quantizes a raw series.
    pub fn cell(&self, series: &[f32]) -> VaPlusCell {
        self.cell_from_dft(&self.dft(series))
    }

    /// The `(low, high)` interval of cell `cell` in dimension `d`.
    pub fn interval(&self, d: usize, cell: u16) -> (f64, f64) {
        let b = &self.boundaries[d];
        let c = cell as usize;
        let low = if c == 0 { f64::NEG_INFINITY } else { b[c - 1] };
        let high = if c >= b.len() { f64::INFINITY } else { b[c] };
        (low, high)
    }

    /// Lower-bounding distance from a query's DFT summary to a candidate cell.
    ///
    /// Never exceeds the Euclidean distance between the corresponding series
    /// (DFT-summary distance lower-bounds true distance, and the cell distance
    /// lower-bounds the summary distance).
    /// The per-dimension interval gaps and the accumulation run through the
    /// runtime-dispatched interval kernel
    /// ([`hydra_core::simd::interval_mindist_sq`]), bit-identical across
    /// dispatch kernels. The VA+file's full-file cell sweep goes through
    /// [`VaPlusQuantizer::sweep`], which yields the same bits per cell.
    pub fn lower_bound(&self, query_dft: &[f32], cell: &VaPlusCell) -> f64 {
        debug_assert_eq!(query_dft.len(), self.dims);
        debug_assert_eq!(cell.len(), self.dims);
        const STACK_DIMS: usize = 32;
        let dims = self.dims;
        let mut low_buf = [0.0f64; STACK_DIMS];
        let mut high_buf = [0.0f64; STACK_DIMS];
        let mut low_vec;
        let mut high_vec;
        let (low, high) = if dims <= STACK_DIMS {
            (&mut low_buf[..dims], &mut high_buf[..dims])
        } else {
            low_vec = vec![0.0f64; dims];
            high_vec = vec![0.0f64; dims];
            (&mut low_vec[..], &mut high_vec[..])
        };
        for d in 0..dims {
            let (lo, hi) = self.interval(d, cell.cells[d]);
            low[d] = lo;
            high[d] = hi;
        }
        hydra_core::simd::interval_mindist_sq(&query_dft[..dims], low, high).sqrt()
    }

    /// One query's lower-bound sweep over `rows` cell vectors
    /// ([`SummaryBlocks`](crate::sweep::SummaryBlocks), `dims` cell indices
    /// each): every swept bound is bit-identical to
    /// [`VaPlusQuantizer::lower_bound`] on the same cell, because each
    /// `(dimension, cell)` term is the interval kernel's own value for that
    /// one dimension (`VaPlusQuantizer::term`).
    pub fn sweep<'a>(&'a self, query_dft: &'a [f32], rows: usize) -> BoundSweep<'a> {
        debug_assert_eq!(query_dft.len(), self.dims);
        let term = move |d: usize, cell: u16| self.term(query_dft, d, cell);
        BoundSweep::new(self.boundaries.iter().map(|b| b.len() + 1), rows, term)
    }

    /// Dimension `d`'s term of [`VaPlusQuantizer::lower_bound`] for a cell
    /// holding `cell` there: `gap · gap`, from the interval kernel's own gap
    /// ([`hydra_core::simd::interval_gap`]) with no dispatch per term. A
    /// one-dimension kernel call adds exactly this to zero.
    #[inline]
    fn term(&self, query_dft: &[f32], d: usize, cell: u16) -> f64 {
        let (low, high) = self.interval(d, cell);
        let gap = hydra_core::simd::interval_gap(query_dft[d] as f64, low, high);
        gap * gap
    }

    /// Upper-bounding distance from a query's DFT summary to a candidate cell
    /// in the *reduced* space: the farthest corner of the cell. Used to derive
    /// tighter best-so-far seeds before touching raw data. Note this bounds
    /// the summary distance, not the full-resolution distance.
    pub fn summary_upper_bound(&self, query_dft: &[f32], cell: &VaPlusCell) -> f64 {
        let mut sum = 0.0f64;
        for (d, &qv) in query_dft.iter().take(self.dims).enumerate() {
            let (low, high) = self.interval(d, cell.cells[d]);
            let q = qv as f64;
            // Distance to the farthest finite boundary; unbounded cells fall
            // back to the nearest boundary (conservative but finite).
            let far = match (low.is_finite(), high.is_finite()) {
                (true, true) => (q - low).abs().max((q - high).abs()),
                (true, false) => (q - low).abs(),
                (false, true) => (q - high).abs(),
                (false, false) => 0.0,
            };
            sum += far * far;
        }
        sum.sqrt()
    }

    /// Total size in bits of one quantized approximation.
    pub fn bits_per_series(&self) -> usize {
        self.bits.iter().map(|&b| b as usize).sum()
    }
}

/// Allocates `total_bits` across dimensions proportionally to the log of each
/// dimension's variance (energy), greedily assigning one bit at a time to the
/// dimension with the largest marginal benefit, as in the VA+file.
fn allocate_bits(columns: &[Vec<f64>], total_bits: usize) -> Vec<u8> {
    let dims = columns.len();
    let variances: Vec<f64> = columns
        .iter()
        .map(|col| {
            let n = col.len() as f64;
            let mean = col.iter().sum::<f64>() / n;
            (col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).max(1e-12)
        })
        .collect();
    // Greedy water-filling: each added bit halves a dimension's expected
    // quantization error, so always give the next bit to the dimension with
    // the largest current error = variance / 4^bits.
    let mut bits = vec![0u8; dims];
    const MAX_BITS_PER_DIM: u8 = 12;
    for _ in 0..total_bits {
        let mut best = 0usize;
        let mut best_err = f64::NEG_INFINITY;
        for d in 0..dims {
            if bits[d] >= MAX_BITS_PER_DIM {
                continue;
            }
            let err = variances[d] / 4f64.powi(bits[d] as i32);
            if err > best_err {
                best_err = err;
                best = d;
            }
        }
        bits[best] += 1;
    }
    bits
}

/// One-dimensional k-means (Lloyd) on `values` with `k` clusters; returns the
/// `k - 1` sorted decision boundaries (midpoints between adjacent centroids).
fn kmeans_boundaries(values: &[f64], k: usize) -> Vec<f64> {
    debug_assert!(k >= 2);
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    // Initialize centroids at equi-depth quantiles (good seeds for 1-D data).
    let mut centroids: Vec<f64> = (0..k)
        .map(|i| sorted[((2 * i + 1) * n / (2 * k)).min(n - 1)])
        .collect();
    let mut assignments = vec![0usize; n];
    for _iter in 0..50 {
        let mut changed = false;
        // Assign (values and centroids are sorted, but a simple scan is fine
        // at training-sample sizes).
        for (i, &v) in sorted.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, &ctr) in centroids.iter().enumerate() {
                let d = (v - ctr).abs();
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update.
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for (i, &v) in sorted.iter().enumerate() {
            sums[assignments[i]] += v;
            counts[assignments[i]] += 1;
        }
        for c in 0..k {
            if counts[c] > 0 {
                centroids[c] = sums[c] / counts[c] as f64;
            }
        }
        centroids.sort_by(|a, b| a.total_cmp(b));
        if !changed {
            break;
        }
    }
    centroids.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::distance::euclidean;
    use hydra_core::series::z_normalize;
    use hydra_core::simd::{interval_mindist_sq_with, Kernel};

    #[test]
    fn direct_terms_are_the_dispatched_kernels_terms_on_every_tier() {
        // A 0-bit dimension (one cell open on both sides), the edge cells
        // open to ±∞, and query values inside, beyond, infinite and NaN.
        let bits = vec![0u8, 1, 3, 8];
        let boundaries: Vec<Vec<f64>> = bits
            .iter()
            .map(|&b| {
                let cells = 1usize << b;
                (1..cells).map(|c| c as f64 * 0.5 - 2.0).collect()
            })
            .collect();
        let quantizer = VaPlusQuantizer::from_parts(64, 4, bits.clone(), boundaries);
        for q_value in [
            0.3f32,
            -80.0,
            80.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ] {
            let q = [q_value; 4];
            for (d, &b) in bits.iter().enumerate() {
                for cell in 0..1u16 << b {
                    let (low, high) = quantizer.interval(d, cell);
                    let term = quantizer.term(&q, d, cell);
                    for kernel in [Kernel::Portable, Kernel::Sse2, Kernel::Avx2] {
                        let dispatched =
                            interval_mindist_sq_with(kernel, &q[d..=d], &[low], &[high]);
                        assert_eq!(
                            term.to_bits(),
                            dispatched.to_bits(),
                            "{kernel:?} q={q_value} d={d} cell={cell}"
                        );
                    }
                }
            }
        }
    }

    fn lcg_series(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        let mut v: Vec<f32> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) as f32
            })
            .collect();
        z_normalize(&mut v);
        v
    }

    fn walk_series(n: usize, seed: u64) -> Vec<f32> {
        // Random-walk-like: cumulative sum, then z-normalize (energy compacts
        // into low frequencies, so bit allocation should be non-uniform).
        let raw = lcg_series(n, seed);
        let mut acc = 0.0f32;
        let mut v: Vec<f32> = raw
            .iter()
            .map(|&x| {
                acc += x;
                acc
            })
            .collect();
        z_normalize(&mut v);
        v
    }

    fn sample(n: usize, len: usize) -> Vec<Vec<f32>> {
        (0..n as u64).map(|i| walk_series(len, i + 1)).collect()
    }

    fn train(len: usize, dims: usize, bits: usize, s: &[Vec<f32>]) -> VaPlusQuantizer {
        VaPlusQuantizer::train(len, dims, bits, s.iter().map(|x| x.as_slice()))
    }

    #[test]
    fn bit_budget_is_fully_allocated() {
        let s = sample(100, 64);
        let q = train(64, 16, 64, &s);
        assert_eq!(q.bits_per_series(), 64);
        assert_eq!(q.bits().len(), 16);
        assert_eq!(q.dims(), 16);
        assert_eq!(q.series_length(), 64);
    }

    #[test]
    fn energetic_dimensions_get_more_bits() {
        // Random-walk data concentrates energy in low-frequency coefficients,
        // so dimension 2/3 (first non-DC coefficient pair) should receive at
        // least as many bits as the highest retained frequency.
        let s = sample(200, 128);
        let q = train(128, 16, 48, &s);
        let bits = q.bits();
        let low_freq = bits[2].max(bits[3]);
        let high_freq = bits[14].max(bits[15]);
        assert!(
            low_freq >= high_freq,
            "expected non-uniform allocation favouring low frequencies, got {bits:?}"
        );
        // And the allocation must actually be non-uniform somewhere.
        assert!(
            bits.iter().min() != bits.iter().max(),
            "allocation should not be uniform: {bits:?}"
        );
    }

    #[test]
    fn cells_bracket_the_quantized_values() {
        let s = sample(80, 96);
        let q = train(96, 16, 64, &s);
        let x = walk_series(96, 777);
        let dft = q.dft(&x);
        let cell = q.cell_from_dft(&dft);
        assert_eq!(cell.len(), 16);
        assert!(!cell.is_empty());
        for (d, &v) in dft.iter().enumerate().take(16) {
            let (low, high) = q.interval(d, cell.cells[d]);
            assert!(low <= v as f64 + 1e-9);
            assert!(v as f64 <= high + 1e-9);
        }
    }

    #[test]
    fn lower_bound_never_exceeds_euclidean() {
        let s = sample(150, 64);
        let q = train(64, 16, 64, &s);
        for seed in 0..10u64 {
            let query = walk_series(64, 5000 + seed);
            let cand = walk_series(64, 6000 + seed);
            let lb = q.lower_bound(&q.dft(&query), &q.cell(&cand));
            let ed = euclidean(&query, &cand);
            assert!(lb <= ed + 1e-4, "LB {lb} > ED {ed}");
        }
    }

    #[test]
    fn lower_bound_to_own_cell_is_zero() {
        let s = sample(50, 32);
        let q = train(32, 8, 32, &s);
        let x = walk_series(32, 42);
        assert_eq!(q.lower_bound(&q.dft(&x), &q.cell(&x)), 0.0);
    }

    #[test]
    fn upper_bound_dominates_lower_bound() {
        let s = sample(60, 64);
        let q = train(64, 16, 48, &s);
        let query = walk_series(64, 10);
        let cand = walk_series(64, 11);
        let qd = q.dft(&query);
        let cell = q.cell(&cand);
        assert!(q.summary_upper_bound(&qd, &cell) + 1e-9 >= q.lower_bound(&qd, &cell));
        // The upper bound in the reduced space dominates the summary distance.
        let cd = q.dft(&cand);
        let summary_dist = euclidean(&qd, &cd);
        assert!(q.summary_upper_bound(&qd, &cell) + 1e-6 >= summary_dist);
    }

    #[test]
    fn more_bits_give_tighter_bounds_on_average() {
        let s = sample(150, 64);
        let q_small = train(64, 16, 32, &s);
        let q_large = train(64, 16, 128, &s);
        let mut sum_small = 0.0;
        let mut sum_large = 0.0;
        for seed in 0..20u64 {
            let query = walk_series(64, 9000 + seed);
            let cand = walk_series(64, 9500 + seed);
            sum_small += q_small.lower_bound(&q_small.dft(&query), &q_small.cell(&cand));
            sum_large += q_large.lower_bound(&q_large.dft(&query), &q_large.cell(&cand));
        }
        assert!(
            sum_large >= sum_small,
            "more bits should tighten bounds: {sum_large} vs {sum_small}"
        );
    }

    #[test]
    fn kmeans_boundaries_separate_clear_clusters() {
        let mut values = vec![0.0f64; 50];
        values.extend(vec![10.0f64; 50]);
        let b = kmeans_boundaries(&values, 2);
        assert_eq!(b.len(), 1);
        assert!(
            b[0] > 2.0 && b[0] < 8.0,
            "boundary {b:?} should separate the clusters"
        );
    }

    #[test]
    fn kmeans_boundaries_tolerate_nan_values() {
        // Regression for the PR 3 bug class: the sorts inside k-means use
        // `total_cmp`, so a NaN training value sorts last instead of
        // panicking or scrambling the order. Boundary count is unchanged.
        let mut values = vec![0.0f64; 20];
        values.extend(vec![10.0f64; 20]);
        values.push(f64::NAN);
        let b = kmeans_boundaries(&values, 4);
        assert_eq!(b.len(), 3);
        // Bit-identical across runs: NaN handling cannot depend on probe
        // or hash order.
        let again = kmeans_boundaries(&values, 4);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&b), bits(&again));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn training_requires_sample() {
        let _ = VaPlusQuantizer::train(8, 4, 8, std::iter::empty());
    }
}
