//! APCA-family segment statistics: the Extended Adaptive Piecewise Constant
//! Approximation (EAPCA) used by the DSTree.
//!
//! EAPCA represents a series over a given *segmentation* (a list of split
//! points) by the mean and standard deviation of every segment. Unlike PAA the
//! segmentation does not have to be equi-length, and the DSTree refines the
//! segmentation per node as it splits (adding a new split point = "vertical"
//! split; tightening the mean/std range on an existing segment = "horizontal"
//! split).
//!
//! The lower-bounding distance used here is `√Σ w·((Δμ)² + (Δσ)²)` over the
//! segments, `w` being a segment's width. It lower-bounds the Euclidean
//! distance for any segmentation: over one segment the squared distance is
//! `w·((Δμ)² + σa² + σb² − 2·cov)`, and `cov ≤ σa·σb` (Cauchy–Schwarz). The
//! σ term makes it at least as tight as the PAA bound on the same grid, and
//! exact for a constant series against anything.

/// Per-segment statistics: mean and standard deviation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EapcaSegment {
    /// Mean value of the segment's points.
    pub mean: f32,
    /// Population standard deviation of the segment's points.
    pub std_dev: f32,
}

/// The EAPCA representation of one series under a given segmentation.
#[derive(Clone, Debug, PartialEq)]
pub struct Eapca {
    /// Per-segment statistics, in series order.
    pub segments: Vec<EapcaSegment>,
}

impl Eapca {
    /// Computes the EAPCA of `series` under `segmentation`.
    ///
    /// `segmentation` is the list of segment end offsets (exclusive), strictly
    /// increasing, ending at `series.len()`.
    pub fn compute(series: &[f32], segmentation: &[usize]) -> Self {
        debug_assert!(valid_segmentation(segmentation, series.len()));
        let mut segments = Vec::with_capacity(segmentation.len());
        let mut start = 0usize;
        for &end in segmentation {
            segments.push(EapcaSegment::compute(&series[start..end]));
            start = end;
        }
        Self { segments }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the representation has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Lower-bounding distance between two EAPCA representations under the
    /// same `segmentation`: the width-weighted distance between segment
    /// means and standard deviations (see the module docs).
    pub fn lower_bound(&self, other: &Eapca, segmentation: &[usize]) -> f64 {
        debug_assert_eq!(self.len(), other.len());
        debug_assert_eq!(self.len(), segmentation.len());
        let mut sum = 0.0f64;
        let mut start = 0usize;
        for ((a, b), &end) in self.segments.iter().zip(&other.segments).zip(segmentation) {
            sum += a.gap_sq(b, (end - start) as f64);
            start = end;
        }
        sum.sqrt()
    }
}

impl EapcaSegment {
    /// The mean and population standard deviation of one segment's points
    /// (both accumulated in `f64`, stored as `f32`).
    pub fn compute(values: &[f32]) -> Self {
        let n = values.len() as f64;
        let mean = values.iter().map(|&v| v as f64).sum::<f64>() / n;
        let var = values
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Self {
            mean: mean as f32,
            std_dev: var.sqrt() as f32,
        }
    }

    /// One segment's term of [`Eapca::lower_bound`], `w·((Δμ)² + (Δσ)²)` for
    /// a segment of width `width`.
    #[inline]
    pub fn gap_sq(&self, other: &EapcaSegment, width: f64) -> f64 {
        let d_mean = self.mean as f64 - other.mean as f64;
        let d_std = self.std_dev as f64 - other.std_dev as f64;
        width * (d_mean * d_mean + d_std * d_std)
    }
}

/// Checks that a segmentation is strictly increasing and ends at `len`.
pub fn valid_segmentation(segmentation: &[usize], len: usize) -> bool {
    if segmentation.is_empty() || *segmentation.last().unwrap() != len {
        return false;
    }
    let mut prev = 0usize;
    for &end in segmentation {
        if end <= prev {
            return false;
        }
        prev = end;
    }
    true
}

/// Builds the equi-width initial segmentation with `segments` segments for
/// series of length `series_length` (the DSTree's starting segmentation).
pub fn uniform_segmentation(series_length: usize, segments: usize) -> Vec<usize> {
    assert!(segments > 0 && segments <= series_length);
    let base = series_length / segments;
    let extra = series_length % segments;
    let mut out = Vec::with_capacity(segments);
    let mut pos = 0usize;
    for i in 0..segments {
        pos += base + usize::from(i < extra);
        out.push(pos);
    }
    out
}

/// Splits segment `segment` of a segmentation at its midpoint, producing a new
/// segmentation with one more segment. Returns `None` if the segment has a
/// single point and cannot be split.
pub fn split_segment(segmentation: &[usize], segment: usize) -> Option<Vec<usize>> {
    let start = if segment == 0 {
        0
    } else {
        segmentation[segment - 1]
    };
    let end = segmentation[segment];
    if end - start < 2 {
        return None;
    }
    let mid = start + (end - start) / 2;
    let mut out = Vec::with_capacity(segmentation.len() + 1);
    out.extend_from_slice(&segmentation[..segment]);
    out.push(mid);
    out.extend_from_slice(&segmentation[segment..]);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::distance::euclidean;

    fn lcg_series(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) as f32
            })
            .collect()
    }

    #[test]
    fn uniform_segmentation_covers_series() {
        let seg = uniform_segmentation(10, 4);
        assert_eq!(seg, vec![3, 6, 8, 10]);
        assert!(valid_segmentation(&seg, 10));
        let seg = uniform_segmentation(16, 4);
        assert_eq!(seg, vec![4, 8, 12, 16]);
    }

    #[test]
    fn segmentation_validation() {
        assert!(valid_segmentation(&[4, 8], 8));
        assert!(!valid_segmentation(&[4, 8], 10), "must end at len");
        assert!(
            !valid_segmentation(&[4, 4, 8], 8),
            "must be strictly increasing"
        );
        assert!(!valid_segmentation(&[], 8), "must be non-empty");
    }

    #[test]
    fn eapca_statistics_are_correct() {
        let series = [1.0, 3.0, 10.0, 10.0, 10.0, 10.0];
        let e = Eapca::compute(&series, &[2, 6]);
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
        assert!((e.segments[0].mean - 2.0).abs() < 1e-6);
        assert!((e.segments[0].std_dev - 1.0).abs() < 1e-6);
        assert!((e.segments[1].mean - 10.0).abs() < 1e-6);
        assert!(e.segments[1].std_dev.abs() < 1e-6);
    }

    #[test]
    fn lower_bound_never_exceeds_euclidean() {
        for seed in 0..10u64 {
            let a = lcg_series(100, seed * 2 + 1);
            let b = lcg_series(100, seed * 2 + 2);
            for segs in [1usize, 4, 10, 25] {
                let segmentation = uniform_segmentation(100, segs);
                let ea = Eapca::compute(&a, &segmentation);
                let eb = Eapca::compute(&b, &segmentation);
                let lb = ea.lower_bound(&eb, &segmentation);
                let ed = euclidean(&a, &b);
                assert!(lb <= ed + 1e-5, "LB {lb} > ED {ed} with {segs} segments");
            }
        }
    }

    #[test]
    fn lower_bound_with_nonuniform_segmentation() {
        let a = lcg_series(64, 5);
        let b = lcg_series(64, 6);
        let segmentation = vec![3, 10, 50, 64];
        let ea = Eapca::compute(&a, &segmentation);
        let eb = Eapca::compute(&b, &segmentation);
        assert!(ea.lower_bound(&eb, &segmentation) <= euclidean(&a, &b) + 1e-5);
    }

    #[test]
    fn the_std_term_tightens_the_mean_bound_and_is_exact_for_a_constant() {
        let a = lcg_series(64, 7);
        let b = lcg_series(64, 8);
        let segmentation = vec![3, 10, 50, 64];
        let ea = Eapca::compute(&a, &segmentation);
        let eb = Eapca::compute(&b, &segmentation);
        let flat = |e: &Eapca| Eapca {
            segments: e
                .segments
                .iter()
                .map(|s| EapcaSegment {
                    mean: s.mean,
                    std_dev: 0.0,
                })
                .collect(),
        };
        let mean_only = flat(&ea).lower_bound(&flat(&eb), &segmentation);
        assert!(ea.lower_bound(&eb, &segmentation) > mean_only);
        // Against a constant every series sits at exactly √Σ w·(Δμ² + σ²).
        let zero = Eapca::compute(&[0.0; 64], &segmentation);
        let lb = zero.lower_bound(&eb, &segmentation);
        let ed = euclidean(&[0.0; 64], &b);
        assert!((lb - ed).abs() <= 1e-5 * ed, "LB {lb} vs ED {ed}");
    }

    #[test]
    fn split_segment_refines_segmentation() {
        let seg = vec![4, 8, 12];
        let refined = split_segment(&seg, 1).unwrap();
        assert_eq!(refined, vec![4, 6, 8, 12]);
        assert!(valid_segmentation(&refined, 12));
        // First segment split.
        assert_eq!(split_segment(&seg, 0).unwrap(), vec![2, 4, 8, 12]);
        // Single-point segment cannot split.
        let seg = vec![1, 2, 12];
        assert!(split_segment(&seg, 0).is_none());
        assert!(split_segment(&seg, 1).is_none());
    }

    #[test]
    fn splitting_tightens_the_bound() {
        let a = lcg_series(128, 9);
        let b = lcg_series(128, 10);
        let coarse = uniform_segmentation(128, 4);
        let mut fine = coarse.clone();
        for seg in (0..4).rev() {
            fine = split_segment(&fine, seg).unwrap();
        }
        let lb_coarse =
            Eapca::compute(&a, &coarse).lower_bound(&Eapca::compute(&b, &coarse), &coarse);
        let lb_fine = Eapca::compute(&a, &fine).lower_bound(&Eapca::compute(&b, &fine), &fine);
        assert!(
            lb_fine + 1e-9 >= lb_coarse,
            "finer segmentation must not loosen the bound"
        );
    }
}
