//! Euclidean distance kernels.
//!
//! The paper's baseline, the UCR Suite, applies three optimizations to serial
//! Euclidean distance scans, and the study applies the same optimizations to
//! every method:
//!
//! 1. **squared distances** — the square root is monotone, so comparisons can
//!    be done on squared distances and the root taken once at the end;
//! 2. **early abandoning** — stop accumulating as soon as the partial sum
//!    exceeds the best-so-far distance;
//! 3. **reordered early abandoning** — visit dimensions in decreasing order of
//!    the query's absolute (Z-normalized) value, so large contributions are
//!    accumulated first and abandoning happens earlier.
//!
//! All kernels accumulate in `f64` for numerical robustness while accepting
//! `f32` inputs (single-precision storage, as in the paper).
//!
//! These loops are the innermost code of all ten methods, so each kernel
//! accumulates into **four independent lanes**: the unrolled form breaks the
//! loop-carried dependency on a single accumulator (4× more add latency can
//! be in flight) and gives LLVM straight-line bodies it auto-vectorizes with
//! SIMD converts and FMAs. The early-abandoning kernels keep the UCR-Suite
//! cadence of one threshold check per 8 accumulated dimensions — checking on
//! every element costs more in branches than it saves for typical series
//! lengths — by testing the lane sum after every 8-element block.
//!
//! The contiguous kernels ([`squared_euclidean`],
//! [`squared_euclidean_early_abandon`]) dispatch through [`crate::simd`] to
//! explicit SSE2/AVX2 implementations when the CPU has them; every dispatch
//! target is bit-identical to the portable 4-lane path. The *reordered*
//! kernels stay scalar — their per-dimension gathers defeat SIMD loads. Over
//! an in-memory corpus the pass they run is memory-bound, not compute-bound:
//! a series read in query order, not address order, gives the hardware
//! prefetcher nothing to follow. So both query drivers of `hydra-storage`
//! prefetch each series before they refine it ([`crate::simd::prefetch`]).

const LANES: usize = 4;
/// Threshold-check cadence of the early-abandoning kernels, in dimensions.
const CHECK_EVERY: usize = 8;

#[inline(always)]
fn lane_sum(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Full squared Euclidean distance between two equal-length slices.
///
/// Dispatches to the process-wide [`crate::simd::active_kernel`] (explicit
/// SSE2/AVX2 when detected); every kernel is bit-identical to the portable
/// 4-lane path, so results do not depend on the dispatch decision.
///
/// # Panics
/// Panics (debug builds) if the slices have different lengths.
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "series must have equal length");
    // Every kernel truncates to the common length, so release builds keep
    // the zip-like behavior for mismatched inputs (the per-slice remainders
    // would otherwise pair up misaligned elements).
    crate::simd::squared_euclidean(a, b)
}

/// Full Euclidean distance between two equal-length slices.
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// Squared Euclidean distance with early abandoning.
///
/// Returns `None` as soon as the partial squared sum exceeds `threshold`
/// (the squared best-so-far distance); otherwise returns the full squared
/// distance. Dispatches like [`squared_euclidean`], keeping the UCR-Suite
/// cadence of one threshold check per 8 accumulated dimensions on every
/// kernel.
#[inline]
pub fn squared_euclidean_early_abandon(a: &[f32], b: &[f32], threshold: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len(), "series must have equal length");
    crate::simd::squared_euclidean_early_abandon(a, b, threshold)
}

/// Euclidean distance with early abandoning on the (non-squared) threshold.
///
/// Convenience wrapper over [`squared_euclidean_early_abandon`].
#[inline]
pub fn euclidean_early_abandon(a: &[f32], b: &[f32], best_so_far: f64) -> Option<f64> {
    squared_euclidean_early_abandon(a, b, best_so_far * best_so_far).map(f64::sqrt)
}

/// A precomputed visiting order over a query's dimensions, sorted by
/// decreasing absolute value of the query.
///
/// On Z-normalized data the query sections farthest from the mean contribute
/// the most to the distance; visiting those first makes early abandoning
/// trigger sooner (UCR-Suite optimization "reordering early abandoning").
#[derive(Clone, Debug)]
pub struct QueryOrder {
    order: Vec<u32>,
}

impl QueryOrder {
    /// Builds the visiting order for `query`.
    ///
    /// Sorting uses `f32::total_cmp`, so NaN-bearing queries still get a
    /// deterministic order (NaN magnitudes sort before every finite value,
    /// equal magnitudes keep their original index order).
    pub fn new(query: &[f32]) -> Self {
        let mut order: Vec<u32> = (0..query.len() as u32).collect();
        order.sort_by(|&i, &j| query[j as usize].abs().total_cmp(&query[i as usize].abs()));
        Self { order }
    }

    /// The dimension indices in visiting order.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.order
    }

    /// The number of dimensions covered by this order.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns true when the order covers zero dimensions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Squared Euclidean distance with *reordered* early abandoning.
///
/// Dimensions are visited in the order given by `order` (typically built once
/// per query with [`QueryOrder::new`]). Returns `None` as soon as the partial
/// sum exceeds `threshold`.
///
/// The gathers forced by the permutation defeat SIMD loads, but the four
/// independent accumulator lanes still overlap the dependent-add latency.
///
/// # Panics
/// Panics (debug builds) if `order` does not match the slices' length.
#[inline]
pub fn squared_euclidean_reordered(
    query: &[f32],
    candidate: &[f32],
    order: &QueryOrder,
    threshold: f64,
) -> Option<f64> {
    debug_assert_eq!(
        query.len(),
        candidate.len(),
        "series must have equal length"
    );
    debug_assert_eq!(
        order.len(),
        query.len(),
        "order must cover the query length"
    );
    let mut acc = [0.0f64; LANES];
    let blocks = order.indices().chunks_exact(CHECK_EVERY);
    let tail = blocks.remainder();
    for block in blocks {
        for step in 0..CHECK_EVERY / LANES {
            for (lane, slot) in acc.iter_mut().enumerate() {
                let i = block[step * LANES + lane] as usize;
                let d = (query[i] - candidate[i]) as f64;
                *slot += d * d;
            }
        }
        if lane_sum(acc) > threshold {
            return None;
        }
    }
    let mut sum = lane_sum(acc);
    for &i in tail {
        let i = i as usize;
        let d = (query[i] - candidate[i]) as f64;
        sum += d * d;
    }
    if sum > threshold {
        None
    } else {
        Some(sum)
    }
}

/// Query-major batched evaluation: one candidate against many queries, each
/// with reordered early abandoning against its **own** threshold.
///
/// This is the inner kernel of the batched scans: the candidate series is
/// loaded from memory once and stays cache-resident while all `Q` queries
/// evaluate against it in turn, so a batch of queries costs one data pass
/// instead of `Q`. Each query runs the scalar reordered kernel with its own
/// 4 accumulator lanes — the queries are *not* interleaved within a block
/// (their per-query dimension orders differ, so cross-query SIMD would
/// change nothing about the gathers); the win here is the candidate's cache
/// residency, not extra instruction-level parallelism. Per query the
/// arithmetic — lane structure, accumulation order, the every-8-dimensions
/// threshold check — is exactly [`squared_euclidean_reordered`], so each
/// `out[i]` is bit-identical to a standalone per-query call; batching
/// changes only the memory traffic.
///
/// `out[i]` is `Some(squared_distance)` or `None` when query `i` abandoned.
///
/// # Panics
/// Panics (debug builds) if the slice lengths disagree.
pub fn squared_euclidean_multi_reordered(
    queries: &[&[f32]],
    orders: &[QueryOrder],
    candidate: &[f32],
    thresholds: &[f64],
    out: &mut [Option<f64>],
) {
    debug_assert_eq!(queries.len(), orders.len());
    debug_assert_eq!(queries.len(), thresholds.len());
    debug_assert_eq!(queries.len(), out.len());
    for (((slot, query), order), &threshold) in out
        .iter_mut()
        .zip(queries.iter())
        .zip(orders.iter())
        .zip(thresholds.iter())
    {
        *slot = squared_euclidean_reordered(query, candidate, order, threshold);
    }
}

/// Euclidean distance with reordered early abandoning (non-squared threshold).
#[inline]
pub fn euclidean_reordered(
    query: &[f32],
    candidate: &[f32],
    order: &QueryOrder,
    best_so_far: f64,
) -> Option<f64> {
    squared_euclidean_reordered(query, candidate, order, best_so_far * best_so_far).map(f64::sqrt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_and_plain_distances_agree() {
        let a = [0.0, 1.0, 2.0, 3.0];
        let b = [1.0, 1.0, 0.0, 3.0];
        let sq = squared_euclidean(&a, &b);
        assert!((sq - 5.0).abs() < 1e-9);
        assert!((euclidean(&a, &b) - 5.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = [0.3, -1.2, 4.5, 0.0, 2.2];
        assert_eq!(squared_euclidean(&a, &a), 0.0);
        assert_eq!(euclidean(&a, &a), 0.0);
    }

    #[test]
    fn unrolled_kernel_matches_reference_accumulation() {
        // Lengths around the 4-lane and 8-block boundaries, against a plain
        // sequential accumulation.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 100] {
            let a: Vec<f32> = (0..n)
                .map(|i| ((i * 37) % 17) as f32 * 0.25 - 2.0)
                .collect();
            let b: Vec<f32> = (0..n).map(|i| ((i * 53) % 23) as f32 * 0.2 - 2.3).collect();
            let reference: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| {
                    let d = (x - y) as f64;
                    d * d
                })
                .sum();
            let got = squared_euclidean(&a, &b);
            assert!(
                (got - reference).abs() <= 1e-9 * reference.max(1.0),
                "n={n}"
            );
            let ea = squared_euclidean_early_abandon(&a, &b, f64::INFINITY).unwrap();
            assert!((ea - reference).abs() <= 1e-9 * reference.max(1.0), "n={n}");
            let order = QueryOrder::new(&a);
            let re = squared_euclidean_reordered(&a, &b, &order, f64::INFINITY).unwrap();
            assert!((re - reference).abs() <= 1e-9 * reference.max(1.0), "n={n}");
        }
    }

    #[test]
    fn early_abandon_returns_full_distance_under_threshold() {
        let a: Vec<f32> = (0..64).map(|i| i as f32 * 0.1).collect();
        let b: Vec<f32> = (0..64).map(|i| i as f32 * 0.1 + 0.5).collect();
        let exact = squared_euclidean(&a, &b);
        let ea = squared_euclidean_early_abandon(&a, &b, exact + 1.0);
        assert!(ea.is_some());
        assert!((ea.unwrap() - exact).abs() < 1e-9);
    }

    #[test]
    fn early_abandon_abandons_over_threshold() {
        let a = vec![0.0f32; 64];
        let b = vec![10.0f32; 64];
        // True squared distance is 6400; threshold of 1 must abandon.
        assert_eq!(squared_euclidean_early_abandon(&a, &b, 1.0), None);
    }

    #[test]
    fn early_abandon_threshold_is_inclusive() {
        let a = [0.0f32, 0.0];
        let b = [1.0f32, 1.0];
        // squared distance exactly 2.0; threshold 2.0 should NOT abandon.
        assert_eq!(squared_euclidean_early_abandon(&a, &b, 2.0), Some(2.0));
        assert_eq!(squared_euclidean_early_abandon(&a, &b, 1.999), None);
    }

    #[test]
    fn query_order_sorts_by_decreasing_magnitude() {
        let q = [0.1f32, -5.0, 2.0, 0.0];
        let order = QueryOrder::new(&q);
        assert_eq!(order.indices(), &[1, 2, 0, 3]);
        assert_eq!(order.len(), 4);
        assert!(!order.is_empty());
    }

    #[test]
    fn query_order_is_deterministic_with_nans() {
        // NaN magnitudes must produce a total, deterministic order instead of
        // depending on comparison failures.
        let q = [1.0f32, f32::NAN, -3.0, f32::NAN, 0.5];
        let a = QueryOrder::new(&q);
        let b = QueryOrder::new(&q);
        assert_eq!(a.indices(), b.indices());
        // total_cmp ranks NaN above every finite magnitude, so the NaN
        // dimensions are visited first (indices keep their relative order),
        // then the finite ones by decreasing magnitude.
        assert_eq!(a.indices(), &[1, 3, 2, 0, 4]);
    }

    #[test]
    fn reordered_distance_matches_plain_distance() {
        let q: Vec<f32> = (0..100).map(|i| ((i * 37) % 17) as f32 - 8.0).collect();
        let c: Vec<f32> = (0..100).map(|i| ((i * 53) % 23) as f32 - 11.0).collect();
        let order = QueryOrder::new(&q);
        let exact = squared_euclidean(&q, &c);
        let got = squared_euclidean_reordered(&q, &c, &order, f64::INFINITY).unwrap();
        assert!((got - exact).abs() < 1e-6);
    }

    #[test]
    fn reordered_abandons_like_plain_early_abandon() {
        let q = vec![3.0f32; 32];
        let c = vec![-3.0f32; 32];
        let order = QueryOrder::new(&q);
        assert_eq!(squared_euclidean_reordered(&q, &c, &order, 10.0), None);
    }

    #[test]
    fn multi_query_kernel_matches_per_query_calls_bit_for_bit() {
        let candidate: Vec<f32> = (0..96)
            .map(|i| ((i * 31) % 19) as f32 * 0.3 - 2.0)
            .collect();
        let queries: Vec<Vec<f32>> = (0..5)
            .map(|q| {
                (0..96)
                    .map(|i| ((i * 7 + q * 13) % 23) as f32 * 0.25 - 2.5)
                    .collect()
            })
            .collect();
        let query_refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let orders: Vec<QueryOrder> = queries.iter().map(|q| QueryOrder::new(q)).collect();
        // Mix of thresholds so some queries abandon and others complete.
        let thresholds: Vec<f64> = (0..5)
            .map(|q| {
                let full = squared_euclidean(&queries[q], &candidate);
                if q % 2 == 0 {
                    full + 1.0
                } else {
                    full * 0.25
                }
            })
            .collect();
        let mut out = vec![None; 5];
        squared_euclidean_multi_reordered(&query_refs, &orders, &candidate, &thresholds, &mut out);
        for q in 0..5 {
            let expected =
                squared_euclidean_reordered(&queries[q], &candidate, &orders[q], thresholds[q]);
            assert_eq!(out[q], expected, "query {q}");
        }
        assert!(out.iter().any(|o| o.is_none()), "tight thresholds abandon");
        assert!(out.iter().any(|o| o.is_some()), "loose thresholds complete");
    }

    #[test]
    fn euclidean_wrappers_take_unsquared_threshold() {
        let a = [0.0f32; 16];
        let b = [1.0f32; 16];
        // distance = 4.0
        assert!(euclidean_early_abandon(&a, &b, 5.0).is_some());
        assert_eq!(euclidean_early_abandon(&a, &b, 3.0), None);
        let order = QueryOrder::new(&a);
        assert!(euclidean_reordered(&a, &b, &order, 4.0).is_some());
        assert_eq!(euclidean_reordered(&a, &b, &order, 3.9), None);
    }

    #[test]
    fn empty_series_have_zero_distance() {
        let a: [f32; 0] = [];
        assert_eq!(squared_euclidean(&a, &a), 0.0);
        assert_eq!(squared_euclidean_early_abandon(&a, &a, 0.0), Some(0.0));
    }
}
