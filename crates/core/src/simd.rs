//! Runtime-dispatched explicit SIMD kernels for the innermost loops.
//!
//! The paper's cost profile is dominated by two loop shapes: squared
//! Euclidean distance over `f32` series (with the UCR-Suite early-abandoning
//! cadence) and interval lower bounds (SAX/PAA MINDIST and the VA+file cell
//! bounds), both of which ParIS+/MESSI vectorize explicitly. This module
//! provides `std::arch` x86-64 SSE2 and AVX2 implementations of both shapes
//! behind a one-time runtime dispatch (`is_x86_feature_detected!`), with the
//! portable 4-lane path as the universal fallback *and* the test oracle.
//!
//! # Bit-identity contract
//!
//! Every kernel — portable, SSE2, AVX2 — performs the **same floating-point
//! operations in the same association**, so their results are bit-identical
//! on every input (including NaN, ±0.0, subnormals and ragged lengths):
//!
//! * differences are computed in `f32` and then widened (`subps` →
//!   `cvtps_pd`), exactly like the portable `(a[i] - b[i]) as f64`;
//! * multiplies and adds stay separate — **no FMA** — because the portable
//!   path has no fused rounding;
//! * accumulation uses exactly four `f64` lanes (one `__m256d`, or two
//!   `__m128d`), element `i` landing in lane `i % 4`, reduced as
//!   `(acc[0] + acc[1]) + (acc[2] + acc[3])`;
//! * the early-abandoning kernels keep the one-check-per-8-dimensions
//!   cadence, testing the horizontally-reduced scalar sum;
//! * the interval kernels map the scalar branch chain
//!   (`if q < low {low - q} else if q > high {q - high} else {0}`) onto
//!   `max(max(low - q, q - high), 0)` with `maxpd` NaN semantics (the second
//!   operand wins when the compare is false or unordered), which is
//!   element-wise equal to the branches for every interval with
//!   `low <= high` (±∞ edges included) and yields `0` for NaN queries just
//!   like the fallen-through branches.
//!
//! This is what lets the determinism guarantee span kernels: the same
//! answers and the same per-query counters fall out whether dispatch picked
//! AVX2 or the portable loop.
//!
//! # Dispatch
//!
//! [`active_kernel`] resolves once per process from the `HYDRA_SIMD`
//! environment variable: `portable` forces the fallback, `native` (or unset)
//! picks the widest detected instruction set (AVX2, else SSE2 — the x86-64
//! baseline — else portable on other architectures). The `*_with` variants
//! take an explicit [`Kernel`] for tests and benchmarks; a kernel the CPU
//! cannot run is silently downgraded (AVX2 → SSE2 → portable), so calling
//! them is always safe.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

const LANES: usize = 4;
const CHECK_EVERY: usize = 8;

#[inline(always)]
fn lane_sum(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// One of the implementations a kernel call can dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The portable 4-lane Rust path (every architecture; the test oracle).
    Portable,
    /// Explicit SSE2 (the x86-64 baseline: always available there).
    Sse2,
    /// Explicit AVX2 (runtime-detected).
    Avx2,
}

impl Kernel {
    /// Human-readable kernel name (bench/report labels).
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            Kernel::Sse2 => "sse2",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// The widest kernel the running CPU supports.
pub fn detected_kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            Kernel::Avx2
        } else {
            Kernel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Kernel::Portable
    }
}

/// Resolves a `HYDRA_SIMD` request (`None` = unset) to a kernel.
fn kernel_for_request(request: Option<&str>) -> Kernel {
    match request {
        Some(v) if v.eq_ignore_ascii_case("portable") => Kernel::Portable,
        Some(v) if v.eq_ignore_ascii_case("native") => detected_kernel(),
        Some(v) => {
            eprintln!(
                "warning: ignoring unknown HYDRA_SIMD={v:?}; using native detection \
                 (expected `portable` or `native`)"
            );
            detected_kernel()
        }
        None => detected_kernel(),
    }
}

/// The kernel every dispatched call in this process uses, resolved once from
/// the `HYDRA_SIMD` environment variable (see the module docs).
pub fn active_kernel() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| kernel_for_request(std::env::var("HYDRA_SIMD").ok().as_deref()))
}

/// Downgrades a requested kernel to one the CPU can actually run.
#[inline]
fn effective(kernel: Kernel) -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        match kernel {
            Kernel::Avx2 if !is_x86_feature_detected!("avx2") => Kernel::Sse2,
            k => k,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = kernel;
        Kernel::Portable
    }
}

// ---------------------------------------------------------------------------
// Cache hint
// ---------------------------------------------------------------------------

/// `f32` values per 64-byte cache line.
const LINE_VALUES: usize = 64 / std::mem::size_of::<f32>();

/// Asks the CPU to pull every cache line of `values` into L1 ahead of use.
///
/// A hint only: it reads nothing the program observes and changes no value,
/// so it does not depend on the dispatch tier. On x86-64 it issues one
/// `prefetcht0` per 64 bytes of the slice plus one for its last value (SSE
/// is baseline there); on other architectures it does nothing.
#[inline]
pub fn prefetch(values: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        let last = values.len().checked_sub(1);
        for i in (0..values.len()).step_by(LINE_VALUES).chain(last) {
            // SAFETY: `i < values.len()`, so the address is inside the slice;
            // a prefetch never faults and writes nothing.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(values.as_ptr().add(i).cast::<i8>()) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = values;
}

// ---------------------------------------------------------------------------
// Squared Euclidean distance
// ---------------------------------------------------------------------------

/// Full squared Euclidean distance, on the process-wide [`active_kernel`].
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f64 {
    squared_euclidean_with(active_kernel(), a, b)
}

/// Full squared Euclidean distance on an explicit kernel.
pub fn squared_euclidean_with(kernel: Kernel, a: &[f32], b: &[f32]) -> f64 {
    match effective(kernel) {
        Kernel::Portable => squared_euclidean_portable(a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` downgraded the request to a kernel this CPU
        // supports, so the SSE2 target feature is present at runtime.
        Kernel::Sse2 => unsafe { squared_euclidean_sse2(a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` downgraded the request to a kernel this CPU
        // supports, so the AVX2 target feature is present at runtime.
        Kernel::Avx2 => unsafe { squared_euclidean_avx2(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => squared_euclidean_portable(a, b),
    }
}

/// Early-abandoning squared Euclidean distance, on the [`active_kernel`]:
/// `None` as soon as the partial sum exceeds `threshold` (checked once per 8
/// dimensions and once at the end), else the full squared distance.
#[inline]
pub fn squared_euclidean_early_abandon(a: &[f32], b: &[f32], threshold: f64) -> Option<f64> {
    squared_euclidean_early_abandon_with(active_kernel(), a, b, threshold)
}

/// Early-abandoning squared Euclidean distance on an explicit kernel.
pub fn squared_euclidean_early_abandon_with(
    kernel: Kernel,
    a: &[f32],
    b: &[f32],
    threshold: f64,
) -> Option<f64> {
    match effective(kernel) {
        Kernel::Portable => squared_euclidean_early_abandon_portable(a, b, threshold),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` downgraded the request to a kernel this CPU
        // supports, so the SSE2 target feature is present at runtime.
        Kernel::Sse2 => unsafe { squared_euclidean_early_abandon_sse2(a, b, threshold) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` downgraded the request to a kernel this CPU
        // supports, so the AVX2 target feature is present at runtime.
        Kernel::Avx2 => unsafe { squared_euclidean_early_abandon_avx2(a, b, threshold) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => squared_euclidean_early_abandon_portable(a, b, threshold),
    }
}

fn squared_euclidean_portable(a: &[f32], b: &[f32]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; LANES];
    let chunks_a = a.chunks_exact(LANES);
    let chunks_b = b.chunks_exact(LANES);
    let tail_a = chunks_a.remainder();
    let tail_b = chunks_b.remainder();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        for (lane, slot) in acc.iter_mut().enumerate() {
            let d = (ca[lane] - cb[lane]) as f64;
            *slot += d * d;
        }
    }
    let mut sum = lane_sum(acc);
    for (&x, &y) in tail_a.iter().zip(tail_b.iter()) {
        let d = (x - y) as f64;
        sum += d * d;
    }
    sum
}

fn squared_euclidean_early_abandon_portable(a: &[f32], b: &[f32], threshold: f64) -> Option<f64> {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; LANES];
    let blocks_a = a.chunks_exact(CHECK_EVERY);
    let blocks_b = b.chunks_exact(CHECK_EVERY);
    let tail_a = blocks_a.remainder();
    let tail_b = blocks_b.remainder();
    for (ba, bb) in blocks_a.zip(blocks_b) {
        for step in 0..CHECK_EVERY / LANES {
            for (lane, slot) in acc.iter_mut().enumerate() {
                let i = step * LANES + lane;
                let d = (ba[i] - bb[i]) as f64;
                *slot += d * d;
            }
        }
        if lane_sum(acc) > threshold {
            return None;
        }
    }
    let mut sum = lane_sum(acc);
    for (&x, &y) in tail_a.iter().zip(tail_b.iter()) {
        let d = (x - y) as f64;
        sum += d * d;
    }
    if sum > threshold {
        None
    } else {
        Some(sum)
    }
}

/// `(acc[0] + acc[1]) + (acc[2] + acc[3])` over two 2-lane halves.
///
/// # Safety
///
/// The CPU must support SSE2. Safe under target-feature 1.1: every caller is
/// itself an SSE2-or-wider `#[target_feature]` function, which makes this a
/// safe call site.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "sse2")]
fn reduce_halves(acc01: __m128d, acc23: __m128d) -> f64 {
    let s01 = _mm_add_sd(acc01, _mm_unpackhi_pd(acc01, acc01));
    let s23 = _mm_add_sd(acc23, _mm_unpackhi_pd(acc23, acc23));
    _mm_cvtsd_f64(_mm_add_sd(s01, s23))
}

/// Horizontal sum of the four lanes of `acc`.
///
/// # Safety
///
/// The CPU must support AVX. Safe under target-feature 1.1: callers already
/// run with AVX enabled (the AVX2 kernels below imply it), which makes the
/// lane-extract intrinsics safe to call here.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
fn reduce256(acc: __m256d) -> f64 {
    reduce_halves(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1))
}

/// # Safety
///
/// The CPU must support SSE2; `effective` guarantees it before every dispatch.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn squared_euclidean_sse2(a: &[f32], b: &[f32]) -> f64 {
    let n = a.len().min(b.len());
    let mut acc01 = _mm_setzero_pd();
    let mut acc23 = _mm_setzero_pd();
    let chunks = n / LANES;
    for c in 0..chunks {
        let i = c * LANES;
        // SAFETY: i + LANES <= n <= a.len(), b.len(): both 4-wide f32
        // loads are in bounds.
        let dv = unsafe {
            _mm_sub_ps(
                _mm_loadu_ps(a.as_ptr().add(i)),
                _mm_loadu_ps(b.as_ptr().add(i)),
            )
        };
        let d01 = _mm_cvtps_pd(dv);
        let d23 = _mm_cvtps_pd(_mm_movehl_ps(dv, dv));
        acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
        acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
    }
    let mut sum = reduce_halves(acc01, acc23);
    for i in chunks * LANES..n {
        // SAFETY: i < n <= a.len(), b.len().
        let d = unsafe { (*a.get_unchecked(i) - *b.get_unchecked(i)) as f64 };
        sum += d * d;
    }
    sum
}

/// # Safety
///
/// The CPU must support SSE2; `effective` guarantees it before every dispatch.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn squared_euclidean_early_abandon_sse2(
    a: &[f32],
    b: &[f32],
    threshold: f64,
) -> Option<f64> {
    let n = a.len().min(b.len());
    let mut acc01 = _mm_setzero_pd();
    let mut acc23 = _mm_setzero_pd();
    let blocks = n / CHECK_EVERY;
    for blk in 0..blocks {
        for step in 0..CHECK_EVERY / LANES {
            let i = blk * CHECK_EVERY + step * LANES;
            // SAFETY: i + LANES <= n <= a.len(), b.len(): both 4-wide f32
            // loads are in bounds.
            let dv = unsafe {
                _mm_sub_ps(
                    _mm_loadu_ps(a.as_ptr().add(i)),
                    _mm_loadu_ps(b.as_ptr().add(i)),
                )
            };
            let d01 = _mm_cvtps_pd(dv);
            let d23 = _mm_cvtps_pd(_mm_movehl_ps(dv, dv));
            acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
            acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
        }
        if reduce_halves(acc01, acc23) > threshold {
            return None;
        }
    }
    let mut sum = reduce_halves(acc01, acc23);
    for i in blocks * CHECK_EVERY..n {
        // SAFETY: i < n <= a.len(), b.len().
        let d = unsafe { (*a.get_unchecked(i) - *b.get_unchecked(i)) as f64 };
        sum += d * d;
    }
    if sum > threshold {
        None
    } else {
        Some(sum)
    }
}

/// # Safety
///
/// The CPU must support AVX2; `effective` guarantees it before every dispatch.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn squared_euclidean_avx2(a: &[f32], b: &[f32]) -> f64 {
    let n = a.len().min(b.len());
    let mut acc = _mm256_setzero_pd();
    let chunks = n / LANES;
    for c in 0..chunks {
        let i = c * LANES;
        // SAFETY: i + LANES <= n <= a.len(), b.len(): both 4-wide f32
        // loads are in bounds.
        let dv = unsafe {
            _mm_sub_ps(
                _mm_loadu_ps(a.as_ptr().add(i)),
                _mm_loadu_ps(b.as_ptr().add(i)),
            )
        };
        let d = _mm256_cvtps_pd(dv);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    let mut sum = reduce256(acc);
    for i in chunks * LANES..n {
        // SAFETY: i < n <= a.len(), b.len().
        let d = unsafe { (*a.get_unchecked(i) - *b.get_unchecked(i)) as f64 };
        sum += d * d;
    }
    sum
}

/// # Safety
///
/// The CPU must support AVX2; `effective` guarantees it before every dispatch.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn squared_euclidean_early_abandon_avx2(
    a: &[f32],
    b: &[f32],
    threshold: f64,
) -> Option<f64> {
    let n = a.len().min(b.len());
    let mut acc = _mm256_setzero_pd();
    let blocks = n / CHECK_EVERY;
    for blk in 0..blocks {
        for step in 0..CHECK_EVERY / LANES {
            let i = blk * CHECK_EVERY + step * LANES;
            // SAFETY: i + LANES <= n <= a.len(), b.len(): both 4-wide f32
            // loads are in bounds.
            let dv = unsafe {
                _mm_sub_ps(
                    _mm_loadu_ps(a.as_ptr().add(i)),
                    _mm_loadu_ps(b.as_ptr().add(i)),
                )
            };
            let d = _mm256_cvtps_pd(dv);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
        }
        if reduce256(acc) > threshold {
            return None;
        }
    }
    let mut sum = reduce256(acc);
    for i in blocks * CHECK_EVERY..n {
        // SAFETY: i < n <= a.len(), b.len().
        let d = unsafe { (*a.get_unchecked(i) - *b.get_unchecked(i)) as f64 };
        sum += d * d;
    }
    if sum > threshold {
        None
    } else {
        Some(sum)
    }
}

// ---------------------------------------------------------------------------
// Interval (MINDIST-style) lower bounds
// ---------------------------------------------------------------------------

/// `max(a, b)` with `maxpd` semantics: the second operand wins when the
/// compare is false **or unordered**, so NaN in `a` yields `b`.
#[inline(always)]
fn sse_max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The per-dimension gap between a query value and an interval `[low, high]`:
/// `low - q` below the interval, `q - high` above it, `0` inside (and `0`
/// for a NaN query value, matching the fallen-through scalar branches).
#[inline(always)]
fn interval_gap(q: f64, low: f64, high: f64) -> f64 {
    sse_max(sse_max(low - q, q - high), 0.0)
}

/// Sum over dimensions of the squared gap between `q[d]` and
/// `[low[d], high[d]]` — the shared core of the SAX/PAA MINDIST and the
/// VA+file cell bound (callers take the square root). Dispatches on the
/// process-wide [`active_kernel`].
#[inline]
pub fn interval_mindist_sq(q: &[f32], low: &[f64], high: &[f64]) -> f64 {
    interval_mindist_sq_with(active_kernel(), q, low, high)
}

/// [`interval_mindist_sq`] on an explicit kernel.
pub fn interval_mindist_sq_with(kernel: Kernel, q: &[f32], low: &[f64], high: &[f64]) -> f64 {
    match effective(kernel) {
        Kernel::Portable => interval_mindist_sq_portable(q, low, high),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` downgraded the request to a kernel this CPU
        // supports, so the SSE2 target feature is present at runtime.
        Kernel::Sse2 => unsafe { interval_mindist_sq_sse2(q, low, high) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` downgraded the request to a kernel this CPU
        // supports, so the AVX2 target feature is present at runtime.
        Kernel::Avx2 => unsafe { interval_mindist_sq_avx2(q, low, high) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => interval_mindist_sq_portable(q, low, high),
    }
}

/// Weighted variant: sum of `(w[d] * gap) * gap` (the association the SAX
/// MINDIST uses — segment width times squared gap, multiplied left to
/// right). Dispatches on the process-wide [`active_kernel`].
#[inline]
pub fn interval_mindist_weighted_sq(q: &[f32], low: &[f64], high: &[f64], w: &[f64]) -> f64 {
    interval_mindist_weighted_sq_with(active_kernel(), q, low, high, w)
}

/// [`interval_mindist_weighted_sq`] on an explicit kernel.
pub fn interval_mindist_weighted_sq_with(
    kernel: Kernel,
    q: &[f32],
    low: &[f64],
    high: &[f64],
    w: &[f64],
) -> f64 {
    match effective(kernel) {
        Kernel::Portable => interval_mindist_weighted_sq_portable(q, low, high, w),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` downgraded the request to a kernel this CPU
        // supports, so the SSE2 target feature is present at runtime.
        Kernel::Sse2 => unsafe { interval_mindist_weighted_sq_sse2(q, low, high, w) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective` downgraded the request to a kernel this CPU
        // supports, so the AVX2 target feature is present at runtime.
        Kernel::Avx2 => unsafe { interval_mindist_weighted_sq_avx2(q, low, high, w) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => interval_mindist_weighted_sq_portable(q, low, high, w),
    }
}

fn interval_mindist_sq_portable(q: &[f32], low: &[f64], high: &[f64]) -> f64 {
    let n = q.len().min(low.len()).min(high.len());
    let mut acc = [0.0f64; LANES];
    let chunks = n / LANES;
    for c in 0..chunks {
        for (lane, slot) in acc.iter_mut().enumerate() {
            let i = c * LANES + lane;
            let d = interval_gap(q[i] as f64, low[i], high[i]);
            *slot += d * d;
        }
    }
    let mut sum = lane_sum(acc);
    for i in chunks * LANES..n {
        let d = interval_gap(q[i] as f64, low[i], high[i]);
        sum += d * d;
    }
    sum
}

fn interval_mindist_weighted_sq_portable(q: &[f32], low: &[f64], high: &[f64], w: &[f64]) -> f64 {
    let n = q.len().min(low.len()).min(high.len()).min(w.len());
    let mut acc = [0.0f64; LANES];
    let chunks = n / LANES;
    for c in 0..chunks {
        for (lane, slot) in acc.iter_mut().enumerate() {
            let i = c * LANES + lane;
            let d = interval_gap(q[i] as f64, low[i], high[i]);
            *slot += (w[i] * d) * d;
        }
    }
    let mut sum = lane_sum(acc);
    for i in chunks * LANES..n {
        let d = interval_gap(q[i] as f64, low[i], high[i]);
        sum += (w[i] * d) * d;
    }
    sum
}

/// # Safety
///
/// The CPU must support SSE2; `effective` guarantees it before every dispatch.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn interval_mindist_sq_sse2(q: &[f32], low: &[f64], high: &[f64]) -> f64 {
    let n = q.len().min(low.len()).min(high.len());
    let zero = _mm_setzero_pd();
    let mut acc01 = _mm_setzero_pd();
    let mut acc23 = _mm_setzero_pd();
    let chunks = n / LANES;
    for c in 0..chunks {
        let i = c * LANES;
        // SAFETY: i + LANES <= n, which is min'ed over every slice length:
        // the 4-wide f32 load and the 2-wide f64 loads at i and i + 2 are
        // all in bounds.
        let qv = unsafe { _mm_loadu_ps(q.as_ptr().add(i)) };
        let q01 = _mm_cvtps_pd(qv);
        let q23 = _mm_cvtps_pd(_mm_movehl_ps(qv, qv));
        // SAFETY: as above — i + 3 < n <= low.len(), high.len().
        let (lo01, lo23, hi01, hi23) = unsafe {
            (
                _mm_loadu_pd(low.as_ptr().add(i)),
                _mm_loadu_pd(low.as_ptr().add(i + 2)),
                _mm_loadu_pd(high.as_ptr().add(i)),
                _mm_loadu_pd(high.as_ptr().add(i + 2)),
            )
        };
        let d01 = _mm_max_pd(
            _mm_max_pd(_mm_sub_pd(lo01, q01), _mm_sub_pd(q01, hi01)),
            zero,
        );
        let d23 = _mm_max_pd(
            _mm_max_pd(_mm_sub_pd(lo23, q23), _mm_sub_pd(q23, hi23)),
            zero,
        );
        acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
        acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
    }
    let mut sum = reduce_halves(acc01, acc23);
    for i in chunks * LANES..n {
        // SAFETY: i < n, which is min'ed over every slice length.
        let d = unsafe {
            interval_gap(
                *q.get_unchecked(i) as f64,
                *low.get_unchecked(i),
                *high.get_unchecked(i),
            )
        };
        sum += d * d;
    }
    sum
}

/// # Safety
///
/// The CPU must support SSE2; `effective` guarantees it before every dispatch.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn interval_mindist_weighted_sq_sse2(
    q: &[f32],
    low: &[f64],
    high: &[f64],
    w: &[f64],
) -> f64 {
    let n = q.len().min(low.len()).min(high.len()).min(w.len());
    let zero = _mm_setzero_pd();
    let mut acc01 = _mm_setzero_pd();
    let mut acc23 = _mm_setzero_pd();
    let chunks = n / LANES;
    for c in 0..chunks {
        let i = c * LANES;
        // SAFETY: i + LANES <= n, which is min'ed over every slice length:
        // the 4-wide f32 load and the 2-wide f64 loads at i and i + 2 are
        // all in bounds.
        let qv = unsafe { _mm_loadu_ps(q.as_ptr().add(i)) };
        let q01 = _mm_cvtps_pd(qv);
        let q23 = _mm_cvtps_pd(_mm_movehl_ps(qv, qv));
        // SAFETY: as above — i + 3 < n <= low.len(), high.len().
        let (lo01, lo23, hi01, hi23) = unsafe {
            (
                _mm_loadu_pd(low.as_ptr().add(i)),
                _mm_loadu_pd(low.as_ptr().add(i + 2)),
                _mm_loadu_pd(high.as_ptr().add(i)),
                _mm_loadu_pd(high.as_ptr().add(i + 2)),
            )
        };
        // SAFETY: i + 3 < n <= w.len().
        let (w01, w23) = unsafe {
            (
                _mm_loadu_pd(w.as_ptr().add(i)),
                _mm_loadu_pd(w.as_ptr().add(i + 2)),
            )
        };
        let d01 = _mm_max_pd(
            _mm_max_pd(_mm_sub_pd(lo01, q01), _mm_sub_pd(q01, hi01)),
            zero,
        );
        let d23 = _mm_max_pd(
            _mm_max_pd(_mm_sub_pd(lo23, q23), _mm_sub_pd(q23, hi23)),
            zero,
        );
        acc01 = _mm_add_pd(acc01, _mm_mul_pd(_mm_mul_pd(w01, d01), d01));
        acc23 = _mm_add_pd(acc23, _mm_mul_pd(_mm_mul_pd(w23, d23), d23));
    }
    let mut sum = reduce_halves(acc01, acc23);
    for i in chunks * LANES..n {
        // SAFETY: i < n, which is min'ed over every slice length
        // (w.len() included).
        let (d, wi) = unsafe {
            (
                interval_gap(
                    *q.get_unchecked(i) as f64,
                    *low.get_unchecked(i),
                    *high.get_unchecked(i),
                ),
                *w.get_unchecked(i),
            )
        };
        sum += wi * d * d;
    }
    sum
}

/// # Safety
///
/// The CPU must support AVX2; `effective` guarantees it before every dispatch.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn interval_mindist_sq_avx2(q: &[f32], low: &[f64], high: &[f64]) -> f64 {
    let n = q.len().min(low.len()).min(high.len());
    let zero = _mm256_setzero_pd();
    let mut acc = _mm256_setzero_pd();
    let chunks = n / LANES;
    for c in 0..chunks {
        let i = c * LANES;
        // SAFETY: i + LANES <= n, which is min'ed over every slice length:
        // the 4-wide loads are in bounds.
        let (qv, lo, hi) = unsafe {
            (
                _mm256_cvtps_pd(_mm_loadu_ps(q.as_ptr().add(i))),
                _mm256_loadu_pd(low.as_ptr().add(i)),
                _mm256_loadu_pd(high.as_ptr().add(i)),
            )
        };
        let d = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(lo, qv), _mm256_sub_pd(qv, hi)),
            zero,
        );
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    let mut sum = reduce256(acc);
    for i in chunks * LANES..n {
        // SAFETY: i < n, which is min'ed over every slice length.
        let d = unsafe {
            interval_gap(
                *q.get_unchecked(i) as f64,
                *low.get_unchecked(i),
                *high.get_unchecked(i),
            )
        };
        sum += d * d;
    }
    sum
}

/// # Safety
///
/// The CPU must support AVX2; `effective` guarantees it before every dispatch.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn interval_mindist_weighted_sq_avx2(
    q: &[f32],
    low: &[f64],
    high: &[f64],
    w: &[f64],
) -> f64 {
    let n = q.len().min(low.len()).min(high.len()).min(w.len());
    let zero = _mm256_setzero_pd();
    let mut acc = _mm256_setzero_pd();
    let chunks = n / LANES;
    for c in 0..chunks {
        let i = c * LANES;
        // SAFETY: i + LANES <= n, which is min'ed over every slice length:
        // the 4-wide loads are in bounds.
        let (qv, lo, hi) = unsafe {
            (
                _mm256_cvtps_pd(_mm_loadu_ps(q.as_ptr().add(i))),
                _mm256_loadu_pd(low.as_ptr().add(i)),
                _mm256_loadu_pd(high.as_ptr().add(i)),
            )
        };
        // SAFETY: i + LANES <= n <= w.len().
        let wv = unsafe { _mm256_loadu_pd(w.as_ptr().add(i)) };
        let d = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(lo, qv), _mm256_sub_pd(qv, hi)),
            zero,
        );
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_mul_pd(wv, d), d));
    }
    let mut sum = reduce256(acc);
    for i in chunks * LANES..n {
        // SAFETY: i < n, which is min'ed over every slice length
        // (w.len() included).
        let (d, wi) = unsafe {
            (
                interval_gap(
                    *q.get_unchecked(i) as f64,
                    *low.get_unchecked(i),
                    *high.get_unchecked(i),
                ),
                *w.get_unchecked(i),
            )
        };
        sum += wi * d * d;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_KERNELS: [Kernel; 3] = [Kernel::Portable, Kernel::Sse2, Kernel::Avx2];

    /// Deterministic pseudo-random `f32` in about `[-2, 2]`.
    fn lcg(state: &mut u64) -> f32 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) as f32 / (1u64 << 30) as f32) - 2.0
    }

    /// Random series of length `n`, with adversarial values sprinkled in:
    /// NaN, ±0.0, ±∞ and subnormals all exercise the bit-identity contract.
    fn adversarial_series(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|i| match (i + seed as usize) % 17 {
                3 => f32::NAN,
                5 => -0.0,
                7 => 0.0,
                9 => 1e-41, // subnormal
                11 => -1e-41,
                13 => f32::INFINITY,
                15 => f32::NEG_INFINITY,
                _ => lcg(&mut state),
            })
            .collect()
    }

    #[test]
    fn kernel_names_and_detection() {
        assert_eq!(Kernel::Portable.name(), "portable");
        assert_eq!(Kernel::Sse2.name(), "sse2");
        assert_eq!(Kernel::Avx2.name(), "avx2");
        // active_kernel is stable across calls (OnceLock).
        assert_eq!(active_kernel(), active_kernel());
        #[cfg(target_arch = "x86_64")]
        assert_ne!(detected_kernel(), Kernel::Portable, "SSE2 is baseline");
    }

    #[test]
    fn hydra_simd_request_resolution() {
        assert_eq!(kernel_for_request(Some("portable")), Kernel::Portable);
        assert_eq!(kernel_for_request(Some("PORTABLE")), Kernel::Portable);
        assert_eq!(kernel_for_request(Some("native")), detected_kernel());
        assert_eq!(kernel_for_request(None), detected_kernel());
        // Unknown values warn and fall back to native detection.
        assert_eq!(kernel_for_request(Some("avx512")), detected_kernel());
    }

    #[test]
    fn squared_euclidean_is_bit_identical_across_kernels() {
        // Lengths straddling the 4-lane and 8-block boundaries, plus longer
        // series; random values with adversarial ones mixed in.
        for n in [
            0usize, 1, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 63, 64, 65, 100, 256,
        ] {
            for seed in 0..4u64 {
                let a = adversarial_series(n, seed * 1031 + 7);
                let b = adversarial_series(n, seed * 2027 + 3);
                let oracle = squared_euclidean_with(Kernel::Portable, &a, &b);
                for kernel in ALL_KERNELS {
                    let got = squared_euclidean_with(kernel, &a, &b);
                    assert_eq!(
                        got.to_bits(),
                        oracle.to_bits(),
                        "kernel={kernel:?} n={n} seed={seed} got={got} oracle={oracle}"
                    );
                }
            }
        }
    }

    #[test]
    fn early_abandon_is_bit_identical_across_kernels() {
        for n in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 63, 64, 65, 130] {
            for seed in 0..4u64 {
                let a = adversarial_series(n, seed * 911 + 1);
                let b = adversarial_series(n, seed * 733 + 5);
                let full = squared_euclidean_with(Kernel::Portable, &a, &b);
                let thresholds = [
                    0.0,
                    1.0,
                    full * 0.25,
                    full,
                    full + 1.0,
                    f64::INFINITY,
                    f64::NAN,
                ];
                for &t in &thresholds {
                    let oracle = squared_euclidean_early_abandon_with(Kernel::Portable, &a, &b, t);
                    for kernel in ALL_KERNELS {
                        let got = squared_euclidean_early_abandon_with(kernel, &a, &b, t);
                        assert_eq!(
                            got.map(f64::to_bits),
                            oracle.map(f64::to_bits),
                            "kernel={kernel:?} n={n} seed={seed} t={t}"
                        );
                    }
                }
            }
        }
    }

    /// Satellite guarantee: a *stale* (looser-than-current) best-so-far can
    /// only make early abandoning less eager — the kernel still returns the
    /// exact full distance whenever it completes, bit-identical to the
    /// unbounded computation.
    #[test]
    fn early_abandon_with_stale_looser_threshold_is_exact() {
        let mut state = 99u64;
        for n in [8usize, 33, 64, 100] {
            let a: Vec<f32> = (0..n).map(|_| lcg(&mut state)).collect();
            let b: Vec<f32> = (0..n).map(|_| lcg(&mut state)).collect();
            let exact = squared_euclidean_with(Kernel::Portable, &a, &b);
            for slack in [0.0, 1e-12, 0.5, 10.0, 1e6] {
                let stale = exact * (1.0 + slack) + slack;
                for kernel in ALL_KERNELS {
                    let got = squared_euclidean_early_abandon_with(kernel, &a, &b, stale)
                        .expect("a threshold at or above the true distance never abandons");
                    assert_eq!(got.to_bits(), exact.to_bits(), "kernel={kernel:?} n={n}");
                }
            }
        }
    }

    /// The branch-free gap must match the scalar branch chain for every
    /// interval with `low <= high`, including open (±∞) edges and NaN
    /// queries.
    #[test]
    fn interval_gap_matches_the_branch_reference() {
        fn reference(q: f64, low: f64, high: f64) -> f64 {
            if q < low {
                low - q
            } else if q > high {
                q - high
            } else {
                0.0
            }
        }
        let edges = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            2.5,
            f64::INFINITY,
        ];
        let queries = [
            f64::NEG_INFINITY,
            -3.0,
            -2.5,
            -1.0,
            -0.0,
            0.0,
            1.0,
            2.5,
            7.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for &low in &edges {
            for &high in &edges {
                let ordered = low <= high;
                if !ordered {
                    continue;
                }
                for &q in &queries {
                    let got = interval_gap(q, low, high);
                    let want = reference(q, low, high);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "q={q} low={low} high={high} got={got} want={want}"
                    );
                }
            }
        }
    }

    #[test]
    fn interval_kernels_are_bit_identical_across_kernels() {
        let mut state = 5u64;
        for n in [0usize, 1, 3, 4, 5, 8, 15, 16, 17, 40] {
            for seed in 0..4u64 {
                let q = adversarial_series(n, seed * 389 + 11);
                let (mut low, mut high, mut w) = (Vec::new(), Vec::new(), Vec::new());
                for i in 0..n {
                    let a = lcg(&mut state) as f64;
                    let b = lcg(&mut state) as f64;
                    let (mut lo, mut hi) = if a <= b { (a, b) } else { (b, a) };
                    // Open edges on a deterministic subset of dimensions.
                    if i % 5 == 2 {
                        lo = f64::NEG_INFINITY;
                    }
                    if i % 7 == 3 {
                        hi = f64::INFINITY;
                    }
                    low.push(lo);
                    high.push(hi);
                    w.push((i % 3 + 1) as f64 * 1.5);
                }
                let oracle = interval_mindist_sq_with(Kernel::Portable, &q, &low, &high);
                let oracle_w =
                    interval_mindist_weighted_sq_with(Kernel::Portable, &q, &low, &high, &w);
                for kernel in ALL_KERNELS {
                    let got = interval_mindist_sq_with(kernel, &q, &low, &high);
                    assert_eq!(got.to_bits(), oracle.to_bits(), "kernel={kernel:?} n={n}");
                    let got_w = interval_mindist_weighted_sq_with(kernel, &q, &low, &high, &w);
                    assert_eq!(
                        got_w.to_bits(),
                        oracle_w.to_bits(),
                        "weighted kernel={kernel:?} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn interval_mindist_of_a_contained_query_is_zero() {
        let q = [0.5f32, -1.0, 2.0];
        let low = [0.0f64, -1.5, 1.0];
        let high = [1.0f64, 0.0, 3.0];
        for kernel in ALL_KERNELS {
            assert_eq!(interval_mindist_sq_with(kernel, &q, &low, &high), 0.0);
            let w = [2.0f64, 3.0, 4.0];
            assert_eq!(
                interval_mindist_weighted_sq_with(kernel, &q, &low, &high, &w),
                0.0
            );
        }
    }

    #[test]
    fn dispatched_entry_points_agree_with_the_active_kernel() {
        let a = adversarial_series(37, 1);
        let b = adversarial_series(37, 2);
        assert_eq!(
            squared_euclidean(&a, &b).to_bits(),
            squared_euclidean_with(active_kernel(), &a, &b).to_bits()
        );
        assert_eq!(
            squared_euclidean_early_abandon(&a, &b, 10.0).map(f64::to_bits),
            squared_euclidean_early_abandon_with(active_kernel(), &a, &b, 10.0).map(f64::to_bits)
        );
        let q = [0.5f32; 7];
        let low = [-1.0f64; 7];
        let high = [0.0f64; 7];
        let w = [2.0f64; 7];
        assert_eq!(
            interval_mindist_sq(&q, &low, &high).to_bits(),
            interval_mindist_sq_with(active_kernel(), &q, &low, &high).to_bits()
        );
        assert_eq!(
            interval_mindist_weighted_sq(&q, &low, &high, &w).to_bits(),
            interval_mindist_weighted_sq_with(active_kernel(), &q, &low, &high, &w).to_bits()
        );
    }

    #[test]
    fn prefetch_accepts_empty_ragged_and_unaligned_slices_and_changes_nothing() {
        let values = adversarial_series(3 * LINE_VALUES + 5, 4);
        let before: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        prefetch(&[]);
        prefetch(&values);
        prefetch(&values[..1]);
        prefetch(&values[3..3 + LINE_VALUES + 1]);
        prefetch(&values[values.len()..]);
        let after: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(after, before);
    }
}
