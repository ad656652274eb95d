//! Table-driven lower-bound sweeps over quantized summaries.
//!
//! ADS+ (SIMS step 1) and the VA+file (phase 1) bound the query against
//! *every* summary of the collection. Both bounds have the same shape: a sum
//! over dimensions of a term that depends only on the query's value in that
//! dimension and the candidate's symbol there. A [`BoundSweep`] therefore
//! evaluates each `(dimension, symbol)` term once per query into a table and
//! turns every candidate bound into `dims` lookups.
//!
//! # Order
//!
//! The lookups are accumulated in exactly the order of the
//! [`hydra_core::simd`] interval kernels: dimension `d` in lane `d % 4`,
//! lanes reduced as `(a0 + a1) + (a2 + a3)`, the ragged tail added
//! sequentially, then `sqrt`. Each table term is the kernel's own value for
//! that one dimension, so a swept bound is bit-identical to the per-pair
//! function it replaces
//! ([`SaxParams::mindist_paa_to_isax`](crate::sax::SaxParams::mindist_paa_to_isax),
//! [`VaPlusQuantizer::lower_bound`](crate::vaplus::VaPlusQuantizer::lower_bound)).
//!
//! # Block layout
//!
//! A whole collection's summaries live in a [`SummaryBlocks`] array:
//! segment-major blocks of [`BLOCK`] series, so one dimension of eight
//! series is eight adjacent `u16`s (MESSI's layout for SIMD lower bounds,
//! *Data Series Indexing Gone Parallel*). A block is swept with four
//! accumulators, one per `d % 4` lane, each holding the partial sums of the
//! block's eight series. Every series thus still adds its own terms in the
//! order above — the eight series only share instructions, never a sum — so
//! the block sweep keeps every bound's bits. On a CPU with AVX-512F (and any
//! dispatch tier but `Portable`) a block dimension is one 8-wide gather from
//! the table; otherwise the portable arm walks each series of the block in
//! turn. iSAX2+'s leaf entries stay row-major ([`BoundSweep::sweep_rows`]):
//! a leaf holds a few dozen words, too few to pay for blocking.
//!
//! Every row of the table is zero-padded to one power-of-16 width, compiled
//! in, so a lookup is a masked load with no per-dimension offset and no
//! bounds check; the paper's 16 dimensions are compiled in too, so that
//! loop unrolls with no per-dimension bounds check. The table only
//! pays when more lookups follow than it has entries (a 65 536-symbol
//! alphabet over a 300-series shard would spend longer filling it than
//! sweeping), so below that point the terms are computed directly from the
//! summaries, in the same order and to the same bits.

use hydra_core::simd::{self, Kernel};

/// Accumulator lanes of the `hydra_core::simd` interval kernels.
const LANES: usize = 4;

/// Series per block of a [`SummaryBlocks`] array: one 512-bit vector of
/// `f64` partial sums.
pub const BLOCK: usize = 8;

/// One dimension's squared-bound term for a symbol.
type Term<'a> = Box<dyn Fn(usize, u16) -> f64 + 'a>;

/// Calls `$arm::<W, D>(args)` with the sweep's row width `W` as a constant
/// and, for the paper's 16 dimensions, its dimension count `D` as well
/// (`D = 0` reads the count at run time).
macro_rules! monomorphised {
    ($width:expr, $dims:expr, $arm:ident($($arg:expr),*)) => {
        match ($width, $dims) {
            (16, 16) => $arm::<16, 16>($($arg),*),
            (16, _) => $arm::<16, 0>($($arg),*),
            (256, 16) => $arm::<256, 16>($($arg),*),
            (256, _) => $arm::<256, 0>($($arg),*),
            (4096, 16) => $arm::<4096, 16>($($arg),*),
            (4096, _) => $arm::<4096, 0>($($arg),*),
            (_, 16) => $arm::<65536, 16>($($arg),*),
            (_, _) => $arm::<65536, 0>($($arg),*),
        }
    };
}

/// A collection's `u16` summaries (`dims` symbols per series), segment-major
/// in blocks of [`BLOCK`] series: symbol `d` of series `i` sits at
/// `(i / BLOCK · dims + d) · BLOCK + i % BLOCK`. The last block is padded
/// with symbol 0, which every dimension has; a sweep bounds the padding and
/// drops it. The layout is in memory only: snapshots store the summaries
/// series by series.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SummaryBlocks {
    dims: usize,
    len: usize,
    symbols: Vec<u16>,
}

impl SummaryBlocks {
    /// An empty array of `dims`-symbol summaries with room for `series`.
    pub fn with_capacity(dims: usize, series: usize) -> Self {
        Self {
            dims,
            len: 0,
            symbols: Vec::with_capacity(series.div_ceil(BLOCK) * BLOCK * dims),
        }
    }

    /// `series` summaries of symbol 0, to be filled with [`SummaryBlocks::set`].
    pub fn zeroed(dims: usize, series: usize) -> Self {
        Self {
            dims,
            len: series,
            symbols: vec![0; series.div_ceil(BLOCK) * BLOCK * dims],
        }
    }

    /// Blocks the row-major `rows` (`dims` symbols per series, in order).
    pub fn from_rows(dims: usize, rows: &[u16]) -> Self {
        debug_assert_eq!(rows.len() % dims.max(1), 0);
        let mut blocks = Self::with_capacity(dims, rows.len() / dims.max(1));
        for word in rows.chunks_exact(dims.max(1)) {
            blocks.push(word);
        }
        blocks
    }

    /// Appends one series' summary.
    pub fn push(&mut self, word: &[u16]) {
        if self.len.is_multiple_of(BLOCK) {
            self.symbols
                .resize(self.symbols.len() + self.dims * BLOCK, 0);
        }
        self.len += 1;
        self.set(self.len - 1, word);
    }

    /// Overwrites series `series`' summary with `word`.
    pub fn set(&mut self, series: usize, word: &[u16]) {
        assert_eq!(word.len(), self.dims, "summary of the wrong length");
        assert!(series < self.len, "series {series} out of {}", self.len);
        let base = series / BLOCK * self.dims * BLOCK + series % BLOCK;
        for (d, &symbol) in word.iter().enumerate() {
            self.symbols[base + d * BLOCK] = symbol;
        }
    }

    /// Symbol `d` of series `series`.
    #[inline]
    pub fn symbol(&self, series: usize, d: usize) -> u16 {
        self.symbols[(series / BLOCK * self.dims + d) * BLOCK + series % BLOCK]
    }

    /// Series `series`' summary, dimension by dimension.
    pub fn word(&self, series: usize) -> impl Iterator<Item = u16> + '_ {
        (0..self.dims).map(move |d| self.symbol(series, d))
    }

    /// Symbols per summary.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of summaries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array holds no summary.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One query's lower-bound evaluator over `u16` summaries (`dims` symbols
/// per series).
pub struct BoundSweep<'a> {
    dims: usize,
    /// Row width: the largest cardinality rounded up to a power of 16, so
    /// every lookup runs through one of four compiled row widths.
    width: usize,
    /// `terms[d * width + symbol]`, every row zero-padded to `width`; empty
    /// when bounds are computed directly.
    terms: Vec<f64>,
    term: Term<'a>,
}

impl<'a> BoundSweep<'a> {
    /// Prepares a sweep over `rows` summaries whose dimension `d` takes
    /// symbols in `0..cardinalities[d]`. `term(d, symbol)` is that pair's
    /// contribution to the squared bound.
    pub fn new(
        cardinalities: impl IntoIterator<Item = usize>,
        rows: usize,
        term: impl Fn(usize, u16) -> f64 + 'a,
    ) -> Self {
        let cardinalities: Vec<usize> = cardinalities.into_iter().collect();
        let dims = cardinalities.len();
        let widest = cardinalities.iter().copied().max().unwrap_or(1);
        let width = [16, 256, 4096]
            .into_iter()
            .find(|&w| widest <= w)
            .unwrap_or(1 << 16);
        let mut terms = Vec::new();
        if cardinalities.iter().sum::<usize>() <= rows.saturating_mul(dims) {
            // A zero term is a valid (if loose) bound for any symbol, so the
            // padding can never make a bound unsafe.
            terms = vec![0.0; dims * width];
            for (d, (row, &cardinality)) in terms
                .chunks_exact_mut(width)
                .zip(&cardinalities)
                .enumerate()
            {
                for (symbol, slot) in row[..cardinality].iter_mut().enumerate() {
                    *slot = term(d, symbol as u16);
                }
            }
        }
        Self {
            dims,
            width,
            terms,
            term: Box::new(term),
        }
    }

    /// Symbols per summary.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Sweeps `summaries` on the process-wide [`simd::active_kernel`] and
    /// leaves the bounds, one per summary, in `bounds`. Every symbol must be
    /// inside its dimension's cardinality (builders guarantee it, snapshot
    /// loaders check it): the table is indexed by it.
    pub fn sweep(&self, summaries: &SummaryBlocks, bounds: &mut Vec<f64>) {
        self.sweep_with(simd::active_kernel(), summaries, bounds);
    }

    /// [`BoundSweep::sweep`] on an explicit dispatch tier: any tier but
    /// [`Kernel::Portable`] takes the AVX-512F gather arm where the CPU has
    /// it. Both arms yield the same bits.
    pub fn sweep_with(&self, kernel: Kernel, summaries: &SummaryBlocks, bounds: &mut Vec<f64>) {
        debug_assert_eq!(summaries.dims, self.dims);
        bounds.clear();
        if self.terms.is_empty() {
            bounds.extend(
                (0..summaries.len)
                    .map(|i| accumulate_with(self.dims, |d| summaries.symbol(i, d), &self.term)),
            );
            return;
        }
        bounds.resize(summaries.len.div_ceil(BLOCK) * BLOCK, 0.0);
        let (dims, symbols, terms) = (self.dims, &summaries.symbols, &self.terms);
        let out = &mut bounds[..];
        #[cfg(target_arch = "x86_64")]
        if kernel != Kernel::Portable && gathers_available() {
            // SAFETY: `gathers_available` found AVX2 and AVX-512F on this CPU.
            unsafe { monomorphised!(self.width, dims, blocks_avx512(dims, symbols, terms, out)) };
            bounds.truncate(summaries.len);
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = kernel;
        monomorphised!(self.width, dims, blocks_portable(dims, symbols, terms, out));
        bounds.truncate(summaries.len);
    }

    /// Sweeps the row-major `words` (`dims` symbols each, in order) and
    /// leaves their bounds in `bounds`, with the portable arm.
    pub fn sweep_rows(&self, words: &[u16], bounds: &mut Vec<f64>) {
        debug_assert_eq!(words.len() % self.dims.max(1), 0);
        bounds.clear();
        if self.terms.is_empty() {
            let words = words.chunks_exact(self.dims.max(1));
            bounds.extend(words.map(|word| accumulate(word, &self.term)));
            return;
        }
        bounds.resize(words.len() / self.dims, 0.0);
        let (dims, terms, out) = (self.dims, &self.terms, &mut bounds[..]);
        monomorphised!(self.width, dims, rows_portable(dims, words, terms, out));
    }
}

/// The dimension count an arm runs with: `D` when compiled in.
#[inline(always)]
const fn dims_of<const D: usize>(dims: usize) -> usize {
    if D == 0 {
        dims
    } else {
        D
    }
}

/// The sqrt of the summed table terms of one summary, `symbol(d)` giving its
/// symbol in dimension `d`, in the interval kernels' order. With `W` a power
/// of two known at compile time, `symbol & (W - 1)` is provably inside its
/// row: a lookup is one masked load, with no offset arithmetic and no bounds
/// check.
#[inline(always)]
fn lookup<const W: usize>(dims: usize, symbol: impl Fn(usize) -> u16, terms: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut groups = terms[..dims * W].chunks_exact(LANES * W);
    for (g, rows) in (&mut groups).enumerate() {
        for (lane, slot) in acc.iter_mut().enumerate() {
            *slot += rows[lane * W + (symbol(g * LANES + lane) as usize & (W - 1))];
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let tail = dims - dims % LANES;
    for (i, row) in groups.remainder().chunks_exact(W).enumerate() {
        sum += row[symbol(tail + i) as usize & (W - 1)];
    }
    sum.sqrt()
}

/// The portable block arm: each series of a block in turn, its symbols
/// `BLOCK` apart. Writes a bound per series, padding included.
fn blocks_portable<const W: usize, const D: usize>(
    dims: usize,
    symbols: &[u16],
    terms: &[f64],
    bounds: &mut [f64],
) {
    let dims = dims_of::<D>(dims);
    for (block, out) in symbols
        .chunks_exact(dims * BLOCK)
        .zip(bounds.chunks_exact_mut(BLOCK))
    {
        let (block, _) = block.as_chunks::<BLOCK>();
        for (j, bound) in out.iter_mut().enumerate() {
            *bound = lookup::<W>(dims, |d| block[d][j], terms);
        }
    }
}

/// The row-major arm: one summary after another.
fn rows_portable<const W: usize, const D: usize>(
    dims: usize,
    words: &[u16],
    terms: &[f64],
    bounds: &mut [f64],
) {
    let dims = dims_of::<D>(dims);
    for (word, bound) in words.chunks_exact(dims).zip(bounds) {
        *bound = lookup::<W>(dims, |d| word[d], terms);
    }
}

/// Whether this CPU runs the gather arm.
#[cfg(target_arch = "x86_64")]
fn gathers_available() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("avx512f")
}

/// The AVX-512F block arm: a block dimension is one gather of its eight
/// series' terms into the `d % 4` accumulator, so each of the eight vector
/// lanes adds exactly the terms, in exactly the order, that
/// [`lookup`] adds for that series; `vsqrtpd` rounds like `f64::sqrt`.
///
/// # Safety
///
/// The CPU must support AVX2 and AVX-512F ([`gathers_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f")]
unsafe fn blocks_avx512<const W: usize, const D: usize>(
    dims: usize,
    symbols: &[u16],
    terms: &[f64],
    bounds: &mut [f64],
) {
    use std::arch::x86_64::*;
    let dims = dims_of::<D>(dims);
    let terms = &terms[..dims * W];
    let mask = _mm256_set1_epi32((W - 1) as i32);
    let tail = dims - dims % LANES;
    for (block, out) in symbols
        .chunks_exact(dims * BLOCK)
        .zip(bounds.chunks_exact_mut(BLOCK))
    {
        let (block, _) = block.as_chunks::<BLOCK>();
        // The eight series' terms of dimension `d`.
        let gather = |d: usize| {
            // SAFETY: `block[d]` is eight `u16`s, one 128-bit load.
            let symbols = unsafe { _mm_loadu_si128(block[d].as_ptr().cast()) };
            let index = _mm256_and_si256(_mm256_cvtepu16_epi32(symbols), mask);
            // SAFETY: `d < dims`, so row `d` is `W` terms inside `terms`,
            // and every index is masked below `W`.
            unsafe { _mm512_i32gather_pd::<8>(index, terms.as_ptr().add(d * W)) }
        };
        let mut acc = [_mm512_setzero_pd(); LANES];
        for g in (0..tail).step_by(LANES) {
            for (lane, slot) in acc.iter_mut().enumerate() {
                *slot = _mm512_add_pd(*slot, gather(g + lane));
            }
        }
        let mut sum = _mm512_add_pd(_mm512_add_pd(acc[0], acc[1]), _mm512_add_pd(acc[2], acc[3]));
        for d in tail..dims {
            sum = _mm512_add_pd(sum, gather(d));
        }
        // SAFETY: `out` is `BLOCK` = 8 `f64`s, one 512-bit store.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), _mm512_sqrt_pd(sum)) };
    }
}

/// `sqrt` of the sum of `term(i, word[i])`, in the interval kernels' order.
#[inline(always)]
pub(crate) fn accumulate(word: &[u16], term: impl Fn(usize, u16) -> f64) -> f64 {
    accumulate_with(word.len(), |d| word[d], term)
}

/// [`accumulate`] over the `dims` symbols `symbol(d)`.
#[inline(always)]
fn accumulate_with(
    dims: usize,
    symbol: impl Fn(usize) -> u16,
    term: impl Fn(usize, u16) -> f64,
) -> f64 {
    let mut acc = [0.0f64; LANES];
    let tail = dims - dims % LANES;
    for g in (0..tail).step_by(LANES) {
        for (lane, slot) in acc.iter_mut().enumerate() {
            *slot += term(g + lane, symbol(g + lane));
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for d in tail..dims {
        sum += term(d, symbol(d));
    }
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(d: usize, symbol: u16) -> f64 {
        (d as f64 + 1.0) * 0.1 + symbol as f64 * 0.37
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The portable block arm, then the gather arm where the CPU has it.
    const ARMS: [Kernel; 2] = [Kernel::Portable, Kernel::Avx2];

    #[test]
    fn table_and_direct_paths_agree_bit_for_bit_at_any_thread_count() {
        // Every arm (both block arms and the row-major one), every row
        // width (16, 256, 4096, 65536), ragged per-dimension cardinalities,
        // dimension counts with and without a ragged tail (and the
        // compiled-in 16), and collections ending in a whole or a ragged
        // block.
        for widest in [8usize, 200, 3000, 40_000] {
            for dims in [1usize, 4, 6, 16] {
                let cardinalities: Vec<usize> =
                    (0..dims).map(|d| (widest >> (d % 3)).max(1)).collect();
                for rows in [0usize, 1, 7, 8, 9, 50 + widest] {
                    let summaries: Vec<u16> = (0..rows * dims)
                        .map(|i| (i * 7919 % cardinalities[i % dims]) as u16)
                        .collect();
                    let blocks = SummaryBlocks::from_rows(dims, &summaries);
                    assert_eq!(blocks.len(), rows);
                    // Enough rows that every entry is looked up: tabulated.
                    let table = BoundSweep::new(cardinalities.iter().copied(), usize::MAX, term);
                    assert!(!table.terms.is_empty());
                    // One row only: fewer lookups than entries, computed
                    // directly.
                    let direct = BoundSweep::new(cardinalities.iter().copied(), 1, term);
                    assert!(direct.terms.is_empty());
                    let mut expected = Vec::new();
                    direct.sweep_rows(&summaries, &mut expected);
                    assert_eq!(expected.len(), rows);
                    let label = format!("widest={widest} dims={dims} rows={rows}");
                    let mut got = vec![f64::NAN; 3];
                    table.sweep_rows(&summaries, &mut got);
                    assert_eq!(bits(&got), bits(&expected), "rows arm {label}");
                    for sweep in [&table, &direct] {
                        for kernel in ARMS {
                            sweep.sweep_with(kernel, &blocks, &mut got);
                            assert_eq!(bits(&got), bits(&expected), "{kernel:?} {label}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocks_hold_each_series_word_segment_major() {
        let dims = 3;
        let rows: Vec<u16> = (0..10 * dims as u16).collect();
        let blocks = SummaryBlocks::from_rows(dims, &rows);
        assert_eq!((blocks.len(), blocks.dims()), (10, dims));
        // Two blocks of 8, the second padded with symbol 0.
        assert_eq!(blocks.symbols.len(), 2 * BLOCK * dims);
        assert_eq!(&blocks.symbols[..BLOCK], &[0, 3, 6, 9, 12, 15, 18, 21]);
        for (i, word) in rows.chunks_exact(dims).enumerate() {
            assert_eq!(blocks.word(i).collect::<Vec<_>>(), word);
        }
        let mut set = SummaryBlocks::zeroed(dims, 10);
        for (i, word) in rows.chunks_exact(dims).enumerate().rev() {
            set.set(i, word);
        }
        assert_eq!(set, blocks);
    }

    #[test]
    fn accumulation_follows_the_four_lane_order() {
        // Terms chosen so that a different association changes the result.
        let values = [1e16, 1.0, -1e16, 1.0, 3.0, 5.0];
        let lanes: f64 = (1e16 + 1.0) + (-1e16 + 1.0);
        let expected = ((lanes + 3.0) + 5.0).sqrt();
        let blocks = SummaryBlocks::from_rows(6, &[0; 6 * 9]);
        for rows in [1, usize::MAX] {
            let sweep = BoundSweep::new([1usize; 6], rows, |d, _| values[d]);
            let mut bound = Vec::new();
            sweep.sweep_rows(&[0; 6], &mut bound);
            assert_eq!(bits(&bound), [expected.to_bits()]);
            for kernel in ARMS {
                sweep.sweep_with(kernel, &blocks, &mut bound);
                assert_eq!(bits(&bound), [expected.to_bits(); 9], "{kernel:?}");
            }
        }
    }

    #[test]
    fn empty_inputs_sweep_to_nothing() {
        let sweep = BoundSweep::new([4usize, 4], 0, term);
        let mut bounds = vec![1.0];
        sweep.sweep_rows(&[], &mut bounds);
        assert!(bounds.is_empty());
        bounds.push(1.0);
        sweep.sweep(&SummaryBlocks::with_capacity(2, 0), &mut bounds);
        assert!(bounds.is_empty());
        let no_dims = BoundSweep::new(std::iter::empty(), 10, term);
        no_dims.sweep_rows(&[], &mut bounds);
        assert!(bounds.is_empty());
    }
}
