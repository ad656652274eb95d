//! Table-driven lower-bound sweeps over quantized summaries.
//!
//! The VA+file (phase 1) bounds the query against *every* summary of the
//! collection, and ADS+ bounds those its coarse pass (below) cannot rule
//! out — all of them, in one sweep, once they are many. Both bounds have
//! the same shape: a sum
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
//!
//! # Coarse pass
//!
//! ADS+'s SIMS first bounds every series at a lower resolution
//! ([`CoarsePass`]): the top [`COARSE_BITS`] bits of each symbol, as `u8`,
//! in a [`CoarseBlocks`] array — segment-major blocks of [`COARSE_BLOCK`]
//! series, so one dimension of 64 series is one 512-bit vector. Per query,
//! each dimension's 64 coarse terms are quantized to `u8` units at a scale
//! and summed in `u16` ([`CoarseArm`]): on a CPU with AVX-512 VBMI (any tier
//! but `Portable`) one `vpermb` looks a block dimension's 64 units up from a
//! table row held in a register; on one with AVX2 only, four `vpshufb`
//! lookups into the row's 16-byte quarters and three blends do it for 32
//! series; elsewhere a portable arm looks them up one by one. Every arm
//! produces the same integer sums.
//!
//! The sums are lower bounds of the squared full bound, in units: a coarse
//! symbol's interval contains its full symbols' intervals, so its term is
//! no larger, bit for bit; each term is quantized *down*
//! (`floor(term · scale)`, clamped at 255, a NaN term to 0), and rounding a
//! non-negative product down or clamping it only lowers it. A series whose
//! full bound is at most a threshold `t` therefore sums to at most
//! `t² · scale` units ([`CoarsePass::limit`], which widens that by
//! [`COARSE_SLACK`] for the rounding of `t²` and of the full bound's sum),
//! and every series above the limit is ruled out without its full bound.

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

    /// The bound of series `series` of `summaries` alone: the bits of its
    /// slot of [`BoundSweep::sweep`].
    pub fn bound(&self, summaries: &SummaryBlocks, series: usize) -> f64 {
        debug_assert_eq!(summaries.dims, self.dims);
        let (dims, lane) = (self.dims, series % BLOCK);
        let block = &summaries.symbols[series / BLOCK * dims * BLOCK..][..dims * BLOCK];
        let (rows, _) = block.as_chunks::<BLOCK>();
        if self.terms.is_empty() {
            return accumulate_with(dims, |d| rows[d][lane], &self.term);
        }
        monomorphised!(self.width, dims, bound_of(dims, rows, lane, &self.terms))
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

/// One series' bound: lane `lane` of the block `rows`.
#[inline(always)]
fn bound_of<const W: usize, const D: usize>(
    dims: usize,
    rows: &[[u16; BLOCK]],
    lane: usize,
    terms: &[f64],
) -> f64 {
    let dims = dims_of::<D>(dims);
    let rows = &rows[..dims];
    lookup::<W>(dims, |d| rows[d][lane], terms)
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

/// Bits of a coarse symbol: one 64-byte `vpermb` table row per dimension.
pub const COARSE_BITS: u8 = 6;

/// Series per block of a [`CoarseBlocks`] array: one 512-bit vector of `u8`
/// symbols.
pub const COARSE_BLOCK: usize = 64;

/// Relative slack on every comparison of a coarse sum against a threshold,
/// as on the trees' entry prunes: it covers the rounding of the quantized
/// terms, of the threshold's square and of the full bound's `f64` sum.
pub const COARSE_SLACK: f64 = 1.0 / (1u64 << 20) as f64;

/// Units a threshold is mapped to by [`CoarsePass::scale_for`], per
/// dimension (1 024 for the paper's 16 segments).
const TARGET_UNITS_PER_DIM: f64 = 64.0;

/// [`CoarsePass::provisional`]'s threshold squared is the expected squared
/// coarse bound over this.
const PROVISIONAL_SHARE: f64 = 3.0;

/// The largest scale [`CoarsePass::scale_for`] picks: a threshold of 0 maps
/// every term of at least `2⁻⁶⁰⁰` to a whole unit.
const MAX_SCALE: f64 = f64::from_bits((1023 + 600) << 52);

/// A collection's coarse symbols — the top [`COARSE_BITS`] bits of each
/// `u16` summary symbol, as `u8` — segment-major in blocks of
/// [`COARSE_BLOCK`] series: symbol `d` of series `i` sits at
/// `(i / 64 · dims + d) · 64 + i % 64`, the last block padded with symbol 0.
/// In memory only: it is derived from the summaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoarseBlocks {
    dims: usize,
    len: usize,
    symbols: Vec<u8>,
}

impl CoarseBlocks {
    /// The coarse array of `summaries`, whose symbols become `symbol >>
    /// shift`; every result must fit [`COARSE_BITS`] bits.
    pub fn new(summaries: &SummaryBlocks, shift: u32) -> Self {
        let (dims, len) = (summaries.dims, summaries.len);
        let mut symbols = vec![0u8; len.div_ceil(COARSE_BLOCK) * COARSE_BLOCK * dims];
        for series in 0..len {
            let base = series / COARSE_BLOCK * dims * COARSE_BLOCK + series % COARSE_BLOCK;
            for (d, symbol) in summaries.word(series).enumerate() {
                let coarse = symbol >> shift;
                debug_assert!(coarse < 1 << COARSE_BITS, "coarse symbol {coarse}");
                symbols[base + d * COARSE_BLOCK] = coarse as u8;
            }
        }
        Self { dims, len, symbols }
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array holds no series.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One query's coarse lower bound: per dimension, the 64 squared-bound terms
/// of the coarse symbols, quantized down to `u8` units at a scale and summed
/// in `u16`. `units / scale` never exceeds the full-resolution squared
/// bound (beyond [`COARSE_SLACK`]): a coarse symbol's interval holds its
/// full symbols' intervals, so its term is no larger, and rounding a
/// product down and clamping it only lowers it.
#[derive(Clone, Debug)]
pub struct CoarsePass {
    dims: usize,
    /// Coarse symbols per dimension.
    cardinality: usize,
    /// `terms[d * 64 + symbol]`, zero past the coarse cardinality.
    terms: Vec<f64>,
    /// `terms` at `scale`, as units.
    table: Vec<u8>,
    scale: f64,
}

impl CoarsePass {
    /// A pass over `dims` dimensions whose coarse symbols take values in
    /// `0..cardinality` (at most 64); `term(d, symbol)` is that pair's
    /// contribution to the squared bound. The table is quantized at scale 0
    /// until [`CoarsePass::quantize`] sets one.
    pub fn new(dims: usize, cardinality: usize, term: impl Fn(usize, u8) -> f64) -> Self {
        debug_assert!(cardinality <= COARSE_BLOCK);
        let mut terms = vec![0.0; dims * COARSE_BLOCK];
        for (d, row) in terms.chunks_exact_mut(COARSE_BLOCK).enumerate() {
            for (symbol, slot) in row[..cardinality].iter_mut().enumerate() {
                *slot = term(d, symbol as u8);
            }
        }
        Self {
            dims,
            cardinality,
            table: vec![0; terms.len()],
            terms,
            scale: 0.0,
        }
    }

    /// Dimensions per summary.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The scale the table was last quantized at.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The largest unit count of one dimension: 255, or less where `dims`
    /// of them would overflow a `u16` sum.
    fn cap(&self) -> u8 {
        (usize::from(u16::MAX) / self.dims.max(1)).min(255) as u8
    }

    /// The scale that maps the squared `threshold` to about 64 units per
    /// dimension: the largest scale for a threshold of 0, and 0 (every
    /// term 0 units) for an infinite or NaN one.
    pub fn scale_for(&self, threshold: f64) -> f64 {
        let units = TARGET_UNITS_PER_DIM * self.dims as f64;
        let scale = units / (threshold * threshold);
        if scale.is_nan() {
            0.0
        } else {
            scale.min(MAX_SCALE)
        }
    }

    /// A first threshold to scale a pass by before any full bound is known:
    /// the square root of a third of the expected squared coarse bound of a
    /// word whose symbols are uniform over the coarse alphabet (as N(0, 1)
    /// values are under SAX's equiprobable breakpoints). On random-walk
    /// shards the `2k`-th smallest full bound mostly lands within the range
    /// this scale resolves, so the seed certification needs one pass.
    pub fn provisional(&self) -> f64 {
        let expected: f64 = self.terms.iter().sum::<f64>() / self.cardinality as f64;
        (expected / PROVISIONAL_SHARE).sqrt()
    }

    /// Re-quantizes the table at `scale`: each term becomes
    /// `floor(term · scale)` units, clamped at the cap, a NaN term 0.
    pub fn quantize(&mut self, scale: f64) {
        let cap = self.cap();
        self.scale = scale;
        for (slot, &term) in self.table.iter_mut().zip(&self.terms) {
            // `as` truncates toward 0, saturates at 255 and sends NaN to 0.
            *slot = ((term * scale) as u8).min(cap);
        }
    }

    /// The largest coarse sum, at the current scale, of a series whose
    /// full bound is at most `threshold`: `threshold² · scale`, widened by
    /// [`COARSE_SLACK`] and rounded down. An infinite or NaN threshold
    /// admits every sum.
    pub fn limit(&self, threshold: f64) -> u16 {
        let squared = threshold * threshold;
        if squared.is_nan() || squared == f64::INFINITY {
            return u16::MAX;
        }
        let units = squared * self.scale * (1.0 + COARSE_SLACK);
        if units >= f64::from(u16::MAX) {
            u16::MAX
        } else {
            units as u16
        }
    }

    /// The units of coarse symbol `symbol` in dimension `d` at the current
    /// scale.
    pub fn units(&self, d: usize, symbol: u8) -> u8 {
        self.table[d * COARSE_BLOCK + usize::from(symbol)]
    }

    /// The coarse sums of every series of `blocks`, on the arm the
    /// process-wide [`simd::active_kernel`] picks, into `sums`.
    pub fn sums(&self, blocks: &CoarseBlocks, sums: &mut Vec<u16>) {
        self.sums_with(CoarseArm::for_kernel(simd::active_kernel()), blocks, sums);
    }

    /// [`CoarsePass::sums`] on an explicit arm, which this CPU must run
    /// ([`CoarseArm::is_available`]). Every arm yields the same sums.
    pub fn sums_with(&self, arm: CoarseArm, blocks: &CoarseBlocks, sums: &mut Vec<u16>) {
        assert!(arm.is_available(), "{arm:?} coarse arm on a CPU without it");
        debug_assert_eq!(blocks.dims, self.dims);
        sums.clear();
        sums.resize(blocks.len.div_ceil(COARSE_BLOCK) * COARSE_BLOCK, 0);
        let (dims, symbols, table) = (self.dims, &blocks.symbols[..], &self.table[..]);
        let out = &mut sums[..];
        match arm {
            CoarseArm::Portable => match dims {
                16 => coarse_portable::<16>(dims, symbols, table, out),
                _ => coarse_portable::<0>(dims, symbols, table, out),
            },
            // SAFETY: `is_available` found AVX2 on this CPU.
            #[cfg(target_arch = "x86_64")]
            CoarseArm::Shuffle => unsafe {
                match dims {
                    16 => coarse_shuffle::<16>(dims, symbols, table, out),
                    _ => coarse_shuffle::<0>(dims, symbols, table, out),
                }
            },
            // SAFETY: `is_available` found AVX-512F, BW and VBMI on this CPU.
            #[cfg(target_arch = "x86_64")]
            CoarseArm::Permute => unsafe {
                match dims {
                    16 => coarse_vbmi::<16>(dims, symbols, table, out),
                    _ => coarse_vbmi::<0>(dims, symbols, table, out),
                }
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("checked by is_available"),
        }
        sums.truncate(blocks.len);
    }
}

/// An arm of [`CoarsePass::sums_with`]. Every arm yields the same integer
/// sums.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoarseArm {
    /// A scalar lookup per series and dimension, on every CPU.
    Portable,
    /// AVX2: a 64-byte table row as four 16-byte `vpshufb` lookups,
    /// blended by each symbol's top two bits, 32 series at a time.
    Shuffle,
    /// AVX-512 VBMI: one `vpermb` per block dimension.
    Permute,
}

impl CoarseArm {
    /// The fastest arm this CPU runs on dispatch tier `kernel`: any tier but
    /// [`Kernel::Portable`] takes a vector arm where the CPU has one.
    pub fn for_kernel(kernel: Kernel) -> Self {
        match kernel {
            Kernel::Portable => Self::Portable,
            _ => [Self::Permute, Self::Shuffle]
                .into_iter()
                .find(|arm| arm.is_available())
                .unwrap_or(Self::Portable),
        }
    }

    /// Whether this CPU runs the arm.
    pub fn is_available(self) -> bool {
        match self {
            Self::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Self::Shuffle => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Self::Permute => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vbmi")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every arm this CPU runs, slowest first.
    pub fn available() -> Vec<Self> {
        [Self::Portable, Self::Shuffle, Self::Permute]
            .into_iter()
            .filter(|arm| arm.is_available())
            .collect()
    }
}

/// The portable coarse arm: each series of a block summed in a register,
/// one dimension's lookup after another (1.6× faster on one AVX-512 host
/// than adding each dimension's 64 lookups into the block's sums in
/// memory).
fn coarse_portable<const D: usize>(dims: usize, symbols: &[u8], table: &[u8], sums: &mut [u16]) {
    let dims = dims_of::<D>(dims);
    let (table, _) = table.as_chunks::<COARSE_BLOCK>();
    let table = &table[..dims];
    for (block, out) in symbols
        .chunks_exact(dims * COARSE_BLOCK)
        .zip(sums.chunks_exact_mut(COARSE_BLOCK))
    {
        let (block, _) = block.as_chunks::<COARSE_BLOCK>();
        for (lane, sum) in out.iter_mut().enumerate() {
            *sum = (table.iter().zip(block))
                .map(|(row, symbols)| u16::from(row[usize::from(symbols[lane]) % COARSE_BLOCK]))
                .sum();
        }
    }
}

/// The AVX2 coarse arm: each 32-series half of a block dimension looks its
/// units up in the four 16-byte quarters of the dimension's table row (one
/// `vpshufb` apiece, by the symbols' low four bits), and two rounds of
/// `vpblendvb` keep, per symbol, the quarter its bits 4 and 5 name. The
/// even and odd bytes go into two `u16` accumulators, as in the VBMI arm,
/// interleaved back into series order once per block.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn coarse_shuffle<const D: usize>(
    dims: usize,
    symbols: &[u8],
    table: &[u8],
    sums: &mut [u16],
) {
    use std::arch::x86_64::*;
    const HALF: usize = COARSE_BLOCK / 2;
    let dims = dims_of::<D>(dims);
    let (table, _) = table.as_chunks::<COARSE_BLOCK>();
    let table = &table[..dims];
    let (low_nibble, low_bytes) = (_mm256_set1_epi8(0x0F), _mm256_set1_epi16(0xFF));
    for (block, out) in symbols
        .chunks_exact(dims * COARSE_BLOCK)
        .zip(sums.chunks_exact_mut(COARSE_BLOCK))
    {
        let (block, _) = block.as_chunks::<COARSE_BLOCK>();
        // Per half: the even series' sums, then the odd series'.
        let mut acc = [[_mm256_setzero_si256(); 2]; 2];
        for (row, symbols) in table.iter().zip(block) {
            let (quarters, _) = row.as_chunks::<16>();
            // Quarter `q` in both 128-bit lanes: `vpshufb` looks up within
            // a lane.
            let quarter = |q: usize| {
                // SAFETY: a quarter is 16 bytes, one 128-bit load.
                let quarter = unsafe { _mm_loadu_si128(quarters[q].as_ptr().cast()) };
                _mm256_broadcastsi128_si256(quarter)
            };
            let quarters = [quarter(0), quarter(1), quarter(2), quarter(3)];
            for (acc, half) in acc.iter_mut().zip(symbols.as_chunks::<HALF>().0) {
                // SAFETY: `half` is 32 bytes, one 256-bit load.
                let symbols = unsafe { _mm256_loadu_si256(half.as_ptr().cast()) };
                let slot = _mm256_and_si256(symbols, low_nibble);
                let pick = |q: usize| _mm256_shuffle_epi8(quarters[q], slot);
                // `vpblendvb` tests each byte's top bit: shifted up by 3 (by
                // 2), a 16-bit lane moves each byte's bit 4 (bit 5) there.
                let (bit4, bit5) = (
                    _mm256_slli_epi16::<3>(symbols),
                    _mm256_slli_epi16::<2>(symbols),
                );
                let low = _mm256_blendv_epi8(pick(0), pick(1), bit4);
                let high = _mm256_blendv_epi8(pick(2), pick(3), bit4);
                let units = _mm256_blendv_epi8(low, high, bit5);
                acc[0] = _mm256_add_epi16(acc[0], _mm256_and_si256(units, low_bytes));
                acc[1] = _mm256_add_epi16(acc[1], _mm256_srli_epi16::<8>(units));
            }
        }
        for (&[even, odd], out) in acc.iter().zip(out.as_chunks_mut::<HALF>().0) {
            // `low` holds series 0–7 and 16–23 of the half, `high` 8–15
            // and 24–31.
            let (low, high) = (
                _mm256_unpacklo_epi16(even, odd),
                _mm256_unpackhi_epi16(even, odd),
            );
            let out = out.as_mut_ptr();
            // SAFETY: `out` is 32 `u16`s, two 256-bit stores.
            unsafe {
                _mm256_storeu_si256(out.cast(), _mm256_permute2x128_si256::<0x20>(low, high));
                _mm256_storeu_si256(
                    out.add(16).cast(),
                    _mm256_permute2x128_si256::<0x31>(low, high),
                );
            }
        }
    }
}

/// The AVX-512 VBMI coarse arm: a block dimension is one `vpermb` of its 64
/// symbols through that dimension's 64-byte table row. The even and odd
/// bytes of the result are added into two `u16` accumulators (series `2j`
/// and `2j + 1` in lane `j`), interleaved back into series order once per
/// block. Integer sums: the same as the portable arm's in any order.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX-512BW and AVX-512VBMI
/// ([`CoarseArm::Permute`]'s [`CoarseArm::is_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn coarse_vbmi<const D: usize>(dims: usize, symbols: &[u8], table: &[u8], sums: &mut [u16]) {
    use std::arch::x86_64::*;
    let dims = dims_of::<D>(dims);
    let (table, _) = table.as_chunks::<COARSE_BLOCK>();
    let table = &table[..dims];
    let low_bytes = _mm512_set1_epi16(0xFF);
    // Lane `j` of the result takes lane `j / 2` of the even sums (`j` even)
    // or of the odd sums (bit 5 set: the second source).
    let interleave = |half: i16| {
        let mut index = [0i16; 32];
        for (j, slot) in index.iter_mut().enumerate() {
            *slot = half * 16 + j as i16 / 2 + if j % 2 == 1 { 32 } else { 0 };
        }
        // SAFETY: `index` is 32 `i16`s, one 512-bit load.
        unsafe { _mm512_loadu_si512(index.as_ptr().cast()) }
    };
    let (first, second) = (interleave(0), interleave(1));
    for (block, out) in symbols
        .chunks_exact(dims * COARSE_BLOCK)
        .zip(sums.chunks_exact_mut(COARSE_BLOCK))
    {
        let (block, _) = block.as_chunks::<COARSE_BLOCK>();
        let (mut even, mut odd) = (_mm512_setzero_si512(), _mm512_setzero_si512());
        for (row, symbols) in table.iter().zip(block) {
            // SAFETY: `row` and `symbols` are 64 bytes each, one 512-bit
            // load apiece.
            let (row, symbols) = unsafe {
                (
                    _mm512_loadu_si512(row.as_ptr().cast()),
                    _mm512_loadu_si512(symbols.as_ptr().cast()),
                )
            };
            // `vpermb` reads the low 6 bits of each symbol: its row slot.
            let units = _mm512_permutexvar_epi8(symbols, row);
            even = _mm512_add_epi16(even, _mm512_and_si512(units, low_bytes));
            odd = _mm512_add_epi16(odd, _mm512_srli_epi16::<8>(units));
        }
        let out = out.as_mut_ptr();
        // SAFETY: `out` is `COARSE_BLOCK` = 64 `u16`s, two 512-bit stores.
        unsafe {
            _mm512_storeu_si512(out.cast(), _mm512_permutex2var_epi16(even, first, odd));
            _mm512_storeu_si512(
                out.add(32).cast(),
                _mm512_permutex2var_epi16(even, second, odd),
            );
        }
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
    fn coarse_blocks_hold_each_series_top_bits_segment_major() {
        let dims = 3;
        let rows: Vec<u16> = (0..70 * dims as u16).map(|i| i * 37 % 256).collect();
        let summaries = SummaryBlocks::from_rows(dims, &rows);
        let coarse = CoarseBlocks::new(&summaries, 2);
        assert_eq!(coarse.len(), 70);
        // Two blocks of 64, the second padded with symbol 0.
        assert_eq!(coarse.symbols.len(), 2 * COARSE_BLOCK * dims);
        for (i, word) in rows.chunks_exact(dims).enumerate() {
            for (d, &symbol) in word.iter().enumerate() {
                let at = (i / COARSE_BLOCK * dims + d) * COARSE_BLOCK + i % COARSE_BLOCK;
                assert_eq!(
                    coarse.symbols[at],
                    (symbol >> 2) as u8,
                    "series {i} dim {d}"
                );
            }
        }
        for d in 0..dims {
            let padding = (dims + d) * COARSE_BLOCK + 6..(dims + d + 1) * COARSE_BLOCK;
            assert!(coarse.symbols[padding].iter().all(|&s| s == 0), "dim {d}");
        }
    }

    /// The coarse sums of `summaries` by the table, one series at a time.
    fn coarse_reference(pass: &CoarsePass, coarse: &CoarseBlocks) -> Vec<u16> {
        let dims = pass.dims();
        (0..coarse.len())
            .map(|i| {
                (0..dims)
                    .map(|d| {
                        let at = (i / COARSE_BLOCK * dims + d) * COARSE_BLOCK + i % COARSE_BLOCK;
                        u16::from(pass.units(d, coarse.symbols[at]))
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn every_coarse_arm_sums_every_series_units_at_any_size() {
        for dims in [1usize, 6, 16, 300] {
            let pass = CoarsePass::new(dims, 64, |d, symbol| {
                (d as f64 + 1.0) * 0.25 + f64::from(symbol) * 0.5
            });
            for scale in [0.0, 1.0, 7.5, MAX_SCALE] {
                let mut pass = pass.clone();
                pass.quantize(scale);
                for n in [0usize, 1, 63, 64, 65, 50_001] {
                    let rows: Vec<u16> = (0..n * dims).map(|i| (i * 7919 % 64) as u16).collect();
                    let coarse = CoarseBlocks::new(&SummaryBlocks::from_rows(dims, &rows), 0);
                    let expected = coarse_reference(&pass, &coarse);
                    for arm in CoarseArm::available() {
                        let mut sums = vec![7; 3];
                        pass.sums_with(arm, &coarse, &mut sums);
                        assert_eq!(sums, expected, "{arm:?} dims={dims} scale={scale} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn coarse_units_round_down_and_clamp() {
        assert_eq!(CoarseArm::for_kernel(Kernel::Portable), CoarseArm::Portable);
        let terms = [0.0, 0.999, 1.0, 2.5, 1e300, f64::INFINITY, f64::NAN];
        let mut pass = CoarsePass::new(1, terms.len(), |_, symbol| terms[usize::from(symbol)]);
        pass.quantize(100.0);
        let units: Vec<u8> = (0..terms.len() as u8).map(|s| pass.units(0, s)).collect();
        assert_eq!(units, [0, 99, 100, 250, 255, 255, 0]);
        // 300 dimensions: a unit cap of 65535 / 300 = 218 keeps the sum in
        // a `u16`.
        let mut wide = CoarsePass::new(300, 1, |_, _| 1e9);
        wide.quantize(1.0);
        assert_eq!(wide.units(299, 0), 218);
        // Scales: a threshold maps to 64 units per dimension; 0 to the
        // largest scale, an infinite or NaN one to 0.
        assert_eq!(pass.scale_for(2.0), 64.0 / 4.0);
        assert_eq!(pass.scale_for(0.0), MAX_SCALE);
        assert_eq!(pass.scale_for(f64::INFINITY), 0.0);
        assert_eq!(pass.scale_for(f64::NAN), 0.0);
        // Limits: the threshold's units, rounded down; everything for an
        // infinite or NaN threshold.
        pass.quantize(pass.scale_for(2.0));
        assert_eq!(pass.limit(2.0), 64);
        assert_eq!(pass.limit(0.0), 0);
        assert_eq!(pass.limit(1e200), u16::MAX);
        assert_eq!(pass.limit(f64::INFINITY), u16::MAX);
        assert_eq!(pass.limit(f64::NAN), u16::MAX);
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
