//! Table-driven lower-bound sweeps over a flat array of quantized summaries.
//!
//! ADS+ (SIMS step 2) and the VA+file (phase 1) bound the query against
//! *every* summary of the collection. Both bounds have the same shape: a sum
//! over dimensions of a term that depends only on the query's value in that
//! dimension and the candidate's symbol there. A [`BoundSweep`] therefore
//! evaluates each `(dimension, symbol)` term once per query into a table and
//! turns every candidate bound into `dims` lookups, accumulated in exactly
//! the order of the [`hydra_core::simd`] interval kernels — element `i` in
//! lane `i % 4`, lanes reduced as `(a0 + a1) + (a2 + a3)`, the ragged tail
//! added sequentially, then `sqrt` — so a swept bound is bit-identical to
//! the per-pair function it replaces
//! ([`SaxParams::mindist_paa_to_isax`](crate::sax::SaxParams::mindist_paa_to_isax),
//! [`VaPlusQuantizer::lower_bound`](crate::vaplus::VaPlusQuantizer::lower_bound)).
//!
//! Every row of the table is zero-padded to one power-of-16 width, compiled
//! in, so a lookup is a masked load with no per-dimension offset and no
//! bounds check. The table only pays when more lookups follow than it has
//! entries (a 65 536-symbol alphabet over a 300-series shard would spend
//! longer filling it than sweeping), so below that point the terms are
//! computed directly from the summaries, in the same order and to the same
//! bits.

/// Accumulator lanes of the `hydra_core::simd` interval kernels.
const LANES: usize = 4;

/// One dimension's squared-bound term for a symbol.
type Term<'a> = Box<dyn Fn(usize, u16) -> f64 + 'a>;

/// One query's lower-bound evaluator over flat `u16` summaries (`dims`
/// symbols per series, dataset order).
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

    /// Sweeps `summaries` and leaves the bounds, one per summary, in
    /// `bounds`. Every symbol must be inside its dimension's cardinality
    /// (builders guarantee it, snapshot loaders check it): the table is
    /// indexed by it.
    pub fn sweep(&self, summaries: &[u16], bounds: &mut Vec<f64>) {
        bounds.clear();
        self.bounds_into(summaries, |b| bounds.push(b));
    }

    /// Hands the bound of every `dims`-symbol word of `words` to `out`, in
    /// order, choosing the row width once for the whole run.
    fn bounds_into(&self, words: &[u16], out: impl FnMut(f64)) {
        debug_assert_eq!(words.len() % self.dims.max(1), 0);
        match (self.terms.is_empty(), self.width) {
            (true, _) => self.words(words, out, |word| {
                accumulate(word, |d, symbol| (self.term)(d, symbol))
            }),
            (false, 16) => self.words(words, out, |word| lookup::<16>(word, &self.terms)),
            (false, 256) => self.words(words, out, |word| lookup::<256>(word, &self.terms)),
            (false, 4096) => self.words(words, out, |word| lookup::<4096>(word, &self.terms)),
            (false, _) => self.words(words, out, |word| lookup::<65536>(word, &self.terms)),
        }
    }

    #[inline(always)]
    fn words(&self, words: &[u16], mut out: impl FnMut(f64), bound: impl Fn(&[u16]) -> f64) {
        for word in words.chunks_exact(self.dims.max(1)) {
            out(bound(word));
        }
    }
}

/// [`accumulate`] over a table of `W`-wide rows. With `W` a power of two
/// known at compile time, `symbol & (W - 1)` is provably inside its row: a
/// lookup is one masked load, with no offset arithmetic and no bounds check.
#[inline(always)]
fn lookup<const W: usize>(word: &[u16], terms: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = word.chunks_exact(LANES);
    let mut rows = terms.chunks_exact(LANES * W);
    for (chunk, rows) in (&mut chunks).zip(&mut rows) {
        for lane in 0..LANES {
            acc[lane] += rows[lane * W + (chunk[lane] as usize & (W - 1))];
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&symbol, row) in chunks
        .remainder()
        .iter()
        .zip(rows.remainder().chunks_exact(W))
    {
        sum += row[symbol as usize & (W - 1)];
    }
    sum.sqrt()
}

/// `sqrt` of the sum of `term(i, word[i])`, in the interval kernels' order.
#[inline(always)]
pub(crate) fn accumulate(word: &[u16], term: impl Fn(usize, u16) -> f64) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = word.chunks_exact(LANES);
    let mut base = 0usize;
    for chunk in &mut chunks {
        for (lane, &symbol) in chunk.iter().enumerate() {
            acc[lane] += term(base + lane, symbol);
        }
        base += LANES;
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (i, &symbol) in chunks.remainder().iter().enumerate() {
        sum += term(base + i, symbol);
    }
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(d: usize, symbol: u16) -> f64 {
        (d as f64 + 1.0) * 0.1 + symbol as f64 * 0.37
    }

    #[test]
    fn table_and_direct_paths_agree_bit_for_bit_at_any_thread_count() {
        // Every row width (16, 256, 4096, 65536), ragged per-dimension
        // cardinalities, and word lengths with and without a ragged tail.
        for widest in [8usize, 200, 3000, 40_000] {
            for dims in [1usize, 4, 6, 16] {
                let cardinalities: Vec<usize> =
                    (0..dims).map(|d| (widest >> (d % 3)).max(1)).collect();
                // Enough rows that every entry is looked up: tabulated.
                let rows = 50 + widest;
                let summaries: Vec<u16> = (0..rows * dims)
                    .map(|i| (i * 7919 % cardinalities[i % dims]) as u16)
                    .collect();
                let table = BoundSweep::new(cardinalities.iter().copied(), rows, term);
                assert!(!table.terms.is_empty());
                // One row only: fewer lookups than entries, computed directly.
                let direct = BoundSweep::new(cardinalities.iter().copied(), 1, term);
                assert!(direct.terms.is_empty());
                let mut expected = Vec::new();
                direct.sweep(&summaries, &mut expected);
                assert_eq!(expected.len(), rows);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                let mut got = vec![f64::NAN; 3];
                table.sweep(&summaries, &mut got);
                assert_eq!(bits(&got), bits(&expected), "{widest} {dims}");
                let mut first = Vec::new();
                table.sweep(&summaries[..dims], &mut first);
                assert_eq!(first[0].to_bits(), expected[0].to_bits());
            }
        }
    }

    #[test]
    fn accumulation_follows_the_four_lane_order() {
        // Terms chosen so that a different association changes the result.
        let values = [1e16, 1.0, -1e16, 1.0, 3.0, 5.0];
        let sweep = BoundSweep::new([1usize; 6], 1, |d, _| values[d]);
        let lanes: f64 = (1e16 + 1.0) + (-1e16 + 1.0);
        let expected = ((lanes + 3.0) + 5.0).sqrt();
        let mut bound = Vec::new();
        sweep.sweep(&[0; 6], &mut bound);
        assert_eq!(bound[0].to_bits(), expected.to_bits());
    }

    #[test]
    fn empty_inputs_sweep_to_nothing() {
        let sweep = BoundSweep::new([4usize, 4], 0, term);
        let mut bounds = vec![1.0];
        sweep.sweep(&[], &mut bounds);
        assert!(bounds.is_empty());
        let no_dims = BoundSweep::new(std::iter::empty(), 10, term);
        no_dims.sweep(&[], &mut bounds);
        assert!(bounds.is_empty());
    }
}
