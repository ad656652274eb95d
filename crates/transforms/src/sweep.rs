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
//! The table only pays when more lookups follow than it has entries (a
//! 65 536-symbol alphabet over a 300-series shard would spend longer filling
//! it than sweeping), so below that point the terms are computed directly
//! from the summaries, in the same order and to the same bits.

use hydra_core::parallel;

/// Accumulator lanes of the `hydra_core::simd` interval kernels.
const LANES: usize = 4;

/// One query's lower-bound evaluator over flat `u16` summaries (`dims`
/// symbols per series, dataset order).
pub struct BoundSweep<F> {
    /// Start of each dimension's row in `terms`; `offsets[dims]` is its end.
    offsets: Vec<usize>,
    /// `terms[offsets[d] + symbol]`; empty when bounds are computed directly.
    terms: Vec<f64>,
    term: F,
}

impl<F: Fn(usize, u16) -> f64 + Sync> BoundSweep<F> {
    /// Prepares a sweep over `rows` summaries whose dimension `d` takes
    /// symbols in `0..cardinalities[d]`. `term(d, symbol)` is that pair's
    /// contribution to the squared bound.
    pub fn new(cardinalities: impl IntoIterator<Item = usize>, rows: usize, term: F) -> Self {
        let mut offsets = vec![0usize];
        let mut total = 0usize;
        for cardinality in cardinalities {
            total += cardinality;
            offsets.push(total);
        }
        let dims = offsets.len() - 1;
        let mut terms = Vec::new();
        if total <= rows.saturating_mul(dims) {
            terms.reserve_exact(total);
            for (d, row) in offsets.windows(2).enumerate() {
                terms.extend((0..row[1] - row[0]).map(|symbol| term(d, symbol as u16)));
            }
        }
        Self {
            offsets,
            terms,
            term,
        }
    }

    /// Symbols per summary.
    pub fn dims(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The lower bound of one summary. Every symbol must be inside its
    /// dimension's cardinality (builders guarantee it, snapshot loaders
    /// check it): the table is indexed by it.
    pub fn bound(&self, word: &[u16]) -> f64 {
        debug_assert_eq!(word.len(), self.dims());
        if self.terms.is_empty() {
            accumulate(word, &self.term)
        } else {
            accumulate(word, |d, symbol| {
                let at = self.offsets[d] + symbol as usize;
                debug_assert!(at < self.offsets[d + 1], "symbol {symbol} outside row {d}");
                self.terms[at]
            })
        }
    }

    /// Sweeps `summaries` on `threads` workers (contiguous chunks, merged in
    /// order) and leaves the bounds, one per summary, in `bounds`.
    pub fn sweep(&self, summaries: &[u16], threads: usize, bounds: &mut Vec<f64>) {
        if threads <= 1 {
            bounds.clear();
            bounds.extend(self.bounds_of(summaries));
        } else {
            let dims = self.dims().max(1);
            *bounds = parallel::map_chunks(summaries.len() / dims, threads, |range| {
                self.bounds_of(&summaries[range.start * dims..range.end * dims])
                    .collect()
            });
        }
    }

    fn bounds_of<'a>(&'a self, words: &'a [u16]) -> impl Iterator<Item = f64> + 'a {
        words
            .chunks_exact(self.dims().max(1))
            .map(|word| self.bound(word))
    }
}

/// `sqrt` of the sum of `term(i, word[i])`, in the interval kernels' order.
#[inline(always)]
fn accumulate(word: &[u16], term: impl Fn(usize, u16) -> f64) -> f64 {
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
        for dims in [1usize, 4, 6, 16] {
            let cardinalities = vec![8usize; dims];
            let rows = 50usize;
            let summaries: Vec<u16> = (0..rows * dims).map(|i| (i * 7 % 8) as u16).collect();
            // 8 * dims entries <= 50 * dims lookups: tabulated.
            let table = BoundSweep::new(cardinalities.iter().copied(), rows, term);
            assert!(!table.terms.is_empty());
            // One row only: fewer lookups than entries, computed directly.
            let direct = BoundSweep::new(cardinalities.iter().copied(), 1, term);
            assert!(direct.terms.is_empty());
            let mut expected = Vec::new();
            direct.sweep(&summaries, 1, &mut expected);
            assert_eq!(expected.len(), rows);
            for threads in [1usize, 3] {
                let mut got = vec![f64::NAN; 3];
                table.sweep(&summaries, threads, &mut got);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                assert_eq!(bits(&got), bits(&expected), "dims={dims} threads={threads}");
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
        assert_eq!(sweep.bound(&[0; 6]).to_bits(), expected.to_bits());
    }

    #[test]
    fn empty_inputs_sweep_to_nothing() {
        let sweep = BoundSweep::new([4usize, 4], 0, term);
        let mut bounds = vec![1.0];
        sweep.sweep(&[], 2, &mut bounds);
        assert!(bounds.is_empty());
        let no_dims = BoundSweep::new(std::iter::empty(), 10, term);
        no_dims.sweep(&[], 1, &mut bounds);
        assert!(bounds.is_empty());
    }
}
