//! SAX and iSAX symbolic summarization.
//!
//! SAX first reduces a series to its PAA representation, then maps each PAA
//! value to a discrete symbol using equal-probability breakpoints of the
//! standard normal distribution. An *iSAX* word additionally allows each
//! segment to use its own cardinality (number of bits), which is what lets
//! iSAX-family indexes split a node by promoting one segment to a finer
//! resolution.
//!
//! The lower-bounding distance (`MINDIST`) between a query's PAA values and a
//! candidate's (i)SAX word sums, per segment, the squared distance from the
//! query's PAA value to the breakpoint region of the candidate's symbol,
//! weighted by the segment width.

use crate::gaussian::{sax_breakpoints, symbol_for_value};
use crate::paa::Paa;
use crate::sweep::{accumulate, BoundSweep};

/// Shared parameters of a SAX summarization: segment layout and the maximum
/// (full) cardinality breakpoint table.
#[derive(Clone, Debug)]
pub struct SaxParams {
    paa: Paa,
    max_bits: u8,
    /// Breakpoints for the full cardinality `2^max_bits` (length `2^max_bits - 1`).
    breakpoints: Vec<f64>,
}

impl SaxParams {
    /// Creates SAX parameters for series of length `series_length`, `segments`
    /// segments and a full alphabet of `2^max_bits` symbols.
    ///
    /// # Panics
    /// Panics if `max_bits` is 0 or greater than 16.
    pub fn new(series_length: usize, segments: usize, max_bits: u8) -> Self {
        assert!((1..=16).contains(&max_bits), "max_bits must be in 1..=16");
        let paa = Paa::new(series_length, segments);
        let breakpoints = sax_breakpoints(1usize << max_bits);
        Self {
            paa,
            max_bits,
            breakpoints,
        }
    }

    /// The PAA layout underlying this SAX summarization.
    pub fn paa(&self) -> &Paa {
        &self.paa
    }

    /// The number of segments (word length).
    pub fn segments(&self) -> usize {
        self.paa.segments()
    }

    /// The maximum number of bits per segment.
    pub fn max_bits(&self) -> u8 {
        self.max_bits
    }

    /// The full alphabet size `2^max_bits`.
    pub fn max_cardinality(&self) -> u32 {
        1u32 << self.max_bits
    }

    /// The series length this summarization expects.
    pub fn series_length(&self) -> usize {
        self.paa.series_length()
    }

    /// Breakpoint `i` of the full-cardinality table.
    #[inline]
    fn full_breakpoint(&self, i: usize) -> f64 {
        self.breakpoints[i]
    }

    /// Computes the full-cardinality SAX word of a series.
    pub fn sax_word(&self, series: &[f32]) -> SaxWord {
        let paa_values = self.paa.transform(series);
        self.sax_word_from_paa(&paa_values)
    }

    /// Computes the full-cardinality SAX word from precomputed PAA values.
    pub fn sax_word_from_paa(&self, paa_values: &[f32]) -> SaxWord {
        debug_assert_eq!(paa_values.len(), self.segments());
        let symbols = paa_values
            .iter()
            .map(|&v| symbol_for_value(v as f64, &self.breakpoints) as u16)
            .collect();
        SaxWord { symbols }
    }

    /// The `(low, high)` value range covered by symbol `symbol` at cardinality
    /// `2^bits` (using the full-cardinality table restricted to the coarser
    /// resolution). `low` may be `-inf` and `high` may be `+inf`.
    pub fn symbol_range(&self, symbol: u16, bits: u8) -> (f64, f64) {
        debug_assert!(bits >= 1 && bits <= self.max_bits);
        // A coarse symbol at `bits` corresponds to a contiguous run of
        // full-resolution symbols; its boundaries are full-table breakpoints
        // at stride 2^(max_bits - bits).
        let stride = 1usize << (self.max_bits - bits);
        let cardinality = 1usize << bits;
        let symbol = symbol as usize;
        debug_assert!(symbol < cardinality);
        let low = if symbol == 0 {
            f64::NEG_INFINITY
        } else {
            self.full_breakpoint(symbol * stride - 1)
        };
        let high = if symbol + 1 == cardinality {
            f64::INFINITY
        } else {
            self.full_breakpoint((symbol + 1) * stride - 1)
        };
        (low, high)
    }

    /// Lower-bounding (MINDIST) distance between a query's PAA values and a
    /// candidate's iSAX word.
    ///
    /// The per-segment gaps and the width-weighted accumulation run through
    /// the runtime-dispatched interval kernel
    /// ([`hydra_core::simd::interval_mindist_weighted_sq`]), so the node
    /// bounds of the iSAX tree traversals vectorize on SSE2/AVX2 hardware
    /// while staying bit-identical across dispatch kernels. Bounding a query
    /// against a whole array of full-cardinality words (SIMS) goes through
    /// [`SaxParams::sweep`] instead, which yields the same bits per word.
    pub fn mindist_paa_to_isax(&self, query_paa: &[f32], word: &IsaxWord) -> f64 {
        debug_assert_eq!(query_paa.len(), self.segments());
        debug_assert_eq!(word.len(), self.segments());
        // Segment counts are small (the paper fixes 16), so the interval
        // bounds live on the stack in the common case.
        const STACK_SEGS: usize = 32;
        let segments = self.segments();
        let mut low_buf = [0.0f64; STACK_SEGS];
        let mut high_buf = [0.0f64; STACK_SEGS];
        let mut width_buf = [0.0f64; STACK_SEGS];
        let mut low_vec;
        let mut high_vec;
        let mut width_vec;
        let (low, high, width) = if segments <= STACK_SEGS {
            (
                &mut low_buf[..segments],
                &mut high_buf[..segments],
                &mut width_buf[..segments],
            )
        } else {
            low_vec = vec![0.0f64; segments];
            high_vec = vec![0.0f64; segments];
            width_vec = vec![0.0f64; segments];
            (&mut low_vec[..], &mut high_vec[..], &mut width_vec[..])
        };
        for i in 0..segments {
            let (lo, hi) = self.symbol_range(word.symbols[i], word.bits[i]);
            low[i] = lo;
            high[i] = hi;
            width[i] = self.paa.segment_width(i) as f64;
        }
        hydra_core::simd::interval_mindist_weighted_sq(&query_paa[..segments], low, high, width)
            .sqrt()
    }

    /// The interval kernel's value for one segment alone: `segment`'s term
    /// of `mindist_paa_to_isax` for a word holding `symbol` at `bits` there.
    ///
    /// Both per-query tables below are filled from it, which is why their
    /// bounds are bit-identical to the per-pair MINDIST: the kernel adds a
    /// segment's term `(w·d)·d` into lane `segment % 4` (or, past the last
    /// whole group of four, straight into the sum) and reduces the lanes as
    /// `(a0 + a1) + (a2 + a3)`; a one-segment call computes that same term
    /// and adds it to zero, and the tables' lookups are summed in that same
    /// lane order (`hydra_transforms::sweep`).
    fn term(&self, query_paa: &[f32], segment: usize, symbol: u16, bits: u8) -> f64 {
        let (low, high) = self.symbol_range(symbol, bits);
        hydra_core::simd::interval_mindist_weighted_sq(
            &query_paa[segment..=segment],
            &[low],
            &[high],
            &[self.paa.segment_width(segment) as f64],
        )
    }

    /// One query's MINDIST sweep over `rows` full-cardinality SAX words
    /// stored flat (`segments` symbols each): every swept bound is
    /// bit-identical to `mindist_paa_to_isax(query_paa, &w.to_isax(b, b))`
    /// with `b = max_bits`, because each `(segment, symbol)` term is the
    /// interval kernel's own value for that one segment (`SaxParams::term`).
    pub fn sweep(&self, query_paa: &[f32], rows: usize) -> BoundSweep<'_> {
        debug_assert_eq!(query_paa.len(), self.segments());
        // Owned, so a tree's per-query probe can hold the sweep beside the
        // PAA it was built from.
        let query_paa = query_paa.to_vec();
        let term = move |segment: usize, symbol: u16| {
            self.term(&query_paa, segment, symbol, self.max_bits)
        };
        let cardinality = 1usize << self.max_bits;
        BoundSweep::new(
            std::iter::repeat_n(cardinality, self.segments()),
            rows,
            term,
        )
    }

    /// One query's MINDIST table over iSAX node words whose segments hold at
    /// most `bits` bits: the term of every `(segment, bits, symbol)`, so a
    /// node's bound is `segments` lookups ([`NodeBounds::mindist`]),
    /// bit-identical to `mindist_paa_to_isax` by the argument of
    /// `SaxParams::term`. A tree sizes `bits` to its deepest node word, so
    /// the table holds `segments · (2^(bits+1) − 2)` terms.
    pub fn node_bounds(&self, query_paa: &[f32], bits: u8) -> NodeBounds {
        debug_assert_eq!(query_paa.len(), self.segments());
        let bits = bits.clamp(1, self.max_bits);
        let row = (2usize << bits) - 2;
        let mut terms = Vec::with_capacity(self.segments() * row);
        for segment in 0..self.segments() {
            for level in 1..=bits {
                for symbol in 0..1u32 << level {
                    terms.push(self.term(query_paa, segment, symbol as u16, level));
                }
            }
        }
        NodeBounds { row, terms }
    }
}

/// One query's MINDIST table over iSAX node words ([`SaxParams::node_bounds`]).
#[derive(Clone, Debug)]
pub struct NodeBounds {
    /// Terms per segment: the `2^b` symbols of cardinality level `b` start
    /// at `2^b − 2` within a segment's row.
    row: usize,
    /// `terms[segment · row + 2^bits − 2 + symbol]`.
    terms: Vec<f64>,
}

impl NodeBounds {
    /// MINDIST between the query and `word`, whose segments must hold no
    /// more bits than the table was built for.
    pub fn mindist(&self, word: &IsaxWord) -> f64 {
        debug_assert_eq!(word.len() * self.row, self.terms.len());
        accumulate(&word.symbols, |segment, symbol| {
            let level = (1usize << word.bits[segment]) - 2;
            self.terms[segment * self.row + level + symbol as usize]
        })
    }

    /// MINDIST between the query and each of the 1-bit words stored flat in
    /// `words` (`segments` symbols each), in order.
    pub fn one_bit_mindists<'a>(&'a self, words: &'a [u16]) -> impl Iterator<Item = f64> + 'a {
        let segments = self.terms.len() / self.row;
        words.chunks_exact(segments.max(1)).map(move |word| {
            accumulate(word, |segment, symbol| {
                self.terms[segment * self.row + symbol as usize]
            })
        })
    }
}

/// A full-cardinality SAX word: one symbol per segment.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SaxWord {
    /// Symbol of each segment at the full cardinality.
    pub symbols: Vec<u16>,
}

impl SaxWord {
    /// The number of segments.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the word has no segments.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Converts to an iSAX word where every segment uses `bits` bits.
    pub fn to_isax(&self, bits: u8, max_bits: u8) -> IsaxWord {
        assert!(bits >= 1 && bits <= max_bits);
        let shift = max_bits - bits;
        IsaxWord {
            symbols: self.symbols.iter().map(|&s| s >> shift).collect(),
            bits: vec![bits; self.symbols.len()],
            max_bits,
        }
    }
}

/// An iSAX word: per-segment symbols with per-segment cardinalities.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct IsaxWord {
    /// Symbol of each segment, expressed at that segment's own cardinality.
    pub symbols: Vec<u16>,
    /// Number of bits (log2 cardinality) of each segment.
    pub bits: Vec<u8>,
    /// The maximum bits (full cardinality) of the underlying SAX table.
    pub max_bits: u8,
}

impl IsaxWord {
    /// The number of segments.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the word has no segments.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Returns `true` if `full` (a full-cardinality SAX word) falls inside the
    /// region this iSAX word represents.
    pub fn contains(&self, full: &SaxWord) -> bool {
        debug_assert_eq!(full.len(), self.len());
        self.symbols
            .iter()
            .zip(self.bits.iter())
            .zip(full.symbols.iter())
            .all(|((&sym, &bits), &full_sym)| {
                let shift = self.max_bits - bits;
                (full_sym >> shift) == sym
            })
    }

    /// Produces the two children obtained by splitting on `segment`: the
    /// segment's cardinality is doubled and the new bit is set to 0 / 1.
    ///
    /// Returns `None` if the segment is already at full cardinality.
    pub fn split(&self, segment: usize) -> Option<(IsaxWord, IsaxWord)> {
        if self.bits[segment] >= self.max_bits {
            return None;
        }
        let mut left = self.clone();
        let mut right = self.clone();
        left.bits[segment] += 1;
        right.bits[segment] += 1;
        left.symbols[segment] = self.symbols[segment] << 1;
        right.symbols[segment] = (self.symbols[segment] << 1) | 1;
        Some((left, right))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::distance::euclidean;

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
        hydra_core::series::z_normalize(&mut v);
        v
    }

    #[test]
    fn sax_word_has_one_symbol_per_segment() {
        let params = SaxParams::new(64, 8, 8);
        let w = params.sax_word(&lcg_series(64, 1));
        assert_eq!(w.len(), 8);
        assert!(!w.is_empty());
        assert!(w
            .symbols
            .iter()
            .all(|&s| (s as u32) < params.max_cardinality()));
    }

    #[test]
    fn extreme_values_map_to_extreme_symbols() {
        let params = SaxParams::new(16, 4, 3);
        let mut series = vec![-10.0f32; 4];
        series.extend_from_slice(&[10.0; 4]);
        series.extend_from_slice(&[-10.0; 4]);
        series.extend_from_slice(&[10.0; 4]);
        let w = params.sax_word(&series);
        assert_eq!(w.symbols, vec![0, 7, 0, 7]);
    }

    #[test]
    fn symbol_range_brackets_the_paa_value() {
        let params = SaxParams::new(64, 8, 8);
        let s = lcg_series(64, 5);
        let paa = params.paa().transform(&s);
        let w = params.sax_word(&s);
        for (i, &p) in paa.iter().enumerate().take(8) {
            let (low, high) = params.symbol_range(w.symbols[i], params.max_bits());
            assert!(low <= p as f64 + 1e-9, "segment {i}: {low} > {p}");
            assert!(p as f64 <= high + 1e-9, "segment {i}: {p} > {high}");
        }
    }

    #[test]
    fn coarse_symbol_ranges_nest_fine_ones() {
        let params = SaxParams::new(32, 4, 8);
        let s = lcg_series(32, 9);
        let full = params.sax_word(&s);
        for bits in 1..=8u8 {
            let w = full.to_isax(bits, 8);
            for i in 0..4 {
                let (lo, hi) = params.symbol_range(w.symbols[i], bits);
                let (flo, fhi) = params.symbol_range(full.symbols[i], 8);
                assert!(lo <= flo + 1e-12);
                assert!(hi + 1e-12 >= fhi);
            }
        }
    }

    #[test]
    fn mindist_lower_bounds_euclidean() {
        let params = SaxParams::new(128, 16, 8);
        for seed in 0..10 {
            let q = lcg_series(128, seed * 2 + 1);
            let c = lcg_series(128, seed * 2 + 2);
            let q_paa = params.paa().transform(&q);
            let ed = euclidean(&q, &c);
            for bits in [1u8, 2, 4, 8] {
                let word = params.sax_word(&c).to_isax(bits, 8);
                let lb = params.mindist_paa_to_isax(&q_paa, &word);
                assert!(lb <= ed + 1e-4, "bits={bits}: LB {lb} > ED {ed}");
            }
        }
    }

    #[test]
    fn finer_cardinality_gives_tighter_mindist() {
        let params = SaxParams::new(256, 16, 8);
        let q = lcg_series(256, 31);
        let c = lcg_series(256, 32);
        let q_paa = params.paa().transform(&q);
        let full = params.sax_word(&c);
        let mut prev = 0.0;
        for bits in 1..=8u8 {
            let lb = params.mindist_paa_to_isax(&q_paa, &full.to_isax(bits, 8));
            assert!(
                lb + 1e-9 >= prev,
                "MINDIST must not decrease with more bits"
            );
            prev = lb;
        }
    }

    #[test]
    fn isax_contains_and_split() {
        let params = SaxParams::new(32, 4, 4);
        let s = lcg_series(32, 77);
        let full = params.sax_word(&s);
        let root = full.to_isax(1, 4);
        assert!(root.contains(&full));
        let (left, right) = root.split(0).unwrap();
        // Exactly one of the children contains the word.
        assert_ne!(left.contains(&full), right.contains(&full));
        // Splitting at full cardinality returns None.
        let fine = full.to_isax(4, 4);
        assert!(fine.split(2).is_none());
    }

    #[test]
    fn split_preserves_other_segments() {
        let w = IsaxWord {
            symbols: vec![1, 2, 3],
            bits: vec![2, 2, 2],
            max_bits: 4,
        };
        let (l, r) = w.split(1).unwrap();
        assert_eq!(l.symbols, vec![1, 4, 3]);
        assert_eq!(r.symbols, vec![1, 5, 3]);
        assert_eq!(l.bits, vec![2, 3, 2]);
        assert_eq!(r.bits, vec![2, 3, 2]);
    }

    #[test]
    fn to_isax_at_full_bits_is_identity_on_symbols() {
        let w = SaxWord {
            symbols: vec![200, 3, 128, 255],
        };
        let i = w.to_isax(8, 8);
        assert_eq!(i.symbols, vec![200, 3, 128, 255]);
        assert!(i.contains(&w));
    }

    #[test]
    fn accessors() {
        let params = SaxParams::new(96, 16, 8);
        assert_eq!(params.segments(), 16);
        assert_eq!(params.series_length(), 96);
        assert_eq!(params.max_bits(), 8);
        assert_eq!(params.max_cardinality(), 256);
    }
}
