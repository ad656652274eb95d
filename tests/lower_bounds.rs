//! Randomized tests of the lower-bounding lemma across every summarization
//! technique.
//!
//! Lower-bounding is the invariant that makes index pruning exact ("no false
//! dismissals"): for any pair of series, the distance computed in the reduced
//! space must never exceed the true Euclidean distance. These suites generate
//! seeded pseudo-random series pairs and check the invariant for PAA, DFT,
//! DHWT, EAPCA, SAX/iSAX at every cardinality, SFA with both binning methods,
//! and the VA+ quantizer.
//!
//! (The seed repo expressed these as `proptest` properties; the offline build
//! replays the same invariants over a deterministic seeded case stream.)

use hydra_core::distance::euclidean;
use hydra_core::series::z_normalize;
use hydra_core::simd::{detected_kernel, Kernel};
use hydra_isax::tree::IsaxTree;
use hydra_transforms::eapca::{uniform_segmentation, Eapca};
use hydra_transforms::fft::{dft_lower_bound, dft_summary};
use hydra_transforms::sax::{IsaxWord, SaxParams, SaxWord};
use hydra_transforms::sfa::{BinningMethod, SfaParams, SfaQuantizer};
use hydra_transforms::sweep::{
    BoundSweep, CoarseArm, CoarseBlocks, CoarsePass, SummaryBlocks, COARSE_SLACK,
};
use hydra_transforms::vaplus::{VaPlusCell, VaPlusQuantizer};
use hydra_transforms::{HaarTransform, Paa};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases for the cheap per-pair properties.
const CASES: u64 = 64;
/// Number of random cases for properties that train a quantizer per case.
const QUANTIZER_CASES: u64 = 16;

/// A Z-normalized pseudo-random series of the given length.
fn series(rng: &mut StdRng, len: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..len)
        .map(|_| (rng.gen_range(-100.0..100.0)) as f32)
        .collect();
    z_normalize(&mut v);
    v
}

#[test]
fn paa_lower_bound_never_exceeds_distance() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9AA0 + case);
        let a = series(&mut rng, 64);
        let b = series(&mut rng, 64);
        let segments = rng.gen_range(1..=16usize);
        let paa = Paa::new(64, segments);
        let lb = paa.lower_bound(&paa.transform(&a), &paa.transform(&b));
        assert!(
            lb <= euclidean(&a, &b) + 1e-3,
            "case {case}: PAA bound {lb} above distance with {segments} segments"
        );
    }
}

#[test]
fn dft_lower_bound_never_exceeds_distance() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xDF70 + case);
        let a = series(&mut rng, 96);
        let b = series(&mut rng, 96);
        let coefficients = rng.gen_range(1..=32usize);
        let lb = dft_lower_bound(
            &dft_summary(&a, coefficients),
            &dft_summary(&b, coefficients),
        );
        assert!(
            lb <= euclidean(&a, &b) + 1e-3,
            "case {case}: DFT bound {lb} above distance with {coefficients} coefficients"
        );
    }
}

#[test]
fn haar_prefix_bounds_bracket_the_distance() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4AA2 + case);
        let a = series(&mut rng, 100);
        let b = series(&mut rng, 100);
        let level = rng.gen_range(0..=7usize);
        let t = HaarTransform::new(100);
        let ca = t.transform(&a);
        let cb = t.transform(&b);
        let prefix = t.prefix_len_for_level(level);
        let ed = euclidean(&a, &b);
        let lb = HaarTransform::prefix_lower_bound(&ca, &cb, prefix);
        let ub = HaarTransform::prefix_upper_bound(&ca, &cb, prefix);
        assert!(
            lb <= ed + 1e-3,
            "case {case}: lower bound {lb} above distance {ed}"
        );
        assert!(
            ub + 1e-3 >= ed,
            "case {case}: upper bound {ub} below distance {ed}"
        );
    }
}

#[test]
fn eapca_lower_bound_never_exceeds_distance() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xEA9C + case);
        let a = series(&mut rng, 64);
        let b = series(&mut rng, 64);
        let segments = rng.gen_range(1..=16usize);
        let segmentation = uniform_segmentation(64, segments);
        let ea = Eapca::compute(&a, &segmentation);
        let eb = Eapca::compute(&b, &segmentation);
        let lb = ea.lower_bound(&eb, &segmentation);
        assert!(
            lb <= euclidean(&a, &b) + 1e-3,
            "case {case}: EAPCA bound above distance with {segments} segments"
        );
        // The σ term only adds: never looser than PAA on the same grid.
        let paa = Paa::new(64, segments);
        let paa_lb = paa.lower_bound(&paa.transform(&a), &paa.transform(&b));
        assert!(
            lb + 1e-3 >= paa_lb,
            "case {case}: EAPCA bound {lb} below the PAA bound {paa_lb}"
        );
    }
}

#[test]
fn isax_mindist_never_exceeds_distance_at_any_cardinality() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x15A8 + case);
        let a = series(&mut rng, 64);
        let b = series(&mut rng, 64);
        let bits = rng.gen_range(1..=8i32) as u8;
        let params = SaxParams::new(64, 16, 8);
        let q_paa = params.paa().transform(&a);
        let word = params.sax_word(&b).to_isax(bits, 8);
        assert!(
            params.mindist_paa_to_isax(&q_paa, &word) <= euclidean(&a, &b) + 1e-3,
            "case {case}: iSAX mindist above distance at {bits} bits"
        );
    }
}

/// A fixed random-walk sample for training quantizers (matches the seed suite).
fn walk_sample(seed_base: u64) -> Vec<Vec<f32>> {
    (0..60u64)
        .map(|i| {
            let g = hydra_data::RandomWalkGenerator::new(seed_base + i, 64);
            g.series(i).into_values()
        })
        .collect()
}

#[test]
fn sfa_mindist_never_exceeds_distance() {
    // Training the quantizer is expensive, so this property uses fewer cases.
    let sample = walk_sample(900);
    for case in 0..QUANTIZER_CASES {
        let mut rng = StdRng::seed_from_u64(0x5FA0 + case);
        let queries: Vec<Vec<f32>> = (0..3).map(|_| series(&mut rng, 64)).collect();
        let binning = if rng.gen_bool(0.5) {
            BinningMethod::EquiDepth
        } else {
            BinningMethod::EquiWidth
        };
        let quantizer = SfaQuantizer::train(
            SfaParams::new(64, 16)
                .with_alphabet_size(8)
                .with_binning(binning),
            sample.iter().map(|s| s.as_slice()),
        );
        for pair in queries.windows(2) {
            let q = &pair[0];
            let c = &pair[1];
            let lb = quantizer.mindist(&quantizer.dft(q), &quantizer.word(c));
            assert!(
                lb <= euclidean(q, c) + 1e-3,
                "case {case}: SFA mindist {lb} above distance with {binning:?} binning"
            );
        }
    }
}

#[test]
fn vaplus_lower_bound_never_exceeds_distance() {
    let sample = walk_sample(700);
    for case in 0..QUANTIZER_CASES {
        let mut rng = StdRng::seed_from_u64(0x7A90 + case);
        let queries: Vec<Vec<f32>> = (0..3).map(|_| series(&mut rng, 64)).collect();
        let total_bits = rng.gen_range(16..=128usize);
        let quantizer =
            VaPlusQuantizer::train(64, 16, total_bits, sample.iter().map(|s| s.as_slice()));
        for pair in queries.windows(2) {
            let q = &pair[0];
            let c = &pair[1];
            let lb = quantizer.lower_bound(&quantizer.dft(q), &quantizer.cell(c));
            assert!(
                lb <= euclidean(q, c) + 1e-3,
                "case {case}: VA+ bound {lb} above distance with {total_bits} bits"
            );
        }
    }
}

/// Queries no friendly workload produces: NaN, ±inf, constant, all-NaN.
fn hostile_queries(rng: &mut StdRng, len: usize) -> Vec<Vec<f32>> {
    let mut queries = vec![series(rng, len), vec![0.0; len], vec![3.5; len]];
    for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut q = series(rng, len);
        q[len / 3] = special;
        queries.push(q);
        queries.push(vec![special; len]);
    }
    let mut mixed = series(rng, len);
    mixed[0] = f32::INFINITY;
    mixed[len - 1] = f32::NEG_INFINITY;
    queries.push(mixed);
    queries
}

/// Random series plus exact duplicates and constant series.
fn hostile_collection(rng: &mut StdRng, len: usize) -> Vec<Vec<f32>> {
    let mut data: Vec<Vec<f32>> = (0..40).map(|_| series(rng, len)).collect();
    for i in 0..10 {
        data.push(data[i * 3].clone());
    }
    data.push(vec![0.0; len]);
    data.push(vec![-7.25; len]);
    data
}

fn bits_of(bounds: &[f64]) -> Vec<u64> {
    bounds.iter().map(|b| b.to_bits()).collect()
}

/// The portable block arm, then the AVX-512 gather arm where this CPU has
/// it (any tier but `Portable` selects it; on a CPU without AVX-512F both
/// run the portable arm).
fn sweep_arms() -> [Kernel; 2] {
    [Kernel::Portable, detected_kernel()]
}

/// Every way to sweep the row-major `rows` (`dims` symbols per series) —
/// each block arm over the blocked summaries, and the row-major arm — as
/// `(arm, bounds)`.
fn swept_by_every_arm(
    sweep: &BoundSweep<'_>,
    dims: usize,
    rows: &[u16],
) -> Vec<(String, Vec<f64>)> {
    let blocks = SummaryBlocks::from_rows(dims, rows);
    let mut swept: Vec<(String, Vec<f64>)> = sweep_arms()
        .into_iter()
        .map(|kernel| {
            let mut bounds = vec![f64::NAN; 3];
            sweep.sweep_with(kernel, &blocks, &mut bounds);
            (format!("blocks on {}", kernel.name()), bounds)
        })
        .collect();
    let mut bounds = Vec::new();
    sweep.sweep_rows(rows, &mut bounds);
    swept.push(("rows".to_string(), bounds));
    swept
}

/// The table-driven sweeps must reproduce the per-pair lower bounds bit for
/// bit — that is what keeps pruning, answers and counters unchanged. CI runs
/// this under native dispatch and `HYDRA_SIMD=portable`.
#[test]
fn sax_sweep_is_bit_identical_to_the_per_pair_mindist_on_hostile_inputs() {
    // (length, segments, bits): ragged segment widths, a 6-segment word (two
    // tail-lane segments), alphabets of 2 and 65536 symbols.
    for (case, (len, segments, bits)) in [
        (250usize, 16usize, 8u8),
        (64, 6, 8),
        (250, 6, 3),
        (64, 16, 1),
        (64, 16, 16),
        (64, 1, 8),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(0x5EE9 + case as u64);
        let params = SaxParams::new(len, segments, bits);
        let words: Vec<_> = hostile_collection(&mut rng, len)
            .iter()
            .map(|s| params.sax_word(s))
            .collect();
        let flat: Vec<u16> = words.iter().flat_map(|w| w.symbols.clone()).collect();
        for (qi, q) in hostile_queries(&mut rng, len).iter().enumerate() {
            let q_paa = params.paa().transform(q);
            let expected: Vec<f64> = words
                .iter()
                .map(|w| params.mindist_paa_to_isax(&q_paa, &w.to_isax(bits, bits)))
                .collect();
            // `rows` picks the path: the collection's own size tabulates the
            // small alphabets, one row always computes directly.
            for rows in [words.len(), 1] {
                let sweep = params.sweep(&q_paa, rows);
                for (arm, got) in swept_by_every_arm(&sweep, segments, &flat) {
                    assert_eq!(
                        bits_of(&got),
                        bits_of(&expected),
                        "len={len} segments={segments} bits={bits} query={qi} rows={rows} {arm}"
                    );
                }
            }
        }
    }
}

/// `full` cut to `bits[s]` bits in segment `s`.
fn mixed_word(full: &SaxWord, bits: &[u8], max_bits: u8) -> IsaxWord {
    IsaxWord {
        symbols: full
            .symbols
            .iter()
            .zip(bits)
            .map(|(&symbol, &b)| symbol >> (max_bits - b))
            .collect(),
        bits: bits.to_vec(),
        max_bits,
    }
}

/// The iSAX trees bound their nodes from a per-query `(segment, bits,
/// symbol)` table and their root children from one sweep over flat 1-bit
/// words; both must reproduce `mindist_paa_to_isax` bit for bit, for every
/// mix of per-segment cardinalities a node word can hold and on both
/// dispatch tiers.
#[test]
fn isax_node_table_is_bit_identical_to_the_per_pair_mindist_on_hostile_inputs() {
    // (length, segments, max bits, table bits): 16 segments (whole lanes)
    // and 6 (a ragged tail of two), ragged segment widths, tables sized to
    // the full cardinality and to a shallower tree.
    for (case, (len, segments, max_bits, table_bits)) in [
        (250usize, 16usize, 8u8, 8u8),
        (250, 16, 8, 3),
        (64, 6, 8, 8),
        (250, 6, 3, 3),
        (64, 6, 16, 5),
        (64, 16, 1, 1),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(0x1A5A + case as u64);
        let params = SaxParams::new(len, segments, max_bits);
        let full: Vec<SaxWord> = hostile_collection(&mut rng, len)
            .iter()
            .map(|s| params.sax_word(s))
            .collect();
        // Every level in every segment (rotations of a staircase), uniform
        // words at every level, and random mixes.
        let mut mixes: Vec<Vec<u8>> = (0..table_bits)
            .flat_map(|r| {
                [
                    (0..segments)
                        .map(|s| 1 + (s as u8 + r) % table_bits)
                        .collect(),
                    vec![1 + r; segments],
                ]
            })
            .collect();
        mixes.extend((0..8).map(|_| {
            (0..segments)
                .map(|_| rng.gen_range(0..usize::from(table_bits)) as u8 + 1)
                .collect()
        }));
        let words: Vec<IsaxWord> = full
            .iter()
            .flat_map(|w| mixes.iter().map(|bits| mixed_word(w, bits, max_bits)))
            .collect();
        let one_bit: Vec<u16> = full
            .iter()
            .flat_map(|w| w.to_isax(1, max_bits).symbols)
            .collect();
        for (qi, q) in hostile_queries(&mut rng, len).iter().enumerate() {
            let q_paa = params.paa().transform(q);
            let table = params.node_bounds(&q_paa, table_bits);
            for (wi, word) in words.iter().enumerate() {
                assert_eq!(
                    table.mindist(word).to_bits(),
                    params.mindist_paa_to_isax(&q_paa, word).to_bits(),
                    "case={case} query={qi} word={wi} bits={:?}",
                    word.bits
                );
            }
            let expected: Vec<f64> = full
                .iter()
                .map(|w| params.mindist_paa_to_isax(&q_paa, &w.to_isax(1, max_bits)))
                .collect();
            let swept: Vec<f64> = table.one_bit_mindists(&one_bit).collect();
            assert_eq!(
                bits_of(&swept),
                bits_of(&expected),
                "case={case} query={qi}"
            );
        }
    }
}

/// The same identity inside a built iSAX tree: every node's table bound and
/// every root child's swept bound equal the per-pair MINDIST of its word.
#[test]
fn isax_tree_node_and_root_bounds_are_the_per_pair_mindist() {
    let len = 250;
    for (case, segments) in [16usize, 6].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x7EE + case as u64);
        let params = SaxParams::new(len, segments, 8);
        let mut data = hostile_collection(&mut rng, len);
        data.extend((0..400u64).map(|i| {
            hydra_data::RandomWalkGenerator::new(60 + i, len)
                .series(i)
                .into_values()
        }));
        let summaries: Vec<u16> = data
            .iter()
            .flat_map(|s| params.sax_word(s).symbols)
            .collect();
        let tree = IsaxTree::from_summaries(params.clone(), 8, &summaries, 1);
        assert!(tree.num_nodes() > tree.root_children().count());
        for (qi, q) in hostile_queries(&mut rng, len).iter().enumerate() {
            let q_paa = params.paa().transform(q);
            let table = tree.node_bounds(&q_paa);
            for id in 0..tree.num_nodes() {
                assert_eq!(
                    table.mindist(&tree.node(id).word).to_bits(),
                    tree.mindist(&q_paa, id).to_bits(),
                    "segments={segments} query={qi} node={id}"
                );
            }
            let roots: Vec<(usize, u64)> = tree
                .root_bounds(&table)
                .map(|(id, bound)| (id, bound.to_bits()))
                .collect();
            let expected: Vec<(usize, u64)> = tree
                .root_children()
                .map(|id| (id, tree.mindist(&q_paa, id).to_bits()))
                .collect();
            assert_eq!(roots, expected, "segments={segments} query={qi}");
        }
    }
}

#[test]
fn vaplus_sweep_is_bit_identical_to_the_per_pair_bound_on_hostile_inputs() {
    // (length, dims, total bits): a starved budget leaves most dimensions
    // with 0 bits; 6 dimensions exercise the tail lane.
    for (case, (len, dims, total_bits)) in [
        (64usize, 16usize, 16usize),
        (250, 6, 48),
        (64, 16, 128),
        (64, 1, 8),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(0x7AB1 + case as u64);
        let sample: Vec<Vec<f32>> = (0..60u64)
            .map(|i| {
                hydra_data::RandomWalkGenerator::new(300 + i, len)
                    .series(i)
                    .into_values()
            })
            .collect();
        let quantizer =
            VaPlusQuantizer::train(len, dims, total_bits, sample.iter().map(|s| s.as_slice()));
        if case == 0 {
            assert!(
                quantizer.bits().contains(&0),
                "the starved budget must leave a 0-bit dimension: {:?}",
                quantizer.bits()
            );
        }
        let cells: Vec<_> = hostile_collection(&mut rng, len)
            .iter()
            .map(|s| quantizer.cell(s))
            .collect();
        let flat: Vec<u16> = cells.iter().flat_map(|c| c.cells.clone()).collect();
        for (qi, q) in hostile_queries(&mut rng, len).iter().enumerate() {
            let q_dft = quantizer.dft(q);
            let expected: Vec<f64> = cells
                .iter()
                .map(|c| quantizer.lower_bound(&q_dft, c))
                .collect();
            for rows in [100_000usize, 1] {
                let sweep = quantizer.sweep(&q_dft, rows);
                for (arm, got) in swept_by_every_arm(&sweep, dims, &flat) {
                    assert_eq!(
                        bits_of(&got),
                        bits_of(&expected),
                        "len={len} dims={dims} bits={total_bits} query={qi} rows={rows} {arm}"
                    );
                }
            }
        }
    }
}

/// Summaries of `count` series, `dims` random symbols each below
/// `cardinality`: the first series hold only the lowest symbol and the next
/// only the highest (the cells open to −∞ and +∞), so ragged last blocks
/// mix edge and interior symbols.
fn random_rows(rng: &mut StdRng, count: usize, dims: usize, cardinality: usize) -> Vec<u16> {
    (0..count * dims)
        .map(|i| match i / dims {
            0 => 0,
            1 => (cardinality - 1) as u16,
            _ => rng.gen_range(0..cardinality) as u16,
        })
        .collect()
}

/// Collection sizes around the block of 8, and one serve shard.
const SWEEP_SIZES: [usize; 6] = [0, 1, 7, 8, 9, 50_001];

/// Every sweep arm equals the per-pair bound on every prefix in
/// [`SWEEP_SIZES`] of `rows`, tabulated and computed directly.
fn assert_arms_match_per_pair<'a>(
    label: &str,
    dims: usize,
    rows: &[u16],
    sweep: impl Fn(usize) -> BoundSweep<'a>,
    per_pair: impl Fn(&[u16]) -> f64,
) {
    let expected: Vec<f64> = rows.chunks_exact(dims).map(per_pair).collect();
    // A huge `rows` always tabulates (every row width); one row computes
    // the terms directly.
    for table_rows in [usize::MAX, 1] {
        let sweep = sweep(table_rows);
        for n in SWEEP_SIZES {
            for (arm, got) in swept_by_every_arm(&sweep, dims, &rows[..n * dims]) {
                assert_eq!(
                    bits_of(&got),
                    bits_of(&expected[..n]),
                    "{label} n={n} table_rows={table_rows} {arm}"
                );
            }
        }
    }
}

/// ADS+'s SIMS sweep: each arm, for ragged and whole last blocks, every
/// dimension count the lanes treat differently and every row width (3, 8,
/// 12 and 16 bits), is bit-identical to `mindist_paa_to_isax`. The query
/// PAA holds a NaN, ±inf and values beyond the outer breakpoints.
#[test]
fn every_sax_sweep_arm_is_the_per_pair_mindist_at_every_size_dims_and_width() {
    let largest = SWEEP_SIZES[SWEEP_SIZES.len() - 1];
    for dims in [1usize, 4, 6, 16] {
        for bits in [3u8, 8, 12, 16] {
            let mut rng = StdRng::seed_from_u64(0xB10C + dims as u64 * 17 + u64::from(bits));
            let params = SaxParams::new(64, dims, bits);
            let rows = random_rows(&mut rng, largest, dims, 1 << bits);
            let q_paa: Vec<f32> = (0..dims)
                .map(|d| match d % 5 {
                    0 => f32::NAN,
                    1 => 9.5,
                    2 => -9.5,
                    3 if d == 3 => f32::INFINITY,
                    _ => rng.gen_range(-2.0..2.0) as f32,
                })
                .collect();
            assert_arms_match_per_pair(
                &format!("SAX dims={dims} bits={bits}"),
                dims,
                &rows,
                |table_rows| params.sweep(&q_paa, table_rows),
                |word| {
                    let word = IsaxWord {
                        symbols: word.to_vec(),
                        bits: vec![bits; dims],
                        max_bits: bits,
                    };
                    params.mindist_paa_to_isax(&q_paa, &word)
                },
            );
        }
    }
}

/// The VA+file's filter sweep, likewise, against `VaPlusQuantizer::
/// lower_bound`: uniform quantizers of 3, 8, 12 and 16 bits per dimension
/// (one per row width) over sorted random cell boundaries.
#[test]
fn every_vaplus_sweep_arm_is_the_per_pair_bound_at_every_size_dims_and_width() {
    let largest = SWEEP_SIZES[SWEEP_SIZES.len() - 1];
    for dims in [1usize, 4, 6, 16] {
        for bits in [3u8, 8, 12, 16] {
            let mut rng = StdRng::seed_from_u64(0x7AB0C + dims as u64 * 17 + u64::from(bits));
            let boundaries: Vec<Vec<f64>> = (0..dims)
                .map(|_| {
                    let mut cuts: Vec<f64> = (0..(1usize << bits) - 1)
                        .map(|_| rng.gen_range(-50.0..50.0))
                        .collect();
                    cuts.sort_by(f64::total_cmp);
                    cuts
                })
                .collect();
            let quantizer = VaPlusQuantizer::from_parts(64, dims, vec![bits; dims], boundaries);
            let rows = random_rows(&mut rng, largest, dims, 1 << bits);
            let q_dft: Vec<f32> = (0..dims)
                .map(|d| match d % 4 {
                    0 => f32::NAN,
                    1 => 60.0,
                    2 => -60.0,
                    _ => rng.gen_range(-50.0..50.0) as f32,
                })
                .collect();
            assert_arms_match_per_pair(
                &format!("VA+ dims={dims} bits={bits}"),
                dims,
                &rows,
                |table_rows| quantizer.sweep(&q_dft, table_rows),
                |cells| {
                    quantizer.lower_bound(
                        &q_dft,
                        &VaPlusCell {
                            cells: cells.to_vec(),
                        },
                    )
                },
            );
        }
    }
}

/// Scales a coarse pass is tested at: 0 (every term 0 units), the largest
/// (a threshold of 0), a first pass's provisional one, and those of a tight
/// and a loose threshold.
fn coarse_scales(pass: &CoarsePass) -> [f64; 5] {
    [
        0.0,
        pass.scale_for(0.0),
        pass.scale_for(pass.provisional()),
        pass.scale_for(0.05),
        pass.scale_for(40.0),
    ]
}

/// SIMS' coarse pass lower-bounds the full MINDIST term by term: at every
/// scale, the units of a full symbol's coarse symbol, over the scale, never
/// exceed that symbol's full-resolution term (beyond `COARSE_SLACK`), for
/// every segment and every symbol, at every cardinality the coarse symbols
/// cut (6 bits and fewer kept whole), with uneven segment widths, the ±∞
/// edge symbols, and NaN / ±inf query values (whose NaN terms must be 0
/// units).
#[test]
fn coarse_units_never_exceed_the_full_mindist_term_at_any_cardinality() {
    for (case, max_bits) in [1u8, 4, 6, 8, 12, 16].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xC0A5 + case as u64);
        let params = SaxParams::new(250, 16, max_bits);
        let shift = max_bits - params.coarse_bits();
        for (qi, q) in hostile_queries(&mut rng, 250).iter().enumerate() {
            let q_paa = params.paa().transform(q);
            let mut pass = params.coarse_pass(&q_paa);
            let tables = coarse_scales(&pass).map(|scale| {
                pass.quantize(scale);
                (scale, pass.clone())
            });
            for segment in 0..16 {
                for symbol in 0..=u16::MAX >> (16 - max_bits) {
                    let full = params.term(&q_paa, segment, symbol, max_bits);
                    for (scale, table) in &tables {
                        let units = table.units(segment, (symbol >> shift) as u8);
                        let bound = full * scale;
                        assert!(
                            if bound.is_nan() {
                                units == 0
                            } else {
                                f64::from(units) <= bound * (1.0 + COARSE_SLACK)
                            },
                            "bits={max_bits} query={qi} scale={scale} segment={segment} \
                             symbol={symbol}: {units} units above {bound}"
                        );
                    }
                }
            }
        }
    }
}

/// The promise SIMS relies on, per series: a summary's coarse sum never
/// exceeds the coarse limit of its full MINDIST, on every arm, at any
/// scale, on hostile collections and queries.
#[test]
fn coarse_sums_stay_within_the_limit_of_the_full_mindist() {
    for (case, (len, segments, bits)) in [(250usize, 16usize, 8u8), (64, 6, 12), (250, 16, 3)]
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(0xC0A6 + case as u64);
        let params = SaxParams::new(len, segments, bits);
        let words: Vec<_> = hostile_collection(&mut rng, len)
            .iter()
            .map(|s| params.sax_word(s))
            .collect();
        let flat: Vec<u16> = words.iter().flat_map(|w| w.symbols.clone()).collect();
        let shift = u32::from(bits - params.coarse_bits());
        let coarse = CoarseBlocks::new(&SummaryBlocks::from_rows(segments, &flat), shift);
        for (qi, q) in hostile_queries(&mut rng, len).iter().enumerate() {
            let q_paa = params.paa().transform(q);
            let mut pass = params.coarse_pass(&q_paa);
            for scale in coarse_scales(&pass) {
                pass.quantize(scale);
                for arm in CoarseArm::available() {
                    let mut sums = Vec::new();
                    pass.sums_with(arm, &coarse, &mut sums);
                    for (i, (word, &sum)) in words.iter().zip(&sums).enumerate() {
                        let full = params.mindist_paa_to_isax(&q_paa, &word.to_isax(bits, bits));
                        assert!(
                            sum <= pass.limit(full),
                            "len={len} bits={bits} query={qi} scale={scale} series={i} {arm:?}"
                        );
                    }
                }
            }
        }
    }
}
