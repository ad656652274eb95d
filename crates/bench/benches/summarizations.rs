//! Criterion micro-benchmarks of the summarization transforms of Figure 1:
//! PAA, DFT, DHWT, EAPCA, SAX, SFA and VA+ throughput, plus their
//! lower-bound kernels — per pair, and as the whole-collection sweeps ADS+
//! and the VA+file run per query.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hydra_data::RandomWalkGenerator;
use hydra_storage::refine::LazyRanking;
use hydra_transforms::eapca::{uniform_segmentation, Eapca};
use hydra_transforms::fft::dft_summary;
use hydra_transforms::sax::SaxParams;
use hydra_transforms::sfa::{SfaParams, SfaQuantizer};
use hydra_transforms::vaplus::VaPlusQuantizer;
use hydra_transforms::{HaarTransform, Paa};

fn bench_transforms(c: &mut Criterion) {
    let mut group = c.benchmark_group("summarize_series");
    group.sample_size(30);
    for &len in &[256usize, 1024] {
        let gen = RandomWalkGenerator::new(3, len);
        let series = gen.series(0);
        let values = series.values();
        let segments = 16;

        let paa = Paa::new(len, segments);
        group.bench_with_input(BenchmarkId::new("paa", len), &len, |b, _| {
            b.iter(|| black_box(paa.transform(values)))
        });
        group.bench_with_input(BenchmarkId::new("dft16", len), &len, |b, _| {
            b.iter(|| black_box(dft_summary(values, segments)))
        });
        let haar = HaarTransform::new(len);
        group.bench_with_input(BenchmarkId::new("dhwt", len), &len, |b, _| {
            b.iter(|| black_box(haar.transform(values)))
        });
        let segmentation = uniform_segmentation(len, segments);
        group.bench_with_input(BenchmarkId::new("eapca", len), &len, |b, _| {
            b.iter(|| black_box(Eapca::compute(values, &segmentation)))
        });
        let sax = SaxParams::new(len, segments, 8);
        group.bench_with_input(BenchmarkId::new("sax", len), &len, |b, _| {
            b.iter(|| black_box(sax.sax_word(values)))
        });
    }
    group.finish();
}

fn bench_lower_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("lower_bound_kernels");
    group.sample_size(30);
    let len = 256;
    let segments = 16;
    let gen = RandomWalkGenerator::new(5, len);
    let sample: Vec<Vec<f32>> = (0..200u64).map(|i| gen.series(i).into_values()).collect();
    let q = gen.series(1000);
    let cand = gen.series(2000);

    let paa = Paa::new(len, segments);
    let q_paa = paa.transform(q.values());
    let c_paa = paa.transform(cand.values());
    group.bench_function("paa_lower_bound", |b| {
        b.iter(|| black_box(paa.lower_bound(&q_paa, &c_paa)))
    });

    let sax = SaxParams::new(len, segments, 8);
    let word = sax.sax_word(cand.values()).to_isax(8, 8);
    group.bench_function("isax_mindist", |b| {
        b.iter(|| black_box(sax.mindist_paa_to_isax(&q_paa, &word)))
    });

    let sfa = SfaQuantizer::train(
        SfaParams::new(len, segments).with_alphabet_size(8),
        sample.iter().map(|s| s.as_slice()),
    );
    let q_dft = sfa.dft(q.values());
    let sfa_word = sfa.word(cand.values());
    group.bench_function("sfa_mindist", |b| {
        b.iter(|| black_box(sfa.mindist(&q_dft, &sfa_word)))
    });

    let va = VaPlusQuantizer::train(
        len,
        segments,
        segments * 8,
        sample.iter().map(|s| s.as_slice()),
    );
    let q_vadft = va.dft(q.values());
    let cell = va.cell(cand.values());
    group.bench_function("vaplus_lower_bound", |b| {
        b.iter(|| black_box(va.lower_bound(&q_vadft, &cell)))
    });
    group.finish();
}

/// One query's table build + sweep over 100k flat summaries (ADS+ SIMS
/// step 2), and the same plus the lazy ranking of a 7 % prefix (VA+file
/// phase 1) — next to the per-pair rows above, which no longer price them.
fn bench_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("summary_sweeps");
    group.sample_size(30);
    let len = 256;
    let segments = 16;
    let rows = 100_000usize;
    let gen = RandomWalkGenerator::new(5, len);
    let q = gen.series(1_000_000);

    let sax = SaxParams::new(len, segments, 8);
    let q_paa = sax.paa().transform(q.values());
    let mut words = Vec::with_capacity(rows * segments);
    for i in 0..rows as u64 {
        words.extend(sax.sax_word(gen.series(i).values()).symbols);
    }
    let mut bounds = Vec::new();
    group.bench_function(BenchmarkId::new("adsplus_sweep", "100k"), |b| {
        b.iter(|| {
            sax.sweep(&q_paa, rows).sweep(&words, &mut bounds);
            black_box(bounds.last().copied())
        })
    });

    let sample: Vec<Vec<f32>> = (0..1000u64).map(|i| gen.series(i).into_values()).collect();
    let va = VaPlusQuantizer::train(
        len,
        segments,
        segments * 8,
        sample.iter().map(|s| s.as_slice()),
    );
    let q_dft = va.dft(q.values());
    let mut cells = Vec::with_capacity(rows * segments);
    for i in 0..rows as u64 {
        cells.extend(va.cell(gen.series(i).values()).cells);
    }
    let mut ranking = LazyRanking::default();
    group.bench_function(BenchmarkId::new("vaplus_sweep_rank", "100k"), |b| {
        b.iter(|| {
            va.sweep(&q_dft, rows).sweep(&cells, &mut bounds);
            ranking.reset(&bounds);
            black_box(ranking.by_ref().take(rows * 7 / 100).last())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_transforms, bench_lower_bounds, bench_sweeps);
criterion_main!(benches);
