//! Criterion micro-benchmarks of the Euclidean distance kernels, including
//! the ablation of the UCR-Suite optimizations (plain vs early abandoning vs
//! reordered early abandoning) that the paper applies to every method, plus
//! the hot-loop allocation sweep (per-candidate allocation vs reused
//! per-query scratch) and the query-major batched kernel.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hydra_core::distance::{
    euclidean, squared_euclidean, squared_euclidean_early_abandon,
    squared_euclidean_multi_reordered, squared_euclidean_reordered, QueryOrder,
};
use hydra_core::{simd, KnnHeap, Parallelism};
use hydra_data::RandomWalkGenerator;
use hydra_transforms::fft::{Complex, Fft};

fn bench_distance_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_kernels");
    group.sample_size(40);
    for &len in &[128usize, 256, 1024] {
        let gen = RandomWalkGenerator::new(1, len);
        let q = gen.series(0);
        let cand = gen.series(1);
        // A realistic pruning threshold: half the true distance, so early
        // abandoning actually triggers.
        let threshold = squared_euclidean(q.values(), cand.values()) * 0.25;
        let order = QueryOrder::new(q.values());

        group.bench_with_input(BenchmarkId::new("plain", len), &len, |b, _| {
            b.iter(|| black_box(euclidean(q.values(), cand.values())))
        });
        group.bench_with_input(BenchmarkId::new("squared", len), &len, |b, _| {
            b.iter(|| black_box(squared_euclidean(q.values(), cand.values())))
        });
        group.bench_with_input(BenchmarkId::new("early_abandon", len), &len, |b, _| {
            b.iter(|| {
                black_box(squared_euclidean_early_abandon(
                    q.values(),
                    cand.values(),
                    threshold,
                ))
            })
        });
        group.bench_with_input(
            BenchmarkId::new("reordered_early_abandon", len),
            &len,
            |b, _| {
                b.iter(|| {
                    black_box(squared_euclidean_reordered(
                        q.values(),
                        cand.values(),
                        &order,
                        threshold,
                    ))
                })
            },
        );
    }
    group.finish();
}

/// The hot-loop allocation sweep: the before/after of reusing per-query
/// scratch (k-NN heap, FFT spectrum buffer) instead of allocating per
/// candidate / per query — the difference the batch kernels bank on.
fn bench_allocation_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocation_sweep");
    group.sample_size(40);

    // k-NN heap: fresh allocation per query vs one reset heap.
    let offers: Vec<(usize, f64)> = (0..512)
        .map(|i| (i, ((i * 37) % 101) as f64 + 0.5))
        .collect();
    group.bench_function("knn_heap_fresh_per_query", |b| {
        b.iter(|| {
            let mut h = KnnHeap::new(10);
            for &(id, d) in &offers {
                h.offer(id, d);
            }
            black_box(h.take_answer_set())
        })
    });
    group.bench_function("knn_heap_reset_reused", |b| {
        let mut h = KnnHeap::new(10);
        b.iter(|| {
            h.reset(10);
            for &(id, d) in &offers {
                h.offer(id, d);
            }
            black_box(h.take_answer_set())
        })
    });

    // MASS candidate spectra: allocation per candidate vs reused scratch.
    let len = 256usize;
    let fft = Fft::new(len);
    let candidates: Vec<Vec<f32>> = (0..32)
        .map(|i| {
            RandomWalkGenerator::new(i as u64, len)
                .series(0)
                .into_values()
        })
        .collect();
    group.bench_function("fft_alloc_per_candidate", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for cand in &candidates {
                let spec = fft.forward_real(cand);
                acc += spec[1].re;
            }
            black_box(acc)
        })
    });
    group.bench_function("fft_scratch_reused", |b| {
        let mut spec: Vec<Complex> = Vec::with_capacity(len);
        b.iter(|| {
            let mut acc = 0.0f64;
            for cand in &candidates {
                fft.forward_real_into(cand, &mut spec);
                acc += spec[1].re;
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// The batched scan's inner kernel: evaluating Q queries per candidate
/// (candidate cache-resident, one data pass) vs Q separate passes.
fn bench_batched_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_scan_kernel");
    group.sample_size(30);
    let len = 256usize;
    let num_queries = 16usize;
    let gen = RandomWalkGenerator::new(7, len);
    let candidates: Vec<Vec<f32>> = (0..64)
        .map(|i| gen.series(i as u64).into_values())
        .collect();
    let queries: Vec<Vec<f32>> = (100..100 + num_queries)
        .map(|i| gen.series(i as u64).into_values())
        .collect();
    let query_refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
    let orders: Vec<QueryOrder> = queries.iter().map(|q| QueryOrder::new(q)).collect();
    let thresholds = vec![f64::INFINITY; num_queries];

    group.bench_function("query_major_one_pass", |b| {
        let mut out = vec![None; num_queries];
        b.iter(|| {
            let mut acc = 0.0f64;
            for cand in &candidates {
                squared_euclidean_multi_reordered(
                    &query_refs,
                    &orders,
                    cand,
                    &thresholds,
                    &mut out,
                );
                acc += out[0].unwrap_or(0.0);
            }
            black_box(acc)
        })
    });
    group.bench_function("per_query_q_passes", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for (q, order) in queries.iter().zip(&orders) {
                for cand in &candidates {
                    acc +=
                        squared_euclidean_reordered(q, cand, order, f64::INFINITY).unwrap_or(0.0);
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// The explicit SIMD kernels against the portable scalar path, at every
/// dispatch tier the host supports: the speedup criterion of the
/// runtime-dispatch layer (`HYDRA_SIMD`), measured on the same inputs the
/// bit-identity tests cover.
fn bench_simd_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_kernels");
    group.sample_size(60);
    let detected = simd::detected_kernel();
    for &len in &[64usize, 256, 1024] {
        let gen = RandomWalkGenerator::new(3, len);
        let q = gen.series(0);
        let cand = gen.series(1);
        let threshold = simd::squared_euclidean(q.values(), cand.values()) * 0.25;
        let low: Vec<f64> = q.values().iter().map(|&v| v as f64 - 0.5).collect();
        let high: Vec<f64> = q.values().iter().map(|&v| v as f64 + 0.25).collect();
        let weights: Vec<f64> = (0..len).map(|i| 1.0 + (i % 7) as f64).collect();

        for kernel in [simd::Kernel::Portable, detected] {
            let tag = |name: &str| format!("{name}/{}", kernel.name());
            group.bench_with_input(BenchmarkId::new(tag("sq_euclidean"), len), &len, |b, _| {
                b.iter(|| {
                    black_box(simd::squared_euclidean_with(
                        kernel,
                        q.values(),
                        cand.values(),
                    ))
                })
            });
            group.bench_with_input(
                BenchmarkId::new(tag("sq_euclidean_early_abandon"), len),
                &len,
                |b, _| {
                    b.iter(|| {
                        black_box(simd::squared_euclidean_early_abandon_with(
                            kernel,
                            q.values(),
                            cand.values(),
                            threshold,
                        ))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(tag("interval_mindist"), len),
                &len,
                |b, _| {
                    b.iter(|| {
                        black_box(simd::interval_mindist_sq_with(
                            kernel,
                            q.values(),
                            &low,
                            &high,
                        ))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(tag("interval_mindist_weighted"), len),
                &len,
                |b, _| {
                    b.iter(|| {
                        black_box(simd::interval_mindist_weighted_sq_with(
                            kernel,
                            q.values(),
                            &low,
                            &high,
                            &weights,
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

/// End-to-end single-query latency of the intra-query execution path against
/// the serial path for MASS, the one method that splits a query over
/// threads (speedup is bounded by the CPUs available to the benchmark
/// process). UCR-Suite is the control: it ignores the thread count, so its
/// two lanes should time the same. The collection is large enough for the
/// split to show: in 40-query trials on a 2-CPU host, two threads gained
/// nothing on 2 000 series of length 256, 1.3x on 20 000 and 1.7x on
/// 100 000.
fn bench_intra_query(c: &mut Criterion) {
    use hydra_bench::MethodKind;
    use hydra_core::{BuildOptions, Query};

    let mut group = c.benchmark_group("intra_query");
    group.sample_size(20);
    let len = 256usize;
    let data = RandomWalkGenerator::new(0xBE7C, len).dataset(20_000);
    let options = BuildOptions::default();
    let query = Query::nearest_neighbor(RandomWalkGenerator::new(0xF00D, len).series(0));
    for (kind, thread_counts) in [
        (MethodKind::Mass, &[2usize, 4][..]),
        (MethodKind::UcrSuite, &[2][..]),
    ] {
        let mut engine = kind.engine(&data, &options).expect("build");
        group.bench_function(BenchmarkId::new(kind.name(), "serial"), |b| {
            b.iter(|| black_box(engine.answer(&query).expect("serial")))
        });
        for &threads in thread_counts {
            group.bench_function(
                BenchmarkId::new(kind.name(), format!("threads-{threads}")),
                |b| {
                    b.iter(|| {
                        black_box(
                            engine
                                .answer_intra(&query, Parallelism::Threads(threads))
                                .expect("intra"),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_distance_kernels,
    bench_allocation_sweep,
    bench_batched_kernel,
    bench_simd_kernels,
    bench_intra_query
);
criterion_main!(benches);
