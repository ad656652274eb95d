//! End-to-end checks of the storage accounting and cost model that the
//! experiment harness uses to reproduce the paper's disk-access and
//! scalability figures.

use hydra_core::{AnsweringMethod, BuildOptions, Query, QueryStats};
use hydra_data::RandomWalkGenerator;
use hydra_integration::dataset;
use hydra_isax::tree::NodeKind;
use hydra_isax::AdsPlus;
use hydra_scan::UcrScan;
use hydra_storage::{CostModel, DatasetStore, IoSnapshot};
use hydra_vafile::VaPlusFile;
use std::sync::Arc;

#[test]
fn sequential_scan_has_the_most_sequential_and_fewest_random_accesses() {
    let data = dataset(1000, 128, 10);
    let opts = BuildOptions::default()
        .with_segments(16)
        .with_leaf_capacity(50);

    let scan_store = Arc::new(DatasetStore::new(data.clone()));
    let scan = UcrScan::new(scan_store.clone());
    let ads_store = Arc::new(DatasetStore::new(data.clone()));
    let ads = AdsPlus::build_on_store(ads_store.clone(), &opts).unwrap();
    let va_store = Arc::new(DatasetStore::new(data.clone()));
    let va = VaPlusFile::build_on_store(va_store.clone(), &opts).unwrap();

    // An easy (member) query so that the filter-based methods actually prune.
    let q = data.series(500).to_owned_series();
    let mut scan_stats = QueryStats::default();
    scan.answer(&Query::nearest_neighbor(q.clone()), &mut scan_stats)
        .unwrap();
    let mut ads_stats = QueryStats::default();
    ads.answer(&Query::nearest_neighbor(q.clone()), &mut ads_stats)
        .unwrap();
    let mut va_stats = QueryStats::default();
    va.answer(&Query::nearest_neighbor(q), &mut va_stats)
        .unwrap();

    // The scan reads everything sequentially with a single seek.
    assert_eq!(scan_stats.random_page_accesses, 1);
    assert!(scan_stats.sequential_page_accesses > ads_stats.sequential_page_accesses);
    assert!(scan_stats.sequential_page_accesses > va_stats.sequential_page_accesses);
    // The filter-based methods trade sequential volume for random accesses.
    assert!(ads_stats.random_page_accesses >= 1);
    assert!(va_stats.random_page_accesses >= 1);
    // And they read far fewer bytes of raw data.
    assert!(va_stats.bytes_read < scan_stats.bytes_read);
}

#[test]
fn cost_model_reverses_winners_between_hdd_and_ssd_access_patterns() {
    // A scan-heavy profile vs a seek-heavy profile: the HDD model must favour
    // the former relatively more than the SSD model does — the effect behind
    // the paper's HDD/SSD winner flip.
    let scan_like = IoSnapshot {
        sequential_pages: 100_000,
        random_pages: 1,
        bytes_read: 100_000 * 4096,
        bytes_written: 0,
    };
    let seek_like = IoSnapshot {
        sequential_pages: 0,
        random_pages: 3_000,
        bytes_read: 3_000 * 4096,
        bytes_written: 0,
    };
    let hdd = CostModel::hdd();
    let ssd = CostModel::ssd();
    let hdd_ratio = hdd.io_time(&seek_like).as_secs_f64() / hdd.io_time(&scan_like).as_secs_f64();
    let ssd_ratio = ssd.io_time(&seek_like).as_secs_f64() / ssd.io_time(&scan_like).as_secs_f64();
    assert!(
        hdd_ratio > ssd_ratio,
        "random-heavy access must be relatively more expensive on HDD ({hdd_ratio:.2}) than SSD ({ssd_ratio:.2})"
    );
    assert!(ssd.io_time(&seek_like) < hdd.io_time(&seek_like));
}

#[test]
fn query_stats_io_matches_store_counters_for_the_scan() {
    let data = dataset(500, 64, 20);
    let store = Arc::new(DatasetStore::new(data));
    let scan = UcrScan::new(store.clone());
    store.reset_io();
    let q = RandomWalkGenerator::new(9, 64).series(1);
    let mut stats = QueryStats::default();
    scan.answer(&Query::nearest_neighbor(q), &mut stats)
        .unwrap();
    let io = store.io_snapshot();
    assert_eq!(stats.sequential_page_accesses, io.sequential_pages);
    assert_eq!(stats.random_page_accesses, io.random_pages);
    assert_eq!(stats.bytes_read, io.bytes_read);
}

#[test]
fn concurrent_readers_produce_exact_aggregate_io_totals() {
    // N threads hammering reads through the same store: the aggregate
    // IoSnapshot must be the exact sum of every thread's traffic — no lost
    // updates, no double counting — because each thread records into its own
    // shard and the global snapshot sums the shards.
    const THREADS: usize = 8;
    const READS_PER_THREAD: usize = 200;
    // 1 KiB series, 4 per page: a stride of 8 series jumps 2 pages, so every
    // single-series read is a random access under per-thread head tracking.
    let store = Arc::new(DatasetStore::new(dataset(1600, 256, 7)));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            scope.spawn(move || {
                for r in 0..READS_PER_THREAD {
                    let id = ((t + r) * 8) % 1600;
                    let series = store.read_series(id);
                    assert_eq!(series.len(), 256);
                }
                // Each worker observed exactly its own traffic.
                let local = store.thread_io_snapshot();
                assert_eq!(local.total_pages(), READS_PER_THREAD as u64);
                assert_eq!(local.random_pages, READS_PER_THREAD as u64);
                assert_eq!(local.bytes_read, (READS_PER_THREAD * 1024) as u64);
            });
        }
    });
    let total = store.io_snapshot();
    let expected_reads = (THREADS * READS_PER_THREAD) as u64;
    assert_eq!(total.total_pages(), expected_reads);
    assert_eq!(total.random_pages, expected_reads);
    assert_eq!(total.sequential_pages, 0);
    assert_eq!(total.bytes_read, expected_reads * 1024);
}

#[test]
fn index_construction_writes_are_visible_to_the_cost_model() {
    let data = dataset(400, 64, 30);
    let store = Arc::new(DatasetStore::new(data));
    let _va = VaPlusFile::build_on_store(
        store.clone(),
        &BuildOptions::default()
            .with_segments(16)
            .with_leaf_capacity(50),
    )
    .unwrap();
    let io = store.io_snapshot();
    assert!(
        io.bytes_written > 0,
        "index construction must record its write volume"
    );
    let model = CostModel::hdd();
    assert!(model.write_time(&io) > std::time::Duration::ZERO);
    assert!(model.total_time(&io) >= model.io_time(&io));
}

/// ROADMAP item 3's pruning target for ADS+: exact search refines at most
/// 1.5× the series the VA+file does (the refinement floor) over the same
/// queries. The batch includes a query whose covering leaf holds fewer than
/// `k` series: when the best-so-far was seeded from that leaf, its first
/// skip-sequential run was sized against an under-full heap and read the
/// whole file.
#[test]
fn adsplus_refines_at_most_one_and_a_half_times_the_vafile_floor() {
    const LEN: usize = 128;
    let k = 10;
    let data = dataset(4000, LEN, 41);
    let opts = BuildOptions::default()
        .with_segments(16)
        .with_leaf_capacity(50);
    let ads = AdsPlus::build_on_store(Arc::new(DatasetStore::new(data.clone())), &opts).unwrap();
    let va = VaPlusFile::build_on_store(Arc::new(DatasetStore::new(data)), &opts).unwrap();
    let queries = RandomWalkGenerator::new(42, LEN).series_batch(16);

    let tree = ads.tree();
    let covering_leaf_size = |q: &hydra_core::Series| {
        let paa = tree.params().paa().transform(q.values());
        let sax = tree.params().sax_word_from_paa(&paa);
        let leaf = tree.locate_leaf(&sax.symbols, &mut QueryStats::default());
        leaf.map_or(0, |leaf| match &tree.node(leaf).kind {
            NodeKind::Leaf { ids, .. } => ids.len(),
            NodeKind::Internal { .. } => unreachable!("locate_leaf ends on a leaf"),
        })
    };
    assert!(
        queries.iter().any(|q| covering_leaf_size(q) < k),
        "the batch must hold a query whose covering leaf has fewer than k series"
    );

    let examined = |method: &dyn AnsweringMethod| -> u64 {
        queries
            .iter()
            .map(|q| {
                let mut stats = QueryStats::default();
                method
                    .answer(&Query::knn(q.clone(), k), &mut stats)
                    .unwrap();
                stats.raw_series_examined
            })
            .sum()
    };
    let (ads_examined, va_examined) = (examined(&ads), examined(&va));
    assert!(
        ads_examined * 2 <= va_examined * 3,
        "ADS+ refined {ads_examined} series, VA+file {va_examined}: above 1.5x"
    );
}
