//! On-disk index persistence: round trips and corruption handling.
//!
//! The contract under test (ISSUE 3 / ROADMAP "On-disk index persistence"):
//!
//! * a snapshot saved from a freshly built index and loaded into a **fresh
//!   store** answers every query with results and per-query work counters
//!   bit-identical to the original, both serially and under a parallel
//!   workload;
//! * the bench registry's snapshot cache builds once, then loads on every
//!   later request with the same dataset + options, and invalidates on any
//!   change to either;
//! * damaged or mismatched snapshot files surface as typed errors
//!   (`InvalidSnapshot` / `StaleSnapshot`), never panics or silently-wrong
//!   indexes;
//! * snapshot file traffic is charged through the instrumented store.

use hydra_core::persist::PersistentIndex;
use hydra_core::{
    AnswerMode, BuildOptions, Dataset, Error, Parallelism, Query, QueryEngine, QueryStats, Result,
};
use hydra_data::RandomWalkGenerator;
use hydra_dstree::DsTree;
use hydra_isax::{AdsPlus, Isax2Plus};
use hydra_sfa::SfaTrie;
use hydra_storage::{snapshot, DatasetStore};
use hydra_vafile::VaPlusFile;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hydra-persist-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dataset(count: usize, len: usize) -> Dataset {
    RandomWalkGenerator::new(2024, len).dataset(count)
}

/// The round-trip workload mixes answering modes: a loaded snapshot must
/// answer exact, ng-approximate, ε- and δ-ε-approximate queries identically
/// to the fresh build (every persistent method supports every mode).
fn queries(len: usize) -> Vec<Query> {
    RandomWalkGenerator::new(777, len)
        .series_batch(8)
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let q = Query::knn(s, 5);
            match i % 4 {
                0 => q,
                1 => q.with_mode(AnswerMode::NgApproximate),
                2 => q.with_mode(AnswerMode::EpsilonApproximate { epsilon: 0.25 }),
                _ => q.with_mode(AnswerMode::DeltaEpsilon {
                    delta: 0.9,
                    epsilon: 0.25,
                }),
            }
        })
        .collect()
}

fn options() -> BuildOptions {
    BuildOptions::default()
        .with_leaf_capacity(20)
        .with_train_samples(150)
}

/// Asserts that every work counter of two per-query stats records agrees
/// exactly (wall-clock fields are scheduling noise and excluded).
fn assert_counters_identical(a: &QueryStats, b: &QueryStats, ctx: &str) {
    assert_eq!(a.raw_series_examined, b.raw_series_examined, "{ctx}");
    assert_eq!(a.lower_bounds_computed, b.lower_bounds_computed, "{ctx}");
    assert_eq!(a.leaves_visited, b.leaves_visited, "{ctx}");
    assert_eq!(a.internal_nodes_visited, b.internal_nodes_visited, "{ctx}");
    assert_eq!(a.early_abandons, b.early_abandons, "{ctx}");
    assert_eq!(
        a.sequential_page_accesses, b.sequential_page_accesses,
        "{ctx}"
    );
    assert_eq!(a.random_page_accesses, b.random_page_accesses, "{ctx}");
    assert_eq!(a.bytes_read, b.bytes_read, "{ctx}");
}

/// Saves `built` (freshly constructed over `data`), reloads it into a fresh
/// store, and asserts the loaded index is indistinguishable from the built
/// one on the whole workload — serially and at 4 worker threads.
fn assert_round_trip<I, F>(name: &str, data: &Dataset, opts: &BuildOptions, build: F)
where
    I: PersistentIndex<Context = Arc<DatasetStore>> + 'static,
    F: FnOnce(Arc<DatasetStore>, &BuildOptions) -> Result<I>,
{
    let dir = temp_dir("roundtrip");
    let path = dir.join(format!("{name}.snapshot"));
    let built_store = Arc::new(DatasetStore::new(data.clone()));
    let built = build(built_store.clone(), opts).expect("fresh build");
    let written = snapshot::save_index(&built, &built_store, opts, &path).expect("save");
    assert!(written > 0);

    let fresh_store = Arc::new(DatasetStore::new(data.clone()));
    let loaded: I = snapshot::load_index(fresh_store.clone(), opts, &path).expect("load");

    let qs = queries(data.series_length());
    let mut built_engine =
        QueryEngine::new(Box::new(built), data.len()).with_io_source(built_store);
    let mut loaded_engine =
        QueryEngine::new(Box::new(loaded), data.len()).with_io_source(fresh_store.clone());

    let built_serial = built_engine
        .answer_workload(&qs, Parallelism::Serial)
        .expect("built serial");
    let loaded_serial = loaded_engine
        .answer_workload(&qs, Parallelism::Serial)
        .expect("loaded serial");
    let loaded_parallel = loaded_engine
        .answer_workload(&qs, Parallelism::Threads(4))
        .expect("loaded parallel");

    for (qi, (b, l)) in built_serial.iter().zip(&loaded_serial).enumerate() {
        assert_eq!(
            b.answers, l.answers,
            "{name}: serial answers of query {qi} must be bit-identical"
        );
        assert_counters_identical(&b.stats, &l.stats, &format!("{name} serial query {qi}"));
    }
    for (qi, (b, p)) in built_serial.iter().zip(&loaded_parallel).enumerate() {
        assert_eq!(
            b.answers, p.answers,
            "{name}: parallel answers of query {qi} must be bit-identical"
        );
        assert_counters_identical(&b.stats, &p.stats, &format!("{name} parallel query {qi}"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn va_plus_file_round_trips_bit_identically() {
    let data = dataset(400, 64);
    assert_round_trip::<VaPlusFile, _>("vafile", &data, &options(), VaPlusFile::build_on_store);
}

#[test]
fn isax2plus_round_trips_bit_identically() {
    let data = dataset(400, 64);
    assert_round_trip::<Isax2Plus, _>("isax2plus", &data, &options(), Isax2Plus::build_on_store);
}

#[test]
fn ads_plus_round_trips_bit_identically() {
    let data = dataset(400, 64);
    assert_round_trip::<AdsPlus, _>("adsplus", &data, &options(), AdsPlus::build_on_store);
}

#[test]
fn dstree_round_trips_bit_identically() {
    let data = dataset(400, 64);
    let opts = options().with_segments(8);
    assert_round_trip::<DsTree, _>("dstree", &data, &opts, DsTree::build_on_store);
}

#[test]
fn sfa_trie_round_trips_bit_identically() {
    let data = dataset(400, 64);
    let opts = options().with_alphabet_size(8);
    assert_round_trip::<SfaTrie, _>("sfatrie", &data, &opts, SfaTrie::build_on_store);
}

/// FNV-1a digest of `index`'s snapshot payload, the bytes `save_index` wraps.
fn payload_digest<I: PersistentIndex>(index: &I) -> u64 {
    let mut payload: Vec<u8> = Vec::new();
    index.save_payload(&mut payload).unwrap();
    let mut hasher = hydra_core::hash::Fnv1a::new();
    hasher.write_bytes(&payload);
    hasher.finish()
}

/// Cross-commit golden for the on-disk format of the three tree snapshots:
/// the payload digests were recorded on the commit before the trees' leaves
/// moved to flat summary blocks, so an in-memory layout change that leaks
/// into the bytes — and would strand every existing `--index-dir` cache —
/// fails here. The dataset carries a run of duplicates longer than a leaf
/// and constant series, so degenerate splits are in the bytes too.
#[test]
fn tree_snapshot_payloads_match_the_recorded_digests() {
    let len = 64;
    let walks = RandomWalkGenerator::new(2929, len);
    let mut data = Dataset::empty(len);
    for i in 0..300u64 {
        data.push(walks.series(i).values());
        if i % 10 == 0 {
            data.push(walks.series(5000).values());
        }
    }
    for level in [0.0f32, 0.0, -1.25] {
        data.push(&vec![level; len]);
    }
    let store = || Arc::new(DatasetStore::new(data.clone()));
    let opts = options();
    let digests = [
        payload_digest(&DsTree::build_on_store(store(), &opts.clone().with_segments(8)).unwrap()),
        payload_digest(&Isax2Plus::build_on_store(store(), &opts).unwrap()),
        payload_digest(&AdsPlus::build_on_store(store(), &opts).unwrap()),
    ];
    // iSAX2+ and ADS+ write the same iSAX tree, so their payloads agree.
    assert_eq!(
        digests,
        [
            4_003_491_479_337_630_393,
            9_411_367_254_519_154_624,
            9_411_367_254_519_154_624
        ],
        "dstree / isax2plus / adsplus payload digests"
    );
}

#[test]
fn parallel_build_and_loaded_snapshot_are_the_same_index() {
    // Build at 4 threads, snapshot, reload: the loaded index must agree with
    // a *serial* fresh build — persistence composes with the parallel-build
    // identity guarantee.
    let data = dataset(500, 64);
    let opts = options().with_segments(8);
    let dir = temp_dir("parallel-build");
    let path = dir.join("dstree-parallel.snapshot");
    let parallel_store = Arc::new(DatasetStore::new(data.clone()));
    let built = DsTree::build_on_store(parallel_store.clone(), &opts.clone().with_build_threads(4))
        .unwrap();
    // build_threads is excluded from the options fingerprint, so a snapshot
    // saved from a 4-thread build loads under serial options.
    snapshot::save_index(&built, &parallel_store, &opts, &path).unwrap();

    let fresh_store = Arc::new(DatasetStore::new(data.clone()));
    let loaded: DsTree = snapshot::load_index(fresh_store, &opts, &path).unwrap();
    let serial = DsTree::build_on_store(Arc::new(DatasetStore::new(data.clone())), &opts).unwrap();

    for q in queries(64) {
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        use hydra_core::AnsweringMethod;
        let a = serial.answer(&q, &mut s1).unwrap();
        let b = loaded.answer(&q, &mut s2).unwrap();
        assert_eq!(a, b);
        assert_counters_identical(&s1, &s2, "parallel-built snapshot");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_io_is_charged_to_the_store() {
    let data = dataset(300, 64);
    let opts = options();
    let dir = temp_dir("counted-io");
    let path = dir.join("counted.snapshot");

    let store = Arc::new(DatasetStore::new(data.clone()));
    let built = VaPlusFile::build_on_store(store.clone(), &opts).unwrap();
    let before_save = store.io_snapshot();
    let written = snapshot::save_index(&built, &store, &opts, &path).unwrap();
    let after_save = store.io_snapshot();
    assert_eq!(
        after_save.bytes_written - before_save.bytes_written,
        written,
        "every snapshot byte written must be counted"
    );
    assert_eq!(written, std::fs::metadata(&path).unwrap().len());

    let fresh = Arc::new(DatasetStore::new(data.clone()));
    let _loaded: VaPlusFile = snapshot::load_index(fresh.clone(), &opts, &path).unwrap();
    let io = fresh.io_snapshot();
    assert_eq!(
        io.bytes_read, written,
        "every snapshot byte read must be counted"
    );
    // One seek to the snapshot file, then sequential pages.
    assert_eq!(io.random_pages, 1);
    assert_eq!(
        io.total_pages(),
        written.div_ceil(fresh.page_bytes() as u64).max(1)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn corruption_yields_typed_errors_never_panics() {
    let data = dataset(200, 64);
    let opts = options().with_segments(8);
    let dir = temp_dir("corruption");
    let path = dir.join("victim.snapshot");
    let store = Arc::new(DatasetStore::new(data.clone()));
    let built = DsTree::build_on_store(store.clone(), &opts).unwrap();
    snapshot::save_index(&built, &store, &opts, &path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let fresh = || Arc::new(DatasetStore::new(data.clone()));
    let load = |p: &std::path::Path| -> Result<DsTree> { snapshot::load_index(fresh(), &opts, p) };

    // Truncated file.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    match load(&path) {
        Err(Error::InvalidSnapshot(_)) => {}
        other => panic!(
            "truncation must be InvalidSnapshot, got {other:?}",
            other = other.err()
        ),
    }
    // Bad magic.
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    std::fs::write(&path, &bad_magic).unwrap();
    match load(&path) {
        Err(Error::InvalidSnapshot(msg)) => assert!(msg.contains("magic"), "{msg}"),
        other => panic!(
            "bad magic must be InvalidSnapshot, got {other:?}",
            other = other.err()
        ),
    }
    // Payload damage fails the checksum.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    match load(&path) {
        Err(Error::InvalidSnapshot(msg)) => assert!(msg.contains("checksum"), "{msg}"),
        other => panic!(
            "damage must be InvalidSnapshot, got {other:?}",
            other = other.err()
        ),
    }
    // Restore the good bytes: a *different dataset* is a stale fingerprint.
    std::fs::write(&path, &good).unwrap();
    let other_data = RandomWalkGenerator::new(999, 64).dataset(200);
    let stale: Result<DsTree> =
        snapshot::load_index(Arc::new(DatasetStore::new(other_data)), &opts, &path);
    match stale {
        Err(Error::StaleSnapshot(msg)) => assert!(msg.contains("dataset"), "{msg}"),
        other => panic!(
            "dataset change must be StaleSnapshot, got {other:?}",
            other = other.err()
        ),
    }
    // Different build options are stale too.
    let stale: Result<DsTree> =
        snapshot::load_index(fresh(), &opts.clone().with_leaf_capacity(99), &path);
    assert!(matches!(stale, Err(Error::StaleSnapshot(_))));
    // Decoding with the wrong method is stale (kind mismatch).
    let wrong_kind: Result<VaPlusFile> = snapshot::load_index(fresh(), &opts, &path);
    assert!(matches!(wrong_kind, Err(Error::StaleSnapshot(_))));
    // A missing file is a plain I/O error (the cache treats it as a miss).
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(load(&path), Err(Error::Io { .. })));
    // And the good snapshot still loads after all that.
    std::fs::write(&path, &good).unwrap();
    assert!(load(&path).is_ok());
    std::fs::remove_file(&path).ok();
}

/// Loads `payload` as an index of type `I` over a fresh store of `data`.
fn load_payload<I>(data: &Dataset, payload: &[u8]) -> Result<I>
where
    I: PersistentIndex<Context = Arc<DatasetStore>>,
{
    let mut source = hydra_core::persist::SliceSource::new(payload);
    I::load_payload(Arc::new(DatasetStore::new(data.clone())), &mut source)
}

/// Summary symbols index the per-query bound tables (and the breakpoint
/// tables behind them), so a payload whose checksum is intact but whose
/// symbols are impossible must be a typed error at load — before this check
/// it loaded and then panicked out of bounds inside the first exact query.
#[test]
fn payloads_with_out_of_range_summary_symbols_are_rejected_not_panicking() {
    // VA+file: the payload ends with the last series' cell indices.
    let data = dataset(60, 64);
    let opts = options().with_segments(8);
    let built =
        VaPlusFile::build_on_store(Arc::new(DatasetStore::new(data.clone())), &opts).unwrap();
    let mut payload: Vec<u8> = Vec::new();
    built.save_payload(&mut payload).unwrap();
    assert!(load_payload::<VaPlusFile>(&data, &payload).is_ok());
    let at = payload.len() - 2;
    payload[at..].copy_from_slice(&u16::MAX.to_le_bytes());
    match load_payload::<VaPlusFile>(&data, &payload) {
        Err(Error::InvalidSnapshot(msg)) => assert!(msg.contains("cell"), "{msg}"),
        other => panic!(
            "an impossible cell must be InvalidSnapshot, got {:?}",
            other.err()
        ),
    }

    // ADS+: twelve series under a 20-entry capacity, so every node is a leaf
    // and the first node's first entry sits right behind the fixed header:
    // series_length (8) + segments (8) + max_bits (1) + leaf_capacity (8) +
    // num_nodes (8), then depth (8) + word symbols (2/segment) + word bits
    // (1/segment) + tag (1) + entry count (8) + entry id (4).
    let data = dataset(12, 64);
    let segments = 8;
    let opts = options().with_segments(segments);
    let built = AdsPlus::build_on_store(Arc::new(DatasetStore::new(data.clone())), &opts).unwrap();
    let mut payload: Vec<u8> = Vec::new();
    built.save_payload(&mut payload).unwrap();
    assert!(load_payload::<AdsPlus>(&data, &payload).is_ok());
    let at = 33 + 8 + 3 * segments + 1 + 8 + 4;
    payload[at..at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
    match load_payload::<AdsPlus>(&data, &payload) {
        Err(Error::InvalidSnapshot(msg)) => assert!(msg.contains("leaf entry"), "{msg}"),
        other => panic!(
            "an impossible leaf symbol must be InvalidSnapshot, got {:?}",
            other.err()
        ),
    }
    // The same payload is an iSAX2+ tree, whose splits shift these symbols.
    assert!(matches!(
        load_payload::<Isax2Plus>(&data, &payload),
        Err(Error::InvalidSnapshot(_))
    ));
}

#[test]
fn registry_cache_saves_then_loads_and_invalidates() {
    use hydra_bench::{MethodKind, SnapshotOutcome};
    let data = dataset(250, 64);
    let opts = options();
    let dir = temp_dir("registry-cache");
    let qs = queries(64);

    for kind in [MethodKind::Isax2Plus, MethodKind::SfaTrie] {
        assert!(kind.supports_snapshots());
        let store = || Arc::new(DatasetStore::new(data.clone()));
        let (mut first, outcome1) = kind.engine_with_snapshot(store(), &opts, &dir).unwrap();
        assert!(
            matches!(outcome1, SnapshotOutcome::Saved { bytes } if bytes > 0),
            "{}: first build must save, got {outcome1:?}",
            kind.name()
        );
        let (mut second, outcome2) = kind.engine_with_snapshot(store(), &opts, &dir).unwrap();
        assert!(
            outcome2.loaded(),
            "{}: second build must load, got {outcome2:?}",
            kind.name()
        );
        // A load performs no raw-data pass: its build I/O is just the
        // snapshot read.
        assert_eq!(second.build_io().bytes_written, 0);
        assert!(second.build_io().bytes_read > 0);

        let a = first.answer_workload(&qs, Parallelism::Serial).unwrap();
        let b = second.answer_workload(&qs, Parallelism::Serial).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.answers, y.answers, "{}", kind.name());
            assert_counters_identical(&x.stats, &y.stats, kind.name());
        }

        // Different options: the cache must rebuild, not serve the old file.
        let (_, outcome3) = kind
            .engine_with_snapshot(store(), &opts.clone().with_leaf_capacity(37), &dir)
            .unwrap();
        assert!(matches!(outcome3, SnapshotOutcome::Saved { .. }));
        // Different dataset: rebuild as well.
        let other = RandomWalkGenerator::new(4321, 64).dataset(250);
        let (_, outcome4) = kind
            .engine_with_snapshot(Arc::new(DatasetStore::new(other)), &opts, &dir)
            .unwrap();
        assert!(matches!(outcome4, SnapshotOutcome::Saved { .. }));
    }

    // Scans never persist.
    let (_, scan_outcome) = hydra_bench::MethodKind::UcrSuite
        .engine_with_snapshot(Arc::new(DatasetStore::new(data.clone())), &opts, &dir)
        .unwrap();
    assert_eq!(scan_outcome, SnapshotOutcome::Unsupported);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_build_skips_the_rebuild_when_the_config_names_an_index_dir() {
    use hydra_bench::{run_build, MethodKind, RunConfig};
    let data = dataset(200, 64);
    let opts = options().with_segments(8);
    let dir = temp_dir("config-run-build");
    let cached = RunConfig {
        index_dir: Some(dir.clone()),
        ..RunConfig::default()
    };
    let first = run_build(MethodKind::DsTree, &data, &opts, &cached)
        .unwrap()
        .1;
    let second = run_build(MethodKind::DsTree, &data, &opts, &cached)
        .unwrap()
        .1;
    assert!(
        matches!(first.snapshot, hydra_bench::SnapshotOutcome::Saved { .. }),
        "{:?}",
        first.snapshot
    );
    assert!(second.snapshot.loaded(), "{:?}", second.snapshot);
    // The load still reports the footprint of the reconstructed index.
    assert_eq!(
        second.footprint.as_ref().map(|f| f.total_nodes),
        first.footprint.as_ref().map(|f| f.total_nodes)
    );
    // Without an index directory, run_build builds fresh and touches no
    // snapshot.
    let third = run_build(MethodKind::DsTree, &data, &opts, &RunConfig::default())
        .unwrap()
        .1;
    assert_eq!(third.snapshot, hydra_bench::SnapshotOutcome::Unsupported);
    std::fs::remove_dir_all(&dir).ok();
}
