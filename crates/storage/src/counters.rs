//! I/O accounting: sequential vs random page accesses and bytes read.
//!
//! The counters are **sharded per thread**: every recording thread owns a
//! private shard with its own running totals and its own sequentiality
//! tracking (its own simulated disk head). The global [`IoCounters::snapshot`]
//! is the exact sum over all shards, so aggregate totals stay correct no
//! matter how many threads hammer the store concurrently, while
//! [`IoCounters::thread_snapshot`] lets a worker observe exactly the traffic
//! of the query it is answering — the property the parallel workload driver
//! relies on to keep per-query I/O stats identical to a serial run.
//!
//! The hot path is contention-free: after a thread's first access, its shard
//! handle is cached in thread-local storage, so recording locks only the
//! caller's own (uncontended) shard mutex. The shared registry mutex is taken
//! only on first access per thread, and by `snapshot`/`reset`. Shards of
//! exited threads are folded into an orphan accumulator whenever the registry
//! is visited (a snapshot, a reset, or a new thread registering), so the
//! shard map stays bounded by the number of live threads while aggregate
//! totals remain exact.

use parking_lot::Mutex;
use std::cell::RefCell;
// hydra-lint: allow(hash-iteration-order) shard values are summed; u64 addition commutes
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
// hydra-lint: allow(nondeterministic-source) thread ids only shard counters; sums commute
use std::thread::{self, ThreadId};

// The snapshot type lives in `hydra-core` (the query engine aggregates it
// without depending on this crate); re-exported here so `hydra_storage::
// IoSnapshot` keeps working for existing users.
pub use hydra_core::stats::IoSnapshot;

/// One thread's private counters plus its sequentiality tracking.
#[derive(Debug, Default)]
struct Shard {
    snapshot: IoSnapshot,
    last_page: Option<u64>,
}

impl Shard {
    fn clear(&mut self) {
        self.snapshot = IoSnapshot::default();
        self.last_page = None;
    }
}

fn add(total: &mut IoSnapshot, part: &IoSnapshot) {
    total.sequential_pages += part.sequential_pages;
    total.random_pages += part.random_pages;
    total.bytes_read += part.bytes_read;
    total.bytes_written += part.bytes_written;
}

#[derive(Debug, Default)]
struct Registry {
    // hydra-lint: allow(nondeterministic-source) thread id keys shard the counters; sums commute
    // hydra-lint: allow(hash-iteration-order) iterated only to sum u64 counters, which commutes
    shards: HashMap<ThreadId, Arc<Mutex<Shard>>>,
    /// Traffic of exited threads, folded in when their shards are collected.
    orphaned: IoSnapshot,
}

impl Registry {
    /// Moves the counts of shards no longer referenced by any live thread
    /// into the orphan accumulator. A live thread always holds a strong
    /// cached `Arc` to its shard, so a strong count of 1 — the registry's
    /// own — means the owning thread has exited; new threads can only obtain
    /// a handle through this registry, which the caller has locked, so the
    /// check cannot race with a registration.
    fn collect_orphans(&mut self) {
        self.shards.retain(|_, shard| {
            if Arc::strong_count(shard) > 1 {
                return true;
            }
            let orphan = shard.lock();
            add(&mut self.orphaned, &orphan.snapshot);
            false
        });
    }
}

#[derive(Debug)]
struct Inner {
    id: u64,
    registry: Mutex<Registry>,
}

/// One thread-local cache entry: the shard this thread registered with a
/// counters instance. The shard `Arc` is strong — it marks the thread as
/// alive to [`Registry::collect_orphans`] — while the `Weak<Inner>` only
/// tracks whether the counters instance itself still exists, so dropped
/// instances can be swept from the cache.
struct CachedShard {
    counters_id: u64,
    shard: Arc<Mutex<Shard>>,
    instance: Weak<Inner>,
}

thread_local! {
    /// Cached shard handles of this thread, keyed by counters-instance id.
    /// Entries of dropped `IoCounters` instances are swept on every miss.
    static SHARD_CACHE: RefCell<Vec<CachedShard>> = const { RefCell::new(Vec::new()) };
}

/// Shared, thread-safe I/O counters.
///
/// Cloning an `IoCounters` yields a handle to the same underlying counters, so
/// a store and the harness can observe the same traffic.
#[derive(Clone, Debug)]
pub struct IoCounters {
    inner: Arc<Inner>,
}

impl Default for IoCounters {
    fn default() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Self {
            inner: Arc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                registry: Mutex::new(Registry::default()),
            }),
        }
    }
}

impl IoCounters {
    /// Creates a fresh set of counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The calling thread's shard, from the thread-local cache when possible.
    fn shard(&self) -> Arc<Mutex<Shard>> {
        SHARD_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(entry) = cache.iter().find(|e| e.counters_id == self.inner.id) {
                return entry.shard.clone();
            }
            // Miss: sweep entries of dropped instances, then register with
            // the shared registry. Collecting orphans here keeps the shard
            // map bounded even when nothing ever takes a global snapshot:
            // every new worker thread's first access sweeps the shards of
            // previously exited workers.
            cache.retain(|e| e.instance.strong_count() > 0);
            let shard = {
                let mut registry = self.inner.registry.lock();
                registry.collect_orphans();
                registry
                    .shards
                    // hydra-lint: allow(nondeterministic-source) selects the calling thread's shard; totals unaffected
                    .entry(thread::current().id())
                    .or_default()
                    .clone()
            };
            cache.push(CachedShard {
                counters_id: self.inner.id,
                shard: shard.clone(),
                instance: Arc::downgrade(&self.inner),
            });
            shard
        })
    }

    /// Records a read of `pages` consecutive pages starting at `first_page`,
    /// totalling `bytes` bytes. The first page is classified as sequential if
    /// it immediately follows the last page previously read *by this thread*
    /// (each thread models its own disk head), random otherwise; the remaining
    /// pages of the run are sequential.
    pub fn record_read_run(&self, first_page: u64, pages: u64, bytes: u64) {
        self.record_run(first_page, pages, bytes, false);
    }

    /// Like [`IoCounters::record_read_run`], except that a run starting on
    /// the page this thread's head is on finds that page still buffered: it
    /// is not charged again, and the run's other pages are sequential. A
    /// forward reader that stopped inside a page resumes there without a
    /// seek.
    pub fn record_read_onward(&self, first_page: u64, pages: u64, bytes: u64) {
        self.record_run(first_page, pages, bytes, true);
    }

    fn record_run(&self, first_page: u64, pages: u64, bytes: u64, onward: bool) {
        if pages == 0 {
            return;
        }
        let shard = self.shard();
        let mut shard = shard.lock();
        if onward && shard.last_page == Some(first_page) {
            shard.snapshot.sequential_pages += pages - 1;
        } else if shard.last_page == Some(first_page.wrapping_sub(1)) {
            shard.snapshot.sequential_pages += pages;
        } else {
            shard.snapshot.random_pages += 1;
            shard.snapshot.sequential_pages += pages - 1;
        }
        shard.snapshot.bytes_read += bytes;
        shard.last_page = Some(first_page + pages - 1);
    }

    /// Records `bytes` read without any page traffic or head movement: the
    /// requested range lies entirely inside pages already charged by an
    /// earlier read on this thread.
    pub fn record_read_bytes(&self, bytes: u64) {
        self.shard().lock().snapshot.bytes_read += bytes;
    }

    /// Records `pages` extra random page accesses without moving the disk
    /// head: a fault-injected latency surcharge, charged in cost-model units
    /// so degraded runs stay deterministic.
    pub fn record_surcharge(&self, pages: u64) {
        if pages == 0 {
            return;
        }
        self.shard().lock().snapshot.random_pages += pages;
    }

    /// Records `bytes` written to the store (index build payloads).
    pub fn record_write(&self, bytes: u64) {
        self.shard().lock().snapshot.bytes_written += bytes;
    }

    /// Records a read of `pages` pages from a *different* file than the raw
    /// dataset (an index snapshot): one seek to reach it, the remaining pages
    /// sequential, and the raw-file head position is forgotten — the next
    /// dataset read has to seek back.
    pub fn record_detached_read(&self, pages: u64, bytes: u64) {
        if pages == 0 {
            return;
        }
        let shard = self.shard();
        let mut shard = shard.lock();
        shard.snapshot.random_pages += 1;
        shard.snapshot.sequential_pages += pages - 1;
        shard.snapshot.bytes_read += bytes;
        shard.last_page = None;
    }

    /// Explicitly records a seek (e.g. repositioning without reading).
    pub fn record_seek(&self) {
        self.shard().lock().last_page = None;
    }

    /// Returns the exact aggregate over every thread's traffic (including
    /// threads that have since exited).
    pub fn snapshot(&self) -> IoSnapshot {
        let mut registry = self.inner.registry.lock();
        registry.collect_orphans();
        let mut total = registry.orphaned;
        for shard in registry.shards.values() {
            add(&mut total, &shard.lock().snapshot);
        }
        total
    }

    /// Returns a copy of the calling thread's counters only.
    pub fn thread_snapshot(&self) -> IoSnapshot {
        self.shard().lock().snapshot
    }

    /// Resets all counters of every thread (and the sequentiality tracking)
    /// to zero.
    pub fn reset(&self) {
        let mut registry = self.inner.registry.lock();
        registry.collect_orphans();
        registry.orphaned = IoSnapshot::default();
        for shard in registry.shards.values() {
            shard.lock().clear();
        }
    }

    /// Resets the calling thread's counters (and its sequentiality tracking)
    /// without touching other threads' shards.
    pub fn reset_thread(&self) {
        self.shard().lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_runs_count_as_sequential() {
        let c = IoCounters::new();
        c.record_read_run(0, 4, 4096);
        // First access is random (cold start), remaining 3 sequential.
        let s = c.snapshot();
        assert_eq!(s.random_pages, 1);
        assert_eq!(s.sequential_pages, 3);
        // Continuing right after page 3 is fully sequential.
        c.record_read_run(4, 2, 2048);
        let s = c.snapshot();
        assert_eq!(s.random_pages, 1);
        assert_eq!(s.sequential_pages, 5);
        assert_eq!(s.bytes_read, 6144);
        assert_eq!(s.total_pages(), 6);
    }

    #[test]
    fn jumps_count_as_random() {
        let c = IoCounters::new();
        c.record_read_run(0, 1, 1024);
        c.record_read_run(100, 1, 1024);
        c.record_read_run(50, 1, 1024);
        let s = c.snapshot();
        assert_eq!(s.random_pages, 3);
        assert_eq!(s.sequential_pages, 0);
    }

    #[test]
    fn seek_breaks_sequentiality() {
        let c = IoCounters::new();
        c.record_read_run(0, 1, 10);
        c.record_seek();
        c.record_read_run(1, 1, 10);
        let s = c.snapshot();
        assert_eq!(
            s.random_pages, 2,
            "the post-seek read must be classified random"
        );
    }

    #[test]
    fn writes_and_reset() {
        let c = IoCounters::new();
        c.record_write(500);
        c.record_write(500);
        assert_eq!(c.snapshot().bytes_written, 1000);
        c.reset();
        assert_eq!(c.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn snapshot_difference() {
        let c = IoCounters::new();
        c.record_read_run(0, 2, 100);
        let before = c.snapshot();
        c.record_read_run(2, 3, 200);
        let delta = c.snapshot().since(&before);
        assert_eq!(delta.sequential_pages, 3);
        assert_eq!(delta.random_pages, 0);
        assert_eq!(delta.bytes_read, 200);
    }

    #[test]
    fn clones_share_state() {
        let c = IoCounters::new();
        let c2 = c.clone();
        c.record_read_run(7, 1, 64);
        assert_eq!(c2.snapshot().total_pages(), 1);
    }

    #[test]
    fn zero_page_read_is_ignored() {
        let c = IoCounters::new();
        c.record_read_run(0, 0, 0);
        assert_eq!(c.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn byte_only_reads_do_not_move_the_head() {
        let c = IoCounters::new();
        c.record_read_run(0, 2, 100);
        c.record_read_bytes(50);
        // The head is still at page 1: the next read continues sequentially.
        c.record_read_run(2, 1, 25);
        let snap = c.snapshot();
        assert_eq!(snap.random_pages, 1);
        assert_eq!(snap.sequential_pages, 2);
        assert_eq!(snap.bytes_read, 175);
    }

    #[test]
    fn an_onward_run_does_not_pay_again_for_the_page_the_head_is_on() {
        let c = IoCounters::new();
        c.record_read_run(0, 2, 100);
        // Starts on page 1, where the head is: only page 2 is new.
        c.record_read_onward(1, 2, 40);
        // Inside the head's page: bytes only.
        c.record_read_onward(2, 1, 10);
        // Not on the head's page: the usual rule (page 3 follows, page 9 seeks).
        c.record_read_onward(3, 1, 10);
        c.record_read_onward(9, 2, 10);
        let snap = c.snapshot();
        assert_eq!(snap.random_pages, 2);
        assert_eq!(snap.sequential_pages, 4);
        assert_eq!(snap.bytes_read, 170);
        // The plain rule still treats a re-read of the head's page as random.
        c.record_read_run(10, 1, 10);
        assert_eq!(c.snapshot().random_pages, 3);
    }

    #[test]
    fn surcharges_add_random_pages_without_breaking_the_head() {
        let c = IoCounters::new();
        c.record_read_run(0, 2, 100);
        c.record_surcharge(4);
        c.record_surcharge(0);
        c.record_read_run(2, 1, 50);
        let snap = c.snapshot();
        assert_eq!(snap.random_pages, 5);
        assert_eq!(snap.sequential_pages, 2);
    }

    #[test]
    fn distinct_counter_instances_are_independent_on_one_thread() {
        let a = IoCounters::new();
        let b = IoCounters::new();
        a.record_read_run(0, 1, 100);
        b.record_read_run(0, 2, 200);
        assert_eq!(a.thread_snapshot().total_pages(), 1);
        assert_eq!(b.thread_snapshot().total_pages(), 2);
        a.reset_thread();
        assert_eq!(a.snapshot(), IoSnapshot::default());
        assert_eq!(b.snapshot().bytes_read, 200);
    }

    #[test]
    fn thread_snapshot_sees_only_the_calling_thread() {
        let c = IoCounters::new();
        c.record_read_run(0, 2, 2048);
        let c2 = c.clone();
        std::thread::spawn(move || {
            c2.record_read_run(100, 3, 3072);
            // The worker sees its own traffic...
            assert_eq!(c2.thread_snapshot().total_pages(), 3);
            c2.reset_thread();
            assert_eq!(c2.thread_snapshot(), IoSnapshot::default());
            // ...and clearing its shard leaves other shards alone.
            assert_eq!(c2.snapshot().total_pages(), 2);
        })
        .join()
        .unwrap();
        assert_eq!(c.thread_snapshot().total_pages(), 2);
        assert_eq!(c.snapshot().total_pages(), 2);
    }

    #[test]
    fn each_thread_tracks_its_own_disk_head() {
        // Two threads reading interleaved contiguous runs: with a shared head
        // the interleaving would turn everything random; per-thread heads keep
        // each thread's contiguous progression sequential.
        let c = IoCounters::new();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let c = c.clone();
                s.spawn(move || {
                    for page in 0..64u64 {
                        c.record_read_run(page, 1, 512);
                    }
                });
            }
        });
        let total = c.snapshot();
        assert_eq!(total.total_pages(), 128);
        // Exactly one cold-start seek per thread.
        assert_eq!(total.random_pages, 2);
        assert_eq!(total.sequential_pages, 126);
        assert_eq!(total.bytes_read, 128 * 512);
    }

    #[test]
    fn exited_threads_counts_survive_and_their_shards_are_collected() {
        let c = IoCounters::new();
        for wave in 0..16 {
            let c2 = c.clone();
            std::thread::spawn(move || c2.record_read_run(wave * 10, 1, 64))
                .join()
                .unwrap();
        }
        // Dead threads' traffic stays in the aggregate...
        assert_eq!(c.snapshot().total_pages(), 16);
        // ...but their shards were folded into the orphan accumulator, so the
        // map holds at most the live threads that ever touched the counters.
        assert!(c.inner.registry.lock().shards.len() <= 1);
        assert_eq!(c.inner.registry.lock().orphaned.total_pages(), 16);
        c.reset();
        assert_eq!(c.snapshot(), IoSnapshot::default());
    }
}
