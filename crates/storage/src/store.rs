//! The instrumented dataset store.
//!
//! [`DatasetStore`] holds the raw series of a dataset and serves reads at
//! page granularity, classifying every access as sequential or random through
//! the shared [`IoCounters`]. Indexes and scans read raw series exclusively
//! through this interface so that their access patterns are measured under
//! identical rules — the paper's "same conditions for every method" principle.
//!
//! The dataset lives in memory, so what a "read" costs in wall time is DRAM
//! traffic. A series refined in an order the hardware prefetcher cannot
//! follow (query-ordered dimensions, scattered ids) waits on memory, so the
//! query drivers announce the series they will refine next through
//! `DatasetStore::prefetch`, an uncounted cache hint: it touches no
//! counter, no head position and no fault plan. [`DatasetStore::try_scan_all`]
//! issues it `PREFETCH_AHEAD` series ahead of its pass.

use crate::counters::{IoCounters, IoSnapshot};
use crate::fault::{self, FaultPlan};
use hydra_core::engine::IoSource;
use hydra_core::series::{Dataset, SeriesView};
use hydra_core::{Error, Result};
use std::ops::ControlFlow;

/// Default page size: 4 KiB, a typical filesystem block.
pub const DEFAULT_PAGE_BYTES: usize = 4096;

/// How many series ahead of the one being refined a pass in storage order
/// prefetches. Timing the UCR-Suite pass over 100k 256-value series put a
/// look-ahead of 1, 2, 4 and 8 at 68 %, 67 %, 65 % and 67 % of the pass
/// without one (README "Memory traffic").
pub(crate) const PREFETCH_AHEAD: usize = 4;

/// A page-granular, access-counting view over a dataset.
#[derive(Clone, Debug)]
pub struct DatasetStore {
    dataset: Dataset,
    page_bytes: usize,
    series_bytes: usize,
    counters: IoCounters,
    fault: FaultPlan,
}

impl DatasetStore {
    /// Wraps `dataset` with the default 4 KiB page size.
    pub fn new(dataset: Dataset) -> Self {
        Self::with_page_bytes(dataset, DEFAULT_PAGE_BYTES)
    }

    /// Wraps `dataset` with an explicit page size in bytes.
    ///
    /// # Panics
    /// Panics if `page_bytes` is zero.
    pub fn with_page_bytes(dataset: Dataset, page_bytes: usize) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        let series_bytes = dataset.series_length() * std::mem::size_of::<f32>();
        Self {
            dataset,
            page_bytes,
            series_bytes,
            counters: IoCounters::new(),
            fault: FaultPlan::disabled(),
        }
    }

    /// Attaches a [`FaultPlan`] to the fallible read paths
    /// ([`DatasetStore::try_read_series`], [`DatasetStore::try_read_run`],
    /// [`DatasetStore::try_scan_all`], [`DatasetStore::try_access`]) and the
    /// snapshot save path. The disabled plan (the default) makes every
    /// fallible path behave — and count — exactly like its infallible twin.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// The attached fault plan ([`FaultPlan::disabled`] unless overridden).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// The number of series stored.
    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
    }

    /// The series length of the stored dataset.
    pub fn series_length(&self) -> usize {
        self.dataset.series_length()
    }

    /// The page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// The size of one series in bytes.
    pub fn series_bytes(&self) -> usize {
        self.series_bytes
    }

    /// The number of pages the dataset file occupies.
    pub fn total_pages(&self) -> u64 {
        let total_bytes = self.dataset.len() * self.series_bytes;
        (total_bytes as u64).div_ceil(self.page_bytes as u64)
    }

    /// The shared I/O counters (clone to keep a handle).
    pub fn counters(&self) -> &IoCounters {
        &self.counters
    }

    /// A snapshot of the I/O counters, aggregated over every thread.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.counters.snapshot()
    }

    /// A snapshot of the traffic recorded by the calling thread only (each
    /// thread shards its own counters — see [`IoCounters`]).
    pub fn thread_io_snapshot(&self) -> IoSnapshot {
        self.counters.thread_snapshot()
    }

    /// Resets the I/O counters of every thread (e.g. between the build phase
    /// and the query phase of an experiment).
    pub fn reset_io(&self) {
        self.counters.reset();
    }

    /// Resets the calling thread's counters only, leaving concurrent readers'
    /// shards untouched (used around each query of a parallel workload).
    pub fn reset_thread_io(&self) {
        self.counters.reset_thread();
    }

    /// Direct, *uncounted* access to the underlying dataset.
    ///
    /// Intended for index construction code that has already accounted for its
    /// build-time pass separately (e.g. via [`DatasetStore::scan_all`]) and
    /// for tests; query-time code must use the counted accessors.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The page range `[first, last]` occupied by series `id`.
    pub fn page_range(&self, id: usize) -> (u64, u64) {
        let start_byte = (id * self.series_bytes) as u64;
        let end_byte = start_byte + self.series_bytes as u64 - 1;
        (
            start_byte / self.page_bytes as u64,
            end_byte / self.page_bytes as u64,
        )
    }

    /// Reads a single series by id, charging the access to the counters.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn read_series(&self, id: usize) -> SeriesView<'_> {
        let (first, last) = self.page_range(id);
        self.counters
            .record_read_run(first, last - first + 1, self.series_bytes as u64);
        self.dataset.series(id)
    }

    /// Reads `count` consecutive series starting at `first_id` as one
    /// contiguous run (one potential seek, then sequential pages). A run
    /// that starts on the page this thread's last read ended on resumes
    /// there: that page is not charged again, and no seek is.
    ///
    /// The run is charged when it is read; the returned iterator only
    /// yields views over it, in storage order.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn read_run(
        &self,
        first_id: usize,
        count: usize,
    ) -> impl ExactSizeIterator<Item = SeriesView<'_>> + '_ {
        if count > 0 {
            assert!(first_id + count <= self.dataset.len(), "run out of bounds");
            let (first_page, _) = self.page_range(first_id);
            let (_, last_page) = self.page_range(first_id + count - 1);
            self.counters.record_read_onward(
                first_page,
                last_page - first_page + 1,
                (count * self.series_bytes) as u64,
            );
        }
        (first_id..first_id + count).map(|i| self.dataset.series(i))
    }

    /// Hints the CPU to pull series `id` into cache ahead of a read. It is
    /// not a read: no counter, head position or fault plan sees it, and an
    /// `id` past the end is ignored.
    pub(crate) fn prefetch(&self, id: usize) {
        if id < self.dataset.len() {
            hydra_core::simd::prefetch(self.dataset.series(id).values());
        }
    }

    /// Sequentially scans the whole dataset (the UCR-Suite / sequential-scan
    /// access pattern), invoking `f` for every series in storage order.
    pub fn scan_all<F: FnMut(usize, SeriesView<'_>)>(&self, mut f: F) {
        let n = self.dataset.len();
        if n == 0 {
            return;
        }
        let (first_page, _) = self.page_range(0);
        let (_, last_page) = self.page_range(n - 1);
        self.counters.record_read_run(
            first_page,
            last_page - first_page + 1,
            (n * self.series_bytes) as u64,
        );
        for i in 0..n {
            f(i, self.dataset.series(i));
        }
    }

    /// Consults the fault plan for the access keyed `key` on the calling
    /// thread's current retry attempt: charges any latency surcharge to the
    /// counters and surfaces injected failures as retriable
    /// [`Error::Io`] values.
    fn fault_check(&self, key: u64) -> Result<()> {
        if !self.fault.is_active() {
            return Ok(());
        }
        let outcome = self.fault.read_outcome(key, fault::current_attempt());
        self.counters.record_surcharge(outcome.surcharge_pages);
        if let Some(err) = outcome.error {
            return Err(Error::retriable_io(err.to_io_error()));
        }
        Ok(())
    }

    /// Fallible twin of [`DatasetStore::read_series`]: an out-of-bounds id is
    /// a typed [`Error::NotFound`] instead of a panic, and the fault plan may
    /// inject retriable read failures. Under the disabled plan the charged
    /// I/O is identical to `read_series`.
    pub fn try_read_series(&self, id: usize) -> Result<SeriesView<'_>> {
        if id >= self.dataset.len() {
            return Err(Error::NotFound(format!("series {id}")));
        }
        self.fault_check(id as u64)?;
        Ok(self.read_series(id))
    }

    /// Fallible twin of [`DatasetStore::read_run`]: bounds violations are
    /// typed [`Error::NotFound`] errors, and the fault plan (keyed on the
    /// run's first id) may inject retriable failures. Under the disabled
    /// plan the charged I/O is identical to `read_run`.
    pub fn try_read_run(
        &self,
        first_id: usize,
        count: usize,
    ) -> Result<impl ExactSizeIterator<Item = SeriesView<'_>> + '_> {
        if count > 0 && first_id + count > self.dataset.len() {
            return Err(Error::NotFound(format!(
                "series run {first_id}..{}",
                first_id + count
            )));
        }
        if count > 0 {
            self.fault_check(first_id as u64)?;
        }
        Ok(self.read_run(first_id, count))
    }

    /// Fallible, interruptible twin of [`DatasetStore::scan_all`].
    ///
    /// `f` may stop the scan early (`ControlFlow::Break`, e.g. on budget
    /// exhaustion) or fail; the fault plan is consulted per series. Returns
    /// `Ok(true)` when the scan reached the end, `Ok(false)` when `f` broke
    /// out early.
    ///
    /// The pages of the series read so far form one contiguous run, charged
    /// once when the pass ends — on completion, on `Break`, or on either
    /// error — so a complete pass records exactly what `scan_all` records
    /// (one potential seek, then sequential pages, all bytes) and a truncated
    /// pass charges only what it read. Latency surcharges never move the
    /// head, so the counters end exactly as if every series had been charged
    /// as it was read. `f` must not read through this store itself. The pass
    /// prefetches the series `PREFETCH_AHEAD` (4) places ahead of the one it
    /// hands to `f`.
    pub fn try_scan_all<F>(&self, mut f: F) -> Result<bool>
    where
        F: FnMut(usize, SeriesView<'_>) -> Result<ControlFlow<()>>,
    {
        // The run starts at page 0; `next_page` is one past its last page.
        let mut next_page = 0u64;
        let mut bytes = 0u64;
        let complete = (|| -> Result<bool> {
            for i in 0..self.dataset.len() {
                self.fault_check(i as u64)?;
                next_page = self.page_range(i).1 + 1;
                bytes += self.series_bytes as u64;
                self.prefetch(i + PREFETCH_AHEAD);
                if let ControlFlow::Break(()) = f(i, self.dataset.series(i))? {
                    return Ok(false);
                }
            }
            Ok(true)
        })();
        self.counters.record_read_run(0, next_page, bytes);
        complete
    }

    /// A fault checkpoint for access paths that do their own I/O accounting
    /// (index leaf scans charge pages through their `QueryStats`): consults
    /// the plan's error faults for `key` without touching the counters.
    pub fn try_access(&self, key: u64) -> Result<()> {
        if !self.fault.is_active() {
            return Ok(());
        }
        let outcome = self.fault.read_outcome(key, fault::current_attempt());
        if let Some(err) = outcome.error {
            return Err(Error::retriable_io(err.to_io_error()));
        }
        Ok(())
    }

    /// Marks an explicit seek: the next read is random even when it happens
    /// to be contiguous (a skip-sequential pass starts with one, so its
    /// counters never depend on where an earlier read left the head).
    pub fn seek(&self) {
        self.counters.record_seek();
    }

    /// Records `bytes` of index payload written to this store's disk.
    pub fn record_index_write(&self, bytes: u64) {
        self.counters.record_write(bytes);
    }

    /// Records `bytes` of index payload read back from this store's disk
    /// (a snapshot load): one contiguous run — a seek plus sequential pages —
    /// on a file separate from the raw data, so the raw-file head position is
    /// invalidated.
    pub fn record_index_read(&self, bytes: u64) {
        let pages = bytes.div_ceil(self.page_bytes as u64).max(1);
        self.counters.record_detached_read(pages, bytes);
    }
}

/// The store is the I/O counter source the [`hydra_core::QueryEngine`]
/// observes around every query.
impl IoSource for DatasetStore {
    fn thread_io_snapshot(&self) -> IoSnapshot {
        DatasetStore::thread_io_snapshot(self)
    }

    fn reset_thread_io(&self) {
        DatasetStore::reset_thread_io(self)
    }

    fn begin_attempt(&self, attempt: u32) {
        fault::set_attempt(attempt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::series::Dataset;

    fn dataset(count: usize, len: usize) -> Dataset {
        let values: Vec<f32> = (0..count * len).map(|i| i as f32).collect();
        Dataset::from_flat(values, len)
    }

    #[test]
    fn geometry_is_reported() {
        // 256-value series = 1 KiB each; 4 per 4 KiB page.
        let store = DatasetStore::new(dataset(16, 256));
        assert_eq!(store.len(), 16);
        assert!(!store.is_empty());
        assert_eq!(store.series_length(), 256);
        assert_eq!(store.series_bytes(), 1024);
        assert_eq!(store.page_bytes(), 4096);
        assert_eq!(store.total_pages(), 4);
    }

    #[test]
    fn single_reads_far_apart_are_random() {
        let store = DatasetStore::new(dataset(64, 256));
        store.read_series(0);
        store.read_series(32);
        store.read_series(5);
        let io = store.io_snapshot();
        assert_eq!(io.random_pages, 3);
        assert_eq!(io.bytes_read, 3 * 1024);
    }

    #[test]
    fn reads_within_one_page_after_each_other_are_sequential_only_if_new_page() {
        // Series 0..3 share page 0; the second read of page 0 is a "random"
        // re-access by the counting rule (it does not advance the head), which
        // matches charging a leaf access per leaf visit.
        let store = DatasetStore::new(dataset(8, 256));
        store.read_series(0);
        store.read_series(1);
        let io = store.io_snapshot();
        assert_eq!(io.total_pages(), 2);
    }

    #[test]
    fn full_scan_is_one_seek_then_sequential() {
        let store = DatasetStore::new(dataset(100, 256));
        let mut seen = 0usize;
        store.scan_all(|i, s| {
            assert_eq!(s.len(), 256);
            assert_eq!(i, seen);
            seen += 1;
        });
        assert_eq!(seen, 100);
        let io = store.io_snapshot();
        assert_eq!(io.random_pages, 1);
        assert_eq!(io.sequential_pages, store.total_pages() - 1);
        assert_eq!(io.bytes_read, 100 * 1024);
    }

    #[test]
    fn read_run_counts_one_seek() {
        let store = DatasetStore::new(dataset(100, 256));
        let mut run = store.read_run(40, 8);
        assert_eq!(run.len(), 8);
        assert_eq!(run.next().unwrap().values()[0], 40.0 * 256.0);
        let io = store.io_snapshot();
        assert_eq!(io.random_pages, 1);
        assert_eq!(io.sequential_pages, 1); // 8 series * 1KiB = 2 pages total
        assert_eq!(store.read_run(0, 0).len(), 0);
    }

    #[test]
    fn a_run_resuming_on_the_page_the_last_one_ended_on_pays_no_seek() {
        // 4 series per page: series 5 ends on page 1, where series 6 starts.
        let store = DatasetStore::new(dataset(16, 256));
        let _ = store.read_run(2, 4);
        let _ = store.read_run(6, 4);
        let io = store.io_snapshot();
        assert_eq!(io.random_pages, 1);
        assert_eq!(io.sequential_pages, 2); // pages 1 and 2
        assert_eq!(io.bytes_read, 8 * 1024);
        // A single-series read of the head's page keeps the re-access rule.
        store.read_series(9);
        assert_eq!(store.io_snapshot().random_pages, 2);
    }

    #[test]
    fn skip_sequential_pattern_counts_one_random_access_per_skip() {
        // Mimic ADS+/VA+file: read groups of series, skipping between groups.
        let store = DatasetStore::new(dataset(400, 256));
        let mut id = 0;
        let mut skips = 0;
        while id < 400 {
            let _ = store.read_run(id, 4); // one page worth
            id += 40; // skip ahead
            skips += 1;
        }
        let io = store.io_snapshot();
        assert_eq!(io.random_pages, skips);
    }

    #[test]
    fn reset_and_seek() {
        let store = DatasetStore::new(dataset(10, 256));
        store.read_series(0);
        store.reset_io();
        assert_eq!(store.io_snapshot(), IoSnapshot::default());
        store.read_series(1);
        store.seek();
        store.read_series(2);
        assert_eq!(store.io_snapshot().random_pages, 2);
    }

    #[test]
    fn index_writes_are_tracked() {
        let store = DatasetStore::new(dataset(10, 256));
        store.record_index_write(12345);
        assert_eq!(store.io_snapshot().bytes_written, 12345);
    }

    #[test]
    fn index_reads_are_one_seek_then_sequential_and_break_the_head() {
        let store = DatasetStore::new(dataset(10, 256));
        // 3 pages worth of snapshot: 1 random + 2 sequential.
        store.record_index_read(3 * 4096);
        let io = store.io_snapshot();
        assert_eq!(io.random_pages, 1);
        assert_eq!(io.sequential_pages, 2);
        assert_eq!(io.bytes_read, 3 * 4096);
        // A sub-page snapshot still costs one page access.
        store.record_index_read(100);
        assert_eq!(store.io_snapshot().random_pages, 2);
        // The snapshot lives in a different file: the next raw read must
        // seek even though it starts at page 0.
        store.read_series(0);
        assert_eq!(store.io_snapshot().random_pages, 3);
    }

    #[test]
    fn prefetch_is_uncounted_and_leaves_the_head_where_it_was() {
        // 4 series per page: the run 2..6 ends on page 1, where 6..10 starts.
        let hinted = DatasetStore::new(dataset(16, 256));
        let plain = DatasetStore::new(dataset(16, 256));
        let _ = hinted.read_run(2, 4);
        let _ = plain.read_run(2, 4);
        let (total, thread) = (hinted.io_snapshot(), hinted.thread_io_snapshot());
        for id in [0, 6, 15, 16, usize::MAX] {
            hinted.prefetch(id);
        }
        assert_eq!(hinted.io_snapshot(), total);
        assert_eq!(hinted.thread_io_snapshot(), thread);
        // The next run still resumes on the head's page: no seek.
        let _ = hinted.read_run(6, 4);
        let _ = plain.read_run(6, 4);
        assert_eq!(hinted.io_snapshot(), plain.io_snapshot());
        assert_eq!(hinted.io_snapshot().random_pages, 1);
        // A single read is classified as it would be without the hints.
        hinted.prefetch(0);
        hinted.read_series(0);
        plain.read_series(0);
        assert_eq!(hinted.io_snapshot(), plain.io_snapshot());
    }

    #[test]
    fn prefetch_neither_fails_nor_consults_an_always_failing_fault_plan() {
        let config = crate::fault::FaultConfig {
            read_error: 1.0,
            latency: 1.0,
            latency_pages: 3,
            ..Default::default()
        };
        let plan = FaultPlan::seeded(9, config);
        let hinted = DatasetStore::new(dataset(10, 256)).with_fault_plan(plan);
        let plain = DatasetStore::new(dataset(10, 256)).with_fault_plan(plan);
        for id in [0, 3, 9, 10, usize::MAX] {
            hinted.prefetch(id);
        }
        // Consulting the plan would have charged its latency surcharge.
        assert_eq!(hinted.io_snapshot(), IoSnapshot::default());
        assert!(hinted.try_read_series(3).is_err());
        assert!(plain.try_read_series(3).is_err());
        assert_eq!(hinted.io_snapshot(), plain.io_snapshot());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_run_bounds_checked() {
        let store = DatasetStore::new(dataset(10, 256));
        let _ = store.read_run(8, 5);
    }

    #[test]
    fn try_variants_count_exactly_like_their_infallible_twins() {
        let a = DatasetStore::new(dataset(100, 256));
        let b = DatasetStore::new(dataset(100, 256));
        a.read_series(7);
        b.try_read_series(7).unwrap();
        let _ = a.read_run(40, 8);
        let _ = b.try_read_run(40, 8).unwrap();
        assert_eq!(a.io_snapshot(), b.io_snapshot());
        a.reset_io();
        b.reset_io();
        a.scan_all(|_, _| {});
        let complete = b
            .try_scan_all(|_, _| Ok(std::ops::ControlFlow::Continue(())))
            .unwrap();
        assert!(complete);
        assert_eq!(a.io_snapshot(), b.io_snapshot());
    }

    #[test]
    fn try_variants_return_typed_errors_out_of_bounds() {
        let store = DatasetStore::new(dataset(10, 256));
        assert!(matches!(
            store.try_read_series(10),
            Err(hydra_core::Error::NotFound(_))
        ));
        assert!(matches!(
            store.try_read_run(8, 5),
            Err(hydra_core::Error::NotFound(_))
        ));
        assert_eq!(store.try_read_run(8, 0).unwrap().len(), 0);
    }

    #[test]
    fn truncated_scan_charges_only_what_it_read() {
        let store = DatasetStore::new(dataset(100, 256)); // 4 series per page
        let complete = store
            .try_scan_all(|i, _| {
                Ok(if i == 7 {
                    std::ops::ControlFlow::Break(())
                } else {
                    std::ops::ControlFlow::Continue(())
                })
            })
            .unwrap();
        assert!(!complete);
        let io = store.io_snapshot();
        // Series 0..=7 live in pages 0 and 1.
        assert_eq!(io.total_pages(), 2);
        assert_eq!(io.bytes_read, 8 * 1024);
    }

    #[test]
    fn try_scan_all_charges_one_run_exactly_like_per_series_charging() {
        use crate::fault::FaultConfig;
        use std::ops::ControlFlow::{Break, Continue};
        // 300-value series: some share a page, some straddle two.
        let surcharging = FaultConfig {
            latency: 0.3,
            latency_pages: 2,
            ..Default::default()
        };
        let failing = FaultConfig {
            read_error: 0.05,
            ..surcharging
        };
        let plans = [
            FaultPlan::disabled(),
            FaultPlan::seeded(5, surcharging),
            FaultPlan::seeded(6, failing),
        ];
        let mut failures = 0;
        for plan in plans {
            for stop in [None, Some(0), Some(17), Some(99)] {
                let scanned = DatasetStore::new(dataset(100, 300)).with_fault_plan(plan);
                // Leave the head mid-file: the run's first page is random.
                scanned.read_series(40);
                let result = scanned.try_scan_all(|i, _| {
                    Ok(if Some(i) == stop {
                        Break(())
                    } else {
                        Continue(())
                    })
                });
                // The reference charges every series as it is read.
                let reference = DatasetStore::new(dataset(100, 300));
                reference.read_series(40);
                let mut next_page = 0;
                let mut failed = false;
                for i in 0..=stop.unwrap_or(99) {
                    let outcome = plan.read_outcome(i as u64, fault::current_attempt());
                    if plan.is_active() {
                        reference.counters.record_surcharge(outcome.surcharge_pages);
                        if outcome.error.is_some() {
                            failed = true;
                            break;
                        }
                    }
                    let (first, last) = reference.page_range(i);
                    if last >= next_page {
                        let from = next_page.max(first);
                        let bytes = reference.series_bytes as u64;
                        reference
                            .counters
                            .record_read_run(from, last - from + 1, bytes);
                        next_page = last + 1;
                    } else {
                        reference
                            .counters
                            .record_read_bytes(reference.series_bytes as u64);
                    }
                }
                assert_eq!(result.is_err(), failed);
                failures += usize::from(failed);
                if !failed {
                    assert_eq!(result.unwrap(), stop.is_none());
                }
                assert_eq!(scanned.io_snapshot(), reference.io_snapshot());
            }
        }
        assert!(failures > 0, "the failing plan fails some passes");
    }

    #[test]
    fn fault_plan_injects_deterministic_retriable_errors() {
        let config = crate::fault::FaultConfig {
            read_error: 1.0,
            max_transient_attempts: 1,
            ..Default::default()
        };
        let store =
            DatasetStore::new(dataset(10, 256)).with_fault_plan(FaultPlan::seeded(3, config));
        let err = store.try_read_series(0).unwrap_err();
        assert!(err.is_retriable());
        assert!(store.try_access(0).is_err());
        // The planned failure count is 1: the first retry succeeds.
        fault::set_attempt(1);
        assert!(store.try_read_series(0).is_ok());
        assert!(store.try_access(0).is_ok());
        fault::set_attempt(0);
        // Infallible paths stay fault-free by design.
        store.read_series(0);
    }

    #[test]
    fn latency_surcharge_is_charged_to_the_counters() {
        let config = crate::fault::FaultConfig {
            latency: 1.0,
            latency_pages: 3,
            ..Default::default()
        };
        let store =
            DatasetStore::new(dataset(10, 256)).with_fault_plan(FaultPlan::seeded(3, config));
        store.reset_io();
        store.try_read_series(0).unwrap();
        let io = store.io_snapshot();
        // 1 page for the read + 3 surcharge pages.
        assert_eq!(io.random_pages, 4);
    }
}
