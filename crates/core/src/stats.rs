//! Measurement framework (Section 4.2 of the paper).
//!
//! The study compares methods along four axes:
//!
//! 1. **scalability / search efficiency** — wall-clock time split into CPU and
//!    I/O components, plus the number of random disk accesses;
//! 2. **footprint** — node counts, memory / disk size, leaf fill factor and
//!    depth (see [`crate::IndexFootprint`]);
//! 3. **pruning ratio** `P = 1 - (#raw series examined / #series in dataset)`;
//! 4. **tightness of the lower bound** `TLB = lb(Q', N) / avg true distance(Q, N)`
//!    averaged over all leaf nodes and queries.
//!
//! [`QueryStats`] accumulates per-query counters; [`PruningStats`] and [`Tlb`]
//! aggregate them across a workload; [`RunClock`] / [`TimeBreakdown`] track the
//! CPU vs I/O time split.

use std::time::Duration;

/// A point-in-time copy of I/O counters: page accesses split by access
/// pattern, plus byte totals.
///
/// Counters are produced by the instrumented store in `hydra-storage` (which
/// re-exports this type) and consumed by the [`crate::engine::QueryEngine`]
/// and the cost models.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Page reads that continued directly after the previously read page.
    pub sequential_pages: u64,
    /// Page reads that required a seek (any non-contiguous access).
    pub random_pages: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written (index construction payloads).
    pub bytes_written: u64,
}

impl IoSnapshot {
    /// Total page accesses of either kind.
    pub fn total_pages(&self) -> u64 {
        self.sequential_pages + self.random_pages
    }

    /// The difference `self - earlier`, for measuring a code region.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            sequential_pages: self.sequential_pages - earlier.sequential_pages,
            random_pages: self.random_pages - earlier.random_pages,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }
}

/// Per-query work counters, filled in by every method while answering.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Number of raw series whose full-resolution values were examined
    /// (the denominator of the pruning ratio is the dataset size).
    pub raw_series_examined: u64,
    /// Number of summarized candidates whose lower bound was evaluated.
    /// ADS+ counts full-resolution bounds only: its coarse pass, which
    /// bounds every series from the top bits of its symbols, is not
    /// counted.
    pub lower_bounds_computed: u64,
    /// Number of index leaves visited.
    pub leaves_visited: u64,
    /// Number of index internal nodes visited.
    pub internal_nodes_visited: u64,
    /// Number of full Euclidean distance computations that were abandoned early.
    pub early_abandons: u64,
    /// Sequential disk page accesses charged to this query.
    pub sequential_page_accesses: u64,
    /// Random disk page accesses (seeks) charged to this query.
    pub random_page_accesses: u64,
    /// Bytes read from (simulated) disk for this query.
    pub bytes_read: u64,
    /// CPU time spent answering this query.
    pub cpu_time: Duration,
    /// Modelled / measured I/O time spent answering this query.
    pub io_time: Duration,
}

impl QueryStats {
    /// Records that `n` raw series were examined in full resolution.
    #[inline]
    pub fn record_raw_series_examined(&mut self, n: u64) {
        self.raw_series_examined += n;
    }

    /// Records `n` lower-bound evaluations.
    #[inline]
    pub fn record_lower_bounds(&mut self, n: u64) {
        self.lower_bounds_computed += n;
    }

    /// Records a visit to a leaf node.
    #[inline]
    pub fn record_leaf_visit(&mut self) {
        self.leaves_visited += 1;
    }

    /// Records a visit to an internal node.
    #[inline]
    pub fn record_internal_visit(&mut self) {
        self.internal_nodes_visited += 1;
    }

    /// Records an early-abandoned distance computation.
    #[inline]
    pub fn record_early_abandon(&mut self) {
        self.early_abandons += 1;
    }

    /// Records disk traffic (pages + bytes).
    #[inline]
    pub fn record_io(&mut self, sequential_pages: u64, random_pages: u64, bytes: u64) {
        self.sequential_page_accesses += sequential_pages;
        self.random_page_accesses += random_pages;
        self.bytes_read += bytes;
    }

    /// Merges another stats record into this one (used when aggregating
    /// sub-operations of a single query).
    pub fn merge(&mut self, other: &QueryStats) {
        self.raw_series_examined += other.raw_series_examined;
        self.lower_bounds_computed += other.lower_bounds_computed;
        self.leaves_visited += other.leaves_visited;
        self.internal_nodes_visited += other.internal_nodes_visited;
        self.early_abandons += other.early_abandons;
        self.sequential_page_accesses += other.sequential_page_accesses;
        self.random_page_accesses += other.random_page_accesses;
        self.bytes_read += other.bytes_read;
        self.cpu_time += other.cpu_time;
        self.io_time += other.io_time;
    }

    /// The eight deterministic work counters, in declaration order —
    /// everything except the wall-clock times, which legitimately vary run to
    /// run. This is what the agreement suites compare bit-for-bit across
    /// execution paths.
    pub fn work_counters(&self) -> [u64; 8] {
        [
            self.raw_series_examined,
            self.lower_bounds_computed,
            self.leaves_visited,
            self.internal_nodes_visited,
            self.early_abandons,
            self.sequential_page_accesses,
            self.random_page_accesses,
            self.bytes_read,
        ]
    }

    /// The I/O recorded in these stats as a snapshot.
    ///
    /// Query-side writes are not charged to queries, so `bytes_written` is
    /// always zero here.
    pub fn io_snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            sequential_pages: self.sequential_page_accesses,
            random_pages: self.random_page_accesses,
            bytes_read: self.bytes_read,
            bytes_written: 0,
        }
    }

    /// Reconciles store-observed I/O into these stats: methods charge leaf
    /// and filter reads through their stats while the store counters cover
    /// raw-file traffic, so whichever accounting path recorded more pages
    /// wins and neither is lost.
    ///
    /// This is the single reconciliation rule of the suite, applied by the
    /// engine around every measured query.
    pub fn reconcile_io(&mut self, observed: IoSnapshot) {
        if observed.total_pages() > self.io_snapshot().total_pages() {
            self.sequential_page_accesses = observed.sequential_pages;
            self.random_page_accesses = observed.random_pages;
            self.bytes_read = observed.bytes_read;
        }
    }

    /// The pruning ratio of this query against a dataset of `dataset_size`
    /// series: `1 - examined / dataset_size`. Clamped to `[0, 1]`.
    pub fn pruning_ratio(&self, dataset_size: usize) -> f64 {
        if dataset_size == 0 {
            return 0.0;
        }
        let ratio = 1.0 - (self.raw_series_examined as f64 / dataset_size as f64);
        ratio.clamp(0.0, 1.0)
    }

    /// Total time (CPU + I/O) attributed to this query.
    pub fn total_time(&self) -> Duration {
        self.cpu_time + self.io_time
    }
}

/// Aggregated pruning-ratio statistics over a query workload (Figure 9).
#[derive(Clone, Debug, Default)]
pub struct PruningStats {
    ratios: Vec<f64>,
}

impl PruningStats {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the pruning ratio of one query.
    pub fn record(&mut self, stats: &QueryStats, dataset_size: usize) {
        self.ratios.push(stats.pruning_ratio(dataset_size));
    }

    /// Records a pre-computed ratio.
    pub fn record_ratio(&mut self, ratio: f64) {
        self.ratios.push(ratio.clamp(0.0, 1.0));
    }

    /// Number of queries recorded.
    pub fn len(&self) -> usize {
        self.ratios.len()
    }

    /// Whether no query has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ratios.is_empty()
    }

    /// All recorded ratios.
    pub fn ratios(&self) -> &[f64] {
        &self.ratios
    }

    /// Mean pruning ratio.
    pub fn mean(&self) -> f64 {
        if self.ratios.is_empty() {
            0.0
        } else {
            self.ratios.iter().sum::<f64>() / self.ratios.len() as f64
        }
    }

    /// Minimum pruning ratio (hardest query), or 0 when no query has been
    /// recorded — consistent with [`PruningStats::mean`] and
    /// [`PruningStats::max`], which also report 0 on an empty aggregate.
    pub fn min(&self) -> f64 {
        if self.ratios.is_empty() {
            return 0.0;
        }
        self.ratios
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .clamp(0.0, 1.0)
    }

    /// Maximum pruning ratio (easiest query).
    pub fn max(&self) -> f64 {
        self.ratios.iter().copied().fold(0.0, f64::max)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the recorded ratios.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.ratios.is_empty() {
            return 0.0;
        }
        let mut v = self.ratios.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        let pos = (q.clamp(0.0, 1.0) * (v.len() - 1) as f64).round() as usize;
        v[pos]
    }
}

/// Tightness-of-the-lower-bound aggregate (Figure 8f).
///
/// `TLB = lower_bound(Q', N) / average_true_distance(Q, N)`, averaged over all
/// (query, leaf) pairs. Callers record one observation per visited leaf.
#[derive(Clone, Debug, Default)]
pub struct Tlb {
    sum: f64,
    count: u64,
}

impl Tlb {
    /// Creates an empty TLB aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one (query, leaf) observation.
    ///
    /// Observations with a non-positive average true distance are ignored
    /// (they would divide by zero and carry no information).
    pub fn record(&mut self, lower_bound: f64, average_true_distance: f64) {
        if average_true_distance > 0.0 && lower_bound.is_finite() {
            self.sum += (lower_bound / average_true_distance).clamp(0.0, 1.0);
            self.count += 1;
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The mean TLB over all observations (0 if none).
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Wall-clock time split into CPU and I/O components.
///
/// The paper computes CPU time as `total - I/O`; the harness does the same:
/// real elapsed time is measured with [`RunClock`] and the I/O component is
/// modelled from the storage counters by the cost model in `hydra-storage`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// CPU component.
    pub cpu: Duration,
    /// Input/output component.
    pub io: Duration,
}

impl TimeBreakdown {
    /// Creates a breakdown from its components.
    pub fn new(cpu: Duration, io: Duration) -> Self {
        Self { cpu, io }
    }

    /// Total time.
    pub fn total(&self) -> Duration {
        self.cpu + self.io
    }

    /// Adds another breakdown to this one.
    pub fn add(&mut self, other: TimeBreakdown) {
        self.cpu += other.cpu;
        self.io += other.io;
    }

    /// The fraction of total time that is CPU (0 when total is zero).
    pub fn cpu_fraction(&self) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self.cpu.as_secs_f64() / total.as_secs_f64()
        }
    }
}

/// A simple stopwatch for measuring elapsed (assumed CPU) time of a code
/// region.
#[derive(Debug)]
pub struct RunClock {
    #[expect(
        clippy::disallowed_types,
        reason = "measurement utility; answers never read it"
    )]
    start: std::time::Instant,
}

impl RunClock {
    /// Starts the clock.
    #[expect(
        clippy::disallowed_types,
        reason = "measurement utility; answers never read it"
    )]
    pub fn start() -> Self {
        Self {
            start: std::time::Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Restarts the clock and returns the time elapsed before the restart.
    #[expect(
        clippy::disallowed_types,
        reason = "measurement utility; answers never read it"
    )]
    pub fn lap(&mut self) -> Duration {
        let e = self.start.elapsed();
        self.start = std::time::Instant::now();
        e
    }
}

impl Default for RunClock {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_stats_recording_and_merge() {
        let mut a = QueryStats::default();
        a.record_raw_series_examined(10);
        a.record_lower_bounds(100);
        a.record_leaf_visit();
        a.record_internal_visit();
        a.record_early_abandon();
        a.record_io(5, 2, 4096);

        let mut b = QueryStats::default();
        b.record_raw_series_examined(5);
        b.record_io(1, 1, 1024);
        b.cpu_time = Duration::from_millis(10);
        b.io_time = Duration::from_millis(5);

        a.merge(&b);
        assert_eq!(a.raw_series_examined, 15);
        assert_eq!(a.lower_bounds_computed, 100);
        assert_eq!(a.leaves_visited, 1);
        assert_eq!(a.internal_nodes_visited, 1);
        assert_eq!(a.early_abandons, 1);
        assert_eq!(a.sequential_page_accesses, 6);
        assert_eq!(a.random_page_accesses, 3);
        assert_eq!(a.bytes_read, 5120);
        assert_eq!(a.total_time(), Duration::from_millis(15));
    }

    #[test]
    fn reconcile_io_keeps_the_larger_recording() {
        let mut s = QueryStats::default();
        s.record_io(5, 1, 4096);
        // The store observed less: the stats-side recording survives.
        s.reconcile_io(IoSnapshot {
            sequential_pages: 1,
            random_pages: 1,
            bytes_read: 100,
            bytes_written: 0,
        });
        assert_eq!(s.sequential_page_accesses, 5);
        assert_eq!(s.bytes_read, 4096);
        // The store observed more: its counters replace the stats-side ones.
        s.reconcile_io(IoSnapshot {
            sequential_pages: 10,
            random_pages: 3,
            bytes_read: 1 << 20,
            bytes_written: 0,
        });
        assert_eq!(s.sequential_page_accesses, 10);
        assert_eq!(s.random_page_accesses, 3);
        assert_eq!(s.bytes_read, 1 << 20);
    }

    #[test]
    fn pruning_ratio_formula() {
        let mut s = QueryStats::default();
        s.record_raw_series_examined(25);
        assert!((s.pruning_ratio(100) - 0.75).abs() < 1e-12);
        assert_eq!(s.pruning_ratio(0), 0.0);
        // Examining more than the dataset (possible with re-reads) clamps to 0.
        s.record_raw_series_examined(1000);
        assert_eq!(s.pruning_ratio(100), 0.0);
    }

    #[test]
    fn pruning_stats_aggregation() {
        let mut p = PruningStats::new();
        assert!(p.is_empty());
        for r in [0.9, 0.5, 0.7, 1.0] {
            p.record_ratio(r);
        }
        let mut s = QueryStats::default();
        s.record_raw_series_examined(40);
        p.record(&s, 100); // 0.6
        assert_eq!(p.len(), 5);
        assert!((p.mean() - 0.74).abs() < 1e-12);
        assert!((p.min() - 0.5).abs() < 1e-12);
        assert!((p.max() - 1.0).abs() < 1e-12);
        assert!((p.quantile(0.5) - 0.7).abs() < 1e-12);
        assert_eq!(p.ratios().len(), 5);
    }

    #[test]
    fn empty_pruning_stats_report_zero_for_every_aggregate() {
        // An empty aggregate used to report min() = 1.0 (the INFINITY fold
        // seed clamped into range) while mean() and max() reported 0.0.
        let p = PruningStats::new();
        assert_eq!(p.min(), 0.0);
        assert_eq!(p.max(), 0.0);
        assert_eq!(p.mean(), 0.0);
        assert_eq!(p.quantile(0.5), 0.0);
    }

    #[test]
    fn pruning_stats_record_ratio_clamps() {
        let mut p = PruningStats::new();
        p.record_ratio(1.4);
        p.record_ratio(-0.3);
        assert_eq!(p.max(), 1.0);
        assert_eq!(p.min(), 0.0);
    }

    #[test]
    fn tlb_average() {
        let mut t = Tlb::new();
        assert_eq!(t.value(), 0.0);
        t.record(0.5, 1.0);
        t.record(1.0, 1.0);
        t.record(2.0, 0.0); // ignored: zero average distance
        t.record(f64::INFINITY, 1.0); // ignored: non-finite bound
        assert_eq!(t.count(), 2);
        assert!((t.value() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tlb_clamps_bounds_above_true_distance() {
        // A correct lower bound never exceeds the true distance, but floating
        // point noise can nudge it above; TLB clamps each observation to 1.
        let mut t = Tlb::new();
        t.record(1.0000001, 1.0);
        assert!(t.value() <= 1.0);
    }

    #[test]
    fn time_breakdown_arithmetic() {
        let mut tb = TimeBreakdown::new(Duration::from_secs(3), Duration::from_secs(1));
        assert_eq!(tb.total(), Duration::from_secs(4));
        assert!((tb.cpu_fraction() - 0.75).abs() < 1e-12);
        tb.add(TimeBreakdown::new(
            Duration::from_secs(1),
            Duration::from_secs(3),
        ));
        assert_eq!(tb.total(), Duration::from_secs(8));
        assert!((tb.cpu_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(TimeBreakdown::default().cpu_fraction(), 0.0);
    }

    #[test]
    fn run_clock_measures_time() {
        let mut clock = RunClock::start();
        std::thread::sleep(Duration::from_millis(2));
        let lap = clock.lap();
        assert!(lap >= Duration::from_millis(1));
        assert!(clock.elapsed() < lap + Duration::from_secs(1));
    }
}
