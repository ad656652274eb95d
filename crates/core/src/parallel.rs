//! Thread-pool primitives for parallel workload execution and index builds.
//!
//! The paper evaluates every method single-threaded, but data series search is
//! embarrassingly parallel across queries and across index subtrees (ParIS /
//! MESSI, Hercules). Within one query only MASS splits work, computing its
//! abandon-free distances in contiguous chunks ([`map_chunks`]); every
//! other method searches serially, because on a 2-CPU host its fan-out lost
//! to the serial search. This module provides the small, dependency-free
//! building blocks the rest of the suite parallelizes with:
//!
//! * [`Parallelism`] — how many worker threads a workload or build may use;
//! * [`map_indexed`] — a work-queue over `0..count` (dynamic load balancing,
//!   results returned in index order);
//! * [`map_chunks`] — contiguous range partitioning (static load balancing,
//!   chunk outputs concatenated in chunk order, preserving index order).
//!
//! Everything is built on `std::thread::scope`, so borrowed data (datasets,
//! built indexes) can be shared without `'static` bounds or extra `Arc`s, and
//! results are always merged **deterministically** in index order regardless
//! of which thread finished first.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How work is spread across threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// One item at a time on the calling thread.
    Serial,
    /// A fixed number of worker threads (clamped to at least 1).
    Threads(usize),
    /// One worker per CPU reported by the OS.
    Auto,
}

impl Parallelism {
    /// The number of worker threads this setting resolves to (always ≥ 1).
    pub fn worker_threads(&self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => (*n).max(1),
            Parallelism::Auto => available_threads(),
        }
    }
}

/// The number of CPUs available to this process (1 if undetectable).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a thread-count knob: `0` means one thread per CPU, anything else
/// is taken literally (with a floor of 1).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Splits `0..n` into at most `parts` contiguous, near-equal, non-empty
/// ranges covering `0..n` in order.
pub fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Applies `f` to every index in `0..count` on the calling thread plus up to
/// `threads - 1` scoped helpers, all pulling from a shared queue, and returns
/// the results **in index order**.
///
/// Use this when per-item cost is uneven (index subtree builds, queries of
/// varying difficulty); the atomic queue balances the load dynamically while
/// the ordered merge keeps the output deterministic. The caller claims work
/// too, so it never idles waiting for a helper to be scheduled: when the
/// other CPUs are busy, it takes the remaining indices itself and the map
/// degrades to the serial order instead of stalling.
///
/// # Panics
/// Re-raises a panic from `f` with its original payload once the helpers have
/// been joined (the queue always drains, so no thread blocks on a panicked
/// peer).
pub fn map_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    if threads <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut produced = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return produced;
            }
            produced.push((i, f(i)));
        }
    };
    let mut produced = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
        let mut produced = claim();
        for helper in helpers {
            // Preserve the original panic payload (message) for the caller
            // instead of a generic join error.
            produced.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        produced
    });
    produced.sort_unstable_by_key(|&(i, _)| i);
    produced.into_iter().map(|(_, value)| value).collect()
}

/// Consumes `items`, applying `f(index, item)` on up to `threads` workers
/// pulling from a shared queue, and returns the results **in item order**.
///
/// The by-value variant of [`map_indexed`]: use it when the work items are
/// expensive to clone (index-build buckets). Each item is taken out of its
/// slot exactly once — the atomic queue guarantees an index is claimed by a
/// single worker — so no item is ever copied.
pub fn map_items<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    if threads.clamp(1, items.len().max(1)) <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let slots: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|item| std::sync::Mutex::new(Some(item)))
        .collect();
    map_indexed(slots.len(), threads, |i| {
        #[expect(
            clippy::expect_used,
            reason = "take() cannot panic, so the lock cannot poison; \
                      each index is claimed by exactly one worker"
        )]
        let item = slots[i]
            .lock()
            .expect("item mutex is never poisoned: take() cannot panic")
            .take()
            .expect("every item is taken exactly once");
        f(i, item)
    })
}

/// Applies `f` to contiguous chunks of `0..n` (one chunk per worker) and
/// concatenates the chunk outputs in chunk order, preserving index order.
///
/// Use this for uniform-cost streams (summarizing every series of a dataset):
/// static partitioning avoids the queue, and the in-order concatenation means
/// the result is identical to the serial `f(0..n)`.
pub fn map_chunks<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let ranges = split_ranges(n, threads.max(1));
    if ranges.len() <= 1 {
        return ranges.into_iter().flat_map(&f).collect();
    }
    let mut outputs: Vec<Vec<T>> =
        map_indexed(ranges.len(), ranges.len(), |i| f(ranges[i].clone()));
    let mut merged = Vec::with_capacity(n);
    for chunk in outputs.iter_mut() {
        merged.append(chunk);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::Serial.worker_threads(), 1);
        assert_eq!(Parallelism::Threads(4).worker_threads(), 4);
        assert_eq!(Parallelism::Threads(0).worker_threads(), 1);
        assert!(Parallelism::Auto.worker_threads() >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn split_ranges_covers_everything_in_order() {
        for (n, parts) in [(10, 3), (7, 7), (5, 9), (1, 1), (100, 8)] {
            let ranges = split_ranges(n, parts);
            assert!(ranges.len() <= parts);
            let flattened: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(flattened, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
        assert!(split_ranges(0, 4).is_empty());
    }

    #[test]
    fn map_indexed_returns_results_in_index_order() {
        let squares = map_indexed(100, 4, |i| i * i);
        assert_eq!(squares.len(), 100);
        for (i, &sq) in squares.iter().enumerate() {
            assert_eq!(sq, i * i);
        }
        // Serial fallback path.
        assert_eq!(map_indexed(3, 1, |i| i + 1), vec![1, 2, 3]);
        assert!(map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn map_indexed_visits_every_index_exactly_once() {
        let counter = AtomicU64::new(0);
        let _ = map_indexed(257, 8, |_| counter.fetch_add(1, Ordering::SeqCst));
        assert_eq!(counter.load(Ordering::SeqCst), 257);
    }

    #[test]
    fn map_items_consumes_in_order() {
        let items: Vec<String> = (0..37).map(|i| format!("item-{i}")).collect();
        let expected: Vec<String> = items.iter().map(|s| format!("{s}!")).collect();
        let got = map_items(items.clone(), 4, |i, item| {
            assert_eq!(item, format!("item-{i}"));
            format!("{item}!")
        });
        assert_eq!(got, expected);
        // Serial fallback path.
        assert_eq!(map_items(items, 1, |_, item| format!("{item}!")), expected);
        assert!(map_items(Vec::<u8>::new(), 4, |_, b| b).is_empty());
    }

    #[test]
    fn map_chunks_matches_serial_order() {
        let expected: Vec<usize> = (0..53).map(|i| i * 3).collect();
        let got = map_chunks(53, 4, |range| range.map(|i| i * 3).collect());
        assert_eq!(got, expected);
        let got = map_chunks(53, 1, |range| range.map(|i| i * 3).collect());
        assert_eq!(got, expected);
        assert!(map_chunks(0, 4, |r| r.collect::<Vec<_>>()).is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate_with_their_payload() {
        let _ = map_indexed(8, 2, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
