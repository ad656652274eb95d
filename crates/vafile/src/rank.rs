//! Lazy ranking of the phase-1 lower bounds.
//!
//! Refinement visits candidates in increasing lower-bound order and stops
//! after a small prefix (≈7 % of a 100k-series file on random-walk data, `k`
//! candidates in ng-approximate mode), so sorting the whole file is mostly
//! wasted. [`LazyRanking`] is an incremental quicksort: it partitions the
//! candidates around medians down to a small leading run, sorts that run,
//! and only partitions further when the consumer asks past it — `O(n)` up
//! front, `O(log n)` amortized per candidate drawn.
//!
//! The order is **exactly** the stable full sort by lower bound it replaces:
//! ascending under `f64::total_cmp` (so a NaN bound has a fixed place), ties
//! broken by ascending series id. Since `(bound, id)` keys are all distinct
//! the unstable partitioning cannot reorder anything.

/// Runs at most this long are sorted outright instead of partitioned.
const SORT_RUN: usize = 256;

/// `(key, id)` where `key` orders like `f64::total_cmp` on the bound.
type Entry = (i64, usize);

/// The transformation `f64::total_cmp` applies before comparing as integers;
/// it is its own inverse.
#[inline]
fn total_order_key(bits: i64) -> i64 {
    bits ^ ((((bits >> 63) as u64) >> 1) as i64)
}

/// Yields `(lower_bound, id)` in ascending `(total_cmp, id)` order, sorting
/// only as far as it is drained. Reusable across queries via
/// [`LazyRanking::reset`].
#[derive(Default)]
pub struct LazyRanking {
    entries: Vec<Entry>,
    /// `entries[..sorted]` are in final order; `next` of them were yielded.
    sorted: usize,
    next: usize,
    /// Ends of partitioned regions, innermost last: every entry before a
    /// boundary orders before every entry after it.
    boundaries: Vec<usize>,
}

impl LazyRanking {
    /// An empty ranking (call [`LazyRanking::reset`] to load bounds).
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads the bounds of series `0..bounds.len()`, discarding any previous
    /// ranking but keeping its allocations.
    pub fn reset(&mut self, bounds: &[f64]) {
        self.entries.clear();
        self.entries.extend(
            bounds
                .iter()
                .enumerate()
                .map(|(id, lb)| (total_order_key(lb.to_bits() as i64), id)),
        );
        self.sorted = 0;
        self.next = 0;
        self.boundaries.clear();
        self.boundaries.push(bounds.len());
    }

    /// Puts the run after the sorted prefix into final order.
    fn sort_next_run(&mut self) {
        while self.boundaries.last() == Some(&self.sorted) {
            self.boundaries.pop();
        }
        let Some(&end) = self.boundaries.last() else {
            return;
        };
        let mut end = end;
        while end - self.sorted > SORT_RUN {
            let mid = (end - self.sorted) / 2;
            self.entries[self.sorted..end].select_nth_unstable(mid);
            end = self.sorted + mid;
            self.boundaries.push(end);
        }
        self.entries[self.sorted..end].sort_unstable();
        self.sorted = end;
    }
}

impl Iterator for LazyRanking {
    type Item = (f64, usize);

    fn next(&mut self) -> Option<(f64, usize)> {
        if self.next == self.sorted {
            self.sort_next_run();
        }
        let &(key, id) = self.entries.get(self.next)?;
        self.next += 1;
        Some((f64::from_bits(total_order_key(key) as u64), id))
    }
}

/// The ranking this module replaces — a stable full sort by bound — as the
/// tests' reference.
#[cfg(test)]
pub(crate) fn full_sort(bounds: &[f64]) -> Vec<(f64, usize)> {
    let mut ranked: Vec<(f64, usize)> = bounds.iter().copied().zip(0..).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_sort_bits(bounds: &[f64]) -> Vec<(u64, usize)> {
        let ranked = full_sort(bounds).into_iter();
        ranked.map(|(lb, id)| (lb.to_bits(), id)).collect()
    }

    fn lcg_bounds(n: usize, seed: u64, distinct: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % distinct) as f64 * 0.25
            })
            .collect()
    }

    #[test]
    fn every_prefix_matches_the_stable_full_sort() {
        let mut ranking = LazyRanking::new();
        // Few distinct values: long runs of ties that only the id breaks.
        for (n, distinct) in [
            (0usize, 1u64),
            (1, 1),
            (255, 3),
            (256, 1),
            (257, 7),
            (5000, 40),
            (5000, 1 << 30),
        ] {
            let bounds = lcg_bounds(n, 17 + n as u64, distinct);
            let expected = full_sort_bits(&bounds);
            for take in [0usize, 1, n / 3, n] {
                ranking.reset(&bounds);
                let got: Vec<(u64, usize)> = ranking
                    .by_ref()
                    .take(take)
                    .map(|(lb, id)| (lb.to_bits(), id))
                    .collect();
                assert_eq!(
                    got,
                    expected[..take.min(n)],
                    "n={n} distinct={distinct} take={take}"
                );
            }
            ranking.reset(&bounds);
            assert_eq!(ranking.by_ref().count(), n);
            assert!(ranking.next().is_none());
        }
    }

    #[test]
    fn nan_infinite_and_signed_zero_bounds_keep_their_total_cmp_place() {
        let mut bounds = lcg_bounds(1000, 5, 50);
        for (i, special) in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::NAN,
            f64::MIN_POSITIVE / 2.0,
        ]
        .into_iter()
        .enumerate()
        {
            bounds[i * 97] = special;
            bounds[i * 97 + 1] = special;
        }
        let mut ranking = LazyRanking::new();
        ranking.reset(&bounds);
        let got: Vec<(u64, usize)> = ranking.map(|(lb, id)| (lb.to_bits(), id)).collect();
        assert_eq!(got, full_sort_bits(&bounds));
    }
}
