//! Deterministic contiguous partitioning of a dataset across shards.
//!
//! The serving layer splits one dataset over N engine shards, each owning a
//! contiguous run of series with its own instrumented [`DatasetStore`]. The
//! split must be a *function of (dataset length, shard count)* alone — the
//! same rule on every node, every run — so that per-shard snapshots stay
//! valid across restarts and a scatter-gather merge can map a shard-local
//! answer id back to its global id by adding the shard's range start.
//!
//! The rule is [`hydra_core::parallel::split_ranges`]: near-equal contiguous
//! ranges, the first `len % shards` ranges one longer. Reusing the rule that
//! splits parallel builds and MASS's distance pre-pass means partition
//! boundaries are already covered by its determinism tests.

use hydra_core::parallel::split_ranges;
use hydra_core::{Dataset, Error, Result};
use std::ops::Range;

/// One shard's slice of a dataset: its global id range and the owned
/// sub-dataset re-based to local ids `0..range.len()`.
#[derive(Clone, Debug)]
pub struct DatasetPartition {
    /// The global series ids this shard owns (`start..end` into the parent).
    pub range: Range<usize>,
    /// The shard's own dataset: series `range.start..range.end` of the
    /// parent, re-indexed from 0.
    pub dataset: Dataset,
}

/// Splits a dataset into `shards` contiguous partitions.
///
/// Deterministic in (dataset length, shard count); `shards` is clamped to
/// `1..=len`, so every partition is non-empty (a method built over an empty
/// dataset is a typed error everywhere in the suite). The concatenation of
/// the partitions, in order, is exactly the parent dataset.
pub fn partition_dataset(dataset: &Dataset, shards: usize) -> Result<Vec<DatasetPartition>> {
    if dataset.is_empty() {
        return Err(Error::EmptyDataset);
    }
    if shards == 0 {
        return Err(Error::invalid_parameter("shards", "must be at least 1"));
    }
    let series_length = dataset.series_length();
    let flat = dataset.flat_values();
    Ok(split_ranges(dataset.len(), shards)
        .into_iter()
        .map(|range| {
            let values = flat[range.start * series_length..range.end * series_length].to_vec();
            DatasetPartition {
                dataset: Dataset::from_flat(values, series_length),
                range,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(len: usize) -> Dataset {
        let values: Vec<f32> = (0..len * 4).map(|v| v as f32).collect();
        Dataset::from_flat(values, 4)
    }

    #[test]
    fn partitions_are_contiguous_and_cover_the_dataset() {
        let data = dataset(10);
        for shards in [1, 2, 3, 4, 10] {
            let parts = partition_dataset(&data, shards).unwrap();
            assert_eq!(parts.len(), shards);
            let mut next = 0usize;
            for part in &parts {
                assert_eq!(part.range.start, next, "contiguous, in order");
                assert_eq!(part.dataset.len(), part.range.len());
                assert!(!part.dataset.is_empty());
                for local in 0..part.dataset.len() {
                    assert_eq!(
                        part.dataset.series(local).values(),
                        data.series(part.range.start + local).values(),
                        "local id + range start recovers the global series"
                    );
                }
                next = part.range.end;
            }
            assert_eq!(next, data.len(), "the ranges cover every series");
        }
    }

    #[test]
    fn partitioning_is_deterministic() {
        let data = dataset(7);
        let a = partition_dataset(&data, 3).unwrap();
        let b = partition_dataset(&data, 3).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.range, y.range);
            assert_eq!(x.dataset.flat_values(), y.dataset.flat_values());
        }
        // Near-equal: first len % shards ranges are one longer.
        assert_eq!(a[0].range, 0..3);
        assert_eq!(a[1].range, 3..5);
        assert_eq!(a[2].range, 5..7);
    }

    #[test]
    fn more_shards_than_series_clamps_to_len() {
        let data = dataset(3);
        let parts = partition_dataset(&data, 8).unwrap();
        assert_eq!(parts.len(), 3, "clamped so no shard is empty");
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        let data = dataset(3);
        assert!(matches!(
            partition_dataset(&data, 0),
            Err(Error::InvalidParameter { .. })
        ));
        let empty = Dataset::from_flat(Vec::new(), 4);
        assert!(matches!(
            partition_dataset(&empty, 2),
            Err(Error::EmptyDataset)
        ));
    }
}
