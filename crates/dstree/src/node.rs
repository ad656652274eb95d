//! DSTree node structures: per-node segmentation, synopsis, and split policy.

use hydra_transforms::eapca::{split_segment, Eapca, EapcaSegment};

/// The attribute a horizontal split tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitAttribute {
    /// Split on the segment mean.
    Mean,
    /// Split on the segment standard deviation.
    StdDev,
}

/// Description of a split applied at an internal node.
#[derive(Clone, Debug)]
pub struct SplitSpec {
    /// The segmentation the split is expressed in (the children's
    /// segmentation; equals the parent's for horizontal splits, refined for
    /// vertical splits).
    pub segmentation: Vec<usize>,
    /// The segment index (within `segmentation`) tested by the split.
    pub segment: usize,
    /// Whether the split tests the mean or the standard deviation.
    pub attribute: SplitAttribute,
    /// The decision threshold: entries with value `<= threshold` go left.
    pub threshold: f32,
    /// True if this split refined the segmentation (vertical split).
    pub is_vertical: bool,
}

/// Per-segment synopsis: the value ranges covered by the series under a node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegmentSynopsis {
    /// Minimum segment mean.
    pub min_mean: f32,
    /// Maximum segment mean.
    pub max_mean: f32,
    /// Minimum segment standard deviation.
    pub min_std: f32,
    /// Maximum segment standard deviation.
    pub max_std: f32,
}

impl Default for SegmentSynopsis {
    fn default() -> Self {
        Self {
            min_mean: f32::INFINITY,
            max_mean: f32::NEG_INFINITY,
            min_std: f32::INFINITY,
            max_std: f32::NEG_INFINITY,
        }
    }
}

impl SegmentSynopsis {
    /// Extends the ranges to include a segment with the given mean / std.
    pub fn absorb(&mut self, mean: f32, std: f32) {
        self.min_mean = self.min_mean.min(mean);
        self.max_mean = self.max_mean.max(mean);
        self.min_std = self.min_std.min(std);
        self.max_std = self.max_std.max(std);
    }

    /// Extends the ranges to cover everything `other` covers.
    ///
    /// Merging is exact: absorbing a set of values and merging per-thread
    /// partial synopses of the same set produce bitwise-identical ranges, the
    /// property the parallel tree build relies on.
    pub fn merge(&mut self, other: &SegmentSynopsis) {
        self.min_mean = self.min_mean.min(other.min_mean);
        self.max_mean = self.max_mean.max(other.max_mean);
        self.min_std = self.min_std.min(other.min_std);
        self.max_std = self.max_std.max(other.max_std);
    }

    /// Whether no value has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.min_mean > self.max_mean
    }

    /// The spread of the mean range (0 when empty).
    pub fn mean_range(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.max_mean - self.min_mean
        }
    }

    /// The spread of the std range (0 when empty).
    pub fn std_range(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.max_std - self.min_std
        }
    }
}

/// The synopsis of a node: one range per segment of the node's segmentation.
#[derive(Clone, Debug, Default)]
pub struct NodeSynopsis {
    /// Per-segment ranges.
    pub segments: Vec<SegmentSynopsis>,
}

impl NodeSynopsis {
    /// An empty synopsis over `num_segments` segments.
    pub fn new(num_segments: usize) -> Self {
        Self {
            segments: vec![SegmentSynopsis::default(); num_segments],
        }
    }

    /// Absorbs an EAPCA representation into the ranges.
    pub fn absorb(&mut self, eapca: &Eapca) {
        debug_assert_eq!(eapca.len(), self.segments.len());
        for (syn, seg) in self.segments.iter_mut().zip(eapca.segments.iter()) {
            syn.absorb(seg.mean, seg.std_dev);
        }
    }

    /// Merges another synopsis over the same segmentation into this one
    /// (segment-wise range union; see [`SegmentSynopsis::merge`]).
    pub fn merge(&mut self, other: &NodeSynopsis) {
        debug_assert_eq!(self.segments.len(), other.segments.len());
        for (a, b) in self.segments.iter_mut().zip(other.segments.iter()) {
            a.merge(b);
        }
    }

    /// The lower bound of the Euclidean distance between a query (given by
    /// its EAPCA under the same segmentation) and *any* series covered by this
    /// synopsis.
    pub fn lower_bound(&self, query: &Eapca, segmentation: &[usize]) -> f64 {
        debug_assert_eq!(query.len(), self.segments.len());
        debug_assert_eq!(segmentation.len(), self.segments.len());
        let widths = segmentation.iter().scan(0, |start, &end| {
            let width = (end - *start) as f64;
            *start = end;
            Some(width)
        });
        self.lower_bound_of(query.segments.iter().copied().zip(widths))
    }

    /// [`NodeSynopsis::lower_bound`] over the query's statistics and width
    /// of each segment, in segment order: the form a per-query table of
    /// segment statistics is bounded through, to the same bits.
    #[inline]
    pub fn lower_bound_of(&self, query: impl Iterator<Item = (EapcaSegment, f64)>) -> f64 {
        let mut sum = 0.0f64;
        for (syn, (q, w)) in self.segments.iter().zip(query) {
            if !syn.is_empty() {
                let d_mean = interval_distance(q.mean, syn.min_mean, syn.max_mean) as f64;
                let d_std = interval_distance(q.std_dev, syn.min_std, syn.max_std) as f64;
                sum += w * (d_mean * d_mean + d_std * d_std);
            }
        }
        sum.sqrt()
    }

    /// An upper bound of the distance between the query and any series covered
    /// by this synopsis (farthest corner of the mean range plus the maximal
    /// std mismatch), used by the split-policy heuristics.
    pub fn upper_bound(&self, query: &Eapca, segmentation: &[usize]) -> f64 {
        let mut sum = 0.0f64;
        let mut start = 0usize;
        for (i, &end) in segmentation.iter().enumerate() {
            let w = (end - start) as f64;
            let syn = &self.segments[i];
            if !syn.is_empty() {
                let q = &query.segments[i];
                let d_mean = (q.mean - syn.min_mean)
                    .abs()
                    .max((q.mean - syn.max_mean).abs()) as f64;
                let d_std = (q.std_dev as f64) + syn.max_std as f64;
                sum += w * (d_mean * d_mean + d_std * d_std);
            }
            start = end;
        }
        sum.sqrt()
    }
}

fn interval_distance(value: f32, low: f32, high: f32) -> f32 {
    if value < low {
        low - value
    } else if value > high {
        value - high
    } else {
        0.0
    }
}

/// The payload of a DSTree node.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// Internal node: a split and two children.
    Internal {
        /// The split routing entries to the children.
        split: SplitSpec,
        /// Child receiving entries with attribute value `<= threshold`.
        left: usize,
        /// Child receiving the remaining entries.
        right: usize,
    },
    /// Leaf node holding entries.
    Leaf {
        /// The series ids of the entries, in insertion (scan) order.
        ids: Vec<u32>,
        /// Their EAPCA under the leaf's segmentation, one (mean, σ) pair per
        /// segment per entry, in the order of `ids`.
        summaries: Vec<EapcaSegment>,
    },
}

/// A DSTree node.
#[derive(Clone, Debug)]
pub struct Node {
    /// The segmentation this node summarizes series with.
    pub segmentation: Vec<usize>,
    /// The synopsis of all series under this node.
    pub synopsis: NodeSynopsis,
    /// Payload.
    pub kind: NodeKind,
    /// Depth below the root (root = 0).
    pub depth: usize,
}

/// A candidate split evaluated by the split policy.
#[derive(Clone, Debug)]
pub struct CandidateSplit {
    /// The split description.
    pub spec: SplitSpec,
    /// Number of entries that would go to the left child.
    pub left_count: usize,
    /// Number of entries that would go to the right child.
    pub right_count: usize,
}

impl CandidateSplit {
    /// A balance score in `[0, 1]`: 1 means a perfect 50/50 split.
    pub fn balance(&self) -> f64 {
        let total = (self.left_count + self.right_count) as f64;
        if total == 0.0 {
            return 0.0;
        }
        1.0 - (self.left_count as f64 - self.right_count as f64).abs() / total
    }

    /// Whether the split actually separates the entries.
    pub fn is_effective(&self) -> bool {
        self.left_count > 0 && self.right_count > 0
    }
}

/// Enumerates candidate splits for a leaf holding `ids` with `summaries`
/// (their EAPCA under `segmentation`, flat): horizontal splits on the mean
/// and std of every segment, plus vertical splits that halve a segment and
/// split on the mean of its left half.
pub fn enumerate_splits(
    series_of: impl Fn(u32) -> Vec<f32>,
    ids: &[u32],
    summaries: &[EapcaSegment],
    segmentation: &[usize],
    synopsis: &NodeSynopsis,
) -> Vec<CandidateSplit> {
    let mut candidates = Vec::new();
    // Horizontal candidates.
    for (seg, syn) in synopsis.segments.iter().enumerate() {
        if syn.is_empty() {
            continue;
        }
        for attribute in [SplitAttribute::Mean, SplitAttribute::StdDev] {
            let threshold = match attribute {
                SplitAttribute::Mean => (syn.min_mean + syn.max_mean) / 2.0,
                SplitAttribute::StdDev => (syn.min_std + syn.max_std) / 2.0,
            };
            let mut left = 0usize;
            for entry in summaries.chunks_exact(segmentation.len()) {
                let v = match attribute {
                    SplitAttribute::Mean => entry[seg].mean,
                    SplitAttribute::StdDev => entry[seg].std_dev,
                };
                if v <= threshold {
                    left += 1;
                }
            }
            candidates.push(CandidateSplit {
                spec: SplitSpec {
                    segmentation: segmentation.to_vec(),
                    segment: seg,
                    attribute,
                    threshold,
                    is_vertical: false,
                },
                left_count: left,
                right_count: ids.len() - left,
            });
        }
    }
    // Vertical candidates: refine each splittable segment and split on the
    // mean of its left half.
    for seg in 0..segmentation.len() {
        let Some(refined) = split_segment(segmentation, seg) else {
            continue;
        };
        // Compute the refined EAPCA of every entry to find the new segment's
        // mean range and the resulting balance.
        let mut min_mean = f32::INFINITY;
        let mut max_mean = f32::NEG_INFINITY;
        let mut means = Vec::with_capacity(ids.len());
        for &id in ids {
            let series = series_of(id);
            let eapca = Eapca::compute(&series, &refined);
            let m = eapca.segments[seg].mean;
            min_mean = min_mean.min(m);
            max_mean = max_mean.max(m);
            means.push(m);
        }
        let threshold = (min_mean + max_mean) / 2.0;
        let left = means.iter().filter(|&&m| m <= threshold).count();
        candidates.push(CandidateSplit {
            spec: SplitSpec {
                segmentation: refined,
                segment: seg,
                attribute: SplitAttribute::Mean,
                threshold,
                is_vertical: true,
            },
            left_count: left,
            right_count: ids.len() - left,
        });
    }
    candidates
}

/// Chooses the best split among candidates: the most balanced *effective*
/// split, with horizontal splits preferred over vertical ones when balance is
/// comparable (vertical splits cost re-summarization of every entry).
pub fn choose_split(candidates: &[CandidateSplit]) -> Option<&CandidateSplit> {
    let effective: Vec<&CandidateSplit> = candidates.iter().filter(|c| c.is_effective()).collect();
    if effective.is_empty() {
        return None;
    }
    effective.into_iter().max_by(|a, b| {
        let score_a = a.balance() - if a.spec.is_vertical { 0.1 } else { 0.0 };
        let score_b = b.balance() - if b.spec.is_vertical { 0.1 } else { 0.0 };
        score_a.total_cmp(&score_b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::distance::euclidean;
    use hydra_transforms::eapca::uniform_segmentation;

    fn lcg_series(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) as f32
            })
            .collect()
    }

    #[test]
    fn synopsis_absorbs_ranges() {
        let seg = uniform_segmentation(16, 4);
        let mut syn = NodeSynopsis::new(4);
        assert!(syn.segments[0].is_empty());
        let a = Eapca::compute(&lcg_series(16, 1), &seg);
        let b = Eapca::compute(&lcg_series(16, 2), &seg);
        syn.absorb(&a);
        syn.absorb(&b);
        for (i, s) in syn.segments.iter().enumerate() {
            assert!(!s.is_empty());
            assert!(s.min_mean <= a.segments[i].mean && a.segments[i].mean <= s.max_mean);
            assert!(s.min_mean <= b.segments[i].mean && b.segments[i].mean <= s.max_mean);
            assert!(s.mean_range() >= 0.0);
            assert!(s.std_range() >= 0.0);
        }
    }

    #[test]
    fn synopsis_lower_bound_is_valid_for_every_absorbed_series() {
        let seg = uniform_segmentation(64, 8);
        let mut syn = NodeSynopsis::new(8);
        let members: Vec<Vec<f32>> = (0..20).map(|i| lcg_series(64, 100 + i)).collect();
        for m in &members {
            syn.absorb(&Eapca::compute(m, &seg));
        }
        for qseed in 0..5 {
            let q = lcg_series(64, 999 + qseed);
            let q_eapca = Eapca::compute(&q, &seg);
            let lb = syn.lower_bound(&q_eapca, &seg);
            for m in &members {
                let ed = euclidean(&q, m);
                assert!(lb <= ed + 1e-4, "LB {lb} > ED {ed}");
            }
        }
    }

    #[test]
    fn synopsis_upper_bound_dominates_lower_bound() {
        let seg = uniform_segmentation(32, 4);
        let mut syn = NodeSynopsis::new(4);
        for i in 0..10 {
            syn.absorb(&Eapca::compute(&lcg_series(32, i), &seg));
        }
        let q = Eapca::compute(&lcg_series(32, 77), &seg);
        assert!(syn.upper_bound(&q, &seg) + 1e-9 >= syn.lower_bound(&q, &seg));
    }

    #[test]
    fn merging_partial_synopses_equals_absorbing_everything() {
        let seg = uniform_segmentation(32, 4);
        let series: Vec<Vec<f32>> = (0..24).map(|i| lcg_series(32, 40 + i)).collect();
        let mut whole = NodeSynopsis::new(4);
        for s in &series {
            whole.absorb(&Eapca::compute(s, &seg));
        }
        // Split the same series over three partial synopses and merge.
        let mut merged = NodeSynopsis::new(4);
        for part in series.chunks(8) {
            let mut partial = NodeSynopsis::new(4);
            for s in part {
                partial.absorb(&Eapca::compute(s, &seg));
            }
            merged.merge(&partial);
        }
        assert_eq!(merged.segments, whole.segments, "merge must be exact");
    }

    #[test]
    fn interval_distance_cases() {
        assert_eq!(interval_distance(0.5, 1.0, 2.0), 0.5);
        assert_eq!(interval_distance(3.0, 1.0, 2.0), 1.0);
        assert_eq!(interval_distance(1.5, 1.0, 2.0), 0.0);
    }

    /// A leaf block of `count` series: (ids, flat summaries, raw series).
    type Block = (Vec<u32>, Vec<EapcaSegment>, Vec<Vec<f32>>);

    fn make_block(count: usize, len: usize, seg: &[usize]) -> Block {
        let raw: Vec<Vec<f32>> = (0..count)
            .map(|i| lcg_series(len, 300 + i as u64))
            .collect();
        let summaries = raw
            .iter()
            .flat_map(|s| Eapca::compute(s, seg).segments)
            .collect();
        ((0..count as u32).collect(), summaries, raw)
    }

    fn synopsis_of(summaries: &[EapcaSegment], segments: usize) -> NodeSynopsis {
        let mut syn = NodeSynopsis::new(segments);
        for entry in summaries.chunks_exact(segments) {
            syn.absorb(&Eapca {
                segments: entry.to_vec(),
            });
        }
        syn
    }

    #[test]
    fn enumerate_splits_produces_horizontal_and_vertical_candidates() {
        let seg = uniform_segmentation(32, 4);
        let (ids, summaries, raw) = make_block(30, 32, &seg);
        let syn = synopsis_of(&summaries, 4);
        let candidates =
            enumerate_splits(|id| raw[id as usize].clone(), &ids, &summaries, &seg, &syn);
        assert!(candidates.iter().any(|c| !c.spec.is_vertical));
        assert!(candidates.iter().any(|c| c.spec.is_vertical));
        // Horizontal: 2 per segment; vertical: 1 per splittable segment.
        assert_eq!(candidates.len(), 4 * 2 + 4);
        for c in &candidates {
            assert_eq!(c.left_count + c.right_count, 30);
        }
    }

    #[test]
    fn choose_split_prefers_balanced_effective_splits() {
        let seg = uniform_segmentation(32, 4);
        let (ids, summaries, raw) = make_block(40, 32, &seg);
        let syn = synopsis_of(&summaries, 4);
        let candidates =
            enumerate_splits(|id| raw[id as usize].clone(), &ids, &summaries, &seg, &syn);
        let best = choose_split(&candidates).expect("some split must be effective");
        assert!(best.is_effective());
        assert!(
            best.balance() >= 0.3,
            "best split should be reasonably balanced"
        );
    }

    #[test]
    fn choose_split_returns_none_for_identical_entries() {
        let seg = uniform_segmentation(8, 2);
        let series = vec![1.0f32; 8];
        let ids: Vec<u32> = (0..5).collect();
        let summaries: Vec<EapcaSegment> = ids
            .iter()
            .flat_map(|_| Eapca::compute(&series, &seg).segments)
            .collect();
        let syn = synopsis_of(&summaries, 2);
        let candidates = enumerate_splits(|_| series.clone(), &ids, &summaries, &seg, &syn);
        assert!(
            choose_split(&candidates).is_none(),
            "identical entries cannot be separated"
        );
    }

    #[test]
    fn candidate_balance_math() {
        let spec = SplitSpec {
            segmentation: vec![4],
            segment: 0,
            attribute: SplitAttribute::Mean,
            threshold: 0.0,
            is_vertical: false,
        };
        let c = CandidateSplit {
            spec: spec.clone(),
            left_count: 5,
            right_count: 5,
        };
        assert_eq!(c.balance(), 1.0);
        let c = CandidateSplit {
            spec: spec.clone(),
            left_count: 10,
            right_count: 0,
        };
        assert_eq!(c.balance(), 0.0);
        assert!(!c.is_effective());
        let c = CandidateSplit {
            spec,
            left_count: 0,
            right_count: 0,
        };
        assert_eq!(c.balance(), 0.0);
    }
}
