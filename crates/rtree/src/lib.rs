//! # hydra-rtree
//!
//! An R*-tree-style spatial access method over PAA summaries.
//!
//! Each series is reduced to its PAA representation (a point in an
//! `l`-dimensional space); leaves hold the points (plus the series ids), and
//! internal nodes hold the minimum bounding rectangles (MBRs) of their
//! children. Insertion follows the R*-tree heuristics: subtrees are chosen by
//! least overlap/area enlargement and splits pick the axis with the smallest
//! total margin and the distribution with the least overlap.
//!
//! The lower-bounding distance from a query to an MBR is the segment-width-
//! weighted distance from the query's PAA values to the rectangle, which never
//! exceeds the true Euclidean distance — so the best-first k-NN search (the
//! shared `hydra_storage::best_first::search`) is exact. As in the paper,
//! this classic spatial index struggles as dimensionality and dataset size
//! grow (MBRs overlap heavily), which is the behaviour the benchmark
//! documents.

// lib-unwrap (README "Contract lints"): library code returns typed errors.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use hydra_core::{
    AnswerMode, AnswerSet, AnsweringMethod, BuildOptions, Dataset, Error, ExactIndex,
    IndexFootprint, MethodDescriptor, ModeCapabilities, Query, QueryStats, Result,
};
use hydra_storage::best_first::{self, BestFirstTree, Frontier, Node as TreeNode, Seed};
use hydra_storage::DatasetStore;
use hydra_transforms::Paa;
use std::sync::Arc;

/// A minimum bounding rectangle in PAA space.
#[derive(Clone, Debug, PartialEq)]
pub struct Mbr {
    /// Per-dimension lower bounds.
    pub low: Vec<f32>,
    /// Per-dimension upper bounds.
    pub high: Vec<f32>,
}

impl Mbr {
    /// An empty (inverted) rectangle of the given dimensionality.
    pub fn empty(dims: usize) -> Self {
        Self {
            low: vec![f32::INFINITY; dims],
            high: vec![f32::NEG_INFINITY; dims],
        }
    }

    /// A rectangle covering a single point.
    pub fn point(p: &[f32]) -> Self {
        Self {
            low: p.to_vec(),
            high: p.to_vec(),
        }
    }

    /// Whether the rectangle covers nothing.
    pub fn is_empty(&self) -> bool {
        self.low.iter().zip(self.high.iter()).any(|(l, h)| l > h)
    }

    /// Expands the rectangle to cover another.
    pub fn merge(&mut self, other: &Mbr) {
        for d in 0..self.low.len() {
            self.low[d] = self.low[d].min(other.low[d]);
            self.high[d] = self.high[d].max(other.high[d]);
        }
    }

    /// The rectangle's volume (product of side lengths).
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.low
            .iter()
            .zip(self.high.iter())
            .map(|(l, h)| (h - l).max(0.0) as f64)
            .product()
    }

    /// The sum of the side lengths (the R*-tree margin criterion).
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.low
            .iter()
            .zip(self.high.iter())
            .map(|(l, h)| (h - l).max(0.0) as f64)
            .sum()
    }

    /// The volume of the intersection with another rectangle.
    pub fn overlap(&self, other: &Mbr) -> f64 {
        let mut v = 1.0f64;
        for d in 0..self.low.len() {
            let lo = self.low[d].max(other.low[d]);
            let hi = self.high[d].min(other.high[d]);
            if hi <= lo {
                return 0.0;
            }
            v *= (hi - lo) as f64;
        }
        v
    }

    /// The increase in area needed to also cover `other`.
    pub fn enlargement(&self, other: &Mbr) -> f64 {
        let mut merged = self.clone();
        merged.merge(other);
        merged.area() - self.area()
    }

    /// The segment-width-weighted squared distance from a PAA point to the
    /// rectangle (zero inside).
    pub fn mindist_sq(&self, point: &[f32], weights: &[usize]) -> f64 {
        let mut sum = 0.0f64;
        for d in 0..self.low.len() {
            let v = point[d];
            let delta = if v < self.low[d] {
                (self.low[d] - v) as f64
            } else if v > self.high[d] {
                (v - self.high[d]) as f64
            } else {
                0.0
            };
            sum += weights[d] as f64 * delta * delta;
        }
        sum
    }
}

#[derive(Clone, Debug)]
struct LeafEntry {
    id: u32,
    point: Vec<f32>,
}

#[derive(Clone, Debug)]
enum NodeKind {
    Internal { children: Vec<usize> },
    Leaf { entries: Vec<LeafEntry> },
}

#[derive(Clone, Debug)]
struct Node {
    mbr: Mbr,
    kind: NodeKind,
    depth: usize,
}

/// The R*-tree index over PAA summaries.
pub struct RStarTree {
    store: Arc<DatasetStore>,
    paa: Paa,
    nodes: Vec<Node>,
    root: usize,
    leaf_capacity: usize,
    fanout: usize,
    weights: Vec<usize>,
}

impl RStarTree {
    /// Builds the index over an instrumented store.
    ///
    /// The R*-tree leaf capacities the paper tunes are tiny (tens of entries);
    /// `options.leaf_capacity` is used directly, and the internal fanout is
    /// fixed at 32.
    pub fn build_on_store(store: Arc<DatasetStore>, options: &BuildOptions) -> Result<Self> {
        if store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        options.validate(store.series_length())?;
        let paa = Paa::new(store.series_length(), options.segments);
        let weights: Vec<usize> = (0..options.segments)
            .map(|i| paa.segment_width(i))
            .collect();
        let dims = options.segments;
        let root = Node {
            mbr: Mbr::empty(dims),
            kind: NodeKind::Leaf {
                entries: Vec::new(),
            },
            depth: 0,
        };
        let mut tree = Self {
            store: store.clone(),
            paa,
            nodes: vec![root],
            root: 0,
            leaf_capacity: options.leaf_capacity.max(2),
            fanout: 32,
            weights,
        };
        store.scan_all(|id, series| {
            let point = tree.paa.transform(series.values());
            tree.insert(id as u32, point);
        });
        store.record_index_write((store.len() * store.series_bytes()) as u64);
        Ok(tree)
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of indexed entries.
    pub fn num_entries(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Leaf { entries } => entries.len(),
                _ => 0,
            })
            .sum()
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    fn insert(&mut self, id: u32, point: Vec<f32>) {
        let entry_mbr = Mbr::point(&point);
        // Choose the leaf by descending with the R*-tree criteria.
        let mut path = vec![self.root];
        let mut current = self.root;
        while let NodeKind::Internal { children } = &self.nodes[current].kind {
            let child_is_leaf = children
                .first()
                .map(|&c| matches!(self.nodes[c].kind, NodeKind::Leaf { .. }))
                .unwrap_or(true);
            let mut best = children[0];
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for &child in children {
                let enlargement = self.nodes[child].mbr.enlargement(&entry_mbr);
                let overlap_increase = if child_is_leaf {
                    // R*: minimize overlap enlargement at the leaf level.
                    let mut enlarged = self.nodes[child].mbr.clone();
                    enlarged.merge(&entry_mbr);
                    children
                        .iter()
                        .filter(|&&o| o != child)
                        .map(|&o| {
                            enlarged.overlap(&self.nodes[o].mbr)
                                - self.nodes[child].mbr.overlap(&self.nodes[o].mbr)
                        })
                        .sum::<f64>()
                } else {
                    0.0
                };
                let key = (overlap_increase, enlargement, self.nodes[child].mbr.area());
                if key < best_key {
                    best_key = key;
                    best = child;
                }
            }
            current = best;
            path.push(current);
        }
        // Insert into the leaf and grow MBRs along the path.
        if let NodeKind::Leaf { entries } = &mut self.nodes[current].kind {
            entries.push(LeafEntry { id, point });
        }
        for &n in &path {
            self.nodes[n].mbr.merge(&entry_mbr);
        }
        // Split bottom-up as needed.
        let mut child = current;
        for i in (0..path.len()).rev() {
            let node = path[i];
            let overflow = match &self.nodes[node].kind {
                NodeKind::Leaf { entries } => entries.len() > self.leaf_capacity,
                NodeKind::Internal { children } => children.len() > self.fanout,
            };
            if !overflow {
                break;
            }
            let (left, right) = self.split_node(node);
            if i == 0 {
                // The root split: create a new root.
                let dims = self.weights.len();
                let mut mbr = Mbr::empty(dims);
                mbr.merge(&self.nodes[left].mbr);
                mbr.merge(&self.nodes[right].mbr);
                let new_root = self.nodes.len();
                let depth = 0;
                self.nodes.push(Node {
                    mbr,
                    kind: NodeKind::Internal {
                        children: vec![left, right],
                    },
                    depth,
                });
                self.root = new_root;
                self.bump_depths(new_root, 0);
                break;
            } else {
                let parent = path[i - 1];
                if let NodeKind::Internal { children } = &mut self.nodes[parent].kind {
                    children.retain(|&c| c != node);
                    children.push(left);
                    children.push(right);
                }
                self.recompute_mbr(parent);
            }
            child = node;
        }
        let _ = child;
    }

    fn bump_depths(&mut self, node: usize, depth: usize) {
        self.nodes[node].depth = depth;
        if let NodeKind::Internal { children } = self.nodes[node].kind.clone() {
            for c in children {
                self.bump_depths(c, depth + 1);
            }
        }
    }

    fn recompute_mbr(&mut self, node: usize) {
        let dims = self.weights.len();
        let mut mbr = Mbr::empty(dims);
        match &self.nodes[node].kind {
            NodeKind::Internal { children } => {
                for &c in children {
                    mbr.merge(&self.nodes[c].mbr.clone());
                }
            }
            NodeKind::Leaf { entries } => {
                for e in entries {
                    mbr.merge(&Mbr::point(&e.point));
                }
            }
        }
        self.nodes[node].mbr = mbr;
    }

    /// Splits an over-full node using the R*-tree axis/margin heuristics,
    /// returning the two replacement node ids.
    fn split_node(&mut self, node: usize) -> (usize, usize) {
        let dims = self.weights.len();
        let depth = self.nodes[node].depth;
        match self.nodes[node].kind.clone() {
            NodeKind::Leaf { mut entries } => {
                let (axis, split_at) =
                    choose_split(&entries, dims, |e| &e.point, self.leaf_capacity);
                entries.sort_by(|a, b| a.point[axis].total_cmp(&b.point[axis]));
                let right_entries = entries.split_off(split_at);
                // Reuse the original slot for the left half so no stale node
                // remains in the arena.
                self.nodes[node] = Node {
                    mbr: Mbr::empty(dims),
                    kind: NodeKind::Leaf { entries },
                    depth,
                };
                self.recompute_mbr(node);
                let right_id = self.nodes.len();
                self.nodes.push(Node {
                    mbr: Mbr::empty(dims),
                    kind: NodeKind::Leaf {
                        entries: right_entries,
                    },
                    depth,
                });
                self.recompute_mbr(right_id);
                (node, right_id)
            }
            NodeKind::Internal { mut children } => {
                let centers: Vec<Vec<f32>> = children
                    .iter()
                    .map(|&c| {
                        let m = &self.nodes[c].mbr;
                        (0..dims).map(|d| (m.low[d] + m.high[d]) / 2.0).collect()
                    })
                    .collect();
                let indexed: Vec<(usize, Vec<f32>)> =
                    children.iter().copied().zip(centers).collect();
                let (axis, split_at) = choose_split(&indexed, dims, |e| &e.1, self.fanout);
                let mut order: Vec<usize> = (0..children.len()).collect();
                order.sort_by(|&a, &b| indexed[a].1[axis].total_cmp(&indexed[b].1[axis]));
                let left_children: Vec<usize> =
                    order[..split_at].iter().map(|&i| children[i]).collect();
                let right_children: Vec<usize> =
                    order[split_at..].iter().map(|&i| children[i]).collect();
                children.clear();
                self.nodes[node] = Node {
                    mbr: Mbr::empty(dims),
                    kind: NodeKind::Internal {
                        children: left_children,
                    },
                    depth,
                };
                self.recompute_mbr(node);
                let right_id = self.nodes.len();
                self.nodes.push(Node {
                    mbr: Mbr::empty(dims),
                    kind: NodeKind::Internal {
                        children: right_children,
                    },
                    depth,
                });
                self.recompute_mbr(right_id);
                (node, right_id)
            }
        }
    }
}

/// The R*-tree split heuristic shared by leaf and internal splits: choose the
/// axis with the minimum total margin over candidate distributions, then the
/// split position with the least overlap (ties: least total area). Returns
/// `(axis, split_index)` with `min_fill <= split_index <= len - min_fill`.
fn choose_split<T>(
    entries: &[T],
    dims: usize,
    point_of: impl Fn(&T) -> &[f32],
    capacity: usize,
) -> (usize, usize) {
    let len = entries.len();
    let min_fill = (capacity * 2 / 5).max(1).min(len / 2).max(1);
    let mut best_axis = 0usize;
    let mut best_axis_margin = f64::INFINITY;
    let mut best_split_for_axis = vec![min_fill; dims];
    for (axis, axis_best_split) in best_split_for_axis.iter_mut().enumerate() {
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by(|&a, &b| point_of(&entries[a])[axis].total_cmp(&point_of(&entries[b])[axis]));
        let mut margin_sum = 0.0f64;
        let mut best_overlap = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        let mut best_split = min_fill;
        for split in min_fill..=(len - min_fill).max(min_fill) {
            if split == 0 || split >= len {
                continue;
            }
            let mut left = Mbr::empty(dims);
            for &i in &order[..split] {
                left.merge(&Mbr::point(point_of(&entries[i])));
            }
            let mut right = Mbr::empty(dims);
            for &i in &order[split..] {
                right.merge(&Mbr::point(point_of(&entries[i])));
            }
            margin_sum += left.margin() + right.margin();
            let overlap = left.overlap(&right);
            let area = left.area() + right.area();
            if (overlap, area) < (best_overlap, best_area) {
                best_overlap = overlap;
                best_area = area;
                best_split = split;
            }
        }
        if margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            best_axis = axis;
        }
        *axis_best_split = best_split;
    }
    (best_axis, best_split_for_axis[best_axis])
}

impl AnsweringMethod for RStarTree {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor {
            name: "R*-tree",
            representation: "PAA",
            is_index: true,
            modes: ModeCapabilities::all(),
        }
    }

    fn index_footprint(&self) -> Option<IndexFootprint> {
        Some(ExactIndex::footprint(self))
    }

    /// The serial best-first search; `threads` is ignored.
    fn search(&self, query: &Query, _threads: usize, stats: &mut QueryStats) -> Result<AnswerSet> {
        best_first::search(self, query, stats)
    }
}

/// The R*-tree bounds a node with the segment-width-weighted distance from
/// the query's PAA point to the node's MBR.
impl BestFirstTree for RStarTree {
    type Probe<'q> = Vec<f32>;

    const NAME: &'static str = "R*-tree";

    fn store(&self) -> &DatasetStore {
        &self.store
    }

    fn probe(&self, query: &[f32]) -> Vec<f32> {
        self.paa.transform(query)
    }

    /// Only ng-approximate search seeds: it descends to the MBR-closest leaf
    /// at every level. The other modes start the traversal from an empty
    /// best-so-far.
    fn seed(&self, q_paa: &Vec<f32>, mode: AnswerMode, stats: &mut QueryStats) -> Seed {
        if mode != AnswerMode::NgApproximate {
            return Seed::default();
        }
        let mut current = self.root;
        while let NodeKind::Internal { children } = &self.nodes[current].kind {
            stats.record_internal_visit();
            let mut best = children[0];
            let mut best_d = f64::INFINITY;
            for &child in children {
                let d = self.nodes[child].mbr.mindist_sq(q_paa, &self.weights);
                stats.record_lower_bounds(1);
                if d < best_d {
                    best_d = d;
                    best = child;
                }
            }
            current = best;
        }
        Seed {
            leaf: Some(current),
            skip: None,
        }
    }

    /// The root covers everything: it starts at 0 for free.
    fn push_roots(&self, _: &Vec<f32>, frontier: &mut Frontier, _: &mut QueryStats) {
        frontier.push(self.root, 0.0);
    }

    fn node(
        &self,
        id: usize,
    ) -> TreeNode<impl ExactSizeIterator<Item = u32> + Clone + '_, impl Iterator<Item = usize> + '_>
    {
        match &self.nodes[id].kind {
            NodeKind::Leaf { entries } => TreeNode::Leaf(entries.iter().map(|e| e.id)),
            NodeKind::Internal { children } => TreeNode::Internal(children.iter().copied()),
        }
    }

    fn bound(&self, id: usize, q_paa: &Vec<f32>) -> f64 {
        self.nodes[id].mbr.mindist_sq(q_paa, &self.weights).sqrt()
    }

    /// The PAA bound between the query's point and each entry's.
    fn entry_bounds(&self, id: usize, q_paa: &Vec<f32>) -> Vec<f64> {
        match &self.nodes[id].kind {
            NodeKind::Leaf { entries } => entries
                .iter()
                .map(|e| self.paa.lower_bound(q_paa, &e.point))
                .collect(),
            NodeKind::Internal { .. } => Vec::new(),
        }
    }
}

impl ExactIndex for RStarTree {
    fn build(dataset: &Dataset, options: &BuildOptions) -> Result<Self> {
        Self::build_on_store(Arc::new(DatasetStore::new(dataset.clone())), options)
    }

    fn footprint(&self) -> IndexFootprint {
        let mut leaf_fill_factors = Vec::new();
        let mut leaf_depths = Vec::new();
        let mut leaf_nodes = 0usize;
        let mut disk_bytes = 0usize;
        for n in &self.nodes {
            if let NodeKind::Leaf { entries } = &n.kind {
                leaf_nodes += 1;
                leaf_fill_factors.push(entries.len() as f64 / self.leaf_capacity as f64);
                leaf_depths.push(n.depth);
                disk_bytes += entries.len() * self.store.series_bytes();
            }
        }
        let memory_bytes = self.nodes.len()
            * (std::mem::size_of::<Node>() + 2 * self.weights.len() * 4)
            + self.num_entries() * (std::mem::size_of::<LeafEntry>() + self.weights.len() * 4);
        IndexFootprint {
            total_nodes: self.nodes.len(),
            leaf_nodes,
            memory_bytes,
            disk_bytes,
            leaf_fill_factors,
            leaf_depths,
        }
    }

    fn num_series(&self) -> usize {
        self.store.len()
    }

    fn series_length(&self) -> usize {
        self.store.series_length()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_data::RandomWalkGenerator;
    use hydra_scan::ucr::brute_force_knn;

    fn build(count: usize, len: usize, leaf: usize) -> (Arc<DatasetStore>, RStarTree) {
        let store = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(17, len).dataset(count),
        ));
        let options = BuildOptions::default()
            .with_segments(8.min(len))
            .with_leaf_capacity(leaf);
        let index = RStarTree::build_on_store(store.clone(), &options).unwrap();
        (store, index)
    }

    #[test]
    fn mbr_geometry() {
        let mut m = Mbr::empty(2);
        assert!(m.is_empty());
        assert_eq!(m.area(), 0.0);
        m.merge(&Mbr::point(&[0.0, 0.0]));
        m.merge(&Mbr::point(&[2.0, 3.0]));
        assert!(!m.is_empty());
        assert_eq!(m.area(), 6.0);
        assert_eq!(m.margin(), 5.0);
        let other = Mbr {
            low: vec![1.0, 1.0],
            high: vec![4.0, 2.0],
        };
        assert_eq!(m.overlap(&other), 1.0);
        assert!(m.enlargement(&other) > 0.0);
        // mindist: inside is zero, outside is weighted.
        assert_eq!(m.mindist_sq(&[1.0, 1.0], &[1, 1]), 0.0);
        assert_eq!(m.mindist_sq(&[3.0, 0.0], &[2, 1]), 2.0);
    }

    #[test]
    fn descriptor_matches_table1() {
        let (_, idx) = build(30, 32, 8);
        assert_eq!(idx.descriptor().name, "R*-tree");
        assert_eq!(idx.descriptor().representation, "PAA");
    }

    #[test]
    fn all_series_indexed_and_tree_grows() {
        let (_, idx) = build(500, 64, 16);
        assert_eq!(idx.num_entries(), 500);
        assert!(idx.num_nodes() > 1);
        let fp = idx.footprint();
        assert_eq!(fp.leaf_fill_factors.len(), fp.leaf_nodes);
        assert!(
            fp.total_nodes > fp.leaf_nodes,
            "a 500-entry tree must have internal nodes"
        );
        assert_eq!(fp.disk_bytes, 500 * 64 * 4);
    }

    #[test]
    fn build_and_query_tolerate_nan_series() {
        // Regression: the axis sorts of the R*-tree split and the frontier
        // ordering use `total_cmp`, so one corrupt (all-NaN) series must
        // neither panic the build nor make answers run-to-run unstable.
        let len = 32usize;
        let mut values = Vec::new();
        for s in RandomWalkGenerator::new(23, len).series_batch(40) {
            values.extend_from_slice(s.values());
        }
        for v in &mut values[5 * len..6 * len] {
            *v = f32::NAN;
        }
        let store = Arc::new(DatasetStore::new(hydra_core::series::Dataset::from_flat(
            values, len,
        )));
        let options = BuildOptions::default()
            .with_segments(8)
            .with_leaf_capacity(8);
        let idx = RStarTree::build_on_store(store, &options).unwrap();
        assert_eq!(idx.num_entries(), 40);
        let q = RandomWalkGenerator::new(99, len).series(1);
        let first = idx.answer_simple(&Query::knn(q.clone(), 3)).unwrap();
        let again = idx.answer_simple(&Query::knn(q, 3)).unwrap();
        assert_eq!(first.len(), 3);
        let ids =
            |a: &hydra_core::knn::AnswerSet| -> Vec<usize> { a.iter().map(|ans| ans.id).collect() };
        assert_eq!(ids(&first), ids(&again), "NaN must not destabilize answers");
        assert!(
            ids(&first).iter().all(|&id| id != 5),
            "NaN series cannot win"
        );
    }

    #[test]
    fn exactness_against_brute_force() {
        let (store, idx) = build(400, 64, 16);
        for q in RandomWalkGenerator::new(117, 64).series_batch(12) {
            for k in [1usize, 5] {
                let expected = brute_force_knn(store.dataset(), q.values(), k);
                let got = idx.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert!(got.distances_match(&expected, 1e-4), "k={k}");
            }
        }
    }

    #[test]
    fn exactness_on_short_series() {
        let (store, idx) = build(200, 96, 10);
        let q = RandomWalkGenerator::new(118, 96).series(4);
        let expected = brute_force_knn(store.dataset(), q.values(), 1);
        let got = idx.answer_simple(&Query::nearest_neighbor(q)).unwrap();
        assert!(got.distances_match(&expected, 1e-4));
    }

    #[test]
    fn self_queries_prune_some_candidates() {
        let (store, idx) = build(800, 64, 32);
        let q = store.dataset().series(99).to_owned_series();
        let mut stats = QueryStats::default();
        let ans = idx.answer(&Query::nearest_neighbor(q), &mut stats).unwrap();
        assert_eq!(ans.nearest().unwrap().id, 99);
        assert!(
            stats.pruning_ratio(800) > 0.2,
            "ratio {}",
            stats.pruning_ratio(800)
        );
        assert!(stats.leaves_visited >= 1);
    }

    #[test]
    fn ng_visits_one_leaf_and_epsilon_zero_is_bit_identical_to_exact() {
        let (store, idx) = build(400, 64, 16);
        let member = store.dataset().series(123).to_owned_series();
        let mut stats = QueryStats::default();
        let ng = idx
            .answer(
                &Query::nearest_neighbor(member).with_mode(AnswerMode::NgApproximate),
                &mut stats,
            )
            .unwrap();
        assert!(stats.leaves_visited <= 1);
        assert_eq!(ng.guarantee(), hydra_core::Guarantee::None);

        for q in RandomWalkGenerator::new(317, 64).series_batch(4) {
            let exact_q = Query::knn(q, 3);
            let mut s1 = QueryStats::default();
            let mut s2 = QueryStats::default();
            let exact = idx.answer(&exact_q, &mut s1).unwrap();
            let zero = idx
                .answer(
                    &exact_q
                        .clone()
                        .with_mode(AnswerMode::EpsilonApproximate { epsilon: 0.0 }),
                    &mut s2,
                )
                .unwrap();
            assert_eq!(zero.answers(), exact.answers());
            assert_eq!(s1.raw_series_examined, s2.raw_series_examined);
            assert_eq!(s1.lower_bounds_computed, s2.lower_bounds_computed);
        }
    }

    #[test]
    fn rejects_empty_dataset_and_bad_query() {
        assert!(RStarTree::build(&Dataset::empty(8), &BuildOptions::default()).is_err());
        let (_, idx) = build(20, 64, 8);
        assert!(idx
            .answer_simple(&Query::nearest_neighbor(hydra_core::Series::new(vec![
                0.0;
                8
            ])))
            .is_err());
    }
}
