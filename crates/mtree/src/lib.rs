//! # hydra-mtree
//!
//! An M-tree: a metric-space access method that organizes series by their
//! mutual Euclidean distances rather than by a coordinate summarization.
//!
//! Every node stores a routing object — a pivot series and a covering radius
//! bounding the distance to everything in its subtree — and every leaf entry
//! its distance to the leaf's pivot. Queries run the shared best-first search,
//! `hydra_storage::best_first::search`, on triangle-inequality bounds alone,
//! which are correct for any metric: a subtree is pruned once
//! `d(query, pivot) − covering_radius` reaches `bsf · shrink`, and a leaf
//! entry is bounded by `|d(query, pivot) − d(entry, pivot)|` before its
//! series is read.
//!
//! Construction inserts series one at a time, routing each to the child whose
//! pivot is closest (preferring children that need no radius enlargement), and
//! splits over-full nodes by promoting two far-apart pivots and partitioning
//! the entries by proximity (a generalized-hyperplane split). Because pruning
//! relies only on raw-space distances — there is no dimensionality reduction —
//! the M-tree pays many more distance computations than the summarization
//! indexes, which is exactly the scaling weakness the paper reports.

// lib-unwrap (README "Contract lints"): library code returns typed errors.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use hydra_core::distance::euclidean;
use hydra_core::{
    AnswerMode, AnswerSet, AnsweringMethod, BuildOptions, Dataset, Error, ExactIndex,
    IndexFootprint, MethodDescriptor, ModeCapabilities, Query, QueryStats, Result,
};
use hydra_storage::best_first::{self, BestFirstTree, Frontier, Node as TreeNode, Seed};
use hydra_storage::DatasetStore;
use std::sync::Arc;

#[derive(Clone, Debug)]
struct LeafEntry {
    id: u32,
    /// Distance from this entry to the node's pivot.
    to_parent: f64,
}

#[derive(Clone, Debug)]
enum NodeKind {
    Internal { children: Vec<usize> },
    Leaf { entries: Vec<LeafEntry> },
}

#[derive(Clone, Debug)]
struct Node {
    /// The routing pivot: a series id from the dataset.
    pivot: u32,
    /// Upper bound on the distance from the pivot to anything in the subtree.
    radius: f64,
    kind: NodeKind,
    depth: usize,
}

/// The M-tree metric index.
pub struct MTree {
    store: Arc<DatasetStore>,
    nodes: Vec<Node>,
    root: usize,
    leaf_capacity: usize,
    fanout: usize,
    /// Distance computations performed while building (the M-tree's dominant
    /// construction cost).
    build_distance_computations: u64,
}

impl MTree {
    /// Builds the M-tree over an instrumented store.
    pub fn build_on_store(store: Arc<DatasetStore>, options: &BuildOptions) -> Result<Self> {
        if store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        if options.leaf_capacity == 0 {
            return Err(Error::invalid_parameter(
                "leaf_capacity",
                "must be positive",
            ));
        }
        let mut tree = Self {
            store: store.clone(),
            nodes: Vec::new(),
            root: 0,
            leaf_capacity: options.leaf_capacity.max(2),
            fanout: 16,
            build_distance_computations: 0,
        };
        tree.nodes.push(Node {
            pivot: 0,
            radius: 0.0,
            kind: NodeKind::Leaf {
                entries: Vec::new(),
            },
            depth: 0,
        });
        store.scan_all(|id, _| {
            tree.insert(id as u32);
        });
        store.record_index_write((store.len() * store.series_bytes()) as u64);
        Ok(tree)
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// The number of nodes in the tree.
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

    /// Distance computations performed during construction.
    pub fn build_distance_computations(&self) -> u64 {
        self.build_distance_computations
    }

    fn distance_ids(&mut self, a: u32, b: u32) -> f64 {
        self.build_distance_computations += 1;
        let d = self.store.dataset();
        euclidean(d.series(a as usize).values(), d.series(b as usize).values())
    }

    /// `d(query, pivot of node)`.
    fn to_pivot(&self, query: &[f32], node: usize) -> f64 {
        let pivot = self.store.dataset().series(self.nodes[node].pivot as usize);
        euclidean(query, pivot.values())
    }

    fn insert(&mut self, id: u32) {
        // Descend to the most suitable leaf.
        let mut path = vec![self.root];
        let mut current = self.root;
        while let NodeKind::Internal { children } = &self.nodes[current].kind {
            let children = children.clone();
            let mut best = children[0];
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for child in children {
                let d = self.distance_ids(id, self.nodes[child].pivot);
                let enlargement = (d - self.nodes[child].radius).max(0.0);
                let key = (enlargement, d);
                if key < best_key {
                    best_key = key;
                    best = child;
                }
            }
            current = best;
            path.push(current);
        }
        let d_to_pivot = self.distance_ids(id, self.nodes[current].pivot);
        if let NodeKind::Leaf { entries } = &mut self.nodes[current].kind {
            entries.push(LeafEntry {
                id,
                to_parent: d_to_pivot,
            });
        }
        // Grow covering radii along the path.
        for &n in &path {
            let d = self.distance_ids(id, self.nodes[n].pivot);
            if d > self.nodes[n].radius {
                self.nodes[n].radius = d;
            }
        }
        // Split bottom-up.
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
                // New root above the two halves.
                let left_pivot = self.nodes[left].pivot;
                let d = self.distance_ids(left_pivot, self.nodes[right].pivot);
                let radius = (self.nodes[left].radius).max(d + self.nodes[right].radius);
                let new_root = self.nodes.len();
                self.nodes.push(Node {
                    pivot: left_pivot,
                    radius,
                    kind: NodeKind::Internal {
                        children: vec![left, right],
                    },
                    depth: 0,
                });
                self.root = new_root;
                self.bump_depths(new_root, 0);
                break;
            } else {
                let parent = path[i - 1];
                let parent_pivot = self.nodes[parent].pivot;
                for half in [left, right] {
                    let d = self.distance_ids(self.nodes[half].pivot, parent_pivot);
                    let needed = d + self.nodes[half].radius;
                    if needed > self.nodes[parent].radius {
                        self.nodes[parent].radius = needed;
                    }
                }
                if let NodeKind::Internal { children } = &mut self.nodes[parent].kind {
                    children.retain(|&c| c != node);
                    children.push(left);
                    children.push(right);
                }
            }
        }
    }

    fn bump_depths(&mut self, node: usize, depth: usize) {
        self.nodes[node].depth = depth;
        if let NodeKind::Internal { children } = self.nodes[node].kind.clone() {
            for c in children {
                self.bump_depths(c, depth + 1);
            }
        }
    }

    /// Splits an over-full node: promote two far-apart pivots and partition
    /// entries by proximity.
    fn split_node(&mut self, node: usize) -> (usize, usize) {
        let depth = self.nodes[node].depth;
        match self.nodes[node].kind.clone() {
            NodeKind::Leaf { entries } => {
                let ids: Vec<u32> = entries.iter().map(|e| e.id).collect();
                let (p1, p2) = self.promote(&ids);
                let mut left_entries = Vec::new();
                let mut right_entries = Vec::new();
                let mut left_radius = 0.0f64;
                let mut right_radius = 0.0f64;
                for e in entries {
                    let d1 = self.distance_ids(e.id, p1);
                    let d2 = self.distance_ids(e.id, p2);
                    if d1 <= d2 {
                        left_radius = left_radius.max(d1);
                        left_entries.push(LeafEntry {
                            id: e.id,
                            to_parent: d1,
                        });
                    } else {
                        right_radius = right_radius.max(d2);
                        right_entries.push(LeafEntry {
                            id: e.id,
                            to_parent: d2,
                        });
                    }
                }
                // Reuse the original slot for the left half so no stale node
                // remains in the arena.
                self.nodes[node] = Node {
                    pivot: p1,
                    radius: left_radius,
                    kind: NodeKind::Leaf {
                        entries: left_entries,
                    },
                    depth,
                };
                let right_id = self.nodes.len();
                self.nodes.push(Node {
                    pivot: p2,
                    radius: right_radius,
                    kind: NodeKind::Leaf {
                        entries: right_entries,
                    },
                    depth,
                });
                (node, right_id)
            }
            NodeKind::Internal { children } => {
                let pivots: Vec<u32> = children.iter().map(|&c| self.nodes[c].pivot).collect();
                let (p1, p2) = self.promote(&pivots);
                let mut left_children = Vec::new();
                let mut right_children = Vec::new();
                let mut left_radius = 0.0f64;
                let mut right_radius = 0.0f64;
                for child in children {
                    let d1 = self.distance_ids(self.nodes[child].pivot, p1);
                    let d2 = self.distance_ids(self.nodes[child].pivot, p2);
                    if d1 <= d2 {
                        left_radius = left_radius.max(d1 + self.nodes[child].radius);
                        left_children.push(child);
                    } else {
                        right_radius = right_radius.max(d2 + self.nodes[child].radius);
                        right_children.push(child);
                    }
                }
                self.nodes[node] = Node {
                    pivot: p1,
                    radius: left_radius,
                    kind: NodeKind::Internal {
                        children: left_children,
                    },
                    depth,
                };
                let right_id = self.nodes.len();
                self.nodes.push(Node {
                    pivot: p2,
                    radius: right_radius,
                    kind: NodeKind::Internal {
                        children: right_children,
                    },
                    depth,
                });
                (node, right_id)
            }
        }
    }

    /// Chooses two far-apart promotion pivots with a linear-time heuristic:
    /// start from the first id, find the farthest from it, then the farthest
    /// from that one.
    fn promote(&mut self, ids: &[u32]) -> (u32, u32) {
        debug_assert!(ids.len() >= 2);
        let first = ids[0];
        let mut p1 = first;
        let mut best = -1.0f64;
        for &id in ids {
            let d = self.distance_ids(first, id);
            if d > best {
                best = d;
                p1 = id;
            }
        }
        let mut p2 = if p1 == first { ids[1] } else { first };
        best = -1.0;
        for &id in ids {
            if id == p1 {
                continue;
            }
            let d = self.distance_ids(p1, id);
            if d > best {
                best = d;
                p2 = id;
            }
        }
        (p1, p2)
    }
}

impl AnsweringMethod for MTree {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor {
            name: "M-tree",
            representation: "raw (metric)",
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

/// The M-tree bounds by the triangle inequality on raw distances alone: a
/// node by `d(q, pivot) − radius` and a leaf entry by `|d(q, pivot) −
/// d(entry, pivot)|`. The probe is the query itself.
impl BestFirstTree for MTree {
    type Probe<'q> = &'q [f32];

    const NAME: &'static str = "M-tree";

    fn store(&self) -> &DatasetStore {
        &self.store
    }

    fn probe<'q>(&'q self, query: &'q [f32]) -> &'q [f32] {
        query
    }

    /// Only ng-approximate search seeds: it descends to the child with the
    /// closest pivot at every level. The other modes start the traversal
    /// from an empty best-so-far.
    fn seed(&self, query: &&[f32], mode: AnswerMode, stats: &mut QueryStats) -> Seed {
        if mode != AnswerMode::NgApproximate {
            return Seed::default();
        }
        let mut current = self.root;
        while let NodeKind::Internal { children } = &self.nodes[current].kind {
            stats.record_internal_visit();
            let mut best = children[0];
            let mut best_d = f64::INFINITY;
            for &child in children {
                let d = self.to_pivot(query, child);
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

    /// The root, bounded like any other node.
    fn push_roots(&self, query: &&[f32], frontier: &mut Frontier, stats: &mut QueryStats) {
        stats.record_lower_bounds(1);
        frontier.push(self.root, self.bound(self.root, query));
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

    fn bound(&self, id: usize, query: &&[f32]) -> f64 {
        (self.to_pivot(query, id) - self.nodes[id].radius).max(0.0)
    }

    fn entry_bounds(&self, id: usize, query: &&[f32]) -> Vec<f64> {
        match &self.nodes[id].kind {
            NodeKind::Leaf { entries } => {
                let to_pivot = self.to_pivot(query, id);
                entries
                    .iter()
                    .map(|e| (to_pivot - e.to_parent).abs())
                    .collect()
            }
            NodeKind::Internal { .. } => Vec::new(),
        }
    }
}

impl ExactIndex for MTree {
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
        let memory_bytes = self.nodes.len() * std::mem::size_of::<Node>()
            + self.num_entries() * std::mem::size_of::<LeafEntry>();
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

    fn build(count: usize, len: usize, leaf: usize) -> (Arc<DatasetStore>, MTree) {
        let store = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(19, len).dataset(count),
        ));
        let options = BuildOptions::default().with_leaf_capacity(leaf);
        let index = MTree::build_on_store(store.clone(), &options).unwrap();
        (store, index)
    }

    #[test]
    fn descriptor_matches_table1() {
        let (_, idx) = build(30, 32, 8);
        assert_eq!(idx.descriptor().name, "M-tree");
        assert!(idx.descriptor().is_index);
    }

    #[test]
    fn all_series_indexed_and_radii_cover_entries() {
        let (store, idx) = build(300, 64, 10);
        assert_eq!(idx.num_entries(), 300);
        assert!(idx.num_nodes() > 1);
        assert!(idx.build_distance_computations() > 300);
        // Check the covering-radius invariant on leaves.
        let dataset = store.dataset();
        for n in &idx.nodes {
            if let NodeKind::Leaf { entries } = &n.kind {
                for e in entries {
                    let d = euclidean(
                        dataset.series(n.pivot as usize).values(),
                        dataset.series(e.id as usize).values(),
                    );
                    assert!(d <= n.radius + 1e-6, "entry outside covering radius");
                }
            }
        }
    }

    fn collect_ids(tree: &MTree, node: usize, out: &mut Vec<u32>) {
        match &tree.nodes[node].kind {
            NodeKind::Leaf { entries } => out.extend(entries.iter().map(|e| e.id)),
            NodeKind::Internal { children } => {
                for &c in children {
                    collect_ids(tree, c, out);
                }
            }
        }
    }

    #[test]
    fn covering_radius_invariant_holds_recursively() {
        let (store, idx) = build(400, 32, 12);
        let dataset = store.dataset();
        // Every series under a subtree must be within the subtree's radius.
        for (i, n) in idx.nodes.iter().enumerate() {
            let mut ids = Vec::new();
            collect_ids(&idx, i, &mut ids);
            for id in ids {
                let d = euclidean(
                    dataset.series(n.pivot as usize).values(),
                    dataset.series(id as usize).values(),
                );
                assert!(d <= n.radius + 1e-6, "series {id} outside node {i} radius");
            }
        }
    }

    /// Every bound the best-first search prunes on — node and entry — is at
    /// most the distance it stands for, for far queries and for
    /// perturbed members alike.
    #[test]
    fn every_bound_hook_is_a_lower_bound() {
        let (store, idx) = build(300, 64, 10);
        let dataset = store.dataset();
        let mut queries = RandomWalkGenerator::new(121, 64).series_batch(3);
        for id in [7usize, 150] {
            let mut near = dataset.series(id).values().to_vec();
            near.iter_mut().step_by(3).for_each(|v| *v += 0.1);
            queries.push(hydra_core::Series::new(near));
        }
        for q in &queries {
            let probe = q.values();
            let distance = |id: u32| euclidean(q.values(), dataset.series(id as usize).values());
            let nearest = |node| {
                let mut ids = Vec::new();
                collect_ids(&idx, node, &mut ids);
                ids.into_iter().map(distance).fold(f64::INFINITY, f64::min)
            };
            for (i, n) in idx.nodes.iter().enumerate() {
                assert!(idx.bound(i, &probe) <= nearest(i) + 1e-6, "node {i}");
                if let NodeKind::Leaf { entries } = &n.kind {
                    for (e, bound) in entries.iter().zip(idx.entry_bounds(i, &probe)) {
                        assert!(bound <= distance(e.id) + 1e-6, "entry {}", e.id);
                    }
                }
            }
        }
    }

    #[test]
    fn exactness_against_brute_force() {
        let (store, idx) = build(300, 64, 10);
        for q in RandomWalkGenerator::new(119, 64).series_batch(10) {
            for k in [1usize, 5] {
                let expected = brute_force_knn(store.dataset(), q.values(), k);
                let got = idx.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert!(got.distances_match(&expected, 1e-4), "k={k}");
            }
        }
    }

    /// 24 scattered copies of one series (more than two leaves hold) and
    /// five constant series among random walks: the inputs where k matches
    /// sit at distance 0 and entry bounds of exactly 0 must still be refined.
    #[test]
    fn exactness_on_duplicates_and_constants() {
        let len = 64;
        let walks = RandomWalkGenerator::new(23, len);
        let mut data = Dataset::empty(len);
        for i in 0..240u64 {
            data.push(walks.series(i).values());
            if i % 10 == 0 {
                data.push(walks.series(1000).values());
            }
        }
        for level in [0.0f32, 0.0, 0.0, 1.5, -2.0] {
            data.push(&vec![level; len]);
        }
        let store = Arc::new(DatasetStore::new(data));
        let options = BuildOptions::default().with_leaf_capacity(10);
        let idx = MTree::build_on_store(store.clone(), &options).unwrap();
        let dataset = store.dataset();
        let duplicate = dataset.series(1).to_owned_series();
        for q in [duplicate, hydra_core::Series::new(vec![0.0; len])] {
            for k in [1usize, 5, 10] {
                let expected = brute_force_knn(dataset, q.values(), k);
                let got = idx.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert_eq!(got.guarantee(), hydra_core::Guarantee::Exact);
                assert!(got.distances_match(&expected, 1e-4), "k={k}");
                // Ties at the k-th distance may be broken either way; every
                // id must be at its reported distance, and every series
                // strictly nearer than the k-th must be in the answer.
                let kth = expected.iter().map(|a| a.distance).fold(0.0, f64::max);
                let ids: Vec<usize> = got.iter().map(|a| a.id).collect();
                for a in got.iter() {
                    let d = euclidean(q.values(), dataset.series(a.id).values());
                    assert!((d - a.distance).abs() <= 1e-4, "k={k}: id {}", a.id);
                }
                for e in expected.iter().filter(|e| e.distance < kth - 1e-4) {
                    assert!(ids.contains(&e.id), "k={k}: missed {}", e.id);
                }
            }
        }
    }

    #[test]
    fn exactness_on_short_series() {
        let (store, idx) = build(150, 96, 8);
        let q = RandomWalkGenerator::new(120, 96).series(3);
        let expected = brute_force_knn(store.dataset(), q.values(), 1);
        let got = idx.answer_simple(&Query::nearest_neighbor(q)).unwrap();
        assert!(got.distances_match(&expected, 1e-4));
    }

    #[test]
    fn self_queries_return_the_member() {
        let (store, idx) = build(500, 64, 20);
        let q = store.dataset().series(250).to_owned_series();
        let mut stats = QueryStats::default();
        let ans = idx.answer(&Query::nearest_neighbor(q), &mut stats).unwrap();
        assert_eq!(ans.nearest().unwrap().id, 250);
        assert!(ans.nearest().unwrap().distance < 1e-6);
        assert!(stats.leaves_visited >= 1);
    }

    #[test]
    fn ng_visits_one_leaf_and_epsilon_zero_is_bit_identical_to_exact() {
        let (store, idx) = build(400, 64, 12);
        let member = store.dataset().series(200).to_owned_series();
        let mut stats = QueryStats::default();
        let ng = idx
            .answer(
                &Query::nearest_neighbor(member).with_mode(AnswerMode::NgApproximate),
                &mut stats,
            )
            .unwrap();
        assert!(stats.leaves_visited <= 1);
        assert_eq!(ng.guarantee(), hydra_core::Guarantee::None);

        for q in RandomWalkGenerator::new(219, 64).series_batch(4) {
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
        assert!(MTree::build(&Dataset::empty(8), &BuildOptions::default()).is_err());
        let (_, idx) = build(20, 64, 8);
        assert!(idx
            .answer_simple(&Query::nearest_neighbor(hydra_core::Series::new(vec![
                0.0;
                8
            ])))
            .is_err());
    }
}
