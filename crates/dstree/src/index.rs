//! The DSTree index: construction, splitting and exact search.
//!
//! A leaf holds its series ids and one flat block of their EAPCA summaries
//! (one (mean, σ) pair per segment of the leaf's segmentation per entry), so
//! bounding a leaf's entries is one loop over one block. Every node has its
//! own segmentation, but they are all cut from a few hundred distinct
//! segments: the tree keeps those in a `SegmentDictionary` (derived at
//! build and at load, never persisted), a query computes its mean and σ over
//! each distinct segment once, and every node bound, entry bound and descent
//! step reads them from that per-query table.

use crate::node::{
    choose_split, enumerate_splits, Node, NodeKind, NodeSynopsis, SplitAttribute, SplitSpec,
};
use hydra_core::persist::{PersistentIndex, SnapshotSink, SnapshotSource};
use hydra_core::{
    parallel, AnswerMode, AnswerSet, AnsweringMethod, BuildOptions, Dataset, Error, ExactIndex,
    IndexFootprint, MethodDescriptor, ModeCapabilities, Query, QueryStats, Result,
};
use hydra_storage::best_first::{self, BestFirstTree, Frontier, Node as TreeNode, Seed};
use hydra_storage::DatasetStore;
use hydra_transforms::eapca::{uniform_segmentation, valid_segmentation, Eapca, EapcaSegment};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The DSTree index.
pub struct DsTree {
    store: Arc<DatasetStore>,
    nodes: Vec<Node>,
    leaf_capacity: usize,
    initial_segments: usize,
    dictionary: SegmentDictionary,
}

/// The distinct segments of every node's segmentation and of every split's
/// tested segment, with each node's segments as indices into them.
#[derive(Debug, Default)]
struct SegmentDictionary {
    /// `(start, end)` of each distinct segment, in order of first use.
    spans: Vec<(usize, usize)>,
    /// The width of each distinct segment, as the bounds weigh it.
    widths: Vec<f64>,
    /// Node `n`'s segments are `keys[starts[n]..starts[n + 1]]`.
    keys: Vec<u32>,
    starts: Vec<usize>,
    /// Per node, the segment its split tests (0 for a leaf).
    routes: Vec<u32>,
}

impl SegmentDictionary {
    fn new(nodes: &[Node]) -> Self {
        let mut dictionary = Self::default();
        let mut index: BTreeMap<(usize, usize), u32> = BTreeMap::new();
        let mut key = |span: (usize, usize)| {
            *index.entry(span).or_insert_with(|| {
                dictionary.spans.push(span);
                dictionary.widths.push((span.1 - span.0) as f64);
                (dictionary.spans.len() - 1) as u32
            })
        };
        let mut keys = Vec::new();
        let mut starts = vec![0];
        let mut routes = Vec::with_capacity(nodes.len());
        for node in nodes {
            let mut start = 0;
            for &end in &node.segmentation {
                keys.push(key((start, end)));
                start = end;
            }
            starts.push(keys.len());
            routes.push(match &node.kind {
                NodeKind::Internal { split, .. } => key(split_span(split)),
                NodeKind::Leaf { .. } => 0,
            });
        }
        dictionary.keys = keys;
        dictionary.starts = starts;
        dictionary.routes = routes;
        dictionary
    }

    /// The dictionary keys of node `id`'s segments, in segment order.
    fn keys(&self, id: usize) -> &[u32] {
        &self.keys[self.starts[id]..self.starts[id + 1]]
    }

    /// The bytes it holds.
    fn bytes(&self) -> usize {
        self.spans.len() * (2 * std::mem::size_of::<usize>() + 8)
            + self.keys.len() * 4
            + self.starts.len() * std::mem::size_of::<usize>()
            + self.routes.len() * 4
    }
}

/// The `(start, end)` of the segment a split tests.
fn split_span(split: &SplitSpec) -> (usize, usize) {
    let start = match split.segment {
        0 => 0,
        segment => split.segmentation[segment - 1],
    };
    (start, split.segmentation[split.segment])
}

/// Arena-level insertion machinery, shared by the serial build (over the
/// tree's own arena) and the parallel build (over per-partition local arenas).
struct TreeBuilder<'a> {
    nodes: &'a mut Vec<Node>,
    dataset: &'a Dataset,
    leaf_capacity: usize,
}

impl TreeBuilder<'_> {
    fn series_values(&self, id: u32) -> Vec<f32> {
        self.dataset.series(id as usize).values().to_vec()
    }

    fn insert(&mut self, id: u32) {
        let series = self.series_values(id);
        let mut current = 0usize;
        loop {
            // Update the synopsis of every node on the path.
            let node_segmentation = self.nodes[current].segmentation.clone();
            let eapca = Eapca::compute(&series, &node_segmentation);
            self.nodes[current].synopsis.absorb(&eapca);
            match &self.nodes[current].kind {
                NodeKind::Internal { split, left, right } => {
                    let (left, right) = (*left, *right);
                    // Routing uses the *children's* segmentation (refined for
                    // vertical splits).
                    let routing = Eapca::compute(&series, &split.segmentation);
                    let value = match split.attribute {
                        SplitAttribute::Mean => routing.segments[split.segment].mean,
                        SplitAttribute::StdDev => routing.segments[split.segment].std_dev,
                    };
                    current = if value <= split.threshold {
                        left
                    } else {
                        right
                    };
                }
                NodeKind::Leaf { .. } => break,
            }
        }
        // Push the entry into the leaf.
        let eapca = Eapca::compute(&series, &self.nodes[current].segmentation);
        if let NodeKind::Leaf { ids, summaries } = &mut self.nodes[current].kind {
            ids.push(id);
            summaries.extend(eapca.segments);
        }
        self.maybe_split(current);
    }

    fn maybe_split(&mut self, leaf: usize) {
        let node = &self.nodes[leaf];
        let NodeKind::Leaf { ids, summaries } = &node.kind else {
            return;
        };
        if ids.len() <= self.leaf_capacity {
            return;
        }
        let dataset = self.dataset;
        let candidates = enumerate_splits(
            |id| dataset.series(id as usize).values().to_vec(),
            ids,
            summaries,
            &node.segmentation,
            &node.synopsis,
        );
        let Some(best) = choose_split(&candidates) else {
            return; // degenerate: identical entries, keep the over-full leaf
        };
        let spec = best.spec.clone();
        let ids = ids.clone();
        let child_segmentation = spec.segmentation.clone();
        let num_child_segments = child_segmentation.len();
        let depth = node.depth;

        let mut children = [0, 1].map(|_| Node {
            segmentation: child_segmentation.clone(),
            synopsis: NodeSynopsis::new(num_child_segments),
            kind: NodeKind::Leaf {
                ids: Vec::new(),
                summaries: Vec::new(),
            },
            depth: depth + 1,
        });
        for id in ids {
            let series = self.series_values(id);
            let child_eapca = Eapca::compute(&series, &child_segmentation);
            let value = match spec.attribute {
                SplitAttribute::Mean => child_eapca.segments[spec.segment].mean,
                SplitAttribute::StdDev => child_eapca.segments[spec.segment].std_dev,
            };
            let side = if value <= spec.threshold { 0 } else { 1 };
            let child = &mut children[side];
            child.synopsis.absorb(&child_eapca);
            if let NodeKind::Leaf { ids, summaries } = &mut child.kind {
                ids.push(id);
                summaries.extend(child_eapca.segments);
            }
        }
        let left_id = self.nodes.len();
        let right_id = left_id + 1;
        self.nodes.extend(children);
        self.nodes[leaf].kind = NodeKind::Internal {
            split: spec,
            left: left_id,
            right: right_id,
        };
        // A split chosen by `choose_split` is always effective, so both
        // children are strictly smaller than the parent; still, they may
        // individually exceed the capacity and need further splitting.
        self.maybe_split(left_id);
        self.maybe_split(right_id);
    }
}

/// Per-chunk routing result of the parallel build: pending synopsis updates
/// for the frozen internal nodes, and the series of each frozen-leaf
/// partition in dataset order.
struct RoutedChunk {
    absorbs: BTreeMap<usize, NodeSynopsis>,
    partitions: BTreeMap<usize, Vec<u32>>,
}

impl DsTree {
    /// Builds the DSTree over an instrumented store.
    ///
    /// With `options.build_threads > 1` the build runs in three phases: a
    /// serial seed pass grows an initial tree, the remaining series are routed
    /// through that frozen top structure in parallel (split decisions are
    /// immutable once made, so routing needs no locks), and each frozen-leaf
    /// partition's subtree is then built on its own worker and grafted back.
    /// Because a series only ever interacts with the other series of its own
    /// partition, and synopsis range-unions are exact under merging, the
    /// resulting tree is **identical to the serial build** for every thread
    /// count.
    pub fn build_on_store(store: Arc<DatasetStore>, options: &BuildOptions) -> Result<Self> {
        if store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        options.validate(store.series_length())?;
        let initial_segments = options.segments.min(store.series_length());
        let segmentation = uniform_segmentation(store.series_length(), initial_segments);
        let root = Node {
            segmentation: segmentation.clone(),
            synopsis: NodeSynopsis::new(initial_segments),
            kind: NodeKind::Leaf {
                ids: Vec::new(),
                summaries: Vec::new(),
            },
            depth: 0,
        };
        let mut tree = Self {
            store: store.clone(),
            nodes: vec![root],
            leaf_capacity: options.leaf_capacity,
            initial_segments,
            dictionary: SegmentDictionary::default(),
        };
        // One sequential pass over the raw data, inserting every series.
        store.scan_all(|_, _| {});
        let threads = parallel::resolve_threads(options.build_threads);
        let n = store.len();
        let dataset = store.dataset();
        // The seed pass must create enough frozen leaves to spread the
        // partition phase over the workers; past that point everything else
        // is routed and built in parallel.
        let seed = if threads <= 1 {
            n
        } else {
            n.min(threads.max(2) * options.leaf_capacity.max(1) * 2)
        };
        {
            let mut builder = TreeBuilder {
                nodes: &mut tree.nodes,
                dataset,
                leaf_capacity: options.leaf_capacity,
            };
            for id in 0..seed as u32 {
                builder.insert(id);
            }
        }
        if seed < n {
            tree.insert_partitioned(dataset, seed, n, threads);
        }
        // Leaves materialize the raw series.
        store.record_index_write((store.len() * store.series_bytes()) as u64);
        Ok(tree.finish())
    }

    /// Routes `start..end` through the frozen tree and builds each partition's
    /// subtree in parallel (see [`DsTree::build_on_store`]).
    fn insert_partitioned(&mut self, dataset: &Dataset, start: usize, end: usize, threads: usize) {
        // Phase 1: parallel routing. Workers read the frozen structure and
        // accumulate thread-local synopsis updates plus per-leaf partitions.
        let ranges = parallel::split_ranges(end - start, threads);
        let routed: Vec<RoutedChunk> = {
            let nodes = &self.nodes;
            parallel::map_indexed(ranges.len(), threads, |ri| {
                let mut chunk = RoutedChunk {
                    absorbs: BTreeMap::new(),
                    partitions: BTreeMap::new(),
                };
                for offset in ranges[ri].clone() {
                    let id = (start + offset) as u32;
                    let series = dataset.series(id as usize).values();
                    let mut current = 0usize;
                    while let NodeKind::Internal { split, left, right } = &nodes[current].kind {
                        let eapca = Eapca::compute(series, &nodes[current].segmentation);
                        chunk
                            .absorbs
                            .entry(current)
                            .or_insert_with(|| NodeSynopsis::new(nodes[current].segmentation.len()))
                            .absorb(&eapca);
                        let routing = Eapca::compute(series, &split.segmentation);
                        let value = match split.attribute {
                            SplitAttribute::Mean => routing.segments[split.segment].mean,
                            SplitAttribute::StdDev => routing.segments[split.segment].std_dev,
                        };
                        current = if value <= split.threshold {
                            *left
                        } else {
                            *right
                        };
                    }
                    chunk.partitions.entry(current).or_default().push(id);
                }
                chunk
            })
        };
        // Merge the routing results in chunk order, which preserves dataset
        // order inside every partition and keeps synopsis unions exact.
        let mut partitions: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for chunk in routed {
            for (node, synopsis) in chunk.absorbs {
                self.nodes[node].synopsis.merge(&synopsis);
            }
            for (leaf, ids) in chunk.partitions {
                partitions.entry(leaf).or_default().extend(ids);
            }
        }
        // Phase 2: each partition's subtree grows on its own worker, rooted at
        // a copy of its frozen leaf.
        let parts: Vec<(usize, Vec<u32>)> = partitions.into_iter().collect();
        let leaf_capacity = self.leaf_capacity;
        let subtrees: Vec<Vec<Node>> = {
            let nodes = &self.nodes;
            parallel::map_indexed(parts.len(), threads, |pi| {
                let (leaf, ids) = &parts[pi];
                let mut local = vec![nodes[*leaf].clone()];
                let mut builder = TreeBuilder {
                    nodes: &mut local,
                    dataset,
                    leaf_capacity,
                };
                for &id in ids {
                    builder.insert(id);
                }
                local
            })
        };
        // Phase 3: graft every subtree back, rewriting local arena indices
        // (local 0 is the frozen leaf's slot; the rest are appended).
        for ((leaf, _), local) in parts.into_iter().zip(subtrees) {
            let offset = self.nodes.len();
            let map_id = |child: usize| if child == 0 { leaf } else { offset + child - 1 };
            let mut local = local.into_iter();
            #[expect(
                clippy::expect_used,
                reason = "grow_partition always emits a root at local index 0"
            )]
            let mut subtree_root = local.next().expect("partition subtree has a root");
            if let NodeKind::Internal { left, right, .. } = &mut subtree_root.kind {
                *left = map_id(*left);
                *right = map_id(*right);
            }
            self.nodes[leaf] = subtree_root;
            for mut node in local {
                if let NodeKind::Internal { left, right, .. } = &mut node.kind {
                    *left = map_id(*left);
                    *right = map_id(*right);
                }
                self.nodes.push(node);
            }
        }
    }

    /// The number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// The number of segments of the initial (root) segmentation.
    pub fn initial_segments(&self) -> usize {
        self.initial_segments
    }

    /// Total number of indexed entries across all leaves.
    pub fn num_entries(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Leaf { ids, .. } => ids.len(),
                _ => 0,
            })
            .sum()
    }

    /// Derives the per-query lookup structure from the finished nodes and
    /// trims every leaf block to what it holds: the last step of a build
    /// and of a snapshot load.
    fn finish(mut self) -> Self {
        for node in &mut self.nodes {
            if let NodeKind::Leaf { ids, summaries } = &mut node.kind {
                ids.shrink_to_fit();
                summaries.shrink_to_fit();
            }
        }
        self.dictionary = SegmentDictionary::new(&self.nodes);
        self
    }

    /// The query's (mean, σ) and width over each segment of node `id`, in
    /// segment order, read from the probe.
    fn query_segments<'a>(
        &'a self,
        id: usize,
        probe: &'a [EapcaSegment],
    ) -> impl Iterator<Item = (EapcaSegment, f64)> + 'a {
        self.dictionary.keys(id).iter().map(|&key| {
            let key = key as usize;
            (probe[key], self.dictionary.widths[key])
        })
    }

    /// Descends from the root to the single most promising leaf for the query
    /// (the ng-approximate search of the DSTree).
    fn descend_to_leaf(&self, probe: &[EapcaSegment], stats: &mut QueryStats) -> usize {
        let mut current = 0usize;
        loop {
            match &self.nodes[current].kind {
                NodeKind::Internal { split, left, right } => {
                    stats.record_internal_visit();
                    let routing = probe[self.dictionary.routes[current] as usize];
                    let value = match split.attribute {
                        SplitAttribute::Mean => routing.mean,
                        SplitAttribute::StdDev => routing.std_dev,
                    };
                    current = if value <= split.threshold {
                        *left
                    } else {
                        *right
                    };
                }
                NodeKind::Leaf { .. } => return current,
            }
        }
    }
}

impl AnsweringMethod for DsTree {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor {
            name: "DSTree",
            representation: "EAPCA",
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

/// The DSTree's probe is the query's mean and σ over every distinct segment
/// of the tree (its `SegmentDictionary`), each computed once, exactly as
/// [`Eapca::compute`] computes that segment: every node's query EAPCA is
/// then a gather from it.
impl BestFirstTree for DsTree {
    type Probe<'q> = Vec<EapcaSegment>;

    const NAME: &'static str = "DSTree";

    fn store(&self) -> &DatasetStore {
        &self.store
    }

    fn probe(&self, query: &[f32]) -> Vec<EapcaSegment> {
        self.dictionary
            .spans
            .iter()
            .map(|&(start, end)| EapcaSegment::compute(&query[start..end]))
            .collect()
    }

    /// The approximate descent's leaf, scanned exactly once.
    fn seed(&self, probe: &Vec<EapcaSegment>, _mode: AnswerMode, stats: &mut QueryStats) -> Seed {
        let leaf = self.descend_to_leaf(probe, stats);
        Seed {
            leaf: Some(leaf),
            skip: Some(leaf),
        }
    }

    fn push_roots(
        &self,
        probe: &Vec<EapcaSegment>,
        frontier: &mut Frontier,
        stats: &mut QueryStats,
    ) {
        frontier.push(0, self.bound(0, probe));
        stats.record_lower_bounds(1);
    }

    fn node(
        &self,
        id: usize,
    ) -> TreeNode<impl ExactSizeIterator<Item = u32> + Clone + '_, impl Iterator<Item = usize> + '_>
    {
        match &self.nodes[id].kind {
            NodeKind::Leaf { ids, .. } => TreeNode::Leaf(ids.iter().copied()),
            NodeKind::Internal { left, right, .. } => {
                TreeNode::Internal([*left, *right].into_iter())
            }
        }
    }

    fn bound(&self, id: usize, probe: &Vec<EapcaSegment>) -> f64 {
        let segments = self.query_segments(id, probe);
        self.nodes[id].synopsis.lower_bound_of(segments)
    }

    /// Each entry's EAPCA against the query's, under the leaf's segmentation:
    /// one pass over the leaf's block, with [`Eapca::lower_bound`]'s
    /// arithmetic in its order.
    fn entry_bounds(&self, id: usize, probe: &Vec<EapcaSegment>) -> Vec<f64> {
        let NodeKind::Leaf { summaries, .. } = &self.nodes[id].kind else {
            return Vec::new();
        };
        let query: Vec<(EapcaSegment, f64)> = self.query_segments(id, probe).collect();
        summaries
            .chunks_exact(query.len())
            .map(|entry| {
                let mut sum = 0.0f64;
                for ((q, width), e) in query.iter().zip(entry) {
                    sum += q.gap_sq(e, *width);
                }
                sum.sqrt()
            })
            .collect()
    }
}

impl DsTree {
    fn write_segmentation(out: &mut dyn SnapshotSink, segmentation: &[usize]) -> Result<()> {
        out.put_usize(segmentation.len())?;
        for &end in segmentation {
            out.put_usize(end)?;
        }
        Ok(())
    }

    fn read_segmentation(
        input: &mut dyn SnapshotSource,
        series_length: usize,
    ) -> Result<Vec<usize>> {
        let count = input.get_count(8)?;
        let mut segmentation = Vec::with_capacity(count);
        for _ in 0..count {
            segmentation.push(input.get_usize()?);
        }
        if !valid_segmentation(&segmentation, series_length) {
            return Err(Error::InvalidSnapshot(format!(
                "segmentation {segmentation:?} is not strictly increasing up to {series_length}"
            )));
        }
        Ok(segmentation)
    }

    fn write_synopsis(out: &mut dyn SnapshotSink, synopsis: &NodeSynopsis) -> Result<()> {
        out.put_usize(synopsis.segments.len())?;
        for s in &synopsis.segments {
            out.put_f32(s.min_mean)?;
            out.put_f32(s.max_mean)?;
            out.put_f32(s.min_std)?;
            out.put_f32(s.max_std)?;
        }
        Ok(())
    }

    fn read_synopsis(input: &mut dyn SnapshotSource) -> Result<NodeSynopsis> {
        let count = input.get_count(16)?;
        let mut segments = Vec::with_capacity(count);
        for _ in 0..count {
            let min_mean = input.get_f32()?;
            let max_mean = input.get_f32()?;
            let min_std = input.get_f32()?;
            let max_std = input.get_f32()?;
            segments.push(crate::node::SegmentSynopsis {
                min_mean,
                max_mean,
                min_std,
                max_std,
            });
        }
        Ok(NodeSynopsis { segments })
    }
}

impl PersistentIndex for DsTree {
    type Context = Arc<DatasetStore>;

    fn snapshot_kind() -> &'static str {
        "dstree/v1"
    }

    fn save_payload(&self, out: &mut dyn SnapshotSink) -> Result<()> {
        out.put_usize(self.store.series_length())?;
        out.put_usize(self.initial_segments)?;
        out.put_usize(self.leaf_capacity)?;
        out.put_usize(self.nodes.len())?;
        for node in &self.nodes {
            out.put_usize(node.depth)?;
            Self::write_segmentation(out, &node.segmentation)?;
            Self::write_synopsis(out, &node.synopsis)?;
            match &node.kind {
                NodeKind::Internal { split, left, right } => {
                    out.put_u8(0)?;
                    Self::write_segmentation(out, &split.segmentation)?;
                    out.put_usize(split.segment)?;
                    out.put_u8(match split.attribute {
                        SplitAttribute::Mean => 0,
                        SplitAttribute::StdDev => 1,
                    })?;
                    out.put_f32(split.threshold)?;
                    out.put_u8(split.is_vertical as u8)?;
                    out.put_usize(*left)?;
                    out.put_usize(*right)?;
                }
                NodeKind::Leaf { ids, summaries } => {
                    out.put_u8(1)?;
                    out.put_usize(ids.len())?;
                    let segments = node.segmentation.len();
                    for (&id, entry) in ids.iter().zip(summaries.chunks_exact(segments)) {
                        out.put_u32(id)?;
                        for seg in entry {
                            out.put_f32(seg.mean)?;
                            out.put_f32(seg.std_dev)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn load_payload(store: Arc<DatasetStore>, input: &mut dyn SnapshotSource) -> Result<Self> {
        let invalid = Error::InvalidSnapshot;
        let series_length = input.get_usize()?;
        if series_length != store.series_length() {
            return Err(invalid(format!(
                "tree summarizes series of length {series_length}, store holds {}",
                store.series_length()
            )));
        }
        let initial_segments = input.get_usize()?;
        if initial_segments == 0 || initial_segments > series_length {
            return Err(invalid(format!(
                "initial segmentation of {initial_segments} segments over length {series_length}"
            )));
        }
        let leaf_capacity = input.get_usize()?;
        if leaf_capacity == 0 {
            return Err(invalid("tree has zero leaf capacity".to_string()));
        }
        let num_nodes = input.get_count(2)?;
        let n = store.len();
        let mut seen = vec![false; n];
        let mut nodes = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            let depth = input.get_usize()?;
            let segmentation = Self::read_segmentation(input, series_length)?;
            let synopsis = Self::read_synopsis(input)?;
            if synopsis.segments.len() != segmentation.len() {
                return Err(invalid(format!(
                    "synopsis covers {} segments, segmentation has {}",
                    synopsis.segments.len(),
                    segmentation.len()
                )));
            }
            let kind = match input.get_u8()? {
                0 => {
                    let split_segmentation = Self::read_segmentation(input, series_length)?;
                    let segment = input.get_usize()?;
                    if segment >= split_segmentation.len() {
                        return Err(invalid(format!(
                            "split tests segment {segment} of a {}-segment segmentation",
                            split_segmentation.len()
                        )));
                    }
                    let attribute = match input.get_u8()? {
                        0 => SplitAttribute::Mean,
                        1 => SplitAttribute::StdDev,
                        tag => return Err(invalid(format!("unknown split attribute tag {tag}"))),
                    };
                    let threshold = input.get_f32()?;
                    let is_vertical = input.get_u8()? != 0;
                    let left = input.get_usize()?;
                    let right = input.get_usize()?;
                    if left >= num_nodes || right >= num_nodes {
                        return Err(invalid(format!(
                            "internal node references children {left},{right} outside the \
                             arena of {num_nodes}"
                        )));
                    }
                    NodeKind::Internal {
                        split: SplitSpec {
                            segmentation: split_segmentation,
                            segment,
                            attribute,
                            threshold,
                            is_vertical,
                        },
                        left,
                        right,
                    }
                }
                1 => {
                    let entry_bytes = 4 + segmentation.len() * 8;
                    let count = input.get_count(entry_bytes)?;
                    let mut ids = Vec::with_capacity(count);
                    let mut summaries = Vec::with_capacity(count * segmentation.len());
                    for _ in 0..count {
                        let id = input.get_u32()?;
                        if id as usize >= n || seen[id as usize] {
                            return Err(invalid(format!(
                                "leaf entry id {id} is out of range or duplicated (store holds {n})"
                            )));
                        }
                        seen[id as usize] = true;
                        ids.push(id);
                        for _ in 0..segmentation.len() {
                            let mean = input.get_f32()?;
                            let std_dev = input.get_f32()?;
                            summaries.push(EapcaSegment { mean, std_dev });
                        }
                    }
                    NodeKind::Leaf { ids, summaries }
                }
                tag => return Err(invalid(format!("unknown node tag {tag}"))),
            };
            nodes.push(Node {
                segmentation,
                synopsis,
                kind,
                depth,
            });
        }
        if nodes.is_empty() {
            return Err(invalid("tree has no nodes".to_string()));
        }
        if !seen.iter().all(|&s| s) {
            return Err(invalid(format!(
                "tree does not cover every series of the store ({n})"
            )));
        }
        Ok(Self {
            store,
            nodes,
            leaf_capacity,
            initial_segments,
            dictionary: SegmentDictionary::default(),
        }
        .finish())
    }
}

impl ExactIndex for DsTree {
    fn build(dataset: &Dataset, options: &BuildOptions) -> Result<Self> {
        Self::build_on_store(Arc::new(DatasetStore::new(dataset.clone())), options)
    }

    fn footprint(&self) -> IndexFootprint {
        let mut leaf_fill_factors = Vec::new();
        let mut leaf_depths = Vec::new();
        let mut leaf_nodes = 0usize;
        let mut disk_bytes = 0usize;
        let mut memory_bytes = 0usize;
        for n in &self.nodes {
            memory_bytes += std::mem::size_of::<Node>()
                + n.segmentation.len() * std::mem::size_of::<usize>()
                + n.synopsis.segments.len() * std::mem::size_of::<crate::node::SegmentSynopsis>();
            if let NodeKind::Leaf { ids, summaries } = &n.kind {
                leaf_nodes += 1;
                leaf_fill_factors.push(ids.len() as f64 / self.leaf_capacity as f64);
                leaf_depths.push(n.depth);
                disk_bytes += ids.len() * self.store.series_bytes();
                // The leaf block: a 4-byte id and a (mean, σ) pair per segment
                // per entry.
                memory_bytes += ids.len() * std::mem::size_of::<u32>()
                    + summaries.len() * std::mem::size_of::<EapcaSegment>();
            }
        }
        memory_bytes += self.dictionary.bytes();
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

    fn build(count: usize, len: usize, leaf: usize) -> (Arc<DatasetStore>, DsTree) {
        let store = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(91, len).dataset(count),
        ));
        let options = BuildOptions::default()
            .with_segments(8.min(len))
            .with_leaf_capacity(leaf);
        let index = DsTree::build_on_store(store.clone(), &options).unwrap();
        (store, index)
    }

    #[test]
    fn descriptor_matches_table1() {
        let (_, idx) = build(40, 32, 16);
        assert_eq!(idx.descriptor().name, "DSTree");
        assert_eq!(idx.descriptor().representation, "EAPCA");
        assert!(idx.descriptor().is_index);
    }

    #[test]
    fn every_series_is_indexed_and_leaves_respect_capacity() {
        let (_, idx) = build(500, 64, 25);
        assert_eq!(idx.num_entries(), 500);
        let fp = idx.footprint();
        assert!(
            fp.total_nodes > 1,
            "a 500-series tree with capacity 25 must split"
        );
        assert!(fp.leaf_fill_factors.iter().all(|&f| f <= 1.0 + 1e-9));
        assert_eq!(fp.disk_bytes, 500 * 64 * 4);
    }

    #[test]
    fn splits_adapt_segmentation_somewhere() {
        // At least one node should have refined its segmentation (vertical
        // split) or used a std-based split on a non-trivial dataset.
        let (_, idx) = build(800, 64, 20);
        let has_adaptive = idx.nodes.iter().any(|n| match &n.kind {
            NodeKind::Internal { split, .. } => {
                split.is_vertical || split.attribute == SplitAttribute::StdDev
            }
            _ => false,
        });
        assert!(
            has_adaptive || idx.num_nodes() < 3,
            "expected at least one vertical or std-based split in a large tree"
        );
    }

    #[test]
    fn exactness_against_brute_force() {
        let (store, idx) = build(400, 64, 20);
        for q in RandomWalkGenerator::new(191, 64).series_batch(12) {
            for k in [1usize, 5] {
                let expected = brute_force_knn(store.dataset(), q.values(), k);
                let got = idx.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert!(got.distances_match(&expected, 1e-4), "k={k}");
            }
        }
    }

    #[test]
    fn exactness_on_deep_like_length() {
        let (store, idx) = build(200, 96, 10);
        let q = RandomWalkGenerator::new(92, 96).series(5);
        let expected = brute_force_knn(store.dataset(), q.values(), 1);
        let got = idx.answer_simple(&Query::nearest_neighbor(q)).unwrap();
        assert!(got.distances_match(&expected, 1e-4));
    }

    #[test]
    fn self_queries_prune_heavily() {
        let (store, idx) = build(1000, 64, 50);
        let q = store.dataset().series(700).to_owned_series();
        let mut stats = QueryStats::default();
        let ans = idx.answer(&Query::nearest_neighbor(q), &mut stats).unwrap();
        assert_eq!(ans.nearest().unwrap().id, 700);
        assert!(
            stats.pruning_ratio(1000) > 0.8,
            "ratio {}",
            stats.pruning_ratio(1000)
        );
        assert!(stats.leaves_visited >= 1);
    }

    #[test]
    fn ng_approximate_visits_one_leaf_and_is_upper_bound_of_exact() {
        let (_, idx) = build(500, 64, 25);
        for q in RandomWalkGenerator::new(291, 64).series_batch(5) {
            let mut s1 = QueryStats::default();
            let approx = idx
                .answer(
                    &Query::nearest_neighbor(q.clone()).with_mode(AnswerMode::NgApproximate),
                    &mut s1,
                )
                .unwrap();
            assert!(s1.leaves_visited <= 1);
            assert_eq!(approx.guarantee(), hydra_core::Guarantee::None);
            let exact = idx.answer_simple(&Query::nearest_neighbor(q)).unwrap();
            if let (Some(a), Some(e)) = (approx.nearest(), exact.nearest()) {
                assert!(a.distance + 1e-9 >= e.distance);
            }
        }
    }

    #[test]
    fn epsilon_zero_is_bit_identical_to_exact_and_epsilon_bounds_hold() {
        let (_, idx) = build(500, 64, 25);
        for q in RandomWalkGenerator::new(391, 64).series_batch(5) {
            let exact_q = Query::knn(q.clone(), 3);
            let mut exact_stats = QueryStats::default();
            let exact = idx.answer(&exact_q, &mut exact_stats).unwrap();

            let zero_q = exact_q
                .clone()
                .with_mode(AnswerMode::EpsilonApproximate { epsilon: 0.0 });
            let mut zero_stats = QueryStats::default();
            let zero = idx.answer(&zero_q, &mut zero_stats).unwrap();
            assert_eq!(zero.answers(), exact.answers(), "ε=0 must be exact");
            assert_eq!(
                exact_stats.raw_series_examined,
                zero_stats.raw_series_examined
            );
            assert_eq!(
                exact_stats.lower_bounds_computed,
                zero_stats.lower_bounds_computed
            );
            assert_eq!(exact_stats.leaves_visited, zero_stats.leaves_visited);

            // ε > 0: never better than exact, never worse than (1+ε)·exact,
            // and never more work.
            let eps = 1.0;
            let relaxed = idx
                .answer_simple(
                    &exact_q
                        .clone()
                        .with_mode(AnswerMode::EpsilonApproximate { epsilon: eps }),
                )
                .unwrap();
            assert_eq!(
                relaxed.guarantee(),
                hydra_core::Guarantee::EpsilonBound { epsilon: eps }
            );
            let (a, e) = (relaxed.nearest().unwrap(), exact.nearest().unwrap());
            assert!(a.distance + 1e-9 >= e.distance);
            assert!(a.distance <= (1.0 + eps) * e.distance + 1e-9);
        }
    }

    #[test]
    fn parallel_build_produces_the_identical_tree() {
        let data = RandomWalkGenerator::new(91, 64).dataset(600);
        let options = BuildOptions::default()
            .with_segments(8)
            .with_leaf_capacity(20);
        let serial = DsTree::build_on_store(
            Arc::new(DatasetStore::new(data.clone())),
            &options.clone().with_build_threads(1),
        )
        .unwrap();
        for threads in [2usize, 4] {
            let parallel = DsTree::build_on_store(
                Arc::new(DatasetStore::new(data.clone())),
                &options.clone().with_build_threads(threads),
            )
            .unwrap();
            assert_eq!(parallel.num_entries(), 600);
            assert_eq!(
                parallel.num_nodes(),
                serial.num_nodes(),
                "threads={threads}"
            );
            // Shape: identical leaf (depth, occupancy) multiset.
            let leaf_shape = |t: &DsTree| {
                let mut v: Vec<(usize, usize)> = t
                    .nodes
                    .iter()
                    .filter_map(|n| match &n.kind {
                        NodeKind::Leaf { ids, .. } => Some((n.depth, ids.len())),
                        _ => None,
                    })
                    .collect();
                v.sort();
                v
            };
            assert_eq!(leaf_shape(&parallel), leaf_shape(&serial));
            // Synopses: the frozen internals got their deferred absorbs, so
            // lower bounds — and therefore search behaviour — are identical.
            for q in RandomWalkGenerator::new(991, 64).series_batch(6) {
                let mut s_stats = QueryStats::default();
                let mut p_stats = QueryStats::default();
                let a = serial
                    .answer(&Query::knn(q.clone(), 3), &mut s_stats)
                    .unwrap();
                let b = parallel.answer(&Query::knn(q, 3), &mut p_stats).unwrap();
                assert!(a.distances_match(&b, 1e-12));
                assert_eq!(s_stats.raw_series_examined, p_stats.raw_series_examined);
                assert_eq!(s_stats.lower_bounds_computed, p_stats.lower_bounds_computed);
            }
        }
    }

    #[test]
    fn identical_series_do_not_hang_the_build() {
        let mut data = Dataset::empty(32);
        let series = vec![1.0f32; 32];
        for _ in 0..50 {
            data.push(&series);
        }
        let idx = DsTree::build(
            &data,
            &BuildOptions::default()
                .with_segments(4)
                .with_leaf_capacity(8),
        )
        .unwrap();
        assert_eq!(idx.num_entries(), 50);
        // All identical: search still returns an exact answer.
        let ans = idx
            .answer_simple(&Query::nearest_neighbor(hydra_core::Series::new(series)))
            .unwrap();
        assert!(ans.nearest().unwrap().distance < 1e-6);
    }

    /// Checks, at every node, the query EAPCA gathered from the probe against
    /// `Eapca::compute` over the node's segmentation, and the table-driven
    /// node bound, descent routing value and entry bounds against the
    /// per-node functions they replace — all bit for bit.
    fn assert_dictionary_matches_per_node(tree: &DsTree, query: &[f32], ctx: &str) {
        let bits = |s: &EapcaSegment| (s.mean.to_bits(), s.std_dev.to_bits());
        let probe = tree.probe(query);
        for (id, node) in tree.nodes.iter().enumerate() {
            let expected = Eapca::compute(query, &node.segmentation);
            let gathered: Vec<_> = tree.query_segments(id, &probe).collect();
            assert_eq!(
                gathered.iter().map(|(s, _)| bits(s)).collect::<Vec<_>>(),
                expected.segments.iter().map(bits).collect::<Vec<_>>(),
                "{ctx}: node {id}"
            );
            assert_eq!(
                tree.bound(id, &probe).to_bits(),
                node.synopsis
                    .lower_bound(&expected, &node.segmentation)
                    .to_bits(),
                "{ctx}: node {id}"
            );
            match &node.kind {
                NodeKind::Internal { split, .. } => {
                    let routing = Eapca::compute(query, &split.segmentation);
                    assert_eq!(
                        bits(&probe[tree.dictionary.routes[id] as usize]),
                        bits(&routing.segments[split.segment]),
                        "{ctx}: node {id}"
                    );
                }
                NodeKind::Leaf { summaries, .. } => {
                    let per_entry: Vec<u64> = summaries
                        .chunks_exact(node.segmentation.len())
                        .map(|entry| {
                            let entry = Eapca {
                                segments: entry.to_vec(),
                            };
                            expected.lower_bound(&entry, &node.segmentation).to_bits()
                        })
                        .collect();
                    let swept: Vec<u64> = tree
                        .entry_bounds(id, &probe)
                        .iter()
                        .map(|b| b.to_bits())
                        .collect();
                    assert_eq!(swept, per_entry, "{ctx}: leaf {id}");
                }
            }
        }
    }

    #[test]
    fn the_segment_dictionary_reproduces_every_per_node_eapca_bit_for_bit() {
        // Two initial segments and small leaves, so vertical splits happen
        // and the nodes' segmentations differ.
        let store = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(91, 64).dataset(800),
        ));
        let options = BuildOptions::default()
            .with_segments(2)
            .with_leaf_capacity(10);
        let idx = DsTree::build_on_store(store.clone(), &options).unwrap();
        assert!(
            idx.nodes
                .iter()
                .any(|n| n.segmentation.len() > idx.initial_segments()),
            "the tree must hold refined segmentations"
        );
        let walk = RandomWalkGenerator::new(77, 64).series(0).into_values();
        let queries = [
            ("walk", walk.clone()),
            ("constant", vec![3.25; 64]),
            ("large", walk.iter().map(|v| v * 1e30).collect()),
            ("subnormal", walk.iter().map(|v| v * 1e-40).collect()),
            ("member", store.dataset().series(17).values().to_vec()),
        ];
        for (name, query) in &queries {
            assert_dictionary_matches_per_node(&idx, query, name);
        }
        // A snapshot round trip derives the same dictionary from the loaded
        // nodes.
        let mut payload: Vec<u8> = Vec::new();
        idx.save_payload(&mut payload).unwrap();
        let mut source = hydra_core::persist::SliceSource::new(&payload);
        let loaded = DsTree::load_payload(store, &mut source).unwrap();
        assert_eq!(loaded.dictionary.spans, idx.dictionary.spans);
        for (name, query) in &queries {
            assert_dictionary_matches_per_node(&loaded, query, &format!("loaded {name}"));
        }
    }

    #[test]
    fn footprint_counts_what_the_leaf_blocks_hold() {
        let (_, idx) = build(500, 64, 25);
        let nodes = idx.nodes.iter().map(|n| {
            std::mem::size_of::<Node>()
                + n.segmentation.len() * std::mem::size_of::<usize>()
                + n.synopsis.segments.len() * std::mem::size_of::<crate::node::SegmentSynopsis>()
        });
        // Per entry: a 4-byte id and one 8-byte (mean, σ) pair per segment.
        let entries = idx.nodes.iter().map(|n| match &n.kind {
            NodeKind::Leaf { ids, .. } => ids.len() * (4 + n.segmentation.len() * 8),
            NodeKind::Internal { .. } => 0,
        });
        assert_eq!(
            idx.footprint().memory_bytes,
            nodes.sum::<usize>() + entries.sum::<usize>() + idx.dictionary.bytes()
        );
    }

    #[test]
    fn rejects_empty_dataset_and_bad_query() {
        assert!(DsTree::build(&Dataset::empty(8), &BuildOptions::default()).is_err());
        let (_, idx) = build(20, 64, 8);
        assert!(idx
            .answer_simple(&Query::nearest_neighbor(hydra_core::Series::new(vec![
                0.0;
                8
            ])))
            .is_err());
    }
}
