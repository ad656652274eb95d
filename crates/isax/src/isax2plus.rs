//! The iSAX2+ index.
//!
//! iSAX2+ builds an iSAX tree whose leaves materialize the raw series they
//! cover (so that a leaf visit is one contiguous disk read), using a
//! balance-aware splitting policy. It answers:
//!
//! * **ng-approximate** queries by descending to the single leaf whose region
//!   covers the query's SAX word and scanning only that leaf;
//! * **exact** queries with a best-first traversal ordered by the MINDIST
//!   lower bound, seeded with the approximate answer as the initial
//!   best-so-far and pruning every subtree whose MINDIST is not below it.
//!
//! The traversal and the leaf scan are the shared
//! `hydra_storage::best_first::search`; this module supplies the MINDIST
//! bound, the seed lookup and the root children it starts from.

use crate::tree::{IsaxTree, NodeKind};
use hydra_core::persist::{PersistentIndex, SnapshotSink, SnapshotSource};
use hydra_core::{
    parallel, AnswerMode, AnswerSet, AnsweringMethod, BuildOptions, Dataset, Error, ExactIndex,
    IndexFootprint, MethodDescriptor, ModeCapabilities, Query, QueryStats, Result,
};
use hydra_storage::best_first::{self, BestFirstTree, Frontier, Node, Seed};
use hydra_storage::DatasetStore;
use hydra_transforms::sax::{NodeBounds, SaxParams, SaxWord};
use hydra_transforms::BoundSweep;
use std::sync::Arc;

/// The iSAX2+ index.
pub struct Isax2Plus {
    store: Arc<DatasetStore>,
    tree: IsaxTree,
}

impl Isax2Plus {
    /// Builds the index over an instrumented store.
    ///
    /// `options.build_threads` workers summarize the collection and build the
    /// root-child subtrees in parallel; the resulting tree is identical for
    /// every thread count (see [`IsaxTree::from_summaries`]).
    pub fn build_on_store(store: Arc<DatasetStore>, options: &BuildOptions) -> Result<Self> {
        if store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        options.validate(store.series_length())?;
        let threads = parallel::resolve_threads(options.build_threads);
        let max_bits = log2_ceil(options.alphabet_size).clamp(1, 16) as u8;
        let params = SaxParams::new(store.series_length(), options.segments, max_bits);
        // One sequential pass over the raw data (charged up front), then
        // summarization and subtree construction spread over the workers.
        store.scan_all(|_, _| {});
        let summaries = summarize(&store, &params, threads);
        let tree = IsaxTree::from_summaries(params, options.leaf_capacity, &summaries, threads);
        // Leaves materialize raw series: account for the bulk-load write.
        store.record_index_write((store.len() * store.series_bytes()) as u64);
        Ok(Self { store, tree })
    }

    /// The underlying iSAX tree.
    pub fn tree(&self) -> &IsaxTree {
        &self.tree
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }
}

fn log2_ceil(x: usize) -> u32 {
    (usize::BITS - x.next_power_of_two().leading_zeros()).saturating_sub(1)
}

/// The full-cardinality SAX words of every series of `store`, flat in id
/// order (`segments` symbols each), summarized on `threads` workers.
pub(crate) fn summarize(store: &DatasetStore, params: &SaxParams, threads: usize) -> Vec<u16> {
    let dataset = store.dataset();
    parallel::map_chunks(store.len(), threads, |range| {
        range
            .flat_map(|id| params.sax_word(dataset.series(id).values()).symbols)
            .collect()
    })
}

impl AnsweringMethod for Isax2Plus {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor {
            name: "iSAX2+",
            representation: "iSAX",
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

/// iSAX2+'s per-query state: the query's PAA and SAX word, the MINDIST
/// table its node words are bounded from, and the sweep table its leaf
/// blocks are bounded from.
pub struct Probe<'q> {
    paa: Vec<f32>,
    sax: SaxWord,
    nodes: NodeBounds,
    entries: BoundSweep<'q>,
}

/// iSAX2+ bounds nodes with MINDIST between the query's PAA and the node's
/// iSAX word, and leaf entries with the same MINDIST on their full SAX word,
/// each from one per-query table; the query's own SAX word picks the seed
/// leaf.
impl BestFirstTree for Isax2Plus {
    type Probe<'q> = Probe<'q>;

    const NAME: &'static str = "iSAX2+";

    fn store(&self) -> &DatasetStore {
        &self.store
    }

    fn probe<'q>(&'q self, query: &'q [f32]) -> Probe<'q> {
        let params = self.tree.params();
        let paa = params.paa().transform(query);
        Probe {
            sax: params.sax_word_from_paa(&paa),
            nodes: self.tree.node_bounds(&paa),
            entries: params.sweep(&paa, self.store.len()),
            paa,
        }
    }

    /// The leaf covering the query's SAX word, scanned exactly once.
    /// ng-approximate mode, where that leaf is the whole answer, falls back
    /// to the MINDIST-nearest leaf when the query's region was never
    /// populated; the other modes keep the plain lookup (the traversal finds
    /// every leaf anyway). Skipping the seed when the traversal pops it is
    /// safe: every entry the seed scan abandoned or bounded out met a
    /// threshold at least as loose as any later one.
    fn seed(&self, probe: &Probe<'_>, mode: AnswerMode, stats: &mut QueryStats) -> Seed {
        let leaf = if mode == AnswerMode::NgApproximate {
            self.tree
                .locate_nearest_leaf(&probe.paa, &probe.sax.symbols, stats)
        } else {
            self.tree.locate_leaf(&probe.sax.symbols, stats)
        };
        Seed { leaf, skip: leaf }
    }

    fn push_roots(&self, probe: &Probe<'_>, frontier: &mut Frontier, stats: &mut QueryStats) {
        for (root_child, bound) in self.tree.root_bounds(&probe.nodes) {
            frontier.push(root_child, bound);
            stats.record_lower_bounds(1);
        }
    }

    fn node(
        &self,
        id: usize,
    ) -> Node<impl ExactSizeIterator<Item = u32> + Clone + '_, impl Iterator<Item = usize> + '_>
    {
        match &self.tree.node(id).kind {
            NodeKind::Leaf { ids, .. } => Node::Leaf(ids.iter().copied()),
            NodeKind::Internal { left, right, .. } => Node::Internal([*left, *right].into_iter()),
        }
    }

    fn bound(&self, id: usize, probe: &Probe<'_>) -> f64 {
        probe.nodes.mindist(&self.tree.node(id).word)
    }

    /// One sweep over the leaf's block of SAX words.
    fn entry_bounds(&self, id: usize, probe: &Probe<'_>) -> Vec<f64> {
        let mut bounds = Vec::new();
        if let NodeKind::Leaf { words, .. } = &self.tree.node(id).kind {
            probe.entries.sweep_rows(words, &mut bounds);
        }
        bounds
    }
}

impl ExactIndex for Isax2Plus {
    fn build(dataset: &Dataset, options: &BuildOptions) -> Result<Self> {
        Self::build_on_store(Arc::new(DatasetStore::new(dataset.clone())), options)
    }

    fn footprint(&self) -> IndexFootprint {
        self.tree.footprint(self.store.series_bytes())
    }

    fn num_series(&self) -> usize {
        self.store.len()
    }

    fn series_length(&self) -> usize {
        self.store.series_length()
    }
}

/// Validates that a reloaded tree actually describes the series of `store`:
/// matching series length, every leaf entry in range, and exactly one entry
/// per series. Shared by the iSAX2+ and ADS+ snapshot loaders.
pub(crate) fn validate_tree_against_store(tree: &IsaxTree, store: &DatasetStore) -> Result<()> {
    if tree.params().series_length() != store.series_length() {
        return Err(Error::InvalidSnapshot(format!(
            "tree summarizes series of length {}, store holds {}",
            tree.params().series_length(),
            store.series_length()
        )));
    }
    let n = store.len();
    let mut seen = vec![false; n];
    for (ids, _) in tree.leaf_blocks() {
        for &id in ids {
            let id = id as usize;
            if id >= n || seen[id] {
                return Err(Error::InvalidSnapshot(format!(
                    "leaf entry id {id} is out of range or duplicated (store holds {n})"
                )));
            }
            seen[id] = true;
        }
    }
    if tree.num_entries() != n {
        return Err(Error::InvalidSnapshot(format!(
            "tree indexes {} series, store holds {n}",
            tree.num_entries()
        )));
    }
    Ok(())
}

impl PersistentIndex for Isax2Plus {
    type Context = Arc<DatasetStore>;

    fn snapshot_kind() -> &'static str {
        "isax2plus/v1"
    }

    fn save_payload(&self, out: &mut dyn SnapshotSink) -> Result<()> {
        self.tree.write_snapshot(out)
    }

    fn load_payload(store: Arc<DatasetStore>, input: &mut dyn SnapshotSource) -> Result<Self> {
        let tree = IsaxTree::read_snapshot(input)?;
        validate_tree_against_store(&tree, &store)?;
        Ok(Self { store, tree })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_data::RandomWalkGenerator;
    use hydra_scan::ucr::brute_force_knn;

    fn build(count: usize, len: usize, leaf: usize) -> (Arc<DatasetStore>, Isax2Plus) {
        let store = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(51, len).dataset(count),
        ));
        let options = BuildOptions::default()
            .with_segments(16.min(len))
            .with_leaf_capacity(leaf)
            .with_alphabet_size(256);
        let index = Isax2Plus::build_on_store(store.clone(), &options).unwrap();
        (store, index)
    }

    #[test]
    fn descriptor_matches_table1() {
        let (_, idx) = build(50, 64, 16);
        let d = idx.descriptor();
        assert_eq!(d.name, "iSAX2+");
        assert_eq!(d.representation, "iSAX");
        assert!(d.is_index);
        assert_eq!(d.modes, ModeCapabilities::all());
    }

    #[test]
    fn indexes_every_series() {
        let (_, idx) = build(300, 64, 20);
        assert_eq!(idx.tree().num_entries(), 300);
        assert_eq!(idx.num_series(), 300);
        assert_eq!(idx.series_length(), 64);
    }

    #[test]
    fn exactness_against_brute_force() {
        let (store, idx) = build(500, 64, 25);
        for q in RandomWalkGenerator::new(151, 64).series_batch(15) {
            for k in [1usize, 5] {
                let expected = brute_force_knn(store.dataset(), q.values(), k);
                let got = idx.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert!(got.distances_match(&expected, 1e-4), "k={k}");
            }
        }
    }

    #[test]
    fn exactness_on_non_power_of_two_length() {
        let (store, idx) = build(200, 96, 10);
        let q = RandomWalkGenerator::new(61, 96).series(3);
        let expected = brute_force_knn(store.dataset(), q.values(), 1);
        let got = idx.answer_simple(&Query::nearest_neighbor(q)).unwrap();
        assert!(got.distances_match(&expected, 1e-4));
    }

    #[test]
    fn self_queries_prune_heavily() {
        let (store, idx) = build(1000, 64, 50);
        let q = store.dataset().series(321).to_owned_series();
        let mut stats = QueryStats::default();
        let ans = idx.answer(&Query::nearest_neighbor(q), &mut stats).unwrap();
        assert_eq!(ans.nearest().unwrap().id, 321);
        assert!(
            stats.pruning_ratio(1000) > 0.8,
            "pruning ratio {}",
            stats.pruning_ratio(1000)
        );
        assert!(stats.leaves_visited >= 1);
        assert!(stats.lower_bounds_computed > 0);
    }

    #[test]
    fn ng_approximate_search_visits_one_leaf() {
        let (store, idx) = build(800, 64, 40);
        let q = store.dataset().series(100).to_owned_series();
        let mut stats = QueryStats::default();
        let ans = idx
            .answer(
                &Query::nearest_neighbor(q).with_mode(AnswerMode::NgApproximate),
                &mut stats,
            )
            .unwrap();
        assert_eq!(stats.leaves_visited, 1);
        assert_eq!(ans.guarantee(), hydra_core::Guarantee::None);
        // The approximate answer for a dataset member found in its own leaf is
        // exact (distance 0).
        assert_eq!(ans.nearest().unwrap().id, 100);
        // And it never exceeds the dataset size worth of work.
        assert!(stats.raw_series_examined <= 41);
    }

    #[test]
    fn approximate_answers_are_never_better_than_exact() {
        let (_, idx) = build(400, 64, 20);
        for q in RandomWalkGenerator::new(251, 64).series_batch(5) {
            let exact = idx
                .answer_simple(&Query::nearest_neighbor(q.clone()))
                .unwrap();
            for mode in [
                AnswerMode::NgApproximate,
                AnswerMode::EpsilonApproximate { epsilon: 0.5 },
                AnswerMode::DeltaEpsilon {
                    delta: 0.9,
                    epsilon: 0.5,
                },
            ] {
                let approx = idx
                    .answer_simple(&Query::nearest_neighbor(q.clone()).with_mode(mode))
                    .unwrap();
                if let (Some(a), Some(e)) = (approx.nearest(), exact.nearest()) {
                    assert!(a.distance + 1e-9 >= e.distance, "{mode}");
                }
            }
        }
    }

    #[test]
    fn epsilon_zero_matches_exact_bit_for_bit() {
        let (_, idx) = build(400, 64, 20);
        for q in RandomWalkGenerator::new(253, 64).series_batch(4) {
            let exact_q = Query::knn(q, 5);
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
            assert_eq!(s1.leaves_visited, s2.leaves_visited);
        }
    }

    #[test]
    fn empty_leaves_cost_no_visit_and_no_page() {
        // More duplicates than a leaf holds: no segment separates them, so
        // every split sends all of them to one child and leaves the sibling
        // empty.
        let len = 32;
        let dup = RandomWalkGenerator::new(5, len).series(0);
        let mut data = Dataset::empty(len);
        for _ in 0..6 {
            data.push(dup.values());
        }
        for s in RandomWalkGenerator::new(6, len).series_batch(4) {
            data.push(s.values());
        }
        let options = BuildOptions::default()
            .with_segments(4)
            .with_leaf_capacity(4)
            .with_alphabet_size(4);
        let idx = Isax2Plus::build(&data, &options).unwrap();
        let occupied = idx
            .tree()
            .leaves()
            .filter(|&leaf| {
                matches!(&idx.tree().node(leaf).kind, NodeKind::Leaf { ids, .. } if !ids.is_empty())
            })
            .count() as u64;
        assert!(
            idx.tree().leaves().count() as u64 > occupied,
            "the duplicates must leave an empty sibling behind"
        );
        // k beyond the dataset size: the heap never fills, nothing is pruned,
        // and the traversal reaches every leaf — the empty ones included.
        let mut stats = QueryStats::default();
        let ans = idx.answer(&Query::knn(dup, 11), &mut stats).unwrap();
        assert_eq!(ans.len(), 10);
        // One visit and one random page per occupied leaf (the seed leaf is
        // scanned once); the empty leaves read zero bytes and cost nothing.
        assert_eq!(stats.leaves_visited, occupied);
        assert_eq!(stats.random_page_accesses, occupied);
    }

    #[test]
    fn footprint_reflects_leaf_materialization() {
        let (_, idx) = build(600, 64, 30);
        let fp = idx.footprint();
        assert!(fp.total_nodes >= fp.leaf_nodes);
        assert_eq!(
            fp.disk_bytes,
            600 * 64 * 4,
            "leaves materialize all raw series"
        );
        assert!(fp.mean_fill_factor() > 0.0);
        // In memory: each node with its word (2-byte symbol and 1-byte bit
        // count per segment), each leaf entry as its block holds it (a 4-byte
        // id and 16 2-byte symbols), and each root child's 1-bit word and id.
        let roots = idx.tree().root_children().count();
        assert_eq!(
            fp.memory_bytes,
            fp.total_nodes * (std::mem::size_of::<crate::tree::Node>() + 16 * 3)
                + 600 * (4 + 16 * 2)
                + roots * (8 + 16 * 2)
        );
    }

    #[test]
    fn coarse_roots_force_splits_and_internal_nodes() {
        // With only 4 segments the root fanout is 16, so 600 series with leaf
        // capacity 30 must overflow some root children and create splits.
        let store = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(51, 64).dataset(600),
        ));
        let options = BuildOptions::default()
            .with_segments(4)
            .with_leaf_capacity(30)
            .with_alphabet_size(256);
        let idx = Isax2Plus::build_on_store(store, &options).unwrap();
        let fp = idx.footprint();
        assert!(
            fp.total_nodes > fp.leaf_nodes,
            "expected internal nodes from splits"
        );
        assert!(fp.max_leaf_depth() >= 2);
    }

    #[test]
    fn smaller_leaves_mean_more_nodes() {
        let (_, small) = build(500, 64, 10);
        let (_, large) = build(500, 64, 100);
        assert!(small.footprint().total_nodes > large.footprint().total_nodes);
    }

    #[test]
    fn rejects_empty_dataset_and_bad_query() {
        assert!(Isax2Plus::build(&Dataset::empty(8), &BuildOptions::default()).is_err());
        let (_, idx) = build(20, 64, 8);
        assert!(idx
            .answer_simple(&Query::nearest_neighbor(hydra_core::Series::new(vec![
                0.0;
                8
            ])))
            .is_err());
    }
}
