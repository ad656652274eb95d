//! # hydra-sfa
//!
//! The SFA trie: a prefix tree over Symbolic Fourier Approximation words.
//!
//! Every series is summarized by an SFA word (its first `l` DFT values, each
//! discretized with per-dimension breakpoints learned from a sample — see
//! `hydra_transforms::sfa`). The trie groups series by word prefix: the root's
//! children are keyed by the first symbol, their children by the second, and
//! so on. When a leaf exceeds its capacity and has not yet used all `l`
//! symbols, it splits by the next symbol position, increasing the resolution
//! of the words stored below it by one coefficient — the "vertical" splitting
//! the paper contrasts with SAX's horizontal splits.
//!
//! Exact search is a best-first traversal ordered by the prefix lower bound;
//! when a leaf is reached, all of its raw series are read (one contiguous leaf
//! read) and refined with early-abandoning Euclidean distance. The traversal
//! and the leaf scan are the shared `hydra_storage::best_first::search`;
//! this crate supplies the prefix bound
//! and the word descent that seeds it.

// lib-unwrap (README "Contract lints"): library code returns typed errors.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use hydra_core::persist::{PersistentIndex, SnapshotSink, SnapshotSource};
use hydra_core::{
    parallel, AnswerMode, AnswerSet, AnsweringMethod, BuildOptions, Dataset, Error, ExactIndex,
    IndexFootprint, MethodDescriptor, ModeCapabilities, Query, QueryStats, Result,
};
use hydra_storage::best_first::{self, BestFirstTree, Frontier, Node, Seed};
use hydra_storage::DatasetStore;
use hydra_transforms::{BinningMethod, SfaParams, SfaQuantizer, SfaWord};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One entry stored in a trie leaf.
#[derive(Clone, Debug)]
struct LeafEntry {
    id: u32,
    word: SfaWord,
}

/// A node of the SFA trie.
#[derive(Clone, Debug)]
enum TrieNode {
    /// Internal node: children keyed by the symbol at position `depth`.
    ///
    /// A `BTreeMap` so that iterating the children (the best-first search
    /// pushes one frontier entry per child) follows a deterministic symbol
    /// order — a fresh build and a reloaded snapshot then traverse
    /// identically even when prefix lower bounds tie.
    Internal { children: BTreeMap<u8, usize> },
    /// Leaf node holding entries sharing the prefix leading to it.
    Leaf { entries: Vec<LeafEntry> },
}

/// The SFA trie index.
pub struct SfaTrie {
    store: Arc<DatasetStore>,
    quantizer: SfaQuantizer,
    nodes: Vec<TrieNode>,
    /// Prefix (and therefore depth) of each node; the root has an empty prefix.
    prefixes: Vec<Vec<u8>>,
    leaf_capacity: usize,
}

impl SfaTrie {
    /// Builds the SFA trie over an instrumented store.
    ///
    /// `options.segments` is the SFA word length; `options.alphabet_size` the
    /// per-dimension alphabet (the paper's tuned value is 8);
    /// `options.train_samples` controls the breakpoint-learning sample.
    pub fn build_on_store(store: Arc<DatasetStore>, options: &BuildOptions) -> Result<Self> {
        Self::build_with_binning(store, options, BinningMethod::EquiDepth)
    }

    /// Builds the trie with an explicit binning method (used by the ablation
    /// experiments; the paper found equi-depth superior).
    pub fn build_with_binning(
        store: Arc<DatasetStore>,
        options: &BuildOptions,
        binning: BinningMethod,
    ) -> Result<Self> {
        if store.is_empty() {
            return Err(Error::EmptyDataset);
        }
        options.validate(store.series_length())?;
        let alphabet = options.alphabet_size.clamp(2, 256);
        let params = SfaParams {
            series_length: store.series_length(),
            word_length: options.segments,
            alphabet_size: alphabet,
            binning,
        };
        let sample_size = options.train_samples.clamp(1, store.len());
        let dataset = store.dataset();
        let quantizer =
            SfaQuantizer::train(params, (0..sample_size).map(|i| dataset.series(i).values()));
        let threads = parallel::resolve_threads(options.build_threads);
        // One sequential pass over the raw data (charged up front), then
        // summarization spread over the workers in dataset order.
        store.scan_all(|_, _| {});
        let entries: Vec<LeafEntry> = parallel::map_chunks(store.len(), threads, |range| {
            range
                .map(|id| LeafEntry {
                    id: id as u32,
                    word: quantizer.word(dataset.series(id).values()),
                })
                .collect()
        });
        let mut trie = Self {
            store: store.clone(),
            quantizer,
            nodes: Vec::new(),
            prefixes: Vec::new(),
            leaf_capacity: options.leaf_capacity,
        };
        trie.build_from_entries(entries, threads);
        store.record_index_write((store.len() * store.series_bytes()) as u64);
        Ok(trie)
    }

    /// The trained quantizer.
    pub fn quantizer(&self) -> &SfaQuantizer {
        &self.quantizer
    }

    /// The underlying store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// Total number of entries stored.
    pub fn num_entries(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                TrieNode::Leaf { entries } => entries.len(),
                _ => 0,
            })
            .sum()
    }

    /// The number of trie nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Builds the trie over `entries` with up to `threads` workers.
    ///
    /// A node at prefix `p` is internal exactly when more than `leaf_capacity`
    /// entries share `p` and `p` is shorter than the word, so the trie shape
    /// is fully determined by the entry multiset: the recursive bulk build
    /// below produces the same trie as one-by-one insertion, and the
    /// first-symbol subtries are independent — each can be built on its own
    /// worker and grafted under the root. The result is **identical for every
    /// thread count**.
    fn build_from_entries(&mut self, entries: Vec<LeafEntry>, threads: usize) {
        let word_length = self.quantizer.params().word_length;
        let splittable = entries.len() > self.leaf_capacity && word_length > 0;
        if !splittable || threads <= 1 {
            build_subtrie(
                &mut self.nodes,
                &mut self.prefixes,
                Vec::new(),
                entries,
                self.leaf_capacity,
                word_length,
            );
            return;
        }
        // Partition by the first symbol (deterministic order via BTreeMap) and
        // build each subtrie on its own worker, consuming its bucket.
        let mut grouped: BTreeMap<u8, Vec<LeafEntry>> = BTreeMap::new();
        for e in entries {
            grouped.entry(e.word.symbols[0]).or_default().push(e);
        }
        let (symbols, payloads): (Vec<u8>, Vec<Vec<LeafEntry>>) = grouped.into_iter().unzip();
        let leaf_capacity = self.leaf_capacity;
        let subtries: Vec<(Vec<TrieNode>, Vec<Vec<u8>>)> =
            parallel::map_items(payloads, threads, |i, bucket| {
                let mut nodes = Vec::new();
                let mut prefixes = Vec::new();
                build_subtrie(
                    &mut nodes,
                    &mut prefixes,
                    vec![symbols[i]],
                    bucket,
                    leaf_capacity,
                    word_length,
                );
                (nodes, prefixes)
            });
        // Graft the subtrie arenas under an internal root, offsetting ids.
        self.nodes.push(TrieNode::Internal {
            children: BTreeMap::new(),
        });
        self.prefixes.push(Vec::new());
        let mut children = BTreeMap::new();
        for (&symbol, (nodes, prefixes)) in symbols.iter().zip(subtries) {
            let offset = self.nodes.len();
            children.insert(symbol, offset);
            for mut node in nodes {
                if let TrieNode::Internal { children } = &mut node {
                    for child in children.values_mut() {
                        *child += offset;
                    }
                }
                self.nodes.push(node);
            }
            self.prefixes.extend(prefixes);
        }
        self.nodes[0] = TrieNode::Internal { children };
    }

    /// Descends to the leaf matching the query's word as far as possible
    /// (ng-approximate search).
    fn descend(&self, word: &SfaWord, stats: &mut QueryStats) -> usize {
        let mut current = 0usize;
        loop {
            let depth = self.prefixes[current].len();
            match &self.nodes[current] {
                TrieNode::Internal { children } => {
                    stats.record_internal_visit();
                    let symbol = word.symbols[depth];
                    match children.get(&symbol) {
                        Some(&child) => current = child,
                        None => {
                            // No child for the query's symbol: fall back to any
                            // child (the closest by symbol value).
                            let Some((_, &child)) = children
                                .iter()
                                .min_by_key(|(s, _)| (**s as i32 - symbol as i32).abs())
                            else {
                                return current;
                            };
                            current = child;
                        }
                    }
                }
                TrieNode::Leaf { .. } => return current,
            }
        }
    }
}

/// Appends the subtrie covering `entries` (which all share `prefix`) to the
/// arena and returns its root node id. Recursion depth is bounded by the SFA
/// word length.
fn build_subtrie(
    nodes: &mut Vec<TrieNode>,
    prefixes: &mut Vec<Vec<u8>>,
    prefix: Vec<u8>,
    entries: Vec<LeafEntry>,
    leaf_capacity: usize,
    word_length: usize,
) -> usize {
    let id = nodes.len();
    let depth = prefix.len();
    if entries.len() <= leaf_capacity || depth >= word_length {
        nodes.push(TrieNode::Leaf { entries });
        prefixes.push(prefix);
        return id;
    }
    nodes.push(TrieNode::Internal {
        children: BTreeMap::new(),
    });
    prefixes.push(prefix.clone());
    let mut buckets: BTreeMap<u8, Vec<LeafEntry>> = BTreeMap::new();
    for e in entries {
        buckets.entry(e.word.symbols[depth]).or_default().push(e);
    }
    let mut children = BTreeMap::new();
    for (symbol, bucket) in buckets {
        let mut child_prefix = prefix.clone();
        child_prefix.push(symbol);
        let child = build_subtrie(
            nodes,
            prefixes,
            child_prefix,
            bucket,
            leaf_capacity,
            word_length,
        );
        children.insert(symbol, child);
    }
    nodes[id] = TrieNode::Internal { children };
    id
}

impl AnsweringMethod for SfaTrie {
    fn descriptor(&self) -> MethodDescriptor {
        MethodDescriptor {
            name: "SFA trie",
            representation: "SFA",
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

/// The trie bounds a node with the prefix lower bound between the query's
/// DFT and the node's word prefix; the query's own word picks the seed leaf.
impl BestFirstTree for SfaTrie {
    type Probe<'q> = (Vec<f32>, SfaWord);

    const NAME: &'static str = "SFA trie";

    fn store(&self) -> &DatasetStore {
        &self.store
    }

    fn probe(&self, query: &[f32]) -> (Vec<f32>, SfaWord) {
        let dft = self.quantizer.dft(query);
        let word = self.quantizer.word_from_dft(&dft);
        (dft, word)
    }

    /// The approximate descent's leaf, scanned exactly once.
    fn seed(&self, (_, word): &Self::Probe<'_>, _mode: AnswerMode, stats: &mut QueryStats) -> Seed {
        let leaf = self.descend(word, stats);
        Seed {
            leaf: Some(leaf),
            skip: Some(leaf),
        }
    }

    /// The root's empty prefix bounds nothing: it starts at 0 for free.
    fn push_roots(&self, _: &Self::Probe<'_>, frontier: &mut Frontier, _: &mut QueryStats) {
        frontier.push(0, 0.0);
    }

    fn node(
        &self,
        id: usize,
    ) -> Node<impl ExactSizeIterator<Item = u32> + Clone + '_, impl Iterator<Item = usize> + '_>
    {
        match &self.nodes[id] {
            TrieNode::Leaf { entries } => Node::Leaf(entries.iter().map(|e| e.id)),
            TrieNode::Internal { children } => Node::Internal(children.values().copied()),
        }
    }

    fn bound(&self, id: usize, (dft, _): &Self::Probe<'_>) -> f64 {
        let prefix = &self.prefixes[id];
        self.quantizer.mindist_prefix(dft, prefix, prefix.len())
    }

    /// The full-word bound between the query's DFT and each entry's word.
    fn entry_bounds(&self, id: usize, (dft, _): &Self::Probe<'_>) -> Vec<f64> {
        match &self.nodes[id] {
            TrieNode::Leaf { entries } => entries
                .iter()
                .map(|e| self.quantizer.mindist(dft, &e.word))
                .collect(),
            TrieNode::Internal { .. } => Vec::new(),
        }
    }
}

impl ExactIndex for SfaTrie {
    fn build(dataset: &Dataset, options: &BuildOptions) -> Result<Self> {
        Self::build_on_store(Arc::new(DatasetStore::new(dataset.clone())), options)
    }

    fn footprint(&self) -> IndexFootprint {
        let mut leaf_fill_factors = Vec::new();
        let mut leaf_depths = Vec::new();
        let mut leaf_nodes = 0usize;
        let mut disk_bytes = 0usize;
        let word_length = self.quantizer.params().word_length;
        for (i, n) in self.nodes.iter().enumerate() {
            if let TrieNode::Leaf { entries } = n {
                leaf_nodes += 1;
                leaf_fill_factors.push(entries.len() as f64 / self.leaf_capacity as f64);
                leaf_depths.push(self.prefixes[i].len());
                disk_bytes += entries.len() * self.store.series_bytes();
            }
        }
        let memory_bytes = self.nodes.len() * std::mem::size_of::<TrieNode>()
            + self.num_entries() * (std::mem::size_of::<LeafEntry>() + word_length);
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

impl PersistentIndex for SfaTrie {
    type Context = Arc<DatasetStore>;

    fn snapshot_kind() -> &'static str {
        "sfatrie/v1"
    }

    fn save_payload(&self, out: &mut dyn SnapshotSink) -> Result<()> {
        let params = *self.quantizer.params();
        out.put_usize(params.series_length)?;
        out.put_usize(params.word_length)?;
        out.put_usize(params.alphabet_size)?;
        out.put_u8(match params.binning {
            BinningMethod::EquiDepth => 0,
            BinningMethod::EquiWidth => 1,
        })?;
        for d in 0..params.word_length {
            for &bp in self.quantizer.breakpoints(d) {
                out.put_f64(bp)?;
            }
        }
        out.put_usize(self.leaf_capacity)?;
        out.put_usize(self.nodes.len())?;
        for (node, prefix) in self.nodes.iter().zip(&self.prefixes) {
            out.put_usize(prefix.len())?;
            out.write_bytes(prefix)?;
            match node {
                TrieNode::Internal { children } => {
                    out.put_u8(0)?;
                    out.put_usize(children.len())?;
                    for (&symbol, &child) in children {
                        out.put_u8(symbol)?;
                        out.put_usize(child)?;
                    }
                }
                TrieNode::Leaf { entries } => {
                    out.put_u8(1)?;
                    out.put_usize(entries.len())?;
                    for e in entries {
                        out.put_u32(e.id)?;
                        out.write_bytes(&e.word.symbols)?;
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
                "trie summarizes series of length {series_length}, store holds {}",
                store.series_length()
            )));
        }
        let word_length = input.get_usize()?;
        let alphabet_size = input.get_usize()?;
        if word_length == 0 || !(2..=256).contains(&alphabet_size) {
            return Err(invalid(format!(
                "degenerate SFA parameters: word length {word_length}, alphabet {alphabet_size}"
            )));
        }
        let binning = match input.get_u8()? {
            0 => BinningMethod::EquiDepth,
            1 => BinningMethod::EquiWidth,
            tag => return Err(invalid(format!("unknown binning tag {tag}"))),
        };
        let params = SfaParams {
            series_length,
            word_length,
            alphabet_size,
            binning,
        };
        let mut breakpoints = Vec::with_capacity(word_length);
        for _ in 0..word_length {
            let mut bp = Vec::with_capacity(alphabet_size - 1);
            for _ in 0..alphabet_size - 1 {
                bp.push(input.get_f64()?);
            }
            breakpoints.push(bp);
        }
        let quantizer = SfaQuantizer::from_parts(params, breakpoints);
        let leaf_capacity = input.get_usize()?;
        if leaf_capacity == 0 {
            return Err(invalid("trie has zero leaf capacity".to_string()));
        }
        let num_nodes = input.get_count(2)?;
        let mut nodes = Vec::with_capacity(num_nodes);
        let mut prefixes = Vec::with_capacity(num_nodes);
        let n = store.len();
        let mut seen = vec![false; n];
        for _ in 0..num_nodes {
            let prefix_len = input.get_count(1)?;
            if prefix_len > word_length {
                return Err(invalid(format!(
                    "node prefix of length {prefix_len} exceeds the word length {word_length}"
                )));
            }
            let mut prefix = vec![0u8; prefix_len];
            input.read_bytes(&mut prefix)?;
            let node = match input.get_u8()? {
                0 => {
                    let count = input.get_count(9)?;
                    let mut children = BTreeMap::new();
                    for _ in 0..count {
                        let symbol = input.get_u8()?;
                        let child = input.get_usize()?;
                        if child >= num_nodes {
                            return Err(invalid(format!(
                                "child {child} outside the arena of {num_nodes}"
                            )));
                        }
                        children.insert(symbol, child);
                    }
                    TrieNode::Internal { children }
                }
                1 => {
                    let count = input.get_count(4 + word_length)?;
                    let mut entries = Vec::with_capacity(count);
                    for _ in 0..count {
                        let id = input.get_u32()?;
                        if id as usize >= n || seen[id as usize] {
                            return Err(invalid(format!(
                                "leaf entry id {id} is out of range or duplicated (store holds {n})"
                            )));
                        }
                        seen[id as usize] = true;
                        let mut symbols = vec![0u8; word_length];
                        input.read_bytes(&mut symbols)?;
                        entries.push(LeafEntry {
                            id,
                            word: SfaWord { symbols },
                        });
                    }
                    TrieNode::Leaf { entries }
                }
                tag => return Err(invalid(format!("unknown node tag {tag}"))),
            };
            nodes.push(node);
            prefixes.push(prefix);
        }
        if nodes.is_empty() {
            return Err(invalid("trie has no nodes".to_string()));
        }
        if !seen.iter().all(|&s| s) {
            return Err(invalid(format!(
                "trie does not cover every series of the store ({n})"
            )));
        }
        Ok(Self {
            store,
            quantizer,
            nodes,
            prefixes,
            leaf_capacity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_data::RandomWalkGenerator;
    use hydra_scan::ucr::brute_force_knn;

    fn build(count: usize, len: usize, leaf: usize) -> (Arc<DatasetStore>, SfaTrie) {
        let store = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(13, len).dataset(count),
        ));
        let options = BuildOptions::default()
            .with_segments(16.min(len))
            .with_leaf_capacity(leaf)
            .with_alphabet_size(8)
            .with_train_samples(200);
        let index = SfaTrie::build_on_store(store.clone(), &options).unwrap();
        (store, index)
    }

    #[test]
    fn descriptor_matches_table1() {
        let (_, idx) = build(30, 32, 10);
        assert_eq!(idx.descriptor().name, "SFA trie");
        assert_eq!(idx.descriptor().representation, "SFA");
    }

    #[test]
    fn all_series_are_indexed_and_trie_splits() {
        let (_, idx) = build(600, 64, 20);
        assert_eq!(idx.num_entries(), 600);
        assert!(
            idx.num_nodes() > 1,
            "600 series with capacity 20 must split the root"
        );
        let fp = idx.footprint();
        assert_eq!(fp.leaf_fill_factors.len(), fp.leaf_nodes);
        assert!(fp.max_leaf_depth() >= 1);
        assert_eq!(fp.disk_bytes, 600 * 64 * 4);
    }

    #[test]
    fn exactness_against_brute_force() {
        let (store, idx) = build(400, 64, 20);
        for q in RandomWalkGenerator::new(113, 64).series_batch(12) {
            for k in [1usize, 5] {
                let expected = brute_force_knn(store.dataset(), q.values(), k);
                let got = idx.answer_simple(&Query::knn(q.clone(), k)).unwrap();
                assert!(got.distances_match(&expected, 1e-4), "k={k}");
            }
        }
    }

    #[test]
    fn exactness_with_equi_width_binning() {
        let store = Arc::new(DatasetStore::new(
            RandomWalkGenerator::new(13, 64).dataset(200),
        ));
        let options = BuildOptions::default()
            .with_segments(16)
            .with_leaf_capacity(10)
            .with_alphabet_size(8);
        let idx =
            SfaTrie::build_with_binning(store.clone(), &options, BinningMethod::EquiWidth).unwrap();
        let q = RandomWalkGenerator::new(14, 64).series(0);
        let expected = brute_force_knn(store.dataset(), q.values(), 1);
        let got = idx.answer_simple(&Query::nearest_neighbor(q)).unwrap();
        assert!(got.distances_match(&expected, 1e-4));
    }

    #[test]
    fn exactness_on_deep_like_length() {
        let (store, idx) = build(150, 96, 10);
        let q = RandomWalkGenerator::new(15, 96).series(2);
        let expected = brute_force_knn(store.dataset(), q.values(), 1);
        let got = idx.answer_simple(&Query::nearest_neighbor(q)).unwrap();
        assert!(got.distances_match(&expected, 1e-4));
    }

    #[test]
    fn self_queries_prune() {
        let (store, idx) = build(800, 64, 40);
        let q = store.dataset().series(400).to_owned_series();
        let mut stats = QueryStats::default();
        let ans = idx.answer(&Query::nearest_neighbor(q), &mut stats).unwrap();
        assert_eq!(ans.nearest().unwrap().id, 400);
        assert!(
            stats.pruning_ratio(800) > 0.5,
            "ratio {}",
            stats.pruning_ratio(800)
        );
    }

    #[test]
    fn ng_approximate_search_visits_at_most_one_leaf() {
        let (store, idx) = build(300, 64, 15);
        let q = store.dataset().series(10).to_owned_series();
        let mut stats = QueryStats::default();
        let ans = idx
            .answer(
                &Query::nearest_neighbor(q).with_mode(AnswerMode::NgApproximate),
                &mut stats,
            )
            .unwrap();
        assert!(stats.leaves_visited <= 1);
        assert_eq!(ans.nearest().unwrap().id, 10);
        assert_eq!(ans.guarantee(), hydra_core::Guarantee::None);
    }

    #[test]
    fn epsilon_zero_is_bit_identical_to_exact() {
        let (_, idx) = build(300, 64, 15);
        for q in RandomWalkGenerator::new(513, 64).series_batch(4) {
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
    fn larger_leaves_mean_fewer_nodes() {
        let (_, small) = build(500, 64, 10);
        let (_, large) = build(500, 64, 200);
        assert!(small.num_nodes() > large.num_nodes());
    }

    #[test]
    fn parallel_build_produces_the_identical_trie() {
        let data = RandomWalkGenerator::new(13, 64).dataset(500);
        let options = BuildOptions::default()
            .with_segments(16)
            .with_leaf_capacity(20)
            .with_alphabet_size(8)
            .with_train_samples(200);
        let serial = SfaTrie::build_on_store(
            Arc::new(DatasetStore::new(data.clone())),
            &options.clone().with_build_threads(1),
        )
        .unwrap();
        let parallel = SfaTrie::build_on_store(
            Arc::new(DatasetStore::new(data.clone())),
            &options.with_build_threads(4),
        )
        .unwrap();
        assert_eq!(parallel.num_nodes(), serial.num_nodes());
        assert_eq!(parallel.num_entries(), serial.num_entries());
        let (fp_s, fp_p) = (serial.footprint(), parallel.footprint());
        assert_eq!(fp_p.total_nodes, fp_s.total_nodes);
        assert_eq!(fp_p.leaf_nodes, fp_s.leaf_nodes);
        let sorted = |mut v: Vec<usize>| {
            v.sort();
            v
        };
        assert_eq!(
            sorted(fp_p.leaf_depths.clone()),
            sorted(fp_s.leaf_depths.clone())
        );
        for q in RandomWalkGenerator::new(913, 64).series_batch(6) {
            let a = serial.answer_simple(&Query::knn(q.clone(), 3)).unwrap();
            let b = parallel.answer_simple(&Query::knn(q, 3)).unwrap();
            assert!(a.distances_match(&b, 1e-12));
        }
    }

    #[test]
    fn rejects_empty_dataset_and_bad_query() {
        assert!(SfaTrie::build(&Dataset::empty(8), &BuildOptions::default()).is_err());
        let (_, idx) = build(20, 64, 8);
        assert!(idx
            .answer_simple(&Query::nearest_neighbor(hydra_core::Series::new(vec![
                0.0;
                8
            ])))
            .is_err());
    }
}
