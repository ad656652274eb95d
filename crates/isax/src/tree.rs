//! The shared iSAX tree structure used by iSAX2+ and ADS+.
//!
//! The tree is rooted at a virtual node whose children correspond to the
//! 1-bit-per-segment iSAX words (created on demand). Internal nodes carry an
//! iSAX word and a split segment; splitting a leaf promotes one segment to one
//! more bit and redistributes the leaf's entries between the two children.
//! The split segment is chosen to balance the two children as evenly as
//! possible (the iSAX 2.0 splitting policy).
//!
//! Summaries are stored flat, as MESSI stores them: a leaf holds its series
//! ids and one contiguous block of their full-cardinality SAX words
//! (`segments` symbols per entry, the layout of ADS+'s dataset-order summary
//! array), so bounding a leaf's entries is one sweep over one block; and the
//! root children's 1-bit words sit in one array beside their node ids, so
//! bounding every root child is one sweep too. Node words are bounded from a
//! per-query [`NodeBounds`] table sized to the deepest word the tree holds.

use hydra_core::persist::{SnapshotSink, SnapshotSource};
use hydra_core::{parallel, Error, IndexFootprint, QueryStats, Result};
use hydra_transforms::sax::{IsaxWord, NodeBounds, SaxParams};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Identifier of a node inside the tree's arena.
pub type NodeId = usize;

/// The payload of a node.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// An internal node with exactly two children produced by a split.
    Internal {
        /// The segment whose cardinality was increased by the split.
        split_segment: usize,
        /// Child whose promoted bit is 0.
        left: NodeId,
        /// Child whose promoted bit is 1.
        right: NodeId,
    },
    /// A leaf node holding entries.
    Leaf {
        /// The series ids of the entries, in insertion (scan) order.
        ids: Vec<u32>,
        /// Their full-cardinality SAX words, `segments` symbols per entry,
        /// in the order of `ids`.
        words: Vec<u16>,
    },
}

/// A node of the iSAX tree.
#[derive(Clone, Debug)]
pub struct Node {
    /// The iSAX word (region) this node covers.
    pub word: IsaxWord,
    /// The node payload.
    pub kind: NodeKind,
    /// Depth below the virtual root (root children have depth 1).
    pub depth: usize,
}

/// An iSAX tree: a forest of root children keyed by their 1-bit words.
///
/// Root children are kept sorted by their 1-bit word so that iterating them
/// (the best-first search seeds one frontier entry per root child) follows a
/// deterministic key order — two structurally identical trees, e.g. a fresh
/// build and a reloaded snapshot, then traverse identically even when
/// MINDIST values tie.
#[derive(Clone, Debug)]
pub struct IsaxTree {
    params: SaxParams,
    leaf_capacity: usize,
    nodes: Vec<Node>,
    /// The root children's 1-bit words, `segments` symbols each, sorted.
    root_words: Vec<u16>,
    /// The root children's node ids, in the order of `root_words`.
    root_ids: Vec<NodeId>,
    /// The most bits any segment of any node word holds.
    deepest_bits: u8,
}

impl IsaxTree {
    /// Creates an empty tree.
    pub fn new(params: SaxParams, leaf_capacity: usize) -> Self {
        assert!(leaf_capacity > 0, "leaf capacity must be positive");
        Self {
            params,
            leaf_capacity,
            nodes: Vec::new(),
            root_words: Vec::new(),
            root_ids: Vec::new(),
            deepest_bits: 1,
        }
    }

    /// The SAX parameters of the tree.
    pub fn params(&self) -> &SaxParams {
        &self.params
    }

    /// The leaf capacity.
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// The number of nodes (internal + leaf).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Access to a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// The ids of the root children, in 1-bit word order.
    pub fn root_children(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.root_ids.iter().copied()
    }

    /// Iterates over all leaf node ids.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Leaf { .. }))
            .map(|(i, _)| i)
    }

    /// The entries of every leaf: `(ids, words)` per leaf, in arena order.
    pub fn leaf_blocks(&self) -> impl Iterator<Item = (&[u32], &[u16])> + '_ {
        self.nodes.iter().filter_map(|n| match &n.kind {
            NodeKind::Leaf { ids, words } => Some((&ids[..], &words[..])),
            NodeKind::Internal { .. } => None,
        })
    }

    /// Total number of entries stored in the tree.
    pub fn num_entries(&self) -> usize {
        self.leaf_blocks().map(|(ids, _)| ids.len()).sum()
    }

    /// The per-query table every node word of this tree is bounded from.
    pub fn node_bounds(&self, query_paa: &[f32]) -> NodeBounds {
        self.params.node_bounds(query_paa, self.deepest_bits)
    }

    /// Every root child with its MINDIST from `table`, in 1-bit word order:
    /// one sweep over the flat root words.
    pub fn root_bounds<'a>(
        &'a self,
        table: &'a NodeBounds,
    ) -> impl Iterator<Item = (NodeId, f64)> + 'a {
        self.root_children()
            .zip(table.one_bit_mindists(&self.root_words))
    }

    /// The 1-bit root key of a full-cardinality word.
    fn root_key(&self, word: &[u16]) -> Vec<u16> {
        let shift = self.params.max_bits() - 1;
        word.iter().map(|&s| s >> shift).collect()
    }

    /// The root child slot of `key`: `Ok` where it is, `Err` where it would
    /// be inserted to keep the keys sorted.
    fn root_slot(&self, key: &[u16]) -> std::result::Result<usize, usize> {
        let segments = self.params.segments();
        let (mut low, mut high) = (0, self.root_ids.len());
        while low < high {
            let mid = (low + high) / 2;
            match self.root_words[mid * segments..(mid + 1) * segments].cmp(key) {
                Ordering::Less => low = mid + 1,
                Ordering::Equal => return Ok(mid),
                Ordering::Greater => high = mid,
            }
        }
        Err(low)
    }

    /// Bulk-builds a tree over `summaries`, the full-cardinality SAX words of
    /// series `0..n` stored flat in id order (`segments` symbols each), using
    /// up to `threads` workers.
    ///
    /// Series are grouped by their 1-bit root key; each root-child subtree is
    /// then built independently (inserting its series in id order) and the
    /// finished subtrees are grafted into one arena. Because an insert only
    /// ever touches the subtree of its own root child, this produces a tree
    /// with **exactly the same shape** as serially inserting the series in
    /// id order — for every thread count, including 1 — so a parallel build
    /// is indistinguishable from a serial one.
    pub fn from_summaries(
        params: SaxParams,
        leaf_capacity: usize,
        summaries: &[u16],
        threads: usize,
    ) -> Self {
        let segments = params.segments();
        let mut tree = Self::new(params.clone(), leaf_capacity);
        // Group by root key, preserving id order inside each group (a stable
        // sort); the groups come out in key order, so the arena layout is
        // deterministic.
        let keys: Vec<u16> = tree.root_key(summaries);
        let key = |id: u32| &keys[id as usize * segments..(id as usize + 1) * segments];
        let mut order: Vec<u32> = (0..(summaries.len() / segments.max(1)) as u32).collect();
        order.sort_by(|&a, &b| key(a).cmp(key(b)));
        let groups: Vec<Vec<u32>> = order
            .chunk_by(|&a, &b| key(a) == key(b))
            .map(<[u32]>::to_vec)
            .collect();
        // Build each root-child subtree as its own single-root-child tree,
        // its leaf blocks trimmed to what they hold.
        let subtrees: Vec<IsaxTree> = parallel::map_items(groups, threads, |_, ids| {
            let mut subtree = IsaxTree::new(params.clone(), leaf_capacity);
            for id in ids {
                let at = id as usize * segments;
                subtree.insert(id, &summaries[at..at + segments]);
            }
            for node in &mut subtree.nodes {
                if let NodeKind::Leaf { ids, words } = &mut node.kind {
                    ids.shrink_to_fit();
                    words.shrink_to_fit();
                }
            }
            subtree
        });
        // Graft the subtree arenas into one, offsetting child indices.
        for subtree in subtrees {
            let offset = tree.nodes.len();
            tree.root_words.extend_from_slice(&subtree.root_words);
            tree.root_ids.push(subtree.root_ids[0] + offset);
            tree.deepest_bits = tree.deepest_bits.max(subtree.deepest_bits);
            for mut node in subtree.nodes {
                if let NodeKind::Internal { left, right, .. } = &mut node.kind {
                    *left += offset;
                    *right += offset;
                }
                tree.nodes.push(node);
            }
        }
        tree
    }

    /// Inserts one series (by id and full-cardinality SAX word) into the
    /// tree, splitting leaves as needed.
    pub fn insert(&mut self, id: u32, word: &[u16]) {
        debug_assert_eq!(word.len(), self.params.segments());
        let key = self.root_key(word);
        let root_child = match self.root_slot(&key) {
            Ok(slot) => self.root_ids[slot],
            Err(slot) => {
                let nid = self.nodes.len();
                self.nodes.push(Node {
                    word: IsaxWord {
                        bits: vec![1; key.len()],
                        symbols: key.clone(),
                        max_bits: self.params.max_bits(),
                    },
                    kind: NodeKind::Leaf {
                        ids: Vec::new(),
                        words: Vec::new(),
                    },
                    depth: 1,
                });
                let segments = key.len();
                self.root_words
                    .splice(slot * segments..slot * segments, key);
                self.root_ids.insert(slot, nid);
                nid
            }
        };
        let leaf = self.descend(root_child, word, None);
        if let NodeKind::Leaf { ids, words } = &mut self.nodes[leaf].kind {
            ids.push(id);
            words.extend_from_slice(word);
        }
        self.maybe_split(leaf);
    }

    /// Follows `word` from `node` down to the leaf whose region contains it,
    /// recording each internal node passed into `stats`.
    fn descend(
        &self,
        mut node: NodeId,
        word: &[u16],
        mut stats: Option<&mut QueryStats>,
    ) -> NodeId {
        while let NodeKind::Internal {
            split_segment,
            left,
            right,
        } = self.nodes[node].kind
        {
            if let Some(stats) = stats.as_deref_mut() {
                stats.record_internal_visit();
            }
            let child_bits = self.nodes[left].word.bits[split_segment];
            let shift = self.params.max_bits() - child_bits;
            node = if (word[split_segment] >> shift) & 1 == 0 {
                left
            } else {
                right
            };
        }
        node
    }

    /// Splits `leaf` if it exceeds the capacity and a useful split exists.
    fn maybe_split(&mut self, leaf: NodeId) {
        let needs_split = match &self.nodes[leaf].kind {
            NodeKind::Leaf { ids, .. } => ids.len() > self.leaf_capacity,
            NodeKind::Internal { .. } => false,
        };
        if !needs_split {
            return;
        }
        let Some(segment) = self.choose_split_segment(leaf) else {
            // No segment can be refined further: allow the over-full leaf.
            return;
        };
        let word = self.nodes[leaf].word.clone();
        let depth = self.nodes[leaf].depth;
        #[expect(
            clippy::expect_used,
            reason = "segment was chosen from the splittable set above"
        )]
        let (left_word, right_word) = word
            .split(segment)
            .expect("chosen segment must be splittable");
        let (ids, words) = match std::mem::replace(
            &mut self.nodes[leaf].kind,
            NodeKind::Internal {
                split_segment: segment,
                left: 0,
                right: 0,
            },
        ) {
            NodeKind::Leaf { ids, words } => (ids, words),
            NodeKind::Internal { .. } => unreachable!(),
        };
        let child_bits = left_word.bits[segment];
        self.deepest_bits = self.deepest_bits.max(child_bits);
        let shift = self.params.max_bits() - child_bits;
        let segments = self.params.segments();
        let (mut left_ids, mut left_words) = (Vec::new(), Vec::new());
        let (mut right_ids, mut right_words) = (Vec::new(), Vec::new());
        for (&id, word) in ids.iter().zip(words.chunks_exact(segments)) {
            if (word[segment] >> shift) & 1 == 0 {
                left_ids.push(id);
                left_words.extend_from_slice(word);
            } else {
                right_ids.push(id);
                right_words.extend_from_slice(word);
            }
        }
        let left_len = left_ids.len();
        let right_len = right_ids.len();
        let left_id = self.nodes.len();
        self.nodes.push(Node {
            word: left_word,
            kind: NodeKind::Leaf {
                ids: left_ids,
                words: left_words,
            },
            depth: depth + 1,
        });
        let right_id = self.nodes.len();
        self.nodes.push(Node {
            word: right_word,
            kind: NodeKind::Leaf {
                ids: right_ids,
                words: right_words,
            },
            depth: depth + 1,
        });
        self.nodes[leaf].kind = NodeKind::Internal {
            split_segment: segment,
            left: left_id,
            right: right_id,
        };
        // Recurse into whichever child is still over-full (at most one can
        // hold all the entries).
        if left_len > self.leaf_capacity {
            self.maybe_split(left_id);
        } else if right_len > self.leaf_capacity {
            self.maybe_split(right_id);
        }
    }

    /// Chooses the segment whose promotion splits the leaf's entries most
    /// evenly. Returns `None` if every segment is at full cardinality or no
    /// segment separates the entries at all (degenerate identical words).
    fn choose_split_segment(&self, leaf: NodeId) -> Option<usize> {
        let node = &self.nodes[leaf];
        let NodeKind::Leaf { ids, words } = &node.kind else {
            return None;
        };
        let segments = self.params.segments();
        let max_bits = self.params.max_bits();
        let mut best: Option<(usize, usize)> = None; // (imbalance, segment)
        for seg in 0..segments {
            let bits = node.word.bits[seg];
            if bits >= max_bits {
                continue;
            }
            let shift = max_bits - (bits + 1);
            let left = words
                .chunks_exact(segments)
                .filter(|word| (word[seg] >> shift) & 1 == 0)
                .count();
            let right = ids.len() - left;
            if left == 0 || right == 0 {
                continue;
            }
            let imbalance = left.abs_diff(right);
            match best {
                Some((b, _)) if imbalance >= b => {}
                _ => best = Some((imbalance, seg)),
            }
        }
        if best.is_none() {
            // Fall back to any refinable segment (keeps cardinality growing so
            // later inserts can separate), provided at least one exists.
            return (0..segments).find(|&seg| node.word.bits[seg] < max_bits);
        }
        best.map(|(_, seg)| seg)
    }

    /// Finds the leaf whose region contains the full-cardinality `word`, if
    /// any, descending from the matching root child. Records node visits
    /// into `stats`.
    pub fn locate_leaf(&self, word: &[u16], stats: &mut QueryStats) -> Option<NodeId> {
        let slot = self.root_slot(&self.root_key(word)).ok()?;
        Some(self.descend(self.root_ids[slot], word, Some(stats)))
    }

    /// The MINDIST lower bound between a query's PAA values and a node,
    /// computed directly (no table): for the few bounds an ng-approximate
    /// descent needs.
    pub fn mindist(&self, query_paa: &[f32], node: NodeId) -> f64 {
        self.params
            .mindist_paa_to_isax(query_paa, &self.nodes[node].word)
    }

    /// Like [`IsaxTree::locate_leaf`], but never gives up: when no root child
    /// covers `word` (the query's region was never populated), descends from
    /// the MINDIST-closest root child, picking the MINDIST-closer side at
    /// every split. Used by ng-approximate answering, which must always visit
    /// one leaf; iSAX2+'s exact search keeps [`IsaxTree::locate_leaf`] so its
    /// seeding (and its work counters) are unchanged.
    pub fn locate_nearest_leaf(
        &self,
        query_paa: &[f32],
        word: &[u16],
        stats: &mut QueryStats,
    ) -> Option<NodeId> {
        if let Some(leaf) = self.locate_leaf(word, stats) {
            return Some(leaf);
        }
        let mut current = self.root_children().min_by(|&a, &b| {
            self.mindist(query_paa, a)
                .total_cmp(&self.mindist(query_paa, b))
        })?;
        loop {
            match &self.nodes[current].kind {
                NodeKind::Internal { left, right, .. } => {
                    stats.record_internal_visit();
                    stats.record_lower_bounds(2);
                    current = if self.mindist(query_paa, *left) <= self.mindist(query_paa, *right) {
                        *left
                    } else {
                        *right
                    };
                }
                NodeKind::Leaf { .. } => return Some(current),
            }
        }
    }

    /// Serializes the complete tree — parameters, node arena (including every
    /// leaf's SAX word table), and root-child directory — for an index
    /// snapshot.
    pub fn write_snapshot(&self, out: &mut dyn SnapshotSink) -> Result<()> {
        let segments = self.params.segments();
        out.put_usize(self.params.series_length())?;
        out.put_usize(segments)?;
        out.put_u8(self.params.max_bits())?;
        out.put_usize(self.leaf_capacity)?;
        out.put_usize(self.nodes.len())?;
        for node in &self.nodes {
            out.put_usize(node.depth)?;
            for &sym in &node.word.symbols {
                out.put_u16(sym)?;
            }
            for &bits in &node.word.bits {
                out.put_u8(bits)?;
            }
            match &node.kind {
                NodeKind::Internal {
                    split_segment,
                    left,
                    right,
                } => {
                    out.put_u8(0)?;
                    out.put_usize(*split_segment)?;
                    out.put_usize(*left)?;
                    out.put_usize(*right)?;
                }
                NodeKind::Leaf { ids, words } => {
                    out.put_u8(1)?;
                    out.put_usize(ids.len())?;
                    for (&id, word) in ids.iter().zip(words.chunks_exact(segments)) {
                        out.put_u32(id)?;
                        for &sym in word {
                            out.put_u16(sym)?;
                        }
                    }
                }
            }
        }
        out.put_usize(self.root_ids.len())?;
        for (key, &node) in self.root_words.chunks_exact(segments).zip(&self.root_ids) {
            for &k in key {
                out.put_u16(k)?;
            }
            out.put_usize(node)?;
        }
        Ok(())
    }

    /// Reconstructs a tree from a snapshot payload written by
    /// [`IsaxTree::write_snapshot`]. Structural inconsistencies (out-of-range
    /// node ids or segment indices, degenerate parameters) are typed
    /// [`Error::InvalidSnapshot`]s, never panics.
    pub fn read_snapshot(input: &mut dyn SnapshotSource) -> Result<IsaxTree> {
        let invalid = |msg: String| Error::InvalidSnapshot(msg);
        let series_length = input.get_usize()?;
        let segments = input.get_usize()?;
        let max_bits = input.get_u8()?;
        if segments == 0 || segments > series_length {
            return Err(invalid(format!(
                "iSAX tree has {segments} segments over series length {series_length}"
            )));
        }
        if !(1..=16).contains(&max_bits) {
            return Err(invalid(format!("iSAX max_bits {max_bits} outside 1..=16")));
        }
        let leaf_capacity = input.get_usize()?;
        if leaf_capacity == 0 {
            return Err(invalid("iSAX tree has zero leaf capacity".to_string()));
        }
        let params = SaxParams::new(series_length, segments, max_bits);
        let num_nodes = input.get_count(segments * 3 + 2)?;
        let mut nodes = Vec::with_capacity(num_nodes);
        let mut deepest_bits = 1;
        for _ in 0..num_nodes {
            let depth = input.get_usize()?;
            let mut symbols = Vec::with_capacity(segments);
            for _ in 0..segments {
                symbols.push(input.get_u16()?);
            }
            let mut bits = Vec::with_capacity(segments);
            for _ in 0..segments {
                bits.push(input.get_u8()?);
            }
            // Word sanity: a segment's cardinality never exceeds the table's,
            // and its symbol must fit that cardinality — otherwise MINDIST's
            // breakpoint lookups would index out of range at query time.
            for (seg, (&b, &sym)) in bits.iter().zip(&symbols).enumerate() {
                let bits_ok = (1..=max_bits).contains(&b);
                let symbol_ok = b >= 16 || sym < (1u16 << b);
                if !bits_ok || !symbol_ok {
                    return Err(invalid(format!(
                        "segment {seg}: symbol {sym} at {b} bits is outside the \
                         {max_bits}-bit table"
                    )));
                }
                deepest_bits = deepest_bits.max(b);
            }
            let word = IsaxWord {
                symbols,
                bits,
                max_bits,
            };
            let kind = match input.get_u8()? {
                0 => {
                    let split_segment = input.get_usize()?;
                    let left = input.get_usize()?;
                    let right = input.get_usize()?;
                    if split_segment >= segments || left >= num_nodes || right >= num_nodes {
                        return Err(invalid(format!(
                            "internal node references segment {split_segment} / children \
                             {left},{right} outside the arena of {num_nodes}"
                        )));
                    }
                    NodeKind::Internal {
                        split_segment,
                        left,
                        right,
                    }
                }
                1 => {
                    let count = input.get_count(4 + segments * 2)?;
                    let mut ids = Vec::with_capacity(count);
                    let mut words = Vec::with_capacity(count * segments);
                    for _ in 0..count {
                        let id = input.get_u32()?;
                        for seg in 0..segments {
                            let sym = input.get_u16()?;
                            // Same reason as the node words above: the SIMS
                            // bound table and the split logic index by it.
                            if max_bits < 16 && sym >= (1u16 << max_bits) {
                                return Err(invalid(format!(
                                    "leaf entry {id}, segment {seg}: symbol {sym} is outside \
                                     the {max_bits}-bit table"
                                )));
                            }
                            words.push(sym);
                        }
                        ids.push(id);
                    }
                    NodeKind::Leaf { ids, words }
                }
                tag => return Err(invalid(format!("unknown node tag {tag}"))),
            };
            nodes.push(Node { word, kind, depth });
        }
        let num_roots = input.get_count(segments * 2 + 8)?;
        // Through a map, so a directory written out of order (or with a key
        // twice, the last one winning) loads into the same sorted layout.
        let mut directory = BTreeMap::new();
        for _ in 0..num_roots {
            let mut key = Vec::with_capacity(segments);
            for _ in 0..segments {
                key.push(input.get_u16()?);
            }
            let node = input.get_usize()?;
            if node >= num_nodes {
                return Err(invalid(format!(
                    "root child {node} outside the arena of {num_nodes}"
                )));
            }
            directory.insert(key, node);
        }
        let (root_words, root_ids) = directory.into_iter().fold(
            (Vec::new(), Vec::new()),
            |(mut words, mut ids), (key, node)| {
                words.extend(key);
                ids.push(node);
                (words, ids)
            },
        );
        Ok(IsaxTree {
            params,
            leaf_capacity,
            nodes,
            root_words,
            root_ids,
            deepest_bits,
        })
    }

    /// Builds the footprint report for this tree, given the byte cost of one
    /// leaf entry on disk (raw series bytes for iSAX2+, summary bytes for
    /// ADS+). In memory an entry is what its leaf block holds, a 4-byte id
    /// and its `segments` 2-byte symbols, and a root child is its flat 1-bit
    /// word and node id.
    pub fn footprint(&self, entry_disk_bytes: usize) -> IndexFootprint {
        let mut leaf_fill_factors = Vec::new();
        let mut leaf_depths = Vec::new();
        let mut leaf_nodes = 0usize;
        let mut disk_bytes = 0usize;
        for n in &self.nodes {
            if let NodeKind::Leaf { ids, .. } = &n.kind {
                leaf_nodes += 1;
                leaf_fill_factors.push(ids.len() as f64 / self.leaf_capacity as f64);
                leaf_depths.push(n.depth);
                disk_bytes += ids.len() * entry_disk_bytes;
            }
        }
        let segments = self.params.segments();
        let memory_bytes = self.nodes.len() * (std::mem::size_of::<Node>() + segments * 3)
            + self.num_entries() * (std::mem::size_of::<u32>() + segments * 2)
            + self.root_ids.len() * (std::mem::size_of::<NodeId>() + segments * 2);
        IndexFootprint {
            total_nodes: self.nodes.len(),
            leaf_nodes,
            memory_bytes,
            disk_bytes,
            leaf_fill_factors,
            leaf_depths,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_data::RandomWalkGenerator;
    use hydra_transforms::sax::SaxWord;

    fn params() -> SaxParams {
        SaxParams::new(64, 8, 8)
    }

    fn build_tree(count: usize, leaf_capacity: usize) -> (IsaxTree, hydra_core::Dataset) {
        let data = RandomWalkGenerator::new(5, 64).dataset(count);
        let p = params();
        let mut tree = IsaxTree::new(p.clone(), leaf_capacity);
        for (i, s) in data.iter().enumerate() {
            tree.insert(i as u32, &p.sax_word(s.values()).symbols);
        }
        (tree, data)
    }

    #[test]
    fn all_entries_are_stored() {
        let (tree, _) = build_tree(500, 16);
        assert_eq!(tree.num_entries(), 500);
        assert!(tree.num_nodes() > 1);
        assert_eq!(tree.leaf_capacity(), 16);
    }

    #[test]
    fn leaves_respect_capacity_unless_degenerate() {
        let (tree, _) = build_tree(1000, 16);
        for leaf in tree.leaves() {
            if let NodeKind::Leaf { ids, .. } = &tree.node(leaf).kind {
                // Random-walk SAX words are diverse enough that no leaf should
                // stay over-full after splitting.
                assert!(ids.len() <= 16, "leaf holds {} entries", ids.len());
            }
        }
    }

    #[test]
    fn every_entry_is_in_a_leaf_whose_word_contains_it() {
        let (tree, _) = build_tree(300, 8);
        for leaf in tree.leaves() {
            let node = tree.node(leaf);
            if let NodeKind::Leaf { ids, words } = &node.kind {
                assert_eq!(words.len(), ids.len() * 8, "one word per entry");
                for word in words.chunks_exact(8) {
                    let sax = SaxWord {
                        symbols: word.to_vec(),
                    };
                    assert!(node.word.contains(&sax), "leaf word must cover its entries");
                }
            }
        }
    }

    #[test]
    fn locate_leaf_finds_the_leaf_containing_the_word() {
        let (tree, data) = build_tree(400, 16);
        let p = params();
        let mut stats = QueryStats::default();
        for i in (0..400).step_by(37) {
            let sax = p.sax_word(data.series(i).values());
            let leaf = tree
                .locate_leaf(&sax.symbols, &mut stats)
                .expect("series word must map to a leaf");
            if let NodeKind::Leaf { ids, .. } = &tree.node(leaf).kind {
                assert!(
                    ids.contains(&(i as u32)),
                    "series {i} must be in the located leaf"
                );
            }
        }
        assert!(stats.internal_nodes_visited > 0 || tree.num_nodes() <= 500);
    }

    #[test]
    fn mindist_to_containing_leaf_is_zero_or_tiny() {
        let (tree, data) = build_tree(200, 8);
        let p = params();
        let mut stats = QueryStats::default();
        let q = data.series(0);
        let paa = p.paa().transform(q.values());
        let sax = p.sax_word(q.values());
        let leaf = tree.locate_leaf(&sax.symbols, &mut stats).unwrap();
        assert!(tree.mindist(&paa, leaf) < 1e-9);
    }

    #[test]
    fn splitting_produces_internal_nodes_with_two_children() {
        let (tree, _) = build_tree(500, 4);
        let mut internals = 0;
        for i in 0..tree.num_nodes() {
            if let NodeKind::Internal { left, right, .. } = tree.node(i).kind {
                internals += 1;
                assert_ne!(left, right);
                assert_eq!(tree.node(left).depth, tree.node(i).depth + 1);
                assert_eq!(tree.node(right).depth, tree.node(i).depth + 1);
            }
        }
        assert!(
            internals > 0,
            "a 500-series tree with capacity 4 must have split"
        );
    }

    #[test]
    fn footprint_reports_consistent_counts() {
        let (tree, _) = build_tree(600, 32);
        let fp = tree.footprint(64 * 4);
        assert_eq!(fp.total_nodes, tree.num_nodes());
        assert_eq!(fp.leaf_nodes, tree.leaves().count());
        assert_eq!(fp.leaf_fill_factors.len(), fp.leaf_nodes);
        assert_eq!(fp.disk_bytes, 600 * 64 * 4);
        assert!(fp.mean_fill_factor() > 0.0 && fp.mean_fill_factor() <= 1.0 + 1e-9);
        assert!(fp.max_leaf_depth() >= 1);
    }

    #[test]
    fn duplicate_words_do_not_loop_forever() {
        // Insert many series with identical values: their SAX words are all
        // identical, so no split can separate them; the tree must terminate
        // with one over-full leaf rather than hang.
        let p = params();
        let mut tree = IsaxTree::new(p.clone(), 4);
        let series = vec![0.5f32; 64];
        let sax = p.sax_word(&series);
        for i in 0..100 {
            tree.insert(i, &sax.symbols);
        }
        assert_eq!(tree.num_entries(), 100);
    }

    #[test]
    #[should_panic(expected = "leaf capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = IsaxTree::new(params(), 0);
    }

    /// Shape signature independent of arena layout: sorted (depth, entries)
    /// per leaf plus the node count.
    fn shape(tree: &IsaxTree) -> (usize, Vec<(usize, usize)>) {
        let mut leaves: Vec<(usize, usize)> = tree
            .leaves()
            .map(|l| {
                let n = tree.node(l);
                match &n.kind {
                    NodeKind::Leaf { ids, .. } => (n.depth, ids.len()),
                    _ => unreachable!(),
                }
            })
            .collect();
        leaves.sort();
        (tree.num_nodes(), leaves)
    }

    #[test]
    fn snapshot_round_trips_and_rejects_forged_words() {
        use hydra_core::persist::SliceSource;
        let (tree, _) = build_tree(300, 16);
        let mut payload: Vec<u8> = Vec::new();
        tree.write_snapshot(&mut payload).unwrap();
        let mut src = SliceSource::new(&payload);
        let reloaded = IsaxTree::read_snapshot(&mut src).unwrap();
        assert_eq!(src.remaining(), 0);
        assert_eq!(reloaded.num_nodes(), tree.num_nodes());
        assert_eq!(reloaded.num_entries(), tree.num_entries());
        assert_eq!(shape(&reloaded), shape(&tree));
        // The derived state comes back too: the sorted root directory and
        // the depth the node-bound table is sized to.
        assert_eq!(reloaded.root_words, tree.root_words);
        assert_eq!(reloaded.root_ids, tree.root_ids);
        assert_eq!(reloaded.deepest_bits, tree.deepest_bits);
        assert!(tree.deepest_bits > 1);

        // Forge the first node's first per-segment bit count beyond max_bits:
        // header is series_length (8) + segments (8) + max_bits (1) +
        // leaf_capacity (8) + num_nodes (8) + depth (8), then the word's
        // symbols (2 bytes per segment) precede its bits bytes.
        let segments = tree.params().segments();
        let bits_at = 41 + 2 * segments;
        let mut forged = payload.clone();
        forged[bits_at] = 200;
        let mut src = SliceSource::new(&forged);
        match IsaxTree::read_snapshot(&mut src) {
            Err(hydra_core::Error::InvalidSnapshot(msg)) => {
                assert!(msg.contains("bits"), "{msg}")
            }
            Err(other) => panic!("expected InvalidSnapshot, got {other}"),
            Ok(_) => panic!("a word beyond the table's cardinality must be rejected"),
        }
    }

    #[test]
    fn from_summaries_matches_incremental_insertion_for_any_thread_count() {
        let data = RandomWalkGenerator::new(5, 64).dataset(700);
        let p = params();
        let summaries: Vec<u16> = data
            .iter()
            .flat_map(|s| p.sax_word(s.values()).symbols)
            .collect();
        let mut incremental = IsaxTree::new(p.clone(), 16);
        for (id, word) in summaries.chunks_exact(8).enumerate() {
            incremental.insert(id as u32, word);
        }
        let expected = shape(&incremental);
        for threads in [1usize, 4] {
            let bulk = IsaxTree::from_summaries(p.clone(), 16, &summaries, threads);
            assert_eq!(bulk.num_entries(), 700, "threads={threads}");
            assert_eq!(shape(&bulk), expected, "threads={threads}");
            assert_eq!(bulk.root_words, incremental.root_words, "threads={threads}");
            assert_eq!(bulk.deepest_bits, incremental.deepest_bits);
            // Every entry must still be locatable in a covering leaf.
            let mut stats = QueryStats::default();
            for i in (0..700).step_by(97) {
                let sax = p.sax_word(data.series(i).values());
                let leaf = bulk.locate_leaf(&sax.symbols, &mut stats).unwrap();
                if let NodeKind::Leaf { ids, .. } = &bulk.node(leaf).kind {
                    assert!(ids.contains(&(i as u32)));
                }
            }
        }
    }
}
