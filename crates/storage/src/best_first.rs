//! One best-first k-NN search, shared by the tree indexes.
//!
//! DSTree, iSAX2+, the SFA trie, the R*-tree and the M-tree all answer a
//! query the same way: summarize the query, seed a best-so-far from one leaf,
//! pop nodes best-first on a lower bound, prune at `bound ≥ bsf · shrink`,
//! and refine leaves with an early-abandoning distance over the leaf's
//! materialized payload. [`search`] is that algorithm, written once; a tree
//! implements [`BestFirstTree`] to supply only what really differs — how it
//! summarizes the query, where it seeds, what it starts from, a node's
//! children, bound and series ids, and each leaf entry's bound.
//!
//! Every leaf scan filters before it reads, as in Hercules and MESSI: each
//! entry is first bounded from the per-series summary the leaf already
//! stores (EAPCA, SAX word, SFA word, PAA point, or the M-tree's distance
//! to the leaf's pivot; counted as a lower bound), and an entry whose bound
//! — less the `ENTRY_SLACK` that covers the `f32` rounding of those
//! summaries, and never below 0 — reaches `bsf · shrink` is never refined
//! and never counted as raw. A leaf whose every entry is bounded out is not
//! read at all: no page, no leaf visit, no fault checkpoint. The scan takes
//! two passes over a leaf: the first bounds the entries and prefetches each
//! one it keeps (`DatasetStore::prefetch`, uncounted), so the second, which
//! refines them, does not wait on DRAM for every scattered id.
//!
//! For DSTree and iSAX2+ both bound hooks are table lookups, like the
//! `hydra_transforms::sweep` of ADS+ and the VA+file. The tree's
//! [`BestFirstTree::probe`] fills its per-query tables once (iSAX: the
//! query's MINDIST term for every segment, cardinality and symbol; DSTree:
//! the query's mean and σ over every distinct segment of the tree), so a
//! node's [`BestFirstTree::bound`] is one lookup per segment. Their leaves
//! keep the entries' summaries in one flat block, so
//! [`BestFirstTree::entry_bounds`] is one pass over that block. In debug
//! builds the popped node's bound, like each entry's, is asserted not to
//! exceed any distance its leaf's scan computes in full.
//!
//! The search is serial: on a 2-CPU host a MESSI-style fan-out of the
//! reachable leaves over worker threads lost to it (README "Intra-query
//! parallelism & SIMD"). MESSI's shared queues over per-series bounds are
//! the design to follow if a bigger host shows a win.
//!
//! The query frame (clock, heap, budget, guarantee) and the per-entry
//! refine step are the scan-side driver's, [`crate::refine`], so the two
//! drivers differ only in how they order candidates.

use crate::refine::{self, EarlyAbandon, Refiner};
use crate::DatasetStore;
use hydra_core::distance::squared_euclidean_early_abandon;
use hydra_core::{AnswerMode, AnswerSet, Query, QueryStats, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The traversal's priority queue: a min-heap of nodes on their lower bound.
///
/// Entries compare on the bound alone (`total_cmp`, so a NaN bound cannot
/// scramble the order); which of several tied entries pops first is decided
/// by the binary heap's sift order, i.e. by the order they were pushed in.
#[derive(Default)]
pub struct Frontier(BinaryHeap<Entry>);

struct Entry {
    lower_bound: f64,
    node: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap.
        other.lower_bound.total_cmp(&self.lower_bound)
    }
}

impl Frontier {
    /// An empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `node` with its lower bound.
    pub fn push(&mut self, node: usize, lower_bound: f64) {
        self.0.push(Entry { lower_bound, node });
    }

    /// Removes the node with the smallest lower bound.
    pub fn pop(&mut self) -> Option<(usize, f64)> {
        self.0.pop().map(|e| (e.node, e.lower_bound))
    }
}

/// What a tree node holds.
pub enum Node<L, C> {
    /// A leaf: the ids of the series it materializes, in scan order.
    Leaf(L),
    /// An internal node: its children, in the order they are bounded and
    /// pushed.
    Internal(C),
}

/// Where a tree starts a query.
#[derive(Clone, Copy, Debug, Default)]
pub struct Seed {
    /// The leaf scanned first to seed the best-so-far — the whole answer in
    /// ng-approximate mode. `None` starts the traversal from an empty heap.
    pub leaf: Option<usize>,
    /// The leaf the traversal must not scan again when it pops it (the seed,
    /// for trees that scan it exactly once).
    pub skip: Option<usize>,
}

/// The parts of a best-first tree search that differ between trees.
pub trait BestFirstTree {
    /// The per-query summary the tree bounds its nodes and entries against.
    type Probe<'q>
    where
        Self: 'q;

    /// The method name typed errors carry.
    const NAME: &'static str;

    /// The store the leaves materialize their series from.
    fn store(&self) -> &DatasetStore;

    /// Summarizes the query (and prepares whatever per-query state bounding
    /// its nodes and entries needs).
    fn probe<'q>(&'q self, query: &'q [f32]) -> Self::Probe<'q>;

    /// Picks the seed leaf for `mode`, recording the descent's node visits
    /// (and any bounds it computes) into `stats`.
    fn seed(&self, probe: &Self::Probe<'_>, mode: AnswerMode, stats: &mut QueryStats) -> Seed;

    /// Pushes the entries the traversal starts from, recording the bounds it
    /// computes for them into `stats`.
    fn push_roots(&self, probe: &Self::Probe<'_>, frontier: &mut Frontier, stats: &mut QueryStats);

    /// The payload of node `id`.
    fn node(
        &self,
        id: usize,
    ) -> Node<impl ExactSizeIterator<Item = u32> + Clone + '_, impl Iterator<Item = usize> + '_>;

    /// The lower bound on the distance from the query to anything below
    /// node `id`.
    fn bound(&self, id: usize, probe: &Self::Probe<'_>) -> f64;

    /// The lower bound on the distance from the query to every entry of
    /// leaf `id`, in scan order, computed from the per-series summary the
    /// leaf already stores.
    fn entry_bounds(&self, id: usize, probe: &Self::Probe<'_>) -> Vec<f64>;
}

/// Slack on every per-entry prune, relative to the scale of the summaries:
/// an entry is bounded out only when its bound, lowered by `ENTRY_SLACK ·
/// (bound + ‖query‖)`, still reaches `bsf · shrink`. The per-series
/// summaries are stored in `f32` (EAPCA means and σ, PAA values, and the PAA
/// / DFT the symbolic words were cut from), so a computed bound can exceed
/// its exact value by a few `f32` ulps of the values summarized. That
/// matters twice: a bound that is tight in exact arithmetic (EAPCA against a
/// constant query equals the true distance) lands above the distance the
/// kernel computes, relative to the bound; and against a near-duplicate the
/// true bound is ~0 while the rounding stays at the data's scale, bounded by
/// `‖query‖`. `2⁻²⁰` is 16× an `f32` ulp.
const ENTRY_SLACK: f64 = 1.0 / (1u64 << 20) as f64;

/// The per-entry prune of one query (also the tolerance of the scan-side
/// driver's bound assertions, [`crate::refine`]).
#[derive(Clone, Copy)]
pub(crate) struct EntryFilter {
    /// `ENTRY_SLACK · ‖query‖`.
    absolute: f64,
    pub(crate) shrink: f64,
}

impl EntryFilter {
    pub(crate) fn new(query: &Query) -> Self {
        let norm = query
            .values()
            .iter()
            .map(|&v| f64::from(v).powi(2))
            .sum::<f64>();
        Self {
            absolute: ENTRY_SLACK * norm.sqrt(),
            shrink: query.mode().prune_shrink(),
        }
    }

    /// `bound` lowered by the slack, and clamped at 0 as every distance is:
    /// a floor on the exact distance. Without the clamp, a full heap whose
    /// threshold is 0 (k exact matches) would still refine every entry
    /// bounded at 0, though none of them can enter it. (An infinite bound's
    /// NaN difference clamps to 0 too, which prunes only under a limit of 0.)
    pub(crate) fn floor(self, bound: f64) -> f64 {
        (bound - ENTRY_SLACK * bound - self.absolute).max(0.0)
    }

    /// Whether an entry whose lower bound is `bound` provably cannot come
    /// under `threshold` (a distance, not its square) beyond the mode's
    /// `shrink`.
    fn bounded_out(self, bound: f64, threshold: f64) -> bool {
        self.floor(bound) >= threshold * self.shrink
    }
}

/// Answers `query` over `tree` in its requested mode, recording the work
/// counters into `stats`.
pub fn search<T: BestFirstTree>(
    tree: &T,
    query: &Query,
    stats: &mut QueryStats,
) -> Result<AnswerSet> {
    let store = tree.store();
    query.expect_len(store.series_length())?;
    let k = query.knn_k(T::NAME)?;
    let mode = query.mode();
    refine::search(store, query, k, stats, |r| {
        let probe = tree.probe(query.values());
        let seed = tree.seed(&probe, mode, r.stats);
        if let Some(leaf) = seed.leaf {
            if let Node::Leaf(ids) = tree.node(leaf) {
                // The descent computes no bound for the leaf it lands on.
                let bounds = tree.entry_bounds(leaf, &probe);
                scan_leaf(r, query, ids, f64::NEG_INFINITY, bounds)?;
            }
        }
        // In ng-approximate mode the seed leaf is the whole answer.
        if mode == AnswerMode::NgApproximate {
            return Ok(());
        }
        // A node is pruned as soon as its bound reaches `bsf * shrink`
        // (`r.limit()`), so `ε = 0` is bit-identical to exact search.
        let mut frontier = Frontier::new();
        tree.push_roots(&probe, &mut frontier, r.stats);
        while let Some((node, lower_bound)) = frontier.pop() {
            if r.meter.is_truncated() {
                break; // budget exhausted: keep the best-so-far
            }
            if r.heap.is_full() && lower_bound >= r.limit() {
                break; // everything else in the frontier is at least as far
            }
            match tree.node(node) {
                Node::Leaf(ids) => {
                    if Some(node) != seed.skip {
                        let bounds = tree.entry_bounds(node, &probe);
                        scan_leaf(r, query, ids, lower_bound, bounds)?;
                    }
                }
                Node::Internal(children) => {
                    r.stats.record_internal_visit();
                    for child in children {
                        let bound = tree.bound(child, &probe);
                        r.stats.record_lower_bounds(1);
                        if !r.heap.is_full() || bound < r.limit() {
                            frontier.push(child, bound);
                        }
                    }
                }
            }
        }
        Ok(())
    })
}

/// Refines one leaf against the best-so-far, filtering its entries on their
/// lower bounds first. A leaf whose every entry is bounded out is never
/// read: it costs its bounds and nothing else. Otherwise it is charged one
/// random access plus sequential pages for its materialized payload, and
/// only the entries not bounded out are refined through the scan side's
/// per-candidate step. `bounds` holds each entry's lower bound, in scan
/// order. In debug builds the leaf's `node_bound` (−∞ where the traversal
/// computed none), less the slack, is asserted not to exceed any distance
/// computed in full.
///
/// The scan takes two passes over the leaf. The first prefetches every entry
/// the current threshold keeps — at most one leaf of series — so the second,
/// which refines them, does not wait on memory for each scattered id.
fn scan_leaf(
    r: &mut Refiner<'_>,
    query: &Query,
    ids: impl ExactSizeIterator<Item = u32> + Clone,
    node_bound: f64,
    bounds: Vec<f64>,
) -> Result<()> {
    // An empty leaf has no payload: nothing to read, nothing to count.
    let Some(first) = ids.clone().next() else {
        return Ok(());
    };
    debug_assert_eq!(bounds.len(), ids.len());
    r.stats.record_lower_bounds(bounds.len() as u64);
    let store = r.store;
    // An under-full heap's threshold is infinite: nothing is bounded out.
    let bounded_out = |r: &Refiner<'_>, bound| r.filter.bounded_out(bound, r.heap.threshold());
    let mut kept = false;
    for (id, &bound) in ids.clone().zip(&bounds) {
        if !bounded_out(r, bound) {
            store.prefetch(id as usize);
            kept = true;
        }
    }
    if !kept {
        return Ok(());
    }
    // Fault checkpoint for the payload read, keyed by the leaf's first
    // series so an injected fault is stable per leaf.
    store.try_access(first as u64)?;
    r.stats.record_leaf_visit();
    let leaf_bytes = (ids.len() * store.series_bytes()) as u64;
    let pages = leaf_bytes.div_ceil(store.page_bytes() as u64).max(1);
    r.stats.record_io(pages - 1, 1, leaf_bytes);
    let mut kernel = EarlyAbandon(|values: &[f32], threshold| {
        squared_euclidean_early_abandon(query.values(), values, threshold)
    });
    for (id, &bound) in ids.zip(&bounds) {
        if r.should_stop() {
            break;
        }
        if bounded_out(r, bound) {
            continue;
        }
        let series = store.dataset().series(id as usize);
        if let Some(distance) = r.refine(id as usize, bound, series.values(), &mut kernel, None) {
            debug_assert!(
                !(node_bound.is_finite() && distance.is_finite())
                    || r.filter.floor(node_bound) <= distance,
                "series {id}: its leaf's bound {node_bound} is above its distance {distance}"
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::{Budget, Dataset, Error, Guarantee, Series};
    use std::cell::RefCell;

    const LEN: usize = 8;

    enum Kind {
        Leaf(Vec<u32>),
        Internal(Vec<usize>),
    }

    /// A hand-built tree whose bounds are data, not a summarization: node
    /// `i` is bounded by `bounds[i]` and series `j` by `entry_bounds[j]`
    /// whatever the query.
    struct Toy {
        store: DatasetStore,
        nodes: Vec<Kind>,
        bounds: Vec<f64>,
        entry_bounds: Vec<f64>,
        seed: Seed,
        /// Every node id `node()` was asked for, in call order.
        looked_up: RefCell<Vec<usize>>,
    }

    impl BestFirstTree for Toy {
        type Probe<'q> = ();
        const NAME: &'static str = "toy";

        fn store(&self) -> &DatasetStore {
            &self.store
        }
        fn probe(&self, _: &[f32]) {}
        fn seed(&self, _: &(), _: AnswerMode, _: &mut QueryStats) -> Seed {
            self.seed
        }
        fn push_roots(&self, _: &(), frontier: &mut Frontier, _: &mut QueryStats) {
            frontier.push(0, 0.0);
        }
        fn node(
            &self,
            id: usize,
        ) -> Node<impl ExactSizeIterator<Item = u32> + Clone + '_, impl Iterator<Item = usize> + '_>
        {
            self.looked_up.borrow_mut().push(id);
            match &self.nodes[id] {
                Kind::Leaf(ids) => Node::Leaf(ids.iter().copied()),
                Kind::Internal(children) => Node::Internal(children.iter().copied()),
            }
        }
        fn bound(&self, id: usize, _: &()) -> f64 {
            self.bounds[id]
        }
        fn entry_bounds(&self, id: usize, _: &()) -> Vec<f64> {
            match &self.nodes[id] {
                Kind::Leaf(ids) => ids.iter().map(|&i| self.entry_bounds[i as usize]).collect(),
                Kind::Internal(_) => Vec::new(),
            }
        }
    }

    /// Series `i` is the constant `levels[i]`, so its distance to a constant
    /// query `q` is `|levels[i] - q| * sqrt(LEN)`.
    fn toy(levels: &[f32], nodes: Vec<Kind>, bounds: Vec<f64>, seed: Seed) -> Toy {
        let flat = levels.iter().flat_map(|&v| [v; LEN]).collect();
        toy_of(flat, nodes, bounds, seed)
    }

    /// A toy over explicit series, `LEN` values each, every entry bound 0.
    fn toy_of(flat: Vec<f32>, nodes: Vec<Kind>, bounds: Vec<f64>, seed: Seed) -> Toy {
        let store = DatasetStore::new(Dataset::from_flat(flat, LEN));
        Toy {
            entry_bounds: vec![0.0; store.len()],
            store,
            nodes,
            bounds,
            seed,
            looked_up: RefCell::new(Vec::new()),
        }
    }

    fn constant_query(level: f32, k: usize) -> Query {
        Query::knn(Series::new(vec![level; LEN]), k)
    }

    fn ids(answers: &AnswerSet) -> Vec<usize> {
        answers.iter().map(|a| a.id).collect()
    }

    /// A root over four leaves of two series each, every bound tied at 0.
    fn flat_toy(seed: Seed) -> Toy {
        toy(
            &[10.0, 11.0, 20.0, 21.0, 30.0, 31.0, 1.0, 2.0],
            vec![
                Kind::Internal(vec![1, 2, 3, 4]),
                Kind::Leaf(vec![0, 1]),
                Kind::Leaf(vec![2, 3]),
                Kind::Leaf(vec![4, 5]),
                Kind::Leaf(vec![6, 7]),
            ],
            vec![0.0; 5],
            seed,
        )
    }

    #[test]
    fn tied_bounds_pop_in_the_heaps_push_order_and_every_child_is_counted() {
        let tree = flat_toy(Seed::default());
        let mut stats = QueryStats::default();
        let answers = search(&tree, &constant_query(0.0, 1), &mut stats).unwrap();
        assert_eq!(ids(&answers), vec![6]);
        assert_eq!(answers.guarantee(), Guarantee::Exact);
        // Four entries pushed 1, 2, 3, 4 on equal bounds: the binary heap
        // pops them 1, 3, 2, 4. A tie-break on anything else (node id,
        // insertion sequence) would reorder leaf visits and with them every
        // early-abandon counter of the real trees.
        assert_eq!(*tree.looked_up.borrow(), vec![0, 1, 3, 2, 4]);
        // 8 series in 4 one-page leaves, 1 internal node, 4 child bounds
        // plus 8 (zero) entry bounds; only the first series of leaves 1 and
        // 4 improves the best-so-far.
        let leaf_bytes = (2 * LEN * 4) as u64;
        assert_eq!(
            stats.work_counters(),
            [8, 12, 4, 1, 6, 0, 4, 4 * leaf_bytes]
        );
    }

    #[test]
    fn a_skipped_seed_is_scanned_once_and_an_unskipped_one_twice() {
        let query = constant_query(0.0, 2);
        let once = flat_toy(Seed {
            leaf: Some(2),
            skip: Some(2),
        });
        let twice = flat_toy(Seed {
            leaf: Some(2),
            skip: None,
        });
        let (mut s1, mut s2) = (QueryStats::default(), QueryStats::default());
        let a1 = search(&once, &query, &mut s1).unwrap();
        let a2 = search(&twice, &query, &mut s2).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(ids(&a1), vec![6, 7]);
        assert_eq!((s1.leaves_visited, s2.leaves_visited), (4, 5));
        assert_eq!((s1.raw_series_examined, s2.raw_series_examined), (8, 10));
        // The rescan bounds the seed's two entries again.
        assert_eq!(s1.lower_bounds_computed + 2, s2.lower_bounds_computed);
        // ng-approximate: the seed leaf is the whole answer either way.
        let ng = query.clone().with_mode(AnswerMode::NgApproximate);
        let mut stats = QueryStats::default();
        let answers = search(&twice, &ng, &mut stats).unwrap();
        assert_eq!(ids(&answers), vec![2, 3]);
        assert_eq!(answers.guarantee(), Guarantee::None);
        assert_eq!(stats.work_counters()[..4], [2, 2, 1, 0]);
    }

    #[test]
    fn a_leaf_whose_entries_are_all_bounded_out_costs_no_page_and_no_visit() {
        let query = constant_query(0.0, 1);
        let plain = flat_toy(Seed::default());
        let mut bounded = flat_toy(Seed::default());
        // Leaf 1 (levels 10, 11) seeds the best-so-far at 10·√8. Then leaf 3
        // (levels 30, 31) is bounded out whole, and in leaf 2 (levels 20,
        // 21) only series 3 is; each of these bounds is the true distance.
        for id in [3, 4, 5] {
            bounded.entry_bounds[id] = [0.0, 0.0, 0.0, 21.0, 30.0, 31.0][id] * (LEN as f64).sqrt();
        }
        let mut plain_stats = QueryStats::default();
        let expected = search(&plain, &query, &mut plain_stats).unwrap();
        let mut stats = QueryStats::default();
        let answers = search(&bounded, &query, &mut stats).unwrap();
        assert_eq!(answers, expected);
        assert_eq!(answers.guarantee(), Guarantee::Exact);
        let leaf_bytes = (2 * LEN * 4) as u64;
        // Same 4 + 8 bounds; one leaf and three series fewer, one of them an
        // early abandon.
        assert_eq!(
            plain_stats.work_counters(),
            [8, 12, 4, 1, 6, 0, 4, 4 * leaf_bytes]
        );
        assert_eq!(
            stats.work_counters(),
            [5, 12, 3, 1, 3, 0, 3, 3 * leaf_bytes]
        );
    }

    #[test]
    fn entry_bounds_as_tight_as_the_true_distance_never_drop_an_answer() {
        // 24 series [1.2; 7] ++ [b], b shrinking with the id, so the series
        // scanned last are the nearest to the zero query — all within 2⁻³⁰
        // of each other. Each entry's bound is its true distance as an f32
        // summary stores it (the EAPCA σ against a constant query): rounded
        // up by ~2⁻²⁵, past every farther series. Pruning on `bound ≥ bsf`
        // would keep the first five scanned; the slack keeps the true five.
        let b0 = 0.001f32.to_bits();
        let flat: Vec<f32> = (0..24u32)
            .flat_map(|id| {
                let mut series = [1.2f32; LEN];
                series[LEN - 1] = f32::from_bits(b0 + (23 - id) * 4096);
                series
            })
            .collect();
        let mut nodes = vec![Kind::Internal((1..=6).collect())];
        nodes.extend((0..6).map(|l| Kind::Leaf((l * 4..l * 4 + 4).collect())));
        // Leaf bounds rise with the leaf, so leaves are scanned in id order.
        let leaf_bounds = (0..7).map(|l| l as f64 / 10.0).collect();
        let mut tree = toy_of(flat, nodes, leaf_bounds, Seed::default());
        let query = constant_query(0.0, 5);
        let distance = |tree: &Toy, id: usize| {
            let series = tree.store.dataset().series(id);
            squared_euclidean_early_abandon(query.values(), series.values(), f64::INFINITY)
                .unwrap()
                .sqrt()
        };
        let distances: Vec<f64> = (0..24).map(|id| distance(&tree, id)).collect();
        tree.entry_bounds = distances.iter().map(|&d| f64::from(d as f32)).collect();
        assert!(
            (1..24).all(|id| distances[id] < distances[id - 1])
                && tree.entry_bounds.iter().all(|&bound| bound > distances[0]),
            "every bound must round up past every distance"
        );
        let truth: Vec<u64> = distances[19..].iter().rev().map(|d| d.to_bits()).collect();
        let answers = search(&tree, &query, &mut QueryStats::default()).unwrap();
        let got: Vec<u64> = answers.iter().map(|a| a.distance.to_bits()).collect();
        assert_eq!(got, truth);
        assert_eq!(ids(&answers), vec![23, 22, 21, 20, 19]);
    }

    #[test]
    fn a_full_heap_at_distance_zero_refines_no_entry_bounded_at_zero() {
        // Four copies of the query: the first one refined fills the heap at
        // threshold 0. The others, bounded at 0, are bounded out, and so is
        // the second leaf (`bound ≥ bsf`).
        let tree = toy(
            &[3.0; 4],
            vec![
                Kind::Internal(vec![1, 2]),
                Kind::Leaf(vec![0, 1]),
                Kind::Leaf(vec![2, 3]),
            ],
            vec![0.0; 3],
            Seed::default(),
        );
        let mut stats = QueryStats::default();
        let answers = search(&tree, &constant_query(3.0, 1), &mut stats).unwrap();
        assert_eq!(ids(&answers), vec![0]);
        assert_eq!(answers.guarantee(), Guarantee::Exact);
        assert_eq!(stats.raw_series_examined, 1);
        assert_eq!(stats.leaves_visited, 1);
    }

    #[test]
    fn a_zero_shrink_still_fills_the_heap_before_it_bounds_out() {
        // δ = the least subnormal over 1 + ε = 2 underflows to a shrink of
        // 0, so every bound reaches the limit `bsf · 0` once the heap is
        // full. An under-full heap's threshold is +∞, and +∞ · 0 is NaN,
        // which no floor reaches: the first k entries are still refined.
        let mode = AnswerMode::DeltaEpsilon {
            delta: f64::from_bits(1),
            epsilon: 1.0,
        };
        assert_eq!(mode.prune_shrink(), 0.0);
        let tree = flat_toy(Seed::default());
        for k in [1, 2, 3] {
            let query = constant_query(0.5, k).with_mode(mode);
            let mut stats = QueryStats::default();
            let answers = search(&tree, &query, &mut stats).unwrap();
            assert_eq!(answers.len(), k, "k = {k}");
            assert_eq!(stats.raw_series_examined, k as u64, "k = {k}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "its leaf's bound")]
    fn a_node_bound_above_a_distance_computed_in_full_fails_the_debug_assertion() {
        let mut tree = flat_toy(Seed::default());
        // Leaf 4 holds levels 1 and 2, at √8 and 2·√8 from the zero query,
        // yet claims 5: its first series is computed in full below that.
        tree.bounds[4] = 5.0;
        let _ = search(&tree, &constant_query(0.0, 1), &mut QueryStats::default());
    }

    #[test]
    fn a_budget_that_trips_mid_leaf_stops_there_and_tags_the_answer_truncated() {
        let tree = flat_toy(Seed::default());
        let query = constant_query(0.0, 1).with_budget(Some(Budget::raw_reads(3)));
        let mut stats = QueryStats::default();
        let answers = search(&tree, &query, &mut stats).unwrap();
        // Leaf 1 whole, then one series of leaf 3 — whose page is charged in
        // full, as a real read would be.
        assert_eq!(stats.raw_series_examined, 3);
        assert_eq!(stats.leaves_visited, 2);
        assert_eq!(ids(&answers), vec![0]);
        assert_eq!(
            answers.guarantee(),
            Guarantee::Truncated {
                examined_fraction: 3.0 / 8.0
            }
        );
    }

    #[test]
    fn wrong_length_and_range_queries_are_typed_errors_in_that_order() {
        let tree = flat_toy(Seed::default());
        let mut stats = QueryStats::default();
        let short = Query::range(Series::new(vec![0.0; 3]), 1.0);
        assert!(matches!(
            search(&tree, &short, &mut stats),
            Err(Error::LengthMismatch {
                expected: LEN,
                actual: 3
            })
        ));
        let range = Query::range(Series::new(vec![0.0; LEN]), 1.0);
        assert!(matches!(
            search(&tree, &range, &mut stats),
            Err(Error::UnsupportedQuery { method: "toy", .. })
        ));
    }
}
