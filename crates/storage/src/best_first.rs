//! One best-first k-NN search, shared by the tree indexes.
//!
//! DSTree, iSAX2+, the SFA trie and the R*-tree all answer a query the same
//! way: summarize the query, seed a best-so-far from one leaf, pop nodes
//! best-first on a lower bound, prune at `bound ≥ bsf · shrink`, and refine
//! leaves with an early-abandoning distance over the leaf's materialized
//! payload. [`search`] is that algorithm, written once; a tree implements
//! [`BestFirstTree`] to supply only what really differs — how it summarizes
//! the query, where it seeds, what it starts from, a node's children, bound
//! and series ids, and each leaf entry's bound.
//!
//! Every leaf scan filters before it reads, as in Hercules and MESSI: each
//! entry is first bounded from the per-series summary the leaf already
//! stores (EAPCA, SAX word, SFA word or PAA point; counted as a lower
//! bound), and an entry whose bound — less the `ENTRY_SLACK` that covers
//! the `f32` rounding of those summaries — reaches `bsf · shrink` is never
//! refined and never counted as raw. A leaf whose every entry is bounded out
//! is not read at all: no page, no leaf visit, no fault checkpoint.
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
//! With `threads > 1` the same call is the MESSI-style intra-query search:
//! after the seed scan, every leaf the traversal could still reach is
//! bounded and evaluated by a worker pool sharing an atomic best-so-far,
//! each worker recording the leaf's entry bounds and one [`Outcome`] per
//! entry it did not bound out; the traversal — the only part that touches
//! `stats` and the budget — then decides every entry from that evidence
//! through [`hydra_core::replay_outcome`], recomputing only where a
//! worker's threshold was tighter than the serial one. Answers, guarantees
//! and all work counters are therefore the same bits for every thread
//! count.
//!
//! The query frame (clock, heap, budget, guarantee) and the per-entry
//! refine step are the scan-side driver's, [`crate::refine`], so the two
//! drivers differ only in how they order candidates.

use crate::refine::{self, EarlyAbandon, Refiner};
use crate::DatasetStore;
use hydra_core::distance::squared_euclidean_early_abandon;
use hydra_core::{
    parallel, AnswerMode, AnswerSet, KnnHeap, Outcome, Query, QueryStats, Result, SharedBsf,
};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

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
pub trait BestFirstTree: Sync {
    /// The per-query summary the tree bounds its nodes and entries against
    /// (shared with the fan-out's workers).
    type Probe<'q>: Sync
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

    /// The number of nodes; node ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// The payload of node `id`.
    fn node(
        &self,
        id: usize,
    ) -> Node<impl ExactSizeIterator<Item = u32> + '_, impl Iterator<Item = usize> + '_>;

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

    /// `bound` lowered by the slack: a floor on the exact distance (NaN for
    /// an infinite bound, which is never pruned on).
    pub(crate) fn floor(self, bound: f64) -> f64 {
        bound - ENTRY_SLACK * bound - self.absolute
    }

    /// Whether an entry whose lower bound is `bound` provably cannot come
    /// under `threshold` (a distance, not its square) beyond the mode's
    /// `shrink`.
    fn bounded_out(self, bound: f64, threshold: f64) -> bool {
        self.floor(bound) >= threshold * self.shrink
    }
}

/// What is known about a leaf's entries before the traversal reads it.
#[derive(Debug, Default)]
struct LeafEvidence {
    /// Each entry's lower bound, in scan order.
    bounds: Vec<f64>,
    /// Per entry, what a fan-out worker observed (`None` where it bounded
    /// the entry out); empty when the leaf is evaluated directly.
    outcomes: Vec<Option<Outcome>>,
}

/// Evidence recorded ahead of the counted traversal, by leaf id. Leaves
/// absent from the record are bounded and evaluated directly, so
/// correctness never depends on which leaves were precomputed.
type Recorded = BTreeMap<usize, LeafEvidence>;

/// Answers `query` over `tree` in its requested mode with `threads` workers
/// (`1` is the serial search), recording the work counters into `stats`.
pub fn search<T: BestFirstTree>(
    tree: &T,
    query: &Query,
    threads: usize,
    stats: &mut QueryStats,
) -> Result<AnswerSet> {
    search_with(tree, query, stats, |probe, seeded, skip| {
        if threads > 1 {
            fan_out(tree, query, probe, seeded, skip, threads)
        } else {
            Recorded::new()
        }
    })
}

/// [`search`] with the evidence for the traversal's leaf scans supplied by
/// `record`, called once after the seed scan with the probe, the seeded heap
/// and the leaf the traversal skips.
fn search_with<T: BestFirstTree>(
    tree: &T,
    query: &Query,
    stats: &mut QueryStats,
    record: impl FnOnce(&T::Probe<'_>, &KnnHeap, Option<usize>) -> Recorded,
) -> Result<AnswerSet> {
    let store = tree.store();
    query.expect_len(store.series_length())?;
    let k = query.knn_k(T::NAME)?;
    let mode = query.mode();
    refine::search(store, query, k, stats, |r| {
        let probe = tree.probe(query.values());
        let direct = |leaf| LeafEvidence {
            bounds: tree.entry_bounds(leaf, &probe),
            outcomes: Vec::new(),
        };
        let seed = tree.seed(&probe, mode, r.stats);
        if let Some(leaf) = seed.leaf {
            if let Node::Leaf(ids) = tree.node(leaf) {
                // The descent computes no bound for the leaf it lands on.
                scan_leaf(r, query, ids, f64::NEG_INFINITY, direct(leaf))?;
            }
        }
        // In ng-approximate mode the seed leaf is the whole answer.
        if mode == AnswerMode::NgApproximate {
            return Ok(());
        }
        // A node is pruned as soon as its bound reaches `bsf * shrink`
        // (`r.limit()`), so `ε = 0` is bit-identical to exact search.
        let mut recorded = record(&probe, &r.heap, seed.skip);
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
                        let evidence = recorded.remove(&node).unwrap_or_else(|| direct(node));
                        scan_leaf(r, query, ids, lower_bound, evidence)?;
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
/// per-candidate step — replaying a worker's recorded outcome where there
/// is one; counters and I/O charges are identical either way. In debug
/// builds the leaf's `node_bound` (−∞ where the traversal computed none),
/// less the slack, is asserted not to exceed any distance computed in full.
fn scan_leaf(
    r: &mut Refiner<'_>,
    query: &Query,
    ids: impl ExactSizeIterator<Item = u32>,
    node_bound: f64,
    evidence: LeafEvidence,
) -> Result<()> {
    let mut ids = ids.peekable();
    // An empty leaf has no payload: nothing to read, nothing to count.
    let Some(&first) = ids.peek() else {
        return Ok(());
    };
    let LeafEvidence { bounds, outcomes } = evidence;
    debug_assert_eq!(bounds.len(), ids.len());
    r.stats.record_lower_bounds(bounds.len() as u64);
    // An under-full heap's threshold is infinite: nothing is bounded out.
    let bounded_out = |r: &Refiner<'_>, bound| r.filter.bounded_out(bound, r.heap.threshold());
    if bounds.iter().all(|&bound| bounded_out(r, bound)) {
        return Ok(());
    }
    // Fault checkpoint for the payload read, keyed by the leaf's first
    // series so an injected fault is stable per leaf.
    let store = r.store;
    store.try_access(first as u64)?;
    r.stats.record_leaf_visit();
    let leaf_bytes = (ids.len() * store.series_bytes()) as u64;
    let pages = leaf_bytes.div_ceil(store.page_bytes() as u64).max(1);
    r.stats.record_io(pages - 1, 1, leaf_bytes);
    let mut kernel = EarlyAbandon(|values: &[f32], threshold| {
        squared_euclidean_early_abandon(query.values(), values, threshold)
    });
    for (i, (id, &bound)) in ids.zip(&bounds).enumerate() {
        if r.should_stop() {
            break;
        }
        if bounded_out(r, bound) {
            continue;
        }
        let series = store.dataset().series(id as usize);
        let outcome = outcomes.get(i).copied().flatten();
        if let Some(distance) = r.refine(id as usize, bound, series.values(), &mut kernel, outcome)
        {
            debug_assert!(
                !(node_bound.is_finite() && distance.is_finite())
                    || r.filter.floor(node_bound) <= distance,
                "series {id}: its leaf's bound {node_bound} is above its distance {distance}"
            );
        }
    }
    Ok(())
}

/// Evaluates, on `threads` workers, every leaf the traversal could still
/// scan after the seed: the traversal's threshold only tightens below the
/// seeded one, so a leaf whose bound already reaches `seeded · shrink` is
/// provably never scanned (while the seeded heap is not full nothing is
/// provable and every leaf is a candidate). Each worker bounds its leaf's
/// entries, starts from a clone of the seeded heap and abandons — or skips
/// an entry outright on its bound — against the tighter of its own
/// threshold and the shared best-so-far; its thresholds may be stale or
/// tighter than the traversal's, which [`hydra_core::replay_outcome`]
/// reconciles (an entry a worker skipped is recomputed if the traversal
/// needs it).
fn fan_out<T: BestFirstTree>(
    tree: &T,
    query: &Query,
    probe: &T::Probe<'_>,
    seeded: &KnnHeap,
    skip: Option<usize>,
    threads: usize,
) -> Recorded {
    let filter = EntryFilter::new(query);
    let limit = seeded.threshold() * filter.shrink;
    let candidates: Vec<usize> = (0..tree.num_nodes())
        .filter(|&id| Some(id) != skip)
        .filter(|&id| matches!(tree.node(id), Node::Leaf(ids) if ids.len() > 0))
        .filter(|&id| !seeded.is_full() || tree.bound(id, probe) < limit)
        .collect();
    let dataset = tree.store().dataset();
    let bsf = SharedBsf::new(seeded.threshold_squared());
    let per_leaf: Vec<LeafEvidence> = parallel::map_indexed(candidates.len(), threads, |ci| {
        let Node::Leaf(ids) = tree.node(candidates[ci]) else {
            return LeafEvidence::default();
        };
        let bounds = tree.entry_bounds(candidates[ci], probe);
        let mut local = seeded.clone();
        let outcomes = ids
            .zip(&bounds)
            .map(|(id, &bound)| {
                let threshold = local.threshold_squared().min(bsf.get());
                if filter.bounded_out(bound, threshold.sqrt()) {
                    return None;
                }
                let series = dataset.series(id as usize).values();
                Some(
                    match squared_euclidean_early_abandon(query.values(), series, threshold) {
                        Some(sq) => {
                            local.offer(id as usize, sq.sqrt());
                            bsf.update_min(local.threshold_squared());
                            Outcome::Computed(sq)
                        }
                        None => Outcome::Abandoned { threshold },
                    },
                )
            })
            .collect();
        LeafEvidence { bounds, outcomes }
    });
    candidates.into_iter().zip(per_leaf).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::{Budget, Dataset, Error, Guarantee, Series};
    use std::sync::Mutex;

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
        looked_up: Mutex<Vec<usize>>,
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
        fn num_nodes(&self) -> usize {
            self.nodes.len()
        }
        fn node(
            &self,
            id: usize,
        ) -> Node<impl ExactSizeIterator<Item = u32> + '_, impl Iterator<Item = usize> + '_>
        {
            self.looked_up.lock().unwrap().push(id);
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
            looked_up: Mutex::new(Vec::new()),
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
        let answers = search(&tree, &constant_query(0.0, 1), 1, &mut stats).unwrap();
        assert_eq!(ids(&answers), vec![6]);
        assert_eq!(answers.guarantee(), Guarantee::Exact);
        // Four entries pushed 1, 2, 3, 4 on equal bounds: the binary heap
        // pops them 1, 3, 2, 4. A tie-break on anything else (node id,
        // insertion sequence) would reorder leaf visits and with them every
        // early-abandon counter of the real trees.
        assert_eq!(*tree.looked_up.lock().unwrap(), vec![0, 1, 3, 2, 4]);
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
        let a1 = search(&once, &query, 1, &mut s1).unwrap();
        let a2 = search(&twice, &query, 1, &mut s2).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(ids(&a1), vec![6, 7]);
        assert_eq!((s1.leaves_visited, s2.leaves_visited), (4, 5));
        assert_eq!((s1.raw_series_examined, s2.raw_series_examined), (8, 10));
        // The rescan bounds the seed's two entries again.
        assert_eq!(s1.lower_bounds_computed + 2, s2.lower_bounds_computed);
        // ng-approximate: the seed leaf is the whole answer either way.
        let ng = query.clone().with_mode(AnswerMode::NgApproximate);
        let mut stats = QueryStats::default();
        let answers = search(&twice, &ng, 1, &mut stats).unwrap();
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
        let expected = search(&plain, &query, 1, &mut plain_stats).unwrap();
        for threads in [1, 3] {
            let mut stats = QueryStats::default();
            let answers = search(&bounded, &query, threads, &mut stats).unwrap();
            assert_eq!(answers, expected);
            assert_eq!(answers.guarantee(), Guarantee::Exact);
            let leaf_bytes = (2 * LEN * 4) as u64;
            // Same 4 + 8 bounds; one leaf and three series fewer, one of
            // them an early abandon.
            assert_eq!(
                plain_stats.work_counters(),
                [8, 12, 4, 1, 6, 0, 4, 4 * leaf_bytes]
            );
            assert_eq!(
                stats.work_counters(),
                [5, 12, 3, 1, 3, 0, 3, 3 * leaf_bytes]
            );
        }
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
        for threads in [1, 3] {
            let mut stats = QueryStats::default();
            let answers = search(&tree, &query, threads, &mut stats).unwrap();
            let got: Vec<u64> = answers.iter().map(|a| a.distance.to_bits()).collect();
            assert_eq!(got, truth, "threads {threads}");
            assert_eq!(ids(&answers), vec![23, 22, 21, 20, 19]);
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
        let _ = search(
            &tree,
            &constant_query(0.0, 1),
            1,
            &mut QueryStats::default(),
        );
    }

    #[test]
    fn a_budget_that_trips_mid_leaf_stops_there_and_tags_the_answer_truncated() {
        let tree = flat_toy(Seed::default());
        let query = constant_query(0.0, 1).with_budget(Some(Budget::raw_reads(3)));
        let mut stats = QueryStats::default();
        let answers = search(&tree, &query, 1, &mut stats).unwrap();
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

    /// Thirty pseudo-random series in six leaves under two internal nodes,
    /// every bound 0 (valid, and maximally tied).
    fn bushy_toy(seed: Seed) -> (Toy, Vec<Vec<u32>>) {
        let mut state = 0x9E37_79B9_u32;
        let levels: Vec<f32> = (0..30)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 8) as f32 / (1 << 24) as f32 * 100.0
            })
            .collect();
        let leaves: Vec<Vec<u32>> = (0..6).map(|l| (l * 5..l * 5 + 5).collect()).collect();
        let mut nodes = vec![
            Kind::Internal(vec![1, 2]),
            Kind::Internal(vec![3, 4, 5]),
            Kind::Internal(vec![6, 7, 8]),
        ];
        nodes.extend(leaves.iter().cloned().map(Kind::Leaf));
        (toy(&levels, nodes, vec![0.0; 9], seed), leaves)
    }

    #[test]
    fn replayed_evidence_however_adversarial_equals_direct_evaluation() {
        let seed = Seed {
            leaf: Some(5),
            skip: Some(5),
        };
        let (mut tree, leaves) = bushy_toy(seed);
        for query in [
            constant_query(42.0, 3),
            constant_query(42.0, 3).with_mode(AnswerMode::EpsilonApproximate { epsilon: 0.5 }),
            constant_query(7.0, 1).with_budget(Some(Budget::raw_reads(12))),
        ] {
            let true_sq = |tree: &Toy, id: u32| {
                let series = tree.store.dataset().series(id as usize);
                squared_euclidean_early_abandon(query.values(), series.values(), f64::INFINITY)
                    .unwrap()
            };
            // Valid entry bounds, loose enough that the kernel still abandons.
            tree.entry_bounds = (0..30).map(|id| true_sq(&tree, id).sqrt() / 4.0).collect();
            let tree = &tree;
            let mut direct_stats = QueryStats::default();
            let direct = search(tree, &query, 1, &mut direct_stats).unwrap();
            assert!(direct_stats.early_abandons > 0, "the evidence must matter");
            assert!(
                direct_stats.raw_series_examined < 25,
                "the entry bounds must matter"
            );

            let true_sq = |id| true_sq(tree, id);
            let record = |outcome: &dyn Fn(u32) -> Option<Outcome>,
                          keep: &dyn Fn(usize) -> bool| {
                leaves
                    .iter()
                    .enumerate()
                    .filter(|(l, _)| keep(*l))
                    .map(|(l, ids)| {
                        let evidence = LeafEvidence {
                            bounds: tree.entry_bounds(l + 3, &()),
                            outcomes: ids.iter().map(|&id| outcome(id)).collect(),
                        };
                        (l + 3, evidence)
                    })
                    .collect::<Recorded>()
            };
            // A worker far ahead of the traversal: it abandoned everything
            // against a threshold tighter than any the traversal will hold.
            let tighter = |id| {
                Some(Outcome::Abandoned {
                    threshold: true_sq(id) / 4.0,
                })
            };
            // A worker far behind: it abandoned only just, or never.
            let stale = |id| {
                Some(Outcome::Abandoned {
                    threshold: f64::from_bits(true_sq(id).to_bits() - 1),
                })
            };
            let never = |id| Some(Outcome::Computed(true_sq(id)));
            // A worker that bounded every entry out.
            let skipped = |_| None;
            let all = |_: usize| true;
            let odd = |l: usize| l % 2 == 1;
            let records = [
                record(&tighter, &all),
                record(&stale, &all),
                record(&never, &all),
                record(&skipped, &all),
                record(&stale, &odd),
                record(&tighter, &|_| false),
            ];
            for (ri, recorded) in records.into_iter().enumerate() {
                let mut stats = QueryStats::default();
                let replayed = search_with(tree, &query, &mut stats, |_, _, _| recorded).unwrap();
                assert_eq!(replayed, direct, "record {ri}");
                assert_eq!(
                    stats.work_counters(),
                    direct_stats.work_counters(),
                    "record {ri}"
                );
            }
            for threads in [2, 3] {
                let mut stats = QueryStats::default();
                let fanned = search(tree, &query, threads, &mut stats).unwrap();
                assert_eq!(fanned, direct, "threads {threads}");
                assert_eq!(stats.work_counters(), direct_stats.work_counters());
            }
        }
    }

    #[test]
    fn the_fan_out_leaves_out_the_skipped_seed_empty_leaves_and_pruned_leaves() {
        let (mut tree, _) = bushy_toy(Seed {
            leaf: Some(3),
            skip: Some(3),
        });
        tree.nodes[4] = Kind::Leaf(Vec::new());
        tree.bounds[8] = f64::INFINITY;
        let query = constant_query(42.0, 2);
        let mut seeded = KnnHeap::new(2);
        seeded.offer(0, 1.0);
        seeded.offer(1, 2.0);
        let recorded = fan_out(&tree, &query, &(), &seeded, tree.seed.skip, 2);
        assert_eq!(recorded.keys().copied().collect::<Vec<_>>(), vec![5, 6, 7]);
        assert!(recorded
            .values()
            .all(|leaf| leaf.bounds.len() == 5 && leaf.outcomes.len() == 5));
        // Until the seeded heap is full nothing is provably pruned.
        let recorded = fan_out(&tree, &query, &(), &KnnHeap::new(2), None, 2);
        assert_eq!(
            recorded.keys().copied().collect::<Vec<_>>(),
            vec![3, 5, 6, 7, 8]
        );
    }

    #[test]
    fn wrong_length_and_range_queries_are_typed_errors_in_that_order() {
        let tree = flat_toy(Seed::default());
        let mut stats = QueryStats::default();
        let short = Query::range(Series::new(vec![0.0; 3]), 1.0);
        assert!(matches!(
            search(&tree, &short, 1, &mut stats),
            Err(Error::LengthMismatch {
                expected: LEN,
                actual: 3
            })
        ));
        let range = Query::range(Series::new(vec![0.0; LEN]), 1.0);
        assert!(matches!(
            search(&tree, &range, 2, &mut stats),
            Err(Error::UnsupportedQuery { method: "toy", .. })
        ));
    }
}
