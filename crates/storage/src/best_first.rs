//! One best-first k-NN search, shared by the tree indexes.
//!
//! DSTree, iSAX2+, the SFA trie and the R*-tree all answer a query the same
//! way: summarize the query, seed a best-so-far from one leaf, pop nodes
//! best-first on a lower bound, prune at `bound ≥ bsf · shrink`, and refine
//! leaves with an early-abandoning distance over the leaf's materialized
//! payload. [`search`] is that algorithm, written once; a tree implements
//! [`BestFirstTree`] to supply only what really differs — how it summarizes
//! the query, where it seeds, what it starts from, and a node's children,
//! bound and series ids.
//!
//! With `threads > 1` the same call is the MESSI-style intra-query search:
//! after the seed scan, every leaf the traversal could still reach is
//! evaluated by a worker pool sharing an atomic best-so-far, each worker
//! recording one [`Outcome`] per entry; the traversal — the only part that
//! touches `stats` and the budget — then decides every entry from that
//! evidence through [`replay_outcome`], recomputing only where a worker's
//! threshold was tighter than the serial one. Answers, guarantees and all
//! work counters are therefore the same bits for every thread count.

use crate::DatasetStore;
use hydra_core::distance::squared_euclidean_early_abandon;
use hydra_core::{
    parallel, replay_outcome, AnswerMode, AnswerSet, BudgetMeter, KnnHeap, Outcome, Query,
    QueryStats, Result, RunClock, SharedBsf,
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
    /// The per-query summary the tree bounds its nodes against.
    type Probe<'q>
    where
        Self: 'q;

    /// The method name typed errors carry.
    const NAME: &'static str;

    /// The store the leaves materialize their series from.
    fn store(&self) -> &DatasetStore;

    /// Summarizes the query.
    fn probe<'q>(&self, query: &'q [f32]) -> Self::Probe<'q>;

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
}

/// Per-entry outcomes recorded ahead of the counted traversal, by leaf id.
/// Leaves absent from the record are evaluated directly, so correctness
/// never depends on which leaves were precomputed.
type Recorded = BTreeMap<usize, Vec<Outcome>>;

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
    let clock = RunClock::start();
    let probe = tree.probe(query.values());
    let mut heap = KnnHeap::new(k);
    let mut meter = BudgetMeter::new(query.budget(), store.len());

    let seed = tree.seed(&probe, mode, stats);
    if let Some(Node::Leaf(ids)) = seed.leaf.map(|leaf| tree.node(leaf)) {
        scan_leaf(store, query, ids, None, &mut heap, &mut meter, stats)?;
    }
    // In ng-approximate mode the seed leaf is the whole answer.
    if mode != AnswerMode::NgApproximate {
        // `shrink` is 1 for exact search and `δ/(1+ε)` for the relaxed
        // modes: a node is pruned as soon as its bound reaches
        // `bsf * shrink`, so `ε = 0` is bit-identical to exact search.
        let shrink = mode.prune_shrink();
        let recorded = record(&probe, &heap, seed.skip);
        let mut frontier = Frontier::new();
        tree.push_roots(&probe, &mut frontier, stats);
        while let Some((node, lower_bound)) = frontier.pop() {
            if meter.is_truncated() {
                break; // budget exhausted: keep the best-so-far
            }
            if heap.is_full() && lower_bound >= heap.threshold() * shrink {
                break; // everything else in the frontier is at least as far
            }
            match tree.node(node) {
                Node::Leaf(ids) => {
                    if Some(node) != seed.skip {
                        let evidence = recorded.get(&node).map(Vec::as_slice);
                        scan_leaf(store, query, ids, evidence, &mut heap, &mut meter, stats)?;
                    }
                }
                Node::Internal(children) => {
                    stats.record_internal_visit();
                    for child in children {
                        let bound = tree.bound(child, &probe);
                        stats.record_lower_bounds(1);
                        if !heap.is_full() || bound < heap.threshold() * shrink {
                            frontier.push(child, bound);
                        }
                    }
                }
            }
        }
    }
    stats.cpu_time += clock.elapsed();
    let guarantee = meter.guarantee(mode.guarantee(), stats.raw_series_examined);
    Ok(heap.into_answer_set().with_guarantee(guarantee))
}

/// Refines one leaf against the best-so-far, charging one random access plus
/// sequential pages for its materialized payload. With `recorded` evidence
/// each entry is decided through [`replay_outcome`] instead of the kernel;
/// counters and I/O charges are identical either way.
fn scan_leaf(
    store: &DatasetStore,
    query: &Query,
    ids: impl ExactSizeIterator<Item = u32>,
    recorded: Option<&[Outcome]>,
    heap: &mut KnnHeap,
    meter: &mut BudgetMeter,
    stats: &mut QueryStats,
) -> Result<()> {
    let mut ids = ids.peekable();
    // An empty leaf has no payload: nothing to read, nothing to count.
    let Some(&first) = ids.peek() else {
        return Ok(());
    };
    // Fault checkpoint for the payload read, keyed by the leaf's first
    // series so an injected fault is stable per leaf.
    store.try_access(first as u64)?;
    stats.record_leaf_visit();
    let leaf_bytes = (ids.len() * store.series_bytes()) as u64;
    let pages = leaf_bytes.div_ceil(store.page_bytes() as u64).max(1);
    stats.record_io(pages - 1, 1, leaf_bytes);
    let dataset = store.dataset();
    for (i, id) in ids.enumerate() {
        if meter.should_stop(stats.raw_series_examined, !heap.is_empty()) {
            break;
        }
        stats.record_raw_series_examined(1);
        let series = dataset.series(id as usize);
        let kernel = |threshold: f64| {
            squared_euclidean_early_abandon(query.values(), series.values(), threshold)
        };
        let result = match recorded {
            Some(outcomes) => replay_outcome(outcomes[i], heap.threshold_squared(), kernel),
            None => kernel(heap.threshold_squared()),
        };
        match result {
            Some(sq) => {
                heap.offer(id as usize, sq.sqrt());
            }
            None => stats.record_early_abandon(),
        }
    }
    Ok(())
}

/// Evaluates, on `threads` workers, every leaf the traversal could still
/// scan after the seed: the traversal's threshold only tightens below the
/// seeded one, so a leaf whose bound already reaches `seeded · shrink` is
/// provably never scanned (while the seeded heap is not full nothing is
/// provable and every leaf is a candidate). Each worker starts from a clone
/// of the seeded heap and abandons against the tighter of its own threshold
/// and the shared best-so-far; its thresholds may be stale or tighter than
/// the traversal's, which [`replay_outcome`] reconciles.
fn fan_out<T: BestFirstTree>(
    tree: &T,
    query: &Query,
    probe: &T::Probe<'_>,
    seeded: &KnnHeap,
    skip: Option<usize>,
    threads: usize,
) -> Recorded {
    let limit = seeded.threshold() * query.mode().prune_shrink();
    let candidates: Vec<usize> = (0..tree.num_nodes())
        .filter(|&id| Some(id) != skip)
        .filter(|&id| matches!(tree.node(id), Node::Leaf(ids) if ids.len() > 0))
        .filter(|&id| !seeded.is_full() || tree.bound(id, probe) < limit)
        .collect();
    let dataset = tree.store().dataset();
    let bsf = SharedBsf::new(seeded.threshold_squared());
    let per_leaf: Vec<Vec<Outcome>> = parallel::map_indexed(candidates.len(), threads, |ci| {
        let Node::Leaf(ids) = tree.node(candidates[ci]) else {
            return Vec::new();
        };
        let mut local = seeded.clone();
        ids.map(|id| {
            let threshold = local.threshold_squared().min(bsf.get());
            let series = dataset.series(id as usize);
            match squared_euclidean_early_abandon(query.values(), series.values(), threshold) {
                Some(sq) => {
                    local.offer(id as usize, sq.sqrt());
                    bsf.update_min(local.threshold_squared());
                    Outcome::Computed(sq)
                }
                None => Outcome::Abandoned { threshold },
            }
        })
        .collect()
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
    /// `i` is bounded by `bounds[i]` whatever the query.
    struct Toy {
        store: DatasetStore,
        nodes: Vec<Kind>,
        bounds: Vec<f64>,
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
    }

    /// Series `i` is the constant `levels[i]`, so its distance to a constant
    /// query `q` is `|levels[i] - q| * sqrt(LEN)`.
    fn toy(levels: &[f32], nodes: Vec<Kind>, bounds: Vec<f64>, seed: Seed) -> Toy {
        let flat = levels.iter().flat_map(|&v| [v; LEN]).collect();
        Toy {
            store: DatasetStore::new(Dataset::from_flat(flat, LEN)),
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
        // 8 series in 4 one-page leaves, 1 internal node, 4 child bounds;
        // only the first series of leaves 1 and 4 improves the best-so-far.
        let leaf_bytes = (2 * LEN * 4) as u64;
        assert_eq!(stats.work_counters(), [8, 4, 4, 1, 6, 0, 4, 4 * leaf_bytes]);
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
        assert_eq!(s1.lower_bounds_computed, s2.lower_bounds_computed);
        // ng-approximate: the seed leaf is the whole answer either way.
        let ng = query.clone().with_mode(AnswerMode::NgApproximate);
        let mut stats = QueryStats::default();
        let answers = search(&twice, &ng, 1, &mut stats).unwrap();
        assert_eq!(ids(&answers), vec![2, 3]);
        assert_eq!(answers.guarantee(), Guarantee::None);
        assert_eq!(stats.work_counters()[..4], [2, 0, 1, 0]);
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
        let (tree, leaves) = bushy_toy(seed);
        for query in [
            constant_query(42.0, 3),
            constant_query(42.0, 3).with_mode(AnswerMode::EpsilonApproximate { epsilon: 0.5 }),
            constant_query(7.0, 1).with_budget(Some(Budget::raw_reads(12))),
        ] {
            let mut direct_stats = QueryStats::default();
            let direct = search(&tree, &query, 1, &mut direct_stats).unwrap();
            assert!(direct_stats.early_abandons > 0, "the evidence must matter");

            let dataset = tree.store.dataset();
            let true_sq = |id: u32| {
                let series = dataset.series(id as usize);
                squared_euclidean_early_abandon(query.values(), series.values(), f64::INFINITY)
                    .unwrap()
            };
            let record = |outcome: &dyn Fn(u32) -> Outcome, keep: &dyn Fn(usize) -> bool| {
                leaves
                    .iter()
                    .enumerate()
                    .filter(|(l, _)| keep(*l))
                    .map(|(l, ids)| (l + 3, ids.iter().map(|&id| outcome(id)).collect()))
                    .collect::<Recorded>()
            };
            // A worker far ahead of the traversal: it abandoned everything
            // against a threshold tighter than any the traversal will hold.
            let tighter = |id| Outcome::Abandoned {
                threshold: true_sq(id) / 4.0,
            };
            // A worker far behind: it abandoned only just, or never.
            let stale = |id| Outcome::Abandoned {
                threshold: f64::from_bits(true_sq(id).to_bits() - 1),
            };
            let never = |id| Outcome::Computed(true_sq(id));
            let all = |_: usize| true;
            let odd = |l: usize| l % 2 == 1;
            let records = [
                record(&tighter, &all),
                record(&stale, &all),
                record(&never, &all),
                record(&stale, &odd),
                record(&tighter, &|_| false),
            ];
            for (ri, recorded) in records.into_iter().enumerate() {
                let mut stats = QueryStats::default();
                let replayed = search_with(&tree, &query, &mut stats, |_, _, _| recorded).unwrap();
                assert_eq!(replayed, direct, "record {ri}");
                assert_eq!(
                    stats.work_counters(),
                    direct_stats.work_counters(),
                    "record {ri}"
                );
            }
            for threads in [2, 3] {
                let mut stats = QueryStats::default();
                let fanned = search(&tree, &query, threads, &mut stats).unwrap();
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
        assert!(recorded.values().all(|outcomes| outcomes.len() == 5));
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
