//! k-NN answer bookkeeping: bounded max-heaps of best-so-far candidates.

use std::cmp::Ordering;
#[expect(
    clippy::disallowed_types,
    reason = "membership tests only; never iterated"
)]
use std::collections::{BinaryHeap, HashSet};

/// A single answer to a similarity query: a series identifier and its
/// (non-squared) Euclidean distance to the query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Answer {
    /// The position of the answering series in the dataset.
    pub id: usize,
    /// Euclidean distance between the query and the answering series.
    pub distance: f64,
}

impl Answer {
    /// Creates an answer.
    pub fn new(id: usize, distance: f64) -> Self {
        Self { id, distance }
    }
}

/// The guarantee an [`AnswerSet`] actually satisfies, attached by the method
/// that produced it (mirrors [`crate::query::AnswerMode`], which describes
/// what the caller *asked* for).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Guarantee {
    /// The answers are the true k nearest neighbours.
    #[default]
    Exact,
    /// No guarantee: the answers come from a single-leaf (ng-approximate)
    /// visit.
    None,
    /// Every answer distance is within a factor `(1 + epsilon)` of the
    /// corresponding exact distance.
    EpsilonBound {
        /// The relative error bound.
        epsilon: f64,
    },
    /// The δ-ε relaxation: the *target* contract is "with probability at
    /// least `delta`, every answer distance is within a factor
    /// `(1 + epsilon)` of exact". The current implementation is a
    /// deterministic stand-in for the sequel's histogram-based early stop —
    /// pruning thresholds are scaled by `delta` (see
    /// [`crate::query::AnswerMode::DeltaEpsilon`]) — so the hard bound it
    /// actually provides is the weaker `(1 + epsilon) / delta` factor, not a
    /// per-query probability. Treat the tag as "ε-relaxed with confidence
    /// knob δ", not as a verified probabilistic guarantee.
    ProbabilisticEpsilonBound {
        /// The confidence level.
        delta: f64,
        /// The relative error bound.
        epsilon: f64,
    },
    /// An anytime answer: the search ran out of its I/O [`crate::query::Budget`]
    /// and returned its best-so-far candidates. The answers are exact over the
    /// fraction of the dataset that was examined, but carry no guarantee about
    /// the rest.
    Truncated {
        /// Fraction of the dataset's raw series that were examined before the
        /// budget was exhausted (in `[0, 1]`).
        examined_fraction: f64,
    },
    /// A degraded scatter-gather answer: only `shards_answered` of
    /// `shards_total` shards contributed (the rest failed or were
    /// circuit-broken), so the answers are a merge over the surviving
    /// partitions only. `inner` is the guarantee that merge satisfies *over
    /// the surviving shards* — e.g. `Partial { inner: Truncated {..} }` for a
    /// deadline-degraded merge that also lost a shard.
    Partial {
        /// Shards whose answers made it into the merge.
        shards_answered: u32,
        /// Shards the query was scattered over.
        shards_total: u32,
        /// What the surviving shards' merge guarantees on its own.
        inner: BaseGuarantee,
    },
}

/// The non-partial core of a [`Guarantee`]: what a merge over the surviving
/// shards guarantees on its own. A separate (still `Copy`) enum rather than a
/// recursive `Box<Guarantee>` inside [`Guarantee::Partial`], so `Guarantee`
/// stays `Copy` — partial degradation composes with every base guarantee but
/// never nests.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum BaseGuarantee {
    /// See [`Guarantee::Exact`].
    #[default]
    Exact,
    /// See [`Guarantee::None`].
    None,
    /// See [`Guarantee::EpsilonBound`].
    EpsilonBound {
        /// The relative error bound.
        epsilon: f64,
    },
    /// See [`Guarantee::ProbabilisticEpsilonBound`].
    ProbabilisticEpsilonBound {
        /// The confidence level.
        delta: f64,
        /// The relative error bound.
        epsilon: f64,
    },
    /// See [`Guarantee::Truncated`].
    Truncated {
        /// Fraction of the surviving shards' raw series that were examined.
        examined_fraction: f64,
    },
}

impl From<BaseGuarantee> for Guarantee {
    fn from(base: BaseGuarantee) -> Self {
        match base {
            BaseGuarantee::Exact => Guarantee::Exact,
            BaseGuarantee::None => Guarantee::None,
            BaseGuarantee::EpsilonBound { epsilon } => Guarantee::EpsilonBound { epsilon },
            BaseGuarantee::ProbabilisticEpsilonBound { delta, epsilon } => {
                Guarantee::ProbabilisticEpsilonBound { delta, epsilon }
            }
            BaseGuarantee::Truncated { examined_fraction } => {
                Guarantee::Truncated { examined_fraction }
            }
        }
    }
}

impl Guarantee {
    /// Whether this guarantee promises the exact answer.
    #[inline]
    pub fn is_exact(&self) -> bool {
        matches!(self, Guarantee::Exact)
    }

    /// The non-partial core of this guarantee: the identity for base
    /// variants, the `inner` for [`Guarantee::Partial`].
    pub fn base(&self) -> BaseGuarantee {
        match *self {
            Guarantee::Exact => BaseGuarantee::Exact,
            Guarantee::None => BaseGuarantee::None,
            Guarantee::EpsilonBound { epsilon } => BaseGuarantee::EpsilonBound { epsilon },
            Guarantee::ProbabilisticEpsilonBound { delta, epsilon } => {
                BaseGuarantee::ProbabilisticEpsilonBound { delta, epsilon }
            }
            Guarantee::Truncated { examined_fraction } => {
                BaseGuarantee::Truncated { examined_fraction }
            }
            Guarantee::Partial { inner, .. } => inner,
        }
    }

    /// Tags `inner` as a partial merge over `shards_answered` of
    /// `shards_total` shards. A full merge (`shards_answered ==
    /// shards_total`) returns `inner` untouched, and an already-partial
    /// `inner` is flattened onto its base — partiality never nests.
    pub fn partial(shards_answered: u32, shards_total: u32, inner: Guarantee) -> Guarantee {
        if shards_answered >= shards_total {
            return inner;
        }
        Guarantee::Partial {
            shards_answered,
            shards_total,
            inner: inner.base(),
        }
    }

    /// Whether an answer carrying `self` may be served where `required` is
    /// the strongest guarantee the request could earn: `self` is equal to or
    /// stronger than `required`.
    ///
    /// The order: [`Guarantee::Exact`] covers everything; an ε bound covers
    /// equal-or-looser ε bounds and their probabilistic relaxations; a
    /// probabilistic bound covers equal-or-looser probabilistic bounds; any
    /// complete answer covers a truncation requirement; everything covers
    /// [`Guarantee::None`]. [`Guarantee::Partial`] covers nothing but an
    /// equal-or-weaker partial tag over the same shard layout — a degraded
    /// answer is never substituted where a full one could be earned.
    pub fn covers(&self, required: &Guarantee) -> bool {
        if matches!(required, Guarantee::None) {
            return true;
        }
        match (*self, *required) {
            (Guarantee::Exact, _) => true,
            (
                Guarantee::EpsilonBound { epsilon: have },
                Guarantee::EpsilonBound { epsilon: want },
            ) => have <= want,
            (
                Guarantee::EpsilonBound { epsilon: have },
                Guarantee::ProbabilisticEpsilonBound { epsilon: want, .. },
            ) => have <= want,
            (
                Guarantee::ProbabilisticEpsilonBound {
                    delta: dh,
                    epsilon: eh,
                },
                Guarantee::ProbabilisticEpsilonBound {
                    delta: dw,
                    epsilon: ew,
                },
            ) => dh >= dw && eh <= ew,
            (
                Guarantee::EpsilonBound { .. } | Guarantee::ProbabilisticEpsilonBound { .. },
                Guarantee::Truncated { .. },
            ) => true,
            (
                Guarantee::Truncated {
                    examined_fraction: have,
                },
                Guarantee::Truncated {
                    examined_fraction: want,
                },
            ) => have >= want,
            (
                Guarantee::Partial {
                    shards_answered: ah,
                    shards_total: th,
                    inner: ih,
                },
                Guarantee::Partial {
                    shards_answered: aw,
                    shards_total: tw,
                    inner: iw,
                },
            ) => th == tw && ah >= aw && Guarantee::from(ih).covers(&Guarantee::from(iw)),
            _ => false,
        }
    }
}

/// The completed answer set of a query, sorted by increasing distance, tagged
/// with the [`Guarantee`] it satisfies.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnswerSet {
    answers: Vec<Answer>,
    guarantee: Guarantee,
}

impl AnswerSet {
    /// Creates an answer set from unsorted answers (guarantee:
    /// [`Guarantee::Exact`]; approximate producers override it with
    /// [`AnswerSet::with_guarantee`]).
    pub fn from_unsorted(mut answers: Vec<Answer>) -> Self {
        answers.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        Self {
            answers,
            guarantee: Guarantee::Exact,
        }
    }

    /// Tags the answer set with the guarantee it satisfies.
    pub fn with_guarantee(mut self, guarantee: Guarantee) -> Self {
        self.guarantee = guarantee;
        self
    }

    /// The guarantee these answers satisfy.
    #[inline]
    pub fn guarantee(&self) -> Guarantee {
        self.guarantee
    }

    /// The answers, sorted by increasing distance (ties broken by id).
    pub fn answers(&self) -> &[Answer] {
        &self.answers
    }

    /// The number of answers.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Whether the answer set is empty.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// The nearest answer, if any.
    pub fn nearest(&self) -> Option<Answer> {
        self.answers.first().copied()
    }

    /// The distance of the k-th (1-based) nearest answer, if present.
    pub fn kth_distance(&self, k: usize) -> Option<f64> {
        if k == 0 {
            return None;
        }
        self.answers.get(k - 1).map(|a| a.distance)
    }

    /// Iterates over the answers.
    pub fn iter(&self) -> impl Iterator<Item = &Answer> {
        self.answers.iter()
    }

    /// Checks that two answer sets agree on distances within `tolerance`.
    ///
    /// Exactness in the paper's sense is about *distances*: two exact methods
    /// may return different series ids when candidates are tied at the same
    /// distance, so comparing ids directly would be too strict.
    pub fn distances_match(&self, other: &AnswerSet, tolerance: f64) -> bool {
        self.len() == other.len()
            && self
                .answers
                .iter()
                .zip(other.answers.iter())
                .all(|(a, b)| (a.distance - b.distance).abs() <= tolerance)
    }

    /// The error ratio of this (approximate) answer set against the `exact`
    /// one: the mean of `approx_distance / exact_distance` over the paired
    /// answer ranks (the sequel study's quality measure; `1.0` means the
    /// approximate answers are in fact exact).
    ///
    /// Pairs where both distances are zero contribute `1.0`; pairs where only
    /// the exact distance is zero contribute `+inf`. Returns `None` when
    /// either set is empty.
    pub fn error_ratio_vs(&self, exact: &AnswerSet) -> Option<f64> {
        let pairs = self.answers.iter().zip(exact.answers.iter());
        let n = self.len().min(exact.len());
        if n == 0 {
            return None;
        }
        let sum: f64 = pairs
            .map(|(a, e)| {
                if e.distance > 0.0 {
                    a.distance / e.distance
                } else if a.distance <= 0.0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            })
            .sum();
        Some(sum / n as f64)
    }
}

impl From<KnnHeap> for AnswerSet {
    fn from(heap: KnnHeap) -> Self {
        heap.into_answer_set()
    }
}

/// Max-heap entry ordered by distance (largest distance on top).
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    distance: f64,
    id: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.distance == other.distance && self.id == other.id
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on distance; ties broken on id for determinism.
        self.distance
            .total_cmp(&other.distance)
            .then(self.id.cmp(&other.id))
    }
}

/// A bounded best-so-far structure for k-NN search.
///
/// Maintains the `k` smallest distances seen so far; [`KnnHeap::threshold`]
/// returns the current best-so-far (bsf) pruning distance — the distance of
/// the k-th nearest candidate, or `+inf` while fewer than `k` candidates have
/// been seen.
///
/// Candidates are deduplicated by id: methods that may encounter the same
/// series through several paths (an approximate seeding phase plus an exact
/// traversal, for instance) can offer it repeatedly without corrupting the
/// answer set.
#[derive(Clone, Debug)]
pub struct KnnHeap {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
    #[expect(
        clippy::disallowed_types,
        reason = "duplicate-id guard; never iterated"
    )]
    members: HashSet<usize>,
}

impl KnnHeap {
    /// Creates a heap that keeps the `k` nearest candidates.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            #[expect(
                clippy::disallowed_types,
                reason = "duplicate-id guard; never iterated"
            )]
            members: HashSet::new(),
        }
    }

    /// The `k` this heap was created with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Clears the heap for a new query of `k` neighbours, keeping the heap's
    /// and the membership set's allocations.
    ///
    /// Batch kernels and workload drivers answer many queries back to back;
    /// resetting one heap per worker instead of allocating a fresh
    /// `KnnHeap` (heap buffer + hash set) per query keeps the hot loop
    /// allocation-free. A reset heap behaves exactly like
    /// [`KnnHeap::new(k)`].
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "k must be at least 1");
        self.k = k;
        self.heap.clear();
        self.members.clear();
    }

    /// The number of candidates currently held (at most `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidate has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the heap already holds `k` candidates.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The current best-so-far pruning distance: the k-th nearest distance
    /// seen so far, or `+inf` if fewer than `k` candidates have been offered
    /// — or if the k-th slot is held by a NaN (corrupt) candidate.
    #[inline]
    pub fn threshold(&self) -> f64 {
        if self.is_full() {
            let top = self
                .heap
                .peek()
                .map(|e| e.distance)
                .unwrap_or(f64::INFINITY);
            // A NaN top (a corrupt series admitted while the heap was
            // under-full) must not poison pruning: report "no pruning yet",
            // exactly as if the heap were still under-full, so finite
            // candidates keep being offered and evict the NaN — the heap
            // maximum under `total_cmp`. Every pruning comparison downstream
            // (`lb >= threshold`, `distance < threshold`) then stays
            // conservative without being NaN-aware itself.
            if top.is_nan() {
                f64::INFINITY
            } else {
                top
            }
        } else {
            f64::INFINITY
        }
    }

    /// The squared best-so-far threshold (convenience for squared-distance
    /// kernels). Returns `+inf` when the heap is not yet full.
    #[inline]
    pub fn threshold_squared(&self) -> f64 {
        let t = self.threshold();
        if t.is_finite() {
            t * t
        } else {
            f64::INFINITY
        }
    }

    /// Offers a candidate; it is kept only if it is among the `k` nearest so
    /// far. Returns `true` if the candidate was kept.
    ///
    /// NaN (a corrupt series' distance) is tolerated but can never win: its
    /// sign is normalized so it sorts as the heap maximum under `total_cmp`,
    /// and [`KnnHeap::threshold`] treats a NaN top as "not full yet", so a
    /// NaN admitted while the heap was under-full is evicted by the next
    /// finite candidate and can never displace a finite one.
    pub fn offer(&mut self, id: usize, distance: f64) -> bool {
        debug_assert!(
            distance >= 0.0 || distance.is_nan(),
            "distances must be non-negative"
        );
        // A negative NaN would sort *below* every finite value under
        // `total_cmp` and masquerade as the best answer forever; force the
        // positive (heap-maximum) representation.
        let distance = if distance.is_nan() {
            f64::NAN
        } else {
            distance
        };
        if self.members.contains(&id) {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry { distance, id });
            self.members.insert(id);
            true
        } else if distance < self.threshold() {
            self.heap.push(HeapEntry { distance, id });
            self.members.insert(id);
            if let Some(evicted) = self.heap.pop() {
                self.members.remove(&evicted.id);
            }
            true
        } else {
            false
        }
    }

    /// Returns `true` if the series `id` is already part of the best-so-far
    /// set (and therefore does not need to be re-examined).
    pub fn contains(&self, id: usize) -> bool {
        self.members.contains(&id)
    }

    /// Returns `true` if a candidate whose lower bound is `lower_bound` could
    /// still enter the answer set (i.e. the bound is below the threshold).
    #[inline]
    pub fn would_accept(&self, lower_bound: f64) -> bool {
        lower_bound < self.threshold() || !self.is_full()
    }

    /// Finalizes the heap into a sorted answer set.
    pub fn into_answer_set(mut self) -> AnswerSet {
        self.take_answer_set()
    }

    /// Drains the heap into a sorted answer set, leaving the heap empty but
    /// with its allocations intact — the companion of [`KnnHeap::reset`] for
    /// loops that answer many queries with one reused heap.
    pub fn take_answer_set(&mut self) -> AnswerSet {
        self.members.clear();
        AnswerSet::from_unsorted(
            self.heap
                .drain()
                .map(|e| Answer::new(e.id, e.distance))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_keeps_k_smallest() {
        let mut h = KnnHeap::new(3);
        for (id, d) in [(0, 5.0), (1, 1.0), (2, 4.0), (3, 2.0), (4, 3.0)] {
            h.offer(id, d);
        }
        let ans = h.into_answer_set();
        let dists: Vec<f64> = ans.iter().map(|a| a.distance).collect();
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
        let ids: Vec<usize> = ans.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![1, 3, 4]);
    }

    #[test]
    fn threshold_is_infinite_until_full() {
        let mut h = KnnHeap::new(2);
        assert_eq!(h.threshold(), f64::INFINITY);
        assert_eq!(h.threshold_squared(), f64::INFINITY);
        h.offer(0, 1.0);
        assert_eq!(h.threshold(), f64::INFINITY);
        h.offer(1, 2.0);
        assert_eq!(h.threshold(), 2.0);
        assert_eq!(h.threshold_squared(), 4.0);
    }

    #[test]
    fn offer_rejects_far_candidates_when_full() {
        let mut h = KnnHeap::new(1);
        assert!(h.offer(0, 1.0));
        assert!(!h.offer(1, 2.0));
        assert!(h.offer(2, 0.5));
        let ans = h.into_answer_set();
        assert_eq!(ans.nearest().unwrap().id, 2);
    }

    #[test]
    fn would_accept_follows_threshold() {
        let mut h = KnnHeap::new(1);
        assert!(h.would_accept(1e12));
        h.offer(0, 3.0);
        assert!(h.would_accept(2.9));
        assert!(!h.would_accept(3.0));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_is_rejected() {
        let _ = KnnHeap::new(0);
    }

    #[test]
    fn nan_admitted_while_underfull_never_poisons_the_heap() {
        // Regression: linear-scan paths offer raw distances, so one corrupt
        // (NaN) series can enter while the heap is under-full. Once the heap
        // fills, the NaN top must not disable admission: the threshold stays
        // +inf, finite candidates keep flowing in, and the NaN is evicted
        // first.
        let mut h = KnnHeap::new(2);
        assert!(h.offer(0, f64::NAN));
        assert!(h.offer(1, 5.0));
        assert!(h.is_full());
        assert_eq!(h.threshold(), f64::INFINITY, "NaN top must not prune");
        assert_eq!(h.threshold_squared(), f64::INFINITY);
        assert!(h.would_accept(1e12));
        assert!(h.offer(2, 3.0), "a finite candidate must evict the NaN");
        assert!(!h.contains(0));
        assert_eq!(h.threshold(), 5.0, "pruning resumes once the NaN is gone");
        let ans = h.into_answer_set();
        let ids: Vec<usize> = ans.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![2, 1]);
        assert!(ans.iter().all(|a| a.distance.is_finite()));
    }

    #[test]
    fn nan_never_displaces_a_finite_candidate() {
        let mut h = KnnHeap::new(1);
        assert!(h.offer(0, 5.0));
        assert!(!h.offer(1, f64::NAN));
        assert_eq!(h.into_answer_set().nearest().unwrap().id, 0);
    }

    #[test]
    fn negative_nan_is_normalized_before_insertion() {
        // Unnormalized, -NaN sorts below every finite value under `total_cmp`
        // and would be kept as the "best" answer forever.
        let neg_nan = -f64::NAN;
        assert!(neg_nan.is_sign_negative());
        let mut h = KnnHeap::new(1);
        assert!(h.offer(0, neg_nan));
        assert!(h.offer(1, 2.0), "a finite candidate must displace -NaN");
        let ans = h.into_answer_set();
        assert_eq!(ans.nearest().unwrap().id, 1);
        assert_eq!(ans.nearest().unwrap().distance, 2.0);
    }

    #[test]
    fn answer_set_sorting_and_accessors() {
        let set = AnswerSet::from_unsorted(vec![
            Answer::new(7, 2.0),
            Answer::new(1, 0.5),
            Answer::new(3, 1.0),
        ]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert_eq!(set.nearest().unwrap().id, 1);
        assert_eq!(set.kth_distance(1), Some(0.5));
        assert_eq!(set.kth_distance(3), Some(2.0));
        assert_eq!(set.kth_distance(4), None);
        assert_eq!(set.kth_distance(0), None);
    }

    #[test]
    fn answer_set_tie_break_by_id() {
        let set = AnswerSet::from_unsorted(vec![Answer::new(9, 1.0), Answer::new(2, 1.0)]);
        let ids: Vec<usize> = set.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![2, 9]);
    }

    #[test]
    fn distances_match_tolerates_small_differences() {
        let a = AnswerSet::from_unsorted(vec![Answer::new(0, 1.0), Answer::new(1, 2.0)]);
        let b = AnswerSet::from_unsorted(vec![Answer::new(5, 1.0 + 1e-9), Answer::new(6, 2.0)]);
        assert!(a.distances_match(&b, 1e-6));
        let c = AnswerSet::from_unsorted(vec![Answer::new(5, 1.5)]);
        assert!(!a.distances_match(&c, 1e-6));
    }

    #[test]
    fn duplicate_ids_are_ignored() {
        let mut h = KnnHeap::new(3);
        assert!(h.offer(7, 1.0));
        assert!(!h.offer(7, 1.0), "re-offering the same id must be a no-op");
        assert!(h.contains(7));
        assert!(!h.contains(8));
        h.offer(8, 2.0);
        h.offer(9, 3.0);
        // 7 is evicted once three closer candidates arrive.
        h.offer(1, 0.1);
        h.offer(2, 0.2);
        h.offer(3, 0.3);
        assert!(!h.contains(7));
        let ans = h.into_answer_set();
        let ids: Vec<usize> = ans.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn reset_reuses_a_heap_across_queries() {
        let mut h = KnnHeap::new(2);
        h.offer(0, 1.0);
        h.offer(1, 2.0);
        h.offer(2, 0.5);
        // A reset heap must behave exactly like a fresh one, including a
        // different k and cleared membership.
        h.reset(3);
        assert_eq!(h.k(), 3);
        assert!(h.is_empty());
        assert_eq!(h.threshold(), f64::INFINITY);
        assert!(!h.contains(0), "membership must be cleared");
        for (id, d) in [(5, 4.0), (6, 1.0), (7, 3.0), (8, 2.0)] {
            h.offer(id, d);
        }
        let ids: Vec<usize> = h.into_answer_set().iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![6, 8, 7]);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn reset_rejects_zero_k() {
        KnnHeap::new(1).reset(0);
    }

    #[test]
    fn take_answer_set_drains_without_consuming() {
        let mut h = KnnHeap::new(2);
        h.offer(3, 1.0);
        h.offer(9, 0.5);
        let first = h.take_answer_set();
        assert_eq!(
            first.iter().map(|a| a.id).collect::<Vec<_>>(),
            vec![9, 3],
            "drained in sorted order"
        );
        // The drained heap is immediately reusable.
        assert!(h.is_empty());
        assert!(!h.contains(9));
        h.reset(1);
        h.offer(1, 2.0);
        assert_eq!(h.take_answer_set().nearest().unwrap().id, 1);
    }

    #[test]
    fn heap_conversion_via_from_impl() {
        let mut h = KnnHeap::new(2);
        h.offer(0, 1.0);
        let set: AnswerSet = h.into();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn guarantee_defaults_to_exact_and_tags_travel_with_the_set() {
        let set = AnswerSet::from_unsorted(vec![Answer::new(0, 1.0)]);
        assert_eq!(set.guarantee(), Guarantee::Exact);
        assert!(set.guarantee().is_exact());
        let tagged = set.with_guarantee(Guarantee::EpsilonBound { epsilon: 0.5 });
        assert_eq!(tagged.guarantee(), Guarantee::EpsilonBound { epsilon: 0.5 });
        assert!(!tagged.guarantee().is_exact());
        // The guarantee participates in equality: an approximate set is not
        // "equal" to an exact set with the same distances.
        let exact = AnswerSet::from_unsorted(vec![Answer::new(0, 1.0)]);
        assert_ne!(tagged, exact);
    }

    #[test]
    fn error_ratio_vs_exact() {
        let exact = AnswerSet::from_unsorted(vec![Answer::new(0, 1.0), Answer::new(1, 2.0)]);
        let approx = AnswerSet::from_unsorted(vec![Answer::new(3, 1.5), Answer::new(4, 2.0)]);
        let ratio = approx.error_ratio_vs(&exact).unwrap();
        assert!((ratio - 1.25).abs() < 1e-12);
        // Both zero: counts as exact.
        let z = AnswerSet::from_unsorted(vec![Answer::new(0, 0.0)]);
        assert_eq!(z.error_ratio_vs(&z).unwrap(), 1.0);
        // Only the exact distance zero: infinite error.
        let far = AnswerSet::from_unsorted(vec![Answer::new(9, 3.0)]);
        assert!(far.error_ratio_vs(&z).unwrap().is_infinite());
        // Empty sets have no ratio.
        assert_eq!(AnswerSet::default().error_ratio_vs(&exact), None);
    }

    #[test]
    fn partial_guarantee_flattens_and_round_trips() {
        let inner = Guarantee::Truncated {
            examined_fraction: 0.5,
        };
        let partial = Guarantee::partial(2, 4, inner);
        match partial {
            Guarantee::Partial {
                shards_answered,
                shards_total,
                inner,
            } => {
                assert_eq!((shards_answered, shards_total), (2, 4));
                assert_eq!(Guarantee::from(inner), {
                    Guarantee::Truncated {
                        examined_fraction: 0.5,
                    }
                });
            }
            other => panic!("expected Partial, got {other:?}"),
        }
        // A full merge carries no partial tag.
        assert_eq!(Guarantee::partial(4, 4, inner), inner);
        // Partiality never nests: re-tagging flattens onto the base.
        let renested = Guarantee::partial(1, 4, partial);
        assert_eq!(
            renested,
            Guarantee::Partial {
                shards_answered: 1,
                shards_total: 4,
                inner: BaseGuarantee::Truncated {
                    examined_fraction: 0.5
                },
            }
        );
        // `base()` unwraps the partial tag back to the inner core.
        assert_eq!(Guarantee::from(partial.base()), inner);
        assert_eq!(Guarantee::from(exact_base()), Guarantee::Exact);
    }

    fn exact_base() -> BaseGuarantee {
        Guarantee::Exact.base()
    }

    #[test]
    fn covers_orders_guarantees_by_strength() {
        let exact = Guarantee::Exact;
        let eps = |e: f64| Guarantee::EpsilonBound { epsilon: e };
        let deps = |d: f64, e: f64| Guarantee::ProbabilisticEpsilonBound {
            delta: d,
            epsilon: e,
        };
        let trunc = |f: f64| Guarantee::Truncated {
            examined_fraction: f,
        };
        // Exact covers everything; everything covers None.
        for g in [
            exact,
            eps(0.1),
            deps(0.9, 0.1),
            trunc(0.5),
            Guarantee::None,
            Guarantee::partial(1, 2, exact),
        ] {
            assert!(exact.covers(&g), "Exact must cover {g:?}");
            assert!(g.covers(&Guarantee::None), "{g:?} must cover None");
        }
        // ε bounds: tighter covers looser, and the probabilistic relaxation.
        assert!(eps(0.1).covers(&eps(0.2)));
        assert!(!eps(0.2).covers(&eps(0.1)));
        assert!(eps(0.1).covers(&deps(0.9, 0.1)));
        assert!(!deps(0.9, 0.1).covers(&eps(0.1)), "probabilistic is weaker");
        assert!(deps(0.9, 0.1).covers(&deps(0.8, 0.2)));
        assert!(!deps(0.8, 0.1).covers(&deps(0.9, 0.1)));
        // Truncation: complete answers cover it, wider examination covers
        // narrower, and truncated never covers a complete requirement.
        assert!(eps(0.3).covers(&trunc(0.0)));
        assert!(trunc(0.6).covers(&trunc(0.2)));
        assert!(!trunc(0.2).covers(&trunc(0.6)));
        assert!(!trunc(0.9).covers(&exact));
        // Partial covers nothing but an equal-or-weaker partial tag over the
        // same layout — degraded answers never launder into full ones.
        let p23 = Guarantee::partial(2, 3, exact);
        assert!(!p23.covers(&exact));
        assert!(!p23.covers(&trunc(0.0)));
        assert!(p23.covers(&Guarantee::partial(1, 3, exact)));
        assert!(
            !p23.covers(&Guarantee::partial(1, 4, exact)),
            "layout differs"
        );
        assert!(!Guarantee::partial(1, 3, exact).covers(&p23));
    }
}
