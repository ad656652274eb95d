//! Similarity query model.
//!
//! The paper (Section 2) distinguishes k-NN queries from r-range queries, and
//! whole-matching (WM) from subsequence-matching (SM). Its companion study —
//! *Return of the Lernaean Hydra* (PVLDB 2019) — additionally distinguishes
//! **answering modes**: the same index can answer a query exactly, or
//! approximately with progressively weaker (but orders-of-magnitude cheaper)
//! guarantees. Both axes are first class here: a [`Query`] carries the series,
//! the kind (k-NN or range), the matching kind, and the [`AnswerMode`] the
//! caller wants, and the whole stack routes on them.

use crate::hash::Fnv1a;
use crate::knn::Guarantee;
use crate::series::Series;
use crate::{Error, Result};
use std::fmt;

/// Whether a query matches whole series or subsequences.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchingKind {
    /// Whole matching: query and candidates have the same length (Def. 3).
    Whole,
    /// Subsequence matching: candidates are longer than the query (Def. 4).
    ///
    /// The study converts SM to WM by chopping long series into overlapping
    /// subsequences; the indexes in this library operate on WM collections.
    Subsequence,
}

/// The kind of similarity query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryKind {
    /// k-nearest-neighbour query (Def. 1).
    Knn {
        /// The number of neighbours to retrieve.
        k: usize,
    },
    /// r-range query (Def. 2): all series within distance `radius`.
    Range {
        /// The (non-squared) Euclidean distance radius.
        radius: f64,
    },
}

/// The answering mode of a query: what guarantee the caller wants and what
/// work the method may skip to provide it (the mode spectrum of the sequel
/// study, Section 2.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AnswerMode {
    /// The true k nearest neighbours (the primary mode of the source paper).
    Exact,
    /// No-guarantees approximate search: visit (at most) the one index leaf
    /// that covers the query's summarization and return its best candidates.
    NgApproximate,
    /// ε-approximate search: every returned distance is within a factor
    /// `(1 + epsilon)` of the corresponding exact distance. Implemented by
    /// relaxed pruning — a node is pruned when its lower bound reaches
    /// `bsf / (1 + ε)` (Def. 5 of the sequel). `epsilon = 0` degenerates to
    /// exact search.
    EpsilonApproximate {
        /// The allowed relative error (≥ 0, finite).
        epsilon: f64,
    },
    /// δ-ε-approximate search: with probability at least `delta` the answer is
    /// an ε-approximation; with probability `1 - delta` the search may stop
    /// even earlier. Implemented as ε-relaxed pruning additionally scaled by
    /// δ (a node is pruned when its lower bound reaches `δ·bsf / (1 + ε)`) —
    /// a deterministic stand-in for the sequel's histogram-based early stop.
    /// `delta = 1` degenerates to plain ε-approximate search.
    DeltaEpsilon {
        /// The confidence level (in `(0, 1]`).
        delta: f64,
        /// The allowed relative error (≥ 0, finite).
        epsilon: f64,
    },
}

impl AnswerMode {
    /// Whether this mode demands the exact answer.
    #[inline]
    pub fn is_exact(&self) -> bool {
        matches!(self, AnswerMode::Exact)
    }

    /// Validates the mode's parameters.
    pub fn validate(&self) -> Result<()> {
        match *self {
            AnswerMode::Exact | AnswerMode::NgApproximate => Ok(()),
            AnswerMode::EpsilonApproximate { epsilon } => validate_epsilon(epsilon),
            AnswerMode::DeltaEpsilon { delta, epsilon } => {
                validate_epsilon(epsilon)?;
                if !(delta.is_finite() && delta > 0.0 && delta <= 1.0) {
                    return Err(Error::invalid_parameter(
                        "delta",
                        format!("must be in (0, 1], got {delta}"),
                    ));
                }
                Ok(())
            }
        }
    }

    /// The factor a method multiplies its best-so-far with before comparing
    /// against a node's lower bound: a node is prunable when
    /// `lower_bound >= bsf * prune_shrink()`.
    ///
    /// `1.0` for exact search (and for the ng descent, which prunes nothing),
    /// `1 / (1 + ε)` for ε-approximate search, `δ / (1 + ε)` for δ-ε search.
    /// With `ε = 0` (and `δ = 1`) the factor is exactly `1.0`, so the relaxed
    /// search is bit-identical to the exact one.
    #[inline]
    pub fn prune_shrink(&self) -> f64 {
        match *self {
            AnswerMode::Exact | AnswerMode::NgApproximate => 1.0,
            AnswerMode::EpsilonApproximate { epsilon } => 1.0 / (1.0 + epsilon),
            AnswerMode::DeltaEpsilon { delta, epsilon } => delta / (1.0 + epsilon),
        }
    }

    /// The guarantee a conforming method provides when answering in this mode.
    pub fn guarantee(&self) -> Guarantee {
        match *self {
            AnswerMode::Exact => Guarantee::Exact,
            AnswerMode::NgApproximate => Guarantee::None,
            AnswerMode::EpsilonApproximate { epsilon } => Guarantee::EpsilonBound { epsilon },
            AnswerMode::DeltaEpsilon { delta, epsilon } => {
                Guarantee::ProbabilisticEpsilonBound { delta, epsilon }
            }
        }
    }

    /// Parses the CLI syntax `exact | ng | eps:<v> | deltaeps:<d>,<e>`.
    pub fn parse(text: &str) -> Result<AnswerMode> {
        let bad = |msg: String| Error::invalid_parameter("mode", msg);
        let mode = match text.trim() {
            "exact" => AnswerMode::Exact,
            "ng" => AnswerMode::NgApproximate,
            other => {
                if let Some(raw) = other.strip_prefix("eps:") {
                    let epsilon = raw
                        .trim()
                        .parse::<f64>()
                        .map_err(|_| bad(format!("invalid epsilon {raw:?}")))?;
                    AnswerMode::EpsilonApproximate { epsilon }
                } else if let Some(raw) = other.strip_prefix("deltaeps:") {
                    let (d, e) = raw
                        .split_once(',')
                        .ok_or_else(|| bad(format!("expected deltaeps:<d>,<e>, got {other:?}")))?;
                    let delta = d
                        .trim()
                        .parse::<f64>()
                        .map_err(|_| bad(format!("invalid delta {d:?}")))?;
                    let epsilon = e
                        .trim()
                        .parse::<f64>()
                        .map_err(|_| bad(format!("invalid epsilon {e:?}")))?;
                    AnswerMode::DeltaEpsilon { delta, epsilon }
                } else {
                    return Err(bad(format!(
                        "unknown mode {other:?} (expected exact | ng | eps:<v> | deltaeps:<d>,<e>)"
                    )));
                }
            }
        };
        mode.validate()?;
        Ok(mode)
    }
}

/// A deadline expressed in deterministic simulated-I/O cost units: the number
/// of raw series a method may examine before it must stop and return its
/// best-so-far answer (tagged [`Guarantee::Truncated`]).
///
/// Budgets are counted in cost-model units rather than wall clock so that
/// budgeted runs stay bit-identical across machines and thread counts. A
/// method never returns an *empty* truncated answer: the first candidate is
/// always examined, even under a zero budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    raw_reads: u64,
}

impl Budget {
    /// A budget of `n` raw series reads.
    pub fn raw_reads(n: u64) -> Self {
        Self { raw_reads: n }
    }

    /// The maximum number of raw series the method may examine.
    #[inline]
    pub fn limit(&self) -> u64 {
        self.raw_reads
    }

    /// Parses the CLI syntax `inf | <count>` (e.g. `--budget 500`).
    pub fn parse(text: &str) -> Result<Option<Budget>> {
        let text = text.trim();
        if text.eq_ignore_ascii_case("inf") {
            return Ok(None);
        }
        text.parse::<u64>()
            .map(|n| Some(Budget::raw_reads(n)))
            .map_err(|_| {
                Error::invalid_parameter(
                    "budget",
                    format!("expected `inf` or a raw-read count, got {text:?}"),
                )
            })
    }
}

/// Tracks a query's [`Budget`] while a method runs: methods call
/// [`BudgetMeter::should_stop`] before examining each raw candidate and
/// [`BudgetMeter::guarantee`] when tagging their answer.
///
/// The meter is *sticky*: once the budget trips, `should_stop` keeps
/// returning `true`, so multi-phase methods (filter + refine) stay stopped.
/// A meter built from `None` never trips, keeping the unbudgeted path
/// bit-identical.
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    limit: u64,
    dataset_size: usize,
    truncated: bool,
}

impl BudgetMeter {
    /// Creates a meter for a query over a dataset of `dataset_size` series.
    pub fn new(budget: Option<Budget>, dataset_size: usize) -> Self {
        Self {
            limit: budget.map_or(u64::MAX, |b| b.limit()),
            dataset_size,
            truncated: false,
        }
    }

    /// Whether the search must stop before examining the next candidate.
    ///
    /// `spent` is the number of raw series examined so far; `have_answer`
    /// guards the non-empty-answer contract — the meter never stops a search
    /// that has produced no candidate yet, so even a zero budget examines
    /// one series.
    #[inline]
    pub fn should_stop(&mut self, spent: u64, have_answer: bool) -> bool {
        if !self.truncated && have_answer && spent >= self.limit {
            self.truncated = true;
        }
        self.truncated
    }

    /// Whether the budget has tripped.
    #[inline]
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// The raw-read limit, or `None` when the meter is unlimited. Lets bulk
    /// readers cap a batched read at the remaining budget.
    #[inline]
    pub fn limit(&self) -> Option<u64> {
        (self.limit != u64::MAX).then_some(self.limit)
    }

    /// The guarantee to tag the answer with: `base` when the search completed,
    /// [`Guarantee::Truncated`] when the budget tripped (`examined` = raw
    /// series examined, reported as a fraction of the dataset).
    pub fn guarantee(&self, base: Guarantee, examined: u64) -> Guarantee {
        if self.truncated {
            Guarantee::Truncated {
                examined_fraction: examined as f64 / self.dataset_size.max(1) as f64,
            }
        } else {
            base
        }
    }
}

fn validate_epsilon(epsilon: f64) -> Result<()> {
    if !(epsilon.is_finite() && epsilon >= 0.0) {
        return Err(Error::invalid_parameter(
            "epsilon",
            format!("must be a non-negative finite value, got {epsilon}"),
        ));
    }
    Ok(())
}

impl fmt::Display for AnswerMode {
    /// Formats the mode in the CLI syntax accepted by [`AnswerMode::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AnswerMode::Exact => write!(f, "exact"),
            AnswerMode::NgApproximate => write!(f, "ng"),
            AnswerMode::EpsilonApproximate { epsilon } => write!(f, "eps:{epsilon}"),
            AnswerMode::DeltaEpsilon { delta, epsilon } => write!(f, "deltaeps:{delta},{epsilon}"),
        }
    }
}

/// A similarity search query: the query series plus what to retrieve and
/// under what answering mode.
#[derive(Clone, Debug)]
pub struct Query {
    series: Series,
    kind: QueryKind,
    matching: MatchingKind,
    mode: AnswerMode,
    budget: Option<Budget>,
}

impl Query {
    /// Creates a whole-matching exact k-NN query, or a typed
    /// [`Error::InvalidParameter`] when `k == 0`.
    pub fn try_knn(series: Series, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(Error::invalid_parameter("k", "must be at least 1"));
        }
        Ok(Self {
            series,
            kind: QueryKind::Knn { k },
            matching: MatchingKind::Whole,
            mode: AnswerMode::Exact,
            budget: None,
        })
    }

    /// Creates a whole-matching exact k-NN query.
    ///
    /// # Panics
    /// Panics if `k == 0`; use [`Query::try_knn`] for a fallible variant.
    #[expect(
        clippy::expect_used,
        reason = "k > 0 asserted above; panic is documented"
    )]
    pub fn knn(series: Series, k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        Self::try_knn(series, k).expect("validated above")
    }

    /// Creates a whole-matching exact 1-NN query (the paper's primary
    /// workload).
    pub fn nearest_neighbor(series: Series) -> Self {
        Self::knn(series, 1)
    }

    /// Creates a whole-matching r-range query, or a typed
    /// [`Error::InvalidParameter`] when `radius` is negative or not finite.
    pub fn try_range(series: Series, radius: f64) -> Result<Self> {
        if !(radius.is_finite() && radius >= 0.0) {
            return Err(Error::invalid_parameter(
                "radius",
                format!("must be a non-negative finite value, got {radius}"),
            ));
        }
        Ok(Self {
            series,
            kind: QueryKind::Range { radius },
            matching: MatchingKind::Whole,
            mode: AnswerMode::Exact,
            budget: None,
        })
    }

    /// Creates a whole-matching r-range query.
    ///
    /// # Panics
    /// Panics if `radius` is negative or not finite; use [`Query::try_range`]
    /// for a fallible variant.
    #[expect(
        clippy::expect_used,
        reason = "radius validated above; panic is documented"
    )]
    pub fn range(series: Series, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "radius must be a non-negative finite value"
        );
        Self::try_range(series, radius).expect("validated above")
    }

    /// The query series.
    #[inline]
    pub fn series(&self) -> &Series {
        &self.series
    }

    /// The query values as a slice.
    #[inline]
    pub fn values(&self) -> &[f32] {
        self.series.values()
    }

    /// The length of the query series.
    #[inline]
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Returns `true` for a zero-length query.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// `Ok` when the query has length `expected` (the indexed series
    /// length), a typed [`Error::LengthMismatch`] otherwise.
    pub fn expect_len(&self, expected: usize) -> Result<()> {
        if self.len() == expected {
            Ok(())
        } else {
            Err(Error::LengthMismatch {
                expected,
                actual: self.len(),
            })
        }
    }

    /// The query kind (k-NN or range).
    #[inline]
    pub fn kind(&self) -> QueryKind {
        self.kind
    }

    /// The matching kind (whole or subsequence).
    #[inline]
    pub fn matching(&self) -> MatchingKind {
        self.matching
    }

    /// The answering mode ([`AnswerMode::Exact`] unless overridden with
    /// [`Query::with_mode`]).
    #[inline]
    pub fn mode(&self) -> AnswerMode {
        self.mode
    }

    /// For a k-NN query, the number of neighbours; `None` for range queries.
    #[inline]
    pub fn k(&self) -> Option<usize> {
        match self.kind {
            QueryKind::Knn { k } => Some(k),
            QueryKind::Range { .. } => None,
        }
    }

    /// The `k` of a k-NN query, or a typed [`Error::UnsupportedQuery`] naming
    /// `method` for range queries.
    ///
    /// Every method in the suite answers k-NN queries only; this is the one
    /// boundary through which they reject range queries (instead of silently
    /// answering a 1-NN query, as the pre-mode API did).
    #[inline]
    pub fn knn_k(&self, method: &'static str) -> Result<usize> {
        self.k().ok_or_else(|| {
            Error::unsupported_query(method, "range queries are not supported; use a k-NN query")
        })
    }

    /// For a range query, the radius; `None` for k-NN queries.
    #[inline]
    pub fn radius(&self) -> Option<f64> {
        match self.kind {
            QueryKind::Knn { .. } => None,
            QueryKind::Range { radius } => Some(radius),
        }
    }

    /// Marks the query as a subsequence-matching query.
    ///
    /// The indexes in this suite answer whole-matching queries; callers that
    /// perform SM-to-WM conversion can tag queries accordingly for reporting.
    pub fn with_matching(mut self, matching: MatchingKind) -> Self {
        self.matching = matching;
        self
    }

    /// Sets the answering mode.
    ///
    /// # Panics
    /// Panics when the mode's parameters are invalid (negative or non-finite
    /// `epsilon`, `delta` outside `(0, 1]`); use [`Query::try_with_mode`] for
    /// a fallible variant (CLI-originated construction goes through
    /// [`AnswerMode::parse`], which validates already).
    pub fn with_mode(mut self, mode: AnswerMode) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented panic; try_with_mode is the fallible twin"
        )]
        mode.validate().expect("invalid answer mode");
        self.mode = mode;
        self
    }

    /// Sets the answering mode, or returns a typed
    /// [`Error::InvalidParameter`] when the mode's parameters are invalid.
    pub fn try_with_mode(mut self, mode: AnswerMode) -> Result<Self> {
        mode.validate()?;
        self.mode = mode;
        Ok(self)
    }

    /// The query's I/O budget, if any.
    #[inline]
    pub fn budget(&self) -> Option<Budget> {
        self.budget
    }

    /// Attaches an I/O [`Budget`] (pass `None` to clear it). Budgeted queries
    /// are answered anytime-style: when the budget runs out mid-search the
    /// method returns its best-so-far answer tagged
    /// [`Guarantee::Truncated`].
    pub fn with_budget(mut self, budget: Option<Budget>) -> Self {
        self.budget = budget;
        self
    }

    /// Consumes the query and returns its series.
    pub fn into_series(self) -> Series {
        self.series
    }

    /// A stable FNV-1a hash over the query's canonical byte encoding: the
    /// series values (by `f32` bit pattern), the query kind with its
    /// parameter (`k` / radius), the matching kind, the [`AnswerMode`] with
    /// its parameters, and the [`Budget`].
    ///
    /// Two queries that could legally produce different answers hash
    /// differently: same values with a different `k`, a different mode (or
    /// the same mode with different ε/δ), a different budget, or a
    /// permutation of the same values. The hash is identical across
    /// processes, platforms and runs, so it can key persistent or shared
    /// caches (the serving layer keys its answer cache on it, combined with
    /// the dataset fingerprint).
    pub fn canonical_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        // Series: length prefix then every value's bit pattern, so
        // ([1.0], len 1) and ([1.0, 0.0], len 2) cannot collide by padding.
        h.write_u64(self.series.len() as u64);
        for &v in self.series.values() {
            h.write_f32(v);
        }
        match self.kind {
            QueryKind::Knn { k } => {
                h.write_u8(0);
                h.write_u64(k as u64);
            }
            QueryKind::Range { radius } => {
                h.write_u8(1);
                h.write_f64(radius);
            }
        }
        h.write_u8(match self.matching {
            MatchingKind::Whole => 0,
            MatchingKind::Subsequence => 1,
        });
        match self.mode {
            AnswerMode::Exact => h.write_u8(0),
            AnswerMode::NgApproximate => h.write_u8(1),
            AnswerMode::EpsilonApproximate { epsilon } => {
                h.write_u8(2);
                h.write_f64(epsilon);
            }
            AnswerMode::DeltaEpsilon { delta, epsilon } => {
                h.write_u8(3);
                h.write_f64(delta);
                h.write_f64(epsilon);
            }
        }
        match self.budget {
            None => h.write_u8(0),
            Some(b) => {
                h.write_u8(1);
                h.write_u64(b.limit());
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Series {
        Series::new(vec![0.0, 1.0, 2.0, 3.0])
    }

    #[test]
    fn knn_query_accessors() {
        let q = Query::knn(series(), 5);
        assert_eq!(q.k(), Some(5));
        assert_eq!(q.radius(), None);
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
        assert_eq!(q.matching(), MatchingKind::Whole);
        assert_eq!(q.kind(), QueryKind::Knn { k: 5 });
        assert_eq!(q.mode(), AnswerMode::Exact);
        assert_eq!(q.knn_k("test").unwrap(), 5);
    }

    #[test]
    fn nearest_neighbor_is_k1() {
        let q = Query::nearest_neighbor(series());
        assert_eq!(q.k(), Some(1));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn knn_rejects_zero_k() {
        let _ = Query::knn(series(), 0);
    }

    #[test]
    fn try_knn_returns_a_typed_error_instead_of_panicking() {
        assert!(matches!(
            Query::try_knn(series(), 0),
            Err(Error::InvalidParameter { name: "k", .. })
        ));
        assert_eq!(Query::try_knn(series(), 3).unwrap().k(), Some(3));
    }

    #[test]
    fn range_query_accessors() {
        let q = Query::range(series(), 2.5);
        assert_eq!(q.radius(), Some(2.5));
        assert_eq!(q.k(), None);
    }

    #[test]
    fn range_queries_yield_a_typed_error_from_knn_k() {
        let q = Query::range(series(), 1.0);
        match q.knn_k("DSTree") {
            Err(Error::UnsupportedQuery { method, .. }) => assert_eq!(method, "DSTree"),
            other => panic!("expected UnsupportedQuery, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn range_rejects_negative_radius() {
        let _ = Query::range(series(), -1.0);
    }

    #[test]
    fn try_range_returns_a_typed_error_instead_of_panicking() {
        assert!(matches!(
            Query::try_range(series(), -1.0),
            Err(Error::InvalidParameter { name: "radius", .. })
        ));
        assert!(Query::try_range(series(), f64::NAN).is_err());
        assert_eq!(Query::try_range(series(), 1.0).unwrap().radius(), Some(1.0));
    }

    #[test]
    fn matching_kind_can_be_overridden() {
        let q = Query::nearest_neighbor(series()).with_matching(MatchingKind::Subsequence);
        assert_eq!(q.matching(), MatchingKind::Subsequence);
    }

    #[test]
    fn into_series_round_trips() {
        let q = Query::nearest_neighbor(series());
        assert_eq!(q.into_series(), series());
    }

    #[test]
    fn with_mode_builder_carries_the_mode() {
        let q = Query::knn(series(), 2).with_mode(AnswerMode::NgApproximate);
        assert_eq!(q.mode(), AnswerMode::NgApproximate);
        let q = q.with_mode(AnswerMode::EpsilonApproximate { epsilon: 0.5 });
        assert_eq!(q.mode(), AnswerMode::EpsilonApproximate { epsilon: 0.5 });
    }

    #[test]
    #[should_panic(expected = "invalid answer mode")]
    fn with_mode_rejects_negative_epsilon() {
        let _ = Query::nearest_neighbor(series())
            .with_mode(AnswerMode::EpsilonApproximate { epsilon: -0.1 });
    }

    #[test]
    fn try_with_mode_returns_typed_errors() {
        let bad = Query::nearest_neighbor(series()).try_with_mode(AnswerMode::DeltaEpsilon {
            delta: 0.0,
            epsilon: 0.1,
        });
        assert!(matches!(
            bad,
            Err(Error::InvalidParameter { name: "delta", .. })
        ));
        let good = Query::nearest_neighbor(series())
            .try_with_mode(AnswerMode::DeltaEpsilon {
                delta: 0.9,
                epsilon: 0.1,
            })
            .unwrap();
        assert!(!good.mode().is_exact());
    }

    #[test]
    fn mode_validation_rules() {
        assert!(AnswerMode::Exact.validate().is_ok());
        assert!(AnswerMode::NgApproximate.validate().is_ok());
        assert!(AnswerMode::EpsilonApproximate { epsilon: 0.0 }
            .validate()
            .is_ok());
        assert!(AnswerMode::EpsilonApproximate {
            epsilon: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(AnswerMode::DeltaEpsilon {
            delta: 1.0,
            epsilon: 0.0
        }
        .validate()
        .is_ok());
        assert!(AnswerMode::DeltaEpsilon {
            delta: 1.1,
            epsilon: 0.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn prune_shrink_degenerates_to_exact_at_zero_epsilon() {
        assert_eq!(AnswerMode::Exact.prune_shrink(), 1.0);
        assert_eq!(
            AnswerMode::EpsilonApproximate { epsilon: 0.0 }.prune_shrink(),
            1.0
        );
        assert_eq!(
            AnswerMode::DeltaEpsilon {
                delta: 1.0,
                epsilon: 0.0
            }
            .prune_shrink(),
            1.0
        );
        assert!(
            (AnswerMode::EpsilonApproximate { epsilon: 1.0 }.prune_shrink() - 0.5).abs() < 1e-12
        );
        assert!(
            (AnswerMode::DeltaEpsilon {
                delta: 0.5,
                epsilon: 1.0
            }
            .prune_shrink()
                - 0.25)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn mode_guarantee_mapping() {
        assert_eq!(AnswerMode::Exact.guarantee(), Guarantee::Exact);
        assert_eq!(AnswerMode::NgApproximate.guarantee(), Guarantee::None);
        assert_eq!(
            AnswerMode::EpsilonApproximate { epsilon: 0.5 }.guarantee(),
            Guarantee::EpsilonBound { epsilon: 0.5 }
        );
        assert_eq!(
            AnswerMode::DeltaEpsilon {
                delta: 0.9,
                epsilon: 0.5
            }
            .guarantee(),
            Guarantee::ProbabilisticEpsilonBound {
                delta: 0.9,
                epsilon: 0.5
            }
        );
    }

    #[test]
    fn budget_builder_and_parse() {
        let q = Query::nearest_neighbor(series());
        assert_eq!(q.budget(), None);
        let q = q.with_budget(Some(Budget::raw_reads(100)));
        assert_eq!(q.budget(), Some(Budget::raw_reads(100)));
        assert_eq!(q.with_budget(None).budget(), None);

        assert_eq!(Budget::parse("inf").unwrap(), None);
        assert_eq!(Budget::parse(" INF ").unwrap(), None);
        assert_eq!(Budget::parse("500").unwrap(), Some(Budget::raw_reads(500)));
        assert!(Budget::parse("lots").is_err());
        assert!(Budget::parse("-1").is_err());
    }

    #[test]
    fn budget_meter_is_sticky_and_never_returns_empty() {
        let mut meter = BudgetMeter::new(Some(Budget::raw_reads(0)), 10);
        // No answer yet: even a zero budget lets the first candidate through.
        assert!(!meter.should_stop(0, false));
        assert!(meter.should_stop(1, true));
        assert!(meter.is_truncated());
        // Sticky: stays stopped regardless of later arguments.
        assert!(meter.should_stop(0, false));
        match meter.guarantee(Guarantee::Exact, 1) {
            Guarantee::Truncated { examined_fraction } => {
                assert!((examined_fraction - 0.1).abs() < 1e-12);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_meter_never_trips() {
        let mut meter = BudgetMeter::new(None, 10);
        for spent in 0..1000 {
            assert!(!meter.should_stop(spent, true));
        }
        assert!(!meter.is_truncated());
        assert_eq!(meter.guarantee(Guarantee::Exact, 1000), Guarantee::Exact);
    }

    #[test]
    fn mode_parse_round_trips_the_cli_syntax() {
        for (text, mode) in [
            ("exact", AnswerMode::Exact),
            ("ng", AnswerMode::NgApproximate),
            ("eps:0.25", AnswerMode::EpsilonApproximate { epsilon: 0.25 }),
            (
                "deltaeps:0.95,0.1",
                AnswerMode::DeltaEpsilon {
                    delta: 0.95,
                    epsilon: 0.1,
                },
            ),
        ] {
            assert_eq!(AnswerMode::parse(text).unwrap(), mode, "{text}");
            assert_eq!(AnswerMode::parse(&mode.to_string()).unwrap(), mode);
        }
        assert!(AnswerMode::parse("approximate").is_err());
        assert!(AnswerMode::parse("eps:lots").is_err());
        assert!(AnswerMode::parse("eps:-1").is_err());
        assert!(AnswerMode::parse("deltaeps:0.5").is_err());
        assert!(AnswerMode::parse("deltaeps:2,0.1").is_err());
    }

    #[test]
    fn canonical_hash_is_stable_and_deterministic() {
        let a = Query::knn(series(), 5).canonical_hash();
        let b = Query::knn(series(), 5).canonical_hash();
        assert_eq!(a, b, "same query hashes identically across instances");
    }

    #[test]
    fn canonical_hash_distinguishes_k() {
        let k5 = Query::knn(series(), 5).canonical_hash();
        let k6 = Query::knn(series(), 6).canonical_hash();
        assert_ne!(k5, k6, "same values, different k");
    }

    #[test]
    fn canonical_hash_distinguishes_mode() {
        let base = Query::knn(series(), 5);
        let exact = base.clone().canonical_hash();
        let ng = base
            .clone()
            .with_mode(AnswerMode::NgApproximate)
            .canonical_hash();
        let eps1 = base
            .clone()
            .with_mode(AnswerMode::EpsilonApproximate { epsilon: 0.1 })
            .canonical_hash();
        let eps2 = base
            .clone()
            .with_mode(AnswerMode::EpsilonApproximate { epsilon: 0.2 })
            .canonical_hash();
        let de = base
            .with_mode(AnswerMode::DeltaEpsilon {
                delta: 0.05,
                epsilon: 0.1,
            })
            .canonical_hash();
        let all = [exact, ng, eps1, eps2, de];
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j], "modes {i} and {j} collide");
            }
        }
    }

    #[test]
    fn canonical_hash_distinguishes_series() {
        let a = Query::knn(Series::new(vec![0.0, 1.0, 2.0, 3.0]), 5).canonical_hash();
        // Same multiset of values, different order.
        let b = Query::knn(Series::new(vec![3.0, 2.0, 1.0, 0.0]), 5).canonical_hash();
        // Different length.
        let c = Query::knn(Series::new(vec![0.0, 1.0, 2.0]), 5).canonical_hash();
        assert_ne!(a, b, "value order is significant");
        assert_ne!(a, c, "series length is significant");
    }

    #[test]
    fn canonical_hash_distinguishes_kind_and_budget() {
        let knn = Query::knn(series(), 5).canonical_hash();
        let range = Query::range(series(), 5.0).canonical_hash();
        assert_ne!(knn, range, "k-NN vs range with numerically equal parameter");

        let unbounded = Query::knn(series(), 5).canonical_hash();
        let bounded = Query::knn(series(), 5)
            .with_budget(Some(Budget::raw_reads(100)))
            .canonical_hash();
        assert_ne!(unbounded, bounded, "budget is significant");
    }
}
