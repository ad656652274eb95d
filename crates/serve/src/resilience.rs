//! Resilience policy for the sharded service: quorum rules for degraded
//! partial answers and per-shard health tracking.
//!
//! Everything here follows the suite's determinism discipline: "time" is
//! simulated cost units priced by the storage [`CostModel`]
//! (hydra_storage::CostModel), never wall clock, and every decision — admit
//! or reject, serve partial or fail — is a pure function of the
//! deterministic event sequence. Same seed ⇒ same degraded answers, same
//! breaker traces.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use hydra_core::{Error, Result, RetryPolicy};
use hydra_storage::FaultPlan;

/// How many shards must answer before a scatter-gather merge is served.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QuorumPolicy {
    /// Every shard must answer; any shard error fails the request with the
    /// first error in shard order. This is the strict pre-resilience
    /// behaviour, and the default: fault-free runs are bit-identical to it.
    #[default]
    AllShards,
    /// At least `n` shards must answer (clamped to `1..=shards`); the merge
    /// over the survivors is served tagged
    /// [`Guarantee::Partial`](hydra_core::Guarantee::Partial).
    AtLeast(usize),
    /// Any non-empty set of surviving shards is served (equivalent to
    /// `AtLeast(1)`).
    BestEffort,
}

impl QuorumPolicy {
    /// The number of shards (out of `total`) that must answer under this
    /// policy. Always in `1..=total`.
    pub fn required(&self, total: usize) -> usize {
        let total = total.max(1);
        match self {
            QuorumPolicy::AllShards => total,
            QuorumPolicy::AtLeast(n) => (*n).clamp(1, total),
            QuorumPolicy::BestEffort => 1,
        }
    }

    /// Parses `"all"`, `"best-effort"`, or a shard count (`"2"` ⇒
    /// `AtLeast(2)`).
    pub fn parse(text: &str) -> Result<QuorumPolicy> {
        match text {
            "all" => Ok(QuorumPolicy::AllShards),
            "best-effort" => Ok(QuorumPolicy::BestEffort),
            n => n
                .parse::<usize>()
                .ok()
                .filter(|n| *n >= 1)
                .map(QuorumPolicy::AtLeast)
                .ok_or_else(|| {
                    Error::invalid_parameter("quorum", "expected `all`, `best-effort`, or a count")
                }),
        }
    }
}

impl std::fmt::Display for QuorumPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuorumPolicy::AllShards => write!(f, "all"),
            QuorumPolicy::AtLeast(n) => write!(f, "{n}"),
            QuorumPolicy::BestEffort => write!(f, "best-effort"),
        }
    }
}

/// The full resilience policy of a service. The default is exactly the
/// pre-resilience service: strict quorum, no breakers, no injected faults,
/// the engines' own retry policies.
#[derive(Clone, Debug, Default)]
pub struct ResilienceConfig {
    /// How many shards must answer before a merge is served.
    pub quorum: QuorumPolicy,
    /// Per-shard circuit breakers; `None` disables breaking.
    pub breaker: Option<BreakerConfig>,
    /// The fault plan shards derive their independent fault streams from
    /// (via [`FaultPlan::for_shard`]); disabled by default.
    pub shard_faults: FaultPlan,
    /// Overrides every shard engine's retry policy when set (the knob the
    /// chaos lane turns without rebuilding engines through the builder).
    pub retry: Option<RetryPolicy>,
}

/// One shard's health ledger: its breaker and its outcome counters. The
/// service keeps one per shard behind a mutex; every field is driven only by
/// deterministic events.
#[derive(Clone, Debug)]
pub(crate) struct ShardHealth {
    /// The shard's circuit breaker, when breaking is enabled.
    pub(crate) breaker: Option<CircuitBreaker>,
    /// Sub-queries that answered.
    pub(crate) successes: u64,
    /// Sub-queries that failed after engine-level retries.
    pub(crate) failures: u64,
    /// Sub-queries rejected by the open breaker.
    pub(crate) rejected: u64,
}

impl ShardHealth {
    /// A fresh ledger under the given breaker policy.
    pub(crate) fn new(breaker: Option<BreakerConfig>) -> Self {
        Self {
            breaker: breaker.map(CircuitBreaker::new),
            successes: 0,
            failures: 0,
            rejected: 0,
        }
    }

    /// Whether the breaker admits the next sub-query (`true` when breaking
    /// is disabled). A denial is counted against the shard.
    pub(crate) fn admit(&mut self) -> bool {
        match self.breaker.as_mut() {
            None => true,
            Some(b) => {
                let admitted = b.admit();
                if !admitted {
                    self.rejected += 1;
                }
                admitted
            }
        }
    }

    /// Records a successful sub-query that cost `cost_units`, feeding the
    /// breaker clock.
    pub(crate) fn record_success(&mut self, cost_units: u64) {
        self.successes += 1;
        if let Some(b) = self.breaker.as_mut() {
            b.record_success(cost_units);
        }
    }

    /// Records a sub-query that failed after engine-level retries.
    pub(crate) fn record_failure(&mut self) {
        self.failures += 1;
        if let Some(b) = self.breaker.as_mut() {
            b.record_failure();
        }
    }

    /// A copyable snapshot of the ledger for reporting.
    pub(crate) fn report(&self) -> ShardHealthReport {
        ShardHealthReport {
            successes: self.successes,
            failures: self.failures,
            rejected: self.rejected,
            breaker_state: self.breaker.as_ref().map(|b| b.state()),
            breaker_opened: self.breaker.as_ref().map(|b| b.opened()).unwrap_or(0),
            breaker_denied: self.breaker.as_ref().map(|b| b.denied()).unwrap_or(0),
        }
    }
}

/// A point-in-time snapshot of one shard's health counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHealthReport {
    /// Sub-queries that answered.
    pub successes: u64,
    /// Sub-queries that failed after engine-level retries.
    pub failures: u64,
    /// Sub-queries rejected by the breaker.
    pub rejected: u64,
    /// Breaker state, `None` when breaking is disabled.
    pub breaker_state: Option<BreakerState>,
    /// Times the breaker tripped open.
    pub breaker_opened: u64,
    /// Admissions the breaker denied.
    pub breaker_denied: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_required_clamps_to_the_shard_count() {
        assert_eq!(QuorumPolicy::AllShards.required(4), 4);
        assert_eq!(QuorumPolicy::AtLeast(2).required(4), 2);
        assert_eq!(QuorumPolicy::AtLeast(9).required(4), 4);
        assert_eq!(QuorumPolicy::AtLeast(0).required(4), 1);
        assert_eq!(QuorumPolicy::BestEffort.required(4), 1);
        assert_eq!(QuorumPolicy::AllShards.required(0), 1);
    }

    #[test]
    fn quorum_parse_round_trips_through_display() {
        for text in ["all", "best-effort", "2"] {
            let policy = QuorumPolicy::parse(text).unwrap();
            assert_eq!(policy.to_string(), text);
        }
        assert!(QuorumPolicy::parse("0").is_err());
        assert!(QuorumPolicy::parse("most").is_err());
    }

    #[test]
    fn default_resilience_is_the_strict_pre_resilience_service() {
        let r = ResilienceConfig::default();
        assert_eq!(r.quorum, QuorumPolicy::AllShards);
        assert!(r.breaker.is_none());
        assert!(!r.shard_faults.is_active());
        assert!(r.retry.is_none());
    }

    #[test]
    fn health_ledger_feeds_the_breaker_and_counts_outcomes() {
        let mut h = ShardHealth::new(Some(BreakerConfig {
            failure_threshold: 2,
            open_duration: 50,
            failure_charge: 10,
            denied_charge: 25,
        }));
        assert!(h.admit());
        h.record_success(5);
        assert!(h.admit());
        h.record_failure();
        assert!(h.admit());
        h.record_failure();
        assert!(!h.admit(), "two consecutive failures trip the breaker");
        let report = h.report();
        assert_eq!(report.successes, 1);
        assert_eq!(report.failures, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.breaker_opened, 1);
        assert_eq!(report.breaker_state, Some(BreakerState::Open));
    }

    #[test]
    fn breakerless_health_always_admits() {
        let mut h = ShardHealth::new(None);
        for _ in 0..10 {
            h.record_failure();
        }
        assert!(h.admit());
        assert_eq!(h.report().breaker_state, None);
    }
}
