//! Resilience policy for the sharded service: quorum rules for degraded
//! partial answers and per-shard outcome counters.
//!
//! Every shard is called for every request that misses the cache. A shard's
//! faults come from its own seeded [`FaultPlan`] stream, keyed by the read
//! and the retry attempt, and retry backoff is charged in counted pages, not
//! waited out; so a shard that fails a query fails it the same way whenever
//! it is asked, and skipping a shard could only turn an answerable
//! sub-query into an error. The one decision taken here — serve a partial
//! merge or fail — is a pure function of the shards' outcomes: same seed ⇒
//! same degraded answers, same counters.

use hydra_core::{Error, Result, RetryPolicy};
use hydra_storage::FaultPlan;
use std::sync::atomic::{AtomicU64, Ordering};

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
/// pre-resilience service: strict quorum, no injected faults, the engines'
/// own retry policies.
#[derive(Clone, Debug, Default)]
pub struct ResilienceConfig {
    /// How many shards must answer before a merge is served.
    pub quorum: QuorumPolicy,
    /// The fault plan shards derive their independent fault streams from
    /// (via [`FaultPlan::for_shard`]); disabled by default.
    pub shard_faults: FaultPlan,
    /// Overrides every shard engine's retry policy when set (the knob the
    /// chaos lane turns without rebuilding engines through the builder).
    pub retry: Option<RetryPolicy>,
}

/// One shard's outcome counters. The service keeps one per shard and bumps
/// it as it gathers each sub-query's result.
#[derive(Debug, Default)]
pub(crate) struct ShardHealth {
    successes: AtomicU64,
    failures: AtomicU64,
}

impl ShardHealth {
    /// Counts one sub-query: answered, or failed after engine-level retries.
    pub(crate) fn record(&self, answered: bool) {
        let counter = if answered {
            &self.successes
        } else {
            &self.failures
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A copyable snapshot of the counters for reporting.
    pub(crate) fn report(&self) -> ShardHealthReport {
        ShardHealthReport {
            successes: self.successes.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of one shard's outcome counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHealthReport {
    /// Sub-queries that answered.
    pub successes: u64,
    /// Sub-queries that failed after engine-level retries.
    pub failures: u64,
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
        assert!(!r.shard_faults.is_active());
        assert!(r.retry.is_none());
    }

    #[test]
    fn health_ledger_counts_outcomes() {
        let h = ShardHealth::default();
        h.record(true);
        h.record(false);
        h.record(false);
        assert_eq!(
            h.report(),
            ShardHealthReport {
                successes: 1,
                failures: 2,
            }
        );
    }
}
