//! The sharding layer: per-shard engines and the scatter-gather k-NN merge.
//!
//! Exact k-NN is partition-decomposable: the global k nearest neighbours of
//! a query are contained in the union of the per-partition k nearest
//! neighbours, so merging the shard answer sets by `(distance, id)` and
//! truncating to k reproduces the unsharded answer *bit-identically* —
//! distances are computed by the same kernels over the same series, ids are
//! remapped by adding the shard's range start, and the sort key is the same
//! total order [`AnswerSet::from_unsorted`] uses. The agreement tests
//! enforce this for every method at every shard count in exact mode, and
//! enforce shards=1 bit-identity (a degenerate merge) for every mode.
//!
//! Approximate modes stay *locally* honest under sharding: each shard's
//! guarantee holds over its partition, and the union of per-shard candidates
//! can only improve an approximate answer, so the merged set is tagged with
//! the shared per-shard guarantee. Budget-truncated shards merge to a
//! [`Guarantee::Truncated`] whose examined fraction is the summed per-shard
//! raw reads over the total dataset size.

use crate::resilience::QuorumPolicy;
use hydra_core::{
    Answer, AnswerSet, EngineAnswer, EngineHandle, Error, Guarantee, Query, QueryStats, Result,
};
use std::ops::Range;

/// One shard: a contiguous global id range and the engine over its
/// partition. Cloning shares the underlying immutable index.
#[derive(Clone, Debug)]
pub struct ShardEngine {
    /// The global series ids this shard owns.
    pub range: Range<usize>,
    /// The engine handle answering over the shard's partition (local ids
    /// `0..range.len()`).
    pub handle: EngineHandle,
}

impl ShardEngine {
    /// Answers a query over this shard, returning shard-local ids.
    pub fn answer(&self, query: &Query) -> Result<EngineAnswer> {
        self.handle.answer(query)
    }
}

/// Merges per-shard answers into the global answer.
///
/// `k` is the query's k (the merged set is truncated to it), `total_size`
/// the full dataset size (the denominator of merged truncation fractions).
/// A single part is returned verbatim apart from id remapping — which is the
/// identity for a shard rooted at 0 — so shards=1 is bit-identical to the
/// unsharded engine by construction.
pub fn merge_shard_answers(
    k: usize,
    total_size: usize,
    parts: Vec<(Range<usize>, EngineAnswer)>,
) -> EngineAnswer {
    debug_assert!(!parts.is_empty(), "merge requires at least one shard");
    let guarantee = merge_guarantees(&parts, total_size);
    let mut merged: Vec<Answer> = Vec::new();
    let mut stats = QueryStats::default();
    let mut wall_time = std::time::Duration::ZERO;
    let mut attempts = 0u32;
    for (range, part) in &parts {
        for a in part.answers.iter() {
            merged.push(Answer::new(range.start + a.id, a.distance));
        }
        stats.merge(&part.stats);
        // The service's scatter runs the shards in parallel, so the gather
        // completes when the slowest shard does (later when shards outnumber
        // CPUs).
        wall_time = wall_time.max(part.wall_time);
        attempts = attempts.max(part.attempts);
    }
    merged.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
    merged.truncate(k);
    EngineAnswer {
        answers: AnswerSet::from_unsorted(merged).with_guarantee(guarantee),
        guarantee,
        stats,
        wall_time,
        attempts,
    }
}

/// The guarantee of a merged answer.
///
/// * One part: its guarantee, verbatim (the shards=1 identity).
/// * Any part truncated by its budget: the merge is truncated too, with the
///   summed raw reads over the total dataset size as the examined fraction.
/// * All parts sharing one guarantee: that guarantee — each holds over its
///   partition, and a union of per-partition candidates only tightens a
///   k-NN answer.
/// * Mixed guarantees (unreachable under one mode over one partitioner):
///   conservatively [`Guarantee::None`].
fn merge_guarantees(parts: &[(Range<usize>, EngineAnswer)], total_size: usize) -> Guarantee {
    if parts.len() == 1 {
        return parts[0].1.guarantee;
    }
    if parts
        .iter()
        .any(|(_, p)| matches!(p.guarantee, Guarantee::Truncated { .. }))
    {
        let examined: u64 = parts.iter().map(|(_, p)| p.stats.raw_series_examined).sum();
        return Guarantee::Truncated {
            examined_fraction: examined as f64 / total_size.max(1) as f64,
        };
    }
    let first = parts[0].1.guarantee;
    if parts.iter().all(|(_, p)| p.guarantee == first) {
        first
    } else {
        Guarantee::None
    }
}

/// A quorum merge outcome: the merged answer plus how many shards
/// contributed to it.
#[derive(Clone, Debug)]
pub struct QuorumOutcome {
    /// The merged (possibly [`Guarantee::Partial`]-tagged) answer.
    pub merged: EngineAnswer,
    /// Shards whose answers made it into the merge.
    pub shards_answered: u32,
    /// Shards scattered to.
    pub shards_total: u32,
}

/// Merges per-shard *outcomes* (answers or errors) under a quorum policy.
///
/// With every shard answering, this is exactly [`merge_shard_answers`] — the
/// bit-identity path the agreement tests pin. When shards failed:
///
/// * [`QuorumPolicy::AllShards`] (and any unmet quorum) fails the request
///   with the **first error in shard order**, matching the serial
///   reference's early return;
/// * a met quorum merges the survivors and tags the result
///   [`Guarantee::Partial`] over the merged guarantee — `k` nearest of the
///   answered partitions, honestly labelled with how much of the dataset
///   answered. The inner guarantee composes: a budget-truncated partial
///   merge is `Partial { inner: Truncated }`.
pub fn merge_quorum(
    k: usize,
    total_size: usize,
    parts: Vec<(Range<usize>, Result<EngineAnswer>)>,
    policy: QuorumPolicy,
) -> Result<QuorumOutcome> {
    let shards_total = parts.len() as u32;
    let mut answered = Vec::with_capacity(parts.len());
    let mut first_error = None;
    for (range, outcome) in parts {
        match outcome {
            Ok(part) => answered.push((range, part)),
            Err(e) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }
    let shards_answered = answered.len() as u32;
    if (shards_answered as usize) < policy.required(shards_total as usize) {
        // Unmet quorum: fail exactly like the strict path — the first shard
        // error in shard order. (Unreachable without an error: a full gather
        // always meets any quorum.)
        return Err(first_error
            .unwrap_or_else(|| Error::Internal("quorum unmet without a shard error".to_string())));
    }
    let mut merged = merge_shard_answers(k, total_size, answered);
    if shards_answered < shards_total {
        let guarantee = Guarantee::partial(shards_answered, shards_total, merged.guarantee);
        merged.guarantee = guarantee;
        merged.answers = std::mem::take(&mut merged.answers).with_guarantee(guarantee);
    }
    Ok(QuorumOutcome {
        merged,
        shards_answered,
        shards_total,
    })
}

/// The serial scatter-gather reference: answers the query on every shard in
/// shard order on the calling thread, then merges. The async request
/// pipeline must agree with this bit-for-bit — it runs the same per-shard
/// calls and the same merge, only scheduled differently.
pub fn scatter_gather(
    shards: &[ShardEngine],
    total_size: usize,
    query: &Query,
) -> Result<EngineAnswer> {
    let k = query.k().unwrap_or(1);
    let mut parts = Vec::with_capacity(shards.len());
    for shard in shards {
        parts.push((shard.range.clone(), shard.answer(query)?));
    }
    Ok(merge_shard_answers(k, total_size, parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn part(
        range: Range<usize>,
        ids: &[(usize, f64)],
        guarantee: Guarantee,
    ) -> (Range<usize>, EngineAnswer) {
        let answers: Vec<Answer> = ids.iter().map(|&(id, d)| Answer::new(id, d)).collect();
        let mut stats = QueryStats::default();
        stats.record_raw_series_examined(ids.len() as u64);
        (
            range,
            EngineAnswer {
                answers: AnswerSet::from_unsorted(answers).with_guarantee(guarantee),
                guarantee,
                stats,
                wall_time: Duration::from_micros(10),
                attempts: 1,
            },
        )
    }

    #[test]
    fn merge_remaps_ids_sorts_and_truncates() {
        let parts = vec![
            part(0..3, &[(0, 2.0), (2, 5.0)], Guarantee::Exact),
            part(3..6, &[(1, 1.0), (2, 3.0)], Guarantee::Exact),
        ];
        let merged = merge_shard_answers(3, 6, parts);
        let ids: Vec<usize> = merged.answers.iter().map(|a| a.id).collect();
        // Global ids: shard 0 keeps 0 and 2; shard 1's local 1, 2 become 4, 5.
        assert_eq!(ids, vec![4, 0, 5], "sorted by distance, truncated to k=3");
        assert_eq!(merged.guarantee, Guarantee::Exact);
        assert_eq!(merged.stats.raw_series_examined, 4, "stats are summed");
        assert_eq!(
            merged.wall_time,
            Duration::from_micros(10),
            "max over shards"
        );
    }

    #[test]
    fn distance_ties_break_by_global_id() {
        let parts = vec![
            part(0..2, &[(1, 1.0)], Guarantee::Exact),
            part(2..4, &[(0, 1.0)], Guarantee::Exact),
        ];
        let merged = merge_shard_answers(2, 4, parts);
        let ids: Vec<usize> = merged.answers.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![1, 2], "equal distances order by global id");
    }

    #[test]
    fn single_part_guarantee_is_verbatim() {
        let g = Guarantee::Truncated {
            examined_fraction: 0.25,
        };
        let parts = vec![part(0..4, &[(0, 1.0)], g)];
        let merged = merge_shard_answers(1, 4, parts);
        assert_eq!(merged.guarantee, g, "degenerate merge preserves the tag");
    }

    #[test]
    fn any_truncated_shard_truncates_the_merge() {
        let parts = vec![
            part(0..4, &[(0, 1.0)], Guarantee::Exact),
            part(
                4..8,
                &[(0, 2.0)],
                Guarantee::Truncated {
                    examined_fraction: 0.25,
                },
            ),
        ];
        let merged = merge_shard_answers(2, 8, parts);
        match merged.guarantee {
            Guarantee::Truncated { examined_fraction } => {
                // 1 + 1 raw series examined over 8 total.
                assert!((examined_fraction - 0.25).abs() < 1e-12);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn shared_approximate_guarantees_survive_the_merge() {
        let g = Guarantee::EpsilonBound { epsilon: 0.1 };
        let parts = vec![part(0..2, &[(0, 1.0)], g), part(2..4, &[(0, 2.0)], g)];
        assert_eq!(merge_shard_answers(2, 4, parts).guarantee, g);

        let mixed = vec![
            part(0..2, &[(0, 1.0)], Guarantee::Exact),
            part(2..4, &[(0, 2.0)], Guarantee::None),
        ];
        assert_eq!(
            merge_shard_answers(2, 4, mixed).guarantee,
            Guarantee::None,
            "mixed guarantees degrade conservatively"
        );
    }

    fn failing(range: Range<usize>) -> (Range<usize>, hydra_core::Result<EngineAnswer>) {
        (range, Err(Error::EmptyDataset))
    }

    fn ok_part(
        range: Range<usize>,
        ids: &[(usize, f64)],
    ) -> (Range<usize>, hydra_core::Result<EngineAnswer>) {
        let (range, answer) = part(range, ids, Guarantee::Exact);
        (range, Ok(answer))
    }

    #[test]
    fn all_shards_quorum_surfaces_the_first_error_in_shard_order() {
        let parts = vec![
            ok_part(0..2, &[(0, 1.0)]),
            failing(2..4),
            (4..6, Err(Error::Internal("shard 2".to_string()))),
        ];
        let err = merge_quorum(1, 6, parts, QuorumPolicy::AllShards).unwrap_err();
        assert!(
            matches!(err, Error::EmptyDataset),
            "shard 1's error wins over shard 2's, got {err:?}"
        );
    }

    #[test]
    fn full_gather_under_any_quorum_is_the_plain_merge() {
        for policy in [
            QuorumPolicy::AllShards,
            QuorumPolicy::AtLeast(1),
            QuorumPolicy::BestEffort,
        ] {
            let parts = vec![ok_part(0..2, &[(0, 2.0)]), ok_part(2..4, &[(1, 1.0)])];
            let out = merge_quorum(2, 4, parts, policy).unwrap();
            assert_eq!(out.shards_answered, 2);
            assert_eq!(out.shards_total, 2);
            assert_eq!(out.merged.guarantee, Guarantee::Exact, "no Partial tag");
            let ids: Vec<usize> = out.merged.answers.iter().map(|a| a.id).collect();
            assert_eq!(ids, vec![3, 0]);
        }
    }

    #[test]
    fn met_quorum_serves_the_survivors_tagged_partial() {
        let parts = vec![
            ok_part(0..2, &[(0, 2.0)]),
            failing(2..4),
            ok_part(4..6, &[(1, 1.0)]),
        ];
        let out = merge_quorum(2, 6, parts, QuorumPolicy::AtLeast(2)).unwrap();
        assert_eq!(out.shards_answered, 2);
        assert_eq!(out.shards_total, 3);
        match out.merged.guarantee {
            Guarantee::Partial {
                shards_answered: 2,
                shards_total: 3,
                ..
            } => {}
            other => panic!("expected Partial 2/3, got {other:?}"),
        }
        assert_eq!(
            out.merged.answers.guarantee(),
            out.merged.guarantee,
            "the answer set carries the Partial tag too"
        );
        let ids: Vec<usize> = out.merged.answers.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![5, 0], "survivors merge normally");
    }

    #[test]
    fn unmet_quorum_fails_with_the_first_shard_error() {
        let parts = vec![failing(0..2), ok_part(2..4, &[(0, 1.0)]), failing(4..6)];
        let err = merge_quorum(1, 6, parts, QuorumPolicy::AtLeast(2)).unwrap_err();
        assert!(matches!(err, Error::EmptyDataset));
    }

    #[test]
    fn best_effort_serves_a_single_survivor() {
        let parts = vec![failing(0..2), failing(2..4), ok_part(4..6, &[(0, 3.0)])];
        let out = merge_quorum(1, 6, parts, QuorumPolicy::BestEffort).unwrap();
        assert_eq!(out.shards_answered, 1);
        let ids: Vec<usize> = out.merged.answers.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![4]);
        match out.merged.answers.guarantee() {
            Guarantee::Partial {
                shards_answered: 1,
                shards_total: 3,
                inner,
            } => assert_eq!(Guarantee::from(inner), Guarantee::Exact),
            other => panic!("expected Partial 1/3, got {other:?}"),
        }
    }
}
