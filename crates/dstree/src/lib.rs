//! # hydra-dstree
//!
//! The DSTree: a data-adaptive index based on the EAPCA summarization.
//!
//! Unlike SAX-based indexes, whose summarization grid is fixed up front, the
//! DSTree adapts its per-node segmentation as the tree grows: a node can be
//! split *horizontally* (on the mean or the standard deviation of an existing
//! segment) or *vertically* (by refining the segmentation itself and then
//! splitting on one of the new, shorter segments). Every node keeps a synopsis
//! — the min/max of the segment means and standard deviations over the series
//! it covers — from which a lower-bounding distance to any query is computed:
//!
//! ```text
//! LB²(Q, node) = Σ_i w_i · ( dist(μ_i(Q), [minμ_i, maxμ_i])²
//!                          + dist(σ_i(Q), [minσ_i, maxσ_i])² )
//! ```
//!
//! which follows from the per-segment inequality
//! `Σ_j (x_j − y_j)² ≥ w·(μx − μy)² + w·(σx − σy)²`.
//!
//! Exact search is a best-first traversal with this bound (the shared
//! `hydra_storage::best_first::search`), seeded by an
//! approximate descent to the most promising leaf — the structure responsible
//! for the DSTree's paper-reported profile: expensive (CPU-bound) index
//! construction, excellent query-time clustering and pruning.
//!
//! Leaves keep their entries' EAPCA in one flat block, and a query computes
//! its mean and σ once per distinct segment of the tree, so node bounds,
//! entry bounds and the descent are table lookups (see [`index`]).

// lib-unwrap (README "Contract lints"): library code returns typed errors.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod index;
pub mod node;

pub use index::DsTree;
