//! # hydra-isax
//!
//! The iSAX family of indexes evaluated in the paper:
//!
//! * [`Isax2Plus`] — the iSAX2+ index: a tree over iSAX words with
//!   per-segment variable cardinality, bulk-friendly construction that
//!   materializes raw series inside the leaves, and both ng-approximate and
//!   exact query answering.
//! * [`AdsPlus`] — ADS+, the adaptive data series index: it builds the same
//!   tree shape using *only* the iSAX summaries (very fast construction) and
//!   answers exact queries with the SIMS algorithm — an approximate tree
//!   search to seed the best-so-far followed by a skip-sequential scan of the
//!   raw file over the non-pruned candidates.
//!
//! Both share the [`tree::IsaxTree`] structure, which mirrors the fact that in
//! the paper the two indexes have identical tree shapes for identical leaf
//! sizes. Its leaves hold their entries' SAX words in one flat block each.

// lib-unwrap (README "Contract lints"): library code returns typed errors.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod ads;
pub mod isax2plus;
pub mod tree;

pub use ads::AdsPlus;
pub use isax2plus::Isax2Plus;
