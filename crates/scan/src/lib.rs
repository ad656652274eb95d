//! # hydra-scan
//!
//! The non-index methods of the study: methods that answer a query in a
//! single pass (or a small number of level-wise passes) over the data rather
//! than by traversing a pre-built tree.
//!
//! * [`ucr::UcrScan`] — the optimized serial scan baseline (squared distances,
//!   early abandoning, reordered early abandoning), adapted to exact whole
//!   matching as in the paper.
//! * [`mass::MassScan`] — MASS adapted to whole matching: distances are
//!   derived from dot products computed with the FFT, trading I/O for CPU.
//! * [`stepwise::Stepwise`] — the multi-step DHWT filter: coefficients are
//!   stored level by level; candidates are pruned with lower/upper bounds as
//!   levels are read, and only survivors are refined on the raw data.
//!
//! All three answer through the scan-side filter-and-refine driver,
//! [`hydra_storage::refine`], which owns the query frame (clock, I/O delta,
//! heap, budget, guarantee) and the per-candidate step: UCR-Suite and MASS
//! in storage order, Stepwise over its list of survivors. Each method keeps
//! only its bound source and its refine kernel.

// lib-unwrap (README "Contract lints"): library code returns typed errors.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod mass;
pub mod stepwise;
pub mod ucr;

pub use mass::MassScan;
pub use stepwise::Stepwise;
pub use ucr::UcrScan;
