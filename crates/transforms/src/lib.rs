//! # hydra-transforms
//!
//! The summarization (dimensionality reduction) techniques used by the
//! similarity search methods of the paper (Section 3.1, Figure 1), each with
//! its lower-bounding distance:
//!
//! | Technique | Module | Used by |
//! |---|---|---|
//! | Piecewise Aggregate Approximation (PAA) | [`paa`] | SAX/iSAX, R*-tree |
//! | Extended APCA (EAPCA: per-segment mean + std) | [`eapca`] | DSTree |
//! | Discrete Fourier Transform (DFT, via FFT) | [`fft`] | VA+file, SFA, MASS |
//! | Discrete Haar Wavelet Transform (DHWT) | [`dhwt`] | Stepwise |
//! | Symbolic Aggregate Approximation (SAX / iSAX) | [`sax`] | iSAX2+, ADS+ |
//! | Symbolic Fourier Approximation (SFA) | [`sfa`] | SFA trie |
//! | Vector Approximation with non-uniform quantization (VA+) | [`vaplus`] | VA+file |
//!
//! The central correctness property — established by unit and property tests
//! in every module — is the **lower-bounding lemma**: the distance computed in
//! the reduced space never exceeds the true Euclidean distance in the original
//! space, which is what lets indexes prune without false dismissals.

pub mod dhwt;
pub mod eapca;
pub mod fft;
pub mod gaussian;
pub mod paa;
pub mod sax;
pub mod sfa;
pub mod sweep;
pub mod vaplus;

pub use dhwt::HaarTransform;
pub use eapca::{Eapca, EapcaSegment};
pub use fft::{dft_summary, Complex, Fft};
pub use paa::Paa;
pub use sax::{IsaxWord, NodeBounds, SaxParams, SaxWord};
pub use sfa::{BinningMethod, SfaParams, SfaQuantizer, SfaWord};
pub use sweep::{BoundSweep, CoarseArm, CoarseBlocks, CoarsePass, SummaryBlocks};
pub use vaplus::{VaPlusCell, VaPlusQuantizer};
