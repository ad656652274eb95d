//! # hydra-storage
//!
//! The instrumented storage substrate that every method in the suite reads
//! raw series through.
//!
//! The paper's headline results (Figures 3–7) are driven by each method's
//! *disk access pattern*: how many sequential page reads and how many random
//! seeks it incurs. Reproducing them on laptop-scale data therefore requires
//! an explicit accounting layer:
//!
//! * [`DatasetStore`] wraps a dataset in a page-granular store that classifies
//!   every read as sequential (next page after the previous read) or random
//!   (anything else), mirroring the paper's definition of "one random disk
//!   access per leaf / per skip".
//! * [`IoCounters`] accumulates the counts; they feed both the disk-access
//!   figures (Figure 4) and the time model.
//! * [`CostModel`] converts counted I/O into modelled I/O time for an HDD
//!   profile (fast sequential throughput, expensive seeks — the paper's RAID0
//!   server) and an SSD profile (cheap seeks, lower sequential throughput),
//!   which is what produces the HDD/SSD winner reversal of Figures 6–7.
//! * [`snapshot`] persists built indexes to disk as versioned, checksummed
//!   files keyed on a dataset + build-options fingerprint, with save and
//!   load charged through the same counters — measured snapshot I/O instead
//!   of modelled index I/O.
//! * [`fault`] injects deterministic, seeded storage faults (transient read
//!   errors, page bit-flips, latency surcharges in cost-model units, snapshot
//!   corruption) beneath the same counters, powering the chaos tests and the
//!   robustness experiments.
//! * [`partition`] splits a dataset into deterministic contiguous shard
//!   partitions, each wrapped in its own store by the serving layer's
//!   scatter-gather front-end.
//! * [`best_first`] is the one best-first k-NN search the tree indexes answer
//!   through — frontier, pruning, and budgeted leaf refinement over a
//!   store's materialized payloads with their page charges.
//! * [`refine`] is its scan-side twin, the one filter-and-refine driver
//!   UCR-Suite, MASS, Stepwise, ADS+ and the VA+file answer through — the
//!   query frame (clock, I/O delta, heap, budget, guarantee) and one
//!   per-candidate step in four visiting orders: storage order,
//!   skip-sequential runs, lazily ranked by bound, an explicit id list.
//!   `best_first` runs inside the same frame and refines with the same
//!   step.

pub mod best_first;
pub mod cost;
pub mod counters;
pub mod fault;
pub mod partition;
pub mod refine;
pub mod snapshot;
pub mod store;

pub use cost::{CostModel, StorageProfile};
pub use counters::{IoCounters, IoSnapshot};
pub use fault::{FaultConfig, FaultPlan};
pub use partition::{partition_dataset, DatasetPartition};
pub use snapshot::{load_index, save_index, snapshot_file_name, SnapshotReader, SnapshotWriter};
pub use store::DatasetStore;
