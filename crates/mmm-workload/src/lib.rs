#![warn(missing_docs)]

//! The paper's evaluation scenario driver.
//!
//! Implements the workload of Figure 2: one initial use case **U1** where
//! a fleet of `n` models sharing one architecture is created, followed by
//! update cycles **U3-1 … U3-k** in which a fraction of models diverge
//! and are retrained — by default 5 % fully and 5 % partially, the
//! paper's 10 % update rate.
//!
//! * [`fleet`] — the in-memory fleet: per-model parameters plus the
//!   deterministic update-cycle procedure (parallelized across models
//!   with scoped threads; safe because every model's training is seed-isolated).
//! * [`source`] — where the training data comes from: the battery ECM
//!   pipeline (the running example) or the synthetic CIFAR generator.
//!
//! Each update cycle yields an [`fleet::UpdateRecord`]: the
//! approach-agnostic description (train config + per-model dataset
//! references, kinds, and seeds) that the savers turn into their
//! [`mmm_core::Derivation`]s.

pub mod chaos;
pub mod fleet;
pub mod history;
pub mod source;

pub use chaos::{run_chaos, service_bench, ChaosConfig, ChaosReport, ServiceBenchReport};
pub use fleet::{Fleet, FleetConfig, SelectionStrategy, UpdatePolicy, UpdateRecord};
pub use history::{archive_history, archive_history_with_snapshots};
pub use source::DataSource;
