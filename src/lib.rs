#![warn(missing_docs)]

//! # mmm — Efficient Multi-Model Management
//!
//! A Rust implementation of the multi-model management approaches from
//! *"Efficient Multi-Model Management"* (EDBT 2023): persisting, versioning
//! and recovering **fleets of thousands of small deep-learning models**
//! that share one architecture but have different parameters.
//!
//! This root crate re-exports the workspace's public API:
//!
//! * [`core`] — the contribution: the [`core::approach::MmlibBaseSaver`],
//!   [`core::approach::BaselineSaver`], [`core::approach::UpdateSaver`] and
//!   [`core::approach::ProvenanceSaver`] model-set savers plus the
//!   recovery engine (full, selective, and batch with memoized chains),
//!   lineage tracking, integrity verification, lineage-aware GC,
//!   portable bundles, set tagging, a catalog, and the approach advisor.
//! * [`dnn`] / [`tensor`] — a deterministic, dependency-free deep-learning
//!   substrate (the paper's PyTorch stand-in).
//! * [`battery`] — the car-battery running example: a second-order
//!   equivalent-circuit cell model and synthetic driving cycles.
//! * [`data`] — datasets, the content-addressed dataset registry, and the
//!   synthetic CIFAR-like image generator.
//! * [`store`] — the storage substrate: blob file store and document store
//!   with configurable latency profiles (`m1`, `server`).
//! * [`workload`] — the paper's U1/U3 evaluation scenario driver.
//! * [`obs`] — structured tracing, metrics and the per-phase TTS/TTR
//!   breakdown (spans measure both wall-clock and simulated store time).
//! * [`mod@bench`] — the scenario harness and report tables behind the
//!   `repro` binary and `mmm stats`.
//!
//! ## Quickstart
//!
//! ```
//! use mmm::prelude::*;
//!
//! // An environment with in-memory-speed stores and a model fleet.
//! let dir = mmm::util::TempDir::new("mmm-doc").unwrap();
//! let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
//! let fleet = Fleet::initial(FleetConfig { n_models: 8, seed: 1, arch: Architectures::ffnn48() });
//!
//! // Save the initial set with the Baseline approach and recover it.
//! let mut baseline = BaselineSaver::new();
//! let id = baseline.save_initial(&env, &fleet.to_model_set()).unwrap();
//! let recovered = baseline.recover_set(&env, &id).unwrap();
//! assert_eq!(recovered.models().len(), 8);
//! ```

pub use mmm_battery as battery;
pub use mmm_bench as bench;
pub use mmm_core as core;
pub use mmm_obs as obs;
pub use mmm_data as data;
pub use mmm_dnn as dnn;
pub use mmm_store as store;
pub use mmm_tensor as tensor;
pub use mmm_util as util;
pub use mmm_workload as workload;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use mmm_core::advisor::{recommend, Priorities, Scenario};
    pub use mmm_core::approach::{
        BaselineSaver, MmlibBaseSaver, ModelSetSaver, ProvenanceSaver, UpdateSaver,
    };
    pub use mmm_core::env::ManagementEnv;
    pub use mmm_core::model_set::{Derivation, ModelSet, ModelSetId, ModelUpdate, UpdateKind};
    pub use mmm_core::{bundle, commit, fsck, gc, lineage, verify};
    pub use mmm_dnn::architectures::Architectures;
    pub use mmm_store::profile::LatencyProfile;
    pub use mmm_workload::fleet::{Fleet, FleetConfig, SelectionStrategy, UpdatePolicy};
    pub use mmm_workload::DataSource;
}
