#![warn(missing_docs)]

//! The paper's contribution: efficient multi-model management.
//!
//! Given a fleet of `n >> 1000` models sharing one architecture, this
//! crate persists and recovers **whole model sets** with four approaches
//! (paper §3):
//!
//! | Approach | Module | Saves | Storage (5000 × FFNN-48) |
//! |---|---|---|---|
//! | MMlib-base | [`approach::mmlib_base`] | every model individually, with per-model metadata/code/env | ~140 MB per set |
//! | Baseline | [`approach::baseline`] | metadata + architecture once, parameters concatenated into one blob | ~100 MB per set |
//! | Update | [`approach::update`] | per-layer hashes + only the changed layers' parameters | ~10 MB per derived set |
//! | Provenance | [`approach::provenance`] | training info + environment once, one dataset reference per updated model | ~0.1 MB per derived set |
//!
//! All approaches implement [`approach::ModelSetSaver`] against a shared
//! [`env::ManagementEnv`] (document store + file store + dataset
//! registry). Derived sets carry a [`model_set::Derivation`] describing
//! how they were trained from their base set; Update exploits it for
//! layer diffs, Provenance persists it *instead of* parameters and
//! recovers by bit-deterministically replaying training via
//! [`apply_update::apply_update`].
//!
//! Extension beyond the paper's evaluation, from its discussion section:
//! [`advisor`] (heuristic approach choice, §4.5 future work).

pub mod advisor;
pub mod apply_update;
pub mod approach;
pub mod artifacts;
pub mod branch;
pub mod bundle;
pub mod catalog;
pub mod commit;
pub mod env;
pub mod fleet;
pub mod fsck;
pub mod gc;
mod layout;
pub mod lineage;
pub mod model_set;
pub mod param_codec;
pub mod query;
pub mod tags;
pub mod tiering;
pub mod verify;

pub use approach::{BaselineSaver, MmlibBaseSaver, ModelSetSaver, ProvenanceSaver, UpdateSaver};
pub use env::{ManagementEnv, Measurement};
pub use fleet::{FleetFrontend, FrontendConfig};
pub use model_set::{Derivation, ModelSet, ModelSetId, ModelUpdate, UpdateKind};
pub use query::{Query, QueryOutput, SetRecord};
