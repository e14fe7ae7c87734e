#![warn(missing_docs)]

//! Shared utilities for the `mmm` workspace.
//!
//! Everything in this crate exists to make the rest of the system
//! *deterministic* and *measurable*:
//!
//! * [`rng`] — seedable, allocation-free PRNGs ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256pp`]) used for model initialization, data synthesis,
//!   and training. The Provenance approach recovers models by re-running
//!   training, so every random draw in the workspace must be reproducible
//!   bit-for-bit from a named `u64` seed.
//! * [`hash`] — a from-scratch xxhash64 used for layer-granularity content
//!   hashing in the Update approach.
//! * [`clock`] — a [`clock::VirtualClock`] that combines real elapsed time
//!   with simulated store latency, so time-to-save / time-to-recover
//!   experiments reproduce the paper's *shape* without sleeping.
//! * [`codec`] — little-endian slice codecs and varints for the binary
//!   parameter-file formats.
//! * [`parallel`] — deterministic scoped-thread fan-out with
//!   critical-path clock accounting for the parallel save/recover paths.
//! * [`mem`] — a process-wide gauge of transient staging-buffer bytes, so
//!   the streaming save/recover paths can *assert* their O(chunk) peak
//!   instead of eyeballing RSS.
//! * [`tempdir`] — a minimal RAII temporary directory for tests and
//!   examples (avoids an external dependency).

pub mod clock;
pub mod codec;
pub mod error;
pub mod hash;
pub mod mem;
pub mod parallel;
pub mod rng;
pub mod tempdir;

pub use clock::{LaneGuard, LatencyModel, VirtualClock};
pub use error::{Error, Result};
pub use hash::{xxhash64, Hasher64};
pub use rng::{Rng, SplitMix64, Xoshiro256pp};
pub use tempdir::TempDir;

/// Take a lock's guard whether or not a panicking holder poisoned it:
/// the workspace's locks guard data a panicking holder leaves usable
/// (queues, counters, caches, indexes an audit resyncs), so poison
/// carries nothing worth an error path.
pub trait Unpoison<G> {
    /// The guard, poisoned or not.
    fn unpoison(self) -> G;
}

impl<G> Unpoison<G> for std::sync::LockResult<G> {
    fn unpoison(self) -> G {
        self.unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
