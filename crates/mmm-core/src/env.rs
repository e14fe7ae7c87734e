//! The shared management environment: stores, registry, clock, stats.

use std::path::{Path, PathBuf};
use std::time::Duration;

use mmm_data::DatasetRegistry;
use mmm_obs::{EventLevel, LaneHook, Observer};
use mmm_store::{
    BlobStore, BreakerConfig, CasConfig, CasStore, DocumentStore, FaultInjector, LatencyProfile,
    ServiceGate, StatsSnapshot, StorageBackend, StoreStats, TieredStore,
};
use mmm_util::{Error, Result, VirtualClock};

use crate::fleet::GroupCommitter;

/// Default staging-chunk size of the save path: a full snapshot's
/// parameter blob is encoded into a buffer of at most this many bytes
/// and streamed to the store chunk by chunk, so peak staging memory is
/// O(min(chunk, set)), never O(set).
pub const DEFAULT_STREAM_CHUNK_BYTES: usize = 16 << 20;

/// Bounded-backoff retry policy for [`mmm_util::Error::Transient`]
/// store faults. Backoff delays are *charged to the virtual clock*, so
/// TTS/TTR measurements honestly include the waiting a real client
/// would do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retries.
    pub max_attempts: u32,
    /// Backoff before attempt k+1 is `base_backoff << k` (exponential),
    /// saturating at [`RetryPolicy::max_backoff`].
    pub base_backoff: Duration,
    /// Upper bound on any single backoff; also the value charged when
    /// the exponential computation would overflow `Duration`.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// The backoff charged after failed attempt `attempt` (0-based):
    /// `min(base_backoff × 2^attempt, max_backoff)`, saturating instead
    /// of panicking when the shift or multiplication overflows.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff
            .checked_mul(factor)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff)
    }
}

/// Everything a saver needs: a document store for metadata, a file store
/// for binary artifacts, and the externally-persisted dataset registry
/// the Provenance approach references into.
pub struct ManagementEnv {
    clock: VirtualClock,
    stats: StoreStats,
    docs: DocumentStore,
    blobs: BlobStore,
    registry: DatasetRegistry,
    faults: FaultInjector,
    retry: RetryPolicy,
    threads: usize,
    profile: LatencyProfile,
    obs: Observer,
    gate: ServiceGate,
    commit_gate: GroupCommitter,
    stream_chunk_bytes: usize,
}

/// Staged configuration for [`ManagementEnv::builder`] — the one place
/// every environment knob lives ([`ManagementEnv::open`] is the builder
/// with every knob at its default).
#[must_use = "EnvBuilder does nothing until .open() is called"]
pub struct EnvBuilder {
    dir: PathBuf,
    profile: LatencyProfile,
    faults: Option<FaultInjector>,
    observer: Option<Observer>,
    retry: Option<RetryPolicy>,
    threads: usize,
    backend: Option<StorageBackend>,
    cas_config: CasConfig,
    breaker: BreakerConfig,
    commit_window: Duration,
    stream_chunk_bytes: usize,
}

impl EnvBuilder {
    /// Share a fault-injection handle with both stores (crash-recovery
    /// tests; a disarmed injector is free).
    pub fn faults(mut self, faults: FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Install an observer: spans/metrics flow from the environment,
    /// both stores, the retry path, and every saver that runs on this
    /// environment. The observer's simulated-duration measurements use
    /// this environment's clock. Observability is strictly read-only:
    /// stored bytes, statistics, and clock charges are identical with
    /// or without it.
    pub fn observer(mut self, obs: Observer) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Replace the transient-fault retry policy.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Set the worker-thread budget for parallel save/recover sections.
    /// `1` (the default) runs every hot path inline, bit-identical to
    /// the sequential engine.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Choose the blob storage backend explicitly. Reopening an
    /// environment with a different backend than it was created with is
    /// an error; leave this unset to adopt whatever the directory
    /// already uses.
    pub fn backend(mut self, backend: StorageBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Byte budget for the CAS recovery cache (ignored by the plain
    /// backend; `0` disables caching).
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cas_config.cache_bytes = bytes;
        self
    }

    /// Tune the per-backend circuit breakers (defaults are production
    /// defaults; tests tighten the threshold/cooldown).
    pub fn breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = config;
        self
    }

    /// Staging-chunk size of the save path (see
    /// [`DEFAULT_STREAM_CHUNK_BYTES`]). Scale tests lower it to prove
    /// O(chunk) staging without gigabytes of models.
    pub fn stream_chunk_bytes(mut self, bytes: usize) -> Self {
        self.stream_chunk_bytes = bytes.max(1);
        self
    }

    /// Group-commit collection window: how long a commit leader waits
    /// (real time) for concurrent commits to pile into its batch before
    /// writing the single batched record. Zero (the default) batches
    /// only what naturally queues while a previous batch is writing.
    pub fn commit_window(mut self, window: Duration) -> Self {
        self.commit_window = window;
        self
    }

    /// Open the environment. Layout under the root: `docs` (document
    /// store), `blobs` (blob store, plain or CAS), `datasets` (dataset
    /// registry — *outside* storage accounting), and a `backend` marker
    /// recording which blob backend the directory was created with.
    pub fn open(self) -> Result<ManagementEnv> {
        let dir = &self.dir;
        std::fs::create_dir_all(dir)?;
        let backend = resolve_backend(dir, self.backend)?;
        let clock = VirtualClock::new();
        let stats = StoreStats::new();
        let faults = self.faults.unwrap_or_default();
        // The service gate rides the injector's per-op hook: every
        // store operation is deadline- and breaker-checked before it
        // counts, touches disk, or charges latency.
        let gate = ServiceGate::new(clock.clone(), self.breaker);
        faults.install_gate(gate.clone());
        let mut docs = DocumentStore::open_with_faults(
            dir.join("docs"),
            self.profile,
            clock.clone(),
            stats.clone(),
            faults.clone(),
        )?;
        // The indexes the read paths look things up in, built here from
        // the replayed logs and kept by the store from then on.
        crate::commit::declare_index(&docs);
        crate::tags::declare_indexes(&docs)?;
        let mut blobs = BlobStore::open(
            backend,
            dir.join("blobs"),
            self.profile,
            clock.clone(),
            stats.clone(),
            faults.clone(),
            self.cas_config,
        )?;
        // The registry deliberately bypasses clock/stats: the paper's
        // storage metric "does not include the storage consumption of
        // referenced models" or data saved outside model management.
        let registry = DatasetRegistry::open(dir.join("datasets"))?;
        let obs = self.observer.unwrap_or_else(Observer::disabled);
        obs.attach_clock(&clock);
        docs.set_observer(obs.clone());
        blobs.set_observer(obs.clone());
        Ok(ManagementEnv {
            clock,
            stats,
            docs,
            blobs,
            registry,
            faults,
            retry: self.retry.unwrap_or_default(),
            threads: self.threads,
            profile: self.profile,
            obs,
            gate,
            commit_gate: GroupCommitter::with_window(self.commit_window),
            stream_chunk_bytes: self.stream_chunk_bytes,
        })
    }
}

/// Reconcile the requested backend with the `backend` marker file:
/// adopt the stored choice when the caller didn't pick one, reject an
/// explicit mismatch, and persist the decision for future opens.
fn resolve_backend(dir: &Path, requested: Option<StorageBackend>) -> Result<StorageBackend> {
    let marker = dir.join("backend");
    let stored = std::fs::read_to_string(&marker)
        .ok()
        .and_then(|s| StorageBackend::by_name(s.trim()));
    let backend = match (requested, stored) {
        (Some(req), Some(found)) if req != found => {
            return Err(Error::invalid(format!(
                "environment at {} uses the '{found}' backend; cannot reopen as '{req}'",
                dir.display()
            )));
        }
        (Some(req), _) => req,
        (None, Some(found)) => found,
        (None, None) => StorageBackend::default(),
    };
    if stored.is_none() {
        std::fs::write(&marker, backend.name())?;
    }
    Ok(backend)
}

/// What one measured operation cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Hybrid duration: real elapsed + simulated store latency.
    pub duration: Duration,
    /// The simulated-latency part of `duration` alone. Deterministic for
    /// a deterministic run, and directly comparable to the per-phase
    /// simulated breakdown an observer produces.
    pub sim: Duration,
    /// Store operations and bytes during the measured section.
    pub stats: StatsSnapshot,
}

impl Measurement {
    /// Bytes written during the section — the storage-consumption metric.
    pub fn bytes_written(&self) -> u64 {
        self.stats.bytes_written
    }
}

impl ManagementEnv {
    /// Start configuring an environment rooted at `dir` (see
    /// [`EnvBuilder`] for the available knobs).
    pub fn builder(dir: impl AsRef<Path>, profile: LatencyProfile) -> EnvBuilder {
        EnvBuilder {
            dir: dir.as_ref().to_path_buf(),
            profile,
            faults: None,
            observer: None,
            retry: None,
            threads: 1,
            backend: None,
            cas_config: CasConfig::default(),
            breaker: BreakerConfig::default(),
            commit_window: Duration::ZERO,
            stream_chunk_bytes: DEFAULT_STREAM_CHUNK_BYTES,
        }
    }

    /// Open (creating if needed) an environment rooted at `dir`, with the
    /// given store latency profile and every other knob at its default
    /// (equivalent to `Self::builder(dir, profile).open()`).
    pub fn open(dir: impl AsRef<Path>, profile: LatencyProfile) -> Result<Self> {
        Self::builder(dir, profile).open()
    }

    /// The installed observer (disabled by default — safe to call into
    /// unconditionally).
    pub fn obs(&self) -> &Observer {
        &self.obs
    }

    /// The store latency profile this environment was opened with.
    pub fn profile(&self) -> LatencyProfile {
        self.profile
    }

    /// The worker-thread budget for parallel save/recover sections.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The live statistics handle (for per-lane accounting; use
    /// [`ManagementEnv::stats`] for plain snapshots).
    pub fn store_stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Fan `f(0..n)` out over the environment's thread budget. Worker
    /// threads are registered as clock *and* stats lanes, and the
    /// section charges the maximum lane time — its critical path — to
    /// the clock (see [`mmm_util::parallel::try_map_timed`]). Results
    /// come back in index order; with `threads = 1` this is exactly the
    /// sequential loop.
    pub fn run_parallel<T: Send>(
        &self,
        n: usize,
        f: impl Fn(usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        // The lane hook carries the calling thread's current span onto
        // the workers, so spans opened inside `f` nest under the span
        // that launched the section (annotated with their lane).
        let lane_hook = LaneHook::current(&self.obs);
        mmm_util::parallel::try_map_timed(
            &self.clock,
            self.threads,
            &[&self.stats, &lane_hook],
            n,
            f,
        )
    }

    /// The fault-injection handle shared by both stores.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// The service gate (per-request deadlines, per-backend circuit
    /// breakers) every store operation of this environment passes
    /// through.
    pub fn service_gate(&self) -> ServiceGate {
        self.gate.clone()
    }

    /// The group-commit coordinator every [`crate::commit::commit_save`]
    /// on this environment flows through.
    pub fn commit_gate(&self) -> &GroupCommitter {
        &self.commit_gate
    }

    /// The active transient-fault retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Run a store operation, retrying transient faults with bounded
    /// exponential backoff. Each backoff is charged to the virtual
    /// clock, so measurements include the delay a real client would
    /// experience. Permanent errors and exhausted budgets pass through.
    pub fn with_retry<T>(&self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(e) if e.is_transient() && attempt + 1 < self.retry.max_attempts => {
                    // A request whose deadline has already expired must
                    // not burn backoff budget: surface the deadline
                    // verdict instead of sleeping toward it.
                    self.gate.check_deadline()?;
                    let backoff = self.retry.backoff_for(attempt);
                    self.clock.charge(backoff);
                    self.obs.inc("mmm_retries_total", 1);
                    self.obs.observe("mmm_retry_backoff_ns", backoff.as_nanos() as u64);
                    if self.obs.enabled() {
                        if let Some(req) = mmm_obs::current_request() {
                            self.obs.inc(
                                &format!(
                                    "mmm_tenant_retries_total{{tenant=\"{}\"}}",
                                    req.tenant
                                ),
                                1,
                            );
                        }
                    }
                    self.obs.event(EventLevel::Warn, || {
                        format!(
                            "transient fault (attempt {}): {e}; backing off {backoff:?}",
                            attempt + 1
                        )
                    });
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// The document store (metadata).
    pub fn docs(&self) -> &DocumentStore {
        &self.docs
    }

    /// The blob store (binary artifacts; plain or content-addressed
    /// depending on [`ManagementEnv::backend`]).
    pub fn blobs(&self) -> &BlobStore {
        &self.blobs
    }

    /// Which blob storage backend this environment runs on.
    pub fn backend(&self) -> StorageBackend {
        self.blobs.backend()
    }

    /// The content-addressed store, when the `cas` backend is active
    /// (for dedup counters, cache accounting, audits).
    pub fn cas(&self) -> Option<&CasStore> {
        self.blobs.cas()
    }

    /// The tiered store, when the `tiered` backend is active (demotion
    /// and promotion of chain links, per-tier traffic counters).
    pub fn tiered(&self) -> Option<&TieredStore> {
        self.blobs.tiered()
    }

    /// The save path's staging-chunk size in bytes.
    pub fn stream_chunk_bytes(&self) -> usize {
        self.stream_chunk_bytes
    }

    /// The dataset registry (externally persisted training data).
    pub fn registry(&self) -> &DatasetRegistry {
        &self.registry
    }

    /// The hybrid clock shared by the stores.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Current cumulative store statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Measure a section: hybrid duration plus the store-ops delta.
    /// This is how the harness computes TTS, TTR and storage consumption.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, Measurement) {
        let before = self.stats.snapshot();
        let sim_before = self.clock.simulated();
        let sw = self.clock.stopwatch();
        let out = f();
        let m = Measurement {
            duration: sw.elapsed(),
            sim: self.clock.simulated() - sim_before,
            stats: self.stats.snapshot() - before,
        };
        (out, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_util::TempDir;
    use serde_json::json;

    #[test]
    fn open_and_use_all_stores() {
        let dir = TempDir::new("mmm-env").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        env.blobs().put("x", b"abc").unwrap();
        env.docs().insert("c", json!({"a": 1})).unwrap();
        assert_eq!(env.stats().blob_puts, 1);
        assert_eq!(env.stats().doc_inserts, 1);
        assert!(env.registry().is_empty());
    }

    #[test]
    fn measure_isolates_deltas() {
        let dir = TempDir::new("mmm-env").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::m1()).unwrap();
        env.blobs().put("warmup", &[0u8; 100]).unwrap();
        let ((), m) = env.measure(|| {
            env.blobs().put("payload", &[0u8; 1000]).unwrap();
        });
        assert_eq!(m.stats.blob_puts, 1, "only in-section ops counted");
        assert_eq!(m.bytes_written(), 1000);
        assert!(m.duration >= LatencyProfile::m1().blob_put.cost(1000));
    }

    #[test]
    fn retry_recovers_from_transient_faults_and_charges_backoff() {
        use mmm_store::{FaultPlan, FaultTarget, OpClass};
        let dir = TempDir::new("mmm-env").unwrap();
        let faults = mmm_store::FaultInjector::new();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .faults(faults.clone())
            .open()
            .unwrap();
        faults.arm(FaultPlan::transient_at(FaultTarget::Class(OpClass::BlobPut), 0, 2));
        let before = env.clock().simulated();
        env.with_retry(|| env.blobs().put("k", b"v")).unwrap();
        assert_eq!(env.blobs().get("k").unwrap(), b"v");
        // Two failures → backoffs of base and 2×base on the sim clock.
        let policy = env.retry_policy();
        assert_eq!(env.clock().simulated() - before, policy.base_backoff * 3);
    }

    #[test]
    fn retry_gives_up_after_max_attempts_and_passes_permanent_errors() {
        use mmm_store::{FaultPlan, FaultTarget, OpClass};
        use mmm_util::Error;
        let dir = TempDir::new("mmm-env").unwrap();
        let faults = mmm_store::FaultInjector::new();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .faults(faults.clone())
            .retry_policy(RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            })
            .open()
            .unwrap();
        faults.arm(FaultPlan::transient_at(FaultTarget::Class(OpClass::BlobPut), 0, 5));
        assert!(matches!(
            env.with_retry(|| env.blobs().put("k", b"v")),
            Err(Error::Transient(_))
        ));
        // Permanent errors are not retried.
        faults.disarm_all();
        faults.arm(FaultPlan::crash_at(FaultTarget::Class(OpClass::BlobPut), 0));
        let before = env.clock().simulated();
        assert!(matches!(env.with_retry(|| env.blobs().put("k2", b"v")), Err(Error::Io(_))));
        assert_eq!(env.clock().simulated(), before, "no backoff for permanent errors");
    }

    #[test]
    fn retry_backoff_saturates_instead_of_overflowing() {
        use mmm_store::{FaultPlan, FaultTarget, OpClass};
        // A base backoff near Duration's ceiling: the old
        // `base_backoff * (1 << attempt)` arithmetic panicked here.
        let policy = RetryPolicy {
            max_attempts: 40,
            base_backoff: Duration::from_secs(u64::MAX / 4),
            max_backoff: Duration::from_secs(60),
        };
        // Every exponent, including shift amounts ≥ 32, stays capped.
        assert_eq!(policy.backoff_for(0), Duration::from_secs(60));
        assert_eq!(policy.backoff_for(16), Duration::from_secs(60));
        assert_eq!(policy.backoff_for(39), Duration::from_secs(60));
        // Small bases below the cap keep exact exponential growth.
        let small = RetryPolicy { base_backoff: Duration::from_millis(2), ..RetryPolicy::default() };
        assert_eq!(small.backoff_for(0), Duration::from_millis(2));
        assert_eq!(small.backoff_for(3), Duration::from_millis(16));
        assert_eq!(small.backoff_for(63), small.max_backoff);

        // End to end: a transient fault under the huge-base policy must
        // retry without panicking and charge exactly the cap.
        let dir = TempDir::new("mmm-env").unwrap();
        let faults = mmm_store::FaultInjector::new();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .faults(faults.clone())
            .retry_policy(policy)
            .open()
            .unwrap();
        faults.arm(FaultPlan::transient_at(FaultTarget::Class(OpClass::BlobPut), 0, 1));
        let before = env.clock().simulated();
        env.with_retry(|| env.blobs().put("k", b"v")).unwrap();
        assert_eq!(env.clock().simulated() - before, policy.max_backoff);
    }

    #[test]
    fn reopen_preserves_documents() {
        let dir = TempDir::new("mmm-env").unwrap();
        {
            let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
            env.docs().insert("sets", json!({"n": 5})).unwrap();
        }
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        assert_eq!(env.docs().count("sets"), 1);
    }

    #[test]
    fn builder_defaults_match_open() {
        let dir = TempDir::new("mmm-env").unwrap();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero()).open().unwrap();
        assert_eq!(env.backend(), StorageBackend::Plain);
        assert_eq!(env.threads(), 1);
        assert!(env.cas().is_none());
        env.blobs().put("x", b"abc").unwrap();
        assert_eq!(env.blobs().get("x").unwrap(), b"abc");
    }

    #[test]
    fn builder_opens_cas_backend_with_knobs() {
        let dir = TempDir::new("mmm-env").unwrap();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .backend(StorageBackend::Cas)
            .cache_bytes(1024 * 1024)
            .threads(4)
            .open()
            .unwrap();
        assert_eq!(env.backend(), StorageBackend::Cas);
        assert_eq!(env.threads(), 4);
        let cas = env.cas().expect("cas store");
        assert_eq!(cas.config().cache_bytes, 1024 * 1024);
        env.blobs().put("x", &[7u8; 2048]).unwrap();
        assert_eq!(env.blobs().get("x").unwrap(), vec![7u8; 2048]);
    }

    #[test]
    fn builder_opens_tiered_backend_with_knobs() {
        use mmm_store::StorageTier;
        let dir = TempDir::new("mmm-env").unwrap();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .backend(StorageBackend::Tiered)
            .stream_chunk_bytes(4096)
            .open()
            .unwrap();
        assert_eq!(env.backend(), StorageBackend::Tiered);
        assert_eq!(env.stream_chunk_bytes(), 4096);
        env.blobs().put("chain/v1.bin", &[9u8; 1000]).unwrap();
        let tiered = env.tiered().expect("tiered store");
        assert_eq!(tiered.tier_of("chain/v1.bin"), Some(StorageTier::Hot));
        let before = env.clock().simulated();
        tiered.demote("chain/v1.bin").unwrap();
        assert_eq!(tiered.tier_of("chain/v1.bin"), Some(StorageTier::Cold));
        assert!(
            env.clock().simulated() - before
                >= LatencyProfile::object_store().blob_put.cost(1000),
            "demotion pays the cold tier's put"
        );
        assert_eq!(env.blobs().get("chain/v1.bin").unwrap(), vec![9u8; 1000]);
    }

    #[test]
    fn stream_chunk_default_is_sane() {
        let dir = TempDir::new("mmm-env").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        assert_eq!(env.stream_chunk_bytes(), DEFAULT_STREAM_CHUNK_BYTES);
        const { assert!(DEFAULT_STREAM_CHUNK_BYTES >= 1 << 20) };
    }

    #[test]
    fn backend_marker_is_adopted_on_reopen() {
        let dir = TempDir::new("mmm-env").unwrap();
        {
            let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
                .backend(StorageBackend::Cas)
                .open()
                .unwrap();
            env.blobs().put("k", b"payload").unwrap();
        }
        // No explicit backend: the stored marker wins.
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        assert_eq!(env.backend(), StorageBackend::Cas);
        assert_eq!(env.blobs().get("k").unwrap(), b"payload");
    }

    #[test]
    fn backend_mismatch_on_reopen_is_invalid() {
        use mmm_util::Error;
        let dir = TempDir::new("mmm-env").unwrap();
        drop(
            ManagementEnv::builder(dir.path(), LatencyProfile::zero())
                .backend(StorageBackend::Cas)
                .open()
                .unwrap(),
        );
        let result = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .backend(StorageBackend::Plain)
            .open();
        match result {
            Err(Error::Invalid(msg)) => assert!(msg.contains("backend"), "{msg}"),
            Err(e) => panic!("expected Invalid, got {e}"),
            Ok(_) => panic!("expected backend mismatch to fail"),
        }
    }

    #[test]
    fn builder_faults_and_retry_policy_are_wired() {
        use mmm_store::{FaultPlan, FaultTarget, OpClass};
        let dir = TempDir::new("mmm-env").unwrap();
        let faults = mmm_store::FaultInjector::new();
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .faults(faults.clone())
            .retry_policy(policy)
            .open()
            .unwrap();
        assert_eq!(env.retry_policy().max_attempts, 2);
        faults.arm(FaultPlan::transient_at(FaultTarget::Class(OpClass::BlobPut), 0, 1));
        env.with_retry(|| env.blobs().put("k", b"v")).unwrap();
        assert_eq!(env.blobs().get("k").unwrap(), b"v");
    }
}
