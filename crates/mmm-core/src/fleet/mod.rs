//! The fleet request frontend: the robustness layer a multi-tenant
//! management service needs between its tenants and the store.
//!
//! A [`FleetFrontend`] mediates every save/recover request with four
//! mechanisms, each of which exists to stop one failure amplifier:
//!
//! 1. **Admission control** ([`AdmissionControl`]) — bounded per-tenant
//!    quotas and queues; excess load is shed at the door with
//!    [`mmm_util::Error::Unavailable`] instead of buffered without
//!    bound.
//! 2. **Deadlines** — every request runs with a budget measured on the
//!    environment's [`mmm_util::VirtualClock`] (real time plus the
//!    request's simulated store latency) and enforced *mid-operation*
//!    through the store's [`mmm_store::ServiceGate`]: an expired
//!    request stops at its next store operation, not at the end.
//! 3. **Circuit breakers** — per-backend (docs/blobs) breakers in the
//!    gate fail requests fast while a backend is faulting, and
//!    half-open probes detect recovery (see [`mmm_store::CircuitBreaker`]).
//! 4. **Graceful degradation** — recovers that fail for environmental
//!    reasons (breaker open, deadline, transient storm) can be served
//!    from a bounded cache of last-known-good committed versions,
//!    explicitly marked [`Served::Stale`].
//!
//! Save commits additionally flow through the environment's
//! [`GroupCommitter`], which coalesces concurrent commit-record
//! appends into single batched writes (see [`group_commit`]).
//!
//! Every request runs on its own clock lane, so its simulated charges
//! are attributed to it alone (the deadline measures *this* request's
//! work, not the fleet's aggregate); on completion the lane total is
//! charged back to the shared clock.

pub mod admission;
pub mod group_commit;

pub use admission::{AdmissionConfig, AdmissionControl, AdmissionPermit};
pub use group_commit::{GroupCommitStats, GroupCommitter};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::approach::ModelSetSaver;
use crate::env::ManagementEnv;
use crate::model_set::{Derivation, ModelSet, ModelSetId};
use mmm_store::Backend;
use mmm_util::{Error, Result};

/// Requests with no explicit deadline run under this generous budget
/// (still finite, so a wedged backend cannot hold a slot forever).
const DEFAULT_DEADLINE: Duration = Duration::from_secs(300);

/// Tuning for a [`FleetFrontend`].
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    /// Per-tenant quotas and queue bounds.
    pub admission: AdmissionConfig,
    /// Budget applied when a request does not bring its own.
    pub default_deadline: Duration,
    /// Whether failed recovers may be served from the stale cache.
    pub stale_recovers: bool,
    /// Last-known-good versions kept for degraded serving (an LRU over
    /// whole model sets; `0` disables the cache).
    pub stale_cache_entries: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            admission: AdmissionConfig::default(),
            default_deadline: DEFAULT_DEADLINE,
            stale_recovers: true,
            stale_cache_entries: 64,
        }
    }
}

/// How a successful recover was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Read through the saver from the store.
    Fresh,
    /// The store was unhealthy; this is the frontend's cached copy of
    /// the most recent version it saw committed.
    Stale,
}

/// A successful recover: the set plus how it was obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// The recovered model set.
    pub set: ModelSet,
    /// Fresh from the store, or a degraded stale serve.
    pub served: Served,
}

/// Point-in-time frontend counters (see [`FleetFrontend::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendCounters {
    /// Requests that completed successfully (stale serves included).
    pub ok: u64,
    /// Requests shed by admission control (queue full).
    pub shed: u64,
    /// Requests that failed on an expired deadline (queued too long or
    /// stopped mid-operation).
    pub deadline_exceeded: u64,
    /// Requests rejected by an open circuit breaker.
    pub breaker_rejected: u64,
    /// Recovers served from the stale cache after a store failure.
    pub stale_serves: u64,
    /// Requests that failed for any other reason.
    pub failed: u64,
}

struct StaleCache {
    entries: HashMap<ModelSetId, (u64, ModelSet)>,
    tick: u64,
    cap: usize,
}

impl StaleCache {
    fn new(cap: usize) -> Self {
        StaleCache { entries: HashMap::new(), tick: 0, cap }
    }

    fn put(&mut self, id: &ModelSetId, set: &ModelSet) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(id.clone(), (tick, set.clone()));
        if self.entries.len() > self.cap {
            if let Some(oldest) =
                self.entries.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
    }

    fn get(&mut self, id: &ModelSetId) -> Option<ModelSet> {
        self.tick += 1;
        let tick = self.tick;
        let (t, set) = self.entries.get_mut(id)?;
        *t = tick;
        Some(set.clone())
    }
}

/// The request frontend over one [`ManagementEnv`]. Cheap to create;
/// share one per environment across all tenant threads.
pub struct FleetFrontend<'e> {
    env: &'e ManagementEnv,
    config: FrontendConfig,
    admission: AdmissionControl,
    stale: Mutex<StaleCache>,
    ok: AtomicU64,
    deadline_exceeded: AtomicU64,
    breaker_rejected: AtomicU64,
    stale_serves: AtomicU64,
    failed: AtomicU64,
}

impl<'e> FleetFrontend<'e> {
    /// A frontend over `env` with default tuning.
    pub fn new(env: &'e ManagementEnv) -> Self {
        FleetFrontend::with_config(env, FrontendConfig::default())
    }

    /// A frontend over `env` with explicit tuning.
    pub fn with_config(env: &'e ManagementEnv, config: FrontendConfig) -> Self {
        FleetFrontend {
            env,
            admission: AdmissionControl::new(config.admission),
            stale: Mutex::new(StaleCache::new(config.stale_cache_entries)),
            config,
            ok: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            breaker_rejected: AtomicU64::new(0),
            stale_serves: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// The environment this frontend mediates.
    pub fn env(&self) -> &ManagementEnv {
        self.env
    }

    /// The active configuration.
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// The admission controller (for its queue/shed counters).
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// Save the initial version of a set for `tenant` through the
    /// frontend (admission, deadline, breakers, group commit).
    pub fn save_initial(
        &self,
        tenant: &str,
        saver: &mut dyn ModelSetSaver,
        set: &ModelSet,
        deadline: Option<Duration>,
    ) -> Result<ModelSetId> {
        let id = self.request(tenant, deadline, "save", |env| saver.save_initial(env, set))?;
        self.remember(&id, set);
        Ok(id)
    }

    /// Save a (possibly derived) set version for `tenant` through the
    /// frontend.
    pub fn save_set(
        &self,
        tenant: &str,
        saver: &mut dyn ModelSetSaver,
        set: &ModelSet,
        derivation: Option<&Derivation>,
        deadline: Option<Duration>,
    ) -> Result<ModelSetId> {
        let id =
            self.request(tenant, deadline, "save", |env| saver.save_set(env, set, derivation))?;
        self.remember(&id, set);
        Ok(id)
    }

    /// Recover a set for `tenant`. When the store is unhealthy (open
    /// breaker, deadline blown on a slow backend, transient storm) and
    /// stale serving is enabled, falls back to the frontend's cached
    /// last-known-good version — explicitly marked [`Served::Stale`].
    /// `NotFound`/`Corrupt` are never masked by the cache: a deleted or
    /// quarantined set must not resurrect.
    pub fn recover(
        &self,
        tenant: &str,
        saver: &dyn ModelSetSaver,
        id: &ModelSetId,
        deadline: Option<Duration>,
    ) -> Result<Recovered> {
        match self.request(tenant, deadline, "recover", |env| saver.recover_set(env, id)) {
            Ok(set) => {
                self.remember(id, &set);
                Ok(Recovered { set, served: Served::Fresh })
            }
            Err(e) if self.config.stale_recovers && degradable(&e) => {
                match self.stale_get(id) {
                    Some(set) => {
                        self.stale_serves.fetch_add(1, Ordering::Relaxed);
                        self.ok.fetch_add(1, Ordering::Relaxed);
                        let obs = self.env.obs();
                        obs.inc("mmm_fleet_stale_serves_total", 1);
                        if obs.enabled() {
                            // The rescue answers the tenant: the failure
                            // already classified above stays visible in
                            // its column, but the SLO budget nets it out
                            // against this stale serve.
                            obs.inc(&tenant_key("mmm_tenant_stale_serves_total", tenant), 1);
                            obs.inc(&tenant_key("mmm_tenant_ok_total", tenant), 1);
                        }
                        Ok(Recovered { set, served: Served::Stale })
                    }
                    None => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Run a model-lake query for `tenant` through the frontend
    /// (admission, deadline, breakers): parse `expr` with the
    /// [`crate::query`] grammar, then evaluate it against the unified
    /// catalog/tags/branches/lineage/storage view. Parse failures are
    /// `Invalid` and carry the byte offset of the offending token.
    pub fn query(
        &self,
        tenant: &str,
        expr: &str,
        deadline: Option<Duration>,
    ) -> Result<crate::query::QueryOutput> {
        let q = crate::query::Query::parse(expr).map_err(|e| Error::invalid(e.to_string()))?;
        self.request(tenant, deadline, "query", |env| q.run(env))
    }

    /// Run one admitted, deadline-bounded request on its own clock lane.
    fn request<T>(
        &self,
        tenant: &str,
        deadline: Option<Duration>,
        kind: &'static str,
        op: impl FnOnce(&ManagementEnv) -> Result<T>,
    ) -> Result<T> {
        let budget = deadline.unwrap_or(self.config.default_deadline);
        let obs = self.env.obs();
        obs.inc("mmm_fleet_requests_total", 1);
        if obs.enabled() {
            obs.inc(&tenant_key("mmm_tenant_requests_total", tenant), 1);
        }

        let enqueued = Instant::now();
        let permit = match self.admission.admit(tenant, budget) {
            Ok(p) => p,
            Err(e) => {
                obs.inc("mmm_fleet_shed_total", 1);
                if obs.enabled() {
                    obs.inc(&tenant_key("mmm_tenant_shed_total", tenant), 1);
                }
                obs.event(mmm_obs::EventLevel::Warn, || {
                    format!("{kind} for tenant '{tenant}' shed: {e}")
                });
                self.classify(&e);
                return Err(e);
            }
        };
        let waited = enqueued.elapsed();
        obs.observe("mmm_fleet_admission_wait_ns", waited.as_nanos() as u64);

        // The wait consumed part of the budget; the operation gets the
        // rest, enforced at every store op through the service gate.
        let remaining = budget.saturating_sub(waited);
        let gate = self.env.service_gate();
        let lane = self.env.clock().enter_lane();
        let guard = gate.arm_deadline(remaining);
        let real_start = Instant::now();

        // Everything the operation does — store ops, worker lanes, the
        // group-commit record it rides in — is attributed to this
        // request id, and the root span carries it as its causal tag.
        let rid = permit.request_id().to_string();
        let req_ctx = mmm_obs::enter_request(tenant, rid.clone());
        let span = obs.span_tagged(kind, rid);
        let result = op(self.env);
        drop(span);
        drop(req_ctx);

        drop(guard);
        drop(permit);
        // The request's simulated charges go back to the shared clock:
        // service accounting sums tenant work (the per-request lane
        // exists for deadline attribution, not to hide the cost).
        let sim = lane.finish();
        self.env.clock().charge(sim);

        let spent = waited + real_start.elapsed() + sim;
        obs.observe("mmm_fleet_request_ns", spent.as_nanos() as u64);
        let overrun = spent.saturating_sub(budget);
        obs.observe("mmm_fleet_deadline_overrun_ns", overrun.as_nanos() as u64);
        if obs.enabled() {
            obs.observe(&tenant_key("mmm_tenant_request_sim_ns", tenant), sim.as_nanos() as u64);
            obs.observe(
                &tenant_key("mmm_tenant_deadline_overrun_ns", tenant),
                overrun.as_nanos() as u64,
            );
        }

        match &result {
            Ok(_) => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                if obs.enabled() {
                    obs.inc(&tenant_key("mmm_tenant_ok_total", tenant), 1);
                }
            }
            Err(e) => {
                self.classify(e);
                self.classify_tenant(tenant, e);
            }
        }
        result
    }

    fn classify(&self, e: &Error) {
        let obs = self.env.obs();
        if e.is_deadline_exceeded() {
            self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            obs.inc("mmm_fleet_deadline_exceeded_total", 1);
        } else if e.is_unavailable() {
            self.breaker_rejected.fetch_add(1, Ordering::Relaxed);
            obs.inc("mmm_fleet_unavailable_total", 1);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
            obs.inc("mmm_fleet_failed_total", 1);
        }
    }

    /// Per-tenant failure attribution; every request ends in exactly one
    /// of `{ok, shed, deadline_exceeded, unavailable, failed}` for its
    /// tenant (a later stale rescue adds `ok` + `stale_serves` on top).
    fn classify_tenant(&self, tenant: &str, e: &Error) {
        let obs = self.env.obs();
        if !obs.enabled() {
            return;
        }
        let family = if e.is_deadline_exceeded() {
            "mmm_tenant_deadline_exceeded_total"
        } else if e.is_unavailable() {
            "mmm_tenant_unavailable_total"
        } else {
            "mmm_tenant_failed_total"
        };
        obs.inc(&tenant_key(family, tenant), 1);
    }

    fn remember(&self, id: &ModelSetId, set: &ModelSet) {
        if let Ok(mut cache) = self.stale.lock() {
            cache.put(id, set);
        }
    }

    fn stale_get(&self, id: &ModelSetId) -> Option<ModelSet> {
        match self.stale.lock() {
            Ok(mut cache) => cache.get(id),
            Err(_) => None,
        }
    }

    /// Point-in-time counters, including the breaker states' trip and
    /// rejection totals folded into observer metrics elsewhere.
    pub fn counters(&self) -> FrontendCounters {
        FrontendCounters {
            ok: self.ok.load(Ordering::Relaxed),
            shed: self.admission.shed(),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            breaker_rejected: self.breaker_rejected.load(Ordering::Relaxed),
            stale_serves: self.stale_serves.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }

    /// Publish the current breaker positions and admission totals as
    /// observer gauges (call periodically or at scenario end).
    pub fn publish_health(&self) {
        let obs = self.env.obs();
        let gate = self.env.service_gate();
        for backend in [Backend::Docs, Backend::Blobs] {
            let b = gate.breaker(backend);
            let label = backend.name();
            // Gauge encoding: 0 = closed, 1 = half-open, 2 = open.
            let state = match b.state() {
                mmm_store::BreakerState::Closed => 0,
                mmm_store::BreakerState::HalfOpen => 1,
                mmm_store::BreakerState::Open => 2,
            };
            obs.gauge(&format!("mmm_breaker_state{{backend=\"{label}\"}}"), state);
            obs.gauge(&format!("mmm_breaker_trips{{backend=\"{label}\"}}"), b.trips());
            obs.gauge(&format!("mmm_breaker_rejections{{backend=\"{label}\"}}"), b.rejections());
        }
        obs.gauge("mmm_fleet_admitted", self.admission.admitted());
        obs.gauge("mmm_fleet_shed", self.admission.shed());
        obs.gauge("mmm_fleet_queue_timeouts", self.admission.timed_out());
        obs.gauge("mmm_gate_deadline_rejections", gate.deadline_rejections());
    }
}

/// Metric key for a tenant-labelled family (the registry's label cap
/// bounds the cardinality these can create).
fn tenant_key(family: &str, tenant: &str) -> String {
    format!("{family}{{tenant=\"{tenant}\"}}")
}

/// Failures the stale cache may paper over: environmental trouble, not
/// answers about the data itself.
fn degradable(e: &Error) -> bool {
    matches!(
        e,
        Error::Transient(_) | Error::DeadlineExceeded(_) | Error::Unavailable(_) | Error::Io(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approach::BaselineSaver;
    use mmm_dnn::Architectures;
    use mmm_store::{BreakerConfig, FaultInjector, FaultPlan, FaultTarget, LatencyProfile};
    use mmm_util::TempDir;

    fn set(n: usize, seed: u64) -> ModelSet {
        let arch = Architectures::ffnn(6);
        let models = (0..n)
            .map(|i| arch.build(seed + i as u64).export_param_dict())
            .collect();
        ModelSet::new(arch, models)
    }

    fn env() -> (TempDir, ManagementEnv) {
        let dir = TempDir::new("mmm-fleet").unwrap();
        let env = ManagementEnv::open(dir.path(), LatencyProfile::zero()).unwrap();
        (dir, env)
    }

    #[test]
    fn requests_flow_through_end_to_end() {
        let (_d, env) = env();
        let frontend = FleetFrontend::new(&env);
        let mut saver = BaselineSaver::new();
        let s = set(3, 1);
        let id = frontend.save_initial("acme", &mut saver, &s, None).unwrap();
        let back = frontend.recover("acme", &saver, &id, None).unwrap();
        assert_eq!(back.served, Served::Fresh);
        assert_eq!(back.set, s);
        let c = frontend.counters();
        assert_eq!(c.ok, 2);
        assert_eq!(c, FrontendCounters { ok: 2, ..FrontendCounters::default() });
        assert_eq!(frontend.admission().admitted(), 2);
    }

    /// A saver whose recover parks until released — lets a test hold an
    /// admission slot open deterministically.
    struct ParkedSaver {
        inner: BaselineSaver,
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl ModelSetSaver for ParkedSaver {
        fn name(&self) -> &'static str {
            "baseline"
        }
        fn save_set(
            &mut self,
            env: &ManagementEnv,
            set: &ModelSet,
            derivation: Option<&Derivation>,
        ) -> Result<ModelSetId> {
            self.inner.save_set(env, set, derivation)
        }
        fn recover_set(&self, env: &ManagementEnv, id: &ModelSetId) -> Result<ModelSet> {
            self.entered.send(()).ok();
            self.release.recv().ok();
            self.inner.recover_set(env, id)
        }
        fn recover_models(
            &self,
            env: &ManagementEnv,
            id: &ModelSetId,
            indices: &[usize],
        ) -> Result<Vec<mmm_dnn::ParamDict>> {
            self.inner.recover_models(env, id, indices)
        }
    }

    #[test]
    fn overloaded_tenant_is_shed_at_the_door() {
        let (_d, env) = env();
        let config = FrontendConfig {
            admission: AdmissionConfig { per_tenant_inflight: 1, per_tenant_queue: 0 },
            ..FrontendConfig::default()
        };
        let frontend = FleetFrontend::with_config(&env, config);
        let mut saver = BaselineSaver::new();
        let s = set(2, 3);
        let id = frontend.save_initial("acme", &mut saver, &s, None).unwrap();

        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let parked =
            ParkedSaver { inner: BaselineSaver::new(), entered: entered_tx, release: release_rx };
        std::thread::scope(|scope| {
            let frontend = &frontend;
            let id2 = id.clone();
            let h = scope.spawn(move || frontend.recover("acme", &parked, &id2, None));
            entered_rx.recv().unwrap(); // the slot is now held mid-request
            // Saves cannot be degraded: a shed save fails immediately.
            let err = frontend.save_initial("acme", &mut saver, &s, None).unwrap_err();
            assert!(err.is_unavailable(), "queue depth 0 sheds instantly: {err}");
            // A shed recover of a known set degrades to the stale cache
            // instead of failing — serving it costs the store nothing.
            let shed = frontend.recover("acme", &saver, &id, None).unwrap();
            assert_eq!(shed.served, Served::Stale);
            assert_eq!(shed.set, s);
            release_tx.send(()).unwrap();
            assert_eq!(h.join().unwrap().unwrap().served, Served::Fresh);
        });
        assert_eq!(frontend.counters().shed, 2);
        assert_eq!(frontend.counters().stale_serves, 1);
        assert_eq!(frontend.admission().shed(), 2);
    }

    #[test]
    fn expired_deadline_stops_the_request_mid_operation() {
        let (_d, env) = env();
        let config = FrontendConfig { stale_recovers: false, ..FrontendConfig::default() };
        let frontend = FleetFrontend::with_config(&env, config);
        let mut saver = BaselineSaver::new();
        let s = set(2, 5);
        let id = frontend.save_initial("acme", &mut saver, &s, None).unwrap();
        // A zero budget expires by the first store op: the gate stops
        // the request mid-operation, not after it completes.
        let err = frontend
            .recover("acme", &saver, &id, Some(Duration::ZERO))
            .unwrap_err();
        assert!(err.is_deadline_exceeded(), "stopped mid-op: {err}");
        assert_eq!(frontend.counters().deadline_exceeded, 1);
        // The set itself is untouched and a budgeted retry succeeds.
        assert_eq!(frontend.recover("acme", &saver, &id, None).unwrap().set, s);
    }

    #[test]
    fn open_breaker_degrades_recovers_to_the_stale_cache() {
        let dir = TempDir::new("mmm-fleet").unwrap();
        let faults = FaultInjector::new();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::zero())
            .observer(mmm_obs::Observer::new())
            .faults(faults.clone())
            .breaker(BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(3600),
                half_open_probes: 1,
            })
            .open()
            .unwrap();
        let frontend = FleetFrontend::new(&env);
        let mut saver = BaselineSaver::new();
        let s = set(2, 7);
        let id = frontend.save_initial("acme", &mut saver, &s, None).unwrap();

        // A long transient storm trips the docs breaker on the first
        // failure (threshold 1) and keeps the backend dark.
        faults.arm(FaultPlan::transient_at(FaultTarget::Any, 0, 1000));
        let degraded = frontend.recover("acme", &saver, &id, None).unwrap();
        assert_eq!(degraded.served, Served::Stale, "served from the cache");
        assert_eq!(degraded.set, s, "stale copy is the committed version");
        let c = frontend.counters();
        assert_eq!(c.stale_serves, 1);
        assert_eq!(c.ok, 2);

        // While the breaker is open, requests fail fast with a
        // non-retriable verdict — and a set the frontend never saw
        // cannot be served stale.
        let unknown = ModelSetId { approach: "baseline".into(), key: "999".into() };
        let err = frontend.recover("acme", &saver, &unknown, None).unwrap_err();
        assert!(err.is_unavailable(), "breaker verdict: {err}");
        frontend.publish_health();
        let metrics = env.obs().metrics().expect("observer enabled");
        assert_eq!(metrics.gauge("mmm_breaker_state{backend=\"docs\"}"), 2);
    }

    #[test]
    fn tenant_metrics_and_tagged_request_spans_are_attributed() {
        let dir = TempDir::new("mmm-fleet").unwrap();
        let obs = mmm_obs::Observer::new();
        let env = ManagementEnv::builder(dir.path(), LatencyProfile::m1())
            .observer(obs.clone())
            .open()
            .unwrap();
        let frontend = FleetFrontend::new(&env);
        let mut saver = BaselineSaver::new();
        let s = set(2, 9);
        let id = frontend.save_initial("acme", &mut saver, &s, None).unwrap();
        frontend.recover("acme", &saver, &id, None).unwrap();

        let m = env.obs().metrics().unwrap();
        assert_eq!(m.counter("mmm_tenant_requests_total{tenant=\"acme\"}"), 2);
        assert_eq!(m.counter("mmm_tenant_ok_total{tenant=\"acme\"}"), 2);
        assert!(m.counter("mmm_tenant_store_ops_total{tenant=\"acme\"}") > 0, "store attribution");
        assert!(m.counter("mmm_tenant_store_bytes_total{tenant=\"acme\"}") > 0);

        let spans = obs.finished_spans();
        let save = spans.iter().find(|sp| sp.name == "save").expect("root save span");
        assert_eq!(save.tag.as_deref(), Some("rq-acme-1"));
        let rec = spans.iter().find(|sp| sp.name == "recover").expect("root recover span");
        assert_eq!(rec.tag.as_deref(), Some("rq-acme-2"));
        // The phase spans under each request root tile its simulated
        // time exactly: zero residual.
        for root in [save, rec] {
            assert!(root.sim_ns > 0, "m1 profile charges sim time");
            let children: u64 = spans
                .iter()
                .filter(|sp| sp.parent == Some(root.id))
                .map(|sp| sp.sim_ns)
                .sum();
            assert_eq!(children, root.sim_ns, "residual in {}", root.name);
        }

        let slos = mmm_obs::tenant_slos(m, 0.999);
        assert_eq!(slos.len(), 1);
        assert_eq!(slos[0].tenant, "acme");
        assert_eq!(slos[0].ok, 2);
        assert!(slos[0].p50_sim_ns > 0);
        assert_eq!(slos[0].error_budget_used, 0.0);
    }

    #[test]
    fn not_found_is_never_masked_by_the_stale_cache() {
        let (_d, env) = env();
        let frontend = FleetFrontend::new(&env);
        let saver = BaselineSaver::new();
        let ghost = ModelSetId { approach: "baseline".into(), key: "404".into() };
        let err = frontend.recover("acme", &saver, &ghost, None).unwrap_err();
        assert!(matches!(err, Error::NotFound(_)), "got: {err}");
        assert_eq!(frontend.counters().failed, 1);
        assert_eq!(frontend.counters().stale_serves, 0);
    }

    #[test]
    fn stale_cache_evicts_least_recently_used() {
        let mut cache = StaleCache::new(2);
        let ids: Vec<_> = (0..3)
            .map(|i| ModelSetId { approach: "baseline".into(), key: i.to_string() })
            .collect();
        let s = set(1, 11);
        cache.put(&ids[0], &s);
        cache.put(&ids[1], &s);
        cache.get(&ids[0]); // refresh 0 → 1 is now the LRU entry
        cache.put(&ids[2], &s);
        assert!(cache.get(&ids[0]).is_some());
        assert!(cache.get(&ids[1]).is_none(), "evicted");
        assert!(cache.get(&ids[2]).is_some());
    }
}
