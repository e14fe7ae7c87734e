//! Service gate: per-request deadlines and per-backend circuit breakers.
//!
//! A long-running management service fans many tenants into one store.
//! Two failure amplifiers must be cut off *inside* the store, not at the
//! request boundary:
//!
//! * a request that has already blown its time budget keeps issuing
//!   round-trips (and charging simulated latency) unless every operation
//!   checks the budget — the [`ServiceGate`] holds per-thread deadlines
//!   that [`crate::FaultInjector::on_op`] consults before each store
//!   operation, so an expired request fails **mid-operation** with
//!   [`Error::DeadlineExceeded`];
//! * a faulting backend (the document store or the blob store) turns
//!   every tenant's retry loop into a backoff storm — a per-backend
//!   [`CircuitBreaker`] counts consecutive environment faults and, once
//!   open, rejects operations immediately with [`Error::Unavailable`]
//!   until a cooldown elapses on the environment's [`VirtualClock`]
//!   (hybrid real + simulated time), then lets a bounded number of
//!   half-open probes decide whether to close again.
//!
//! Both rejections are *non-retriable by design* (see the error
//! taxonomy): retrying cannot refill a deadline or close a breaker, so
//! the retry loop in the core env fails fast and the fleet frontend
//! decides what to do at the request level (shed, or serve a stale
//! version).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use mmm_util::{Error, Result, Unpoison, VirtualClock};

use crate::fault::OpClass;

/// The two storage backends a breaker can guard. Every [`OpClass`]
/// belongs to exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The document store (metadata collections).
    Docs,
    /// The blob store (parameter/diff payloads), plain or CAS.
    Blobs,
}

impl Backend {
    /// Which backend serves operations of `class`.
    pub fn of(class: OpClass) -> Backend {
        match class {
            OpClass::BlobPut | OpClass::BlobGet | OpClass::BlobDelete => Backend::Blobs,
            OpClass::DocInsert | OpClass::DocQuery | OpClass::DocDelete => Backend::Docs,
        }
    }

    /// Stable lowercase name (metric labels, error messages).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Docs => "docs",
            Backend::Blobs => "blobs",
        }
    }
}

/// Circuit-breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every operation is admitted.
    Closed,
    /// Tripped: operations are rejected until the cooldown elapses.
    Open,
    /// Probing: a bounded number of operations are admitted; the first
    /// verdict decides between [`BreakerState::Closed`] and re-opening.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (metric labels, reports).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Tuning for a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive environment faults (transient or I/O) that trip the
    /// breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before allowing half-open
    /// probes, measured on the environment clock's hybrid time
    /// (real + simulated — simulated backoff charges count).
    pub cooldown: Duration,
    /// Operations admitted concurrently while half-open.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(100),
            half_open_probes: 1,
        }
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    /// Clock hybrid time when the breaker last opened.
    opened_at: Duration,
    probes_in_flight: u32,
    trips: u64,
    rejections: u64,
}

/// A closed/open/half-open circuit breaker guarding one [`Backend`].
///
/// Driven by the retry taxonomy: only environment faults (injected
/// transients and I/O failures — the errors [`Error::is_transient`]
/// classifies as retryable plus hard I/O) count toward the trip
/// threshold; caller errors (`NotFound`, `Invalid`) never trip it.
#[derive(Debug)]
pub struct CircuitBreaker {
    backend: Backend,
    config: BreakerConfig,
    clock: VirtualClock,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    fn new(backend: Backend, config: BreakerConfig, clock: VirtualClock) -> Self {
        CircuitBreaker {
            backend,
            config,
            clock,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Duration::ZERO,
                probes_in_flight: 0,
                trips: 0,
                rejections: 0,
            }),
        }
    }

    /// Decide whether one operation may proceed. Open breakers reject
    /// with [`Error::Unavailable`] until the cooldown elapses, then
    /// flip to half-open and admit a bounded number of probes.
    pub fn admit(&self) -> Result<()> {
        let mut inner = self.inner.lock().unpoison();
        match inner.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open => {
                if self.clock.elapsed().saturating_sub(inner.opened_at) >= self.config.cooldown {
                    inner.state = BreakerState::HalfOpen;
                    inner.probes_in_flight = 1;
                    Ok(())
                } else {
                    inner.rejections += 1;
                    Err(Error::unavailable(format!(
                        "{} backend circuit breaker open (cooling down)",
                        self.backend.name()
                    )))
                }
            }
            BreakerState::HalfOpen => {
                if inner.probes_in_flight < self.config.half_open_probes {
                    inner.probes_in_flight += 1;
                    Ok(())
                } else {
                    inner.rejections += 1;
                    Err(Error::unavailable(format!(
                        "{} backend circuit breaker half-open (probe in flight)",
                        self.backend.name()
                    )))
                }
            }
        }
    }

    /// Record the outcome of one admitted operation. `ok = false` means
    /// an environment fault (transient, I/O, torn write) — the only
    /// outcomes that count toward tripping.
    pub fn record(&self, ok: bool) {
        let mut inner = self.inner.lock().unpoison();
        match inner.state {
            BreakerState::Closed => {
                if ok {
                    inner.consecutive_failures = 0;
                } else {
                    inner.consecutive_failures += 1;
                    if inner.consecutive_failures >= self.config.failure_threshold {
                        inner.state = BreakerState::Open;
                        inner.opened_at = self.clock.elapsed();
                        inner.trips += 1;
                    }
                }
            }
            BreakerState::HalfOpen => {
                inner.probes_in_flight = inner.probes_in_flight.saturating_sub(1);
                if ok {
                    inner.state = BreakerState::Closed;
                    inner.consecutive_failures = 0;
                } else {
                    inner.state = BreakerState::Open;
                    inner.opened_at = self.clock.elapsed();
                    inner.trips += 1;
                }
            }
            // An op admitted before the trip can report after it; the
            // verdict is already in.
            BreakerState::Open => {}
        }
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.inner.lock().unpoison().state
    }

    /// Times the breaker has transitioned to open.
    pub fn trips(&self) -> u64 {
        self.inner.lock().unpoison().trips
    }

    /// Operations rejected while open/half-open.
    pub fn rejections(&self) -> u64 {
        self.inner.lock().unpoison().rejections
    }
}

/// One thread's armed request deadline.
#[derive(Debug, Clone, Copy)]
struct ThreadDeadline {
    started_real: Instant,
    started_sim: Duration,
    budget: Duration,
}

#[derive(Debug)]
struct GateInner {
    clock: VirtualClock,
    docs: CircuitBreaker,
    blobs: CircuitBreaker,
    deadlines: Mutex<HashMap<ThreadId, ThreadDeadline>>,
    /// Fast-path skip: number of armed deadlines (mostly zero outside
    /// the fleet frontend).
    armed: AtomicUsize,
    deadline_rejections: AtomicU64,
}

/// Cheap-clone handle combining the per-backend breakers and the
/// per-thread deadline registry of one environment. Installed into the
/// environment's [`crate::FaultInjector`] so that **every** store
/// operation passes through [`ServiceGate::pre_op`] — deadline and
/// breaker enforcement happen mid-operation, deep inside a save or
/// recover, not just at the request boundary.
///
/// Deadlines are per *thread*: the fleet frontend arms one on the
/// request's thread (normally also registered as a clock lane, so the
/// simulated charge attribution is per-request). Worker threads a save
/// spawns internally are not covered — the request thread re-checks on
/// join.
#[derive(Debug, Clone)]
pub struct ServiceGate {
    inner: Arc<GateInner>,
}

impl ServiceGate {
    /// A gate over `clock` with both breakers using `config`.
    pub fn new(clock: VirtualClock, config: BreakerConfig) -> Self {
        ServiceGate {
            inner: Arc::new(GateInner {
                docs: CircuitBreaker::new(Backend::Docs, config, clock.clone()),
                blobs: CircuitBreaker::new(Backend::Blobs, config, clock.clone()),
                clock,
                deadlines: Mutex::new(HashMap::new()),
                armed: AtomicUsize::new(0),
                deadline_rejections: AtomicU64::new(0),
            }),
        }
    }

    /// The breaker guarding `backend`.
    pub fn breaker(&self, backend: Backend) -> &CircuitBreaker {
        match backend {
            Backend::Docs => &self.inner.docs,
            Backend::Blobs => &self.inner.blobs,
        }
    }

    /// Arm a deadline of `budget` for the current thread. Until the
    /// guard drops, every store operation issued from this thread fails
    /// with [`Error::DeadlineExceeded`] once the hybrid elapsed time
    /// (real + this thread's simulated charges) exceeds the budget.
    /// Nested arms stack: the inner guard restores the outer deadline.
    pub fn arm_deadline(&self, budget: Duration) -> DeadlineGuard {
        let tid = std::thread::current().id();
        let entry = ThreadDeadline {
            started_real: Instant::now(),
            started_sim: self.inner.clock.thread_simulated(),
            budget,
        };
        let prev = self.inner.deadlines.lock().unpoison().insert(tid, entry);
        if prev.is_none() {
            self.inner.armed.fetch_add(1, Ordering::Relaxed);
        }
        DeadlineGuard { gate: self.clone(), tid, prev, disarmed: false }
    }

    fn spent(&self, d: &ThreadDeadline) -> Duration {
        let sim = self.inner.clock.thread_simulated().saturating_sub(d.started_sim);
        d.started_real.elapsed() + sim
    }

    /// Time left on the current thread's deadline; `None` when no
    /// deadline is armed.
    pub fn remaining(&self) -> Option<Duration> {
        if self.inner.armed.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let tid = std::thread::current().id();
        let d = *self.inner.deadlines.lock().unpoison().get(&tid)?;
        Some(d.budget.saturating_sub(self.spent(&d)))
    }

    /// Fail with [`Error::DeadlineExceeded`] if the current thread's
    /// armed deadline has expired. A no-op when none is armed.
    pub fn check_deadline(&self) -> Result<()> {
        if self.inner.armed.load(Ordering::Relaxed) == 0 {
            return Ok(());
        }
        let tid = std::thread::current().id();
        let d = match self.inner.deadlines.lock().unpoison().get(&tid) {
            Some(d) => *d,
            None => return Ok(()),
        };
        let spent = self.spent(&d);
        if spent > d.budget {
            self.inner.deadline_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(Error::deadline_exceeded(format!(
                "request budget {:?} spent ({:?} elapsed)",
                d.budget, spent
            )));
        }
        Ok(())
    }

    /// The gate's verdict on one store operation, called by the fault
    /// injector before the operation touches disk or charges latency:
    /// deadline first (an expired request must stop even when the
    /// backend is healthy), then the backend's breaker.
    pub fn pre_op(&self, class: OpClass) -> Result<()> {
        self.check_deadline()?;
        self.breaker(Backend::of(class)).admit()
    }

    /// Record the outcome of one admitted operation on the backend's
    /// breaker.
    pub fn record_op(&self, class: OpClass, ok: bool) {
        self.breaker(Backend::of(class)).record(ok);
    }

    /// Operations rejected because a deadline had expired.
    pub fn deadline_rejections(&self) -> u64 {
        self.inner.deadline_rejections.load(Ordering::Relaxed)
    }
}

/// Guard for an armed per-thread deadline; dropping disarms it (and
/// restores any outer deadline it shadowed).
#[derive(Debug)]
pub struct DeadlineGuard {
    gate: ServiceGate,
    tid: ThreadId,
    prev: Option<ThreadDeadline>,
    disarmed: bool,
}

impl DeadlineGuard {
    fn disarm(&mut self) {
        if self.disarmed {
            return;
        }
        self.disarmed = true;
        let mut map = self.gate.inner.deadlines.lock().unpoison();
        match self.prev.take() {
            Some(prev) => {
                map.insert(self.tid, prev);
            }
            None => {
                if map.remove(&self.tid).is_some() {
                    self.gate.inner.armed.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        self.disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(cfg: BreakerConfig) -> ServiceGate {
        ServiceGate::new(VirtualClock::new(), cfg)
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_rejects() {
        let g = gate(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(3600),
            half_open_probes: 1,
        });
        let b = g.breaker(Backend::Blobs);
        for _ in 0..2 {
            b.admit().unwrap();
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.admit().unwrap();
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        let err = b.admit().unwrap_err();
        assert!(err.is_unavailable(), "open breaker rejects fast: {err}");
        assert!(!err.is_transient(), "breaker-open must not be retried");
        assert_eq!(b.rejections(), 1);
        // The docs breaker is independent.
        g.breaker(Backend::Docs).admit().unwrap();
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let g = gate(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(3600),
            half_open_probes: 1,
        });
        let b = g.breaker(Backend::Docs);
        b.record(false);
        b.record(true);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Closed, "non-consecutive failures never trip");
    }

    #[test]
    fn cooldown_elapses_on_simulated_time_then_probe_decides() {
        let clock = VirtualClock::new();
        let g = ServiceGate::new(
            clock.clone(),
            BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(5),
                half_open_probes: 1,
            },
        );
        let b = g.breaker(Backend::Blobs);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.admit().is_err(), "cooldown not elapsed");
        // Simulated charges count toward the cooldown (hybrid time).
        clock.charge(Duration::from_secs(6));
        b.admit().unwrap();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.admit().is_err(), "only one probe admitted");
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
        clock.charge(Duration::from_secs(6));
        b.admit().unwrap();
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed, "successful probe closes");
        b.admit().unwrap();
    }

    #[test]
    fn deadline_expires_on_simulated_charges() {
        let clock = VirtualClock::new();
        let g = ServiceGate::new(clock.clone(), BreakerConfig::default());
        assert!(g.check_deadline().is_ok(), "no deadline armed");
        assert_eq!(g.remaining(), None);
        let guard = g.arm_deadline(Duration::from_secs(10));
        g.check_deadline().unwrap();
        assert!(g.remaining().unwrap() > Duration::from_secs(9));
        clock.charge(Duration::from_secs(11));
        let err = g.check_deadline().unwrap_err();
        assert!(err.is_deadline_exceeded(), "got {err}");
        assert!(!err.is_transient(), "deadline-exceeded must not be retried");
        assert_eq!(g.remaining().unwrap(), Duration::ZERO);
        assert_eq!(g.deadline_rejections(), 1);
        drop(guard);
        assert!(g.check_deadline().is_ok(), "disarmed on drop");
    }

    #[test]
    fn deadlines_are_per_thread_and_nested_arms_restore() {
        let clock = VirtualClock::new();
        let g = ServiceGate::new(clock.clone(), BreakerConfig::default());
        let _outer = g.arm_deadline(Duration::from_secs(3600));
        {
            let g2 = g.clone();
            // Another thread is unaffected by this thread's deadline.
            std::thread::spawn(move || {
                assert_eq!(g2.remaining(), None);
                g2.check_deadline().unwrap();
            })
            .join()
            .unwrap();
        }
        {
            let _inner = g.arm_deadline(Duration::from_secs(1));
            clock.charge(Duration::from_secs(2));
            assert!(g.check_deadline().is_err(), "inner deadline expired");
        }
        g.check_deadline().unwrap_or_else(|e| panic!("outer deadline restored: {e}"));
    }

    #[test]
    fn pre_op_routes_classes_to_their_backend() {
        let g = gate(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3600),
            half_open_probes: 1,
        });
        g.record_op(OpClass::BlobPut, false);
        assert!(g.pre_op(OpClass::BlobGet).is_err(), "blobs breaker open");
        g.pre_op(OpClass::DocInsert).unwrap();
        g.pre_op(OpClass::DocQuery).unwrap();
        assert_eq!(Backend::of(OpClass::DocDelete), Backend::Docs);
        assert_eq!(Backend::of(OpClass::BlobDelete), Backend::Blobs);
    }
}
