//! Deterministic fault injection for the storage substrate.
//!
//! The paper's deployment story (thousands of models saved every update
//! cycle, recovered on demand) only holds if the substrate survives the
//! failures real disks and connections produce: processes dying between
//! two writes, appends torn mid-record, bits rotting in a blob, stores
//! flaking for a few round-trips. This module lets tests script exactly
//! those failures, deterministically:
//!
//! * a [`FaultPlan`] names a trigger (the `index`-th operation matching
//!   a [`FaultTarget`]) and a [`FaultMode`] (crash, torn write, bit
//!   flips, transient errors);
//! * a [`FaultInjector`] is a cheap-clone handle threaded through
//!   [`crate::FileStore`] and [`crate::DocumentStore`]; a disarmed
//!   injector only counts operations;
//! * all randomness (bit-flip positions) comes from the plan's seed via
//!   [`mmm_util::SplitMix64`], so a failing run replays bit-for-bit
//!   from the seed alone.

use std::sync::{Arc, Mutex};

use mmm_util::{Error, Result, Rng, SplitMix64, Unpoison};

/// Store operation classes a fault can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// [`crate::FileStore::put`].
    BlobPut,
    /// [`crate::FileStore::get`] / [`crate::FileStore::get_range`].
    BlobGet,
    /// [`crate::FileStore::delete`].
    BlobDelete,
    /// [`crate::DocumentStore::insert`].
    DocInsert,
    /// [`crate::DocumentStore::get`] / [`crate::DocumentStore::find_eq`].
    DocQuery,
    /// [`crate::DocumentStore::delete`].
    DocDelete,
}

impl OpClass {
    /// Whether operations of this class mutate the store.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            OpClass::BlobPut | OpClass::BlobDelete | OpClass::DocInsert | OpClass::DocDelete
        )
    }
}

/// Which operations count toward a plan's trigger index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Every store operation.
    Any,
    /// Only mutating operations ([`OpClass::is_write`]).
    Writes,
    /// Only one operation class.
    Class(OpClass),
}

impl FaultTarget {
    fn matches(self, class: OpClass) -> bool {
        match self {
            FaultTarget::Any => true,
            FaultTarget::Writes => class.is_write(),
            FaultTarget::Class(c) => c == class,
        }
    }
}

/// What happens when a plan triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails with a permanent I/O error before touching
    /// disk — the process is assumed to die here.
    Crash,
    /// A write persists only the first `keep` bytes of its payload and
    /// then fails — a crash mid-write. Operations without a payload
    /// degrade to [`FaultMode::Crash`].
    TornWrite {
        /// Payload bytes that reach disk before the failure.
        keep: usize,
    },
    /// `flips` payload bits (positions drawn from the plan's seed) are
    /// inverted and the operation reports success — silent media
    /// corruption, only discovered when the data is read back.
    BitFlip {
        /// Number of bit positions drawn (duplicate draws cancel).
        flips: usize,
    },
    /// The operation fails with [`Error::Transient`] `times` times
    /// (the triggering operation and its retries), then succeeds.
    Transient {
        /// Consecutive failures before the fault clears.
        times: u32,
    },
}

/// One planned fault: trigger at the `index`-th operation matching
/// `target`, counted per plan from the moment it is armed (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Which operations count toward `index`.
    pub target: FaultTarget,
    /// 0-based rank of the matching operation that triggers the fault.
    pub index: u64,
    /// What happens at the trigger.
    pub mode: FaultMode,
    /// Seed for the mode's randomness (bit-flip positions). The same
    /// seed over the same operation stream reproduces the same damage.
    pub seed: u64,
}

impl FaultPlan {
    /// Crash the `index`-th operation matching `target`.
    pub fn crash_at(target: FaultTarget, index: u64) -> Self {
        FaultPlan { target, index, mode: FaultMode::Crash, seed: 0 }
    }

    /// Tear the `index`-th matching write after `keep` payload bytes.
    pub fn torn_write_at(target: FaultTarget, index: u64, keep: usize) -> Self {
        FaultPlan { target, index, mode: FaultMode::TornWrite { keep }, seed: 0 }
    }

    /// Flip `flips` seeded bits in the `index`-th matching payload.
    pub fn bit_flip_at(target: FaultTarget, index: u64, flips: usize, seed: u64) -> Self {
        FaultPlan { target, index, mode: FaultMode::BitFlip { flips }, seed }
    }

    /// Fail the `index`-th matching operation transiently `times` times.
    pub fn transient_at(target: FaultTarget, index: u64, times: u32) -> Self {
        FaultPlan { target, index, mode: FaultMode::Transient { times }, seed: 0 }
    }
}

/// The injector's verdict on one operation that is allowed to proceed.
/// (Crash and transient faults surface as `Err` from
/// [`FaultInjector::on_op`] instead.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// Execute the operation unchanged.
    Clean,
    /// Persist only the first `keep` payload bytes, then fail the
    /// operation (the store reports the I/O error).
    Torn {
        /// Payload bytes that reach disk.
        keep: usize,
    },
    /// Apply [`flip_bits`] with this seed/count to the payload and
    /// report success.
    Flip {
        /// Seed for [`flip_bits`].
        seed: u64,
        /// Bit-position draws for [`flip_bits`].
        flips: usize,
    },
}

struct Armed {
    plan: FaultPlan,
    /// Matching operations observed since arming.
    seen: u64,
    /// Remaining failures for [`FaultMode::Transient`].
    transients_left: u32,
    done: bool,
}

#[derive(Default)]
struct State {
    armed: Vec<Armed>,
    ops: u64,
    write_ops: u64,
    /// Optional service gate (deadlines + breakers): every operation is
    /// submitted to it before fault evaluation, and its breakers are fed
    /// the operation's verdict. The injector is the one chokepoint both
    /// stores already pass every operation through, which makes it the
    /// natural mount point for mid-operation request gating.
    gate: Option<crate::gate::ServiceGate>,
}

/// Cheap-clone fault-injection handle shared by the stores of one
/// environment. The default handle is disarmed and merely counts
/// operations (one uncontended mutex acquisition per op).
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Arc<Mutex<State>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.inner.lock().unpoison();
        f.debug_struct("FaultInjector")
            .field("armed", &s.armed.len())
            .field("ops", &s.ops)
            .finish()
    }
}

impl FaultInjector {
    /// A disarmed injector (counts operations, injects nothing).
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Arm a plan. Its operation counter starts at this moment, so
    /// `index` is relative to the work issued *after* arming.
    pub fn arm(&self, plan: FaultPlan) {
        self.inner.lock().unpoison().armed.push(Armed {
            transients_left: match plan.mode {
                FaultMode::Transient { times } => times,
                _ => 0,
            },
            plan,
            seen: 0,
            done: false,
        });
    }

    /// Drop all armed plans (operation counters keep running).
    pub fn disarm_all(&self) {
        self.inner.lock().unpoison().armed.clear();
    }

    /// Total operations observed over the injector's lifetime.
    pub fn ops_observed(&self) -> u64 {
        self.inner.lock().unpoison().ops
    }

    /// Mutating operations observed over the injector's lifetime. The
    /// difference across a save is the number of injectable crash
    /// points that save exposes.
    pub fn write_ops_observed(&self) -> u64 {
        self.inner.lock().unpoison().write_ops
    }

    /// Install a [`crate::gate::ServiceGate`]: from now on every
    /// operation is gated (deadline + breaker) before fault evaluation,
    /// and gated-out operations do not count toward plan indices.
    pub fn install_gate(&self, gate: crate::gate::ServiceGate) {
        self.inner.lock().unpoison().gate = Some(gate);
    }

    /// The installed service gate, if any.
    pub fn gate(&self) -> Option<crate::gate::ServiceGate> {
        self.inner.lock().unpoison().gate.clone()
    }

    /// Register one operation of `class` with payload size `len` and
    /// decide its fate. Crash and transient faults return `Err`; torn
    /// writes and bit flips return an effect the store must apply.
    ///
    /// When a service gate is installed, the gate rules first: an
    /// expired deadline or an open breaker rejects the operation before
    /// it counts toward any fault plan (the store never attempted it),
    /// and admitted operations report their verdict to the backend's
    /// breaker (injected crash/transient faults and torn writes count
    /// as environment failures).
    pub fn on_op(&self, class: OpClass, _len: usize) -> Result<FaultEffect> {
        let mut state = self.inner.lock().unpoison();
        // The gate takes its own (leaf) locks; it never calls back into
        // the injector, so holding our lock across it cannot deadlock.
        if let Some(gate) = &state.gate {
            gate.pre_op(class)?;
        }
        state.ops += 1;
        if class.is_write() {
            state.write_ops += 1;
        }
        let mut effect = FaultEffect::Clean;
        let mut error: Option<Error> = None;
        for armed in &mut state.armed {
            if armed.done || !armed.plan.target.matches(class) {
                continue;
            }
            let rank = armed.seen;
            armed.seen += 1;
            if rank < armed.plan.index {
                continue;
            }
            match armed.plan.mode {
                // Only the exact trigger index fires for one-shot modes;
                // later matching ops run clean (the plan is done).
                FaultMode::Crash => {
                    armed.done = true;
                    if rank == armed.plan.index && error.is_none() {
                        error = Some(Error::Io(std::io::Error::other(format!(
                            "injected crash at {class:?} #{rank}"
                        ))));
                    }
                }
                FaultMode::TornWrite { keep } => {
                    armed.done = true;
                    if rank == armed.plan.index && error.is_none() {
                        if class.is_write() {
                            effect = FaultEffect::Torn { keep };
                        } else {
                            error = Some(Error::Io(std::io::Error::other(format!(
                                "injected crash at {class:?} #{rank}"
                            ))));
                        }
                    }
                }
                FaultMode::BitFlip { flips } => {
                    armed.done = true;
                    if rank == armed.plan.index && error.is_none() {
                        effect = FaultEffect::Flip { seed: armed.plan.seed, flips };
                    }
                }
                FaultMode::Transient { .. } => {
                    if armed.transients_left > 0 {
                        armed.transients_left -= 1;
                        if armed.transients_left == 0 {
                            armed.done = true;
                        }
                        if error.is_none() {
                            error = Some(Error::transient(format!(
                                "injected transient fault at {class:?} #{rank}"
                            )));
                        }
                    } else {
                        armed.done = true;
                    }
                }
            }
        }
        if let Some(gate) = &state.gate {
            // Torn writes persist partial bytes and then fail in the
            // store; for the breaker they are failures like any other
            // environment fault.
            let failed = error.is_some() || matches!(effect, FaultEffect::Torn { .. });
            gate.record_op(class, !failed);
        }
        match error {
            Some(e) => Err(e),
            None => Ok(effect),
        }
    }
}

/// Invert `flips` bits of `bytes` at positions drawn deterministically
/// from `seed`. Duplicate draws cancel each other, so use an odd count
/// when a guaranteed change is needed. No-op on an empty slice.
pub fn flip_bits(bytes: &mut [u8], seed: u64, flips: usize) {
    if bytes.is_empty() {
        return;
    }
    let mut rng = SplitMix64::new(seed);
    for _ in 0..flips {
        let i = rng.below(bytes.len() as u64) as usize;
        let bit = rng.below(8) as u32;
        bytes[i] ^= 1u8 << bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_injector_counts_and_passes_everything() {
        let inj = FaultInjector::new();
        for _ in 0..3 {
            assert_eq!(inj.on_op(OpClass::BlobPut, 10).unwrap(), FaultEffect::Clean);
            assert_eq!(inj.on_op(OpClass::DocQuery, 0).unwrap(), FaultEffect::Clean);
        }
        assert_eq!(inj.ops_observed(), 6);
        assert_eq!(inj.write_ops_observed(), 3);
    }

    #[test]
    fn crash_fires_exactly_once_at_its_index() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::crash_at(FaultTarget::Class(OpClass::BlobPut), 2));
        assert!(inj.on_op(OpClass::BlobPut, 1).is_ok()); // #0
        assert!(inj.on_op(OpClass::DocInsert, 1).is_ok()); // not counted
        assert!(inj.on_op(OpClass::BlobPut, 1).is_ok()); // #1
        assert!(matches!(inj.on_op(OpClass::BlobPut, 1), Err(Error::Io(_)))); // #2
        assert!(inj.on_op(OpClass::BlobPut, 1).is_ok(), "one-shot: later ops run clean");
    }

    #[test]
    fn writes_target_skips_reads() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::crash_at(FaultTarget::Writes, 0));
        assert!(inj.on_op(OpClass::BlobGet, 0).is_ok());
        assert!(inj.on_op(OpClass::DocQuery, 0).is_ok());
        assert!(inj.on_op(OpClass::DocInsert, 5).is_err());
    }

    #[test]
    fn torn_write_yields_effect_for_writes_and_error_for_reads() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::torn_write_at(FaultTarget::Class(OpClass::BlobPut), 0, 7));
        assert_eq!(inj.on_op(OpClass::BlobPut, 100).unwrap(), FaultEffect::Torn { keep: 7 });

        let inj = FaultInjector::new();
        inj.arm(FaultPlan::torn_write_at(FaultTarget::Class(OpClass::BlobGet), 0, 7));
        assert!(inj.on_op(OpClass::BlobGet, 0).is_err());
    }

    #[test]
    fn transient_fails_n_times_then_succeeds() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::transient_at(FaultTarget::Class(OpClass::DocInsert), 1, 2));
        assert!(inj.on_op(OpClass::DocInsert, 1).is_ok()); // #0
        assert!(matches!(inj.on_op(OpClass::DocInsert, 1), Err(Error::Transient(_)))); // #1
        assert!(matches!(inj.on_op(OpClass::DocInsert, 1), Err(Error::Transient(_)))); // retry
        assert!(inj.on_op(OpClass::DocInsert, 1).is_ok(), "fault cleared");
        assert!(inj.on_op(OpClass::DocInsert, 1).is_ok());
    }

    #[test]
    fn bit_flips_are_deterministic_in_the_seed() {
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        flip_bits(&mut a, 42, 3);
        flip_bits(&mut b, 42, 3);
        assert_eq!(a, b, "same seed, same damage");
        assert_ne!(a, vec![0u8; 64], "odd flip count must change the buffer");
        let mut c = vec![0u8; 64];
        flip_bits(&mut c, 43, 3);
        assert_ne!(a, c, "different seed, different damage");
        // Empty buffers are left alone.
        flip_bits(&mut [], 1, 5);
    }

    #[test]
    fn plans_count_from_arming_not_from_injector_birth() {
        let inj = FaultInjector::new();
        assert!(inj.on_op(OpClass::BlobPut, 1).is_ok());
        assert!(inj.on_op(OpClass::BlobPut, 1).is_ok());
        inj.arm(FaultPlan::crash_at(FaultTarget::Class(OpClass::BlobPut), 0));
        assert!(inj.on_op(OpClass::BlobPut, 1).is_err(), "index 0 = first op after arming");
    }

    #[test]
    fn disarm_clears_pending_plans() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::crash_at(FaultTarget::Any, 0));
        inj.disarm_all();
        assert!(inj.on_op(OpClass::BlobPut, 1).is_ok());
    }

    #[test]
    fn installed_gate_rejects_before_plans_count_and_feeds_breakers() {
        use crate::gate::{Backend, BreakerConfig, BreakerState, ServiceGate};
        use mmm_util::VirtualClock;
        use std::time::Duration;

        let inj = FaultInjector::new();
        let gate = ServiceGate::new(
            VirtualClock::new(),
            BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(3600),
                half_open_probes: 1,
            },
        );
        inj.install_gate(gate.clone());

        // Two injected transient faults trip the blobs breaker...
        inj.arm(FaultPlan::transient_at(FaultTarget::Class(OpClass::BlobPut), 0, 2));
        assert!(inj.on_op(OpClass::BlobPut, 1).is_err());
        assert!(inj.on_op(OpClass::BlobPut, 1).is_err());
        assert_eq!(gate.breaker(Backend::Blobs).state(), BreakerState::Open);

        // ...after which ops are rejected *before* the op counter moves
        // or any armed plan sees them.
        let ops_before = inj.ops_observed();
        inj.arm(FaultPlan::crash_at(FaultTarget::Class(OpClass::BlobPut), 0));
        let err = inj.on_op(OpClass::BlobPut, 1).unwrap_err();
        assert!(err.is_unavailable(), "breaker verdict, not the armed crash: {err}");
        assert_eq!(inj.ops_observed(), ops_before, "gated-out ops are never counted");

        // The docs backend is unaffected; its clean ops feed its breaker.
        assert!(inj.on_op(OpClass::DocInsert, 1).is_ok());
        assert_eq!(gate.breaker(Backend::Docs).state(), BreakerState::Closed);
    }
}
