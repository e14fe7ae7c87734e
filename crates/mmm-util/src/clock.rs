//! Hybrid real/virtual time for reproducing the paper's timing experiments.
//!
//! The paper measures time-to-save (TTS) and time-to-recover (TTR) on two
//! hardware setups whose main difference is the latency of the document
//! store connection (§4.3: "the faster connections to the document store on
//! the server setup"). We reproduce this with a [`VirtualClock`]: real
//! compute and file I/O time is measured with [`std::time::Instant`], and
//! each simulated store round-trip *advances* the clock by the configured
//! latency instead of sleeping. `elapsed()` therefore reports
//! `real + simulated`, which preserves the paper's orderings and
//! crossovers while keeping the benchmark suite fast and deterministic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use crate::Unpoison;

/// Per-operation latency model for a (document or file) store connection.
///
/// `fixed` is the round-trip cost of one operation; `per_byte` models
/// transfer bandwidth (cost added per payload byte).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed per-operation round-trip latency.
    pub fixed: Duration,
    /// Additional latency per payload byte (1/bandwidth).
    pub per_byte_ns: f64,
}

impl LatencyModel {
    /// A latency model with only a fixed per-op cost.
    pub const fn fixed(fixed: Duration) -> Self {
        LatencyModel { fixed, per_byte_ns: 0.0 }
    }

    /// A zero-cost model (used by unit tests).
    pub const fn zero() -> Self {
        LatencyModel { fixed: Duration::ZERO, per_byte_ns: 0.0 }
    }

    /// Latency charged for an operation carrying `bytes` of payload.
    pub fn cost(&self, bytes: u64) -> Duration {
        self.fixed + Duration::from_nanos((self.per_byte_ns * bytes as f64) as u64)
    }
}

/// A monotonically advancing clock combining real elapsed time with
/// simulated latency charges. Cloning is cheap and clones share state, so
/// one clock can be threaded through stores and savers.
///
/// # Lanes and critical-path accounting
///
/// A sequential program's simulated time is the *sum* of its charges. A
/// parallel section's simulated time is the time of its slowest worker —
/// the critical path — not the sum over all workers. To keep TTS/TTR
/// honest under parallel save/recover, a worker thread registers itself
/// as a *lane* ([`VirtualClock::enter_lane`]); charges made from that
/// thread accumulate on the lane instead of the shared clock. When the
/// parallel section joins, the executor charges `max(lane totals)` once
/// ([`crate::parallel`] does this automatically). With no lanes
/// registered the fast path is a single atomic add, exactly as before.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    start: Instant,
    simulated_ns: Arc<AtomicU64>,
    /// Number of currently registered lanes; 0 ⇒ charge() takes the
    /// lock-free fast path.
    lane_count: Arc<AtomicUsize>,
    /// Worker-thread → lane accumulator (nanoseconds).
    lanes: Arc<Mutex<HashMap<ThreadId, Arc<AtomicU64>>>>,
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualClock {
    /// A fresh clock with zero accumulated simulated time.
    pub fn new() -> Self {
        VirtualClock {
            start: Instant::now(),
            simulated_ns: Arc::new(AtomicU64::new(0)),
            lane_count: Arc::new(AtomicUsize::new(0)),
            lanes: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The lane map, recovering from poisoning: the map holds plain
    /// `Arc<AtomicU64>` accumulators, so a panic while holding the lock
    /// cannot leave it in an inconsistent state worth propagating.
    fn lanes(&self) -> MutexGuard<'_, HashMap<ThreadId, Arc<AtomicU64>>> {
        self.lanes.lock().unpoison()
    }

    /// Charge simulated latency to the clock (e.g. one store round-trip).
    /// From a thread registered as a lane the charge lands on that lane's
    /// accumulator; otherwise it lands on the shared clock directly.
    pub fn charge(&self, d: Duration) {
        let ns = d.as_nanos() as u64;
        if self.lane_count.load(Ordering::Relaxed) != 0 {
            if let Some(acc) = self.lanes().get(&std::thread::current().id()) {
                acc.fetch_add(ns, Ordering::Relaxed);
                return;
            }
        }
        self.simulated_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Register the current thread as a parallel lane. Until the guard is
    /// [`finished`](LaneGuard::finish), every `charge` from this thread
    /// accumulates on the lane instead of the shared clock. The executor
    /// that spawned the lanes is responsible for charging the maximum
    /// lane total (the critical path) back to the clock after the join.
    ///
    /// Nesting is allowed: re-entering from an already-registered thread
    /// shadows the outer lane, and dropping the inner guard restores it
    /// (the service frontend opens a lane per request around savers that
    /// may open their own parallel sections).
    pub fn enter_lane(&self) -> LaneGuard {
        let acc = Arc::new(AtomicU64::new(0));
        let tid = std::thread::current().id();
        let prev = self.lanes().insert(tid, acc.clone());
        if prev.is_none() {
            self.lane_count.fetch_add(1, Ordering::Relaxed);
        }
        LaneGuard { clock: self.clone(), tid, acc, prev, done: false }
    }

    /// Simulated time accumulated so far.
    pub fn simulated(&self) -> Duration {
        Duration::from_nanos(self.simulated_ns.load(Ordering::Relaxed))
    }

    /// Simulated time as seen from the *current thread*: if this thread is
    /// registered as a lane, its lane accumulator; otherwise the shared
    /// clock. Two reads of this from the same thread bracket exactly the
    /// simulated charges that landed on this thread's account in between
    /// (including the critical-path charge a parallel join makes on the
    /// calling thread), which is what span measurement needs.
    pub fn thread_simulated(&self) -> Duration {
        if self.lane_count.load(Ordering::Relaxed) != 0 {
            if let Some(acc) = self.lanes().get(&std::thread::current().id()) {
                return Duration::from_nanos(acc.load(Ordering::Relaxed));
            }
        }
        self.simulated()
    }

    /// Real wall-clock time since the clock was created.
    pub fn real_elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Total time: real + simulated.
    pub fn elapsed(&self) -> Duration {
        self.real_elapsed() + self.simulated()
    }

    /// Take a measurement point for timing a section; see [`Stopwatch`].
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch {
            clock: self.clone(),
            real_start: Instant::now(),
            sim_start: self.simulated(),
        }
    }
}

/// Guard for a thread registered as a parallel lane on a
/// [`VirtualClock`]. Obtained from [`VirtualClock::enter_lane`] on the
/// worker thread itself; dropping (or calling [`LaneGuard::finish`])
/// unregisters the lane and yields its accumulated simulated time.
#[derive(Debug)]
pub struct LaneGuard {
    clock: VirtualClock,
    tid: ThreadId,
    acc: Arc<AtomicU64>,
    /// Outer lane shadowed by this guard, restored on unregister.
    prev: Option<Arc<AtomicU64>>,
    done: bool,
}

impl LaneGuard {
    /// Simulated time charged to this lane so far.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.acc.load(Ordering::Relaxed))
    }

    /// Unregister the lane and return its total simulated time. The
    /// caller (the parallel executor, after joining all workers) decides
    /// what to charge back to the clock — normally the max over lanes.
    pub fn finish(mut self) -> Duration {
        self.unregister();
        self.total()
    }

    fn unregister(&mut self) {
        if !self.done {
            self.done = true;
            match self.prev.take() {
                Some(outer) => {
                    // Restore the shadowed outer lane; the lane count is
                    // unchanged (this thread stays registered).
                    self.clock.lanes().insert(self.tid, outer);
                }
                None => {
                    self.clock.lanes().remove(&self.tid);
                    self.clock.lane_count.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        self.unregister();
    }
}

/// Measures the hybrid duration of a code section on a [`VirtualClock`].
#[derive(Debug)]
pub struct Stopwatch {
    clock: VirtualClock,
    real_start: Instant,
    sim_start: Duration,
}

impl Stopwatch {
    /// Hybrid time elapsed since the stopwatch was started: real time spent
    /// plus simulated latency charged to the clock in the meantime.
    pub fn elapsed(&self) -> Duration {
        self.real_start.elapsed() + (self.clock.simulated() - self.sim_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let c = VirtualClock::new();
        c.charge(Duration::from_millis(5));
        c.charge(Duration::from_millis(7));
        assert_eq!(c.simulated(), Duration::from_millis(12));
        assert!(c.elapsed() >= Duration::from_millis(12));
    }

    #[test]
    fn clones_share_state() {
        let c = VirtualClock::new();
        let c2 = c.clone();
        c2.charge(Duration::from_millis(3));
        assert_eq!(c.simulated(), Duration::from_millis(3));
    }

    #[test]
    fn stopwatch_captures_simulated_window() {
        let c = VirtualClock::new();
        c.charge(Duration::from_millis(100)); // before the window
        let sw = c.stopwatch();
        c.charge(Duration::from_millis(4));
        let e = sw.elapsed();
        assert!(e >= Duration::from_millis(4));
        assert!(e < Duration::from_millis(100), "pre-window charge excluded");
    }

    #[test]
    fn latency_model_cost() {
        let m = LatencyModel {
            fixed: Duration::from_micros(100),
            per_byte_ns: 1.0, // 1 ns per byte ≈ 1 GB/s
        };
        assert_eq!(m.cost(0), Duration::from_micros(100));
        assert_eq!(m.cost(1_000_000), Duration::from_micros(100) + Duration::from_millis(1));
        assert_eq!(LatencyModel::zero().cost(1 << 30), Duration::ZERO);
    }

    #[test]
    fn lane_charges_divert_from_shared_clock() {
        let c = VirtualClock::new();
        c.charge(Duration::from_millis(1));
        let clock = c.clone();
        let lane_total = std::thread::spawn(move || {
            let lane = clock.enter_lane();
            clock.charge(Duration::from_millis(10));
            clock.charge(Duration::from_millis(5));
            lane.finish()
        })
        .join()
        .unwrap();
        assert_eq!(lane_total, Duration::from_millis(15));
        // The lane's charges never reached the shared accumulator.
        assert_eq!(c.simulated(), Duration::from_millis(1));
    }

    #[test]
    fn unregistered_threads_charge_shared_even_while_lanes_exist() {
        let c = VirtualClock::new();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker_clock = c.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                let lane = worker_clock.enter_lane();
                worker_clock.charge(Duration::from_millis(7));
                ready_tx.send(()).unwrap();
                done_rx.recv().unwrap(); // hold the lane open
                assert_eq!(lane.finish(), Duration::from_millis(7));
            });
            ready_rx.recv().unwrap();
            // Main thread is NOT a lane: its charge goes through even
            // though another thread's lane is currently registered.
            c.charge(Duration::from_millis(2));
            assert_eq!(c.simulated(), Duration::from_millis(2));
            done_tx.send(()).unwrap();
        });
        assert_eq!(c.simulated(), Duration::from_millis(2));
    }

    #[test]
    fn thread_simulated_tracks_the_callers_account() {
        let c = VirtualClock::new();
        c.charge(Duration::from_millis(2));
        assert_eq!(c.thread_simulated(), Duration::from_millis(2));
        let clock = c.clone();
        std::thread::spawn(move || {
            let lane = clock.enter_lane();
            let before = clock.thread_simulated();
            clock.charge(Duration::from_millis(5));
            let after = clock.thread_simulated();
            assert_eq!(after - before, Duration::from_millis(5));
            lane.finish();
        })
        .join()
        .unwrap();
        // Main thread still sees only the shared accumulator.
        assert_eq!(c.thread_simulated(), Duration::from_millis(2));
    }

    #[test]
    fn dropping_a_lane_unregisters_it() {
        let c = VirtualClock::new();
        {
            let _lane = c.enter_lane();
            c.charge(Duration::from_millis(9)); // lands on the lane
        }
        c.charge(Duration::from_millis(3)); // lane gone → shared
        assert_eq!(c.simulated(), Duration::from_millis(3));
    }

    #[test]
    fn nested_lanes_shadow_and_restore() {
        let c = VirtualClock::new();
        let outer = c.enter_lane();
        c.charge(Duration::from_millis(1)); // outer lane
        {
            let inner = c.enter_lane();
            c.charge(Duration::from_millis(10)); // inner lane
            assert_eq!(inner.finish(), Duration::from_millis(10));
        }
        c.charge(Duration::from_millis(2)); // outer lane restored
        assert_eq!(outer.finish(), Duration::from_millis(3));
        // Nothing leaked to the shared clock, and the thread is fully
        // unregistered again.
        assert_eq!(c.simulated(), Duration::ZERO);
        c.charge(Duration::from_millis(4));
        assert_eq!(c.simulated(), Duration::from_millis(4));
    }

    #[test]
    fn real_elapsed_is_monotone() {
        let c = VirtualClock::new();
        let a = c.real_elapsed();
        let b = c.real_elapsed();
        assert!(b >= a);
    }
}
