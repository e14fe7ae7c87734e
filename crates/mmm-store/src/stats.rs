//! Operation and byte accounting shared by the stores.
//!
//! The paper's storage-consumption metric is "the amount of storage
//! needed to save a set of models" — we measure it as the exact bytes the
//! savers hand to the stores, tracked here and cross-checked against
//! on-disk file sizes in integration tests.
//!
//! Global counters are exact sums regardless of thread count: every
//! operation is recorded once whether it ran sequentially or on a worker
//! lane. In addition, a worker thread registered via
//! [`StoreStats::enter_lane`] gets a private per-lane copy of each
//! counter, so a parallel section can report how work and bytes were
//! distributed across its lanes without perturbing the global sums.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use mmm_util::Unpoison;

/// Maximum number of finished-lane snapshots kept in the history log.
const LANE_LOG_CAPACITY: usize = 4096;

/// Shared, thread-safe counters. Clone is cheap (Arc inside).
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    inner: Arc<Counters>,
    /// Number of currently registered lanes; 0 ⇒ record() skips the map.
    lane_count: Arc<AtomicUsize>,
    /// Worker-thread → per-lane counters.
    lanes: Arc<Mutex<HashMap<ThreadId, Arc<Counters>>>>,
    /// Snapshots of finished lanes, newest last, capped at
    /// [`LANE_LOG_CAPACITY`] (oldest evicted). Observability reads this
    /// to report how ops/bytes were distributed across worker lanes.
    lane_log: Arc<Mutex<Vec<StatsSnapshot>>>,
}

#[derive(Debug, Default)]
struct Counters {
    doc_inserts: AtomicU64,
    doc_queries: AtomicU64,
    doc_deletes: AtomicU64,
    blob_puts: AtomicU64,
    blob_gets: AtomicU64,
    blob_deletes: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    bytes_copied: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            doc_inserts: self.doc_inserts.load(Ordering::Relaxed),
            doc_queries: self.doc_queries.load(Ordering::Relaxed),
            doc_deletes: self.doc_deletes.load(Ordering::Relaxed),
            blob_puts: self.blob_puts.load(Ordering::Relaxed),
            blob_gets: self.blob_gets.load(Ordering::Relaxed),
            blob_deletes: self.blob_deletes.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Document-store inserts.
    pub doc_inserts: u64,
    /// Document-store queries.
    pub doc_queries: u64,
    /// Document-store deletions.
    pub doc_deletes: u64,
    /// File-store writes.
    pub blob_puts: u64,
    /// File-store reads.
    pub blob_gets: u64,
    /// File-store deletions.
    pub blob_deletes: u64,
    /// Total payload bytes written (documents + blobs).
    pub bytes_written: u64,
    /// Total payload bytes read.
    pub bytes_read: u64,
    /// Payload bytes that were *materialized* into heap buffers on the
    /// read path (`get`/`get_range`, CAS chunk assembly, and the owned
    /// fallback of `get_mapped`). Memory-mapped reads serve decoders
    /// straight from the page cache and add nothing here, so
    /// `bytes_copied / bytes_read` over a recovery is the
    /// copies-per-recovered-byte ratio reported by the scale bench.
    pub bytes_copied: u64,
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;

    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            doc_inserts: self.doc_inserts - rhs.doc_inserts,
            doc_queries: self.doc_queries - rhs.doc_queries,
            doc_deletes: self.doc_deletes - rhs.doc_deletes,
            blob_puts: self.blob_puts - rhs.blob_puts,
            blob_gets: self.blob_gets - rhs.blob_gets,
            blob_deletes: self.blob_deletes - rhs.blob_deletes,
            bytes_written: self.bytes_written - rhs.bytes_written,
            bytes_read: self.bytes_read - rhs.bytes_read,
            bytes_copied: self.bytes_copied - rhs.bytes_copied,
        }
    }
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;

    fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            doc_inserts: self.doc_inserts + rhs.doc_inserts,
            doc_queries: self.doc_queries + rhs.doc_queries,
            doc_deletes: self.doc_deletes + rhs.doc_deletes,
            blob_puts: self.blob_puts + rhs.blob_puts,
            blob_gets: self.blob_gets + rhs.blob_gets,
            blob_deletes: self.blob_deletes + rhs.blob_deletes,
            bytes_written: self.bytes_written + rhs.bytes_written,
            bytes_read: self.bytes_read + rhs.bytes_read,
            bytes_copied: self.bytes_copied + rhs.bytes_copied,
        }
    }
}

impl StatsSnapshot {
    /// Total store round-trips (reads + writes + deletes).
    pub fn total_ops(&self) -> u64 {
        self.doc_inserts
            + self.doc_queries
            + self.doc_deletes
            + self.blob_puts
            + self.blob_gets
            + self.blob_deletes
    }
}

impl StoreStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply `f` to the global counters and, if the current thread is a
    /// registered lane, to that lane's private counters too.
    fn record(&self, f: impl Fn(&Counters)) {
        f(&self.inner);
        if self.lane_count.load(Ordering::Relaxed) != 0 {
            if let Some(lane) = self.lanes.lock().unpoison().get(&std::thread::current().id()) {
                f(lane);
            }
        }
    }

    pub(crate) fn record_doc_insert(&self, bytes: u64) {
        self.record(|c| {
            c.doc_inserts.fetch_add(1, Ordering::Relaxed);
            c.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        });
    }

    pub(crate) fn record_doc_query(&self, bytes: u64) {
        self.record(|c| {
            c.doc_queries.fetch_add(1, Ordering::Relaxed);
            c.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        });
    }

    pub(crate) fn record_blob_put(&self, bytes: u64) {
        self.record(|c| {
            c.blob_puts.fetch_add(1, Ordering::Relaxed);
            c.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        });
    }

    pub(crate) fn record_blob_get(&self, bytes: u64) {
        self.record(|c| {
            c.blob_gets.fetch_add(1, Ordering::Relaxed);
            c.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        });
    }

    pub(crate) fn record_doc_delete(&self, bytes: u64) {
        self.record(|c| {
            c.doc_deletes.fetch_add(1, Ordering::Relaxed);
            c.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        });
    }

    pub(crate) fn record_bytes_copied(&self, bytes: u64) {
        self.record(|c| {
            c.bytes_copied.fetch_add(bytes, Ordering::Relaxed);
        });
    }

    pub(crate) fn record_blob_delete(&self) {
        self.record(|c| {
            c.blob_deletes.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Register the current thread as a parallel lane: until the guard
    /// drops, every operation recorded from this thread is *also*
    /// mirrored into the guard's private counters. Global counters keep
    /// their exact totals either way.
    pub fn enter_lane(&self) -> StatsLaneGuard {
        let counters = Arc::new(Counters::default());
        let tid = std::thread::current().id();
        // Nesting-tolerant: an inner lane shadows the outer one and the
        // guard restores it on drop, so composed instrumentation (a
        // frontend lane around a worker lane) never panics.
        let prev = self.lanes.lock().unpoison().insert(tid, counters.clone());
        if prev.is_none() {
            self.lane_count.fetch_add(1, Ordering::Relaxed);
        }
        StatsLaneGuard { stats: self.clone(), tid, counters, prev }
    }

    /// Copy the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.inner.snapshot()
    }

    /// Snapshots of lanes that have finished (guard dropped), oldest
    /// first. Bounded: only the most recent `LANE_LOG_CAPACITY` (4096)
    /// lanes are retained.
    pub fn lane_history(&self) -> Vec<StatsSnapshot> {
        self.lane_log.lock().unpoison().clone()
    }

    /// Clear the finished-lane history (e.g. between benchmark phases).
    pub fn clear_lane_history(&self) {
        self.lane_log.lock().unpoison().clear();
    }
}

impl mmm_util::parallel::WorkerHook for StoreStats {
    fn enter(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.enter_lane())
    }
}

/// Guard for a thread registered as a statistics lane; see
/// [`StoreStats::enter_lane`]. Dropping unregisters the lane.
#[derive(Debug)]
pub struct StatsLaneGuard {
    stats: StoreStats,
    tid: ThreadId,
    counters: Arc<Counters>,
    /// The lane this one shadowed (nested registration), restored on drop.
    prev: Option<Arc<Counters>>,
}

impl StatsLaneGuard {
    /// The operations recorded on this lane so far.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.counters.snapshot()
    }
}

impl Drop for StatsLaneGuard {
    fn drop(&mut self) {
        match self.prev.take() {
            Some(outer) => {
                self.stats.lanes.lock().unpoison().insert(self.tid, outer);
            }
            None => {
                self.stats.lanes.lock().unpoison().remove(&self.tid);
                self.stats.lane_count.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let snap = self.counters.snapshot();
        let mut log = self.stats.lane_log.lock().unpoison();
        if log.len() == LANE_LOG_CAPACITY {
            log.remove(0);
        }
        log.push(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let s = StoreStats::new();
        s.record_doc_insert(100);
        s.record_blob_put(1000);
        let a = s.snapshot();
        assert_eq!(a.doc_inserts, 1);
        assert_eq!(a.bytes_written, 1100);
        s.record_doc_query(50);
        s.record_blob_get(500);
        let b = s.snapshot();
        let d = b - a;
        assert_eq!(d.doc_inserts, 0);
        assert_eq!(d.doc_queries, 1);
        assert_eq!(d.bytes_read, 550);
        assert_eq!(d.total_ops(), 2);
    }

    #[test]
    fn clones_share_counters() {
        let s = StoreStats::new();
        let s2 = s.clone();
        s2.record_blob_put(7);
        assert_eq!(s.snapshot().blob_puts, 1);
    }

    #[test]
    fn lane_counters_mirror_without_perturbing_globals() {
        let s = StoreStats::new();
        s.record_blob_put(10); // before any lane exists
        let worker = s.clone();
        let lane_snap = std::thread::spawn(move || {
            let lane = worker.enter_lane();
            worker.record_blob_put(100);
            worker.record_doc_query(30);
            lane.snapshot()
        })
        .join()
        .unwrap();
        assert_eq!(lane_snap.blob_puts, 1);
        assert_eq!(lane_snap.bytes_written, 100);
        assert_eq!(lane_snap.doc_queries, 1);
        // Globals see everything: the pre-lane put plus the lane's ops.
        let g = s.snapshot();
        assert_eq!(g.blob_puts, 2);
        assert_eq!(g.bytes_written, 110);
        // After the guard dropped, this thread records globally only.
        s.record_blob_put(1);
        assert_eq!(s.snapshot().blob_puts, 3);
    }

    #[test]
    fn finished_lanes_are_logged_in_order() {
        let s = StoreStats::new();
        assert!(s.lane_history().is_empty());
        for bytes in [10u64, 20] {
            let worker = s.clone();
            std::thread::spawn(move || {
                let _lane = worker.enter_lane();
                worker.record_blob_put(bytes);
            })
            .join()
            .unwrap();
        }
        let log = s.lane_history();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].bytes_written, 10);
        assert_eq!(log[1].bytes_written, 20);
        s.clear_lane_history();
        assert!(s.lane_history().is_empty());
    }

    #[test]
    fn lanes_on_other_threads_do_not_capture_this_threads_ops() {
        let s = StoreStats::new();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = s.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let lane = worker.enter_lane();
                ready_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                assert_eq!(lane.snapshot(), StatsSnapshot::default());
            });
            ready_rx.recv().unwrap();
            s.record_doc_insert(42); // not a lane → global only
            done_tx.send(()).unwrap();
        });
        assert_eq!(s.snapshot().doc_inserts, 1);
    }

    #[test]
    fn nested_lanes_shadow_and_restore() {
        let s = StoreStats::new();
        let outer = s.enter_lane();
        s.record_doc_insert(10);
        {
            let inner = s.enter_lane();
            s.record_doc_insert(20);
            assert_eq!(inner.snapshot().doc_inserts, 1);
            assert_eq!(inner.snapshot().bytes_written, 20);
        }
        // The outer lane is active again and missed the inner op.
        s.record_doc_insert(30);
        assert_eq!(outer.snapshot().doc_inserts, 2);
        assert_eq!(outer.snapshot().bytes_written, 40);
        drop(outer);
        assert_eq!(s.snapshot().doc_inserts, 3, "global totals are exact");
        assert_eq!(s.lane_history().len(), 2);
    }
}
