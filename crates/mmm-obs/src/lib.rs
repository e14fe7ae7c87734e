#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Observability for the mmm workspace.
//!
//! The design goal is *zero interference*: a disabled [`Observer`]
//! (the default) is a `None` and every call on it is a no-op, and even
//! an enabled observer never writes through the stores or charges the
//! [`VirtualClock`], so stored bytes, `StoreStats` sums, and TTS/TTR
//! accounting are bit-identical with or without tracing.
//!
//! # Spans
//!
//! A span is an RAII guard over a named section:
//!
//! ```
//! let obs = mmm_obs::Observer::new();
//! {
//!     let _op = obs.span("save");
//!     let _phase = obs.span("encode"); // nests under "save"
//! }
//! assert_eq!(obs.finished_spans().len(), 2);
//! ```
//!
//! Each finished span records its real wall-clock duration and, when a
//! `VirtualClock` is attached, the simulated time charged to the opening
//! thread's account during the span (the lane accumulator on worker
//! threads — see [`VirtualClock::thread_simulated`]). Nesting is
//! tracked per thread; [`LaneHook`] extends the tree across
//! `mmm_util::parallel` workers so spans opened on a worker lane hang
//! off the span that launched the parallel section.
//!
//! # Events and metrics
//!
//! [`Observer::event`] is the quiet-by-default logging path: events are
//! counted in the [`MetricsRegistry`], kept in a bounded ring, and only
//! echoed to stderr when [`Observer::set_stderr_events`] turned that
//! sink on. The registry also collects counters and log-linear-bucket
//! histograms from any layer, exported in Prometheus text format.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mmm_util::parallel::WorkerHook;
use mmm_util::{Unpoison, VirtualClock};
use serde::Serialize;

pub mod http;
pub mod metrics;
pub mod slo;
pub mod span;

pub use http::{ObsServer, QueryHandler};
pub use metrics::{label_value, Histogram, MetricsRegistry};
pub use slo::{render_tenants, tenant_slos, tenant_slos_json, TenantSlo};
pub use span::{
    breakdown, parse_trace_jsonl, render_breakdown, trace_jsonl, BreakdownRow, PhaseCell,
    SpanRecord,
};

/// Default capacity of the finished-span ring buffer.
const DEFAULT_SPAN_CAPACITY: usize = 1 << 18;
/// Capacity of the event ring buffer.
const EVENT_CAPACITY: usize = 4096;

static NEXT_OBSERVER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of open span frames on this thread, across all observers.
    /// Guards push/pop in LIFO order, so frames from interleaved
    /// observers stay consistent; parent lookup filters by observer id.
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };

    /// Stack of active request contexts on this thread. The top entry
    /// attributes store ops and retries to a tenant/request; `LaneHook`
    /// carries it onto parallel worker threads.
    static REQUESTS: RefCell<Vec<RequestContext>> = const { RefCell::new(Vec::new()) };
}

/// Identity of the fleet request the current thread is working for:
/// minted at admission, threaded through queues, worker lanes, and the
/// group committer so traces and metrics can answer "who spent this".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestContext {
    /// Tenant that issued the request.
    pub tenant: String,
    /// Request id minted at admission (`rq-<tenant>-<n>`).
    pub request_id: String,
}

/// Push a request context onto the current thread; popped when the
/// returned guard drops. Nested requests stack (innermost wins).
pub fn enter_request(tenant: impl Into<String>, request_id: impl Into<String>) -> RequestGuard {
    REQUESTS.with(|r| {
        r.borrow_mut().push(RequestContext {
            tenant: tenant.into(),
            request_id: request_id.into(),
        })
    });
    RequestGuard { _priv: () }
}

/// The request context the current thread is attributed to, if any.
pub fn current_request() -> Option<RequestContext> {
    REQUESTS.with(|r| r.borrow().last().cloned())
}

/// RAII guard returned by [`enter_request`]; pops the context on drop.
#[derive(Debug)]
pub struct RequestGuard {
    _priv: (),
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        REQUESTS.with(|r| {
            r.borrow_mut().pop();
        });
    }
}

#[derive(Clone, Copy)]
struct Frame {
    obs: u64,
    /// Open span id, or `None` for a synthetic lane frame that only
    /// carries parent/lane context onto a worker thread.
    span: Option<u64>,
    /// Parent for spans opened above this frame.
    parent: Option<u64>,
    lane: Option<u32>,
}

/// Severity of an [`Observer::event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum EventLevel {
    /// Developer chatter (per-item progress).
    Debug,
    /// Run milestones.
    Info,
    /// Something recoverable went wrong (fault activation, retry).
    Warn,
}

impl EventLevel {
    fn as_str(self) -> &'static str {
        match self {
            EventLevel::Debug => "debug",
            EventLevel::Info => "info",
            EventLevel::Warn => "warn",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Serialize)]
pub struct EventRecord {
    /// Sequence number (shared with span ids, so events interleave
    /// deterministically with span opens).
    pub seq: u64,
    /// Severity.
    pub level: EventLevel,
    /// Iteration context active when the event fired.
    pub ctx: String,
    /// Message text.
    pub message: String,
}

#[derive(Debug)]
struct Inner {
    id: u64,
    clock: Mutex<Option<VirtualClock>>,
    next_seq: AtomicU64,
    capacity: usize,
    spans: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
    events: Mutex<VecDeque<EventRecord>>,
    ctx: Mutex<String>,
    metrics: MetricsRegistry,
    stderr_events: AtomicBool,
}

/// Handle to the observability pipeline. Cheap to clone; clones share
/// state. `Observer::default()` is *disabled*: every operation on it is
/// a no-op, so library code can call into it unconditionally.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    inner: Option<Arc<Inner>>,
}

impl Observer {
    /// An enabled observer with the default span ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled observer whose span ring holds at most `capacity`
    /// finished spans (oldest are evicted and counted as dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        Observer {
            inner: Some(Arc::new(Inner {
                id: NEXT_OBSERVER_ID.fetch_add(1, Ordering::Relaxed),
                clock: Mutex::new(None),
                next_seq: AtomicU64::new(1),
                capacity: capacity.max(1),
                spans: Mutex::new(VecDeque::new()),
                dropped: AtomicU64::new(0),
                events: Mutex::new(VecDeque::new()),
                ctx: Mutex::new(String::new()),
                metrics: MetricsRegistry::new(),
                stderr_events: AtomicBool::new(false),
            })),
        }
    }

    /// A disabled observer; all operations are no-ops.
    pub fn disabled() -> Self {
        Observer { inner: None }
    }

    /// Whether this observer records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach the clock used to measure simulated span durations.
    /// Called by `EnvBuilder::open`; spans opened before a
    /// clock is attached report zero simulated time.
    pub fn attach_clock(&self, clock: &VirtualClock) {
        if let Some(inner) = &self.inner {
            *inner.clock.lock().unpoison() = Some(clock.clone());
        }
    }

    /// Set the iteration context recorded on subsequently opened spans
    /// and events, e.g. `"update/U3-2"`. Deterministic trace ordering
    /// groups by this string.
    pub fn set_context(&self, ctx: impl Into<String>) {
        if let Some(inner) = &self.inner {
            *inner.ctx.lock().unpoison() = ctx.into();
        }
    }

    /// Open a span; it closes (and is recorded) when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_open(name, None, None)
    }

    /// Open a span annotated with a deterministic item index (used for
    /// per-item spans inside parallel sections, where the round-robin
    /// partition makes the index — not the lane — the stable identity).
    pub fn span_idx(&self, name: &'static str, op_index: u64) -> SpanGuard {
        self.span_open(name, Some(op_index), None)
    }

    /// Open a span carrying a causal tag — a request id, or the
    /// comma-joined request ids a commit batch coalesced. The tag is
    /// recorded verbatim on the finished span.
    pub fn span_tagged(&self, name: &'static str, tag: impl Into<String>) -> SpanGuard {
        if self.inner.is_none() {
            return SpanGuard { inner: None, open: None };
        }
        self.span_open(name, None, Some(tag.into()))
    }

    fn span_open(&self, name: &'static str, op_index: Option<u64>, tag: Option<String>) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { inner: None, open: None };
        };
        let id = inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let (parent, lane) = FRAMES.with(|f| {
            let frames = f.borrow();
            let top = frames.iter().rev().find(|fr| fr.obs == inner.id);
            match top {
                Some(fr) => (fr.span.or(fr.parent), fr.lane),
                None => (None, None),
            }
        });
        FRAMES.with(|f| {
            f.borrow_mut().push(Frame { obs: inner.id, span: Some(id), parent, lane })
        });
        let sim_start = inner.clock.lock().unpoison().as_ref().map(|c| c.thread_simulated());
        SpanGuard {
            inner: Some(inner.clone()),
            open: Some(OpenSpan {
                id,
                parent,
                name,
                ctx: inner.ctx.lock().unpoison().clone(),
                lane,
                op_index,
                tag,
                real_start: Instant::now(),
                sim_start,
            }),
        }
    }

    /// Record an event. The message closure only runs when the observer
    /// is enabled, so callers may format freely. Events are counted in
    /// the metrics registry and echoed to stderr only when the stderr
    /// sink is on — quiet by default.
    pub fn event(&self, level: EventLevel, message: impl FnOnce() -> String) {
        let Some(inner) = &self.inner else { return };
        let message = message();
        inner.metrics.inc(&format!("mmm_events_total{{level=\"{}\"}}", level.as_str()), 1);
        if inner.stderr_events.load(Ordering::Relaxed) {
            eprintln!("[{}] {}", level.as_str(), message);
        }
        let seq = inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let ctx = inner.ctx.lock().unpoison().clone();
        let mut events = inner.events.lock().unpoison();
        if events.len() == EVENT_CAPACITY {
            events.pop_front();
        }
        events.push_back(EventRecord { seq, level, ctx, message });
    }

    /// Turn the stderr event sink on or off (off by default).
    pub fn set_stderr_events(&self, on: bool) {
        if let Some(inner) = &self.inner {
            inner.stderr_events.store(on, Ordering::Relaxed);
        }
    }

    /// Add `v` to counter `key` (no-op when disabled).
    pub fn inc(&self, key: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.inc(key, v);
        }
    }

    /// Record `v` into histogram `key` (no-op when disabled).
    pub fn observe(&self, key: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(key, v);
        }
    }

    /// Set gauge `key` to `v` (no-op when disabled). Gauges report
    /// point-in-time service state — breaker positions, queue depths,
    /// shed rates — where the last write wins.
    pub fn gauge(&self, key: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.set_gauge(key, v);
        }
    }

    /// Record one store operation: simulated latency histogram plus a
    /// byte counter, labelled by op kind (`doc_insert`, `blob_put`, …).
    /// When a [`RequestContext`] is active on the calling thread the op
    /// is additionally attributed to that tenant.
    pub fn store_op(&self, op: &'static str, bytes: u64, sim: Duration) {
        if let Some(inner) = &self.inner {
            inner
                .metrics
                .observe(&format!("mmm_store_op_sim_ns{{op=\"{op}\"}}"), sim.as_nanos() as u64);
            inner.metrics.inc(&format!("mmm_store_op_bytes_total{{op=\"{op}\"}}"), bytes);
            if let Some(req) = current_request() {
                let t = &req.tenant;
                inner.metrics.inc(&format!("mmm_tenant_store_ops_total{{tenant=\"{t}\"}}"), 1);
                inner
                    .metrics
                    .inc(&format!("mmm_tenant_store_bytes_total{{tenant=\"{t}\"}}"), bytes);
                inner.metrics.inc(
                    &format!("mmm_tenant_store_sim_ns_total{{tenant=\"{t}\"}}"),
                    sim.as_nanos() as u64,
                );
            }
        }
    }

    /// Record one recovery-cache hit: `bytes` served from memory and the
    /// simulated store latency `saved` by not re-reading the blob store.
    /// Counter names mirror the `mmm_store_op_*` family so dashboards can
    /// put hit traffic next to real store traffic (no-op when disabled).
    pub fn cache_hit(&self, bytes: u64, saved: Duration) {
        if let Some(inner) = &self.inner {
            inner.metrics.inc("mmm_cache_hits_total", 1);
            inner.metrics.inc("mmm_cache_hit_bytes_total", bytes);
            inner.metrics.observe("mmm_cache_saved_sim_ns", saved.as_nanos() as u64);
        }
    }

    /// The metrics registry, if enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|i| &i.metrics)
    }

    /// Snapshot of the finished-span ring, in close order.
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.spans.lock().unpoison().iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Number of finished spans evicted from the ring buffer.
    pub fn dropped_spans(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        match &self.inner {
            Some(inner) => inner.events.lock().unpoison().iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Per-(context, op) phase breakdown of all finished spans.
    pub fn breakdown(&self) -> Vec<BreakdownRow> {
        span::breakdown(&self.finished_spans())
    }

    /// The deterministic JSONL trace: spans in (iteration, op index)
    /// order, followed by events in sequence order.
    pub fn trace_jsonl(&self) -> String {
        let mut out = span::trace_jsonl(&self.finished_spans());
        for ev in self.events() {
            out.push_str(&serde_json::to_string(&ev).expect("event serializes"));
            out.push('\n');
        }
        out
    }

    /// Prometheus text exposition of the metrics registry (empty when
    /// disabled).
    pub fn prometheus_text(&self) -> String {
        self.metrics().map(|m| m.prometheus_text()).unwrap_or_default()
    }

    /// Write the JSONL trace to `path`.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.trace_jsonl().as_bytes())?;
        f.sync_all()
    }

    /// Write the Prometheus metrics text to `path`.
    pub fn write_metrics(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.prometheus_text().as_bytes())?;
        f.sync_all()
    }
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    ctx: String,
    lane: Option<u32>,
    op_index: Option<u64>,
    tag: Option<String>,
    real_start: Instant,
    sim_start: Option<Duration>,
}

/// RAII guard for an open span; recording happens on drop.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(inner), Some(open)) = (self.inner.take(), self.open.take()) else {
            return;
        };
        let real_ns = open.real_start.elapsed().as_nanos() as u64;
        let sim_ns = match open.sim_start {
            Some(start) => {
                let now = inner.clock.lock().unpoison().as_ref().map(|c| c.thread_simulated());
                now.map_or(0, |n| n.saturating_sub(start).as_nanos() as u64)
            }
            None => 0,
        };
        FRAMES.with(|f| {
            let mut frames = f.borrow_mut();
            if let Some(pos) = frames
                .iter()
                .rposition(|fr| fr.obs == inner.id && fr.span == Some(open.id))
            {
                frames.remove(pos);
            }
        });
        inner
            .metrics
            .observe(&format!("mmm_span_sim_ns{{name=\"{}\"}}", open.name), sim_ns);
        inner
            .metrics
            .observe(&format!("mmm_span_real_ns{{name=\"{}\"}}", open.name), real_ns);
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            ctx: open.ctx,
            lane: open.lane,
            op_index: open.op_index,
            tag: open.tag,
            real_ns,
            sim_ns,
        };
        let mut spans = inner.spans.lock().unpoison();
        if spans.len() == inner.capacity {
            spans.pop_front();
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(record);
    }
}

/// [`WorkerHook`] that carries span context across a parallel section:
/// spans opened on worker threads become children of the span that was
/// open on the launching thread, annotated with a lane number.
///
/// Lane numbers are assigned in worker start order and are therefore
/// *not* deterministic across runs — they are annotations; deterministic
/// identity comes from `span_idx` item indices.
#[derive(Debug)]
pub struct LaneHook {
    inner: Option<Arc<Inner>>,
    parent: Option<u64>,
    request: Option<RequestContext>,
    lane_seq: AtomicU32,
}

impl LaneHook {
    /// Capture the calling thread's current span (if any) as the parent
    /// for all spans the workers will open, plus the active request
    /// context so per-tenant attribution crosses the parallel section.
    pub fn current(obs: &Observer) -> LaneHook {
        let inner = obs.inner.clone();
        let parent = inner.as_ref().and_then(|i| {
            FRAMES.with(|f| {
                f.borrow()
                    .iter()
                    .rev()
                    .find(|fr| fr.obs == i.id)
                    .and_then(|fr| fr.span.or(fr.parent))
            })
        });
        LaneHook { inner, parent, request: current_request(), lane_seq: AtomicU32::new(0) }
    }
}

/// Guard returned by [`LaneHook::enter`]; pops the synthetic lane frame
/// from the worker's stack when the worker finishes.
struct LaneFrameGuard {
    obs: u64,
    parent: Option<u64>,
    lane: u32,
}

impl Drop for LaneFrameGuard {
    fn drop(&mut self) {
        FRAMES.with(|f| {
            let mut frames = f.borrow_mut();
            if let Some(pos) = frames.iter().rposition(|fr| {
                fr.obs == self.obs
                    && fr.span.is_none()
                    && fr.parent == self.parent
                    && fr.lane == Some(self.lane)
            }) {
                frames.remove(pos);
            }
        });
    }
}

impl WorkerHook for LaneHook {
    fn enter(&self) -> Box<dyn std::any::Any + Send> {
        let req_guard = self
            .request
            .as_ref()
            .map(|r| enter_request(r.tenant.clone(), r.request_id.clone()));
        match &self.inner {
            None => Box::new(req_guard),
            Some(inner) => {
                let lane = self.lane_seq.fetch_add(1, Ordering::Relaxed);
                FRAMES.with(|f| {
                    f.borrow_mut().push(Frame {
                        obs: inner.id,
                        span: None,
                        parent: self.parent,
                        lane: Some(lane),
                    })
                });
                Box::new((LaneFrameGuard { obs: inner.id, parent: self.parent, lane }, req_guard))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Observer::disabled();
        {
            let _g = obs.span("anything");
            obs.inc("c", 1);
            obs.observe("h", 1);
            obs.event(EventLevel::Warn, || panic!("closure must not run"));
        }
        assert!(obs.finished_spans().is_empty());
        assert!(obs.prometheus_text().is_empty());
        assert!(obs.trace_jsonl().is_empty());
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let obs = Observer::new();
        {
            let _a = obs.span("outer");
            let _b = obs.span("inner");
        }
        let spans = obs.finished_spans();
        assert_eq!(spans.len(), 2);
        // Close order: inner first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let obs = Observer::new();
        {
            let _a = obs.span("op");
            drop(obs.span("p1"));
            drop(obs.span("p2"));
        }
        let spans = obs.finished_spans();
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        for name in ["p1", "p2"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(op.id), "{name}");
        }
    }

    #[test]
    fn spans_measure_simulated_time() {
        let clock = VirtualClock::new();
        let obs = Observer::new();
        obs.attach_clock(&clock);
        clock.charge(Duration::from_millis(50)); // before: excluded
        {
            let _g = obs.span("charged");
            clock.charge(Duration::from_millis(7));
        }
        let s = &obs.finished_spans()[0];
        assert_eq!(s.sim_ns, 7_000_000);
        assert!(s.real_ns > 0);
    }

    #[test]
    fn two_observers_on_one_thread_do_not_cross_link() {
        let a = Observer::new();
        let b = Observer::new();
        {
            let _ga = a.span("a_root");
            let _gb = b.span("b_root");
            let _ga2 = a.span("a_child");
        }
        let spans_b = b.finished_spans();
        assert_eq!(spans_b.len(), 1);
        assert_eq!(spans_b[0].parent, None);
        let spans_a = a.finished_spans();
        let child = spans_a.iter().find(|s| s.name == "a_child").unwrap();
        let root = spans_a.iter().find(|s| s.name == "a_root").unwrap();
        assert_eq!(child.parent, Some(root.id));
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let obs = Observer::with_capacity(2);
        for _ in 0..5 {
            drop(obs.span("s"));
        }
        assert_eq!(obs.finished_spans().len(), 2);
        assert_eq!(obs.dropped_spans(), 3);
    }

    #[test]
    fn events_count_and_stay_quiet() {
        let obs = Observer::new();
        obs.set_context("c1");
        obs.event(EventLevel::Warn, || "retrying".to_owned());
        obs.event(EventLevel::Info, || "done".to_owned());
        let evs = obs.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].ctx, "c1");
        assert_eq!(
            obs.metrics().unwrap().counter("mmm_events_total{level=\"warn\"}"),
            1
        );
    }

    /// The satellite invariant: a span tree reconstructed from a
    /// 4-thread parallel run equals the 1-thread tree modulo lane
    /// annotations (and real durations).
    #[test]
    fn parallel_span_tree_matches_sequential_tree() {
        fn run(threads: usize) -> Vec<(usize, &'static str, Option<u64>, u64)> {
            let clock = VirtualClock::new();
            let obs = Observer::new();
            obs.attach_clock(&clock);
            obs.set_context("tree");
            {
                let _op = obs.span("op");
                let hook = LaneHook::current(&obs);
                let c = clock.clone();
                let o = obs.clone();
                mmm_util::parallel::try_map_timed(&clock, threads, &[&hook], 8, move |i| {
                    let _item = o.span_idx("item", i as u64);
                    c.charge(Duration::from_millis(1 + i as u64));
                    let _sub = o.span("sub");
                    c.charge(Duration::from_millis(1));
                    Ok::<_, mmm_util::Error>(i)
                })
                .unwrap();
            }
            span::ordered(&obs.finished_spans())
                .into_iter()
                .map(|s| (s.depth, s.name, s.op, s.sim_ns))
                .collect()
        }
        let seq = run(1);
        let par = run(4);
        // Tree shape, names, and item indices are identical, and so are
        // the simulated durations of every span *inside* the parallel
        // section (measured on each worker's own lane account).
        assert_eq!(seq.len(), par.len());
        assert_eq!(seq[0].0, 0);
        assert_eq!(seq[0].1, "op");
        for (s, p) in seq.iter().zip(&par).skip(1) {
            assert_eq!(s, p);
        }
        // The enclosing op span is the one legitimate difference: the
        // sequential run charges the sum of all item work, the 4-thread
        // run charges the critical path (max lane: items {3,7} → 14ms).
        // item i charges (1+i)+1 ms, so the sum over 0..8 is 44ms.
        assert_eq!(seq[0].3, 44_000_000);
        assert_eq!(par[0].3, 14_000_000);
        // Shape sanity: op root + 8 items + 8 subs, items in index order.
        assert_eq!(seq.len(), 17);
        assert_eq!(seq[1], (1, "item", Some(0), 2_000_000));
        assert_eq!(seq[2], (2, "sub", None, 1_000_000));
    }
}
