//! The benchmark's own span recorder.
//!
//! A traced run records one root span per end-to-end operation and,
//! under it, one child span per layer call replayed on that operation's
//! real inputs (see [`crate::probe`]). Spans stay in memory and are
//! written as JSON lines when the run ends. Reading the program's own
//! `Observer` spans is a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Identifier shared by every span of one end-to-end operation.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Payload bytes the call moved (0 when size is not the point).
    pub bytes: u64,
    /// Whether the end-to-end operation itself makes this call. Calls
    /// replayed only to measure a sibling code path are not part of it
    /// and are left out of the unattributed-time sum.
    pub part: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log of one client thread.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    /// Span ids start here so that the logs of several clients merge
    /// without clashes.
    id_base: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(t0: Instant, client: u32) -> Self {
        Recorder {
            t0,
            id_base: client << 24,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Append `span` under the next free id, which is returned.
    fn push(&mut self, mut span: Span) -> u32 {
        let id = self.id_base + self.spans.len() as u32;
        span.id = id;
        self.spans.push(span);
        id
    }

    /// Record the root span of an operation the caller already timed.
    pub fn root(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            id: 0,
            parent: None,
            op,
            name,
            start_ns,
            end_ns,
            bytes: 0,
            part: true,
        })
    }

    /// Time `f` as a child of `parent`.
    pub fn child<T>(
        &mut self,
        parent: u32,
        name: &'static str,
        bytes: u64,
        part: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        self.child_as(parent, bytes, part, || (f(), name))
    }

    /// Like [`Recorder::child`] for a call whose span name is only known
    /// once it returns (a CAS read is "cold" or "cached" after the fact).
    pub fn child_as<T>(
        &mut self,
        parent: u32,
        bytes: u64,
        part: bool,
        f: impl FnOnce() -> (T, &'static str),
    ) -> T {
        let op = self.spans[(parent - self.id_base) as usize].op;
        let start = Instant::now();
        let (out, name) = std::hint::black_box(f());
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            id: 0,
            parent: Some(parent),
            op,
            name,
            start_ns,
            end_ns,
            bytes,
            part,
        });
        out
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn micros(&self, name: &str) -> Samples {
        Samples(self.named(name).map(|s| s.dur_ns() as f64 / 1e3).collect())
    }

    /// Throughput of every span called `name`, in MB/s (10^6 bytes).
    pub fn mb_per_s(&self, name: &str) -> Samples {
        Samples(
            self.named(name)
                .filter(|s| s.dur_ns() > 0 && s.bytes > 0)
                .map(|s| s.bytes as f64 * 1e3 / s.dur_ns() as f64)
                .collect(),
        )
    }

    /// Per root span called `root`: its duration minus the calls the
    /// operation is known to make, in milliseconds.
    pub fn unattributed_ms(&self, root: &str) -> Samples {
        let mut children = std::collections::HashMap::<u32, u64>::new();
        for c in self.spans.iter().filter(|c| c.part) {
            if let Some(parent) = c.parent {
                *children.entry(parent).or_default() += c.dur_ns();
            }
        }
        Samples(
            self.named(root)
                .filter(|s| s.parent.is_none())
                .map(|r| {
                    (r.dur_ns() as f64 - children.get(&r.id).copied().unwrap_or(0) as f64) / 1e6
                })
                .collect(),
        )
    }

    /// Write the log as JSON lines, one span a line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{},\"part\":{}}}",
                s.id, parent, s.op, s.name, s.start_ns, s.end_ns, s.bytes, s.part
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_the_op_and_unattributed_skips_aux_calls() {
        let t0 = Instant::now();
        let mut rec = Recorder::new(t0, 1);
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(3));
        let root = rec.root("save", 7, start, Instant::now());
        rec.child(root, "a", 10, true, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        rec.child(root, "b", 0, false, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(rec.spans.iter().all(|s| s.op == 7));
        assert_eq!(rec.spans[1].parent, Some(root));
        let un = rec.unattributed_ms("save");
        let expect = (rec.spans[0].dur_ns() - rec.spans[1].dur_ns()) as f64 / 1e6;
        assert_eq!(un.0, vec![expect]);
        assert_eq!(rec.micros("a").len(), 1);
        assert_eq!(rec.mb_per_s("b").len(), 0, "no bytes, no rate");
    }
}
