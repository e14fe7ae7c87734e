//! Finished-span records, deterministic trace ordering, and the
//! per-phase TTS/TTR breakdown derived from them.
//!
//! # Ordering
//!
//! A trace must diff cleanly across runs and thread counts, so spans are
//! never emitted in wall-clock (close) order. Instead the forest is
//! rebuilt from parent links and walked depth-first with children sorted
//! by `(op_index, open order)`: `op_index` is the deterministic item
//! index a parallel section assigns to its per-item spans (the
//! round-robin partition makes item→lane assignment a pure function of
//! the index), and open order breaks ties for sequential siblings, which
//! always open on one thread and are therefore deterministic relative to
//! each other. Roots are grouped by context (iteration) in first-opened
//! order. Lane numbers are annotations only and carry no ordering.

use std::collections::{BTreeMap, HashMap};

use serde::Serialize;

/// One finished span, as stored in the observer's ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Open-order sequence number, unique per observer.
    pub id: u64,
    /// Enclosing span, if any (same observer, any thread).
    pub parent: Option<u64>,
    /// Static span name, e.g. `"encode"`.
    pub name: &'static str,
    /// Iteration context active when the span opened, e.g. `"update/U3-2/save"`.
    pub ctx: String,
    /// Worker lane the span ran on, if inside a parallel section.
    pub lane: Option<u32>,
    /// Deterministic item index within a parallel section, if any.
    pub op_index: Option<u64>,
    /// Free-form causal annotation (e.g. a request id, or the
    /// comma-joined request ids a commit batch coalesced).
    pub tag: Option<String>,
    /// Real wall-clock duration in nanoseconds.
    pub real_ns: u64,
    /// Simulated (`VirtualClock`) duration in nanoseconds, as charged to
    /// the opening thread's account (lane accumulator on workers).
    pub sim_ns: u64,
}

/// A span plus its depth in the deterministically ordered trace.
#[derive(Debug, Clone, Serialize)]
pub struct OrderedSpan {
    /// Position in the ordered trace (0-based).
    pub seq: usize,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Iteration context.
    pub ctx: String,
    /// Span name.
    pub name: &'static str,
    /// Lane annotation, if the span ran on a worker lane.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub lane: Option<u32>,
    /// Item index within a parallel section, if any.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub op: Option<u64>,
    /// Causal annotation (request id(s)), if the span carries one.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tag: Option<String>,
    /// Simulated duration (ns) — deterministic.
    pub sim_ns: u64,
    /// Real duration (ns) — informational, varies run to run.
    pub real_ns: u64,
}

/// Arrange `records` into the deterministic trace order described in the
/// module docs. Records whose parent is missing (e.g. evicted from the
/// ring buffer) are treated as roots.
pub fn ordered(records: &[SpanRecord]) -> Vec<OrderedSpan> {
    let present: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for r in records {
        match r.parent.filter(|p| present.contains_key(p)) {
            Some(p) => children.entry(p).or_default().push(r),
            None => roots.push(r),
        }
    }
    let sort_key = |r: &SpanRecord| (r.op_index.unwrap_or(u64::MAX), r.id);
    for list in children.values_mut() {
        list.sort_by_key(|r| sort_key(r));
    }
    // Contexts in order of their first-opened span; roots within a
    // context by (op_index, open order).
    let mut ctx_rank: HashMap<&str, u64> = HashMap::new();
    for r in records {
        let e = ctx_rank.entry(r.ctx.as_str()).or_insert(r.id);
        *e = (*e).min(r.id);
    }
    roots.sort_by_key(|r| (ctx_rank[r.ctx.as_str()], sort_key(r)));

    let mut out = Vec::with_capacity(records.len());
    let mut stack: Vec<(&SpanRecord, usize)> = roots.iter().rev().map(|r| (*r, 0)).collect();
    while let Some((r, depth)) = stack.pop() {
        out.push(OrderedSpan {
            seq: out.len(),
            depth,
            ctx: r.ctx.clone(),
            name: r.name,
            lane: r.lane,
            op: r.op_index,
            tag: r.tag.clone(),
            sim_ns: r.sim_ns,
            real_ns: r.real_ns,
        });
        if let Some(kids) = children.get(&r.id) {
            for k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
    out
}

/// Render the deterministic trace as JSON Lines, one span per line.
pub fn trace_jsonl(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for span in ordered(records) {
        out.push_str(&serde_json::to_string(&span).expect("span serializes"));
        out.push('\n');
    }
    out
}

/// Intern a span name read back from disk. Trace names come from a
/// small fixed vocabulary, so the leaked set stays tiny; interning keeps
/// re-parsed records compatible with the `&'static str` span schema.
fn intern_name(name: &str) -> &'static str {
    use mmm_util::Unpoison;
    use std::sync::{Mutex, OnceLock};
    static NAMES: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut map = NAMES.get_or_init(|| Mutex::new(BTreeMap::new())).lock().unpoison();
    if let Some(s) = map.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    map.insert(name.to_owned(), leaked);
    leaked
}

/// Parse a JSONL trace written by [`trace_jsonl`] /
/// `Observer::write_trace` back into span records (event lines are
/// skipped). Parent links are rebuilt from the depth column, which the
/// deterministic depth-first ordering makes unambiguous. Fails with the
/// offending 1-based line number on malformed or truncated input, so a
/// half-written trace is a clear error instead of a silently short
/// report.
pub fn parse_trace_jsonl(text: &str) -> Result<Vec<SpanRecord>, String> {
    let mut out: Vec<SpanRecord> = Vec::new();
    // Open ancestry: (depth, synthetic id) of the spans above the cursor.
    let mut stack: Vec<(u64, u64)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let v: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| format!("line {lineno}: malformed or truncated record: {e}"))?;
        if v.get("level").is_some() && v.get("message").is_some() {
            continue; // event line
        }
        let field = |k: &str| v.get(k).ok_or(format!("line {lineno}: span missing `{k}`"));
        let name = field("name")?
            .as_str()
            .ok_or(format!("line {lineno}: `name` is not a string"))?;
        let ctx = field("ctx")?
            .as_str()
            .ok_or(format!("line {lineno}: `ctx` is not a string"))?;
        let depth = field("depth")?
            .as_u64()
            .ok_or(format!("line {lineno}: `depth` is not an integer"))?;
        let num = |k: &str| -> Result<u64, String> {
            field(k)?.as_u64().ok_or(format!("line {lineno}: `{k}` is not an integer"))
        };
        let id = out.len() as u64 + 1;
        stack.retain(|&(d, _)| d < depth);
        let parent = stack.last().map(|&(_, id)| id);
        stack.push((depth, id));
        out.push(SpanRecord {
            id,
            parent,
            name: intern_name(name),
            ctx: ctx.to_owned(),
            lane: v.get("lane").and_then(serde_json::Value::as_u64).map(|l| l as u32),
            op_index: v.get("op").and_then(serde_json::Value::as_u64),
            tag: v.get("tag").and_then(serde_json::Value::as_str).map(str::to_owned),
            real_ns: num("real_ns")?,
            sim_ns: num("sim_ns")?,
        });
    }
    Ok(out)
}

/// Aggregated time of one phase (direct child spans of an op, by name).
#[derive(Debug, Clone, Serialize)]
pub struct PhaseCell {
    /// Phase name (child span name).
    pub name: &'static str,
    /// Number of child spans aggregated.
    pub count: u64,
    /// Total simulated ns across those spans.
    pub sim_ns: u64,
    /// Total real ns across those spans.
    pub real_ns: u64,
}

/// Per-(context, op) phase breakdown: where the simulated and real time
/// of an end-to-end save/recover went.
#[derive(Debug, Clone, Serialize)]
pub struct BreakdownRow {
    /// Iteration context, e.g. `"baseline/U1"`.
    pub ctx: String,
    /// Root span name, e.g. `"save"` or `"recover"`.
    pub op: &'static str,
    /// Number of root spans aggregated into this row.
    pub count: u64,
    /// End-to-end simulated ns (sum over the root spans).
    pub total_sim_ns: u64,
    /// End-to-end real ns.
    pub total_real_ns: u64,
    /// Named phases in first-executed order.
    pub phases: Vec<PhaseCell>,
    /// Residual: total minus the named phases (simulated). Zero when the
    /// phases tile the op exactly, so `Σ phases + other == total` always.
    pub other_sim_ns: u64,
    /// Residual real time.
    pub other_real_ns: u64,
}

/// Compute per-(ctx, op) breakdown rows from finished spans. Roots are
/// the ops; their direct children are the phases, aggregated by name.
/// Row and phase order follow first-opened span order, so output is
/// deterministic.
pub fn breakdown(records: &[SpanRecord]) -> Vec<BreakdownRow> {
    let present: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    // (min root id) → row grouping key, to keep deterministic row order.
    let mut rows: BTreeMap<u64, BreakdownRow> = BTreeMap::new();
    let mut row_key: HashMap<(String, &'static str), u64> = HashMap::new();
    for r in records {
        if r.parent.filter(|p| present.contains_key(p)).is_some() {
            continue;
        }
        let key = (r.ctx.clone(), r.name);
        let id = *row_key.entry(key).or_insert(r.id);
        let row = rows.entry(id).or_insert_with(|| BreakdownRow {
            ctx: r.ctx.clone(),
            op: r.name,
            count: 0,
            total_sim_ns: 0,
            total_real_ns: 0,
            phases: Vec::new(),
            other_sim_ns: 0,
            other_real_ns: 0,
        });
        row.count += 1;
        row.total_sim_ns += r.sim_ns;
        row.total_real_ns += r.real_ns;
    }
    // Phases: direct children of any root, attributed to their root's row.
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.id);
    for r in &sorted {
        let Some(parent) = r.parent.and_then(|p| present.get(&p)) else { continue };
        if parent.parent.filter(|p| present.contains_key(p)).is_some() {
            continue; // parent is not a root → this span is not a phase
        }
        let Some(&id) = row_key.get(&(parent.ctx.clone(), parent.name)) else { continue };
        let row = rows.get_mut(&id).expect("row exists for key");
        match row.phases.iter_mut().find(|p| p.name == r.name) {
            Some(cell) => {
                cell.count += 1;
                cell.sim_ns += r.sim_ns;
                cell.real_ns += r.real_ns;
            }
            None => row.phases.push(PhaseCell {
                name: r.name,
                count: 1,
                sim_ns: r.sim_ns,
                real_ns: r.real_ns,
            }),
        }
    }
    let mut out: Vec<BreakdownRow> = rows.into_values().collect();
    for row in &mut out {
        let phase_sim: u64 = row.phases.iter().map(|p| p.sim_ns).sum();
        let phase_real: u64 = row.phases.iter().map(|p| p.real_ns).sum();
        row.other_sim_ns = row.total_sim_ns.saturating_sub(phase_sim);
        row.other_real_ns = row.total_real_ns.saturating_sub(phase_real);
    }
    out
}

fn fmt_secs(ns: u64) -> String {
    format!("{:.4}s", ns as f64 / 1e9)
}

/// Pretty-print breakdown rows as an indented per-phase table with a
/// simulated-time percentage column. Phase sums plus the `other`
/// residual equal the op total by construction.
pub fn render_breakdown(rows: &[BreakdownRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&format!(
            "{}/{}: total sim {} (real {}, {} op{})\n",
            row.ctx,
            row.op,
            fmt_secs(row.total_sim_ns),
            fmt_secs(row.total_real_ns),
            row.count,
            if row.count == 1 { "" } else { "s" },
        ));
        let pct = |sim: u64| {
            if row.total_sim_ns == 0 {
                0.0
            } else {
                100.0 * sim as f64 / row.total_sim_ns as f64
            }
        };
        for p in &row.phases {
            out.push_str(&format!(
                "    {:<16} {:>12} {:>6.1}%  (x{})\n",
                p.name,
                fmt_secs(p.sim_ns),
                pct(p.sim_ns),
                p.count
            ));
        }
        if row.other_sim_ns > 0 || row.other_real_ns > 0 {
            out.push_str(&format!(
                "    {:<16} {:>12} {:>6.1}%\n",
                "other",
                fmt_secs(row.other_sim_ns),
                pct(row.other_sim_ns)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        ctx: &str,
        op_index: Option<u64>,
        sim_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            ctx: ctx.to_owned(),
            lane: None,
            op_index,
            tag: None,
            real_ns: 1,
            sim_ns,
        }
    }

    #[test]
    fn ordered_sorts_by_op_index_not_id() {
        // Two parallel item spans close in reverse order (ids 3 then 2
        // finishing under root 1); op_index restores item order.
        let records = vec![
            rec(1, None, "save", "a/U1", None, 100),
            rec(3, Some(1), "item", "a/U1", Some(0), 10),
            rec(2, Some(1), "item", "a/U1", Some(1), 20),
        ];
        let o = ordered(&records);
        assert_eq!(o.len(), 3);
        assert_eq!((o[0].name, o[0].depth), ("save", 0));
        assert_eq!(o[1].op, Some(0));
        assert_eq!(o[2].op, Some(1));
        assert_eq!(o[1].seq, 1);
    }

    #[test]
    fn ordered_groups_roots_by_context_first_seen() {
        let records = vec![
            rec(1, None, "save", "b/U1", None, 1),
            rec(2, None, "save", "a/U1", None, 1),
            rec(3, None, "recover", "b/U1", None, 1),
        ];
        let ctxs: Vec<String> = ordered(&records).into_iter().map(|s| s.ctx).collect();
        assert_eq!(ctxs, vec!["b/U1", "b/U1", "a/U1"]);
    }

    #[test]
    fn orphaned_spans_become_roots() {
        let records = vec![rec(5, Some(999), "encode", "x", None, 7)];
        let o = ordered(&records);
        assert_eq!(o[0].depth, 0);
    }

    #[test]
    fn breakdown_sums_phases_and_residual() {
        let records = vec![
            rec(1, None, "save", "u/U1", None, 100),
            rec(2, Some(1), "hash", "u/U1", None, 30),
            rec(3, Some(1), "blob_put", "u/U1", None, 50),
            rec(4, Some(3), "inner", "u/U1", None, 50), // nested: not a phase
            rec(5, Some(1), "blob_put", "u/U1", None, 10),
        ];
        let rows = breakdown(&records);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.op, "save");
        assert_eq!(row.total_sim_ns, 100);
        let names: Vec<&str> = row.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["hash", "blob_put"]);
        assert_eq!(row.phases[1].sim_ns, 60);
        assert_eq!(row.phases[1].count, 2);
        assert_eq!(row.other_sim_ns, 10);
        let sum: u64 = row.phases.iter().map(|p| p.sim_ns).sum::<u64>() + row.other_sim_ns;
        assert_eq!(sum, row.total_sim_ns);
    }

    #[test]
    fn breakdown_aggregates_repeated_ops() {
        let records = vec![
            rec(1, None, "recover", "p/U1", None, 40),
            rec(2, None, "recover", "p/U1", None, 60),
        ];
        let rows = breakdown(&records);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_sim_ns, 100);
    }

    #[test]
    fn parse_round_trips_structure_and_flags_truncation() {
        let records = vec![
            rec(1, None, "save", "a/U1", None, 100),
            rec(2, Some(1), "encode", "a/U1", None, 40),
            rec(3, Some(2), "inner", "a/U1", Some(2), 40),
            rec(4, Some(1), "blob_put", "a/U1", None, 60),
            rec(5, None, "recover", "a/U1", None, 9),
        ];
        let text = trace_jsonl(&records);
        let back = parse_trace_jsonl(&text).unwrap();
        assert_eq!(back.len(), records.len());
        // Same breakdown (structure survives the id-free round trip).
        let (a, b) = (breakdown(&records), breakdown(&back));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.ctx.as_str(), x.op, x.total_sim_ns), (y.ctx.as_str(), y.op, y.total_sim_ns));
            assert_eq!(x.phases.len(), y.phases.len());
        }
        assert_eq!(back[2].op_index, Some(2));
        assert_eq!(back[2].parent, Some(back[1].id));

        // Truncation mid-record names the bad line.
        let cut = &text[..text.len() - 10];
        let err = parse_trace_jsonl(cut).unwrap_err();
        assert!(err.contains("line 5"), "{err}");
        // A span line with a mangled field is rejected, not skipped.
        let err = parse_trace_jsonl("{\"depth\":0,\"ctx\":\"x\"}\n").unwrap_err();
        assert!(err.contains("missing `name`"), "{err}");
    }

    #[test]
    fn parse_skips_event_lines() {
        let mut text = trace_jsonl(&[rec(1, None, "save", "a", None, 5)]);
        text.push_str("{\"seq\":9,\"level\":\"Warn\",\"ctx\":\"a\",\"message\":\"m\"}\n");
        assert_eq!(parse_trace_jsonl(&text).unwrap().len(), 1);
    }

    #[test]
    fn trace_jsonl_is_one_object_per_line() {
        let records = vec![rec(1, None, "save", "a", None, 5), rec(2, Some(1), "enc", "a", None, 5)];
        let text = trace_jsonl(&records);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("seq").is_some() && v.get("depth").is_some());
        }
    }
}
