//! CI perf-regression gate: diff fresh benchmark documents against
//! committed baselines under explicit tolerances.
//!
//! The comparators are pure functions over the JSON documents the
//! benches emit (`BENCH_service.json`, `BENCH_scale.json`,
//! `BENCH_breakdown.json`), so the gate is trivially unit-testable and
//! the `repro gate` binary only has to produce candidates and render
//! the verdict. Structural properties (row sets, byte counts, the
//! zero-copy and zero-residual invariants) are compared exactly;
//! wall-clock throughput gets a generous machine-variance factor and
//! simulated times a small relative tolerance.

use serde_json::Value;

/// Gate tolerances. Defaults are deliberately loose on wall-clock
/// numbers (CI machines vary) and tight on simulated/structural ones
/// (those are deterministic).
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Candidate `saves_per_sec` must be at least `baseline / factor`.
    pub throughput_factor: f64,
    /// Candidate `shed_rate` may exceed the baseline by this much.
    pub shed_abs: f64,
    /// Candidate p99 deadline overrun may exceed the baseline by this
    /// many nanoseconds.
    pub overrun_slack_ns: u64,
    /// Relative tolerance on simulated times.
    pub sim_rel: f64,
    /// Candidate peak staging bytes may grow to `baseline × factor`.
    pub staging_factor: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            throughput_factor: 4.0,
            shed_abs: 0.05,
            overrun_slack_ns: 250_000_000,
            sim_rel: 0.15,
            staging_factor: 1.5,
        }
    }
}

/// One comparison the gate ran.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// What was compared, e.g. `service t=4 saves_per_sec`.
    pub name: String,
    /// Whether the candidate is within tolerance.
    pub ok: bool,
    /// Baseline vs candidate, human-readable.
    pub detail: String,
}

/// The gate's verdict: every check it ran.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// All checks, in run order.
    pub checks: Vec<GateCheck>,
}

impl GateReport {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Failed checks only.
    pub fn failures(&self) -> Vec<&GateCheck> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }

    fn push(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(GateCheck {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Merge another report's checks into this one.
    pub fn merge(&mut self, other: GateReport) {
        self.checks.extend(other.checks);
    }

    /// Render the verdict table (`PASS`/`FAIL` per check).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{} {:<44} {}",
                if c.ok { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        let _ = writeln!(
            out,
            "{}: {} check(s), {} failure(s)",
            if self.passed() {
                "gate PASS"
            } else {
                "gate FAIL"
            },
            self.checks.len(),
            self.failures().len()
        );
        out
    }
}

fn f(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn u(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(u64::MAX)
}

/// Index a document's `rows` array by an integer key column.
fn rows_by<'v>(doc: &'v Value, key: &str) -> Vec<(u64, &'v Value)> {
    doc.get("rows")
        .and_then(Value::as_array)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| Some((r.get(key)?.as_u64()?, r)))
                .collect()
        })
        .unwrap_or_default()
}

fn rel_within(base: f64, cand: f64, rel: f64) -> bool {
    if !base.is_finite() || !cand.is_finite() {
        return false;
    }
    if base == 0.0 {
        return cand == 0.0;
    }
    ((cand - base) / base).abs() <= rel
}

/// Compare a candidate `BENCH_service.json` against the baseline.
///
/// Structural rows must match; shed rate, p99 overrun, and the
/// group-commit amortization are bounded by the baseline plus slack;
/// throughput may not collapse below `baseline / throughput_factor`.
pub fn gate_service(baseline: &Value, candidate: &Value, tol: &Tolerances) -> GateReport {
    let mut out = GateReport::default();
    let base_rows = rows_by(baseline, "threads");
    if base_rows.is_empty() {
        out.push(
            "service baseline rows",
            false,
            "baseline has no rows[] with a threads key",
        );
        return out;
    }
    let cand_rows = rows_by(candidate, "threads");
    for (threads, b) in base_rows {
        let name = |what: &str| format!("service t={threads} {what}");
        let Some((_, c)) = cand_rows.iter().find(|(t, _)| *t == threads) else {
            out.push(name("row"), false, "candidate row missing");
            continue;
        };
        out.push(
            name("saves"),
            u(b, "saves") == u(c, "saves"),
            format!("{} vs {}", u(b, "saves"), u(c, "saves")),
        );
        let (bs, cs) = (f(b, "shed_rate"), f(c, "shed_rate"));
        out.push(
            name("shed_rate"),
            cs <= bs + tol.shed_abs,
            format!("{bs:.3} vs {cs:.3}"),
        );
        let (bo, co) = (
            u(b, "p99_deadline_overrun_ns"),
            u(c, "p99_deadline_overrun_ns"),
        );
        out.push(
            name("p99_overrun"),
            co <= bo.saturating_add(tol.overrun_slack_ns),
            format!("{bo}ns vs {co}ns (slack {}ns)", tol.overrun_slack_ns),
        );
        let (bt, ct) = (f(b, "saves_per_sec"), f(c, "saves_per_sec"));
        out.push(
            name("saves_per_sec"),
            ct.is_finite() && ct >= bt / tol.throughput_factor,
            format!(
                "{bt:.0}/s vs {ct:.0}/s (floor {:.0}/s)",
                bt / tol.throughput_factor
            ),
        );
        let cc = f(c, "commit_records_per_save");
        out.push(
            name("commit_records_per_save"),
            cc.is_finite() && cc <= 1.0 + 1e-9,
            format!(
                "{:.3} vs {cc:.3} (hard cap 1.0)",
                f(b, "commit_records_per_save")
            ),
        );
    }
    out
}

/// Compare a candidate `BENCH_scale.json` against the baseline.
///
/// Byte counts and the zero-copy invariants are exact; simulated times
/// carry `sim_rel`; peak staging may grow by `staging_factor`.
pub fn gate_scale(baseline: &Value, candidate: &Value, tol: &Tolerances) -> GateReport {
    let mut out = GateReport::default();
    let base_rows = rows_by(baseline, "n");
    if base_rows.is_empty() {
        out.push(
            "scale baseline rows",
            false,
            "baseline has no rows[] with an n key",
        );
        return out;
    }
    let cand_rows = rows_by(candidate, "n");
    for (n, b) in base_rows {
        let name = |what: &str| format!("scale n={n} {what}");
        let Some((_, c)) = cand_rows.iter().find(|(m, _)| *m == n) else {
            out.push(name("row"), false, "candidate row missing");
            continue;
        };
        out.push(
            name("blob_bytes"),
            u(b, "blob_bytes") == u(c, "blob_bytes"),
            format!("{} vs {}", u(b, "blob_bytes"), u(c, "blob_bytes")),
        );
        out.push(
            name("mapped"),
            c.get("mapped") == Some(&Value::Bool(true)),
            format!("{:?}", c.get("mapped")),
        );
        out.push(
            name("bytes_copied_mapped"),
            u(c, "bytes_copied_mapped") == 0,
            format!("{} (zero-copy invariant)", u(c, "bytes_copied_mapped")),
        );
        let (bp, cp) = (
            u(b, "save_peak_staging_bytes"),
            u(c, "save_peak_staging_bytes"),
        );
        out.push(
            name("save_peak_staging_bytes"),
            (cp as f64) <= (bp as f64) * tol.staging_factor,
            format!("{bp} vs {cp} (cap ×{})", tol.staging_factor),
        );
        for key in ["tts_sim_s", "ttr_mapped_sim_s"] {
            out.push(
                name(key),
                rel_within(f(b, key), f(c, key), tol.sim_rel),
                format!(
                    "{:.4}s vs {:.4}s (±{:.0}%)",
                    f(b, key),
                    f(c, key),
                    tol.sim_rel * 100.0
                ),
            );
        }
    }
    out
}

/// Compare a candidate `BENCH_breakdown.json` against the baseline.
///
/// Row sets must match both ways; every candidate row must have a zero
/// simulated residual (the phase spans tile the op exactly); per-row
/// simulated totals carry `sim_rel`.
pub fn gate_breakdown(baseline: &Value, candidate: &Value, tol: &Tolerances) -> GateReport {
    let mut out = GateReport::default();
    let key_of = |r: &Value| -> Option<(String, String)> {
        Some((
            r.get("ctx")?.as_str()?.to_owned(),
            r.get("op")?.as_str()?.to_owned(),
        ))
    };
    let rows = |doc: &Value| -> Vec<((String, String), Value)> {
        doc.get("rows")
            .and_then(Value::as_array)
            .map(|rs| {
                rs.iter()
                    .filter_map(|r| Some((key_of(r)?, r.clone())))
                    .collect()
            })
            .unwrap_or_default()
    };
    let base_rows = rows(baseline);
    let cand_rows = rows(candidate);
    if base_rows.is_empty() {
        out.push("breakdown baseline rows", false, "baseline has no rows[]");
        return out;
    }
    for ((ctx, op), _) in &cand_rows {
        if !base_rows
            .iter()
            .any(|(k, _)| k == &(ctx.clone(), op.clone()))
        {
            out.push(
                format!("breakdown {ctx}/{op}"),
                false,
                "row absent from baseline",
            );
        }
    }
    for ((ctx, op), b) in &base_rows {
        let name = |what: &str| format!("breakdown {ctx}/{op} {what}");
        let Some((_, c)) = cand_rows
            .iter()
            .find(|(k, _)| k == &(ctx.clone(), op.clone()))
        else {
            out.push(name("row"), false, "candidate row missing");
            continue;
        };
        out.push(
            name("other_sim_ns"),
            u(c, "other_sim_ns") == 0,
            format!("{} (zero-residual invariant)", u(c, "other_sim_ns")),
        );
        let (bt, ct) = (f(b, "total_sim_ns"), f(c, "total_sim_ns"));
        out.push(
            name("total_sim_ns"),
            rel_within(bt, ct, tol.sim_rel),
            format!("{bt:.0} vs {ct:.0} (±{:.0}%)", tol.sim_rel * 100.0),
        );
    }
    out
}

/// Compare a candidate `BENCH_query.json` against the baseline.
///
/// The query bench seeds its population deterministically from the
/// row's `n`, so match counts, scan sizes and the charged store
/// operations and bytes of every query compare exactly (a drift means
/// the engine changed what it does, not the machine); query
/// wall-clock latencies get the same generous machine-variance factor
/// as service throughput.
pub fn gate_query(baseline: &Value, candidate: &Value, tol: &Tolerances) -> GateReport {
    let mut out = GateReport::default();
    let base_rows = rows_by(baseline, "n");
    if base_rows.is_empty() {
        out.push(
            "query baseline rows",
            false,
            "baseline has no rows[] with an n key",
        );
        return out;
    }
    let cand_rows = rows_by(candidate, "n");
    for (n, b) in base_rows {
        let name = |what: &str| format!("query n={n} {what}");
        let Some((_, c)) = cand_rows.iter().find(|(m, _)| *m == n) else {
            out.push(name("row"), false, "candidate row missing");
            continue;
        };
        for key in [
            "count_true",
            "scan_true",
            "count_pred",
            "count_tag",
            "scan_tag",
            "count_tip",
            "count_depth",
            "count_sim",
            "ops_true",
            "bytes_true",
            "ops_pred",
            "bytes_pred",
            "ops_tag",
            "bytes_tag",
            "ops_tip",
            "bytes_tip",
            "ops_depth",
            "bytes_depth",
            "ops_sim",
            "bytes_sim",
        ] {
            out.push(
                name(key),
                u(b, key) == u(c, key),
                format!("{} vs {}", u(b, key), u(c, key)),
            );
        }
        for key in [
            "ms_true", "ms_pred", "ms_tag", "ms_tip", "ms_depth", "ms_sim",
        ] {
            let (bm, cm) = (f(b, key), f(c, key));
            out.push(
                name(key),
                cm.is_finite() && cm <= bm * tol.throughput_factor,
                format!("{bm:.2}ms vs {cm:.2}ms (cap ×{:.0})", tol.throughput_factor),
            );
        }
    }
    out
}

/// Wrap breakdown rows as the `BENCH_breakdown.json` document.
pub fn breakdown_json(
    rows: &[mmm_obs::BreakdownRow],
    models: usize,
    cycles: usize,
    setup: &str,
    threads: usize,
) -> Value {
    serde_json::json!({
        "bench": "breakdown",
        "models": models,
        "cycles": cycles,
        "setup": setup,
        "threads": threads,
        "rows": rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn doc(rows: Vec<Value>) -> Value {
        json!({ "rows": rows })
    }

    fn service_doc(saves_per_sec: f64, shed: f64, overrun: u64, cps: f64) -> Value {
        doc(vec![json!({
            "threads": 4,
            "saves": 100,
            "shed": 0,
            "saves_per_sec": saves_per_sec,
            "shed_rate": shed,
            "p99_deadline_overrun_ns": overrun,
            "commit_records_per_save": cps,
        })])
    }

    #[test]
    fn identical_service_docs_pass() {
        let doc = service_doc(1000.0, 0.0, 0, 0.25);
        let r = gate_service(&doc, &doc, &Tolerances::default());
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn service_regressions_fail_their_named_check() {
        let base = service_doc(1000.0, 0.0, 0, 0.25);
        let tol = Tolerances::default();
        for (cand, check) in [
            (service_doc(100.0, 0.0, 0, 0.25), "saves_per_sec"),
            (service_doc(1000.0, 0.2, 0, 0.25), "shed_rate"),
            (service_doc(1000.0, 0.0, 1_000_000_000, 0.25), "p99_overrun"),
            (service_doc(1000.0, 0.0, 0, 1.5), "commit_records_per_save"),
        ] {
            let r = gate_service(&base, &cand, &tol);
            assert!(!r.passed(), "{check} should fail");
            assert!(
                r.failures().iter().any(|c| c.name.contains(check)),
                "{check}: {}",
                r.render()
            );
        }
        // Slack absorbs small drift.
        let r = gate_service(&base, &service_doc(400.0, 0.03, 1_000_000, 0.25), &tol);
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn missing_candidate_rows_fail() {
        let base = service_doc(1000.0, 0.0, 0, 0.25);
        let r = gate_service(&base, &doc(Vec::new()), &Tolerances::default());
        assert!(!r.passed());
        let r = gate_service(&json!({}), &base, &Tolerances::default());
        assert!(
            !r.passed(),
            "empty baseline is a failure, not a vacuous pass"
        );
    }

    fn scale_doc(copied: u64, staging: u64, tts: f64) -> Value {
        doc(vec![json!({
            "n": 1000,
            "blob_bytes": 4_000_000u64,
            "tts_sim_s": tts,
            "ttr_mapped_sim_s": 0.5,
            "save_peak_staging_bytes": staging,
            "bytes_copied_mapped": copied,
            "mapped": true,
        })])
    }

    #[test]
    fn scale_invariants_gate_exactly() {
        let base = scale_doc(0, 1 << 20, 2.0);
        let tol = Tolerances::default();
        assert!(gate_scale(&base, &base, &tol).passed());
        assert!(
            !gate_scale(&base, &scale_doc(64, 1 << 20, 2.0), &tol).passed(),
            "copied bytes"
        );
        assert!(
            !gate_scale(&base, &scale_doc(0, 4 << 20, 2.0), &tol).passed(),
            "staging blowup"
        );
        assert!(
            !gate_scale(&base, &scale_doc(0, 1 << 20, 3.0), &tol).passed(),
            "sim regression"
        );
        assert!(gate_scale(&base, &scale_doc(0, (1 << 20) + 1024, 2.1), &tol).passed());
    }

    fn breakdown_row(ctx: &str, total: u64, other: u64) -> Value {
        json!({
            "ctx": ctx,
            "op": "save",
            "count": 1,
            "total_sim_ns": total,
            "other_sim_ns": other,
        })
    }

    fn breakdown_doc(total: u64, other: u64) -> Value {
        doc(vec![breakdown_row("baseline/U1", total, other)])
    }

    #[test]
    fn breakdown_gate_enforces_zero_residual_and_row_sets() {
        let base = breakdown_doc(1_000_000, 0);
        let tol = Tolerances::default();
        assert!(gate_breakdown(&base, &breakdown_doc(1_050_000, 0), &tol).passed());
        assert!(
            !gate_breakdown(&base, &breakdown_doc(1_000_000, 5), &tol).passed(),
            "residual"
        );
        assert!(
            !gate_breakdown(&base, &breakdown_doc(2_000_000, 0), &tol).passed(),
            "sim drift"
        );
        assert!(
            !gate_breakdown(&base, &doc(Vec::new()), &tol).passed(),
            "missing candidate row"
        );
        let extra = doc(vec![
            breakdown_row("baseline/U1", 1_000_000, 0),
            breakdown_row("new/U9", 1, 0),
        ]);
        assert!(
            !gate_breakdown(&base, &extra, &tol).passed(),
            "unexpected extra row"
        );
    }

    fn query_doc(count_true: u64, scan_tag: u64, ms_true: f64) -> Value {
        query_doc_costing(count_true, scan_tag, ms_true, 900)
    }

    fn query_doc_costing(count_true: u64, scan_tag: u64, ms_true: f64, bytes_tag: u64) -> Value {
        doc(vec![json!({
            "ops_true": 7,
            "ops_tag": 5,
            "bytes_tag": bytes_tag,
            "n": 1000,
            "count_true": count_true,
            "scan_true": count_true,
            "ms_true": ms_true,
            "count_pred": 300,
            "ms_pred": 1.0,
            "count_tag": 10,
            "scan_tag": scan_tag,
            "ms_tag": 0.1,
            "count_tip": 10,
            "ops_tip": 15,
            "ms_tip": 0.2,
            "count_depth": 500,
            "ms_depth": 1.2,
            "count_sim": 120,
            "ms_sim": 4.0,
        })])
    }

    #[test]
    fn query_gate_compares_counts_exactly_and_latency_with_slack() {
        let base = query_doc(1000, 10, 2.0);
        let tol = Tolerances::default();
        assert!(gate_query(&base, &base, &tol).passed());
        // Latency inside the machine-variance cap passes; counts do not drift.
        assert!(gate_query(&base, &query_doc(1000, 10, 7.0), &tol).passed());
        let r = gate_query(&base, &query_doc(999, 10, 2.0), &tol);
        assert!(!r.passed(), "count drift must fail");
        assert!(r.failures().iter().any(|c| c.name.contains("count_true")), "{}", r.render());
        let r = gate_query(&base, &query_doc(1000, 1000, 2.0), &tol);
        assert!(
            r.failures().iter().any(|c| c.name.contains("scan_tag")),
            "a tag probe that stops narrowing the scan must fail: {}",
            r.render()
        );
        let r = gate_query(&base, &query_doc_costing(1000, 10, 2.0, 901), &tol);
        assert!(
            r.failures().iter().any(|c| c.name.contains("bytes_tag")),
            "a probe that transfers one byte more must fail: {}",
            r.render()
        );
        let r = gate_query(&base, &query_doc(1000, 10, 2.0 * tol.throughput_factor + 1.0), &tol);
        assert!(
            r.failures().iter().any(|c| c.name.contains("ms_true")),
            "latency blowup past the cap must fail: {}",
            r.render()
        );
        assert!(!gate_query(&base, &doc(Vec::new()), &tol).passed(), "missing candidate row");
        assert!(
            !gate_query(&doc(Vec::new()), &base, &tol).passed(),
            "empty baseline is a failure, not a vacuous pass"
        );
    }

    #[test]
    fn report_renders_pass_and_fail_lines() {
        let base = service_doc(1000.0, 0.0, 0, 0.25);
        let text = gate_service(
            &base,
            &service_doc(10.0, 0.0, 0, 0.25),
            &Tolerances::default(),
        )
        .render();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("gate FAIL"), "{text}");
        assert!(text.contains("PASS"), "{text}");
    }
}
