//! The metric catalogue: every name a run prints, and how each is
//! computed from samples, counters and spans. `BENCHMARK.json` lists the
//! same names; `tests/contract.rs` keeps the two in step.

use mmm_store::{CasCounters, StatsSnapshot};

use crate::stats::{ratio, Metric, Samples};
use crate::trace::Recorder;

/// Latency samples of the end-to-end operations, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct OpSamples {
    pub tts_initial: Samples,
    pub tts: Samples,
    pub ttr: Samples,
    pub select: Samples,
    pub q_scan: Samples,
    pub q_probe: Samples,
}

impl OpSamples {
    /// Steady-state requests: derived saves, recovers, selective
    /// recovers. The U1 save that opens a chain is left out: it is rare
    /// and, on the CAS backend, bimodal (256 chunk files: 16 ms or 100
    /// ms), so a rate that includes it swings with how many fell slow.
    pub fn requests(&self) -> usize {
        self.tts.len() + self.ttr.len() + self.select.len()
    }

    /// Seconds the clients spent inside those requests.
    pub fn busy_s(&self) -> f64 {
        (self.tts.sum() + self.ttr.sum() + self.select.sum()) / 1e3
    }

    /// One number for "how long do this workload's operations take".
    fn typical_ms(&self) -> f64 {
        self.tts_initial.median() + self.tts.median() + self.ttr.median() + self.select.median()
    }

    pub fn absorb(&mut self, other: OpSamples) {
        self.tts_initial.0.extend(other.tts_initial.0);
        self.tts.0.extend(other.tts.0);
        self.ttr.0.extend(other.ttr.0);
        self.select.0.extend(other.select.0);
        self.q_scan.0.extend(other.q_scan.0);
        self.q_probe.0.extend(other.q_probe.0);
    }
}

/// What the user of the system sees.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Samples,
    pub ops: OpSamples,
    /// Requests per busy second, summed over clients.
    pub ops_per_s: f64,
    pub stored_bytes: u64,
    pub user_bytes: u64,
    pub peak_rss_bytes: u64,
}

/// Name, unit and which direction is better, as `BENCHMARK.json` lists
/// them.
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("setup_s", "s", "lower"),
    ("tts_ms_p50", "ms", "lower"),
    ("ttr_ms_p50", "ms", "lower"),
    ("ttr_select_ms_p50", "ms", "lower"),
    ("query_scan_ms_p50", "ms", "lower"),
    ("query_probe_ms_p50", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("stored_bytes_per_user_byte", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

pub fn end_to_end(e: &EndToEnd) -> Vec<Metric> {
    let o = &e.ops;
    vec![
        Metric::p50("setup_s", "s", &e.setup_s),
        Metric::p50("tts_ms_p50", "ms", &o.tts),
        Metric::p50("ttr_ms_p50", "ms", &o.ttr),
        Metric::p50("ttr_select_ms_p50", "ms", &o.select),
        Metric::p50("query_scan_ms_p50", "ms", &o.q_scan),
        Metric::p50("query_probe_ms_p50", "ms", &o.q_probe),
        Metric::new("ops_per_s", "1/s", e.ops_per_s, o.requests()),
        Metric::new(
            "stored_bytes_per_user_byte",
            "ratio",
            ratio(e.stored_bytes as f64, e.user_bytes as f64),
            1,
        ),
        Metric::new("peak_rss_mb", "MB", e.peak_rss_bytes as f64 / 1e6, 1),
    ]
}

/// Store-counter deltas summed over the operations of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpStats {
    pub n: u64,
    pub stats: StatsSnapshot,
    /// Bytes the user handed in (saves) or got back (recovers).
    pub user_bytes: u64,
}

impl OpStats {
    pub fn add(&mut self, delta: StatsSnapshot, user_bytes: u64) {
        self.n += 1;
        self.stats = self.stats + delta;
        self.user_bytes += user_bytes;
    }
}

/// Counter-derived inputs of the per-layer report. Everything defaults
/// to zero: a layer the workload never enters reports 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub save: OpStats,
    pub recover: OpStats,
    pub select: OpStats,
    pub plain_backend: bool,
    /// CAS counters over the untraced part of the serve phase, and the
    /// saves made in it.
    pub cas: CasCounters,
    pub cas_saves: u64,
    pub fleet_recover_ms: Samples,
    pub fleet_save_ms: Samples,
    pub direct_save_ms: Samples,
    pub commit_records: u64,
    pub commit_members: u64,
    pub shed: u64,
    pub stale_serves: u64,
    pub fork_us: Samples,
    pub fork_bytes_written: Samples,
    pub diff_us: Samples,
    pub q_pred_ms: Samples,
    pub q_depth_ms: Samples,
    pub q_sim_ms: Samples,
    pub q_scan_ms: Samples,
    pub q_probe_ms: Samples,
    pub lake_sets: u64,
    pub scanned_probe: u64,
    pub results_probe: u64,
    pub scanned_pred: u64,
    pub results_pred: u64,
    pub store_ops_scan: u64,
    pub store_ops_probe: u64,
    pub doc_open_ms: Samples,
    pub doc_log_bytes: u64,
    pub doc_payload_bytes: u64,
    pub untraced: OpSamples,
    pub traced: OpSamples,
    pub generator_threads: usize,
}

pub const PER_LAYER: [(&str, &str); 70] = [
    ("hash.f32_mb_per_s", "MB/s"),
    ("hash.xxhash64_mb_per_s", "MB/s"),
    ("param_codec.encode_concat_mb_per_s", "MB/s"),
    ("param_codec.encode_stream_mb_per_s", "MB/s"),
    ("param_codec.decode_concat_mb_per_s", "MB/s"),
    ("param_codec.decode_visit_mb_per_s", "MB/s"),
    ("param_codec.encode_diff_mb_per_s", "MB/s"),
    ("param_codec.decode_diff_mb_per_s", "MB/s"),
    ("param_codec.encode_hashes_us_p50", "us"),
    ("param_codec.decode_hashes_us_p50", "us"),
    ("file_store.put_mb_per_s", "MB/s"),
    ("file_store.put_small_us_p50", "us"),
    ("file_store.get_mb_per_s", "MB/s"),
    ("file_store.get_small_us_p50", "us"),
    ("file_store.get_mapped_us_p50", "us"),
    ("file_store.get_range_us_p50", "us"),
    ("file_store.bytes_copied_per_byte_read", "ratio"),
    ("doc_store.insert_us_p50", "us"),
    ("doc_store.get_us_p50", "us"),
    ("doc_store.find_eq_us_p50", "us"),
    ("doc_store.all_ms_p50", "ms"),
    ("doc_store.open_ms", "ms"),
    ("doc_store.log_bytes_per_doc_byte", "ratio"),
    ("cas.put_mb_per_s", "MB/s"),
    ("cas.put_dedup_mb_per_s", "MB/s"),
    ("cas.get_cold_mb_per_s", "MB/s"),
    ("cas.get_cached_mb_per_s", "MB/s"),
    ("cas.get_range_us_p50", "us"),
    ("cas.dedup_ratio", "ratio"),
    ("cas.cache_hit_ratio", "ratio"),
    ("cas.chunk_puts_per_save", "count"),
    ("commit.commit_save_us_p50", "us"),
    ("commit.is_committed_us_p50", "us"),
    ("approach.save.store_ops", "count"),
    ("approach.save.bytes_written_per_user_byte", "ratio"),
    ("approach.recover.store_ops", "count"),
    ("approach.recover.bytes_read_per_byte_returned", "ratio"),
    ("approach.recover.bytes_copied_per_byte_read", "ratio"),
    ("approach.select.bytes_read_per_byte_returned", "ratio"),
    ("approach.save.unattributed_ms", "ms"),
    ("approach.recover.unattributed_ms", "ms"),
    ("approach.save_initial_ms_p50", "ms"),
    ("approach.save_ms_p90", "ms"),
    ("approach.recover_ms_p90", "ms"),
    ("approach.select_ms_p90", "ms"),
    ("dnn.train_ms_per_model", "ms"),
    ("dnn.models_retrained_per_recover", "count"),
    ("registry.get_us_p50", "us"),
    ("fleet.recover_ms_p50", "ms"),
    ("fleet.recover_ms_p99", "ms"),
    ("fleet.overhead_us_p50", "us"),
    ("fleet.commit_records_per_save", "ratio"),
    ("fleet.shed", "count"),
    ("fleet.stale_serves", "count"),
    ("branch.fork_us_p50", "us"),
    ("branch.fork_bytes_written", "B"),
    ("branch.diff_us_p50", "us"),
    ("query.parse_us_p50", "us"),
    ("query.pred_ms_p50", "ms"),
    ("query.depth_ms_p50", "ms"),
    ("query.sim_ms_p50", "ms"),
    ("query.us_per_set_scan", "us"),
    ("query.probe_over_scan", "ratio"),
    ("query.scanned_per_result.probe", "ratio"),
    ("query.scanned_per_result.pred", "ratio"),
    ("query.store_ops.scan", "count"),
    ("query.store_ops.probe", "count"),
    ("catalog.list_sets_ms_p50", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.generator_threads", "count"),
];

pub fn per_layer(rec: &Recorder, l: &Layers) -> Vec<Metric> {
    let rate = |name: &'static str, span: &str| Metric::p50(name, "MB/s", &rec.mb_per_s(span));
    let us = |name: &'static str, span: &str| Metric::p50(name, "us", &rec.micros(span));
    let ms = |name: &'static str, span: &str| {
        let s = Samples(rec.micros(span).0.iter().map(|v| v / 1e3).collect());
        Metric::p50(name, "ms", &s)
    };
    let one = |name: &'static str, unit: &'static str, v: f64| Metric::new(name, unit, v, 1);
    let per = |a: u64, b: u64| ratio(a as f64, b as f64);

    let reads = l.recover.stats + l.select.stats;
    let recover_roots: std::collections::HashSet<u32> = rec
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "recover")
        .map(|s| s.id)
        .collect();
    let retrained = rec
        .spans
        .iter()
        .filter(|s| s.name == "dnn.train" && s.parent.is_some_and(|p| recover_roots.contains(&p)))
        .count();
    let cas_lookups = l.cas.cache_hits + l.cas.cache_misses;

    vec![
        rate("hash.f32_mb_per_s", "hash.f32"),
        rate("hash.xxhash64_mb_per_s", "hash.xxhash64"),
        rate(
            "param_codec.encode_concat_mb_per_s",
            "param_codec.encode_concat",
        ),
        rate(
            "param_codec.encode_stream_mb_per_s",
            "param_codec.encode_stream",
        ),
        rate(
            "param_codec.decode_concat_mb_per_s",
            "param_codec.decode_concat",
        ),
        rate(
            "param_codec.decode_visit_mb_per_s",
            "param_codec.decode_visit",
        ),
        rate(
            "param_codec.encode_diff_mb_per_s",
            "param_codec.encode_diff",
        ),
        rate(
            "param_codec.decode_diff_mb_per_s",
            "param_codec.decode_diff",
        ),
        us(
            "param_codec.encode_hashes_us_p50",
            "param_codec.encode_hashes",
        ),
        us(
            "param_codec.decode_hashes_us_p50",
            "param_codec.decode_hashes",
        ),
        rate("file_store.put_mb_per_s", "file_store.put"),
        us("file_store.put_small_us_p50", "file_store.put_small"),
        rate("file_store.get_mb_per_s", "file_store.get"),
        us("file_store.get_small_us_p50", "file_store.get_small"),
        us("file_store.get_mapped_us_p50", "file_store.get_mapped"),
        us("file_store.get_range_us_p50", "file_store.get_range"),
        one(
            "file_store.bytes_copied_per_byte_read",
            "ratio",
            if l.plain_backend {
                per(reads.bytes_copied, reads.bytes_read)
            } else {
                0.0
            },
        ),
        us("doc_store.insert_us_p50", "doc_store.insert"),
        us("doc_store.get_us_p50", "doc_store.get"),
        us("doc_store.find_eq_us_p50", "doc_store.find_eq"),
        ms("doc_store.all_ms_p50", "doc_store.all"),
        Metric::p50("doc_store.open_ms", "ms", &l.doc_open_ms),
        one(
            "doc_store.log_bytes_per_doc_byte",
            "ratio",
            per(l.doc_log_bytes, l.doc_payload_bytes),
        ),
        rate("cas.put_mb_per_s", "cas.put"),
        rate("cas.put_dedup_mb_per_s", "cas.put_dedup"),
        rate("cas.get_cold_mb_per_s", "cas.get_cold"),
        rate("cas.get_cached_mb_per_s", "cas.get_cached"),
        us("cas.get_range_us_p50", "cas.get_range"),
        one(
            "cas.dedup_ratio",
            "ratio",
            per(l.cas.dedup_bytes, l.cas.dedup_bytes + l.cas.chunk_put_bytes),
        ),
        one(
            "cas.cache_hit_ratio",
            "ratio",
            per(l.cas.cache_hits, cas_lookups),
        ),
        one(
            "cas.chunk_puts_per_save",
            "count",
            per(l.cas.chunk_puts, l.cas_saves),
        ),
        us("commit.commit_save_us_p50", "commit.commit_save"),
        us("commit.is_committed_us_p50", "commit.is_committed"),
        one(
            "approach.save.store_ops",
            "count",
            per(l.save.stats.total_ops(), l.save.n),
        ),
        one(
            "approach.save.bytes_written_per_user_byte",
            "ratio",
            per(l.save.stats.bytes_written, l.save.user_bytes),
        ),
        one(
            "approach.recover.store_ops",
            "count",
            per(l.recover.stats.total_ops(), l.recover.n),
        ),
        one(
            "approach.recover.bytes_read_per_byte_returned",
            "ratio",
            per(l.recover.stats.bytes_read, l.recover.user_bytes),
        ),
        one(
            "approach.recover.bytes_copied_per_byte_read",
            "ratio",
            per(l.recover.stats.bytes_copied, l.recover.stats.bytes_read),
        ),
        one(
            "approach.select.bytes_read_per_byte_returned",
            "ratio",
            per(l.select.stats.bytes_read, l.select.user_bytes),
        ),
        Metric::p50(
            "approach.save.unattributed_ms",
            "ms",
            &rec.unattributed_ms("save"),
        ),
        Metric::p50(
            "approach.recover.unattributed_ms",
            "ms",
            &rec.unattributed_ms("recover"),
        ),
        Metric::p50(
            "approach.save_initial_ms_p50",
            "ms",
            &l.untraced.tts_initial,
        ),
        Metric::tail("approach.save_ms_p90", "ms", &l.untraced.tts, 90.0),
        Metric::tail("approach.recover_ms_p90", "ms", &l.untraced.ttr, 90.0),
        Metric::tail("approach.select_ms_p90", "ms", &l.untraced.select, 90.0),
        ms("dnn.train_ms_per_model", "dnn.train"),
        one(
            "dnn.models_retrained_per_recover",
            "count",
            per(retrained as u64, recover_roots.len() as u64),
        ),
        us("registry.get_us_p50", "registry.get"),
        Metric::p50("fleet.recover_ms_p50", "ms", &l.fleet_recover_ms),
        Metric::tail("fleet.recover_ms_p99", "ms", &l.fleet_recover_ms, 99.0),
        one(
            "fleet.overhead_us_p50",
            "us",
            (l.fleet_save_ms.median() - l.direct_save_ms.median()) * 1e3,
        ),
        one(
            "fleet.commit_records_per_save",
            "ratio",
            per(l.commit_records, l.commit_members),
        ),
        one("fleet.shed", "count", l.shed as f64),
        one("fleet.stale_serves", "count", l.stale_serves as f64),
        Metric::p50("branch.fork_us_p50", "us", &l.fork_us),
        Metric::p50("branch.fork_bytes_written", "B", &l.fork_bytes_written),
        Metric::p50("branch.diff_us_p50", "us", &l.diff_us),
        us("query.parse_us_p50", "query.parse"),
        Metric::p50("query.pred_ms_p50", "ms", &l.q_pred_ms),
        Metric::p50("query.depth_ms_p50", "ms", &l.q_depth_ms),
        Metric::p50("query.sim_ms_p50", "ms", &l.q_sim_ms),
        one(
            "query.us_per_set_scan",
            "us",
            ratio(l.q_scan_ms.median() * 1e3, l.lake_sets as f64),
        ),
        one(
            "query.probe_over_scan",
            "ratio",
            ratio(l.q_probe_ms.median(), l.q_scan_ms.median()),
        ),
        one(
            "query.scanned_per_result.probe",
            "ratio",
            per(l.scanned_probe, l.results_probe),
        ),
        one(
            "query.scanned_per_result.pred",
            "ratio",
            per(l.scanned_pred, l.results_pred),
        ),
        one("query.store_ops.scan", "count", l.store_ops_scan as f64),
        one("query.store_ops.probe", "count", l.store_ops_probe as f64),
        ms("catalog.list_sets_ms_p50", "catalog.list_sets"),
        one(
            "bench.trace_overhead_pct",
            "%",
            100.0 * (ratio(l.traced.typical_ms(), l.untraced.typical_ms()) - 1.0),
        ),
        one(
            "bench.generator_threads",
            "count",
            l.generator_threads as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_cover_exactly_the_catalogued_names() {
        let e2e = end_to_end(&EndToEnd::default());
        let names: Vec<_> = e2e.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, END_TO_END.map(|(name, unit, _)| (name, unit)));
        let rec = Recorder::new(std::time::Instant::now(), 0);
        let layers = per_layer(&rec, &Layers::default());
        let names: Vec<_> = layers.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, PER_LAYER);
    }
}
