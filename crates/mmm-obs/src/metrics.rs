//! Counters and log-linear-bucket histograms with Prometheus text export.
//!
//! Metrics are keyed by their full Prometheus sample name including
//! labels, e.g. `mmm_store_op_sim_ns{op="blob_put"}`. Keys live in
//! `BTreeMap`s so the exported text is deterministically ordered.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mmm_util::Unpoison;

/// Sub-bucket resolution of the histogram: each power-of-two range is
/// split into `2^SUB_BITS` linear sub-buckets (≤ ~25% relative error).
const SUB_BITS: u32 = 2;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range: unit buckets for
/// `0..SUB`, then `SUB` sub-buckets for each exponent `SUB_BITS..=63`,
/// i.e. indexes `0..=(63-1)*SUB + (SUB-1)`.
pub const BUCKETS: usize = 63 * SUB as usize;

/// Index of the bucket that `v` falls into.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e >= SUB_BITS
    let sub = ((v >> (e - SUB_BITS)) & (SUB - 1)) as usize;
    (e as usize - 1) * SUB as usize + sub
}

/// Smallest value that falls into bucket `idx`.
fn bucket_lower(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let e = (idx / SUB as usize + 1) as u32;
    let sub = (idx % SUB as usize) as u64;
    (1u64 << e) + (sub << (e - SUB_BITS))
}

/// Largest value that falls into bucket `idx` (inclusive).
fn bucket_upper(idx: usize) -> u64 {
    if idx + 1 < BUCKETS {
        bucket_lower(idx + 1) - 1
    } else {
        u64::MAX
    }
}

/// A fixed-layout log-linear histogram over the full `u64` range.
///
/// Layout: values `0..4` get exact unit buckets; every power-of-two range
/// above that is split into 4 linear sub-buckets, so any recorded value
/// is attributed with at most ~25% relative error while the whole range
/// (including `u64::MAX`) needs only [`BUCKETS`] slots.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    /// `u128` so even `u64::MAX`-sized observations cannot overflow.
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { counts: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the lower bound of the
    /// bucket containing the `ceil(q·count)`-th observation.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_lower(idx));
            }
        }
        Some(self.max)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower, upper_inclusive, count)` triples.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (bucket_lower(idx), bucket_upper(idx), c))
    }
}

/// Split a metric key `name{a="b",...}` into `(name, labels)` where
/// `labels` excludes the surrounding braces (empty if unlabelled).
fn split_key(key: &str) -> (&str, &str) {
    match key.split_once('{') {
        Some((name, rest)) => (name, rest.strip_suffix('}').unwrap_or(rest)),
        None => (key, ""),
    }
}

/// Value of label `label` in a full metric key `name{a="b",...}`, if
/// present. Quote-aware, so values may contain `,` or `=`.
pub fn label_value(key: &str, label: &str) -> Option<String> {
    let (_, labels) = split_key(key);
    for (name, value) in iter_labels(labels) {
        if name == label {
            return Some(value.to_owned());
        }
    }
    None
}

/// Iterate `(name, value)` pairs of a label string `a="b",c="d"`.
fn iter_labels(labels: &str) -> impl Iterator<Item = (&str, &str)> {
    let mut rest = labels;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let eq = rest.find('=')?;
        let name = &rest[..eq];
        let after = rest[eq + 1..].strip_prefix('"')?;
        let close = after.find('"')?;
        let value = &after[..close];
        rest = after[close + 1..].strip_prefix(',').unwrap_or(&after[close + 1..]);
        Some((name, value))
    })
}

/// Rewrite every label value in `key` to `other`, preserving label
/// names and order: the overflow bucket a capped family collapses into.
fn collapse_key(key: &str) -> String {
    let (name, labels) = split_key(key);
    let mut out = String::with_capacity(key.len());
    out.push_str(name);
    out.push('{');
    for (i, (lname, _)) in iter_labels(labels).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(lname);
        out.push_str("=\"other\"");
    }
    out.push('}');
    out
}

/// Counter bumped whenever a labelled sample is collapsed into the
/// `other` bucket because its family hit the cardinality cap.
pub const LABELS_DROPPED_TOTAL: &str = "mmm_metric_labels_dropped_total";

/// Default per-family cap on distinct labelled keys (see
/// [`MetricsRegistry::with_label_cap`]).
pub const DEFAULT_LABEL_CAP: usize = 64;

/// Thread-safe registry of named counters and histograms.
///
/// Keys are full Prometheus sample names (`name{label="v"}`); the label
/// part is parsed only at export time. Deterministic iteration order.
///
/// Labelled cardinality is bounded: each family admits at most
/// `label_cap` distinct labelled keys per kind (counter / histogram /
/// gauge); overflow collapses every label value to `other` and bumps
/// [`LABELS_DROPPED_TOTAL`], so a tenant flood cannot grow the
/// exporter without bound.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    label_cap: usize,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::with_label_cap(DEFAULT_LABEL_CAP)
    }
}

/// Resolve `key` against the cardinality cap: an unlabelled or
/// already-present key passes through; a new labelled key in a family
/// that already holds `cap` labelled keys collapses to the `other`
/// bucket. Returns the admitted key and whether a collapse happened.
fn admit<V>(map: &BTreeMap<String, V>, key: &str, cap: usize) -> (String, bool) {
    let (name, labels) = split_key(key);
    if labels.is_empty() || map.contains_key(key) {
        return (key.to_owned(), false);
    }
    let prefix = format!("{name}{{");
    let labelled =
        map.range(prefix.clone()..).take_while(|(k, _)| k.starts_with(&prefix)).take(cap).count();
    if labelled < cap {
        (key.to_owned(), false)
    } else {
        (collapse_key(key), true)
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry with the default label-cardinality cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh registry admitting at most `cap` distinct labelled keys
    /// per family (minimum 1; the `other` overflow bucket rides on top).
    pub fn with_label_cap(cap: usize) -> Self {
        MetricsRegistry {
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            label_cap: cap.max(1),
        }
    }

    /// The per-family labelled-key cap.
    pub fn label_cap(&self) -> usize {
        self.label_cap
    }

    /// Add `v` to the counter `key`.
    pub fn inc(&self, key: &str, v: u64) {
        let mut c = self.counters.lock().unpoison();
        let (key, dropped) = admit(&c, key, self.label_cap);
        let bump = |c: &mut BTreeMap<String, u64>, key: String, v: u64| match c.get_mut(&key) {
            Some(slot) => *slot = slot.saturating_add(v),
            None => {
                c.insert(key, v);
            }
        };
        bump(&mut c, key, v);
        if dropped {
            bump(&mut c, LABELS_DROPPED_TOTAL.to_owned(), 1);
        }
    }

    /// Record `v` into the histogram `key`.
    pub fn observe(&self, key: &str, v: u64) {
        let dropped = {
            let mut h = self.histograms.lock().unpoison();
            let (key, dropped) = admit(&h, key, self.label_cap);
            h.entry(key).or_default().record(v);
            dropped
        };
        if dropped {
            self.inc(LABELS_DROPPED_TOTAL, 1);
        }
    }

    /// Set the gauge `key` to `v` (last write wins — gauges report
    /// point-in-time state such as a circuit-breaker position or a
    /// queue depth, unlike monotone counters).
    pub fn set_gauge(&self, key: &str, v: u64) {
        let dropped = {
            let mut g = self.gauges.lock().unpoison();
            let (key, dropped) = admit(&g, key, self.label_cap);
            g.insert(key, v);
            dropped
        };
        if dropped {
            self.inc(LABELS_DROPPED_TOTAL, 1);
        }
    }

    /// Current value of gauge `key` (0 if never set).
    pub fn gauge(&self, key: &str) -> u64 {
        self.gauges.lock().unpoison().get(key).copied().unwrap_or(0)
    }

    /// Names (with labels) of all registered gauges.
    pub fn gauge_keys(&self) -> Vec<String> {
        self.gauges.lock().unpoison().keys().cloned().collect()
    }

    /// Current value of counter `key` (0 if never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.lock().unpoison().get(key).copied().unwrap_or(0)
    }

    /// Snapshot of histogram `key`, if it has been observed.
    pub fn histogram(&self, key: &str) -> Option<Histogram> {
        self.histograms.lock().unpoison().get(key).cloned()
    }

    /// Names (with labels) of all registered counters.
    pub fn counter_keys(&self) -> Vec<String> {
        self.counters.lock().unpoison().keys().cloned().collect()
    }

    /// Names (with labels) of all registered histograms.
    pub fn histogram_keys(&self) -> Vec<String> {
        self.histograms.lock().unpoison().keys().cloned().collect()
    }

    /// Render everything in the Prometheus text exposition format.
    /// Counters come first, then histograms; families are emitted in
    /// sorted order with one `# TYPE` header each, so the output is
    /// deterministic for a deterministic run.
    pub fn prometheus_text(&self) -> String {
        // Group samples by family so each family name gets exactly one
        // `# TYPE` header even when labelled and unlabelled keys of the
        // same family are interleaved with other families in sort order.
        let mut out = String::new();
        let counters = self.counters.lock().unpoison().clone();
        let mut families: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        for (key, value) in &counters {
            let (name, _) = split_key(key);
            families.entry(name.to_owned()).or_default().push((key.clone(), *value));
        }
        for (name, samples) in &families {
            out.push_str(&format!("# TYPE {name} counter\n"));
            for (key, value) in samples {
                out.push_str(&format!("{key} {value}\n"));
            }
        }
        let gauges = self.gauges.lock().unpoison().clone();
        let mut families: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        for (key, value) in &gauges {
            let (name, _) = split_key(key);
            families.entry(name.to_owned()).or_default().push((key.clone(), *value));
        }
        for (name, samples) in &families {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            for (key, value) in samples {
                out.push_str(&format!("{key} {value}\n"));
            }
        }
        let histograms = self.histograms.lock().unpoison().clone();
        let mut families: BTreeMap<String, Vec<(String, &Histogram)>> = BTreeMap::new();
        for (key, hist) in &histograms {
            let (name, _) = split_key(key);
            families.entry(name.to_owned()).or_default().push((key.clone(), hist));
        }
        for (name, samples) in &families {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (key, hist) in samples {
                let (_, labels) = split_key(key);
                let sep = if labels.is_empty() { "" } else { "," };
                let mut cumulative = 0u64;
                for (_, upper, count) in hist.nonzero_buckets() {
                    cumulative += count;
                    out.push_str(&format!(
                        "{name}_bucket{{{labels}{sep}le=\"{upper}\"}} {cumulative}\n"
                    ));
                }
                out.push_str(&format!(
                    "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}\n"
                ));
                let braces =
                    if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
                out.push_str(&format!("{name}_sum{braces} {}\n", hist.sum()));
                out.push_str(&format!("{name}_count{braces} {}\n", hist.count()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_zero_is_exact() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(0), 0);
    }

    #[test]
    fn small_values_get_unit_buckets() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_tight() {
        // Every bucket's lower bound maps back to that bucket, and the
        // value just below it maps to the previous bucket.
        for idx in 1..BUCKETS {
            let lb = bucket_lower(idx);
            assert_eq!(bucket_index(lb), idx, "lower bound of bucket {idx}");
            assert_eq!(bucket_index(lb - 1), idx - 1, "predecessor of bucket {idx}");
        }
        // Boundaries are contiguous: upper(i) + 1 == lower(i+1).
        for idx in 0..BUCKETS - 1 {
            assert_eq!(bucket_upper(idx) + 1, bucket_lower(idx + 1));
        }
    }

    #[test]
    fn u64_max_lands_in_last_bucket() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 2 * u64::MAX as u128);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(1.0), Some(bucket_lower(BUCKETS - 1)));
    }

    #[test]
    fn relative_error_is_bounded() {
        // Any value's bucket lower bound is within 25% of the value.
        for &v in &[5u64, 100, 1_000, 123_456, 1 << 40, u64::MAX / 3] {
            let lb = bucket_lower(bucket_index(v));
            assert!(lb <= v);
            assert!((v - lb) as f64 / v as f64 <= 0.25, "value {v} lb {lb}");
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in [0u64, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1110);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.quantile(0.0), Some(0));
        // 4th of 7 observations is the value 3.
        assert_eq!(h.quantile(0.5), Some(3));
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(50);
        let mut b = Histogram::new();
        b.record(0);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(u64::MAX));
    }

    #[test]
    fn registry_counters_saturate_and_sort() {
        let r = MetricsRegistry::new();
        r.inc("b_total", 1);
        r.inc("a_total", u64::MAX);
        r.inc("a_total", 5); // saturates, doesn't wrap
        assert_eq!(r.counter("a_total"), u64::MAX);
        assert_eq!(r.counter_keys(), vec!["a_total".to_owned(), "b_total".to_owned()]);
    }

    #[test]
    fn prometheus_text_shape() {
        let r = MetricsRegistry::new();
        r.inc("mmm_retries_total", 2);
        r.observe("mmm_op_ns{op=\"put\"}", 5);
        r.observe("mmm_op_ns{op=\"put\"}", 9);
        r.observe("mmm_op_ns", 1); // unlabelled variant of another family
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE mmm_retries_total counter\n"));
        assert!(text.contains("mmm_retries_total 2\n"));
        assert!(text.contains("# TYPE mmm_op_ns histogram\n"));
        assert!(text.contains("mmm_op_ns_bucket{op=\"put\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("mmm_op_ns_sum{op=\"put\"} 14\n"));
        assert!(text.contains("mmm_op_ns_count{op=\"put\"} 2\n"));
        assert!(text.contains("mmm_op_ns_bucket{le=\"+Inf\"} 1\n"));
        // Cumulative bucket counts are monotone.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.starts_with("mmm_op_ns_bucket{op=")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "{line}");
            prev = v;
        }
    }

    #[test]
    fn label_value_parses_quoted_labels() {
        let key = "mmm_x_total{tenant=\"t-1\",op=\"a,b=c\"}";
        assert_eq!(label_value(key, "tenant").as_deref(), Some("t-1"));
        assert_eq!(label_value(key, "op").as_deref(), Some("a,b=c"));
        assert_eq!(label_value(key, "missing"), None);
        assert_eq!(label_value("mmm_x_total", "tenant"), None);
    }

    #[test]
    fn counter_flood_collapses_to_other_at_the_cap() {
        let r = MetricsRegistry::with_label_cap(4);
        for i in 0..100 {
            r.inc(&format!("mmm_t_total{{tenant=\"t-{i}\"}}"), 1);
        }
        // 4 distinct tenants admitted, 96 collapsed into `other`.
        let keys = r.counter_keys();
        let family: Vec<_> = keys.iter().filter(|k| k.starts_with("mmm_t_total{")).collect();
        assert_eq!(family.len(), 5, "{family:?}");
        assert_eq!(r.counter("mmm_t_total{tenant=\"other\"}"), 96);
        assert_eq!(r.counter(LABELS_DROPPED_TOTAL), 96);
        // Admitted keys keep counting without further drops.
        r.inc("mmm_t_total{tenant=\"t-0\"}", 1);
        assert_eq!(r.counter("mmm_t_total{tenant=\"t-0\"}"), 2);
        assert_eq!(r.counter(LABELS_DROPPED_TOTAL), 96);
    }

    #[test]
    fn histogram_and_gauge_floods_are_capped_too() {
        let r = MetricsRegistry::with_label_cap(2);
        for i in 0..10 {
            r.observe(&format!("mmm_lat_ns{{tenant=\"t-{i}\"}}"), i);
            r.set_gauge(&format!("mmm_depth{{tenant=\"t-{i}\"}}"), i);
        }
        let other = r.histogram("mmm_lat_ns{tenant=\"other\"}").expect("overflow histogram");
        assert_eq!(other.count(), 8);
        assert_eq!(r.histogram_keys().iter().filter(|k| k.starts_with("mmm_lat_ns")).count(), 3);
        assert_eq!(r.gauge_keys().iter().filter(|k| k.starts_with("mmm_depth")).count(), 3);
        // Last overflow write wins on the collapsed gauge.
        assert_eq!(r.gauge("mmm_depth{tenant=\"other\"}"), 9);
        assert_eq!(r.counter(LABELS_DROPPED_TOTAL), 16);
    }

    #[test]
    fn unlabelled_keys_and_multi_label_collapse_behave() {
        let r = MetricsRegistry::with_label_cap(1);
        for i in 0..5 {
            r.inc("mmm_plain_total", 1); // unlabelled: never capped
            r.inc(&format!("mmm_two_total{{a=\"x{i}\",b=\"y{i}\"}}"), 1);
        }
        assert_eq!(r.counter("mmm_plain_total"), 5);
        assert_eq!(r.counter("mmm_two_total{a=\"other\",b=\"other\"}"), 4);
    }
}
