//! Sample sets, percentiles, and the metric record every run prints.

use std::time::Duration;

/// Latency (or any scalar) samples of one operation kind.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile `p` in `(0, 100]`; 0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The percentile a tail metric may report: `wanted` when at least
    /// ten samples lie beyond it, else the highest whole percentile that
    /// still has ten beyond it (never below the median).
    pub fn supported_tail(&self, wanted: f64) -> f64 {
        let n = self.len() as f64;
        if n * (1.0 - wanted / 100.0) >= 10.0 {
            return wanted;
        }
        if n <= 20.0 {
            return 50.0;
        }
        (100.0 * (1.0 - 10.0 / n)).floor().clamp(50.0, wanted)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarises (1 for a counter ratio).
    pub samples: usize,
    /// The percentile actually reported, when it differs from the one
    /// the name promises (see [`Samples::supported_tail`]).
    pub rank: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
            rank: None,
        }
    }

    pub fn p50(name: &'static str, unit: &'static str, s: &Samples) -> Self {
        Metric::new(name, unit, s.median(), s.len())
    }

    pub fn tail(name: &'static str, unit: &'static str, s: &Samples, wanted: f64) -> Self {
        let p = s.supported_tail(wanted);
        Metric {
            name,
            unit,
            value: s.percentile(p),
            samples: s.len(),
            rank: (p != wanted).then_some(p),
        }
    }

    /// `name unit value samples [rank=pNN]`, the human-readable line.
    pub fn line(&self) -> String {
        let rank = self.rank.map(|p| format!(" rank=p{p}")).unwrap_or_default();
        format!(
            "{} {} {} {}{}",
            self.name, self.unit, self.value, self.samples, rank
        )
    }
}

/// `a / b`, or 0 when the layer did no work (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples((1..=100).map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s = Samples(vec![0.0; 100]);
        assert_eq!(s.supported_tail(90.0), 90.0);
        assert_eq!(s.supported_tail(99.0), 90.0);
        let s = Samples(vec![0.0; 40]);
        assert_eq!(s.supported_tail(90.0), 75.0);
        let s = Samples(vec![0.0; 12]);
        assert_eq!(s.supported_tail(90.0), 50.0);
        let m = Metric::tail("x", "ms", &Samples(vec![1.0; 40]), 90.0);
        assert_eq!(m.rank, Some(75.0));
        assert!(m.line().ends_with("rank=p75"));
    }
}
